"""Rewrite the golden CSV corpus: PYTHONPATH=src python tests/golden/regen.py

The corpus holds the trial and summary CSVs of the seven subcommands, at
the sizes of acceptance criterion 11, seed 17 and one worker, and of four
more cases that those sizes leave blind: rst-demo with the projected
gradient regularizer, whose ascent kernel none of the criterion-11 cases
runs; certify-demo at its default d and noise sigma with 40 points, whose
accuracies sit away from 0 and 1 so that a change of vote draws shows
(criterion 11's six points certified the same five under both the oracle
and the exact binomial vote draws); rst-demo with the stability
regularizer; rst-demo with four trials, which it trains as one full
lockstep group of three and one partial group; and verify at 30,001 Monte
Carlo samples, 15,001 scores in 3,751 noise rows of four, whose d = 1,024
pair ends on a lone +1 sample in a last row that uses one score, a partial
chunk (679 rows) and a partial row block (39 rows). Two more cases read their options from the config files next
to this script: rst-demo with keys that route to the training and
stage-one settings, and certify-demo with smoothing keys but no noise
sigma. Run this only after a deliberate change of draws or output, and say
in CHANGES.md which files changed and why: run as a script, it writes the
corpus to a temporary directory first, prints the names of the files whose
bytes changed (or that no file changed), and then rewrites those files.
"""

import filecmp
import os
import shutil
import tempfile

from rstsim.cli import main as cli_main

SEED = 17
HERE = os.path.dirname(os.path.abspath(__file__))
# the cases of acceptance criterion 11
CASES = {
    "verify": ["verify", "--trials", "4", "--mc-samples", "2000"],
    "gap": ["gap", "--trials", "3"],
    "sweep-unlabeled": ["sweep-unlabeled", "--trials", "2",
                        "--n-unlabeled-grid", "0,2000,8000"],
    "sweep-irrelevant": ["sweep-irrelevant", "--trials", "2",
                         "--alphas", "1,0.5,0", "--n-unlabeled", "2000"],
    "sweep-labels": ["sweep-labels", "--trials", "2",
                     "--n-labeled-grid", "2,4", "--n-unlabeled", "2000"],
    "rst-demo": ["rst-demo", "--trials", "2"],
    "certify-demo": ["certify-demo", "--trials", "6", "--d", "4",
                     "--noise-sigma", "1.5", "--n0-selection", "20",
                     "--n-estimation", "500", "--conf-alpha", "0.01",
                     "--radii", "0,0.5,1"],
}
CASES["rst-demo-pg"] = ["rst-demo", "--reg-kind", "adversarial_pg",
                        "--trials", "1"]
CASES["certify-demo-40"] = ["certify-demo", "--trials", "40"]
CASES["rst-demo-stability"] = ["rst-demo", "--reg-kind", "stability",
                               "--trials", "2"]
CASES["rst-demo-groups"] = ["rst-demo", "--trials", "4"]
CASES["verify-ragged"] = ["verify", "--trials", "5", "--mc-samples", "30001"]
CASES["rst-demo-config"] = ["rst-demo", "--config",
                            os.path.join(HERE, "rst-demo-config.ini")]
CASES["certify-demo-config"] = ["certify-demo", "--config",
                                os.path.join(HERE, "certify-demo-config.ini")]


def write_corpus(directory: str) -> list[str]:
    """Run every case into directory; return the names of the files written."""
    names = []
    for name, args in CASES.items():
        out = os.path.join(directory, f"{name}.csv")
        code = cli_main(args + ["--seed", str(SEED), "--workers", "1",
                                "--out", out])
        if code != 0:
            raise RuntimeError(f"{name} exited {code}")
        names += [f"{name}.csv", f"{name}.csv.summary.csv"]
    return names


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        changed = [name for name in write_corpus(tmp)
                   if not os.path.exists(os.path.join(HERE, name))
                   or not filecmp.cmp(os.path.join(tmp, name),
                                      os.path.join(HERE, name), shallow=False)]
        print("\n".join(f"changed: {name}" for name in changed)
              or "no file changed")
        for name in changed:
            shutil.copyfile(os.path.join(tmp, name), os.path.join(HERE, name))

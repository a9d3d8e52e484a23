"""The golden corpus: CSV bytes of every subcommand at a fixed seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rstsim
from golden.regen import write_corpus

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
# the code paths a CPU without AVX-512 (numpy's dispatch) and without
# AVX2 or FMA (glibc's libm) takes
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
             "GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F,-FMA4"}


def _assert_matches_golden(directory: Path, names) -> None:
    assert sorted(names) == sorted(p.name for p in GOLDEN.glob("*.csv"))
    changed = [name for name in names
               if (directory / name).read_bytes() != (GOLDEN / name).read_bytes()]
    assert not changed, (f"{changed} differ from tests/golden; after a "
                         "deliberate change run tests/golden/regen.py")


def test_outputs_match_golden_corpus(tmp_path):
    _assert_matches_golden(tmp_path, write_corpus(str(tmp_path)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: the corpus bytes differ on the "
                          "code path without AVX-512")
def test_outputs_match_golden_corpus_without_avx512(tmp_path):
    env = dict(os.environ, **NO_AVX512, PYTHONPATH=os.pathsep.join(
        [str(Path(rstsim.__file__).resolve().parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip("numpy refuses NPY_DISABLE_CPU_FEATURES on this CPU: "
                    + probe.stderr.strip().splitlines()[-1])
    # check=True: a run that fails raises CalledProcessError, not xfail
    subprocess.run([sys.executable, "-c",
                    "import sys; from golden.regen import write_corpus; "
                    "write_corpus(sys.argv[1])", str(tmp_path)],
                   env=env, cwd=TESTS, check=True, capture_output=True)
    _assert_matches_golden(tmp_path,
                           sorted(p.name for p in tmp_path.glob("*.csv")))

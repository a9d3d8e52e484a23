"""Command line front end for the experiment drivers.

Exit codes: 0 on success, 1 on usage, config, or validation errors, 2 when
--check finds a summary metric outside its threshold. Flags set a value,
a config file overrides flags, and built-in defaults fill the rest.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import (
    ExperimentSpec,
    RUNNERS,
    check_results,
    default_rst_config,
    summary_csv_lines,
    summary_path_for,
    trial_csv_lines,
    write_csv,
)
from .gaussian import canonical_model, thread_budget
from .smoothing import SmoothingConfig

SUBCOMMAND_KINDS = {
    "verify": "verify_closed_form",
    "gap": "gap",
    "sweep-unlabeled": "unlabeled_sweep",
    "sweep-irrelevant": "irrelevant_sweep",
    "sweep-labels": "label_sweep",
    "rst-demo": "rst_demo",
    "certify-demo": "certify_demo",
}

# built-in model points are pre-validated, so epsilon = 0.5 here does not
# need --allow-large-eps; only user-supplied epsilon goes through the gate
_BUILTIN = {
    "verify_closed_form": {"n0": 4, "d": 755_000, "eps": 0.5, "trials": 20},
    "gap": {"n0": 4, "d": 755_000, "eps": 0.5, "trials": 50},
    "unlabeled_sweep": {
        "n0": 4, "d": 755_000, "eps": 0.5, "trials": 50,
        "n_unlabeled_grid": (2_000, 4_000, 8_000, 16_000, 32_000, 64_000,
                             128_000)},
    "irrelevant_sweep": {"n0": 4, "d": 755_000, "eps": 0.5, "trials": 50,
                         "alphas": (1.0, 0.5, 0.25, 0.0)},
    "label_sweep": {"n0": 4, "d": 755_000, "eps": 0.5, "trials": 50,
                    "n_labeled_grid": (1, 2, 4, 8, 16)},
    "rst_demo": {"n0": 30, "d": 100, "eps": 0.5, "trials": 10,
                 "n_unlabeled": 3_000},
    "certify_demo": {"n0": 4, "d": 16, "eps": 0.5, "trials": 200},
}

_INT_KEYS = {"n0", "d", "trials", "seed", "workers", "n_labeled",
             "n_unlabeled", "grad_steps", "batch_size", "stage1_steps",
             "stage1_batch", "mc_samples", "n0_selection", "n_estimation"}
_FLOAT_KEYS = {"eps", "beta", "w_unlabeled", "learning_rate",
               "stage1_learning_rate", "noise_sigma", "conf_alpha"}
_BOOL_KEYS = {"allow_large_eps", "check"}
_INT_LIST_KEYS = {"n_unlabeled_grid", "n_labeled_grid"}
_FLOAT_LIST_KEYS = {"alphas", "radii"}
_STR_KEYS = {"out", "reg_kind", "use_fast_sampler"}
_ALL_KEYS = (_INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _INT_LIST_KEYS
             | _FLOAT_LIST_KEYS | _STR_KEYS)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in text.split(",")
                 if part.strip())


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    """Flat key = value lines, # comment lines, [section] per experiment."""
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ValueError(f"config line {lineno}: malformed section "
                                 f"header {line!r}")
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, "
                             f"got {line!r}")
        key, _, value = line.partition("=")
        norm = key.strip().lower().replace("-", "_")
        if not norm:
            raise ValueError(f"config line {lineno}: empty key")
        sections[current][norm] = value.strip()
    return sections


def _coerce(key: str, value: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _BOOL_KEYS:
            return _parse_bool(value)
        if key in _INT_LIST_KEYS:
            return _parse_int_list(value)
        if key in _FLOAT_LIST_KEYS:
            return _parse_float_list(value)
        if key in _STR_KEYS:
            return value
    except ValueError as exc:
        raise ValueError(f"config value for {key!r}: {exc}") from exc
    raise ValueError(f"unknown config key {key!r}")


def _config_overrides(path: str, kind: str, subcommand: str) -> dict:
    """Keys from the global section plus the section for this experiment."""
    with open(path, "r") as fh:
        sections = parse_config_text(fh.read())
    merged: dict[str, str] = {}
    merged.update(sections.get("", {}))
    for name in (kind, subcommand):
        merged.update(sections.get(name.lower(), {}))
    return {key: _coerce(key, value) for key, value in merged.items()}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n0", type=int, default=None,
                        help="labeled sample budget of the model point")
    parser.add_argument("--d", type=int, default=None,
                        help="ambient dimension (verify uses its own grid)")
    parser.add_argument("--eps", type=float, default=None,
                        help="ell-infinity attack radius")
    parser.add_argument("--allow-large-eps", action="store_const", const=True,
                        default=None,
                        help="permit eps >= 0.5 (weak-signal regime)")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per arm or grid point")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed; trial j uses substream j")
    parser.add_argument("--workers", type=int, default=None,
                        help="thread count (default: the cores this process "
                             "may run on); output is identical for any value; "
                             "rst-demo and certify-demo accept the flag but "
                             "run on one thread")
    parser.add_argument("--out", type=str, default=None,
                        help="trial CSV path; summary lands at <out>.summary.csv")
    parser.add_argument("--config", type=str, default=None,
                        help="config file; its values override flags")
    parser.add_argument("--check", action="store_const", const=True,
                        default=None,
                        help="gate summary metrics against thresholds, exit 2 "
                             "on failure")


def build_parser() -> _Parser:
    parser = _Parser(prog="rstsim", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    helps = {
        "verify": "closed-form error rates versus Monte Carlo",
        "gap": "supervised versus self-training at the theory thresholds",
        "sweep-unlabeled": "robust error as the unlabeled pool grows",
        "sweep-irrelevant": "effect of irrelevant unlabeled data",
        "sweep-labels": "effect of the labeled count at a fixed pool",
        "rst-demo": "robust self-training versus labeled-only training",
        "certify-demo": "randomized-smoothing certified accuracy curve",
    }
    parsers = {}
    for name in SUBCOMMAND_KINDS:
        sub = subs.add_parser(name, help=helps[name])
        _add_common_flags(sub)
        parsers[name] = sub
    parsers["verify"].add_argument("--mc-samples", type=int, default=None,
                                   help="Monte Carlo draws per pair")
    for name in ("gap", "sweep-unlabeled", "sweep-irrelevant", "sweep-labels",
                 "rst-demo"):
        parsers[name].add_argument("--n-labeled", type=int, default=None)
    for name in ("gap", "sweep-irrelevant", "sweep-labels", "rst-demo"):
        parsers[name].add_argument("--n-unlabeled", type=int, default=None)
    for name in ("gap", "sweep-unlabeled", "sweep-irrelevant", "sweep-labels"):
        parsers[name].add_argument(
            "--use-fast-sampler", choices=("auto", "always", "never"),
            default=None,
            help="auto and always draw from the exact estimator law; never "
                 "materializes the data (refused above the budget)")
    parsers["sweep-unlabeled"].add_argument(
        "--n-unlabeled-grid", type=str, default=None,
        help="comma separated ascending pool sizes; 0 means supervised only")
    parsers["sweep-irrelevant"].add_argument(
        "--alphas", type=str, default=None,
        help="comma separated relevant fractions in [0, 1]")
    parsers["sweep-labels"].add_argument(
        "--n-labeled-grid", type=str, default=None,
        help="comma separated ascending labeled counts, each >= 1")
    rst = parsers["rst-demo"]
    rst.add_argument("--beta", type=float, default=None)
    rst.add_argument("--w-unlabeled", type=float, default=None)
    rst.add_argument("--learning-rate", type=float, default=None)
    rst.add_argument("--grad-steps", type=int, default=None)
    rst.add_argument("--batch-size", type=int, default=None)
    rst.add_argument("--reg-kind", type=str, default=None,
                     choices=("adversarial_exact", "adversarial_pg",
                              "stability"))
    rst.add_argument("--stage1-learning-rate", type=float, default=None)
    rst.add_argument("--stage1-steps", type=int, default=None)
    rst.add_argument("--stage1-batch", type=int, default=None)
    cert = parsers["certify-demo"]
    cert.add_argument("--noise-sigma", type=float, default=None,
                      help="smoothing noise scale; defaults to the data sigma")
    cert.add_argument("--n0-selection", type=int, default=None)
    cert.add_argument("--n-estimation", type=int, default=None)
    cert.add_argument("--conf-alpha", type=float, default=None)
    cert.add_argument("--radii", type=str, default=None,
                      help="comma separated ascending ell-2 radii")
    return parser


def _gather_options(subcommand: str, args: argparse.Namespace) -> dict:
    kind = SUBCOMMAND_KINDS[subcommand]
    options: dict = {}
    for key, value in vars(args).items():
        if key in ("subcommand",) or value is None:
            continue
        norm = key.replace("-", "_")
        if norm == "config":
            continue
        if norm in _INT_LIST_KEYS:
            value = _parse_int_list(value)
        elif norm in _FLOAT_LIST_KEYS:
            value = _parse_float_list(value)
        options[norm] = value
    if args.config is not None:
        options.update(_config_overrides(args.config, kind, subcommand))
    return options


def _resolve_epsilon(kind: str, options: dict) -> tuple[float, bool]:
    builtin = _BUILTIN[kind]["eps"]
    if "eps" not in options:
        return builtin, True
    eps = float(options["eps"])
    allow = bool(options.get("allow_large_eps", False))
    if eps >= 0.5 and not allow:
        raise ValueError(
            f"eps = {eps} is at or above 0.5; pass --allow-large-eps to "
            "confirm the weak-signal regime")
    return eps, allow


def _build_spec(subcommand: str, options: dict) -> ExperimentSpec:
    kind = SUBCOMMAND_KINDS[subcommand]
    builtin = _BUILTIN[kind]
    unknown = set(options) - _ALL_KEYS
    if unknown:
        raise ValueError(f"unknown option(s): {', '.join(sorted(unknown))}")
    eps, allow = _resolve_epsilon(kind, options)
    n0 = int(options.get("n0", builtin["n0"]))
    d = int(options.get("d", builtin["d"]))
    fields: dict = {
        "kind": kind, "n0": n0, "d": d, "epsilon": eps,
        "allow_large_epsilon": allow,
        "trial_count": int(options.get("trials", builtin["trials"])),
        "master_seed": int(options.get("seed", 0)),
        "workers": int(options.get("workers", thread_budget(1))),
    }
    if "n_labeled" in options:
        fields["n_labeled"] = int(options["n_labeled"])
    if "n_unlabeled" in options:
        fields["n_unlabeled"] = int(options["n_unlabeled"])
    elif "n_unlabeled" in builtin:
        fields["n_unlabeled"] = builtin["n_unlabeled"]
    if kind == "unlabeled_sweep":
        fields["n_unlabeled_grid"] = tuple(
            options.get("n_unlabeled_grid", builtin["n_unlabeled_grid"]))
    if kind == "irrelevant_sweep":
        fields["alpha_grid"] = tuple(options.get("alphas", builtin["alphas"]))
    if kind == "label_sweep":
        fields["n_labeled_grid"] = tuple(
            options.get("n_labeled_grid", builtin["n_labeled_grid"]))
    if kind == "verify_closed_form" and "mc_samples" in options:
        fields["mc_samples"] = int(options["mc_samples"])
    if "use_fast_sampler" in options:
        mode = options["use_fast_sampler"]
        if mode not in ("auto", "always", "never"):
            raise ValueError("use_fast_sampler must be auto, always, or never")
        fields["use_fast_sampler"] = mode != "never"
    if kind == "rst_demo":
        for key in ("stage1_learning_rate", "stage1_steps", "stage1_batch"):
            if key in options:
                fields[key] = options[key]
        rst_keys = ("beta", "w_unlabeled", "learning_rate", "grad_steps",
                    "batch_size", "reg_kind")
        given = {key: options[key] for key in rst_keys if key in options}
        fields["rst_config"] = replace(default_rst_config(eps), **given)
    if kind == "certify_demo":
        smoothing_keys = ("noise_sigma", "n0_selection", "n_estimation",
                          "conf_alpha")
        given = {key: options[key] for key in smoothing_keys if key in options}
        given.setdefault("noise_sigma", canonical_model(
            n0, d, eps, allow_large_epsilon=True).sigma)
        fields["smoothing"] = SmoothingConfig(**given)
        if "radii" in options:
            fields["radii"] = tuple(options["radii"])
    return ExperimentSpec(**fields)


def _run(subcommand: str, args: argparse.Namespace) -> int:
    options = _gather_options(subcommand, args)
    out_path = options.get("out", f"rstsim_{subcommand}.csv")
    do_check = bool(options.get("check", False))
    for key in ("out", "check"):
        options.pop(key, None)
    spec = _build_spec(subcommand, options)
    rows, summaries = RUNNERS[spec.kind](spec)
    write_csv(out_path, trial_csv_lines(rows))
    summary_path = summary_path_for(out_path)
    write_csv(summary_path, summary_csv_lines(summaries))
    print(f"wrote {out_path} ({len(rows)} trial rows)")
    print(f"wrote {summary_path} ({len(summaries)} summary rows)")
    if do_check:
        failures = check_results(spec, rows, summaries)
        if failures:
            for line in failures:
                print(f"check: {line}", file=sys.stderr)
            return 2
        print("check passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise _UsageError("a subcommand is required (try --help)")
        return _run(args.subcommand, args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end for the experiment drivers.

Exit codes: 0 on success, 1 on usage, config, or validation errors, 2 when
--check finds a summary metric outside its threshold. Flags set a value,
a config file overrides flags, and built-in defaults fill the rest.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

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
from . import gaussian
from .gaussian import canonical_sigma
from .rst import RstConfig
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

# option values that differ from ExperimentSpec's defaults, by option key
_BUILTIN = {
    "verify_closed_form": {"trials": 20},
    "unlabeled_sweep": {"n_unlabeled_grid": (2_000, 4_000, 8_000, 16_000,
                                             32_000, 64_000, 128_000)},
    "irrelevant_sweep": {"alphas": (1.0, 0.5, 0.25, 0.0)},
    "label_sweep": {"n_labeled_grid": (1, 2, 4, 8, 16)},
    "rst_demo": {"n0": 30, "d": 100, "trials": 10},
    "certify_demo": {"d": 16, "trials": 200},
}
# option keys whose ExperimentSpec field has another name
_SPEC_FIELDS = {"trials": "trial_count", "seed": "master_seed",
                "eps": "epsilon", "allow_large_eps": "allow_large_epsilon",
                "alphas": "alpha_grid"}
# options that go to the config object a kind carries, not to the spec
_NESTED_FIELDS = {"rst_demo": {f.name for f in fields(RstConfig)},
                  "certify_demo": {f.name for f in fields(SmoothingConfig)}}


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


def _list_of(item: type):
    """Parser of a comma separated list; argparse names it in its message
    for a malformed value."""
    def parse(text: str) -> tuple:
        return tuple(item(part.strip()) for part in text.split(",")
                     if part.strip())
    parse.__name__ = f"{item.__name__} list"
    return parse


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


def _config_keys(parser: argparse.ArgumentParser) -> dict:
    """Each subcommand's config keys, its long flags but --config and
    --help, mapped to the actions that parse them."""
    subs = next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))
    return {name: {action.dest: action for action in sub._actions
                   if action.option_strings
                   and action.dest not in ("config", "help")}
            for name, sub in subs.choices.items()}


def _coerce(action: argparse.Action, key: str, value: str):
    """A config value parsed as its flag parses it on the command line; a
    flag that takes no value (store_const) takes a boolean word."""
    try:
        coerced = (_parse_bool(value) if action.nargs == 0
                   else action.type(value))
    except ValueError as exc:
        raise ValueError(f"config value for {key!r}: {exc}") from exc
    if action.choices is not None and coerced not in action.choices:
        raise ValueError(f"config value for {key!r} must be one of "
                         f"{', '.join(action.choices)}, got {value!r}")
    return coerced


def _config_overrides(path: str, subcommand: str, keys: dict) -> dict:
    """Keys from the global section plus the section for this experiment.
    Every key is a flag of some subcommand and is checked with that flag's
    action; it applies only if this subcommand has the flag."""
    with open(path, "r") as fh:
        sections = parse_config_text(fh.read())
    merged: dict[str, str] = {}
    for name in ("", SUBCOMMAND_KINDS[subcommand], subcommand):
        merged.update(sections.get(name, {}))
    actions = {key: action for table in keys.values()
               for key, action in table.items()}
    overrides = {}
    for key, value in merged.items():
        if key not in actions:
            raise ValueError(f"unknown config key {key!r}")
        coerced = _coerce(actions[key], key, value)
        if key in keys[subcommand]:
            overrides[key] = coerced
    return overrides


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
                        help="threads per gap or sweep trial (default: the "
                             "cores this process may run on); output is "
                             "identical for any value; verify runs its Monte "
                             "Carlo on every core, and rst-demo and "
                             "certify-demo on one thread, whatever the value")
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
    parsers["sweep-unlabeled"].add_argument(
        "--n-unlabeled-grid", type=_list_of(int), default=None,
        help="comma separated ascending pool sizes; 0 means supervised only")
    parsers["sweep-irrelevant"].add_argument(
        "--alphas", type=_list_of(float), default=None,
        help="comma separated relevant fractions in [0, 1]")
    parsers["sweep-labels"].add_argument(
        "--n-labeled-grid", type=_list_of(int), default=None,
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
    cert.add_argument("--radii", type=_list_of(float), default=None,
                      help="comma separated ascending ell-2 radii")
    return parser


def _gather_options(parser: argparse.ArgumentParser,
                    args: argparse.Namespace) -> dict:
    options = {key: value for key, value in vars(args).items()
               if value is not None and key not in ("subcommand", "config")}
    if args.config is not None:
        options.update(_config_overrides(args.config, args.subcommand,
                                         _config_keys(parser)))
    return options


def _build_spec(subcommand: str, options: dict) -> ExperimentSpec:
    kind = SUBCOMMAND_KINDS[subcommand]
    options = {**_BUILTIN.get(kind, {}), **options}
    # built-in model points are pre-validated, so epsilon = 0.5 there does
    # not need --allow-large-eps; only user-supplied epsilon is gated
    if "eps" not in options:
        options["allow_large_eps"] = True
    elif options["eps"] >= 0.5 and not options.get("allow_large_eps"):
        raise ValueError(
            f"eps = {options['eps']} is at or above 0.5; pass "
            "--allow-large-eps to confirm the weak-signal regime")
    nested_keys = _NESTED_FIELDS.get(kind, set())
    nested = {key: options.pop(key) for key in nested_keys & set(options)}
    values = {"kind": kind, "workers": gaussian._mc_threads()}
    values.update((_SPEC_FIELDS.get(key, key), value)
                  for key, value in options.items())
    spec = ExperimentSpec(**values)
    if kind == "rst_demo":
        return replace(spec, rst_config=replace(
            default_rst_config(spec.epsilon), **nested))
    if kind == "certify_demo":
        nested.setdefault("noise_sigma", canonical_sigma(spec.n0, spec.d))
        return replace(spec, smoothing=SmoothingConfig(**nested))
    return spec


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    options = _gather_options(parser, args)
    out_path = options.pop("out", f"rstsim_{args.subcommand}.csv")
    do_check = options.pop("check", False)
    spec = _build_spec(args.subcommand, options)
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
        return _run(parser, args)
    except (_UsageError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end for the experiment drivers.

Exit codes: 0 on success, 1 on usage, config, or validation errors, 2 when
--check finds a summary metric outside its threshold. Flags set a value,
a config file overrides flags, and built-in defaults fill the rest.
"""

from __future__ import annotations

import argparse
import os
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

# subcommand: (ExperimentSpec kind, help)
_SUBCOMMANDS = {
    "verify": ("verify_closed_form",
               "closed-form error rates versus Monte Carlo"),
    "gap": ("gap", "supervised versus self-training at the theory thresholds"),
    "sweep-unlabeled": ("unlabeled_sweep",
                        "robust error as the unlabeled pool grows"),
    "sweep-irrelevant": ("irrelevant_sweep",
                         "effect of irrelevant unlabeled data"),
    "sweep-labels": ("label_sweep",
                     "effect of the labeled count at a fixed pool"),
    "rst-demo": ("rst_demo",
                 "robust self-training versus labeled-only training"),
    "certify-demo": ("certify_demo",
                     "randomized-smoothing certified accuracy curve"),
}
SUBCOMMAND_KINDS = {name: kind for name, (kind, _) in _SUBCOMMANDS.items()}

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


_ALL = tuple(_SUBCOMMANDS)
# one row per option: (config key, type, subcommands, help); the flag is the
# key with dashes. A type of None marks a switch, a tuple lists the choices,
# and anything else parses the value.
_OPTIONS = (
    ("n0", int, _ALL, "labeled sample budget of the model point"),
    ("d", int, _ALL, "ambient dimension (verify uses its own grid)"),
    ("eps", float, _ALL, "ell-infinity attack radius"),
    ("allow_large_eps", None, _ALL, "permit eps >= 0.5 (weak-signal regime)"),
    ("trials", int, _ALL, "trials per arm or grid point"),
    ("seed", int, _ALL, "master seed; trial j uses substream j"),
    ("workers", int, _ALL, "threads per gap or sweep trial (default: the "
     "cores this process may run on); output is identical for any value; "
     "verify runs its Monte Carlo on every core, and rst-demo and "
     "certify-demo on one thread, whatever the value"),
    ("out", str, _ALL, "trial CSV path; summary lands at <out>.summary.csv"),
    ("check", None, _ALL,
     "gate summary metrics against thresholds, exit 2 on failure"),
    ("mc_samples", int, ("verify",), "Monte Carlo draws per pair"),
    ("n_labeled", int, ("gap", "sweep-unlabeled", "sweep-irrelevant",
                        "sweep-labels", "rst-demo"), None),
    ("n_unlabeled", int, ("gap", "sweep-irrelevant", "sweep-labels",
                          "rst-demo"), None),
    ("n_unlabeled_grid", _list_of(int), ("sweep-unlabeled",),
     "comma separated ascending pool sizes; 0 means supervised only"),
    ("alphas", _list_of(float), ("sweep-irrelevant",),
     "comma separated relevant fractions in [0, 1]"),
    ("n_labeled_grid", _list_of(int), ("sweep-labels",),
     "comma separated ascending labeled counts, each >= 1"),
    ("beta", float, ("rst-demo",), None),
    ("w_unlabeled", float, ("rst-demo",), None),
    ("learning_rate", float, ("rst-demo",), None),
    ("grad_steps", int, ("rst-demo",), None),
    ("batch_size", int, ("rst-demo",), None),
    ("reg_kind", ("adversarial_exact", "adversarial_pg", "stability"),
     ("rst-demo",), None),
    ("stage1_learning_rate", float, ("rst-demo",), None),
    ("stage1_steps", int, ("rst-demo",), None),
    ("stage1_batch", int, ("rst-demo",), None),
    ("noise_sigma", float, ("certify-demo",),
     "smoothing noise scale; defaults to the data sigma"),
    ("n0_selection", int, ("certify-demo",), None),
    ("n_estimation", int, ("certify-demo",), None),
    ("conf_alpha", float, ("certify-demo",), None),
    ("radii", _list_of(float), ("certify-demo",),
     "comma separated ascending ell-2 radii"),
)


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


def _config_value(value_type, key: str, text: str):
    """A config value parsed as its flag parses it on the command line; a
    switch takes a boolean word."""
    if isinstance(value_type, tuple):
        if text not in value_type:
            raise ValueError(f"config value for {key!r} must be one of "
                             f"{', '.join(value_type)}, got {text!r}")
        return text
    try:
        return _parse_bool(text) if value_type is None else value_type(text)
    except ValueError as exc:
        raise ValueError(f"config value for {key!r}: {exc}") from exc


def _config_overrides(path: str, subcommand: str) -> dict:
    """Keys from the global section plus the section for this experiment.
    Every key is an option of some subcommand and is checked as its flag
    checks it; it applies only if this subcommand has the option."""
    with open(path, "r") as fh:
        sections = parse_config_text(fh.read())
    merged: dict[str, str] = {}
    for name in ("", SUBCOMMAND_KINDS[subcommand], subcommand):
        merged.update(sections.get(name, {}))
    options = {key: (value_type, names)
               for key, value_type, names, _ in _OPTIONS}
    overrides = {}
    for key, text in merged.items():
        if key not in options:
            raise ValueError(f"unknown config key {key!r}")
        value_type, names = options[key]
        value = _config_value(value_type, key, text)
        if subcommand in names:
            overrides[key] = value
    return overrides


def build_parser() -> _Parser:
    parser = _Parser(prog="rstsim", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, (_, sub_help) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=sub_help)
        for key, value_type, names, help_text in _OPTIONS:
            if name not in names:
                continue
            kwargs = ({"action": "store_const", "const": True}
                      if value_type is None else
                      {"choices": value_type} if isinstance(value_type, tuple)
                      else {"type": value_type})
            sub.add_argument("--" + key.replace("_", "-"), help=help_text,
                             **kwargs)
            if key == "out":
                sub.add_argument("--config",
                                 help="config file; its values override flags")
    return parser


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


def _check_out(out_path: str) -> None:
    """Refuse, before any work, an output path the run could not write."""
    if not out_path:
        raise ValueError("the output path is empty")
    directory = os.path.dirname(out_path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory!r} does not exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ValueError(f"output directory {directory!r} is not writable")
    for path in (out_path, summary_path_for(out_path)):
        if os.path.isdir(path):
            raise ValueError(f"output path {path!r} is a directory")


def _run(args: argparse.Namespace) -> int:
    options = {key: value for key, value in vars(args).items()
               if value is not None and key not in ("subcommand", "config")}
    if args.config is not None:
        options.update(_config_overrides(args.config, args.subcommand))
    out_path = options.pop("out", f"rstsim_{args.subcommand}.csv")
    _check_out(out_path)
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
        return _run(args)
    except (_UsageError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

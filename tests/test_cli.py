"""CLI behavior: exit codes, config handling, schemas, determinism."""

import argparse
import dataclasses

import pytest

from rstsim import cli, gaussian, smoothing
from rstsim.cli import (
    SUBCOMMAND_KINDS,
    build_parser,
    main,
    parse_config_text,
)
from rstsim.experiments import (
    RUNNERS,
    SUMMARY_HEADER,
    TRIAL_HEADER,
    ExperimentSpec,
)


def test_subcommand_table_is_complete():
    assert set(SUBCOMMAND_KINDS) == {"verify", "gap", "sweep-unlabeled",
                                     "sweep-irrelevant", "sweep-labels",
                                     "rst-demo", "certify-demo"}


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["gap", "--trials", "3", "--seed", "5"])
    assert args.subcommand == "gap"
    assert args.trials == 3 and args.seed == 5


# ------------------------------------------------------------------- config

def test_config_parsing_sections_and_comments():
    text = """
# a comment
seed = 4

[gap]
trials = 7
n-unlabeled = 100

[sweep-unlabeled]
trials = 9
"""
    sections = parse_config_text(text)
    assert sections[""] == {"seed": "4"}
    assert sections["gap"] == {"trials": "7", "n_unlabeled": "100"}
    assert sections["sweep-unlabeled"] == {"trials": "9"}


def test_config_parsing_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_config_text("[gap\ntrials = 3")
    with pytest.raises(ValueError):
        parse_config_text("just some words")
    with pytest.raises(ValueError):
        parse_config_text("= 3")


# --------------------------------------------------------------- exit codes

def test_no_subcommand_exits_one(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["gap", "--bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_large_eps_needs_flag(capsys, tmp_path):
    out = str(tmp_path / "g.csv")
    assert main(["gap", "--eps", "0.6", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "allow-large-eps" in err
    assert main(["gap", "--eps", "0.5", "--out", out]) == 1


def test_large_eps_allowed_with_flag(tmp_path):
    out = str(tmp_path / "g.csv")
    code = main(["gap", "--eps", "0.6", "--allow-large-eps", "--trials", "1",
                 "--out", out])
    assert code == 0


def test_small_eps_needs_no_flag(tmp_path):
    out = str(tmp_path / "g.csv")
    assert main(["gap", "--eps", "0.3", "--trials", "1", "--out", out]) == 0


def test_builtin_default_eps_runs_without_flag(tmp_path):
    # the built-in gap point uses eps = 0.5 and is pre-validated
    out = str(tmp_path / "g.csv")
    assert main(["gap", "--trials", "1", "--out", out]) == 0
    header = open(out).readline().rstrip("\n")
    assert header == TRIAL_HEADER
    first = open(out).read().splitlines()[1]
    assert first.split(",")[3] == "0.5"


def test_unwritable_out_exits_one(capsys):
    assert main(["verify", "--trials", "1", "--mc-samples", "200",
                 "--out", "/nonexistent-dir/x.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_memory_error_exits_one_with_one_line(monkeypatch, tmp_path, capsys):
    from rstsim import experiments

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array with "
                          "shape (20000000000,) and data type float64")

    monkeypatch.setattr(experiments, "canonical_model", refuse)
    assert main(["gap", "--d", "20000000000",
                 "--out", str(tmp_path / "g.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 149. GiB")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, quantity", [
    (["gap", "--n0", "0"], "n0"),
    (["sweep-irrelevant", "--n0", "0"], "n0"),
    (["sweep-labels", "--n0", "0"], "n0"),
    (["gap", "--eps", "inf", "--allow-large-eps"], "epsilon"),
    (["sweep-irrelevant", "--eps", "inf", "--allow-large-eps"], "epsilon"),
    (["gap", "--n0", "-1"], "n0"),
    (["gap", "--d", "-5"], "d"),
    (["gap", "--d", "0"], "d"),
    (["gap", "--eps", "nan"], "epsilon")])
def test_bad_model_point_exits_one_naming_it(tmp_path, capsys, argv,
                                             quantity):
    # the model point is vetted before the threshold formulas read it
    assert main(argv + ["--trials", "1",
                        "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {quantity} must be ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("alpha", ["1e-200", "1e-160"])
def test_tiny_alpha_exits_one_naming_the_pool(tmp_path, capsys, alpha):
    # alpha^2 underflows to 0 or a subnormal: the scaled pool is refused
    # before anything is drawn
    assert main(["sweep-irrelevant", "--alphas", alpha, "--trials", "1",
                 "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: alpha={float(alpha)} scales the pool of ")
    assert err.endswith("/alpha^2 >= 2^63 points\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("radii", ["nan", "0,nan"])
def test_nan_radius_exits_one_naming_it(tmp_path, capsys, radii):
    assert main(["certify-demo", "--radii", radii, "--trials", "2",
                 "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert err == "error: radius must be >= 0, got nan\n"
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("sub, flag, value, kind", [
    ("sweep-irrelevant", "--alphas", "0.5,x", "float"),
    ("sweep-unlabeled", "--n-unlabeled-grid", "0,1e3", "int")])
def test_malformed_list_flag_names_itself(capsys, sub, flag, value, kind):
    assert main([sub, flag, value]) == 1
    assert capsys.readouterr().err == (
        f"error: argument {flag}: invalid {kind} list value: '{value}'\n")


def test_missing_config_exits_one(tmp_path, capsys):
    out = str(tmp_path / "g.csv")
    assert main(["gap", "--config", str(tmp_path / "nope.ini"),
                 "--out", out]) == 1


def test_bad_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[gap]\nwibble = 3\n")
    out = str(tmp_path / "g.csv")
    assert main(["gap", "--config", str(cfg), "--out", out]) == 1
    assert "wibble" in capsys.readouterr().err


# ----------------------------------------------------------- config overrides

def test_config_overrides_flags(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("seed = 9\n\n[gap]\ntrials = 2\nn-unlabeled = 50\n")
    out = str(tmp_path / "g.csv")
    assert main(["gap", "--trials", "40", "--seed", "1", "--config", str(cfg),
                 "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 1 + 3 * 2
    selftrain = [l for l in lines if l.startswith("gap:selftrain")]
    assert all(l.split(",")[5] == "50" for l in selftrain)


def test_config_section_for_other_experiment_ignored(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[sweep-unlabeled]\ntrials = 33\n\n[gap]\ntrials = 1\n")
    out = str(tmp_path / "g.csv")
    assert main(["gap", "--config", str(cfg), "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 1 + 3


# ------------------------------------------------------------ option surface

_COMMON = {"--n0", "--d", "--eps", "--allow-large-eps", "--trials", "--seed",
           "--workers", "--out", "--config", "--check"}
_RST = {"--beta", "--w-unlabeled", "--learning-rate", "--grad-steps",
        "--batch-size", "--reg-kind", "--stage1-learning-rate",
        "--stage1-steps", "--stage1-batch"}
OPTION_SURFACE = {
    "verify": _COMMON | {"--mc-samples"},
    "gap": _COMMON | {"--n-labeled", "--n-unlabeled"},
    "sweep-unlabeled": _COMMON | {"--n-labeled", "--n-unlabeled-grid"},
    "sweep-irrelevant": _COMMON | {"--n-labeled", "--n-unlabeled",
                                   "--alphas"},
    "sweep-labels": _COMMON | {"--n-labeled", "--n-unlabeled",
                               "--n-labeled-grid"},
    # --workers stays on rst-demo and certify-demo: perfbench passes it
    "rst-demo": _COMMON | {"--n-labeled", "--n-unlabeled"} | _RST,
    "certify-demo": _COMMON | {"--noise-sigma", "--n0-selection",
                               "--n-estimation", "--conf-alpha", "--radii"},
}
_LIST_FLAGS = {"--n-unlabeled-grid", "--alphas", "--n-labeled-grid", "--radii"}


def _long_flags(parser) -> dict[str, dict[str, argparse.Action]]:
    """Each subcommand's long flags (--help aside) and their actions."""
    subs = next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))
    return {name: {flag: action for action in sub._actions
                   for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"}
            for name, sub in subs.choices.items()}


def test_option_surface_is_frozen():
    flags = _long_flags(build_parser())
    surface = {name: set(table) for name, table in flags.items()}
    assert surface == OPTION_SURFACE
    assert [len(OPTION_SURFACE[name]) for name in SUBCOMMAND_KINDS] == [
        11, 12, 12, 13, 13, 21, 15]
    assert len(set().union(*OPTION_SURFACE.values())) == 30


def test_every_spec_field_is_reached_by_an_option():
    # a field that no flag or config key sets only ever holds its default;
    # the config objects and the kind are built from the subcommand
    reached = {cli._SPEC_FIELDS.get(key, key) for key, *_ in cli._OPTIONS}
    fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    assert fields - reached - {"kind", "rst_config", "smoothing"} == set()


@pytest.fixture
def resolve(monkeypatch, tmp_path):
    """Run main without running a driver or writing a file; return the exit
    code, the spec the driver would get, the paths written and whether the
    gate ran."""
    seen = {}

    def runner(spec):
        seen["spec"] = spec
        return [], []

    def gate(spec, rows, summaries):
        seen["checked"] = True
        return []

    for kind in RUNNERS:
        monkeypatch.setitem(RUNNERS, kind, runner)
    monkeypatch.setattr(cli, "write_csv",
                        lambda path, lines: seen["paths"].append(path))
    monkeypatch.setattr(cli, "check_results", gate)
    monkeypatch.setattr(gaussian, "_mc_threads", lambda: 2)

    def run(argv, config=None):
        seen.clear()
        seen["paths"] = []
        if config is not None:
            path = tmp_path / "c.ini"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        code = main(argv)
        return (code, seen.get("spec"), tuple(seen["paths"]),
                seen.get("checked", False))

    return run


def _flag_value(flag: str, action: argparse.Action) -> str:
    if flag in _LIST_FLAGS:
        return "0, 10 ,30"
    if action.choices:
        return action.choices[-1]
    if flag == "--out":
        return "elsewhere/x.csv"
    return "7" if action.type is int else "0.3"


def test_every_flag_equals_its_config_key(resolve):
    kinds = set()
    for sub, table in _long_flags(build_parser()).items():
        for i, (flag, action) in enumerate(sorted(table.items())):
            if flag == "--config":
                continue
            key = flag[2:] if i % 2 else flag[2:].replace("-", "_")
            base = [sub]
            if action.nargs == 0:
                kinds.add("bool")
                # eps = 0.6 needs --allow-large-eps: yes runs, off exits 1
                if flag == "--allow-large-eps":
                    base += ["--eps", "0.6"]
                cases = [([flag], "yes"), ([], "off")]
            else:
                value = _flag_value(flag, action)
                kinds.add("list" if flag in _LIST_FLAGS else
                          "choice" if action.choices else
                          getattr(action.type, "__name__", "str"))
                cases = [([flag, value], value)]
            for extra, text in cases:
                by_flag = resolve(base + extra)
                by_config = resolve(base, f"[{sub}]\n{key} = {text}\n")
                assert by_flag == by_config, (sub, flag, text)
                if extra:
                    assert by_flag[0] == 0, (sub, flag)
                    # the value reached the run: it differs from no value
                    assert by_flag != resolve(base), (sub, flag)
    assert kinds == {"bool", "int", "float", "list", "choice", "str"}


def test_config_key_the_subcommand_lacks(resolve, capsys):
    # checked and refused when malformed, even in the global section
    assert resolve(["gap"], "alphas = 0.5,x\n")[0] == 1
    assert "alphas" in capsys.readouterr().err
    assert resolve(["gap"], "[gap]\nbeta = x\n")[0] == 1
    assert "beta" in capsys.readouterr().err
    # and ignored when well formed
    assert resolve(["gap"], "[gap]\nbeta = 2\n") == resolve(["gap"])


_TRUE_WORDS = ("true", "yes", "1", "on", "TRUE", "Yes", " oN ", "  1")
_FALSE_WORDS = ("false", "no", "0", "off", "FALSE", "No", " oFf ", "0  ")


@pytest.mark.parametrize("flag, base", [
    ("--check", ["gap"]),
    # eps = 0.6 needs --allow-large-eps: a true word runs, a false one exits 1
    ("--allow-large-eps", ["gap", "--eps", "0.6"])])
def test_config_boolean_words_equal_the_switch(resolve, flag, base):
    key = flag[2:].replace("-", "_")
    on, off = resolve(base + [flag]), resolve(base)
    assert on != off
    for words, expected in ((_TRUE_WORDS, on), (_FALSE_WORDS, off)):
        for word in words:
            config = f"[gap]\n{key} = {word}\n"
            assert resolve(base, config) == expected, (flag, word)


def test_config_boolean_rejects_other_words(resolve, capsys):
    assert resolve(["gap"], "check = maybe\n")[0] == 1
    assert capsys.readouterr().err == (
        "error: config value for 'check': expected a boolean, got 'maybe'\n")


def test_config_choice_rejects_other_values(resolve, capsys):
    assert resolve(["rst-demo"], "[rst-demo]\nreg_kind = nope\n")[0] == 1
    assert capsys.readouterr().err == (
        "error: config value for 'reg_kind' must be one of adversarial_exact, "
        "adversarial_pg, stability, got 'nope'\n")


@pytest.mark.parametrize("key, value", [("config", "x"), ("help", "1")])
def test_config_and_help_are_unknown_keys(resolve, capsys, key, value):
    assert resolve(["gap"], f"{key} = {value}\n")[0] == 1
    err = capsys.readouterr().err
    assert "unknown" in err and key in err


# ------------------------------------------------------------------ outputs

def test_verify_writes_both_files_with_exact_headers(tmp_path):
    out = str(tmp_path / "v.csv")
    assert main(["verify", "--trials", "3", "--mc-samples", "500",
                 "--seed", "2", "--out", out]) == 0
    trial_lines = open(out).read().splitlines()
    summary_lines = open(out + ".summary.csv").read().splitlines()
    assert trial_lines[0] == TRIAL_HEADER
    assert summary_lines[0] == SUMMARY_HEADER
    assert len(trial_lines) == 1 + 6


def test_verify_eps_zero_pair_has_identical_columns(tmp_path):
    out = str(tmp_path / "v.csv")
    assert main(["verify", "--trials", "3", "--mc-samples", "500",
                 "--seed", "2", "--out", out]) == 0
    rows = [l.split(",") for l in open(out).read().splitlines()[1:]]
    eps0 = [r for r in rows if r[3] == "0"]
    assert eps0, "the pair grid includes an epsilon = 0 pair"
    for r in eps0:
        assert r[8] == r[9]


def test_absent_fields_serialize_empty(tmp_path):
    out = str(tmp_path / "v.csv")
    assert main(["verify", "--trials", "1", "--mc-samples", "200",
                 "--out", out]) == 0
    row = open(out).read().splitlines()[1].split(",")
    assert row[4] == "" and row[5] == "" and row[6] == "" and row[10] == ""


def test_workers_default_to_the_cores(monkeypatch):
    from rstsim import gaussian
    from rstsim.cli import _build_spec
    monkeypatch.setattr(gaussian, "_mc_threads", lambda: 8)
    assert _build_spec("gap", {}).workers == 8
    assert _build_spec("verify", {}).workers == 8
    # more workers than cores stay accepted
    assert _build_spec("gap", {"workers": 16}).workers == 16


def test_certify_demo_default_sigma_builds_no_model():
    # the default noise sigma is (n0 d)^(1/4); building mu for it would
    # hold 80 MB at d = 1e7
    import tracemalloc
    from rstsim.cli import _build_spec
    tracemalloc.start()
    try:
        spec = _build_spec("certify-demo", {"d": 10_000_000})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    model = gaussian.canonical_model(spec.n0, spec.d, spec.epsilon,
                                     allow_large_epsilon=True)
    assert spec.smoothing.noise_sigma == model.sigma


def test_worker_count_does_not_change_bytes(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    base = ["verify", "--trials", "4", "--mc-samples", "400", "--seed", "3"]
    assert main(base + ["--workers", "1", "--out", out1]) == 0
    assert main(base + ["--workers", "4", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    assert (open(out1 + ".summary.csv", "rb").read()
            == open(out2 + ".summary.csv", "rb").read())


def test_verify_bytes_equal_at_every_worker_count(tmp_path):
    # pair 4 is d = 1,024: 30 Monte Carlo chunks of 1,024 rows, the last
    # one of 305, each drawn in row blocks of 128
    outputs = set()
    for workers in (1, 2, 3, 8):
        out = str(tmp_path / f"v{workers}.csv")
        assert main(["verify", "--trials", "5", "--mc-samples", "30001",
                     "--seed", "17", "--workers", str(workers),
                     "--out", out]) == 0
        outputs.add((open(out, "rb").read(),
                     open(out + ".summary.csv", "rb").read()))
    assert len(outputs) == 1


def test_check_gate_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "g.csv")
    code = main(["gap", "--trials", "2", "--seed", "2", "--check",
                 "--out", out])
    assert code == 0
    assert "check passed" in capsys.readouterr().out
    code = main(["gap", "--trials", "2", "--seed", "2", "--n-unlabeled", "10",
                 "--check", "--out", out])
    assert code == 2
    assert "check:" in capsys.readouterr().err


def test_certify_demo_cli_small(tmp_path):
    out = str(tmp_path / "c.csv")
    code = main(["certify-demo", "--trials", "8", "--d", "4",
                 "--noise-sigma", "1.5", "--n0-selection", "10",
                 "--n-estimation", "200", "--conf-alpha", "0.01",
                 "--radii", "0,0.5", "--seed", "4", "--out", out])
    assert code == 0
    trial_lines = open(out).read().splitlines()
    assert trial_lines == [TRIAL_HEADER]
    summary_lines = open(out + ".summary.csv").read().splitlines()
    metrics = {l.split(",")[3] for l in summary_lines[1:]}
    assert metrics == {"certified_accuracy", "analytic_accuracy",
                       "radius_linf"}


def test_certify_demo_check_passes_at_seed_11(tmp_path, capsys):
    # at radius 0, 183 of 200 points count against an analytic 186.1: 3.7
    # sd off, which the normal 3-sd rule flagged, but the exact two-sided
    # tail of the skewed count is 0.0032, above the 0.0027 level
    out = str(tmp_path / "c.csv")
    assert main(["certify-demo", "--seed", "11", "--check",
                 "--out", out]) == 0
    assert "check passed" in capsys.readouterr().out


def test_certify_demo_check_catches_a_wrong_minus_one_vote_law(
        tmp_path, capsys, monkeypatch):
    # the mutant draws a -1 label's votes with p+ in place of 1 - p+; at
    # the default size the unpatched run passes and the mutant fails
    out = str(tmp_path / "c.csv")
    assert main(["certify-demo", "--check", "--out", out]) == 0
    real = smoothing._count_noisy_votes
    monkeypatch.setattr(smoothing, "_count_noisy_votes",
                        lambda base, x, n, sigma, stream, target:
                        real(base, x, n, sigma, stream, 1))
    capsys.readouterr()
    assert main(["certify-demo", "--check", "--out", out]) == 2
    failures = capsys.readouterr().err.splitlines()
    assert len(failures) == 5  # one per radius
    assert all("exact two-sided tail" in f for f in failures)


def test_rst_demo_cli_small(tmp_path):
    out = str(tmp_path / "r.csv")
    code = main(["rst-demo", "--trials", "1", "--n0", "8", "--d", "10",
                 "--eps", "0.2", "--n-unlabeled", "20", "--grad-steps", "3",
                 "--batch-size", "4", "--stage1-steps", "5",
                 "--stage1-batch", "4", "--seed", "6", "--out", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 3
    names = {l.split(",")[0] for l in lines[1:]}
    assert names == {"rst_demo:rst", "rst_demo:labeled_only"}


def test_sweep_cli_grids(tmp_path):
    out = str(tmp_path / "s.csv")
    code = main(["sweep-unlabeled", "--n0", "5", "--d", "24", "--eps", "0.2",
                 "--trials", "2", "--n-unlabeled-grid", "0,10,30",
                 "--seed", "1", "--out", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 1 + 6
    zero_rows = [l for l in lines[1:] if l.split(",")[5] == "0"]
    assert len(zero_rows) == 2
    for line in zero_rows:
        cells = line.split(",")
        assert cells[6] == "" and cells[10] == ""

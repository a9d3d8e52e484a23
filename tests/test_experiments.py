"""Tests for the experiment drivers, CSV emission, and the check gate."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rstsim import estimators, smoothing
from rstsim.experiments import (
    ACCEPTANCE_THRESHOLDS,
    ExperimentSpec,
    SummaryRow,
    TRIAL_HEADER,
    SUMMARY_HEADER,
    analytic_certified_accuracy,
    check_results,
    format_float,
    min_votes_for_radius,
    supervised_label_threshold,
    run_certify_demo,
    run_gap,
    run_irrelevant_sweep,
    run_label_sweep,
    run_rst_demo,
    run_unlabeled_sweep,
    run_verify_closed_form,
    summary_csv_lines,
    summary_path_for,
    selftrain_pool_threshold,
    trial_csv_lines,
    write_csv,
)
from rstsim.rst import LogisticModel, RstConfig
from rstsim.smoothing import SmoothingConfig
from rstsim.statkit import (
    binomial_upper_tail,
    clopper_pearson_lower,
    gaussian_cdf,
    inverse_gaussian_cdf,
    q_function,
    split_stream,
)


# ---------------------------------------------------------------- thresholds

def test_threshold_formulas_frozen():
    # 288 * 4 * 0.25 * sqrt(188750) = 125122.64..., 4 * 4 * 0.25 * sqrt(188750)
    # = 1737.8..., both rounded up
    assert selftrain_pool_threshold(4, 755_000, 0.5) == 125_123
    assert supervised_label_threshold(4, 755_000, 0.5) == 1_738


def test_threshold_formulas_round_numbers():
    # d/n0 = 10000 makes the square root exact
    assert selftrain_pool_threshold(25, 250_000, 0.5) == 180_000
    assert supervised_label_threshold(25, 250_000, 0.5) == 2_500


# ----------------------------------------------------------------- csv layer

def test_trial_header_exact():
    assert TRIAL_HEADER == ("experiment,n0,d,epsilon,n_labeled,n_unlabeled,"
                            "relevant_fraction,trial,std_err,rob_err,gamma,"
                            "seed")
    assert SUMMARY_HEADER == ("experiment,grid_key,grid_value,metric,mean,"
                              "ci95_half_width,trials")


def test_float_formatting_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert float(format_float(math.pi)) == math.pi


def test_write_csv_uses_lf_only(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv(path, ["a,b", "1,2"])
    raw = open(path, "rb").read()
    assert raw == b"a,b\n1,2\n"
    assert b"\r" not in raw


def test_summary_path_is_sibling():
    assert summary_path_for("runs/a.csv") == "runs/a.csv.summary.csv"


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(kind="nope")
    with pytest.raises(ValueError):
        ExperimentSpec(kind="gap", trial_count=0)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="gap", workers=0)


# ------------------------------------------------------------------- drivers

def _small_verify_spec(**kw):
    base = dict(kind="verify_closed_form", n0=4, d=755_000, epsilon=0.5,
                allow_large_epsilon=True, trial_count=8, mc_samples=2_000,
                master_seed=13)
    base.update(kw)
    return ExperimentSpec(**base)


def test_verify_emits_paired_rows():
    rows, summaries = run_verify_closed_form(_small_verify_spec())
    assert len(rows) == 16
    closed = [r for r in rows if r.experiment == "verify_closed_form:closed"]
    mc = [r for r in rows if r.experiment == "verify_closed_form:mc"]
    assert len(closed) == len(mc) == 8
    for c, m in zip(closed, mc):
        assert c.trial == m.trial and c.seed == m.seed and c.d == m.d
    metrics = {s.metric for s in summaries}
    assert "max_tolerance_excess_std" in metrics
    assert "max_tolerance_excess_rob" in metrics


def test_verify_pair_zero_is_mean_direction():
    rows, _ = run_verify_closed_form(_small_verify_spec())
    first = rows[0]
    # theta = mu at d = 2: standard error is Q((d/n0)^(1/4))
    assert first.std_err == pytest.approx(q_function((2 / 4) ** 0.25),
                                          rel=1e-12)


def test_verify_epsilon_zero_rows_have_equal_columns():
    rows, _ = run_verify_closed_form(_small_verify_spec())
    eps0 = [r for r in rows if r.epsilon == 0.0]
    assert eps0, "pair pattern must include an epsilon = 0 pair"
    for r in eps0:
        assert r.std_err == r.rob_err


def test_verify_passes_its_own_check():
    spec = _small_verify_spec(mc_samples=5_000)
    rows, summaries = run_verify_closed_form(spec)
    assert check_results(spec, rows, summaries) == []


def test_verify_tolerance_reads_the_threshold_table(monkeypatch):
    # twice the sigmas widens every pair's tolerance, so both excess rows
    # fall; the gap rows do not move
    spec = _small_verify_spec(trial_count=3, mc_samples=500)

    def aggregates():
        return {s.metric: s.mean for s in run_verify_closed_form(spec)[1]}

    before = aggregates()
    monkeypatch.setitem(ACCEPTANCE_THRESHOLDS["verify_closed_form"],
                        "tolerance_sigmas", 8.0)
    after = aggregates()
    for metric in ("max_abs_gap_std", "max_abs_gap_rob"):
        assert after[metric] == before[metric]
    for metric in ("max_tolerance_excess_std", "max_tolerance_excess_rob"):
        assert after[metric] < before[metric]


def test_verify_threads_stay_within_the_cores(monkeypatch):
    # At 8 cores verify runs its pairs one after another and each Monte
    # Carlo estimate on the cores, the caller among them, so at every
    # --workers the chunks are drawn on the same at most 8 threads. With
    # 65,536 samples, 32,768 paired scores in 8,192 rows of four, the
    # d = 1024 pairs split into 8 chunks, each opening its substream with
    # split_stream.
    import threading

    import rstsim.gaussian as gaussian

    monkeypatch.setattr(gaussian, "_mc_threads", lambda: 8)
    draw, idents = gaussian.split_stream, set()

    def spy(*args):
        idents.add(threading.get_ident())
        return draw(*args)

    monkeypatch.setattr(gaussian, "split_stream", spy)
    spec = _small_verify_spec(trial_count=10, mc_samples=65_536)
    reference, counts = None, []
    for workers in range(1, 9):
        idents.clear()
        rows, _ = run_verify_closed_form(replace(spec, workers=workers))
        counts.append(len(idents))
        reference = reference or rows
        assert rows == reference
    assert counts[0] >= 3, "one worker should still split the chunks"
    assert max(counts) <= 8 and len(set(counts)) == 1, counts


def test_gap_arm_structure():
    spec = ExperimentSpec(kind="gap", n0=4, d=755_000, epsilon=0.5,
                          allow_large_epsilon=True, trial_count=3,
                          master_seed=5)
    rows, summaries = run_gap(spec)
    assert len(rows) == 9
    by_arm = {}
    for r in rows:
        by_arm.setdefault(r.experiment, []).append(r)
    assert set(by_arm) == {"gap:supervised_n0", "gap:supervised_scaled",
                           "gap:selftrain"}
    assert all(r.n_labeled == 4 for r in by_arm["gap:supervised_n0"])
    assert all(r.n_labeled == 1_738 for r in by_arm["gap:supervised_scaled"])
    st = by_arm["gap:selftrain"]
    assert all(r.n_unlabeled == 125_123 for r in st)
    assert all(r.gamma is not None for r in st)
    assert all(r.gamma is None for r in by_arm["gap:supervised_n0"])
    # trial t of every arm draws from split_stream(master_seed, t)
    for arm_rows in by_arm.values():
        assert [r.seed for r in arm_rows] == [0, 1, 2]


def test_gap_respects_n_labeled_override():
    spec = ExperimentSpec(kind="gap", n0=4, d=755_000, epsilon=0.5,
                          allow_large_epsilon=True, trial_count=1,
                          n_labeled=7, master_seed=5)
    rows, _ = run_gap(spec)
    n0_rows = [r for r in rows if r.experiment == "gap:supervised_n0"]
    assert all(r.n_labeled == 7 for r in n0_rows)


def test_unlabeled_sweep_zero_sentinel():
    spec = ExperimentSpec(kind="unlabeled_sweep", n0=5, d=24, epsilon=0.2,
                          trial_count=2, n_unlabeled_grid=(0, 10, 30),
                          master_seed=1)
    rows, summaries = run_unlabeled_sweep(spec)
    assert len(rows) == 6
    zero = [r for r in rows if r.n_unlabeled == 0]
    assert len(zero) == 2
    for r in zero:
        assert r.gamma is None and r.relevant_fraction is None
    pool = [r for r in rows if r.n_unlabeled == 30]
    assert all(r.gamma is not None for r in pool)
    keys = [s.grid_value for s in summaries if s.metric == "rob_err"]
    assert keys == ["0", "10", "30"]


def test_unlabeled_sweep_grid_validation():
    base = dict(kind="unlabeled_sweep", n0=5, d=24, epsilon=0.2,
                trial_count=1)
    with pytest.raises(ValueError):
        run_unlabeled_sweep(ExperimentSpec(**base))
    with pytest.raises(ValueError):
        run_unlabeled_sweep(ExperimentSpec(**base,
                                           n_unlabeled_grid=(30, 10)))
    with pytest.raises(ValueError):
        run_unlabeled_sweep(ExperimentSpec(**base,
                                           n_unlabeled_grid=(-1, 10)))


def test_irrelevant_sweep_scaled_pool_sizes():
    spec = ExperimentSpec(kind="irrelevant_sweep", n0=5, d=24, epsilon=0.2,
                          trial_count=2, n_unlabeled=100,
                          alpha_grid=(1.0, 0.5, 0.0), master_seed=4)
    rows, summaries = run_irrelevant_sweep(spec)
    fixed = [r for r in rows if r.experiment == "irrelevant_sweep:fixed"]
    scaled = [r for r in rows if r.experiment == "irrelevant_sweep:scaled"]
    assert len(fixed) == 6 and len(scaled) == 4
    assert sorted({r.relevant_fraction for r in fixed}) == [0.0, 0.5, 1.0]
    assert sorted({r.relevant_fraction for r in scaled}) == [0.5, 1.0]
    sizes = {r.relevant_fraction: r.n_unlabeled for r in scaled}
    assert sizes[1.0] == 100 and sizes[0.5] == 400
    assert all(r.n_unlabeled == 100 for r in fixed)


def test_irrelevant_sweep_pool_normals_are_the_largest_pool(monkeypatch):
    # the default grid at the default pool of 125,123: the arms' pools sum
    # to 3,128,075 points, the largest (alpha 0.25, scaled) has 2,001,968
    drawn = {}

    class Counted:
        def __init__(self, gen, index):
            self.gen, self.index = gen, index

        def standard_normal(self, size=None, out=None):
            got = self.gen.standard_normal(size, out=out)
            drawn[self.index] = drawn.get(self.index, 0) + got.size
            return got

        def binomial(self, n, p):
            return self.gen.binomial(n, p)

    monkeypatch.setattr(estimators, "split_stream",
                        lambda seed, index: Counted(split_stream(seed, index),
                                                    index))
    spec = ExperimentSpec(kind="irrelevant_sweep", n0=4, d=64, epsilon=0.25,
                          trial_count=1, n_unlabeled=125_123,
                          alpha_grid=(1.0, 0.5, 0.25, 0.0))
    rows, _ = run_irrelevant_sweep(spec)
    sizes = [r.n_unlabeled for r in rows]
    assert sum(sizes) == 3_128_075 and max(sizes) == 2_001_968
    # index 0 is z1's one block, 1 is z's (drawn again in stats)
    assert drawn.pop(0) == 64 and drawn.pop(1) == 2 * 64
    assert sum(drawn.values()) == 2_001_968


def test_irrelevant_sweep_fixed_and_scaled_rows_agree_at_alpha_one():
    # at alpha = 1 both arms read the same n_unlabeled points of the pool
    spec = ExperimentSpec(kind="irrelevant_sweep", n0=5, d=24, epsilon=0.2,
                          trial_count=3, n_unlabeled=100,
                          alpha_grid=(1.0, 0.5), master_seed=7)
    rows, summaries = run_irrelevant_sweep(spec)

    def at_one(records, kind, keep):
        return [replace(r, experiment="") for r in records
                if r.experiment == f"irrelevant_sweep:{kind}" and keep(r)]

    for records, keep in ((rows, lambda r: r.relevant_fraction == 1.0),
                          (summaries, lambda r: r.grid_value == "1")):
        fixed = at_one(records, "fixed", keep)
        assert fixed and fixed == at_one(records, "scaled", keep)


def test_irrelevant_sweep_alpha_validation():
    base = dict(kind="irrelevant_sweep", n0=5, d=24, epsilon=0.2,
                trial_count=1, n_unlabeled=20)
    with pytest.raises(ValueError):
        run_irrelevant_sweep(ExperimentSpec(**base))
    with pytest.raises(ValueError):
        run_irrelevant_sweep(ExperimentSpec(**base, alpha_grid=(1.5,)))


def test_label_sweep_structure_and_validation():
    spec = ExperimentSpec(kind="label_sweep", n0=5, d=24, epsilon=0.2,
                          trial_count=2, n_unlabeled=30,
                          n_labeled_grid=(2, 4), master_seed=6)
    rows, summaries = run_label_sweep(spec)
    assert len(rows) == 4
    assert sorted({r.n_labeled for r in rows}) == [2, 4]
    assert all(r.n_unlabeled == 30 for r in rows)
    base = dict(kind="label_sweep", n0=5, d=24, epsilon=0.2, trial_count=1,
                n_unlabeled=30)
    with pytest.raises(ValueError):
        run_label_sweep(ExperimentSpec(**base))
    with pytest.raises(ValueError):
        run_label_sweep(ExperimentSpec(**base, n_labeled_grid=(0, 4)))
    with pytest.raises(ValueError):
        run_label_sweep(ExperimentSpec(**base, n_labeled_grid=(4, 2)))


@pytest.mark.parametrize("kind,grid", [
    ("gap", {}),
    ("irrelevant_sweep", {"alpha_grid": (1.0, 0.5)}),
    ("label_sweep", {"n_labeled_grid": (2, 4)}),
])
def test_empty_unlabeled_pool_is_refused(kind, grid):
    # only sweep-unlabeled's grid may ask for no pool; elsewhere an empty
    # pool must not quietly turn a self-training arm into supervision
    from rstsim.experiments import RUNNERS
    spec = ExperimentSpec(kind=kind, n0=5, d=24, epsilon=0.2, trial_count=1,
                          n_unlabeled=0, **grid)
    with pytest.raises(ValueError, match="n_unlabeled must be >= 1"):
        RUNNERS[kind](spec)


@pytest.mark.parametrize("field, value, message", [
    ("stage1_learning_rate", math.nan,
     "stage1_learning_rate must be > 0 and finite, got nan"),
    ("stage1_learning_rate", math.inf,
     "stage1_learning_rate must be > 0 and finite, got inf"),
    ("stage1_learning_rate", 0.0,
     "stage1_learning_rate must be > 0 and finite, got 0.0"),
    ("stage1_steps", 0, "stage1_steps must be >= 1, got 0"),
    ("stage1_batch", -1, "stage1_batch must be >= 0, got -1"),
    ("trial_count", 0, "trial_count must be >= 1, got 0")])
def test_spec_refuses_a_scalar_out_of_range_by_name(field, value, message):
    # stage one's knobs are refused when the spec is built, before any draw
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentSpec(kind="rst_demo", **{field: value})


def test_rst_demo_refuses_an_empty_pool_by_name():
    with pytest.raises(ValueError, match="^n_unlabeled must be >= 1, got 0$"):
        run_rst_demo(_small_rst_spec(n_unlabeled=0))


def _small_rst_spec(**kw):
    base = dict(kind="rst_demo", n0=8, d=10, epsilon=0.2, trial_count=2,
                n_unlabeled=20, master_seed=3,
                stage1_learning_rate=0.05, stage1_steps=5, stage1_batch=4,
                rst_config=RstConfig(beta=1.0, epsilon=0.2,
                                     learning_rate=0.01, grad_steps=3,
                                     batch_size=4))
    base.update(kw)
    return ExperimentSpec(**base)


def test_rst_demo_paired_rows_and_margin():
    rows, summaries = run_rst_demo(_small_rst_spec())
    assert len(rows) == 4
    rst = [r for r in rows if r.experiment == "rst_demo:rst"]
    base = [r for r in rows if r.experiment == "rst_demo:labeled_only"]
    assert len(rst) == len(base) == 2
    assert all(r.gamma is not None for r in rst)
    assert all(r.gamma is None for r in base)
    assert all(abs(r.gamma) <= 1.0 for r in rst)
    margin = [s for s in summaries if s.metric == "rob_err_margin"]
    assert len(margin) == 1
    diffs = [b.rob_err - r.rob_err for r, b in zip(rst, base)]
    assert margin[0].mean == pytest.approx(float(np.mean(diffs)), abs=1e-15)


@pytest.mark.parametrize("kind", ["adversarial_exact", "adversarial_pg",
                                  "stability"])
def test_rst_demo_rows_do_not_depend_on_the_group_size(monkeypatch, kind):
    from rstsim import experiments
    spec = _small_rst_spec(trial_count=5, rst_config=RstConfig(
        beta=1.0, epsilon=0.2, learning_rate=0.01, grad_steps=3, batch_size=4,
        reg_kind=kind, pg_steps=2))
    row_scalars = (8 + 20) * 10

    def lines(group):
        monkeypatch.setattr(experiments, "_RST_GROUP_SCALARS",
                            group * row_scalars)
        rows, summaries = run_rst_demo(spec)
        return trial_csv_lines(rows), summary_csv_lines(summaries)

    one = lines(1)
    assert all(lines(group) == one for group in (2, 3, 5, 50))


def test_rst_demo_memory_at_defaults():
    # one reused group buffer of 3 x 3,030 rows, plus the two copies of one
    # pool that sample_mixture holds while it permutes
    spec = ExperimentSpec(kind="rst_demo", n0=30, d=100, epsilon=0.5,
                          allow_large_epsilon=True, trial_count=10, workers=2)
    tracemalloc.start()
    try:
        run_rst_demo(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (3 * 3_030 * 100 + 2 * 3_000 * 100) + 2**20


def test_arms_share_one_trial_pool(monkeypatch):
    from rstsim import experiments
    calls = []
    real = experiments.trial_draws

    def counted(model, arms, stream, work=None):
        calls.append(len(arms))
        return real(model, arms, stream, work)

    monkeypatch.setattr(experiments, "trial_draws", counted)
    spec = ExperimentSpec(kind="irrelevant_sweep", n0=5, d=24, epsilon=0.2,
                          trial_count=3, n_unlabeled=30,
                          alpha_grid=(1.0, 0.5, 0.0), workers=2)
    rows, summaries = run_irrelevant_sweep(spec)
    # one draw per trial index runs all three fixed arms and two scaled ones
    assert calls == [5, 5, 5]
    assert [r.seed for r in rows] == [0, 1, 2] * 5
    assert [r.trial for r in rows] == [0, 1, 2] * 5
    assert [s.trials for s in summaries] == [3] * len(summaries)


def _two_sample_agree(a: np.ndarray, b: np.ndarray, ecdf_gap: float) -> None:
    # mean and variance z-statistics (the variance one from the fourth
    # moment, as the error laws are far from Gaussian) and the largest gap
    # between the empirical CDFs
    n = a.size
    se = math.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
    assert abs(a.mean() - b.mean()) <= 4.0 * se

    def var_and_se(x):
        s2 = x.var(ddof=1)
        m4 = float(np.mean((x - x.mean()) ** 4))
        return s2, math.sqrt((m4 - (n - 3) / (n - 1) * s2**2) / n)

    va, ea = var_and_se(a)
    vb, eb = var_and_se(b)
    assert abs(va - vb) <= 4.0 * math.sqrt(ea**2 + eb**2)
    grid = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), grid, side="right") / n
    fb = np.searchsorted(np.sort(b), grid, side="right") / n
    assert float(np.max(np.abs(fa - fb))) <= ecdf_gap


def test_shared_draws_keep_each_arm_law():
    # arms that share z1 and z within a trial against the same arms drawn
    # alone, each trial on a stream of its own
    from rstsim.estimators import fast_selftrain_sample, fast_supervised_sample
    from rstsim.experiments import _run_arms
    from rstsim.gaussian import error_rates

    trials = 500
    spec = ExperimentSpec(kind="gap", n0=4, d=64, epsilon=0.2,
                          trial_count=trials, master_seed=31)
    model = spec.model()
    arms = [("supervised_4", "arm", "a", 4, None, 1.0),
            ("supervised_40", "arm", "b", 40, None, 1.0),
            ("selftrain_1", "arm", "c", 4, 200, 1.0),
            ("selftrain_half", "arm", "d", 4, 400, 0.5),
            ("selftrain_0", "arm", "e", 2, 200, 0.0)]
    rows, _ = _run_arms(spec, arms)
    for j, (_, _, _, n, n_unlabeled, alpha) in enumerate(arms):
        shared = rows[j * trials:(j + 1) * trials]
        alone = []
        for t in range(trials):
            stream = split_stream(32 + j, t)
            if n_unlabeled:
                clf = fast_selftrain_sample(model, n, n_unlabeled, alpha,
                                            stream).final
            else:
                clf = fast_supervised_sample(model, n, stream)
            alone.append(error_rates(model, clf))
        alone = np.array(alone)
        # 1.95 sqrt(2 / 500), the two-sample Kolmogorov-Smirnov bound at
        # level 0.001
        for k, metric in enumerate(("std_err", "rob_err")):
            _two_sample_agree(np.array([getattr(r, metric) for r in shared]),
                              alone[:, k], ecdf_gap=0.124)


def test_gap_run_holds_one_vector_at_any_worker_count():
    # z1 for the whole run, one scratch buffer per thread, small arrays;
    # z is drawn block by block into the scratch, mu is a broadcast view
    from rstsim import estimators
    d, threads = 755_000, 4
    spec = ExperimentSpec(kind="gap", n0=4, d=d, epsilon=0.5,
                          allow_large_epsilon=True, trial_count=8,
                          workers=threads)
    scratch = 8 * max(estimators._BLOCK, 2 * 3 * estimators._L1_BLOCK)
    tracemalloc.start()
    try:
        run_gap(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * d + threads * scratch + 2**20


@pytest.mark.parametrize("kind", ["adversarial_exact", "adversarial_pg",
                                  "stability"])
def test_rst_demo_runs_with_equal_parts_batches(kind):
    # the labeled-only arm has no unlabeled rows, so it trains on plain
    # batches; the robust self-training arm splits each batch in halves
    config = RstConfig(beta=1.0, epsilon=0.2, learning_rate=0.01,
                       grad_steps=3, batch_size=4, reg_kind=kind, pg_steps=2)
    plain, _ = run_rst_demo(_small_rst_spec(rst_config=config))
    rows, summaries = run_rst_demo(_small_rst_spec(
        rst_config=replace(config, equal_parts_batches=True)))
    assert [r.experiment for r in rows] == [r.experiment for r in plain]
    assert all(0.0 <= r.rob_err <= 1.0 for r in rows)
    assert rows[0].rob_err != plain[0].rob_err
    assert [s.metric for s in summaries][-1] == "rob_err_margin"


def test_rst_demo_check_gate():
    rows, summaries = run_rst_demo(_small_rst_spec())
    spec = _small_rst_spec()
    margin = [s for s in summaries if s.metric == "rob_err_margin"][0].mean
    failures = check_results(spec, rows, summaries)
    limit = ACCEPTANCE_THRESHOLDS["rst_demo"]["bounds"][0][-1]
    if margin >= limit:
        assert failures == []
    else:
        assert any("margin" in f for f in failures)
    short = [_summary("rst_demo", "rob_err_margin", limit - 0.01)]
    failures = check_results(spec, [], short)
    assert len(failures) == 1
    assert failures[0].startswith("rob_err_margin = ")


# -------------------------------------------------------------- certify demo

def _small_certify_spec(**kw):
    base = dict(kind="certify_demo", n0=4, d=4, epsilon=0.3, trial_count=12,
                master_seed=21,
                smoothing=SmoothingConfig(noise_sigma=1.5, n0_selection=10,
                                          n_estimation=200, conf_alpha=0.01),
                radii=(0.0, 0.5, 1.0))
    base.update(kw)
    return ExperimentSpec(**base)


def test_certify_demo_summary_layout():
    rows, summaries = run_certify_demo(_small_certify_spec())
    assert rows == []
    per_radius = {}
    for s in summaries:
        per_radius.setdefault(s.grid_value, set()).add(s.metric)
    assert len(per_radius) == 3
    for metrics in per_radius.values():
        assert metrics == {"certified_accuracy", "analytic_accuracy",
                           "radius_linf"}
    linf = {s.grid_value: s.mean for s in summaries
            if s.metric == "radius_linf"}
    # d = 4, so the conversion divides by 2
    assert linf[format_float(1.0)] == pytest.approx(0.5, rel=1e-15)
    accs = [s.mean for s in summaries if s.metric == "certified_accuracy"]
    assert all(0.0 <= a <= 1.0 for a in accs)
    assert all(b <= a + 1e-15 for a, b in zip(accs, accs[1:]))


def test_certify_demo_radii_validation():
    with pytest.raises(ValueError):
        run_certify_demo(_small_certify_spec(radii=(1.0, 0.5)))
    with pytest.raises(ValueError):
        run_certify_demo(_small_certify_spec(radii=(-1.0, 0.5)))


def test_min_votes_matches_linear_scan():
    config = SmoothingConfig(noise_sigma=0.5, n0_selection=10,
                             n_estimation=200, conf_alpha=0.01)

    def scan(radius):
        for k in range(config.n_estimation + 1):
            p = clopper_pearson_lower(k, config.n_estimation,
                                      config.conf_alpha)
            if p > 0.5 and config.noise_sigma * inverse_gaussian_cdf(p) >= radius:
                return k
        return config.n_estimation + 1

    previous = 0
    for radius in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 100.0):
        got = min_votes_for_radius(radius, config)
        assert got == scan(radius)
        assert got >= previous
        previous = got
    assert min_votes_for_radius(100.0, config) == config.n_estimation + 1
    with pytest.raises(ValueError):
        min_votes_for_radius(-0.5, config)


def test_analytic_accuracy_single_point_composition():
    # odd selection count: no plurality ties, so flipping (x, y) is an exact
    # symmetry; at even counts the tie mass favors label -1
    config = SmoothingConfig(noise_sigma=2.0, n0_selection=21,
                             n_estimation=100, conf_alpha=0.05)
    theta = np.array([3.0, 4.0])
    x = np.array([2.0, 1.0])
    model = LogisticModel(theta=theta)
    radius = 0.7
    out = analytic_certified_accuracy(model, x[None, :], np.array([1]),
                                      [radius], config)
    p_plus = gaussian_cdf((theta @ x) / (config.noise_sigma * 5.0))
    sel = binomial_upper_tail(11, 21, p_plus)
    est = binomial_upper_tail(min_votes_for_radius(radius, config), 100,
                              p_plus)
    assert out[0][1] == pytest.approx(sel * est, rel=1e-12)
    flipped = analytic_certified_accuracy(model, -x[None, :], np.array([-1]),
                                          [radius], config)
    assert flipped[0][1] == pytest.approx(out[0][1], rel=1e-12)


def test_analytic_accuracy_at_zero_theta_matches_the_vote_draws():
    # theta = 0 ties every score and a tie votes +1: the curve gives each
    # +1 point probability 1 and each -1 point 0, as the exact draws do
    config = SmoothingConfig(n0_selection=20, n_estimation=500)
    xs = split_stream(301, 0).normal(size=(6, 2))
    ys = np.array([1, -1, 1, 1, -1, 1])
    radii = [0.0, 0.1, 0.5, 100.0]
    base = LogisticModel(theta=np.zeros(2))
    analytic = analytic_certified_accuracy(base, xs, ys, radii, config)
    drawn = smoothing.certified_accuracy_curve(base, xs, ys, radii, config,
                                               split_stream(301, 1))
    assert [(r, mean) for r, mean, _, _ in analytic] == drawn
    assert [sd for _, _, sd, _ in analytic] == [0.0] * len(radii)
    assert drawn[0][1] == 4 / 6 and drawn[-1][1] == 0.0


# -------------------------------------------------------------- check gate

def _summary(experiment, metric, mean, grid_value="x", ci=0.0, trials=5):
    return SummaryRow(experiment=experiment, grid_key="k",
                      grid_value=grid_value, metric=metric, mean=mean,
                      ci95_half_width=ci, trials=trials)


def test_check_gap_thresholds():
    spec = ExperimentSpec(kind="gap", allow_large_epsilon=True, trial_count=1)
    good = [_summary("gap:supervised_n0", "rob_err", 0.99),
            _summary("gap:supervised_n0", "std_err", 0.16),
            _summary("gap:selftrain", "rob_err", 1e-20)]
    assert check_results(spec, [], good) == []
    bad = [_summary("gap:supervised_n0", "rob_err", 0.2),
           _summary("gap:supervised_n0", "std_err", 0.4),
           _summary("gap:selftrain", "rob_err", 0.3)]
    failures = check_results(spec, [], bad)
    assert [f.split(" = ")[0] for f in failures] == ["rob_err", "std_err",
                                                     "rob_err"]
    assert "gap:selftrain" in failures[2]


def test_check_irrelevant_ordering():
    spec = ExperimentSpec(kind="irrelevant_sweep", allow_large_epsilon=True,
                          trial_count=1, alpha_grid=(0.5,))
    rows = [
        _summary("irrelevant_sweep:scaled", "rob_err", 1e-5,
                 grid_value="0.5"),
        _summary("irrelevant_sweep:fixed", "rob_err", 1e-3,
                 grid_value="0.5"),
        _summary("irrelevant_sweep:fixed", "rob_err", 0.99, grid_value="0"),
    ]
    assert check_results(spec, [], rows) == []
    # fixed pool no longer strictly worse
    rows[1] = _summary("irrelevant_sweep:fixed", "rob_err", 1e-7,
                       grid_value="0.5")
    failures = check_results(spec, [], rows)
    assert any("strictly worse" in f for f in failures)
    # the scaled pool above its cap and alpha = 0 below its floor
    rows = [_summary("irrelevant_sweep:scaled", "rob_err", 0.02,
                     grid_value="0.5"),
            _summary("irrelevant_sweep:fixed", "rob_err", 0.5,
                     grid_value="0.5"),
            _summary("irrelevant_sweep:fixed", "rob_err", 0.3, grid_value="0")]
    failures = check_results(spec, [], rows)
    assert len(failures) == 2
    assert all(f.startswith("rob_err = ") for f in failures)
    assert "irrelevant_sweep:scaled" in failures[0]
    assert "irrelevant_sweep:fixed" in failures[1]


def test_check_certify_deviation():
    spec = ExperimentSpec(kind="certify_demo", allow_large_epsilon=True,
                          trial_count=100)
    # 100 points that each count with probability 0.81: sd 0.039
    analytic = replace(_summary("certify_demo", "analytic_accuracy", 0.81,
                                grid_value="1", ci=1.96 * 0.039, trials=100),
                       point_probs=np.full(100, 0.81))
    rows = [_summary("certify_demo", "certified_accuracy", 0.80,
                     grid_value="1", trials=100), analytic]
    assert check_results(spec, [], rows) == []
    rows[0] = _summary("certify_demo", "certified_accuracy", 0.60,
                       grid_value="1", trials=100)
    failures = check_results(spec, [], rows)
    assert len(failures) == 1


def test_certify_gate_fails_one_vote_short(monkeypatch):
    # certifying at min_votes_for_radius(r) - 1 moves each point's chance of
    # counting by P(votes = k - 1); at 10 estimation votes that shows
    config = SmoothingConfig(noise_sigma=2.0, n0_selection=20,
                             n_estimation=10, conf_alpha=0.05)
    spec = ExperimentSpec(kind="certify_demo", n0=4, d=16, epsilon=0.2,
                          trial_count=400, smoothing=config)
    assert check_results(spec, *run_certify_demo(spec)) == []
    real = smoothing.min_votes_for_radius
    monkeypatch.setattr(smoothing, "min_votes_for_radius",
                        lambda r, c: real(r, c) - 1)
    failures = check_results(spec, *run_certify_demo(spec))
    assert len(failures) == 5
    assert all("exact two-sided tail" in f for f in failures)


def test_check_unlabeled_trend_slack():
    spec = ExperimentSpec(kind="unlabeled_sweep", allow_large_epsilon=True,
                          trial_count=1)
    # slack = 1e-6 + 2 * sqrt(0.01^2 + 0.01^2) = 0.0283
    rows = [_summary("unlabeled_sweep", "rob_err", 0.50, "0", ci=0.01),
            _summary("unlabeled_sweep", "rob_err", 0.52, "10", ci=0.01)]
    assert check_results(spec, [], rows) == []
    rows[1] = _summary("unlabeled_sweep", "rob_err", 0.54, "10", ci=0.01)
    failures = check_results(spec, [], rows)
    assert len(failures) == 1 and "rose from 0.5000" in failures[0]


def test_check_label_plateau_ignores_points_below_n0():
    spec = ExperimentSpec(kind="label_sweep", n0=4, allow_large_epsilon=True,
                          trial_count=1)
    # n = 1 < n0 is far off the plateau and must not count
    rows = [_summary("label_sweep", "rob_err", 0.90, "1", ci=0.01),
            _summary("label_sweep", "rob_err", 0.10, "4", ci=0.01),
            _summary("label_sweep", "rob_err", 0.12, "8", ci=0.01)]
    assert check_results(spec, [], rows) == []
    rows[2] = _summary("label_sweep", "rob_err", 0.14, "8", ci=0.01)
    failures = check_results(spec, [], rows)
    assert len(failures) == 1
    assert "n=4 and n=8" in failures[0]


def test_check_verify_tolerance_excess():
    spec = ExperimentSpec(kind="verify_closed_form", allow_large_epsilon=True,
                          trial_count=1)
    rows = [_summary("verify_closed_form", "max_tolerance_excess_std", -1e-3),
            _summary("verify_closed_form", "max_tolerance_excess_rob", -2e-3)]
    assert check_results(spec, [], rows) == []
    rows[1] = _summary("verify_closed_form", "max_tolerance_excess_rob", 1e-4)
    failures = check_results(spec, [], rows)
    assert len(failures) == 1
    assert failures[0].startswith("max_tolerance_excess_rob")
    rows[0] = _summary("verify_closed_form", "max_tolerance_excess_std", 1e-5)
    failures = check_results(spec, [], rows)
    assert [f.split(" = ")[0] for f in failures] == [
        "max_tolerance_excess_std", "max_tolerance_excess_rob"]


# ------------------------------------------------------------- determinism

def _tiny_specs():
    return [
        _small_verify_spec(trial_count=3, mc_samples=500),
        ExperimentSpec(kind="gap", n0=4, d=50, epsilon=0.5,
                       allow_large_epsilon=True, trial_count=2,
                       master_seed=8),
        ExperimentSpec(kind="unlabeled_sweep", n0=5, d=24, epsilon=0.2,
                       trial_count=2, n_unlabeled_grid=(0, 10, 30),
                       master_seed=8),
        ExperimentSpec(kind="irrelevant_sweep", n0=5, d=24, epsilon=0.2,
                       trial_count=2, n_unlabeled=30, alpha_grid=(1.0, 0.5),
                       master_seed=8),
        ExperimentSpec(kind="label_sweep", n0=5, d=24, epsilon=0.2,
                       trial_count=2, n_unlabeled=30, n_labeled_grid=(2, 4),
                       master_seed=8),
        _small_rst_spec(),
        _small_certify_spec(),
    ]


_BOUNDED = [kind for kind, th in ACCEPTANCE_THRESHOLDS.items()
            if isinstance(th, dict) and "bounds" in th]


@pytest.mark.parametrize("kind", _BOUNDED)
def test_every_bound_matches_a_summary_row(kind):
    # a bound whose experiment, metric or grid value matches no row of its
    # kind's run would pass silently
    from rstsim.experiments import RUNNERS
    spec = replace({s.kind: s for s in _tiny_specs()}[kind], trial_count=2)
    if kind == "irrelevant_sweep":
        spec = replace(spec, alpha_grid=(1.0, 0.5, 0.0))
    _, summaries = RUNNERS[kind](spec)
    for experiment, metric, grid_value, side, _ in (
            ACCEPTANCE_THRESHOLDS[kind]["bounds"]):
        assert side in ("min", "max")
        assert any((experiment is None or s.experiment == experiment)
                   and s.metric == metric
                   and (grid_value is None or s.grid_value == grid_value)
                   for s in summaries), (experiment, metric, grid_value)


def _block_specs():
    # d = 2 blocks + 123, a pool over 3 blocks, one trial (fewer than the
    # threads)
    from rstsim.estimators import _BLOCK
    common = dict(n0=4, d=2 * _BLOCK + 123, epsilon=0.5,
                  allow_large_epsilon=True, trial_count=1,
                  n_unlabeled=2 * _BLOCK + 7, master_seed=8)
    return [pytest.param(ExperimentSpec(kind="gap", **common),
                         id="gap-blocks"),
            pytest.param(ExperimentSpec(kind="irrelevant_sweep",
                                        alpha_grid=(1.0, 0.5, 0.0), **common),
                         id="irrelevant_sweep-blocks")]


@pytest.mark.parametrize("spec", [pytest.param(s, id=s.kind)
                                  for s in _tiny_specs()] + _block_specs())
def test_output_invariant_to_worker_count(spec):
    from rstsim.experiments import RUNNERS

    def lines(workers):
        rows, summaries = RUNNERS[spec.kind](replace(spec, workers=workers))
        return trial_csv_lines(rows), summary_csv_lines(summaries)

    one = lines(1)
    assert all(lines(workers) == one for workers in (2, 3, 8))


@pytest.mark.parametrize("spec", _tiny_specs()[:2], ids=lambda s: s.kind)
def test_rerun_is_byte_identical(spec):
    from rstsim.experiments import RUNNERS
    a = RUNNERS[spec.kind](spec)
    b = RUNNERS[spec.kind](spec)
    assert trial_csv_lines(a[0]) == trial_csv_lines(b[0])
    assert summary_csv_lines(a[1]) == summary_csv_lines(b[1])


def test_trial_rows_have_twelve_columns():
    rows, _ = run_gap(ExperimentSpec(kind="gap", n0=4, d=50, epsilon=0.5,
                                     allow_large_epsilon=True, trial_count=1,
                                     master_seed=8))
    for line in trial_csv_lines(rows):
        assert line.count(",") == 11

"""Experiment drivers, trial orchestration, CSV emission, and check gates.

Every driver takes an ExperimentSpec and returns (trial_rows, summary_rows).
Trials are embarrassingly parallel: trial j of an experiment always uses
split_stream(master_seed, j), so output is byte-identical for any worker
count. Reductions happen in index order after all trials complete.
rst-demo keeps the seeds but trains its trials in lockstep groups on the
calling thread instead (run_rst_demo).

The four closed-form drivers (gap and the three sweeps) only validate their
grid and list their arms; one runner, _run_arms, draws each arm's estimator,
scores it in closed form and summarizes the arm. Trial t of every arm runs
on split_stream(master_seed, t): it draws z1 and z once and scores every
arm from them, in the order of the list, so the arms of one trial are
positively coupled while each keeps its own law. Its trials run one after
another, each spread over the worker threads in fixed blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import TrialWork, sample_mixture, trial_draws
from .gaussian import (
    GaussianModel,
    LinearClassifier,
    alignment_stats,
    canonical_model,
    mc_error_estimate,
    rates_from_stats,
    run_blocks,
    sample_labeled,
    vote_probabilities,
)
from .rst import LogisticModel, RstConfig, rst_train, standard_train
from .smoothing import (
    SmoothingConfig,
    certified_accuracy_curve,
    linf_radius_from_l2,
    min_votes_for_radius,
)
from .statkit import (
    RngStream,
    binomial_upper_tail,
    poisson_binomial_two_sided,
    split_stream,
)

# rst-demo trains as many trials together as fit this many row scalars
_RST_GROUP_SCALARS = 1 << 20

TRIAL_HEADER = ("experiment,n0,d,epsilon,n_labeled,n_unlabeled,"
                "relevant_fraction,trial,std_err,rob_err,gamma,seed")
SUMMARY_HEADER = "experiment,grid_key,grid_value,metric,mean,ci95_half_width,trials"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a driver needs: model point, grids, counts, seed, workers.

    The default epsilon = 0.5 fails .model() unless allow_large_epsilon=True:
    the CLI sets it only for its built-in points, so library callers pass it.
    """

    kind: str
    n0: int = 4
    d: int = 755_000
    epsilon: float = 0.5
    allow_large_epsilon: bool = False
    trial_count: int = 50
    n_labeled: int | None = None
    n_unlabeled: int | None = None
    n_unlabeled_grid: tuple[int, ...] = ()
    n_labeled_grid: tuple[int, ...] = ()
    alpha_grid: tuple[float, ...] = ()
    mc_samples: int = 100_000
    rst_config: RstConfig | None = None
    stage1_learning_rate: float = 0.01
    stage1_steps: int = 400
    stage1_batch: int = 64
    smoothing: SmoothingConfig | None = None
    radii: tuple[float, ...] = ()
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.kind not in RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trial_count < 1:
            raise ValueError("trial_count must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")

    def model(self) -> GaussianModel:
        return canonical_model(self.n0, self.d, self.epsilon,
                               allow_large_epsilon=self.allow_large_epsilon)


@dataclass(frozen=True)
class TrialRow:
    """One per-trial record, serialized as one trial CSV line."""

    experiment: str
    n0: int
    d: int
    epsilon: float
    n_labeled: int | None
    n_unlabeled: int | None
    relevant_fraction: float | None
    trial: int
    std_err: float | None
    rob_err: float | None
    gamma: float | None
    seed: int


@dataclass(frozen=True)
class SummaryRow:
    experiment: str
    grid_key: str
    grid_value: str
    metric: str
    mean: float
    ci95_half_width: float | None
    trials: int
    # certify-demo's analytic rows: each point's chance of counting, unwritten
    point_probs: np.ndarray | None = field(default=None, compare=False,
                                           repr=False)


def format_float(value: float) -> str:
    """17-significant-digit rendering used everywhere a float is serialized."""
    return format(float(value), ".17g")


def _csv_lines(header: str, rows) -> list[str]:
    """Header, then rows in its field order; None is an empty cell, a float
    goes through format_float."""
    def cell(row, field):
        value = getattr(row, field)
        if value is None:
            return ""
        return format_float(value) if isinstance(value, float) else str(value)

    fields = header.split(",")
    return [header] + [",".join(cell(r, f) for f in fields) for r in rows]


def trial_csv_lines(rows: list[TrialRow]) -> list[str]:
    return _csv_lines(TRIAL_HEADER, rows)


def summary_csv_lines(rows: list[SummaryRow]) -> list[str]:
    return _csv_lines(SUMMARY_HEADER, rows)


def write_csv(path: str, lines: list[str]) -> None:
    """Single line feed newlines, no trailing blank line beyond the last."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def summary_path_for(out_path: str) -> str:
    return out_path + ".summary.csv"


def _mean_ci(values: list[float]) -> tuple[float, float | None]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(np.mean(arr))
    if arr.size < 2:
        return mean, None
    return mean, float(1.96 * np.std(arr, ddof=1) / math.sqrt(arr.size))


def _run_indexed(fn, count: int, master_seed: int, base_index: int,
                 workers: int) -> list:
    """Run fn(global_index, stream) for count trials, results in index
    order; trial k runs on thread k mod workers (gaussian.run_blocks)."""
    return run_blocks(lambda k, _: fn(base_index + k, split_stream(
        master_seed, base_index + k)), count, workers)


def selftrain_pool_threshold(n0: int, d: int, epsilon: float) -> int:
    """Unlabeled-pool size at which self-training reaches low robust error."""
    return math.ceil(288.0 * n0 * epsilon**2 * math.sqrt(d / n0))


def supervised_label_threshold(n0: int, d: int, epsilon: float) -> int:
    """Labeled-sample size at which plain supervision is robust."""
    return math.ceil(4.0 * n0 * epsilon**2 * math.sqrt(d / n0))


def _closed_form_row(experiment: str, model: GaussianModel, stats,
                     trial: int, *, n_labeled=None, n_unlabeled=None,
                     relevant_fraction=None, gamma=None) -> TrialRow:
    """The trial row of a theta with stats = (mu^T theta, ||theta||_2,
    ||theta||_1): its closed-form error rates on model, whose n0, d and
    epsilon it records; every driver's seed is its trial index."""
    std_err, rob_err = rates_from_stats(model, *stats)
    return TrialRow(
        experiment=experiment, n0=model.n0, d=model.d, epsilon=model.epsilon,
        n_labeled=n_labeled, n_unlabeled=n_unlabeled,
        relevant_fraction=relevant_fraction, trial=trial,
        std_err=std_err, rob_err=rob_err, gamma=gamma, seed=trial)


def _summaries_for(experiment: str, grid_key: str, grid_value: str,
                   rows: list[TrialRow]) -> list[SummaryRow]:
    out = []
    for metric in ("std_err", "rob_err", "gamma"):
        values = [getattr(r, metric) for r in rows]
        if any(v is None for v in values):
            continue
        mean, ci = _mean_ci(values)
        out.append(SummaryRow(experiment=experiment, grid_key=grid_key,
                              grid_value=grid_value, metric=metric, mean=mean,
                              ci95_half_width=ci, trials=len(values)))
    return out


def _labeled_count(spec: ExperimentSpec) -> int:
    return spec.n_labeled if spec.n_labeled is not None else spec.n0


def _pool_size(spec: ExperimentSpec) -> int:
    """The self-training pool: spec.n_unlabeled, else the 288-threshold."""
    n_tilde = (spec.n_unlabeled if spec.n_unlabeled is not None
               else selftrain_pool_threshold(spec.n0, spec.d, spec.epsilon))
    if n_tilde < 1:
        raise ValueError(f"n_unlabeled must be >= 1, got {n_tilde}")
    return n_tilde


def _run_arms(spec: ExperimentSpec, arms) -> tuple[list[TrialRow],
                                                   list[SummaryRow]]:
    """Run spec.trial_count closed-form trials per arm; summarize each arm.

    An arm is (experiment, grid_key, grid_value, n_labeled, n_unlabeled,
    alpha). It draws the self-trained estimator on n_unlabeled points when
    that is > 0 and the supervised estimator otherwise, each from its exact
    law; n_unlabeled goes to the trial rows as given. Trial t draws every
    arm with one trial_draws on split_stream(master_seed, t): one z1 and
    one z for all arms, a pool and binomial per self-training arm, and one
    stats pass that scores every arm. The trials run one after another,
    each phase of a trial spread over spec.workers threads, in one
    TrialWork for the run. Rows come back arm by arm, each arm's in trial
    order, with seed t.
    """
    model = spec.model()
    draws = [arm[3:] for arm in arms]
    per_trial = []
    work = TrialWork(model.d, draws, spec.workers)
    for t in range(spec.trial_count):
        fd = trial_draws(model, draws, split_stream(spec.master_seed, t), work)
        per_trial.append([_closed_form_row(
            experiment, model, stats, t, n_labeled=n, n_unlabeled=n_unlabeled,
            relevant_fraction=alpha if n_unlabeled else None, gamma=gamma)
            for (experiment, _, _, n, n_unlabeled, alpha), stats, gamma
            in zip(arms, fd.stats(model.mu), fd.agreements, strict=True)])
    rows: list[TrialRow] = []
    summaries: list[SummaryRow] = []
    for j, (experiment, grid_key, grid_value, *_) in enumerate(arms):
        arm_rows = [trial[j] for trial in per_trial]
        rows.extend(arm_rows)
        summaries.extend(_summaries_for(experiment, grid_key, grid_value,
                                        arm_rows))
    return rows, summaries


def run_verify_closed_form(spec: ExperimentSpec) -> tuple[list[TrialRow],
                                                          list[SummaryRow]]:
    """Closed-form versus Monte Carlo error rates on a classifier grid.

    Pair 0 is theta = mu on the canonical model (its standard error has the
    known value Q((d/n0)^(1/4))); pairs with index = 1 mod 7 use epsilon = 0
    so the standard and robust columns must coincide; all other pairs draw
    a random theta. Dimensions cycle through {2, 16, 1024} weighted toward
    the small ones. Emits one ...:closed row (_closed_form_row) and one
    ...:mc row per pair, then per error column the largest gap and the
    largest excess over the tolerance sigmas * sd + floor.
    """
    th = ACCEPTANCE_THRESHOLDS["verify_closed_form"]

    def one_pair(i: int, stream: RngStream):
        d = 2 if i % 5 < 2 else (16 if i % 5 < 4 else 1024)
        eps = 0.0 if i % 7 == 1 else spec.epsilon
        model = canonical_model(spec.n0, d, eps, allow_large_epsilon=True)
        if i == 0:
            theta = model.mu.copy()
        else:
            theta = stream.standard_normal(d) + model.mu / math.sqrt(d)
        clf = LinearClassifier(theta=theta)
        std_mc, rob_mc = mc_error_estimate(model, clf, spec.mc_samples, stream)
        closed = _closed_form_row("verify_closed_form:closed", model,
                                  alignment_stats(model, clf), i)
        return closed, replace(closed, experiment="verify_closed_form:mc",
                               std_err=std_mc, rob_err=rob_mc)

    # the pairs run one after another, each estimate on every core
    pairs = _run_indexed(one_pair, spec.trial_count, spec.master_seed, 0, 1)
    columns = ("std", "rob")
    largest_gap, largest_excess = [], []
    for column in columns:
        gaps, excess = [], []
        for closed, mc in pairs:
            p_hat = getattr(mc, column + "_err")
            g = abs(getattr(closed, column + "_err") - p_hat)
            sd = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / spec.mc_samples)
            gaps.append(g)
            excess.append(g - (th["tolerance_sigmas"] * sd
                               + th["tolerance_floor"]))
        largest_gap.append(max(gaps))
        largest_excess.append(max(excess))
    summaries = [
        SummaryRow("verify_closed_form", "aggregate", "all", metric + column,
                   value, None, len(pairs))
        for metric, values in (("max_abs_gap_", largest_gap),
                               ("max_tolerance_excess_", largest_excess))
        for column, value in zip(columns, values)]
    return [row for pair in pairs for row in pair], summaries


def run_gap(spec: ExperimentSpec) -> tuple[list[TrialRow], list[SummaryRow]]:
    """Three-arm comparison: supervised at n0, supervised at the robust
    sample-complexity threshold, and self-training at n0 labels plus the
    unlabeled threshold."""
    spec.model()  # canonical_model vets the model point before any threshold
    n0 = _labeled_count(spec)
    n_big = supervised_label_threshold(spec.n0, spec.d, spec.epsilon)
    return _run_arms(spec, [
        ("gap:supervised_n0", "arm", "supervised_n0", n0, None, 1.0),
        ("gap:supervised_scaled", "arm", "supervised_scaled", n_big, None, 1.0),
        ("gap:selftrain", "arm", "selftrain", n0, _pool_size(spec), 1.0),
    ])


def run_unlabeled_sweep(spec: ExperimentSpec) -> tuple[list[TrialRow],
                                                       list[SummaryRow]]:
    """Self-training error as the unlabeled pool grows; 0 means no pool."""
    grid = spec.n_unlabeled_grid
    if not grid:
        raise ValueError("unlabeled_sweep needs a nonempty n_unlabeled_grid")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_unlabeled_grid must be ascending")
    if any(g < 0 for g in grid):
        raise ValueError("n_unlabeled_grid entries must be >= 0")
    n = _labeled_count(spec)
    return _run_arms(spec, [
        ("unlabeled_sweep", "n_unlabeled", str(n_tilde), n, n_tilde, 1.0)
        for n_tilde in grid])


def run_irrelevant_sweep(spec: ExperimentSpec) -> tuple[list[TrialRow],
                                                        list[SummaryRow]]:
    """Two curves over the relevant fraction: fixed pool size, and pool size
    scaled by 1/alpha^2 (the scaling the theory says restores low error).
    The scaled curve skips alpha = 0 (its pool size would be infinite)."""
    grid = spec.alpha_grid
    if not grid:
        raise ValueError("irrelevant_sweep needs a nonempty alpha_grid")
    if any(not (0.0 <= a <= 1.0) for a in grid):
        raise ValueError("alpha_grid entries must lie in [0, 1]")
    spec.model()  # canonical_model vets the model point before any threshold
    n = _labeled_count(spec)
    n_tilde = _pool_size(spec)
    fixed = [("irrelevant_sweep:fixed", "relevant_fraction", format_float(a),
              n, n_tilde, a) for a in grid]
    big = [a for a in grid if 0.0 < a and a * a * 2.0**63 <= n_tilde]
    if big:  # numpy's binomial counts points in int64
        raise ValueError(f"alpha={big[0]} scales the pool of {n_tilde} to "
                         f"{n_tilde}/alpha^2 >= 2^63 points")
    scaled = [("irrelevant_sweep:scaled", "relevant_fraction", format_float(a),
               n, math.ceil(n_tilde / (a * a)), a) for a in grid if a > 0.0]
    return _run_arms(spec, fixed + scaled)


def run_label_sweep(spec: ExperimentSpec) -> tuple[list[TrialRow],
                                                   list[SummaryRow]]:
    """Self-training error as the labeled count varies at a fixed pool."""
    grid = spec.n_labeled_grid
    if not grid:
        raise ValueError("label_sweep needs a nonempty n_labeled_grid")
    if any(g < 1 for g in grid):
        raise ValueError("n_labeled_grid entries must be >= 1")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_labeled_grid must be ascending")
    spec.model()  # canonical_model vets the model point before any threshold
    n_tilde = _pool_size(spec)
    return _run_arms(spec, [
        ("label_sweep", "n_labeled", str(n), n, n_tilde, 1.0) for n in grid])


def default_rst_config(epsilon: float) -> RstConfig:
    """Training budget tuned for the demo model (d = 100, 30 + 3000 points)."""
    return RstConfig(beta=3.0, w_unlabeled=1.0, epsilon=epsilon,
                     learning_rate=1e-3, grad_steps=50, batch_size=256,
                     reg_kind="adversarial_exact")


def run_rst_demo(spec: ExperimentSpec) -> tuple[list[TrialRow],
                                                list[SummaryRow]]:
    """Paired comparison of robust self-training against labeled-only robust
    training, both trained with the same budget; the margin is the mean
    robust-error improvement.

    Trials run in lockstep groups of G = max(1, 2^20 // ((n + n~) d)),
    capped at the trial count, one group after another on the calling
    thread: each group's rows sit in one reused (G, n + n~, d) buffer,
    labeled rows first, and its three trainings (stage one, robust
    self-training, labeled-only on the first n rows) each step the G
    problems together. Trial j draws from split_stream(master_seed, j) in
    the one-trial order: labeled set, pool, stage one, robust
    self-training, labeled-only. So rows do not depend on G, and
    spec.workers does not split the trials.
    """
    model = spec.model()
    n = _labeled_count(spec)
    n_tilde = spec.n_unlabeled if spec.n_unlabeled is not None else 3_000
    if n_tilde < 1:
        raise ValueError("rst_demo needs n_unlabeled >= 1")
    config = (spec.rst_config if spec.rst_config is not None
              else default_rst_config(spec.epsilon))
    trials = spec.trial_count
    n_rows = n + n_tilde
    group = min(trials, max(1, _RST_GROUP_SCALARS // (n_rows * model.d)))

    def trial_row(experiment: str, theta: np.ndarray, index: int, **fields):
        stats = alignment_stats(model, LinearClassifier(theta=theta))
        return _closed_form_row(experiment, model, stats, index, n_labeled=n,
                                **fields)

    pairs = []
    buffer = np.empty((group, n_rows, model.d))
    for start in range(0, trials, group):
        indices = range(start, min(start + group, trials))
        streams = [split_stream(spec.master_seed, i) for i in indices]
        xs = buffer[:len(indices)]
        ys = np.empty((len(indices), n_rows))
        hidden = np.empty((len(indices), n_tilde), dtype=np.int64)
        for g, stream in enumerate(streams):
            labeled = sample_labeled(model, n, stream)
            pool, hidden[g] = sample_mixture(model, n_tilde, 1.0, stream)
            xs[g, :n], xs[g, n:], ys[g, :n] = labeled.xs, pool.xs, labeled.ys
            del labeled, pool  # the next draw need not hold this pool too
        stage1 = standard_train(xs, ys, spec.stage1_learning_rate,
                                spec.stage1_steps, spec.stage1_batch, streams,
                                n_rows=n)
        scores = np.einsum("...ij,...j->...i", xs[:, n:], stage1)
        pseudo = np.where(scores >= 0.0, 1, -1)
        gammas = np.mean(pseudo * hidden, axis=-1)
        ys[:, n:] = pseudo
        weights = np.full(ys.shape, config.w_unlabeled)
        weights[:, :n] = 1.0
        rst, _ = rst_train(xs, ys, weights, n, config, streams)
        # the labeled-only arm has no unlabeled rows to split a batch with
        base, _ = rst_train(xs, ys, weights, n,
                            replace(config, equal_parts_batches=False),
                            streams, n_rows=n)
        for g, index in enumerate(indices):
            pairs.append((
                trial_row("rst_demo:rst", rst[g], index, n_unlabeled=n_tilde,
                          relevant_fraction=1.0,
                          gamma=float(gammas[g])),
                trial_row("rst_demo:labeled_only", base[g], index)))
    rst_rows = [p[0] for p in pairs]
    base_rows = [p[1] for p in pairs]
    rows = [row for pair in pairs for row in pair]
    summaries = _summaries_for("rst_demo:rst", "arm", "rst", rst_rows)
    summaries += _summaries_for("rst_demo:labeled_only", "arm", "labeled_only",
                                base_rows)
    diffs = [b.rob_err - r.rob_err for r, b in pairs]
    mean, ci = _mean_ci(diffs)
    summaries.append(SummaryRow("rst_demo", "comparison", "margin",
                                "rob_err_margin", mean, ci, trials))
    return rows, summaries


def analytic_certified_accuracy(model: LinearClassifier, xs: np.ndarray,
                                ys: np.ndarray, radii, config: SmoothingConfig
                                ) -> list[tuple[float, float, float]]:
    """Exact expectation of the finite-sample certification protocol.

    For each point: the plurality stage selects the true label with a
    binomial tail probability, and the estimation stage certifies radius r
    exactly when its vote count reaches min_votes_for_radius(r). Returns
    (radius, expected accuracy, standard deviation of empirical accuracy,
    each point's probability of counting at that radius), with the vote law
    the protocol draws from, gaussian.vote_probabilities.
    """
    ys = np.asarray(ys)
    p_plus = vote_probabilities(model, xs, config.noise_sigma)
    need = config.n0_selection // 2 + 1
    sel_plus = binomial_upper_tail(need, config.n0_selection, p_plus)
    p_sel = np.where(ys == 1, sel_plus, 1.0 - sel_plus)
    p_true = np.where(ys == 1, p_plus, 1.0 - p_plus)
    out = []
    for r in radii:
        k_min = min_votes_for_radius(float(r), config)
        probs = p_sel * binomial_upper_tail(k_min, config.n_estimation,
                                            p_true)
        mean = float(np.mean(probs))
        sd = float(np.sqrt(np.sum(probs * (1.0 - probs)))) / len(probs)
        out.append((float(r), mean, sd, probs))
    return out


def run_certify_demo(spec: ExperimentSpec) -> tuple[list[TrialRow],
                                                    list[SummaryRow]]:
    """Certified accuracy curve of the smoothed mean-direction classifier.

    Test points are fresh draws from the model; the base classifier is the
    halfspace along mu, with exact vote counts, certified in one loop (not
    split across workers). Per-trial CSV is header-only (certification results
    do not fit the error-rate schema); the curve lands in the summary file
    as certified_accuracy / analytic_accuracy / radius_linf per radius. The
    analytic rows carry 1.96 x the protocol's exact standard deviation in
    the ci95 column, and each point's probability of counting in memory
    (point_probs) for the exact --check gate.
    """
    model = spec.model()
    config = (spec.smoothing if spec.smoothing is not None
              else SmoothingConfig(noise_sigma=model.sigma))
    radii = tuple(float(r) for r in spec.radii)
    if not radii:
        radii = tuple(config.noise_sigma * f for f in (0.0, 0.5, 1.0, 1.5, 2.0))
    n_points = spec.trial_count
    points = sample_labeled(model, n_points, split_stream(spec.master_seed, 0))
    base_model = LogisticModel(theta=model.mu.copy())
    curve = certified_accuracy_curve(base_model, points.xs, points.ys, radii,
                                     config, split_stream(spec.master_seed, 1))
    analytic = analytic_certified_accuracy(base_model, points.xs, points.ys,
                                           radii, config)
    summaries: list[SummaryRow] = []
    for (_, acc), (r, mean_a, sd_a, probs) in zip(curve, analytic):
        ci = 1.96 * math.sqrt(max(acc * (1 - acc), 0.0) / n_points)
        key = format_float(r)
        summaries.append(SummaryRow("certify_demo", "radius_l2", key,
                                    "certified_accuracy", acc, ci, n_points))
        summaries.append(SummaryRow("certify_demo", "radius_l2", key,
                                    "analytic_accuracy", mean_a, 1.96 * sd_a,
                                    n_points, point_probs=probs))
        summaries.append(SummaryRow("certify_demo", "radius_l2", key,
                                    "radius_linf",
                                    linf_radius_from_l2(r, spec.d), None,
                                    n_points))
    return [], summaries


RUNNERS = {
    "verify_closed_form": run_verify_closed_form,
    "gap": run_gap,
    "unlabeled_sweep": run_unlabeled_sweep,
    "irrelevant_sweep": run_irrelevant_sweep,
    "label_sweep": run_label_sweep,
    "rst_demo": run_rst_demo,
    "certify_demo": run_certify_demo,
}


# One versioned table of gate thresholds; check_results consults only this.
# A bound (experiment or None, metric, grid value or None, "min" | "max",
# limit) fails each matching summary row whose mean lies beyond limit.
ACCEPTANCE_THRESHOLDS = {
    "version": 4,
    "verify_closed_form": {
        "tolerance_sigmas": 4.0, "tolerance_floor": 1e-6,
        "bounds": [
            ("verify_closed_form", "max_tolerance_excess_std", None, "max", 0.0),
            ("verify_closed_form", "max_tolerance_excess_rob", None, "max", 0.0),
        ]},
    "gap": {"bounds": [
        ("gap:supervised_n0", "rob_err", None, "min", 0.45),
        ("gap:supervised_n0", "std_err", None, "max", 1 / 3),
        ("gap:selftrain", "rob_err", None, "max", 0.01),
    ]},
    "unlabeled_sweep": {"trend_ci_widths": 2.0, "trend_abs_floor": 1e-6},
    "irrelevant_sweep": {"bounds": [
        ("irrelevant_sweep:scaled", "rob_err", None, "max", 0.01),
        ("irrelevant_sweep:fixed", "rob_err", "0", "min", 0.45),
    ]},
    "label_sweep": {"plateau_ci_widths": 2.0, "plateau_abs_floor": 1e-6},
    "rst_demo": {"bounds": [("rst_demo", "rob_err_margin", None, "min", 0.05)]},
    "certify_demo": {"two_sided_tail_min": 0.0027},
}


def _slack(a: SummaryRow, b: SummaryRow, widths: float, floor: float) -> float:
    """How far two summary means may differ: floor + widths CI half-widths."""
    return floor + widths * math.sqrt((a.ci95_half_width or 0.0) ** 2
                                      + (b.ci95_half_width or 0.0) ** 2)


def check_results(spec: ExperimentSpec, rows: list[TrialRow],
                  summaries: list[SummaryRow]) -> list[str]:
    """Threshold gate for --check; returns human-readable failure lines."""
    th = ACCEPTANCE_THRESHOLDS.get(spec.kind, {})
    failures: list[str] = []

    def such(experiment=None, metric=None, grid_value=None):
        return [s for s in summaries
                if (experiment is None or s.experiment == experiment)
                and (metric is None or s.metric == metric)
                and (grid_value is None or s.grid_value == grid_value)]

    for experiment, metric, grid_value, side, limit in th.get("bounds", ()):
        sign = {"min": "<", "max": ">"}[side]
        for s in such(experiment, metric, grid_value):
            if (s.mean < limit) if side == "min" else (s.mean > limit):
                failures.append(
                    f"{metric} = {s.mean:.4g} {sign} {limit:.4g} "
                    f"({s.experiment}, {s.grid_key}={s.grid_value})")

    if spec.kind == "unlabeled_sweep":
        points = such("unlabeled_sweep", "rob_err")
        for a, b in zip(points, points[1:]):
            if b.mean > a.mean + _slack(a, b, th["trend_ci_widths"],
                                        th["trend_abs_floor"]):
                failures.append(
                    f"robust error rose from {a.mean:.4f} (n~={a.grid_value}) "
                    f"to {b.mean:.4f} (n~={b.grid_value}) beyond the CI slack")
    elif spec.kind == "irrelevant_sweep":
        fixed = {s.grid_value: s.mean
                 for s in such("irrelevant_sweep:fixed", "rob_err")}
        for s in such("irrelevant_sweep:scaled", "rob_err"):
            key = s.grid_value
            if key in fixed and float(key) < 1.0 and fixed[key] <= s.mean:
                failures.append(
                    f"fixed-pool error {fixed[key]:.3e} at alpha={key} is not "
                    f"strictly worse than the scaled pool's {s.mean:.3e}")
    elif spec.kind == "label_sweep":
        points = [s for s in such("label_sweep", "rob_err")
                  if int(s.grid_value) >= spec.n0]
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                if abs(a.mean - b.mean) > _slack(a, b, th["plateau_ci_widths"],
                                                 th["plateau_abs_floor"]):
                    failures.append(
                        f"label-plateau spread between n={a.grid_value} and "
                        f"n={b.grid_value}: |{a.mean:.4f} - {b.mean:.4f}| "
                        "exceeds the CI slack")
    elif spec.kind == "certify_demo":
        emp = {s.grid_value: s for s in such(metric="certified_accuracy")}
        analytic = such(metric="analytic_accuracy")
        for s in analytic:
            e = emp.get(s.grid_value)
            if e is None:
                continue
            # the certified count is exactly Poisson-binomial(point_probs);
            # the level holds for the family of radii (Bonferroni)
            k = round(e.mean * e.trials)
            tail = poisson_binomial_two_sided(s.point_probs, k)
            level = th["two_sided_tail_min"] / len(analytic)
            if tail < level:
                failures.append(
                    f"certified accuracy {e.mean:.4f} at radius "
                    f"{s.grid_value} is {k} of {e.trials} points; the exact "
                    f"two-sided tail about the analytic {s.mean:.4f} is "
                    f"{tail:.2e} < {level:.2g}")
    return failures

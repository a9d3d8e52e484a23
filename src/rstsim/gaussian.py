"""The Gaussian classification model and its closed-form error laws.

Inputs are x | y ~ N(y * mu, sigma^2 I) with y uniform on {-1, +1}. A
linear classifier predicts sign(theta^T x), with sign(0) = +1 throughout
the package. The adversary perturbs inputs inside an l-infinity ball of
radius epsilon, which for a linear classifier shifts the score by at
most epsilon * ||theta||_1, so both the clean and the worst-case
misclassification probabilities reduce to Gaussian tail evaluations.
Under N(0, s^2 I) input noise the halfspace votes +1 with probability
Phi(theta^T x / (s ||theta||_2)): vote_probabilities, smoothing's vote law.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .statkit import RngStream, gaussian_cdf, q_function, split_stream


def _as_float_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-d vector with at least one entry")
    # min and max are finite exactly when every entry is, and unlike
    # isfinite(arr) they need no d-length temporary; a 0-stride view
    # repeats its first entry
    probe = arr[:1] if arr.strides == (0,) else arr
    if not (np.isfinite(probe.min()) and np.isfinite(probe.max())):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector, noise scale, and attack radius of one problem instance.

    n0 records the sample-complexity scale the canonical construction was
    built from; it never enters the error formulas, and every trial row
    records it (experiments._closed_form_row).
    """

    mu: np.ndarray
    sigma: float
    epsilon: float
    n0: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_float_vector(self.mu, "mu"))
        if not (self.sigma > 0.0) or not np.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if not (self.epsilon >= 0.0) or not np.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be >= 0 and finite, got {self.epsilon!r}")

    @property
    def d(self) -> int:
        return self.mu.size

    @cached_property
    def mu_sq(self) -> float:
        """mu^T mu, computed once per model with c_einsum, as the factored
        draws compute their other inner products."""
        return float(np.einsum("i,i->", self.mu, self.mu))


@dataclass(frozen=True)
class LinearClassifier:
    """Weight vector of the halfspace sign(theta^T x), sign(0) = +1."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _as_float_vector(self.theta, "theta"))


@dataclass(frozen=True)
class LabeledSet:
    """Rows of inputs paired with their +-1 labels."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys)
        if xs.ndim != 2:
            raise ValueError("xs must be an (n, d) matrix")
        if ys.shape != (xs.shape[0],):
            raise ValueError("ys must have one label per row of xs")
        if not np.all(np.isin(ys, (-1, 1))):
            raise ValueError("labels must be +-1")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys.astype(np.int64))

    @property
    def n(self) -> int:
        return self.xs.shape[0]


def _as_point(clf: LinearClassifier, x) -> np.ndarray:
    """x as a float vector, checked to be one input point for clf: the
    shape of its theta."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != clf.theta.shape:
        raise ValueError("x and theta dimensions differ")
    return x


def canonical_sigma(n0: int, d: int) -> float:
    """The scaling family's noise scale (n0 d)^(1/4), without building mu."""
    n0 = int(n0)
    d = int(d)
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return float((n0 * d) ** 0.25)


def canonical_model(n0: int, d: int, epsilon: float,
                    allow_large_epsilon: bool = False) -> GaussianModel:
    """Construct the scaling family instance: mu = all-ones, sigma = (n0 d)^(1/4).

    mu is a read-only broadcast view of one 1.0, so the model holds no
    d-vector. With this choice ||mu||^2 / sigma^2 = sqrt(d / n0) and
    ||mu||_1 / ||mu||_2 = sqrt(d) exactly. epsilon >= 1/2 collapses the
    robust problem (the perturbation can cross between the class means)
    and is rejected unless allow_large_epsilon is set.
    """
    sigma = canonical_sigma(n0, d)
    epsilon = float(epsilon)
    if epsilon >= 0.5 and not allow_large_epsilon:
        raise ValueError(
            f"epsilon = {epsilon} >= 0.5 is outside the meaningful attack range; "
            "pass allow_large_epsilon=True to override")
    return GaussianModel(mu=np.broadcast_to(1.0, (int(d),)), sigma=sigma,
                         epsilon=epsilon, n0=int(n0))


def _signed_rows(model: GaussianModel, ys: np.ndarray, n_signal: int,
                 stream: RngStream) -> np.ndarray:
    """The (len(ys), d) rows y_i mu + sigma z_i for i < n_signal and sigma
    z_i for the rest, the noise drawn row-major from stream.

    sigma z is formed in place, then mu is added on the signal rows with
    y = +1 and subtracted on those with y = -1: for y = +-1 that is
    exactly y mu + sigma z, since y mu is +-mu without rounding.
    """
    xs = stream.standard_normal((len(ys), model.d))
    xs *= model.sigma
    pos = (ys[:n_signal] > 0)[:, None]
    np.add(xs[:n_signal], model.mu, out=xs[:n_signal], where=pos)
    np.subtract(xs[:n_signal], model.mu, out=xs[:n_signal], where=~pos)
    return xs


def sample_labeled(model: GaussianModel, n: int, stream: RngStream) -> LabeledSet:
    """Draw n labeled samples x = y mu + sigma z.

    Draw order (fixed for reproducibility): n label bits first, then the
    (n, d) noise matrix row-major (_signed_rows).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ys = 2 * stream.integers(0, 2, size=n, dtype=np.int64) - 1
    return LabeledSet(xs=_signed_rows(model, ys, n, stream), ys=ys)


def alignment_stats(model: GaussianModel,
                    clf: LinearClassifier) -> tuple[float, float, float]:
    """(mu^T theta, ||theta||_2, ||theta||_1), the statistics error_rates needs."""
    theta = clf.theta
    if theta.shape != model.mu.shape:
        raise ValueError(
            f"theta has dimension {theta.size}, model has dimension {model.d}")
    # ufunc reductions, not BLAS dot: summation order must not depend on
    # ambient thread-pool state (byte-stable CSV across worker counts).
    l2 = float(np.sqrt(np.sum(theta * theta)))
    mu_dot = float(np.sum(model.mu * theta))
    return mu_dot, l2, float(np.sum(np.abs(theta)))


def rates_from_stats(model: GaussianModel, mu_dot: float, l2: float,
                     l1: float) -> tuple[float, float]:
    """Exact (standard, robust) error rates of a theta with these statistics.

    Standard: Q(mu^T theta / (sigma ||theta||_2)). Robust: the optimal
    l-infinity attack shifts the score by epsilon * ||theta||_1 against
    the label, giving Q((mu^T theta - epsilon ||theta||_1) / (sigma ||theta||_2)),
    never smaller than the standard rate and equal to it when epsilon = 0.
    """
    if l2 == 0.0:
        raise ValueError("theta must be nonzero")
    align = mu_dot / (model.sigma * l2)
    l1_ratio = l1 / (model.sigma * l2)
    return q_function(align), q_function(align - model.epsilon * l1_ratio)


def error_rates(model: GaussianModel, clf: LinearClassifier) -> tuple[float, float]:
    """Exact (standard, robust) error rates of clf (see rates_from_stats)."""
    return rates_from_stats(model, *alignment_stats(model, clf))


def standard_error(model: GaussianModel, clf: LinearClassifier) -> float:
    """Exact clean misclassification probability (see error_rates)."""
    return error_rates(model, clf)[0]


def robust_error(model: GaussianModel, clf: LinearClassifier) -> float:
    """Exact worst-case l-infinity misclassification probability (see error_rates)."""
    return error_rates(model, clf)[1]


def vote_probabilities(clf: LinearClassifier, xs, sigma: float) -> np.ndarray:
    """P(sign(theta^T (x + z)) = +1), ties to +1, z ~ N(0, sigma^2 I), for
    each row x of xs: Phi(theta^T x / (sigma ||theta||_2)), and 1 when theta
    = 0, where every score ties. smoothing draws a LinearClassifier's votes
    from it, and experiments.analytic_certified_accuracy scores with it."""
    theta = clf.theta
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != theta.size:
        raise ValueError("x and theta dimensions differ")
    l2 = float(np.sqrt(np.sum(theta * theta)))
    if l2 == 0.0:
        return np.ones(xs.shape[0])
    ratios = np.einsum("ij,j->i", xs, theta) / (sigma * l2)
    return np.array([gaussian_cdf(r) for r in ratios])


def _mc_threads() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _executor(workers: int) -> ThreadPoolExecutor:
    """The process-wide executor of this many workers, made on first use."""
    return ThreadPoolExecutor(max_workers=workers)


def run_blocks(task, n_blocks: int, threads: int) -> list:
    """task(k, w) for every block k < n_blocks, in block order.

    T = min(threads, n_blocks) threads run them, the caller as thread 0
    and the T - 1 workers of _executor(T - 1) as the rest; thread w takes
    blocks w, w + T, ... as one task, and w picks its own buffer. A caller
    that combines the results in block order gets the same result for any
    thread count. A task must not call run_blocks: a worker that waits on
    its own executor can deadlock it (at threads = 1 every task runs on
    the caller, so there it may).
    """
    t = max(1, min(threads, n_blocks))

    def share(w: int) -> list:
        return [task(k, w) for k in range(w, n_blocks, t)]

    others = [_executor(t - 1).submit(share, w) for w in range(1, t)]
    out = [None] * n_blocks
    for w, part in enumerate([share(0)] + [f.result() for f in others]):
        out[w::t] = part
    return out


# Monte Carlo draws chunks of about _MC_BLOCK_SCALARS, one substream each,
# in row blocks of about _MC_ROW_BLOCK_SCALARS: memory O(threads * block).
_MC_BLOCK_SCALARS = 1 << 20
_MC_ROW_BLOCK_SCALARS = 1 << 17


def mc_error_estimate(model: GaussianModel, clf: LinearClassifier,
                      n_samples: int, stream: RngStream) -> tuple[float, float]:
    """Monte Carlo (standard, robust) error rates on fresh samples.

    The robust event is y * x^T theta - epsilon * ||theta||_1 < 0, i.e.
    the worst point of the l-infinity ball is misclassified; ties follow
    sign(0) = +1, so a zero worst-case score counts as an error only for
    y = -1. Both rates use the same sample, so they are comparable and
    the robust rate dominates the standard rate realization-wise.

    Antithetic labels: y is uniform and independent of the noise, so n
    samples are ceil(n / 2) noise rows z_i, row i carrying (mu + sigma z_i,
    +1) and, when i < floor(n / 2), (-mu + sigma z_i, -1). With t_i = sigma
    theta^T z_i and c = mu^T theta (mu^T theta - epsilon ||theta||_1 for
    the robust column), the pair's margins are c + t_i and c - t_i. The
    estimate is unbiased, and its variance is at most that of n
    independent samples: a row's two misses are never both counted when c
    >= 0, and one of them always is when c < 0, so they covary <= 0. It
    shares with the closed form the linearity of the score and the
    epsilon ||theta||_1 step (alignment_stats), not the Gaussian tail.

    Draw order: one seed = stream.integers(0, 2**63), then chunk k of
    R = max(1, 2^20 // d) rows, rows [k R, min((k + 1) R, ceil(n / 2))),
    is split_stream(seed, k).standard_normal((rows_k, d)) row-major. The
    layout depends only on n_samples and d, and the miss counts are exact
    integer sums, so the result does not depend on how many threads run
    the chunks: one per core this process may run on, at most one per
    chunk, the caller among them (run_blocks). A thread draws a chunk in
    row blocks of max(1, 2^17 // d) rows into one reused buffer, in the
    same order, and counts each block's misses; so nothing depends on the
    block size. Memory is O(threads * block d).
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    theta = clf.theta
    mu_dot, l2, l1 = alignment_stats(model, clf)
    if l2 == 0.0:
        raise ValueError("theta must be nonzero")
    n_rows, n_pairs = -(-n_samples // 2), n_samples // 2
    rows = max(1, _MC_BLOCK_SCALARS // model.d)
    n_chunks = -(-n_rows // rows)
    seed = int(stream.integers(0, 2**63))
    threads = min(_mc_threads(), n_chunks)
    block = min(rows, n_rows, max(1, _MC_ROW_BLOCK_SCALARS // model.d))
    bufs = [np.empty((block, model.d)) for _ in range(threads)]
    levels = (mu_dot, mu_dot - model.epsilon * l1)  # c of each column

    def misses(k: int, w: int) -> list[int]:
        # (standard, robust) miss counts of chunk k, drawn into thread w's buffer
        gen, counts = split_stream(seed, k), [0, 0]
        end = min((k + 1) * rows, n_rows)
        for r0 in range(k * rows, end, block):
            zs = gen.standard_normal(out=bufs[w][:min(block, end - r0)])
            t = np.einsum("ij,j->i", zs, theta)
            t *= model.sigma
            minus = t[:n_pairs - r0]  # the rows that also carry y = -1
            for j, c in enumerate(levels):
                counts[j] += (int(np.count_nonzero(c + t < 0.0))
                              + int(np.count_nonzero(c - minus <= 0.0)))
        return counts

    counts = run_blocks(misses, n_chunks, threads)
    std_total, rob_total = map(sum, zip(*counts))
    return std_total / n_samples, rob_total / n_samples

"""Randomized smoothing certification over a base classifier.

The protocol: take a plurality vote over noisy evaluations to select a
candidate label, re-estimate its vote probability on fresh noise, lower
bound that probability with a Clopper-Pearson interval, and certify the
l2 radius noise_sigma * Phi^-1(p_lower) when the bound clears 1/2.

A LinearClassifier base (a LogisticModel among them) is the halfspace
sign(theta^T x), ties to +1; its vote counts are drawn as exact binomials
of gaussian.vote_probabilities, the halfspace's vote law under N(0, sigma^2
I) noise. Any other base is a batch oracle evaluated on drawn noise, the
reference path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import LabeledSet, LinearClassifier, vote_probabilities
from .statkit import (
    RngStream,
    _at_least,
    clopper_pearson_lower,
    gaussian_cdf,
    inverse_gaussian_cdf,
    split_stream,
)

# cap per-chunk oracle batches at ~10^7 scalars so certification of
# high-dimensional models stays within a fixed memory budget
_CHUNK_SCALARS = 10_000_000


@dataclass(frozen=True)
class SmoothingConfig:
    """Protocol parameters: smoothing noise and the two-stage sample sizes."""

    noise_sigma: float = 0.25
    n0_selection: int = 100
    n_estimation: int = 10_000
    conf_alpha: float = 1e-3

    def __post_init__(self):
        _at_least("noise_sigma", self.noise_sigma, 0, strict=True)
        _at_least("n0_selection", self.n0_selection, 1)
        _at_least("n_estimation", self.n_estimation, 1)
        if not 0.0 < self.conf_alpha < 1.0:
            raise ValueError(f"conf_alpha must be in (0,1), got {self.conf_alpha}")


@dataclass(frozen=True)
class CertifyResult:
    """One certification outcome.

    certified is False exactly when p_lower <= 1/2 (abstention); then label
    is None and radius is 0. votes_top counts estimation-stage votes for
    the selected label.
    """

    certified: bool
    label: int | None
    radius: float
    p_lower: float
    votes_top: int

    def __post_init__(self):
        if self.certified != (self.p_lower > 0.5):
            raise ValueError("certified must hold exactly when p_lower > 1/2")
        if self.certified and (self.label not in (-1, 1) or not self.radius > 0):
            raise ValueError("certified outcome needs a +-1 label and radius > 0")
        if not self.certified and (self.label is not None or self.radius != 0.0):
            raise ValueError("abstention carries no label and zero radius")


def _count_noisy_votes(base, x: np.ndarray, n_draws: int, sigma: float,
                       stream: RngStream, target: int) -> int:
    """Votes for target among base's labels of n_draws noisy copies of x:
    one exact binomial draw for a LinearClassifier, else oracle evaluations."""
    if isinstance(base, LinearClassifier):
        p_plus = float(vote_probabilities(base, x[None, :], sigma)[0])
        return int(stream.binomial(n_draws, p_plus if target == 1
                                   else 1.0 - p_plus))
    votes = 0
    rows_per_chunk = max(1, _CHUNK_SCALARS // x.size)
    for done in range(0, n_draws, rows_per_chunk):
        rows = min(rows_per_chunk, n_draws - done)
        noise = sigma * stream.standard_normal((rows, x.size))
        labels = np.asarray(base(x[None, :] + noise))
        if labels.shape != (rows,):
            raise ValueError(
                f"oracle returned shape {labels.shape} for a ({rows}, {x.size}) batch")
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("oracle labels must be +-1")
        votes += int(np.sum(labels == target))
    return votes


def _vote_counts(base, x, config: SmoothingConfig, stream: RngStream) -> tuple[int, int]:
    """(selected label, its estimation-stage votes) at x, drawn as certify
    documents; certified_accuracy_curve shares these draws."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("x must be a 1-d vector")
    seeds = stream.integers(0, 2**63, size=2)
    selection = split_stream(int(seeds[0]), 0)
    estimation = split_stream(int(seeds[1]), 1)
    plus = _count_noisy_votes(base, x, config.n0_selection, config.noise_sigma,
                              selection, 1)
    y_hat = 1 if plus > config.n0_selection - plus else -1
    return y_hat, _count_noisy_votes(base, x, config.n_estimation,
                                     config.noise_sigma, estimation, y_hat)


def certify(base, x, config: SmoothingConfig, stream: RngStream) -> CertifyResult:
    """Run the two-stage certification protocol at one input point.

    base is a batch oracle mapping an (m, d) array to m labels in {-1, +1},
    or a LinearClassifier such as a LogisticModel (exact vote counts).
    Selection and estimation noise come from disjoint substreams seeded by
    two draws from the provided stream (draw order: one integers(2) call),
    so the Clopper-Pearson guarantee sees fresh estimation noise. The
    selection plurality tie at even counts goes to label -1.
    """
    y_hat, k = _vote_counts(base, x, config, stream)
    p_lower = clopper_pearson_lower(k, config.n_estimation, config.conf_alpha)
    if p_lower > 0.5:
        radius = config.noise_sigma * inverse_gaussian_cdf(p_lower)
        return CertifyResult(certified=True, label=y_hat, radius=radius,
                             p_lower=p_lower, votes_top=k)
    return CertifyResult(certified=False, label=None, radius=0.0,
                         p_lower=p_lower, votes_top=k)


@lru_cache
def min_votes_for_radius(radius: float, config: SmoothingConfig) -> int:
    """Smallest estimation-stage vote count certifying at least this radius.

    Returns n_estimation + 1 when no count suffices. Monotone in radius.
    The search gallops out from the normal guess n p + z sqrt(n p (1 - p)),
    p = Phi(radius / noise_sigma), z = Phi^-1(1 - conf_alpha), then bisects;
    the certifying counts are an upper set, so the count is any search's.
    """
    if not radius >= 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    n = config.n_estimation

    def certifies(k: int) -> bool:
        p = clopper_pearson_lower(k, n, config.conf_alpha)
        return p > 0.5 and config.noise_sigma * inverse_gaussian_cdf(p) >= radius

    p0 = gaussian_cdf(radius / config.noise_sigma)
    z = -inverse_gaussian_cdf(config.conf_alpha)
    guess = n * p0 + z * math.sqrt(n * p0 * (1.0 - p0))
    lo, hi = 0, n + 1  # the answer lies in [lo, hi]
    k, step = min(n, math.ceil(guess)), 1
    while lo <= k < hi:
        if certifies(k):
            hi, k = k, k - step
        else:
            lo, k = k + 1, k + step
        step *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if certifies(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def linf_radius_from_l2(r: float, d: int) -> float:
    """Side of the largest l-infinity ball inside an l2 ball of radius r."""
    r = float(r)
    if not r >= 0:
        raise ValueError(f"r must be >= 0, got {r}")
    return r / math.sqrt(_at_least("d", int(d), 1))


def certified_accuracy_curve(base, xs, ys, radii, config: SmoothingConfig,
                             stream: RngStream) -> list[tuple[float, float]]:
    """Certified accuracy at each radius over a labeled point set.

    A point counts at radius r when its selected label is the true one and
    its vote count reaches min_votes_for_radius(r): exactly when certify's
    radius is >= r (r > 0) or it certifies at all (r = 0), since the bound
    grows with the count. Each point gets its own substream (draw order:
    one integers(n) call on the provided stream), making results
    independent of evaluation order.
    """
    points = LabeledSet(xs=xs, ys=ys)
    radii = [float(r) for r in radii]
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be sorted ascending")
    need = np.array([min_votes_for_radius(r, config) for r in radii])
    n_points = points.n
    seeds = stream.integers(0, 2**63, size=n_points)
    hits = np.zeros(len(radii), dtype=np.int64)
    for i in range(n_points):
        y_hat, k = _vote_counts(base, points.xs[i], config,
                                split_stream(int(seeds[i]), i))
        if y_hat == int(points.ys[i]):
            hits += k >= need
    return [(r, float(h / n_points)) for r, h in zip(radii, hits)]

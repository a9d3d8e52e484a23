"""Deterministic statistics kernels shared by the simulation modules.

Everything here is exact-or-better than the tolerances the rest of the
package relies on: Gaussian tail utilities accurate to ~1e-12 relative,
the normal quantile from the standard library (Wichura's AS241, ~1e-16
relative), an exact binomial lower confidence bound, and a documented
seed-splitting scheme for reproducible parallel Monte Carlo.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np

# Streams handed around by the samplers. One stream per Monte Carlo trial,
# derived with split_stream, never shared across trials.
RngStream = np.random.Generator

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()
_MASK64 = (1 << 64) - 1
# Odd 64-bit increment (golden-ratio fraction), same role as in splitmix64.
_GAMMA64 = 0x9E3779B97F4A7C15


def _at_least(name: str, value, low, *, strict: bool = False):
    """value, when it is finite and >= low (> low when strict); otherwise a
    ValueError naming it. NaN and +-inf never pass."""
    if ((value > low if strict else value >= low)
            and (isinstance(value, int) or math.isfinite(value))):
        return value
    finite = "" if isinstance(value, int) else " and finite"
    raise ValueError(f"{name} must be {'>' if strict else '>='} {low}{finite}, "
                     f"got {value!r}")


def q_function(t: float) -> float:
    """Standard normal upper tail Q(t) = P(Z > t).

    Computed as erfc(t / sqrt(2)) / 2. The complementary error function
    keeps the relative error at or below ~1e-12 for |t| <= 10 and decays
    gracefully in the far tail (underflow to 0.0 happens near t ~ 38.6,
    far below any probability this package needs to resolve).
    """
    return 0.5 * math.erfc(float(t) / _SQRT2)


def gaussian_cdf(z: float) -> float:
    """Standard normal CDF, tail-accurate on both sides."""
    return 0.5 * math.erfc(-float(z) / _SQRT2)


def inverse_gaussian_cdf(p: float) -> float:
    """Standard normal quantile: the z with Phi(z) = p.

    statistics.NormalDist.inv_cdf, which implements Wichura's AS241
    (Applied Statistics 37(3), 1988), accurate to about 1e-16 relative;
    against a 350-digit oracle its relative error stays under 1e-15 from
    p = 1e-300 to 1 - 1e-15. It runs on the lower tail and is mirrored, so
    inverse_gaussian_cdf(1 - p) == -inverse_gaussian_cdf(p) exactly when
    1 - p is exact, and the median maps to exactly 0.0.

    Raises ValueError for p outside (0, 1) or NaN.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    z = _STD_NORMAL.inv_cdf(min(p, 1.0 - p))
    return z if p < 0.5 else -z


# log terms binomial_upper_tail forms at once for an array of p: 1 MB
_TAIL_BLOCK_SCALARS = 1 << 17


@lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    # lgamma per entry: each value independently accurate to ~1e-15 relative,
    # unlike a running sum of logs whose error grows with n.
    return np.array([math.lgamma(i + 1.0) for i in range(n + 1)])


def _log_binomials(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # i = k..n and log C(n, i), the p-free part of the upper-tail terms
    lf = _log_factorials(n)
    i = np.arange(k, n + 1)
    return i, lf[n] - lf[i] - lf[n - i]


def _tail_sums(i: np.ndarray, log_binom: np.ndarray, n: int, log_p,
               log_q) -> tuple[np.ndarray, np.ndarray]:
    """(peak, sum of exp(term - peak)) over the log terms of P(X >= k),
    X ~ Binomial(n, p), i = k..n, so log P(X >= k) = peak + log(sum).

    log_p and log_q are log p and log(1 - p): floats, or (P, 1) columns for
    P points, whose terms are reduced along the last axis.
    """
    log_terms = log_binom + i * log_p + (n - i) * log_q
    peak = log_terms.max(axis=-1, keepdims=True)
    return peak[..., 0], np.exp(log_terms - peak).sum(axis=-1)


def binomial_upper_tail(k: int, n: int, p):
    """Exact P(X >= k) for X ~ Binomial(n, p), summed in log space.

    p is a probability or an array of them; an array gives an array of its
    shape, each entry equal to the call on that p alone: the log terms of a
    block of points, at most _TAIL_BLOCK_SCALARS, are formed at once and
    reduced along the last axis, and the logs of p and the final log and
    exp run per point. Stable for n up to ~1e6; never forms raw binomial
    coefficients.
    """
    k = int(k)
    n = _at_least("n", int(n), 1)
    ps = np.asarray(p, dtype=np.float64)
    outside = ps[~((ps >= 0.0) & (ps <= 1.0))]
    if outside.size:
        raise ValueError(f"p must lie in [0, 1], got {float(outside[0])!r}")
    if k <= 0:
        tails = np.ones(ps.shape)
    elif k > n:
        tails = np.zeros(ps.shape)
    else:
        tails = np.where(ps == 1.0, 1.0, 0.0)
        inner = (ps > 0.0) & (ps < 1.0)
        if inner.any():
            i, log_binom = _log_binomials(k, n)
            points = ps[inner].tolist()
            rows = max(1, _TAIL_BLOCK_SCALARS // i.size)
            out: list[float] = []
            for r0 in range(0, len(points), rows):
                block = points[r0:r0 + rows]
                peak, total = _tail_sums(
                    i, log_binom, n, np.array([[math.log(q)] for q in block]),
                    np.array([[math.log1p(-q)] for q in block]))
                out += [min(1.0, math.exp(top + math.log(part)))
                        for top, part in zip(peak.tolist(), total.tolist())]
            tails[inner] = out
    return float(tails) if tails.ndim == 0 else tails


def poisson_binomial_two_sided(probs, k: int) -> float:
    """Exact P(|K - E K| >= |k - E K|), K the successes of independent
    Bernoulli(p_i) trials, from K's pmf built by one convolution per trial;
    deviations within 1e-9 of |k - E K| count as ties."""
    probs = np.asarray(probs, dtype=np.float64)
    pmf = np.ones(1)
    for p in probs:
        pmf = np.convolve(pmf, (1.0 - p, p))
    mean = float(np.sum(probs))
    far = np.abs(np.arange(pmf.size) - mean) >= abs(int(k) - mean) - 1e-9
    return min(1.0, float(np.sum(pmf[far])))


def clopper_pearson_lower(successes: int, draws: int, conf_alpha: float) -> float:
    """One-sided Clopper-Pearson lower confidence bound.

    Returns the largest p such that P(Binomial(draws, p) >= successes)
    <= conf_alpha, located by bisection on the exact log-space binomial
    upper tail to an absolute tolerance of 1e-12. successes == 0 maps
    to 0.0 (no p makes the certain event rare).
    """
    k = int(successes)
    n = _at_least("draws", int(draws), 1)
    alpha = float(conf_alpha)
    if not 0 <= k <= n:
        raise ValueError(f"successes must lie in [0, {n}], got {k}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"conf_alpha must lie strictly inside (0, 1), got {alpha!r}")
    if k == 0:
        return 0.0
    i, log_binom = _log_binomials(k, n)

    # every midpoint of the bisection lies in [5e-13, 1 - 5e-13]
    def tail(p: float) -> float:
        peak, total = _tail_sums(i, log_binom, n, math.log(p), math.log1p(-p))
        return math.exp(float(peak) + math.log(total))

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if tail(mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mix64(x: int) -> int:
    # splitmix64 finalizer: full-avalanche 64-bit permutation.
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def split_stream(master_seed: int, index: int) -> RngStream:
    """Derive the index-th deterministic substream of a master seed.

    The combined state is mix64(master_seed XOR index * GAMMA) with GAMMA
    an odd 64-bit golden-ratio constant and mix64 the splitmix64
    avalanche finalizer, so neighboring indices land in unrelated parts
    of the seed space. The mixed value seeds SFC64 (its normals are
    cheaper than PCG64's), whose output is bit-exact for a fixed numpy
    version however many workers consume the streams, in any order.
    """
    master_seed = int(master_seed)
    index = _at_least("index", int(index), 0)
    mixed = _mix64((master_seed & _MASK64) ^ ((index * _GAMMA64) & _MASK64))
    return np.random.Generator(np.random.SFC64(mixed))

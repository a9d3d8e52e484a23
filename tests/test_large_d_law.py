"""The large-d law of the Gaussian model as an oracle for gap and
sweep-irrelevant.

The model is the canonical one of Schmidt et al. 2018 (arXiv 1804.11285)
as Carmon et al. 2019 (arXiv 1905.13736) use it: mu = 1, sigma =
(n0 d)^(1/4). The law below is written from that model alone, with the
standard library's normal distribution; it shares no code with the
package. For every arm it gives the robust margin m, where rob_err =
Q(m), and each arm's mean of Q^-1(rob_err) must lie within 2 CI
half-widths + C / sqrt(d) of it. The comparison is in margin space: the
error means are near 1e-25 and averaging them measures tail noise.

C = 32 is what the law misses by at the smallest pool of any default
sweep: sweep-unlabeled at n~ = 2,000 reads 3.851 against 3.888, about
0.037 = 32 / sqrt(d) in margin. The pools here hold 125,123 points or
more, where the law is closer. The term also covers the rounding of
rob_err near 1: the supervised n0 arm and the alpha = 0 arm sit at
margins near -7.3 and -8, where one ulp of rob_err moves Q^-1 by up to
about 0.01.
"""

import csv
import math
from collections import defaultdict
from statistics import NormalDist, fmean, stdev

import pytest

from rstsim.cli import main

N0, D, EPS = 4, 755_000, 0.5
SIGMA = (N0 * D) ** 0.25
# trials per arm and run; the built-in 50 would make this test 5x slower
TRIALS = 10
C = 32.0
NORMAL = NormalDist()


def q(t: float) -> float:
    return NORMAL.cdf(-t)


def mean_abs(a: float, tau: float) -> float:
    """E|a + tau Z| for Z ~ N(0, 1)."""
    return (tau * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * (a / tau) ** 2)
            + a * (1.0 - 2.0 * q(a / tau)))


def supervised_margin(n: int) -> float:
    """theta = mu + s z1: coordinates N(1, s^2), mu^T theta = d,
    ||theta||_2^2 = d (1 + s^2)."""
    s = SIGMA / math.sqrt(n)
    scale = math.sqrt(D) / (SIGMA * math.sqrt(1.0 + s * s))
    return scale * (1.0 - EPS * mean_abs(1.0, s))


def selftrain_margin(n: int, n_tilde: int, alpha: float) -> float:
    """theta = (A/n~) mu + (U/n~) pi + c (z - pi^T z pi), pi the direction
    of the supervised theta on n labels, at the limits of A/n~ and U/n~."""
    s = SIGMA / math.sqrt(n)
    m = math.sqrt(D) / math.sqrt(1.0 + s * s)  # mu^T pi
    a_bar = alpha * (1.0 - 2.0 * q(m / SIGMA))
    u_bar = SIGMA * math.sqrt(2.0 / math.pi) * (
        alpha * math.exp(-0.5 * (m / SIGMA) ** 2) + (1.0 - alpha))
    c = SIGMA / math.sqrt(n_tilde)
    a_coord = a_bar + u_bar / math.sqrt(D * (1.0 + s * s))
    tau = math.sqrt(u_bar**2 * s * s / (D * (1.0 + s * s))
                    + c * c * (1.0 - 1.0 / D))
    mu_dot = D * a_bar + u_bar * m
    l2 = math.sqrt(D * a_bar**2 + 2.0 * a_bar * u_bar * m + u_bar**2
                   + c * c * (D - 1))
    l1 = D * mean_abs(a_coord, tau)
    return (mu_dot - EPS * l1) / (SIGMA * l2)


def law_margin(row: dict) -> float:
    n = int(row["n_labeled"])
    if row["n_unlabeled"] in ("", "0"):
        return supervised_margin(n)
    return selftrain_margin(n, int(row["n_unlabeled"]),
                            float(row["relevant_fraction"]))


POOL = math.ceil(288.0 * N0 * EPS**2 * math.sqrt(D / N0))
ARMS = {
    "gap": {("gap:supervised_n0", ""), ("gap:supervised_scaled", ""),
            ("gap:selftrain", "1")},
    "sweep-irrelevant": {("irrelevant_sweep:fixed", a)
                         for a in ("1", "0.5", "0.25", "0")}
    | {("irrelevant_sweep:scaled", a) for a in ("1", "0.5", "0.25")},
}


def test_law_reproduces_known_points():
    # theta = mu (s = 0 limit) has margin (1 - eps) sqrt(d) / sigma, and
    # the supervised arm at the 4 n0 eps^2 sqrt(d/n0) threshold sits near 6
    assert supervised_margin(10**15) == pytest.approx(
        (1.0 - EPS) * math.sqrt(D) / SIGMA, rel=1e-6)
    assert 5.5 < supervised_margin(1_738) < 6.5
    # a pool of pure noise is worse than no pool, a larger pool better
    assert selftrain_margin(N0, POOL, 0.0) < selftrain_margin(N0, POOL, 1.0)
    assert selftrain_margin(N0, POOL, 1.0) < selftrain_margin(N0, 4 * POOL,
                                                             1.0)


@pytest.mark.parametrize("kind", sorted(ARMS))
@pytest.mark.parametrize("seed", range(10))
def test_arm_margins_follow_the_law(kind, seed, tmp_path):
    out = str(tmp_path / "run.csv")
    assert main([kind, "--trials", str(TRIALS), "--seed", str(seed),
                 "--workers", "2", "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    arms = defaultdict(list)
    for r in rows:
        arms[(r["experiment"], r["relevant_fraction"])].append(r)
    assert set(arms) == ARMS[kind]
    bad = []
    for arm, arm_rows in sorted(arms.items()):
        margins = [-NORMAL.inv_cdf(float(r["rob_err"])) for r in arm_rows]
        mean = fmean(margins)
        half_width = 1.96 * stdev(margins) / math.sqrt(len(margins))
        law = law_margin(arm_rows[0])
        if abs(mean - law) > 2.0 * half_width + C / math.sqrt(D):
            bad.append(f"{arm}: mean {mean:.5f} +- {half_width:.5f}, "
                       f"law {law:.5f}")
    assert len(rows) == TRIALS * len(ARMS[kind])
    assert not bad, bad

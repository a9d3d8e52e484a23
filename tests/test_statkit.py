"""Oracle checks for the statistics kernels.

Oracles are independent of the implementation: mpmath 50-digit values,
closed forms for binomial corner cases, and brute-force coverage
simulation for the confidence bound.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rstsim.statkit import (
    binomial_upper_tail,
    clopper_pearson_lower,
    inverse_gaussian_cdf,
    poisson_binomial_two_sided,
    q_function,
    split_stream,
)

mpmath.mp.dps = 50


def mp_q(t):
    return float(mpmath.erfc(t / mpmath.sqrt(2)) / 2)


class TestQFunction:
    def test_frozen_value_at_one(self):
        assert q_function(1.0) == pytest.approx(0.15865525393145705, rel=1e-14)

    def test_median(self):
        assert q_function(0.0) == 0.5

    def test_deep_left_tail_saturates(self):
        assert q_function(-38.0) >= 1.0 - 1e-12

    def test_matches_high_precision_oracle(self):
        for t in np.linspace(-10.0, 10.0, 81):
            expected = mp_q(float(t))
            assert q_function(float(t)) == pytest.approx(expected, rel=1e-12)

    def test_far_tail_absolute_floor(self):
        # Beyond |t| = 10 only absolute accuracy is promised.
        for t in (12.0, 20.0, 35.0):
            assert q_function(t) == pytest.approx(mp_q(t), rel=1e-10, abs=1e-300)

    def test_strictly_decreasing(self):
        # Strict inside the resolvable range; the left tail saturates at
        # 1.0 in double precision, so only non-increase is checkable there.
        grid = np.linspace(-6.0, 8.0, 1001)
        vals = [q_function(float(t)) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        wide = [q_function(float(t)) for t in np.linspace(-40.0, 40.0, 401)]
        assert all(a >= b for a, b in zip(wide, wide[1:]))

    def test_complement_symmetry(self):
        for t in (0.3, 1.7, 4.2):
            assert q_function(t) + q_function(-t) == pytest.approx(1.0, rel=1e-14)


class TestInverseGaussianCdf:
    def test_median_is_exactly_zero(self):
        assert inverse_gaussian_cdf(0.5) == 0.0

    def test_round_trip_through_q(self):
        assert inverse_gaussian_cdf(1.0 - q_function(1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_negation_symmetry_is_exact(self):
        # Exact when 1 - p is exact in binary (dyadic p); one-ulp-of-p
        # agreement otherwise.
        for p in (0.25, 0.125, 0.03125, 0.4375):
            assert inverse_gaussian_cdf(1.0 - p) == -inverse_gaussian_cdf(p)
        for p in (0.001, 0.0831, 0.4999):
            assert inverse_gaussian_cdf(1.0 - p) == pytest.approx(
                -inverse_gaussian_cdf(p), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            inverse_gaussian_cdf(bad)

    def test_matches_high_precision_oracle(self):
        # erfcinv form avoids cancellation in the oracle itself at tiny p.
        ps = [1e-300, 1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99,
              1.0 - 1e-6, 1.0 - 1e-12]
        for p in ps:
            with mpmath.workdps(350):
                mp = mpmath.mpf(p)
                if p <= 0.5:
                    expected = float(-mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mp))
                else:
                    expected = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mp - 1))
            got = inverse_gaussian_cdf(p)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(1e-6, 1.0 - 1e-6, 501)
        vals = [inverse_gaussian_cdf(float(p)) for p in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_cdf_residual_tolerance(self):
        # The stated contract: |Phi(result) - p| <= 1e-10 relative.
        for p in (1e-8, 0.02425, 0.2, 0.5 - 1e-9, 0.97, 1.0 - 1e-8):
            z = inverse_gaussian_cdf(p)
            phi_z = float(mpmath.ncdf(z))
            assert abs(phi_z - p) <= 1e-10 * max(p, 1.0 - p)


class TestClopperPearson:
    def test_zero_successes(self):
        assert clopper_pearson_lower(0, 100, 0.001) == 0.0

    def test_all_successes_closed_form(self):
        # p^n = alpha has the closed-form solution alpha**(1/n); the
        # production bisection must land on it.
        got = clopper_pearson_lower(100, 100, 0.001)
        assert got == pytest.approx(0.001 ** (1.0 / 100.0), abs=1e-10)
        assert got == pytest.approx(0.9332543007969905, abs=1e-9)

    def test_all_successes_large_n(self):
        got = clopper_pearson_lower(10_000, 10_000, 1e-3)
        assert got == pytest.approx(1e-3 ** (1.0 / 10_000.0), abs=1e-10)

    def test_bound_is_conservative_at_the_bound(self):
        # At the returned p, the upper tail sits at conf_alpha (within
        # the bisection tolerance scaled by the tail's local slope).
        p = clopper_pearson_lower(87, 100, 0.01)
        assert binomial_upper_tail(87, 100, p) == pytest.approx(0.01, rel=1e-6)

    @given(st.integers(min_value=1, max_value=49), st.integers(min_value=50, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_successes(self, k, n):
        lo = clopper_pearson_lower(k, n, 0.05)
        hi = clopper_pearson_lower(k + 1, n, 0.05)
        assert hi > lo

    def test_monotone_in_alpha(self):
        assert (clopper_pearson_lower(90, 100, 0.001)
                < clopper_pearson_lower(90, 100, 0.05))

    @pytest.mark.parametrize("args", [(-1, 100, 0.05), (101, 100, 0.05),
                                      (5, 0, 0.05), (5, 10, 0.0), (5, 10, 1.0)])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            clopper_pearson_lower(*args)

    def test_coverage_simulation(self):
        # Exactness of CP: P(lower bound exceeds the truth) <= alpha.
        conf_alpha = 1e-3
        n = 1000
        rng = split_stream(20240817, 0)
        for p_true in (0.5, 0.9, 0.99):
            ks = rng.binomial(n, p_true, size=10_000)
            bounds = {int(k): clopper_pearson_lower(int(k), n, conf_alpha)
                      for k in np.unique(ks)}
            violations = np.mean([bounds[int(k)] > p_true for k in ks])
            assert violations <= conf_alpha + 3.0 * math.sqrt(conf_alpha / 10_000)


class TestBinomialUpperTail:
    def test_trivial_edges(self):
        assert binomial_upper_tail(0, 10, 0.3) == 1.0
        assert binomial_upper_tail(11, 10, 0.3) == 0.0
        assert binomial_upper_tail(3, 10, 0.0) == 0.0
        assert binomial_upper_tail(3, 10, 1.0) == 1.0

    def test_single_term(self):
        assert binomial_upper_tail(10, 10, 0.5) == pytest.approx(0.5 ** 10, rel=1e-12)

    def test_matches_direct_sum(self):
        from math import comb
        n, p = 30, 0.37
        for k in (1, 7, 15, 29):
            direct = sum(comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(k, n + 1))
            assert binomial_upper_tail(k, n, p) == pytest.approx(direct, rel=1e-12)

    def test_complement_identity(self):
        # P(X >= k) + P(X <= k-1) = 1, with the lower tail via symmetry.
        n, p, k = 200, 0.81, 170
        upper = binomial_upper_tail(k, n, p)
        lower = binomial_upper_tail(n - k + 1, n, 1.0 - p)
        assert upper + lower == pytest.approx(1.0, rel=1e-12)


def _scalar_tail(k, n, p):
    # the one-point log-sum-exp, term for term as the kernel forms it
    if k <= 0:
        return 1.0
    if k > n or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    i = np.arange(k, n + 1)
    lf = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])
    log_terms = (lf[n] - lf[i] - lf[n - i]) + i * math.log(p) \
        + (n - i) * math.log1p(-p)
    peak = log_terms.max()
    return min(1.0, math.exp(peak + math.log(np.exp(log_terms - peak).sum())))


class TestBinomialUpperTailArrays:
    """An array of p gives, entry by entry, the one-point tail bit for bit."""

    @pytest.mark.parametrize("k,n", [(-3, 10), (0, 10), (1, 1), (4, 10),
                                     (10, 10), (11, 10), (51, 100),
                                     (5_000, 10_000)])
    def test_equals_the_scalar_reference(self, k, n):
        ps = np.concatenate([[0.0, 0.5, 1.0, 1e-300, 1.0 - 2**-53],
                             split_stream(60, n).random(25)])
        got = binomial_upper_tail(k, n, ps)
        assert got.shape == ps.shape
        want = np.array([_scalar_tail(k, n, p) for p in ps.tolist()])
        assert np.array_equal(got, want)
        for p, tail in zip(ps.tolist(), want):
            one = binomial_upper_tail(k, n, p)
            assert type(one) is float and one == tail

    def test_input_spanning_several_blocks(self):
        # 10,000 log terms per point: 13 points per block, 4 blocks here
        ps = split_stream(61, 0).random(45)
        got = binomial_upper_tail(1, 10_000, ps * 1e-3)
        want = [_scalar_tail(1, 10_000, p) for p in (ps * 1e-3).tolist()]
        assert np.array_equal(got, want)
        grid = binomial_upper_tail(3_000, 10_000, ps.reshape(5, 9))
        assert grid.shape == (5, 9)
        assert np.array_equal(grid.ravel(),
                              binomial_upper_tail(3_000, 10_000, ps))

    def test_empty_array(self):
        assert binomial_upper_tail(3, 10, np.array([])).shape == (0,)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, [0.2, math.nan],
                                   [0.5, -1e-9]])
    def test_rejects_probabilities_outside_the_unit_interval(self, p):
        with pytest.raises(ValueError, match="p must lie"):
            binomial_upper_tail(3, 10, p)


class TestBoundedIntegerDraws:
    def test_one_call_equals_a_call_per_row(self):
        # a property of numpy's bounded-integer draws, which no trainer
        # relies on: a range near 2^31 rejects about half its 32-bit
        # candidates, and an odd batch leaves half a 64-bit output over at
        # each row's end
        steps, b, high = 7, 5, 2**31 + 1
        for seed in range(20):
            whole, rows = split_stream(62, seed), split_stream(62, seed)
            got = whole.integers(0, high, size=(steps, b))
            want = np.stack([rows.integers(0, high, size=b)
                             for _ in range(steps)])
            assert np.array_equal(got, want)
            assert (repr(whole.bit_generator.state)
                    == repr(rows.bit_generator.state))


class TestChunkedNormals:
    def test_one_call_equals_sub_block_calls(self):
        # the ||theta||_1 pass draws each block of z again one sub-block at
        # a time, and must get the values the whole-block draw got
        for seed in range(20):
            whole, parts = split_stream(63, seed), split_stream(63, seed)
            got = whole.standard_normal(1000)
            want = np.empty(1000)
            for start, stop in ((0, 1), (1, 256), (256, 257), (257, 1000)):
                parts.standard_normal(out=want[start:stop])
            assert np.array_equal(got, want)
            assert (repr(whole.bit_generator.state)
                    == repr(parts.bit_generator.state))


class TestSplitStream:
    def test_deterministic(self):
        a = split_stream(12345, 7).standard_normal(100)
        b = split_stream(12345, 7).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_indices_decorrelated(self):
        a = split_stream(12345, 0).standard_normal(100)
        b = split_stream(12345, 1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_masters_decorrelated(self):
        a = split_stream(1, 3).standard_normal(100)
        b = split_stream(2, 3).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            split_stream(1, -1)

    def test_standard_normal_sanity(self):
        draws = split_stream(99, 0).standard_normal(1_000_000)
        assert abs(draws.mean()) <= 5.0 / math.sqrt(1_000_000)
        assert abs(draws.var() - 1.0) <= 5.0 * math.sqrt(2.0 / 1_000_000)


class TestPoissonBinomialTail:
    @staticmethod
    def _enumerated(probs, k):
        # brute force over all 2^N outcomes, in exact rationals
        from fractions import Fraction
        from itertools import product

        ps = [Fraction(p) for p in probs]
        mean = sum(ps)
        total = Fraction(0)
        for outcome in product((0, 1), repeat=len(ps)):
            weight = Fraction(1)
            for hit, p in zip(outcome, ps):
                weight *= p if hit else 1 - p
            if abs(sum(outcome) - mean) >= abs(k - mean):
                total += weight
        return float(total)

    def test_matches_enumeration(self):
        probs = split_stream(70, 0).uniform(size=9)
        for k in range(10):
            assert poisson_binomial_two_sided(probs, k) == pytest.approx(
                self._enumerated(probs, k), rel=1e-12, abs=1e-300)

    def test_equal_probabilities_are_binomial(self):
        # p = 1/2: symmetric, so the two-sided tail is twice one side
        assert poisson_binomial_two_sided(np.full(20, 0.5), 15) == \
            pytest.approx(2 * binomial_upper_tail(15, 20, 0.5), rel=1e-12)
        assert poisson_binomial_two_sided(np.full(20, 0.5), 10) == 1.0

    def test_certain_points_leave_no_doubt(self):
        # every point counts for sure: only the mean itself has mass
        assert poisson_binomial_two_sided(np.ones(5), 5) == 1.0
        assert poisson_binomial_two_sided(np.ones(5), 4) == 0.0

"""Certification protocol, radius conversions, and accuracy curves."""

import math

import numpy as np
import pytest

from rstsim.gaussian import LinearClassifier, vote_probabilities
from rstsim.rst import LogisticModel, smoothed_predict_exact
from rstsim.smoothing import (
    CertifyResult,
    SmoothingConfig,
    _vote_counts,
    certified_accuracy_curve,
    certify,
    linf_radius_from_l2,
    min_votes_for_radius,
)
from rstsim.statkit import (
    binomial_upper_tail,
    clopper_pearson_lower,
    gaussian_cdf,
    inverse_gaussian_cdf,
    split_stream,
)


def law_p_plus(theta, x, sigma):
    # the vote law the exact vote counts draw from, at one point
    return vote_probabilities(LogisticModel(theta=theta), x[None, :], sigma)[0]


def linear_oracle(theta):
    theta = np.asarray(theta, dtype=np.float64)

    def base(batch):
        scores = np.einsum("ij,j->i", np.asarray(batch), theta)
        return np.where(scores >= 0.0, 1, -1)

    return base


class TestConfigAndResult:
    def test_defaults_match_protocol(self):
        cfg = SmoothingConfig()
        assert cfg.noise_sigma == 0.25
        assert cfg.n0_selection == 100
        assert cfg.n_estimation == 10_000
        assert cfg.conf_alpha == 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmoothingConfig(noise_sigma=0.0)
        with pytest.raises(ValueError):
            SmoothingConfig(n0_selection=0)
        with pytest.raises(ValueError):
            SmoothingConfig(conf_alpha=1.0)

    def test_result_invariants_enforced(self):
        with pytest.raises(ValueError):
            CertifyResult(certified=True, label=1, radius=0.5, p_lower=0.4,
                          votes_top=10)
        with pytest.raises(ValueError):
            CertifyResult(certified=False, label=1, radius=0.0, p_lower=0.4,
                          votes_top=10)
        with pytest.raises(ValueError):
            CertifyResult(certified=True, label=None, radius=0.5, p_lower=0.9,
                          votes_top=10)


class TestCertify:
    def test_constant_classifier_frozen_radius(self):
        def always_plus(batch):
            return np.ones(len(batch), dtype=np.int64)

        cfg = SmoothingConfig()
        res = certify(always_plus, np.zeros(3), cfg, split_stream(201, 0))
        assert res.certified
        assert res.label == 1
        assert res.votes_top == cfg.n_estimation
        # k = n gives the closed-form lower bound alpha^(1/n)
        assert res.p_lower == pytest.approx(1e-3 ** (1 / 10_000), abs=1e-9)
        expected = 0.25 * inverse_gaussian_cdf(1e-3 ** (1 / 10_000))
        assert res.radius == pytest.approx(expected, rel=1e-9)
        assert res.radius / 0.25 == pytest.approx(3.1985775147383316, abs=1e-9)

    def test_boundary_point_abstains(self):
        # theta^T x = 0 puts the vote probability at exactly 1/2
        base = linear_oracle([1.0, -1.0])
        cfg = SmoothingConfig(n_estimation=2_000)
        x = np.array([2.0, 2.0])
        outcomes = [certify(base, x, cfg, split_stream(202, t)).certified
                    for t in range(200)]
        assert np.mean(outcomes) <= 0.05

    def test_radius_monotone_in_votes(self):
        cfg = SmoothingConfig()
        last = -1.0
        for k in (5_200, 6_000, 8_000, 9_500, 9_999, 10_000):
            p = clopper_pearson_lower(k, cfg.n_estimation, cfg.conf_alpha)
            assert p > 0.5
            radius = cfg.noise_sigma * inverse_gaussian_cdf(p)
            assert radius >= last
            last = radius

    def test_deterministic_per_stream(self):
        base = linear_oracle([2.0, 1.0])
        cfg = SmoothingConfig(n0_selection=20, n_estimation=500)
        x = np.array([0.5, 0.2])
        a = certify(base, x, cfg, split_stream(203, 7))
        b = certify(base, x, cfg, split_stream(203, 7))
        assert a == b
        c = certify(base, x, cfg, split_stream(203, 8))
        assert (a.votes_top != c.votes_top) or (a.p_lower != c.p_lower)

    def test_high_margin_certifies_with_plausible_radius(self):
        # p_true = 0.9 exactly: place the score at sigma*||theta||*Phi^-1(0.9)
        cfg = SmoothingConfig()
        theta = np.array([1.0, 0.0])
        x = np.array([cfg.noise_sigma * inverse_gaussian_cdf(0.9), 0.0])
        _, p_true = smoothed_predict_exact(LogisticModel(theta=theta), x,
                                           cfg.noise_sigma)
        assert p_true == pytest.approx(0.9, rel=1e-12)
        base = linear_oracle(theta)
        results = [certify(base, x, cfg, split_stream(204, t)) for t in range(50)]
        assert np.mean([r.certified for r in results]) >= 0.9
        for r in results:
            assert r.radius <= cfg.noise_sigma * inverse_gaussian_cdf(0.93)

    def test_chunked_oracle_equals_unchunked(self, monkeypatch):
        import rstsim.smoothing as sm

        base = linear_oracle([1.5, -0.5, 0.25])
        cfg = SmoothingConfig(n0_selection=30, n_estimation=800)
        x = np.array([0.3, 0.1, -0.2])
        full = certify(base, x, cfg, split_stream(205, 0))
        monkeypatch.setattr(sm, "_CHUNK_SCALARS", 7 * 3)
        chunked = certify(base, x, cfg, split_stream(205, 0))
        assert full == chunked

    def test_rejects_bad_oracle_output(self):
        def bad_shape(batch):
            return np.ones((len(batch), 2))

        def bad_values(batch):
            return np.zeros(len(batch))

        cfg = SmoothingConfig(n0_selection=10, n_estimation=10)
        with pytest.raises(ValueError):
            certify(bad_shape, np.zeros(2), cfg, split_stream(206, 0))
        with pytest.raises(ValueError):
            certify(bad_values, np.zeros(2), cfg, split_stream(206, 1))


class TestRadiusConversion:
    def test_figure_scale_value(self):
        r = linf_radius_from_l2(0.435, 3072)
        assert 0.00780 <= r <= 0.00790
        assert abs(r - 2 / 255) / (2 / 255) < 1e-3

    def test_dimension_one_is_identity(self):
        assert linf_radius_from_l2(0.7, 1) == 0.7

    def test_zero_radius(self):
        assert linf_radius_from_l2(0.0, 10) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            linf_radius_from_l2(-0.1, 4)
        with pytest.raises(ValueError):
            linf_radius_from_l2(0.4, 0)


class TestAccuracyCurve:
    def test_all_abstain_gives_zero(self):
        base = linear_oracle([1.0, -1.0])
        cfg = SmoothingConfig(n0_selection=20, n_estimation=400)
        xs = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        ys = np.array([1, 1, -1])
        curve = certified_accuracy_curve(base, xs, ys, [0.0, 0.1, 0.3], cfg,
                                         split_stream(211, 0))
        assert curve == [(0.0, 0.0), (0.1, 0.0), (0.3, 0.0)]

    def test_huge_margin_certifies_everywhere_below_cap(self):
        cfg = SmoothingConfig(n0_selection=20, n_estimation=400)
        base = linear_oracle([1.0])
        xs = np.full((5, 1), 50.0)
        curve = certified_accuracy_curve(base, xs, np.ones(5, dtype=int),
                                         [0.0, 0.2], cfg, split_stream(212, 0))
        assert curve[0] == (0.0, 1.0)
        assert curve[1] == (0.2, 1.0)
        wrong = certified_accuracy_curve(base, xs, -np.ones(5, dtype=int),
                                         [0.0], cfg, split_stream(212, 0))
        assert wrong == [(0.0, 0.0)]

    def test_nonincreasing_and_radius_zero_definition(self):
        cfg = SmoothingConfig(n0_selection=30, n_estimation=1_000)
        theta = np.array([1.0, 0.5])
        base = linear_oracle(theta)
        stream = split_stream(213, 0)
        xs = stream.standard_normal((40, 2)) * 0.4
        ys = np.where(xs @ theta >= 0, 1, -1)
        radii = [0.0, 0.05, 0.1, 0.2, 0.4]
        curve = certified_accuracy_curve(base, xs, ys, radii, cfg,
                                         split_stream(213, 1))
        accs = [a for _, a in curve]
        assert all(b <= a for a, b in zip(accs, accs[1:]))

    def test_matches_analytic_protocol_expectation(self):
        # independent analytic route: selection plurality probability times
        # the estimation-stage binomial tail at the radius threshold
        cfg = SmoothingConfig(n0_selection=100, n_estimation=2_000)
        theta = np.array([2.0, -1.0])
        model = LogisticModel(theta=theta)
        base = linear_oracle(theta)
        stream = split_stream(214, 0)
        m = 40
        xs = stream.standard_normal((m, 2)) * cfg.noise_sigma
        ys = np.where(xs @ theta >= 0, 1, -1)
        radii = [0.0, 0.1, 0.25]

        def k_min(r):
            # smallest vote count whose lower bound certifies radius >= r
            lo, hi = 0, cfg.n_estimation
            while lo < hi:
                mid = (lo + hi) // 2
                p = clopper_pearson_lower(mid, cfg.n_estimation, cfg.conf_alpha)
                ok = p > 0.5 and cfg.noise_sigma * inverse_gaussian_cdf(p) >= r
                if ok:
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        expected, variance = [], []
        for r in radii:
            k = k_min(r)
            probs = []
            for i in range(m):
                _, p_true = smoothed_predict_exact(model, xs[i], cfg.noise_sigma)
                # vote share of +1 regardless of the true side
                p_plus = p_true if ys[i] == 1 else 1.0 - p_true
                need = cfg.n0_selection // 2 + 1
                sel_plus = binomial_upper_tail(need, cfg.n0_selection, p_plus)
                p_sel = sel_plus if ys[i] == 1 else 1.0 - sel_plus
                probs.append(p_sel * binomial_upper_tail(k, cfg.n_estimation, p_true))
            expected.append(float(np.mean(probs)))
            variance.append(float(np.sum([p * (1 - p) for p in probs])) / m**2)

        curve = certified_accuracy_curve(base, xs, ys, radii, cfg,
                                         split_stream(214, 1))
        for (r, acc), mu, var in zip(curve, expected, variance):
            assert abs(acc - mu) <= 3 * math.sqrt(var) + 1e-9, (r, acc, mu)

    def test_input_validation(self):
        base = linear_oracle([1.0])
        cfg = SmoothingConfig(n0_selection=4, n_estimation=4)
        xs, ys = np.ones((2, 1)), np.array([1, -1])
        with pytest.raises(ValueError):
            certified_accuracy_curve(base, xs, ys, [0.2, 0.1], cfg,
                                     split_stream(215, 0))
        with pytest.raises(ValueError):
            certified_accuracy_curve(base, xs, ys, [-0.1], cfg,
                                     split_stream(215, 1))
        with pytest.raises(ValueError):
            certified_accuracy_curve(base, xs, np.array([1, 2]), [0.1], cfg,
                                     split_stream(215, 2))


class TestExactVoteCounts:
    """A LogisticModel base draws its vote counts as binomials; a callable
    base is the oracle reference."""

    def test_draw_order_is_two_binomials_on_the_substreams(self):
        cfg = SmoothingConfig(noise_sigma=0.5, n0_selection=30, n_estimation=700)
        theta, x = np.array([1.0, -2.0, 0.5]), np.array([0.3, -0.1, 0.2])
        p_plus = gaussian_cdf(float(theta @ x) / (0.5 * math.sqrt(5.25)))
        seeds = split_stream(221, 0).integers(0, 2**63, size=2)
        plus = split_stream(int(seeds[0]), 0).binomial(30, p_plus)
        y_hat = 1 if plus > 30 - plus else -1
        k = split_stream(int(seeds[1]), 1).binomial(
            700, p_plus if y_hat == 1 else 1.0 - p_plus)
        for base in (LogisticModel(theta=theta), LinearClassifier(theta=theta)):
            assert _vote_counts(base, x, cfg, split_stream(221, 0)) == (y_hat, k)

    def test_zero_theta_votes_all_plus_like_the_oracle(self):
        # every score is exactly 0 and the oracle's tie goes to +1
        cfg = SmoothingConfig(n0_selection=20, n_estimation=500)
        x = np.array([0.4, -1.0])
        assert law_p_plus(np.zeros(2), x, cfg.noise_sigma) == 1.0
        for t in range(5):
            exact = certify(LogisticModel(theta=np.zeros(2)), x, cfg,
                            split_stream(222, t))
            oracle = certify(linear_oracle(np.zeros(2)), x, cfg,
                             split_stream(222, t))
            assert exact == oracle
            assert exact.label == 1 and exact.votes_top == cfg.n_estimation

    def test_boundary_point_votes_plus_with_probability_half(self):
        # theta^T x = 0: the oracle votes +1 exactly when theta^T noise >= 0
        theta, x = np.array([1.0, -1.0]), np.array([2.0, 2.0])
        assert law_p_plus(theta, x, 0.25) == 0.5
        cfg = SmoothingConfig(n0_selection=20, n_estimation=2_000)
        outcomes = [certify(LogisticModel(theta=theta), x, cfg,
                            split_stream(223, t)).certified
                    for t in range(200)]
        assert np.mean(outcomes) <= 0.05

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="x and theta dimensions differ"):
            law_p_plus(np.ones(3), np.ones(2), 0.25)
        with pytest.raises(ValueError, match="x and theta dimensions differ"):
            certify(LogisticModel(theta=np.ones(3)), np.ones(2),
                    SmoothingConfig(), split_stream(224, 0))

    @pytest.mark.parametrize("p_target", [0.5, 0.2, 0.7, 0.95])
    def test_both_paths_draw_binomial_counts(self, p_target):
        # The estimation-stage +1 count is Binomial(N, p_plus) and the
        # selected label is +1 with probability P(Binomial(n0, p_plus) >
        # n0 / 2), independently, on both paths. A chi-square test of the
        # joint (label, count) histogram over 2,400 substreams, cells of
        # expected count below 5 pooled, rejects at p < 1e-4: with the 8
        # tests here a correct sampler fails one with probability < 1e-3.
        from scipy import stats

        cfg = SmoothingConfig(noise_sigma=0.5, n0_selection=10, n_estimation=20)
        theta = np.array([1.0, 0.0])
        x = np.array([0.5 * inverse_gaussian_cdf(p_target), 0.0])
        p_plus = law_p_plus(theta, x, 0.5)
        n, n0, runs = cfg.n_estimation, cfg.n0_selection, 2_400
        sel = stats.binom.sf(n0 // 2, n0, p_plus)
        pmf = stats.binom.pmf(np.arange(n + 1), n, p_plus)
        expected = runs * np.concatenate([(1.0 - sel) * pmf, sel * pmf])
        small = expected < 5.0
        for base in (LogisticModel(theta=theta), linear_oracle(theta)):
            observed = np.zeros(2 * (n + 1))
            for t in range(runs):
                y_hat, k = _vote_counts(base, x, cfg, split_stream(225, t))
                plus = k if y_hat == 1 else n - k
                observed[(y_hat == 1) * (n + 1) + plus] += 1
            obs = np.append(observed[~small], observed[small].sum())
            exp = np.append(expected[~small], expected[small].sum())
            chi2 = float(np.sum((obs - exp) ** 2 / exp))
            p_value = stats.chi2.sf(chi2, obs.size - 1)
            assert p_value > 1e-4, (type(base).__name__, p_target, chi2)

    def test_curve_rule_matches_per_point_certify_radii(self):
        # the old rule: certify every point and compare its radius with r
        # (r > 0) or with 0 (r = 0), on the same per-point substreams
        cfg = SmoothingConfig(noise_sigma=0.5, n0_selection=30,
                              n_estimation=1_000, conf_alpha=0.01)
        theta = np.array([1.0, 0.5])
        base = linear_oracle(theta)
        xs = split_stream(226, 0).standard_normal((60, 2)) * 0.6
        ys = np.where(xs @ theta >= 0, 1, -1)
        ys[:5] = -ys[:5]
        seeds = split_stream(226, 1).integers(0, 2**63, size=len(xs))
        radii_old = np.zeros(len(xs))
        for i in range(len(xs)):
            res = certify(base, xs[i], cfg, split_stream(int(seeds[i]), i))
            if res.certified and res.label == int(ys[i]):
                radii_old[i] = res.radius
        hit = np.sort(radii_old[radii_old > 0])
        assert hit.size > 10
        radii = sorted({0.0, 0.1, float(hit[hit.size // 2]),
                        float(hit[-1]), 1.0})
        curve = certified_accuracy_curve(base, xs, ys, radii, cfg,
                                         split_stream(226, 1))
        old = [(r, float(np.mean(radii_old >= r)) if r > 0
                else float(np.mean(radii_old > 0.0))) for r in radii]
        assert curve == old
        assert 0.0 < dict(curve)[float(hit[-1])] < dict(curve)[0.0]

    def test_curve_bounds_only_the_radius_thresholds(self, monkeypatch):
        import rstsim.smoothing as sm

        calls = []
        real = sm.clopper_pearson_lower

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sm, "clopper_pearson_lower", counted)
        min_votes_for_radius.cache_clear()
        cfg = SmoothingConfig(n0_selection=20, n_estimation=1_000)
        xs = split_stream(227, 0).standard_normal((50, 2))
        ys = np.where(xs[:, 0] >= 0, 1, -1)
        radii = [0.0, 0.1, 0.2]
        model = LogisticModel(theta=np.array([1.0, 0.0]))
        certified_accuracy_curve(model, xs, ys, radii, cfg, split_stream(227, 1))
        # one bisection over 0..N + 1 per radius, none per point
        per_radius = math.ceil(math.log2(cfg.n_estimation + 2))
        assert 0 < len(calls) <= len(radii) * per_radius
        before = len(calls)
        certified_accuracy_curve(model, xs, ys, radii, cfg, split_stream(227, 2))
        assert len(calls) == before


class TestMinVotesSearch:
    """The galloping search returns what a plain bisection over 0..N + 1 does."""

    @staticmethod
    def _bisect(radius, config):
        # the reference: binary search over k in [0, n_estimation + 1]
        lo, hi = 0, config.n_estimation + 1
        while lo < hi:
            mid = (lo + hi) // 2
            p = clopper_pearson_lower(mid, config.n_estimation,
                                      config.conf_alpha)
            if p > 0.5 and config.noise_sigma * inverse_gaussian_cdf(p) >= radius:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @pytest.mark.parametrize("n_estimation", [1, 7, 100, 1_000, 10_000])
    @pytest.mark.parametrize("conf_alpha", [1e-3, 0.05, 0.5, 0.9])
    def test_matches_bisection(self, n_estimation, conf_alpha):
        config = SmoothingConfig(noise_sigma=0.7, n0_selection=10,
                                 n_estimation=n_estimation,
                                 conf_alpha=conf_alpha)
        radii = [0.0, 1e-9, 0.05, 0.2, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 50.0]
        got = [min_votes_for_radius(r, config) for r in radii]
        assert got == [self._bisect(r, config) for r in radii]
        assert got[-1] == n_estimation + 1

    def test_calls_at_certify_demo_defaults(self, monkeypatch):
        import rstsim.smoothing as sm

        calls = []
        real = sm.clopper_pearson_lower

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sm, "clopper_pearson_lower", counted)
        min_votes_for_radius.cache_clear()
        # certify-demo's defaults: d = 16, n0 = 4, noise sigma = (n0 d)^(1/4)
        sigma = (4 * 16) ** 0.25
        config = SmoothingConfig(noise_sigma=sigma)
        for f in (0.0, 0.5, 1.0, 1.5, 2.0):
            min_votes_for_radius(sigma * f, config)
        # plain bisection over 0..10,001 took 66
        assert 0 < len(calls) <= 20

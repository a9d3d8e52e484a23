"""Model construction, closed-form error laws, and Monte Carlo agreement."""

import math
import tracemalloc

import numpy as np
import pytest

from rstsim.gaussian import (
    GaussianModel,
    LabeledSet,
    LinearClassifier,
    canonical_model,
    error_rates,
    mc_error_estimate,
    robust_error,
    sample_labeled,
    standard_error,
)
from rstsim import gaussian
from rstsim.statkit import q_function, split_stream


def _materialized_sample(model, n, stream):
    # the whole-matrix sampler: n label bits, then the (n, d) noise row-major
    ys = 2 * stream.integers(0, 2, size=n, dtype=np.int64) - 1
    zs = stream.standard_normal((n, model.d))
    return ys[:, None] * model.mu[None, :] + model.sigma * zs, ys


def _chunked_mc(model, clf, n, stream):
    # reference for the paired Monte Carlo: one seed from the caller's
    # stream, then ceil(n / 2) noise rows in chunks of R, chunk k drawn
    # whole from split_stream(seed, k) and scored in one einsum; row i is
    # the sample (z_i, +1) and, when i < n // 2, also (z_i, -1), with margin
    # c + y sigma theta^T z_i, c = mu^T theta (minus epsilon ||theta||_1
    # for the robust column)
    seed = int(stream.integers(0, 2**63))
    rows = max(1, gaussian._MC_BLOCK_SCALARS // model.d)
    n_rows, n_pairs = -(-n // 2), n // 2
    mu_dot = float(np.sum(model.mu * clf.theta))
    l1 = float(np.sum(np.abs(clf.theta)))
    misses = [0, 0]
    for k, start in enumerate(range(0, n_rows, rows)):
        zs = split_stream(seed, k).standard_normal(
            (min(rows, n_rows - start), model.d))
        t = model.sigma * np.einsum("ij,j->i", zs, clf.theta)
        pairs = max(0, min(len(t), n_pairs - start))
        ys = np.concatenate([np.ones(len(t)), -np.ones(pairs)])
        ts = np.concatenate([t, t[:pairs]])
        for j, c in enumerate((mu_dot, mu_dot - model.epsilon * l1)):
            margin = c + ys * ts
            misses[j] += int(np.count_nonzero(
                (margin < 0.0) | ((margin == 0.0) & (ys == -1))))
    return misses[0] / n, misses[1] / n


class TestCanonicalModel:
    def test_small_instance_frozen(self):
        m = canonical_model(4, 16, 0.25)
        assert m.sigma == pytest.approx(2.8284271247461903, rel=1e-15)
        assert m.d == 16
        assert m.n0 == 4
        assert np.array_equal(m.mu, np.ones(16))

    def test_large_epsilon_requires_override(self):
        with pytest.raises(ValueError):
            canonical_model(25, 250000, 0.5)
        m = canonical_model(25, 250000, 0.5, allow_large_epsilon=True)
        # (25 * 250000)^(1/4) = (6.25e6)^(1/4) = 50 exactly
        assert m.sigma == pytest.approx(50.0, rel=1e-15)

    def test_norm_identity(self):
        # ||mu||^2 = d and sigma^2 = sqrt(n0 d) give snr = sqrt(d/n0)
        m = canonical_model(9, 144, 0.1)
        snr = float(np.sum(m.mu * m.mu)) / m.sigma**2
        assert snr == pytest.approx(math.sqrt(144 / 9), rel=1e-12)

    def test_holds_no_d_vector(self):
        # mu is a read-only broadcast view of 1.0, so a model at d = 10^7
        # allocates nothing near 80 MB; mu^T mu is still d
        tracemalloc.start()
        try:
            m = canonical_model(4, 10**7, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert m.d == 10**7 and not m.mu.flags.writeable
        assert m.mu_sq == 1e7

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            canonical_model(0, 16, 0.25)
        with pytest.raises(ValueError):
            canonical_model(4, 0, 0.25)
        with pytest.raises(ValueError):
            canonical_model(4, 16, -0.1)
        with pytest.raises(ValueError):
            canonical_model(4, 16, float("nan"))


class TestModelValidation:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            GaussianModel(mu=np.ones(3), sigma=0.0, epsilon=0.1)
        with pytest.raises(ValueError):
            GaussianModel(mu=np.ones(3), sigma=-1.0, epsilon=0.1)

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            GaussianModel(mu=np.ones((2, 2)), sigma=1.0, epsilon=0.1)
        with pytest.raises(ValueError):
            GaussianModel(mu=np.array([1.0, float("inf")]), sigma=1.0, epsilon=0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), float("inf")])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_rejects_any_non_finite_entry(self, bad, where):
        mu = np.linspace(-2.0, 2.0, 7)
        mu[where] = bad
        with pytest.raises(ValueError):
            GaussianModel(mu=mu, sigma=1.0, epsilon=0.1)
        with pytest.raises(ValueError):
            LinearClassifier(theta=mu)
        with pytest.raises(ValueError):  # a 0-stride view, like canonical mu
            GaussianModel(mu=np.broadcast_to(bad, (7,)), sigma=1.0,
                          epsilon=0.1)

    def test_labeled_set_validation(self):
        with pytest.raises(ValueError):
            LabeledSet(xs=np.zeros((2, 3)), ys=np.array([1, 2]))
        with pytest.raises(ValueError):
            LabeledSet(xs=np.zeros((2, 3)), ys=np.array([1]))
        ok = LabeledSet(xs=np.zeros((2, 3)), ys=np.array([1, -1]))
        assert ok.n == 2


class TestClosedForms:
    def test_theta_equals_mu_frozen(self):
        # theta = mu: alignment = ||mu|| / sigma = (d/n0)^(1/4),
        # l1 shift = eps * sqrt(d) * ||mu|| / (sigma ||mu||) scaled form.
        m = canonical_model(4, 16, 0.25)
        clf = LinearClassifier(theta=m.mu.copy())
        d, n0 = 16, 4
        align = (d / n0) ** 0.25
        assert standard_error(m, clf) == pytest.approx(q_function(align), rel=1e-14)
        shifted = align - 0.25 * math.sqrt(d) / m.sigma * math.sqrt(d) / math.sqrt(d)
        # direct recomputation: (mu.theta - eps ||theta||_1) / (sigma ||theta||_2)
        arg = (d - 0.25 * d) / (m.sigma * math.sqrt(d))
        assert robust_error(m, clf) == pytest.approx(q_function(arg), rel=1e-14)
        del shifted

    def test_scale_invariance(self):
        m = canonical_model(4, 32, 0.2)
        stream = split_stream(11, 0)
        base = stream.standard_normal(32) + 0.5
        e_std = standard_error(m, LinearClassifier(theta=base))
        e_rob = robust_error(m, LinearClassifier(theta=base))
        for c in (1e-6, 1.0, 1e6):
            clf = LinearClassifier(theta=c * base)
            assert standard_error(m, clf) == pytest.approx(e_std, rel=1e-12)
            assert robust_error(m, clf) == pytest.approx(e_rob, rel=1e-12)

    def test_epsilon_zero_collapses(self):
        m = GaussianModel(mu=np.ones(8), sigma=2.0, epsilon=0.0)
        stream = split_stream(12, 0)
        for _ in range(5):
            theta = stream.standard_normal(8)
            clf = LinearClassifier(theta=theta)
            assert robust_error(m, clf) == standard_error(m, clf)

    def test_robust_dominates_standard(self):
        m = canonical_model(4, 16, 0.3)
        stream = split_stream(13, 0)
        for _ in range(20):
            theta = stream.standard_normal(16)
            clf = LinearClassifier(theta=theta)
            assert robust_error(m, clf) >= standard_error(m, clf)

    def test_rejects_zero_theta(self):
        m = canonical_model(4, 16, 0.25)
        with pytest.raises(ValueError):
            standard_error(m, LinearClassifier(theta=np.zeros(16)))
        with pytest.raises(ValueError):
            robust_error(m, LinearClassifier(theta=np.zeros(16)))

    def test_rejects_dimension_mismatch(self):
        m = canonical_model(4, 16, 0.25)
        with pytest.raises(ValueError):
            standard_error(m, LinearClassifier(theta=np.ones(8)))

    def test_error_rates_is_both_closed_forms(self):
        stream = split_stream(14, 0)
        for d, eps in ((1, 0.1), (16, 0.0), (32, 0.3), (1000, 0.45)):
            m = canonical_model(4, d, eps)
            for _ in range(5):
                clf = LinearClassifier(theta=stream.standard_normal(d) + 0.2)
                std, rob = error_rates(m, clf)
                assert (std, rob) == (standard_error(m, clf), robust_error(m, clf))
                theta = clf.theta
                l2 = float(np.sqrt(np.sum(theta * theta)))
                align = float(np.sum(m.mu * theta)) / (m.sigma * l2)
                l1_ratio = float(np.sum(np.abs(theta))) / (m.sigma * l2)
                assert std == q_function(align)
                assert rob == q_function(align - m.epsilon * l1_ratio)


class TestSampling:
    def test_shapes_and_labels(self):
        m = canonical_model(4, 16, 0.25)
        data = sample_labeled(m, 37, split_stream(21, 0))
        assert data.xs.shape == (37, 16)
        assert data.ys.shape == (37,)
        assert set(np.unique(data.ys)) <= {-1, 1}

    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("m", [
        canonical_model(4, 16, 0.25),
        GaussianModel(mu=split_stream(66, 9).standard_normal(17), sigma=1.7,
                      epsilon=0.1)], ids=["canonical", "random_mu"])
    def test_matches_materialized_formula(self, m, n):
        # bit for bit, and the stream is left where the formula leaves it
        for seed in range(5):
            ref, stream = split_stream(23, seed), split_stream(23, seed)
            data = sample_labeled(m, n, stream)
            xs, ys = _materialized_sample(m, n, ref)
            assert np.array_equal(data.xs, xs)
            assert np.array_equal(data.ys, ys)
            assert (repr(stream.bit_generator.state)
                    == repr(ref.bit_generator.state))

    def test_deterministic_given_stream(self):
        m = canonical_model(4, 16, 0.25)
        a = sample_labeled(m, 10, split_stream(5, 3))
        b = sample_labeled(m, 10, split_stream(5, 3))
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)

    def test_class_conditional_mean(self):
        # after flipping each row by its label the mean must approach mu
        m = GaussianModel(mu=np.full(4, 1.5), sigma=1.0, epsilon=0.1)
        data = sample_labeled(m, 200000, split_stream(22, 0))
        folded = data.ys[:, None] * data.xs
        err = np.abs(folded.mean(axis=0) - m.mu)
        # se = sigma / sqrt(n) ~ 0.0022, allow 5 se
        assert np.all(err < 5 * 1.0 / math.sqrt(200000))


class TestMonteCarloAgreement:
    def test_matches_closed_forms(self):
        m = canonical_model(4, 16, 0.25)
        stream = split_stream(31, 0)
        n = 200000
        for trial in range(3):
            theta = stream.standard_normal(16) + 1.0
            clf = LinearClassifier(theta=theta)
            std_hat, rob_hat = mc_error_estimate(m, clf, n, split_stream(31, 100 + trial))
            for hat, exact in ((std_hat, standard_error(m, clf)),
                               (rob_hat, robust_error(m, clf))):
                se = math.sqrt(max(exact * (1 - exact), 1e-12) / n)
                assert abs(hat - exact) < 5 * se + 1e-9

    def test_mc_robust_dominates_pathwise(self):
        m = canonical_model(4, 8, 0.3)
        clf = LinearClassifier(theta=np.ones(8))
        std_hat, rob_hat = mc_error_estimate(m, clf, 50000, split_stream(32, 0))
        assert rob_hat >= std_hat

    def test_rejects_bad_sample_count(self):
        m = canonical_model(4, 8, 0.1)
        clf = LinearClassifier(theta=np.ones(8))
        with pytest.raises(ValueError):
            mc_error_estimate(m, clf, 0, split_stream(33, 0))


class TestBlockedMonteCarlo:
    """The chunked estimate equals the per-chunk reference bit for bit."""

    @staticmethod
    def _both(model, theta, n, seed):
        clf = LinearClassifier(theta=theta)
        got = mc_error_estimate(model, clf, n, split_stream(seed, 0))
        want = _chunked_mc(model, clf, n, split_stream(seed, 0))
        return got, want

    @pytest.mark.parametrize("d,n", [
        (16, 1000),            # n below one chunk
        (1024, 2500),          # 1,250 rows: chunks of 1024 rows, last one 226
        (2**20 + 3, 3),        # d above the chunk size: one row per chunk,
                               # the second a lone +1 sample
        (1, 2**20 + 5),        # d = 1: 2^19 + 3 rows, one partial chunk
        (1, 3 * 2**17 + 11),   # 3 * 2^16 + 6 rows: a row block and 65,542
        (1024, 30_001),        # last chunk 665 rows: 5 row blocks and 25
    ])
    def test_matches_materialized_reference(self, d, n):
        m = canonical_model(4, d, 0.2)
        theta = split_stream(40, d).standard_normal(d) + 0.5
        got, want = self._both(m, theta, n, 41)
        assert got == want

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_matches_reference_at_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(gaussian, "_MC_BLOCK_SCALARS", block)
        for d, n in ((3, 50), (8, 97), (100, 9)):
            m = canonical_model(4, d, 0.3)
            theta = split_stream(42, d).standard_normal(d)
            got, want = self._both(m, theta, n, 43)
            assert got == want

    def test_ties_follow_sign_zero(self):
        # sigma at the smallest subnormal rounds most scores sigma theta^T z
        # to exactly 0, so many paired margins 0 +- t are zero (standard
        # ties) ...
        m = GaussianModel(mu=np.zeros(2), sigma=5e-324, epsilon=0.0)
        theta = np.ones(2)
        seed = int(split_stream(44, 0).integers(0, 2**63))
        zs = split_stream(seed, 0).standard_normal((1500, 2))  # the one chunk
        t = m.sigma * np.einsum("ij,j->i", zs, theta)
        assert np.count_nonzero(np.concatenate([0.0 + t, 0.0 - t]) == 0.0) > 100
        got, want = self._both(m, theta, 3000, 44)
        assert got == want
        # ... and with mu = 1, epsilon = 1 every worst-case level c is 0,
        # so exactly one sample of each pair misses, a tie at y = -1
        m = GaussianModel(mu=np.ones(1), sigma=5e-324, epsilon=1.0)
        got, want = self._both(m, np.ones(1), 3000, 45)
        assert got == want
        assert got[0] == 0.0 and 0.4 < got[1] < 0.6
        assert got[1] == 0.5

    @pytest.mark.parametrize("block,d,n", [
        (1 << 20, 1024, 4500),  # 2,250 rows: 3 chunks, the last one 202 rows
        (7, 3, 50),             # 25 rows: 13 chunks of 2 rows, the last 1
    ])
    def test_same_result_for_any_thread_count(self, monkeypatch, block, d, n):
        monkeypatch.setattr(gaussian, "_MC_BLOCK_SCALARS", block)
        m = canonical_model(4, d, 0.3)
        clf = LinearClassifier(theta=split_stream(47, d).standard_normal(d) + 0.3)
        want = _chunked_mc(m, clf, n, split_stream(48, 0))
        for threads in (1, 2, 3, 5):
            monkeypatch.setattr(gaussian, "_mc_threads", lambda: threads)
            assert mc_error_estimate(m, clf, n, split_stream(48, 0)) == want

    @pytest.mark.parametrize("block_rows", [1, 7, 128])
    @pytest.mark.parametrize("d", [3, 64])
    def test_row_blocks_match_reference(self, monkeypatch, block_rows, d):
        # chunks of 300 rows, n = 1000 in 500 rows: a ragged last chunk
        # (200 rows), and neither 300 nor 200 a multiple of 7 or 128
        monkeypatch.setattr(gaussian, "_MC_BLOCK_SCALARS", 300 * d)
        monkeypatch.setattr(gaussian, "_MC_ROW_BLOCK_SCALARS", block_rows * d)
        m = canonical_model(4, d, 0.3)
        clf = LinearClassifier(theta=split_stream(49, d).standard_normal(d) + 0.3)
        want = _chunked_mc(m, clf, 1000, split_stream(50, 0))
        for threads in (1, 2, 3, 5):
            monkeypatch.setattr(gaussian, "_mc_threads", lambda: threads)
            assert mc_error_estimate(m, clf, 1000, split_stream(50, 0)) == want

    def test_traced_peak_is_two_row_blocks(self, monkeypatch):
        # two threads, each holding one row block of 128 x 1024 floats
        monkeypatch.setattr(gaussian, "_mc_threads", lambda: 2)
        m = canonical_model(4, 1024, 0.25)
        clf = LinearClassifier(theta=np.ones(1024))
        tracemalloc.start()
        try:
            mc_error_estimate(m, clf, 20_000, split_stream(46, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * gaussian._MC_ROW_BLOCK_SCALARS + 2**20

    def test_traced_peak_at_small_d_is_the_labels(self, monkeypatch):
        # d = 1: 2^21 rows in chunks of 2^20 rows, one per thread; a thread
        # holds one row block and its scores, no chunk-long array
        monkeypatch.setattr(gaussian, "_mc_threads", lambda: 2)
        m = canonical_model(4, 1, 0.25)
        clf = LinearClassifier(theta=np.ones(1))
        n = 4 * 2**20
        want = _chunked_mc(m, clf, n, split_stream(46, 0))
        tracemalloc.start()
        try:
            got = mc_error_estimate(m, clf, n, split_stream(46, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 24 * 2**20

    def test_traced_peak_is_one_block(self, monkeypatch):
        # two threads, each holding one chunk buffer of 1024 x 1024 floats
        monkeypatch.setattr(gaussian, "_mc_threads", lambda: 2)
        m = canonical_model(4, 1024, 0.25)
        clf = LinearClassifier(theta=np.ones(1024))
        tracemalloc.start()
        try:
            mc_error_estimate(m, clf, 20_000, split_stream(46, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the materialized sample alone would be 3 x 164 MB
        assert peak < 32 * 2**20


class TestPairedMonteCarlo:
    """One noise row serves a +1 and a -1 sample: unbiased, with variance at
    most that of independent samples, and an odd n ends on a lone +1."""

    @pytest.mark.parametrize("eps", [0.25, 0.45])
    def test_unbiased_with_at_most_the_independent_variance(self, eps):
        m = canonical_model(4, 16, eps)
        clf = LinearClassifier(theta=split_stream(60, 0).standard_normal(16) + 0.3)
        n, seeds = 2000, 400
        est = np.array([mc_error_estimate(m, clf, n, split_stream(61, s))
                        for s in range(seeds)])
        for col, p in zip(est.T, error_rates(m, clf)):
            sd = float(np.std(col, ddof=1))
            assert abs(float(np.mean(col)) - p) < 4 * sd / math.sqrt(seeds)
            assert sd <= math.sqrt(p * (1 - p) / n)

    @staticmethod
    def _plus_misses(model, clf, seed, row):
        # (standard, robust) misses of row's +1 sample x = mu + sigma z
        rows = max(1, gaussian._MC_BLOCK_SCALARS // model.d)
        zs = split_stream(seed, row // rows).standard_normal(
            (row % rows + 1, model.d))
        score = float(np.sum((model.mu + model.sigma * zs[-1]) * clf.theta))
        shift = model.epsilon * float(np.sum(np.abs(clf.theta)))
        return int(score < 0.0), int(score - shift < 0.0)

    def test_odd_n_adds_a_lone_plus_one_sample(self, monkeypatch):
        # chunks of 7 rows in row blocks of 3, so row k may open a chunk
        # or a block; n = 2k + 1 adds row k's +1 sample and nothing else
        monkeypatch.setattr(gaussian, "_MC_BLOCK_SCALARS", 7 * 16)
        monkeypatch.setattr(gaussian, "_MC_ROW_BLOCK_SCALARS", 3 * 16)
        m = canonical_model(4, 16, 0.45)
        clf = LinearClassifier(theta=split_stream(62, 0).standard_normal(16) + 0.3)
        seed = int(split_stream(63, 0).integers(0, 2**63))

        def counts(n):
            return tuple(round(r * n) for r in
                         mc_error_estimate(m, clf, n, split_stream(63, 0)))

        lone = []
        for k in range(40):  # k = 0: the estimate at n = 1 is one +1 sample
            even = counts(2 * k) if k else (0, 0)
            want = self._plus_misses(m, clf, seed, k)
            assert tuple(o - e for o, e in zip(counts(2 * k + 1), even)) == want
            lone.append(want)
        assert {rob for _, rob in lone} == {0, 1}


class TestRobustOracle:
    """At d = 2 the robust column is recounted from the l-infinity ball's
    four vertices, with no ||theta||_1 in the count."""

    N = 20_000

    @classmethod
    def _counts(cls, monkeypatch):
        # 10,000 rows in chunks of 3,000 on 3 threads, the last one 1,000
        monkeypatch.setattr(gaussian, "_MC_BLOCK_SCALARS", 2 * 3000)
        monkeypatch.setattr(gaussian, "_mc_threads", lambda: 3)
        m = canonical_model(4, 2, 0.3)
        theta = np.array([1.0, 0.35])
        _, rob = mc_error_estimate(m, LinearClassifier(theta=theta), cls.N,
                                   split_stream(51, 0))
        # redraw the points chunk by chunk from their substreams: each
        # noise row z gives x = mu + sigma z at y = +1, -mu + sigma z at -1
        seed = int(split_stream(51, 0).integers(0, 2**63))
        rows = gaussian._MC_BLOCK_SCALARS // 2
        corners = m.epsilon * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        misses = 0
        for k, start in enumerate(range(0, cls.N // 2, rows)):
            zs = split_stream(seed, k).standard_normal(
                (min(rows, cls.N // 2 - start), 2))
            for y in (1, -1):
                xs = y * m.mu + m.sigma * zs
                scores = (xs[:, None, :] + corners[None]) @ theta
                preds = np.where(scores >= 0.0, 1, -1)  # sign(0) = +1
                misses += int(np.count_nonzero((preds != y).any(axis=1)))
        return round(rob * cls.N), misses

    def test_robust_misses_match_the_vertices(self, monkeypatch):
        got, want = self._counts(monkeypatch)
        assert got == want

    @pytest.mark.parametrize("mutate", [
        lambda mu_dot, l2, l1: (mu_dot, l2, l2),
        lambda mu_dot, l2, l1: (mu_dot, l2, 0.5 * l1),
        lambda mu_dot, l2, l1: (mu_dot, l2, 1.3 * l1)],
        ids=["l2-norm", "half-l1", "l1-times-1.3"])
    def test_a_wrong_l1_norm_fails_the_oracle(self, monkeypatch, mutate):
        stats = gaussian.alignment_stats
        monkeypatch.setattr(gaussian, "alignment_stats",
                            lambda model, clf: mutate(*stats(model, clf)))
        got, want = self._counts(monkeypatch)
        assert got != want


def test_run_blocks_reuses_its_workers():
    # the barrier holds every share until all 3 run at once; a second call
    # at the same thread count runs on the threads the first one left
    import threading

    barrier = threading.Barrier(3, timeout=10)

    def task(k, w):
        barrier.wait()
        return k, w

    want = [(k, k % 3) for k in range(6)]
    assert gaussian.run_blocks(task, 6, 3) == want
    live = set(threading.enumerate())
    assert gaussian.run_blocks(task, 6, 3) == want
    assert set(threading.enumerate()) == live

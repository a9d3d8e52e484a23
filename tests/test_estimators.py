"""Supervised averaging, self-training, mixtures, and the fast samplers."""

import math
import tracemalloc

import numpy as np
import pytest

from rstsim import estimators
from rstsim.estimators import (
    SelfTrainResult,
    UnlabeledSet,
    fast_selftrain_sample,
    fast_supervised_sample,
    pseudo_label,
    sample_mixture,
    self_train,
    supervised_estimator,
    trial_draws,
)
from rstsim.gaussian import (
    GaussianModel,
    LabeledSet,
    LinearClassifier,
    alignment_stats,
    canonical_model,
    error_rates,
    rates_from_stats,
    robust_error,
    sample_labeled,
)
from rstsim.statkit import split_stream


class TestSupervisedEstimator:
    def test_two_point_arithmetic(self):
        data = LabeledSet(xs=np.array([[1.0, 2.0], [3.0, 4.0]]),
                          ys=np.array([-1, 1]))
        clf = supervised_estimator(data)
        assert np.array_equal(clf.theta, np.array([1.0, 1.0]))

    def test_single_sample(self):
        data = LabeledSet(xs=np.array([[2.0, -3.0, 5.0]]), ys=np.array([-1]))
        clf = supervised_estimator(data)
        assert np.array_equal(clf.theta, np.array([-2.0, 3.0, -5.0]))

    def test_concentration_at_scale(self):
        m = canonical_model(16, 64, 0.1)
        n = 10_000
        data = sample_labeled(m, n, split_stream(41, 0))
        clf = supervised_estimator(data)
        gap = float(np.sqrt(np.sum((clf.theta - m.mu) ** 2)))
        assert gap <= 5 * m.sigma * math.sqrt(64 / n)

    def test_unbiased_over_trials(self):
        m = GaussianModel(mu=np.linspace(-1, 1, 8), sigma=1.5, epsilon=0.1)
        n, trials = 4, 10_000
        acc = np.zeros(8)
        for t in range(trials):
            data = sample_labeled(m, n, split_stream(42, t))
            acc += supervised_estimator(data).theta
        mean = acc / trials
        tol = 5 * m.sigma / math.sqrt(n * trials)
        assert np.all(np.abs(mean - m.mu) < tol)

    def test_fast_sampler_matches_distribution(self):
        # mean and coordinatewise variance of mu + (sigma/sqrt(n)) z
        m = GaussianModel(mu=np.full(6, 2.0), sigma=2.0, epsilon=0.1)
        n, trials = 9, 20_000
        draws = np.stack([fast_supervised_sample(m, n, split_stream(43, t)).theta
                          for t in range(trials)])
        se_mean = (m.sigma / math.sqrt(n)) / math.sqrt(trials)
        assert np.all(np.abs(draws.mean(axis=0) - m.mu) < 5 * se_mean)
        var = draws.var(axis=0, ddof=1)
        target = m.sigma**2 / n
        assert np.all(np.abs(var - target) < 6 * target * math.sqrt(2 / trials))

    def test_fast_sampler_rejects_bad_n(self):
        m = canonical_model(4, 8, 0.1)
        with pytest.raises(ValueError):
            fast_supervised_sample(m, 0, split_stream(44, 0))


class TestPseudoLabel:
    def test_basic_sign(self):
        clf = LinearClassifier(theta=np.array([1.0, 0.0]))
        assert pseudo_label(clf, np.array([3.0, -5.0])) == 1
        assert pseudo_label(clf, np.array([-3.0, 5.0])) == -1

    def test_tie_goes_positive(self):
        clf = LinearClassifier(theta=np.array([1.0, 0.0]))
        assert pseudo_label(clf, np.array([0.0, 7.0])) == 1

    def test_recovers_noiseless_label(self):
        m = canonical_model(4, 16, 0.25)
        clf = LinearClassifier(theta=m.mu.copy())
        for y in (-1, 1):
            assert pseudo_label(clf, y * m.mu) == y

    def test_dimension_mismatch(self):
        clf = LinearClassifier(theta=np.ones(3))
        with pytest.raises(ValueError):
            pseudo_label(clf, np.ones(4))


class TestSelfTrain:
    def test_noiseless_limit(self):
        m = GaussianModel(mu=np.ones(12), sigma=1e-12, epsilon=0.25)
        labeled = sample_labeled(m, 50, split_stream(51, 0))
        pool = UnlabeledSet(xs=labeled.xs,
                            relevant=np.ones(50, dtype=bool),
                            hidden_ys=labeled.ys)
        res = self_train(labeled, pool)
        assert res.pseudo_label_agreement == 1.0
        assert np.all(np.abs(res.final.theta - m.mu) < 1e-10)

    def test_single_unlabeled_point(self):
        labeled = LabeledSet(xs=np.array([[1.0, 0.5]]), ys=np.array([1]))
        x = np.array([-4.0, 1.0])
        pool = UnlabeledSet(xs=x[None, :], relevant=np.array([True]))
        res = self_train(labeled, pool)
        lab = pseudo_label(res.intermediate, x)
        assert np.array_equal(res.final.theta, lab * x)
        assert res.pseudo_label_agreement is None

    def test_flipping_intermediate_flips_final(self):
        m = canonical_model(4, 8, 0.25)
        stream = split_stream(52, 0)
        labeled = sample_labeled(m, 10, stream)
        pool, _ = sample_mixture(m, 30, 1.0, stream)
        res = self_train(labeled, pool)
        flipped = LabeledSet(xs=labeled.xs, ys=-labeled.ys)
        res_f = self_train(flipped, pool)
        assert np.array_equal(res_f.intermediate.theta, -res.intermediate.theta)
        scores = pool.xs @ res.intermediate.theta
        assert np.all(scores != 0.0)
        assert np.allclose(res_f.final.theta, -res.final.theta, rtol=0, atol=0)

    def test_dimension_mismatch(self):
        labeled = LabeledSet(xs=np.ones((2, 3)), ys=np.array([1, -1]))
        pool = UnlabeledSet(xs=np.ones((2, 4)), relevant=np.ones(2, dtype=bool))
        with pytest.raises(ValueError):
            self_train(labeled, pool)

    def test_agreement_range_validation(self):
        clf = LinearClassifier(theta=np.ones(2))
        with pytest.raises(ValueError):
            SelfTrainResult(intermediate=clf, final=clf, pseudo_label_agreement=1.5)


class TestSampleMixture:
    def test_relevant_count_rounding(self):
        m = canonical_model(4, 4, 0.25)
        pool, ys = sample_mixture(m, 10, 0.5, split_stream(61, 0))
        assert int(pool.relevant.sum()) == 5
        assert ys.shape == (10,)
        pool2, _ = sample_mixture(m, 7, 0.5, split_stream(61, 1))
        assert int(pool2.relevant.sum()) == 4

    def test_all_relevant_carries_signal(self):
        m = GaussianModel(mu=np.full(4, 3.0), sigma=0.5, epsilon=0.1)
        pool, ys = sample_mixture(m, 4000, 1.0, split_stream(62, 0))
        assert pool.relevant.all()
        folded = ys[:, None] * pool.xs
        assert np.all(np.abs(folded.mean(axis=0) - m.mu) < 5 * 0.5 / math.sqrt(4000))

    def test_no_relevant_is_centered(self):
        m = canonical_model(4, 4, 0.25)
        pool, _ = sample_mixture(m, 100_000, 0.0, split_stream(63, 0))
        assert not pool.relevant.any()
        assert np.all(np.abs(pool.xs.mean(axis=0)) <= 4 * m.sigma / math.sqrt(100_000))

    def test_shuffled_but_consistent(self):
        # relevance flags must travel with their rows through the shuffle:
        # irrelevant rows have mean zero, relevant rows mean y*mu
        m = GaussianModel(mu=np.full(3, 10.0), sigma=0.1, epsilon=0.1)
        pool, ys = sample_mixture(m, 400, 0.5, split_stream(64, 0))
        signs = np.sign(pool.xs[:, 0])
        rel = pool.relevant
        assert np.all(np.abs(pool.xs[rel, 0] - ys[rel] * 10.0) < 1.0)
        assert np.all(np.abs(pool.xs[~rel, 0]) < 1.0)
        del signs

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.0, 0.37])
    @pytest.mark.parametrize("model", [
        canonical_model(30, 100, 0.2),
        GaussianModel(mu=split_stream(66, 9).standard_normal(17), sigma=1.7,
                      epsilon=0.1)], ids=["canonical", "random_mu"])
    def test_equals_the_broadcast_formula(self, alpha, model):
        # the formula the in-place sampler replaced: y mu + sigma z on the
        # signal rows, sigma z on the rest, then the permutation
        for seed in range(5):
            ref, stream = split_stream(66, seed), split_stream(66, seed)
            n_rel = int(math.floor(alpha * 301 + 0.5))
            ys = 2 * ref.integers(0, 2, size=301, dtype=np.int64) - 1
            zs = ref.standard_normal((301, model.d))
            relevant = np.arange(301) < n_rel
            signal = np.where(relevant[:, None],
                              ys[:, None] * model.mu[None, :], 0.0)
            xs = signal + model.sigma * zs
            perm = ref.permutation(301)
            pool, hidden = sample_mixture(model, 301, alpha, stream)
            assert np.array_equal(pool.xs, xs[perm])
            assert np.array_equal(pool.relevant, relevant[perm])
            assert np.array_equal(hidden, ys[perm])
            assert (repr(stream.bit_generator.state)
                    == repr(ref.bit_generator.state))

    def test_rejects_bad_fraction(self):
        m = canonical_model(4, 4, 0.25)
        with pytest.raises(ValueError):
            sample_mixture(m, 10, 1.2, split_stream(65, 0))
        with pytest.raises(ValueError):
            sample_mixture(m, 0, 0.5, split_stream(65, 1))


class TestFastSelfTrain:
    def test_noiseless_limit(self):
        m = GaussianModel(mu=np.ones(16), sigma=1e-9, epsilon=0.25)
        res = fast_selftrain_sample(m, 10, 200, 1.0, split_stream(71, 0))
        assert res.pseudo_label_agreement == 1.0
        assert np.all(np.abs(res.final.theta - m.mu) < 1e-6)

    def test_agreement_in_range(self):
        m = canonical_model(4, 32, 0.25)
        for t in range(20):
            res = fast_selftrain_sample(m, 4, 50, 0.5, split_stream(72, t))
            assert -1.0 <= res.pseudo_label_agreement <= 1.0

    def test_matches_naive_sampler(self):
        # two-sample comparison of the robust error distribution
        m = canonical_model(5, 20, 0.2)
        n, n_tilde, trials = 5, 100, 1500

        def naive(t):
            stream = split_stream(73, t)
            labeled = sample_labeled(m, n, stream)
            pool, _ = sample_mixture(m, n_tilde, 1.0, stream)
            return robust_error(m, self_train(labeled, pool).final)

        def fast(t):
            res = fast_selftrain_sample(m, n, n_tilde, 1.0, split_stream(74, t))
            return robust_error(m, res.final)

        a = np.array([naive(t) for t in range(trials)])
        b = np.array([fast(t) for t in range(trials)])
        # mean and variance z-statistics; the variance one needs the fourth
        # moment since the error distribution is far from Gaussian
        se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
        assert abs(a.mean() - b.mean()) / se <= 4.0

        def var_and_se(x):
            s2 = x.var(ddof=1)
            m4 = float(np.mean((x - x.mean()) ** 4))
            spread = (m4 - (trials - 3) / (trials - 1) * s2**2) / trials
            return s2, math.sqrt(spread)

        va, ea = var_and_se(a)
        vb, eb = var_and_se(b)
        assert abs(va - vb) / math.sqrt(ea**2 + eb**2) <= 4.0
        # empirical CDF max gap
        grid = np.sort(np.concatenate([a, b]))
        fa = np.searchsorted(np.sort(a), grid, side="right") / trials
        fb = np.searchsorted(np.sort(b), grid, side="right") / trials
        assert float(np.max(np.abs(fa - fb))) <= 0.08

    def test_monotone_in_pool_size(self):
        m = canonical_model(4, 755_000, 0.5, allow_large_epsilon=True)
        trials = 12
        means, ses = [], []
        for j, n_tilde in enumerate(2_000 * 2 ** np.arange(7)):
            errs = [robust_error(m, fast_selftrain_sample(
                m, 4, int(n_tilde), 1.0, split_stream(75, j * trials + t)).final)
                for t in range(trials)]
            errs = np.array(errs)
            means.append(errs.mean())
            ses.append(errs.std(ddof=1) / math.sqrt(trials))
        for i in range(len(means) - 1):
            slack = 2 * math.sqrt(ses[i] ** 2 + ses[i + 1] ** 2)
            assert means[i + 1] <= means[i] + slack

    def test_deterministic(self):
        m = canonical_model(4, 64, 0.25)
        r1 = fast_selftrain_sample(m, 4, 500, 0.5, split_stream(76, 9))
        r2 = fast_selftrain_sample(m, 4, 500, 0.5, split_stream(76, 9))
        assert np.array_equal(r1.final.theta, r2.final.theta)
        assert r1.pseudo_label_agreement == r2.pseudo_label_agreement

    def test_rejects_bad_arguments(self):
        m = canonical_model(4, 8, 0.25)
        with pytest.raises(ValueError):
            fast_selftrain_sample(m, 0, 10, 1.0, split_stream(77, 0))
        with pytest.raises(ValueError):
            fast_selftrain_sample(m, 4, 0, 1.0, split_stream(77, 1))
        with pytest.raises(ValueError):
            fast_selftrain_sample(m, 4, 10, -0.1, split_stream(77, 2))


def _random_mu_model():
    # a non-canonical mean: no two coordinates alike, some negative
    mu = np.random.default_rng(5).normal(0.3, 1.0, 40)
    return GaussianModel(mu=mu, sigma=1.7, epsilon=0.05)


_FACTORED_CASES = [
    ("supervised", canonical_model(4, 64, 0.25), None),
    ("supervised", _random_mu_model(), None),
    ("selftrain", canonical_model(4, 64, 0.25), 1.0),  # n_irr = 0
    ("selftrain", canonical_model(4, 64, 0.25), 0.25),
    ("selftrain", canonical_model(4, 64, 0.25), 0.0),
    ("selftrain", _random_mu_model(), 1.0),
    ("selftrain", _random_mu_model(), 0.25),
    ("selftrain", _random_mu_model(), 0.0),
]


def _factored(kind, model, alpha, stream):
    if kind == "supervised":
        return trial_draws(model, [(3, 0, 1.0)], stream)
    return trial_draws(model, [(3, 700, alpha)], stream)


def _block_normals(seed, first, size):
    # size normals in a trial's block layout: block i of _BLOCK from
    # split_stream(seed, first + i)
    block = estimators._BLOCK
    return np.concatenate([
        split_stream(seed, first + i).standard_normal(min(block, size - start))
        for i, start in enumerate(range(0, size, block))])


def _trial_seed(stream):
    return int(stream.integers(0, 2**63))


def test_mu_sq_is_computed_once_per_model(monkeypatch):
    m = GaussianModel(mu=split_stream(67, 0).standard_normal(50), sigma=1.3,
                      epsilon=0.1)
    want = float(np.einsum("i,i->", m.mu, m.mu))
    monkeypatch.setattr(estimators, "_BLOCK", 16)  # 4 blocks of z1
    calls = []
    real = np.einsum
    monkeypatch.setattr(np, "einsum",
                        lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    draws = [trial_draws(m, [(3, 0, 1.0)], split_stream(67, k))
             for k in range(4)]
    assert all(draw.gram[0] == want for draw in draws)
    # one mu.mu for the model, then mu.z1 and z1.z1 per block of each draw
    assert len(calls) == 1 + 2 * 4 * len(draws)


class TestFactoredScores:
    @pytest.mark.parametrize("kind,model,alpha", _FACTORED_CASES)
    def test_direct_score_matches_materialized(self, kind, model, alpha):
        # the same draw scored twice: from the Gram scalars and one pass,
        # and by materializing theta and scoring it as any classifier
        for t in range(5):
            [direct] = _factored(kind, model, alpha,
                                 split_stream(81, t)).stats(model.mu)
            clf = LinearClassifier(theta=_factored(
                kind, model, alpha, split_stream(81, t)).theta(model.mu))
            reference = alignment_stats(model, clf)
            for got, want in zip(direct, reference):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            for got, want in zip(rates_from_stats(model, *direct),
                                 error_rates(model, clf)):
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_samplers_return_the_materialized_draw(self):
        m = _random_mu_model()
        theta = trial_draws(m, [(3, 0, 1.0)], split_stream(82, 0)).theta(m.mu)
        clf = fast_supervised_sample(m, 3, split_stream(82, 0))
        assert np.array_equal(clf.theta, theta)
        z1 = _block_normals(_trial_seed(split_stream(82, 0)), 0, m.d)
        assert np.array_equal(clf.theta, m.mu + (m.sigma / math.sqrt(3)) * z1)
        draw = trial_draws(m, [(3, 700, 0.25)], split_stream(82, 1))
        z1 = draw.z1.copy()
        res = fast_selftrain_sample(m, 3, 700, 0.25, split_stream(82, 1))
        assert np.array_equal(res.final.theta, draw.theta(m.mu))
        assert np.array_equal(res.intermediate.theta,
                              m.mu + (m.sigma / math.sqrt(3)) * z1)
        assert res.pseudo_label_agreement == draw.agreements[0]

    def test_blocked_l1_leaves_the_normals_alone(self):
        # d is not a multiple of the block, so the last block is partial
        d = 2 * estimators._BLOCK + 123
        m = GaussianModel(mu=split_stream(83, 0).normal(0.3, 1.0, d),
                          sigma=1.7, epsilon=0.05)
        fd = trial_draws(m, [(3, None, 1.0), (3, 700, 0.25), (5, 300, 1.0)],
                         split_stream(83, 1))
        z1, z = fd.z1.copy(), fd.z.copy()
        for arm, (_, _, l1) in enumerate(fd.stats(m.mu)):
            want = float(np.sum(np.abs(fd.theta(m.mu, arm))))
            assert l1 == pytest.approx(want, rel=1e-12, abs=0.0)
        assert fd.z1.tobytes() == z1.tobytes()
        assert fd.z.tobytes() == z.tobytes()

    @pytest.mark.parametrize("arms", [
        [(3, 0, 1.0), (3, 700, 0.25), (5, 300, 1.0)],
        [(3, 0, 1.0), (7, 0, 1.0)],  # no arm self-trains: z is None
    ])
    def test_one_pass_equals_the_per_arm_loop(self, arms):
        # the trial's one blocked pass against a per-arm loop over the same
        # blocks and sub-blocks, in which a supervised arm skips z; equal
        # bit for bit, on one thread and on three
        block, sub = estimators._BLOCK, estimators._L1_BLOCK

        def per_arm(mu, a, b, c, z1, z, gram):
            mm, m1, mz, s11, s1z, szz = gram
            sq = (a * a * mm + b * b * s11 + c * c * szz
                  + 2.0 * (a * b * m1 + a * c * mz + b * c * s1z))
            d = mu.size
            blocks = []
            for first in range(0, d, block):
                end = min(first + block, d)
                l1 = 0.0
                for start in range(first, end, sub):
                    stop = min(start + sub, end)
                    theta = np.multiply(z1[start:stop], b)
                    if z is not None:
                        theta += np.multiply(z[start:stop], c)
                    theta += np.multiply(mu[start:stop], a)
                    l1 += np.abs(theta).sum()
                blocks.append(l1)
            return (a * mm + b * m1 + c * mz, math.sqrt(max(sq, 0.0)),
                    math.fsum(blocks))

        d = 2 * block + 123
        m = GaussianModel(mu=split_stream(84, 0).normal(0.3, 1.0, d),
                          sigma=1.7, epsilon=0.05)
        fd = trial_draws(m, arms, split_stream(84, 1))
        assert (fd.z is None) == all(not n_tilde for _, n_tilde, _ in arms)
        want = [per_arm(m.mu, a, b, c, fd.z1, fd.z if n_tilde else None,
                        fd.gram)
                for (a, b, c), (_, n_tilde, _) in zip(fd.coef.tolist(), arms)]
        assert fd.stats(m.mu) == want
        fd3 = trial_draws(m, arms, split_stream(84, 1),
                          estimators.TrialWork(d, arms, threads=3))
        assert fd3.gram == fd.gram
        assert fd3.stats(m.mu) == want


    def test_repeated_arms_keep_the_lone_arm_stats(self):
        # one self-training arm three times and two supervised arms twice,
        # no repeat next to its twin and supervised rows between the
        # self-training ones; the pass sums each distinct row once, and
        # every repeat returns its arm's stats drawn alone, bit for bit
        d = 2 * estimators._BLOCK + 123
        m = GaussianModel(mu=split_stream(85, 0).normal(0.3, 1.0, d),
                          sigma=1.7, epsilon=0.05)
        st, sup3, sup7 = (3, 700, 0.25), (3, 0, 1.0), (7, 0, 1.0)
        arms = [st, sup3, sup7, st, sup3, sup7, st]
        for threads in (1, 3):
            fd = trial_draws(m, arms, split_stream(85, 1),
                             estimators.TrialWork(d, arms, threads=threads))
            for arm, stats in zip(arms, fd.stats(m.mu)):
                [alone] = trial_draws(m, [arm], split_stream(85, 1)).stats(m.mu)
                assert stats == alone


def _reference_pool(m, sigma, n_rel, n_irr, normals, labels):
    # per point, with explicit labels: signal point i has noise projection
    # u = y w, pseudo-label sign(y m + u); a noise point has u = v
    w = sigma * normals[:n_rel]
    v = sigma * normals[n_rel:n_rel + n_irr]
    y = 2 * labels.integers(0, 2, size=n_rel) - 1
    u = y * w
    tilde = np.where(y * m + u >= 0.0, 1, -1)
    tilde_irr = np.where(v >= 0.0, 1, -1)
    return (int(np.sum(tilde * y)),
            float(np.sum(tilde * u)) + float(np.sum(tilde_irr * v)))


class TestLabelFreePool:
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("n_rel,n_irr", [(1000, 537), (300, 0), (0, 250)])
    def test_matches_per_point_reference(self, monkeypatch, chunk, n_rel,
                                         n_irr):
        # three pools, prefixes of one nested pool: the largest n_rel signal
        # points, then the largest n_irr noise points, in blocks of chunk
        # points from index first, then one binomial increment per distinct
        # n_irr in ascending order; on 1 and 3 threads
        monkeypatch.setattr(estimators, "_BLOCK", chunk)
        first = 5
        for t, m in enumerate((0.0, 0.8, -1.3)):
            pools = [(m, n_rel, n_irr), (-1.3, n_irr, n_rel),
                     (m, n_rel // 2, n_irr + 40)]
            n_sig = max(rel for _, rel, _ in pools)
            n_all = n_sig + max(irr for *_, irr in pools)
            seed = _trial_seed(split_stream(91, t))
            got = []
            for threads in (1, 3):
                work = estimators.TrialWork(1, [(1, 1, 1.0)] * 3, threads)
                got.append(estimators._pool_sums(pools, 1.9, seed, first,
                                                 work))
            assert got[0] == got[1]
            normals = _block_normals(seed, first, n_all)
            levels = sorted({irr for *_, irr in pools})
            binomial_index = first + -(-n_all // chunk)
            heads = np.cumsum([
                split_stream(seed, binomial_index + j).binomial(hi - lo, 0.5)
                for j, (lo, hi) in enumerate(zip([0] + levels, levels))])
            for j, (mj, rel, irr) in enumerate(pools):
                points = np.concatenate([normals[:rel],
                                         normals[n_sig:n_sig + irr]])
                want_a, want_u = _reference_pool(mj, 1.9, rel, irr, points,
                                                 np.random.default_rng(t))
                agree, along, noise_agree = got[0][j]
                assert agree == want_a
                assert along == pytest.approx(want_u, rel=1e-12, abs=0.0)
                assert noise_agree == 2 * int(heads[levels.index(irr)]) - irr

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("alpha", [1.0, 0.25, 0.0])
    def test_draw_matches_decomposition(self, monkeypatch, chunk, alpha):
        # reference: theta_hat materialized, the pool per point with labels,
        # B from the binomial, final = (A/n) mu + (U/n) pi + c (z - pi^T z pi),
        # every normal read from the block layout
        monkeypatch.setattr(estimators, "_BLOCK", chunk)
        m = _random_mu_model()
        n, n_tilde = 3, 777
        n_rel = math.floor(alpha * n_tilde + 0.5)
        n_irr = n_tilde - n_rel
        blocks = -(-m.d // chunk)
        for t in range(3):
            stream, ref = split_stream(92, t), split_stream(92, t)
            draw = trial_draws(m, [(n, n_tilde, alpha)], stream)
            seed = _trial_seed(ref)
            theta_hat = (m.mu + (m.sigma / math.sqrt(n))
                         * _block_normals(seed, 0, m.d))
            pi = theta_hat / math.sqrt(float(np.sum(theta_hat * theta_hat)))
            a_sum, u_sum = _reference_pool(
                float(np.sum(m.mu * pi)), m.sigma, n_rel, n_irr,
                _block_normals(seed, 2 * blocks, n_tilde),
                np.random.default_rng(t))
            binomial = split_stream(
                seed, 2 * blocks + -(-n_tilde // chunk)).binomial(n_irr, 0.5)
            b_sum = 2 * int(binomial) - n_irr
            z = _block_normals(seed, blocks, m.d)
            c = m.sigma / math.sqrt(n_tilde)
            want = ((a_sum / n_tilde) * m.mu + (u_sum / n_tilde) * pi
                    + c * (z - float(np.sum(pi * z)) * pi))
            assert draw.agreements == ((a_sum + b_sum) / n_tilde,)
            got = draw.theta(m.mu)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert (repr(stream.bit_generator.state)
                    == repr(ref.bit_generator.state))

    def test_memory_does_not_grow_with_the_pool(self):
        # 10^7 pool points; arrays of per-point labels and projections
        # peak near 280 MB
        m = canonical_model(4, 64, 0.25)
        tracemalloc.start()
        try:
            res = fast_selftrain_sample(m, 4, 10**7, 0.5, split_stream(93, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert -1.0 <= res.pseudo_label_agreement <= 1.0
        assert peak < 2 * 2**20

"""Losses, regularizers, gradients, and the two-stage training pipeline."""

import dataclasses
import inspect
import math
import re
import warnings

import numpy as np
import pytest

from rstsim.estimators import sample_mixture
from rstsim.gaussian import LinearClassifier, canonical_model, sample_labeled
from rstsim.rst import (
    LogisticModel,
    _clamp_probs,
    _kl_vec,
    _pg_worst_batch,
    _sigmoid,
    RstConfig,
    adversarial_reg_exact,
    adversarial_reg_pg,
    kl_bernoulli,
    robust_objective,
    rst_train,
    smoothed_predict_exact,
    stability_reg,
    standard_loss,
    standard_train,
)
from rstsim.statkit import q_function, split_stream


def fd_gradient(f, theta, h=1e-5):
    g = np.zeros_like(theta)
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (f(up) - f(dn)) / (2 * h)
    return g


def assert_close_grad(analytic, numeric, rel):
    denom = max(float(np.sqrt(np.sum(analytic**2))), 1e-12)
    gap = float(np.sqrt(np.sum((analytic - numeric) ** 2)))
    assert gap / denom <= rel, f"gradient gap {gap/denom:.3e} > {rel}"


_POINT = np.array([0.5, 0.25])


def _unit():
    return LogisticModel(theta=np.array([1.0, -2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name, call", [
    pytest.param("epsilon", lambda v: adversarial_reg_exact(_unit(), _POINT, v),
                 id="adversarial_reg_exact"),
    pytest.param("epsilon", lambda v: adversarial_reg_pg(
        _unit(), _POINT, v, 3, 0.1, split_stream(1, 0)),
                 id="adversarial_reg_pg-epsilon"),
    pytest.param("step_size", lambda v: adversarial_reg_pg(
        _unit(), _POINT, 0.1, 3, v, split_stream(1, 0)),
                 id="adversarial_reg_pg-step_size"),
    pytest.param("noise_sigma", lambda v: stability_reg(
        _unit(), _POINT, v, 4, split_stream(1, 0)), id="stability_reg"),
    pytest.param("noise_sigma", lambda v: smoothed_predict_exact(
        _unit(), _POINT, v), id="smoothed_predict_exact"),
    pytest.param("learning_rate", lambda v: standard_train(
        np.eye(2), [1, -1], v, 3, 0, split_stream(1, 0)), id="standard_train"),
    *[pytest.param(field, lambda v, field=field: RstConfig(**{field: v}),
                   id=f"RstConfig-{field}")
      for field in ("beta", "w_unlabeled", "epsilon", "noise_sigma",
                    "pg_step_size", "learning_rate")]])
def test_non_finite_scalar_is_refused_by_name(name, call, bad):
    # each returned nan or trained on a nan rate before the shared check
    with pytest.raises(ValueError,
                       match=f"^{name} must be >=? 0 and finite, got {bad!r}$"):
        call(bad)


class TestLogisticModel:
    """A LogisticModel is the halfspace LinearClassifier, validated by it."""

    def test_is_a_frozen_linear_classifier(self):
        model = LogisticModel(theta=[1, -2])
        assert isinstance(model, LinearClassifier)
        assert model.theta.dtype == np.float64
        assert np.array_equal(model.theta, [1.0, -2.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.theta = np.ones(2)

    @pytest.mark.parametrize("theta, message", [
        (np.ones((2, 2)), "theta must be a 1-d vector with at least one entry"),
        (np.array([]), "theta must be a 1-d vector with at least one entry"),
        (np.array([1.0, np.nan, 0.0]), "theta must be finite"),
        (np.array([np.inf, 1.0]), "theta must be finite"),
        (np.array([1.0, -np.inf]), "theta must be finite"),
        (np.broadcast_to(np.inf, (5,)), "theta must be finite"),
    ])
    def test_rejects_what_a_linear_classifier_rejects(self, theta, message):
        for cls in (LinearClassifier, LogisticModel):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cls(theta=theta)


class TestStandardLoss:
    def test_zero_score_is_ln2(self):
        model = LogisticModel(theta=np.array([1.0, -2.0]))
        loss, _ = standard_loss(model, np.array([2.0, 1.0]), 1)
        assert loss == pytest.approx(math.log(2.0), rel=1e-15)

    def test_saturated_margin_no_overflow(self):
        model = LogisticModel(theta=np.array([50.0]))
        loss, _ = standard_loss(model, np.array([1.0]), 1)
        assert 0.0 <= loss <= 1e-20
        loss_bad, _ = standard_loss(model, np.array([-20.0]), 1)
        assert loss_bad == pytest.approx(1000.0, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        stream = split_stream(101, 0)
        for trial in range(10):
            theta = stream.standard_normal(5)
            x = stream.standard_normal(5)
            y = 1 if stream.integers(0, 2) else -1
            _, grad = standard_loss(LogisticModel(theta=theta), x, y)
            num = fd_gradient(lambda t: standard_loss(LogisticModel(theta=t), x, y)[0],
                              theta)
            assert_close_grad(grad, num, 1e-6)

    def test_rejects_bad_label(self):
        model = LogisticModel(theta=np.ones(2))
        with pytest.raises(ValueError):
            standard_loss(model, np.ones(2), 0)


class TestKlBernoulli:
    def test_equal_is_zero(self):
        assert kl_bernoulli(0.5, 0.5) == 0.0
        assert kl_bernoulli(0.137, 0.137) == 0.0

    def test_symmetric_around_half(self):
        for q in (0.1, 0.25, 0.77):
            assert kl_bernoulli(0.5, q) == pytest.approx(kl_bernoulli(0.5, 1 - q),
                                                         rel=1e-14)

    def test_frozen_value(self):
        # 0.9 ln 9 + 0.1 ln(1/9) = 0.8 ln 9
        assert kl_bernoulli(0.9, 0.1) == pytest.approx(0.8 * math.log(9.0),
                                                       rel=1e-13)

    def test_nonnegative(self):
        stream = split_stream(102, 0)
        for _ in range(200):
            p, q = stream.uniform(0, 1, size=2)
            assert kl_bernoulli(p, q) >= 0.0

    def test_clamped_at_saturation(self):
        v = kl_bernoulli(0.0, 1.0)
        assert math.isfinite(v) and v > 20.0


class TestAdversarialExact:
    def test_zero_epsilon(self):
        model = LogisticModel(theta=np.array([1.0, 2.0]))
        x = np.array([0.3, -0.4])
        val, worst = adversarial_reg_exact(model, x, 0.0)
        assert val == 0.0
        assert np.array_equal(worst, x)

    def test_tie_picks_negative_endpoint(self):
        # theta^T x = 0 makes both endpoints equally bad
        model = LogisticModel(theta=np.array([1.0, -3.0]))
        x = np.array([3.0, 1.0])
        eps = 0.2
        val, worst = adversarial_reg_exact(model, x, eps)
        assert val > 0.0
        assert np.array_equal(worst, x - eps * np.sign(model.theta))

    def test_value_is_kl_at_endpoint(self):
        stream = split_stream(103, 0)
        for _ in range(10):
            theta = stream.standard_normal(4)
            x = stream.standard_normal(4)
            model = LogisticModel(theta=theta)
            val, worst = adversarial_reg_exact(model, x, 0.3)
            p = 1 / (1 + math.exp(-float(theta @ x)))
            q = 1 / (1 + math.exp(-float(theta @ worst)))
            assert val == pytest.approx(kl_bernoulli(p, q), rel=1e-12)
            assert np.all(np.abs(worst - x) <= 0.3 + 1e-15)


class TestAdversarialPG:
    def test_one_big_step_reaches_corner(self):
        stream = split_stream(104, 0)
        theta = np.array([1.0, -2.0, 0.5])
        x = np.array([0.4, 0.1, -0.2])
        model = LogisticModel(theta=theta)
        eps = 0.25
        val, x_pg = adversarial_reg_pg(model, x, eps, 1, 10 * eps,
                                       split_stream(104, 1))
        assert np.all(np.abs(np.abs(x_pg - x) - eps) < 1e-15)
        exact, _ = adversarial_reg_exact(model, x, eps)
        assert val == pytest.approx(exact, rel=1e-10)
        del stream

    def test_never_exceeds_exact(self):
        stream = split_stream(105, 0)
        for t in range(20):
            theta = stream.standard_normal(6)
            x = stream.standard_normal(6)
            model = LogisticModel(theta=theta)
            exact, _ = adversarial_reg_exact(model, x, 0.2)
            approx, _ = adversarial_reg_pg(model, x, 0.2, 5, 0.01,
                                           split_stream(105, 10 + t))
            assert approx <= exact + 1e-15

    def test_long_run_matches_exact(self):
        stream = split_stream(106, 0)
        for t in range(20):
            theta = stream.standard_normal(8) * 2
            x = stream.standard_normal(8)
            model = LogisticModel(theta=theta)
            eps = 0.15
            exact, _ = adversarial_reg_exact(model, x, eps)
            approx, _ = adversarial_reg_pg(model, x, eps, 200, eps / 10,
                                           split_stream(106, 10 + t))
            assert abs(approx - exact) <= 1e-6 * max(exact, 1e-12)

    def test_deterministic(self):
        theta = np.array([0.5, 1.5])
        model = LogisticModel(theta=theta)
        x = np.array([1.0, -1.0])
        a = adversarial_reg_pg(model, x, 0.3, 20, 0.03, split_stream(107, 0))
        b = adversarial_reg_pg(model, x, 0.3, 20, 0.03, split_stream(107, 0))
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    @staticmethod
    def _reference_ascent(theta, xs, epsilon, steps, step_size, stream):
        # the iterated ascent: every step rebuilds the (b, d) step block and
        # masks the copy of the improved rows
        delta = stream.uniform(-epsilon, epsilon, size=xs.shape)
        lo, hi = xs - epsilon, xs + epsilon
        p = _clamp_probs(_sigmoid(np.einsum("ij,j->i", xs, theta)))
        best_val, best_x = np.full(xs.shape[0], -1.0), xs.copy()
        for start_sign in (1.0, -1.0):
            cur = xs + start_sign * delta
            for it in range(steps + 1):
                np.minimum(np.maximum(cur, lo, out=cur), hi, out=cur)
                q = _clamp_probs(_sigmoid(np.einsum("ij,j->i", cur, theta)))
                val = _kl_vec(p, q)
                better = val > best_val
                best_val = np.where(better, val, best_val)
                np.copyto(best_x, cur, where=better[:, None])
                if it == steps:
                    break
                cur += (step_size * np.sign(q - p))[:, None] * np.sign(theta)
        return best_val, best_x

    @staticmethod
    def _closed_form_ascent(theta, xs, epsilon, steps, step_size, stream):
        # each chain's last iterate in the problem's coordinates: the
        # start's step sign, one climb of steps * step_size and one clip to
        # the ball; the - chain replaces the + chain only where its KL is
        # strictly larger
        delta = stream.uniform(-epsilon, epsilon, size=xs.shape)
        p = _clamp_probs(_sigmoid(np.einsum("ij,j->i", xs, theta)))
        chains = []
        for start in (xs + delta, xs - delta):
            q = _clamp_probs(_sigmoid(np.einsum("ij,j->i", start, theta)))
            climb = (np.sign(q - p) * (steps * step_size))[:, None]
            end = np.clip(start + climb * np.sign(theta), xs - epsilon,
                          xs + epsilon)
            q = _clamp_probs(_sigmoid(np.einsum("ij,j->i", end, theta)))
            chains.append((_kl_vec(p, q), end))
        (plus_val, plus_x), (minus_val, minus_x) = chains
        take = minus_val > plus_val
        return (np.where(take, minus_val, plus_val),
                np.where(take[:, None], minus_x, plus_x))

    @staticmethod
    def _ascent_cases():
        # zero weights, zero radius, steps past the corner and q == p rows
        stream = split_stream(109, 0)
        for t in range(60):
            b, d = int(stream.integers(1, 30)), int(stream.integers(1, 12))
            theta = stream.standard_normal(d) * [0.0, 0.1, 3.0][t % 3]
            theta[stream.random(d) < 0.3] = 0.0
            xs = 2.0 * stream.standard_normal((b, d))
            eps = [0.0, 0.1, 0.5][t % 3 - 1]
            steps, step_size = int(stream.integers(1, 12)), [0.01, 0.3][t % 2]
            yield theta, xs, eps, steps, step_size, 100 + t

    def test_ascent_equals_the_reference(self):
        for *args, key in self._ascent_cases():
            want = self._closed_form_ascent(*args, split_stream(109, key))
            got = _pg_worst_batch(*args, [split_stream(109, key)])
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        # stacked problems, each against its own stream: a row sign or a
        # sign(theta) broadcast along the wrong axis shows here
        stream = split_stream(109, 1)
        for t in range(20):
            count = 2 + t % 2
            b, d = int(stream.integers(1, 30)), int(stream.integers(1, 12))
            theta = stream.standard_normal((count, d))
            theta[stream.random((count, d)) < 0.3] = 0.0
            theta[0] *= [0.0, 0.1, 3.0][t % 3]
            xs = 2.0 * stream.standard_normal((count, b, d))
            eps = [0.0, 0.1, 0.5][t % 3 - 1]
            steps, step_size = int(stream.integers(1, 12)), [0.01, 0.3][t % 2]
            keys = [300 + 3 * t + g for g in range(count)]
            got = _pg_worst_batch(theta, xs, eps, steps, step_size,
                                  [split_stream(109, k) for k in keys])
            for g, k in enumerate(keys):
                want = self._closed_form_ascent(theta[g], xs[g], eps, steps,
                                                step_size, split_stream(109, k))
                assert np.array_equal(got[0][g], want[0])
                assert np.array_equal(got[1][g], want[1])

    def test_steps_and_step_size_act_through_their_product(self):
        # the closed form reads only steps * step_size, the distance a
        # chain may travel
        stream = split_stream(115, 0)
        theta = stream.standard_normal((3, 7))
        theta[1, 3] = 0.0
        xs = 2.0 * stream.standard_normal((3, 25, 7))
        for count, th, x in ((3, theta, xs), (1, theta[0], xs[0])):
            runs = [_pg_worst_batch(th, x, 2.0, steps, step_size,
                                    [split_stream(115, 1 + g)
                                     for g in range(count)])
                    for steps, step_size in ((8, 0.125), (4, 0.25), (1, 1.0))]
            for vals, worst in runs[1:]:
                assert np.array_equal(vals, runs[0][0])
                assert np.array_equal(worst, runs[0][1])
        model = LogisticModel(theta=theta[2])
        runs = [adversarial_reg_pg(model, xs[2, 0], 2.0, steps, step_size,
                                   split_stream(115, 9))
                for steps, step_size in ((8, 0.125), (4, 0.25), (1, 1.0))]
        for val, worst in runs[1:]:
            assert val == runs[0][0]
            assert np.array_equal(worst, runs[0][1])

    def test_ascent_matches_the_iterated_chains(self):
        # one climb of steps * step_size rounds differently from steps
        # climbs of step_size, and nothing else differs
        for *args, key in self._ascent_cases():
            want = self._reference_ascent(*args, split_stream(109, key))
            got = _pg_worst_batch(*args, [split_stream(109, key)])
            np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)

    def test_values_do_not_decrease_with_the_step_count(self):
        # the closed form's premise: with the package's sigmoid a longer
        # chain ends no lower, for one problem and for stacked problems
        stream = split_stream(110, 0)
        theta = stream.standard_normal((3, 6))
        theta[1, 2] = 0.0
        xs = 2.0 * stream.standard_normal((3, 40, 6))
        for th, x, count in ((theta[0], xs[0], 1), (theta, xs, 3)):
            vals = np.array([_pg_worst_batch(
                th, x, 0.5, steps, 0.05,
                [split_stream(110, 1 + g) for g in range(count)])[0]
                for steps in range(1, 13)])
            assert np.all(np.diff(vals, axis=0) >= 0.0)

    def test_rejects_bad_arguments(self):
        model = LogisticModel(theta=np.ones(2))
        with pytest.raises(ValueError):
            adversarial_reg_pg(model, np.ones(2), -0.1, 5, 0.01, split_stream(108, 0))
        with pytest.raises(ValueError):
            adversarial_reg_pg(model, np.ones(2), 0.1, 0, 0.01, split_stream(108, 1))
        with pytest.raises(ValueError):
            adversarial_reg_pg(model, np.ones(2), 0.1, 5, 0.0, split_stream(108, 2))


class TestStabilityReg:
    def test_zero_noise_is_zero(self):
        model = LogisticModel(theta=np.array([1.0, 2.0]))
        val, grad = stability_reg(model, np.array([0.5, -0.5]), 0.0, 10,
                                  split_stream(111, 0))
        assert val == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_zero_theta_is_zero(self):
        model = LogisticModel(theta=np.zeros(3))
        val, _ = stability_reg(model, np.ones(3), 1.0, 50, split_stream(111, 1))
        assert val == 0.0

    def test_one_d_quadrature_oracle(self):
        from scipy.integrate import quad

        def integrand(z):
            q = 1 / (1 + math.exp(-z))
            return kl_bernoulli(0.5, q) * math.exp(-z * z / 2) / math.sqrt(2 * math.pi)

        target, quad_err = quad(integrand, -12, 12)
        assert quad_err < 1e-10
        model = LogisticModel(theta=np.array([1.0]))
        n = 1_000_000
        val, _ = stability_reg(model, np.array([0.0]), 1.0, n, split_stream(112, 0))
        # crude se bound: per-sample variance of KL(0.5 || sigmoid(z)) is finite
        draws = split_stream(112, 0).standard_normal(n)
        sd = float(np.std([kl_bernoulli(0.5, 1 / (1 + math.exp(-z)))
                           for z in draws[:20000]], ddof=1))
        assert abs(val - target) <= 3 * sd / math.sqrt(n)

    def test_gradient_matches_finite_differences(self):
        x = np.array([0.3, -0.7, 0.2])
        for t in range(5):
            theta = split_stream(113, t).standard_normal(3)

            def f(th):
                return stability_reg(LogisticModel(theta=th), x, 0.8, 40,
                                     split_stream(114, t))[0]

            _, grad = stability_reg(LogisticModel(theta=theta), x, 0.8, 40,
                                    split_stream(114, t))
            assert_close_grad(grad, fd_gradient(f, theta), 1e-5)


class TestRobustObjective:
    def _data(self, seed, n=8, d=5):
        stream = split_stream(seed, 0)
        xs = stream.standard_normal((n, d))
        ys = 2.0 * stream.integers(0, 2, size=n) - 1.0
        weights = np.concatenate([np.ones(n // 2), np.full(n - n // 2, 0.7)])
        theta = stream.standard_normal(d)
        return theta, xs, ys, weights

    def test_exact_gradient_matches_fd(self):
        cfg = RstConfig(beta=2.5, epsilon=0.3, reg_kind="adversarial_exact")
        for seed in (120, 121, 122):
            theta, xs, ys, w = self._data(seed)
            val, grad = robust_objective(theta, xs, ys, w, cfg)
            assert val > 0
            num = fd_gradient(lambda t: robust_objective(t, xs, ys, w, cfg)[0], theta)
            assert_close_grad(grad, num, 1e-5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_total_is_refused(self, bad):
        # one such weight made the value and gradient nan
        theta, xs, ys, w = self._data(125)
        w[3] = bad
        cfg = RstConfig(beta=1.0, epsilon=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive, finite total"):
                robust_objective(theta, xs, ys, w, cfg)
            with pytest.raises(ValueError, match="positive, finite total"):
                robust_objective(np.stack([theta, theta]), np.stack([xs, xs]),
                                 np.stack([ys, ys]),
                                 np.stack([np.ones_like(w), w]), cfg)

    def test_pg_gradient_matches_fd(self):
        cfg = RstConfig(beta=1.5, epsilon=0.25, reg_kind="adversarial_pg",
                        pg_steps=40, pg_step_size=0.05)
        for seed in (123, 124):
            theta, xs, ys, w = self._data(seed)

            def f(t):
                return robust_objective(t, xs, ys, w, cfg, split_stream(500, seed))[0]

            _, grad = robust_objective(theta, xs, ys, w, cfg, split_stream(500, seed))
            assert_close_grad(grad, fd_gradient(f, theta), 1e-5)

    def test_stability_gradient_matches_fd(self):
        cfg = RstConfig(beta=2.0, noise_sigma=0.9, noise_samples=7,
                        reg_kind="stability")
        for seed in (125, 126):
            theta, xs, ys, w = self._data(seed)

            def f(t):
                return robust_objective(t, xs, ys, w, cfg, split_stream(501, seed))[0]

            _, grad = robust_objective(theta, xs, ys, w, cfg, split_stream(501, seed))
            assert_close_grad(grad, fd_gradient(f, theta), 1e-5)

    @pytest.mark.parametrize("seed", range(130, 135))
    @pytest.mark.parametrize("kind", ["adversarial_exact", "adversarial_pg",
                                      "stability"])
    def test_equals_the_weighted_references(self, kind, seed):
        # sum_i w_i (standard_loss_i + beta reg_i) / sum_i w_i, the
        # references drawing from a second copy of the stream: pg one
        # (1, d) start per example, stability one (k, d) block per example
        cfg = RstConfig(beta=2.0, epsilon=0.3, noise_sigma=0.9,
                        noise_samples=3, pg_steps=10, pg_step_size=0.05,
                        reg_kind=kind)
        theta, xs, ys, w = self._data(seed, n=7)
        stream, ref_stream = split_stream(502, seed), split_stream(502, seed)
        value, grad = robust_objective(theta, xs, ys, w, cfg, stream)
        model = LogisticModel(theta=theta)
        total, ref_grad = 0.0, np.zeros_like(theta)
        for x, y, weight in zip(xs, ys, w):
            loss, loss_grad = standard_loss(model, x, int(y))
            if kind == "adversarial_exact":
                reg, _ = adversarial_reg_exact(model, x, cfg.epsilon)
            elif kind == "adversarial_pg":
                reg, _ = adversarial_reg_pg(model, x, cfg.epsilon, cfg.pg_steps,
                                            cfg.pg_step_size, ref_stream)
            else:
                reg, reg_grad = stability_reg(model, x, cfg.noise_sigma,
                                              cfg.noise_samples, ref_stream)
                ref_grad += weight * (loss_grad + cfg.beta * reg_grad)
            total += weight * (loss + cfg.beta * reg)
        assert value == pytest.approx(total / np.sum(w), rel=1e-13, abs=0)
        assert stream.random() == ref_stream.random()
        if kind == "stability":
            assert_close_grad(grad, ref_grad / np.sum(w), 1e-13)

    def test_weight_scaling_invariance(self):
        cfg = RstConfig(beta=1.0, epsilon=0.2)
        theta, xs, ys, w = self._data(127)
        v1, g1 = robust_objective(theta, xs, ys, w, cfg)
        v2, g2 = robust_objective(theta, xs, ys, 3.0 * w, cfg)
        assert v1 == pytest.approx(v2, rel=1e-14)
        assert np.allclose(g1, g2, rtol=1e-13, atol=0)

    def test_beta_zero_is_plain_logistic(self):
        cfg = RstConfig(beta=0.0, epsilon=0.4)
        theta, xs, ys, w = self._data(128)
        val, _ = robust_objective(theta, xs, ys, np.ones_like(w), cfg)
        direct = float(np.mean(np.logaddexp(0.0, -ys * (xs @ theta))))
        assert val == pytest.approx(direct, rel=1e-14)


class TestTraining:
    def test_standard_train_separable_data(self):
        # big-margin noiseless points: training error must reach 0
        d = 6
        ys = np.array([1, -1, 1, -1, 1, -1, 1, -1])
        xs = ys[:, None] * np.full(d, 3.0)
        theta = standard_train(xs, ys, 0.5, 200, 0, split_stream(131, 0))
        preds = np.where(xs @ theta >= 0, 1, -1)
        assert np.array_equal(preds, ys)

    def test_stage_one_cannot_see_regularizers(self):
        params = set(inspect.signature(standard_train).parameters)
        assert params == {"xs", "ys", "learning_rate", "grad_steps",
                          "batch_size", "stream", "n_rows"}

    def test_rst_beta_zero_full_batch_loss_nonincreasing(self):
        m = canonical_model(8, 10, 0.2)
        stream = split_stream(132, 0)
        labeled = sample_labeled(m, 40, stream)
        # normalize inputs so lr = 1e-3 is in the stable range
        xs = labeled.xs / np.max(np.abs(labeled.xs))
        cfg = RstConfig(beta=0.0, learning_rate=1e-3, grad_steps=50, batch_size=0)
        _, trace = rst_train(xs, labeled.ys, np.ones(40), 40, cfg,
                             split_stream(132, 1))
        assert trace.shape == (50,)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_rst_matches_manual_step(self):
        # one full-batch step must be exactly theta_1 = -lr * grad at zero
        m = canonical_model(4, 6, 0.25)
        stream = split_stream(133, 0)
        labeled = sample_labeled(m, 5, stream)
        pool, _ = sample_mixture(m, 7, 1.0, stream)
        pseudo = np.where(pool.xs @ np.ones(6) >= 0, 1, -1)
        cfg = RstConfig(beta=2.0, epsilon=0.2, w_unlabeled=0.5,
                        learning_rate=0.01, grad_steps=1, batch_size=0)
        xs = np.concatenate([labeled.xs, pool.xs])
        ys = np.concatenate([labeled.ys, pseudo]).astype(float)
        w = np.concatenate([np.ones(5), np.full(7, 0.5)])
        theta, _ = rst_train(xs, ys, w, 5, cfg, split_stream(133, 1))
        _, grad = robust_objective(np.zeros(6), xs, ys, w, cfg)
        assert np.allclose(theta, -0.01 * grad, rtol=0, atol=0)

    def test_equal_parts_batch_composition(self):
        # with one row per part every batch is forced to [labeled, unlabeled]
        cfg = RstConfig(beta=0.0, w_unlabeled=0.3, learning_rate=0.1,
                        grad_steps=1, batch_size=2, equal_parts_batches=True)
        xs = np.array([[1.0, 0.0], [0.0, 2.0]])
        ys = np.array([1.0, -1.0])
        w = np.array([1.0, 0.3])
        theta, _ = rst_train(xs, ys, w, 1, cfg, split_stream(134, 0))
        _, grad = robust_objective(np.zeros(2), xs, ys, w, cfg)
        assert np.allclose(theta, -0.1 * grad, rtol=0, atol=0)

    def test_equal_parts_requires_unlabeled(self):
        cfg = RstConfig(batch_size=4, equal_parts_batches=True)
        with pytest.raises(ValueError):
            rst_train(np.ones((2, 2)), np.array([1, -1]), np.ones(2), 2, cfg,
                      split_stream(135, 0))

    def test_rejects_empty_labeled(self):
        empty = np.zeros((0, 2))
        with pytest.raises(ValueError):
            rst_train(empty, np.zeros(0), np.zeros(0), 0, RstConfig(),
                      split_stream(136, 0))
        with pytest.raises(ValueError):
            rst_train(np.ones((2, 2)), np.array([1, -1]), np.ones(2), 0,
                      RstConfig(), split_stream(136, 0))
        with pytest.raises(ValueError):
            standard_train(empty, np.zeros(0), 0.1, 10, 0, split_stream(136, 1))

    def test_rejects_bad_pseudo_labels(self):
        xs, w = np.ones((4, 2)), np.ones(4)
        with pytest.raises(ValueError):
            rst_train(xs, np.array([1, -1, 1, 0]), w, 2, RstConfig(),
                      split_stream(137, 0))
        with pytest.raises(ValueError):
            rst_train(xs, np.array([1, -1, 1]), w, 2, RstConfig(),
                      split_stream(137, 1))
        # rows past n_rows are not read
        theta, _ = rst_train(xs, np.array([1, -1, 1, 0]), w, 2, RstConfig(),
                             split_stream(137, 2), n_rows=3)
        assert np.all(np.isfinite(theta))

    def test_rejects_a_stream_count_other_than_the_problem_count(self):
        xs, ys, weights = _stacked(_problems(2), 1.0)
        with pytest.raises(ValueError, match="one stream per problem"):
            rst_train(xs, ys, weights, 5, RstConfig(), _streams(3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RstConfig(beta=-1.0)
        with pytest.raises(ValueError):
            RstConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            RstConfig(reg_kind="something_else")


REG_KINDS = ("adversarial_exact", "adversarial_pg", "stability")


def _problems(count, n=5, n_tilde=9, d=6, seed=140):
    """count same-shape problems: (labeled set, pool, pseudo-labels)."""
    m = canonical_model(4, d, 0.2)
    out = []
    for g in range(count):
        stream = split_stream(seed, g)
        labeled = sample_labeled(m, n, stream)
        pool, _ = sample_mixture(m, n_tilde, 0.75, stream)
        pseudo = np.where(stream.standard_normal(n_tilde) >= 0, 1, -1)
        out.append((labeled, pool, pseudo))
    return out


def _stacked(problems, w_unlabeled):
    """The (G, n + n~, d) row buffer, labeled rows first, labels, weights."""
    n = problems[0][0].n
    xs = np.stack([np.concatenate([lab.xs, pool.xs])
                   for lab, pool, _ in problems])
    ys = np.stack([np.concatenate([lab.ys, pseudo]).astype(float)
                   for lab, _, pseudo in problems])
    weights = np.full(ys.shape, w_unlabeled)
    weights[:, :n] = 1.0
    return xs, ys, weights


def _streams(count, seed=150):
    return [split_stream(seed, g) for g in range(count)]


def _states(streams):
    return [repr(s.bit_generator.state) for s in streams]


class TestLockstep:
    """G problems stepped together equal G one-problem runs, exactly."""

    @pytest.mark.parametrize("kind", REG_KINDS)
    @pytest.mark.parametrize("beta", [0.0, 2.0])
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_stacked_objective_equals_per_problem_calls(self, kind, beta,
                                                        count):
        stream = split_stream(141, count)
        thetas = stream.standard_normal((count, 7))
        xs = 2.0 * stream.standard_normal((count, 11, 7))
        ys = np.where(stream.random((count, 11)) < 0.5, 1.0, -1.0)
        weights = 0.5 + stream.random((count, 11))
        cfg = RstConfig(beta=beta, epsilon=0.3, reg_kind=kind,
                        noise_samples=3, pg_steps=4, pg_step_size=0.05)
        stacked = _streams(count)
        values, grads = robust_objective(thetas, xs, ys, weights, cfg, stacked)
        assert values.shape == (count,) and grads.shape == (count, 7)
        single = _streams(count)
        for g in range(count):
            value, grad = robust_objective(thetas[g], xs[g], ys[g],
                                           weights[g], cfg, single[g])
            assert isinstance(value, float) and grad.shape == (7,)
            assert value == values[g]
            assert np.array_equal(grad, grads[g])
        assert _states(stacked) == _states(single)

    def test_pg_work_arrays_do_not_change_results(self):
        # one work dict across calls and shapes, as a trainer keeps it
        cfg = RstConfig(beta=2.0, epsilon=0.3, reg_kind="adversarial_pg",
                        pg_steps=4, pg_step_size=0.05)
        work = {}
        for t, (count, b) in enumerate([(3, 11), (3, 11), (2, 7), (3, 11)]):
            stream = split_stream(142, t)
            thetas = stream.standard_normal((count, 7))
            thetas[0, 3] = 0.0
            xs = 2.0 * stream.standard_normal((count, b, 7))
            ys = np.where(stream.random((count, b)) < 0.5, 1.0, -1.0)
            weights = 0.5 + stream.random((count, b))
            got = robust_objective(thetas, xs, ys, weights, cfg,
                                   _streams(count), work)
            want = robust_objective(thetas, xs, ys, weights, cfg,
                                    _streams(count))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        assert work

    @pytest.mark.parametrize("kind", REG_KINDS)
    @pytest.mark.parametrize("batch_size,equal_parts",
                             [(0, False), (4, False), (4, True), (5, True)])
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_rst_lockstep_equals_rst_train(self, kind, batch_size,
                                           equal_parts, count):
        problems = _problems(count)
        n, n_rows = problems[0][0].n, 14
        cfg = RstConfig(beta=2.0, w_unlabeled=0.6, epsilon=0.2,
                        learning_rate=0.05, grad_steps=6,
                        batch_size=batch_size, reg_kind=kind,
                        equal_parts_batches=equal_parts, noise_samples=2,
                        pg_steps=3)
        xs, ys, weights = _stacked(problems, cfg.w_unlabeled)
        arms = [n_rows] if equal_parts else [n_rows, n]
        for rows in arms:
            stacked = _streams(count)
            thetas, traces = rst_train(xs, ys, weights, n, cfg, stacked,
                                       n_rows=rows)
            single = _streams(count)
            for g in range(count):
                # the problem alone, on a buffer of just its rows
                theta, trace = rst_train(xs[g, :rows], ys[g, :rows],
                                         weights[g, :rows], n, cfg, single[g])
                assert np.array_equal(theta, thetas[g])
                assert np.array_equal(trace, traces[g])
            assert _states(stacked) == _states(single)

    @pytest.mark.parametrize("batch_size", [0, 3])
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_standard_lockstep_equals_standard_train(self, batch_size, count):
        # the labeled rows are the first n of a longer buffer
        problems = _problems(count)
        xs, ys, _ = _stacked(problems, 1.0)
        stacked = _streams(count)
        thetas = standard_train(xs, ys, 0.1, 7, batch_size, stacked, n_rows=5)
        single = _streams(count)
        for g, (labeled, _, _) in enumerate(problems):
            theta = standard_train(labeled.xs, labeled.ys, 0.1, 7, batch_size,
                                   single[g])
            assert np.array_equal(theta, thetas[g])
        assert _states(stacked) == _states(single)

    def test_equal_parts_needs_unlabeled_rows(self):
        xs, ys, weights = _stacked(_problems(2), 1.0)
        cfg = RstConfig(batch_size=4, equal_parts_batches=True)
        with pytest.raises(ValueError, match="unlabeled rows"):
            rst_train(xs, ys, weights, 5, cfg, _streams(2), n_rows=5)

    def test_equal_parts_needs_a_batch_of_two(self):
        xs, ys, weights = _stacked(_problems(2), 1.0)
        cfg = RstConfig(batch_size=1, equal_parts_batches=True)
        with pytest.raises(ValueError, match="^batch_size with equal_parts_"
                           "batches must be >= 2, got 1$"):
            rst_train(xs, ys, weights, 5, cfg, _streams(2))

    def test_objective_rejects_mismatched_stacking(self):
        cfg = RstConfig()
        with pytest.raises(ValueError):
            robust_objective(np.zeros((2, 3)), np.zeros((4, 3)), np.ones(4),
                             np.ones(4), cfg)
        with pytest.raises(ValueError):
            robust_objective(np.zeros((2, 3)), np.zeros((3, 4, 3)),
                             np.ones((3, 4)), np.ones((3, 4)), cfg)


def _per_step_training(xs, ys, weights, n_labeled, n_rows, config, stream,
                       stage_one=False):
    """One problem trained step by step on batch indices all drawn before
    the first step: rst_train's loop written out, or stage one's with
    stage_one."""
    theta, trace = np.zeros(xs.shape[1]), []
    b, half = config.batch_size, config.batch_size // 2
    if config.equal_parts_batches:
        batches = [np.concatenate([
            stream.integers(0, n_labeled, size=b - half),
            n_labeled + stream.integers(0, n_rows - n_labeled, size=half)])
            for _ in range(config.grad_steps)]
    else:
        batches = stream.integers(0, n_rows, size=(config.grad_steps, b))
    for idx in batches:
        bx, by = xs[idx], ys[idx]
        if stage_one:
            c = -by * _sigmoid(-by * np.einsum("ij,j->i", bx, theta))
            theta = theta - config.learning_rate * np.einsum(
                "i,ij->j", c, bx) / b
            continue
        value, grad = robust_objective(theta, bx, by, weights[idx], config,
                                       stream)
        trace.append(value)
        theta = theta - config.learning_rate * grad
    return theta, np.array(trace)


class TestHoistedBatches:
    """Every training draws its batches before the first step, and the pg
    and stability updates at beta > 0 then draw at each step: the trainers
    equal that loop written out, with the same parameters, traces and
    final stream states."""

    @pytest.mark.parametrize("beta,kind,equal_parts", [
        (2.0, "adversarial_exact", False),
        (2.0, "adversarial_exact", True),
        (0.0, "adversarial_pg", False),
        (0.0, "stability", True),
        (2.0, "adversarial_pg", False),
        (2.0, "stability", False),
        (2.0, "adversarial_pg", True),
    ])
    @pytest.mark.parametrize("batch_size", [4, 5])
    def test_rst_equals_the_per_step_loop(self, beta, kind, equal_parts,
                                          batch_size):
        problems = _problems(3)
        cfg = RstConfig(beta=beta, w_unlabeled=0.6, epsilon=0.2,
                        learning_rate=0.05, grad_steps=9,
                        batch_size=batch_size, reg_kind=kind,
                        equal_parts_batches=equal_parts)
        xs, ys, weights = _stacked(problems, cfg.w_unlabeled)
        stacked = _streams(3)
        thetas, traces = rst_train(xs, ys, weights, 5, cfg, stacked)
        single = _streams(3)
        for g in range(3):
            theta, trace = _per_step_training(xs[g], ys[g], weights[g], 5, 14,
                                              cfg, single[g])
            assert np.array_equal(theta, thetas[g])
            assert np.array_equal(trace, traces[g])
        assert _states(stacked) == _states(single)

    @pytest.mark.parametrize("batch_size", [3, 64])
    def test_stage_one_equals_the_per_step_loop(self, batch_size):
        problems = _problems(3)
        xs, ys, _ = _stacked(problems, 1.0)
        stacked = _streams(3)
        thetas = standard_train(xs, ys, 0.1, 11, batch_size, stacked, n_rows=5)
        cfg = RstConfig(learning_rate=0.1, grad_steps=11,
                        batch_size=batch_size)
        single = _streams(3)
        for g in range(3):
            theta, _ = _per_step_training(xs[g], ys[g], None, 5, 5, cfg,
                                          single[g], stage_one=True)
            assert np.array_equal(theta, thetas[g])
        assert _states(stacked) == _states(single)


class TestSmoothedPredictExact:
    def test_zero_score(self):
        model = LogisticModel(theta=np.array([1.0, -1.0]))
        label, p = smoothed_predict_exact(model, np.array([1.0, 1.0]), 0.5)
        assert label == 1
        assert p == 0.5

    def test_unit_ratio_frozen(self):
        model = LogisticModel(theta=np.array([1.0]))
        label, p = smoothed_predict_exact(model, np.array([0.25]), 0.25)
        assert label == 1
        assert p == pytest.approx(1.0 - q_function(1.0), rel=1e-12)
        assert p == pytest.approx(0.8413447460685429, rel=1e-12)

    def test_label_is_score_sign(self):
        stream = split_stream(141, 0)
        for _ in range(20):
            theta = stream.standard_normal(4)
            x = stream.standard_normal(4)
            label, p = smoothed_predict_exact(LogisticModel(theta=theta), x, 1.3)
            expected = 1 if float(theta @ x) >= 0 else -1
            assert label == expected
            assert p >= 0.5

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            smoothed_predict_exact(LogisticModel(theta=np.zeros(2)), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            smoothed_predict_exact(LogisticModel(theta=np.ones(2)), np.ones(2), 0.0)

"""Robust self-training for binary linear logistic models.

The trainable objective is the standard logistic loss plus beta times a
prediction-stability regularizer, evaluated per example and averaged with
per-example weights (weight 1 on labeled rows, a configurable weight on
pseudo-labeled rows). Three regularizers are provided: the exact worst-case
KL over an l-infinity ball (closed form for linear scores), a projected
gradient ascent approximation of the same quantity, and a Gaussian noise
stability penalty. Training is plain minibatch SGD from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import LabeledSet
from .estimators import UnlabeledSet
from .statkit import RngStream, gaussian_cdf

_CLAMP = 1e-12
_REG_KINDS = ("adversarial_exact", "adversarial_pg", "stability")


def _sigmoid(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    e = np.exp(-np.abs(s))
    return np.where(s >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _clamp_probs(p: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(p, _CLAMP), 1.0 - _CLAMP)


def _sigmoid_pair(a: float) -> tuple[float, float]:
    # (sigmoid(a), sigmoid(-a)) from one exponential, so negating the
    # score swaps the pair bitwise; a score of zero then yields exactly
    # tied endpoint KLs instead of ulp-level asymmetry
    if a >= 0:
        t = math.exp(-a)
        den = 1.0 + t
        return 1.0 / den, t / den
    t = math.exp(a)
    den = 1.0 + t
    return t / den, 1.0 / den


def _kl_from_pairs(p: float, omp: float, q: float, omq: float) -> float:
    pc = min(max(p, _CLAMP), 1.0 - _CLAMP)
    ompc = min(max(omp, _CLAMP), 1.0 - _CLAMP)
    qc = min(max(q, _CLAMP), 1.0 - _CLAMP)
    omqc = min(max(omq, _CLAMP), 1.0 - _CLAMP)
    return pc * math.log(pc / qc) + ompc * math.log(ompc / omqc)


def _kl_vec(pc: np.ndarray, qc: np.ndarray) -> np.ndarray:
    # both arguments already clamped away from {0, 1}
    return pc * np.log(pc / qc) + (1.0 - pc) * np.log((1.0 - pc) / (1.0 - qc))


@dataclass(frozen=True)
class LogisticModel:
    """Binary logistic model p(y=+1|x) = sigmoid(theta^T x)."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 1 or theta.size < 1:
            raise ValueError("theta must be a 1-d vector with at least one entry")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", theta)

    def prob_positive(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        scores = np.einsum("ij,j->i", np.atleast_2d(xs), self.theta)
        return _sigmoid(scores)


@dataclass(frozen=True)
class RstConfig:
    """Hyperparameters for robust training.

    batch_size = 0 selects deterministic full-batch gradient descent.
    equal_parts_batches composes each minibatch from half labeled and half
    pseudo-labeled rows instead of sampling the concatenated pool.
    """

    beta: float = 1.0
    w_unlabeled: float = 1.0
    epsilon: float = 0.1
    noise_sigma: float = 1.0
    noise_samples: int = 1
    pg_steps: int = 10
    pg_step_size: float = 0.01
    learning_rate: float = 1e-3
    grad_steps: int = 100
    batch_size: int = 0
    reg_kind: str = "adversarial_exact"
    equal_parts_batches: bool = False

    def __post_init__(self):
        if self.beta < 0 or self.w_unlabeled < 0:
            raise ValueError("beta and w_unlabeled must be nonnegative")
        if self.epsilon < 0 or self.noise_sigma < 0:
            raise ValueError("epsilon and noise_sigma must be nonnegative")
        if self.noise_samples < 1 or self.pg_steps < 1:
            raise ValueError("noise_samples and pg_steps must be >= 1")
        if self.pg_step_size <= 0 or self.learning_rate <= 0:
            raise ValueError("pg_step_size and learning_rate must be positive")
        if self.grad_steps < 1 or self.batch_size < 0:
            raise ValueError("grad_steps must be >= 1 and batch_size >= 0")
        if self.reg_kind not in _REG_KINDS:
            raise ValueError(f"reg_kind must be one of {_REG_KINDS}")


@dataclass(frozen=True)
class RstTrainResult:
    """Final parameters plus the objective value recorded before each update."""

    model: LogisticModel
    loss_trace: np.ndarray


def standard_loss(model: LogisticModel, x, y: int) -> tuple[float, np.ndarray]:
    """Logistic loss log(1 + exp(-y theta^T x)) and its theta-gradient."""
    if y not in (-1, 1):
        raise ValueError(f"label must be +-1, got {y!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.theta.shape:
        raise ValueError("x and theta dimensions differ")
    s = float(np.sum(model.theta * x))
    loss = float(np.logaddexp(0.0, -y * s))
    grad = (-y * float(_sigmoid(np.array(-y * s)))) * x
    return loss, grad


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q).

    Both probabilities are clamped to [1e-12, 1 - 1e-12] first, so saturated
    inputs give large finite values instead of infinities.
    """
    pc = min(max(float(p), _CLAMP), 1.0 - _CLAMP)
    qc = min(max(float(q), _CLAMP), 1.0 - _CLAMP)
    return pc * math.log(pc / qc) + (1.0 - pc) * math.log((1.0 - pc) / (1.0 - qc))


def adversarial_reg_exact(model: LogisticModel, x,
                          epsilon: float) -> tuple[float, np.ndarray]:
    """Worst-case prediction KL over the l-infinity ball, solved exactly.

    The perturbed score for a linear model ranges over
    [s - eps ||theta||_1, s + eps ||theta||_1], and the KL to the unperturbed
    prediction grows as the score moves away from s, so the maximum sits at
    one of the two extreme points x -+ eps sign(theta). Returns the larger
    KL and its achieving perturbation; ties pick the -sign(theta) endpoint.
    """
    epsilon = float(epsilon)
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.theta.shape:
        raise ValueError("x and theta dimensions differ")
    theta = model.theta
    s = float(np.sum(theta * x))
    shift = epsilon * float(np.sum(np.abs(theta)))
    p, omp = _sigmoid_pair(s)
    q_hi, omq_hi = _sigmoid_pair(s + shift)
    q_lo, omq_lo = _sigmoid_pair(s - shift)
    kl_hi = _kl_from_pairs(p, omp, q_hi, omq_hi)
    kl_lo = _kl_from_pairs(p, omp, q_lo, omq_lo)
    sgn = np.sign(theta)
    if kl_hi > kl_lo:
        return kl_hi, x + epsilon * sgn
    return kl_lo, x - epsilon * sgn


def _pg_worst_batch(theta: np.ndarray, xs: np.ndarray, epsilon: float,
                    steps: int, step_size: float,
                    stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Best-iterate PG ascent on the prediction KL, one row per example.

    Draws a single uniform perturbation per example and runs one ascent
    chain from each of the two antithetic starts x + delta and x - delta;
    a lone chain only ever climbs toward the extreme point on its own side
    of the clean score, so the pair is what finds the global one. Steps are
    sign steps of the x'-gradient (q - p) theta followed by projection onto
    the ball. Returns (best KL values, best iterates).
    """
    b, d = xs.shape
    delta = stream.uniform(-epsilon, epsilon, size=(b, d))
    lo, hi = xs - epsilon, xs + epsilon
    p = _clamp_probs(_sigmoid(np.einsum("ij,j->i", xs, theta)))
    sgn_theta = np.sign(theta)
    best_val = np.full(b, -1.0)
    best_x = xs.copy()
    for start_sign in (1.0, -1.0):
        cur = xs + start_sign * delta
        for it in range(steps + 1):
            # project onto the ball in place, in np.clip's order
            np.minimum(np.maximum(cur, lo, out=cur), hi, out=cur)
            q = _clamp_probs(_sigmoid(np.einsum("ij,j->i", cur, theta)))
            val = _kl_vec(p, q)
            better = val > best_val
            best_val = np.where(better, val, best_val)
            np.copyto(best_x, cur, where=better[:, None])
            if it == steps:
                break
            cur += (step_size * np.sign(q - p))[:, None] * sgn_theta
    return best_val, best_x


def adversarial_reg_pg(model: LogisticModel, x, epsilon: float, steps: int,
                       step_size: float,
                       stream: RngStream) -> tuple[float, np.ndarray]:
    """Projected gradient ascent approximation of adversarial_reg_exact.

    Always a lower bound on the exact value since every iterate stays in
    the ball. Draw order: one uniform (1, d) start offset.
    """
    epsilon = float(epsilon)
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    step_size = float(step_size)
    if step_size <= 0:
        raise ValueError(f"step_size must be positive, got {step_size}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.theta.shape:
        raise ValueError("x and theta dimensions differ")
    vals, worst = _pg_worst_batch(model.theta, x[None, :], epsilon, steps,
                                  step_size, stream)
    return float(vals[0]), worst[0]


def stability_reg(model: LogisticModel, x, noise_sigma: float, n_noise: int,
                  stream: RngStream) -> tuple[float, np.ndarray]:
    """Monte Carlo noise-stability penalty and its theta-gradient.

    Averages kl_bernoulli(p(.|x), p(.|x + noise)) over n_noise Gaussian
    draws. The gradient differentiates through both KL arguments of each
    sampled term, holding the noise fixed; clamped probabilities contribute
    zero through the clamped argument.
    """
    noise_sigma = float(noise_sigma)
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    n_noise = int(n_noise)
    if n_noise < 1:
        raise ValueError(f"n_noise must be >= 1, got {n_noise}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.theta.shape:
        raise ValueError("x and theta dimensions differ")
    theta = model.theta
    noisy = x[None, :] + noise_sigma * stream.standard_normal((n_noise, x.size))
    p_raw = float(_sigmoid(np.array(float(np.sum(theta * x)))))
    q_raw = _sigmoid(np.einsum("ij,j->i", noisy, theta))
    pc, qc = _clamp_probs(np.array(p_raw)), _clamp_probs(q_raw)
    value = float(np.mean(_kl_vec(pc, qc)))
    dkl_dp = np.log(pc / qc) - np.log((1.0 - pc) / (1.0 - qc))
    p_free = 1.0 if _CLAMP < p_raw < 1.0 - _CLAMP else 0.0
    q_free = ((q_raw > _CLAMP) & (q_raw < 1.0 - _CLAMP)).astype(np.float64)
    grad = (float(np.mean(dkl_dp)) * p_raw * (1.0 - p_raw) * p_free) * x
    coef_q = (qc - pc) * q_free / n_noise
    grad = grad + np.einsum("i,ij->j", coef_q, noisy)
    return value, grad


def robust_objective(theta: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     weights: np.ndarray, config: RstConfig,
                     stream: RngStream | None = None) -> tuple[float, np.ndarray]:
    """Weighted mean of per-example standard loss + beta * regularizer.

    Single source of truth for training and for gradient checks. For the
    exact adversarial regularizer the theta-gradient holds the achieving
    endpoint fixed; the maximizer is almost surely unique, so this is the
    gradient of the max-value function wherever it is differentiable. The
    pg and stability kinds consume draws from stream (required for them):
    pg one uniform start block, stability one (n, noise_samples, d) normal
    block.
    """
    theta = np.asarray(theta, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = xs.shape[0]
    if n < 1:
        raise ValueError("need at least one example")
    if ys.shape != (n,) or weights.shape != (n,):
        raise ValueError("xs, ys, weights lengths differ")
    total_w = float(np.sum(weights))
    if total_w <= 0:
        raise ValueError("weights must have positive total")

    s = np.einsum("ij,j->i", xs, theta)
    std_vals = np.logaddexp(0.0, -ys * s)
    c_std = -ys * _sigmoid(-ys * s)

    beta = config.beta
    if beta == 0.0:
        value = float(np.sum(weights * std_vals) / total_w)
        grad = np.einsum("i,ij->j", weights * c_std, xs) / total_w
        return value, grad

    p_raw = _sigmoid(s)
    pc = _clamp_probs(p_raw)
    p_free = ((p_raw > _CLAMP) & (p_raw < 1.0 - _CLAMP)).astype(np.float64)

    if config.reg_kind == "adversarial_exact":
        shift = config.epsilon * float(np.sum(np.abs(theta)))
        q_hi_raw = _sigmoid(s + shift)
        q_lo_raw = _sigmoid(s - shift)
        kl_hi = _kl_vec(pc, _clamp_probs(q_hi_raw))
        kl_lo = _kl_vec(pc, _clamp_probs(q_lo_raw))
        take_hi = kl_hi > kl_lo
        reg_vals = np.where(take_hi, kl_hi, kl_lo)
        q_raw = np.where(take_hi, q_hi_raw, q_lo_raw)
        qc = _clamp_probs(q_raw)
        q_free = ((q_raw > _CLAMP) & (q_raw < 1.0 - _CLAMP)).astype(np.float64)
        dkl_dp = np.log(pc / qc) - np.log((1.0 - pc) / (1.0 - qc))
        coef_p = dkl_dp * p_raw * (1.0 - p_raw) * p_free
        coef_q = (qc - pc) * q_free
        side = np.where(take_hi, 1.0, -1.0)
        value = float(np.sum(weights * (std_vals + beta * reg_vals)) / total_w)
        # endpoint x* = x + side * eps * sign(theta): split its contribution
        # into the x part and the sign(theta) part
        per_x = weights * (c_std + beta * (coef_p + coef_q))
        grad = np.einsum("i,ij->j", per_x, xs) / total_w
        grad = grad + (float(np.sum(weights * beta * coef_q * side)) / total_w
                       * config.epsilon) * np.sign(theta)
        return value, grad

    if config.reg_kind == "adversarial_pg":
        if stream is None:
            raise ValueError("adversarial_pg needs a stream")
        _, worst = _pg_worst_batch(theta, xs, config.epsilon, config.pg_steps,
                                   config.pg_step_size, stream)
        q_raw = _sigmoid(np.einsum("ij,j->i", worst, theta))
        qc = _clamp_probs(q_raw)
        q_free = ((q_raw > _CLAMP) & (q_raw < 1.0 - _CLAMP)).astype(np.float64)
        reg_vals = _kl_vec(pc, qc)
        dkl_dp = np.log(pc / qc) - np.log((1.0 - pc) / (1.0 - qc))
        coef_p = dkl_dp * p_raw * (1.0 - p_raw) * p_free
        coef_q = (qc - pc) * q_free
        value = float(np.sum(weights * (std_vals + beta * reg_vals)) / total_w)
        grad = np.einsum("i,ij->j", weights * (c_std + beta * coef_p), xs) / total_w
        grad = grad + np.einsum("i,ij->j", weights * beta * coef_q, worst) / total_w
        return value, grad

    # stability
    if stream is None:
        raise ValueError("stability needs a stream")
    k = config.noise_samples
    noise = config.noise_sigma * stream.standard_normal((n, k, xs.shape[1]))
    noisy = xs[:, None, :] + noise
    q_raw = _sigmoid(np.einsum("nkj,j->nk", noisy, theta))
    qc = _clamp_probs(q_raw)
    q_free = ((q_raw > _CLAMP) & (q_raw < 1.0 - _CLAMP)).astype(np.float64)
    reg_vals = np.mean(_kl_vec(pc[:, None], qc), axis=1)
    dkl_dp = np.mean(np.log(pc[:, None] / qc)
                     - np.log((1.0 - pc[:, None]) / (1.0 - qc)), axis=1)
    coef_p = dkl_dp * p_raw * (1.0 - p_raw) * p_free
    coef_q = (qc - pc[:, None]) * q_free / k
    value = float(np.sum(weights * (std_vals + beta * reg_vals)) / total_w)
    grad = np.einsum("i,ij->j", weights * (c_std + beta * coef_p), xs) / total_w
    grad = grad + np.einsum("nk,nkj->j", weights[:, None] * beta * coef_q,
                            noisy) / total_w
    return value, grad


def standard_train(data: LabeledSet, learning_rate: float, grad_steps: int,
                   batch_size: int, stream: RngStream) -> LogisticModel:
    """Plain logistic SGD from zero on labeled data only.

    This is the whole stage-one API: no regularizer is reachable from here.
    batch_size = 0 runs deterministic full-batch descent.
    """
    if data.n < 1:
        raise ValueError("labeled set must be nonempty")
    learning_rate = float(learning_rate)
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    grad_steps = int(grad_steps)
    batch_size = int(batch_size)
    if grad_steps < 1 or batch_size < 0:
        raise ValueError("grad_steps must be >= 1 and batch_size >= 0")
    xs = data.xs
    ys = data.ys.astype(np.float64)
    theta = np.zeros(xs.shape[1])
    for _ in range(grad_steps):
        if batch_size == 0:
            bx, by = xs, ys
        else:
            idx = stream.integers(0, data.n, size=batch_size)
            bx, by = xs[idx], ys[idx]
        c = -by * _sigmoid(-by * np.einsum("ij,j->i", bx, theta))
        theta = theta - learning_rate * np.einsum("i,ij->j", c, bx) / bx.shape[0]
    return LogisticModel(theta=theta)


def rst_train(labeled: LabeledSet,
              unlabeled_with_pseudo: tuple[UnlabeledSet, np.ndarray] | None,
              config: RstConfig, stream: RngStream) -> RstTrainResult:
    """Minibatch SGD on the robust objective over labeled + pseudo-labeled rows.

    Pseudo-labels must be produced beforehand (stage one is standard_train
    plus pseudo_label). Labeled rows get weight 1, pseudo-labeled rows get
    config.w_unlabeled. Batches are sampled with replacement from the
    concatenated pool; equal_parts_batches instead draws half of each batch
    from each pool. Pass None to train on labeled rows alone. The trace
    records the batch objective at the pre-update parameters. Per-step draw
    order: batch indices (labeled block first under equal parts), then any
    regularizer draws.
    """
    if labeled.n < 1:
        raise ValueError("labeled set must be nonempty")
    xs_parts = [labeled.xs]
    ys_parts = [labeled.ys.astype(np.float64)]
    w_parts = [np.ones(labeled.n)]
    n_unlabeled = 0
    if unlabeled_with_pseudo is not None:
        pool, pseudo = unlabeled_with_pseudo
        pseudo = np.asarray(pseudo)
        if pool.xs.shape[1] != labeled.xs.shape[1]:
            raise ValueError("labeled and unlabeled dimensions differ")
        if pseudo.shape != (pool.n,):
            raise ValueError("need one pseudo-label per unlabeled row")
        if not np.all(np.isin(pseudo, (-1, 1))):
            raise ValueError("pseudo-labels must be +-1")
        n_unlabeled = pool.n
        xs_parts.append(pool.xs)
        ys_parts.append(pseudo.astype(np.float64))
        w_parts.append(np.full(pool.n, config.w_unlabeled))
    xs = np.concatenate(xs_parts, axis=0)
    ys = np.concatenate(ys_parts)
    weights = np.concatenate(w_parts)
    n_pool = xs.shape[0]

    if config.equal_parts_batches:
        if config.batch_size < 2:
            raise ValueError("equal_parts_batches needs batch_size >= 2")
        if n_unlabeled == 0:
            raise ValueError("equal_parts_batches needs unlabeled rows")

    theta = np.zeros(xs.shape[1])
    trace = np.empty(config.grad_steps)
    for step in range(config.grad_steps):
        if config.batch_size == 0:
            idx = slice(None)
        elif config.equal_parts_batches:
            half = config.batch_size // 2
            lab_idx = stream.integers(0, labeled.n, size=config.batch_size - half)
            unl_idx = labeled.n + stream.integers(0, n_unlabeled, size=half)
            idx = np.concatenate([lab_idx, unl_idx])
        else:
            idx = stream.integers(0, n_pool, size=config.batch_size)
        value, grad = robust_objective(theta, xs[idx], ys[idx], weights[idx],
                                       config, stream)
        trace[step] = value
        theta = theta - config.learning_rate * grad
    return RstTrainResult(model=LogisticModel(theta=theta), loss_trace=trace)


def smoothed_predict_exact(model: LogisticModel, x,
                           noise_sigma: float) -> tuple[int, float]:
    """Closed-form prediction of the Gaussian-smoothed linear classifier.

    Smoothing a halfspace with N(0, sigma^2 I) noise votes for +1 with
    probability Phi(theta^T x / (sigma ||theta||_2)). Returns the majority
    label (ties go to +1) and its exact vote probability.
    """
    noise_sigma = float(noise_sigma)
    if noise_sigma <= 0:
        raise ValueError(f"noise_sigma must be positive, got {noise_sigma}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.theta.shape:
        raise ValueError("x and theta dimensions differ")
    theta = model.theta
    l2 = float(np.sqrt(np.sum(theta * theta)))
    if l2 == 0.0:
        raise ValueError("theta must be nonzero")
    ratio = float(np.sum(theta * x)) / (noise_sigma * l2)
    label = 1 if ratio >= 0.0 else -1
    return label, gaussian_cdf(label * ratio)

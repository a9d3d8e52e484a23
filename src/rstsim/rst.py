"""Robust self-training for binary linear logistic models.

The trainable objective is the standard logistic loss plus beta times a
prediction-stability regularizer, evaluated per example and averaged with
per-example weights (weight 1 on labeled rows, a configurable weight on
pseudo-labeled rows). Three regularizers are provided: the exact worst-case
KL over an l-infinity ball (closed form for linear scores), a projected
gradient ascent approximation of the same quantity, and a Gaussian noise
stability penalty. The ascent runs two chains per example, from antithetic
random starts; along a chain the score only moves away from the clean one,
so each chain's last iterate is its best: the start moved by steps *
step_size along the row's step sign times sign(theta), clipped to the ball.
Training is plain minibatch SGD from zero.

The two trainers, standard_train and rst_train, take one problem, (N, d)
rows with one stream, or G problems of one shape stacked on a leading axis,
(G, N, d) rows with one stream each, stepped together, so the Python and
numpy call overhead of a step is paid once per group. Each problem draws
from its own stream in the one-problem order, and every array operation is
per element or reduces along the last axis, so each problem's parameters
and loss trace equal its one-problem run bit for bit. Every training draws
all its batch indices before the first step; the pg and stability
regularizers then draw at each step.

standard_loss, kl_bernoulli, adversarial_reg_exact, adversarial_reg_pg and
stability_reg score one example at a time, as references: acceptance
criterion 7 checks the pg ascent against the closed form.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .gaussian import LinearClassifier, _as_point
from .statkit import RngStream, _at_least, gaussian_cdf

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


def _free(p: np.ndarray) -> np.ndarray:
    # 1 where the clamp leaves p alone, else 0: a clamped probability
    # passes no gradient
    return ((p > _CLAMP) & (p < 1.0 - _CLAMP)).astype(np.float64)


def _kl_slopes(pc: np.ndarray, q_raw: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(qc, dKL/dp, coef_q) of the terms KL(p || q) for clamped p: qc is q
    clamped, and coef_q = (qc - pc) * free(q) is dKL/dq * q (1 - q), the
    slope through q's score."""
    qc = _clamp_probs(q_raw)
    dkl_dp = np.log(pc / qc) - np.log((1.0 - pc) / (1.0 - qc))
    return qc, dkl_dp, (qc - pc) * _free(q_raw)


@dataclass(frozen=True)
class LogisticModel(LinearClassifier):
    """Binary logistic model p(y=+1|x) = sigmoid(theta^T x)."""


@dataclass(frozen=True)
class RstConfig:
    """Hyperparameters for robust training.

    batch_size = 0 selects deterministic full-batch gradient descent.
    equal_parts_batches composes each minibatch from half labeled and half
    pseudo-labeled rows instead of sampling the concatenated pool. The pg
    ascent reads pg_steps and pg_step_size only through their product, the
    distance a chain may travel: for a linear model the two act as one
    value.
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
        for name in ("beta", "w_unlabeled", "epsilon", "noise_sigma",
                     "batch_size"):
            _at_least(name, getattr(self, name), 0)
        for name in ("noise_samples", "pg_steps", "grad_steps"):
            _at_least(name, getattr(self, name), 1)
        for name in ("pg_step_size", "learning_rate"):
            _at_least(name, getattr(self, name), 0, strict=True)
        if self.reg_kind not in _REG_KINDS:
            raise ValueError(f"reg_kind must be one of {_REG_KINDS}")


def standard_loss(model: LogisticModel, x, y: int) -> tuple[float, np.ndarray]:
    """Logistic loss log(1 + exp(-y theta^T x)) and its theta-gradient."""
    if y not in (-1, 1):
        raise ValueError(f"label must be +-1, got {y!r}")
    x = _as_point(model, x)
    s = float(np.sum(model.theta * x))
    loss = float(np.logaddexp(0.0, -y * s))
    grad = (-y * float(_sigmoid(np.array(-y * s)))) * x
    return loss, grad


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q).

    Both probabilities are clamped to [1e-12, 1 - 1e-12] first, so saturated
    inputs give large finite values instead of infinities.
    """
    p, q = float(p), float(q)
    return _kl_from_pairs(p, 1.0 - p, q, 1.0 - q)


def adversarial_reg_exact(model: LogisticModel, x,
                          epsilon: float) -> tuple[float, np.ndarray]:
    """Worst-case prediction KL over the l-infinity ball, solved exactly.

    The perturbed score for a linear model ranges over
    [s - eps ||theta||_1, s + eps ||theta||_1], and the KL to the unperturbed
    prediction grows as the score moves away from s, so the maximum sits at
    one of the two extreme points x -+ eps sign(theta). Returns the larger
    KL and its achieving perturbation; ties pick the -sign(theta) endpoint.
    """
    epsilon = _at_least("epsilon", float(epsilon), 0)
    x = _as_point(model, x)
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


def _scratch(work: dict | None, name: str, shape: tuple) -> np.ndarray:
    """An uninitialized array of shape, kept in work between calls when
    work is given: the pages of a fresh array fault in on first touch,
    which costs more than one of the ascent's passes over it."""
    if work is None:
        return np.empty(shape)
    buf = work.get(name)
    if buf is None or buf.shape != shape:
        buf = work[name] = np.empty(shape)
    return buf


def _pg_worst_batch(theta: np.ndarray, xs: np.ndarray, epsilon: float,
                    steps: int, step_size: float,
                    streams: Sequence[RngStream], work: dict | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """PG ascent on the prediction KL, one row per example, in closed form.

    Draws a single uniform perturbation per example and runs one ascent
    chain from each of the two antithetic starts x + delta and x - delta;
    a lone chain only ever climbs toward the extreme point on its own side
    of the clean score, so the pair is what finds the global one. Each row
    keeps the chain whose last iterate has the larger KL, the + chain on a
    tie. A chain takes steps sign steps of the x'-gradient (q - p) theta,
    each followed by projection onto the ball. theta is (d,) or (G, d) and
    xs (b, d) or (G, b, d), with one stream per problem, drawn from in
    problem order. Returns (KL values, iterates); with work (see _scratch)
    the iterates live in work until the next call.

    A step moves the score away from the clean one and the logistic link
    is monotone, so a row's step sign s = sign(q - p) never changes along
    a chain and the KL grows with every step: the last iterate is the best
    one. Each coordinate moves by s sign(theta_j) step_size per step until
    it meets the ball's face, so the last iterate is the start plus s
    (steps step_size) sign(theta), clipped to [x - epsilon, x + epsilon];
    steps and step_size act only through that product. Coordinates with
    theta_j = 0 and rows with q = p stay at the start, which already lies
    in the ball.
    """
    # uniform(-eps, eps) is -eps + (eps - -eps) U with U from random(), so
    # the offsets are drawn in place
    delta = _scratch(work, "delta", xs.shape)
    for rows, s in zip(delta.reshape((-1,) + xs.shape[-2:]), streams):
        s.random(out=rows)
    delta *= epsilon - -epsilon
    delta += -epsilon
    p = _clamp_probs(_sigmoid(np.einsum("...ij,...j->...i", xs, theta)))
    plus = np.add(xs, delta, out=_scratch(work, "plus", xs.shape))
    minus = np.subtract(xs, delta, out=_scratch(work, "minus", xs.shape))
    lo = np.subtract(xs, epsilon, out=_scratch(work, "lo", xs.shape))
    hi = np.add(xs, epsilon, out=delta)
    climb = (steps * step_size) * np.sign(theta)[..., None, :]
    vals = []
    for x in (plus, minus):
        q = _clamp_probs(_sigmoid(np.einsum("...ij,...j->...i", x, theta)))
        x += np.sign(q - p)[..., None] * climb
        np.clip(x, lo, hi, out=x)
        q = _clamp_probs(_sigmoid(np.einsum("...ij,...j->...i", x, theta)))
        vals.append(_kl_vec(p, q))
    take = vals[1] > vals[0]
    np.copyto(plus, minus, where=take[..., None])
    return np.where(take, vals[1], vals[0]), plus


def adversarial_reg_pg(model: LogisticModel, x, epsilon: float, steps: int,
                       step_size: float,
                       stream: RngStream) -> tuple[float, np.ndarray]:
    """Projected gradient ascent approximation of adversarial_reg_exact.

    steps sign steps of step_size from each of the antithetic starts x +
    delta and x - delta, each projected onto the ball; the KL grows along a
    chain, so the better of the two last iterates, computed in closed form
    (see _pg_worst_batch), is returned. steps and step_size act only
    through their product. Always a lower bound on the exact value since
    every iterate stays in the ball. Draw order: one uniform (1, d) start
    offset.
    """
    epsilon = _at_least("epsilon", float(epsilon), 0)
    steps = _at_least("steps", int(steps), 1)
    step_size = _at_least("step_size", float(step_size), 0, strict=True)
    x = _as_point(model, x)
    vals, worst = _pg_worst_batch(model.theta, x[None, :], epsilon, steps,
                                  step_size, [stream])
    return float(vals[0]), worst[0]


def stability_reg(model: LogisticModel, x, noise_sigma: float, n_noise: int,
                  stream: RngStream) -> tuple[float, np.ndarray]:
    """Monte Carlo noise-stability penalty and its theta-gradient.

    Averages kl_bernoulli(p(.|x), p(.|x + noise)) over n_noise Gaussian
    draws. The gradient differentiates through both KL arguments of each
    sampled term, holding the noise fixed; clamped probabilities contribute
    zero through the clamped argument.
    """
    noise_sigma = _at_least("noise_sigma", float(noise_sigma), 0)
    n_noise = _at_least("n_noise", int(n_noise), 1)
    x = _as_point(model, x)
    theta = model.theta
    noisy = x[None, :] + noise_sigma * stream.standard_normal((n_noise, x.size))
    p_raw = float(_sigmoid(np.array(float(np.sum(theta * x)))))
    pc = _clamp_probs(np.array(p_raw))
    qc, dkl_dp, coef_q = _kl_slopes(pc, _sigmoid(np.einsum("ij,j->i", noisy,
                                                            theta)))
    value = float(np.mean(_kl_vec(pc, qc)))
    p_free = float(_free(np.array(p_raw)))
    grad = (float(np.mean(dkl_dp)) * p_raw * (1.0 - p_raw) * p_free) * x
    return value, grad + np.einsum("i,ij->j", coef_q / n_noise, noisy)


def robust_objective(theta: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     weights: np.ndarray, config: RstConfig,
                     stream: RngStream | Sequence[RngStream] | None = None,
                     work: dict | None = None
                     ) -> tuple[float | np.ndarray, np.ndarray]:
    """Weighted mean of per-example standard loss + beta * regularizer.

    Single source of truth for training and for gradient checks. For the
    exact adversarial regularizer the theta-gradient holds the achieving
    endpoint fixed; the maximizer is almost surely unique, so this is the
    gradient of the max-value function wherever it is differentiable. The
    pg and stability kinds consume draws from stream (required for them):
    pg one uniform start block, stability one (n, noise_samples, d) normal
    block.

    Problems may be stacked on a leading axis: theta (G, d), xs (G, b, d),
    ys and weights (G, b), and stream a sequence of G streams, drawn from in
    problem order. The call then returns (G,) values and (G, d) gradients,
    each equal to the one-problem call on that problem's slice and stream:
    every operation is per element or reduces along the last axis.

    work, when given, is a dict the caller keeps between calls, in which
    the pg and stability kinds keep their batch-sized arrays instead of
    allocating them at every call; the results do not depend on it.
    """
    theta = np.asarray(theta, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    stacked = theta.ndim == 2
    if xs.ndim != theta.ndim + 1 or xs.shape[:-2] != theta.shape[:-1]:
        raise ValueError("xs must be (b, d) for theta (d,) and (G, b, d) "
                         "for theta (G, d)")
    n = xs.shape[-2]
    if n < 1:
        raise ValueError("need at least one example")
    if ys.shape != xs.shape[:-1] or weights.shape != xs.shape[:-1]:
        raise ValueError("xs, ys, weights lengths differ")
    total_w = np.sum(weights, axis=-1)
    if not np.all(np.isfinite(total_w) & (total_w > 0)):
        raise ValueError("weights must have a positive, finite total")
    streams = stream if stacked or stream is None else [stream]
    # a scalar per problem, as a column against per-example and d arrays
    total_col = total_w[..., None]

    s = np.einsum("...ij,...j->...i", xs, theta)
    std_vals = np.logaddexp(0.0, -ys * s)
    c_std = -ys * _sigmoid(-ys * s)

    beta = config.beta
    if beta == 0.0:
        value = np.sum(weights * std_vals, axis=-1) / total_w
        grad = np.einsum("...i,...ij->...j", weights * c_std, xs) / total_col
        return (value, grad) if stacked else (float(value), grad)

    p_raw = _sigmoid(s)
    pc = _clamp_probs(p_raw)
    exact = config.reg_kind == "adversarial_exact"
    if exact:
        shift = (config.epsilon * np.sum(np.abs(theta), axis=-1))[..., None]
        q_hi_raw = _sigmoid(s + shift)
        q_lo_raw = _sigmoid(s - shift)
        kl_hi = _kl_vec(pc, _clamp_probs(q_hi_raw))
        kl_lo = _kl_vec(pc, _clamp_probs(q_lo_raw))
        take_hi = kl_hi > kl_lo
        reg_vals = np.where(take_hi, kl_hi, kl_lo)
        _, dkl_dp, coef_q = _kl_slopes(pc, np.where(take_hi, q_hi_raw,
                                                    q_lo_raw))
    else:
        # k perturbed copies of each row: the pg ascent's best iterate
        # (k = 1) or noise_samples noisy rows
        if stream is None:
            raise ValueError(f"{config.reg_kind} needs a stream")
        if config.reg_kind == "adversarial_pg":
            _, worst = _pg_worst_batch(theta, xs, config.epsilon,
                                       config.pg_steps, config.pg_step_size,
                                       streams, work)
            copies = worst[..., None, :]
        else:
            k, d = config.noise_samples, xs.shape[-1]
            copies = _scratch(work, "copies", xs.shape[:-1] + (k, d))
            for st, block in zip(streams, copies.reshape((-1, n, k, d)),
                                 strict=True):
                st.standard_normal(out=block)
            copies *= config.noise_sigma
            copies += xs[..., None, :]
        qc, dkl_dp, coef_q = _kl_slopes(pc[..., None], _sigmoid(
            np.einsum("...nkj,...j->...nk", copies, theta)))
        reg_vals = np.mean(_kl_vec(pc[..., None], qc), axis=-1)
        dkl_dp = np.mean(dkl_dp, axis=-1)
        coef_q = coef_q / copies.shape[-2]
    coef_p = dkl_dp * p_raw * (1.0 - p_raw) * _free(p_raw)
    value = np.sum(weights * (std_vals + beta * reg_vals), axis=-1) / total_w
    if exact:
        # endpoint x* = x + side * eps * sign(theta): split its contribution
        # into the x part and the sign(theta) part
        side = np.where(take_hi, 1.0, -1.0)
        per_x = weights * (c_std + beta * (coef_p + coef_q))
        grad = np.einsum("...i,...ij->...j", per_x, xs) / total_col
        grad = grad + (np.sum(weights * beta * coef_q * side, axis=-1)
                       / total_w * config.epsilon)[..., None] * np.sign(theta)
    else:
        grad = np.einsum("...i,...ij->...j", weights * (c_std + beta * coef_p),
                         xs) / total_col
        grad = grad + np.einsum("...nk,...nkj->...j",
                                weights[..., None] * beta * coef_q,
                                copies) / total_col
    return (value, grad) if stacked else (float(value), grad)


def _lockstep_sgd(update: Callable, xs, ys, weights, stream,
                  n_rows: int | None, n_labeled: int | None, batch_size: int,
                  equal_parts: bool, grad_steps: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """SGD from zero on one problem or G stacked problems, stepped together.

    xs is an (N, d) row buffer with ys and weights (N,) and one stream, or
    (G, N, d) with (G, N) and a sequence of G streams; weights None means
    ones. Each problem trains on its first n_rows rows (None: all N), the
    first n_labeled of them labeled (None: all n_rows). Each step gathers
    the batch rows of all problems with one np.take on the flattened buffer
    and sets (values, theta) = update(theta, bx, by, bw, streams) on the
    (G, b, d) batch; values (or None) fill the trace. batch_size = 0 is the
    full batch. Returns theta, (d,) or (G, d), and the trace, (grad_steps,)
    or (G, grad_steps). Draw order: before the first step, each problem in
    problem order draws all its batch indices from its own stream, with one
    integers call of shape (grad_steps, b), or under equal parts a labeled
    call and then a pseudo-labeled call per step; then update makes its own
    draws, if any, step by step.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    weights = (np.ones(ys.shape) if weights is None
               else np.asarray(weights, dtype=np.float64))
    if xs.ndim not in (2, 3):
        raise ValueError("xs must be (N, d) or (G, N, d)")
    if ys.shape != xs.shape[:-1] or weights.shape != ys.shape:
        raise ValueError("xs, ys, weights lengths differ")
    stacked = xs.ndim == 3
    streams = list(stream) if stacked else [stream]
    if not stacked:
        xs, ys, weights = xs[None], ys[None], weights[None]
    if len(streams) != len(xs):
        raise ValueError("need one stream per problem")
    count, stride, d = xs.shape
    n_rows = stride if n_rows is None else int(n_rows)
    n_labeled = n_rows if n_labeled is None else int(n_labeled)
    if not 1 <= n_labeled <= n_rows <= stride:
        raise ValueError("need 1 <= n_labeled <= n_rows <= N: the labeled set "
                         "must be nonempty")
    if not np.all(np.isin(ys[:, :n_rows], (-1.0, 1.0))):
        raise ValueError("labels and pseudo-labels must be +-1")
    if equal_parts:
        _at_least("batch_size with equal_parts_batches", batch_size, 2)
        if n_rows == n_labeled:
            raise ValueError("equal_parts_batches needs unlabeled rows")
    half = batch_size // 2

    def indices(stream):
        # (grad_steps, b): every batch of one problem
        if not equal_parts:
            return stream.integers(0, n_rows, size=(grad_steps, batch_size))
        return np.stack([np.concatenate([
            stream.integers(0, n_labeled, size=batch_size - half),
            n_labeled + stream.integers(0, n_rows - n_labeled, size=half)])
            for _ in range(grad_steps)])

    if batch_size == 0:
        full = xs[:, :n_rows], ys[:, :n_rows], weights[:, :n_rows]
    else:
        # (grad_steps, G, b): each step's block is contiguous
        all_idx = np.stack([indices(s) for s in streams], axis=1)
        all_idx += np.arange(count)[:, None] * stride
        flat_xs = xs.reshape(-1, d)
        all_ys = np.take(ys.reshape(-1), all_idx)
        all_w = np.take(weights.reshape(-1), all_idx)
    theta = np.zeros((count, d))
    trace = np.empty((count, grad_steps))
    for step in range(grad_steps):
        bx, by, bw = full if batch_size == 0 else (
            np.take(flat_xs, all_idx[step], axis=0), all_ys[step],
            all_w[step])
        values, theta = update(theta, bx, by, bw, streams)
        if values is not None:
            trace[:, step] = values
    return (theta, trace) if stacked else (theta[0], trace[0])


def standard_train(xs, ys, learning_rate: float, grad_steps: int,
                   batch_size: int, stream: RngStream | Sequence[RngStream],
                   n_rows: int | None = None) -> np.ndarray:
    """Plain logistic SGD from zero on labeled rows only: theta, (d,) or
    (G, d).

    This is the whole stage-one API: no regularizer is reachable from here.
    xs is (N, d) with +-1 labels ys (N,) and one stream, or G stacked
    problems, (G, N, d) and (G, N) with one stream each, whose rows each
    equal that problem's one-problem run. Each problem trains on its first
    n_rows rows (default all). batch_size = 0 runs deterministic full-batch
    descent.
    """
    learning_rate = _at_least("learning_rate", float(learning_rate), 0,
                              strict=True)
    grad_steps = _at_least("grad_steps", int(grad_steps), 1)
    batch_size = _at_least("batch_size", int(batch_size), 0)

    def update(theta, bx, by, bw, streams):
        # (rate * sum) / b, not rate * mean: stage one's rounding order
        c = -by * _sigmoid(-by * np.einsum("...ij,...j->...i", bx, theta))
        return None, theta - learning_rate * np.einsum(
            "...i,...ij->...j", c, bx) / bx.shape[-2]

    theta, _ = _lockstep_sgd(update, xs, ys, None, stream, n_rows, None,
                             batch_size, False, grad_steps)
    return theta


def rst_train(xs, ys, weights, n_labeled: int, config: RstConfig,
              stream: RngStream | Sequence[RngStream],
              n_rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Minibatch SGD on the robust objective over labeled + pseudo-labeled
    rows: theta, (d,) or (G, d), and the loss trace, (grad_steps,) or (G,
    grad_steps).

    Rows, labels and streams are shaped as for standard_train, and weights
    like ys. In each problem's first n_rows rows (default all) the first
    n_labeled are labeled and the rest pseudo-labeled, so n_rows =
    n_labeled trains on labeled rows alone. Pseudo-labels must be produced
    beforehand (stage one is standard_train plus pseudo-labeling), and
    labeled rows usually get weight 1, pseudo-labeled rows
    config.w_unlabeled. Batches are sampled with replacement from the
    n_rows rows; equal_parts_batches instead draws half of each batch from
    each part. The trace records the batch objective at the pre-update
    parameters. Draw order: all batch indices before the first step
    (labeled part first under equal parts), then robust_objective's draws
    step by step.
    """
    work: dict = {}

    def update(theta, bx, by, bw, streams):
        values, grads = robust_objective(theta, bx, by, bw, config, streams,
                                         work)
        return values, theta - config.learning_rate * grads

    return _lockstep_sgd(update, xs, ys, weights, stream, n_rows, n_labeled,
                         config.batch_size, config.equal_parts_batches,
                         config.grad_steps)


def smoothed_predict_exact(model: LogisticModel, x,
                           noise_sigma: float) -> tuple[int, float]:
    """Closed-form prediction of the Gaussian-smoothed linear classifier.

    Smoothing a halfspace with N(0, sigma^2 I) noise votes for +1 with
    probability Phi(theta^T x / (sigma ||theta||_2)). Returns the majority
    label (ties go to +1) and its exact vote probability.
    """
    noise_sigma = _at_least("noise_sigma", float(noise_sigma), 0, strict=True)
    x = _as_point(model, x)
    theta = model.theta
    l2 = float(np.sqrt(np.sum(theta * theta)))
    if l2 == 0.0:
        raise ValueError("theta must be nonzero")
    ratio = float(np.sum(theta * x)) / (noise_sigma * l2)
    label = 1 if ratio >= 0.0 else -1
    return label, gaussian_cdf(label * ratio)

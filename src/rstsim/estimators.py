"""Learning rules for the Gaussian model.

Two estimators: the supervised averaging classifier theta = (1/n) sum y_i x_i,
and a two-stage self-training procedure that pseudo-labels an unlabeled pool
with the supervised classifier and then averages pseudo-label * input. Both
have fast samplers that draw from the exact estimator distribution without
materializing the data matrix, which is what makes the large-d regimes
(d ~ 10^6, n_unlabeled ~ 10^5) cheap to simulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianModel, LabeledSet, LinearClassifier
from .statkit import RngStream


@dataclass(frozen=True)
class UnlabeledSet:
    """Unlabeled pool with provenance bookkeeping.

    relevant marks which rows were drawn from the signal model (True) versus
    pure noise N(0, sigma^2 I) (False). hidden_ys carries the ground-truth
    labels when the harness retained them. Both are bookkeeping for agreement
    statistics; estimators never read them.
    """

    xs: np.ndarray
    relevant: np.ndarray
    hidden_ys: np.ndarray | None = None

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        rel = np.asarray(self.relevant, dtype=bool)
        if xs.ndim != 2:
            raise ValueError("xs must be an (n, d) matrix")
        if rel.shape != (xs.shape[0],):
            raise ValueError("relevant must have one flag per row of xs")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "relevant", rel)
        if self.hidden_ys is not None:
            ys = np.asarray(self.hidden_ys)
            if ys.shape != (xs.shape[0],):
                raise ValueError("hidden_ys must have one label per row of xs")
            if not np.all(np.isin(ys, (-1, 1))):
                raise ValueError("hidden labels must be +-1")
            object.__setattr__(self, "hidden_ys", ys.astype(np.int64))

    @property
    def n(self) -> int:
        return self.xs.shape[0]


@dataclass(frozen=True)
class SelfTrainResult:
    """Intermediate and final classifiers of one self-training run.

    pseudo_label_agreement is the realized mean of pseudo_label * true_label
    over the unlabeled pool, in [-1, 1]; None when ground-truth labels were
    not retained.
    """

    intermediate: LinearClassifier
    final: LinearClassifier
    pseudo_label_agreement: float | None = None

    def __post_init__(self):
        if self.pseudo_label_agreement is not None:
            g = float(self.pseudo_label_agreement)
            if not (-1.0 - 1e-12 <= g <= 1.0 + 1e-12):
                raise ValueError(f"agreement {g} outside [-1, 1]")


def supervised_estimator(data: LabeledSet) -> LinearClassifier:
    """Exact sample average of y_i * x_i."""
    theta = np.mean(data.ys[:, None] * data.xs, axis=0)
    return LinearClassifier(theta=theta)


def fast_supervised_sample(model: GaussianModel, n_labeled: int,
                           stream: RngStream) -> LinearClassifier:
    """Draw the supervised estimator without materializing data.

    The average of y_i x_i over n samples is distributed exactly as
    mu + (sigma / sqrt(n)) z with z standard normal, so a single d-draw
    suffices. Draw order: one standard_normal(d) call.
    """
    n_labeled = int(n_labeled)
    if n_labeled < 1:
        raise ValueError(f"n_labeled must be >= 1, got {n_labeled}")
    z = stream.standard_normal(model.d)
    return LinearClassifier(theta=model.mu + (model.sigma / math.sqrt(n_labeled)) * z)


def pseudo_label(clf: LinearClassifier, x) -> int:
    """sign(theta^T x) with sign(0) = +1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != clf.theta.shape:
        raise ValueError(
            f"x has dimension {x.size}, classifier has dimension {clf.theta.size}")
    score = float(np.sum(clf.theta * x))
    return 1 if score >= 0.0 else -1


def self_train(labeled: LabeledSet, unlabeled: UnlabeledSet) -> SelfTrainResult:
    """Two-stage self-training on materialized data.

    Stage one fits the supervised average on the labeled set; stage two
    pseudo-labels the unlabeled pool with it and averages
    pseudo_label * input. Agreement is filled in only when the pool
    carries hidden ground-truth labels.
    """
    if unlabeled.n < 1 or labeled.n < 1:
        raise ValueError("both sets must be nonempty")
    if unlabeled.xs.shape[1] != labeled.xs.shape[1]:
        raise ValueError(
            f"dimension mismatch: labeled d={labeled.xs.shape[1]}, "
            f"unlabeled d={unlabeled.xs.shape[1]}")
    intermediate = supervised_estimator(labeled)
    scores = np.einsum("ij,j->i", unlabeled.xs, intermediate.theta)
    tilde_ys = np.where(scores >= 0.0, 1, -1)
    final = np.mean(tilde_ys[:, None] * unlabeled.xs, axis=0)
    agreement = None
    if unlabeled.hidden_ys is not None:
        agreement = float(np.mean(tilde_ys * unlabeled.hidden_ys))
    return SelfTrainResult(intermediate=intermediate,
                           final=LinearClassifier(theta=final),
                           pseudo_label_agreement=agreement)


def _relevant_count(n_unlabeled: int, relevant_fraction: float) -> int:
    # round half up, so fraction 0.5 of 10 points gives exactly 5
    return int(math.floor(relevant_fraction * n_unlabeled + 0.5))


def sample_mixture(model: GaussianModel, n_unlabeled: int,
                   relevant_fraction: float,
                   stream: RngStream) -> tuple[UnlabeledSet, np.ndarray]:
    """Draw an unlabeled pool where only a fraction carries signal.

    round(relevant_fraction * n_unlabeled) points follow x = y mu + sigma z;
    the rest are pure noise x = sigma z. Every point gets a hidden uniform
    label y so agreement bookkeeping stays well-defined; irrelevant features
    never depend on it. Draw order: n hidden labels, the (n, d) noise matrix,
    then one shuffle permutation.
    """
    n_unlabeled = int(n_unlabeled)
    if n_unlabeled < 1:
        raise ValueError(f"n_unlabeled must be >= 1, got {n_unlabeled}")
    relevant_fraction = float(relevant_fraction)
    if not (0.0 <= relevant_fraction <= 1.0):
        raise ValueError(
            f"relevant_fraction must be in [0, 1], got {relevant_fraction}")
    n_rel = _relevant_count(n_unlabeled, relevant_fraction)
    ys = 2 * stream.integers(0, 2, size=n_unlabeled, dtype=np.int64) - 1
    zs = stream.standard_normal((n_unlabeled, model.d))
    relevant = np.zeros(n_unlabeled, dtype=bool)
    relevant[:n_rel] = True
    signal = np.where(relevant[:, None], ys[:, None] * model.mu[None, :], 0.0)
    xs = signal + model.sigma * zs
    perm = stream.permutation(n_unlabeled)
    pool = UnlabeledSet(xs=xs[perm], relevant=relevant[perm], hidden_ys=ys[perm])
    return pool, pool.hidden_ys


def fast_selftrain_sample(model: GaussianModel, n_labeled: int,
                          n_unlabeled: int, relevant_fraction: float,
                          stream: RngStream) -> SelfTrainResult:
    """Draw (intermediate, final) from the exact self-training distribution.

    Cost is O(d + n_unlabeled) instead of O(n_unlabeled * d).
    Conditioned on the intermediate direction pi, each unlabeled point only
    enters through its hidden label and the scalar noise projection
    u = pi^T noise ~ N(0, sigma^2): the pseudo-label is sign(y mu^T pi + u)
    for signal points and sign(u) for noise points, and the final average
    decomposes as (A/n) mu + (U/n) pi + g with A = sum pseudo*y over signal
    points, U = sum pseudo*u over all points, and g one Gaussian draw
    projected orthogonal to pi, scaled by sigma/sqrt(n).

    Draw order: intermediate's standard_normal(d), relevant hidden labels,
    all n_unlabeled noise projections, irrelevant hidden labels, final
    standard_normal(d) for the orthogonal remainder.
    """
    n_unlabeled = int(n_unlabeled)
    if n_unlabeled < 1:
        raise ValueError(f"n_unlabeled must be >= 1, got {n_unlabeled}")
    relevant_fraction = float(relevant_fraction)
    if not (0.0 <= relevant_fraction <= 1.0):
        raise ValueError(
            f"relevant_fraction must be in [0, 1], got {relevant_fraction}")
    intermediate = fast_supervised_sample(model, n_labeled, stream)
    theta_hat = intermediate.theta
    norm = float(np.sqrt(np.sum(theta_hat * theta_hat)))
    pi = theta_hat / norm
    m = float(np.sum(model.mu * pi))

    n_rel = _relevant_count(n_unlabeled, relevant_fraction)
    n_irr = n_unlabeled - n_rel
    ys_rel = 2 * stream.integers(0, 2, size=n_rel, dtype=np.int64) - 1
    u = model.sigma * stream.standard_normal(n_unlabeled)
    ys_irr = 2 * stream.integers(0, 2, size=n_irr, dtype=np.int64) - 1
    z = stream.standard_normal(model.d)

    tilde_rel = np.where(ys_rel * m + u[:n_rel] >= 0.0, 1, -1)
    tilde_irr = np.where(u[n_rel:] >= 0.0, 1, -1)
    a_signal = float(np.sum(tilde_rel * ys_rel))
    b_noise = float(np.sum(tilde_irr * ys_irr))
    u_along = float(np.sum(tilde_rel * u[:n_rel]) + np.sum(tilde_irr * u[n_rel:]))

    g = (model.sigma / math.sqrt(n_unlabeled)) * (z - float(np.sum(pi * z)) * pi)
    final = (a_signal / n_unlabeled) * model.mu + (u_along / n_unlabeled) * pi + g
    agreement = (a_signal + b_noise) / n_unlabeled
    return SelfTrainResult(intermediate=intermediate,
                           final=LinearClassifier(theta=final),
                           pseudo_label_agreement=agreement)

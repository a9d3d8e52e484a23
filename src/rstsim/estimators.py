"""Learning rules for the Gaussian model.

Two estimators: the supervised averaging classifier theta = (1/n) sum y_i x_i,
and a two-stage self-training procedure that pseudo-labels an unlabeled pool
with the supervised classifier and then averages pseudo-label * input. Both
have fast samplers that draw from the exact estimator distribution without
materializing the data matrix, which is what makes the large-d regimes
(d ~ 10^6, n_unlabeled ~ 10^5) cheap to simulate. The fast draws come
factored, theta = a mu + b z1 + c z: trial_draws returns one FactoredDraw per
trial, every arm an (a, b, c) row on one z1 and z. Scoring takes six inner
products per trial and one ||theta||_1 pass for all its arms, and a pool
enters only as running sums over chunks, so memory is O(d + chunk).
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


# ||theta||_1 is summed over blocks of this many coordinates
_L1_BLOCK = 1 << 13


@dataclass(frozen=True)
class FactoredDraw:
    """Every arm's estimator of one trial, theta_k = a_k mu + b_k z1 + c_k z.

    coef holds one (a, b, c) row per arm and agreements one agreement per
    arm (None for a supervised arm, whose c is 0). z1 and z are the trial's
    standard normal d-vectors (z is None when no arm self-trains); gram =
    (mu.mu, mu.z1, mu.z, z1.z1, z1.z, z.z). Neither method writes to them.
    """

    coef: np.ndarray
    agreements: tuple[float | None, ...]
    z1: np.ndarray
    z: np.ndarray | None
    gram: tuple[float, float, float, float, float, float]

    def theta(self, mu: np.ndarray, arm: int = 0) -> np.ndarray:
        """One arm's theta as a new d-vector."""
        a, b, c = self.coef[arm].tolist()
        theta = np.multiply(self.z1, b)
        spare = np.empty_like(theta)
        if self.z is not None:
            theta += np.multiply(self.z, c, out=spare)
        theta += np.multiply(mu, a, out=spare)
        return theta

    def stats(self, mu: np.ndarray) -> list[tuple[float, float, float]]:
        """(mu^T theta, ||theta||_2, ||theta||_1) per arm: the first two from
        gram, ||theta||_1 in one pass for all arms over blocks of _L1_BLOCK
        coordinates, in one (2, K, _L1_BLOCK) scratch buffer."""
        mm, m1, mz, s11, s1z, szz = self.gram
        d, z1, z = mu.size, self.z1, self.z
        a, b, c = self.coef.T[:, :, None]  # (K, 1) columns
        theta, spare = np.empty((2, len(self.coef), min(_L1_BLOCK, d)))
        l1 = np.zeros(len(self.coef))
        for start in range(0, d, _L1_BLOCK):
            stop = start + _L1_BLOCK
            if stop > d:
                theta, spare = theta[:, :d - start], spare[:, :d - start]
            np.multiply(z1[start:stop], b, out=theta)
            if z is not None:
                theta += np.multiply(z[start:stop], c, out=spare)
            theta += np.multiply(mu[start:stop], a, out=spare)
            l1 += np.abs(theta, out=theta).sum(axis=1)
        out = []
        for (a, b, c), n1 in zip(self.coef.tolist(), l1.tolist()):
            sq = (a * a * mm + b * b * s11 + c * c * szz
                  + 2.0 * (a * b * m1 + a * c * mz + b * c * s1z))
            out.append((a * mm + b * m1 + c * mz, math.sqrt(max(sq, 0.0)), n1))
        return out


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    # c_einsum, not BLAS: the summation order does not depend on
    # thread-pool state, so trial bytes do not depend on the worker count
    return float(np.einsum("i,i->", u, v))


def fast_supervised_sample(model: GaussianModel, n_labeled: int,
                           stream: RngStream) -> LinearClassifier:
    """Draw the supervised estimator without materializing data: trial_draws
    of one supervised arm, whose draw is one standard_normal(d) call."""
    return LinearClassifier(
        theta=trial_draws(model, [(n_labeled, 0, 1.0)], stream).theta(model.mu))


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


def _pool_split(n_unlabeled: int, relevant_fraction: float) -> tuple[int, int]:
    """(relevant, irrelevant) point counts of a pool."""
    n_unlabeled = int(n_unlabeled)
    if n_unlabeled < 1:
        raise ValueError(f"n_unlabeled must be >= 1, got {n_unlabeled}")
    relevant_fraction = float(relevant_fraction)
    if not (0.0 <= relevant_fraction <= 1.0):
        raise ValueError(
            f"relevant_fraction must be in [0, 1], got {relevant_fraction}")
    # round half up, so fraction 0.5 of 10 points gives exactly 5
    n_rel = int(math.floor(relevant_fraction * n_unlabeled + 0.5))
    return n_rel, n_unlabeled - n_rel


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
    n_rel, n_irr = _pool_split(n_unlabeled, relevant_fraction)
    n_unlabeled = n_rel + n_irr
    ys = 2 * stream.integers(0, 2, size=n_unlabeled, dtype=np.int64) - 1
    xs = stream.standard_normal((n_unlabeled, model.d))
    xs *= model.sigma
    # adding or subtracting mu is exactly y mu + sigma z for y = +-1
    pos = (ys[:n_rel] > 0)[:, None]
    np.add(xs[:n_rel], model.mu, out=xs[:n_rel], where=pos)
    np.subtract(xs[:n_rel], model.mu, out=xs[:n_rel], where=~pos)
    relevant = np.zeros(n_unlabeled, dtype=bool)
    relevant[:n_rel] = True
    perm = stream.permutation(n_unlabeled)
    pool = UnlabeledSet(xs=np.take(xs, perm, axis=0), relevant=relevant[perm],
                        hidden_ys=ys[perm])
    return pool, pool.hidden_ys


# the pool's scalar normals are drawn and summed this many at a time; the
# two small buffers keep a trial thread's peak at z1, z and 128 KB
_POOL_CHUNK = 1 << 14


def _pool_sums(m: float, sigma: float, n_rel: int, n_irr: int,
               stream: RngStream) -> tuple[int, float]:
    """(A, U) of a pool of n_rel signal and n_irr noise points, label-free.

    A signal point's w = y u ~ N(0, sigma^2) does not depend on its label
    y; it adds sign(m + w) (ties to +1) to A and sign(m + w) w to U. A
    noise point adds |u| to U. Draw order: the n_rel, then the n_irr
    normals, in chunks of _POOL_CHUNK into one reused buffer.
    """
    buf = np.empty(min(_POOL_CHUNK, max(n_rel, n_irr)))
    agree, along = 0, 0.0
    for count, signal in ((n_rel, True), (n_irr, False)):
        for start in range(0, count, _POOL_CHUNK):
            w = stream.standard_normal(out=buf[:min(_POOL_CHUNK, count - start)])
            w *= sigma
            if signal:
                wrong = w < -m  # exactly when m + w < 0
                agree += w.size - 2 * int(np.count_nonzero(wrong))
                np.negative(w, out=w, where=wrong)
            along += float(np.sum(w if signal else np.abs(w, out=w)))
    return agree, along


def trial_draws(model: GaussianModel, arms, stream: RngStream
                ) -> FactoredDraw:
    """The draws of one trial's arms, (n_labeled, n_unlabeled,
    relevant_fraction) each, all on one z1 and one z: the self-trained
    estimator on n_unlabeled points when that is > 0, else the supervised
    one.

    The supervised average of n samples is exactly mu + s z1, s =
    sigma / sqrt(n), for any n. Self-training takes O(d + n_unlabeled)
    time and O(d + chunk) memory: given the intermediate's direction pi =
    (mu + s z1) / ||mu + s z1||, a pool point enters only through its hidden
    label and u = pi^T noise ~ N(0, sigma^2), so the final average is
    (A/n) mu + (U/n) pi + (sigma/sqrt(n)) (z - (pi^T z) pi) with A, U from
    _pool_sums, and the noise points' labels, independent of u, agree
    B = 2 Binomial(n_irr, 1/2) - n_irr times. That law needs z independent
    of z1 and of the pool, which holds for every arm, so each arm keeps
    its law while the arms of one trial are coupled. Draw order: z1, each
    self-training arm's pool normals and binomial in arm order, then z
    when some arm self-trains; so a thread holds z1 and z together only
    when the pools are done.
    """
    arms = [(int(n), n_unlabeled and _pool_split(n_unlabeled, fraction))
            for n, n_unlabeled, fraction in arms]
    for n, _ in arms:
        if n < 1:
            raise ValueError(f"n_labeled must be >= 1, got {n}")
    mu, z1 = model.mu, stream.standard_normal(model.d)
    mm, m1, s11 = model.mu_sq, _dot(mu, z1), _dot(z1, z1)
    pools = []
    for n, split in arms:
        s = model.sigma / math.sqrt(n)
        if not split:
            pools.append((s, None))
            continue
        n_rel, n_irr = split
        norm = math.sqrt(mm + 2.0 * s * m1 + s * s * s11)
        agree, along = _pool_sums((mm + s * m1) / norm, model.sigma, n_rel,
                                  n_irr, stream)
        noise_agree = 2 * int(stream.binomial(n_irr, 0.5)) - n_irr
        pools.append((s, (norm, n_rel + n_irr, agree, along, noise_agree)))
    z, mz, s1z, szz = None, 0.0, 0.0, 0.0
    if any(pool for _, pool in pools):
        z = stream.standard_normal(model.d)
        mz, s1z, szz = _dot(mu, z), _dot(z1, z), _dot(z, z)
    rows = []
    for s, pool in pools:
        if pool is None:
            rows.append(((1.0, s, 0.0), None))
            continue
        norm, n, agree, along, noise_agree = pool
        c = model.sigma / math.sqrt(n)
        # the coefficient of pi, U/n - c pi^T z, over ||mu + s z1||
        k = (along / n - c * (mz + s * s1z) / norm) / norm
        rows.append(((agree / n + k, k * s, c), (agree + noise_agree) / n))
    coef, agreements = zip(*rows)
    return FactoredDraw(np.array(coef), agreements, z1, z,
                        (mm, m1, mz, s11, s1z, szz))


def fast_selftrain_sample(model: GaussianModel, n_labeled: int,
                          n_unlabeled: int, relevant_fraction: float,
                          stream: RngStream) -> SelfTrainResult:
    """Draw (intermediate, final) from the exact self-training distribution
    as d-vectors: trial_draws of one arm, whose draw order is z1, the
    pool's normals, the binomial, then z."""
    _pool_split(n_unlabeled, relevant_fraction)  # rejects an empty pool
    draw = trial_draws(model, [(n_labeled, n_unlabeled, relevant_fraction)],
                       stream)
    theta_hat = model.mu + (model.sigma / math.sqrt(int(n_labeled))) * draw.z1
    return SelfTrainResult(intermediate=LinearClassifier(theta=theta_hat),
                           final=LinearClassifier(theta=draw.theta(model.mu)),
                           pseudo_label_agreement=draw.agreements[0])

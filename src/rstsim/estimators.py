"""Learning rules for the Gaussian model.

Two estimators: the supervised averaging classifier theta = (1/n) sum y_i x_i,
and a two-stage self-training procedure that pseudo-labels an unlabeled pool
with the supervised classifier and then averages pseudo-label * input. Both
have fast samplers that draw from the exact estimator distribution without
materializing the data matrix, which is what makes the large-d regimes
(d ~ 10^6, n_unlabeled ~ 10^5) cheap to simulate. The fast draws come
factored, theta = a mu + b z1 + c z: trial_draws returns one FactoredDraw per
trial, every arm an (a, b, c) row on one z1, one z and one nested pool, of
which each self-training arm reads a prefix. Scoring takes six inner
products per trial and one ||theta||_1 pass for all its arms, and the pool
enters only as sums over blocks. A trial is drawn in fixed blocks, each
from its own substream, that a run's threads share (TrialWork), so a run
holds z1 and one scratch per thread, into which z's blocks are drawn twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    GaussianModel,
    LabeledSet,
    LinearClassifier,
    _as_point,
    _signed_rows,
    run_blocks,
)
from .statkit import RngStream, split_stream


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


# a trial draws its normals and pool points in blocks of _BLOCK, block k
# from split_stream(seed, k), and sums ||theta||_1 over each block's
# sub-blocks of _L1_BLOCK coordinates
_BLOCK = 1 << 16
_L1_BLOCK = 1 << 14


class TrialWork:
    """What one run's trials reuse: z1, the thread count, and one scratch
    buffer per thread for a block of z or of pool points or for
    FactoredDraw.stats. A FactoredDraw made on it holds its z1 until the
    next trial_draws."""

    def __init__(self, d: int, arms, threads: int = 1):
        self.threads = threads
        self.z1 = np.empty(d)
        size = max(_BLOCK, 2 * len(arms) * _L1_BLOCK)
        self.scratch = [np.empty(size) for _ in range(threads)]


@dataclass(frozen=True)
class FactoredDraw:
    """Every arm's estimator of one trial, theta_k = a_k mu + b_k z1 + c_k z.

    coef holds one (a, b, c) row per arm and agreements one agreement per
    arm (None for a supervised arm, whose c is 0). z1 is the trial's normal
    d-vector; z is redrawn from seed, the trial seed (None when no arm
    self-trains). gram = (mu.mu, mu.z1, mu.z, z1.z1, z1.z, z.z).
    """

    coef: np.ndarray
    agreements: tuple[float | None, ...]
    z1: np.ndarray
    seed: int | None
    gram: tuple[float, float, float, float, float, float]
    work: TrialWork = field(repr=False)

    @property
    def z(self) -> np.ndarray | None:
        """z as a new d-vector, drawn again from its blocks' substreams."""
        if self.seed is None:
            return None
        d, n_blocks = self.z1.size, -(-self.z1.size // _BLOCK)
        return np.concatenate([split_stream(self.seed, n_blocks + k)
                               .standard_normal(min(_BLOCK, d - k * _BLOCK))
                               for k in range(n_blocks)])

    def theta(self, mu: np.ndarray, arm: int = 0) -> np.ndarray:
        """One arm's theta as a new d-vector."""
        a, b, c = self.coef[arm].tolist()
        theta = b * self.z1
        if self.seed is not None:
            theta += c * self.z
        theta += a * mu
        return theta

    def stats(self, mu: np.ndarray) -> list[tuple[float, float, float]]:
        """(mu^T theta, ||theta||_2, ||theta||_1) per arm: the first two from
        gram, ||theta||_1 in one pass over the K distinct (a, b, c) rows,
        each arm reading its row's sum. The rows are sorted stably with the
        supervised ones (c = 0) first, so that only the rows after them read
        z, redrawn into the spare half's first row. Each block of _BLOCK
        coordinates is a task on the work's threads, summed in sub-blocks
        of _L1_BLOCK in a (2, K, _L1_BLOCK) view of the thread's scratch;
        the block sums are added correctly rounded (math.fsum)."""
        mm, m1, mz, s11, s1z, szz = self.gram
        rows = sorted(dict.fromkeys(map(tuple, self.coef.tolist())),
                      key=lambda row: row[2] != 0.0)
        d, z1, seed, arms = mu.size, self.z1, self.seed, len(rows)
        n_sup = sum(row[2] == 0.0 for row in rows)
        a, b, c = np.array(rows).T[:, :, None]  # (K, 1) columns
        sub, n_blocks = _L1_BLOCK, -(-d // _BLOCK)

        def l1_block(k: int, w: int) -> np.ndarray:
            scratch = self.work.scratch[w][:2 * arms * sub]
            theta, spare = scratch.reshape(2, arms, sub)
            gen = None if seed is None else split_stream(seed, n_blocks + k)
            total = np.zeros(arms)
            end = min((k + 1) * _BLOCK, d)
            for start in range(k * _BLOCK, end, sub):
                stop = min(start + sub, end)
                if stop - start < sub:
                    theta, spare = theta[:, :stop - start], spare[:, :stop - start]
                np.multiply(z1[start:stop], b[:n_sup], out=theta[:n_sup])
                if n_sup < arms:  # c z + b z1 is b z1 + c z bit for bit
                    np.multiply(gen.standard_normal(out=spare[0]), c[n_sup:],
                                out=theta[n_sup:])
                    theta[n_sup:] += np.multiply(z1[start:stop], b[n_sup:],
                                                 out=spare[n_sup:])
                theta += np.multiply(mu[start:stop], a, out=spare)
                total += np.abs(theta, out=theta).sum(axis=1)
            return total

        blocks = run_blocks(l1_block, n_blocks, self.work.threads)
        l1 = dict(zip(rows, map(math.fsum, zip(*blocks))))
        out = []
        for a, b, c in self.coef.tolist():
            sq = (a * a * mm + b * b * s11 + c * c * szz
                  + 2.0 * (a * b * m1 + a * c * mz + b * c * s1z))
            out.append((a * mm + b * m1 + c * mz, math.sqrt(max(sq, 0.0)),
                        l1[a, b, c]))
        return out


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    # c_einsum, not BLAS: the summation order does not depend on
    # thread-pool state, so trial bytes do not depend on the worker count
    return float(np.einsum("i,i->", u, v))


def fast_supervised_sample(model: GaussianModel, n_labeled: int,
                           stream: RngStream) -> LinearClassifier:
    """Draw the supervised estimator without materializing data: trial_draws
    of one supervised arm, whose draw is z1 in its block layout."""
    return LinearClassifier(
        theta=trial_draws(model, [(n_labeled, 0, 1.0)], stream).theta(model.mu))


def pseudo_label(clf: LinearClassifier, x) -> int:
    """sign(theta^T x) with sign(0) = +1."""
    score = float(np.sum(clf.theta * _as_point(clf, x)))
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
    then one shuffle permutation; the rows come from the row builder that
    sample_labeled uses (gaussian._signed_rows), signal rows first.
    """
    n_rel, n_irr = _pool_split(n_unlabeled, relevant_fraction)
    n_unlabeled = n_rel + n_irr
    ys = 2 * stream.integers(0, 2, size=n_unlabeled, dtype=np.int64) - 1
    xs = _signed_rows(model, ys, n_rel, stream)
    relevant = np.zeros(n_unlabeled, dtype=bool)
    relevant[:n_rel] = True
    perm = stream.permutation(n_unlabeled)
    pool = UnlabeledSet(xs=np.take(xs, perm, axis=0), relevant=relevant[perm],
                        hidden_ys=ys[perm])
    return pool, pool.hidden_ys


def _pool_sums(pools, sigma: float, seed: int, first: int,
               work: TrialWork) -> list[tuple[int, float, int]]:
    """(A, U, B) of each pool (m, n_rel, n_irr), label-free, on work's
    threads, every pool a prefix of one nested pool.

    A signal point's w = y u ~ N(0, sigma^2) does not depend on its label
    y; it adds sign(m + w) (ties to +1) to A and sign(m + w) w to U. A
    noise point adds |u| to U, and the noise points' labels, independent
    of u, agree B = 2 Binomial(n_irr, 1/2) - n_irr times. The largest
    n_rel signal points, then the largest n_irr noise points, are drawn in
    J blocks of _BLOCK, block i from split_stream(seed, first + i); a pool
    reads the first n_rel and n_irr of them. Blocks are cut at the pools'
    ends into parts, each summed once (a signal part once per m), and U is
    the correctly rounded sum (math.fsum) of a pool's parts. B is nested:
    step j over the ascending distinct n_irr adds Binomial(n_irr_j -
    n_irr_{j-1}, 1/2) from split_stream(seed, first + J + j).
    """
    n_sig = max((n_rel for _, n_rel, _ in pools), default=0)
    n_all = n_sig + max((n_irr for *_, n_irr in pools), default=0)
    ends = {n for _, n_rel, n_irr in pools for n in (n_rel, n_sig + n_irr)}
    n_blocks = -(-n_all // _BLOCK)

    def block(k: int, w: int) -> list:
        start, stop, out = k * _BLOCK, min((k + 1) * _BLOCK, n_all), []
        u = work.scratch[w][:stop - start]
        split_stream(seed, first + k).standard_normal(out=u)
        u *= sigma
        cuts = sorted({start, stop, *(e for e in ends if start < e < stop)})
        for lo, hi in zip(cuts, cuts[1:]):
            part, sums = u[lo - start:hi - start], {}  # m: (A, U) of the part
            if lo >= n_sig:  # noise, under the key None
                sums[None] = 0, float(np.sum(np.abs(part, out=part)))
            for m in {m for m, n_rel, _ in pools if n_rel >= hi}:  # signal
                if sums:  # negation is exact: undo the last m's
                    part[wrong] *= -1.0
                wrong = np.flatnonzero(part < -m)  # exactly when m + w < 0
                part[wrong] *= -1.0
                sums[m] = part.size - 2 * wrong.size, float(np.sum(part))
            out.append((lo, hi, sums))
        return out

    parts = [p for blk in run_blocks(block, n_blocks, work.threads)
             for p in blk]
    levels, heads, total = sorted({n_irr for *_, n_irr in pools}), {}, 0
    for j, (lo, hi) in enumerate(zip([0] + levels, levels)):
        total += int(split_stream(seed, first + n_blocks + j).binomial(hi - lo, 0.5))
        heads[hi] = total
    out = []
    for m, n_rel, n_irr in pools:
        agree, along = zip(*(sums[m] if hi <= n_rel else sums[None]
                             for lo, hi, sums in parts if hi <= n_rel
                             or n_sig <= lo and hi <= n_sig + n_irr))
        out.append((sum(agree), math.fsum(along), 2 * heads[n_irr] - n_irr))
    return out


def trial_draws(model: GaussianModel, arms, stream: RngStream,
                work: TrialWork | None = None) -> FactoredDraw:
    """The draws of one trial's arms, (n_labeled, n_unlabeled,
    relevant_fraction) each, all on one z1 and one z: the self-trained
    estimator on n_unlabeled points when that is > 0, else the supervised
    one. work holds z1, scratch and the threads (default: fresh, one thread).

    The supervised average of n samples is exactly mu + s z1, s =
    sigma / sqrt(n), for any n. Self-training takes O(d + n_unlabeled)
    time and O(d + block) memory: given the intermediate's direction pi =
    (mu + s z1) / ||mu + s z1||, a pool point enters only through its hidden
    label and u = pi^T noise ~ N(0, sigma^2), so the final average is
    (A/n) mu + (U/n) pi + (sigma/sqrt(n)) (z - (pi^T z) pi), with A, U and
    the noise points' agreement B from _pool_sums. That law needs an i.i.d.
    pool of the arm's sizes and z, independent of z1 and of each other;
    arms sharing z1, z and one nested pool each keep it.

    Block layout: the trial draws one seed = stream.integers(0, 2**63);
    with D = ceil(d / _BLOCK), block k < D of z1 comes from
    split_stream(seed, k) and block k of z from split_stream(seed, D + k),
    then the nested pool and its binomials from index 2D (_pool_sums). The
    layout depends on d and the pool sizes alone, and every inner product
    is the correctly rounded sum (math.fsum) of per-block einsums, so the
    draw does not depend on the thread count.
    Phases: z1 and z with their inner products (z in the thread's scratch,
    redrawn in stats), the pool, then (in stats) ||theta||_1, each spread
    over the work's threads.
    """
    work = work if work is not None else TrialWork(model.d, arms)
    arms = [(int(n), n_unlabeled and _pool_split(n_unlabeled, fraction))
            for n, n_unlabeled, fraction in arms]
    for n, _ in arms:
        if n < 1:
            raise ValueError(f"n_labeled must be >= 1, got {n}")
    mu, sigma, d = model.mu, model.sigma, model.d
    z1, self_trains = work.z1, any(split for _, split in arms)
    seed = int(stream.integers(0, 2**63))
    n_blocks = -(-d // _BLOCK)

    def normals(k: int, w: int) -> tuple[float, ...]:
        part = slice(k * _BLOCK, (k + 1) * _BLOCK)
        m, u = mu[part], split_stream(seed, k).standard_normal(out=z1[part])
        if not self_trains:
            return _dot(m, u), _dot(u, u)
        v = split_stream(seed, n_blocks + k).standard_normal(
            out=work.scratch[w][:u.size])
        return _dot(m, u), _dot(u, u), _dot(m, v), _dot(u, v), _dot(v, v)

    sums = [math.fsum(col)
            for col in zip(*run_blocks(normals, n_blocks, work.threads))]
    mm, (m1, s11, *rest) = model.mu_sq, sums
    mz, s1z, szz = rest or (0.0, 0.0, 0.0)
    stages = []  # every arm's s, ||mu + s z1|| and pool split
    for n, split in arms:
        s = sigma / math.sqrt(n)
        stages.append((s, math.sqrt(mm + 2.0 * s * m1 + s * s * s11), split))
    pools = iter(_pool_sums(
        [((mm + s * m1) / norm, *split) for s, norm, split in stages if split],
        sigma, seed, 2 * n_blocks, work))
    rows = []
    for s, norm, split in stages:
        if not split:
            rows.append(((1.0, s, 0.0), None))
            continue
        agree, along, noise_agree = next(pools)
        n = sum(split)
        c = sigma / math.sqrt(n)
        # the coefficient of pi, U/n - c pi^T z, over ||mu + s z1||
        k = (along / n - c * (mz + s * s1z) / norm) / norm
        rows.append(((agree / n + k, k * s, c), (agree + noise_agree) / n))
    coef, agreements = zip(*rows)
    return FactoredDraw(np.array(coef), agreements, z1,
                        seed if self_trains else None,
                        (mm, m1, mz, s11, s1z, szz), work)


def fast_selftrain_sample(model: GaussianModel, n_labeled: int,
                          n_unlabeled: int, relevant_fraction: float,
                          stream: RngStream) -> SelfTrainResult:
    """Draw (intermediate, final) from the exact self-training distribution
    as d-vectors: trial_draws of one arm, in its block layout."""
    _pool_split(n_unlabeled, relevant_fraction)  # rejects an empty pool
    draw = trial_draws(model, [(n_labeled, n_unlabeled, relevant_fraction)],
                       stream)
    theta_hat = model.mu + (model.sigma / math.sqrt(int(n_labeled))) * draw.z1
    return SelfTrainResult(intermediate=LinearClassifier(theta=theta_hat),
                           final=LinearClassifier(theta=draw.theta(model.mu)),
                           pseudo_label_agreement=draw.agreements[0])

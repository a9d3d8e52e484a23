"""The benchmark's workloads: the CLI invocations each runs, and the checks
that its outputs are correct.

Every check is computed here, apart from the program: Gaussian tails come
from `statistics.NormalDist`, binomial tails and Clopper-Pearson bounds from
scipy, and model constants from the canonical construction mu = 1,
sigma = (n0 d)^(1/4). No check compares against a stored copy of output.
"""

from __future__ import annotations

import csv
import io
import math
import statistics

NORMAL = statistics.NormalDist()

# built-in model point of the large-d subcommands (gap, sweep-irrelevant)
N0, D_LARGE, EPS = 4, 755_000, 0.5
# verify's built-in dimension cycle and Monte Carlo size
VERIFY_PAIRS = 5
VERIFY_MC = 100_000
ALPHAS = (1.0, 0.5, 0.25, 0.0)
GAP_TRIALS, SWEEP_TRIALS = 10, 5
RST_PG_TRIALS = 3
# certify-demo's built-in sizes
CERT_N0, CERT_D, CERT_POINTS = 4, 16, 200
CERT_SELECTION, CERT_ESTIMATION, CERT_ALPHA = 100, 10_000, 1e-3
CERT_RADIUS_FRACTIONS = (0.0, 0.5, 1.0, 1.5, 2.0)

# measured peak resident set of one mc-verify process, and the free memory
# kept in reserve beside it
MC_VERIFY_PEAK_MB = 2_400
MEMORY_MARGIN_MB = 600


def invocations(workload: str, workers: int) -> list[tuple[str, list[str]]]:
    """(label, CLI argv without --seed/--out/--check) of one round."""
    w = str(workers)
    if workload == "mc-verify":
        return [("verify", ["verify", "--trials", str(VERIFY_PAIRS),
                            "--workers", "1"])]
    if workload == "large-d-sweep":
        return [("gap", ["gap", "--trials", str(GAP_TRIALS), "--workers", w]),
                ("sweep-irrelevant",
                 ["sweep-irrelevant", "--trials", str(SWEEP_TRIALS),
                  "--workers", w])]
    if workload == "train-certify":
        return [("rst-exact", ["rst-demo", "--workers", w]),
                ("rst-pg", ["rst-demo", "--reg-kind", "adversarial_pg",
                            "--trials", str(RST_PG_TRIALS), "--workers", w]),
                ("certify", ["certify-demo", "--workers", w])]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("mc-verify", "large-d-sweep", "train-certify")
# regularizers whose gradient the train-certify round checks
GRADIENT_KINDS = ("adversarial_exact", "adversarial_pg")


def needed_memory_mb(workload: str) -> int:
    return MC_VERIFY_PEAK_MB + MEMORY_MARGIN_MB if workload == "mc-verify" else 0


# ---------------------------------------------------------------- parsing

def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(value: str) -> float | None:
    return None if value == "" else float(value)


def q(t: float) -> float:
    """Standard normal upper tail, accurate far into the right tail."""
    return NORMAL.cdf(-t)


def _mean_ci(values: list[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, 1.96 * statistics.stdev(values) / math.sqrt(len(values))


class Checks:
    """Collects named pass/fail results."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results
                if not ok]


def _rows_in_range(checks: Checks, name: str, rows) -> None:
    bad = []
    for r in rows:
        std, rob, gamma = _num(r["std_err"]), _num(r["rob_err"]), _num(r["gamma"])
        if not (0.0 <= std <= rob <= 1.0):
            bad.append(f"{r['experiment']} trial {r['trial']}: std {std}, rob {rob}")
        if gamma is not None and not (-1.0 <= gamma <= 1.0):
            bad.append(f"{r['experiment']} trial {r['trial']}: gamma {gamma}")
    checks.add(name, rows and not bad, "; ".join(bad[:3]) or "no rows")


def _summary_matches_trials(checks: Checks, name: str, trial_rows,
                            summary_rows, arm_of) -> None:
    """Each per-arm summary mean equals the mean of its trial rows."""
    bad = []
    arms: dict[tuple[str, str], list[dict]] = {}
    for r in trial_rows:
        arms.setdefault(arm_of(r), []).append(r)
    for s in summary_rows:
        key = (s["experiment"], s["grid_value"])
        if s["metric"] not in ("std_err", "rob_err", "gamma") or key not in arms:
            continue
        values = [float(r[s["metric"]]) for r in arms[key]]
        mean = statistics.fmean(values)
        if not math.isclose(float(s["mean"]), mean, rel_tol=1e-9, abs_tol=1e-15):
            bad.append(f"{key} {s['metric']}: {s['mean']} vs {mean}")
        if int(s["trials"]) != len(values):
            bad.append(f"{key}: {s['trials']} trials vs {len(values)} rows")
    checks.add(name, not bad, "; ".join(bad[:3]))


# ---------------------------------------------------------------- mc-verify

def check_mc_verify(outputs: dict[str, dict[str, str]], extra: dict,
                    checks: Checks) -> None:
    rows = parse_csv(outputs["verify"]["trial"])
    closed = {int(r["trial"]): r for r in rows
              if r["experiment"] == "verify_closed_form:closed"}
    mc = {int(r["trial"]): r for r in rows
          if r["experiment"] == "verify_closed_form:mc"}
    dims = sorted({int(r["d"]) for r in rows})
    checks.add("verify.pairs",
               sorted(closed) == sorted(mc) == list(range(VERIFY_PAIRS))
               and dims == [2, 16, 1024],
               f"closed {sorted(closed)}, mc {sorted(mc)}, dims {dims}")

    bad = []
    for i in sorted(set(closed) & set(mc)):
        for metric in ("std_err", "rob_err"):
            p, p_mc = float(closed[i][metric]), float(mc[i][metric])
            tol = 4.0 * math.sqrt(p * (1.0 - p) / VERIFY_MC) + 1.0 / VERIFY_MC
            if abs(p_mc - p) > tol:
                bad.append(f"pair {i} {metric}: mc {p_mc} vs {p} (tol {tol:.2e})")
    checks.add("verify.mc_within_4_sigma", not bad, "; ".join(bad[:3]))

    bad = []
    for r in rows:
        std, rob = float(r["std_err"]), float(r["rob_err"])
        if std > rob or (float(r["epsilon"]) == 0.0 and std != rob):
            bad.append(f"{r['experiment']} pair {r['trial']}: std {std}, "
                       f"rob {rob}, eps {r['epsilon']}")
    has_zero = any(float(r["epsilon"]) == 0.0 for r in rows)
    checks.add("verify.std_le_rob", not bad and has_zero,
               "; ".join(bad[:3]) or "no epsilon = 0 pair")

    ok, detail = False, "pair 0 missing"
    if 0 in closed:
        r = closed[0]
        n0, d, eps = int(r["n0"]), int(r["d"]), float(r["epsilon"])
        sigma = (n0 * d) ** 0.25
        want_std = q((d / n0) ** 0.25)
        want_rob = q((1.0 - eps) * math.sqrt(d) / sigma)
        got_std, got_rob = float(r["std_err"]), float(r["rob_err"])
        ok = (math.isclose(got_std, want_std, rel_tol=1e-9)
              and math.isclose(got_rob, want_rob, rel_tol=1e-9))
        detail = (f"std {got_std} vs {want_std}, rob {got_rob} vs {want_rob}")
    checks.add("verify.pair0_theta_mu", ok, detail)


# ------------------------------------------------------------ large-d-sweep

def selftrain_pool(n0: int, d: int, eps: float) -> int:
    return math.ceil(288.0 * n0 * eps**2 * math.sqrt(d / n0))


def robust_label_count(n0: int, d: int, eps: float) -> int:
    return math.ceil(4.0 * n0 * eps**2 * math.sqrt(d / n0))


def supervised_law(n: int, n0: int, d: int, eps: float) -> tuple[float, float]:
    """Large-d (std_err, rob_err) of theta = mu + (sigma / sqrt(n)) z."""
    sigma = (n0 * d) ** 0.25
    s = sigma / math.sqrt(n)
    mean_abs = (s * math.sqrt(2.0 / math.pi) * math.exp(-0.5 / s**2)
                + 1.0 - 2.0 * q(1.0 / s))
    scale = math.sqrt(d) / (sigma * math.sqrt(1.0 + s * s))
    return q(scale), q(scale * (1.0 - eps * mean_abs))


def check_large_d_sweep(outputs: dict[str, dict[str, str]], extra: dict,
                        checks: Checks) -> None:
    gap = parse_csv(outputs["gap"]["trial"])
    sweep = parse_csv(outputs["sweep-irrelevant"]["trial"])
    _rows_in_range(checks, "sweep.rows_in_range", gap + sweep)
    _summary_matches_trials(
        checks, "sweep.summary_means", gap,
        parse_csv(outputs["gap"]["summary"]),
        lambda r: (r["experiment"], r["experiment"].split(":")[1]))
    _summary_matches_trials(
        checks, "sweep.summary_means_irrelevant", sweep,
        parse_csv(outputs["sweep-irrelevant"]["summary"]),
        lambda r: (r["experiment"], r["relevant_fraction"]))

    def arm(rows, experiment, fraction=None):
        return [r for r in rows if r["experiment"] == experiment
                and (fraction is None
                     or float(r["relevant_fraction"]) == fraction)]

    n_tilde = selftrain_pool(N0, D_LARGE, EPS)
    sizes = {int(r["n_unlabeled"]) for r in arm(gap, "gap:selftrain")}
    scaled_sizes = sorted({int(r["n_unlabeled"])
                           for r in arm(sweep, "irrelevant_sweep:scaled")})
    want_scaled = sorted(math.ceil(n_tilde / (a * a)) for a in ALPHAS if a > 0)
    checks.add("sweep.pool_sizes",
               sizes == {n_tilde} and scaled_sizes == want_scaled,
               f"gap {sorted(sizes)} vs {n_tilde}; scaled {scaled_sizes} "
               f"vs {want_scaled}")

    bad, seen = [], 0
    slack = 4.0 / math.sqrt(D_LARGE)
    for experiment, n in (("gap:supervised_n0", N0),
                          ("gap:supervised_scaled",
                           robust_label_count(N0, D_LARGE, EPS))):
        rows = arm(gap, experiment)
        if not rows or {int(r["n_labeled"]) for r in rows} != {n}:
            bad.append(f"{experiment}: missing or n_labeled != {n}")
            continue
        seen += 1
        for metric, want in zip(("std_err", "rob_err"),
                                supervised_law(n, N0, D_LARGE, EPS)):
            mean, ci = _mean_ci([float(r[metric]) for r in rows])
            if abs(mean - want) > 2.0 * ci + slack:
                bad.append(f"{experiment} {metric}: mean {mean:.5f} vs law "
                           f"{want:.5f} (tol {2.0 * ci + slack:.5f})")
    checks.add("sweep.supervised_large_d_law", not bad and seen == 2,
               "; ".join(bad))

    bad = []
    paper_sized = [("gap:selftrain", arm(gap, "gap:selftrain"))]
    paper_sized += [(f"scaled alpha={a}",
                     arm(sweep, "irrelevant_sweep:scaled", a))
                    for a in ALPHAS if a > 0]
    for label, rows in paper_sized:
        mean = statistics.fmean(float(r["rob_err"]) for r in rows) if rows else 1.0
        if mean > 0.01:
            bad.append(f"{label}: mean rob_err {mean:.3e} > 0.01")
    checks.add("sweep.paper_pool_robust", not bad, "; ".join(bad))

    rows = arm(sweep, "irrelevant_sweep:fixed", 0.0)
    mean = statistics.fmean(float(r["rob_err"]) for r in rows) if rows else 0.0
    checks.add("sweep.alpha0_not_robust", mean >= 0.45,
               f"alpha=0 mean rob_err {mean:.4f} < 0.45")


# ------------------------------------------------------------ train-certify

def certify_population(radii: list[float]) -> list[float]:
    """Population certified accuracy of the smoothed halfspace along mu.

    Over x = y mu + sigma z with y uniform, the normalized score
    theta^T x / (sigma_noise ||theta||) is y c + rho Z, with c = sqrt(d) /
    sigma_noise and rho = sigma / sigma_noise. Selection picks +1 only on a
    strict majority of the n0 votes (ties go to -1), and estimation
    certifies radius r when its vote count reaches the smallest k whose
    Clopper-Pearson bound p satisfies p > 1/2 and sigma_noise Phi^-1(p) >= r.
    """
    import numpy as np
    from scipy import stats

    sigma = (CERT_N0 * CERT_D) ** 0.25
    noise = sigma
    c, rho = math.sqrt(CERT_D) / noise, sigma / noise
    ks = np.arange(1, CERT_ESTIMATION + 1)
    p_lower = stats.beta.ppf(CERT_ALPHA, ks, CERT_ESTIMATION - ks + 1)
    z = np.linspace(-12.0, 12.0, 48_001)
    weight = stats.norm.pdf(z) * (z[1] - z[0])
    p_true = stats.norm.cdf(c + rho * z)
    # P(select the true label): strict majority for +1, ties count for -1
    select = 0.5 * (stats.binom.sf(CERT_SELECTION // 2, CERT_SELECTION, p_true)
                    + stats.binom.sf(CERT_SELECTION // 2 - 1 + CERT_SELECTION % 2,
                                     CERT_SELECTION, p_true))
    out = []
    for r in radii:
        ok = (p_lower > 0.5) & (noise * stats.norm.ppf(p_lower) >= r)
        k_min = int(ks[ok][0]) if ok.any() else CERT_ESTIMATION + 1
        tail = stats.binom.sf(k_min - 1, CERT_ESTIMATION, p_true)
        out.append(float(np.sum(weight * select * tail)))
    return out


def check_train_certify(outputs: dict[str, dict[str, str]], extra: dict,
                        checks: Checks) -> None:
    for label in ("rst-exact", "rst-pg"):
        rows = parse_csv(outputs[label]["trial"])
        _rows_in_range(checks, f"{label}.rows_in_range", rows)
        _summary_matches_trials(
            checks, f"{label}.summary_means", rows,
            parse_csv(outputs[label]["summary"]),
            lambda r: (r["experiment"], r["experiment"].split(":")[1]))
        means = {}
        for experiment in ("rst_demo:rst", "rst_demo:labeled_only"):
            values = [float(r["rob_err"]) for r in rows
                      if r["experiment"] == experiment]
            means[experiment] = statistics.fmean(values) if values else math.nan
        checks.add(f"{label}.rst_beats_labeled_only",
                   means["rst_demo:rst"] < means["rst_demo:labeled_only"],
                   f"rst {means['rst_demo:rst']:.4f} vs labeled-only "
                   f"{means['rst_demo:labeled_only']:.4f}")

    for kind in GRADIENT_KINDS:
        err = extra.get("gradient_rel_err", {}).get(kind)
        checks.add(f"rst.gradient_{kind}", err is not None and err <= 1e-5,
                   f"central-difference relative error {err}")

    summary = parse_csv(outputs["certify"]["summary"])
    by_metric: dict[str, dict[float, float]] = {}
    for s in summary:
        by_metric.setdefault(s["metric"], {})[float(s["grid_value"])] = float(
            s["mean"])
    sigma = (CERT_N0 * CERT_D) ** 0.25
    radii = sorted(by_metric.get("certified_accuracy", {}))
    want_radii = [sigma * f for f in CERT_RADIUS_FRACTIONS]
    checks.add("certify.radii",
               len(radii) == len(want_radii)
               and all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
                       for a, b in zip(radii, want_radii)),
               f"{radii} vs {want_radii}")
    acc = [by_metric["certified_accuracy"][r] for r in radii]
    checks.add("certify.monotone", all(b <= a for a, b in zip(acc, acc[1:])),
               f"certified accuracy {acc}")
    linf = by_metric.get("radius_linf", {})
    checks.add("certify.radius_linf",
               sorted(linf) == radii
               and all(math.isclose(linf[r], r / math.sqrt(CERT_D),
                                    rel_tol=1e-12, abs_tol=1e-15)
                       for r in radii),
               f"{linf}")
    bad = []
    for r, emp, pop in zip(radii, acc, certify_population(radii)):
        sd = math.sqrt(pop * (1.0 - pop) / CERT_POINTS)
        if abs(emp - pop) > 4.0 * sd + 1e-12:
            bad.append(f"radius {r:.4f}: {emp} vs population {pop:.4f} "
                       f"(4 sd = {4 * sd:.4f})")
    checks.add("certify.population_4_sd", radii and not bad, "; ".join(bad))


CHECKERS = {"mc-verify": check_mc_verify,
            "large-d-sweep": check_large_d_sweep,
            "train-certify": check_train_certify}


def check(workload: str, outputs: dict[str, dict[str, str]],
          extra: dict) -> Checks:
    checks = Checks()
    CHECKERS[workload](outputs, extra, checks)
    return checks


# --------------------------------------------------------------- corruption

def _set_cell(text: str, match, column: str, change) -> str:
    """Replace one cell, in the first row where match(row) holds, by
    change(old value)."""
    rows = parse_csv(text)
    header = text.splitlines()[0].split(",")
    for r in rows:
        if match(r):
            r[column] = change(r[column])
            break
    else:
        raise ValueError("no row to corrupt")
    lines = [",".join(header)] + [",".join(r[h] for h in header) for r in rows]
    return "\n".join(lines) + "\n"


def corrupt(workload: str, outputs: dict[str, dict[str, str]]
            ) -> dict[str, dict[str, str]]:
    """A copy of outputs with one value made wrong."""
    out = {label: dict(files) for label, files in outputs.items()}
    if workload == "mc-verify":
        # 0.05 is more than 30 binomial sd at 1e5 samples
        target = out["verify"]
        target["trial"] = _set_cell(
            target["trial"], lambda r: r["experiment"] == "verify_closed_form:mc",
            "std_err", lambda v: repr(float(v) + 0.05))
    elif workload == "large-d-sweep":
        target = out["sweep-irrelevant"]
        target["trial"] = _set_cell(
            target["trial"],
            lambda r: r["experiment"] == "irrelevant_sweep:scaled", "rob_err",
            lambda v: "0.5")
    else:
        target = out["certify"]
        top = max(float(r["grid_value"]) for r in parse_csv(target["summary"]))
        target["summary"] = _set_cell(
            target["summary"],
            lambda r: r["metric"] == "certified_accuracy"
            and float(r["grid_value"]) == top, "mean", lambda v: "0.9")
    return out

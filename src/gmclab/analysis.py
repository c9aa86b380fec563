"""Statistical verification layer.

Spectrum regressions, tail-index estimation, Laplace-functional comparison,
perfect-scaling checks, covering-sum dimension estimation, the KPZ/duality
solvers, and the (conjecture-flagged) L^q-spectrum proxy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .atomic import AtomicMeasure, xi_bar
from .chaos import LatticeMeasure, xi

HILL_MIN_K = 30


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# regression utilities
# ---------------------------------------------------------------------------

def ols_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, intercept and R^2 of y on x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0:
        raise AnalysisError("degenerate abscissa in regression")
    slope = np.sum((x - xm) * (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    syy = np.sum((y - ym) ** 2)
    r2 = 1.0 - np.sum(resid**2) / syy if syy > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def _bootstrap(rng: np.random.Generator, n_boot: int, stat, *sizes) -> np.ndarray:
    """stat(*idx) on each of n_boot resamples, stacked along axis 0.

    A resample draws one index array rng.integers(0, n, size=n) per sample
    size n, in the order given; only the statistics are kept, never all the
    indices at once.
    """
    return np.array([stat(*[rng.integers(0, n, size=n) for n in sizes])
                     for _ in range(n_boot)])


def _percentile_ci(boot: np.ndarray) -> np.ndarray:
    """95% percentile interval over the resample axis: (..., 2) of (lo, hi)."""
    return np.percentile(boot, [2.5, 97.5], axis=0).T


# ---------------------------------------------------------------------------
# power-law spectrum estimation
# ---------------------------------------------------------------------------

@dataclass
class SpectrumFit:
    q_grid: np.ndarray
    slopes: np.ndarray
    stderr: np.ndarray
    lambda_grid: np.ndarray
    r2: np.ndarray


def estimate_spectrum(lambda_grid, mass_samples: np.ndarray, q_grid,
                      n_boot: int = 200,
                      rng: np.random.Generator | None = None) -> SpectrumFit:
    """Slope of log E[mass^q] against log lambda, per q, with bootstrap SEs.

    mass_samples: array (replicas, len(lambda_grid)) of box masses.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    samples = np.asarray(mass_samples, dtype=float)
    if lambda_grid.size < 4:
        raise AnalysisError("need at least 4 distinct lambda values")
    if samples.ndim != 2 or samples.shape[1] != lambda_grid.size:
        raise AnalysisError("mass_samples must be (replicas, n_lambda)")
    if rng is None:
        rng = np.random.default_rng(0)
    log_lam = np.log(lambda_grid)

    def slopes_for(sub):
        out = np.empty(q_grid.size)
        r2s = np.empty(q_grid.size)
        for i, q in enumerate(q_grid):
            moments = np.mean(sub**q, axis=0)
            if not np.all(np.isfinite(moments)) or np.any(moments <= 0):
                raise AnalysisError(f"non-finite empirical moment at q={q}")
            out[i], _, r2s[i] = ols_slope(log_lam, np.log(moments))
        return out, r2s

    slopes, r2 = slopes_for(samples)
    boots = _bootstrap(rng, n_boot, lambda idx: slopes_for(samples[idx])[0], samples.shape[0])
    return SpectrumFit(
        q_grid=q_grid,
        slopes=slopes,
        stderr=boots.std(axis=0, ddof=1),
        lambda_grid=lambda_grid,
        r2=r2,
    )


# ---------------------------------------------------------------------------
# Hill tail-index estimation
# ---------------------------------------------------------------------------

@dataclass
class HillResult:
    estimate: float
    ci_lo: float
    ci_hi: float
    k: int
    k_sweep: np.ndarray        # (n_k, 2): k and estimate
    stable: bool
    plateau_spread: float


def _hill_at(sorted_desc: np.ndarray, k: int) -> float:
    top = sorted_desc[: k + 1]
    logs = np.log(top[:-1]) - np.log(top[-1])
    return float(1.0 / np.mean(logs))


def hill_tail_index(samples, k: int, stability_rtol: float = 0.25) -> HillResult:
    """Hill estimator of the tail index on the top-k order statistics.

    A k-sweep over [k/2, 2k] provides a plateau-stability diagnostic: thin
    tailed inputs drift with k and are flagged unstable.
    """
    x = np.asarray(samples, dtype=float)
    if np.any(x <= 0):
        raise AnalysisError("samples must be positive")
    n = x.size
    if k >= n:
        raise AnalysisError("k must be smaller than the sample count")
    if k < HILL_MIN_K:
        raise AnalysisError(f"k < {HILL_MIN_K}: estimate would be unstable")
    s = np.sort(x)[::-1]
    est = _hill_at(s, k)
    # asymptotic normality: alpha_hat ~ N(alpha, alpha^2/k)
    half = 1.96 * est / np.sqrt(k)
    ks = np.unique(np.linspace(max(HILL_MIN_K, k // 2), min(n - 1, 2 * k), 15).astype(int))
    sweep = np.array([[kk, _hill_at(s, int(kk))] for kk in ks])
    spread = float(np.ptp(sweep[:, 1]) / est)
    return HillResult(
        estimate=est,
        ci_lo=est - half,
        ci_hi=est + half,
        k=k,
        k_sweep=sweep,
        stable=spread <= stability_rtol,
        plateau_spread=spread,
    )


# ---------------------------------------------------------------------------
# Laplace functional comparison
# ---------------------------------------------------------------------------

@dataclass
class LaplaceComparison:
    u_grid: np.ndarray
    lhs: np.ndarray
    lhs_ci: np.ndarray    # (n_u, 2)
    rhs: np.ndarray
    rhs_ci: np.ndarray
    overlap: np.ndarray   # bool per u

    @property
    def all_overlap(self) -> bool:
        return bool(np.all(self.overlap))


def laplace_rhs_transform(m_samples: np.ndarray, alpha: float, u: float) -> np.ndarray:
    """exp(-(Gamma(1-alpha)/alpha) u^alpha M) pointwise over chaos samples."""
    c = gamma_fn(1.0 - alpha) / alpha
    return np.exp(-c * u**alpha * np.asarray(m_samples, dtype=float))


def verify_laplace(mbar_samples, m_samples, alpha, u_grid, n_boot: int = 400,
                   rng: np.random.Generator | None = None) -> LaplaceComparison:
    """Compare E[e^(-u Mbar)] against E[e^(-(G(1-a)/a) u^a M)] with bootstrap CIs."""
    mbar = np.asarray(mbar_samples, dtype=float)
    m = np.asarray(m_samples, dtype=float)
    if mbar.size == 0 or m.size == 0:
        raise AnalysisError("empty samples")
    if rng is None:
        rng = np.random.default_rng(1)
    u_grid = np.asarray(u_grid, dtype=float)

    def side(samples, transform):
        def means(sub):
            return np.array([transform(sub, u).mean() for u in u_grid])
        boot = _bootstrap(rng, n_boot, lambda idx: means(samples[idx]), samples.size)
        return means(samples), _percentile_ci(boot)

    lhs, lhs_ci = side(mbar, lambda sub, u: np.exp(-u * sub))
    rhs, rhs_ci = side(m, lambda sub, u: laplace_rhs_transform(sub, alpha, u))
    overlap = (lhs_ci[:, 0] <= rhs_ci[:, 1]) & (rhs_ci[:, 0] <= lhs_ci[:, 1])
    return LaplaceComparison(u_grid=u_grid, lhs=lhs, lhs_ci=lhs_ci,
                             rhs=rhs, rhs_ci=rhs_ci, overlap=overlap)


# ---------------------------------------------------------------------------
# perfect scaling
# ---------------------------------------------------------------------------

@dataclass
class ScalingCheckResult:
    lam: float
    q_grid: np.ndarray
    ratio: np.ndarray          # empirical E[Mbar(lam A)^q] / E[Mbar(A)^q]
    ratio_ci: np.ndarray       # (n_q, 2)
    theory: np.ndarray         # lam^xi_bar(q)
    pass_per_q: np.ndarray
    quantile_stat: float       # max quantile gap of log-mass distributional check


def sample_omega(lam: float, gamma2: float, size: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Gaussian log-scaling factor: mean (g2/2) ln(lam), variance g2 ln(1/lam),
    moment-matched to E[e^(q Omega)] = lam^((g2/2) q - (g2/2) q^2)."""
    if not (0.0 < lam < 1.0):
        raise AnalysisError("lambda must lie in (0, 1)")
    mean = 0.5 * gamma2 * np.log(lam)
    std = np.sqrt(gamma2 * np.log(1.0 / lam))
    return mean + std * rng.standard_normal(size)


def verify_perfect_scaling(small_samples, ref_samples, lam: float, gamma2: float,
                           alpha: float, d: int, q_grid, n_boot: int = 300,
                           rng: np.random.Generator | None = None) -> ScalingCheckResult:
    """Moment-ratio and quantile checks of the exact scaling law
    Mbar(lam A) ~ lam^(d/alpha) e^(Omega/alpha) Mbar(A)."""
    if not (0.0 < lam < 1.0):
        raise AnalysisError("lambda must lie in (0, 1)")
    q_grid = np.asarray(q_grid, dtype=float)
    if np.any(q_grid >= alpha):
        raise AnalysisError("q must stay below alpha for finite moments")
    small = np.asarray(small_samples, dtype=float)
    ref = np.asarray(ref_samples, dtype=float)
    if rng is None:
        rng = np.random.default_rng(2)
    theory = lam ** xi_bar(gamma2, alpha, d, q_grid)

    def ratios(s, r):
        return np.array([np.mean(s**q) / np.mean(r**q) for q in q_grid])

    point = ratios(small, ref)
    ci = _percentile_ci(_bootstrap(rng, n_boot, lambda i, j: ratios(small[i], ref[j]),
                                   small.size, ref.size))
    ok = (ci[:, 0] <= theory) & (theory <= ci[:, 1])

    # distributional check: log Mbar(lam A) vs log(lam^(d/alpha) e^(Omega/alpha) Mbar(A))
    # truncation can leave an atomic box empty; compare positive masses only
    small_pos = small[small > 0]
    ref_pos = ref[ref > 0]
    omega = sample_omega(lam, gamma2, ref_pos.size, rng)
    rescaled = (d / alpha) * np.log(lam) + omega / alpha + np.log(ref_pos)
    qs = np.linspace(0.05, 0.95, 19)
    gap = float(np.max(np.abs(np.quantile(np.log(small_pos), qs) - np.quantile(rescaled, qs)))) \
        if small_pos.size and ref_pos.size else float("nan")
    return ScalingCheckResult(lam=lam, q_grid=q_grid, ratio=point, ratio_ci=ci,
                              theory=theory, pass_per_q=ok, quantile_stat=gap)


# ---------------------------------------------------------------------------
# covering sums and dimension estimation
# ---------------------------------------------------------------------------

@dataclass
class CoveringSumTable:
    set_name: str
    levels: np.ndarray
    s_grid: np.ndarray
    sums: np.ndarray   # (n_levels, n_s)


@functools.lru_cache
def cantor_intervals(generation: int) -> np.ndarray:
    """Closed construction intervals of the triadic Cantor set, (2^g, 2) array.

    Memoized; the returned array is shared between callers and read-only."""
    intervals = np.array([[0.0, 1.0]])
    for _ in range(generation):
        third = (intervals[:, 1] - intervals[:, 0]) / 3.0
        left = np.column_stack([intervals[:, 0], intervals[:, 0] + third])
        right = np.column_stack([intervals[:, 1] - third, intervals[:, 1]])
        intervals = np.vstack([left, right])
    intervals = intervals[np.argsort(intervals[:, 0])]
    intervals.setflags(write=False)
    return intervals


def _interval_masses(measure, intervals: np.ndarray) -> np.ndarray:
    """Half-open [a, b) interval masses of a lattice or atomic measure (d=1)."""
    if isinstance(measure, LatticeMeasure):
        lat = measure.lattice
        h = lat.spacing
        i0 = np.round((intervals[:, 0] - lat.low) / h).astype(int)
        i1 = np.round((intervals[:, 1] - lat.low) / h).astype(int)
        if np.max(np.abs(intervals[:, 0] - (lat.low + i0 * h))) > 1e-9:
            raise AnalysisError("covering intervals do not align with cell boundaries")
        csum = np.concatenate([[0.0], np.cumsum(measure.masses)])
        return csum[np.clip(i1, 0, lat.resolution)] - csum[np.clip(i0, 0, lat.resolution)]
    if isinstance(measure, AtomicMeasure):
        x = measure.positions[:, 0] if measure.count else np.zeros(0)
        order = np.argsort(x)
        # [a, b) holds the sorted atoms lo..hi-1
        lo = np.searchsorted(x[order], intervals[:, 0], side="left")
        hi = np.searchsorted(x[order], intervals[:, 1], side="left")
        # masses span many decades, so each interval is summed directly, not as a
        # difference of prefix sums; the trailing zero keeps index hi = count valid
        masses = np.append(measure.masses[order], 0.0)
        sums = np.add.reduceat(masses, np.column_stack([lo, hi]).ravel())[::2]
        return np.where(hi > lo, sums, 0.0)
    raise AnalysisError("unsupported measure type")


def covering_sums(measure, set_name: str, levels, s_grid) -> CoveringSumTable:
    """S_n(s) = sum over level-n construction intervals of mu(I)^s.

    set_name: 'cantor' (triadic construction intervals) or 'interval'
    (dyadic partition of [0,1], the full-support control).
    """
    levels = np.asarray(levels, dtype=int)
    s_grid = np.asarray(s_grid, dtype=float)
    ivals = []
    for g in levels:
        if set_name == "cantor":
            ivals.append(cantor_intervals(int(g)))
        elif set_name == "interval":
            edges = np.linspace(0.0, 1.0, 2**int(g) + 1)
            ivals.append(np.column_stack([edges[:-1], edges[1:]]))
        else:
            raise AnalysisError(f"unknown set spec {set_name!r}")
    # all levels in one call, so an atomic measure's atoms are sorted once
    mu_all = _interval_masses(measure, np.vstack(ivals))
    sums = np.zeros((levels.size, s_grid.size))
    for li, mu in enumerate(np.split(mu_all, np.cumsum([len(iv) for iv in ivals])[:-1])):
        pos = mu[mu > 0]
        for si, s in enumerate(s_grid):
            sums[li, si] = np.sum(pos**s) if s > 0 else pos.size
    return CoveringSumTable(set_name=set_name, levels=levels, s_grid=s_grid, sums=sums)


@dataclass
class DimensionEstimate:
    estimate: float
    ci_lo: float
    ci_hi: float
    s_grid: np.ndarray
    slopes: np.ndarray


def _crossing(s_grid: np.ndarray, slopes: np.ndarray) -> float:
    """s where the log-covering-sum growth rate crosses zero (decreasing in s)."""
    sign = np.sign(slopes)
    if slopes[0] <= 0:
        return float(s_grid[0])
    if slopes[-1] >= 0:
        return float(s_grid[-1])
    i = int(np.where(sign[:-1] * sign[1:] <= 0)[0][0])
    s0, s1 = s_grid[i], s_grid[i + 1]
    y0, y1 = slopes[i], slopes[i + 1]
    return float(s0 - y0 * (s1 - s0) / (y1 - y0))


def dimension_estimate(levels, s_grid, sums: np.ndarray, n_boot: int = 200,
                       rng: np.random.Generator | None = None) -> DimensionEstimate:
    """Critical s of covering sums: slope of mean log S_n(s) vs n crosses zero.

    sums: (replicas, n_levels, n_s); replicate axis is bootstrapped for the CI.
    A single deterministic table may be passed as shape (n_levels, n_s).
    """
    levels = np.asarray(levels, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    sums = np.asarray(sums, dtype=float)
    if sums.ndim == 2:
        sums = sums[None, :, :]
    if levels.size < 3 or s_grid.size < 5:
        raise AnalysisError("need >= 3 levels and >= 5 s values")
    if rng is None:
        rng = np.random.default_rng(3)
    eps = 1e-300

    def slopes_of(table):
        mean_log = np.log(np.maximum(table, eps)).mean(axis=0)
        return np.array([ols_slope(levels, mean_log[:, si])[0] for si in range(s_grid.size)])

    slopes = slopes_of(sums)
    if slopes[0] <= 0 or slopes[-1] >= 0:
        raise AnalysisError("s grid does not bracket the zero crossing")
    est = _crossing(s_grid, slopes)
    n_rep = sums.shape[0]
    if n_rep > 1:
        lo, hi = _percentile_ci(_bootstrap(
            rng, n_boot, lambda idx: _crossing(s_grid, slopes_of(sums[idx])), n_rep))
    else:
        lo = hi = est
    return DimensionEstimate(estimate=est, ci_lo=float(lo), ci_hi=float(hi),
                             s_grid=s_grid, slopes=slopes)


# ---------------------------------------------------------------------------
# KPZ solvers
# ---------------------------------------------------------------------------

def kpz_solve(dim_leb: float, gamma2: float, d: int) -> float:
    """Unique x in [0,1] with xi(x)/d = dim_leb (quadratic, bisection guard)."""
    if not (0.0 <= dim_leb <= 1.0):
        raise AnalysisError("dim_leb must lie in [0, 1]")
    if not (0.0 <= gamma2 < 2 * d):
        raise AnalysisError("gamma2 must lie in [0, 2d)")
    if gamma2 == 0.0:
        return float(dim_leb)
    a = gamma2 / 2.0
    b = d + gamma2 / 2.0
    disc = b * b - 4.0 * a * d * dim_leb
    root = (b - np.sqrt(max(disc, 0.0))) / (2.0 * a)
    if not (0.0 <= root <= 1.0):
        # bisection fallback; xi is strictly increasing on [0,1] for gamma2 < 2d
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if xi(gamma2, d, mid) / d < dim_leb:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
    return float(min(max(root, 0.0), 1.0))


def kpz_solve_dual(dim_leb: float, gamma2: float, d: int) -> float:
    """Unique root of xi_bar(x)/d = dim_leb in [0, alpha]; equals
    alpha * kpz_solve(dim_leb) by the algebraic identity xi_bar(q) = xi(q/alpha)."""
    alpha = gamma2 / (2.0 * d)
    if not (0.0 < alpha < 1.0):
        raise AnalysisError("duality mode requires 0 < gamma2 < 2d")
    return alpha * kpz_solve(dim_leb, gamma2, d)


# ---------------------------------------------------------------------------
# L^q spectrum (conjecture comparison)
# ---------------------------------------------------------------------------

@dataclass
class LqSpectrumResult:
    q_grid: np.ndarray
    tau_hat: np.ndarray
    stderr: np.ndarray
    conjecture: np.ndarray | None
    label: str = "CONJECTURE-COMPARISON"


def _dyadic_box_masses(measure, depth: int) -> np.ndarray:
    if isinstance(measure, LatticeMeasure):
        lat = measure.lattice
        boxes = 2**depth
        if lat.d == 1:
            if lat.resolution % boxes != 0:
                raise AnalysisError("dyadic depth does not divide the lattice resolution")
            return measure.masses.reshape(boxes, -1).sum(axis=1)
        if lat.resolution % boxes != 0:
            raise AnalysisError("dyadic depth does not divide the lattice resolution")
        per = lat.resolution // boxes
        grid = measure.masses.reshape(lat.resolution, lat.resolution)
        return grid.reshape(boxes, per, boxes, per).sum(axis=(1, 3)).ravel()
    if isinstance(measure, AtomicMeasure):
        boxes = 2**depth
        if measure.count == 0:
            raise AnalysisError("empty measure")
        d = measure.positions.shape[1]
        idx = np.clip((measure.positions * boxes).astype(int), 0, boxes - 1)
        flat = idx[:, 0] if d == 1 else idx[:, 0] * boxes + idx[:, 1]
        return np.bincount(flat, weights=measure.masses, minlength=boxes**d)
    raise AnalysisError("unsupported measure type")


def lq_conjecture(q_grid, gamma2: float, alpha: float, d: int) -> np.ndarray:
    """Conjectured tau(q): xi_bar(q) - d on [q_-, alpha], 0 above alpha, and
    linear with slope xi_bar'(q_-) below q_-."""
    q_grid = np.asarray(q_grid, dtype=float)
    a2 = gamma2 / (2 * alpha**2)
    b2 = d / alpha + gamma2 / (2 * alpha)

    def xb(q):
        return b2 * q - a2 * q * q

    def xb_prime(q):
        return b2 - 2 * a2 * q

    # q_-: unique negative solution of the Legendre identity
    # xb*(xb'(q)) = q xb'(q) - xb(q) = -d, solved numerically for robustness
    from scipy.optimize import brentq

    def f(q):
        return (q * xb_prime(q) - xb(q)) + d

    try:
        q_minus = brentq(f, -1e6, -1e-12)
    except ValueError:
        q_minus = None
    out = np.empty(q_grid.size)
    for i, q in enumerate(q_grid):
        if q >= alpha:
            out[i] = 0.0
        elif q_minus is None or q >= q_minus:
            out[i] = xb(q) - d
        else:
            out[i] = xb_prime(q_minus) * q
    return out


def lq_spectrum(measure, q_grid, depths, gamma2: float | None = None,
                alpha: float | None = None, d: int = 1) -> LqSpectrumResult:
    """Dyadic box-counting proxy of the L^q spectrum tau(q).

    Box sums replace the centered-packing supremum (documented approximation);
    the result is labeled CONJECTURE-COMPARISON and carries the conjectured
    piecewise values when (gamma2, alpha) are supplied.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    depths = np.asarray(depths, dtype=int)
    log_r = -depths * np.log(2.0)
    tau = np.empty(q_grid.size)
    err = np.empty(q_grid.size)
    per_depth = [_dyadic_box_masses(measure, int(j)) for j in depths]
    for i, q in enumerate(q_grid):
        logs = []
        for mu in per_depth:
            pos = mu[mu > 0]
            logs.append(np.log(np.sum(pos**q)) if q != 0 else np.log(pos.size))
        slope, intercept, _ = ols_slope(log_r, np.array(logs))
        tau[i] = slope
        err[i] = float(np.std(np.array(logs) - (intercept + slope * log_r)))
    conj = None
    if gamma2 is not None and alpha is not None:
        conj = lq_conjecture(q_grid, gamma2, alpha, d)
    return LqSpectrumResult(q_grid=q_grid, tau_hat=tau, stderr=err, conjecture=conj)

"""Statistical verification layer.

Spectrum regressions, tail-index estimation, Laplace-functional comparison,
perfect-scaling checks, covering-sum dimension estimation, the KPZ/duality
solvers, and the (conjecture-flagged) L^q-spectrum proxy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .atomic import xi_bar
from .chaos import LatticeMeasure

HILL_MIN_K = 30
# largest relative spread of the Hill k-sweep that still counts as a plateau
HILL_STABILITY_RTOL = 0.25
# most bytes of one batch of verify_laplace's gathered resamples, (n_u, b, n)
# doubles, b at least 1: 6 resamples at n = 500 and five u values, 1 at
# n = 1e5.  Batches of 13 and 32 resamples at n = 500 raised peak RSS over
# 300 laplace-dual-1d calls by 0.3-0.5 MB and saved under 1 ms per call.
# Other bootstraps keep their (b, n) int64 index blocks and gathers within it.
_GATHER_BYTES = 2**17


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# regression utilities
# ---------------------------------------------------------------------------

def ols_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of y on x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0:
        raise AnalysisError("degenerate abscissa in regression")
    slope = np.sum((x - xm) * (y - ym)) / sxx
    return float(slope), float(ym - slope * xm)


def _bootstrap(rng: np.random.Generator, n_boot: int, stat, *sizes,
               batch: int | None = None) -> np.ndarray:
    """stat's statistics of n_boot resamples, stacked along axis 0.

    Stream contract: the indices are those of n_boot resamples drawn one
    after another, each drawing rng.integers(0, n, size=n) per sample size
    n, in the order given.  With several sizes the resamples interleave
    their arrays, so each draws its own and stat gets its (n,) index arrays.
    With one size, stat gets a (b, n) block of b consecutive resamples and
    returns their b statistics.  The block's one rng.integers(0, n,
    size=(b, n)) call gives the same indices and rng state as b size=n
    calls (numpy's bit generators keep the spare half of a 64-bit draw in
    their state; test_analysis pins this).  b is `batch`, or as many as keep
    the int64 indices within _GATHER_BYTES, at least one; verify_laplace
    passes a batch that keeps its gathered (n_u, b, n) doubles within it.
    """
    if len(sizes) > 1:
        return np.array([stat(*[rng.integers(0, n, size=n) for n in sizes])
                         for _ in range(n_boot)])
    n, = sizes
    block = batch or max(1, _GATHER_BYTES // (8 * n))
    return np.concatenate([stat(rng.integers(0, n, size=(min(block, n_boot - start), n)))
                           for start in range(0, n_boot, block)])


def _resample_means(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[i].mean(axis=0) for each row i of a (b, n) index block: (b, ...).

    Each step gathers the rows at the next index positions, within
    _GATHER_BYTES, and sums them onto the running sum along an axis that is
    not the last.  numpy sums such an axis one element after another, as its
    axis-0 mean of a C-ordered gather does when a row holds several numbers,
    so every mean is bit-equal to the per-resample one."""
    b, n = idx.shape
    step = max(1, _GATHER_BYTES // (b * table[0].nbytes))
    acc = table[idx[:, 0]]
    for start in range(1, n, step):
        rows = table[idx.T[start:start + step]]
        rows[0] += acc
        acc = rows[0] if len(rows) == 1 else rows.sum(axis=0)
    return acc / n


def _percentile_ci(boot: np.ndarray) -> np.ndarray:
    """95% percentile interval over the resample axis: (..., 2) of (lo, hi)."""
    return np.percentile(boot, [2.5, 97.5], axis=0).T


# ---------------------------------------------------------------------------
# power-law spectrum estimation
# ---------------------------------------------------------------------------

@dataclass
class SpectrumFit:
    slopes: np.ndarray
    stderr: np.ndarray


def estimate_spectrum(lambda_grid, mass_samples: np.ndarray, q_grid,
                      n_boot: int = 200,
                      rng: np.random.Generator | None = None) -> SpectrumFit:
    """Slope of log E[mass^q] against log lambda, per q, with bootstrap SEs.

    mass_samples: array (replicas, len(lambda_grid)) of box masses.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    samples = np.asarray(mass_samples, dtype=float)
    if np.unique(lambda_grid).size < 4:
        raise AnalysisError("need at least 4 distinct lambda values")
    if samples.ndim != 2 or samples.shape[1] != lambda_grid.size:
        raise AnalysisError("mass_samples must be (replicas, n_lambda)")
    if rng is None:
        rng = np.random.default_rng(0)
    log_lam = np.log(lambda_grid)
    dx = log_lam - log_lam.mean()
    sxx = np.sum(dx**2)
    if sxx == 0:
        raise AnalysisError("degenerate abscissa in regression")
    # a power acts elementwise, so a resample's powers are rows gathered from
    # the full sample's powers, computed once per q
    powers = [samples**q for q in q_grid]

    def slopes_for(moments):
        # ols_slope over lambda of every (..., q) row at once: each row sum
        # is the pairwise sum of one contiguous row, as a 1-D sum is
        bad = ~np.all(np.isfinite(moments) & (moments > 0), axis=-1)
        if bad.any():
            raise AnalysisError("non-finite empirical moment at "
                                f"q={q_grid[np.argmax(bad.ravel()) % q_grid.size]}")
        y = np.log(moments)
        return np.sum(dx * (y - y.mean(axis=-1, keepdims=True)), axis=-1) / sxx

    slopes = slopes_for(np.array([np.mean(p, axis=0) for p in powers]))
    # C-ordered: a gather keeps its rows' layout, and the fit sums along rows
    table = np.ascontiguousarray(np.stack(powers, axis=1))
    boots = _bootstrap(rng, n_boot, lambda idx: slopes_for(_resample_means(table, idx)),
                       samples.shape[0])
    return SpectrumFit(slopes=slopes, stderr=boots.std(axis=0, ddof=1))


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


def hill_tail_index(samples, k: int) -> HillResult:
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
        stable=spread <= HILL_STABILITY_RTOL,
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
    gap: np.ndarray       # per u: signed gap between the CIs, <= 0 where they overlap


def laplace_rhs_transform(m_samples: np.ndarray, alpha: float, u: float) -> np.ndarray:
    """exp(-(Gamma(1-alpha)/alpha) u^alpha M) pointwise over chaos samples."""
    from scipy.special import gamma as gamma_fn  # imported here: see the package docstring

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
        # a transform acts elementwise, so a resample's transform is its columns
        # gathered from the full sample's (n_u, n) table, computed once per u
        rows = np.array([transform(samples, u) for u in u_grid]).reshape(u_grid.size, samples.size)
        # take, not rows[:, idx]: that comes out column-major and sums its rows in
        # another order, while take gathers a C-ordered (n_u, b, n) block whose
        # every mean is the 1-D pairwise sum of one contiguous row[idx]
        batch = max(1, _GATHER_BYTES // rows.nbytes)
        boot = _bootstrap(rng, n_boot, lambda idx: rows.take(idx, axis=1).mean(axis=2).T,
                          samples.size, batch=batch)
        return rows.mean(axis=1), _percentile_ci(boot)

    lhs, lhs_ci = side(mbar, lambda sub, u: np.exp(-u * sub))
    rhs, rhs_ci = side(m, lambda sub, u: laplace_rhs_transform(sub, alpha, u))
    gap = np.maximum(lhs_ci[:, 0] - rhs_ci[:, 1], rhs_ci[:, 0] - lhs_ci[:, 1])
    return LaplaceComparison(u_grid=u_grid, lhs=lhs, lhs_ci=lhs_ci,
                             rhs=rhs, rhs_ci=rhs_ci, gap=gap)


# ---------------------------------------------------------------------------
# perfect scaling
# ---------------------------------------------------------------------------

@dataclass
class ScalingCheckResult:
    ratio: np.ndarray          # empirical E[Mbar(lam A)^q] / E[Mbar(A)^q]
    ratio_ci: np.ndarray       # (n_q, 2)
    theory: np.ndarray         # lam^xi_bar(q)


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
    """Moment-ratio check of the exact scaling law
    Mbar(lam A) ~ lam^(d/alpha) e^(Omega/alpha) Mbar(A): bootstrap CIs of
    E[Mbar(lam A)^q] / E[Mbar(A)^q], to be held against lam^xi_bar(q)."""
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

    # a power acts elementwise, so a resample's powers are columns gathered
    # from the full sample's (n_q, n) table, computed once per q; take gathers
    # C-ordered rows, so each mean is still the 1-D pairwise sum of s[i]**q
    small_q = np.array([small**q for q in q_grid])
    ref_q = np.array([ref**q for q in q_grid])

    def ratios(i, j):
        return small_q.take(i, axis=1).mean(axis=1) / ref_q.take(j, axis=1).mean(axis=1)

    point = small_q.mean(axis=1) / ref_q.mean(axis=1)
    ci = _percentile_ci(_bootstrap(rng, n_boot, ratios, small.size, ref.size))
    return ScalingCheckResult(ratio=point, ratio_ci=ci, theory=theory)


# ---------------------------------------------------------------------------
# covering sums and dimension estimation
# ---------------------------------------------------------------------------

@dataclass
class CoveringSumTable:
    levels: np.ndarray
    sums: np.ndarray   # (n_levels, n_s), or (replicas, n_levels, n_s) for a block


def _grid_box_masses(measure: LatticeMeasure, boxes: int, keep=None) -> np.ndarray:
    """Masses of the boxes of side 1/boxes, as the (boxes,) * d grid; a block
    of measures, masses (replicas, n_sites), gives one grid per replica.

    keep, an index among the boxes, keeps only those boxes on every axis:
    their cells are taken before the sum, so each kept box is still the sum
    of its own cells, in the order of the full grid's."""
    if not isinstance(measure, LatticeMeasure):
        raise AnalysisError(f"box masses need a LatticeMeasure, not a {type(measure).__name__}; "
                            "pass an atomic measure's cell_masses()")
    lat = measure.lattice
    if lat.resolution % boxes:
        raise AnalysisError(f"{boxes} boxes do not divide the resolution {lat.resolution}")
    lead = measure.masses.shape[:-1]
    # after the replica axes, axis 2k indexes the boxes along grid axis k and
    # axis 2k + 1 the cells in a box
    grid = measure.masses.reshape(lead + (boxes, lat.resolution // boxes) * lat.d)
    if keep is not None:
        for axis in range(len(lead), grid.ndim, 2):
            grid = grid.take(keep, axis=axis)
    return grid.sum(axis=tuple(range(len(lead) + 1, grid.ndim, 2)))


@functools.lru_cache
def _cantor_boxes(generation: int) -> np.ndarray:
    """Indices, among 3^g boxes per axis, of the level-g triadic Cantor boxes:
    those whose base-3 digits are all 0 or 2, in increasing order.

    Memoized; the returned array is shared between callers and read-only."""
    idx = np.zeros(1, dtype=int)
    for _ in range(generation):
        idx = (3 * idx[:, None] + [0, 2]).ravel()
    idx.setflags(write=False)
    return idx


def _power_sums(box_sets, exponents) -> np.ndarray:
    """Sum of mu^s over the boxes of positive mass of each set; s = 0 counts
    those boxes.

    box_sets: one array per level, each (..., n_boxes) with the same leading
    (replica) shape, whose rows are the sets.  Returns (..., n_levels, n_s).

    One table holds every set's positive masses, one scalar power pos**s per
    row, which keeps numpy's fast paths (s = 0.5 is a sqrt).  The sets with
    the same count c of positive boxes are reduced in one call: take gathers
    their runs of the table as one C-ordered (n_s, sets, c) block, and each
    row is still the 1-D pairwise sum of one set's run.  Every sum is
    bit-equal to a per-(set, s) loop.
    """
    exponents = np.asarray(exponents, dtype=float)
    lead = np.shape(box_sets[0])[:-1]
    rows = [np.reshape(mu, (-1, np.shape(mu)[-1])) for mu in box_sets]
    keep = [mu > 0 for mu in rows]
    # a 2-D boolean selection reads row after row: the sets in (level, row) order
    allpos = np.concatenate([mu[k] for mu, k in zip(rows, keep)])
    counts = np.concatenate([k.sum(axis=1) for k in keep])
    starts = np.cumsum(counts) - counts
    table = np.ones((exponents.size, allpos.size))
    for si, s in enumerate(exponents):
        if s != 0:
            table[si] = allpos**s
    sums = np.empty((counts.size, exponents.size))
    for c in np.unique(counts).tolist():
        sets = np.flatnonzero(counts == c)
        runs = starts[sets, None] + np.arange(c)
        sums[sets] = table.take(runs, axis=1).sum(axis=-1).T
    sums = np.moveaxis(sums.reshape(len(rows), -1, exponents.size), 0, 1)
    return sums.reshape(lead + (len(rows), exponents.size))


def covering_sums(measure: LatticeMeasure, levels, s_grid) -> CoveringSumTable:
    """S_g(s) = sum over the level-g Cantor boxes B of mu(B)^s.

    The level-g boxes are the cells of the grid of 3^g boxes per axis whose
    index on every axis has base-3 digits 0 and 2 only: the construction
    intervals of the Cantor set C in d = 1, the squares of C x C in d = 2.
    The measure is a lattice measure; an atomic one is passed as its
    cell_masses().  Only the cells of the (2^g)^d Cantor boxes are summed, not
    all (3^g)^d boxes, and the sets with equal counts of positive boxes are
    reduced in one call (_power_sums).  A block of lattice measures, masses
    (replicas, n_sites), gives sums of shape (replicas, n_levels, n_s), each
    replica's bit-equal to its own.
    """
    d = measure.lattice.d
    levels = np.asarray(levels, dtype=int)
    boxes = []
    for g in levels.tolist():
        # C^d: only the Cantor boxes' cells are summed
        grid = _grid_box_masses(measure, 3**g, _cantor_boxes(g))
        boxes.append(grid.reshape(grid.shape[:grid.ndim - d] + (-1,)))
    return CoveringSumTable(levels=levels, sums=_power_sums(boxes, s_grid))


@dataclass
class DimensionEstimate:
    estimate: float
    ci_lo: float
    ci_hi: float
    slopes: np.ndarray


def _crossing(s_grid: np.ndarray, slopes: np.ndarray):
    """s where the log-covering-sum growth rate crosses zero (decreasing in s):
    a float for (n_s,) slopes, and a (b,) array for a (b, n_s) block, row by
    row.  The crossing is interpolated between the first pair of nodes whose
    signs differ or touch 0; a first slope <= 0 gives s_grid[0], and else a
    last slope >= 0 gives s_grid[-1]."""
    sign = np.sign(slopes)
    i = np.argmax(sign[..., :-1] * sign[..., 1:] <= 0, axis=-1)[..., None]
    s0, s1 = s_grid[i], s_grid[i + 1]
    y0, y1 = (np.take_along_axis(slopes, k, axis=-1) for k in (i, i + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (s0 - y0 * (s1 - s0) / (y1 - y0))[..., 0]
    s = np.where(slopes[..., 0] <= 0, s_grid[0],
                 np.where(slopes[..., -1] >= 0, s_grid[-1], cross))
    return float(s) if s.ndim == 0 else s


def dimension_estimate(levels, s_grid, sums: np.ndarray, n_boot: int = 200,
                       rng: np.random.Generator | None = None) -> DimensionEstimate:
    """Critical s of covering sums: slope of mean log S_n(s) vs n crosses zero.

    sums: (replicas, n_levels, n_s); replicate axis is bootstrapped for the CI.
    A single deterministic table may be passed as shape (n_levels, n_s).
    s_grid must increase strictly.
    """
    levels = np.asarray(levels, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    sums = np.asarray(sums, dtype=float)
    if sums.ndim == 2:
        sums = sums[None, :, :]
    if levels.size < 3 or s_grid.size < 5:
        raise AnalysisError("need >= 3 levels and >= 5 s values")
    # the crossing is interpolated between neighbouring s values
    bad = np.flatnonzero(~(s_grid[:-1] < s_grid[1:]))
    if bad.size:
        i = bad[0]
        raise AnalysisError(f"s grid must increase strictly, but {s_grid[i]:g} "
                            f"is followed by {s_grid[i + 1]:g}")
    bad = np.argwhere(~np.isfinite(sums))
    if bad.size:
        r, g, k = bad[0]
        raise AnalysisError(f"non-finite covering sum {sums[r, g, k]} at replica {r}, "
                            f"level {levels[g]:g}, s = {s_grid[k]:g}")
    # an empty level's log is -inf: one such replica would swamp the mean
    bad = np.argwhere(sums <= 0)
    if bad.size:
        r, g, k = bad[0]
        raise AnalysisError(f"covering sum {sums[r, g, k]:g} is not positive at replica {r}, "
                            f"level {levels[g]:g}, s = {s_grid[k]:g}")
    if rng is None:
        rng = np.random.default_rng(3)
    log_sums = np.log(sums)
    dx = levels - levels.mean()
    sxx = np.sum(dx**2)

    def slopes_of(mean_log):
        # ols_slope of each s column at once, of (n_levels, n_s) or a
        # (b, n_levels, n_s) block, each with its summation order
        centred = mean_log - mean_log.mean(axis=-2, keepdims=True)
        return np.sum(dx[:, None] * centred, axis=-2) / sxx

    slopes = slopes_of(log_sums.mean(axis=0))
    if slopes[0] <= 0 or slopes[-1] >= 0:
        raise AnalysisError("s grid does not bracket the zero crossing")
    est = _crossing(s_grid, slopes)
    n_rep = sums.shape[0]
    if n_rep > 1:
        lo, hi = _percentile_ci(_bootstrap(
            rng, n_boot,
            lambda idx: _crossing(s_grid, slopes_of(_resample_means(log_sums, idx))), n_rep))
    else:
        lo = hi = est
    return DimensionEstimate(estimate=est, ci_lo=float(lo), ci_hi=float(hi), slopes=slopes)


# ---------------------------------------------------------------------------
# KPZ solvers
# ---------------------------------------------------------------------------

def _kpz_root(dim_leb: float, a: float, b: float, d: int, top: float) -> float:
    """Root in [0, top] of b q - a q^2 = d dim_leb, as the cancellation-free
    2c / (b + sqrt(b^2 - 4ac)) with c = d dim_leb: the textbook form
    (b - sqrt(b^2 - 4ac)) / 2a loses its digits when a c is small."""
    if not (0.0 <= dim_leb <= 1.0):
        raise AnalysisError("dim_leb must lie in [0, 1]")
    c = d * dim_leb
    return float(min(2.0 * c / (b + np.sqrt(max(b * b - 4.0 * a * c, 0.0))), top))


def kpz_solve(dim_leb: float, gamma2: float, d: int) -> float:
    """Unique x in [0,1] with xi(x)/d = dim_leb."""
    if not (0.0 <= gamma2 < 2 * d):
        raise AnalysisError("gamma2 must lie in [0, 2d)")
    return _kpz_root(dim_leb, gamma2 / 2.0, d + gamma2 / 2.0, d, 1.0)


def kpz_solve_dual(dim_leb: float, gamma2: float, d: int,
                   alpha: float | None = None) -> float:
    """Unique root of xi_bar(x)/d = dim_leb in [0, alpha], solved on xi_bar's
    own coefficients; xi_bar(q) = xi(q/alpha) makes it alpha * kpz_solve(dim_leb).
    alpha defaults to the duality value gamma2/2d."""
    if alpha is None:
        alpha = gamma2 / (2.0 * d)
    if not (0.0 <= gamma2 < 2 * d and 0.0 < alpha < 1.0):
        raise AnalysisError("kpz_solve_dual requires 0 <= gamma2 < 2d and 0 < alpha < 1")
    return _kpz_root(dim_leb, gamma2 / (2 * alpha**2), d / alpha + gamma2 / (2 * alpha),
                     d, alpha)


# ---------------------------------------------------------------------------
# L^q spectrum (conjecture comparison)
# ---------------------------------------------------------------------------

@dataclass
class LqSpectrumResult:
    tau_hat: np.ndarray
    stderr: np.ndarray
    conjecture: np.ndarray | None


def lq_conjecture(q_grid, gamma2: float, alpha: float, d: int) -> np.ndarray:
    """Conjectured tau(q): xi_bar(q) - d on [q_-, alpha], 0 above alpha, and
    linear with slope xi_bar'(q_-) below q_-.

    q_- is the negative root of the Legendre identity q xi_bar'(q) - xi_bar(q)
    = -d.  With xi_bar(q) = b q - a q^2 the left side is -a q^2, so
    q_- = -sqrt(d/a), and there is no root (q_- = -inf) when a = 0.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    a2 = gamma2 / (2 * alpha**2)
    q_minus = -np.sqrt(d / a2) if a2 > 0 else -np.inf
    tau = xi_bar(gamma2, alpha, d, q_grid) - d
    below = q_grid < q_minus
    if below.any():
        # xi_bar'(q_-) = b - 2 a q_-
        tau[below] = (d / alpha + gamma2 / (2 * alpha) - 2 * a2 * q_minus) * q_grid[below]
    tau[q_grid >= alpha] = 0.0
    return tau


def lq_spectrum(measure: LatticeMeasure, q_grid, depths, gamma2: float | None = None,
                alpha: float | None = None, d: int = 1) -> LqSpectrumResult:
    """Dyadic box-counting proxy of the L^q spectrum tau(q).

    Box sums replace the centered-packing supremum (documented approximation);
    the result is labeled CONJECTURE-COMPARISON and carries the conjectured
    piecewise values when (gamma2, alpha) are supplied.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    depths = np.asarray(depths, dtype=int)
    log_r = -depths * np.log(2.0)
    boxes = [_grid_box_masses(measure, 2**j).ravel() for j in depths.tolist()]
    logs = np.log(_power_sums(boxes, q_grid))
    tau = np.empty(q_grid.size)
    err = np.empty(q_grid.size)
    for i, col in enumerate(logs.T):
        slope, intercept = ols_slope(log_r, col)
        tau[i] = slope
        err[i] = float(np.std(col - (intercept + slope * log_r)))
    conj = None
    if gamma2 is not None and alpha is not None:
        conj = lq_conjecture(q_grid, gamma2, alpha, d)
    return LqSpectrumResult(tau_hat=tau, stderr=err, conjecture=conj)

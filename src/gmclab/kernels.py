"""Sigma-positive covariance kernel families.

Each family decomposes a log-correlated covariance K(x,y) = ln_+(T/|x-y|) + g
into a sum of continuous positive, positive-definite level kernels q_n, with
partial sums k_n = q_1 + ... + q_n.  All kernels here are stored in the unit
coupling convention: the intermittency parameter gamma never enters a kernel,
it is applied by the chaos layer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

FAMILIES = ("exact1d", "exact2d", "star", "gff-square")

# time-slice geometry for the gff-square family: slice n covers
# [_gff_slice_lo(n), _gff_slice_lo(n-1)) with a head slice [1, inf)
_GFF_T0 = 1.0
_GFF_RATIO = 4.0
# switch between eigen-sine series (large t) and image/E1 closed form (small t);
# also the truncation of the folded sine spectrum
_GFF_EIGEN_TOL = 1e-12
_GFF_IMAGE_K = 3
# most sine modes per axis a gff-square config may sum: the spectral weights
# cost O(modes^2): at N = 16, 1.5 s at level 14's 10 155 modes and 4.9 s at
# level 15's 18 616.  validate_config rejects a config above it
GFF_MODE_BUDGET = 15_000


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family together with its correlation length T.

    family: one of 'exact1d', 'exact2d', 'star', 'gff-square'
    T: correlation length (support radius of the exact families)
    d: ambient dimension, must match the family

    The star family integrates the seed kernel exp(-r^2), which is positive
    definite in every dimension.
    """

    family: str
    T: float = 1.0
    d: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KernelError(f"unknown kernel family {self.family!r}")
        if not (self.T > 0):
            raise KernelError("T must be positive")
        expected_d = {"exact1d": 1, "exact2d": 2, "gff-square": 2}.get(self.family)
        if expected_d is not None and self.d != expected_d:
            raise KernelError(f"family {self.family} requires d={expected_d}, got d={self.d}")
        if self.family == "star" and self.d not in (1, 2):
            raise KernelError("star family supports d in (1, 2)")

    @property
    def stationary(self) -> bool:
        return self.family != "gff-square"


def _check_level(n: int):
    if n < 1:
        raise KernelError(f"level must be >= 1, got {n}")


def _pair_distance(x, y, d: int) -> np.ndarray:
    """|x - y| for batches of points; in d=1 arrays are batches of scalars,
    in d=2 the trailing axis holds the coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = x - y
    if d == 1 or diff.ndim == 0:
        return np.abs(diff)
    return np.sqrt(np.sum(diff * diff, axis=-1))


# ---------------------------------------------------------------------------
# exact scale invariant families
# ---------------------------------------------------------------------------

def _kn_exact(r: np.ndarray, n: int, T: float, d: int) -> np.ndarray:
    """Piecewise partial kernel of the exact scale invariant family.

    0 for r > T; ln(T/r) for T/n <= r <= T; and near the origin
    ln n + (1 - n r/T) in d=1, ln n + 2(1 - sqrt(n r/T)) in d=2.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    mid = (r >= T / n) & (r <= T)
    inner = r < T / n
    with np.errstate(divide="ignore"):
        out[mid] = np.log(T / r[mid])
    if d == 1:
        out[inner] = np.log(n) + (1.0 - n * r[inner] / T)
    else:
        out[inner] = np.log(n) + 2.0 * (1.0 - np.sqrt(n * r[inner] / T))
    return out


# ---------------------------------------------------------------------------
# star scale invariant family
# ---------------------------------------------------------------------------

def _star_slice_gaussian(r: np.ndarray, a: float, b: float) -> np.ndarray:
    """int_a^b exp(-(r u)^2)/u du, closed form via the exponential integral."""
    from scipy.special import exp1  # imported here: see the package docstring

    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    zero = r == 0
    out[zero] = np.log(b / a)
    rz = r[~zero]
    out[~zero] = 0.5 * (exp1((rz * a) ** 2) - exp1((rz * b) ** 2))
    return out


def _star_level(spec: KernelSpec, n: int, r: np.ndarray) -> np.ndarray:
    # level n integrates the seed over u in [2^n, 2^(n+1)]; distances scale by 1/T
    return _star_slice_gaussian(np.asarray(r, dtype=float) / spec.T, 2.0**n, 2.0 ** (n + 1))


# ---------------------------------------------------------------------------
# GFF on the unit square (nonstationary)
# ---------------------------------------------------------------------------

def _gff_slice_lo(n: int) -> float:
    return _GFF_T0 * _GFF_RATIO ** (-(n - 1))


def _check_interior(x: np.ndarray):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise KernelError("gff-square requires interior points of the unit square")


def _gff_head(x: np.ndarray, y: np.ndarray, a: float) -> np.ndarray:
    """pi * int_a^inf p_D(t,x,y) dt by the eigen-sine series, analytic in t."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    out = np.zeros(np.broadcast(x[..., 0], y[..., 0]).shape)
    jmax = 1
    while np.exp(-((jmax**2 + 1) * np.pi**2 / 2) * a) > _GFF_EIGEN_TOL:
        jmax += 1
    jmax = max(jmax, 2)
    j = np.arange(1, jmax + 1)
    for jj in j:
        for mm in j:
            lam = (jj**2 + mm**2) * np.pi**2 / 2.0
            w = np.exp(-lam * a) / lam
            if w < _GFF_EIGEN_TOL:
                continue
            out = out + (
                4.0
                * np.sin(jj * np.pi * x[..., 0]) * np.sin(jj * np.pi * y[..., 0])
                * np.sin(mm * np.pi * x[..., 1]) * np.sin(mm * np.pi * y[..., 1])
                * w
            )
    return np.pi * out


def _gff_band(x: np.ndarray, y: np.ndarray, a: float, b: float) -> np.ndarray:
    """pi * int_a^b p_D(t,x,y) dt via method of images and E1 closed forms.

    Each image pair contributes a term s*(1/(2 pi t)) exp(-c/(2t)); the time
    integral is (s/2)(E1(c/(2b)) - E1(c/(2a))), with the log form at c=0.
    """
    from scipy.special import exp1  # imported here: see the package docstring

    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    k = np.arange(-_GFF_IMAGE_K, _GFF_IMAGE_K + 1)
    # per coordinate: offsets (x - y + 2k) with sign +, (x + y + 2k) with sign -
    def offsets(xc, yc):
        o_plus = xc[..., None] - yc[..., None] + 2.0 * k
        o_minus = xc[..., None] + yc[..., None] + 2.0 * k
        offs = np.concatenate([o_plus, o_minus], axis=-1)
        sign = np.concatenate([np.ones_like(o_plus), -np.ones_like(o_minus)], axis=-1)
        return offs, sign

    o1, s1 = offsets(x[..., 0], y[..., 0])
    o2, s2 = offsets(x[..., 1], y[..., 1])
    c = o1[..., :, None] ** 2 + o2[..., None, :] ** 2
    s = s1[..., :, None] * s2[..., None, :]
    out = np.where(
        c == 0.0,
        0.5 * np.log(b / a),
        0.5 * (exp1(np.maximum(c, 1e-300) / (2 * b)) - exp1(np.maximum(c, 1e-300) / (2 * a))),
    )
    return np.sum(s * out, axis=(-2, -1))


def _gff_level(n: int, x, y) -> np.ndarray:
    """Level increment q_n: heat-kernel time slice n."""
    if n == 1:
        return _gff_head(x, y, _gff_slice_lo(1))
    return _gff_band(x, y, _gff_slice_lo(n), _gff_slice_lo(n - 1))


def _gff_partial(n: int, x, y) -> np.ndarray:
    """Partial kernel k_n: the time slices of levels 1..n in one band."""
    out = _gff_head(x, y, _GFF_T0)
    if n >= 2:
        out = out + _gff_band(x, y, _gff_slice_lo(n), _GFF_T0)
    return out


def _fold_sine_modes(w: np.ndarray, n: int) -> np.ndarray:
    """Fold axis 0 of w, indexed by sine modes j' = 1..len(w), onto the modes
    j = 1..n of n cell centres (i + 1/2)/n.  There mode j' equals +-mode j for
    j' = +-j mod 2n and vanishes for j' = 0 mod 2n; the weights multiply
    products of two mode values, so the signs drop out."""
    period = 2 * n
    pad = np.zeros((-(-len(w) // period) * period,) + w.shape[1:])
    pad[:len(w)] = w
    # res[p] sums the modes j' = p + 1 mod 2n
    res = pad.reshape((-1, period) + w.shape[1:]).sum(axis=0)
    out = res[:n].copy()
    out[:n - 1] += res[n:period - 1][::-1]
    return out


def _gff_lam(j, m):
    """Dirichlet eigenvalue (j^2 + m^2) pi^2 / 2 of mode (j, m)."""
    return (j * j + m * m) * np.pi**2 / 2.0


def gff_mode_count(level: int) -> int:
    """Sine modes per axis that gff_spectral_weights sums for levels up to
    level: the last j >= 2 with e^{-lam(j, 1) a} / lam(j, 1) >= _GFF_EIGEN_TOL
    at a = _gff_slice_lo(level), else 1.  The term falls with j, so the last
    one kept is found by doubling and bisection.  The count nearly doubles
    per level, 10 155 at level 14, and stays near 4.5e5 from level 23 on,
    where e^{-lam a} is near 1."""
    _check_level(level)
    a = _gff_slice_lo(level)

    def kept(j):
        return np.exp(-_gff_lam(j, 1) * a) / _gff_lam(j, 1) >= _GFF_EIGEN_TOL

    lo, hi = 1, 2
    while kept(hi):
        lo, hi = hi, 2 * hi
    # kept(lo) unless lo == 1, and not kept(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if kept(mid) else (lo, mid)
    return lo


def gff_spectral_weights(levels: Sequence[int], resolution: int) -> np.ndarray:
    """Folded Dirichlet sine spectrum of the gff-square covariance summed over
    the given levels, on the cell centres of a resolution^2 grid.

    Returns W with sum over the levels of q_n(x, y) equal to
    sum_{j,m} W[j-1, m-1] phi_jm(x) phi_jm(y) at cell centres, phi_jm(x) = sin(j pi x_1) sin(m pi x_2), j, m = 1..N.
    Mode (j', m') carries 4 pi (e^{-lam a} - e^{-lam b}) / lam per level, with
    lam = (j'^2 + m'^2) pi^2 / 2 and the level's time slice [a, b) (b = inf
    for the head level).  Modes run up to j' = gff_mode_count(max(levels))
    and are folded in blocks of 2N rows, so memory stays O(N J).
    """
    for n in levels:
        _check_level(n)
    # net coefficient of e^{-lam t} per slice endpoint t: the shared endpoint
    # of consecutive levels cancels, so levels 1..n leave one term
    coef = Counter()
    for n in levels:
        coef[_gff_slice_lo(n)] += 1
        if n > 1:
            coef[_gff_slice_lo(n - 1)] -= 1
    terms = [(t, c) for t, c in coef.items() if c]
    n_modes = gff_mode_count(max(levels))
    lam_axis = _gff_lam(np.arange(1, n_modes + 1), 0)
    # e^{-lam t} factorizes over the two axes
    decay = [(c, np.exp(-lam_axis * t)) for t, c in terms]
    period = 2 * resolution
    rows = np.zeros((resolution, n_modes))
    for start in range(0, n_modes, period):
        block = slice(start, start + period)
        num = sum(c * np.outer(e[block], e) for c, e in decay)
        rows += _fold_sine_modes(num / (lam_axis[block, None] + lam_axis[None, :]), resolution)
    return 4.0 * np.pi * _fold_sine_modes(rows.T, resolution).T


# ---------------------------------------------------------------------------
# public evaluation API
# ---------------------------------------------------------------------------

def partial_kernel_radial(spec: KernelSpec, n: int, r) -> np.ndarray:
    """k_n as a function of distance (stationary families only)."""
    _check_level(n)
    if not spec.stationary:
        raise KernelError("radial evaluation requires a stationary family")
    r = np.abs(np.asarray(r, dtype=float))
    if spec.family != "star":
        return _kn_exact(r, n, spec.T, spec.d)
    out = np.zeros_like(r)
    for m in range(1, n + 1):
        out = out + _star_level(spec, m, r)
    return out


def level_increment_radial(spec: KernelSpec, n: int, r) -> np.ndarray:
    """q_n as a function of distance (stationary families only)."""
    _check_level(n)
    if not spec.stationary:
        raise KernelError("radial evaluation requires a stationary family")
    r = np.abs(np.asarray(r, dtype=float))
    if spec.family == "star":
        return _star_level(spec, n, r)
    if n == 1:
        return partial_kernel_radial(spec, 1, r)
    return partial_kernel_radial(spec, n, r) - partial_kernel_radial(spec, n - 1, r)


def _eval_pair(spec: KernelSpec, n: int, x, y, gff, radial):
    """gff(n, x, y) for gff-square, else radial(spec, n, |x - y|); a single
    pair of points gives a float."""
    _check_level(n)
    if spec.family == "gff-square":
        _check_interior(x)
        _check_interior(y)
        out = gff(n, x, y)
        return float(out.reshape(())) if np.ndim(x) == 1 and out.size == 1 else out
    r = _pair_distance(x, y, spec.d)
    out = radial(spec, n, np.atleast_1d(r))
    return float(out[0]) if np.ndim(r) == 0 else out


def eval_partial_kernel(spec: KernelSpec, n: int, x, y):
    """k_n(x, y), the covariance of the accumulated field X^n."""
    return _eval_pair(spec, n, x, y, _gff_partial, partial_kernel_radial)


def eval_level_increment(spec: KernelSpec, n: int, x, y):
    """q_n(x, y) = k_n - k_{n-1} (k_0 = 0)."""
    return _eval_pair(spec, n, x, y, _gff_level, level_increment_radial)

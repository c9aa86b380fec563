"""Atomic (dual) chaos: stable atom sampling and the two constructions.

The direct construction weights atoms of an alpha-stable scattered measure by
a non-normalized lognormal factor exp((gamma/alpha) X - (gamma^2/(2 alpha))
Var X).  The subordinated construction draws a conditionally Poisson atom
cloud with intensity M(dx) dz / z^(1+alpha) from a realized chaos measure.
Both realize the same law; the Laplace comparison in the analysis module is
the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gammaln

from .chaos import LatticeMeasure
from .field import FieldGrid


class AtomicError(ValueError):
    pass


@dataclass(frozen=True)
class Region:
    """Axis-aligned box, per-axis [low, high]."""

    low: np.ndarray
    high: np.ndarray

    @staticmethod
    def unit(d: int) -> "Region":
        return Region(np.zeros(d), np.ones(d))

    @property
    def d(self) -> int:
        return len(np.atleast_1d(self.low))

    @property
    def volume(self) -> float:
        return float(np.prod(np.atleast_1d(self.high) - np.atleast_1d(self.low)))


@dataclass
class StableAtoms:
    """Finite truncation of the Poisson cloud with intensity dx dz/z^(1+alpha)."""

    positions: np.ndarray  # (count, d)
    sizes: np.ndarray      # (count,), all >= z_min
    alpha: float
    z_min: float
    region: Region

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise AtomicError("alpha must lie strictly in (0, 1)")
        if not (self.z_min > 0):
            raise AtomicError("z_min must be positive")
        if self.sizes.size and float(self.sizes.min()) < self.z_min * (1 - 1e-12):
            raise AtomicError("atom sizes below the truncation level")

    @property
    def count(self) -> int:
        return len(self.sizes)


@dataclass
class AtomicMeasure:
    """Purely atomic measure: positions with positive masses."""

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        if self.masses.size and float(self.masses.min()) <= 0:
            raise AtomicError("atom masses must be positive")

    @property
    def count(self) -> int:
        return len(self.masses)

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def box_mass(self, lo, hi) -> float:
        """Mass of the half-open box [lo, hi)."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        pts = np.atleast_2d(self.positions)
        if self.count == 0:
            return 0.0
        inside = np.all((pts >= lo) & (pts < hi), axis=1)
        return float(self.masses[inside].sum())


def alpha_from_gamma(gamma2: float, d: int) -> tuple[float, float]:
    """Duality mode: alpha = gamma^2/(2d) and the dual coupling gamma/alpha."""
    if not (0.0 < gamma2 < 2 * d):
        raise AtomicError(f"duality requires 0 < gamma2 < {2*d}, got {gamma2}")
    alpha = gamma2 / (2.0 * d)
    gamma_bar = np.sqrt(gamma2) / alpha
    return alpha, gamma_bar


def xi_bar(gamma2: float, alpha: float, d: int, q) -> float | np.ndarray:
    """Dual spectrum (d/alpha + g2/(2 alpha)) q - (g2/(2 alpha^2)) q^2.

    Equals xi(q/alpha); in duality mode (alpha = g2/2d) it is
    (d + gbar^2/2) q - (gbar^2/2) q^2 with gbar = gamma/alpha.
    """
    if not (0.0 < alpha < 1.0):
        raise AtomicError("alpha must lie strictly in (0, 1)")
    q = np.asarray(q, dtype=float)
    out = (d / alpha + gamma2 / (2 * alpha)) * q - (gamma2 / (2 * alpha**2)) * q * q
    return float(out) if out.ndim == 0 else out


def truncation_bound(control_mass: float, alpha: float, z_min: float) -> float:
    """Conditional mean of the discarded (z < z_min) atom mass."""
    return control_mass * z_min ** (1.0 - alpha) / (1.0 - alpha)


def expected_atom_count(control_mass: float, alpha: float, z_min: float) -> float:
    return control_mass * z_min ** (-alpha) / alpha


def auto_z_min(alpha: float, rel_tol: float = 1e-3) -> float:
    """Truncation level making the mean discarded mass rel_tol per unit control
    mass: z^(1-alpha)/(1-alpha) = rel_tol."""
    return (rel_tol * (1.0 - alpha)) ** (1.0 / (1.0 - alpha))


def _pareto(rng: np.random.Generator, alpha: float, z_min: float, size: int) -> np.ndarray:
    # P(z > t) = (t/z_min)^(-alpha), t >= z_min
    u = rng.random(size)
    return z_min * u ** (-1.0 / alpha)


def sample_stable_atoms(region: Region, alpha: float, z_min: float,
                        rng: np.random.Generator) -> StableAtoms:
    """Draw the truncated Poisson cloud: count ~ Poisson(|A| z_min^-alpha / alpha),
    positions uniform on the region, sizes Pareto(alpha, z_min)."""
    if not (0.0 < alpha < 1.0):
        raise AtomicError("alpha must lie strictly in (0, 1)")
    if not (z_min > 0):
        raise AtomicError("z_min must be positive")
    mean_count = expected_atom_count(region.volume, alpha, z_min)
    count = int(rng.poisson(mean_count))
    low = np.atleast_1d(np.asarray(region.low, dtype=float))
    high = np.atleast_1d(np.asarray(region.high, dtype=float))
    # same values and stream state as rng.uniform(low, high, size), without
    # its slow broadcasting path
    positions = low + (high - low) * rng.random((count, len(low)))
    sizes = _pareto(rng, alpha, z_min, count)
    return StableAtoms(positions=positions, sizes=sizes, alpha=alpha,
                       z_min=z_min, region=region)


def build_atomic_direct(field: FieldGrid, gamma2: float, alpha: float,
                        atoms: StableAtoms) -> AtomicMeasure:
    """Direct construction: atom mass z * exp((g/a) X(cell) - (g^2/2a) Var X).

    The field and the atom cloud must come from independent RNG substreams.
    """
    if abs(alpha - atoms.alpha) > 1e-12:
        raise AtomicError("alpha mismatch between atoms and construction")
    lat = field.lattice
    lo = np.atleast_1d(np.asarray(atoms.region.low))
    hi = np.atleast_1d(np.asarray(atoms.region.high))
    if np.any(lo < lat.low - 1e-12) or np.any(hi > lat.high + 1e-12):
        raise AtomicError("atom region extends outside the field lattice")
    gamma = np.sqrt(gamma2)
    idx = lat.cell_index(atoms.positions) if atoms.count else np.zeros(0, dtype=np.int64)
    x_at = field.values[idx]
    var = field.variance0[idx] if np.ndim(field.variance0) else field.variance0
    log_w = (gamma / alpha) * x_at - (gamma2 / (2 * alpha)) * var
    masses = atoms.sizes * np.exp(log_w)
    return AtomicMeasure(positions=np.array(atoms.positions), masses=masses)


def build_subordinated(m: LatticeMeasure, alpha: float, z_min: float,
                       rng: np.random.Generator) -> AtomicMeasure:
    """Subordinated construction: cell-wise conditional Poisson sampling with
    intensity M(cell) z_min^-alpha / alpha, uniform positions, Pareto sizes."""
    if not (0.0 < alpha < 1.0):
        raise AtomicError("alpha must lie strictly in (0, 1)")
    if not np.all(np.isfinite(m.masses)):
        raise AtomicError("non-finite cell masses")
    lat = m.lattice
    lam = m.masses * z_min ** (-alpha) / alpha
    counts = rng.poisson(lam)
    total = int(counts.sum())
    cell_ids = np.repeat(np.arange(lat.n_sites), counts)
    h = lat.spacing
    if lat.d == 1:
        base = lat.low + cell_ids * h
        positions = (base + h * rng.random(total))[:, None]
    else:
        ix, iy = cell_ids // lat.resolution, cell_ids % lat.resolution
        positions = np.column_stack([
            lat.low + ix * h + h * rng.random(total),
            lat.low + iy * h + h * rng.random(total),
        ])
    sizes = _pareto(rng, alpha, z_min, total)
    return AtomicMeasure(positions=positions, masses=sizes)


def moment_relation_constant(beta: float, alpha: float) -> float:
    """Gamma-function factor linking E[Mbar(A)^beta] to E[M(A)^(beta/alpha)]:
    Gamma(1-b/a) Gamma(1-a)^(b/a) / (Gamma(1-b) a^(b/a)); finite iff beta < alpha."""
    if beta < 0:
        raise AtomicError("beta must be nonnegative")
    if beta >= alpha:
        raise AtomicError("moment constant diverges for beta >= alpha")
    if beta == 0:
        return 1.0
    r = beta / alpha
    log_c = (
        gammaln(1.0 - r)
        + r * gammaln(1.0 - alpha)
        - gammaln(1.0 - beta)
        - r * np.log(alpha)
    )
    return float(np.exp(log_c))


def fractional_moment_identity_check(x: float, beta: float) -> float:
    """Residual of x^b = (b/Gamma(1-b)) int_0^inf (1-e^(-xz)) dz/z^(1+b)."""
    if x < 0:
        raise AtomicError("x must be nonnegative")
    if not (0.0 < beta < 1.0):
        raise AtomicError("beta must lie strictly in (0, 1)")
    if x == 0.0:
        return 0.0
    from scipy.special import gamma as gamma_fn

    def integrand(z):
        return -np.expm1(-x * z) / z ** (1.0 + beta)

    # split at the 1/x knee so quad resolves both regimes cleanly
    v1, e1 = integrate.quad(integrand, 0.0, 1.0 / x, epsabs=1e-13, epsrel=1e-12, limit=400)
    v2, e2 = integrate.quad(integrand, 1.0 / x, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    val, err = v1 + v2, e1 + e2
    if not np.isfinite(val):
        raise AtomicError("quadrature failure in fractional moment identity")
    rhs = beta / gamma_fn(1.0 - beta) * val
    return abs(x**beta - rhs)

"""Lattice approximation M_n of Gaussian multiplicative chaos.

Cell mass = spacing^d * exp(gamma X^n - (gamma^2/2) Var X^n), evaluated at
cell centers.  E[M_n(A)] = |A| exactly for every level n.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .field import FieldGrid, Lattice


class ChaosError(ValueError):
    pass


@dataclass
class LatticeMeasure:
    """Nonnegative cell masses over a lattice."""

    lattice: Lattice
    masses: np.ndarray

    def total_mass(self) -> float:
        return float(self.masses.sum())


def xi(gamma2: float, d: int, q) -> float | np.ndarray:
    """Power-law spectrum of sub-critical chaos: (d + g2/2) q - (g2/2) q^2.

    Valid as a moment exponent for 0 <= q < 2d/gamma2.
    """
    q = np.asarray(q, dtype=float)
    out = (d + gamma2 / 2.0) * q - (gamma2 / 2.0) * q * q
    return float(out) if out.ndim == 0 else out


def xi_moment_range(gamma2: float, d: int) -> float:
    """Upper bound of q for which E[M(A)^q] is finite."""
    return np.inf if gamma2 == 0 else 2.0 * d / gamma2


def build_chaos(field: FieldGrid, gamma2: float) -> LatticeMeasure:
    """Chaos masses from one field replica; gamma enters only here."""
    if gamma2 < 0:
        raise ChaosError("gamma2 must be nonnegative")
    d = field.lattice.d
    if gamma2 >= 2 * d:
        warnings.warn(
            f"gamma2={gamma2} >= 2d={2*d}: the limit measure is degenerate; "
            "finite-level masses are still well defined",
            stacklevel=2,
        )
    if not np.all(np.isfinite(field.values)):
        raise ChaosError("non-finite field values")
    gamma = np.sqrt(gamma2)
    cell = field.lattice.spacing ** d
    masses = cell * np.exp(gamma * field.values - 0.5 * gamma2 * field.variance0)
    return LatticeMeasure(lattice=field.lattice, masses=masses)


def _snap_interval(lattice: Lattice, lo: float, hi: float) -> tuple[int, int]:
    """Snap [lo, hi] to cell boundaries: half-open cell range [i0, i1)."""
    h = lattice.spacing
    i0 = int(np.floor((lo - lattice.low) / h + 0.5))
    i1 = int(np.floor((hi - lattice.low) / h + 0.5))
    i0 = max(i0, 0)
    i1 = min(i1, lattice.resolution)
    return i0, i1


def measure_box(m: LatticeMeasure, lo, hi) -> float:
    """Mass of the box [lo, hi] (per-axis), snapped to cell boundaries."""
    lat = m.lattice
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != (lat.d,) or hi.shape != (lat.d,):
        raise ChaosError("box bounds must match the lattice dimension")
    ranges = [_snap_interval(lat, lo[k], hi[k]) for k in range(lat.d)]
    if any(i1 <= i0 for i0, i1 in ranges):
        raise ChaosError("box has empty intersection with the domain")
    if lat.d == 1:
        i0, i1 = ranges[0]
        return float(m.masses[i0:i1].sum())
    grid = m.masses.reshape(lat.resolution, lat.resolution)
    (i0, i1), (j0, j1) = ranges
    return float(grid[i0:i1, j0:j1].sum())

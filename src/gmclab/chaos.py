"""Lattice approximation M_n of Gaussian multiplicative chaos.

Cell mass = spacing^d * exp(gamma X^n - (gamma^2/2) Var X^n), evaluated at
cell centers.  E[M_n(A)] = |A| exactly for every level n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .field import FieldGrid, Lattice


class ChaosError(ValueError):
    pass


@dataclass
class LatticeMeasure:
    """Nonnegative cell masses over a lattice: masses (n_sites,) for one
    replica, or (replicas, n_sites) for a block of them."""

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
    """Chaos masses of a field replica, or of a block of them with masses
    (replicas, n_sites); gamma enters only here.  FieldGrid has checked the
    values finite, so this is one exp per call."""
    if gamma2 < 0:
        raise ChaosError("gamma2 must be nonnegative")
    d = field.lattice.d
    if gamma2 >= 2 * d:
        warnings.warn(
            f"gamma2={gamma2} >= 2d={2*d}: the limit measure is degenerate; "
            "finite-level masses are still well defined",
            stacklevel=2,
        )
    gamma = np.sqrt(gamma2)
    cell = field.lattice.spacing ** d
    masses = cell * np.exp(gamma * field.values - 0.5 * gamma2 * field.variance0)
    return LatticeMeasure(lattice=field.lattice, masses=masses)


def _snap_interval(lattice: Lattice, lo: float, hi: float) -> tuple[int, int]:
    """Snap [lo, hi] to cell boundaries: half-open cell range [i0, i1)."""
    h = lattice.spacing
    i0 = math.floor(lo / h + 0.5)
    i1 = math.floor(hi / h + 0.5)
    return max(i0, 0), min(i1, lattice.resolution)


def measure_box(m: LatticeMeasure, lo, hi) -> float | np.ndarray:
    """Mass of the box [lo, hi] (per-axis), snapped to cell boundaries.

    A block of measures, masses of shape (replicas, n_sites), gives one mass
    per replica; each is summed over the box's trailing axes exactly as the
    replica's own measure would be, so the masses are equal bit for bit.
    """
    lat = m.lattice
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != (lat.d,) or hi.shape != (lat.d,):
        raise ChaosError("box bounds must match the lattice dimension")
    # snapped on Python floats: this runs once per box and block, where
    # numpy scalar arithmetic costs about a microsecond per axis
    slices = tuple([slice(*_snap_interval(lat, a, b)) for a, b in zip(lo.tolist(), hi.tolist())])
    for s in slices:
        if s.stop <= s.start:
            raise ChaosError("box has empty intersection with the domain")
    lead = m.masses.shape[:-1]
    box = m.masses.reshape(lead + lat.shape)[(Ellipsis, *slices)]
    if not lead:
        return float(box.sum())
    return box.sum(axis=tuple(range(len(lead), box.ndim)))

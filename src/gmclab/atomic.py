"""Atomic (dual) chaos: stable atom sampling and the two constructions.

The direct construction weights the atoms of an alpha-stable scattered measure
by a non-normalized lognormal factor exp((gamma/alpha) X - (gamma^2/(2 alpha))
Var X).  The subordinated construction draws a conditionally Poisson atom
cloud with intensity M(dx) dz / z^(1+alpha) from a realized chaos measure.
Both realize the same law; the Laplace comparison in the analysis module is
the cross-check.  The moment constant and the fractional moment identity the
acceptance criteria compare against are reference code in tests/oracles.py.

Both clouds are truncated Poisson clouds with intensity control(dx) dz /
z^(1+alpha), the stable one's control being dx: one draw, `_poisson_cloud`,
makes both, and one record, `AtomicMeasure`, holds both.  The stable cloud,
`StableAtoms`, is the measure of its sizes plus the alpha and z_min the direct
construction reads.  On the lattice a cloud is its per-cell counts and its
masses in cell order: every check reads a cloud only through the cells its
atoms fall in, so a cloud draws one Poisson count per cell and then its sizes,
and no coordinate.  A cloud's per-atom cell index is derived from its counts,
for the readers that need one; `atom_positions` places atoms uniformly inside
their cells for the outputs that show coordinates.

Where only cell masses are read, neither dual needs a cloud.  Untruncated, a
cell's atoms sum to a scaled standard positive alpha-stable draw S_c: the
direct dual's cell c carries w_c (h^d Gamma(1-a)/a)^(1/a) S_c
(`build_dual_cells`) and, given M, the subordinated dual's carries
(Gamma(1-a) M_c/a)^(1/a) S_c (`build_subordinated_cells`).  Both draw their
S_c from the module's one sampler of that law, `sample_positive_stable(alpha,
shape, rng)`, a row of cells at a time and with no z_min.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chaos import LatticeMeasure, measure_box
from .field import FieldGrid, Lattice

# mean discarded atom mass per unit control mass at z_min = auto
Z_MIN_REL_TOL = 1e-3
# most atoms per unit control mass a config may expect: at z_min = auto the
# count z_min^-alpha / alpha grows from 4.0e6 at alpha = 0.65 to 8.5e10 (636
# GiB of clouds) at 0.75, so validate_config rejects a cloud above it
ATOM_BUDGET = 1e7
# Kanter's formula floors an exponential draw at the smallest normal double
# and clips its log-result to the positive finite doubles
_TINY = np.finfo(float).tiny
_LOG_BOUNDS = np.log([_TINY, np.finfo(float).max])


class AtomicError(ValueError):
    pass


def _check_counts(counts: np.ndarray, lattice: Lattice, n_atoms: int):
    """Reject per-cell counts that do not describe n_atoms atoms on lattice."""
    if counts.shape != (lattice.n_sites,):
        raise AtomicError(f"counts has shape {counts.shape}, not ({lattice.n_sites},)")
    if int(counts.min()) < 0:
        raise AtomicError("negative atom count")
    if int(counts.sum()) != n_atoms:
        raise AtomicError(f"counts sum to {int(counts.sum())}, not the {n_atoms} atoms")


def _check_positive(masses: np.ndarray):
    if masses.size and float(masses.min()) <= 0:
        raise AtomicError("atom masses must be positive")


def _check_alpha(alpha: float):
    if not (0.0 < alpha < 1.0):
        raise AtomicError("alpha must lie strictly in (0, 1)")


@dataclass
class AtomicMeasure:
    """Purely atomic measure: counts[c] atoms in lattice cell c, with positive
    masses listed in cell order."""

    lattice: Lattice
    counts: np.ndarray     # (n_sites,) atoms per cell
    masses: np.ndarray     # (count,) in cell order

    def __post_init__(self):
        _check_positive(self.masses)
        _check_counts(self.counts, self.lattice, self.masses.size)

    @property
    def count(self) -> int:
        return len(self.masses)

    @property
    def cells(self) -> np.ndarray:
        """(count,) flat cell index of each atom, nondecreasing."""
        return np.repeat(np.arange(self.counts.size), self.counts)

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def cell_masses(self) -> LatticeMeasure:
        """The atoms' masses summed per cell."""
        return LatticeMeasure(self.lattice, np.bincount(self.cells, weights=self.masses,
                                                        minlength=self.lattice.n_sites))

    def box_mass(self, lo, hi) -> float:
        """Mass of the box [lo, hi], snapped to cell boundaries as measure_box does."""
        return measure_box(self.cell_masses(), lo, hi)


@dataclass
class StableAtoms(AtomicMeasure):
    """Finite truncation of the Poisson cloud with intensity dx dz/z^(1+alpha)
    over the lattice's cells, as the atomic measure of its atom sizes: masses
    lists the sizes, all >= z_min, in cell order."""

    alpha: float
    z_min: float

    def __post_init__(self):
        # not AtomicMeasure's positivity scan: sizes >= z_min > 0 implies it
        _check_alpha(self.alpha)
        if not (self.z_min > 0):
            raise AtomicError("z_min must be positive")
        if self.masses.size and float(self.masses.min()) < self.z_min * (1 - 1e-12):
            raise AtomicError("atom sizes below the truncation level")
        _check_counts(self.counts, self.lattice, self.masses.size)


class _DirectAtoms(AtomicMeasure):
    """The direct construction on a stable cloud: one mass per atom of the
    cloud, on the cloud's counts array, which StableAtoms has already checked
    against that many atoms.  Only the masses' positivity is checked."""

    def __post_init__(self):
        _check_positive(self.masses)


def xi_bar(gamma2: float, alpha: float, d: int, q) -> float | np.ndarray:
    """Dual spectrum (d/alpha + g2/(2 alpha)) q - (g2/(2 alpha^2)) q^2.

    Equals xi(q/alpha); in duality mode (alpha = g2/2d) it is
    (d + gbar^2/2) q - (gbar^2/2) q^2 with gbar = gamma/alpha.
    """
    _check_alpha(alpha)
    q = np.asarray(q, dtype=float)
    out = (d / alpha + gamma2 / (2 * alpha)) * q - (gamma2 / (2 * alpha**2)) * q * q
    return float(out) if out.ndim == 0 else out


def truncation_bound(control_mass: float, alpha: float, z_min: float) -> float:
    """Conditional mean of the discarded (z < z_min) atom mass."""
    return control_mass * z_min ** (1.0 - alpha) / (1.0 - alpha)


def expected_atom_count(control_mass: float, alpha: float, z_min: float) -> float:
    return control_mass * z_min ** (-alpha) / alpha


def auto_z_min(alpha: float) -> float:
    """Truncation level making the mean discarded mass Z_MIN_REL_TOL per unit
    control mass: z^(1-alpha)/(1-alpha) = Z_MIN_REL_TOL."""
    return (Z_MIN_REL_TOL * (1.0 - alpha)) ** (1.0 / (1.0 - alpha))


def _pareto(rng: np.random.Generator, alpha: float, z_min: float, size: int) -> np.ndarray:
    # P(z > t) = (t/z_min)^(-alpha), t >= z_min: z = z_min / u^(1/alpha), in
    # place on the uniforms (numpy squares for the exponent 2 of alpha = 1/2)
    u = rng.random(size)
    np.power(u, 1.0 / alpha, out=u)
    np.divide(z_min, u, out=u)
    return u


def _poisson_cloud(lattice: Lattice, control, alpha: float, z_min: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(counts, sizes) of the Poisson cloud control(dx) dz / z^(1+alpha), z >= z_min,
    on the lattice's cells.  control is the cells' control masses, or one scalar
    for equal cells: numpy draws a scalar rate faster than an array of it."""
    _check_alpha(alpha)
    if not (z_min > 0):
        raise AtomicError("z_min must be positive")
    counts = rng.poisson(expected_atom_count(control, alpha, z_min), lattice.n_sites)
    return counts, _pareto(rng, alpha, z_min, counts.sum())


def sample_stable_atoms(region: Lattice, alpha: float, z_min: float,
                        rng: np.random.Generator) -> StableAtoms:
    """Draw the truncated Poisson cloud cell by cell on the lattice region:
    Poisson(h^d z_min^-alpha / alpha) atoms per cell, sizes Pareto(alpha, z_min).

    By Poisson thinning this is the law of one Poisson(z_min^-alpha / alpha)
    count of atoms placed uniformly on the unit box, seen through the cells."""
    counts, sizes = _poisson_cloud(region, region.volume / region.n_sites, alpha, z_min, rng)
    return StableAtoms(lattice=region, counts=counts, masses=sizes, alpha=alpha, z_min=z_min)


def atom_positions(lattice: Lattice, cells: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Coordinates (count, d) of atoms in the given cells: (cell + v) h per
    axis, v uniform on [0, 1), so each atom is uniform on its cell."""
    index = np.column_stack(np.unravel_index(cells, lattice.shape))
    return (index + rng.random((len(cells), lattice.d))) * lattice.spacing


def _dual_weights(values: np.ndarray, variance0, gamma2: float, alpha: float) -> np.ndarray:
    """Per-cell weight exp((g/a) X - (g^2/2a) Var X) of the direct dual."""
    gamma = np.sqrt(gamma2)
    return np.exp((gamma / alpha) * values - (gamma2 / (2 * alpha)) * variance0)


def build_atomic_direct(field: FieldGrid, gamma2: float, atoms: StableAtoms,
                        row: int | None = None) -> AtomicMeasure:
    """Direct construction: atom mass z * exp((g/a) X(cell) - (g^2/2a) Var X), a = atoms.alpha.

    field is the atoms' replica, or a block of replicas whose row `row` is.
    The field and the atom cloud must come from independent RNG substreams.
    """
    if atoms.lattice != field.lattice:
        raise AtomicError("atoms and field live on different lattices")
    values = field.values if row is None else field.values[row]
    # each cell's weight repeated once per atom: the doubles a gather by
    # atoms.cells would give, with no per-atom index
    masses = np.repeat(_dual_weights(values, field.variance0, gamma2, atoms.alpha),
                       atoms.counts)
    masses *= atoms.masses
    # shares the cloud's counts array; no caller writes to either
    return _DirectAtoms(lattice=field.lattice, counts=atoms.counts, masses=masses)


def _kanter(alpha: float, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Kanter's formula, as sample_positive_stable states it, elementwise on
    rng.random() uniforms u and standard exponentials e of one shape.

    Both arrays are overwritten and the draws come back in u's buffer.  In
    place, a (rows, n_sites) block allocates only one more array of its
    shape, and a second one unless alpha = 1/2, so evaluating whole blocks
    adds nothing to peak memory.

    At alpha = 1/2 (the duality point gamma^2 = d), 1 - a == a as floats, so
    sin((1-a)U) and sin(aU) are the same sine bit for bit: the log of their
    ratio is exactly 0 and (1-a)/a exactly 1, and the tail term is -log E,
    negated in place with no third sine.  Where E = 1 it is -0.0 rather
    than +0.0; the sum with log(sin(aU)/sin U)/a, never -0.0, makes them
    the same bits.
    """
    np.multiply(np.pi, np.subtract(1.0, u, out=u), out=u)      # U in (0, pi)
    np.log(np.maximum(e, _TINY, out=e), out=e)
    sin_au = np.multiply(alpha, u)
    np.sin(sin_au, out=sin_au)
    if 1.0 - alpha == alpha:
        tail = np.negative(e, out=e)
    else:
        # ((1-a)/a) (log(sin((1-a)U) / sin(aU)) - log E)
        tail = np.multiply(1.0 - alpha, u)
        np.sin(tail, out=tail)
        np.divide(tail, sin_au, out=tail)
        np.log(tail, out=tail)
        np.subtract(tail, e, out=tail)
        np.multiply((1.0 - alpha) / alpha, tail, out=tail)
    # + log(sin(aU) / sin U) / a
    np.sin(u, out=u)
    np.divide(sin_au, u, out=u)
    np.log(u, out=u)
    np.divide(u, alpha, out=u)
    np.add(u, tail, out=u)
    return np.exp(np.clip(u, *_LOG_BOUNDS, out=u), out=u)


def sample_positive_stable(alpha: float, shape, rng: np.random.Generator) -> np.ndarray:
    """Standard positive alpha-stable draws, E exp(-u S) = exp(-u^alpha), of
    shape n (an int), (n,) or (rows, n).

    Kanter's representation: with U uniform on (0, pi) and E ~ Exp(1),
    S = sin(aU)/sin(U)^(1/a) * (sin((1-a)U)/E)^((1-a)/a).  It is evaluated in
    logs as (sin(aU)/sin U)^(1/a) (sin((1-a)U)/(sin(aU) E))^((1-a)/a), whose
    ratios stay finite as U -> 0, and at alpha = 1/2, where the second
    factor is 1/E, with two sines in place of three.  U = pi (1 - u) for
    u = rng.random() never reaches 0, and the float pi lies below pi, so
    sin U > 0.  The result is clipped to the positive finite doubles, which
    only the edge draw E = 0 and the extreme tails reach.

    Draw order: row by row, rng.random(n) and then rng.standard_exponential(n),
    each drawn straight into its row of the block; Kanter's formula then runs
    once on the whole block.  So row r equals the r-th of consecutive one-row
    calls bit for bit, and a block split into chunks of rows draws the same
    cells.
    """
    _check_alpha(alpha)
    uniforms = np.empty(shape)
    exponentials = np.empty_like(uniforms)
    for row in np.ndindex(uniforms.shape[:-1]):
        rng.random(out=uniforms[row])
        rng.standard_exponential(out=exponentials[row])
    return _kanter(alpha, uniforms, exponentials)


def build_dual_cells(field: FieldGrid, gamma2: float, alpha: float,
                     rng: np.random.Generator) -> LatticeMeasure:
    """Exact cell masses of the direct dual: the untruncated stable atoms of
    cell c sum to (h^d Gamma(1-a)/a)^(1/a) S_c, S_c standard positive stable,
    so cell c carries exp((g/a) X_c - (g^2/2a) Var X_c) (h^d Gamma(1-a)/a)^(1/a) S_c.

    One positive-stable draw per cell replaces the atom cloud wherever only
    cell-aligned masses are read.  field is one replica or a block of
    replicas, whose rows draw their cells from rng in order.  The field and
    rng must be independent.
    """
    from scipy.special import gamma as gamma_fn  # imported here: see the package docstring

    lat = field.lattice
    scale = (lat.spacing**lat.d * gamma_fn(1.0 - alpha) / alpha) ** (1.0 / alpha)
    stable = sample_positive_stable(alpha, field.values.shape, rng)
    weights = _dual_weights(field.values, field.variance0, gamma2, alpha)
    return LatticeMeasure(lattice=lat, masses=weights * scale * stable)


def build_subordinated_cells(m: LatticeMeasure, alpha: float,
                             rng: np.random.Generator) -> LatticeMeasure:
    """Exact cell masses of the subordinated dual given the chaos m: cell c's
    atoms, Poisson with intensity M_c dz / z^(1+a) and untruncated, sum to
    (Gamma(1-a) M_c / a)^(1/a) S_c, S_c standard positive stable, since
    E exp(-u N_a(M_c)) = exp(-M_c u^a Gamma(1-a)/a).

    m is one replica's measure or a block of them, whose rows draw their
    cells from rng in order, as build_dual_cells does.  m and rng must be
    independent.
    """
    from scipy.special import gamma as gamma_fn  # imported here: see the package docstring

    if not np.all(np.isfinite(m.masses)):
        raise AtomicError("non-finite cell masses")
    stable = sample_positive_stable(alpha, m.masses.shape, rng)
    return LatticeMeasure(lattice=m.lattice,
                          masses=(gamma_fn(1.0 - alpha) / alpha * m.masses) ** (1.0 / alpha)
                          * stable)


def build_subordinated(m: LatticeMeasure, alpha: float, z_min: float,
                       rng: np.random.Generator) -> AtomicMeasure:
    """Subordinated construction: cell-wise conditional Poisson sampling with
    intensity M(cell) z_min^-alpha / alpha and Pareto sizes."""
    if not np.all(np.isfinite(m.masses)):
        raise AtomicError("non-finite cell masses")
    counts, masses = _poisson_cloud(m.lattice, m.masses, alpha, z_min, rng)
    return AtomicMeasure(lattice=m.lattice, counts=counts, masses=masses)

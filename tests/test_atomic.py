import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmclab.atomic import (
    AtomicError,
    AtomicMeasure,
    StableAtoms,
    _dual_weights,
    atom_positions,
    auto_z_min,
    build_atomic_direct,
    build_dual_cells,
    build_subordinated,
    expected_atom_count,
    sample_positive_stable,
    sample_stable_atoms,
    truncation_bound,
    xi_bar,
)
from gmclab.chaos import build_chaos, measure_box, xi
from gmclab.field import Lattice, LayerSampler, RngStream
from gmclab.kernels import KernelSpec
from oracles import (
    fractional_moment_identity_check,
    moment_relation_constant,
    replica_fields,
    replica_generators,
)

EXACT1D = KernelSpec(family="exact1d", T=1.0, d=1)
LAT64 = Lattice(1, 64)


def make_field(level=4, res=64, seed=1, replica=0):
    sampler = LayerSampler(EXACT1D, Lattice(1, res), range(1, level + 1))
    return sampler.sample_field(RngStream(seed), replica)


class TestDuality:
    def test_out_of_range(self):
        # duality mode needs gamma2 < 2d: at gamma2 = 2d, alpha = gamma2/(2d) = 1
        gamma2, d = 2.0, 1
        with pytest.raises(AtomicError):
            xi_bar(gamma2, gamma2 / (2 * d), d, 0.5)

    @given(st.floats(0.05, 0.45))
    @settings(max_examples=30, deadline=None)
    def test_xi_bar_is_rescaled_xi(self, q):
        gamma2, d = 1.0, 1
        alpha = gamma2 / (2 * d)
        assert xi_bar(gamma2, alpha, d, q) == pytest.approx(xi(gamma2, d, q / alpha), rel=1e-12)

    def test_xi_bar_at_alpha(self):
        # xi_bar(alpha) = xi(1) = d
        assert xi_bar(1.0, 0.5, 1, 0.5) == pytest.approx(1.0)
        assert xi_bar(1.0, 0.25, 2, 0.25) == pytest.approx(2.0)


class TestStableAtoms:
    def test_truncation_bookkeeping(self):
        assert truncation_bound(1.0, 0.5, 1e-6) == pytest.approx(2e-3)
        assert expected_atom_count(1.0, 0.5, 1e-6) == pytest.approx(2000.0)
        z = auto_z_min(0.5)
        assert truncation_bound(1.0, 0.5, z) == pytest.approx(1e-3)

    def test_sampled_counts_and_sizes(self):
        rng = np.random.default_rng(4)
        atoms = sample_stable_atoms(LAT64, 0.5, 1e-4, rng)
        assert atoms.count > 0
        assert atoms.masses.min() >= 1e-4
        assert atoms.cells.min() >= 0 and atoms.cells.max() < LAT64.n_sites
        assert np.all(np.diff(atoms.cells) >= 0)

    @pytest.mark.parametrize("lat, alpha", [(Lattice(1, 64), 0.5), (Lattice(2, 16), 0.5),
                                            (Lattice(2, 27), 0.5), (Lattice(1, 64), 0.25),
                                            (Lattice(1, 64), 0.3)],
                             ids=["d1", "d2", "box", "d1-alpha0.25", "d1-alpha0.3"])
    def test_positions_match_generator_uniform(self, lat, alpha):
        # the cloud draws its per-cell counts, then its sizes; positions are
        # (cell + v) h with v the uniforms of their own generator, one row
        # per atom (box: a 2-D lattice whose spacing 1/27 is no binary fraction;
        # at alpha 0.25 and 0.3 the sizes take numpy's general power loop)
        atoms = sample_stable_atoms(lat, alpha, 1e-3, RngStream(3).generator("atoms", 0))
        rng = RngStream(3).generator("atoms", 0)
        counts = rng.poisson(expected_atom_count(1.0 / lat.n_sites, alpha, 1e-3), lat.n_sites)
        np.testing.assert_array_equal(atoms.counts, counts)
        np.testing.assert_array_equal(atoms.cells, np.repeat(np.arange(lat.n_sites), counts))
        np.testing.assert_array_equal(atoms.masses, 1e-3 / rng.random(counts.sum()) ** (1.0 / alpha))
        pos = atom_positions(lat, atoms.cells, RngStream(3).generator("positions", 0))
        v = RngStream(3).generator("positions", 0).random((atoms.count, lat.d))
        index = np.stack(np.unravel_index(atoms.cells, (lat.resolution,) * lat.d), axis=1)
        np.testing.assert_array_equal(pos, (index + v) * lat.spacing)

    def test_cell_counts_mean_and_variance(self):
        # every cell's count is Poisson(h^d z_min^-alpha / alpha)
        for lat in (Lattice(1, 64), Lattice(2, 16)):
            lam = lat.spacing**lat.d * 1e-4 ** -0.5 / 0.5
            counts = np.concatenate([
                sample_stable_atoms(lat, 0.5, 1e-4, rng).counts
                for rng in replica_generators(RngStream(13), "atoms", 200)])
            n = counts.size
            # SEs of the sample mean and variance of Poisson(lam) counts
            assert abs(counts.mean() - lam) < 4 * np.sqrt(lam / n)
            assert abs(counts.var(ddof=1) - lam) < 4 * np.sqrt((lam + 2 * lam**2) / n)

    def test_pareto_tail_exponent(self):
        rng = np.random.default_rng(11)
        atoms = sample_stable_atoms(LAT64, 0.5, 1e-6, rng)
        # P(z > t) = (t/z_min)^(-alpha): check the median (~2000 atoms)
        med = np.median(atoms.masses)
        assert med == pytest.approx(1e-6 * 2 ** (1 / 0.5), rel=0.2)

    def test_poisson_mean_count(self):
        rng = np.random.default_rng(2)
        counts = [
            sample_stable_atoms(LAT64, 0.5, 1e-2, rng).count
            for _ in range(400)
        ]
        mean = expected_atom_count(1.0, 0.5, 1e-2)
        se = np.sqrt(mean / len(counts))
        assert abs(np.mean(counts) - mean) < 4 * se


class _EdgeDraws:
    """Generator stand-in whose uniform and exponential draws are fixed."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)

    def standard_exponential(self, size):
        return np.zeros(size)


class TestPositiveStable:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_laplace_transform(self, alpha):
        s = sample_positive_stable(alpha, 100_000, np.random.default_rng(17))
        for u in (0.5, 2.0, 8.0, 32.0):
            t = np.exp(-u * s)
            se = t.std(ddof=1) / np.sqrt(t.size)
            assert abs(t.mean() - np.exp(-u**alpha)) < 4 * se, u

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_laplace_transform_on_atoms_streams(self, alpha):
        # as build_dual_cells draws: one cell's worth per replica, each block's
        # replicas in order from its substream
        s = np.concatenate([sample_positive_stable(alpha, 1000, rng)
                            for rng in replica_generators(RngStream(19), "atoms", 100)])
        for u in (0.5, 2.0, 8.0, 32.0):
            t = np.exp(-u * s)
            se = t.std(ddof=1) / np.sqrt(t.size)
            assert abs(t.mean() - np.exp(-u**alpha)) < 4 * se, u

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53], ids=["u0", "u1"])
    def test_edge_draws_finite_and_positive(self, alpha, u):
        # E = 0 together with either end of the uniform grid
        s = sample_positive_stable(alpha, 3, _EdgeDraws(u))
        assert np.all(np.isfinite(s)) and np.all(s > 0)

    def test_cell_law_matches_atoms(self):
        # box [0, 1/4) at N = 64: the exact cell masses against the truncated
        # atom-level direct construction, by the Laplace transform; the atoms
        # miss at most the conditional mean truncation_bound of the weights
        gamma2, alpha, z_min, R = 1.0, 0.5, 1e-7, 2000
        sampler = LayerSampler(EXACT1D, Lattice(1, 64), range(1, 4))
        gamma = np.sqrt(gamma2)
        cell_stream, atom_stream = RngStream(31), RngStream(32)
        cells, atoms, missed = np.empty(R), np.empty(R), np.empty(R)
        for r, (f, g, cell_rng, atom_rng) in enumerate(zip(
                replica_fields(sampler, cell_stream, R), replica_fields(sampler, atom_stream, R),
                replica_generators(cell_stream, "atoms", R),
                replica_generators(atom_stream, "atoms", R))):
            mbar = build_dual_cells(f, gamma2, alpha, cell_rng)
            cells[r] = measure_box(mbar, [0.0], [0.25])
            cloud = sample_stable_atoms(g.lattice, alpha, z_min, atom_rng)
            atoms[r] = build_atomic_direct(g, gamma2, cloud).box_mass([0.0], [0.25])
            w = np.exp((gamma / alpha) * g.values - (gamma2 / (2 * alpha)) * g.variance0)
            missed[r] = truncation_bound(w[:16].sum() / 64, alpha, z_min)
        for u in (0.5, 2.0, 8.0):
            a, b = np.exp(-u * cells), np.exp(-u * atoms)
            se = np.sqrt(a.var(ddof=1) / R + b.var(ddof=1) / R)
            assert abs(a.mean() - b.mean()) < 4 * se + u * missed.mean(), u


class TestConstructions:
    def test_direct_masses_positive(self):
        f = make_field()
        atoms = sample_stable_atoms(LAT64, 0.5, 1e-5, np.random.default_rng(1))
        mbar = build_atomic_direct(f, 1.0, atoms)
        assert mbar.count == atoms.count
        assert np.all(mbar.masses > 0)

    def test_direct_lattice_mismatch(self):
        # cells of a 32-cell cloud would index the wrong sites of a 64-cell field
        atoms = sample_stable_atoms(Lattice(1, 32), 0.5, 1e-4, np.random.default_rng(1))
        with pytest.raises(AtomicError):
            build_atomic_direct(make_field(), 1.0, atoms)

    @pytest.mark.parametrize("spec, lat, alpha", [
        (EXACT1D, Lattice(1, 64), 0.5),
        (KernelSpec(family="exact2d", T=1.0, d=2), Lattice(2, 16), 0.5),
        (KernelSpec(family="gff-square", T=1.0, d=2), Lattice(2, 8), 0.5),
        (EXACT1D, Lattice(1, 64), 0.25),
    ], ids=["exact1d", "exact2d", "gff-square", "exact1d-alpha-0.25"])
    def test_direct_masses_match_cell_gather(self, spec, lat, alpha):
        # each cell's weight repeated by its count gives the doubles of a
        # gather by the atoms' cells, so every mass is bit-equal to it; the
        # weights take the cloud's own alpha
        stream = RngStream(6)
        f = LayerSampler(spec, lat, range(1, 4)).sample_field(stream, 0)
        atoms = sample_stable_atoms(lat, alpha, 1e-4, stream.generator("atoms", 0))
        mbar = build_atomic_direct(f, 2.0, atoms)
        ref = _dual_weights(f.values, f.variance0, 2.0, atoms.alpha)[atoms.cells] * atoms.masses
        assert atoms.count > 0
        assert np.array_equal(mbar.counts, atoms.counts)
        assert np.array_equal(mbar.masses, ref)

    def test_cells_derive_from_counts(self):
        # both clouds keep their per-cell Poisson counts; each atom's cell is
        # derived from them, in cell order
        f = make_field()
        m = build_chaos(f, 1.0)
        direct = build_atomic_direct(
            f, 1.0, sample_stable_atoms(LAT64, 0.5, 1e-4, np.random.default_rng(1)))
        subordinated = build_subordinated(m, 0.5, 1e-4, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        counts = rng.poisson(m.masses * 1e-4 ** -0.5 / 0.5)
        assert np.array_equal(subordinated.counts, counts)
        np.testing.assert_array_equal(subordinated.masses, 1e-4 / rng.random(counts.sum()) ** 2.0)
        for cloud in (direct, subordinated):
            assert cloud.count > 0 and cloud.counts.shape == (LAT64.n_sites,)
            assert np.array_equal(cloud.cells, np.repeat(np.arange(LAT64.n_sites), cloud.counts))

    @pytest.mark.parametrize("counts, message", [
        (np.array([1, 1] + [0] * 61), "shape"),
        (np.array([[1, 1] + [0] * 62]), "shape"),
        (np.array([3, -1] + [0] * 62), "negative"),
        (np.array([1, 1, 1] + [0] * 61), "sum to 3"),
    ], ids=["short", "2-d", "negative", "sum"])
    @pytest.mark.parametrize("cloud", ["stable", "measure"])
    def test_mismatched_counts_raise(self, counts, message, cloud):
        # two atoms on the 64 cells of LAT64
        sizes = np.full(2, 1e-3)
        with pytest.raises(AtomicError, match=message):
            if cloud == "stable":
                StableAtoms(lattice=LAT64, counts=counts, masses=sizes, alpha=0.5, z_min=1e-4)
            else:
                AtomicMeasure(lattice=LAT64, counts=counts, masses=sizes)

    def test_stable_cloud_is_the_measure_of_its_sizes(self):
        # the stable cloud is an AtomicMeasure whose masses are its sizes
        atoms = sample_stable_atoms(LAT64, 0.5, 1e-5, np.random.default_rng(4))
        assert isinstance(atoms, AtomicMeasure) and atoms.count > 0
        sizes, cells = atoms.masses, np.repeat(np.arange(LAT64.n_sites), atoms.counts)
        assert atoms.total_mass() == float(sizes.sum())
        assert np.array_equal(atoms.cell_masses().masses,
                              np.bincount(cells, weights=sizes, minlength=LAT64.n_sites))

    def test_subordinated_positions_in_cells(self):
        m = build_chaos(make_field(), 1.0)
        mbar = build_subordinated(m, 0.5, 1e-4, np.random.default_rng(3))
        assert mbar.cells.min() >= 0 and mbar.cells.max() < m.lattice.n_sites
        assert np.all(mbar.masses >= 1e-4)

    def test_box_mass_additive(self):
        f = make_field(seed=9)
        atoms = sample_stable_atoms(LAT64, 0.5, 1e-5, np.random.default_rng(5))
        mbar = build_atomic_direct(f, 1.0, atoms)
        halves = mbar.box_mass([0.0], [0.5]) + mbar.box_mass([0.5], [1.0])
        assert halves == pytest.approx(mbar.total_mass(), rel=1e-12)

    def test_laplace_transform_agreement(self):
        # the two constructions share one law: compare E[exp(-u Mbar)] by MC
        sampler = LayerSampler(EXACT1D, Lattice(1, 64), range(1, 4))
        stream = RngStream(21)
        R = 3000
        direct = np.empty(R)
        subord = np.empty(R)
        for r, (f, atom_rng, subordinated_rng) in enumerate(zip(
                replica_fields(sampler, stream, R), replica_generators(stream, "atoms", R),
                replica_generators(stream, "subordinated", R))):
            m = build_chaos(f, 1.0)
            atoms = sample_stable_atoms(f.lattice, 0.5, 1e-6, atom_rng)
            direct[r] = build_atomic_direct(f, 1.0, atoms).total_mass()
            subord[r] = build_subordinated(m, 0.5, 1e-6, subordinated_rng).total_mass()
        u = 1.0
        a = np.exp(-u * direct)
        b = np.exp(-u * subord)
        se = np.sqrt(a.var(ddof=1) / R + b.var(ddof=1) / R)
        assert abs(a.mean() - b.mean()) < 4 * se


class TestMomentConstants:
    def test_golden_value(self):
        # frozen high-precision oracle value for beta=0.25, alpha=0.5
        assert moment_relation_constant(0.25, 0.5) == pytest.approx(2.72328821633067, rel=1e-12)

    def test_degenerate_cases(self):
        assert moment_relation_constant(0.0, 0.5) == 1.0
        with pytest.raises(AtomicError):
            moment_relation_constant(0.5, 0.5)

    @pytest.mark.parametrize("x,beta", [(0.5, 0.25), (2.0, 0.5), (10.0, 0.75)])
    def test_fractional_moment_identity(self, x, beta):
        assert fractional_moment_identity_check(x, beta) < 1e-8

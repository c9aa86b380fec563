import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmclab.atomic import (
    AtomicError,
    Region,
    alpha_from_gamma,
    auto_z_min,
    build_atomic_direct,
    build_subordinated,
    expected_atom_count,
    fractional_moment_identity_check,
    moment_relation_constant,
    sample_stable_atoms,
    truncation_bound,
    xi_bar,
)
from gmclab.chaos import build_chaos, xi
from gmclab.field import Lattice, LayerSampler, RngStream
from gmclab.kernels import KernelSpec

EXACT1D = KernelSpec(family="exact1d", T=1.0, d=1)


def make_field(level=4, res=64, seed=1, replica=0):
    sampler = LayerSampler(EXACT1D, Lattice(1, res), range(1, level + 1))
    return sampler.sample_field(RngStream(seed), replica)


class TestDuality:
    @pytest.mark.parametrize("gamma2,d,alpha", [
        (1.0, 1, 0.5),
        (0.5, 1, 0.25),
        (1.0, 2, 0.25),
        (3.6, 2, 0.9),
    ])
    def test_alpha_from_gamma(self, gamma2, d, alpha):
        a, gbar = alpha_from_gamma(gamma2, d)
        assert a == pytest.approx(alpha)
        # the pairing gamma * gamma_bar = 2d
        assert np.sqrt(gamma2) * gbar == pytest.approx(2 * d)

    def test_out_of_range(self):
        with pytest.raises(AtomicError):
            alpha_from_gamma(2.0, 1)

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
        z = auto_z_min(0.5, rel_tol=1e-3)
        assert truncation_bound(1.0, 0.5, z) == pytest.approx(1e-3)

    def test_sampled_counts_and_sizes(self):
        rng = np.random.default_rng(4)
        atoms = sample_stable_atoms(Region.unit(1), 0.5, 1e-4, rng)
        assert atoms.count > 0
        assert atoms.sizes.min() >= 1e-4
        assert np.all((atoms.positions >= 0) & (atoms.positions <= 1))

    @pytest.mark.parametrize("low,high", [(0.0, 1.0), ((0.0, 0.0), (1.0, 1.0)),
                                          ((0.25, -1.0), (0.75, 2.0))],
                             ids=["d1", "d2", "box"])
    def test_positions_match_generator_uniform(self, low, high):
        # positions are the values Generator.uniform draws, and the stream
        # continues from the same state
        region = Region(low=low, high=high)
        atoms = sample_stable_atoms(region, 0.5, 1e-3, RngStream(3).generator(0, "atoms"))
        rng = RngStream(3).generator(0, "atoms")
        count = int(rng.poisson(expected_atom_count(region.volume, 0.5, 1e-3)))
        lo, hi = np.atleast_1d(low), np.atleast_1d(high)
        np.testing.assert_array_equal(atoms.positions, rng.uniform(lo, hi, size=(count, lo.size)))
        np.testing.assert_array_equal(atoms.sizes, 1e-3 * rng.random(count) ** -2.0)

    def test_pareto_tail_exponent(self):
        rng = np.random.default_rng(11)
        atoms = sample_stable_atoms(Region.unit(1), 0.5, 1e-6, rng)
        # P(z > t) = (t/z_min)^(-alpha): check the median (~2000 atoms)
        med = np.median(atoms.sizes)
        assert med == pytest.approx(1e-6 * 2 ** (1 / 0.5), rel=0.2)

    def test_poisson_mean_count(self):
        rng = np.random.default_rng(2)
        counts = [
            sample_stable_atoms(Region.unit(1), 0.5, 1e-2, rng).count
            for _ in range(400)
        ]
        mean = expected_atom_count(1.0, 0.5, 1e-2)
        se = np.sqrt(mean / len(counts))
        assert abs(np.mean(counts) - mean) < 4 * se


class TestConstructions:
    def test_direct_masses_positive(self):
        f = make_field()
        atoms = sample_stable_atoms(Region.unit(1), 0.5, 1e-5, np.random.default_rng(1))
        mbar = build_atomic_direct(f, 1.0, 0.5, atoms)
        assert mbar.count == atoms.count
        assert np.all(mbar.masses > 0)

    def test_direct_alpha_mismatch(self):
        f = make_field()
        atoms = sample_stable_atoms(Region.unit(1), 0.5, 1e-4, np.random.default_rng(1))
        with pytest.raises(AtomicError):
            build_atomic_direct(f, 1.0, 0.3, atoms)

    def test_subordinated_positions_in_cells(self):
        m = build_chaos(make_field(), 1.0)
        mbar = build_subordinated(m, 0.5, 1e-4, np.random.default_rng(3))
        assert np.all((mbar.positions >= 0) & (mbar.positions <= 1))
        assert np.all(mbar.masses >= 1e-4)

    def test_box_mass_additive(self):
        f = make_field(seed=9)
        atoms = sample_stable_atoms(Region.unit(1), 0.5, 1e-5, np.random.default_rng(5))
        mbar = build_atomic_direct(f, 1.0, 0.5, atoms)
        halves = mbar.box_mass([0.0], [0.5]) + mbar.box_mass([0.5], [1.0])
        assert halves == pytest.approx(mbar.total_mass(), rel=1e-12)

    def test_laplace_transform_agreement(self):
        # the two constructions share one law: compare E[exp(-u Mbar)] by MC
        sampler = LayerSampler(EXACT1D, Lattice(1, 64), range(1, 4))
        stream = RngStream(21)
        R = 3000
        direct = np.empty(R)
        subord = np.empty(R)
        for r in range(R):
            f = sampler.sample_field(stream, r)
            m = build_chaos(f, 1.0)
            atoms = sample_stable_atoms(Region.unit(1), 0.5, 1e-6,
                                        stream.generator(r, "atoms"))
            direct[r] = build_atomic_direct(f, 1.0, 0.5, atoms).total_mass()
            subord[r] = build_subordinated(m, 0.5, 1e-6,
                                           stream.generator(r, "subordinated")).total_mass()
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

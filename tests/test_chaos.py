import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmclab.chaos import ChaosError, LatticeMeasure, build_chaos, measure_box, xi, xi_moment_range
from gmclab.field import Lattice, LayerSampler, RngStream
from gmclab.kernels import KernelSpec
from oracles import replica_fields

EXACT1D = KernelSpec(family="exact1d", T=1.0, d=1)


def make_measure(gamma2=0.5, level=4, res=64, seed=1, replica=0):
    sampler = LayerSampler(EXACT1D, Lattice(1, res), range(1, level + 1))
    return build_chaos(sampler.sample_field(RngStream(seed), replica), gamma2)


class TestXi:
    @given(st.floats(0.0, 3.0), st.floats(0.01, 1.9))
    @settings(max_examples=50, deadline=None)
    def test_quadratic_form(self, q, gamma2):
        expected = (1 + gamma2 / 2) * q - (gamma2 / 2) * q * q
        assert xi(gamma2, 1, q) == pytest.approx(expected, rel=1e-12)

    def test_fixed_points(self):
        # xi(0) = 0 and xi(1) = d regardless of gamma
        for g2 in (0.1, 0.5, 1.5):
            assert xi(g2, 1, 0.0) == 0.0
            assert xi(g2, 1, 1.0) == pytest.approx(1.0)
            assert xi(g2, 2, 1.0) == pytest.approx(2.0)

    def test_moment_range(self):
        assert xi_moment_range(0.5, 1) == pytest.approx(4.0)
        assert xi_moment_range(0.0, 1) == np.inf


class TestBuildChaos:
    def test_gamma_zero_is_lebesgue(self):
        m = make_measure(gamma2=0.0)
        np.testing.assert_allclose(m.masses, 1.0 / 64, rtol=1e-12)
        assert m.total_mass() == pytest.approx(1.0)

    def test_masses_positive(self):
        m = make_measure(gamma2=1.2, seed=3)
        assert np.all(m.masses > 0)

    def test_mean_total_mass_unbiased(self):
        # E[M_n([0,1])] = 1 exactly at every level
        sampler = LayerSampler(EXACT1D, Lattice(1, 64), range(1, 5))
        stream = RngStream(8)
        totals = [build_chaos(f, 0.5).total_mass() for f in replica_fields(sampler, stream, 2000)]
        totals = np.asarray(totals)
        se = totals.std(ddof=1) / np.sqrt(len(totals))
        assert abs(totals.mean() - 1.0) < 4 * se

    def test_supercritical_warns(self):
        sampler = LayerSampler(EXACT1D, Lattice(1, 16), [1])
        f = sampler.sample_field(RngStream(1), 0)
        with pytest.warns(UserWarning):
            build_chaos(f, 2.5)

    def test_negative_gamma2_rejected(self):
        sampler = LayerSampler(EXACT1D, Lattice(1, 16), [1])
        f = sampler.sample_field(RngStream(1), 0)
        with pytest.raises(ChaosError):
            build_chaos(f, -0.1)


class TestDecompositionIndependence:
    def test_exact_vs_star_matched_variance(self):
        # two decompositions tuned to the same limit kernel give close mass
        # laws (approximate finite-level comparison; KS distance threshold)
        from scipy.stats import ks_2samp

        # star log zone aligns with ln(1/r) at T = 2 exp(euler/2); level
        # variances match at 8 ln 2 ~ ln 94 + 1
        star = KernelSpec(family="star", T=2.0 * np.exp(0.5772156649 / 2.0), d=1)
        lat = Lattice(1, 256)
        exact_sampler = LayerSampler(EXACT1D, lat, range(1, 95))
        star_sampler = LayerSampler(star, lat, range(1, 9))
        R = 2000
        a = np.empty(R)
        b = np.empty(R)
        sa, sb = RngStream(31), RngStream(32)
        for r, (fa, fb) in enumerate(zip(replica_fields(exact_sampler, sa, R),
                                         replica_fields(star_sampler, sb, R))):
            a[r] = measure_box(build_chaos(fa, 0.5), [0.0], [0.5])
            b[r] = measure_box(build_chaos(fb, 0.5), [0.0], [0.5])
        assert ks_2samp(a, b).statistic < 0.05


class TestMeasureBox:
    def test_partition_additivity(self):
        m = make_measure(seed=5)
        total = m.total_mass()
        parts = sum(
            measure_box(m, [k / 4], [(k + 1) / 4]) for k in range(4)
        )
        assert parts == pytest.approx(total, rel=1e-12)

    def test_snapping(self):
        m = make_measure(res=64)
        # bounds inside a cell snap to the nearest boundary
        a = measure_box(m, [0.0], [0.25])
        b = measure_box(m, [0.001], [0.2501])
        assert a == pytest.approx(b)

    def test_empty_box_rejected(self):
        m = make_measure()
        with pytest.raises(ChaosError):
            measure_box(m, [0.5], [0.5])

    def test_2d_box(self):
        spec2 = KernelSpec(family="exact2d", T=1.0, d=2)
        sampler = LayerSampler(spec2, Lattice(2, 16), range(1, 3))
        m = build_chaos(sampler.sample_field(RngStream(2), 0), 0.5)
        quads = sum(
            measure_box(m, [i / 2, j / 2], [(i + 1) / 2, (j + 1) / 2])
            for i in range(2)
            for j in range(2)
        )
        assert quads == pytest.approx(m.total_mass(), rel=1e-12)

    @pytest.mark.parametrize("spec, resolution", [
        (EXACT1D, 256), (KernelSpec(family="exact2d", T=1.0, d=2), 32)], ids=["d1", "d2"])
    def test_block_matches_replica_loop(self, spec, resolution):
        # a block of 20 replicas gives each replica's own mass bit for bit,
        # for whole, snapped and partial boxes
        lat = Lattice(spec.d, resolution)
        sampler = LayerSampler(spec, lat, range(1, 5))
        stream = RngStream(6)
        measures = [build_chaos(sampler.sample_field(stream, r), 0.5) for r in range(20)]
        block = LatticeMeasure(lat, np.stack([m.masses for m in measures]))
        for lo, hi in [(0.0, 1.0), (0.0, 0.3), (0.1, 0.77), (0.5, 0.53)]:
            lo, hi = np.full(spec.d, lo), np.full(spec.d, hi)
            got = measure_box(block, lo, hi)
            assert got.shape == (20,)
            assert np.array_equal(got, [measure_box(m, lo, hi) for m in measures])

import numpy as np
import pytest

from gmclab.config import ExperimentConfig
from gmclab.field import (
    DENSE_SITE_LIMIT,
    FieldError,
    Lattice,
    LayerSampler,
    PURPOSES,
    RngStream,
    field_variance0,
    prepare_circulant,
)
from gmclab.kernels import (
    KernelSpec,
    eval_level_increment,
    eval_partial_kernel,
    level_increment_radial,
)
from gmclab.pipelines import run_field

EXACT1D = KernelSpec(family="exact1d", T=1.0, d=1)
STAR1D = KernelSpec(family="star", T=1.0, d=1)
EXACT2D = KernelSpec(family="exact2d", T=1.0, d=2)
GFF = KernelSpec(family="gff-square", T=1.0, d=2)


class TestLattice:
    def test_geometry(self):
        lat = Lattice(1, 8)
        assert lat.spacing == pytest.approx(0.125)
        assert lat.n_sites == 8
        assert lat.axis_centers()[0] == pytest.approx(0.0625)

    def test_centers_2d_row_major(self):
        lat = Lattice(2, 4)
        c = lat.centers()
        assert c.shape == (16, 2)
        # second site advances along the last axis
        assert c[1, 0] == c[0, 0]
        assert c[1, 1] > c[0, 1]

    def test_cell_index_roundtrip(self):
        lat = Lattice(2, 16)
        c = lat.centers()
        np.testing.assert_array_equal(lat.cell_index(c), np.arange(lat.n_sites))

    def test_rejects_degenerate(self):
        with pytest.raises(FieldError):
            Lattice(1, 1)


class TestRngStream:
    def test_streams_are_independent_keys(self):
        s = RngStream(42)
        a = s.generator(0, "field").standard_normal(4)
        c = s.generator(1, "field").standard_normal(4)
        assert not np.allclose(a, c)

    def test_reproducible(self):
        s = RngStream(7)
        a = s.generator(3, "atoms").standard_normal(8)
        b = RngStream(7).generator(3, "atoms").standard_normal(8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("purpose,code,bit_generator", [
        ("field", 0, np.random.Philox),
        ("atoms", 1, np.random.SFC64),
        ("subordinated", 2, np.random.SFC64),
    ])
    def test_bit_generator_per_purpose(self, purpose, code, bit_generator):
        # the field stays on Philox, the atom clouds draw on SFC64; every
        # substream is keyed SeedSequence(master, spawn_key=(code, replica, 0))
        assert PURPOSES[purpose] == (code, bit_generator)
        ss = np.random.SeedSequence(entropy=7, spawn_key=(code, 3, 0))
        expected = np.random.Generator(bit_generator(ss)).random(8)
        np.testing.assert_array_equal(RngStream(7).generator(3, purpose).random(8), expected)


class TestCirculant:
    @pytest.mark.parametrize("spec,res", [(EXACT1D, 64), (EXACT2D, 16)])
    def test_nonnegative_embedding(self, spec, res):
        lat = Lattice(spec.d, res)
        for n in (1, 2, 5):
            sqrt_lam, m = prepare_circulant(spec, [n], lat)
            assert np.all(sqrt_lam >= 0)
            assert m >= 2 * res

    def test_layer_covariance_matches_kernel(self):
        # Monte Carlo covariance at a fixed lag within 4 standard errors
        lat = Lattice(1, 128)
        n = 3
        sampler = LayerSampler(EXACT1D, lat, [n])
        stream = RngStream(9)
        draws = np.array([sampler.sample_field(stream, r).values for r in range(4000)])
        lag = 5
        emp = np.mean(draws[:, 0] * draws[:, lag])
        theory = float(level_increment_radial(EXACT1D, n, lag * lat.spacing))
        se = np.std(draws[:, 0] * draws[:, lag], ddof=1) / np.sqrt(len(draws))
        assert abs(emp - theory) < 4 * se


class TestLayerSampler:
    @pytest.mark.parametrize("spec,res,level,lags", [
        (EXACT1D, 64, 8, [(0,), (1,), (3,), (8,)]),
        (EXACT2D, 16, 4, [(0, 0), (0, 1), (1, 1), (0, 3)]),
        (STAR1D, 64, 3, [(0,), (1,), (4,), (12,)]),
    ], ids=["exact1d", "exact2d", "star"])
    def test_field_covariance_matches_kernel(self, spec, res, level, lags):
        # one draw per field: Cov(X(x), X(x + lag)) = k_n(lag), within 4 SE
        lat = Lattice(spec.d, res)
        sampler = LayerSampler(spec, lat, range(1, level + 1))
        stream = RngStream(31)
        draws = np.array([sampler.sample_field(stream, r).values for r in range(4000)])
        pts = lat.centers()
        for lag in lags:
            j = int(np.ravel_multi_index(lag, (res,) * spec.d))
            prod = draws[:, 0] * draws[:, j]
            se = np.std(prod, ddof=1) / np.sqrt(len(prod))
            theory = float(np.ravel(eval_partial_kernel(spec, level, pts[0], pts[j]))[0])
            assert abs(prod.mean() - theory) < 4 * se, lag

    @pytest.mark.parametrize("spec,res,level", [(EXACT1D, 1024, 64), (EXACT2D, 64, 16)],
                             ids=["exact1d", "exact2d"])
    def test_summed_embedding_accepted_at_twice_resolution(self, spec, res, level):
        sqrt_lam, m = prepare_circulant(spec, range(1, level + 1), Lattice(spec.d, res))
        assert m == 2 * res
        assert np.all(sqrt_lam >= 0)

    def test_deterministic_across_instances(self):
        lat = Lattice(1, 32)
        a = LayerSampler(EXACT1D, lat, [1, 2]).sample_field(RngStream(5), 2)
        b = LayerSampler(EXACT1D, lat, [1, 2]).sample_field(RngStream(5), 2)
        np.testing.assert_array_equal(a.values, b.values)

    def test_variance0_matches_kernel(self):
        from gmclab.kernels import partial_kernel_radial

        lat = Lattice(1, 16)
        sampler = LayerSampler(EXACT1D, lat, range(1, 5))
        assert sampler.variance0 == pytest.approx(float(partial_kernel_radial(EXACT1D, 4, 0.0)))

    def test_gff_variance_profile_is_nonstationary(self):
        lat = Lattice(2, 12)
        var = field_variance0(GFF, [1, 2], lat)
        assert isinstance(var, np.ndarray)
        grid = var.reshape(12, 12)
        # variance drops toward the absorbing boundary
        assert grid[6, 6] > grid[0, 0]

    def test_gff_empirical_variance(self):
        lat = Lattice(2, 8)
        sampler = LayerSampler(GFF, lat, [1, 2])
        stream = RngStream(17)
        draws = np.array([sampler.sample_field(stream, r).values for r in range(3000)])
        emp = draws.var(axis=0)
        theory = sampler.variance0
        # center site, 4 SE of the chi-square spread
        i = lat.cell_index(np.array([[0.5, 0.5]]))[0]
        se = theory[i] * np.sqrt(2.0 / len(draws))
        assert abs(emp[i] - theory[i]) < 4 * se


class _UnitNormals:
    """Stands in for a Generator: 'normals' that are the k-th unit vector, so a
    draw returns the k-th column of the sampler's factor."""

    def __init__(self, k):
        self.k = k

    def standard_normal(self, shape):
        e = np.zeros(shape)
        e.flat[self.k] = 1.0
        return e


GFF_LEVEL_SETS = ([1], [1, 2], [2, 3], [1, 2, 3, 4])


class TestGffSpectral:
    @pytest.mark.parametrize("res", [8, 16])
    def test_covariance_matches_image_sum_kernel(self, res):
        # The covariance a draw realizes, against the kernel on every site pair.
        # Both are invariant under the symmetries of the square, so the rows of
        # the sites (a, b) with a <= b < res/2 cover every pair up to symmetry
        # at about a seventh of the image sums of the full pair grid.
        lat = Lattice(2, res)
        pts = lat.centers()
        a, b = np.divmod(np.arange(lat.n_sites), res)
        rows = np.flatnonzero((a <= b) & (b < res // 2))
        q = {n: eval_level_increment(GFF, n, pts[rows, None, :], pts[None, :, :])
             for n in range(1, 5)}
        grid = np.arange(lat.n_sites).reshape(res, res)
        for levels in GFF_LEVEL_SETS:
            sampler = LayerSampler(GFF, lat, levels)
            factor = np.column_stack([sampler._draw(_UnitNormals(k)) for k in range(lat.n_sites)])
            cov = factor @ factor.T
            np.testing.assert_allclose(cov[rows], sum(q[n] for n in levels), rtol=0, atol=1e-10,
                                       err_msg=str(levels))
            for perm in (grid.T.ravel(), grid[::-1].ravel()):
                np.testing.assert_allclose(cov[np.ix_(perm, perm)], cov, rtol=0, atol=1e-13)
            np.testing.assert_allclose(sampler.variance0, np.diag(cov), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("levels", GFF_LEVEL_SETS, ids=str)
    def test_variance0_matches_kernel_diagonal(self, levels):
        # at 8^2 the finer level sets fold modes above 8 onto the grid
        lat = Lattice(2, 8)
        np.testing.assert_allclose(LayerSampler(GFF, lat, levels).variance0,
                                   field_variance0(GFF, levels, lat), rtol=0, atol=1e-10)

    def test_run_field_above_dense_limit(self):
        assert 72 * 72 > DENSE_SITE_LIMIT
        res = run_field(ExperimentConfig(dimension=2, kernel_family="gff-square", gamma2=1.0,
                                         level=4, resolution=72, replicas=2000, seed=72))
        assert res.passed, res.summary


class TestNormality:
    def test_layer_marginal_is_gaussian(self):
        # D'Agostino-Pearson normality test at level 0.001 on 10^4 replicas
        from scipy.stats import normaltest

        lat = Lattice(1, 32)
        sampler = LayerSampler(EXACT1D, lat, [1, 2, 3])
        stream = RngStream(23)
        x0 = np.array([sampler.sample_field(stream, r).values[0] for r in range(10_000)])
        z = (x0 - x0.mean()) / x0.std(ddof=1)
        assert normaltest(z).pvalue > 1e-3


import numpy as np
import pytest

import gmclab.field as gfield
from gmclab.config import ExperimentConfig
from gmclab.field import (
    CLIP_MASS_TOL,
    FIELD_BLOCK,
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
from oracles import DENSE_JITTER, DENSE_SITE_LIMIT, dense_factor, gff_variance0

EXACT1D = KernelSpec(family="exact1d", T=1.0, d=1)
STAR1D = KernelSpec(family="star", T=1.0, d=1)
EXACT2D = KernelSpec(family="exact2d", T=1.0, d=2)
GFF = KernelSpec(family="gff-square", T=1.0, d=2)


def _draws(sampler, stream, replicas):
    """Fields of replicas 0..replicas - 1, shape (replicas, n_sites)."""
    return np.concatenate([f.values for _, f in sampler.field_blocks(stream, replicas)])


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

    @pytest.mark.parametrize("d,n", [(1, 8), (2, 4)], ids=["d1", "d2"])
    def test_shape_gives_the_site_order(self, d, n):
        # site i is the cell np.unravel_index(i, shape) on every axis
        lat = Lattice(d, n)
        assert lat.shape == (n,) * d
        cells = np.column_stack(np.unravel_index(np.arange(lat.n_sites), lat.shape))
        assert np.array_equal(lat.centers(), lat.axis_centers()[cells])

    def test_rejects_degenerate(self):
        with pytest.raises(FieldError):
            Lattice(1, 1)


class TestRngStream:
    def test_streams_are_independent_keys(self):
        # every purpose has one substream per block of FIELD_BLOCK replicas
        s = RngStream(42)
        for purpose in PURPOSES:
            a = s.generator(purpose, 0).standard_normal(4)
            c = s.generator(purpose, FIELD_BLOCK).standard_normal(4)
            assert not np.allclose(a, c)
        a = s.generator("atoms", 0).standard_normal(4)
        c = s.generator("subordinated", 0).standard_normal(4)
        assert not np.allclose(a, c)

    def test_reproducible(self):
        s = RngStream(7)
        a = s.generator("atoms", FIELD_BLOCK).standard_normal(8)
        b = RngStream(7).generator("atoms", FIELD_BLOCK).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("purpose,code,bit_generator", [
        ("field", 0, np.random.Philox),
        ("atoms", 1, np.random.SFC64),
        ("subordinated", 2, np.random.SFC64),
        ("positions", 3, np.random.SFC64),
    ])
    def test_bit_generator_per_purpose(self, purpose, code, bit_generator):
        # the field stays on Philox, the atom clouds draw on SFC64; every
        # substream is keyed SeedSequence(master, spawn_key=(code, block, 0)),
        # block the replica's block of 64 for every purpose
        assert PURPOSES[purpose] == (code, bit_generator)
        for replica in (0, 64, 128):
            ss = np.random.SeedSequence(entropy=7, spawn_key=(code, replica // FIELD_BLOCK, 0))
            expected = np.random.Generator(bit_generator(ss)).random(8)
            np.testing.assert_array_equal(RngStream(7).generator(purpose, replica).random(8),
                                          expected)

    @pytest.mark.parametrize("purpose", list(PURPOSES))
    def test_per_replica_call_is_rejected(self, purpose):
        # a generator opened for a replica inside a block would hand every
        # replica of the block the same draws; the old (replica, purpose)
        # argument order names no purpose
        for replica in (1, 3, 63, 65, 130):
            with pytest.raises(ValueError, match="does not start a block"):
                RngStream(7).generator(purpose, replica)
        for replica in (0, 5):
            with pytest.raises(KeyError):
                RngStream(7).generator(replica, purpose)


class TestCirculant:
    @pytest.mark.parametrize("spec,res", [(EXACT1D, 64), (EXACT2D, 16)])
    def test_nonnegative_embedding(self, spec, res):
        lat = Lattice(spec.d, res)
        for n in (1, 2, 5):
            sqrt_lam, m = prepare_circulant(spec, [n], lat)
            assert np.all(sqrt_lam >= 0)
            assert m >= 2 * res

    @pytest.mark.parametrize("spec,res,top", [
        (EXACT1D, 243, 729),
        (EXACT1D, 2916, 729),
        (EXACT2D, 32, 64),
        (STAR1D, 64, 6),
    ], ids=["exact1d-243", "exact1d-2916", "exact2d-32", "star"])
    def test_summed_covariance_is_the_running_increment_sum(self, spec, res, top):
        # levels 1..n take one partial-kernel call; the running sum of the
        # increments q_1 + ... + q_n that it replaces lands on the same bits,
        # on the embedding's lag grid and at lag 0 (field_variance0)
        m = 2 * res
        lag = np.minimum(np.arange(m), m - np.arange(m)) / res
        r = np.hypot.reduce(np.meshgrid(*[lag] * spec.d, indexing="ij"))
        running, running0 = 0, 0
        for n in range(1, top + 1):
            running = running + level_increment_radial(spec, n, r)
            running0 = running0 + level_increment_radial(spec, n, 0.0)
            assert np.array_equal(gfield._summed_radial(spec, range(1, n + 1), r), running), n
            assert field_variance0(spec, range(1, n + 1)) == float(running0), n
        # any other level set still sums its increments, in its order
        band = [2, top // 2, top]
        assert np.array_equal(gfield._summed_radial(spec, band, r),
                              sum(level_increment_radial(spec, n, r) for n in band))

    def test_layer_covariance_matches_kernel(self):
        # Monte Carlo covariance at a fixed lag within 4 standard errors
        lat = Lattice(1, 128)
        n = 3
        sampler = LayerSampler(EXACT1D, lat, [n])
        stream = RngStream(9)
        draws = _draws(sampler, stream, 4000)
        lag = 5
        emp = np.mean(draws[:, 0] * draws[:, lag])
        theory = float(level_increment_radial(EXACT1D, n, lag * lat.spacing))
        se = np.std(draws[:, 0] * draws[:, lag], ddof=1) / np.sqrt(len(draws))
        assert abs(emp - theory) < 4 * se

    @pytest.mark.parametrize("spec,res,levels", [
        (EXACT1D, 32, [1, 2, 3]),
        (STAR1D, 16, [1]),
        (EXACT2D, 8, [1, 2]),
        (KernelSpec(family="star", T=1.0, d=2), 24, [1, 2, 3]),
    ], ids=["exact1d", "star", "exact2d", "star2d"])
    def test_embedding_matches_dense_factor(self, spec, res, levels):
        # The lattice covariance the circulant path realizes, read from its
        # squared eigenvalues, against the dense oracle's F F^T.  The oracle
        # adds DENSE_JITTER * scale on the diagonal, and clipping a negative
        # eigenvalue mass ratio up to CLIP_MASS_TOL moves an entry by at most
        # CLIP_MASS_TOL / (1 - CLIP_MASS_TOL) of the variance.  star at 16
        # clips at m = 4N, and star2d clips 0.97 of CLIP_MASS_TOL.
        lat = Lattice(spec.d, res)
        sqrt_lam, m = prepare_circulant(spec, levels, lat)
        ifft = np.fft.ifft if spec.d == 1 else np.fft.ifft2
        c = ifft(sqrt_lam**2).real
        idx = np.indices((res,) * spec.d).reshape(spec.d, -1)
        embedded = c[tuple((idx[k][:, None] - idx[k][None, :]) % m for k in range(spec.d))]
        factor = dense_factor(spec, levels, lat)
        dense = factor @ factor.T
        scale = max(float(np.max(np.diag(dense))), 1.0)
        atol = (DENSE_JITTER + CLIP_MASS_TOL / (1 - CLIP_MASS_TOL)) * scale
        np.testing.assert_allclose(embedded, dense, rtol=0, atol=atol)


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
        draws = _draws(sampler, stream, 4000)
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
        var = LayerSampler(GFF, lat, [1, 2]).variance0
        assert isinstance(var, np.ndarray)
        grid = var.reshape(12, 12)
        # variance drops toward the absorbing boundary
        assert grid[6, 6] > grid[0, 0]

    def test_gff_empirical_variance(self):
        lat = Lattice(2, 8)
        sampler = LayerSampler(GFF, lat, [1, 2])
        stream = RngStream(17)
        draws = _draws(sampler, stream, 3000)
        emp = draws.var(axis=0)
        theory = sampler.variance0
        # center site, 4 SE of the chi-square spread
        i = 4 * lat.resolution + 4  # the cell whose lower corner is (0.5, 0.5)
        se = theory[i] * np.sqrt(2.0 / len(draws))
        assert abs(emp[i] - theory[i]) < 4 * se


def _unit_rows(sampler):
    """Every unit vector of a sampler's normal rows, as one batch: the batch's
    fields are the columns of the factor the draws apply."""
    shape = sampler._row_shape
    return np.eye(int(np.prod(shape))).reshape((-1,) + shape)


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
            factor = sampler._fields(_unit_rows(sampler)).T
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
                                   gff_variance0(levels, lat), rtol=0, atol=1e-10)

    def test_run_field_above_dense_limit(self):
        assert 72 * 72 > DENSE_SITE_LIMIT
        res = run_field(ExperimentConfig(dimension=2, kernel_family="gff-square", gamma2=1.0,
                                         level=4, resolution=72, replicas=2000, seed=72))
        assert res.passed, res.summary


class TestCirculantPairs:
    @pytest.mark.parametrize("spec,res,levels", [
        (EXACT1D, 64, [1, 2, 3]),
        (STAR1D, 64, [2, 3]),
        (EXACT2D, 8, [1, 2]),
    ], ids=["exact1d", "star", "exact2d"])
    def test_pairs_realize_embedded_covariance(self, spec, res, levels):
        # unit normals through the batched FFT: the real rows and the
        # imaginary rows each realize the embedded covariance, and the two
        # are uncorrelated
        lat = Lattice(spec.d, res)
        sampler = LayerSampler(spec, lat, levels)
        fields = sampler._fields(_unit_rows(sampler))
        re, im = fields[0::2], fields[1::2]
        sqrt_lam, m = sampler._factor
        ifft = np.fft.ifft if spec.d == 1 else np.fft.ifft2
        c = ifft(sqrt_lam**2).real
        idx = np.indices((res,) * spec.d).reshape(spec.d, -1)
        lag = tuple((idx[k][:, None] - idx[k][None, :]) % m for k in range(spec.d))
        embedded = c[lag]
        np.testing.assert_allclose(re.T @ re, embedded, rtol=0, atol=1e-10)
        np.testing.assert_allclose(im.T @ im, embedded, rtol=0, atol=1e-10)
        np.testing.assert_allclose(re.T @ im, 0.0, rtol=0, atol=1e-10)
        # the embedding reproduces the kernel on the lattice
        pts = lat.centers()
        kernel = sum(level_increment_radial(
            spec, n, np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))) for n in levels)
        np.testing.assert_allclose(embedded, kernel, rtol=0, atol=1e-6)


class TestFieldBlocks:
    """Replica r's field depends only on (seed, r): not on the access order,
    the chunk size or the other streams a sampler serves."""

    REPLICAS = 2 * FIELD_BLOCK + 10

    @pytest.fixture(params=[(EXACT1D, 32), (EXACT2D, 8), (GFF, 8)],
                        ids=["exact1d", "exact2d", "gff"])
    def spec_res(self, request):
        return request.param

    def _sequential(self, spec, res, seed=5):
        sampler = LayerSampler(spec, Lattice(spec.d, res), [1, 2])
        return _draws(sampler, RngStream(seed), self.REPLICAS)

    def test_random_access_matches_sequential(self, spec_res):
        spec, res = spec_res
        seq = self._sequential(spec, res)
        sampler = LayerSampler(spec, Lattice(spec.d, res), [1, 2])
        stream = RngStream(5)
        for r in (70, 3, 3, 137, 64, 63, 0, 127, 71):
            np.testing.assert_array_equal(sampler.sample_field(stream, r).values, seq[r], str(r))

    def test_chunk_of_one_row_is_bit_equal(self, spec_res, monkeypatch):
        spec, res = spec_res
        seq = self._sequential(spec, res)
        monkeypatch.setattr(gfield, "CHUNK_BYTES", 1)
        np.testing.assert_array_equal(self._sequential(spec, res), seq)

    @pytest.mark.parametrize("replicas", [1, 70, REPLICAS])
    def test_blocks_draw_only_the_rows_they_need(self, spec_res, monkeypatch, replicas):
        # below the CHUNK_BYTES cap a block's rows are drawn in one transform;
        # a partial last block draws ceil(replicas / per_row) rows, in order,
        # so its fields are the first rows of the full block's
        spec, res = spec_res
        sampler = LayerSampler(spec, Lattice(spec.d, res), [1, 2])
        sizes = []
        fields = sampler._fields
        monkeypatch.setattr(sampler, "_fields", lambda z: sizes.append(len(z)) or fields(z))
        blocks = list(sampler.field_blocks(RngStream(5), replicas))
        starts = list(range(0, replicas, FIELD_BLOCK))
        assert [start for start, _ in blocks] == starts
        assert sizes == [-(-min(FIELD_BLOCK, replicas - b) // sampler._per_row) for b in starts]
        np.testing.assert_array_equal(np.concatenate([f.values for _, f in blocks]),
                                      self._sequential(spec, res)[:replicas])

    def test_block_boundary_changes_substream(self, spec_res):
        # replica 63 is the last of block 0, replica 64 the first of block 1
        spec, res = spec_res
        sampler = LayerSampler(spec, Lattice(spec.d, res), [1, 2])
        rows = FIELD_BLOCK // sampler._per_row

        def block_fields(block):
            ss = np.random.SeedSequence(entropy=5, spawn_key=(0, block, 0))
            rng = np.random.Generator(np.random.Philox(ss))
            return sampler._fields(rng.standard_normal((rows,) + sampler._row_shape))

        seq = self._sequential(spec, res)
        np.testing.assert_array_equal(seq[:FIELD_BLOCK], block_fields(0))
        np.testing.assert_array_equal(seq[FIELD_BLOCK:2 * FIELD_BLOCK], block_fields(1))
        assert not np.allclose(seq[FIELD_BLOCK - 1], seq[FIELD_BLOCK])

    def test_interleaved_streams_do_not_redraw(self, spec_res, monkeypatch):
        # two streams stepped in turn on one sampler give their own sequential
        # fields, each from one field generator per block
        spec, res = spec_res
        sampler = LayerSampler(spec, Lattice(spec.d, res), [1, 2])
        calls = []
        generator = RngStream.generator
        monkeypatch.setattr(RngStream, "generator",
                            lambda self, purpose, replica: calls.append((self.master_seed, replica))
                            or generator(self, purpose, replica))
        blocks = zip(sampler.field_blocks(RngStream(5), self.REPLICAS),
                     sampler.field_blocks(RngStream(6), self.REPLICAS))
        fields = [(fa.values, fb.values) for (_, fa), (_, fb) in blocks]
        assert calls == [(seed, base) for base in (0, 64, 128) for seed in (5, 6)]
        np.testing.assert_array_equal(np.concatenate([fa for fa, _ in fields]),
                                      self._sequential(spec, res, 5))
        np.testing.assert_array_equal(np.concatenate([fb for _, fb in fields]),
                                      self._sequential(spec, res, 6))


class TestNormality:
    def test_layer_marginal_is_gaussian(self):
        # D'Agostino-Pearson normality test at level 0.001 on 10^4 replicas
        from scipy.stats import normaltest

        lat = Lattice(1, 32)
        sampler = LayerSampler(EXACT1D, lat, [1, 2, 3])
        stream = RngStream(23)
        x0 = _draws(sampler, stream, 10_000)[:, 0]
        z = (x0 - x0.mean()) / x0.std(ddof=1)
        assert normaltest(z).pvalue > 1e-3


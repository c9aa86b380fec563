import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmclab.analysis import (
    AnalysisError,
    _cantor_boxes,
    _crossing,
    _grid_box_masses,
    _power_sums,
    covering_sums,
    dimension_estimate,
    estimate_spectrum,
    hill_tail_index,
    kpz_solve,
    kpz_solve_dual,
    laplace_rhs_transform,
    lq_conjecture,
    lq_spectrum,
    ols_slope,
    sample_omega,
    verify_laplace,
)
from gmclab.atomic import AtomicMeasure, build_dual_cells, xi_bar
from gmclab.chaos import LatticeMeasure, build_chaos, xi
from gmclab.field import Lattice, LayerSampler, RngStream
from gmclab.kernels import KernelSpec

LN23 = np.log(2.0) / np.log(3.0)


def _level_boxes(set_name, g):
    """Boxes per axis at level g and the indices of the kept ones: the Cantor
    boxes among 3^g, or all 2^g dyadic intervals, lq_spectrum's boxes."""
    if set_name == "cantor":
        return 3**g, _cantor_boxes(g)
    return 2**g, np.arange(2**g)


def _box_masses(measure, set_name, g):
    """Masses of the kept level-g boxes of a 1-D lattice measure."""
    n, idx = _level_boxes(set_name, g)
    return _grid_box_masses(measure, n)[idx]


def _box_sums(measure, set_name, levels, s_grid):
    """covering_sums of the Cantor boxes; the same power sums of the dyadic
    intervals, as lq_spectrum forms them."""
    if set_name == "cantor":
        return covering_sums(measure, "cantor", levels, s_grid).sums
    if isinstance(measure, AtomicMeasure):
        measure = measure.cell_masses()
    return _power_sums([_box_masses(measure, set_name, g) for g in levels], s_grid)


class TestRegression:
    def test_exact_line(self):
        x = np.arange(10.0)
        slope, intercept = ols_slope(x, 3.5 * x - 2.0)
        assert abs(slope - 3.5) < 1e-9
        assert abs(intercept + 2.0) < 1e-9

    def test_degenerate_x(self):
        with pytest.raises(AnalysisError):
            ols_slope(np.ones(5), np.arange(5.0))


class TestSpectrum:
    def test_recovers_power_law(self):
        rng = np.random.default_rng(0)
        lams = np.array([0.5, 0.25, 0.125, 0.0625])
        # masses = lam^2 * lognormal noise: slope of log E[m^q] is 2q
        noise = rng.lognormal(sigma=0.05, size=(4000, 1))
        samples = lams[None, :] ** 2 * noise
        fit = estimate_spectrum(lams, samples, [0.5, 1.0], rng=rng)
        np.testing.assert_allclose(fit.slopes, [1.0, 2.0], atol=0.01)
        assert np.all(fit.stderr < 0.05)

    def test_exact_power_law_to_1e9(self):
        lams = np.array([0.5, 0.25, 0.125, 0.0625])
        q_grid = np.array([0.5, 1.0, 1.5])
        # deterministic samples C_q lam^xi(q) per q cannot be encoded in one
        # mass array, so use q=1-compatible masses m = C lam^2 (xi-free check)
        samples = np.full((8, lams.size), 1.0) * 3.7 * lams[None, :] ** 2
        fit = estimate_spectrum(lams, samples, q_grid)
        np.testing.assert_allclose(fit.slopes, 2.0 * q_grid, atol=1e-9)

    def test_needs_enough_lambdas(self):
        with pytest.raises(AnalysisError):
            estimate_spectrum([0.5, 0.25], np.ones((10, 2)), [1.0])


class TestHill:
    def test_pareto_recovery(self):
        rng = np.random.default_rng(1)
        alpha = 0.5
        x = rng.random(100_000) ** (-1.0 / alpha)
        res = hill_tail_index(x, 2000)
        assert res.estimate == pytest.approx(alpha, abs=0.05)
        assert res.stable
        assert res.ci_lo < alpha < res.ci_hi

    def test_exponential_flagged_unstable(self):
        rng = np.random.default_rng(2)
        res = hill_tail_index(rng.exponential(size=100_000), 2000)
        assert not res.stable

    def test_small_k_rejected(self):
        with pytest.raises(AnalysisError):
            hill_tail_index(np.ones(100) + np.arange(100), 5)


class TestLaplace:
    def test_transform_value(self):
        from scipy.special import gamma as G

        v = laplace_rhs_transform(np.array([2.0]), 0.5, 1.0)
        assert v[0] == pytest.approx(np.exp(-G(0.5) / 0.5 * 2.0))

    def test_identical_samples_overlap(self):
        rng = np.random.default_rng(3)
        m = rng.lognormal(size=4000)
        # subordinated totals generated from the exact conditional law
        from scipy.special import gamma as G

        alpha = 0.5
        # one-sided 1/2-stable subordinator has the Levy closed form:
        # S = b^2/(2 N^2) with N standard normal gives E[e^(-uS)] = e^(-b sqrt(u))
        n2 = rng.standard_normal(m.size) ** 2
        b = (G(1 - alpha) / alpha) * m
        mbar = b**2 / (2 * n2)
        cmp = verify_laplace(mbar, m, alpha, [0.25, 1.0, 4.0], rng=rng)
        assert (cmp.gap <= 0).all()

    def test_mismatch_detected(self):
        rng = np.random.default_rng(4)
        m = rng.lognormal(size=4000)
        cmp = verify_laplace(3.0 * m, m, 0.5, [0.25, 1.0, 4.0], rng=rng)
        assert not (cmp.gap <= 0).all()

    @pytest.mark.parametrize("n", [20, 37, 500])
    def test_transform_rows_match_resample_loop(self, n):
        # reference: transform each resample afresh, as one loop per resample
        def loop(mbar, m, alpha, u_grid, n_boot, rng):
            def side(samples, transform):
                def means(sub):
                    return np.array([transform(sub, u).mean() for u in u_grid])
                boot = np.array([means(samples[rng.integers(0, samples.size, size=samples.size)])
                                 for _ in range(n_boot)])
                return means(samples), np.percentile(boot, [2.5, 97.5], axis=0).T
            lhs = side(mbar, lambda sub, u: np.exp(-u * sub))
            rhs = side(m, lambda sub, u: laplace_rhs_transform(sub, alpha, u))
            return (*lhs, *rhs)

        data = np.random.default_rng(6)
        m = data.lognormal(size=n)
        mbar = data.pareto(0.5, size=n)
        u_grid = [0.1, 0.5, 1.0, 2.0, 8.0]
        cmp = verify_laplace(mbar, m, 0.5, u_grid, n_boot=100, rng=np.random.default_rng(9))
        ref = loop(mbar, m, 0.5, np.asarray(u_grid), 100, np.random.default_rng(9))
        for got, want in zip((cmp.lhs, cmp.lhs_ci, cmp.rhs, cmp.rhs_ci), ref):
            assert np.array_equal(got, want)


class TestOmega:
    def test_mgf_moment_match(self):
        rng = np.random.default_rng(5)
        lam, g2, q = 0.25, 0.8, 0.5
        w = sample_omega(lam, g2, 400_000, rng)
        emp = np.mean(np.exp(q * w))
        theory = lam ** (0.5 * g2 * q - 0.5 * g2 * q * q)
        se = np.std(np.exp(q * w), ddof=1) / np.sqrt(w.size)
        assert abs(emp - theory) < 4 * se


class TestCovering:
    def test_cantor_boxes_have_digits_0_and_2(self):
        for g in range(7):
            idx = _cantor_boxes(g)
            # every index below 3^g whose g base-3 digits are all 0 or 2
            want = [i for i in range(3**g) if set(np.base_repr(i, 3).zfill(g)) <= set("02")]
            assert idx.tolist() == want and len(want) == 2**g
            assert not idx.flags.writeable and _cantor_boxes(g) is idx

    def test_square_cantor_dust(self):
        # C x C on the square: 4^g boxes of side 3^-g, each of uniform mass 9^-g
        lat = Lattice(2, 81)
        uniform = LatticeMeasure(lat, np.full(lat.n_sites, 1.0 / lat.n_sites))
        levels = np.arange(1, 5)
        table = covering_sums(uniform, "cantor", levels, [0.0, 1.0])
        np.testing.assert_array_equal(table.sums[:, 0], 4.0**levels)
        np.testing.assert_allclose(table.sums[:, 1], (4.0 / 9.0) ** levels, rtol=1e-12)

    def test_lebesgue_control_dimension(self):
        lat = Lattice(1, 729)
        uniform = LatticeMeasure(lat, np.full(729, lat.spacing))
        levels = range(1, 7)
        s_grid = np.linspace(0.5, 0.75, 11)
        table = covering_sums(uniform, "cantor", levels, s_grid)
        est = dimension_estimate(list(levels), s_grid, table.sums)
        assert est.estimate == pytest.approx(LN23, abs=1e-6)

    @pytest.mark.parametrize("n_levels", range(3, 10))
    def test_vectorized_fit_matches_column_loop(self, n_levels):
        def loop_estimate(levels, s_grid, sums, rng):
            # reference: one ols_slope call per s column
            def slopes_of(table):
                mean_log = np.log(np.maximum(table, 1e-300)).mean(axis=0)
                return np.array([ols_slope(levels, mean_log[:, si])[0]
                                 for si in range(s_grid.size)])

            n = sums.shape[0]
            boots = [_crossing(s_grid, slopes_of(sums[rng.integers(0, n, size=n)]))
                     for _ in range(200)]
            slopes = slopes_of(sums)
            return (slopes, _crossing(s_grid, slopes), *np.percentile(boots, [2.5, 97.5]))

        levels = np.arange(1.0, n_levels + 1)
        s_grid = np.linspace(0.3, 0.9, 10)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            rate = levels[:, None] * (np.log(2.0) - s_grid * np.log(3.0))
            sums = np.exp(rate + rng.normal(0.0, 0.5, (20, n_levels, s_grid.size)))
            est = dimension_estimate(levels, s_grid, sums, rng=np.random.default_rng(seed))
            got = (est.slopes, est.estimate, est.ci_lo, est.ci_hi)
            ref = loop_estimate(levels, s_grid, sums, np.random.default_rng(seed))
            for g, r in zip(got, ref):
                if n_levels < 8:
                    # same summation order: equal bit for bit
                    np.testing.assert_array_equal(g, r)
                else:
                    # numpy's 1-D sum goes pairwise from 8 terms on
                    np.testing.assert_allclose(g, r, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("set_name", ["cantor", "interval"])
    def test_atomic_sums_match_interval_loop(self, set_name):
        def loop_masses(x, masses, intervals):
            # reference: one boolean mask per half-open interval [a, b)
            return np.array([masses[(x >= a) & (x < b)].sum() for a, b in intervals])

        rng = np.random.default_rng(5)
        lat = Lattice(1, 729 if set_name == "cantor" else 64)
        n, idx = _level_boxes(set_name, 4)
        edges = np.unique(np.concatenate([idx, idx + 1]) / n)
        # few atoms, so most fine intervals are empty; some sit in the first
        # cell after an edge
        cells = np.concatenate([rng.integers(0, lat.n_sites, 40),
                                np.rint(edges[1:-1:3] * lat.resolution).astype(int)])
        x = (cells + 0.5) * lat.spacing
        masses = 10.0 ** rng.uniform(-14, 0, x.size)
        measure = _atomic_measure(lat, cells, masses)
        levels = range(1, 7)
        s_grid = np.array([0.0, 0.3, 0.7, 1.0])
        sums = _box_sums(measure, set_name, levels, s_grid)
        empty = 0
        for li, g in enumerate(levels):
            n, idx = _level_boxes(set_name, g)
            mu = loop_masses(x, masses, np.column_stack([idx, idx + 1]) / n)
            empty += np.sum(mu == 0)
            pos = mu[mu > 0]
            ref = [pos.size if s == 0 else np.sum(pos**s) for s in s_grid]
            np.testing.assert_allclose(sums[li], ref, rtol=1e-12)
        assert empty > 0

    def test_misaligned_lattice_rejected(self):
        lat = Lattice(1, 1000)  # not a multiple of 3^g
        uniform = LatticeMeasure(lat, np.full(1000, lat.spacing))
        with pytest.raises(AnalysisError):
            covering_sums(uniform, "cantor", [3], [0.5])


def _atomic_measure(lat, cells, masses):
    """The atomic measure of atoms in the given cells, in any order: a stable
    sort to cell order keeps each cell's atoms in their order, so its
    cell_masses() are the per-cell sums of the unsorted atoms, bit for bit."""
    order = np.argsort(cells, kind="stable")
    return AtomicMeasure(lat, np.bincount(cells, minlength=lat.n_sites), masses[order])


def _field(resolution, seed=11, d=1):
    family = "exact1d" if d == 1 else "exact2d"
    sampler = LayerSampler(KernelSpec(family=family, T=1.0, d=d),
                           Lattice(d, resolution), range(1, 10 if d == 1 else 4))
    return sampler.sample_field(RngStream(seed), 0)


def _chaos(resolution, seed=11, d=1):
    return build_chaos(_field(resolution, seed, d), 1.0)


def _dual(resolution):
    # the duality workload's alpha = 0.5: the cell masses span several
    # decades and every interval carries mass
    mu = build_dual_cells(_field(resolution), 1.0, 0.5, RngStream(11).generator("atoms", 0))
    assert np.log10(mu.masses.max() / mu.masses.min()) > 5
    return mu


def _wide(resolution, seed=11, d=1):
    """The dual at alpha = 0.04 (gamma2 = 0.08 d)."""
    return build_dual_cells(_field(resolution, seed, d), 0.08 * d, 0.04,
                            RngStream(seed).generator("atoms", 0))


def _dual_wide(resolution):
    # alpha = 0.04: the cell masses span more than 100 decades, far more
    # than the 16 digits of a double
    mu = _wide(resolution)
    assert np.log10(mu.masses.max() / mu.masses.min()) > 100
    return mu


def _atomic(resolution, seed=5, d=1):
    # few atoms, so most fine boxes are empty
    rng = np.random.default_rng(seed)
    lat = Lattice(d, resolution)
    return _atomic_measure(lat, rng.integers(0, lat.n_sites, 30), 10.0 ** rng.uniform(-14, 0, 30))


class TestGridAtOnce:
    """The grid-at-once power sums equal a per-(level, s) loop bit for bit, and
    each box mass is its cells' sum: the Cantor boxes of covering_sums and the
    dyadic intervals of lq_spectrum."""

    @pytest.mark.parametrize("build", [_chaos, _dual, _dual_wide, _atomic])
    @pytest.mark.parametrize("set_name, resolution", [("cantor", 729), ("interval", 512)])
    def test_covering_sums_match_loop(self, build, set_name, resolution):
        measure = build(resolution)
        levels = range(1, 7)
        # 0 takes the count branch; 0.5, 1 and 2 take numpy's scalar power paths
        s_grid = np.array([0.0, 0.3, 0.5, 0.7, 1.0, 2.0])
        sums = _box_sums(measure, set_name, levels, s_grid)
        if isinstance(measure, AtomicMeasure):
            measure = measure.cell_masses()
        empty = 0
        for li, g in enumerate(levels):
            mu = _box_masses(measure, set_name, g)
            empty += np.sum(mu == 0)
            pos = mu[mu > 0]
            ref = np.array([np.sum(pos**s) if s != 0 else pos.size for s in s_grid])
            assert np.array_equal(sums[li], ref), (g, sums[li] - ref)
        if build is _atomic:
            assert empty > 0
        else:
            assert empty == 0

    @pytest.mark.parametrize("build", [_chaos, _wide, _atomic])
    @pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
    def test_block_covering_sums_match_replica_loop(self, build, d):
        # a block of 20 measures gives (replicas, levels, s), each replica's
        # table bit-equal to its own.  The alpha = 0.04 duals span more than
        # 100 decades on the line but none of their boxes is 0 here; the
        # atomic cell masses leave some boxes empty, so their sets keep
        # unequal numbers of boxes
        resolution = 243 if d == 1 else 27
        measures = [build(resolution, seed=r, d=d) for r in range(20)]
        measures = [m.cell_masses() if isinstance(m, AtomicMeasure) else m for m in measures]
        block = LatticeMeasure(measures[0].lattice, np.stack([m.masses for m in measures]))
        if build is _wide:
            pos = block.masses[block.masses > 0]
            assert np.log10(pos.max() / pos.min()) > (100 if d == 1 else 30)
        levels = range(1, 6 if d == 1 else 4)
        s_grid = np.array([0.0, 0.3, 0.5, 0.7, 1.0, 2.0])
        sums = covering_sums(block, "cantor", levels, s_grid).sums
        ref = np.empty((20, len(levels), s_grid.size))
        for r, m in enumerate(measures):
            for li, g in enumerate(levels):
                # reference: each set's own positives and one 1-D np.sum per s
                mu = _grid_box_masses(m, 3**g)[np.ix_(*[_cantor_boxes(g)] * d)].ravel()
                pos = mu[mu > 0]
                ref[r, li] = [np.sum(pos**s) if s != 0 else pos.size for s in s_grid]
        assert sums.shape == (20, len(levels), s_grid.size)
        assert np.array_equal(sums, ref)
        counts = ref[:, :, 0]
        # every replica keeps all its boxes, or (atomic) some lose some
        full = 2.0 ** (d * np.asarray(levels))
        assert np.all(counts == full) != (build is _atomic)

    @pytest.mark.parametrize("set_name, resolution", [("cantor", 729), ("interval", 512)])
    def test_lattice_interval_masses_match_fsum(self, set_name, resolution):
        # a difference of prefix sums reads most of these boxes as 0: the
        # heavy cells before them swamp their digits
        measure = _dual_wide(resolution)
        for g in range(1, 7):
            n, idx = _level_boxes(set_name, g)
            ends = np.column_stack([idx, idx + 1]) * (resolution // n)
            ref = np.array([math.fsum(measure.masses[a:b]) for a, b in ends])
            assert np.all(ref > 0)
            # a direct sum of n <= 729 positive terms errs by at most (n - 1) 2^-53
            np.testing.assert_allclose(_box_masses(measure, set_name, g), ref, rtol=1e-13)

    @pytest.mark.parametrize("set_name, resolution", [("cantor", 729), ("interval", 512)])
    def test_atomic_interval_masses_match_fsum(self, set_name, resolution):
        # atoms in random cell order, several per cell, masses over 30 decades:
        # each box holds the atoms of its cells
        rng = np.random.default_rng(8)
        cells = rng.integers(0, resolution, 3000)
        masses = 10.0 ** rng.uniform(-30, 0, cells.size)
        measure = _atomic_measure(Lattice(1, resolution), cells, masses).cell_masses()
        for g in range(1, 7):
            n, idx = _level_boxes(set_name, g)
            ends = np.column_stack([idx, idx + 1]) * (resolution // n)
            ref = np.array([math.fsum(masses[(cells >= a) & (cells < b)]) for a, b in ends])
            # a cell sum and then a box sum: at most 3000 terms in all
            np.testing.assert_allclose(_box_masses(measure, set_name, g), ref, rtol=1e-12)


class TestKpz:
    def test_golden_values(self):
        # frozen quadratic-oracle roots
        assert kpz_solve(LN23, 1.0, 1) == pytest.approx(0.505947439590298, rel=1e-12)
        assert kpz_solve(LN23, 0.5, 1) == pytest.approx(0.569642264834269, rel=1e-12)
        assert kpz_solve_dual(LN23, 1.0, 1) == pytest.approx(0.252973719795149, rel=1e-12)

    def test_identity_endpoints(self):
        for g2 in (0.3, 1.0, 1.7):
            assert kpz_solve(0.0, g2, 1) == 0.0
            assert kpz_solve(1.0, g2, 1) == pytest.approx(1.0)

    @given(st.floats(0.0, 1.0), st.floats(0.05, 1.9))
    @settings(max_examples=60, deadline=None)
    def test_root_property(self, dim_leb, g2):
        x = kpz_solve(dim_leb, g2, 1)
        assert 0.0 <= x <= 1.0
        assert xi(g2, 1, x) == pytest.approx(dim_leb, abs=1e-9)

    @given(st.floats(0.0, 1.0), st.floats(0.05, 1.9))
    @settings(max_examples=60, deadline=None)
    def test_dual_is_alpha_times_primal(self, dim_leb, g2):
        alpha = g2 / 2.0
        assert kpz_solve_dual(dim_leb, g2, 1) == pytest.approx(
            alpha * kpz_solve(dim_leb, g2, 1), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.95])
    def test_dual_at_explicit_alpha(self, alpha):
        # xi_bar at an explicit alpha, not the duality value g2/2d = 0.5
        for dim_leb in np.linspace(0.0, 1.0, 101):
            root = kpz_solve_dual(dim_leb, 1.0, 1, alpha)
            assert abs(root - alpha * kpz_solve(dim_leb, 1.0, 1)) < 1e-12
            assert abs(xi_bar(1.0, alpha, 1, root) - dim_leb) < 1e-12

    def test_gamma_zero_is_identity(self):
        assert kpz_solve(0.37, 0.0, 1) == pytest.approx(0.37)

    @pytest.mark.parametrize("dim_leb", [0.1, LN23, 0.9], ids=["0.1", "ln2/ln3", "0.9"])
    def test_residual_at_small_gamma(self, dim_leb):
        # (b - sqrt(b^2 - 4ac)) / 2a cancels at small gamma2: residuals up to 1.4e-4 here
        g2 = 1e-12
        assert abs(xi(g2, 1, kpz_solve(dim_leb, g2, 1)) - dim_leb) < 1e-12
        root = kpz_solve_dual(dim_leb, g2, 1)
        assert abs(xi_bar(g2, g2 / 2, 1, root) - dim_leb) < 1e-12


class TestLqSpectrum:
    @pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
    def test_matches_per_q_depth_loop(self, d):
        def loop(measure, q_grid, depths):
            # reference: one box sum per (q, depth), then one fit per q
            log_r = -np.asarray(depths) * np.log(2.0)
            tau, err = [], []
            for q in q_grid:
                logs = []
                for j in depths:
                    mu = _grid_box_masses(measure, 2**j).ravel()
                    pos = mu[mu > 0]
                    logs.append(np.log(np.sum(pos**q)) if q != 0 else np.log(pos.size))
                slope, intercept = ols_slope(log_r, np.array(logs))
                tau.append(slope)
                err.append(float(np.std(np.array(logs) - (intercept + slope * log_r))))
            return np.array(tau), np.array(err)

        family, resolution = ("exact1d", 256) if d == 1 else ("exact2d", 32)
        sampler = LayerSampler(KernelSpec(family=family, T=1.0, d=d), Lattice(d, resolution),
                               range(1, 5))
        field = sampler.sample_field(RngStream(4), 0)
        q_grid = np.array([-1.0, -0.25, 0.0, 0.3, 0.5, 1.0, 2.0])
        depths = [2, 3, 4, 5] if d == 1 else [1, 2, 3]
        dual = build_dual_cells(field, 1.0, 0.25 * d, RngStream(4).generator("atoms", 0))
        for measure in (build_chaos(field, 0.5 * d), dual):
            res = lq_spectrum(measure, q_grid, depths)
            tau, err = loop(measure, q_grid, depths)
            assert np.array_equal(res.tau_hat, tau) and np.array_equal(res.stderr, err)

    @pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
    def test_tau_at_zero_is_minus_d(self, d):
        # every dyadic box of a chaos or an exact dual has positive mass, so
        # q = 0 counts the 2^(jd) boxes at depth j and the fit is -d
        family, resolution = ("exact1d", 256) if d == 1 else ("exact2d", 32)
        sampler = LayerSampler(KernelSpec(family=family, T=1.0, d=d), Lattice(d, resolution),
                               range(1, 6))
        field = sampler.sample_field(RngStream(6), 0)
        dual = build_dual_cells(field, 1.0 * d, 0.5, RngStream(6).generator("atoms", 0))
        depths = [4, 5, 6, 7, 8] if d == 1 else [2, 3, 4, 5]
        for measure in (build_chaos(field, 1.0 * d), dual):
            tau = lq_spectrum(measure, [0.0, 0.5], depths).tau_hat
            assert abs(tau[0] + d) <= 1e-12, tau[0] + d


class TestLqConjecture:
    def test_zero_above_alpha(self):
        tau = lq_conjecture([0.5, 0.8, 1.5], 1.0, 0.5, 1)
        np.testing.assert_allclose(tau, 0.0, atol=1e-12)

    def test_anchor_at_zero(self):
        tau = lq_conjecture([0.0], 1.0, 0.5, 1)
        assert tau[0] == pytest.approx(-1.0)

    def test_continuous_at_alpha(self):
        eps = 1e-9
        lo = lq_conjecture([0.5 - eps], 1.0, 0.5, 1)[0]
        assert abs(lo) < 1e-6

    def test_linear_below_q_minus(self):
        # xi_bar(q) = 3q - 2q^2 at gamma2 = 1, alpha = 1/2, d = 1, so the
        # Legendre identity -2q^2 = -1 puts q_- at -sqrt(1/2)
        q_minus = -np.sqrt(0.5)
        slope = 3.0 - 4.0 * q_minus
        q = np.array([2.0 * q_minus, q_minus, 0.5 * q_minus])
        np.testing.assert_allclose(
            lq_conjecture(q, 1.0, 0.5, 1),
            [slope * q[0], slope * q[1], xi_bar(1.0, 0.5, 1, q[2]) - 1.0], rtol=1e-10)

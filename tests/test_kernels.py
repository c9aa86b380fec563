import numpy as np
import pytest
from scipy import integrate

from gmclab.kernels import (
    KernelError,
    KernelSpec,
    eval_level_increment,
    eval_partial_kernel,
    gff_mode_count,
    level_increment_radial,
    partial_kernel_radial,
)

EXACT1D = KernelSpec(family="exact1d", T=1.0, d=1)
EXACT2D = KernelSpec(family="exact2d", T=1.0, d=2)
STAR = KernelSpec(family="star", T=1.0, d=1)
GFF = KernelSpec(family="gff-square", T=1.0, d=2)


class TestExactKernels:
    @pytest.mark.parametrize("r,n,expected", [
        (1.0, 4, 0.0),                      # outside support
        (0.5, 4, np.log(2.0)),              # log zone
        (0.0, 4, np.log(4.0) + 1.0),        # core value ln n + 1
        (0.25, 4, np.log(4.0)),             # boundary of the core
        (2.0, 7, 0.0),
    ])
    def test_exact1d_values(self, r, n, expected):
        assert partial_kernel_radial(EXACT1D, n, r) == pytest.approx(expected, abs=1e-14)

    def test_exact2d_core(self):
        # core value ln n + 2 at the origin
        assert partial_kernel_radial(EXACT2D, 4, 0.0) == pytest.approx(np.log(4.0) + 2.0)

    @pytest.mark.parametrize("spec", [EXACT1D, EXACT2D])
    def test_monotone_in_level(self, spec):
        r = np.linspace(0.0, 1.5, 301)
        prev = partial_kernel_radial(spec, 1, r)
        for n in range(2, 8):
            cur = partial_kernel_radial(spec, n, r)
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_increment_is_difference(self):
        r = np.linspace(0.0, 1.2, 77)
        for n in range(2, 6):
            q = level_increment_radial(EXACT1D, n, r)
            diff = partial_kernel_radial(EXACT1D, n, r) - partial_kernel_radial(EXACT1D, n - 1, r)
            np.testing.assert_allclose(q, diff, atol=1e-13)
            assert np.all(q >= -1e-13)

    def test_scale_matching_identity(self):
        # k_{2n}(x/2) = k_n(x) + ln 2 inside the support
        x = np.linspace(0.0, 0.9, 101)
        for n in (3, 5, 8):
            lhs = partial_kernel_radial(EXACT1D, 2 * n, x / 2.0)
            rhs = partial_kernel_radial(EXACT1D, n, x) + np.log(2.0)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("spec, n, resolution, gens", [
        (EXACT1D, 243, 729, range(1, 6)),
        (KernelSpec(family="exact2d", T=1.5, d=2), 27, 81, range(1, 4)),
    ], ids=["exact1d", "exact2d"])
    def test_triadic_scale_identity(self, spec, n, resolution, gens):
        # k_n(r) = g ln 3 + k_{n/3^g}(3^g r) wherever 3^g r <= T: the exact
        # identity behind a level-g Cantor box's chaos mass
        lag = np.arange(resolution)
        if spec.d == 1:
            r = lag / resolution
        else:
            r = np.hypot(*np.meshgrid(lag, lag)).ravel() / resolution
        for g in gens:
            near = r[3**g * r <= spec.T]
            lhs = partial_kernel_radial(spec, n, near)
            rhs = g * np.log(3.0) + partial_kernel_radial(spec, n // 3**g, 3**g * near)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)

    def test_exhaustion_equality_outside_core(self):
        # k_n equals the limit kernel exactly once r >= T/n
        for n in (4, 16, 64):
            r = np.linspace(1.0 / n, 1.0, 50)
            np.testing.assert_allclose(
                partial_kernel_radial(EXACT1D, n, r),
                np.log(1.0 / r),
                atol=1e-13,
            )


class TestStarKernel:
    def test_first_increment_at_zero(self):
        # q_1(0) = integral of k(0)/u over [2, 4] = ln 2 for a unit seed
        assert level_increment_radial(STAR, 1, 0.0) == pytest.approx(np.log(2.0), rel=1e-10)

    def test_against_quadrature(self):
        spec = STAR
        for n in (1, 2, 3):
            a, b = 2.0**n, 2.0 ** (n + 1)
            for r in (0.0, 0.01, 0.05):
                ref, _ = integrate.quad(lambda u: np.exp(-((r * u) ** 2)) / u, a, b)
                assert level_increment_radial(spec, n, r) == pytest.approx(ref, abs=1e-10)


class TestGFFSquare:
    def test_center_head_value(self):
        # frozen high-precision oracle value of the t >= 1 contribution
        x = np.array([[0.5, 0.5]])
        val = eval_level_increment(GFF, 1, x, x)
        assert val[0] == pytest.approx(6.585600605439e-05, rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 0.9, size=(6, 2))
        y = rng.uniform(0.1, 0.9, size=(6, 2))
        for n in (1, 2, 3):
            np.testing.assert_allclose(
                eval_level_increment(GFF, n, x, y),
                eval_level_increment(GFF, n, y, x),
                rtol=1e-10,
            )

    def test_partial_kernel_is_running_sum(self):
        x = np.array([[0.4, 0.6]])
        y = np.array([[0.45, 0.55]])
        total = sum(eval_level_increment(GFF, n, x, y) for n in range(1, 4))
        np.testing.assert_allclose(eval_partial_kernel(GFF, 3, x, y), total, rtol=1e-12)

    def test_boundary_rejected(self):
        x = np.array([[0.0, 0.5]])
        with pytest.raises(KernelError):
            eval_level_increment(GFF, 1, x, x)

    def test_mode_count_is_the_scalar_scan(self):
        # one step per mode: n grows while mode (n + 1, 1)'s weight e^{-lam a} / lam
        # at the level's slice end a is at least 1e-12
        for level in range(1, 17):
            a = 4.0 ** (1 - level)
            n = 1
            while True:
                lam = ((n + 1) ** 2 + 1) * np.pi**2 / 2.0
                if np.exp(-lam * a) / lam < 1e-12:
                    break
                n += 1
            assert gff_mode_count(level) == n, level
        assert [gff_mode_count(n) for n in (12, 14, 15, 40)] == [2925, 10155, 18616, 450158]


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(KernelError):
            KernelSpec(family="nope", T=1.0, d=1)

    def test_radial_requires_stationary(self):
        with pytest.raises(KernelError):
            partial_kernel_radial(GFF, 2, 0.1)

    @pytest.mark.parametrize("spec", [EXACT1D, EXACT2D, STAR])
    def test_point_eval_matches_radial(self, spec):
        rng = np.random.default_rng(11)
        if spec.d == 1:
            x = rng.uniform(0, 1, 5)[:, None]
            y = rng.uniform(0, 1, 5)[:, None]
            r = np.abs(x - y)[:, 0]
        else:
            x = rng.uniform(0, 1, (5, 2))
            y = rng.uniform(0, 1, (5, 2))
            r = np.linalg.norm(x - y, axis=1)
        np.testing.assert_allclose(
            np.ravel(eval_partial_kernel(spec, 3, x, y)),
            np.ravel(partial_kernel_radial(spec, 3, r)),
            rtol=1e-10,
        )

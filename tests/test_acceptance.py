"""Acceptance suite: one test (and one PASS/FAIL line) per release criterion.

These are statistical end-to-end checks at fixed seeds; the heavy ensembles
are session-scoped fixtures shared between criteria.  Golden constants below
were computed once with an independent high-precision oracle and frozen.
"""

import hashlib

import numpy as np
import pytest

from gmclab import analysis
from gmclab.atomic import build_atomic_direct, build_subordinated, sample_stable_atoms
from gmclab.chaos import build_chaos, measure_box, xi
from gmclab.cli import main as cli_main
from gmclab.config import ExperimentConfig
from gmclab.field import Lattice, LayerSampler, RngStream, prepare_circulant
from gmclab.kernels import KernelSpec
from gmclab.pipelines import run_field, run_scaling
from oracles import (
    dense_factor as _dense_factor,
    fractional_moment_identity_check,
    moment_relation_constant,
    replica_fields,
    replica_generators,
)

EXACT1D = KernelSpec(family="exact1d", T=1.0, d=1)
EXACT2D = KernelSpec(family="exact2d", T=1.0, d=2)
LN23 = np.log(2.0) / np.log(3.0)

# frozen oracle values
GOLDEN_MOMENT_CONSTANT = 2.72328821633067        # beta=0.25, alpha=0.5
GOLDEN_KPZ_G2_HALF = 0.569642264834269           # root at dim ln2/ln3, g2=0.5, d=1
GOLDEN_KPZ_G2_ONE = 0.505947439590298            # root at dim ln2/ln3, g2=1, d=1
GOLDEN_KPZ_DUAL = 0.252973719795149              # alpha * root, g2=1, d=1


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared ensembles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def chaos_totals_c1():
    """10^4 total masses of the level-6 chaos, d=1, gamma2=0.5, N=1024."""
    sampler = LayerSampler(EXACT1D, Lattice(1, 1024), range(1, 7))
    stream = RngStream(1001)
    return np.array([
        build_chaos(f, 0.5).total_mass() for f in replica_fields(sampler, stream, 10_000)
    ])


@pytest.fixture(scope="session")
def chaos_boxes_c2():
    """Box masses at lambda = 2^-2..2^-6 from a level-64 chaos ensemble."""
    lams = [2.0**-j for j in range(2, 7)]
    sampler = LayerSampler(EXACT1D, Lattice(1, 1024), range(1, 65))
    stream = RngStream(1002)
    out = np.empty((10_000, len(lams)))
    for r, f in enumerate(replica_fields(sampler, stream, out.shape[0])):
        m = build_chaos(f, 0.5)
        out[r] = [measure_box(m, [0.0], [lam]) for lam in lams]
    return np.asarray(lams), out


@pytest.fixture(scope="session")
def dual_ensemble():
    """10^5 replicas of (M, Mbar-direct, Mbar-subordinated) totals on [0,1],
    d=1, gamma2=1, alpha=0.5 (duality), z_min=1e-7, level 5, N=256."""
    sampler = LayerSampler(EXACT1D, Lattice(1, 256), range(1, 6))
    stream = RngStream(1003)
    alpha, g2, z_min = 0.5, 1.0, 1e-7
    R = 100_000
    m_tot = np.empty(R)
    direct = np.empty(R)
    subord = np.empty(R)
    # each block's replicas draw in order from its atoms and subordinated substreams
    for r, (f, atom_rng, subordinated_rng) in enumerate(zip(
            replica_fields(sampler, stream, R), replica_generators(stream, "atoms", R),
            replica_generators(stream, "subordinated", R))):
        m = build_chaos(f, g2)
        m_tot[r] = m.total_mass()
        atoms = sample_stable_atoms(sampler.lattice, alpha, z_min, atom_rng)
        direct[r] = build_atomic_direct(f, g2, atoms).total_mass()
        subord[r] = build_subordinated(m, alpha, z_min, subordinated_rng).total_mass()
    return {"m": m_tot, "direct": direct, "subord": subord,
            "alpha": alpha, "gamma2": g2, "z_min": z_min}


@pytest.fixture(scope="session")
def cantor_ensemble_g2_half():
    """Cantor covering sums of M at gamma2=0.5, level 729, N=2916."""
    sampler = LayerSampler(EXACT1D, Lattice(1, 2916), range(1, 730))
    stream = RngStream(1004)
    levels = list(range(1, 7))
    s_grid = np.linspace(0.35, 0.8, 10)
    sums = np.array([
        analysis.covering_sums(build_chaos(f, 0.5), levels, s_grid).sums
        for f in replica_fields(sampler, stream, 60)
    ])
    return levels, s_grid, sums


@pytest.fixture(scope="session")
def cantor_ensemble_dual():
    """Cantor covering sums of M and of subordinated Mbar at gamma2=1."""
    sampler = LayerSampler(EXACT1D, Lattice(1, 2916), range(1, 730))
    stream = RngStream(1005)
    levels = list(range(1, 7))
    s_m = np.linspace(0.3, 0.75, 10)
    s_bar = np.linspace(0.1, 0.45, 10)
    sums_m, sums_bar = [], []
    for f, rng in zip(replica_fields(sampler, stream, 60),
                      replica_generators(stream, "subordinated", 60)):
        m = build_chaos(f, 1.0)
        mbar = build_subordinated(m, 0.5, 1e-7, rng).cell_masses()
        sums_m.append(analysis.covering_sums(m, levels, s_m).sums)
        sums_bar.append(analysis.covering_sums(mbar, levels, s_bar).sums)
    return levels, s_m, np.array(sums_m), s_bar, np.array(sums_bar)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_expectation_identity(chaos_totals_c1):
    totals = chaos_totals_c1
    se = totals.std(ddof=1) / np.sqrt(totals.size)
    dev = abs(totals.mean() - 1.0)
    report("criterion-01 expectation-identity", dev <= 3 * se,
           f"mean={totals.mean():.5f} dev={dev:.5f} 3se={3*se:.5f}")


def test_criterion_02_chaos_spectrum(chaos_boxes_c2):
    lams, masses = chaos_boxes_c2
    q_grid = np.array([0.5, 1.0, 1.5])
    fit = analysis.estimate_spectrum(lams, masses, q_grid,
                                     rng=np.random.default_rng(42))
    theory = xi(0.5, 1, q_grid)
    devs = np.abs(fit.slopes - theory)
    report("criterion-02 chaos-spectrum", bool(np.all(devs <= 0.1)),
           "max|slope-xi(q)|="
           f"{devs.max():.4f} (tol 0.1), slopes={np.round(fit.slopes, 4).tolist()}")


def test_criterion_03_laplace_duality(dual_ensemble):
    e = dual_ensemble
    rng = np.random.default_rng(7)
    u_grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    ok = True
    gaps = []
    for construction in ("direct", "subord"):
        cmp = analysis.verify_laplace(e[construction], e["m"], e["alpha"],
                                      u_grid, rng=rng)
        ok &= (cmp.gap <= 0).all()
        gaps.append(float(np.max(np.abs(cmp.lhs - cmp.rhs))))
    report("criterion-03 laplace-duality", ok,
           f"95% CI overlap at all u for both constructions; max gaps {gaps}")


def test_criterion_04_moment_relation(dual_ensemble):
    e = dual_ensemble
    beta, alpha = 0.25, e["alpha"]
    ratio = np.mean(e["direct"] ** beta) / np.mean(e["m"] ** (beta / alpha))
    const = moment_relation_constant(beta, alpha)
    rel = abs(ratio / const - 1.0)
    assert const == pytest.approx(GOLDEN_MOMENT_CONSTANT, rel=1e-12)
    report("criterion-04 moment-relation", rel <= 0.05,
           f"ratio={ratio:.5f} golden={const:.5f} rel-dev={rel:.4f} (tol 5%)")


def test_criterion_05_moment_threshold(dual_ensemble):
    e = dual_ensemble
    k = 2000
    hill = analysis.hill_tail_index(e["direct"], k)
    rng = np.random.default_rng(13)
    pareto = (1.0 - rng.random(e["direct"].size)) ** (-1.0 / e["alpha"])
    hill_p = analysis.hill_tail_index(pareto, k)
    hill_e = analysis.hill_tail_index(rng.exponential(size=e["direct"].size), k)
    ok = (
        abs(hill.estimate - e["alpha"]) <= 0.05
        and hill.stable
        and abs(hill_p.estimate - e["alpha"]) <= 0.05
        and hill_p.stable
        and not hill_e.stable
    )
    report("criterion-05 moment-threshold", ok,
           f"hill={hill.estimate:.4f} (target {e['alpha']}+-0.05), "
           f"pareto-control={hill_p.estimate:.4f}, "
           f"exponential-control unstable={not hill_e.stable}")


def test_criterion_06_perfect_scaling():
    cfg = ExperimentConfig(gamma2=1.0, level=8, resolution=512, replicas=8000,
                           seed=1006, q_grid=(0.25,),
                           scaling_lambdas=(0.5, 0.25, 0.125))
    result = run_scaling(cfg)
    report("criterion-06 perfect-scaling", result.passed,
           "moment-ratio CIs cover lam^xi_bar(0.25) at lam in (1/2,1/4,1/8)")


def test_criterion_07_kpz_relation(cantor_ensemble_g2_half):
    levels, s_grid, sums = cantor_ensemble_g2_half
    est = analysis.dimension_estimate(levels, s_grid, sums,
                                      rng=np.random.default_rng(21))
    target = analysis.kpz_solve(LN23, 0.5, 1)
    assert target == pytest.approx(GOLDEN_KPZ_G2_HALF, rel=1e-12)
    # deterministic Lebesgue control
    lat = Lattice(1, 2916)
    from gmclab.chaos import LatticeMeasure

    uniform = LatticeMeasure(lat, np.full(lat.n_sites, lat.spacing))
    ctrl_grid = np.linspace(0.5, 0.75, 11)
    table = analysis.covering_sums(uniform, levels, ctrl_grid)
    leb = analysis.dimension_estimate(levels, ctrl_grid, table.sums)
    ok = abs(est.estimate - target) <= 0.1 and abs(leb.estimate - LN23) <= 0.01
    report("criterion-07 kpz-relation", ok,
           f"dim_M={est.estimate:.4f} root={target:.4f} (tol 0.1); "
           f"lebesgue-control={leb.estimate:.4f} vs ln2/ln3={LN23:.4f} (tol 0.01)")


def test_criterion_08_dual_kpz(cantor_ensemble_dual):
    levels, s_m, sums_m, s_bar, sums_bar = cantor_ensemble_dual
    est_m = analysis.dimension_estimate(levels, s_m, sums_m,
                                        rng=np.random.default_rng(22))
    est_bar = analysis.dimension_estimate(levels, s_bar, sums_bar,
                                          rng=np.random.default_rng(23))
    alpha = 0.5
    dim_dev = abs(est_bar.estimate - alpha * est_m.estimate)
    assert analysis.kpz_solve(LN23, 1.0, 1) == pytest.approx(GOLDEN_KPZ_G2_ONE, rel=1e-12)
    assert analysis.kpz_solve_dual(LN23, 1.0, 1, alpha) == pytest.approx(GOLDEN_KPZ_DUAL,
                                                                          rel=1e-12)
    alg_err = max(
        abs(analysis.kpz_solve_dual(x, 1.0, 1, alpha) - alpha * analysis.kpz_solve(x, 1.0, 1))
        for x in np.linspace(0.0, 1.0, 100)
    )
    ok = dim_dev <= 0.1 and alg_err <= 1e-12
    report("criterion-08 dual-kpz", ok,
           f"dim_Mbar={est_bar.estimate:.4f} vs alpha*dim_M={alpha*est_m.estimate:.4f} "
           f"(dev {dim_dev:.4f}, tol 0.1); algebraic identity max err {alg_err:.2e}")


def test_criterion_09_structural_self_tests(tmp_path):
    ok = True
    notes = []
    # kernel positivity: circulant eigenvalues of every prepared level
    for n in (1, 3, 6):
        sqrt_lam, _ = prepare_circulant(EXACT1D, [n], Lattice(1, 128))
        ok &= bool(np.all(sqrt_lam >= 0))
    # Gram eigenvalue floor for the dense backend
    factor = _dense_factor(EXACT2D, [2], Lattice(2, 8))
    ok &= bool(np.all(np.isfinite(factor)))
    notes.append("kernel positivity")
    # covariance fidelity: 20 site pairs within 3 SE
    field_res = run_field(ExperimentConfig(gamma2=0.5, level=4, resolution=64,
                                           replicas=4000, seed=1009))
    ok &= field_res.passed
    notes.append(f"covariance {20 - field_res.checks[0].statistic}/20 within 3 SE")
    # fractional moment identity
    resid = max(fractional_moment_identity_check(x, b)
                for x in (0.5, 2.0) for b in (0.25, 0.5))
    ok &= resid < 1e-8
    notes.append(f"fractional-moment residual {resid:.1e}")
    # regression self-test
    x = np.arange(12.0)
    slope, intercept = analysis.ols_slope(x, -1.75 * x + 0.5)
    ok &= abs(slope + 1.75) < 1e-9 and abs(intercept - 0.5) < 1e-9
    notes.append("regression 1e-9")
    # byte-identical reruns of a full pipeline
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("gamma2 = 0.5\nlevel = 3\nresolution = 32\n"
                        "replicas = 40\nseed = 5\n"
                        "lambda.grid = 0.5,0.25,0.125,0.0625\n")
    digests = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert cli_main(["chaos", "--config", str(cfg_path), "--out", out]) == 0
        h = hashlib.sha256()
        h.update((tmp_path / sub / "masses.csv").read_bytes())
        h.update((tmp_path / sub / "summary.txt").read_bytes())
        digests.append(h.hexdigest())
    ok &= digests[0] == digests[1]
    notes.append("byte-identical reruns")
    report("criterion-09 structural-self-tests", ok, "; ".join(notes))


def test_criterion_10_atomic_figure_stats():
    from scipy.stats import spearmanr

    lat = Lattice(2, 64)
    alpha = 0.25
    z_min = 1e-5
    spans = []
    medians = {}
    for g2 in (0.01, 1.0, 3.6):
        sampler = LayerSampler(EXACT2D, lat, range(1, 6))
        stream = RngStream(1010)
        corrs = []
        for f, rng in zip(replica_fields(sampler, stream, 40),
                          replica_generators(stream, "atoms", 40)):
            atoms = sample_stable_atoms(lat, alpha, z_min, rng)
            mbar = build_atomic_direct(f, g2, atoms)
            if mbar.count < 3:
                continue
            corrs.append(spearmanr(f.values[mbar.cells], mbar.masses).statistic)
            if g2 == 1.0:
                spans.append(np.log10(mbar.masses.max()) - np.log10(mbar.masses.min()))
        medians[g2] = float(np.median(corrs))
    span = float(np.median(spans))
    ok = (span >= 4.0
          and medians[0.01] < medians[1.0] < medians[3.6])
    report("criterion-10 atomic-figure-stats", ok,
           f"median log10 mass span {span:.2f} (>= 4); spearman medians "
           f"{medians[0.01]:.3f} < {medians[1.0]:.3f} < {medians[3.6]:.3f}")

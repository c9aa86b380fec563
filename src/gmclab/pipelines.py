"""Experiment pipelines behind the CLI subcommands.

Each pipeline builds the ensembles it needs, runs the matching statistical
checks, and returns tables plus a pass/fail summary.  Every ensemble comes
from one replica loop, `_measures(cfg, kind, stream)`: replica r draws its
field X^n on the substream (field, r, 0) and forms the chaos M_n ("chaos") or
its atomic dual, built by weighting a stable atom cloud drawn on (atoms, r, 0)
("direct") or by subordinating M_n on (subordinated, r, 0) ("subordinated").
Two reducers turn an ensemble into box masses or Cantor covering sums.  So a
given (config, seed) pair reproduces byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.stats import spearmanr

from . import analysis
from .atomic import (
    Region,
    build_atomic_direct,
    build_subordinated,
    expected_atom_count,
    sample_stable_atoms,
    truncation_bound,
)
from .chaos import LatticeMeasure, build_chaos, measure_box, xi
from .config import ExperimentConfig
from .field import Lattice, LayerSampler, RngStream
from .kernels import KernelSpec


@dataclass
class PipelineResult:
    name: str
    passed: bool
    summary: dict
    tables: dict = dc_field(default_factory=dict)  # name -> (header, rows)
    extra_files: dict = dc_field(default_factory=dict)  # name -> bytes


def kernel_spec(cfg: ExperimentConfig) -> KernelSpec:
    return KernelSpec(family=cfg.kernel_family, T=cfg.kernel_T, d=cfg.dimension)


def lattice_for(cfg: ExperimentConfig) -> Lattice:
    return Lattice(cfg.dimension, cfg.resolution)


def _box(d: int, side: float):
    """The box [0, side]^d as (lo, hi) corners."""
    return np.zeros(d), np.full(d, side)


# ---------------------------------------------------------------------------
# the replica loop and its reducers
# ---------------------------------------------------------------------------

def _sampler(cfg: ExperimentConfig, level: int | None = None) -> LayerSampler:
    """Field sampler for levels 1..level (default cfg.level) on cfg's lattice."""
    return LayerSampler(kernel_spec(cfg), lattice_for(cfg), range(1, (level or cfg.level) + 1))


def _measures(cfg: ExperimentConfig, kind: str, stream: RngStream,
              level: int | None = None):
    """Yield (field, atoms, measure) for replicas r < cfg.replicas.

    kind: "chaos" (the lattice chaos M_n), "direct" (a stable atom cloud
    weighted by the field; atoms is that cloud, None for the other kinds) or
    "subordinated" (atoms drawn from M_n).
    """
    sampler = _sampler(cfg, level)
    if kind != "chaos":
        alpha, z_min = cfg.alpha(), cfg.resolved_z_min()
        region = Region.unit(cfg.dimension)
    for r in range(cfg.replicas):
        field = sampler.sample_field(stream, r)
        if kind == "direct":
            atoms = sample_stable_atoms(region, alpha, z_min, stream.generator(r, "atoms"))
            yield field, atoms, build_atomic_direct(field, cfg.gamma2, alpha, atoms)
        elif kind == "subordinated":
            m = build_chaos(field, cfg.gamma2)
            yield field, None, build_subordinated(m, alpha, z_min,
                                                  stream.generator(r, "subordinated"))
        else:
            yield field, None, build_chaos(field, cfg.gamma2)


def _box_masses(cfg: ExperimentConfig, kind: str, stream: RngStream, boxes,
                level: int | None = None) -> np.ndarray:
    """Per-replica masses of the boxes, shape (replicas, len(boxes))."""
    return np.array([
        [measure_box(m, lo, hi) if kind == "chaos" else m.box_mass(lo, hi)
         for lo, hi in boxes]
        for _, _, m in _measures(cfg, kind, stream, level)
    ])


def _covering_sums(cfg: ExperimentConfig, kind: str, stream: RngStream,
                   levels, s_grid) -> np.ndarray:
    """Per-replica Cantor covering sums, shape (replicas, len(levels), len(s_grid))."""
    return np.array([analysis.covering_sums(m, "cantor", levels, s_grid).sums
                     for _, _, m in _measures(cfg, kind, stream)])


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def run_field(cfg: ExperimentConfig) -> PipelineResult:
    """Covariance fidelity check at random site pairs (3 SE criterion)."""
    spec = kernel_spec(cfg)
    sampler = _sampler(cfg)
    lat = sampler.lattice
    stream = RngStream(cfg.seed)
    check_rng = np.random.default_rng(cfg.seed)
    n_pairs = 20
    idx = check_rng.integers(0, lat.n_sites, size=(n_pairs, 2))
    values = np.empty((cfg.replicas, 2 * n_pairs))
    for r in range(cfg.replicas):
        values[r] = sampler.sample_field(stream, r).values[idx.ravel()]
    pts = lat.centers()
    rows = []
    n_pass = 0
    from .kernels import eval_partial_kernel

    for p in range(n_pairs):
        a = values[:, 2 * p]
        b = values[:, 2 * p + 1]
        emp = float(np.mean(a * b) - a.mean() * b.mean())
        se = float(np.std(a * b, ddof=1) / np.sqrt(cfg.replicas))
        theory = float(np.ravel(
            eval_partial_kernel(spec, cfg.level, pts[idx[p, 0]], pts[idx[p, 1]]))[0])
        ok = abs(emp - theory) <= 3 * max(se, 1e-12)
        n_pass += ok
        rows.append((p, int(idx[p, 0]), int(idx[p, 1]), emp, theory, se, int(ok)))
    # 3-SE checks at 20 pairs: allow one excursion (95% pointwise criterion)
    passed = n_pass >= n_pairs - 1
    return PipelineResult(
        name="field",
        passed=passed,
        summary={"pairs": n_pairs, "pairs_within_3se": int(n_pass)},
        tables={"covariance": (
            ["pair", "i", "j", "empirical", "theory", "se", "pass"], rows)},
    )


def run_chaos(cfg: ExperimentConfig) -> PipelineResult:
    """Expectation identity: mean total chaos mass within 3 SE of 1."""
    boxes = [_box(cfg.dimension, lam) for lam in (1.0, *cfg.lambda_grid)]
    masses = _box_masses(cfg, "chaos", RngStream(cfg.seed), boxes)
    rows = []
    for r in range(cfg.replicas):
        rows.append((r, 0, 1.0, masses[r, 0]))
        for j, lam in enumerate(cfg.lambda_grid, start=1):
            rows.append((r, j, lam, masses[r, j]))
    total = masses[:, 0]
    se = float(total.std(ddof=1) / np.sqrt(cfg.replicas))
    dev = abs(float(total.mean()) - 1.0)
    passed = dev <= 3 * se
    return PipelineResult(
        name="chaos",
        passed=passed,
        summary={"mean_total_mass": float(total.mean()), "se": se,
                 "deviation": dev, "criterion": "within 3 SE of 1"},
        tables={"masses": (["replica", "box_id", "lambda", "mass"], rows)},
    )


def _svg_scatter(positions: np.ndarray, masses: np.ndarray, size: int = 480) -> bytes:
    """Minimal SVG scatter of atom positions, radius by log-mass rank."""
    order = np.argsort(masses)
    rank = np.empty(len(masses))
    rank[order] = np.arange(len(masses))
    rad = 1.0 + 6.0 * rank / max(len(masses) - 1, 1)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
           f'viewBox="0 0 {size} {size}">']
    for (p, r) in zip(positions, rad):
        x = p[0] * size
        y = (1.0 - (p[1] if len(p) > 1 else 0.5)) * size
        out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r:.1f}" '
                   'fill="black" fill-opacity="0.6"/>')
    out.append("</svg>")
    return "\n".join(out).encode()


def run_atoms(cfg: ExperimentConfig) -> PipelineResult:
    """Atom table emission plus the qualitative dominance/localization stats."""
    lat = lattice_for(cfg)
    alpha = cfg.alpha()
    z_min = cfg.resolved_z_min()
    rows = []
    spans = []
    corrs = []
    top_atoms = None
    for r, (field, atoms, mbar) in enumerate(_measures(cfg, "direct", RngStream(cfg.seed))):
        if mbar.count:
            spans.append(float(np.log10(mbar.masses.max()) - np.log10(mbar.masses.min())))
            x_at = field.values[lat.cell_index(mbar.positions)]
            if mbar.count >= 3:
                corrs.append(float(spearmanr(x_at, mbar.masses).statistic))
        for i in range(mbar.count):
            pos = mbar.positions[i]
            if lat.d == 1:
                rows.append((r, float(pos[0]), float(atoms.sizes[i]), float(mbar.masses[i])))
            else:
                rows.append((r, float(pos[0]), float(pos[1]),
                             float(atoms.sizes[i]), float(mbar.masses[i])))
        if r == 0 and mbar.count:
            keep = np.argsort(mbar.masses)[-min(200, mbar.count):]
            top_atoms = (mbar.positions[keep], mbar.masses[keep])
    header = (["replica", "x", "z", "mass"] if lat.d == 1
              else ["replica", "x", "y", "z", "mass"])
    span = float(np.median(spans)) if spans else 0.0
    corr = float(np.median(corrs)) if corrs else 0.0
    result = PipelineResult(
        name="atoms",
        passed=bool(spans),
        summary={
            "alpha": alpha,
            "z_min": z_min,
            "median_log10_mass_span": span,
            "median_field_mass_spearman": corr,
            "expected_atom_count": expected_atom_count(1.0, alpha, z_min),
            "truncation_bound": truncation_bound(1.0, alpha, z_min),
        },
        tables={"atoms": (header, rows)},
    )
    if top_atoms is not None:
        result.extra_files["atoms.svg"] = _svg_scatter(*top_atoms)
    return result


def run_spectrum(cfg: ExperimentConfig) -> PipelineResult:
    """Moment-slope estimation of the chaos spectrum against the closed form."""
    boxes = [_box(cfg.dimension, lam) for lam in cfg.lambda_grid]
    masses = _box_masses(cfg, "chaos", RngStream(cfg.seed), boxes)
    fit = analysis.estimate_spectrum(cfg.lambda_grid, masses, cfg.q_grid,
                                     rng=np.random.default_rng(cfg.seed))
    theory = xi(cfg.gamma2, cfg.dimension, np.asarray(cfg.q_grid))
    rows = []
    ok_all = True
    for i, q in enumerate(cfg.q_grid):
        ok = abs(fit.slopes[i] - theory[i]) <= 0.1
        ok_all &= ok
        rows.append((q, float(fit.slopes[i]), float(fit.stderr[i]),
                     float(theory[i]), int(ok)))
    return PipelineResult(
        name="spectrum",
        passed=ok_all,
        summary={"tolerance": 0.1, "q_grid": list(cfg.q_grid)},
        tables={"spectrum": (["q", "slope", "stderr", "theory", "pass"], rows)},
    )


def run_laplace(cfg: ExperimentConfig) -> PipelineResult:
    """Laplace duality on [0,1]: both constructions against the chaos side."""
    alpha = cfg.alpha()
    z_min = cfg.resolved_z_min()
    unit = [_box(cfg.dimension, 1.0)]
    m = _box_masses(cfg, "chaos", RngStream(cfg.seed), unit)[:, 0]
    direct = _box_masses(cfg, "direct", RngStream(cfg.seed + 1), unit)[:, 0]
    subord = _box_masses(cfg, "subordinated", RngStream(cfg.seed + 2), unit)[:, 0]
    rng = np.random.default_rng(cfg.seed)
    tables = {}
    passed = True
    for tag, samples in (("direct", direct), ("subordinated", subord)):
        cmp = analysis.verify_laplace(samples, m, alpha, cfg.u_grid, rng=rng)
        rows = [
            (float(u), float(cmp.lhs[i]), float(cmp.rhs[i]),
             float(cmp.lhs_ci[i, 0]), float(cmp.lhs_ci[i, 1]),
             float(cmp.rhs_ci[i, 0]), float(cmp.rhs_ci[i, 1]), int(cmp.overlap[i]))
            for i, u in enumerate(cmp.u_grid)
        ]
        tables[f"laplace_{tag}"] = (
            ["u", "lhs", "rhs", "lhs_ci_lo", "lhs_ci_hi", "rhs_ci_lo", "rhs_ci_hi", "pass"],
            rows,
        )
        passed &= cmp.all_overlap
    return PipelineResult(
        name="laplace",
        passed=passed,
        summary={"alpha": alpha, "z_min": z_min,
                 "truncation_bound": truncation_bound(1.0, alpha, z_min)},
        tables=tables,
    )


def run_tail(cfg: ExperimentConfig) -> PipelineResult:
    """Hill plateau of the atomic total mass, with synthetic controls."""
    alpha = cfg.alpha()
    totals = _box_masses(cfg, "direct", RngStream(cfg.seed), [_box(cfg.dimension, 1.0)])[:, 0]
    k = cfg.hill_k or max(cfg.replicas // 20, 50)
    hill = analysis.hill_tail_index(totals, k)
    ctrl_rng = np.random.default_rng(cfg.seed)
    pareto = (ctrl_rng.random(cfg.replicas)) ** (-1.0 / alpha)
    hill_p = analysis.hill_tail_index(pareto, k)
    expo = ctrl_rng.exponential(size=cfg.replicas)
    hill_e = analysis.hill_tail_index(expo, k)
    rows = [
        ("atomic_total", hill.estimate, hill.ci_lo, hill.ci_hi, hill.k,
         int(hill.stable), hill.plateau_spread, alpha),
        ("pareto_control", hill_p.estimate, hill_p.ci_lo, hill_p.ci_hi, hill_p.k,
         int(hill_p.stable), hill_p.plateau_spread, alpha),
        ("exponential_control", hill_e.estimate, hill_e.ci_lo, hill_e.ci_hi,
         hill_e.k, int(hill_e.stable), hill_e.plateau_spread, float("nan")),
    ]
    passed = (
        abs(hill.estimate - alpha) <= 0.05
        and abs(hill_p.estimate - alpha) <= 0.05
        and hill_p.stable
        and not hill_e.stable
    )
    sweep_rows = [(float(kk), float(a)) for kk, a in hill.k_sweep]
    return PipelineResult(
        name="tail",
        passed=passed,
        summary={"alpha": alpha, "estimate": hill.estimate,
                 "tolerance": 0.05, "k": hill.k},
        tables={
            "hill": (["series", "estimate", "ci_lo", "ci_hi", "k", "stable",
                      "plateau_spread", "alpha_target"], rows),
            "hill_sweep": (["k", "estimate"], sweep_rows),
        },
    )


def run_scaling(cfg: ExperimentConfig) -> PipelineResult:
    """Perfect scaling: level-matched moment ratios and the Omega MGF self-test."""
    if cfg.kernel_family not in ("exact1d", "exact2d"):
        raise ValueError("perfect scaling requires an exact scale invariant kernel")
    alpha = cfg.alpha()
    radius = cfg.scaling_radius
    ref = _box_masses(cfg, "direct", RngStream(cfg.seed), [_box(cfg.dimension, radius)])[:, 0]
    q_grid = np.asarray([q for q in cfg.q_grid if q < alpha])
    if q_grid.size == 0:
        q_grid = alpha * np.array([0.25, 0.5, 0.75])
    rows = []
    passed = True
    rng = np.random.default_rng(cfg.seed)
    for j, lam in enumerate(cfg.scaling_lambdas, start=1):
        # exact self-similarity holds level-matched: scale lambda at level n/lambda
        level_lam = int(round(cfg.level / lam))
        small = _box_masses(cfg, "direct", RngStream(cfg.seed + j),
                            [_box(cfg.dimension, lam * radius)], level=level_lam)[:, 0]
        res = analysis.verify_perfect_scaling(small, ref, lam, cfg.gamma2, alpha,
                                              cfg.dimension, q_grid, rng=rng)
        for i, q in enumerate(q_grid):
            rows.append((lam, float(q), float(res.ratio[i]),
                         float(res.ratio_ci[i, 0]), float(res.ratio_ci[i, 1]),
                         float(res.theory[i]), int(res.pass_per_q[i])))
        passed &= bool(np.all(res.pass_per_q))
    # Omega MGF self-test at q=0.25, lambda=0.5
    omega = analysis.sample_omega(0.5, cfg.gamma2, 200_000, rng)
    qm = 0.25
    emp = float(np.mean(np.exp(qm * omega)))
    se = float(np.std(np.exp(qm * omega), ddof=1) / np.sqrt(omega.size))
    th = 0.5 ** (0.5 * cfg.gamma2 * qm - 0.5 * cfg.gamma2 * qm * qm)
    omega_ok = abs(emp - th) <= 3 * se
    passed &= omega_ok
    return PipelineResult(
        name="scaling",
        passed=passed,
        summary={"alpha": alpha, "omega_mgf_empirical": emp,
                 "omega_mgf_theory": th, "omega_ok": omega_ok},
        tables={"scaling": (
            ["lambda", "q", "ratio", "ci_lo", "ci_hi", "theory", "pass"], rows)},
    )


def run_kpz(cfg: ExperimentConfig) -> PipelineResult:
    """Measure-based Cantor dimension against the KPZ root."""
    d23 = float(np.log(2) / np.log(3))
    levels = list(range(1, cfg.cantor_depth + 1))
    s_grid = np.asarray(cfg.s_grid, dtype=float)
    sums = _covering_sums(cfg, "chaos", RngStream(cfg.seed), levels, s_grid)
    est = analysis.dimension_estimate(levels, s_grid, sums,
                                      rng=np.random.default_rng(cfg.seed))
    target = analysis.kpz_solve(d23, cfg.gamma2, cfg.dimension)
    # control: the uniform (Lebesgue) measure must recover log 2 / log 3
    lat = lattice_for(cfg)
    uniform = LatticeMeasure(lat, np.full(lat.n_sites, lat.spacing**lat.d))
    leb_grid = np.linspace(0.5, 0.75, 11)
    leb = analysis.dimension_estimate(
        levels, leb_grid, analysis.covering_sums(uniform, "cantor", levels, leb_grid).sums)
    rows = []
    for ri in range(min(sums.shape[0], 50)):
        for li, g in enumerate(levels):
            for si, s in enumerate(s_grid):
                rows.append((ri, float(s), int(g), float(sums[ri, li, si])))
    ok_m = abs(est.estimate - target) <= 0.1
    ok_leb = abs(leb.estimate - d23) <= 0.01
    return PipelineResult(
        name="kpz",
        passed=ok_m and ok_leb,
        summary={
            "dim_estimate": est.estimate,
            "dim_ci": [est.ci_lo, est.ci_hi],
            "kpz_root": target,
            "lebesgue_control": leb.estimate,
            "dim_leb": d23,
            "tolerance_measure": 0.1,
            "tolerance_control": 0.01,
        },
        tables={"covering": (["replica", "s", "level", "sum"], rows)},
    )


def run_duality(cfg: ExperimentConfig) -> PipelineResult:
    """Dual dimension relation dim_Mbar = alpha * dim_M plus the algebraic identity."""
    alpha = cfg.alpha()
    levels = list(range(1, cfg.cantor_depth + 1))
    s_grid = np.asarray(cfg.s_grid, dtype=float)
    sums_m = _covering_sums(cfg, "chaos", RngStream(cfg.seed), levels, s_grid)
    est_m = analysis.dimension_estimate(levels, s_grid, sums_m,
                                        rng=np.random.default_rng(cfg.seed))
    # dual grid centered on the predicted dual dimension alpha * dim_M
    center = max(alpha * est_m.estimate, 1e-3)
    dual_grid = np.unique(np.clip(np.linspace(0.2, 2.5, 12) * center, 1e-4, 0.999))
    sums_bar = _covering_sums(cfg, "direct", RngStream(cfg.seed + 1), levels, dual_grid)
    est_bar = analysis.dimension_estimate(levels, dual_grid, sums_bar,
                                          rng=np.random.default_rng(cfg.seed + 1))
    grid = np.linspace(0.0, 1.0, 100)
    alg_err = max(
        abs(analysis.kpz_solve_dual(x, cfg.gamma2, cfg.dimension)
            - alpha * analysis.kpz_solve(x, cfg.gamma2, cfg.dimension))
        for x in grid
    )
    ok_dim = abs(est_bar.estimate - alpha * est_m.estimate) <= 0.1
    ok_alg = alg_err <= 1e-12
    return PipelineResult(
        name="duality",
        passed=ok_dim and ok_alg,
        summary={
            "alpha": alpha,
            "dim_m": est_m.estimate,
            "dim_mbar": est_bar.estimate,
            "dual_prediction": alpha * est_m.estimate,
            "algebraic_identity_max_err": alg_err,
            "tolerance": 0.1,
        },
        tables={},
    )


def run_lq(cfg: ExperimentConfig) -> PipelineResult:
    """Box-counting L^q-spectrum proxy, labeled CONJECTURE-COMPARISON."""
    alpha = cfg.alpha()
    max_depth = int(np.floor(np.log2(cfg.resolution)))
    depths = [j for j in range(2, max_depth + 1)
              if cfg.resolution % 2**j == 0][-5:]
    if len(depths) < 3:
        raise ValueError(
            "resolution must be divisible by at least three dyadic depths 2^j "
            "(use a power-of-two resolution for the lq pipeline)"
        )
    # replica 0 only; both measures see the same field draw on (field, 0, 0)
    stream = RngStream(cfg.seed)
    _, _, m = next(_measures(cfg, "chaos", stream))
    _, _, mbar = next(_measures(cfg, "direct", stream))
    q_grid = np.asarray(cfg.q_grid, dtype=float)
    res_m = analysis.lq_spectrum(m, q_grid, depths, d=cfg.dimension)
    res_bar = analysis.lq_spectrum(mbar, q_grid, depths, gamma2=cfg.gamma2,
                                   alpha=alpha, d=cfg.dimension)
    rows = []
    for i, q in enumerate(q_grid):
        rows.append(("M", float(q), float(res_m.tau_hat[i]),
                     float(res_m.stderr[i]), float("nan")))
        rows.append(("Mbar", float(q), float(res_bar.tau_hat[i]),
                     float(res_bar.stderr[i]), float(res_bar.conjecture[i])))
    # only the structural anchor tau(0) = -d is checked; the rest is conjecture
    i0 = int(np.argmin(np.abs(q_grid)))
    anchor_ok = abs(q_grid[i0]) > 1e-9 or abs(res_m.tau_hat[i0] + cfg.dimension) <= 0.1
    return PipelineResult(
        name="lq",
        passed=bool(anchor_ok),
        summary={"label": "CONJECTURE-COMPARISON", "depths": list(depths)},
        tables={"lq_spectrum": (
            ["measure", "q", "tau_hat", "stderr", "conjecture"], rows)},
    )


PIPELINES = {
    "field": run_field,
    "chaos": run_chaos,
    "atoms": run_atoms,
    "spectrum": run_spectrum,
    "laplace": run_laplace,
    "tail": run_tail,
    "scaling": run_scaling,
    "kpz": run_kpz,
    "duality": run_duality,
    "lq": run_lq,
}

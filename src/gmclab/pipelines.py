"""Experiment pipelines behind the CLI subcommands.

Each pipeline builds the ensembles it needs, runs the matching statistical
checks, and returns tables, a summary and one `Check` per gate.  Every ensemble comes from
one replica loop, `_measures(cfg, kinds, stream)`, which steps one field
chunk at a time: every draw of replica r comes from its block's substream
(purpose, b, 0), b = r // 64, one generator per purpose and block that the
block's replicas read in order, and on each chunk of fields the loop builds
every measure the pipeline compares, the chaos M_n ("chaos") and its duals;
only `scaling`'s lambda ensembles, at other levels, draw on seed + j.  The
field comes from (field, b, 0).  The dual's exact cell masses take one
positive-stable draw per cell on (atoms, b, 0) ("dual"); the atom-level dual
weights a stable atom cloud drawn on (atoms, b, 0) ("direct") or
subordinates M_n on (subordinated, b, 0) ("subordinated").  A cloud is its
per-cell counts and its sizes in cell order: both clouds draw one Poisson
count per cell, then their sizes; only `atoms` places atoms inside their
cells, on (positions, b, 0).  Replica r's draws follow those of the replicas
before it in its block, so they depend only on (seed, r), not on the
replica count or the chunk size.
The chaos and the dual's cells are (replicas, n_sites) blocks, one exp per
chunk; the clouds are drawn one replica at a time, each dropped before the
next.  Two reducers turn the blocks into box masses or Cantor covering sums
as they come: measure_box and covering_sums reduce a block in one numpy call
per box side or level set, each replica's result bit-equal to its own.  So a
given (config, seed) pair reproduces byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import analysis
from .atomic import (
    atom_positions,
    build_atomic_direct,
    build_dual_cells,
    build_subordinated,
    expected_atom_count,
    sample_stable_atoms,
    truncation_bound,
)
from .chaos import LatticeMeasure, build_chaos, measure_box, xi
from .config import ExperimentConfig
from .field import FIELD_BLOCK, Lattice, LayerSampler, RngStream
from .kernels import KernelSpec


@dataclass(frozen=True)
class Check:
    """One gate of a run: a statistic of its samples, the threshold it is held to,
    and the verdict: statistic <= threshold, unless the name states another test."""
    name: str
    statistic: float
    threshold: float
    passed: bool


def _at_most(name: str, statistic, threshold) -> Check:
    return Check(name, statistic, threshold, bool(statistic <= threshold))


@dataclass
class PipelineResult:
    name: str
    checks: list[Check]  # in the order summary.txt lists them
    summary: dict
    # name -> {column: 1-D array or list}, in header order; cli.write_csv spells the cells
    tables: dict = dc_field(default_factory=dict)
    extra_files: dict = dc_field(default_factory=dict)  # name -> bytes
    # manifest.json's diagnostics: observations that no check or artifact reads
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def kernel_spec(cfg: ExperimentConfig) -> KernelSpec:
    return KernelSpec(family=cfg.kernel_family, T=cfg.kernel_T, d=cfg.dimension)


def lattice_for(cfg: ExperimentConfig) -> Lattice:
    return Lattice(cfg.dimension, cfg.resolution)


# ---------------------------------------------------------------------------
# the replica loop and its reducers
# ---------------------------------------------------------------------------

def _sampler(cfg: ExperimentConfig, level: int | None = None) -> LayerSampler:
    """Field sampler for levels 1..level (default cfg.level) on cfg's lattice."""
    return LayerSampler(kernel_spec(cfg), lattice_for(cfg), range(1, (level or cfg.level) + 1))


# the RNG purpose each dual kind draws on
_PURPOSE = {"dual": "atoms", "direct": "atoms", "subordinated": "subordinated"}


def _measures(cfg: ExperimentConfig, kinds: tuple, stream: RngStream,
              level: int | None = None):
    """Yield (start, field, measures) per field chunk: field holds replicas
    start, start + 1, ... as (rows, n_sites) values, and measures has one
    entry per kind, built on those fields.

    kinds: "chaos" (the lattice chaos M_n) and "dual" (the dual's exact cell
    masses) are LatticeMeasures of the whole chunk, masses (rows, n_sites).
    "direct" (a stable atom cloud weighted by the field) and "subordinated"
    (atoms drawn from M_n) are iterators over the chunk's replicas that draw
    each cloud only when it is read, so one replica's clouds are dropped
    before the next one's are drawn: "direct" gives (atoms, measure) pairs,
    atoms the cloud, "subordinated" the measure.  Only the atom-level kinds
    are truncated at z_min.

    Each dual kind draws on its purpose's block substream, opened at the
    block's first chunk and read in replica order across its chunks, so a
    chunk's clouds must be read through before the next chunk is asked for.
    "dual" and "direct" both read (atoms, block, 0), so no pipeline asks for
    both.
    """
    sampler = _sampler(cfg, level)
    # decided per call: a chaos-only loop never resolves alpha or z_min
    need_chaos = "chaos" in kinds or "subordinated" in kinds
    if set(kinds) - {"chaos"}:
        alpha, z_min = cfg.alpha(), cfg.resolved_z_min()
    for start, field in sampler.field_blocks(stream, cfg.replicas):
        if start % FIELD_BLOCK == 0:
            rngs = {kind: stream.generator(_PURPOSE[kind], start)
                    for kind in kinds if kind in _PURPOSE}
        # one chaos serves both the "chaos" kind and the subordinated clouds
        m = build_chaos(field, cfg.gamma2) if need_chaos else None
        yield start, field, [
            m if kind == "chaos"
            else build_dual_cells(field, cfg.gamma2, alpha, rngs[kind]) if kind == "dual"
            else _direct_clouds(field, cfg.gamma2, alpha, z_min, rngs[kind])
            if kind == "direct"
            else _subordinated_clouds(m, alpha, z_min, rngs[kind])
            for kind in kinds]


def _direct_clouds(field, gamma2, alpha, z_min, rng):
    """(atoms, measure) of each replica of field in order, its cloud drawn from rng."""
    for i in range(len(field.values)):
        atoms = sample_stable_atoms(field.lattice, alpha, z_min, rng)
        yield atoms, build_atomic_direct(field, gamma2, atoms, i)


def _subordinated_clouds(m, alpha, z_min, rng):
    """The subordinated measure of each row of m in order, drawn from rng."""
    for masses in m.masses:
        yield build_subordinated(LatticeMeasure(m.lattice, masses), alpha, z_min, rng)


def _atom_counts(realized_mean, expected) -> dict:
    """A cloud's mean realised atom count per replica beside its expected count."""
    return {"realized_mean": float(realized_mean), "expected": float(expected)}


def _box_masses(cfg: ExperimentConfig, kind: str, stream: RngStream, sides,
                level: int | None = None) -> np.ndarray:
    """Masses of the boxes [0, side]^d, shape (replicas, len(sides)), for the
    kinds whose measures live on the lattice ("chaos" and "dual"), one
    measure_box call per side and field chunk."""
    lo = np.zeros(cfg.dimension)
    boxes = [np.full(cfg.dimension, side) for side in sides]
    out = np.empty((cfg.replicas, len(boxes)))
    for start, _, (block,) in _measures(cfg, (kind,), stream, level):
        for j, hi in enumerate(boxes):
            out[start:start + len(block.masses), j] = measure_box(block, lo, hi)
    return out


def _covering_sums(blocks, levels, s_grid) -> np.ndarray:
    """Per-replica Cantor covering sums of a stream of lattice measure blocks,
    shape (replicas, len(levels), len(s_grid)), one covering_sums call per
    block."""
    return np.concatenate([analysis.covering_sums(block, "cantor", levels, s_grid).sums
                           for block in blocks])


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def run_field(cfg: ExperimentConfig) -> PipelineResult:
    """Covariance fidelity check at random site pairs (3 SE criterion)."""
    spec = kernel_spec(cfg)
    lat = lattice_for(cfg)
    check_rng = np.random.default_rng(cfg.seed)
    n_pairs = 20
    idx = check_rng.integers(0, lat.n_sites, size=(n_pairs, 2))
    values = np.concatenate([field.values[:, idx.ravel()]
                             for _, field, _ in _measures(cfg, (), RngStream(cfg.seed))])
    pts = lat.centers()
    # looked up at call time: the benchmark tracer patches it after import
    from .kernels import eval_partial_kernel

    emp, se = np.array([
        (np.mean(a * b) - a.mean() * b.mean(),
         np.std(a * b, ddof=1) / np.sqrt(cfg.replicas))
        for a, b in zip(values[:, 0::2].T, values[:, 1::2].T)]).T
    # one call on all pairs, each value bit-equal to its own pair's call; in
    # d = 1 the points are (pairs, 1), and so is the result
    theory = np.ravel(eval_partial_kernel(spec, cfg.level, pts[idx[:, 0]], pts[idx[:, 1]]))
    ok = np.abs(emp - theory) <= 3 * np.maximum(se, 1e-12)
    # 3-SE checks at 20 pairs: allow one excursion (95% pointwise criterion)
    return PipelineResult(
        name="field",
        checks=[_at_most("pairs_outside_3se", n_pairs - int(ok.sum()), 1)],
        summary={"pairs": n_pairs},
        tables={"covariance": {"pair": np.arange(n_pairs), "i": idx[:, 0], "j": idx[:, 1],
                               "empirical": emp, "theory": theory, "se": se,
                               "pass": ok.astype(int)}},
    )


def run_chaos(cfg: ExperimentConfig) -> PipelineResult:
    """Expectation identity: mean total chaos mass within 3 SE of 1."""
    sides = np.array((1.0, *cfg.lambda_grid))
    masses = _box_masses(cfg, "chaos", RngStream(cfg.seed), sides)
    replica, box_id = np.meshgrid(np.arange(cfg.replicas), np.arange(sides.size), indexing="ij")
    total = masses[:, 0]
    mean = float(total.mean())
    se = float(total.std(ddof=1) / np.sqrt(cfg.replicas))
    return PipelineResult(
        name="chaos",
        checks=[_at_most("mean_mass_deviation", abs(mean - 1.0), 3 * se)],
        summary={"mean_total_mass": mean, "se": se},
        tables={"masses": {"replica": replica.ravel(), "box_id": box_id.ravel(),
                           "lambda": sides[box_id].ravel(), "mass": masses.ravel()}},
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
    # imported here: scipy.stats costs about half a second and only atoms needs it
    from scipy.stats import spearmanr

    lat = lattice_for(cfg)
    alpha = cfg.alpha()
    z_min = cfg.resolved_z_min()
    chunks = []  # one per replica: its replica, coordinate, z and mass columns
    spans = []
    corrs = []
    top_atoms = None
    stream = RngStream(cfg.seed)
    for start, field, (direct,) in _measures(cfg, ("direct",), stream):
        if start % FIELD_BLOCK == 0:
            positions_rng = stream.generator("positions", start)
        for i, (atoms, mbar) in enumerate(direct):
            r = start + i
            cells = mbar.cells
            if mbar.count:
                spans.append(float(np.log10(mbar.masses.max()) - np.log10(mbar.masses.min())))
                if mbar.count >= 3:
                    corrs.append(float(spearmanr(field.values[i, cells],
                                                 mbar.masses).statistic))
            positions = atom_positions(lat, cells, positions_rng)
            chunks.append((np.full(mbar.count, r), *positions.T, atoms.masses, mbar.masses))
            if r == 0 and mbar.count:
                keep = np.argsort(mbar.masses)[-min(200, mbar.count):]
                top_atoms = (positions[keep], mbar.masses[keep])
    header = ["replica", *"xy"[:lat.d], "z", "mass"]
    table = dict(zip(header, map(np.concatenate, zip(*chunks)), strict=True))
    span = float(np.median(spans)) if spans else 0.0
    corr = float(np.median(corrs)) if corrs else 0.0
    expected = expected_atom_count(1.0, alpha, z_min)
    result = PipelineResult(
        name="atoms",
        # passes when some replica's cloud holds an atom
        checks=[Check("atoms_drawn", len(spans), 0, bool(spans))],
        summary={
            "alpha": alpha,
            "z_min": z_min,
            "median_log10_mass_span": span,
            "median_field_mass_spearman": corr,
            "expected_atom_count": expected,
            "truncation_bound": truncation_bound(1.0, alpha, z_min),
        },
        tables={"atoms": table},
        diagnostics={"atoms_per_replica": {
            "direct": _atom_counts(len(table["z"]) / cfg.replicas, expected)}},
    )
    if top_atoms is not None:
        result.extra_files["atoms.svg"] = _svg_scatter(*top_atoms)
    return result


def run_spectrum(cfg: ExperimentConfig) -> PipelineResult:
    """Moment-slope estimation of the chaos spectrum against the closed form."""
    masses = _box_masses(cfg, "chaos", RngStream(cfg.seed), cfg.lambda_grid)
    fit = analysis.estimate_spectrum(cfg.lambda_grid, masses, cfg.q_grid,
                                     rng=np.random.default_rng(cfg.seed))
    theory = xi(cfg.gamma2, cfg.dimension, np.asarray(cfg.q_grid))
    err = np.abs(fit.slopes - theory)
    checks = [_at_most(f"slope_error_q={q}", e, 0.1) for q, e in zip(cfg.q_grid, err)]
    return PipelineResult(
        name="spectrum",
        checks=checks,
        summary={"q_grid": list(cfg.q_grid)},
        tables={"spectrum": {"q": cfg.q_grid, "slope": fit.slopes, "stderr": fit.stderr,
                             "theory": theory, "pass": [int(c.passed) for c in checks]}},
    )


def run_laplace(cfg: ExperimentConfig) -> PipelineResult:
    """Laplace duality on [0,1]: both constructions against the chaos side."""
    alpha = cfg.alpha()
    z_min = cfg.resolved_z_min()
    # the three sides of replica r share its field; the unit box holds every
    # cell and atom, so each side's mass there is its total mass.  A row sum
    # of the chaos block is the pairwise sum of the replica's own masses
    chaos, duals = [], []
    for _, _, (block, direct, subordinated) in _measures(
            cfg, ("chaos", "direct", "subordinated"), RngStream(cfg.seed)):
        chaos.append(block.masses.sum(axis=1))
        duals += [(mu.total_mass(), nu.total_mass(), mu.count, nu.count)
                  for (_, mu), nu in zip(direct, subordinated)]
    m = np.concatenate(chaos)
    direct, subord, n_direct, n_subord = np.array(duals).T
    rng = np.random.default_rng(cfg.seed)
    tables, checks = {}, []
    for tag, samples in (("direct", direct), ("subordinated", subord)):
        cmp = analysis.verify_laplace(samples, m, alpha, cfg.u_grid, rng=rng)
        tag_checks = [_at_most(f"{tag}_ci_gap_u={u}", g, 0.0)
                      for u, g in zip(cfg.u_grid, cmp.gap)]
        checks += tag_checks
        tables[f"laplace_{tag}"] = {
            "u": cmp.u_grid, "lhs": cmp.lhs, "rhs": cmp.rhs,
            "lhs_ci_lo": cmp.lhs_ci[:, 0], "lhs_ci_hi": cmp.lhs_ci[:, 1],
            "rhs_ci_lo": cmp.rhs_ci[:, 0], "rhs_ci_hi": cmp.rhs_ci[:, 1],
            "pass": [int(c.passed) for c in tag_checks]}
    return PipelineResult(
        name="laplace",
        checks=checks,
        summary={"alpha": alpha, "z_min": z_min,
                 "truncation_bound": truncation_bound(1.0, alpha, z_min)},
        tables=tables,
        # the subordinated cloud expects z_min^-alpha / alpha atoms per unit chaos mass
        diagnostics={"atoms_per_replica": {
            "direct": _atom_counts(n_direct.mean(), expected_atom_count(1.0, alpha, z_min)),
            "subordinated": _atom_counts(n_subord.mean(),
                                         expected_atom_count(m.mean(), alpha, z_min))}},
    )


def run_tail(cfg: ExperimentConfig) -> PipelineResult:
    """Hill plateau of the atomic total mass, with synthetic controls."""
    alpha = cfg.alpha()
    totals = _box_masses(cfg, "dual", RngStream(cfg.seed), [1.0])[:, 0]
    k = cfg.resolved_hill_k()
    hill = analysis.hill_tail_index(totals, k)
    ctrl_rng = np.random.default_rng(cfg.seed)
    pareto = (ctrl_rng.random(cfg.replicas)) ** (-1.0 / alpha)
    hill_p = analysis.hill_tail_index(pareto, k)
    expo = ctrl_rng.exponential(size=cfg.replicas)
    hill_e = analysis.hill_tail_index(expo, k)
    hills = (hill, hill_p, hill_e)
    rtol = analysis.HILL_STABILITY_RTOL
    return PipelineResult(
        name="tail",
        checks=[_at_most("atomic_index_error", abs(hill.estimate - alpha), 0.05),
                _at_most("pareto_index_error", abs(hill_p.estimate - alpha), 0.05),
                _at_most("pareto_plateau_spread", hill_p.plateau_spread, rtol),
                # passes when the thin-tailed control is flagged: spread > rtol
                Check("exponential_control_unstable", hill_e.plateau_spread, rtol,
                      not hill_e.stable)],
        summary={"alpha": alpha, "estimate": hill.estimate, "k": hill.k},
        tables={
            "hill": {"series": ["atomic_total", "pareto_control", "exponential_control"],
                     **{col: [getattr(h, col) for h in hills]
                        for col in ("estimate", "ci_lo", "ci_hi", "k")},
                     "stable": np.array([h.stable for h in hills]).astype(int),
                     "plateau_spread": [h.plateau_spread for h in hills],
                     "alpha_target": [alpha, alpha, np.nan]},
            "hill_sweep": {"k": hill.k_sweep[:, 0], "estimate": hill.k_sweep[:, 1]},
        },
    )


def run_scaling(cfg: ExperimentConfig) -> PipelineResult:
    """Perfect scaling: each level-matched moment ratio's CI must cover lam^xi_bar(q)."""
    alpha = cfg.alpha()
    radius = cfg.scaling_radius
    ref = _box_masses(cfg, "dual", RngStream(cfg.seed), [radius])[:, 0]
    q_grid = np.asarray([q for q in cfg.q_grid if q < alpha])
    if q_grid.size == 0:
        q_grid = alpha * np.array([0.25, 0.5, 0.75])
    results = []
    rng = np.random.default_rng(cfg.seed)
    for j, lam in enumerate(cfg.scaling_lambdas, start=1):
        # exact self-similarity holds level-matched: scale lambda at level n/lambda
        level_lam = int(round(cfg.level / lam))
        small = _box_masses(cfg, "dual", RngStream(cfg.seed + j), [lam * radius],
                            level=level_lam)[:, 0]
        results.append(analysis.verify_perfect_scaling(small, ref, lam, cfg.gamma2, alpha,
                                                       cfg.dimension, q_grid, rng=rng))
    lams, qs = np.meshgrid(cfg.scaling_lambdas, q_grid, indexing="ij")
    ci = np.array([res.ratio_ci for res in results])
    theory = np.array([res.theory for res in results])
    # the signed gap between the CI and the theory value, <= 0 exactly where it covers
    gap = np.maximum(ci[..., 0] - theory, theory - ci[..., 1]).ravel()
    checks = [_at_most(f"ci_gap_lambda={lam}_q={q}", g, 0.0)
              for lam, q, g in zip(lams.ravel(), qs.ravel(), gap)]
    return PipelineResult(
        name="scaling",
        checks=checks,
        summary={"alpha": alpha},
        tables={"scaling": {
            "lambda": lams.ravel(), "q": qs.ravel(),
            "ratio": np.ravel([res.ratio for res in results]),
            "ci_lo": ci[..., 0].ravel(), "ci_hi": ci[..., 1].ravel(),
            "theory": theory.ravel(), "pass": [int(c.passed) for c in checks]}},
    )


def run_kpz(cfg: ExperimentConfig) -> PipelineResult:
    """Measure-based Cantor dimension against the KPZ root."""
    d23 = float(np.log(2) / np.log(3))
    levels = list(range(1, cfg.cantor_depth + 1))
    s_grid = np.asarray(cfg.s_grid, dtype=float)
    sums = _covering_sums((m for _, _, (m,) in _measures(cfg, ("chaos",), RngStream(cfg.seed))),
                          levels, s_grid)
    est = analysis.dimension_estimate(levels, s_grid, sums,
                                      rng=np.random.default_rng(cfg.seed))
    target = analysis.kpz_solve(d23, cfg.gamma2, cfg.dimension)
    # control: the uniform (Lebesgue) measure must recover log 2 / log 3
    lat = lattice_for(cfg)
    uniform = LatticeMeasure(lat, np.full(lat.n_sites, lat.spacing**lat.d))
    leb_grid = np.linspace(0.5, 0.75, 11)
    leb = analysis.dimension_estimate(
        levels, leb_grid, analysis.covering_sums(uniform, "cantor", levels, leb_grid).sums)
    # the first 50 replicas' sums, replica by level by s
    kept = sums[:50]
    replica, level, s = np.meshgrid(np.arange(len(kept)), levels, s_grid, indexing="ij")
    return PipelineResult(
        name="kpz",
        checks=[_at_most("dimension_error", abs(est.estimate - target), 0.1),
                _at_most("lebesgue_control_error", abs(leb.estimate - d23), 0.01)],
        summary={
            "dim_estimate": est.estimate,
            "dim_ci": [est.ci_lo, est.ci_hi],
            "kpz_root": target,
            "lebesgue_control": leb.estimate,
            "dim_leb": d23,
        },
        tables={"covering": {"replica": replica.ravel(), "s": s.ravel(),
                             "level": level.ravel(), "sum": kept.ravel()}},
    )


def run_duality(cfg: ExperimentConfig) -> PipelineResult:
    """Dual dimension relation dim_Mbar = alpha * dim_M on each replica's one field."""
    alpha = cfg.alpha()
    levels = list(range(1, cfg.cantor_depth + 1))
    s_grid = np.asarray(cfg.s_grid, dtype=float)
    # M and its dual on each replica's one field.  The dual blocks wait for
    # the dual grid, kept as drawn: a copy into one (replicas, n_sites) array
    # raised the peak memory
    duals = []

    def chaos():
        for _, _, (m, dual) in _measures(cfg, ("chaos", "dual"), RngStream(cfg.seed)):
            duals.append(dual)
            yield m

    sums_m = _covering_sums(chaos(), levels, s_grid)
    est_m = analysis.dimension_estimate(levels, s_grid, sums_m,
                                        rng=np.random.default_rng(cfg.seed))
    # dual grid centered on the predicted dual dimension alpha * dim_M
    center = max(alpha * est_m.estimate, 1e-3)
    dual_grid = np.unique(np.clip(np.linspace(0.2, 2.5, 12) * center, 1e-4, 0.999))
    sums_bar = _covering_sums(duals, levels, dual_grid)
    est_bar = analysis.dimension_estimate(levels, dual_grid, sums_bar,
                                          rng=np.random.default_rng(cfg.seed + 1))
    prediction = alpha * est_m.estimate
    return PipelineResult(
        name="duality",
        checks=[_at_most("dual_dimension_error", abs(est_bar.estimate - prediction), 0.1)],
        summary={
            "alpha": alpha,
            "dim_m": est_m.estimate,
            "dim_mbar": est_bar.estimate,
            "dual_prediction": prediction,
        },
        tables={},
    )


def run_lq(cfg: ExperimentConfig) -> PipelineResult:
    """Box-counting L^q-spectrum proxy, labeled CONJECTURE-COMPARISON: no check."""
    alpha = cfg.alpha()
    max_depth = int(np.floor(np.log2(cfg.resolution)))
    # validate_config requires 16 | resolution, so depths 2, 3 and 4 divide it
    depths = [j for j in range(2, max_depth + 1)
              if cfg.resolution % 2**j == 0][-5:]
    # replica 0 only; both measures see the same field draw on (field, 0, 0)
    _, _, blocks = next(_measures(cfg, ("chaos", "dual"), RngStream(cfg.seed)))
    m, mbar = (LatticeMeasure(b.lattice, b.masses[0]) for b in blocks)
    q_grid = np.asarray(cfg.q_grid, dtype=float)
    res_m = analysis.lq_spectrum(m, q_grid, depths, d=cfg.dimension)
    res_bar = analysis.lq_spectrum(mbar, q_grid, depths, gamma2=cfg.gamma2,
                                   alpha=alpha, d=cfg.dimension)
    q, measure = np.meshgrid(q_grid, ["M", "Mbar"], indexing="ij")
    return PipelineResult(
        name="lq",
        checks=[],
        summary={"label": "CONJECTURE-COMPARISON", "depths": list(depths)},
        tables={"lq_spectrum": {
            "measure": measure.ravel(), "q": q.ravel(),
            "tau_hat": np.column_stack((res_m.tau_hat, res_bar.tau_hat)).ravel(),
            "stderr": np.column_stack((res_m.stderr, res_bar.stderr)).ravel(),
            "conjecture": np.column_stack((np.full(q_grid.size, np.nan),
                                           res_bar.conjecture)).ravel()}},
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

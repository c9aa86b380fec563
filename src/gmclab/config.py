"""Experiment configuration: flat key=value files with dotted keys.

Example::

    kernel.family = exact1d
    kernel.T = 1.0
    gamma2 = 0.5
    level = 6
    resolution = 1024
    replicas = 10000
    seed = 42
    alpha = duality             # gamma2/(2d); or a float in (0, 1)
    z_min = auto                # or a positive float
    lambda.grid = 0.25,0.125,0.0625,0.03125,0.015625
    q.grid = 0.5,1.0,1.5
    u.grid = 0.25,0.5,1,2,4
    cantor.depth = 6
    s.grid = 0.3,0.4,0.5,0.6,0.7,0.8
    out = results

Lines starting with '#' are comments; each key may be set once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from .analysis import HILL_MIN_K, kpz_solve
from .atomic import ATOM_BUDGET, auto_z_min, expected_atom_count
from .chaos import xi_moment_range
from .kernels import GFF_MODE_BUDGET, KernelError, KernelSpec, gff_mode_count


class ConfigError(ValueError):
    pass


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


@dataclass(frozen=True)
class ExperimentConfig:
    dimension: int = 1
    kernel_family: str = "exact1d"
    kernel_T: float = 1.0
    gamma2: float = 0.5
    level: int = 6
    resolution: int = 512
    replicas: int = 1000
    seed: int = 1
    alpha: float | str = "duality"     # float in (0, 1) or "duality"
    z_min: float | str = "auto"        # positive float or "auto"
    lambda_grid: tuple[float, ...] = (0.25, 0.125, 0.0625, 0.03125, 0.015625)
    q_grid: tuple[float, ...] = (0.5, 1.0, 1.5)
    u_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    scaling_lambdas: tuple[float, ...] = (0.5, 0.25, 0.125)
    cantor_depth: int = 6
    s_grid: tuple[float, ...] = ()
    hill_k: int = 0                    # 0: resolved_hill_k's default
    out_dir: str = "gmclab-out"

    def resolved_alpha(self) -> float:
        """alpha, or the duality value gamma2/2d when it is "duality"."""
        if self.alpha == "duality":
            return self.gamma2 / (2.0 * self.dimension)
        return float(self.alpha)

    def resolved_z_min(self) -> float:
        if self.z_min == "auto":
            return auto_z_min(self.resolved_alpha())
        return float(self.z_min)

    def resolved_hill_k(self) -> int:
        """tail's Hill k: hill.k, or max(replicas // 20, 50) when it is 0."""
        return self.hill_k or max(self.replicas // 20, 50)


_KEY_MAP = {
    "dimension": ("dimension", int),
    "kernel.family": ("kernel_family", str),
    "kernel.T": ("kernel_T", float),
    "gamma2": ("gamma2", float),
    "level": ("level", int),
    "resolution": ("resolution", int),
    "replicas": ("replicas", int),
    "seed": ("seed", int),
    "alpha": ("alpha", lambda v: v if v == "duality" else float(v)),
    "z_min": ("z_min", lambda v: v if v == "auto" else float(v)),
    "lambda.grid": ("lambda_grid", _floats),
    "q.grid": ("q_grid", _floats),
    "u.grid": ("u_grid", _floats),
    "scaling.lambdas": ("scaling_lambdas", _floats),
    "cantor.depth": ("cantor_depth", int),
    "s.grid": ("s_grid", _floats),
    "hill.k": ("hill_k", int),
    "out": ("out_dir", str),
}


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEY_MAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, conv = _KEY_MAP[key]
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[attr] = conv(val)
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def validate_config(cfg: ExperimentConfig, experiment: str) -> list[str]:
    """Itemized diagnostics of cfg for the subcommand experiment; an empty list
    means the config is runnable."""
    diags = [] if cfg.seed >= 0 else [f"seed must be >= 0, got {cfg.seed}"]
    # a nan passes or fails the comparisons below at random and round()
    # raises on it, and an inf degenerates the run (kernel.T = inf makes each
    # field constant) or fails it late: no other rule reads a non-finite value
    nonfinite = []
    for key, (attr, _) in _KEY_MAP.items():
        value = getattr(cfg, attr)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                nonfinite.append(f"{key} must be finite, got {v}")
                break
    if nonfinite:
        return diags + nonfinite
    # every rule below reads d, and the duality alpha divides by it
    if cfg.dimension not in (1, 2):
        return diags + [f"dimension must be 1 or 2, got {cfg.dimension}"]
    try:
        KernelSpec(family=cfg.kernel_family, T=cfg.kernel_T, d=cfg.dimension)
    except KernelError as exc:
        diags.append(f"kernel: {exc}")
    if cfg.gamma2 < 0:
        diags.append("gamma2 must be nonnegative")
    if cfg.level < 1:
        diags.append("level must be >= 1")
    elif (cfg.kernel_family == "gff-square"
          and (modes := gff_mode_count(cfg.level)) > GFF_MODE_BUDGET):
        # the sampler's spectral weights cost O(modes^2)
        diags.append(f"gff-square at level = {cfg.level} sums {modes} sine modes per axis, "
                     f"above the budget of {GFF_MODE_BUDGET}: lower level")
    elif cfg.kernel_family == "star" and cfg.level > 1022:
        # level n integrates the seed over [2^n, 2^(n+1)], and 2^1024 overflows
        diags.append(f"star at level = {cfg.level} integrates up to 2^{cfg.level + 1}, "
                     "beyond the largest double: level must be <= 1022")
    if cfg.resolution < 2:
        diags.append("resolution must be >= 2")
    if cfg.replicas < 1:
        diags.append("replicas must be >= 1")
    elif (experiment in ("field", "chaos", "spectrum", "laplace", "scaling")
          and cfg.replicas < 2):
        # their checks weigh a mean over replicas against its spread, which
        # one replica leaves undefined
        diags.append(f"{experiment} measures the spread across replicas: replicas must be "
                     f">= 2, got {cfg.replicas}")
    alpha = None
    if cfg.alpha != "duality" and not isinstance(cfg.alpha, float):
        diags.append(f"alpha must be 'duality' or a float, got {cfg.alpha!r}")
    elif not 0.0 < (alpha := cfg.resolved_alpha()) < 1.0:
        diags.append(f"alpha out of (0,1): {alpha} (gamma2={cfg.gamma2}, d={cfg.dimension})")
    if cfg.z_min != "auto" and not (isinstance(cfg.z_min, float) and cfg.z_min > 0):
        diags.append("z_min must be 'auto' or a positive float")
    elif experiment == "atoms" and alpha is not None and 0 < alpha < 1:
        # only atoms draws atom clouds: auto_z_min underflows to 0 as alpha
        # nears 1, and a cloud needs z_min > 0
        z_min = cfg.resolved_z_min()
        if not z_min > 0:
            diags.append(f"z_min = auto resolves to {z_min:g} at alpha = {alpha:g}: "
                         "atoms needs a positive z_min")
        elif (count := expected_atom_count(1.0, alpha, z_min)) > ATOM_BUDGET:
            diags.append(f"z_min = {z_min:g} at alpha = {alpha:g} expects {count:.2g} atoms "
                         f"per unit mass, above the budget of {ATOM_BUDGET:g}: raise z_min")
        elif count < 1:
            # a cloud expecting under one atom per unit mass is mostly empty
            diags.append(f"z_min = {z_min:g} at alpha = {alpha:g} expects {count:.3g} atoms "
                         "per unit mass, below 1: lower z_min")
        elif cfg.replicas * count > ATOM_BUDGET:
            # atoms writes every atom of every replica to atoms.csv
            diags.append(f"atoms writes every atom: {cfg.replicas} replicas of {count:.2g} "
                         f"expected atoms make {cfg.replicas * count:.2g}, above the budget of "
                         f"{ATOM_BUDGET:g}: raise z_min or lower replicas")
    if len(cfg.lambda_grid) and (min(cfg.lambda_grid) <= 0 or max(cfg.lambda_grid) >= 1):
        diags.append("lambda grid values must lie in (0, 1)")
    if experiment == "chaos":
        # measure_box snaps a box of under half a cell to no cell
        for lam in cfg.lambda_grid:
            if cfg.resolution * lam < 0.5:
                diags.append(f"chaos box of side {lam:g} spans {cfg.resolution * lam:g} cells; "
                             "resolution * lambda must be at least 0.5")
    q_max_m = xi_moment_range(cfg.gamma2, cfg.dimension)
    if experiment == "spectrum":
        if len(cfg.lambda_grid) < 4:
            diags.append(
                f"spectrum needs at least 4 lambda.grid values, got {len(cfg.lambda_grid)}")
        # the fit regresses on the nominal lambda, so each box must be whole cells
        for lam in cfg.lambda_grid:
            cells = cfg.resolution * lam
            if abs(cells - round(cells)) > 1e-9:
                diags.append(f"spectrum box of side {lam:g} spans {cells:g} cells; "
                             "resolution * lambda must be a whole number")
    if experiment in ("spectrum", "scaling") and not cfg.q_grid:
        diags.append(f"{experiment} needs at least one q.grid value")
    if experiment == "laplace" and not cfg.u_grid:
        diags.append("laplace needs at least one u.grid value")
    if experiment == "spectrum" and any(q >= q_max_m for q in cfg.q_grid):
        diags.append(
            f"q grid exceeds the chaos moment range q < 2d/gamma2 = {q_max_m:g}"
        )
    if experiment == "scaling" and alpha is not None and any(q >= alpha for q in cfg.q_grid):
        diags.append(f"q grid exceeds the atomic moment threshold q < alpha = {alpha:g}")
    if experiment in ("kpz", "duality"):
        # the square's covering sums run over C x C, but no d = 2 target is calibrated
        if cfg.dimension != 1:
            diags.append(f"{experiment} covers the Cantor set on [0, 1]: dimension must be 1, "
                         f"got {cfg.dimension}")
        if cfg.cantor_depth < 3:
            diags.append("cantor.depth must be >= 3: the dimension fit needs three levels")
        if 3**cfg.cantor_depth > cfg.resolution or cfg.resolution % 3**cfg.cantor_depth:
            diags.append(
                f"resolution must be a multiple of 3^cantor.depth = {3**cfg.cantor_depth} "
                "so the Cantor boxes align with cell boundaries"
            )
        # the zero crossing is interpolated between neighbouring values, and
        # each value is one covering.csv row
        for a, b in zip(cfg.s_grid, cfg.s_grid[1:]):
            if not a < b:
                diags.append(f"s.grid must increase strictly, but {a:g} is followed by {b:g}")
                break
        if len(cfg.s_grid) < 5:
            diags.append("s.grid needs at least 5 values")
        elif cfg.dimension == 1 and 0 <= cfg.gamma2 < 2:
            # the dimension estimate is the s grid's zero crossing, near this root
            root = kpz_solve(math.log(2) / math.log(3), cfg.gamma2, 1)
            if not min(cfg.s_grid) < root < max(cfg.s_grid):
                diags.append(f"s.grid [{min(cfg.s_grid):g}, {max(cfg.s_grid):g}] must bracket "
                             f"the KPZ root {root:.4g} at gamma2 = {cfg.gamma2:g}")
        # the KPZ root exists for a chaos below its critical gamma2 = 2d only
        if cfg.gamma2 >= 2 * cfg.dimension:
            diags.append(f"{experiment} solves the KPZ relation: gamma2 must be below "
                         f"2d = {2 * cfg.dimension}, got {cfg.gamma2:g}")
    if experiment == "tail" and not HILL_MIN_K <= cfg.resolved_hill_k() < cfg.replicas:
        diags.append(f"hill.k must lie in [{HILL_MIN_K}, replicas = {cfg.replicas}), got "
                     f"{cfg.resolved_hill_k()}{'' if cfg.hill_k else ' (the default)'}")
    if experiment == "scaling":
        if not cfg.scaling_lambdas:
            diags.append("scaling needs at least one scaling.lambdas value")
        if cfg.kernel_family not in ("exact1d", "exact2d"):
            diags.append("perfect scaling requires an exact scale invariant kernel "
                         f"(exact1d or exact2d), got {cfg.kernel_family}")
        # imported here: pipelines imports this module
        from .pipelines import SCALING_RADIUS

        # the dual's box masses are sums of whole cells
        for lam in (1.0, *cfg.scaling_lambdas):
            cells = cfg.resolution * SCALING_RADIUS * lam
            if abs(cells - round(cells)) > 1e-9:
                diags.append(
                    f"scaling box of side {SCALING_RADIUS * lam:g} spans {cells:g} "
                    f"cells; resolution * {SCALING_RADIUS:g} * lambda must be a whole number")
        # each lambda ensemble runs at level n / lambda, and the law is the
        # level-matched one only at a whole level
        for lam in cfg.scaling_lambdas:
            if 0 < lam < 1 and abs((ratio := cfg.level / lam) - round(ratio)) > 1e-9:
                diags.append(f"scaling lambda {lam:g} runs at level {cfg.level} / {lam:g} = "
                             f"{ratio:g}; level / lambda must be a whole number")
    for lam in cfg.scaling_lambdas:
        if not (0 < lam < 1):
            diags.append(f"scaling lambda {lam} outside (0,1)")
    # each value of the last three grids names its own checks, and a repeated
    # lambda is a repeated abscissa of the spectrum fit
    for key, grid in (("lambda.grid", cfg.lambda_grid), ("q.grid", cfg.q_grid),
                      ("u.grid", cfg.u_grid), ("scaling.lambdas", cfg.scaling_lambdas)):
        for v in sorted({v for v in grid if grid.count(v) > 1}):
            diags.append(f"{key} repeats the value {v:g}")
    return diags

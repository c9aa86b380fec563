"""Experiment configuration: flat key=value files with dotted keys.

Example::

    kernel.family = exact1d
    kernel.T = 1.0
    gamma2 = 0.5
    level = 6
    resolution = 1024
    replicas = 10000
    seed = 42
    alpha.mode = duality        # or: explicit (with alpha.value)
    z_min = auto                # or a positive float
    lambda.grid = 0.25,0.125,0.0625,0.03125,0.015625
    q.grid = 0.5,1.0,1.5
    u.grid = 0.25,0.5,1,2,4
    cantor.depth = 6
    s.grid = 0.3,0.4,0.5,0.6,0.7,0.8
    out = results

Lines starting with '#' are comments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


from .atomic import auto_z_min
from .chaos import xi_moment_range
from .kernels import KernelError, KernelSpec


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
    alpha_mode: str = "duality"        # duality | explicit
    alpha_value: float | None = None
    z_min: float | str = "auto"        # positive float or "auto"
    lambda_grid: tuple[float, ...] = (0.25, 0.125, 0.0625, 0.03125, 0.015625)
    q_grid: tuple[float, ...] = (0.5, 1.0, 1.5)
    u_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    scaling_lambdas: tuple[float, ...] = (0.5, 0.25, 0.125)
    scaling_radius: float = 0.25
    cantor_depth: int = 6
    s_grid: tuple[float, ...] = ()
    hill_k: int = 0                    # 0: max(replicas // 20, 50)
    out_dir: str = "gmclab-out"

    def alpha(self) -> float:
        if self.alpha_mode == "duality":
            return self.gamma2 / (2.0 * self.dimension)
        if self.alpha_value is None:
            raise ConfigError("alpha.mode=explicit requires alpha.value")
        return self.alpha_value

    def resolved_z_min(self) -> float:
        if self.z_min == "auto":
            return auto_z_min(self.alpha())
        return float(self.z_min)


_KEY_MAP = {
    "dimension": ("dimension", int),
    "kernel.family": ("kernel_family", str),
    "kernel.T": ("kernel_T", float),
    "gamma2": ("gamma2", float),
    "level": ("level", int),
    "resolution": ("resolution", int),
    "replicas": ("replicas", int),
    "seed": ("seed", int),
    "alpha.mode": ("alpha_mode", str),
    "alpha.value": ("alpha_value", float),
    "z_min": ("z_min", lambda v: v if v == "auto" else float(v)),
    "lambda.grid": ("lambda_grid", _floats),
    "q.grid": ("q_grid", _floats),
    "u.grid": ("u_grid", _floats),
    "scaling.lambdas": ("scaling_lambdas", _floats),
    "scaling.radius": ("scaling_radius", float),
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
        try:
            values[attr] = conv(val)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def validate_config(cfg: ExperimentConfig, experiment: str | None = None) -> list[str]:
    """Itemized diagnostics; empty list means the config is runnable."""
    diags = []
    if cfg.dimension not in (1, 2):
        diags.append(f"dimension must be 1 or 2, got {cfg.dimension}")
    try:
        KernelSpec(family=cfg.kernel_family, T=cfg.kernel_T, d=cfg.dimension)
    except KernelError as exc:
        diags.append(f"kernel: {exc}")
    if cfg.gamma2 < 0:
        diags.append("gamma2 must be nonnegative")
    if cfg.level < 1:
        diags.append("level must be >= 1")
    if cfg.resolution < 2:
        diags.append("resolution must be >= 2")
    if cfg.replicas < 1:
        diags.append("replicas must be >= 1")
    if cfg.alpha_mode not in ("duality", "explicit"):
        diags.append(f"alpha.mode must be duality or explicit, got {cfg.alpha_mode!r}")
    else:
        try:
            alpha = cfg.alpha()
        except ConfigError as exc:
            diags.append(str(exc))
            alpha = None
        if alpha is not None and not (0.0 < alpha < 1.0):
            diags.append(f"alpha out of (0,1): {alpha} "
                         f"(gamma2={cfg.gamma2}, d={cfg.dimension})")
    if cfg.z_min != "auto" and not (isinstance(cfg.z_min, float) and cfg.z_min > 0):
        diags.append("z_min must be 'auto' or a positive float")
    if len(cfg.lambda_grid) and (min(cfg.lambda_grid) <= 0 or max(cfg.lambda_grid) >= 1):
        diags.append("lambda grid values must lie in (0, 1)")
    q_max_m = xi_moment_range(cfg.gamma2, cfg.dimension)
    if experiment in (None, "spectrum") and any(q >= q_max_m for q in cfg.q_grid):
        diags.append(
            f"q grid exceeds the chaos moment range q < 2d/gamma2 = {q_max_m:g}"
        )
    if experiment in ("scaling", "tail", "laplace"):
        try:
            alpha = cfg.alpha()
            if experiment == "scaling" and any(q >= alpha for q in cfg.q_grid):
                diags.append(
                    f"q grid exceeds the atomic moment threshold q < alpha = {alpha:g}"
                )
        except ConfigError:
            pass
    if experiment in ("kpz", "duality"):
        if cfg.cantor_depth < 1:
            diags.append("cantor.depth must be >= 1")
        if 3**cfg.cantor_depth > cfg.resolution or cfg.resolution % 3**cfg.cantor_depth:
            diags.append(
                f"resolution must be a multiple of 3^cantor.depth = {3**cfg.cantor_depth} "
                "so covering intervals align with cell boundaries"
            )
        if len(cfg.s_grid) and len(cfg.s_grid) < 5:
            diags.append("s.grid needs at least 5 values")
    for lam in cfg.scaling_lambdas:
        if not (0 < lam < 1):
            diags.append(f"scaling lambda {lam} outside (0,1)")
    return diags

"""Run configuration: flat INI-style files with section headers.

All parameter blocks are stated in the amplitude-equation ("hatted")
convention plus a scaling epsilon; model-PDE parameters are derived through
the scaling map (epsilon = 1 makes the map the identity on mu).  Every
resolved value is exposed via items() so drivers can echo a complete
manifest.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .core import FcglParams, ModelParams, ScalingMap
from .errors import ConfigError

TWO_PI = 2.0 * math.pi

_SYSTEMS = ("fcgl", "pde")
_SEED_KINDS = ("zero", "flat", "sech-weak", "sech-strong")


@dataclass
class SystemConfig:
    kind: str = "fcgl"


@dataclass
class ParamConfig:
    mu: float = -0.5
    nu: float = 2.0
    alpha: float = 1.0
    beta: float = -2.0
    c_re: float = -1.0
    c_im: float = -2.5
    gamma: float = 1.496      # fcgl runs
    epsilon: float = 0.1      # pde runs: scaling map
    f: float = 0.058          # pde runs: forcing amplitude


@dataclass
class GridConfig:
    n: int = 0                # 0 = per-system default
    length: float = 0.0


@dataclass
class TimesteppingConfig:
    dt: float = TWO_PI / 200.0
    t_end: float = 200.0
    steady_tol: float = 1e-9
    max_periods: int = 2000


@dataclass
class ContinuationConfig:
    ds0: float = 0.01
    ds_min: float = 1e-5
    ds_max: float = 0.05
    max_points: int = 300
    param_min: float = -math.inf
    param_max: float = math.inf
    newton_tol: float = 1e-10
    classify: bool = True
    classify_stride: int = 1
    snapshot_stride: int = 0   # 0 = endpoints and folds only


@dataclass
class SeedConfig:
    kind: str = "sech-weak"
    path: str = ""             # for kind=file
    noise: float = 0.0         # relative noise amplitude added to the seed
    noise_seed: int = 0


@dataclass
class FloquetConfig:
    j_trunc: int = 16
    n_samples: int = 256
    diagnostics: bool = False


@dataclass
class SweepConfig:
    nu_min: float = 0.5
    nu_max: float = 3.0
    nu_count: int = 6
    p_min: float = 1.2
    p_max: float = 2.2
    p_count: int = 6
    t_probe: float = 300.0


@dataclass
class OutputConfig:
    norm_stride: int = 20
    snapshot_stride: int = 0   # steps between snapshot files; 0 = final only


@dataclass
class RunConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    params: ParamConfig = field(default_factory=ParamConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    timestepping: TimesteppingConfig = field(default_factory=TimesteppingConfig)
    continuation: ContinuationConfig = field(default_factory=ContinuationConfig)
    seed: SeedConfig = field(default_factory=SeedConfig)
    floquet: FloquetConfig = field(default_factory=FloquetConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def resolve_grid(self) -> None:
        if self.grid.n == 0:
            self.grid.n = 512 if self.system.kind == "fcgl" else 1280
        if self.grid.length == 0.0:
            self.grid.length = 20.0 * math.pi if self.system.kind == "fcgl" \
                else 200.0 * math.pi

    def fcgl_params(self) -> FcglParams:
        p = self.params
        return FcglParams(mu=p.mu, nu=p.nu, alpha=p.alpha, beta=p.beta,
                          c_re=p.c_re, c_im=p.c_im, gamma=p.gamma)

    def scaling(self) -> ScalingMap:
        return ScalingMap(self.params.epsilon)

    def model_params(self, f: float | None = None) -> ModelParams:
        mp = self.scaling().fcgl_to_pde(self.fcgl_params())
        return replace(mp, f=self.params.f if f is None else f)

    def items(self):
        out = []
        for sec_field in fields(self):
            section = getattr(self, sec_field.name)
            for f_ in fields(section):
                out.append((sec_field.name, f_.name, getattr(section, f_.name)))
        return out


_SECTION_TYPES = {f.name: f.default_factory for f in fields(RunConfig)}


def _convert(raw: str, kind: type, where: str):
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            value = float(raw)     # takes "inf" and "-inf"
            if math.isnan(value):
                raise ValueError(raw)
            return value
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind.__name__}") from exc


def _apply(cfg: RunConfig, section: str, key: str, raw: str) -> None:
    if section not in _SECTION_TYPES:
        raise ConfigError(f"unknown config section [{section}]")
    target = getattr(cfg, section)
    if key not in {f.name for f in fields(target)}:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    current = getattr(target, key)
    if isinstance(current, bool):
        kind = bool
    elif isinstance(current, int):
        kind = int
    elif isinstance(current, float):
        kind = float
    else:
        kind = str
    setattr(target, key, _convert(raw, kind, f"[{section}] {key}"))


def _validate(cfg: RunConfig) -> None:
    if cfg.system.kind not in _SYSTEMS:
        raise ConfigError(f"[system] kind must be one of {_SYSTEMS}")
    seed_kind = cfg.seed.kind
    if not (seed_kind in _SEED_KINDS or seed_kind == "file"):
        raise ConfigError(
            f"[seed] kind must be one of {_SEED_KINDS + ('file',)}")
    if seed_kind == "file" and not cfg.seed.path:
        raise ConfigError("[seed] kind=file requires a path")
    if cfg.seed.noise < 0:
        raise ConfigError("[seed] noise must be >= 0")
    if cfg.seed.noise_seed < 0:
        raise ConfigError("[seed] noise_seed must be >= 0")
    p = cfg.params
    if p.alpha <= 0:
        raise ConfigError("[params] alpha must be > 0")
    if p.epsilon <= 0:
        raise ConfigError("[params] epsilon must be > 0")
    if p.gamma < 0:
        raise ConfigError("[params] gamma must be >= 0")
    if p.f < 0:
        raise ConfigError("[params] f must be >= 0")
    if cfg.grid.n < 0 or cfg.grid.n % 2:
        raise ConfigError("[grid] n must be a non-negative even integer")
    if cfg.grid.length < 0:
        raise ConfigError("[grid] length must be >= 0")
    if cfg.timestepping.dt <= 0:
        raise ConfigError("[timestepping] dt must be > 0")
    if cfg.timestepping.t_end <= 0:
        raise ConfigError("[timestepping] t_end must be > 0")
    if cfg.timestepping.max_periods < 1:
        raise ConfigError("[timestepping] max_periods must be >= 1")
    c = cfg.continuation
    if not (0 < c.ds_min <= c.ds0 <= c.ds_max):
        raise ConfigError("[continuation] need 0 < ds_min <= ds0 <= ds_max")
    if c.max_points < 2:
        raise ConfigError("[continuation] max_points must be >= 2")
    if c.newton_tol <= 0:
        raise ConfigError("[continuation] newton_tol must be > 0")
    if c.classify_stride < 1:
        raise ConfigError("[continuation] classify_stride must be >= 1")
    if cfg.floquet.j_trunc < 2:
        raise ConfigError("[floquet] j_trunc must be >= 2")
    if cfg.floquet.n_samples < 1:
        raise ConfigError("[floquet] n_samples must be >= 1")
    if cfg.sweep.nu_count < 1 or cfg.sweep.p_count < 1:
        raise ConfigError("[sweep] grid counts must be >= 1")
    if cfg.sweep.t_probe < cfg.timestepping.dt:
        raise ConfigError("[sweep] t_probe must be >= timestepping.dt")
    if cfg.output.norm_stride < 1:
        raise ConfigError("[output] norm_stride must be >= 1")


def load_config(path: str | None = None, overrides: list[str] = ()) -> RunConfig:
    """Build a RunConfig from an optional file plus section.key=value overrides."""
    cfg = RunConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
    for section in parser.sections():
        for key, raw in parser.items(section):
            _apply(cfg, section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(
                f"override {item!r} must look like section.key=value")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        _apply(cfg, section.strip(), key.strip(), raw)
    _validate(cfg)
    cfg.resolve_grid()
    return cfg

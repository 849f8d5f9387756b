"""Run configuration: a flat, sectioned key=value text format.

Lines are ``[section]`` headers, ``key = value`` pairs, blank lines, or
comments starting with '#'.  Unknown sections/keys and type errors are
rejected with line-anchored messages.  After validation every defaulted
field is filled in, and :func:`render_config` emits the resolved file so
a run can be reproduced exactly from its echo.

Schema (see README for the full description):

    [problem]    kind = mechanical | dirichlet
    [potential]  builtin+params | expr (+ c_bound), dim, allow_uncertified
    [geometry]   T, q0, qT (mechanical) | lengths (dirichlet)
    [plan]       N, M, quad_points, lambda_cut, tail_tol, head_tol, refine
    [multistart] count, radius, seed, method, workers
    [output]     directory, trajectory_points, field_points
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dirichlet import RectangleDomain, dirichlet_plan
from .fourier import BoundaryProblem
from .potentials import builtin_potential, parse_potential
from .reduction import DEFAULT_MULTISTART_COUNT, DEFAULT_MULTISTART_SEED, make_plan

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config_text", "render_config"]


class ConfigError(ValueError):
    """Configuration problem, anchored to a source line when available."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


_SCHEMA = {
    "problem": ("kind",),
    "potential": ("builtin", "params", "expr", "c_bound", "dim", "allow_uncertified"),
    "geometry": ("T", "q0", "qT", "lengths"),
    "plan": ("N", "M", "quad_points", "lambda_cut", "tail_tol", "head_tol", "refine"),
    "multistart": ("count", "radius", "seed", "method", "workers"),
    "output": ("directory", "trajectory_points", "field_points"),
}


def parse_config_text(text: str) -> dict:
    """Raw sections -> {key: (value, line_number)}; schema-checked."""
    sections: dict = {}
    current_name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()  # '#' starts a comment anywhere
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {line!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", lineno)
            current_name = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current_name is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA[current_name]:
            raise ConfigError(f"unknown key {key!r} in [{current_name}]", lineno)
        sections[current_name][key] = (value.strip(), lineno)
    return sections


def _get(sections, section, key, default=None):
    return sections.get(section, {}).get(key, (default, None))


def _parse_float(value, line, key):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a real number, got {value!r}", line)


def _parse_int(value, line, key):
    try:
        return int(value, 0) if isinstance(value, str) else int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {value!r}", line)


def _parse_bool(value, line, key):
    if isinstance(value, str) and value.lower() in ("true", "yes", "1", "on"):
        return True
    if isinstance(value, str) and value.lower() in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key} must be true or false, got {value!r}", line)


def _parse_vector(value, line, key):
    try:
        return tuple(float(p) for p in str(value).split(","))
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of reals, got {value!r}", line)


@dataclass
class RunConfig:
    """Validated configuration with every default resolved."""

    kind: str = "mechanical"
    # potential
    builtin: str | None = None
    params: tuple = ()
    expr: str | None = None
    c_bound: float | None = None
    dim: int = 1
    allow_uncertified: bool = False
    # geometry
    T: float = 1.0
    q0: tuple = (0.0,)
    qT: tuple = (0.0,)
    lengths: tuple = (1.0,)
    # plan overrides (None = default)
    N: int | None = None
    M: int | None = None
    quad_points: int | None = None
    lambda_cut: float | None = None
    tail_tol: float = 1e-10
    head_tol: float = 1e-9
    refine: bool = True
    # multistart
    count: int = DEFAULT_MULTISTART_COUNT
    radius: float | None = None
    seed: int = DEFAULT_MULTISTART_SEED
    method: str = "newton"
    workers: int = 1
    # output
    directory: str = "out"
    trajectory_points: int = 512
    field_points: int = 65

    def potential(self):
        if self.expr is not None:
            return parse_potential(self.expr, self.dim, self.c_bound)
        return builtin_potential(self.builtin or "zero", self.params, dim=self.dim)

    def boundary_problem(self) -> BoundaryProblem:
        return BoundaryProblem(self.potential(), self.T, np.array(self.q0), np.array(self.qT))

    def domain(self) -> RectangleDomain:
        return RectangleDomain(self.lengths)

    def build_plan(self):
        if self.kind == "mechanical":
            return make_plan(self.boundary_problem(), N=self.N, M=self.M,
                             quad_points=self.quad_points, tail_tol=self.tail_tol,
                             head_tol=self.head_tol, allow_uncertified=self.allow_uncertified)
        return dirichlet_plan(self.domain(), self.potential(), N=self.N,
                              lambda_cut=self.lambda_cut, tail_tol=self.tail_tol,
                              head_tol=self.head_tol, allow_uncertified=self.allow_uncertified)


def load_config(text: str) -> RunConfig:
    """Parse, type-check and resolve a configuration file."""
    sections = parse_config_text(text)
    cfg = RunConfig()

    value, line = _get(sections, "problem", "kind", "mechanical")
    if value not in ("mechanical", "dirichlet"):
        raise ConfigError(f"kind must be 'mechanical' or 'dirichlet', got {value!r}", line)
    cfg.kind = value

    value, line = _get(sections, "potential", "builtin")
    cfg.builtin = value
    value, line = _get(sections, "potential", "params")
    if value is not None:
        cfg.params = _parse_vector(value, line, "params")
    value, line = _get(sections, "potential", "expr")
    cfg.expr = value
    if cfg.builtin is not None and cfg.expr is not None:
        raise ConfigError("give either 'builtin' or 'expr', not both", line)
    if cfg.builtin is None and cfg.expr is None:
        raise ConfigError("section [potential] needs 'builtin' or 'expr'", None)
    value, line = _get(sections, "potential", "c_bound")
    if value is not None:
        cfg.c_bound = _parse_float(value, line, "c_bound")
    value, line = _get(sections, "potential", "dim")
    if value is not None:
        cfg.dim = _parse_int(value, line, "dim")
        if cfg.dim < 1:
            raise ConfigError(f"dim must be positive, got {cfg.dim}", line)
    value, line = _get(sections, "potential", "allow_uncertified")
    if value is not None:
        cfg.allow_uncertified = _parse_bool(value, line, "allow_uncertified")

    if cfg.kind == "mechanical":
        value, line = _get(sections, "geometry", "T")
        if value is None:
            raise ConfigError("mechanical problems need geometry key 'T'", None)
        cfg.T = _parse_float(value, line, "T")
        if cfg.T <= 0 or not math.isfinite(cfg.T):
            raise ConfigError(f"T must be a positive real, got {cfg.T}", line)
        value, line = _get(sections, "geometry", "q0", "0")
        cfg.q0 = _parse_vector(value, line, "q0")
        value, line = _get(sections, "geometry", "qT", "0")
        cfg.qT = _parse_vector(value, line, "qT")
        if len(cfg.q0) == 1 and cfg.dim > 1:
            cfg.q0 = cfg.q0 * cfg.dim
        if len(cfg.qT) == 1 and cfg.dim > 1:
            cfg.qT = cfg.qT * cfg.dim
        if len(cfg.q0) != cfg.dim or len(cfg.qT) != cfg.dim:
            raise ConfigError(
                f"endpoints must have dim = {cfg.dim} entries, got {len(cfg.q0)} and {len(cfg.qT)}", line)
    else:
        value, line = _get(sections, "geometry", "lengths")
        if value is None:
            raise ConfigError("dirichlet problems need geometry key 'lengths'", None)
        cfg.lengths = _parse_vector(value, line, "lengths")
        if len(cfg.lengths) not in (1, 2) or any(L <= 0 for L in cfg.lengths):
            raise ConfigError(f"lengths must be 1 or 2 positive reals, got {cfg.lengths}", line)
        if cfg.dim != 1:
            raise ConfigError("dirichlet problems take scalar potentials (dim = 1)", line)

    for key, parser, attr in (
        ("N", _parse_int, "N"), ("M", _parse_int, "M"),
        ("quad_points", _parse_int, "quad_points"),
        ("lambda_cut", _parse_float, "lambda_cut"),
        ("tail_tol", _parse_float, "tail_tol"), ("head_tol", _parse_float, "head_tol"),
    ):
        value, line = _get(sections, "plan", key)
        if value is not None:
            setattr(cfg, attr, parser(value, line, key))
    value, line = _get(sections, "plan", "refine")
    if value is not None:
        cfg.refine = _parse_bool(value, line, "refine")

    value, line = _get(sections, "multistart", "count")
    if value is not None:
        cfg.count = _parse_int(value, line, "count")
        if cfg.count < 1:
            raise ConfigError(f"count must be positive, got {cfg.count}", line)
    value, line = _get(sections, "multistart", "radius")
    if value is not None:
        cfg.radius = _parse_float(value, line, "radius")
        if not (math.isfinite(cfg.radius) and cfg.radius > 0):
            raise ConfigError(f"radius must be a positive real, got {cfg.radius}", line)
    value, line = _get(sections, "multistart", "seed")
    if value is not None:
        cfg.seed = _parse_int(value, line, "seed")
    value, line = _get(sections, "multistart", "method")
    if value is not None:
        if value not in ("newton", "picard"):
            raise ConfigError(f"method must be 'newton' or 'picard', got {value!r}", line)
        cfg.method = value
    value, line = _get(sections, "multistart", "workers")
    if value is not None:
        cfg.workers = _parse_int(value, line, "workers")

    value, line = _get(sections, "output", "directory")
    if value is not None:
        cfg.directory = value
    for key in ("trajectory_points", "field_points"):
        value, line = _get(sections, "output", key)
        if value is not None:
            points = _parse_int(value, line, key)
            if points < 2:
                raise ConfigError(f"{key} must be at least 2, got {points}", line)
            setattr(cfg, key, points)

    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ", ".join(format(v, ".17g") for v in value)
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """Resolved-configuration echo; reloading it reproduces the run."""
    lines = ["[problem]", f"kind = {cfg.kind}", "", "[potential]"]
    if cfg.expr is not None:
        lines.append(f"expr = {cfg.expr}")
        if cfg.c_bound is not None:
            lines.append(f"c_bound = {_fmt(cfg.c_bound)}")
    else:
        lines.append(f"builtin = {cfg.builtin}")
        if cfg.params:
            lines.append(f"params = {_fmt(cfg.params)}")
    lines.append(f"dim = {cfg.dim}")
    lines.append(f"allow_uncertified = {_fmt(cfg.allow_uncertified)}")
    lines.append("")
    lines.append("[geometry]")
    if cfg.kind == "mechanical":
        lines.append(f"T = {_fmt(cfg.T)}")
        lines.append(f"q0 = {_fmt(cfg.q0)}")
        lines.append(f"qT = {_fmt(cfg.qT)}")
    else:
        lines.append(f"lengths = {_fmt(cfg.lengths)}")
    lines.append("")
    lines.append("[plan]")
    for key in ("N", "M", "quad_points", "lambda_cut"):
        value = getattr(cfg, key)
        if value is not None:
            lines.append(f"{key} = {_fmt(value)}")
    lines.append(f"tail_tol = {_fmt(cfg.tail_tol)}")
    lines.append(f"head_tol = {_fmt(cfg.head_tol)}")
    lines.append(f"refine = {_fmt(cfg.refine)}")
    lines.append("")
    lines.append("[multistart]")
    lines.append(f"count = {cfg.count}")
    if cfg.radius is not None:
        lines.append(f"radius = {_fmt(cfg.radius)}")
    lines.append(f"seed = 0x{cfg.seed:X}")
    lines.append(f"method = {cfg.method}")
    lines.append(f"workers = {cfg.workers}")
    lines.append("")
    lines.append("[output]")
    lines.append(f"directory = {cfg.directory}")
    lines.append(f"trajectory_points = {cfg.trajectory_points}")
    lines.append(f"field_points = {cfg.field_points}")
    lines.append("")
    return "\n".join(lines)

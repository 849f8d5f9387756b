"""Run configuration: a flat, sectioned key=value text format.

Lines are ``[section]`` headers, ``key = value`` pairs, blank lines, or
comments starting with '#'.  A key appears once in its section, even when
the section's header is repeated.  The fields of :class:`RunConfig` are the
one statement of the format: each is a key, with its section, parser,
default and, for a key that one problem kind or potential form reads
only, that kind in its metadata.  ``_SCHEMA`` (section -> key -> parser)
and ``_ONLY_FOR`` are derived from them.  Loading is one loop over that
table, followed by the rules that tie keys together; the echo
(:func:`render_config`) walks the same table, so a run can be reproduced
exactly from it.  Overrides (the CLI's ``--out``, ``--seeds``, ...) are
text for a ``(section, key)`` and go through the same parsers and checks
as file keys.  Unknown sections/keys, type errors and rule violations
are rejected with line-anchored messages.  The README describes each key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import MODE_CAP
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


# A parser takes the value text and returns the typed value, or raises
# ValueError("<rule>, got <value>"); the loader prefixes the key and line.

def typed(convert, rule: str):
    def parse(text: str):
        try:
            return convert(text)
        except (KeyError, ValueError):
            raise ValueError(f"{rule}, got {text!r}") from None
    return parse


def checked(parse, ok, rule: str):
    def parse_checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"{rule}, got {value}")
        return value
    return parse_checked


def choice(*options: str):
    return typed(dict(zip(options, options)).__getitem__,
                 f"must be {' or '.join(map(repr, options))}")


_BOOLEANS = dict.fromkeys(("true", "yes", "1", "on"), True) | \
    dict.fromkeys(("false", "no", "0", "off"), False)

real = typed(float, "must be a real number")
integer = typed(lambda text: int(text, 0), "must be an integer")
boolean = typed(lambda text: _BOOLEANS[text.lower()], "must be true or false")
vector = typed(lambda text: tuple(map(float, text.split(","))),
               "must be a comma-separated list of reals")
positive_real = checked(real, lambda x: math.isfinite(x) and x > 0, "must be a positive real")
positive_int = checked(integer, lambda n: n >= 1, "must be positive")
# no plan holds more than MODE_CAP coefficients, so no larger dimension plans
dimension = checked(integer, lambda n: 1 <= n <= MODE_CAP, f"must be from 1 to {MODE_CAP}")
points = checked(integer, lambda n: n >= 2, "must be at least 2")
nonnegative_real = checked(real, lambda x: math.isfinite(x) and x >= 0,
                           "must be finite and nonnegative")
nonnegative_int = checked(integer, lambda n: n >= 0, "must be at least 0")


def setting(section: str, parse, default, only: str | None = None):
    """One config key: its [section], its parser and its default; ``only`` names
    the problem kind or potential form that reads it, and the echo leaves
    it out for the other one."""
    return field(default=default, metadata={"section": section, "parse": parse, "only": only})


@dataclass
class RunConfig:
    """Validated configuration with every default resolved; each field is
    one key of the file, in echo order (see ``setting``)."""

    kind: str = setting("problem", choice("mechanical", "dirichlet"), "mechanical")
    builtin: str | None = setting("potential", str, None)
    params: tuple = setting("potential", vector, (), only="builtin")
    expr: str | None = setting("potential", str, None)
    c_bound: float | None = setting("potential", nonnegative_real, None, only="expr")
    dim: int = setting("potential", dimension, 1)
    allow_uncertified: bool = setting("potential", boolean, False)
    T: float = setting("geometry", positive_real, 1.0, only="mechanical")
    q0: tuple = setting("geometry", vector, (0.0,), only="mechanical")
    qT: tuple = setting("geometry", vector, (0.0,), only="mechanical")
    lengths: tuple = setting("geometry", vector, (1.0,), only="dirichlet")
    # plan overrides (None = default)
    N: int | None = setting("plan", integer, None)
    M: int | None = setting("plan", integer, None)
    quad_points: int | None = setting("plan", integer, None)
    lambda_cut: float | None = setting("plan", positive_real, None)
    tail_tol: float = setting("plan", positive_real, 1e-10)
    head_tol: float = setting("plan", positive_real, 1e-9)
    refine: bool = setting("plan", boolean, True)
    count: int = setting("multistart", positive_int, DEFAULT_MULTISTART_COUNT)
    radius: float | None = setting("multistart", positive_real, None)
    seed: int = setting("multistart", nonnegative_int, DEFAULT_MULTISTART_SEED)
    method: str = setting("multistart", choice("newton", "picard"), "newton")
    directory: str = setting("output", str, "out")
    trajectory_points: int = setting("output", points, 512)
    field_points: int = setting("output", points, 65)

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


# section -> key -> parser, in field order; the keys one kind or form reads only
_SCHEMA: dict = {}
for _key in fields(RunConfig):
    _SCHEMA.setdefault(_key.metadata["section"], {})[_key.name] = _key.metadata["parse"]
_ONLY_FOR = {f.name: f.metadata["only"] for f in fields(RunConfig) if f.metadata["only"]}


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
        if key in sections[current_name]:
            raise ConfigError(f"key {key!r} in [{current_name}] is also given on line "
                              f"{sections[current_name][key][1]}", lineno)
        sections[current_name][key] = (value.strip(), lineno)
    return sections



def load_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse, check and resolve a configuration file.

    ``overrides`` maps ``(section, key)`` to value text; it replaces the
    file's value and is parsed and checked like it, without a line number.
    """
    sections = parse_config_text(text)
    for (section, key), value in (overrides or {}).items():
        if key not in _SCHEMA.get(section, {}):
            raise ConfigError(f"unknown key {key!r} in [{section}]")
        sections.setdefault(section, {})[key] = (value, None)

    cfg = RunConfig()
    given: dict = {}  # key -> source line (None for an override)
    for section, parsers in _SCHEMA.items():
        for key, parse in parsers.items():
            if key in sections.get(section, {}):
                value, given[key] = sections[section][key]
                try:
                    setattr(cfg, key, parse(value))
                except ValueError as exc:
                    raise ConfigError(f"{key} {exc}", given[key]) from None

    if cfg.builtin is not None and cfg.expr is not None:
        raise ConfigError("give either 'builtin' or 'expr', not both", given["expr"])
    if cfg.builtin is None and cfg.expr is None:
        raise ConfigError("section [potential] needs 'builtin' or 'expr'")
    if cfg.kind == "mechanical":
        if "T" not in given:
            raise ConfigError("mechanical problems need geometry key 'T'")
        cfg.q0, cfg.qT = (q * cfg.dim if len(q) == 1 else q for q in (cfg.q0, cfg.qT))
        if len(cfg.q0) != cfg.dim or len(cfg.qT) != cfg.dim:
            raise ConfigError(f"endpoints must have dim = {cfg.dim} entries, "
                              f"got {len(cfg.q0)} and {len(cfg.qT)}", given.get("qT"))
    else:
        if "lengths" not in given:
            raise ConfigError("dirichlet problems need geometry key 'lengths'")
        if len(cfg.lengths) not in (1, 2) or not all(
                math.isfinite(L) and L > 0 for L in cfg.lengths):
            raise ConfigError(f"lengths must be 1 or 2 positive reals, got {cfg.lengths}",
                              given["lengths"])
        if cfg.dim != 1:
            raise ConfigError("dirichlet problems take scalar potentials (dim = 1)",
                              given["dim"])
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
    kinds = (cfg.kind, "builtin" if cfg.expr is None else "expr")
    lines = []
    for section, parsers in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key in parsers:
            value = getattr(cfg, key)
            if value is None or value == () or _ONLY_FOR.get(key, cfg.kind) not in kinds:
                continue
            lines.append(f"{key} = 0x{value:X}" if key == "seed" else f"{key} = {_fmt(value)}")
        lines.append("")
    return "\n".join(lines)

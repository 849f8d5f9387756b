"""No input ends in a traceback or a hang: a property test of the command line.

Configs are drawn from the ``RunConfig`` field table, each key's text from
edge values for its parser (0, +-tiny, +-huge, and nan/inf where the parser
takes them).  ``plan`` and ``weyl`` run on the drawn values; ``solve`` and
``index`` run in-process with at most two seeds, no refinement and only
small truncation overrides, on plans small enough to solve at once.  An
alarm of ALARM_S seconds per command turns a hang into a failure.  Every
command must return 0, 1 or 2 (or leave through argparse's SystemExit),
and a ``plan``, ``solve`` or ``weyl`` that returns 1 prints one ``error:``
line.  The inputs once found to hang or overflow (``FOUND``) are explicit
examples, and each must end in one error line within a second.  The CI
runs this file again under the "ci" profile of ``tests/conftest.py``,
with more examples.
"""

import io
import signal
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from math import prod

import pytest
from hypothesis import HealthCheck, Phase, example, given, seed, settings
from hypothesis import strategies as st

from finred import config
from finred.cli import main
from finred.config import RunConfig, load_config
from finred.exprparse import FUNCTIONS
from finred.potentials import BUILTIN_FAMILIES

ALARM_S = 2.0
SMALL_PLAN = 96  # the most coefficients of a plan that is solved

# a value text is a plain value twice as often as an edge value
EDGE_REALS = ("0", "-0", "-1", "1e-300", "-1e-300", "5e-324", "1e300", "-1e300",
              "1.7976931348623157e308", "nan", "inf", "-inf")
EDGE_INTS = ("0", "-1", "100000", "100001", "-100000", "1000000000000", "10" + "0" * 400)
NUMBERS = ("0.5", "2", "20", "56.49", "1e-300", "1e300")  # literals of an expression

PLAIN_REALS = st.sampled_from(("0.5", "1", "2", "3.7", "20"))
PLAIN_INTS = st.sampled_from(("1", "2", "3", "8", "0x10"))
real_text = PLAIN_REALS | PLAIN_REALS | st.sampled_from(EDGE_REALS)
int_text = PLAIN_INTS | PLAIN_INTS | st.sampled_from(EDGE_INTS)
vector_text = st.lists(real_text, min_size=1, max_size=4).map(", ".join)
expr_text = st.recursive(
    st.sampled_from(("q1", "q2") + NUMBERS),
    lambda inner: st.one_of(
        st.builds("-{}".format, inner),
        st.builds("{}{}{}".format, inner, st.sampled_from(" + | - | * | / |^".split("|")), inner),
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), inner),
        st.builds("({})".format, inner)),
    max_leaves=5)

# each parser of the field table, and the edge texts drawn for it
TEXT_OF_PARSER = {
    config.real: real_text, config.positive_real: real_text,
    config.nonnegative_real: real_text,
    config.integer: int_text, config.positive_int: int_text, config.dimension: int_text,
    config.nonnegative_int: int_text, config.points: int_text,
    config.boolean: st.sampled_from(("true", "false", "true", "false", "maybe")),
    config.vector: vector_text,
}
# the keys whose parser is a choice or plain text
TEXT_OF_KEY = {
    "kind": st.sampled_from(("mechanical", "dirichlet")),
    "method": st.sampled_from(("newton", "picard", "secant")),
    "builtin": st.sampled_from(BUILTIN_FAMILIES + ("spring",)),
    "expr": expr_text,
    "directory": st.just("out"),
}
# small truncation overrides for the runs that solve
SMALL_TEXT = {"N": st.sampled_from(("0", "1", "2")), "M": st.sampled_from(("8", "16")),
              "quad_points": st.sampled_from(("33", "64")),
              "lambda_cut": st.sampled_from(("100", "500"))}

FIELDS = {key.name: key for key in fields(RunConfig)}


def key_text(name: str):
    """The texts drawn for a key: its own, else its parser's (a new parser needs an entry)."""
    parse = FIELDS[name].metadata["parse"]
    return TEXT_OF_KEY[name] if name in TEXT_OF_KEY else TEXT_OF_PARSER[parse]


# a builtin family's parameters, unless they are drawn
FAMILY_PARAMS = {"zero": "", "pendulum": "1", "harmonic": "1.5", "coupled_pendula": "1, 0.5"}


@st.composite
def drawn_config(draw):
    """{key: value text} over the field table: each key is drawn with
    probability 1/8.  The problem kind, its geometry key and one potential
    form are always given: a builtin with its parameters, or an expression
    with a bound (an uncertified one allowed unless drawn otherwise)."""
    keys = {name: draw(key_text(name)) for name in FIELDS if draw(st.integers(0, 7)) == 0}
    keys["kind"] = draw(key_text("kind"))
    geometry = "T" if keys["kind"] == "mechanical" else "lengths"
    keys.setdefault(geometry, draw(key_text(geometry)))
    if draw(st.booleans()):
        for name in ("expr", "c_bound"):
            keys.pop(name, None)
        family = keys.setdefault("builtin", draw(key_text("builtin")))
        if FAMILY_PARAMS.get(family):
            keys.setdefault("params", FAMILY_PARAMS[family])
    else:
        for name in ("builtin", "params"):
            keys.pop(name, None)
        for name in ("expr", "c_bound"):
            keys.setdefault(name, draw(key_text(name)))
        keys.setdefault("allow_uncertified", "true")
    return keys


def config_text(keys: dict) -> str:
    sections = {}
    for name, key in FIELDS.items():
        if name in keys:
            sections.setdefault(key.metadata["section"], []).append(f"{name} = {keys[name]}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


class Hang(BaseException):
    """A command ran past its alarm (a BaseException, so that no handler of
    the program takes it for an error of its own)."""


def run(*argv, alarm_s: float = ALARM_S) -> tuple[int, str]:
    """main(argv) under the alarm: its exit code and its stderr."""
    def alarm(signum, frame):
        raise Hang(f"finred {' '.join(argv)} ran past {alarm_s} s")

    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, alarm_s)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's exit
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code, err.getvalue()


def error_lines(err: str) -> int:
    return sum(line.startswith("error: ") for line in err.splitlines())


def run_clean(*argv) -> int:
    """``run`` for plan, solve and weyl: an exit code 1 comes with one error line."""
    code, err = run(*argv)
    assert code != 1 or error_lines(err) == 1, (argv, err)
    return code


def small(text: str) -> bool:
    """Whether the plan of a config is small enough to solve within the alarm."""
    cfg = load_config(text)
    plan = cfg.build_plan()
    if cfg.kind == "dirichlet":
        return len(plan.modes) <= SMALL_PLAN and prod(plan.grid_shape) <= SMALL_PLAN ** 2
    return plan.M * cfg.dim <= SMALL_PLAN and plan.quad_points <= 4 * SMALL_PLAN


# inputs that ended in a hang (the first three) or an OverflowError, with the
# command that met them: each is now one error line and exit code 1
FOUND = [
    ("plan", {"expr": "1e-301*cos(q1)", "c_bound": "1e-300", "allow_uncertified": "true",
              "T": "1e300"}),
    ("plan", {"builtin": "zero", "T": "1e12"}),
    ("plan", {"builtin": "zero", "T": "1e300"}),
    ("plan", {"builtin": "pendulum", "params": "1", "T": "1e-300"}),
    ("plan", {"builtin": "pendulum", "params": "1", "T": "5e-153"}),  # at mode M, not 1
    ("plan", {"kind": "dirichlet", "expr": "-20*cos(q1)", "c_bound": "20",
              "lengths": "1e-300, 1"}),
    ("weyl", {"kind": "dirichlet", "expr": "-20*cos(q1)", "c_bound": "20",
              "lengths": "1e-300"}),
]


@pytest.mark.parametrize("command, keys", FOUND)
def test_a_found_input_ends_in_one_error_line_within_a_second(tmp_path, command, keys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(keys), encoding="utf-8")
    code, err = run(command, "--config", str(cfg), alarm_s=1.0)
    assert code == 1 and error_lines(err) == 1, err


def found_examples(test):
    for _, keys in reversed(FOUND):
        test = example(keys=keys, c_values="100", small_keys={}, count="1")(test)
    return test


@seed(20261021)
# no explain phase: its line tracing slows a command past the alarm while shrinking
@settings(deadline=None, database=None, phases=set(Phase) - {Phase.explain},
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(keys=drawn_config(), c_values=st.lists(real_text, min_size=1, max_size=3).map(",".join),
       small_keys=st.fixed_dictionaries(SMALL_TEXT), count=st.sampled_from(("1", "2")))
@found_examples
def test_no_input_ends_in_a_traceback_or_a_hang(tmp_path_factory, keys, c_values, small_keys,
                                                count):
    directory = tmp_path_factory.mktemp("fuzz")
    cfg = directory / "run.cfg"
    cfg.write_text(config_text(keys), encoding="utf-8")
    run_clean("plan", "--config", str(cfg))
    run_clean("weyl", "--config", str(cfg), f"--c-values={c_values}")

    # the same problem solved: few seeds, no refinement, small overrides only
    keys = keys | {"count": count, "refine": "false"} | {
        name: text for name, text in small_keys.items() if name in keys}
    cfg.write_text(config_text(keys), encoding="utf-8")
    if run_clean("plan", "--config", str(cfg)) != 0 or not small(config_text(keys)):
        return
    out = str(directory / "out")
    if run_clean("solve", "--config", str(cfg), "--out", out) == 0:
        run("index", "--config", str(cfg), "--out", out, "0")

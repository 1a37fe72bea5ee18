"""Seeded fuzzing of spec and CLI input: a bad value fails by name.

Every field of every spec section gets a fixed pool of bad values —
None, bools, strings, NaN, ±inf, negatives, lists and dicts, plus a few
drawn from a seeded ``random.Random`` — through three doors:
:meth:`ExperimentSpec.from_dict`, :meth:`ExperimentSpec.with_value`
(the door the sweep axes use) and each experiment flag of
:func:`repro.cli.main`.  A value the field takes by its type alone (None
for an optional field, a bool for a bool field, no options at all for
``design.solver_opts``) must parse; every other one must fail with a
``ValueError`` — a clean ``SystemExit`` on the command line — whose
message names the dotted field or the flag.  Never a ``TypeError`` or a
traceback.  Only specs are parsed: no stage runs.
"""

from __future__ import annotations

import dataclasses
import math
import random
import string
import typing

import pytest

import repro.exp as exp
from repro.cli import COMMANDS, SPEC_FLAGS, main
from repro.exp import ExperimentSpec

#: The fuzzer's seed: every run draws the same values.
SEED = 31


def _drawn(rng: random.Random) -> tuple[list, list]:
    """Bad spec values of each kind, and bad command-line spellings,
    drawn from ``rng``."""
    word = "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(3, 12)))
    negative = -rng.uniform(1e-6, 1e6)
    values = [
        word,
        -rng.randint(1, 10**6),
        negative,
        [rng.uniform(2.0, 1e3)],
        {word.lower(): rng.random()},
    ]
    return values, [word, repr(negative)]


DRAWN_VALUES, DRAWN_ARGS = _drawn(random.Random(SEED))

BAD_VALUES = [
    None, True, False, "", "x", math.nan, math.inf, -math.inf, -1, -0.5,
    [], [None], ["x"], [0.5, "a"], {}, {"opt": 1}, *DRAWN_VALUES,
]

#: Command-line spellings that no experiment flag accepts.
BAD_ARGS = ["", "x", "nan", "inf", "-inf", "-1", "1e999", *DRAWN_ARGS]


def _section_classes() -> dict[str, type]:
    """Spec section name -> its dataclass, read off ``ExperimentSpec``."""
    out = {}
    for name, hint in typing.get_type_hints(ExperimentSpec).items():
        for cls in typing.get_args(hint) or (hint,):
            if dataclasses.is_dataclass(cls):
                out[name] = cls
    return out


SECTIONS = _section_classes()
FIELDS = [
    (section, f.name) for section, cls in SECTIONS.items()
    for f in dataclasses.fields(cls)
]


def _takes(section: str, name: str, value) -> bool:
    """Whether the field takes ``value`` by its type alone."""
    hint = typing.get_type_hints(SECTIONS[section])[name]
    if value is None:
        return type(None) in typing.get_args(hint)
    if isinstance(value, bool):
        return hint is bool
    if name == "solver_opts":
        return value in ([], {})
    return False


def _check_door(section: str, name: str, parse) -> None:
    """``parse(value)`` takes the right values and names the field."""
    path = f"{section}.{name}"
    for value in BAD_VALUES:
        if _takes(section, name, value):
            parse(value)
            continue
        with pytest.raises(ValueError) as info:
            parse(value)
        assert path in str(info.value), (value, str(info.value))


@pytest.mark.parametrize("section,name", FIELDS, ids=[".".join(f) for f in FIELDS])
def test_from_dict_names_the_field(section, name):
    _check_door(
        section, name,
        lambda value: ExperimentSpec.from_dict({section: {name: value}}),
    )


@pytest.mark.parametrize("section,name", FIELDS, ids=[".".join(f) for f in FIELDS])
def test_with_value_names_the_field(section, name):
    base = ExperimentSpec.from_dict({s: {} for s in SECTIONS})
    _check_door(
        section, name, lambda value: base.with_value(f"{section}.{name}", value)
    )


@pytest.fixture
def no_runs(monkeypatch):
    """Fail the test if a bad value gets as far as running anything."""

    def reached(*args, **kwargs):
        raise AssertionError("a bad flag value reached a run")

    monkeypatch.setattr(exp, "run_experiment", reached)
    monkeypatch.setattr(exp, "SweepService", reached)


FLAG_CASES = [
    (command, flag) for command, (flags, _) in COMMANDS.items() for flag in flags
]


@pytest.mark.parametrize("command,flag", FLAG_CASES, ids=" ".join)
def test_every_experiment_flag_names_itself_or_its_field(
    command, flag, no_runs, capsys
):
    path = SPEC_FLAGS[flag][0]
    for value in BAD_ARGS:
        with pytest.raises(SystemExit) as info:
            main([command, f"{flag}={value}", "--no-cache"])
        code = info.value.code
        # argparse exits 2 after printing its message to stderr; the
        # spec's ValueError becomes the exit message itself.
        message = capsys.readouterr().err if code == 2 else str(code)
        assert flag in message or path in message, (value, message)

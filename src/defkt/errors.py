"""Exception types shared across the package, and the rules that settings keep.

The CLI maps ConfigurationError to exit code 1 and every other
DefktError (LoadError, NumericalError) to exit code 2.
"""

import math
from typing import Any, Callable, NamedTuple


class DefktError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(DefktError):
    """Invalid configuration: bad shapes, inconsistent settings, data too small for a setting."""


class LoadError(DefktError):
    """A data, model or output file could not be read or written; the message names the file."""


class NumericalError(DefktError):
    """A non-finite value appeared during training; the run aborts."""


class Rule(NamedTuple):
    """What a setting accepts, and the text its rejection quotes; `each` holds it for every item of a list."""

    holds: Callable[[Any], bool]
    text: str
    each: bool = False


def check(name: str, value, rule: Rule) -> None:
    """Raise ConfigurationError `{name}: {rule text}, got {value}` unless `value` keeps `rule`."""
    for item in value if rule.each else (value,):
        if not rule.holds(item):  # a tuple is shown as the list it was written as
            raise ConfigurationError(f"{name}: {rule.text}, got {list(item) if isinstance(item, tuple) else item!r}")


def at_least(least: int, text: str = "") -> Rule:
    return Rule(lambda value: value >= least, text or f"must be at least {least}")


def one_of(names: tuple) -> Rule:
    return Rule(lambda value: value in names, f"must be one of {names}")


NONNEGATIVE_FINITE = Rule(lambda value: 0 <= value < math.inf, "must be nonnegative and finite")
UNIT_INTERVAL = Rule(lambda value: 0 <= value < 1, "must lie in [0, 1)")
SEED = Rule(lambda value: 0 <= value < 2**64, "must lie in [0, 2**64)")  # derive_seed reduces keys mod 2**64

"""Semantic exception hierarchy shared across the package.

Each class carries the exit code with which the command line reports it;
:func:`check_range` is the one check of an integer bound, and
:func:`check_float` the one check of a float argument.
"""

import math
import numbers


class NefqvfError(Exception):
    """Base error for this package; ``exit_code`` is its CLI exit code, 2."""

    exit_code = 2


class DomainError(NefqvfError, ValueError):
    """An argument lies outside its documented range: a mean outside its
    domain, an integer or a float outside its bounds, or a value a route does
    not take.  Exit code 2."""


class CapExceededError(NefqvfError):
    """A computation would exceed its documented work bound.  Exit code 3."""

    exit_code = 3


class NumericInstabilityError(NefqvfError, FloatingPointError):
    """A result leaves the float range or is not a number, or a verified
    numerical identity failed beyond tolerance.  Exit code 4."""

    exit_code = 4


class ConfigError(NefqvfError, ValueError):
    """A CLI/config input failed validation; the message names the offending
    key.  Exit code 2."""


def check_range(name: str, value: int, lo: int, hi: int | None = None) -> None:
    """Raise DomainError unless lo <= value, and value <= hi when hi is given;
    the message names the argument, its range and the value."""
    if not lo <= value <= (value if hi is None else hi):  # NaN fails too
        rule = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise DomainError(f"{name} must be {rule}, got {value}")


def check_float(name: str, value: float | None, lo: float = -math.inf,
                closed: bool = False, owner: str | None = None) -> None:
    """Raise DomainError unless value is a finite real number, not a bool,
    and > lo (>= lo when closed); NaN, None, a string and a complex fail
    too.  The message reads ``need finite lambda, got nan``, ``need finite lambda >= 0,
    got inf`` or, with an owner, ``heavy noise needs finite alpha > 1, got
    None``; a string value is quoted (``got '2'``)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (lo <= value if closed else lo < value) and value < math.inf):
        rule = f"finite {name}" + ("" if lo == -math.inf else f" {'>=' if closed else '>'} {lo}")
        got = repr(value) if isinstance(value, str) else value
        raise DomainError(f"{f'{owner} needs' if owner else 'need'} {rule}, got {got}")

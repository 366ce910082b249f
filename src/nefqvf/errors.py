"""Semantic exception hierarchy shared across the package."""


class NefqvfError(Exception):
    """Base error for this package."""


class DomainError(NefqvfError, ValueError):
    """An argument lies outside the valid mean/natural-parameter domain."""


class CapExceededError(NefqvfError):
    """A computation would exceed its documented work bound."""


class NumericInstabilityError(NefqvfError, FloatingPointError):
    """A verified numerical identity failed beyond tolerance."""


class ConfigError(NefqvfError, ValueError):
    """A CLI/config input failed validation; the message names the offending key."""

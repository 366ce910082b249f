"""The six basic mean-parametrized exponential families with quadratic variance.

Each family is a natural exponential family whose variance, written as a
function of the mean, is a quadratic ``V(mu) = v0 + v1*mu + v2*mu**2``:

====================  =====================  ==================  ==========
family                base measure           V(mu)               v2
====================  =====================  ==================  ==========
gaussian (sigma2)     N(0, sigma2)           sigma2              0
poisson               Poisson(1)             mu                  0
gamma (shape alpha)   Gamma(alpha, 1)        mu^2 / alpha        1/alpha
binomial (m trials)   Binomial(m, 1/2)       -mu^2/m + mu        -1/m
negbinomial (m)       NegBinomial(m, 1/2)    mu^2/m + mu         1/m
sech                  (1/2) sech(pi x / 2)   mu^2 + 1            1
====================  =====================  ==================  ==========

Each row is one ``_KINDS`` record: tag parameter, ``(v0, v1, v2)``, mean
domain and an exact sampler.  Every computation reads a family through its
mean parametrization and V(mu) alone; the natural parameter theta and the
cumulant psi live on only as test oracles.  The "sech" row is the
generalized hyperbolic secant family at shape 1 only; its draws use
``x = log(S / (1 - S)) / pi`` with ``S ~ Beta(1/2 + theta/pi, 1/2 - theta/pi)``
and ``theta = atan(mu)``, which at ``mu = 0`` reduces to the closed-form
inverse CDF ``(2/pi) * log(tan(pi*u/2))``.

All operations are pure; ``sample`` mutates only the generator passed in.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DomainError, NumericInstabilityError, check_float, check_range


@dataclass(frozen=True)
class Interval:
    """Open interval, endpoints possibly infinite."""

    lo: float
    hi: float

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"


@dataclass(frozen=True)
class Family:
    """One of the six families, with its shape/size parameter.

    ``param`` holds sigma2 for gaussian or alpha for gamma, finite and > 0;
    m for binomial / negbinomial, an integer >= 1 (not a bool), stored as
    ``int``; None otherwise.  Every construction is checked: any
    ``Family(kind, param)`` is valid or raises :class:`DomainError`.
    """

    kind: str
    param: float | int | None = None

    def __post_init__(self) -> None:
        kind, p = self.kind, self.param
        if kind not in _KINDS:
            raise DomainError(f"unknown family {kind!r} (expected one of {ALL_KINDS})")
        if _KINDS[kind].param is None:
            if p is not None:
                raise DomainError(f"{kind} takes no parameters, got {p!r}")
            return
        key, cast = _KINDS[kind].param
        if p is None:
            raise DomainError(f"{kind} requires parameter {key!r}")
        if cast is float:
            check_float(key, p, 0, owner=kind)
        elif isinstance(p, numbers.Integral) and not isinstance(p, bool):
            check_range(f"{kind} {key}", p, 1)
        else:
            raise DomainError(f"{kind} needs an integer {key}, got {p!r}")
        object.__setattr__(self, "param", int(p) if cast is int else p)  # e.g. np.int64 -> int

    # -- constructors -------------------------------------------------

    @classmethod
    def gaussian(cls, sigma2: float = 1.0) -> "Family":
        return cls("gaussian", sigma2)

    @classmethod
    def poisson(cls) -> "Family":
        return cls("poisson")

    @classmethod
    def gamma(cls, alpha: float) -> "Family":
        return cls("gamma", alpha)

    @classmethod
    def binomial(cls, m: int) -> "Family":
        return cls("binomial", m)

    @classmethod
    def negbinomial(cls, m: int) -> "Family":
        return cls("negbinomial", m)

    @classmethod
    def sech(cls) -> "Family":
        return cls("sech")

    # -- structure -----------------------------------------------------

    @property
    def mean_domain(self) -> Interval:
        return _KINDS[self.kind].mean_domain(self.param)

    def variance_coeffs(self) -> tuple[float, float, float]:
        """(v0, v1, v2) of V(mu) = v0 + v1 mu + v2 mu^2, as floats."""
        v0, v1, v2 = self.variance_coeffs_exact()
        return float(v0), float(v1), float(v2)

    def variance_coeffs_exact(self) -> tuple[Fraction, Fraction, Fraction]:
        """(v0, v1, v2) as exact rationals (params are taken at their
        exact binary-float values, which are themselves rational)."""
        return _KINDS[self.kind].coeffs(self.param)

    @property
    def v2(self) -> float:
        return self.variance_coeffs()[2]

    # -- core operations -------------------------------------------------

    def _check_mean(self, x, what: str = "mean") -> None:
        """Raise unless x, a scalar or an array, lies in the mean domain; the
        message names the first value outside it."""
        dom = self.mean_domain
        x = np.asarray(x)
        inside = (dom.lo < x) & (x < dom.hi)
        if not inside.all():
            raise DomainError(f"{what} {x[~inside].flat[0]} outside {dom} for {self.tag()}")

    def variance(self, mu):
        """V(mu), elementwise over arrays; a V(mu) that overflows raises
        NumericInstabilityError."""
        self._check_mean(mu)
        v0, v1, v2 = self.variance_coeffs()
        with np.errstate(over="ignore"):
            v = v0 + v1 * mu + v2 * mu * mu
        if not np.isfinite(v).all():
            raise NumericInstabilityError(f"variance V(mu) overflows for {self.tag()}")
        return v

    def z_score(self, mu, x):
        """Standardized deviation (x - mu) / sqrt(V(mu)), elementwise with
        numpy broadcasting; each value equals the scalar formula's bit for bit."""
        return (np.asarray(x, dtype=float) - mu) / np.sqrt(self.variance(mu))

    # -- sampling ---------------------------------------------------------

    def sample(self, mu: float, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. draws from the member with mean mu."""
        self._check_mean(mu)
        check_range("count", count, 0)
        return _KINDS[self.kind].sample(self.param, mu, rng, count)

    # -- serialization ------------------------------------------------------

    def tag(self) -> str:
        """Short string form, e.g. ``gamma{alpha=2}``; see :func:`parse_family`."""
        spec = _KINDS[self.kind].param
        return self.kind if spec is None else f"{self.kind}{{{spec[0]}={_fmt(self.param)}}}"


def _sample_sech(_, mu: float, rng: np.random.Generator, count: int) -> np.ndarray:
    if mu == 0.0:
        u = rng.random(count)
        while not u.all():  # u = 0 maps to -inf: redraw just those entries
            zero = u == 0.0
            u[zero] = rng.random(int(zero.sum()))
        # (2/pi) log tan(pi u / 2), computed in place in the draw buffer
        u *= math.pi
        u /= 2.0
        np.tan(u, out=u)
        np.log(u, out=u)
        u *= 2.0 / math.pi
        return u
    # logit(S)/pi with S ~ Beta(1/2 + theta/pi, 1/2 - theta/pi); drawing
    # the logit as a log-ratio of Gammas keeps the extreme tails finite
    theta = math.atan(mu)
    ga = rng.gamma(0.5 + theta / math.pi, size=count)
    gb = rng.gamma(0.5 - theta / math.pi, size=count)
    np.log(ga, out=ga)
    ga -= np.log(gb, out=gb)
    ga /= math.pi
    return ga


@dataclass(frozen=True, kw_only=True)
class _Kind:
    """The facts of one family kind; each function takes ``Family.param`` first."""

    coeffs: Callable  # exact (v0, v1, v2)
    mean_domain: Callable  # -> Interval
    sample: Callable  # (param, mu, rng, count) -> float draws
    param: tuple[str, type] | None = None  # tag key and type; None: takes none


_REAL, _POSITIVE = Interval(-math.inf, math.inf), Interval(0.0, math.inf)
_ZERO, _ONE = Fraction(0), Fraction(1)
_KINDS = {
    "gaussian": _Kind(
        param=("sigma2", float),
        coeffs=lambda s: (Fraction(s), _ZERO, _ZERO),
        mean_domain=lambda s: _REAL,
        sample=lambda s, mu, rng, n: rng.normal(mu, math.sqrt(s), size=n)),
    "poisson": _Kind(
        coeffs=lambda _: (_ZERO, _ONE, _ZERO),
        mean_domain=lambda _: _POSITIVE,
        sample=lambda _, mu, rng, n: rng.poisson(mu, size=n).astype(float)),
    "gamma": _Kind(
        param=("alpha", float),
        coeffs=lambda a: (_ZERO, _ZERO, 1 / Fraction(a)),
        mean_domain=lambda a: _POSITIVE,
        sample=lambda a, mu, rng, n: rng.gamma(a, mu / a, size=n)),
    "binomial": _Kind(
        param=("m", int),
        coeffs=lambda m: (_ZERO, _ONE, Fraction(-1, m)),
        mean_domain=lambda m: Interval(0.0, float(m)),
        sample=lambda m, mu, rng, n: rng.binomial(m, mu / m, size=n).astype(float)),
    "negbinomial": _Kind(
        param=("m", int),
        coeffs=lambda m: (_ZERO, _ONE, Fraction(1, m)),
        mean_domain=lambda m: _POSITIVE,
        sample=lambda m, mu, rng, n: rng.negative_binomial(m, m / (m + mu), size=n).astype(float)),
    "sech": _Kind(
        coeffs=lambda _: (_ONE, _ZERO, _ONE),
        mean_domain=lambda _: _REAL,
        sample=_sample_sech),
}
ALL_KINDS = tuple(_KINDS)


def _fmt(x) -> str:
    return repr(int(x)) if x == int(x) else repr(float(x))


def parse_family(tag: str) -> Family:
    """Parse a family tag.

    Grammar: ``name`` or ``name{key=value}`` with names gaussian, poisson,
    gamma, binomial, negbinomial, sech and keys sigma2 (gaussian), alpha
    (gamma), m (binomial, negbinomial): a kind with a parameter takes its
    one key, cast to the parameter's type.  Examples: ``poisson``,
    ``gamma{alpha=2}``, ``binomial{m=1}``, ``gaussian{sigma2=0.5}``.
    """
    tag = tag.strip()
    name, brace, body = tag.partition("{")
    if not brace:
        return Family(tag)
    key, eq, value = body[:-1].partition("=")
    if not (body.endswith("}") and eq):
        raise ConfigError(f"family: malformed tag {tag!r}")
    name, key, value = name.strip(), key.strip(), value.strip()
    kind = _KINDS.get(name)
    if kind is None or kind.param is None or kind.param[0] != key:
        raise ConfigError(f"family: unexpected parameter(s) {[key]} for {name}")
    try:
        param = kind.param[1](value)
    except ValueError as exc:
        raise ConfigError(f"family: bad value for {key!r}: {value!r}") from exc
    return Family(name, param)

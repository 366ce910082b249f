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

The "sech" family is the generalized hyperbolic secant family at shape 1;
other shapes are not supported.  Every family exposes its cumulant function
``psi``, the mean map ``psi'`` with closed-form inverse, z-scores, densities,
and an exact sampler for the measure with a given mean.  Exact draws for the
tilted sech law use the representation ``x = log(S / (1 - S)) / pi`` with
``S ~ Beta(1/2 + theta/pi, 1/2 - theta/pi)``; at ``theta = 0`` the sampler
reduces to the closed-form inverse CDF ``(2/pi) * log(tan(pi*u/2))``.

All operations are pure; ``sample`` mutates only the generator passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DomainError

ALL_KINDS = ("gaussian", "poisson", "gamma", "binomial", "negbinomial", "sech")
# the tag key, type and range of each parametrized kind's ``param``; the rest take none
_PARAM = {"gaussian": ("sigma2", float, "sigma2 > 0"), "gamma": ("alpha", float, "shape alpha > 0"),
          "binomial": ("m", int, "integer m >= 1"), "negbinomial": ("m", int, "integer m >= 1")}


@dataclass(frozen=True)
class Interval:
    """Open interval, endpoints possibly infinite."""

    lo: float
    hi: float

    def __contains__(self, x: float) -> bool:
        return self.lo < x < self.hi

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"


@dataclass(frozen=True)
class Family:
    """One of the six families, with its shape/size parameter.

    ``param`` holds sigma2 for gaussian, alpha for gamma, m for binomial /
    negbinomial, and is None otherwise.  Every construction is checked: any
    ``Family(kind, param)`` is valid or raises :class:`DomainError`.
    """

    kind: str
    param: float | int | None = None

    def __post_init__(self) -> None:
        kind, p = self.kind, self.param
        if kind not in ALL_KINDS:
            raise DomainError(f"unknown family {kind!r} (expected one of {ALL_KINDS})")
        if kind not in _PARAM:
            if p is not None:
                raise DomainError(f"{kind} takes no parameters, got {p!r}")
            return
        key, cast, rule = _PARAM[kind]
        if p is None:
            raise DomainError(f"{kind} requires parameter {key!r}")
        if not ((isinstance(p, int) and p >= 1) if cast is int else p > 0):  # NaN fails too
            raise DomainError(f"{kind} needs {rule}, got {p}")

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
    def is_discrete(self) -> bool:
        return self.kind in ("poisson", "binomial", "negbinomial")

    @property
    def mean_domain(self) -> Interval:
        if self.kind == "gaussian" or self.kind == "sech":
            return Interval(-math.inf, math.inf)
        if self.kind == "binomial":
            return Interval(0.0, float(self.param))
        # poisson, gamma, negbinomial
        return Interval(0.0, math.inf)

    @property
    def natural_domain(self) -> Interval:
        if self.kind in ("gaussian", "poisson", "binomial"):
            return Interval(-math.inf, math.inf)
        if self.kind == "gamma":
            return Interval(-math.inf, 1.0)
        if self.kind == "negbinomial":
            return Interval(-math.inf, math.log(2.0))
        return Interval(-math.pi / 2, math.pi / 2)  # sech

    def variance_coeffs(self) -> tuple[float, float, float]:
        """(v0, v1, v2) of V(mu) = v0 + v1 mu + v2 mu^2, as floats."""
        v0, v1, v2 = self.variance_coeffs_exact()
        return float(v0), float(v1), float(v2)

    def variance_coeffs_exact(self) -> tuple[Fraction, Fraction, Fraction]:
        """(v0, v1, v2) as exact rationals (params are taken at their
        exact binary-float values, which are themselves rational)."""
        one, zero = Fraction(1), Fraction(0)
        if self.kind == "gaussian":
            return Fraction(self.param), zero, zero
        if self.kind == "poisson":
            return zero, one, zero
        if self.kind == "gamma":
            return zero, zero, 1 / Fraction(self.param)
        if self.kind == "binomial":
            return zero, one, Fraction(-1, self.param)
        if self.kind == "negbinomial":
            return zero, one, Fraction(1, self.param)
        return one, zero, one  # sech

    @property
    def v2(self) -> float:
        return self.variance_coeffs()[2]

    # -- core operations -------------------------------------------------

    def _check_mean(self, mu, what: str = "mean") -> None:
        """Raise unless mu (a scalar or an array) is in the mean domain."""
        dom = self.mean_domain
        if isinstance(mu, np.ndarray):
            inside = (dom.lo < mu) & (mu < dom.hi)
            if inside.all():
                return
            mu = mu[~inside].flat[0]  # report the first offending mean
        elif mu in dom:
            return
        raise DomainError(f"{what} {mu} outside {dom} for {self.tag()}")

    def variance(self, mu):
        """V(mu), elementwise over arrays; exact if mu is a Fraction."""
        self._check_mean(mu)
        if isinstance(mu, Fraction):
            v0, v1, v2 = self.variance_coeffs_exact()
        else:
            v0, v1, v2 = self.variance_coeffs()
        return v0 + v1 * mu + v2 * mu * mu

    def z_score(self, mu, x):
        """Standardized deviation (x - mu) / sqrt(V(mu)), elementwise with
        numpy broadcasting; each value equals the scalar formula's bit for bit."""
        return (np.asarray(x, dtype=float) - mu) / np.sqrt(self.variance(mu))

    def mean_to_natural(self, mu: float) -> float:
        """Inverse of psi': the natural parameter theta with mean mu."""
        self._check_mean(mu)
        if self.kind == "gaussian":
            return mu / self.param
        if self.kind == "poisson":
            return math.log(mu)
        if self.kind == "gamma":
            return 1.0 - self.param / mu
        if self.kind == "binomial":
            return math.log(mu / (self.param - mu))
        if self.kind == "negbinomial":
            return math.log(2.0 * mu / (self.param + mu))
        return math.atan(mu)  # sech

    def natural_to_mean(self, theta: float) -> float:
        """psi'(theta)."""
        self._check_theta(theta)
        if self.kind == "gaussian":
            return theta * self.param
        if self.kind == "poisson":
            return math.exp(theta)
        if self.kind == "gamma":
            return self.param / (1.0 - theta)
        if self.kind == "binomial":
            return self.param / (1.0 + math.exp(-theta))
        if self.kind == "negbinomial":
            e = math.exp(theta)
            return self.param * e / (2.0 - e)
        return math.tan(theta)  # sech

    def _check_theta(self, theta: float) -> None:
        if theta not in self.natural_domain:
            raise DomainError(
                f"natural parameter {theta} outside {self.natural_domain} "
                f"for {self.tag()}"
            )

    def cumulant(self, theta: float) -> float:
        """psi(theta) = log E exp(theta x) under the base measure."""
        self._check_theta(theta)
        if self.kind == "gaussian":
            return 0.5 * theta * theta * self.param
        if self.kind == "poisson":
            return math.expm1(theta)
        if self.kind == "gamma":
            return -self.param * math.log1p(-theta)
        if self.kind == "binomial":
            # m * log((1 + e^theta)/2), stable for large |theta|
            return self.param * (np.logaddexp(0.0, theta) - math.log(2.0))
        if self.kind == "negbinomial":
            return -self.param * math.log(2.0 - math.exp(theta))
        return -math.log(math.cos(theta))  # sech

    # -- densities ------------------------------------------------------

    def log_pdf(self, mu: float, x: float) -> float:
        """Log density (or log pmf) of the member with mean mu, at x."""
        self._check_mean(mu)
        k = self.kind
        if k == "gaussian":
            s2 = self.param
            return -0.5 * math.log(2 * math.pi * s2) - (x - mu) ** 2 / (2 * s2)
        if k == "poisson":
            if x < 0 or x != int(x):
                return -math.inf
            return x * math.log(mu) - mu - math.lgamma(x + 1)
        if k == "gamma":
            a = self.param
            if x <= 0:
                return -math.inf
            rate = a / mu
            return a * math.log(rate) + (a - 1) * math.log(x) - rate * x - math.lgamma(a)
        if k == "binomial":
            m = self.param
            if x < 0 or x > m or x != int(x):
                return -math.inf
            p = mu / m
            return (
                math.lgamma(m + 1) - math.lgamma(x + 1) - math.lgamma(m - x + 1)
                + x * math.log(p) + (m - x) * math.log1p(-p)
            )
        if k == "negbinomial":
            m = self.param
            if x < 0 or x != int(x):
                return -math.inf
            q = mu / (m + mu)  # per-trial failure probability
            return (
                math.lgamma(x + m) - math.lgamma(x + 1) - math.lgamma(m)
                + x * math.log(q) + m * math.log1p(-q)
            )
        # sech: tilt of (1/2) sech(pi x / 2) by theta = atan(mu),
        # normalizer exp(-psi(theta)) = cos(theta) = 1/sqrt(1 + mu^2)
        theta = math.atan(mu)
        return (
            math.log(0.5) - _log_cosh(math.pi * x / 2)
            + theta * x - 0.5 * math.log1p(mu * mu)
        )

    def pdf(self, mu: float, x: float) -> float:
        return math.exp(self.log_pdf(mu, x))

    # -- sampling ---------------------------------------------------------

    def sample(self, mu: float, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. draws from the member with mean mu."""
        self._check_mean(mu)
        if count < 0:
            raise DomainError(f"count must be >= 0, got {count}")
        k = self.kind
        if k == "gaussian":
            return rng.normal(mu, math.sqrt(self.param), size=count)
        if k == "poisson":
            return rng.poisson(mu, size=count).astype(float)
        if k == "gamma":
            return rng.gamma(self.param, mu / self.param, size=count)
        if k == "binomial":
            return rng.binomial(self.param, mu / self.param, size=count).astype(float)
        if k == "negbinomial":
            m = self.param
            return rng.negative_binomial(m, m / (m + mu), size=count).astype(float)
        # sech
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

    # -- serialization ------------------------------------------------------

    def tag(self) -> str:
        """Short string form, e.g. ``gamma{alpha=2}``; see :func:`parse_family`."""
        if self.kind not in _PARAM:
            return self.kind
        return f"{self.kind}{{{_PARAM[self.kind][0]}={_fmt(self.param)}}}"


def _fmt(x) -> str:
    return repr(int(x)) if x == int(x) else repr(float(x))


def _log_cosh(t: float) -> float:
    t = abs(t)
    return t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0)


def parse_family(tag: str) -> Family:
    """Parse a family tag.

    Grammar: ``name`` or ``name{key=value}`` with names gaussian, poisson,
    gamma, binomial, negbinomial, sech and keys sigma2 (gaussian), alpha
    (gamma), m (binomial, negbinomial).  Examples: ``poisson``,
    ``gamma{alpha=2}``, ``binomial{m=1}``, ``gaussian{sigma2=0.5}``.
    """
    tag = tag.strip()
    name, params = tag, {}
    if "{" in tag:
        if not tag.endswith("}"):
            raise ConfigError(f"family: malformed tag {tag!r}")
        name, body = tag[:-1].split("{", 1)
        for item in body.split(","):
            if "=" not in item:
                raise ConfigError(f"family: malformed parameter {item!r} in {tag!r}")
            key, val = (s.strip() for s in item.split("=", 1))
            params[key] = val
    name = name.strip()
    key, cast, _ = _PARAM.get(name, (None, None, None))
    extra = set(params) - {key}
    if extra:
        raise ConfigError(f"family: unexpected parameter(s) {sorted(extra)} for {name}")
    if key not in params:
        return Family(name)
    try:
        value = cast(params[key])
    except ValueError as exc:
        raise ConfigError(f"family: bad value for {key!r}: {params[key]!r}") from exc
    return Family(name, value)

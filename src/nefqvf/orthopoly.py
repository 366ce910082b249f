"""Monic orthogonal polynomials for the quadratic-variance families.

For a family with variance coefficients (v0, v1, v2) and a null mean mu0,
the monic orthogonal polynomials p_0, ..., p_K of the member with mean mu0
satisfy the three-term recurrence of Morris (1982, Ann. Statist. 10:65-80)

    p_{k+1}(y) = (y - mu0 - k V'(mu0)) p_k(y)
                 - k (1 + (k-1) v2) V(mu0) p_{k-1}(y),

with p_0 = 1.  The damping of p_{k-1} is ||p_k||^2 / ||p_{k-1}||^2, as in
any monic orthogonal family, so the squared norms are its running products

    E[p_k(y) p_l(y)] = delta_{kl} * a_k(v2) * V(mu0)**k,

where ``a_k(v) = k! * prod_{j<k}(1 + v*j)``.  All six families have
rational variance coefficients (at the exact binary values of their
parameters), so the recurrence runs in exact rational arithmetic.  For the
binomial family (v2 = -1/m) the damping first vanishes at k = m + 1, so
the norm vanishes past degree m and the basis stops there.

The module also hosts the generating function

    f(t; v) = e^t (v = 0),  (1 - v t)^(-1/v) (v != 0),

evaluated elementwise over arrays of t, whose Taylor coefficients are
``a_hat_k(v)/k!``; for v < 0 (= -1/m) the series is the polynomial
(1 + t/m)^m and is evaluated as such for all t.  The ratios of consecutive
coefficients, ``f_ratios``, are the one source of every truncation: for
v = -1/m they, and so the series, end at degree m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import DomainError
from .families import Family

MAX_BASIS_DEGREE = 40  # documented cap for build_basis


# ---------------------------------------------------------------------------
# the v-class and the a-constants
# ---------------------------------------------------------------------------

def neg_v_order(v: float) -> int | None:
    """None for v in [0, inf), m for v = -1/m (m >= 1); any other v raises."""
    if v >= 0:
        return None
    m = -1.0 / float(v)
    if abs(m - round(m)) > 1e-9 * max(1.0, abs(m)) or round(m) < 1:
        raise DomainError(f"v={v} is not in [0,inf) nor of the form -1/m")
    return int(round(m))


def a_hat(k: int, v):
    """prod_{j=0}^{k-1} (1 + v j); exact if v is a Fraction."""
    if k < 0:
        raise DomainError(f"degree k must be >= 0, got {k}")
    neg_v_order(float(v))
    out = v - v + 1  # one, in the arithmetic of v
    for j in range(k):
        out *= 1 + v * j
    return out


def a_const(k: int, v):
    """k! * a_hat(k, v), the squared-norm constant."""
    return math.factorial(k) * a_hat(k, v)


# ---------------------------------------------------------------------------
# the generating function f and its truncations
# ---------------------------------------------------------------------------

def f_eval(t, v: float):
    """f(t; v), elementwise over a scalar or an array of t.

    Returns +inf at and past the positive-v singularity t >= 1/v and where
    the value overflows; a scalar t gives a numpy float.
    """
    m = neg_v_order(v)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        if v == 0:
            out = np.exp(t)
        elif v > 0:
            out = np.full_like(t, np.inf)
            ok = t < 1.0 / v
            out[ok] = (1.0 - v * t[ok]) ** (-1.0 / v)
        else:
            # v = -1/m: the series is the polynomial (1 + t/m)^m, defined everywhere
            out = (1.0 + t / m) ** m
    return out[()]


@dataclass(frozen=True)
class TruncSeries:
    """Coefficients c_0..c_D of a univariate polynomial, low order first."""

    coeffs: tuple

    def __call__(self, t):
        """Horner's rule from the highest nonzero coefficient, which a start
        at 0 would turn into 0 * inf = nan at an infinite t; a Python scalar
        t gives a Python float, an array t an array of its shape."""
        top = max((k for k, c in enumerate(self.coeffs) if c != 0), default=0)
        out = self.coeffs[top]
        if isinstance(t, (np.ndarray, np.generic)):
            out = np.zeros_like(t) + out
        with np.errstate(over="ignore", invalid="ignore"):  # callers judge a non-finite value
            for c in reversed(self.coeffs[:top]):
                out = out * t + c
        return out


def f_ratios(D: int, v: float) -> list[float]:
    """Ratios (1 + v (k-1)) / k of the Taylor coefficients a_hat_k(v)/k! of
    f(.; v) at k and k - 1, for k = 1 .. min(D, m), where v = -1/m ends the
    series at degree m.  A running product of them neither overflows in k!
    nor in a power of t."""
    if D < 0:
        raise DomainError(f"degree bound D must be >= 0, got {D}")
    m = neg_v_order(v)
    K = D if m is None else min(D, m)
    return [(1.0 + v * (k - 1)) / k for k in range(1, K + 1)]


def f_trunc(D: int, v: float) -> TruncSeries:
    """Order-D Taylor expansion of f(.; v): coefficients a_hat_k(v)/k!,
    k = 0 .. min(D, m) for v = -1/m (the series ends at degree m)."""
    return TruncSeries(tuple(accumulate(f_ratios(D, v), mul, initial=1.0)))


# ---------------------------------------------------------------------------
# orthogonal polynomial basis
# ---------------------------------------------------------------------------

def monic_recurrence(shift, damp) -> list[list]:
    """Ascending coefficients of p_0 .. p_K, K = len(shift), from p_0 = 1 and
    p_{k+1} = (y - shift[k]) p_k - damp[k] p_{k-1} (p_{-1} = 0), in the
    arithmetic of shift and damp."""
    rows, prev = [[1]], []
    for s, d in zip(shift, damp):
        p = rows[-1]
        nxt = [0] + p  # y * p_k
        for i, c in enumerate(p):
            nxt[i] -= s * c
        for i, c in enumerate(prev):
            nxt[i] -= d * c
        prev = p
        rows.append(nxt)
    return rows


@dataclass(frozen=True)
class OrthoPolyBasis:
    """Monic orthogonal polynomials of one family member, plus norms.

    ``monic[k]`` holds ascending coefficients of the degree-k monic
    polynomial; ``norm_sq[k]`` its squared L2 norm, the damping product
    a_k(v2) * V(mu0)**k.  ``max_degree`` may be smaller than requested for
    binomial families, whose basis stops at degree m.  The family and mu0
    are the caller's own arguments to :func:`build_basis`.
    """

    max_degree: int
    monic: tuple
    norm_sq: tuple


def build_basis(family: Family, mu0: float, K: int) -> OrthoPolyBasis:
    """Exact monic basis up to degree K by the Morris recurrence; the norms
    are damping products, and the basis stops before the first zero damping."""
    if not 0 <= K <= MAX_BASIS_DEGREE:
        raise DomainError(f"K must be in 0..{MAX_BASIS_DEGREE}, got {K}")
    family._check_mean(mu0, "mu0")

    mu = Fraction(mu0)
    v0, v1, v2 = family.variance_coeffs_exact()
    vmu = v0 + v1 * mu + v2 * mu * mu  # V(mu0)
    dv = v1 + 2 * v2 * mu  # V'(mu0)
    damp = [k * (1 + (k - 1) * v2) * vmu for k in range(K + 1)]
    k_max = next((k - 1 for k in range(1, K + 1) if damp[k] == 0), K)
    monic = monic_recurrence([mu + k * dv for k in range(k_max)], damp)
    return OrthoPolyBasis(
        max_degree=k_max,
        monic=tuple(tuple(p) for p in monic),
        norm_sq=tuple(accumulate(damp[1:k_max + 1], mul, initial=Fraction(1))),
    )


"""Translation polynomials of the symmetric sech member.

The shift operator of the mean-zero sech distribution expands in its
orthonormal polynomials through the polynomials tau_hat_k defined by

    sum_{k>=0} t^k tau_hat_k(y) = G(t, y) = exp(y * arctan(t)).

Differentiating in t gives (1 + t^2) dG/dt = y G; comparing coefficients of
t^k, the scaled polynomials P_k = k! tau_hat_k have integer coefficients and
obey the three-term recurrence

    P_0 = 1,  P_1 = y,  P_{k+1} = y P_k - k (k - 1) P_{k-1}.

Only monomials with l == k (mod 2) and l >= 1 appear for k >= 1, and the
coefficients obey

    |[y^l] tau_hat_k| <= (2 log(e k))^(l-1) / (k * l!),

which integrates to a pointwise bound on |tau_hat_k(x)| for x > 0; the
test suite checks both bounds against the table.  The table is built once
by ``orthopoly.monic_recurrence`` in exact integer arithmetic (so float
cancellation in the alternating sums never enters) and divided by k! twice:
into exact rationals, and by correctly rounded int / int division into the
floats of evaluation, which goes through one ``orthopoly.TruncSeries`` per
degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .orthopoly import TruncSeries, monic_recurrence

MAX_TABLE_DEGREE = 200  # documented cap for build_translation_table
DEFAULT_TABLE_DEGREE = 64


@dataclass(frozen=True)
class TranslationPolyTable:
    """Exact coefficients of tau_hat_0 .. tau_hat_K, plus float series."""

    max_degree: int
    coeffs: tuple  # coeffs[k][l] = Fraction coefficient of y^l in tau_hat_k
    series: tuple  # series[k] = TruncSeries of the float coeffs[k]

    def eval(self, k: int, x):
        """tau_hat_k(x); accepts scalars or arrays."""
        if not 0 <= k <= self.max_degree:
            raise DomainError(f"k={k} outside table range 0..{self.max_degree}")
        return self.series[k](x)


def build_translation_table(K: int = DEFAULT_TABLE_DEGREE) -> TranslationPolyTable:
    """Exact table of tau_hat_0 .. tau_hat_K from the integer recurrence
    P_{k+1} = y P_k - k (k - 1) P_{k-1} for P_k = k! tau_hat_k, which
    follows from (1 + t^2) dG/dt = y G; O(K^2) integer operations."""
    if not 0 <= K <= MAX_TABLE_DEGREE:
        raise DomainError(f"translation table degree must be in 0..{MAX_TABLE_DEGREE}, got {K}")
    rows = monic_recurrence([0] * K, [k * (k - 1) for k in range(K)])  # [y^l] P_k
    facts = [math.factorial(k) for k in range(K + 1)]
    return TranslationPolyTable(
        max_degree=K,
        coeffs=tuple(tuple(Fraction(c, f) for c in row) for row, f in zip(rows, facts)),
        # int / int is correctly rounded, so each float is float(Fraction(c, k!))
        series=tuple(TruncSeries(tuple(c / f for c in row)) for row, f in zip(rows, facts)),
    )


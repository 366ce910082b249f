"""Translation polynomials: exact heads, parity, and coefficient bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from helpers import normalized_eval, tau_value_bound, translation_table_by_powers
from nefqvf.errors import DomainError
from nefqvf.families import Family
from nefqvf.orthopoly import build_basis
from nefqvf.translation import build_translation_table

TABLE = build_translation_table(60)


def test_series_heads():
    assert TABLE.coeffs[0] == (Fraction(1),)
    assert TABLE.coeffs[1] == (0, 1)
    assert TABLE.coeffs[2] == (0, 0, Fraction(1, 2))
    assert TABLE.coeffs[3] == (0, Fraction(-1, 3), 0, Fraction(1, 6))
    # P_4 = y^4 - 8 y^2 and P_5 = y^5 - 20 y^3 + 24 y, over 4! and 5!
    assert TABLE.coeffs[4] == (0, 0, Fraction(-1, 3), 0, Fraction(1, 24))
    assert TABLE.coeffs[5] == (0, Fraction(1, 5), 0, Fraction(-1, 6), 0, Fraction(1, 120))


@pytest.mark.parametrize("K", [*range(61), 120])
def test_recurrence_table_matches_arctan_powers(K):
    got, want = build_translation_table(K), translation_table_by_powers(K)
    assert got.max_degree == want.max_degree == K
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for row in got.coeffs for c in row)
    assert [s.coeffs for s in got.series] == [s.coeffs for s in want.series]


def test_degree_three_against_symbolic_oracle():
    # independent series composition in sympy
    t, y = sympy.symbols("t y")
    series = sympy.series(sympy.exp(y * sympy.atan(t)), t, 0, 5).removeO()
    for k in range(5):
        poly = sympy.Poly(series.coeff(t, k), y)
        for l in range(k + 1):
            want = Fraction(str(poly.coeff_monomial(y**l)))
            assert TABLE.coeffs[k][l] == want, (k, l)


def test_eval_values():
    assert TABLE.eval(1, 0.3) == pytest.approx(0.3)
    assert TABLE.eval(3, 1.0) == pytest.approx(-1 / 6)
    assert TABLE.eval(2, 0.0) == 0.0


def test_eval_rejects_out_of_range():
    with pytest.raises(DomainError):
        TABLE.eval(61, 0.5)
    with pytest.raises(DomainError):
        TABLE.eval(-1, 0.5)
    with pytest.raises(DomainError):
        build_translation_table(201)


def test_value_bound_formulas():
    assert tau_value_bound(1, 1.0) == pytest.approx(math.e**2)
    want = 0.25 * math.log(2 * math.e) * (2 * math.e)
    assert tau_value_bound(2, 0.5) == pytest.approx(want)
    # odd-k bound vanishes linearly at the origin
    assert tau_value_bound(3, 1e-9) == pytest.approx(1e-9 / 3, rel=1e-6)
    with pytest.raises(DomainError):
        tau_value_bound(0, 0.5)
    with pytest.raises(DomainError):
        tau_value_bound(2, -0.5)


def test_parity_structure():
    for k in range(1, 51):
        for l in range(k + 1):
            c = TABLE.coeffs[k][l]
            if l % 2 != k % 2 or l == 0:
                assert c == 0, (k, l)


def test_coefficient_bound():
    for k in range(1, 51):
        for l in range(1, k + 1):
            c = abs(float(TABLE.coeffs[k][l]))
            bound = (2 * math.log(math.e * k)) ** (l - 1) / (k * math.factorial(l))
            assert c <= bound * (1 + 1e-12), (k, l)


def test_pointwise_value_bound():
    for k in range(1, 51):
        for x in (0.01, 0.05, 0.1, 0.5, 1.0):
            assert abs(TABLE.eval(k, x)) <= tau_value_bound(k, x), (k, x)


def test_generating_function_consistency():
    for t in np.linspace(-0.3, 0.3, 7):
        for y in np.linspace(-2.0, 2.0, 9):
            total = sum(t**k * TABLE.eval(k, y) for k in range(61))
            assert total == pytest.approx(math.exp(y * math.atan(t)), abs=1e-10)


def test_shift_expectation_matches_table():
    # E over mean-zero sech noise of p_hat_k(x + y) equals tau_hat_k(x)
    basis = build_basis(Family.sech(), 0.0, 6)
    rng = np.random.default_rng(99)
    noise = Family.sech().sample(0.0, rng, 1_000_000)
    for x in (0.1, 0.5):
        for k in range(7):
            vals = normalized_eval(basis, k, x + noise)
            got, se = vals.mean(), vals.std() / math.sqrt(vals.size)
            assert abs(got - TABLE.eval(k, x)) <= 4 * se + 1e-15, (k, x)

"""Orthogonal polynomials: norms, orthonormality, and the scalar GF."""

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import expectation_under, gram_schmidt_basis, moments_at, normalized_eval
from nefqvf.errors import DomainError
from nefqvf.families import Family
from nefqvf.orthopoly import (
    a_const,
    a_hat,
    build_basis,
    f_eval,
    f_trunc,
    neg_v_order,
)

V_GRID = [-1.0, -0.5, -1 / 3, -0.25, -0.2, 0.0, 0.1, 0.5, 1.0, 2.0]


def test_a_hat_values():
    assert a_hat(3, 1.0) == pytest.approx(6.0)
    assert a_hat(2, -1.0) == 0.0
    for v in V_GRID:
        assert a_hat(0, v) == 1.0
    # exact arithmetic propagates
    assert a_hat(4, Fraction(-1, 2)) == Fraction(0)
    assert a_hat(2, Fraction(-1, 2)) == Fraction(1, 2)


def test_a_hat_rejects_bad_v():
    for v in [-0.3, -2.0, -1.5]:
        with pytest.raises(DomainError):
            a_hat(3, v)
        with pytest.raises(DomainError):
            neg_v_order(v)


def test_a_hat_monotone_in_v():
    for k in range(21):
        vals = [a_hat(k, v) for v in V_GRID]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), k


def test_a_hat_multiplicativity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ks = rng.integers(0, 6, size=rng.integers(1, 5))
        total = int(ks.sum())
        for v in V_GRID:
            prod = math.prod(a_hat(int(k), v) for k in ks)
            whole = a_hat(total, v)
            if v > 0:
                assert prod <= whole + 1e-9 * abs(whole)
            elif v == 0:
                assert prod == pytest.approx(whole)
            else:
                assert prod >= whole - 1e-12


def test_f_eval_values():
    assert f_eval(0.5, 1.0) == pytest.approx(2.0)
    for t in [-2.0, 0.0, 1.3]:
        assert f_eval(t, 0.0) == pytest.approx(math.exp(t))
    assert f_eval(2.0, 1.0) == math.inf
    assert f_eval(1.0, 1.0) == math.inf
    # for v = -1/m the series is the polynomial (1 + t/m)^m, all t
    assert f_eval(3.0, -1.0) == pytest.approx(4.0)
    assert f_eval(5.0, -0.5) == pytest.approx((1 + 2.5) ** 2)


def test_f_trunc_coefficients():
    assert f_trunc(2, 1.0).coeffs == pytest.approx([1.0, 1.0, 1.0])
    assert f_trunc(3, 0.0).coeffs == pytest.approx([1, 1, 0.5, 1 / 6])
    assert f_trunc(5, -1.0).coeffs == (1.0, 1.0)  # v = -1/m ends the series at degree m


def test_binomial_series_ends_at_degree_m():
    # 1 + v*m is not exactly 0 in floats for some m (49, 98, 103, 107 up to
    # 120): the running product then left tiny coefficients past degree m,
    # and a large t turned them into the series' leading term
    t = np.array([-1e30, -40.0, 0.5, 40.0, 1e30])
    for m in range(1, 121):
        v, want = -1 / m, f_trunc(m, -1 / m)
        for D in (m + 1, m + 6):
            got = f_trunc(D, v)
            assert len(got.coeffs) == m + 1, (m, D)
            assert np.array(got.coeffs).tobytes() == np.array(want.coeffs).tobytes(), (m, D)
            assert got(t).tobytes() == want(t).tobytes(), (m, D)


@pytest.mark.parametrize("D, v, at_minus_inf", [(4, 0.0, math.inf), (6, -1 / 3, -math.inf)])
def test_truncated_series_at_infinity_follows_its_leading_term(D, v, at_minus_inf):
    # v = -1/3 ends the series at degree 3, a cubic
    series = f_trunc(D, v)
    assert series(math.inf) == math.inf and series(-math.inf) == at_minus_inf
    got = series(np.array([math.inf, -math.inf, 0.5]))
    assert list(got[:2]) == [math.inf, at_minus_inf]


def _horner_from_zero(coeffs, t):
    """The series' earlier evaluation, which reads nan only at an infinite t."""
    out = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for c in reversed(coeffs):
            out = out * t + c
    return out


def test_truncated_series_keeps_finite_bits_and_result_types():
    rng = np.random.default_rng(5)
    t = np.concatenate([rng.normal(0.0, 30.0, 50), [0.0, -0.0, 1e200, -1e200]])
    for D, v in ((0, 0.0), (4, 0.0), (6, -1 / 3), (5, -1.0), (7, 0.5)):
        series = f_trunc(D, v)
        got, want = series(t), _horner_from_zero(series.coeffs, t)
        assert got.shape == t.shape and got.tobytes() == want.tobytes(), (D, v)
        for x in (float(t[0]), -0.0, 1e200):
            assert type(series(x)) is float and series(x) == _horner_from_zero(series.coeffs, x)
    # a degree-0 series keeps the shape of its argument, as the exact additive norm stacks it
    ones = f_trunc(0, 0.0)(np.full((2, 3), math.inf))
    assert ones.shape == (2, 3) and (ones == 1.0).all()
    assert type(f_trunc(0, 0.0)(-math.inf)) is float


def test_f_trunc_matches_f_eval_near_zero():
    for v in V_GRID:
        series = f_trunc(30, v)
        bound = 0.3 / max(1.0, abs(v))
        for t in np.linspace(-bound, bound, 11):
            assert abs(series(t) - f_eval(t, v)) < 1e-9, (v, t)


def test_moments_match_direct_formulas():
    mu = 2.5
    m = moments_at(Family.poisson(), mu, 3)
    assert m[1] == pytest.approx(mu)
    assert m[2] == pytest.approx(mu + mu * mu)
    assert m[3] == pytest.approx(mu + 3 * mu**2 + mu**3)
    g = moments_at(Family.gaussian(2.0), 0.0, 6)
    assert g[2] == pytest.approx(2.0)
    assert g[4] == pytest.approx(3 * 4.0)
    assert g[5] == pytest.approx(0.0)


def test_hermite_case():
    basis = build_basis(Family.gaussian(1.0), 0.0, 4)
    assert basis.monic[2] == (-1, 0, 1)  # y^2 - 1
    assert basis.monic[3] == (0, -3, 0, 1)  # y^3 - 3y
    assert normalized_eval(basis, 2, 0.0) == pytest.approx(-1 / math.sqrt(2))
    assert normalized_eval(basis, 0, 123.0) == 1.0


def test_poisson_first_polynomial_is_centering():
    basis = build_basis(Family.poisson(), 1.0, 3)
    assert basis.monic[1] == (-1, 1)  # y - 1


def test_bernoulli_two_point_norm():
    # two-point oracle: E[(y - 1/2)^2] at mean 1/2 is 1/4
    basis = build_basis(Family.binomial(1), 0.5, 1)
    assert basis.monic[1] == (Fraction(-1, 2), 1)
    assert float(basis.norm_sq[1]) == pytest.approx(0.25)
    direct = 0.5 * (0 - 0.5) ** 2 + 0.5 * (1 - 0.5) ** 2
    assert float(basis.norm_sq[1]) == pytest.approx(direct)


def test_binomial_basis_stops_and_degenerate_degree():
    basis = build_basis(Family.binomial(1), 0.5, 5)
    assert basis.max_degree == 1
    with pytest.raises(ValueError, match="outside built range 0..1"):
        normalized_eval(basis, 2, 0.0)
    longer = build_basis(Family.binomial(3), 1.1, 8)
    assert longer.max_degree == 3


def test_build_rejects_bad_inputs():
    with pytest.raises(DomainError):
        build_basis(Family.poisson(), -1.0, 3)
    with pytest.raises(DomainError):
        build_basis(Family.poisson(), 1.0, 41)
    basis = build_basis(Family.poisson(), 1.0, 3)
    with pytest.raises(ValueError, match="outside built range 0..3"):
        normalized_eval(basis, 7, 0.0)


@pytest.mark.parametrize(
    "family,mu0",
    [
        (Family.poisson(), 2.5),
        (Family.gaussian(1.3), 0.7),
        (Family.sech(), 0.6),
    ],
    ids=["poisson", "gaussian", "sech"],
)
def test_orthonormality_spot_check(family, mu0):
    K = 5
    basis = build_basis(family, mu0, K)
    for k in range(K + 1):
        for l in range(k, K + 1):
            val = expectation_under(
                family, mu0,
                lambda y: normalized_eval(basis, k, y) * normalized_eval(basis, l, y),
            )
            assert val == pytest.approx(1.0 if k == l else 0.0, abs=1e-8), (k, l)


def test_kin_spike_expectation_spot_check():
    # E under a shifted member of a normalized polynomial is a z-score power
    cases = [
        (Family.gamma(2.0), 1.5, 2.2),
        (Family.binomial(6), 2.5, 3.1),
        (Family.sech(), 0.2, -0.4),
    ]
    for family, mu, x in cases:
        basis = build_basis(family, mu, 6)
        v2 = family.v2
        z = family.z_score(mu, x)
        for k in range(min(6, basis.max_degree) + 1):
            got = expectation_under(family, x, lambda y: normalized_eval(basis, k, y))
            want = math.sqrt(a_hat(k, v2) / math.factorial(k)) * z**k
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9), (family.kind, k)


def test_exact_norms_match_closed_form_identically():
    # the moment-based inner products of the Gram-Schmidt oracle check the
    # closed form and the recurrence's damping products independently
    for family, mu0 in [(Family.negbinomial(3), Fraction(7, 5)),
                        (Family.gamma(2.5), Fraction(9, 5))]:
        basis = build_basis(family, mu0, 8)
        _, oracle_norms = gram_schmidt_basis(family, mu0, 8)
        v0, v1, v2 = family.variance_coeffs_exact()
        vmu = v0 + v1 * mu0 + v2 * mu0 * mu0
        for k in range(9):
            assert oracle_norms[k] == a_const(k, v2) * vmu**k
            assert basis.norm_sq[k] == oracle_norms[k]

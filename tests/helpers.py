"""Shared oracle utilities for the test suite.

Expectations under a family member are computed here independently of the
library's own algebra: exact probability-weighted summation for the discrete
families (tails truncated below 1e-16 mass), adaptive quadrature for the
continuous ones (split at the mean so the peak is always resolved).

The generic algorithms the library replaced by closed forms live on here as
reference implementations: Gram-Schmidt on exact moments (against the Morris
recurrence), the scan for the first zero damping of that recurrence
(against the basis' stop at degree m, which the library reads from the
series' own end), enumeration of multi-indices (against the
generating-function products of the exact norms), and dynamic programming
over vertex-parity states (against the O(n) entrywise sum).  The spiked-matrix sampler's
earlier construction, whole-array noise expressions and a triangle vector
scattered into a fresh matrix, pins its draw order and its bits; the same
scatter at float64 precision is the matrix whose top eigenvalue pins the
eigen tests' statistic.
Per-scalar z-scores, the scalar generating function and a per-draw Monte
Carlo loop pin the array forms of the overlap route, and the two Monte
Carlo routes that evaluated their series once per draw pin the routes that
evaluate it once per distinct overlap; a z-unit prior
realized as raw means in each family pins the channel comparison, which
works on the z-offsets themselves.  The translation table
by convolving powers of the arctan series pins the integer recurrence, and
gathering both z-score rows of every drawn atom pair pins the pair table.

Quantities the CLI and the benchmark never compute live only here: the
families' densities and the heavy-noise density, each family's natural
parametrization (the natural domain, the maps between mean and natural
parameter, and the cumulant psi, whose psi'' = V(psi') pins each kind's
variance coefficients), orthonormal polynomial
values from a basis's exact coefficients, single likelihood-ratio
components (which the enumeration oracle sums), the untruncated
product-form norm, the exact exp-series overlap bound, the block-model
overlap of two labelings, the exact chi-square functional of the sign
overlap, and the pointwise bound on the translation polynomials.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from nefqvf.errors import DomainError
from nefqvf.families import Family
from nefqvf.ldlr import (
    KinSpikedModel,
    LdlrResult,
    SpikePrior,
    _mc_summary,
    _sign_count_mean,
    _symmetric_binomial_cdf,
)
from nefqvf.orthopoly import TruncSeries, a_hat, f_eval, f_trunc, neg_v_order
from nefqvf.translation import TranslationPolyTable, build_translation_table

DISCRETE_KINDS = ("poisson", "binomial", "negbinomial")


def random_shared_instance(rng, n_coords=None, n_atoms=None):
    """Random (null_means, atoms) usable by every family at once.

    Means in (0.3, 0.7), atom coordinates in (0.15, 0.85): inside the mean
    domain of all six families (including Bernoulli), with z-scores of
    order one so exact float comparisons stay well-conditioned.
    """
    N = int(n_coords if n_coords is not None else rng.integers(1, 4))
    A = int(n_atoms if n_atoms is not None else rng.integers(1, 5))
    means = tuple(rng.uniform(0.3, 0.7, N))
    vecs = rng.uniform(0.15, 0.85, size=(A, N))
    probs = rng.dirichlet(np.ones(A))
    atoms = [(tuple(vecs[a]), float(probs[a])) for a in range(A)]
    return means, atoms


def random_z_instance(rng, n_coords=None, n_atoms=None):
    """Random null means plus a prior in z-score units.

    Mean range (0.3, 0.7) and offsets within +-0.35 standard deviations keep
    the realized atoms inside every family's mean domain (including
    Bernoulli) for all six canonical families.
    """
    N = int(n_coords if n_coords is not None else rng.integers(1, 4))
    A = int(n_atoms if n_atoms is not None else rng.integers(1, 5))
    means = tuple(rng.uniform(0.3, 0.7, N))
    vecs = rng.uniform(-0.35, 0.35, size=(A, N))
    probs = rng.dirichlet(np.ones(A))
    atoms = [(tuple(vecs[a]), float(probs[a])) for a in range(A)]
    return means, atoms


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def _log_cosh(t: float) -> float:
    t = abs(t)
    return t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0)


def log_pdf(family: Family, mu: float, x: float) -> float:
    """Log density (or log pmf) of the family member with mean mu, at x."""
    k = family.kind
    if k == "gaussian":
        s2 = family.param
        return -0.5 * math.log(2 * math.pi * s2) - (x - mu) ** 2 / (2 * s2)
    if k == "poisson":
        if x < 0 or x != int(x):
            return -math.inf
        return x * math.log(mu) - mu - math.lgamma(x + 1)
    if k == "gamma":
        a = family.param
        if x <= 0:
            return -math.inf
        rate = a / mu
        return a * math.log(rate) + (a - 1) * math.log(x) - rate * x - math.lgamma(a)
    if k == "binomial":
        m = family.param
        if x < 0 or x > m or x != int(x):
            return -math.inf
        p = mu / m
        return (
            math.lgamma(m + 1) - math.lgamma(x + 1) - math.lgamma(m - x + 1)
            + x * math.log(p) + (m - x) * math.log1p(-p)
        )
    if k == "negbinomial":
        m = family.param
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


def pdf(family: Family, mu: float, x: float) -> float:
    return math.exp(log_pdf(family, mu, x))


def heavy_pdf(alpha: float, x: float) -> float:
    """Normalized density proportional to (1 + x^2)^(-alpha/2), alpha > 1."""
    # the Gamma ratio in log space: math.gamma overflows past alpha ~ 343
    c = math.exp(math.lgamma(alpha / 2) - math.lgamma((alpha - 1) / 2)) / math.sqrt(math.pi)
    return c * (1.0 + x * x) ** (-alpha / 2)


# ---------------------------------------------------------------------------
# natural parametrization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NaturalMaps:
    """A family's natural parametrization: the open natural domain (lo, hi),
    ``theta(mu)`` the inverse of psi', ``mean(theta)`` = psi'(theta), and
    ``psi(theta)`` = log E exp(theta x) under the base measure."""

    lo: float
    hi: float
    theta: Callable
    mean: Callable
    psi: Callable


def natural_maps(family: Family) -> NaturalMaps:
    """The closed forms of ``family``'s natural parametrization."""
    k, p = family.kind, family.param
    if k == "gaussian":
        return NaturalMaps(-math.inf, math.inf, lambda mu: mu / p, lambda t: t * p,
                           lambda t: 0.5 * t * t * p)
    if k == "poisson":
        return NaturalMaps(-math.inf, math.inf, math.log, math.exp, math.expm1)
    if k == "gamma":
        return NaturalMaps(-math.inf, 1.0, lambda mu: 1.0 - p / mu, lambda t: p / (1.0 - t),
                           lambda t: -p * math.log1p(-t))
    if k == "binomial":
        # psi = m * log((1 + e^theta)/2), stable for large |theta|
        return NaturalMaps(-math.inf, math.inf, lambda mu: math.log(mu / (p - mu)),
                           lambda t: p / (1.0 + math.exp(-t)),
                           lambda t: p * (np.logaddexp(0.0, t) - math.log(2.0)))
    if k == "negbinomial":
        return NaturalMaps(-math.inf, math.log(2.0), lambda mu: math.log(2.0 * mu / (p + mu)),
                           lambda t: p * math.exp(t) / (2.0 - math.exp(t)),
                           lambda t: -p * math.log(2.0 - math.exp(t)))
    # sech: psi = -log cos(theta) on (-pi/2, pi/2)
    return NaturalMaps(-math.pi / 2, math.pi / 2, math.atan, math.tan,
                       lambda t: -math.log(math.cos(t)))


def direct_l2_norm_discrete(family: Family, mu0: float, atoms) -> float:
    """E_null[L^2] for a one-coordinate discrete model, by direct summation.

    L(y) = sum_a p_a * pdf(x_a, y) / pdf(mu0, y); expectation under the
    null member truncated once 1 - 1e-16 of the mass is covered.
    """
    hi = family.param + 1 if family.kind == "binomial" else 100_000
    total, acc = 0.0, 0.0
    for y in range(hi):
        q = pdf(family, mu0, float(y))
        if q == 0.0:
            continue
        ell = sum(p * pdf(family, x[0], float(y)) for x, p in atoms) / q
        acc += q * ell * ell
        total += q
        if family.kind != "binomial" and total >= 1.0 - 1e-16 and y > 4 * mu0 + 40:
            break
    return acc


def expectation_under(family: Family, mu: float, fn):
    """E[fn(y)] for y drawn from the family member with mean mu."""
    if family.kind in DISCRETE_KINDS:
        if family.kind == "binomial":
            xs = range(0, family.param + 1)
            return sum(pdf(family, mu, float(x)) * fn(float(x)) for x in xs)
        total, acc, x, tiny = 0.0, 0.0, 0, 0
        while True:
            w = pdf(family, mu, float(x))
            term = w * fn(float(x))
            total += w
            acc += term
            x += 1
            # close the tail only once both the remaining mass and the
            # summands themselves (which carry polynomial growth) are dust
            if total >= 1.0 - 1e-16 and abs(term) <= 1e-16 * (1.0 + abs(acc)):
                tiny += 1
                if tiny >= 8:
                    return acc
            else:
                tiny = 0
            if x > 100_000:
                raise RuntimeError("discrete tail did not close")
    lo, hi = (0.0, np.inf) if family.kind == "gamma" else (-np.inf, np.inf)
    opts = dict(limit=400, epsabs=1e-13, epsrel=1e-12)
    integrand = lambda x: pdf(family, mu, x) * fn(x)
    left, _ = quad(integrand, lo, mu, **opts)
    right, _ = quad(integrand, mu, hi, **opts)
    return left + right


# ---------------------------------------------------------------------------
# orthogonal polynomials by Gram-Schmidt on exact moments
# ---------------------------------------------------------------------------

def _poly_mul(a: list, b: list) -> list:
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_deriv(a: list) -> list:
    if len(a) <= 1:
        return [a[0] * 0]
    return [i * a[i] for i in range(1, len(a))]


def _poly_eval(a: list, x):
    out = a[0] * 0
    for c in reversed(a):
        out = out * x + c
    return out


def cumulants_at(family: Family, mu0, order: int) -> list:
    """kappa_1 .. kappa_order of the member with mean mu0.

    Under the mean parametrization kappa_1 = mu and kappa_{j+1}(mu) =
    V(mu) * d kappa_j / d mu.  Exact when mu0 is a Fraction, floats otherwise.
    """
    if isinstance(mu0, Fraction):
        v0, v1, v2 = family.variance_coeffs_exact()
    else:
        v0, v1, v2 = family.variance_coeffs()
    vpoly = [v0, v1, v2]
    zero = v0 * 0
    kappa_poly = [zero, zero + 1]  # kappa_1(mu) = mu
    out = []
    for _ in range(order):
        out.append(_poly_eval(kappa_poly, mu0))
        kappa_poly = _poly_mul(vpoly, _poly_deriv(kappa_poly))
    return out


def moments_at(family: Family, mu0, order: int) -> list:
    """Raw moments m_0 .. m_order: m_n = sum_j C(n-1, j-1) kappa_j m_{n-j}."""
    kappas = cumulants_at(family, mu0, order)
    one = kappas[0] * 0 + 1 if order >= 1 else 1
    moments = [one]
    for n in range(1, order + 1):
        m = kappas[0] * 0
        for j in range(1, n + 1):
            m += math.comb(n - 1, j - 1) * kappas[j - 1] * moments[n - j]
        moments.append(m)
    return moments


def gram_schmidt_basis(family: Family, mu0, K: int) -> tuple[list, list]:
    """Exact (monic, norm_sq) up to degree K, binomial bases stopping at m.

    ``norm_sq[k]`` is the inner product of p_k with itself under the exact
    moments, so it checks the recurrence's norms independently of it.
    """
    m_stop = neg_v_order(family.v2)
    k_max = min(K, m_stop) if m_stop is not None else K
    moments = moments_at(family, Fraction(mu0), 2 * k_max)

    def inner(f, g):
        return sum(
            (fi * gj * moments[i + j]
             for i, fi in enumerate(f) if fi
             for j, gj in enumerate(g) if gj),
            Fraction(0),
        )

    monic: list[list] = []
    norm_sq: list = []
    for k in range(k_max + 1):
        p = [Fraction(0)] * k + [Fraction(1)]  # y^k
        for j in range(k):
            c = inner(p, monic[j]) / norm_sq[j]
            for i, cji in enumerate(monic[j]):
                p[i] -= c * cji
        monic.append(p)
        norm_sq.append(inner(p, p))
    return monic, norm_sq


def basis_stop_by_zero_damping(family: Family, mu0, K: int) -> tuple[int, tuple]:
    """(max_degree, norm_sq) of the degree-K basis at mu0 by the damping scan:
    the exact Morris dampings k (1 + (k-1) v2) V(mu0) up to the one before
    the first zero, whose running products are the squared norms."""
    mu = Fraction(mu0)
    v0, v1, v2 = family.variance_coeffs_exact()
    vmu = v0 + v1 * mu + v2 * mu * mu
    damp = [k * (1 + (k - 1) * v2) * vmu for k in range(K + 1)]
    k_max = next((k - 1 for k in range(1, K + 1) if damp[k] == 0), K)
    return k_max, tuple(accumulate(damp[1:k_max + 1], mul, initial=Fraction(1)))


def normalized_eval(basis, k: int, y):
    """Orthonormal polynomial value p_k(y) / sqrt(a_k(v2) V(mu0)^k), from the
    basis's exact monic coefficients and norms; ValueError past max_degree
    (for a binomial basis, every degree past m)."""
    if not 0 <= k <= basis.max_degree:
        raise ValueError(f"degree {k} outside built range 0..{basis.max_degree}")
    coeffs = np.array([float(c) for c in basis.monic[k]])
    return npoly.polyval(y, coeffs / math.sqrt(float(basis.norm_sq[k])))


# ---------------------------------------------------------------------------
# exact norms by multi-index enumeration
# ---------------------------------------------------------------------------

def count_multi_indices(N: int, D: int) -> int:
    """Number of k in N^N with |k| <= D."""
    return math.comb(N + D, D)


def iter_multi_indices(N: int, D: int, max_coord: int | None = None):
    """Multi-indices with |k| <= D in graded lexicographic order."""

    def compositions(total, parts):
        if parts == 1:
            if max_coord is None or total <= max_coord:
                yield (total,)
            return
        hi = total if max_coord is None else min(total, max_coord)
        for first in range(hi, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for d in range(D + 1):
        yield from compositions(d, N)


def component(model, k) -> float:
    """Projection of a kin model's likelihood ratio on the product basis
    element k: sqrt(prod_i a_hat_{k_i}(v2) / k_i!) E_x[prod_i z_i^{k_i}]."""
    vecs, probs = model.prior.atom_arrays()
    v2 = model.family.v2
    m_stop = neg_v_order(v2)
    # exact-zero test on the rational form: float a_hat(k, -1/m) for k > m
    # can be a tiny nonzero of either sign
    if m_stop is not None and max(k) > m_stop:
        raise ValueError(f"degree {max(k)} is degenerate for {model.family.tag()}")
    coef = math.prod(a_hat(ki, v2) / math.factorial(ki) for ki in k)
    expect = float(np.dot(probs, np.prod(model.z_scores(vecs) ** np.array(k), axis=1)))
    return math.sqrt(coef) * expect


def ldlr_exact_enum(model, D: int) -> float:
    """Kin degree-D norm as the sum of squared components over |k| <= D."""
    max_coord = neg_v_order(model.family.v2)
    return sum(component(model, k) ** 2
               for k in iter_multi_indices(model.N, D, max_coord=max_coord))


def ldlr_exact_additive_enum(model, D: int) -> float:
    """Additive (mean-zero sech) degree-D norm by enumeration of |k| <= D."""
    table = build_translation_table(D)
    atoms = model.prior.atoms
    tau_vals = [
        [[float(table.eval(k, x)) for k in range(D + 1)] for x in vec]
        for vec, _ in atoms
    ]
    total = 0.0
    for k in iter_multi_indices(model.N, D):
        comp = sum(
            p * math.prod(tau_vals[a][i][ki] for i, ki in enumerate(k))
            for a, (_, p) in enumerate(atoms)
        )
        total += comp * comp
    return total


# ---------------------------------------------------------------------------
# closed forms and bounds the CLI does not report
# ---------------------------------------------------------------------------

def full_norm_exact(model) -> float:
    """Untruncated squared norm: E over prior pairs of prod_i f(z_i^1 z_i^2; v2).

    May be +inf for v2 > 0 when an overlap reaches the singularity."""
    vecs, probs = model.prior.atom_arrays()
    v2 = model.family.v2
    Z = model.z_scores(vecs)
    # one (atoms, N) slab per atom a, never an atoms x atoms x N array
    g = np.array([np.prod(f_eval(z * Z, v2), axis=1) for z in Z])
    return float(probs @ g @ probs)


def sbm_overlap(n: int, a: float, b: float, sigma1, sigma2) -> float:
    """Closed-form z-score overlap of two community labelings.

    Edge means (a+b)/2n null vs (a +- (a-b) sign)/2n planted give
    r = ((a-b)^2 / (4(a+b))) * (<s1, s2>^2 - n) / n.
    """
    s1 = np.asarray(sigma1, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    if s1.shape != (n,) or s2.shape != (n,):
        raise DomainError(f"labelings must have shape ({n},)")
    if not (np.all(np.abs(s1) == 1.0) and np.all(np.abs(s2) == 1.0)):
        raise DomainError("labelings must be +-1 valued")
    dot = float(np.dot(s1, s2))
    return (a - b) ** 2 / (4.0 * (a + b)) * (dot * dot - n) / n


def overlap_chi2_exact(c: float, n: int) -> float:
    """Exact E exp(c <x1,x2>^2 / 2n) by summation over the overlap law."""
    h = 2.0 * np.arange(n + 1) - n
    return _sign_count_mean(c * h * h / (2.0 * n))


def tau_value_bound(k: int, x: float) -> float:
    """Upper bound on |tau_hat_k(x)| for k >= 1 and x > 0."""
    if k < 1:
        raise DomainError(f"bound requires k >= 1, got {k}")
    if x <= 0:
        raise DomainError(f"bound requires x > 0, got {x}")
    growth = (math.e * k) ** (2 * x)
    if k % 2 == 1:
        return x * growth / k
    return x * x * (2 * math.log(math.e * k) / k) * growth


# ---------------------------------------------------------------------------
# entrywise-degree norm by dynamic programming over vertex parities
# ---------------------------------------------------------------------------

def entrywise_parity_dp(n: int, lam: float, D: int) -> float:
    """Sum over edge multi-indices with max_e k_e <= D and even vertex degrees.

    Folds the even/odd edge weights over the 2^n vertex-parity states.
    """
    table = build_translation_table(D)
    s = lam / math.sqrt(n)
    tau_sq = [float(table.eval(k, s)) ** 2 for k in range(D + 1)]
    w_even = sum(tau_sq[k] for k in range(0, D + 1, 2))
    w_odd = sum(tau_sq[k] for k in range(1, D + 1, 2))
    state = np.zeros(1 << n)
    state[0] = 1.0
    idx = np.arange(1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            flip = (1 << i) | (1 << j)
            state = w_even * state + w_odd * state[idx ^ flip]
    return float(state[0])


# ---------------------------------------------------------------------------
# spiked observation: its strict upper triangle, packed
# ---------------------------------------------------------------------------

def noise_from_expressions(kind, size, rng, alpha=None):
    """Mean-zero noise by the samplers' whole-array expressions.

    sech: (2/pi) log tan(pi u / 2) for uniform u, redrawing u = 0;
    heavy: a Student t with alpha - 1 degrees of freedom over its scale.
    """
    if kind == "sech":
        u = rng.random(size)
        while not u.all():
            zero = u == 0.0
            u[zero] = rng.random(int(zero.sum()))
        return (2.0 / math.pi) * np.log(np.tan(math.pi * u / 2.0))
    df = alpha - 1.0
    return rng.standard_t(df, size=size) / math.sqrt(df)


def wig_matrix_from_triangle(n, lam, noise_kind, planted, rng, alpha=None):
    """The packed triangle ``sample_wig`` must hold for the same generator state.

    Draws the mixed branch, the triangle of noise in row-major i < j order
    and the spike signs, and adds the spike x_i x_j lambda / sqrt(n) to
    entry (i, j) with whole-array indexing.
    """
    entry_kind = noise_kind
    if noise_kind == "mixed":
        branch = 1 if planted else int(rng.integers(1, 3))
        entry_kind = "sech" if branch == 1 else "heavy"
    upper = noise_from_expressions(entry_kind, n * (n - 1) // 2, rng, alpha=alpha)
    if planted:
        iu, ju = np.triu_indices(n, k=1)
        spike = rng.choice([-1.0, 1.0], size=n)
        upper = upper + (lam / math.sqrt(n)) * spike[iu] * spike[ju]
    return upper


def wig_matrix_float64(inst, transform=None):
    """The float64 matrix an eigen test's statistic must be the top eigenvalue of.

    Fortran-ordered, transform(Y) (Y itself for None) scattered from the
    packed triangle into the strict lower triangle, zero elsewhere: the
    layout of ``WigInstance.matrix`` at float64 precision.
    """
    n = inst.n
    M = np.zeros((n, n), order="F")
    M.T[np.triu_indices(n, k=1)] = inst.entries if transform is None else transform(inst.entries)
    return M


# ---------------------------------------------------------------------------
# the overlap route one scalar at a time
# ---------------------------------------------------------------------------

def kin_model_from_z(family: Family, null_means, z_prior: SpikePrior) -> KinSpikedModel:
    """A standardized spike prior realized in a family's own mean scale.

    ``z_prior`` atoms hold offsets in z-score units; coordinate j of an atom
    maps to the mean mu_j + delta_j * sqrt(V(mu_j)).  ``ldlr_exact`` of the
    result, which takes z-scores of those means again, is the raw-mean route
    that ``channel_compare`` is pinned to.
    """
    mu = np.array(null_means, dtype=float)
    deltas, probs = z_prior.atom_arrays()
    raw = mu + deltas * np.sqrt(family.variance(mu))
    return KinSpikedModel(family, tuple(null_means),
                          SpikePrior.from_atoms("kin", zip(raw, probs)))


def z_score_scalar(family: Family, mu: float, x: float) -> float:
    """(x - mu) / sqrt(V(mu)) in Python float arithmetic."""
    v0, v1, v2 = family.variance_coeffs()
    return (float(x) - mu) / math.sqrt(v0 + v1 * mu + v2 * mu * mu)


def z_rows_per_scalar(family: Family, null_means, vecs) -> np.ndarray:
    """Row a = z-scores of mean vector a, one scalar call per coordinate."""
    return np.array([
        [z_score_scalar(family, mu, x) for mu, x in zip(null_means, vec)]
        for vec in vecs
    ])


def f_eval_scalar(t: float, v: float) -> float:
    """f(t; v) with math functions; inf at and past the singularity 1/v."""
    if v == 0:
        return math.exp(t)
    if v > 0:
        if t >= 1.0 / v:
            return math.inf
        return (1.0 - v * t) ** (-1.0 / v)
    m = neg_v_order(v)
    return float((1.0 + t / m) ** m)


def overlap_bound_exp_series(model, D: int) -> float:
    """E over prior pairs of f_trunc(D, 0)(r), r the z-score overlap: the
    exp-series value, an upper bound on the degree-D norm when v2 < 0."""
    vecs, probs = model.prior.atom_arrays()
    Z = model.z_scores(vecs)
    return float(probs @ f_trunc(D, 0.0)(Z @ Z.T) @ probs)


def overlap_mc_per_draw(model, D, samples: int, rng) -> float:
    """Sampler-backed E[f_trunc(D, v2)(r)]: draws x1, x2 per sample in turn."""
    v2 = model.family.v2
    vals = []
    for _ in range(samples):
        x1 = model.prior.sampler(rng)
        x2 = model.prior.sampler(rng)
        z1, z2 = z_rows_per_scalar(model.family, model.null_means, [x1, x2])
        r = float(np.dot(z1, z2))
        vals.append(f_eval_scalar(r, v2) if D is None else f_trunc(D, v2)(r))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# the translation table and the atom-pair overlaps by their first algorithms
# ---------------------------------------------------------------------------

def translation_table_by_powers(K: int) -> TranslationPolyTable:
    """Exact table of tau_hat_0 .. tau_hat_K via powers of the arctan series,
    ``[y^l] tau_hat_k = [t^k]((arctan t)^l) / l!``; O(K^3) rational operations."""
    # arctan t = sum_{j odd} (-1)^((j-1)/2) t^j / j, truncated at order K
    atan = [Fraction(0)] * (K + 1)
    for j in range(1, K + 1, 2):
        atan[j] = Fraction((-1) ** ((j - 1) // 2), j)

    # power[l][k] = [t^k]((arctan t)^l)
    power = [Fraction(0)] * (K + 1)
    power[0] = Fraction(1)
    coeffs = [[Fraction(0)] * (k + 1) for k in range(K + 1)]
    for k in range(K + 1):
        coeffs[k][0] = power[k]  # l = 0 contributes only to k = 0
    fact = Fraction(1)
    for l in range(1, K + 1):
        fact *= l
        nxt = [Fraction(0)] * (K + 1)
        for i in range(l - 1, K + 1):  # (arctan)^(l-1) has order >= l-1
            if power[i] == 0:
                continue
            for j in range(1, K - i + 1, 2):
                nxt[i + j] += power[i] * atan[j]
        power = nxt
        for k in range(l, K + 1):
            coeffs[k][l] = power[k] / fact

    return TranslationPolyTable(
        max_degree=K,
        coeffs=tuple(tuple(row) for row in coeffs),
        series=tuple(TruncSeries(tuple(float(c) for c in row)) for row in coeffs),
    )


def atom_pair_overlaps_by_gather(model, samples: int, rng) -> np.ndarray:
    """Overlaps of ``samples`` atom-prior pairs, gathering both z-score rows
    of every drawn pair into ``samples x N`` arrays (same draws as the library)."""
    vecs, probs = model.prior.atom_arrays()
    Z = model.z_scores(vecs)
    i1 = rng.choice(len(probs), p=probs, size=samples)
    i2 = rng.choice(len(probs), p=probs, size=samples)
    Z1, Z2 = Z[i1], Z[i2]
    return np.einsum("ij,ij->i", Z1, Z2)


# ---------------------------------------------------------------------------
# the Monte Carlo routes with one series evaluation per draw
# ---------------------------------------------------------------------------

def atom_overlap_mc_per_draw(model, D, samples: int, rng) -> LdlrResult:
    """``overlap_bound_mc`` of an atom prior, its series evaluated on the
    per-draw overlaps (the same draws as the library)."""
    vecs, probs = model.prior.atom_arrays()
    Z = model.z_scores(vecs)
    atoms = len(probs)
    i1 = rng.choice(atoms, p=probs, size=samples)
    i2 = rng.choice(atoms, p=probs, size=samples)
    pairs, which = np.unique(i1 * atoms + i2, return_inverse=True)
    r = np.einsum("ij,ij->i", Z[pairs // atoms], Z[pairs % atoms])[which]

    def summary(v):
        return _mc_summary(f_eval(r, v) if D is None else f_trunc(D, v)(r))

    v2 = model.family.v2
    value, stderr = summary(v2)
    upper_value, upper_stderr = summary(0.0) if v2 < 0 else (None, None)
    return LdlrResult(value, stderr, samples, upper_value, upper_stderr)


def sbm_ks_scan_per_draw(n: int, D: int, grid, samples: int, rng) -> list[tuple[float, float]]:
    """``sbm_ks_scan`` with its series evaluated on the per-draw overlaps
    (the same draws as the library): one (estimate, stderr) pair per point."""
    series = f_trunc(D, 0.0)
    cdf = _symmetric_binomial_cdf(n)
    estimates = []
    for a, b in grid:
        dot = 2.0 * np.searchsorted(cdf, rng.random(samples)) - n
        r = (a - b) ** 2 / (4.0 * (a + b)) * (dot * dot - n) / n
        estimates.append(_mc_summary(series(r)))
    return estimates

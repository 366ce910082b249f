"""Shared oracle utilities for the test suite.

Expectations under a family member are computed here independently of the
library's own algebra: exact probability-weighted summation for the discrete
families (tails truncated below 1e-16 mass), adaptive quadrature for the
continuous ones (split at the mean so the peak is always resolved).

The generic algorithms the library replaced by closed forms live on here as
reference implementations: Gram-Schmidt on exact moments (against the Morris
recurrence), enumeration of multi-indices (against the generating-function
products of the exact norms), and dynamic programming over vertex-parity
states (against the O(n) entrywise sum).  The spiked-matrix sampler's
earlier construction, whole-array noise expressions and a triangle vector
scattered into a fresh matrix, pins its draw order and its bits.
Per-scalar z-scores, the scalar generating function and a per-draw Monte
Carlo loop pin the array forms of the overlap route.  The translation table
by convolving powers of the arctan series pins the integer recurrence, and
gathering both z-score rows of every drawn atom pair pins the pair table.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from nefqvf.families import Family
from nefqvf.orthopoly import a_hat, f_trunc, neg_v_order
from nefqvf.translation import TranslationPolyTable, build_translation_table


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


def direct_l2_norm_discrete(family: Family, mu0: float, atoms) -> float:
    """E_null[L^2] for a one-coordinate discrete model, by direct summation.

    L(y) = sum_a p_a * pdf(x_a, y) / pdf(mu0, y); expectation under the
    null member truncated once 1 - 1e-16 of the mass is covered.
    """
    hi = family.param + 1 if family.kind == "binomial" else 100_000
    total, acc = 0.0, 0.0
    for y in range(hi):
        q = family.pdf(mu0, float(y))
        if q == 0.0:
            continue
        ell = sum(p * family.pdf(x[0], float(y)) for x, p in atoms) / q
        acc += q * ell * ell
        total += q
        if family.kind != "binomial" and total >= 1.0 - 1e-16 and y > 4 * mu0 + 40:
            break
    return acc


def expectation_under(family: Family, mu: float, fn):
    """E[fn(y)] for y drawn from the family member with mean mu."""
    if family.is_discrete:
        if family.kind == "binomial":
            xs = range(0, family.param + 1)
            return sum(family.pdf(mu, float(x)) * fn(float(x)) for x in xs)
        total, acc, x, tiny = 0.0, 0.0, 0, 0
        while True:
            w = family.pdf(mu, float(x))
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
    integrand = lambda x: family.pdf(mu, x) * fn(x)
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
    moments, so it checks the closed-form norms independently of them.
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


def ldlr_exact_enum(model, D: int) -> float:
    """Kin degree-D norm as the sum of squared components over |k| <= D."""
    v2 = model.family.v2
    vecs, probs = model.prior.atom_arrays()
    Z = model.z_scores(vecs)
    ahat = [float(a_hat(k, v2)) for k in range(D + 1)]
    total = 0.0
    for k in iter_multi_indices(model.N, D, max_coord=neg_v_order(v2)):
        coef = math.prod(ahat[ki] / math.factorial(ki) for ki in k)
        expect = float(np.dot(probs, np.prod(Z ** np.array(k), axis=1)))
        total += coef * expect * expect
    return total


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


# ---------------------------------------------------------------------------
# the overlap route one scalar at a time
# ---------------------------------------------------------------------------

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

    arrays = tuple(np.array([float(c) for c in row]) for row in coeffs)
    return TranslationPolyTable(
        max_degree=K,
        coeffs=tuple(tuple(row) for row in coeffs),
        _np=arrays,
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

"""Rank-one spiked matrix simulation and entrywise-degree norm bounds.

An observation is a symmetric n x n matrix Y with zero diagonal, built
once per instance and read-only.  Under the planted distribution its
off-diagonal entries are (lambda/sqrt(n)) x_i x_j plus noise with x uniform
over sign vectors; under the null they are pure noise.  Noise kinds:

- ``sech``:  density (1/2) sech(pi y / 2), unit variance;
- ``heavy``: density proportional to (1 + y^2)^(-alpha/2) with alpha > 1,
  drawn exactly as a rescaled Student t with alpha - 1 degrees of freedom;
- ``mixed``: the null flips a fair coin between sech and heavy noise, the
  planted side always uses sech.

The sech-noise critical signal strength is ``lambda_star = 2 sqrt(2)/pi``,
the inverse square root of the Fisher information of the location family
of the sech density.  There is one eigenvalue test: apply an entrywise
transform g, then threshold the top eigenvalue of g(Y)/sqrt(n) halfway
between the null bulk edge 2 sigma and the planted outlier
lambda + sigma^2/lambda, where sigma^2 is the null entry variance of g.
``pca_test`` takes g(y) = y with sigma = 1; ``tpca_test`` takes the
Fisher-normalized score lambda_star^2 * (pi/2) tanh(pi y / 2) with
sigma = lambda_star, whose outlier separates from the bulk once
lambda > lambda_star.  ``mixed_test`` labels an instance with an
implausibly large entry null and runs ``tpca_test`` on the rest.  Every
test takes only the instance and reads lambda from it; each runs on any
noise kind.

Memory: an instance is one n x n buffer, allocated before the packed
noise triangle is drawn (so the freed noise leaves no hole under it) and
filled with the spike added row by row, and ``tpca_test`` allocates one
more for the transformed matrix; no other n x n array is made on the way.
``power_curve`` and the CLI keep one instance alive at a time, releasing
each before the next is drawn.  The eigen-solve reads that buffer in
place, one triangle per Lanczos step (a symmetric BLAS matvec), so the
matrices it is given must be exactly symmetric, as every instance and
its transform are.  scipy, which provides the solver, is imported by the
first eigenvalue test, before its transform allocates: scipy's long-lived
objects then sit on the heap just above the instance and the transform's
buffer at the top, where the next transform reuses it.  Imported after
it, they would sit above a freed two-matrix hole that small allocations
split, and a long run's heap grew by one more matrix.

Entrywise-degree-bounded likelihood-ratio mass: with the translation
polynomials tau_hat of the sech family, the component at a multi-index k
over edges factorizes into prod_e tau_hat_{k_e}(lambda/sqrt(n)) times a
sign expectation that is one exactly when every vertex has even incident
degree.  Writing that indicator as E_y prod_e (y_i y_j)^{k_e} over uniform
signs y, the sum of squares becomes E_y prod_{i<j} (w_e + w_o y_i y_j),
with w_e / w_o the sums of tau_hat_k^2 over even / odd k <= D.  Only the
number p of positive signs matters, so ``entrywise_ldlr_exact`` evaluates

    sum_p C(n,p) 2^-n (w_e+w_o)^(C(p,2)+C(n-p,2)) (w_e-w_o)^(p(n-p))

in log space, in O(n).  ``entrywise_ldlr_mc_bound`` estimates the
chi-square-type functional exp(c <x1,x2>^2 / 2n) that dominates the same
sum, with the explicit coefficient c reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericInstabilityError
from .families import Family
from .ldlr import _mc_summary, _sign_count_mean
from .translation import build_translation_table

LAMBDA_STAR = 2.0 * math.sqrt(2.0) / math.pi
MAX_EIG_SIZE = 4000  # largest n an instance may have
_MIRROR_ROWS = 64  # row block of the triangle mirror and the max-entry scan
_SCORE_SCALE = LAMBDA_STAR**2 * (math.pi / 2.0)

_SECH = Family.sech()


def _check_lambda(lam: float) -> None:
    if lam < 0:
        raise DomainError(f"need lambda >= 0, got {lam}")


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")


def _check_alpha(alpha: float | None) -> None:
    if alpha is None or alpha <= 1:
        raise DomainError(f"heavy noise needs alpha > 1, got {alpha}")


def heavy_pdf(alpha: float, x: float) -> float:
    """Normalized density proportional to (1 + x^2)^(-alpha/2)."""
    _check_alpha(alpha)
    # the Gamma ratio in log space: math.gamma overflows past alpha ~ 343
    c = math.exp(math.lgamma(alpha / 2) - math.lgamma((alpha - 1) / 2)) / math.sqrt(math.pi)
    return c * (1.0 + x * x) ** (-alpha / 2)


def sample_noise(kind: str, size: int, rng: np.random.Generator,
                 alpha: float | None = None) -> np.ndarray:
    if kind == "sech":
        return _SECH.sample(0.0, rng, size)
    if kind == "heavy":
        _check_alpha(alpha)
        # (1 + x^2)^(-alpha/2) is Student t with alpha-1 dof, scaled
        df = alpha - 1.0
        t = rng.standard_t(df, size=size)
        t /= math.sqrt(df)
        return t
    raise DomainError(f"unknown noise kind {kind!r}")


@dataclass(frozen=True)
class WigInstance:
    """One observation matrix, read-only from construction on, with hidden
    truth kept for scoring: the spike signs of a planted instance, None
    under the null."""

    lam: float
    noise_kind: str
    alpha: float | None
    Y: np.ndarray  # symmetric n x n, zero diagonal
    spike: np.ndarray | None = None
    branch: int | None = None  # mixed null: 1 = sech, 2 = heavy

    def __post_init__(self):
        _check_lambda(self.lam)
        # a view, not a copy: an n = 2000 instance keeps a single 32 MB buffer
        Y = self.Y.view()
        Y.flags.writeable = False
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def planted(self) -> bool:
        return self.spike is not None

    def matrix(self) -> np.ndarray:
        """Symmetric matrix with zero diagonal: the instance's own read-only buffer."""
        return self.Y

    def max_abs_entry(self) -> float:
        # symmetric with a zero diagonal: the row blocks Y[r0:r1, :r1] hold
        # every value, read once and without a temporary
        hi = lo = 0.0
        for r0 in range(0, self.n, _MIRROR_ROWS):
            block = self.Y[r0:r0 + _MIRROR_ROWS, :r0 + _MIRROR_ROWS]
            hi, lo = max(hi, block.max()), min(lo, block.min())
        return float(max(hi, -lo))


def sample_wig(n: int, lam: float, noise_kind: str, planted: bool,
               rng: np.random.Generator, alpha: float | None = None) -> WigInstance:
    """Draw one read-only matrix instance, 2 <= n <= MAX_EIG_SIZE.

    The mixed model's planted side uses sech noise, its null a fair branch
    between sech and heavy.  The noise triangle is drawn before the spike
    signs, so ``lam=0`` planted instances equal null instances.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if n > MAX_EIG_SIZE:
        raise DomainError(f"n={n} exceeds size cap {MAX_EIG_SIZE}")
    _check_lambda(lam)  # before any draw: a rejected call leaves rng untouched
    if noise_kind in ("heavy", "mixed"):
        _check_alpha(alpha)  # the mixed planted side never reaches the heavy sampler

    branch = None
    if noise_kind == "mixed":
        branch = 1 if planted else int(rng.integers(1, 3))
        entry_kind = "sech" if branch == 1 else "heavy"
    else:
        entry_kind = noise_kind
    # the matrix before the packed noise: the noise, freed on return, then
    # leaves no hole under the matrix that a later n x n buffer cannot reuse
    Y = np.zeros((n, n))
    noise = sample_noise(entry_kind, n * (n - 1) // 2, rng, alpha=alpha)
    spike = rng.choice([-1.0, 1.0], size=n) if planted else None
    c = lam / math.sqrt(n)
    for i, row in enumerate(np.split(noise, np.cumsum(np.arange(n - 1, 1, -1)))):
        # row-major over i < j; spike[j] * (c * spike[i]) is exactly +-c
        Y[i, i + 1:] = row if spike is None else row + spike[i + 1:] * (c * spike[i])
    # mirror the upper triangle a block of rows at a time: each block reads
    # a narrow column strip above the diagonal, which stays in cache
    for r0 in range(0, n, _MIRROR_ROWS):
        r1 = min(r0 + _MIRROR_ROWS, n)
        Y[r0:r1, :r0] = Y[:r0, r0:r1].T
        block = Y[r0:r1, r0:r1]
        lower = np.tril_indices(r1 - r0, -1)
        block[lower] = block.T[lower]
    return WigInstance(lam=lam, noise_kind=noise_kind, alpha=alpha, Y=Y,
                       spike=spike, branch=branch)


# ---------------------------------------------------------------------------
# eigenvalue tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestVerdict:
    label: str  # "p" | "q"
    statistic: float
    threshold: float


def _scipy_solver():
    """scipy's BLAS and sparse eigen-solver modules, imported on the first call.

    scipy is most of the package's import time and the norm computations
    never solve an eigenproblem, so nothing imports it earlier."""
    import scipy.linalg.blas
    import scipy.sparse.linalg

    return scipy.linalg.blas, scipy.sparse.linalg


def eigsh(*args, **kwargs):
    """scipy's ARPACK Lanczos solver.  ``top_eigenvalue`` calls it through
    this module attribute, so it can be replaced under this one name."""
    return _scipy_solver()[1].eigsh(*args, **kwargs)


def top_eigenvalue(M: np.ndarray) -> float:
    """Largest (signed) eigenvalue of an exactly symmetric matrix.

    Lanczos iteration on the dense matrix, each step a symmetric matvec
    that reads only the lower triangle (the triangle the fallback reads
    too), with a direct dense solve as fallback for the degenerate cases
    ARPACK rejects (tiny or all-zero matrices) and, with a RuntimeWarning,
    for Lanczos non-convergence; an unsolvable matrix surfaces as an error.
    A float64 C- or Fortran-ordered matrix is read in place; any other
    input is converted once before the solve."""
    n = M.shape[0]
    if n >= 10:
        blas, sparse_linalg = _scipy_solver()
        dsymv = blas.dsymv
        # fixed start vector: the default draws from numpy's global RNG,
        # which would break byte-identical reports
        v0 = np.full(n, 1.0 / math.sqrt(n))
        # each matvec reads M's lower triangle, as the fallback does, from a
        # Fortran-ordered view: f2py would copy any other layout on every call
        if M.flags.f_contiguous and M.dtype == np.float64:
            A, lower = M, 1
        else:
            A, lower = np.ascontiguousarray(M, dtype=np.float64).T, 0
        op = sparse_linalg.LinearOperator(
            (n, n), matvec=lambda x: dsymv(1.0, A, x, lower=lower), dtype=np.float64)
        try:
            return float(eigsh(op, k=1, which="LA", tol=1e-8, v0=v0,
                               return_eigenvectors=False)[0])
        except sparse_linalg.ArpackNoConvergence:
            warnings.warn(f"Lanczos did not converge at n={n}; "
                          "falling back to a dense eigen-solve",
                          RuntimeWarning, stacklevel=2)
        except sparse_linalg.ArpackError:
            pass
    try:
        return float(np.linalg.eigvalsh(M)[-1])
    except np.linalg.LinAlgError as exc:
        raise NumericInstabilityError(f"eigen-solver failed: {exc}") from exc


def _eigen_test(inst: WigInstance, transform, sigma: float) -> TestVerdict:
    """Threshold the top eigenvalue of transform(Y) / sqrt(n).

    Null bulk edge 2*sigma, planted outlier lambda + sigma^2/lambda once
    lambda > sigma; the threshold is their midpoint (infinite at lambda = 0)."""
    _scipy_solver()  # before the transform allocates; see the module docstring
    lam = inst.lam
    stat = top_eigenvalue(transform(inst.matrix())) / math.sqrt(inst.n)
    thr = math.inf if lam == 0 else 0.5 * (2.0 * sigma + lam + sigma**2 / lam)
    return TestVerdict("p" if stat >= thr else "q", stat, thr)


def pca_test(inst: WigInstance) -> TestVerdict:
    """The eigenvalue test on Y itself (no copy): edge 2, outlier lambda + 1/lambda."""
    return _eigen_test(inst, lambda y: y, 1.0)


def score_transform(y):
    """Fisher-normalized score of the sech density.

    (pi/2) tanh(pi y / 2) is minus the log-derivative of the density; its
    second moment under the noise is the Fisher information 1/lambda_star^2,
    so the lambda_star^2 multiple has null entry variance lambda_star^2 and
    bulk edge 2*lambda_star.  An array input is read, never written: the
    result is one fresh buffer, transformed in place."""
    t = np.multiply(y, math.pi / 2.0)
    if t.ndim == 0:  # a scalar has no buffer to reuse
        return _SCORE_SCALE * np.tanh(t)
    np.tanh(t, out=t)
    t *= _SCORE_SCALE
    return t


def tpca_test(inst: WigInstance) -> TestVerdict:
    """The eigenvalue test after the entrywise score transform.

    Edge 2*lambda_star, outlier lambda + lambda_star^2/lambda: detects down
    to lambda_star, below the plain test's critical value of 1."""
    return _eigen_test(inst, score_transform, LAMBDA_STAR)


def mixed_test(inst: WigInstance) -> TestVerdict:
    """Examine the entrywise maximum, then fall through to the score test.

    A maximum above 10 log n is implausible under sech noise (whose
    maximum concentrates near (4/pi) log n) but typical for heavy tails,
    so such instances are labeled null outright."""
    cutoff = 10.0 * math.log(inst.n)
    m = inst.max_abs_entry()
    if m > cutoff:
        return TestVerdict("q", m, cutoff)
    return tpca_test(inst)


# ---------------------------------------------------------------------------
# entrywise-degree-bounded likelihood-ratio mass
# ---------------------------------------------------------------------------

MAX_EXACT_N = 10**6  # keeps the O(n) work arrays small


def entrywise_ldlr_exact(n: int, lam: float, D: int) -> float:
    """Exact sum of squared components over all k with max_e k_e <= D.

    The surviving multi-indices are those giving every vertex an even
    incident degree; the sum factorizes over edges into even/odd weights
    and over sign vectors into the positive-sign count (see the module
    docstring).  Caps: n <= MAX_EXACT_N; D is any degree the translation
    table builds (0..MAX_TABLE_DEGREE), which the table build checks.
    """
    if not 2 <= n <= MAX_EXACT_N:
        raise DomainError(f"need 2 <= n <= {MAX_EXACT_N}, got {n}")
    table = build_translation_table(D)
    s = lam / math.sqrt(n)
    tau_sq = [float(table.eval(k, s)) ** 2 for k in range(D + 1)]
    w_even = sum(tau_sq[k] for k in range(0, D + 1, 2))
    w_odd = sum(tau_sq[k] for k in range(1, D + 1, 2))

    p = np.arange(n + 1)
    same = (p * (p - 1) + (n - p) * (n - p - 1)) // 2
    cross = p * (n - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        # 0 * log 0 only at cross = 0, where the factor is 0^0 = 1
        cross_log = np.where(cross > 0, cross * np.log(abs(w_even - w_odd)), 0.0)
    signs = np.where((w_even < w_odd) & (cross % 2 == 1), -1.0, 1.0)
    return _sign_count_mean(same * math.log(w_even + w_odd) + cross_log, signs)


@dataclass(frozen=True)
class EntrywiseBound:
    c: float
    value: float
    stderr: float
    samples: int


def overlap_chi2_mc(c: float, n: int, samples: int,
                    rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo of E exp(c <x1,x2>^2 / 2n) over sign-vector pairs.

    The overlap law is 2*Binomial(n, 1/2) - n.  For c >= 1 the limit
    diverges; overflowing draws propagate an inf estimate."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    h = 2.0 * rng.binomial(n, 0.5, size=samples) - n
    with np.errstate(over="ignore"):
        vals = np.exp(c * h * h / (2.0 * n))
    return _mc_summary(vals)


def overlap_chi2_exact(c: float, n: int) -> float:
    """Exact E exp(c <x1,x2>^2 / 2n) by summation over the overlap law."""
    h = 2.0 * np.arange(n + 1) - n
    return _sign_count_mean(c * h * h / (2.0 * n))


def entrywise_coefficient(n: int, lam: float, D: int) -> float:
    """The explicit constant c multiplying <x1,x2>^2/(2n) in the bound."""
    if D < 1:
        raise DomainError(f"need D >= 1, got {D}")
    return (math.e * D) ** (2.0 * lam / math.sqrt(n)) * lam * lam * (
        1.0 / LAMBDA_STAR**2 - 1.0 / (3.0 * D)
    )


def entrywise_ldlr_mc_bound(n: int, lam: float, D: int, samples: int,
                            rng: np.random.Generator) -> EntrywiseBound:
    """Monte Carlo of the chi-square functional dominating the exact sum."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    c = entrywise_coefficient(n, lam, D)  # checks D >= 1 before the regime test divides by D
    if lam >= LAMBDA_STAR + 1.0 / (20.0 * D):
        warnings.warn(
            f"lambda={lam} is at or above the bounded regime "
            f"lambda_star + 1/(20 D) = {LAMBDA_STAR + 1 / (20 * D):.4f}; "
            "the estimate may diverge",
            stacklevel=2,
        )
    value, stderr = overlap_chi2_mc(c, n, samples, rng)
    return EntrywiseBound(c=c, value=value, stderr=stderr, samples=samples)


# ---------------------------------------------------------------------------
# empirical power
# ---------------------------------------------------------------------------

_TESTS = {"pca": pca_test, "tpca": tpca_test, "mixed": mixed_test}


@dataclass(frozen=True)
class PowerRow:
    test: str
    noise_kind: str
    n: int
    lam: float
    trials: int
    type_i: float
    type_ii: float
    se_type_i: float
    se_type_ii: float

    @property
    def power(self) -> float:
        return 1.0 - self.type_ii


def power_curve(test_id: str, noise_kind: str, lams, n: int, trials: int,
                rng: np.random.Generator, alpha: float | None = None) -> list[PowerRow]:
    """Empirical type-I/type-II rates of one test across signal strengths."""
    if test_id not in _TESTS:
        raise DomainError(f"unknown test {test_id!r} (expected one of {sorted(_TESTS)})")
    _check_trials(trials)
    lams = list(lams)
    for lam in lams:  # every point before the first draw: a rejected call leaves rng untouched
        _check_lambda(lam)
    test = _TESTS[test_id]
    rows = []
    for lam in lams:
        false_p = sum(
            test(sample_wig(n, lam, noise_kind, False, rng, alpha=alpha)).label == "p"
            for _ in range(trials)
        )
        false_q = sum(
            test(sample_wig(n, lam, noise_kind, True, rng, alpha=alpha)).label == "q"
            for _ in range(trials)
        )
        t1, t2 = false_p / trials, false_q / trials
        rows.append(PowerRow(
            test=test_id, noise_kind=noise_kind, n=n, lam=float(lam), trials=trials,
            type_i=t1, type_ii=t2,
            se_type_i=math.sqrt(t1 * (1 - t1) / trials),
            se_type_ii=math.sqrt(t2 * (1 - t2) / trials),
        ))
    return rows

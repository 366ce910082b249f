"""Rank-one spiked matrix simulation and entrywise-degree norm bounds.

An observation is a symmetric n x n matrix Y with zero diagonal.  An
instance holds its strictly upper triangle, packed row-major over i < j
exactly as drawn, and is read-only.  Under the planted distribution the
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
noise kind.  ARPACK solves every n, a dense solve runs only when it raises
on a finite matrix, and a non-finite matrix or statistic raises
NumericInstabilityError (CLI exit 4).

Determinism and the BLAS worker: Lanczos starts from a fixed vector and
draws any restart (after a breakdown, as on every n = 2 matrix) from a
generator seeded with 0, never from OS entropy or numpy's global state.
Unless the caller has set ``OPENBLAS_THREAD_TIMEOUT`` or its alias
``GOTO_THREAD_TIMEOUT``, the first eigen-solve sets
``OPENBLAS_THREAD_TIMEOUT=20`` before scipy loads its BLAS, so the idle
OpenBLAS worker thread spins about 0.5 ms after a BLAS call, not about
128 ms, and sleeps through the sampling, fill and quotient between two
solves instead of burning a core.  A caller overrides it by setting either
variable before the first solve.  It has no effect in a process that loaded
scipy's BLAS earlier (a pytest run, or a ``perfbench`` run with
``--trace 1``, whose tracer imports ``scipy.sparse.linalg`` first), and it
moves no computed number: the thread count and each BLAS call's split of
its work stay the same.

Memory: an instance is its packed triangle (half an n x n float64
buffer), the noise as drawn with the spike added in place; sampling makes
no n x n array.  An eigenvalue test builds the one n x n buffer it solves,
the float32 ``WigInstance.matrix(transform)`` (as large as the triangle),
whose lower triangle the eigen-solve reads in place, and frees it before
the float64 Rayleigh quotient reads the triangle again.  ``_rows`` is the
one walker of the triangle.  The spike add and the matrix fill take its
plain row slices, the fill transforming row by row, and allocate nothing
that outlives a row (a fill by blocks of rows leaves heap holes the next
matrix cannot reuse); the quotient, which runs once the matrix is freed,
has ``_rows`` transform one block of rows per call.  A short-circuited
``mixed_test`` reads only the triangle; ``power_curve`` and the CLI keep
one instance alive at a time.  The first eigenvalue test imports scipy
before its matrix allocates, so no long-lived object lands between freed
buffers, and repeated runs in one process keep the peak of the first.

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
sum, and returns the explicit coefficient c beside the estimate.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericInstabilityError, check_float, check_range
from .families import Family
from .ldlr import MAX_EXACT_N, _mc_summary, _sign_count_mean
from .translation import build_translation_table

LAMBDA_STAR = 2.0 * math.sqrt(2.0) / math.pi
MAX_EIG_SIZE = 4000  # largest n an instance may have
NOISE_KINDS = ("sech", "heavy", "mixed")
_SCORE_SCALE = LAMBDA_STAR**2 * (math.pi / 2.0)

_SECH = Family.sech()


_BLOCK_ROWS = 64  # packed rows per transform call of the Rayleigh quotient


def _rows(entries: np.ndarray, n: int, transform=None) -> Iterator[tuple[int, np.ndarray]]:
    """(i, row i) for each packed row i, whose entries are (i, j), j > i.

    With no transform a row is a plain slice of ``entries``, made one at a
    time, so nothing outlives its row; a transform runs once per contiguous
    block of _BLOCK_ROWS rows, and each row is a slice of its result."""
    start = 0
    for i0 in range(0, n - 1, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, n - 1)
        stop = start + (i1 - i0) * (2 * n - 1 - i0 - i1) // 2
        block = entries[start:stop] if transform is None else transform(entries[start:stop])
        lo = 0
        for i in range(i0, i1):
            hi = lo + n - 1 - i
            yield i, block[lo:hi]
            lo = hi
        start = stop


@dataclass(frozen=True)
class WigInstance:
    """One observation, read-only from construction on: its signal strength
    and its draw, with the hidden truth kept for scoring (the spike signs of
    a planted instance, None under the null, and the mixed null's branch).
    The noise kind and alpha that drew it belong to the caller."""

    lam: float
    entries: np.ndarray  # strictly upper triangle, packed row-major over i < j
    spike: np.ndarray | None = None
    branch: int | None = None  # mixed null: 1 = sech, 2 = heavy

    def __post_init__(self):
        check_float("lambda", self.lam, 0, closed=True)
        # a view, not a copy: an n = 2000 instance keeps a single 16 MB buffer
        entries = self.entries.view()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 1 or self.n * (self.n - 1) // 2 != entries.size:
            raise DomainError(f"need n(n-1)/2 packed entries, got shape {entries.shape}")
        check_range("n", self.n, 2)

    @property
    def n(self) -> int:
        return (math.isqrt(8 * self.entries.size + 1) + 1) // 2

    def matrix(self, transform=None) -> np.ndarray:
        """A fresh Fortran-ordered float32 n x n buffer whose strictly lower
        triangle holds transform(Y) (Y itself for None); its diagonal and
        upper triangle are zero.  Column j is packed row j, transformed in
        float64 and cast on the store, so no packed-size or n x n temporary
        is made.  An entry of Y past the float32 range overflows its store
        and raises NumericInstabilityError; a transform's own overflow (the
        score transform's tanh saturates) warns nothing."""
        M = np.zeros((self.n, self.n), dtype=np.float32, order="F")
        try:
            with np.errstate(over="raise" if transform is None else "ignore"):
                for j, row in _rows(self.entries, self.n):
                    M[j + 1:, j] = row if transform is None else transform(row)
        except FloatingPointError:
            raise NumericInstabilityError(f"matrix has a non-finite entry at n={self.n}") from None
        return M

    def max_abs_entry(self) -> float:
        return float(max(self.entries.max(), -self.entries.min()))


def sample_wig(n: int, lam: float, noise_kind: str, planted: bool,
               rng: np.random.Generator, alpha: float | None = None) -> WigInstance:
    """Draw one read-only instance, 2 <= n <= MAX_EIG_SIZE.

    The mixed model's planted side uses sech noise, its null a fair branch
    between sech and heavy.  The noise triangle is drawn before the spike
    signs, so ``lam=0`` planted instances equal null instances.  A given
    alpha is checked for every noise kind, though sech noise does not use it.
    """
    check_range("n", n, 2, MAX_EIG_SIZE)
    # before any draw: a rejected call leaves rng untouched
    check_float("lambda", lam, 0, closed=True)
    if alpha is not None or noise_kind in ("heavy", "mixed"):
        # the mixed planted side never reaches the heavy sampler
        check_float("alpha", alpha, 1, owner="heavy noise")
    if noise_kind not in NOISE_KINDS:
        raise DomainError(f"unknown noise kind {noise_kind!r} "
                          f"(expected one of {sorted(NOISE_KINDS)})")

    branch = (1 if planted else int(rng.integers(1, 3))) if noise_kind == "mixed" else None
    size = n * (n - 1) // 2
    if noise_kind == "sech" or branch == 1:
        entries = _SECH.sample(0.0, rng, size)
    else:  # heavy noise, or the mixed null's heavy branch
        # (1 + x^2)^(-alpha/2) is Student t with alpha-1 dof, scaled
        df = alpha - 1.0
        entries = rng.standard_t(df, size=size)
        entries /= math.sqrt(df)
    spike = None
    if planted:
        spike = rng.choice([-1.0, 1.0], size=n)
        cs = (lam / math.sqrt(n)) * spike
        for i, row in _rows(entries, n):
            # spike[j] * spike[i] * c is exactly +-cs[j]
            if spike[i] > 0:
                row += cs[i + 1:]
            else:
                row -= cs[i + 1:]
    return WigInstance(lam=lam, entries=entries, spike=spike, branch=branch)


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
    never solve an eigenproblem, so nothing imports it earlier.

    Unless the caller has set ``OPENBLAS_THREAD_TIMEOUT`` or its alias
    ``GOTO_THREAD_TIMEOUT`` (set either to override), the first call sets
    ``OPENBLAS_THREAD_TIMEOUT=20`` before the import: OpenBLAS's idle worker
    thread then spins 2^20 cycles (about 0.5 ms) after a BLAS call before it
    sleeps, not the default 2^28 (about 128 ms).  That outlasts a Lanczos
    step (about 0.3 ms at n = 2000) but not the sampling, fill and quotient
    between two solves, which the worker used to spend burning a core.
    OpenBLAS reads the variable once, as scipy loads its BLAS, so it has no
    effect in a process that loaded that BLAS earlier (pytest, or
    ``perfbench/run.py --trace 1``, whose tracer imports
    ``scipy.sparse.linalg`` first).  It moves no computed number: the thread
    count and each BLAS call's split of its work stay the same, and
    ``top_eigenvalue`` fixes the Lanczos restart generator."""
    if "OPENBLAS_THREAD_TIMEOUT" not in os.environ and "GOTO_THREAD_TIMEOUT" not in os.environ:
        os.environ["OPENBLAS_THREAD_TIMEOUT"] = "20"
    import scipy.linalg.blas
    import scipy.sparse.linalg

    return scipy.linalg.blas, scipy.sparse.linalg


def eigsh(*args, **kwargs):
    """scipy's ARPACK Lanczos solver.  ``top_eigenvalue`` calls it through
    this module attribute, so it can be replaced under this one name."""
    return _scipy_solver()[1].eigsh(*args, **kwargs)


def top_eigenvalue(inst: WigInstance, transform=None) -> float:
    """Largest (signed) eigenvalue of T = transform(Y) (Y itself for None).

    Lanczos iteration on the float32 ``inst.matrix(transform)``, each step
    a symmetric matvec over its lower triangle, from a fixed start vector
    and with a fixed restart generator, finds the top eigenvector v;
    a dense solve of the upcast matrix (which reads that triangle too) runs
    only when ARPACK raises on a finite matrix: silently when it rejects the
    matrix (all-zero, say), with a RuntimeWarning when Lanczos does not
    converge.  Once the matrix is freed, the value is the float64 Rayleigh
    quotient v.Tv / v.v over the packed triangle: its error is second order
    in v's, about 1e-13 relative to a float64 solve at n = 2000.  A matrix
    entry past the float32 range, an unsolvable matrix, or a value that is
    not finite raises NumericInstabilityError."""
    n = inst.n
    blas, sparse_linalg = _scipy_solver()  # before the matrix allocates; see the module docstring
    M = inst.matrix(transform)
    # fixed start vector and restart generator: scipy draws the default start
    # vector, and the restart after a Lanczos breakdown, from a generator
    # seeded by OS entropy, which would break byte-identical reports.  Every
    # n = 2 solve breaks down, since v0 is then an exact eigenvector.
    v0 = np.full(n, 1.0 / math.sqrt(n))
    # each matvec reads M's lower triangle, as the fallback does; f2py takes
    # a Fortran-ordered float32 M without copying it
    op = sparse_linalg.LinearOperator(
        (n, n), matvec=lambda x: blas.ssymv(1.0, M, x, lower=1), dtype=np.float64)
    try:
        v = eigsh(op, k=1, which="LA", tol=1e-8, v0=v0, rng=np.random.default_rng(0))[1][:, 0]
    except sparse_linalg.ArpackError as exc:  # ArpackNoConvergence is one too
        if not np.isfinite(M).all():  # no eigenvalue to find; skip the dense solve
            raise NumericInstabilityError(f"matrix has a non-finite entry at n={n}") from exc
        if isinstance(exc, sparse_linalg.ArpackNoConvergence):
            warnings.warn(f"Lanczos did not converge at n={n}; "
                          "falling back to a dense eigen-solve",
                          RuntimeWarning, stacklevel=2)
        try:
            v = np.linalg.eigh(M.astype(np.float64))[1][:, -1]
        except np.linalg.LinAlgError as err:
            raise NumericInstabilityError(f"eigen-solver failed: {err}") from err
    del M  # freed before the quotient transforms its blocks
    half = 0.0  # v.Tv / 2, over the strictly upper triangle
    with np.errstate(over="ignore"):  # a transform's overflow; a non-finite value raises below
        for i, row in _rows(inst.entries, n, transform):
            half += v[i] * (row @ v[i + 1:])
    value = float(2.0 * half / (v @ v))
    if not math.isfinite(value):
        raise NumericInstabilityError(f"top eigenvalue is {value} at n={n}")
    return value


def _eigen_test(inst: WigInstance, transform, sigma: float) -> TestVerdict:
    """Threshold the top eigenvalue of transform(Y) / sqrt(n), transform entrywise.

    Null bulk edge 2*sigma, planted outlier lambda + sigma^2/lambda once
    lambda > sigma; the threshold is their midpoint (infinite at lambda = 0)."""
    lam = inst.lam
    stat = top_eigenvalue(inst, transform) / math.sqrt(inst.n)
    thr = math.inf if lam == 0 else 0.5 * (2.0 * sigma + lam + sigma**2 / lam)
    return TestVerdict("p" if stat >= thr else "q", stat, thr)


def pca_test(inst: WigInstance) -> TestVerdict:
    """The eigenvalue test on Y itself: edge 2, outlier lambda + 1/lambda."""
    return _eigen_test(inst, None, 1.0)


def score_transform(y):
    """Fisher-normalized score of the sech density.

    (pi/2) tanh(pi y / 2) is minus the log-derivative of the density; its
    second moment under the noise is the Fisher information 1/lambda_star^2,
    so the lambda_star^2 multiple has null entry variance lambda_star^2 and
    bulk edge 2*lambda_star.  The input array is read, never written: the
    result is one fresh buffer, transformed in place."""
    t = np.multiply(y, math.pi / 2.0)
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

def entrywise_ldlr_exact(n: int, lam: float, D: int) -> float:
    """Exact sum of squared components over all k with max_e k_e <= D.

    The surviving multi-indices are those giving every vertex an even
    incident degree; the sum factorizes over edges into even/odd weights
    and over sign vectors into the positive-sign count (see the module
    docstring).  Caps: n <= MAX_EXACT_N; D is any degree the translation
    table builds (0..MAX_TABLE_DEGREE), which the table build checks.
    """
    check_range("n", n, 2, MAX_EXACT_N)
    check_float("lambda", lam)
    table = build_translation_table(D)
    s = lam / math.sqrt(n)
    try:
        tau_sq = [float(table.eval(k, s)) ** 2 for k in range(D + 1)]
    except OverflowError:  # a square past the float range
        tau_sq = [math.inf]
    if not all(map(math.isfinite, tau_sq)):
        raise NumericInstabilityError(f"tau-hat weights at lambda / sqrt(n) = {s} are not finite")
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


def overlap_chi2_mc(c: float, n: int, samples: int,
                    rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo of E exp(c <x1,x2>^2 / 2n) over sign-vector pairs.

    The overlap law is 2*Binomial(n, 1/2) - n.  For c >= 1 the limit
    diverges; overflowing draws propagate an inf estimate."""
    check_range("samples", samples, 1)
    h = 2.0 * rng.binomial(n, 0.5, size=samples) - n
    with np.errstate(over="ignore"):
        vals = np.exp(c * h * h / (2.0 * n))
    return _mc_summary(vals)


def entrywise_coefficient(n: int, lam: float, D: int) -> float:
    """The constant c multiplying <x1,x2>^2/(2n) in the bound; even in lambda."""
    check_range("D", D, 1)
    check_float("lambda", lam)
    try:
        power = (math.e * D) ** (2.0 * abs(lam) / math.sqrt(n))
    except OverflowError:
        raise NumericInstabilityError(f"entrywise coefficient overflows at lambda={lam}") from None
    return power * lam * lam * (1.0 / LAMBDA_STAR**2 - 1.0 / (3.0 * D))


def entrywise_ldlr_mc_bound(n: int, lam: float, D: int, samples: int,
                            rng: np.random.Generator) -> tuple[float, float, float]:
    """Monte Carlo of the chi-square functional dominating the exact sum, as
    (c, estimate, stderr) with c from :func:`entrywise_coefficient`."""
    check_range("n", n, 2)
    c = entrywise_coefficient(n, lam, D)  # checks D >= 1 before the regime test divides by D
    if abs(lam) >= LAMBDA_STAR + 1.0 / (20.0 * D):
        warnings.warn(
            f"|lambda|={abs(lam)} is at or above the bounded regime "
            f"lambda_star + 1/(20 D) = {LAMBDA_STAR + 1 / (20 * D):.4f}; "
            "the estimate may diverge",
            stacklevel=2,
        )
    return (c, *overlap_chi2_mc(c, n, samples, rng))


# ---------------------------------------------------------------------------
# empirical power
# ---------------------------------------------------------------------------

_TESTS = {"pca": pca_test, "tpca": tpca_test, "mixed": mixed_test}


def power_curve(test_id: str, noise_kind: str, lams, n: int, trials: int,
                rng: np.random.Generator, alpha: float | None = None) -> list[tuple[float, float]]:
    """Empirical rates of one test across signal strengths, as one
    (type_i, type_ii) pair per lambda: the shares of null instances labelled
    planted and of planted instances labelled null.  Each lambda draws its
    ``trials`` null instances, then its ``trials`` planted ones."""
    if test_id not in _TESTS:
        raise DomainError(f"unknown test {test_id!r} (expected one of {sorted(_TESTS)})")
    check_range("trials", trials, 1)
    lams = list(lams)
    for lam in lams:  # every point before the first draw: a rejected call leaves rng untouched
        check_float("lambda", lam, 0, closed=True)
    test = _TESTS[test_id]

    def rate(lam: float, planted: bool, wrong: str) -> float:
        return sum(test(sample_wig(n, lam, noise_kind, planted, rng, alpha=alpha)).label == wrong
                   for _ in range(trials)) / trials

    return [(rate(lam, False, "p"), rate(lam, True, "q")) for lam in lams]

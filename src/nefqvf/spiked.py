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
lambda > lambda_star.

Memory: an instance is one n x n buffer, built beside the packed noise
triangle with the spike added row by row, and ``tpca_test`` allocates one
more for the transformed matrix; no other n x n array is made on the way.

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
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

from .errors import DomainError, NumericInstabilityError
from .families import Family, binomial_log_weights
from .ldlr import _mc_summary
from .translation import build_translation_table

LAMBDA_STAR = 2.0 * math.sqrt(2.0) / math.pi
MAX_EIG_SIZE = 4000  # largest n an instance may have
NOISE_KINDS = ("sech", "heavy", "mixed")
_MIRROR_ROWS = 64  # row block of the triangle mirror in sample_wig
_SCORE_SCALE = LAMBDA_STAR**2 * (math.pi / 2.0)

_SECH = Family.sech()


def lambda_star() -> float:
    """Critical signal strength for sech noise, 2*sqrt(2)/pi."""
    return LAMBDA_STAR


def heavy_pdf(alpha: float, x: float) -> float:
    """Normalized density proportional to (1 + x^2)^(-alpha/2)."""
    if alpha <= 1:
        raise DomainError(f"heavy noise needs alpha > 1, got {alpha}")
    # the Gamma ratio in log space: math.gamma overflows past alpha ~ 343
    c = math.exp(math.lgamma(alpha / 2) - math.lgamma((alpha - 1) / 2)) / math.sqrt(math.pi)
    return c * (1.0 + x * x) ** (-alpha / 2)


def sample_noise(kind: str, size: int, rng: np.random.Generator,
                 alpha: float | None = None) -> np.ndarray:
    if kind == "sech":
        return _SECH.sample(0.0, rng, size)
    if kind == "heavy":
        if alpha is None or alpha <= 1:
            raise DomainError(f"heavy noise needs alpha > 1, got {alpha}")
        # (1 + x^2)^(-alpha/2) is Student t with alpha-1 dof, scaled
        df = alpha - 1.0
        t = rng.standard_t(df, size=size)
        t /= math.sqrt(df)
        return t
    raise DomainError(f"unknown noise kind {kind!r}")


@dataclass(frozen=True)
class WigInstance:
    """One observation matrix, read-only from construction on, with hidden
    truth kept for scoring."""

    n: int
    lam: float
    noise_kind: str
    alpha: float | None
    Y: np.ndarray  # symmetric n x n, zero diagonal
    planted: bool
    spike: np.ndarray | None = None
    branch: int | None = None  # mixed null: 1 = sech, 2 = heavy

    def __post_init__(self):
        # a view, not a copy: an n = 2000 instance keeps a single 32 MB buffer
        Y = self.Y.view()
        Y.flags.writeable = False
        object.__setattr__(self, "Y", Y)

    def matrix(self) -> np.ndarray:
        """Symmetric matrix with zero diagonal: the instance's own read-only buffer."""
        return self.Y

    def max_abs_entry(self) -> float:
        return float(max(self.Y.max(), -self.Y.min()))


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
    if lam < 0:
        raise DomainError(f"need lambda >= 0, got {lam}")
    if noise_kind not in NOISE_KINDS:
        raise DomainError(f"unknown noise kind {noise_kind!r}")
    if noise_kind in ("heavy", "mixed") and (alpha is None or alpha <= 1):
        raise DomainError(f"{noise_kind} noise needs alpha > 1, got {alpha}")

    branch = None
    if noise_kind == "mixed":
        branch = 1 if planted else int(rng.integers(1, 3))
        entry_kind = "sech" if branch == 1 else "heavy"
    else:
        entry_kind = noise_kind
    noise = sample_noise(entry_kind, n * (n - 1) // 2, rng, alpha=alpha)
    spike = rng.choice([-1.0, 1.0], size=n) if planted else None
    c = lam / math.sqrt(n)
    Y = np.zeros((n, n))
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
    return WigInstance(
        n=n, lam=lam, noise_kind=noise_kind, alpha=alpha, Y=Y,
        planted=planted, spike=spike, branch=branch,
    )


# ---------------------------------------------------------------------------
# eigenvalue tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestVerdict:
    label: str  # "p" | "q"
    statistic: float
    threshold: float


def top_eigenvalue(M: np.ndarray) -> float:
    """Largest (signed) eigenvalue of a symmetric matrix.

    Lanczos iteration on the dense matrix, with a direct dense solve as
    fallback for the degenerate cases ARPACK rejects (tiny or all-zero
    matrices) and, with a RuntimeWarning, for Lanczos non-convergence; an
    unsolvable matrix surfaces as an error."""
    n = M.shape[0]
    if n >= 10:
        # fixed start vector: the default draws from numpy's global RNG,
        # which would break byte-identical reports
        v0 = np.full(n, 1.0 / math.sqrt(n))
        try:
            return float(eigsh(M, k=1, which="LA", tol=1e-8, v0=v0,
                               return_eigenvectors=False)[0])
        except ArpackNoConvergence:
            warnings.warn(f"Lanczos did not converge at n={n}; "
                          "falling back to a dense eigen-solve",
                          RuntimeWarning, stacklevel=2)
        except ArpackError:
            pass
    try:
        return float(np.linalg.eigvalsh(M)[-1])
    except np.linalg.LinAlgError as exc:
        raise NumericInstabilityError(f"eigen-solver failed: {exc}") from exc


def _eigen_test(inst: WigInstance, lam: float | None, transform,
                sigma: float) -> TestVerdict:
    """Threshold the top eigenvalue of transform(Y) / sqrt(n).

    Null bulk edge 2*sigma, planted outlier lambda + sigma^2/lambda once
    lambda > sigma; the threshold is their midpoint (infinite at lambda = 0)."""
    lam = inst.lam if lam is None else lam
    if lam < 0:
        raise DomainError("the eigenvalue tests need lambda >= 0")
    stat = top_eigenvalue(transform(inst.matrix())) / math.sqrt(inst.n)
    thr = math.inf if lam == 0 else 0.5 * (2.0 * sigma + lam + sigma**2 / lam)
    return TestVerdict("p" if stat >= thr else "q", stat, thr)


def pca_test(inst: WigInstance, lam: float | None = None) -> TestVerdict:
    """The eigenvalue test on Y itself (no copy): edge 2, outlier lambda + 1/lambda."""
    return _eigen_test(inst, lam, lambda y: y, 1.0)


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


def tpca_test(inst: WigInstance, lam: float | None = None) -> TestVerdict:
    """The eigenvalue test after the entrywise score transform.

    Edge 2*lambda_star, outlier lambda + lambda_star^2/lambda: detects down
    to lambda_star, below the plain test's critical value of 1."""
    return _eigen_test(inst, lam, score_transform, LAMBDA_STAR)


def mixed_test(inst: WigInstance, lam: float | None = None) -> TestVerdict:
    """Examine the entrywise maximum, then fall through to the score test.

    A maximum above 10 log n is implausible under sech noise (whose
    maximum concentrates near (4/pi) log n) but typical for heavy tails,
    so such instances are labeled null outright."""
    cutoff = 10.0 * math.log(inst.n)
    m = inst.max_abs_entry()
    if m > cutoff:
        return TestVerdict("q", m, cutoff)
    return tpca_test(inst, lam=lam)


# ---------------------------------------------------------------------------
# entrywise-degree-bounded likelihood-ratio mass
# ---------------------------------------------------------------------------

MAX_EXACT_N = 10**6  # keeps the O(n) work arrays small
MAX_EXACT_D = 3


def _sign_count_mean(log_values: np.ndarray, signs=1.0) -> float:
    """E[signs[P] exp(log_values[P])] for P ~ Binomial(n, 1/2), n = len - 1.

    Summed in log space with the pmf normalised to total one, so a constant
    log_values gives exactly that constant; the result may overflow to inf.
    """
    log_w = binomial_log_weights(len(log_values) - 1)
    log_terms = log_w + log_values
    top, w_top = float(np.max(log_terms)), float(np.max(log_w))
    ratio = np.sum(signs * np.exp(log_terms - top)) / np.sum(np.exp(log_w - w_top))
    with np.errstate(over="ignore"):
        return float(ratio * np.exp(top - w_top))


def entrywise_ldlr_exact(n: int, lam: float, D: int) -> float:
    """Exact sum of squared components over all k with max_e k_e <= D.

    The surviving multi-indices are those giving every vertex an even
    incident degree; the sum factorizes over edges into even/odd weights
    and over sign vectors into the positive-sign count (see the module
    docstring).  Caps: n <= MAX_EXACT_N, D <= 3.
    """
    if not 2 <= n <= MAX_EXACT_N:
        raise DomainError(f"need 2 <= n <= {MAX_EXACT_N}, got {n}")
    if not 0 <= D <= MAX_EXACT_D:
        raise DomainError(f"need 0 <= D <= {MAX_EXACT_D}, got {D}")
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
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if test_id == "mixed" and noise_kind != "mixed":
        raise DomainError("the mixed test runs on mixed-model instances")
    test = _TESTS[test_id]
    rows = []
    for lam in lams:
        false_p = sum(
            test(sample_wig(n, lam, noise_kind, False, rng, alpha=alpha), lam=lam).label == "p"
            for _ in range(trials)
        )
        false_q = sum(
            test(sample_wig(n, lam, noise_kind, True, rng, alpha=alpha), lam=lam).label == "q"
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

"""Low-degree likelihood-ratio norms for spiked product models.

A testing instance observes N independent coordinates; under the null,
coordinate i follows the family member with mean mu_i, and under the
alternative a hidden vector x is drawn from a prior and either replaces the
means ("kin" spiking) or is added to null noise ("additive" spiking).

The squared norm of the likelihood ratio projected onto polynomials of
total degree at most D decomposes over the orthonormal product basis.  For
kin spiking the component at multi-index k is

    sqrt(prod_i a_hat_{k_i}(v2) / prod_i k_i!) * E_x[ prod_i z_{mu_i}(x_i)^{k_i} ],

computable exactly for finitely-supported priors.  Squaring the
expectation as a double sum over prior atoms a, b makes each term factor
over coordinates, so the degree-D norm is a truncated generating-function
product

    sum_{a,b} p_a p_b [t^{<=D}] prod_i sum_k (a_hat_k(v2)/k!) (z_ai z_bi t)^k,

at cost O(atoms^2 N D^2).  The same sum is controlled by the scalar
overlap r = <z(x^1), z(x^2)> of two independent prior draws through
E[f_trunc(D, v2)(r)] — an equality when v2 = 0, an upper bound when
v2 > 0, and a lower bound (with E[f_trunc(D, 0)(r)] as the matching
upper bound) when v2 < 0.  Both routes are implemented and
cross-checked in the test suite.

Z-scores come from one array map of rows of mean vectors,
:meth:`KinSpikedModel.z_scores`; the overlap route applies f to whole arrays
of overlaps (``probs @ f(Z Z^T) @ probs``).  Its Monte Carlo form and the
block-model scan evaluate their series once per distinct overlap (a drawn
atom pair, or a sign count) and gather the value per draw.
``channel_compare`` feeds the exact sum (``_kin_norm``, which sees the
family only through v2) its prior's z-offsets themselves, and per family
only checks the realized means.

Exact norms are restricted to atom priors; sampler-backed priors feed only
the Monte Carlo overlap estimates.  Every atom-only route reads the prior
through :meth:`SpikePrior.atom_arrays`, the one place that rejects a
sampler-backed prior.

The overlap of two uniform sign vectors is 2P - n with P ~ Binomial(n, 1/2).
Exact means over P run here in log space (``_sign_count_mean``), and the
block-model scan draws P from a CDF table; both tables stop at n =
MAX_EXACT_N.  ``spiked.overlap_chi2_mc`` still draws P itself with
``rng.binomial``, because the benchmark's entrywise-bound reference CSV
pins those draws; ROADMAP item 2 replaces both samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import CapExceededError, DomainError, NumericInstabilityError, check_float, check_range
from .families import Family
from .orthopoly import f_eval, f_ratios, f_trunc
from .translation import build_translation_table

# documented work bound: atoms^2 * N * (D+1)^2 for an exact norm, and (D+1)
# times the number of distinct arguments for a degree-D series evaluation
ENUM_CAP = 10**7


# ---------------------------------------------------------------------------
# instance types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpikePrior:
    """Finitely-supported or sampler-backed distribution of the hidden vector.

    ``kind`` is "kin" (vectors are mean vectors) or "additive" (shifts).
    Exactly one of ``atoms`` / ``sampler`` is set; atom coordinates must be
    finite and atom probabilities must sum to one within 1e-12.
    """

    kind: str
    atoms: tuple | None = None
    sampler: Callable[[np.random.Generator], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("kin", "additive"):
            raise DomainError(f"prior kind must be kin or additive, got {self.kind!r}")
        if (self.atoms is None) == (self.sampler is None):
            raise DomainError("exactly one of atoms/sampler must be given")
        if self.atoms is not None:
            total = sum(p for _, p in self.atoms)
            if not abs(total - 1.0) <= 1e-12:  # NaN fails too
                raise DomainError(f"atom probabilities sum to {total}, not 1")
            if any(p < 0 for _, p in self.atoms):
                raise DomainError("atom probabilities must be non-negative")
            if not all(math.isfinite(c) for vec, _ in self.atoms for c in vec):
                raise DomainError("atom coordinates must be finite")

    @classmethod
    def from_atoms(cls, kind: str, atoms) -> "SpikePrior":
        frozen = tuple((tuple(float(c) for c in vec), float(p)) for vec, p in atoms)
        return cls(kind=kind, atoms=frozen)

    @classmethod
    def from_sampler(cls, kind: str, sampler) -> "SpikePrior":
        return cls(kind=kind, sampler=sampler)

    def atom_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (atoms, N) array of atom vectors and the array of their
        probabilities; a sampler-backed prior raises DomainError."""
        if self.atoms is None:
            raise DomainError("this route requires an atom prior, not a sampler")
        return np.array([vec for vec, _ in self.atoms]), np.array([p for _, p in self.atoms])


@dataclass(frozen=True)
class _SpikedModel:
    """Null means in the mean domain; a prior of ``prior_kind``, atoms of length N."""

    family: Family
    null_means: tuple
    prior: SpikePrior

    def __post_init__(self):
        object.__setattr__(self, "null_means", tuple(float(m) for m in self.null_means))
        if self.prior.kind != self.prior_kind:
            raise DomainError(f"{type(self).__name__} requires prior kind {self.prior_kind}")
        self.family._check_mean(np.array(self.null_means), "null mean")
        if self.prior.atoms is not None and any(len(vec) != self.N for vec, _ in self.prior.atoms):
            raise DomainError("prior atom dimension differs from N")

    @property
    def N(self) -> int:
        return len(self.null_means)


@dataclass(frozen=True)
class KinSpikedModel(_SpikedModel):
    prior_kind: ClassVar[str] = "kin"

    def __post_init__(self):
        super().__post_init__()
        if self.prior.atoms is not None:
            self.family._check_mean(self.prior.atom_arrays()[0], "kin atom coordinate")

    def z_scores(self, means) -> np.ndarray:
        """Rows of mean vectors to rows of z-scores against the null means."""
        x = np.asarray(means, dtype=float)
        if x.shape[-1:] != (self.N,):
            raise DomainError(f"mean vectors of shape {x.shape} do not have length N={self.N}")
        return self.family.z_score(np.array(self.null_means), x)


@dataclass(frozen=True)
class AdditiveSpikedModel(_SpikedModel):
    prior_kind: ClassVar[str] = "additive"


# ---------------------------------------------------------------------------
# truncated generating-function products
# ---------------------------------------------------------------------------

def _check_bound(formula: str, work: int) -> None:
    """Raise CapExceededError if ``work``, the value of ``formula``, exceeds ENUM_CAP."""
    if work > ENUM_CAP:
        raise CapExceededError(f"{formula} = {work} exceeds the work bound {ENUM_CAP}")


def _check_work(prior: SpikePrior, N: int, D: int) -> tuple[np.ndarray, np.ndarray]:
    """The prior's atom arrays, once D >= 0 and the work bound at length N hold."""
    vecs, probs = prior.atom_arrays()
    check_range("D", D, 0)
    _check_bound("atoms^2 * N * (D+1)^2", len(probs) ** 2 * N * (D + 1) ** 2)
    return vecs, probs


def _pair_gf_sum(probs: np.ndarray, factors, D: int) -> float:
    """sum_{a,b} p_a p_b [t^{<=D}] prod_i F_i(a, b; t).

    ``factors`` yields, per coordinate i, the (A, A, K+1) coefficients of
    the polynomial F_i in t, with K <= D.  A sum that is not finite raises
    NumericInstabilityError, and the overflow on the way warns nothing.
    """
    A = len(probs)
    acc = np.zeros((A, A, D + 1))
    acc[:, :, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # factors are made lazily here
        for f in factors:
            nxt = acc * f[:, :, :1]
            for k in range(1, f.shape[2]):
                nxt[:, :, k:] += acc[:, :, :D + 1 - k] * f[:, :, k:k + 1]
            acc = nxt
        total = float(probs @ acc.sum(axis=2) @ probs)
    if not math.isfinite(total):
        raise NumericInstabilityError(f"degree-{D} norm sum is not finite: {total}")
    return total


# ---------------------------------------------------------------------------
# exact component sums (kin)
# ---------------------------------------------------------------------------

def _kin_norm(Z: np.ndarray, probs: np.ndarray, v2: float, D: int) -> float:
    """Degree-D kin norm of atoms with z-score rows Z (atoms, N) and
    probabilities ``probs``; the family enters through v2 alone."""
    ratios = np.array(f_ratios(D, v2))  # (a_hat_k/k!) w^k: a running product of w * ratio
    ones = np.ones((len(probs), len(probs), 1))
    factors = (
        np.concatenate([ones, np.cumprod(np.outer(z, z)[:, :, None] * ratios, axis=2)], axis=2)
        for z in Z.T
    )
    return _pair_gf_sum(probs, factors, D)


def ldlr_exact(model: KinSpikedModel, D: int) -> float:
    """Exact squared norm of the degree-D projection, as a truncated
    generating-function product over coordinates."""
    vecs, probs = _check_work(model.prior, model.N, D)
    return _kin_norm(model.z_scores(vecs), probs, model.family.v2, D)


def _f_or_trunc(D: int | None, v: float, points: int) -> Callable:
    """f(.; v) for D None, else its order-D truncation, once its evaluation
    at ``points`` distinct arguments holds the work bound; a negative D raises."""
    if D is not None:
        _check_bound("(D+1) * points", (D + 1) * points)
    return (lambda t: f_eval(t, v)) if D is None else f_trunc(D, v)


def overlap_bound_exact(model: KinSpikedModel, D: int | None) -> float:
    """E over prior pairs of f_trunc(D, v2)(r), r the z-score overlap.

    D None uses the untruncated f.  This is the overlap route to the same
    quantity as :func:`ldlr_exact` (equal at v2 = 0) and is kept
    algorithmically independent of it; the two share only the coefficient
    ratios :func:`~nefqvf.orthopoly.f_ratios`.
    """
    vecs, probs = model.prior.atom_arrays()
    Z = model.z_scores(vecs)
    return float(probs @ _f_or_trunc(D, model.family.v2, len(probs) ** 2)(Z @ Z.T) @ probs)


# ---------------------------------------------------------------------------
# exact component sums (additive, sech at mean zero)
# ---------------------------------------------------------------------------

def ldlr_exact_additive(model: AdditiveSpikedModel, D: int) -> float:
    """Exact degree-D squared norm for additive spiking of mean-zero sech noise.

    The generating-function product of :func:`ldlr_exact` with coefficients
    tau_hat_k(x_ai) tau_hat_k(x_bi); every degree up to D contributes."""
    if model.family.kind != "sech":
        raise DomainError("additive exact norms require the sech family")
    if any(mu != 0.0 for mu in model.null_means):
        raise DomainError("additive exact norms require all null means zero")
    X, probs = _check_work(model.prior, model.N, D)
    table = build_translation_table(D)
    with np.errstate(over="ignore"):  # tau[a, i, k] = tau_hat_k at coordinate i of atom a
        tau = np.stack([table.eval(k, X) for k in range(D + 1)], axis=2)
    factors = (t[:, None, :] * t[None, :, :] for t in tau.transpose(1, 0, 2))
    return _pair_gf_sum(probs, factors, D)


# ---------------------------------------------------------------------------
# Monte Carlo overlap bounds
# ---------------------------------------------------------------------------

def _mc_summary(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error, inf for an infinite mean; a NaN mean raises.

    A spread whose squares leave the float range is taken of the values
    over their largest magnitude and scaled back."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in the sum: raised below
        value, spread = float(vals.mean()), float(vals.std())
        if math.isfinite(value) and not math.isfinite(spread):
            scale = np.abs(vals).max()
            spread = float(scale * (vals / scale).std())
    if math.isnan(value):
        raise NumericInstabilityError(f"Monte Carlo estimate is not a number: {value}")
    return value, spread / math.sqrt(vals.size) if math.isfinite(value) else math.inf


def _pair_overlaps(model: KinSpikedModel, samples: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | slice]:
    """Overlaps r of ``samples`` independent pairs of prior draws, as the
    overlaps of the distinct pairs and each draw's index into them: ``r[index]``
    is the per-draw array.  An atom prior takes the z-score row dot product
    once per distinct drawn pair (i1, i2), at most min(atoms^2, samples) of
    them, in O(samples) memory; sampler priors are drawn in pair order
    x1_0, x2_0, x1_1, ... and mapped at once, with index ``slice(None)``."""
    if model.prior.atoms is not None:
        vecs, probs = model.prior.atom_arrays()
        Z = model.z_scores(vecs)
        atoms = len(probs)
        code = rng.choice(atoms, p=probs, size=samples)
        code *= atoms
        code += rng.choice(atoms, p=probs, size=samples)  # i1 * atoms + i2
        pairs = np.unique(code)
        index = np.searchsorted(pairs, code)
        return np.einsum("ij,ij->i", Z[pairs // atoms], Z[pairs % atoms]), index
    Z = model.z_scores([model.prior.sampler(rng) for _ in range(2 * samples)])
    return np.einsum("ij,ij->i", Z[0::2], Z[1::2]), slice(None)


@dataclass(frozen=True)
class LdlrResult:
    """A Monte Carlo estimate of the overlap bound and its standard error
    (the exact routes return plain floats); ``upper_value`` carries the
    exp-series upper bound reported alongside the estimate for negative v2.
    ``samples`` is the caller's own count, kept because the
    ``overlap-mc-sampler`` operation of ``perfbench/workloads.py`` prints
    ``value``, ``stderr`` and ``samples`` from this record.
    """

    value: float
    stderr: float
    samples: int
    upper_value: float | None = None
    upper_stderr: float | None = None


def overlap_bound_mc(model: KinSpikedModel, D: int | None, samples: int,
                     rng: np.random.Generator) -> LdlrResult:
    """Monte Carlo estimate of E[f_trunc(D, v2)(r)] over prior pairs.

    For v2 < 0 the result also carries the exp-series value (the matching
    upper bound on the norm); for v2 > 0 with D None, +inf draws propagate
    into an infinite estimate (the singular regime).  A non-finite estimate
    has stderr inf, and a NaN one raises NumericInstabilityError.  The series
    is evaluated at the distinct overlaps, min(atoms^2, samples) of an atom
    prior and ``samples`` of a sampler, under the work bound of
    :func:`_f_or_trunc`, checked before any draw.
    """
    check_range("samples", samples, 1)
    v2, atoms = model.family.v2, model.prior.atoms
    points = samples if atoms is None else min(len(atoms) ** 2, samples)  # distinct overlaps
    f, upper = _f_or_trunc(D, v2, points), (_f_or_trunc(D, 0.0, points) if v2 < 0 else None)
    r, index = _pair_overlaps(model, samples, rng)
    value, stderr = _mc_summary(f(r)[index])
    upper_value, upper_stderr = _mc_summary(upper(r)[index]) if upper else (None, None)
    return LdlrResult(value, stderr, samples, upper_value, upper_stderr)


# ---------------------------------------------------------------------------
# channel comparison
# ---------------------------------------------------------------------------

def channel_compare(families: list[Family], null_means, z_prior: SpikePrior,
                    D: int) -> list[tuple[Family, float]]:
    """Exact degree-D norms across observation channels, as (family, norm)
    pairs sorted by v2.

    All channels share the null means and the spike prior expressed in
    z-score units (the same standardized signal passed through different
    families); only then do the norms depend on the family through the
    constants a_hat_k(v2) alone, which makes them non-decreasing in v2; the
    norm runs on the z-offsets themselves, once each channel's realized means
    mu_j + delta_j sqrt(V(mu_j)) are checked.  A violation beyond float
    tolerance raises NumericInstabilityError.
    """
    if not families:
        raise DomainError("channel_compare needs at least one family")
    if z_prior.kind != "kin":
        raise DomainError("channel_compare requires a kin prior")
    mu = np.array(null_means, dtype=float)
    if z_prior.atoms is not None and any(len(vec) != len(mu) for vec, _ in z_prior.atoms):
        raise DomainError("prior atom dimension differs from N")
    deltas, probs = _check_work(z_prior, len(mu), D)
    norms = []
    for f in sorted(families, key=lambda fam: fam.v2):
        f._check_mean(mu + deltas * np.sqrt(f.variance(mu)), "kin atom coordinate")
        norms.append((f, _kin_norm(deltas, probs, f.v2, D)))
    for (f_lo, lo), (f_hi, hi) in zip(norms, norms[1:]):
        if hi < lo - 1e-9 * max(1.0, abs(lo)):
            raise NumericInstabilityError(
                f"channel norms not monotone: v2={f_lo.v2} gives {lo}, "
                f"v2={f_hi.v2} gives {hi}"
            )
    return norms


# ---------------------------------------------------------------------------
# two-community block model threshold scan
# ---------------------------------------------------------------------------

MAX_EXACT_N = 10**6  # largest n of a Binomial(n, 1/2) table; keeps its O(n) arrays small


def binomial_log_weights(n: int) -> np.ndarray:
    """-log p! - log (n-p)!, p = 0..n: the Binomial(n, 1/2) log pmf up to
    a constant, from ``math.lgamma``; callers normalise the weights."""
    lg = np.array([math.lgamma(p + 1) for p in range(n + 1)])
    return -lg - lg[::-1]


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


def _symmetric_binomial_cdf(n: int) -> np.ndarray:
    """Binomial(n, 1/2) CDF at 0..n: running sums of the lgamma weights over
    their total, so the table is sorted and ends at exactly 1."""
    log_w = binomial_log_weights(n)
    cum = np.cumsum(np.exp(log_w - log_w.max()))
    return cum / cum[-1]


def sbm_ks_scan(n: int, D: int, grid, samples: int,
                rng: np.random.Generator) -> list[tuple[float, float]]:
    """Monte Carlo of E[f_trunc(D, 0)(r)] over uniform labelings, as one
    (estimate, stderr) pair per (a, b) of the grid.

    The overlap depends on the labelings only through <s1, s2>, whose exact
    law is 2*Binomial(n, 1/2) - n; it is drawn by searching one uniform per
    sample in a CDF table, so that scans sharing a generator state across
    different n reuse the same underlying uniforms (common random numbers).
    A uniform of 0 draws the count 0.  The series is evaluated at the n + 1
    counts and gathered per draw, under the work bound (D+1) (n+1) <=
    ENUM_CAP, and a gap (a-b)^2 past the float range raises
    NumericInstabilityError; every check runs before any draw, so a rejected
    call leaves rng untouched.
    """
    check_range("n", n, 1, MAX_EXACT_N)
    check_range("samples", samples, 1)
    grid = list(grid)
    for a, b in grid:  # every point before the first draw
        check_float("rate a", a, 0)
        check_float("rate b", b, 0)
    series = _f_or_trunc(D, 0.0, n + 1)  # f_ratios rejects a negative D
    scales = []  # (a-b)^2 / 4(a+b): the overlap is scale * (<s1, s2>^2 - n) / n
    for a, b in grid:
        try:
            scales.append((a - b) ** 2 / (4.0 * (a + b)))
        except OverflowError:
            raise NumericInstabilityError(f"(a - b)^2 overflows at a={a}, b={b}") from None
    cdf = _symmetric_binomial_cdf(n)
    dot = 2.0 * np.arange(n + 1) - n  # <s1, s2> at each count 0..n

    def estimate(scale: float) -> tuple[float, float]:
        count = np.searchsorted(cdf, rng.random(samples))
        return _mc_summary(series(scale * (dot * dot - n) / n)[count])

    return [estimate(scale) for scale in scales]

"""Spiked matrices: samplers, eigenvalue tests, entrywise-degree bounds."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from nefqvf import spiked
from nefqvf.errors import DomainError, NumericInstabilityError
from nefqvf.ldlr import MAX_EXACT_N
from nefqvf.spiked import (
    LAMBDA_STAR,
    WigInstance,
    entrywise_coefficient,
    entrywise_ldlr_exact,
    entrywise_ldlr_mc_bound,
    mixed_test,
    overlap_chi2_mc,
    pca_test,
    power_curve,
    sample_wig,
    score_transform,
    top_eigenvalue,
    tpca_test,
)
from nefqvf.translation import MAX_TABLE_DEGREE, build_translation_table

from helpers import heavy_pdf, overlap_chi2_exact, wig_matrix_float64, wig_matrix_from_triangle


def test_lambda_star_value():
    assert LAMBDA_STAR == pytest.approx(2 * math.sqrt(2) / math.pi)
    assert LAMBDA_STAR == pytest.approx(0.9003163161571062)
    assert LAMBDA_STAR < 1.0


def test_lambda_star_matches_fisher_information():
    # quadrature oracle: lambda_star = (int w'(x)^2 / w(x) dx)^(-1/2);
    # the tail beyond |x| = 40 holds less than e^-60 of the integral
    w = lambda x: 0.5 / math.cosh(math.pi * x / 2)
    h = 1e-6
    integrand = lambda x: ((w(x + h) - w(x - h)) / (2 * h)) ** 2 / w(x)
    fisher, _ = quad(integrand, -40.0, 40.0, limit=200)
    assert fisher ** -0.5 == pytest.approx(LAMBDA_STAR, abs=1e-6)


def test_heavy_density_and_tail_mass():
    assert heavy_pdf(3.0, 0.0) == pytest.approx(0.5)
    # the normalizer's Gamma ratio ~ sqrt(alpha / 2) stays finite past the
    # point where math.gamma overflows
    assert heavy_pdf(400.0, 0.0) == pytest.approx(math.sqrt(199.25 / math.pi), rel=1e-3)
    total, _ = quad(lambda x: heavy_pdf(2.5, x), -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)
    # a heavy null's triangle is the noise as drawn: 895 * 894 / 2 = 400065
    # Student t draws
    draws = sample_wig(895, 1.0, "heavy", False, np.random.default_rng(8), alpha=3.0).entries
    tail, _ = quad(lambda x: heavy_pdf(3.0, x), 10.0, np.inf)
    want = 2 * tail
    got = np.mean(np.abs(draws) > 10.0)
    se = math.sqrt(want * (1 - want) / draws.size)
    assert abs(got - want) < 4 * se


def test_sech_entries_variance():
    rng = np.random.default_rng(21)
    inst = sample_wig(500, 0.0, "sech", planted=False, rng=rng)
    off = inst.entries
    v = off.var()
    se = math.sqrt(np.mean(off**4) / off.size)
    assert abs(v - 1.0) < 4 * se


def test_zero_signal_matches_null_draws():
    a = sample_wig(40, 0.0, "sech", planted=True, rng=np.random.default_rng(5))
    b = sample_wig(40, 0.0, "sech", planted=False, rng=np.random.default_rng(5))
    np.testing.assert_array_equal(a.entries, b.entries)


@pytest.mark.parametrize("n", [2, 3, 57, 300])
@pytest.mark.parametrize("noise", ["sech", "heavy", "mixed"])
@pytest.mark.parametrize("planted", [False, True])
def test_sample_wig_matches_triangle_construction(n, noise, planted):
    # the same generator state gives the same triangle bit for bit, so the
    # reports' eigenvalue statistics keep their values for a fixed seed
    for seed in (0, 1, 2, 3):
        args = (n, 1.3, noise, planted)
        inst = sample_wig(*args, np.random.default_rng(seed), alpha=3.0)
        want = wig_matrix_from_triangle(*args, np.random.default_rng(seed), alpha=3.0)
        assert inst.entries.tobytes() == want.tobytes(), seed
        assert inst.max_abs_entry() == np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 7, 300])
def test_rows_are_slices_of_the_packed_triangle(n):
    # row i holds the entries (i, j), j > i, as a view of the triangle, not a copy
    entries = np.arange(n * (n - 1) // 2, dtype=np.float64)
    pairs = list(spiked._rows(entries, n))
    assert [i for i, _ in pairs] == list(range(n - 1))
    rows = [row for _, row in pairs]
    assert [row.size for row in rows] == [n - 1 - i for i in range(n - 1)]
    assert all(row.base is entries for row in rows)
    assert np.concatenate(rows).tobytes() == entries.tobytes()
    # a transform runs once per block of 64 rows (n = 300 spans five)
    calls = []

    def f(y):
        calls.append(y.size)
        return score_transform(y)

    pairs = list(spiked._rows(entries, n, f))
    assert [i for i, _ in pairs] == list(range(n - 1))
    got = np.concatenate([row for _, row in pairs])
    assert got.tobytes() == score_transform(entries).tobytes()
    assert len(calls) == math.ceil((n - 1) / 64)


def test_sample_wig_matrix_is_read_only():
    inst = sample_wig(10, 1.0, "sech", True, np.random.default_rng(0))
    entries = inst.entries
    with pytest.raises(ValueError):
        entries[0] = 5.0
    with pytest.raises(ValueError):
        entries += 1.0
    # each test gets a fresh buffer of its own
    assert inst.matrix().flags.writeable and not np.shares_memory(inst.matrix(), entries)


def test_sample_wig_validation():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        sample_wig(1, 1.0, "sech", False, rng)
    with pytest.raises(DomainError):
        sample_wig(10, -0.5, "sech", False, rng)
    with pytest.raises(DomainError, match="unknown noise kind 'laplace'"):
        sample_wig(10, 1.0, "laplace", True, rng)
    with pytest.raises(DomainError):
        sample_wig(10, 1.0, "heavy", False, rng)  # alpha missing
    with pytest.raises(DomainError):
        sample_wig(10, 1.0, "mixed", False, rng, alpha=1.0)
    with pytest.raises(DomainError):
        sample_wig(5000, 1.0, "sech", False, rng)
    assert rng.bit_generator.state == state  # every rejection comes before the first draw


def test_matrix_assembly_and_permutation_invariance():
    rng = np.random.default_rng(3)
    inst = sample_wig(60, 1.2, "sech", planted=True, rng=rng)
    M = inst.matrix()
    # Fortran-ordered float32, entry (i, j) of the triangle at M[j, i], zero
    # on and above the diagonal; a transform runs in float64 before the cast
    upper = np.triu_indices(60, k=1)
    assert M.dtype == np.float32 and M.flags.f_contiguous and not np.triu(M).any()
    assert M.T[upper].tobytes() == inst.entries.astype(np.float32).tobytes()
    t = inst.matrix(score_transform)
    assert t.dtype == np.float32
    assert t.T[upper].tobytes() == score_transform(inst.entries).astype(np.float32).tobytes()
    # relabeling the vertices permutes Y and keeps its spectrum
    Y = wig_matrix_float64(inst)
    Y += Y.T
    perm = rng.permutation(60)
    permuted = WigInstance(lam=inst.lam, entries=Y[np.ix_(perm, perm)][upper])
    for transform in (None, score_transform):
        assert top_eigenvalue(permuted, transform) == pytest.approx(
            top_eigenvalue(inst, transform), rel=1e-12)


def test_mixed_branches():
    rng = np.random.default_rng(11)
    insts = [sample_wig(30, 1.0, "mixed", planted=False, rng=rng, alpha=3.0)
             for _ in range(40)]
    branches = {i.branch for i in insts}
    assert branches == {1, 2}
    planted = sample_wig(30, 1.0, "mixed", planted=True, rng=rng, alpha=3.0)
    assert planted.branch == 1  # always sech noise under the alternative


def test_pca_threshold_values():
    rng = np.random.default_rng(2)
    inst = sample_wig(20, 1.5, "sech", planted=False, rng=rng)
    v = pca_test(inst)
    assert v.threshold == pytest.approx(0.5 * (2 + 1.5 + 1 / 1.5))
    # the tests read lambda from the instance alone
    e = inst.entries
    assert pca_test(WigInstance(1.0, e)).threshold == pytest.approx(2.0)
    assert pca_test(WigInstance(0.0, e)).label == "q"  # infinite threshold


def test_wig_instance_rejects_negative_lambda():
    with pytest.raises(DomainError, match="need finite lambda >= 0, got -1.0"):
        WigInstance(lam=-1.0, entries=np.zeros(6))


@pytest.mark.parametrize("entries", [np.zeros(5), np.zeros(7), np.zeros((2, 3)),
                                     np.zeros((4, 4)), np.array([])])
def test_wig_instance_needs_a_packed_triangle(entries):
    # the empty triangle is a one-vertex instance, which sample_wig rejects too
    message = "n must be >= 2, got 1" if entries.size == 0 else "n\\(n-1\\)/2 packed entries"
    with pytest.raises(DomainError, match=message):
        WigInstance(lam=1.0, entries=entries)


@pytest.mark.parametrize("noise", ["sech", "heavy", "mixed"])
def test_sample_wig_rejects_negative_lambda_before_any_draw(noise):
    rng = np.random.default_rng(9)
    with pytest.raises(DomainError, match="need finite lambda >= 0, got -1.0"):
        sample_wig(50, -1.0, noise, True, rng, alpha=3.0)
    assert rng.random() == np.random.default_rng(9).random()


def test_heavy_alpha_rule_has_one_message():
    rng = np.random.default_rng(0)
    for call in (lambda: sample_wig(10, 1.0, "heavy", False, rng, alpha=None),
                 lambda: sample_wig(10, 1.0, "heavy", False, rng, alpha=0.5),
                 lambda: sample_wig(10, 1.0, "mixed", True, rng)):
        with pytest.raises(DomainError, match=r"^heavy noise needs finite alpha > 1, got "):
            call()


@pytest.mark.parametrize("noise", ["sech", "heavy", "mixed"])
@pytest.mark.parametrize("planted", [False, True])
def test_wig_instance_derives_size_and_side(noise, planted):
    inst = sample_wig(7, 1.1, noise, planted, np.random.default_rng(0), alpha=3.0)
    assert inst.n == inst.matrix().shape[0] == 7 and inst.entries.shape == (21,)
    assert (inst.spike is not None) == planted


def test_score_transform_shape():
    assert score_transform(np.array([0.0])) == 0.0
    y = np.linspace(-30, 30, 101)
    t = score_transform(y)
    assert np.all(np.abs(t) <= LAMBDA_STAR**2 * math.pi / 2 + 1e-12)
    assert np.allclose(t, -score_transform(-y))


def test_score_transform_matches_expression_and_keeps_input():
    Y = wig_matrix_float64(sample_wig(57, 1.3, "sech", True, np.random.default_rng(6)))
    before = Y.tobytes()
    want = LAMBDA_STAR**2 * (math.pi / 2) * np.tanh((math.pi / 2) * Y)
    got = score_transform(Y)
    assert got.tobytes() == want.tobytes()
    assert Y.tobytes() == before and not np.shares_memory(got, Y)
    assert score_transform(np.array([0.0])) == 0.0
    assert score_transform(np.array([1.0])) == LAMBDA_STAR**2 * (math.pi / 2) * np.tanh(math.pi / 2)


def _traced_peak(fn) -> int:
    """Peak traced bytes that ``fn()`` allocates beyond what is live."""
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    fn()
    return tracemalloc.get_traced_memory()[1] - base


def test_spiked_path_holds_one_matrix_per_stage():
    # numpy reports its buffers to tracemalloc; a planted instance is its
    # packed triangle (0.5 x 8n^2), each eigen test adds the one float32
    # matrix it solves (0.5 x) plus the solver's vectors (both measured at
    # 0.62 x, bounds 0.08 x above), so a float64 matrix (1 x) fails; the
    # Rayleigh quotient's blocks of transformed rows come after the matrix
    # is freed; a heavy null that the mixed test labels from its largest
    # entry builds no matrix at all
    n = 400
    matrix_bytes = 8 * n * n
    tracemalloc.start()
    try:
        sample = _traced_peak(lambda: sample_wig(n, 1.5, "sech", True, np.random.default_rng(0)))
        inst = sample_wig(n, 1.5, "sech", True, np.random.default_rng(0))
        solve = _traced_peak(lambda: pca_test(inst))
        scored = _traced_peak(lambda: tpca_test(inst))
        heavy = sample_wig(n, 1.5, "heavy", False, np.random.default_rng(0), alpha=3.0)
        verdict = mixed_test(heavy)
        short_circuit = _traced_peak(lambda: mixed_test(heavy))
    finally:
        tracemalloc.stop()
    assert sample <= 0.6 * matrix_bytes
    assert solve <= 0.7 * matrix_bytes
    assert scored <= 0.7 * matrix_bytes
    assert verdict.statistic > verdict.threshold  # labeled without a solve
    assert short_circuit <= 0.05 * matrix_bytes


def test_tpca_threshold_matches_pinned_value():
    # at lambda = 1 the threshold is (2 lam* + lam*^2 + 1)/2 = 1.8056...
    rng = np.random.default_rng(4)
    inst = sample_wig(20, 1.0, "sech", planted=False, rng=rng)
    v = tpca_test(inst)
    assert v.threshold == pytest.approx(
        0.5 * (2 * LAMBDA_STAR + LAMBDA_STAR**2 + 1.0)
    )
    assert v.threshold == pytest.approx(1.80560, abs=5e-6)


def test_eigen_tests_separate_at_moderate_size():
    rng = np.random.default_rng(31)
    n, lam, trials = 400, 2.0, 8
    hits_null = sum(
        pca_test(sample_wig(n, lam, "sech", False, rng)).label == "p"
        for _ in range(trials)
    )
    hits_plant = sum(
        pca_test(sample_wig(n, lam, "sech", True, rng)).label == "p"
        for _ in range(trials)
    )
    assert hits_null <= 1 and hits_plant >= trials - 1


def test_wig_instance_is_read_only_from_construction():
    entries = np.zeros(45)
    inst = WigInstance(lam=1.0, entries=entries)
    with pytest.raises(ValueError):
        inst.entries[0] = 1.0
    assert inst.n == 10 and np.shares_memory(inst.entries, entries)  # a view, not a copy


def test_mixed_test_branch_cases():
    zero = WigInstance(lam=1.0, entries=np.zeros(50 * 49 // 2))
    assert mixed_test(zero).label == "q"  # eigenvalue 0 under the threshold
    big = np.zeros(100 * 99 // 2)
    big[0] = -100.0  # entry (0, 1); |-100| exceeds 10 log(100) = 46.05
    spiky = WigInstance(lam=1.0, entries=big)
    v = mixed_test(spiky)
    assert v.label == "q" and v.threshold == pytest.approx(10 * math.log(100))


def test_top_eigenvalue_warns_on_lanczos_non_convergence(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spiked, "eigsh", no_convergence)
    inst = sample_wig(30, 1.0, "sech", True, np.random.default_rng(6))
    with pytest.warns(RuntimeWarning, match="n=30"):
        value = top_eigenvalue(inst)
    assert value == pytest.approx(np.linalg.eigvalsh(wig_matrix_float64(inst))[-1], rel=1e-12)


def test_top_eigenvalue_degenerate_matrix_is_silent():
    # ARPACK rejects the all-zero matrix (its start residual vanishes);
    # the dense fallback is the documented answer and warns about nothing
    zero = WigInstance(lam=1.0, entries=np.zeros(20 * 19 // 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for transform in (None, score_transform):
            value = top_eigenvalue(zero, transform)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("transform", [None, score_transform], ids=["pca", "tpca"])
@pytest.mark.parametrize("planted", [False, True])
def test_top_eigenvalue_matches_dense_solve(transform, planted):
    inst = sample_wig(300, 1.3, "sech", planted, np.random.default_rng(21))
    value = top_eigenvalue(inst, transform)
    want = np.linalg.eigvalsh(wig_matrix_float64(inst, transform))[-1]
    assert type(value) is float and value == pytest.approx(want, rel=1e-12)


def test_top_eigenvalue_reads_any_layout_and_the_fallback_triangle(monkeypatch):
    n = 120
    inst = sample_wig(n, 1.2, "sech", True, np.random.default_rng(22))
    want = np.linalg.eigvalsh(wig_matrix_float64(inst))[-1]
    # a packed triangle that is a strided view solves like a contiguous one
    spaced = np.zeros(2 * inst.entries.size)
    spaced[::2] = inst.entries
    strided = WigInstance(lam=inst.lam, entries=spaced[::2])
    for layout in (inst, strided):
        assert top_eigenvalue(layout) == pytest.approx(want, rel=1e-12)
    # the dense fallback reads the lower triangle that matrix() fills: its
    # upper triangle is zero, so a solve of that would give 0
    def arpack_error(*args, **kwargs):
        raise ArpackError(-9999)

    monkeypatch.setattr(spiked, "eigsh", arpack_error)
    assert top_eigenvalue(inst) == pytest.approx(want, rel=1e-12)


def test_top_eigenvalue_copies_no_matrix():
    # the solve holds its float32 matrix (0.5 x 8n^2) and vectors, measured
    # at 0.58 x: f2py would copy a non-Fortran-ordered argument on every
    # BLAS call, and that copy or a float64 one would add 0.5 x or more
    n = 600
    inst = sample_wig(n, 1.2, "sech", True, np.random.default_rng(23))
    tracemalloc.start()
    try:
        peak = _traced_peak(lambda: top_eigenvalue(inst))
    finally:
        tracemalloc.stop()
    assert peak <= 0.65 * 8 * n * n


@pytest.mark.parametrize("n", [30, 300])
@pytest.mark.parametrize("test, transform", [(pca_test, None), (tpca_test, score_transform)],
                         ids=["pca", "tpca"])
@pytest.mark.parametrize("planted", [False, True])
def test_eigen_test_statistic_is_the_float64_top_eigenvalue(n, test, transform, planted):
    # the solve runs on a float32 matrix, which moves its Ritz value by about
    # 1e-8 relative; the statistic is the float64 Rayleigh quotient of its
    # Ritz vector over the packed triangle, exact to second order
    inst = sample_wig(n, 1.3, "sech", planted, np.random.default_rng(n + planted))
    want = np.linalg.eigvalsh(wig_matrix_float64(inst, transform))[-1]
    stat = test(inst).statistic
    assert type(stat) is float
    assert stat * math.sqrt(n) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("test, transform", [(pca_test, None), (tpca_test, score_transform)],
                         ids=["pca", "tpca"])
def test_eigen_tests_solve_every_size_by_lanczos(test, transform, monkeypatch):
    # ARPACK solves the tiniest instances too: no size takes the dense path
    solve, sizes = spiked.eigsh, []

    def counted(op, **kwargs):
        sizes.append(op.shape[0])
        return solve(op, **kwargs)

    monkeypatch.setattr(spiked, "eigsh", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(2, 10):
            inst = sample_wig(n, 1.3, "sech", n % 2 == 0, np.random.default_rng(n))
            want = np.linalg.eigvalsh(wig_matrix_float64(inst, transform))[-1]
            assert test(inst).statistic * math.sqrt(n) == pytest.approx(want, rel=1e-12), n
    assert sizes == list(range(2, 10))


@pytest.mark.parametrize("test, transform", [(pca_test, None), (tpca_test, score_transform)],
                         ids=["pca", "tpca"])
def test_eigen_test_fallbacks_give_the_float64_top_eigenvalue(test, transform, monkeypatch):
    # the dense fallback runs only when ARPACK raises; it solves the upcast
    # float32 matrix and goes through the same quotient: silently on an
    # all-zero triangle, which ARPACK rejects, or on a forced ArpackError,
    # and with a warning after a Lanczos non-convergence
    for n in (2, 40):
        zero = WigInstance(lam=1.3, entries=np.zeros(n * (n - 1) // 2))
        assert test(zero).statistic == 0.0

    def arpack_error(*args, **kwargs):
        raise ArpackError(-9999)

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    for fail, warns in ((arpack_error, False), (no_convergence, True)):
        monkeypatch.setattr(spiked, "eigsh", fail)
        for n in (2, 5, 30, 300):
            inst = sample_wig(n, 1.3, "sech", False, np.random.default_rng(n))
            want = np.linalg.eigvalsh(wig_matrix_float64(inst, transform))[-1]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                stat = test(inst).statistic
            assert [str(w.message) for w in caught] == [
                f"Lanczos did not converge at n={n}; falling back to a dense eigen-solve"
            ] * warns
            assert stat * math.sqrt(n) == pytest.approx(want, rel=1e-12), n


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("alpha, overflows", [(1.1, [1]), (1.01, [0, 1, 2])])
def test_a_non_finite_statistic_is_an_error_not_a_verdict(alpha, overflows, monkeypatch):
    # t draws with alpha - 1 = 0.1 degrees of freedom pass the float32
    # range (3.4e38), and with 0.01 reach inf even in float64: the plain
    # matrix then has no finite top eigenvalue, but the bounded score
    # transform still does.  ARPACK raises on such a matrix, and the error
    # comes without a dense solve (an O(n^3) eigh of an 8 n^2-byte copy)
    def no_eigh(*args, **kwargs):
        raise AssertionError("dense eigen-solve of a non-finite matrix")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    rng = np.random.default_rng(0)
    for trial in range(3):
        inst = sample_wig(60, 1.5, "heavy", False, rng, alpha=alpha)
        if trial in overflows:
            with pytest.raises(NumericInstabilityError,
                               match="matrix has a non-finite entry at n=60"):
                pca_test(inst)
        else:
            assert math.isfinite(pca_test(inst).statistic)
        assert math.isfinite(tpca_test(inst).statistic)


def test_mixed_test_moderate_size_smoke():
    rng = np.random.default_rng(17)
    n, lam, trials = 400, 1.3, 8
    errs = sum(
        mixed_test(sample_wig(n, lam, "mixed", False, rng, alpha=3.0)).label == "p"
        for _ in range(trials)
    ) + sum(
        mixed_test(sample_wig(n, lam, "mixed", True, rng, alpha=3.0)).label == "q"
        for _ in range(trials)
    )
    assert errs / (2 * trials) <= 0.25


TABLE = build_translation_table(3)


def brute_force_entrywise(n, lam, D):
    """Independent enumeration over all multi-indices with explicit parity."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    s = lam / math.sqrt(n)
    total = 0.0
    for k in itertools.product(range(D + 1), repeat=len(edges)):
        deg = [0] * n
        for (i, j), ke in zip(edges, k):
            deg[i] += ke
            deg[j] += ke
        if any(d % 2 for d in deg):
            continue
        total += math.prod(float(TABLE.eval(ke, s)) for ke in k) ** 2
    return total


def test_entrywise_exact_trivial_cases():
    assert entrywise_ldlr_exact(4, 0.7, 0) == 1.0
    # single edge, degree one: odd vertex degrees kill the k=1 term
    assert entrywise_ldlr_exact(2, 0.9, 1) == pytest.approx(1.0)


def test_entrywise_exact_matches_brute_force():
    for n, D, lam in [(4, 2, 0.5), (3, 3, 0.8), (5, 2, 1.1)]:
        assert entrywise_ldlr_exact(n, lam, D) == pytest.approx(
            brute_force_entrywise(n, lam, D), abs=1e-12
        )


def test_entrywise_exact_sign_invariance_and_monotone():
    for lam in (0.4, 0.9):
        assert entrywise_ldlr_exact(5, lam, 3) == entrywise_ldlr_exact(5, -lam, 3)
    vals = [entrywise_ldlr_exact(5, 0.8, D) for D in range(4)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_entrywise_exact_caps():
    with pytest.raises(DomainError):
        entrywise_ldlr_exact(MAX_EXACT_N + 1, 0.5, 2)
    with pytest.raises(DomainError):
        entrywise_ldlr_exact(1, 0.5, 2)
    with pytest.raises(DomainError):
        entrywise_ldlr_exact(4, 0.5, MAX_TABLE_DEGREE + 1)
    with pytest.raises(DomainError):
        entrywise_ldlr_exact(4, 0.5, -1)


def test_entrywise_coefficient_limit():
    # D=1 at the critical rate: c -> lam*^2 (1/lam*^2 - 1/3) = 1 - lam*^2/3
    c = entrywise_coefficient(10**12, LAMBDA_STAR, 1)
    assert c == pytest.approx(1 - LAMBDA_STAR**2 / 3, rel=1e-5)
    assert c < 1.0


def test_overlap_chi2_zero_coefficient_is_one():
    val, se = overlap_chi2_mc(0.0, 50, 200, np.random.default_rng(0))
    assert val == 1.0 and se == 0.0
    assert overlap_chi2_exact(0.0, 50) == pytest.approx(1.0, abs=1e-12)


def test_overlap_chi2_matches_gaussian_limit():
    # chi-square moment generating oracle: E exp(c g^2 / 2) = (1-c)^(-1/2)
    rng = np.random.default_rng(12)
    val, se = overlap_chi2_mc(0.5, 400, 100_000, rng)
    assert abs(val - math.sqrt(2.0)) < 0.1 * math.sqrt(2.0)
    exact = overlap_chi2_exact(0.5, 400)
    assert abs(val - exact) < 4 * se


def test_overlap_chi2_exact_matches_pmf_sum():
    # oracle: the binomial pmf times the exponent, summed directly
    from scipy.stats import binom

    for n in (1, 7, 50, 400):
        j = np.arange(n + 1)
        h = 2.0 * j - n
        for c in (-1.0, 0.1, 0.758, 0.95, 2.0):
            want = float(np.sum(binom.pmf(j, n, 0.5) * np.exp(c * h * h / (2.0 * n))))
            assert overlap_chi2_exact(c, n) == pytest.approx(want, rel=1e-12), (n, c)


def test_overlap_chi2_exact_finite_at_large_n():
    # c at lambda = 0.8, D = 3: the pmf underflows where the exponent
    # overflows, so a direct product sum returns nan
    c = entrywise_coefficient(4000, 0.8, 3)
    val = overlap_chi2_exact(c, 4000)
    assert math.isfinite(val)
    # the Gaussian limit (1 - c)^(-1/2) with c near 0.76
    assert val == pytest.approx(1.0 / math.sqrt(1.0 - c), rel=0.01)


def test_entrywise_exact_at_large_n():
    # lambda = 0.5, D = 2: the entrywise sum stays near its n -> inf limit
    vals = [entrywise_ldlr_exact(n, 0.5, 2) for n in (400, 40_000)]
    assert all(math.isfinite(v) and 1.0 < v < 1.1 for v in vals)
    assert vals[0] <= overlap_chi2_exact(entrywise_coefficient(400, 0.5, 2), 400)


def test_entrywise_bound_dominates_exact_sum():
    # for either sign of lambda: the exact sum is even in lambda
    cases = [(n, D, lam) for n in (4, 6, 8) for D in (2, 3) for lam in (0.3, 0.5, 0.9)]
    for n, D, lam in cases + [(50, 6, 0.85), (50, 6, 0.88)]:
        for signed in (lam, -lam):
            ex = entrywise_ldlr_exact(n, signed, D)
            ub = overlap_chi2_exact(entrywise_coefficient(n, signed, D), n)
            assert ex <= ub + 1e-8, (n, D, signed)


def test_entrywise_mc_bound_reports_coefficient():
    c, value, stderr = entrywise_ldlr_mc_bound(100, 0.5, 2, 2000, np.random.default_rng(9))
    assert c == entrywise_coefficient(100, 0.5, 2)
    assert (value, stderr) == overlap_chi2_mc(c, 100, 2000, np.random.default_rng(9))
    assert stderr > 0


def test_entrywise_mc_bound_warns_above_regime():
    rng = np.random.default_rng(10)
    for lam in (1.5, -1.5):
        with pytest.warns(UserWarning, match="bounded regime"):
            entrywise_ldlr_mc_bound(100, lam, 2, 100, rng)


def test_entrywise_mc_bound_rejects_degree_below_one():
    # the regime test divides by D, so D >= 1 is checked before it
    for D in (0, -1):
        with pytest.raises(DomainError, match=f"D must be >= 1, got {D}"):
            entrywise_ldlr_mc_bound(100, 0.5, D, 100, np.random.default_rng(0))


def test_power_curve_rows():
    rng = np.random.default_rng(14)
    rates = power_curve("pca", "sech", [0.0, 2.0], 60, 5, rng)
    assert len(rates) == 2
    # lambda = 0: null and planted coincide; infinite threshold says q always
    assert rates[0] == (0.0, 1.0)
    with pytest.raises(DomainError):
        power_curve("pca", "sech", [1.0], 60, 0, rng)
    with pytest.raises(DomainError):
        power_curve("svd", "sech", [1.0], 60, 5, rng)


def test_power_curve_checks_every_lambda_before_drawing():
    rng = np.random.default_rng(16)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="need finite lambda >= 0, got -1"):
        power_curve("pca", "sech", iter([1.2, -1.0]), 60, 3, rng)
    assert rng.bit_generator.state == state
    # a generator of lambdas is read once and still runs every point
    assert len(power_curve("pca", "sech", (lam for lam in [0.5, 2.0]), 30, 2, rng)) == 2


@pytest.mark.parametrize("noise", ["sech", "heavy"])
def test_power_curve_runs_mixed_test_on_any_noise(noise):
    # the branch-then-test procedure needs no mixed-model instance: on
    # heavy noise it short-circuits, on sech noise it is the score test
    [(type_i, type_ii)] = power_curve("mixed", noise, [1.5], 40, 3, np.random.default_rng(15),
                                      alpha=3.0)
    assert 0.0 <= type_i <= 1.0 and 0.0 <= type_ii <= 1.0
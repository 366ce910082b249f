"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  ACC-07b is a strict asymptotic separation rendered at finite
size; see the criterion's docstring for the measured behavior.
"""

import itertools
import math
import time

import numpy as np
from scipy.integrate import quad

from helpers import (
    expectation_under,
    full_norm_exact,
    normalized_eval,
    overlap_bound_exp_series,
    random_shared_instance,
    random_z_instance,
    tau_value_bound,
)
from nefqvf.families import Family
from nefqvf.ldlr import (
    KinSpikedModel,
    SpikePrior,
    channel_compare,
    ldlr_exact,
    overlap_bound_exact,
    sbm_ks_scan,
)
from nefqvf.orthopoly import a_const, a_hat, build_basis
from nefqvf.spiked import (
    LAMBDA_STAR,
    entrywise_ldlr_exact,
    mixed_test,
    overlap_chi2_mc,
    pca_test,
    sample_wig,
    tpca_test,
)
from nefqvf.translation import build_translation_table

REFERENCE = [
    (Family.gaussian(1.3), 0.7),
    (Family.poisson(), 2.5),
    (Family.gamma(2.5), 1.8),
    (Family.binomial(10), 3.7),
    (Family.negbinomial(3), 1.4),
    (Family.sech(), 0.6),
]

_SPIKED_BUDGET: dict[str, float] = {}


def check(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(f"\n{line}", flush=True)
    assert ok, line


def test_acc01_orthonormality_six_families():
    t0 = time.time()
    worst_cross, worst_diag, worst_norm = 0.0, 0.0, 0.0
    for family, mu0 in REFERENCE:
        basis = build_basis(family, mu0, 8)
        K = basis.max_degree
        v2 = family.variance_coeffs_exact()[2]
        vmu = family.variance(mu0)
        for k in range(K + 1):
            target = float(a_const(k, v2)) * vmu**k
            worst_norm = max(worst_norm, abs(float(basis.norm_sq[k]) - target) / target)
            for l in range(k, K + 1):
                val = expectation_under(
                    family, mu0,
                    lambda y: (normalized_eval(basis, k, y)
                               * normalized_eval(basis, l, y)),
                )
                if k == l:
                    worst_diag = max(worst_diag, abs(val - 1.0))
                else:
                    worst_cross = max(worst_cross, abs(val))
    elapsed = time.time() - t0
    ok = worst_cross < 1e-8 and worst_diag < 1e-8 and worst_norm < 1e-8 and elapsed < 60
    check("ACC-01 orthonormality", ok,
          f"max |E pk pl| {worst_cross:.2e}, max |E pk^2 - 1| {worst_diag:.2e}, "
          f"max norm rel err {worst_norm:.2e}, {elapsed:.1f}s")


def test_acc02_kin_spike_expectation_identity():
    rng = np.random.default_rng(20260802)
    worst = 0.0
    tuples = []
    for family, mu_ref in REFERENCE:
        for _ in range(5):
            mu = mu_ref * float(rng.uniform(0.8, 1.2))
            delta = float(rng.uniform(0.5, 1.0))
            if family.kind in ("gaussian", "sech") and rng.random() < 0.5:
                delta = -delta
            x = mu + delta * math.sqrt(family.variance(mu))
            k = int(rng.integers(1, 7))
            tuples.append((family, mu, x, k))
    for family, mu, x, k in tuples:
        basis = build_basis(family, mu, 6)
        k = min(k, basis.max_degree)
        z = family.z_score(mu, x)
        want = math.sqrt(float(a_hat(k, family.v2)) / math.factorial(k)) * z**k
        got = expectation_under(family, x, lambda y: normalized_eval(basis, k, y))
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    check("ACC-02 kin-spike expectation", worst < 1e-6,
          f"30 tuples, max rel err {worst:.2e}")


def test_acc03_overlap_equality_and_bounds():
    rng = np.random.default_rng(20260803)
    worst_eq = 0.0
    for _ in range(25):
        means, atoms = random_shared_instance(rng)
        prior = SpikePrior.from_atoms("kin", atoms)
        D = int(rng.integers(0, 5))
        for family in (Family.gaussian(1.0), Family.poisson()):
            model = KinSpikedModel(family, means, prior)
            diff = abs(ldlr_exact(model, D) - overlap_bound_exact(model, D))
            worst_eq = max(worst_eq, diff)
    ok_pos, ok_neg = True, True
    for _ in range(50):
        means, atoms = random_shared_instance(rng)
        prior = SpikePrior.from_atoms("kin", atoms)
        D = int(rng.integers(0, 5))
        pos = KinSpikedModel(Family.gamma(1.0), means, prior)
        ok_pos &= ldlr_exact(pos, D) <= overlap_bound_exact(pos, D) + 1e-10
        neg = KinSpikedModel(Family.binomial(1), means, prior)
        val = ldlr_exact(neg, D)
        ok_neg &= overlap_bound_exact(neg, D) - 1e-10 <= val
        ok_neg &= val <= overlap_bound_exp_series(neg, D) + 1e-10
    ok = worst_eq < 1e-10 and ok_pos and ok_neg
    check("ACC-03 overlap equality and bounds", ok,
          f"50 equality instances max |diff| {worst_eq:.2e}; "
          f"bounds v2=+1 {'ok' if ok_pos else 'violated'}, "
          f"v2=-1 {'ok' if ok_neg else 'violated'}")


def test_acc04_full_norm_fixtures():
    bern = KinSpikedModel(
        Family.binomial(1), (0.5,),
        SpikePrior.from_atoms("kin", [((0.75,), 1.0)]),
    )
    err_b = abs(full_norm_exact(bern) - 1.25)
    errs_g = []
    for s in (0.3, 1.0):
        model = KinSpikedModel(
            Family.gaussian(1.0), (0.0,),
            SpikePrior.from_atoms("kin", [((s,), 1.0)]),
        )
        errs_g.append(abs(full_norm_exact(model) - math.exp(s * s)))
    ok = err_b < 1e-12 and all(e < 1e-8 for e in errs_g)
    check("ACC-04 full norm fixtures", ok,
          f"two-point fixture err {err_b:.2e}; shift fixtures errs "
          + ", ".join(f"{e:.2e}" for e in errs_g))


def test_acc05_channel_monotonicity():
    rng = np.random.default_rng(20260805)
    families = [
        Family.binomial(1), Family.binomial(2), Family.gaussian(1.0),
        Family.poisson(), Family.negbinomial(2), Family.gamma(1.0),
    ]
    violations = 0
    for _ in range(100):
        means, z_atoms = random_z_instance(rng)
        prior = SpikePrior.from_atoms("kin", z_atoms)
        D = int(rng.integers(0, 4))
        vals = [value for _, value in channel_compare(families, means, prior, D)]
        if not all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])):
            violations += 1
    check("ACC-05 channel monotonicity", violations == 0,
          f"100 shared instances over v2 in {{-1,-1/2,0,1/2,1}}, "
          f"{violations} ordering violations")


def test_acc06_translation_polynomials():
    t0 = time.time()
    table = build_translation_table(50)
    parity_ok, coeff_ok, value_ok = True, True, True
    for k in range(1, 51):
        for l in range(k + 1):
            c = table.coeffs[k][l]
            if l % 2 != k % 2 or l == 0:
                parity_ok &= c == 0
            else:
                bound = (2 * math.log(math.e * k)) ** (l - 1) / (k * math.factorial(l))
                coeff_ok &= abs(float(c)) <= bound * (1 + 1e-12)
        for x in (0.01, 0.05, 0.1, 0.5, 1.0):
            value_ok &= abs(float(table.eval(k, x))) <= tau_value_bound(k, x)
    # shift expectation at ten million draws
    basis = build_basis(Family.sech(), 0.0, 6)
    rng = np.random.default_rng(20260806)
    noise = Family.sech().sample(0.0, rng, 10_000_000)
    mc_ok, worst_dev = True, 0.0
    for x in (0.1, 0.5):
        for k in range(1, 7):
            vals = normalized_eval(basis, k, x + noise)
            se = vals.std() / math.sqrt(vals.size)
            dev = abs(vals.mean() - float(table.eval(k, x))) / se
            worst_dev = max(worst_dev, dev)
            mc_ok &= dev <= 4.0
    elapsed = time.time() - t0
    ok = parity_ok and coeff_ok and value_ok and mc_ok and elapsed < 300
    check("ACC-06 translation polynomials", ok,
          f"parity {'ok' if parity_ok else 'violated'}, coeff bound "
          f"{'ok' if coeff_ok else 'violated'}, value bound "
          f"{'ok' if value_ok else 'violated'}, shift MC max dev "
          f"{worst_dev:.2f} se at 1e7 draws, {elapsed:.1f}s")


def _spiked_trials(n, lam, noise, planted, trials, seed, tests, alpha=None):
    rng = np.random.default_rng(seed)
    hits = {name: 0 for name in tests}
    for _ in range(trials):
        inst = sample_wig(n, lam, noise, planted, rng, alpha=alpha)
        for name, fn in tests.items():
            if fn(inst).label == "p":
                hits[name] += 1
    return {name: hits[name] / trials for name in tests}


def test_acc07a_pca_power_above_bulk_threshold():
    t0 = time.time()
    n, lam, trials, seed = 2000, 1.5, 50, 20260871
    power = _spiked_trials(n, lam, "sech", True, trials, seed, {"pca": pca_test})["pca"]
    type_i = _spiked_trials(n, lam, "sech", False, trials, seed + 1, {"pca": pca_test})["pca"]
    _SPIKED_BUDGET["a"] = time.time() - t0
    ok = power >= 0.9 and type_i <= 0.1
    check("ACC-07a plain eigenvalue test at lambda=1.5", ok,
          f"power {power:.2f} (need >= 0.9), type-I {type_i:.2f} (need <= 0.1), "
          f"{_SPIKED_BUDGET['a']:.0f}s")


def test_acc07b_transformed_vs_plain_near_threshold():
    """Strict-asymptotic criterion, expected to fail at this size.

    At lambda = 0.95 the score-transformed spectral gap is (lambda -
    lambda_star)^2 / (lambda_star^2 lambda) ~ 0.003 while the finite-size
    eigenvalue fluctuations at n = 2000 are ~ 0.006; the planted and null
    statistic distributions overlap so heavily that even a threshold placed
    at the empirical null 0.9-quantile reaches power ~ 0.63 (and ~ 0.62 at
    n = 4000).  The 0.8 target is unreachable for any threshold test on
    this statistic at this size; the power recorded below documents the
    actual finite-size behavior.
    """
    t0 = time.time()
    n, lam, trials, seed = 2000, 0.95, 50, 20260872
    rates = _spiked_trials(n, lam, "sech", True, trials, seed,
                           {"tpca": tpca_test, "pca": pca_test})
    _SPIKED_BUDGET["b"] = time.time() - t0
    ok = rates["tpca"] >= 0.8 and rates["pca"] <= 0.5
    check("ACC-07b transformed-vs-plain power at lambda=0.95", ok,
          f"tpca power {rates['tpca']:.2f} (need >= 0.8), "
          f"pca power {rates['pca']:.2f} (need <= 0.5), "
          f"{_SPIKED_BUDGET['b']:.0f}s")


def test_acc07c_mixed_model_detection():
    t0 = time.time()
    n, lam, alpha, trials, seed = 2000, 1.2, 3.0, 50, 20260873
    type_i = _spiked_trials(n, lam, "mixed", False, trials, seed,
                            {"mixed": mixed_test}, alpha=alpha)["mixed"]
    power = _spiked_trials(n, lam, "mixed", True, trials, seed + 1,
                           {"mixed": mixed_test}, alpha=alpha)["mixed"]
    elapsed = time.time() - t0
    _SPIKED_BUDGET["c"] = elapsed
    avg_error = 0.5 * (type_i + (1.0 - power))
    total = sum(_SPIKED_BUDGET.values())
    ok = avg_error <= 0.1 and total < 900
    check("ACC-07c mixed-model detection", ok,
          f"avg error {avg_error:.3f} (need <= 0.1; type-I {type_i:.2f}, "
          f"type-II {1 - power:.2f}), spiked criteria total {total:.0f}s (< 900s)")


def test_acc08_entrywise_degree_bound():
    table = build_translation_table(2)
    s = 0.5 / 2.0  # lambda / sqrt(n) at n = 4
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    brute = 0.0
    for k in itertools.product(range(3), repeat=6):
        deg = [0] * 4
        for (i, j), ke in zip(edges, k):
            deg[i] += ke
            deg[j] += ke
        if any(d % 2 for d in deg):
            continue
        brute += math.prod(float(table.eval(ke, s)) for ke in k) ** 2
    exact = entrywise_ldlr_exact(4, 0.5, 2)
    err = abs(exact - brute)
    sign_ok = all(
        entrywise_ldlr_exact(5, lam, 3) == entrywise_ldlr_exact(5, -lam, 3)
        for lam in (0.4, 0.9)
    )
    val, _ = overlap_chi2_mc(0.5, 400, 200_000, np.random.default_rng(20260808))
    chi2_err = abs(val - math.sqrt(2.0)) / math.sqrt(2.0)
    ok = err < 1e-12 and sign_ok and chi2_err < 0.1
    check("ACC-08 entrywise-degree bound", ok,
          f"exact-vs-brute err {err:.2e}, sign flip "
          f"{'invariant' if sign_ok else 'NOT invariant'}, "
          f"chi-square functional rel err {chi2_err:.3f} (need < 0.1)")


def test_acc09_block_model_threshold_scan():
    t0 = time.time()
    seed, samples, D = 20260809, 2_000_000, 20
    below, above = (3.0, 1.0), (7.5, 1.5)
    est = {}
    for n in (50, 100, 200):
        (est_below, _), (est_above, _) = sbm_ks_scan(n, D, [below, above], samples,
                                                     np.random.default_rng(seed))
        est[n] = (est_below, est_above)
    ratios = [est[100][0] / est[50][0], est[200][0] / est[100][0]]
    growth = est[200][1] / est[50][1]
    elapsed = time.time() - t0
    ok = all(r < 1.1 for r in ratios) and growth > 2.0 and elapsed < 300
    check("ACC-09 detectability threshold scan", ok,
          f"below-threshold ratios {ratios[0]:.3f}, {ratios[1]:.3f} (< 1.1); "
          f"above-threshold growth {growth:.2f} (> 2), {elapsed:.0f}s")


def test_acc10_critical_rate_quadrature():
    w = lambda x: 0.5 / math.cosh(math.pi * x / 2)
    h = 1e-6
    integrand = lambda x: ((w(x + h) - w(x - h)) / (2 * h)) ** 2 / w(x)
    fisher, _ = quad(integrand, -40.0, 40.0, limit=200)
    err = abs(fisher ** -0.5 - LAMBDA_STAR)
    check("ACC-10 critical rate quadrature", err < 1e-6,
          f"|quadrature - 2 sqrt(2)/pi| = {err:.2e}")

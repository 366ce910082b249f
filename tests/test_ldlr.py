"""Likelihood-ratio norms: exact component sums vs the overlap route."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    component,
    count_multi_indices,
    direct_l2_norm_discrete,
    full_norm_exact,
    iter_multi_indices,
    kin_model_from_z,
    overlap_bound_exp_series,
    random_shared_instance,
    random_z_instance,
    sbm_overlap,
)
from nefqvf.errors import CapExceededError, DomainError, NumericInstabilityError
from nefqvf.families import Family
from nefqvf.ldlr import (
    MAX_EXACT_N,
    _mc_summary,
    _sign_count_mean,
    _symmetric_binomial_cdf,
    AdditiveSpikedModel,
    KinSpikedModel,
    SpikePrior,
    channel_compare,
    ldlr_exact,
    ldlr_exact_additive,
    overlap_bound_exact,
    overlap_bound_mc,
    sbm_ks_scan,
)
from nefqvf.orthopoly import f_trunc


def point_mass(kind, vec):
    return SpikePrior.from_atoms(kind, [(vec, 1.0)])


def gaussian_point_model(s):
    return KinSpikedModel(Family.gaussian(1.0), (0.0,), point_mass("kin", (s,)))


BERNOULLI_FIXTURE = KinSpikedModel(
    Family.binomial(1), (0.5,), point_mass("kin", (0.75,))
)


def test_prior_validation():
    with pytest.raises(DomainError):
        SpikePrior.from_atoms("kin", [((0.5,), 0.6), ((0.6,), 0.5)])
    with pytest.raises(DomainError):
        SpikePrior(kind="kin")
    with pytest.raises(DomainError):
        SpikePrior(kind="sideways", atoms=(((0.5,), 1.0),))
    with pytest.raises(DomainError):
        KinSpikedModel(Family.binomial(1), (0.5,), point_mass("kin", (1.5,)))
    with pytest.raises(DomainError):
        KinSpikedModel(Family.poisson(), (1.0,), point_mass("additive", (0.5,)))


@pytest.mark.parametrize("atoms, message", [
    ([((1.5,), math.nan)], "sum to nan, not 1"),
    ([((1.5,), 0.5), ((1.0,), math.nan)], "sum to nan, not 1"),
    ([((1.5,), math.inf)], "sum to inf, not 1"),
    ([((1.5,), 1.5), ((1.0,), -0.5)], "must be non-negative"),
    ([((math.nan, 0.5), 1.0)], "coordinates must be finite"),
    ([((0.5, 0.5), 0.5), ((0.5, math.inf), 0.5)], "coordinates must be finite"),
    ([((-math.inf,), 1.0)], "coordinates must be finite"),
])
def test_prior_holds_finite_numbers_only(atoms, message):
    # NaN fails every comparison, so each check is written to fail on it
    for kind in ("kin", "additive"):
        with pytest.raises(DomainError, match=message):
            SpikePrior.from_atoms(kind, atoms)


def test_model_domain_errors_name_the_value():
    # one array check per model; the error names the first offending value
    bern = Family.binomial(1)
    with pytest.raises(DomainError, match=r"^null mean 1.5 outside \(0.0, 1.0\) for binomial\{m=1\}$"):
        KinSpikedModel(bern, (0.5, 1.5, 2.0), point_mass("kin", (0.5, 0.5, 0.5)))
    with pytest.raises(DomainError, match=r"^kin atom coordinate 1.0 outside \(0.0, 1.0\)"):
        KinSpikedModel(bern, (0.5, 0.5), SpikePrior.from_atoms(
            "kin", [((0.5, 0.25), 0.5), ((1.0, -1.0), 0.5)]))
    with pytest.raises(DomainError, match="prior atom dimension differs from N"):
        KinSpikedModel(bern, (0.5, 0.5), point_mass("kin", (0.5,)))
    with pytest.raises(DomainError, match=r"^null mean -1.0 outside \(0.0, inf\) for poisson$"):
        AdditiveSpikedModel(Family.poisson(), (1.0, -1.0), point_mass("additive", (0.5, 0.5)))
    with pytest.raises(DomainError, match="prior atom dimension differs from N"):
        AdditiveSpikedModel(Family.sech(), (0.0,), point_mass("additive", (0.5, 0.5)))
    # atoms of an additive prior are shifts, not means: any value is allowed
    AdditiveSpikedModel(Family.poisson(), (1.0,), point_mass("additive", (-5.0,)))


def test_component_values():
    assert component(gaussian_point_model(0.7), (0,)) == 1.0
    assert component(gaussian_point_model(0.7), (1,)) == pytest.approx(0.7)
    # two-point oracle: z = (3/4 - 1/2) / sqrt(1/4) = 1/2
    assert component(BERNOULLI_FIXTURE, (1,)) == pytest.approx(0.5)
    assert type(component(BERNOULLI_FIXTURE, (1,))) is float
    with pytest.raises(ValueError, match="degenerate"):
        component(BERNOULLI_FIXTURE, (2,))


def test_degenerate_degree_with_inexact_v2():
    # v2 = -1/3 is not a binary float; the stop degree must still be sharp
    model = KinSpikedModel(
        Family.binomial(3), (1.2,), point_mass("kin", (1.7,))
    )
    with pytest.raises(ValueError, match="degenerate"):
        component(model, (4,))
    assert component(model, (3,)) != 0.0
    assert ldlr_exact(model, 6) >= 1.0  # prunes degrees past 3 instead of raising


def test_multi_index_enumeration():
    idx = list(iter_multi_indices(2, 2))
    assert idx[0] == (0, 0)
    assert set(idx) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    assert count_multi_indices(2, 2) == 6
    capped = list(iter_multi_indices(2, 3, max_coord=1))
    assert all(max(k) <= 1 for k in capped)


def test_gaussian_point_mass_reaches_closed_form():
    # closed-form likelihood-ratio integral: E_null[L^2] = exp(s^2)
    for s in (0.3, 1.0):
        val = ldlr_exact(gaussian_point_model(s), 40)
        assert val == pytest.approx(math.exp(s * s), rel=1e-12)


def test_bernoulli_fixture_value():
    # an exact norm is a plain float
    val = ldlr_exact(BERNOULLI_FIXTURE, 1)
    assert type(val) is float and val == pytest.approx(1.25, abs=1e-14)
    # saturates: degrees beyond the basis contribute nothing
    assert ldlr_exact(BERNOULLI_FIXTURE, 5) == pytest.approx(1.25, abs=1e-14)
    # direct two-point second moment of the likelihood ratio
    direct = direct_l2_norm_discrete(Family.binomial(1), 0.5, BERNOULLI_FIXTURE.prior.atoms)
    assert val == pytest.approx(direct, abs=1e-14)


def test_degree_zero_is_one_and_monotone_in_degree():
    rng = np.random.default_rng(5)
    means, atoms = random_shared_instance(rng, 2, 3)
    model = KinSpikedModel(Family.gamma(1.0), means, SpikePrior.from_atoms("kin", atoms))
    assert ldlr_exact(model, 0) == pytest.approx(1.0)
    vals = [ldlr_exact(model, D) for D in range(5)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_enumeration_cap():
    # work bound atoms^2 * N * (D+1)^2 = 30 * 601^2 > ENUM_CAP = 10^7
    means = tuple([1.0] * 30)
    prior = point_mass("kin", tuple([1.1] * 30))
    model = KinSpikedModel(Family.poisson(), means, prior)
    with pytest.raises(CapExceededError):
        ldlr_exact(model, 600)
    # 30 * 501^2 stays under the bound, and D = 500 reaches the full norm
    # exp(sum_i z_i^2) with z_i = 0.1 (v2 = 0)
    assert ldlr_exact(model, 500) == pytest.approx(math.exp(0.3), rel=1e-12)
    additive = AdditiveSpikedModel(Family.sech(), (0.0,) * 30,
                                   point_mass("additive", (0.5,) * 30))
    with pytest.raises(CapExceededError):
        ldlr_exact_additive(additive, 600)


def test_series_work_bound_is_checked_before_drawing():
    # (D+1) times the distinct series arguments past ENUM_CAP = 10^7 raises
    # before the first draw: n + 1 sign counts for the scan, atoms^2 pairs
    # for the exact overlap, min(atoms^2, samples) overlaps of an atom prior
    # and ``samples`` of a sampler in Monte Carlo
    atoms = SpikePrior.from_atoms("kin", [((1.5, 2.5), 0.5), ((0.5, 3.5), 0.5)])
    sampler = SpikePrior.from_sampler("kin", lambda rng: rng.normal(1.0, 0.5, size=2))
    on_atoms = KinSpikedModel(Family.poisson(), (1.0, 2.0), atoms)
    on_sampler = KinSpikedModel(Family.gaussian(1.0), (1.0, 2.0), sampler)
    rng = np.random.default_rng(45)
    state = rng.bit_generator.state
    for call in [lambda: sbm_ks_scan(50, 10**8, [(3.0, 1.0)], 10, rng),
                 lambda: sbm_ks_scan(10**6, 9, [(3.0, 1.0)], 10, rng),
                 lambda: overlap_bound_exact(on_atoms, 2_500_000),
                 lambda: overlap_bound_mc(on_atoms, 2_500_000, 10**6, rng),
                 lambda: overlap_bound_mc(on_sampler, 10**4, 1000, rng)]:
        with pytest.raises(CapExceededError, match="exceeds the work bound 10000000"):
            call()
        assert rng.bit_generator.state == state
    # the untruncated f has no degree to bound
    assert overlap_bound_mc(on_sampler, None, 1000, rng).samples == 1000


def test_equality_case_v2_zero():
    rng = np.random.default_rng(11)
    for family in (Family.gaussian(1.0), Family.poisson()):
        for _ in range(10):
            means, atoms = random_shared_instance(rng)
            model = KinSpikedModel(family, means, SpikePrior.from_atoms("kin", atoms))
            D = int(rng.integers(0, 5))
            assert ldlr_exact(model, D) == pytest.approx(
                overlap_bound_exact(model, D), abs=1e-10
            )


def test_bound_directions():
    rng = np.random.default_rng(13)
    for _ in range(10):
        means, atoms = random_shared_instance(rng)
        prior = SpikePrior.from_atoms("kin", atoms)
        D = int(rng.integers(0, 5))
        # v2 = 1 > 0: overlap functional dominates
        pos = KinSpikedModel(Family.gamma(1.0), means, prior)
        assert ldlr_exact(pos, D) <= overlap_bound_exact(pos, D) + 1e-10
        # v2 = -1 < 0: sandwiched between f-series and exp-series values
        neg = KinSpikedModel(Family.binomial(1), means, prior)
        val = ldlr_exact(neg, D)
        assert overlap_bound_exact(neg, D) - 1e-10 <= val
        assert val <= overlap_bound_exp_series(neg, D) + 1e-10


def test_full_norm_fixtures():
    val = full_norm_exact(BERNOULLI_FIXTURE)
    assert type(val) is float and val == pytest.approx(1.25, abs=1e-14)
    for s in (0.3, 1.0):
        got = full_norm_exact(gaussian_point_model(s))
        assert got == pytest.approx(math.exp(s * s), rel=1e-12)


def test_full_norm_matches_direct_discrete_sum():
    rng = np.random.default_rng(17)
    for family in (Family.poisson(), Family.binomial(3), Family.negbinomial(2)):
        for _ in range(5):
            mu0 = float(rng.uniform(0.8, 1.6))
            A = int(rng.integers(1, 4))
            vecs = rng.uniform(0.6, 1.8, size=A)
            probs = rng.dirichlet(np.ones(A))
            atoms = [((float(v),), float(p)) for v, p in zip(vecs, probs)]
            model = KinSpikedModel(family, (mu0,), SpikePrior.from_atoms("kin", atoms))
            direct = direct_l2_norm_discrete(family, mu0, atoms)
            assert full_norm_exact(model) == pytest.approx(direct, abs=1e-8)


def test_overlap_mc_point_mass_deterministic():
    model = gaussian_point_model(0.6)
    rng = np.random.default_rng(0)
    res = overlap_bound_mc(model, 3, 50, rng)
    series_val = overlap_bound_exact(model, 3)
    assert res.value == pytest.approx(series_val, abs=1e-14)
    assert res.stderr == pytest.approx(0.0, abs=1e-14)


def test_overlap_mc_matches_exact_for_gaussian():
    rng = np.random.default_rng(23)
    means, atoms = random_shared_instance(rng, 2, 3)
    model = KinSpikedModel(Family.gaussian(1.0), means, SpikePrior.from_atoms("kin", atoms))
    exact = ldlr_exact(model, 3)
    res = overlap_bound_mc(model, 3, 40_000, rng)
    assert abs(res.value - exact) < 4 * res.stderr


def test_overlap_mc_null_prior_is_one():
    # spike equal to the null means: overlap is identically zero
    model = KinSpikedModel(Family.poisson(), (2.0, 3.0), point_mass("kin", (2.0, 3.0)))
    res = overlap_bound_mc(model, 4, 100, np.random.default_rng(1))
    assert res.value == 1.0 and res.stderr == 0.0


def _atom_overlap_mc_peak(N, n_atoms, samples, family=Family.poisson()):
    means, atoms = random_shared_instance(np.random.default_rng(5), N, n_atoms)
    model = KinSpikedModel(family, means, SpikePrior.from_atoms("kin", atoms))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        overlap_bound_mc(model, 6, samples, np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_atom_overlap_mc_holds_no_samples_by_n_array():
    # the atom path takes one row dot product per distinct drawn pair;
    # gathering both z-score rows of every draw would take 2 x samples x N x 8 bytes
    samples = 20_000
    assert _atom_overlap_mc_peak(100, 12, samples) < 10 * 8 * samples


def test_atom_overlap_mc_holds_no_atoms_squared_array():
    # 3000 atoms have 9e6 pairs (a 72 MB table of overlaps); the drawn pairs
    # need at most the rows of the samples x N gather
    samples, N = 20_000, 2
    assert _atom_overlap_mc_peak(N, 3000, samples) < (10 + 2 * N) * 8 * samples


def test_atom_overlap_mc_evaluates_its_series_per_distinct_pair():
    # a Bernoulli prior runs two summaries; each evaluates its series on the
    # 9 distinct overlaps and gathers one samples-long array, so the peak is
    # the draws and their pair code (measured 4.8 MB); a series evaluated per
    # draw, or np.unique's inverse, peaks near 10-13 MB
    samples = 200_000
    assert _atom_overlap_mc_peak(6, 3, samples, Family.binomial(1)) < 4 * 8 * samples


def test_overlap_mc_reports_exp_bound_for_negative_v2():
    rng = np.random.default_rng(29)
    means, atoms = random_shared_instance(rng, 2, 2)
    model = KinSpikedModel(Family.binomial(1), means, SpikePrior.from_atoms("kin", atoms))
    res = overlap_bound_mc(model, 3, 1000, rng)
    assert res.upper_value is not None
    assert res.upper_value >= res.value - 1e-12


def test_overlap_mc_infinite_sentinel_past_singularity():
    # v2 = 1 and overlap r = z^2 = 4 >= 1/v2: the untruncated value is +inf
    model = KinSpikedModel(Family.gamma(1.0), (1.0,), point_mass("kin", (3.0,)))
    res = overlap_bound_mc(model, None, 20, np.random.default_rng(0))
    assert math.isinf(res.value)
    # any finite truncation stays finite
    finite = overlap_bound_mc(model, 6, 20, np.random.default_rng(0))
    assert math.isfinite(finite.value)


def test_overlap_mc_overflowing_exp_bound_has_infinite_stderr():
    # r = 40 z^2 with z^2 = 0.98^2 / (0.01 * 0.99) ~ 97: exp(r) overflows
    model = KinSpikedModel(Family.binomial(1), (0.01,) * 40, point_mass("kin", (0.99,) * 40))
    res = overlap_bound_mc(model, None, 10, np.random.default_rng(0))
    assert math.isfinite(res.value) and math.isfinite(res.stderr)
    assert res.upper_value == math.inf and res.upper_stderr == math.inf


@pytest.mark.filterwarnings("error")
def test_mc_summary_of_a_spread_past_the_float_range_is_finite():
    # squares of deviations near 1e200 overflow; the stderr is the spread of
    # the values over their largest magnitude, scaled back
    value, stderr = _mc_summary(np.array([3e200, 1e200]))
    assert value == 2e200 and stderr == pytest.approx(1e200 / math.sqrt(2), rel=1e-15)
    # a spread inside the float range keeps the bits of std / sqrt(n)
    vals = np.random.default_rng(0).lognormal(0.0, 30.0, 1000)
    assert _mc_summary(vals) == (float(vals.mean()), float(vals.std() / math.sqrt(1000)))


@pytest.mark.filterwarnings("error")
def test_overlap_mc_nan_estimate_raises():
    # overlaps of +-1e600 are +-inf, where the odd-degree series reads +-inf
    # and their mean nan; at even degree and untruncated the mean is inf
    prior = SpikePrior.from_atoms("kin", [((1e300,), 0.5), ((-1e300,), 0.5)])
    model = KinSpikedModel(Family.gaussian(1.0), (0.0,), prior)
    with pytest.raises(NumericInstabilityError, match="not a number: nan"):
        overlap_bound_mc(model, 3, 1000, np.random.default_rng(0))
    for D in (4, None):
        assert overlap_bound_mc(model, D, 1000, np.random.default_rng(0)).value == math.inf


def test_mean_vectors_of_the_wrong_length_are_rejected():
    model = KinSpikedModel(Family.poisson(), (1.0, 2.0), point_mass("kin", (1.5, 2.5)))
    with pytest.raises(DomainError):
        model.z_scores([[1.0]])
    bad = SpikePrior.from_sampler("kin", lambda rng: np.ones(3))
    with pytest.raises(DomainError):
        overlap_bound_mc(KinSpikedModel(Family.poisson(), (1.0, 2.0), bad), 2, 5,
                         np.random.default_rng(0))
    with pytest.raises(DomainError):
        channel_compare([Family.poisson()], (1.0, 2.0), point_mass("kin", (0.1, 0.1, 0.1)), 2)


def test_overlap_mc_rejects_a_negative_degree_before_drawing():
    prior = SpikePrior.from_atoms("kin", [((1.5, 2.5), 0.5), ((0.5, 3.5), 0.5)])
    model = KinSpikedModel(Family.poisson(), (1.0, 2.0), prior)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="D must be >= 0, got -1"):
        overlap_bound_mc(model, -1, 50, rng)
    assert rng.bit_generator.state == state


def test_overlap_mc_sampler_backed():
    fam = Family.gaussian(1.0)
    prior = SpikePrior.from_sampler("kin", lambda rng: rng.normal(0.0, 0.5, size=2))
    model = KinSpikedModel(fam, (0.0, 0.0), prior)
    res = overlap_bound_mc(model, 2, 500, np.random.default_rng(3))
    assert res.samples == 500 and res.stderr > 0
    with pytest.raises(DomainError):
        ldlr_exact(model, 2)


def test_atom_only_routes_reject_a_sampler_prior():
    # each exact route reads the prior through SpikePrior.atom_arrays
    kin = KinSpikedModel(Family.poisson(), (1.0, 2.0), SpikePrior.from_sampler(
        "kin", lambda rng: np.array([1.5, 2.5])))
    additive = AdditiveSpikedModel(Family.sech(), (0.0, 0.0), SpikePrior.from_sampler(
        "additive", lambda rng: np.array([0.5, 0.5])))
    routes = [
        lambda: ldlr_exact(kin, 2),
        lambda: overlap_bound_exact(kin, 2),
        lambda: ldlr_exact_additive(additive, 2),
        lambda: channel_compare([Family.poisson()], (1.0, 2.0), kin.prior, 2),
    ]
    for route in routes:
        with pytest.raises(DomainError, match="requires an atom"):
            route()


def test_additive_fixtures():
    fam = Family.sech()
    m0 = AdditiveSpikedModel(fam, (0.0,), point_mass("additive", (0.0,)))
    for D in (0, 3, 6):
        assert ldlr_exact_additive(m0, D) == pytest.approx(1.0)
    m = AdditiveSpikedModel(fam, (0.0,), point_mass("additive", (0.5,)))
    want = 1.0 + 0.25 + 0.125**2
    val = ldlr_exact_additive(m, 2)
    assert type(val) is float and val == pytest.approx(want, abs=1e-14)
    with pytest.raises(DomainError):
        ldlr_exact_additive(
            AdditiveSpikedModel(Family.gaussian(1.0), (0.0,), point_mass("additive", (0.5,))), 2
        )
    with pytest.raises(DomainError):
        ldlr_exact_additive(
            AdditiveSpikedModel(fam, (0.1,), point_mass("additive", (0.5,))), 2
        )


def test_channel_compare_ordering():
    rng = np.random.default_rng(31)
    means, z_atoms = random_z_instance(rng, 2, 3)
    prior = SpikePrior.from_atoms("kin", z_atoms)
    families = [
        Family.binomial(1),      # v2 = -1
        Family.binomial(2),      # v2 = -1/2
        Family.gaussian(1.0),    # v2 = 0
        Family.poisson(),        # v2 = 0
        Family.negbinomial(2),   # v2 = 1/2
        Family.gamma(1.0),       # v2 = 1
    ]
    norms = channel_compare(families, means, prior, D=3)
    v2s = [f.v2 for f, _ in norms]
    assert v2s == sorted(v2s)
    vals = [value for _, value in norms]
    assert all(type(v) is float for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # equal v2 gives equal norms: the gaussian/poisson pair
    zero_vals = [value for f, value in norms if f.v2 == 0.0]
    assert zero_vals[0] == zero_vals[1]


@pytest.mark.parametrize("mu", [1.3, 1.7])
def test_channels_with_equal_v2_give_the_same_float(mu):
    # one coordinate, a point mass at z-offset 0.3, D = 2: the norm is
    # 1 + delta^2 + (1 + v2) delta^4 / 2, whichever family carries v2
    delta = 0.3
    families = [Family.negbinomial(2), Family.gamma(2.0), Family.gaussian(1.0), Family.poisson()]
    norms = channel_compare(families, (mu,), point_mass("kin", (delta,)), 2)
    for (f_lo, lo), (f_hi, hi) in (norms[:2], norms[2:]):  # v2 = 0, then v2 = 1/2
        assert f_lo.v2 == f_hi.v2 and lo == hi
        assert lo == pytest.approx(1 + delta**2 + (1 + f_lo.v2) * delta**4 / 2, rel=1e-15)


def test_channel_compare_matches_the_raw_mean_route():
    # the norms on z-offsets against ldlr_exact of each family's realized
    # raw means, which takes their z-scores again
    rng = np.random.default_rng(41)
    families = [
        Family.binomial(1), Family.binomial(2), Family.gaussian(1.0),
        Family.poisson(), Family.negbinomial(2), Family.gamma(1.0), Family.sech(),
    ]
    for _ in range(40):
        means, z_atoms = random_z_instance(rng)
        prior = SpikePrior.from_atoms("kin", z_atoms)
        D = int(rng.integers(0, 5))
        for family, value in channel_compare(families, means, prior, D):
            want = ldlr_exact(kin_model_from_z(family, means, prior), D)
            assert value == pytest.approx(want, rel=1e-13)


def test_channel_compare_single_and_validation():
    rng = np.random.default_rng(37)
    means, z_atoms = random_z_instance(rng, 2, 2)
    prior = SpikePrior.from_atoms("kin", z_atoms)
    assert len(channel_compare([Family.poisson()], means, prior, 2)) == 1
    with pytest.raises(DomainError):
        channel_compare([], means, prior, 2)
    # standardized offsets that leave a family's mean domain are rejected
    big = SpikePrior.from_atoms("kin", [((4.0, 4.0), 1.0)])
    with pytest.raises(DomainError):
        channel_compare([Family.binomial(1)], (0.5, 0.5), big, 2)


def test_sbm_overlap_values():
    assert sbm_overlap(2, 3.0, 1.0, [1, 1], [1, -1]) == pytest.approx(-0.25)
    n, a, b = 6, 4.0, 2.0
    ones = np.ones(n)
    want = (a - b) ** 2 / (4 * (a + b)) * (n - 1)
    assert sbm_overlap(n, a, b, ones, ones) == pytest.approx(want)
    assert sbm_overlap(4, 2.5, 2.5, [1, -1, 1, -1], [1, 1, 1, 1]) == 0.0
    with pytest.raises(DomainError):
        sbm_overlap(3, 1.0, 2.0, [1, 1], [1, -1, 1])
    with pytest.raises(DomainError):
        sbm_overlap(2, 1.0, 2.0, [1, 0.5], [1, -1])


def test_sbm_scan_rows_and_determinism():
    # one (estimate, stderr) pair per point; the CLI writes the Kesten-Stigum
    # columns (test_cli.py::test_sbm_report_compares_both_sides)
    grid = [(3.0, 1.0), (7.5, 1.5)]
    scan1 = sbm_ks_scan(50, 20, grid, 2000, np.random.default_rng(42))
    scan2 = sbm_ks_scan(50, 20, grid, 2000, np.random.default_rng(42))
    assert scan1 == scan2 and len(scan1) == 2
    estimate, stderr = scan1[0]
    assert estimate > 1.0 and stderr > 0.0


def test_sbm_scan_checks_every_rate_before_drawing():
    rng = np.random.default_rng(43)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="^need finite rate a > 0, got 0$"):
        sbm_ks_scan(50, 4, iter([(3.0, 1.0), (0, 1)]), 100, rng)
    assert rng.bit_generator.state == state
    # a generator grid is read once and still scans every point
    scan = sbm_ks_scan(50, 4, ((a, 1.0) for a in (3.0, 5.0)), 100, rng)
    assert len(scan) == 2


def test_sbm_scan_checks_every_gap_before_drawing():
    # an overflowing (a - b)^2 at a later point raises before point 0 draws,
    # after the domain and work-bound checks of the whole call
    rng = np.random.default_rng(45)
    state = rng.bit_generator.state
    grid = [(3, 1), (1e308, 1)]
    with pytest.raises(NumericInstabilityError, match=r"^\(a - b\)\^2 overflows at a=1e\+308, b=1$"):
        sbm_ks_scan(50, 4, grid, 10, rng)
    with pytest.raises(DomainError, match="degree bound D must be >= 0, got -1"):
        sbm_ks_scan(50, -1, grid, 10, rng)
    with pytest.raises(DomainError, match="^need finite rate a > 0, got 0$"):
        sbm_ks_scan(50, 4, grid + [(0, 1)], 10, rng)
    with pytest.raises(CapExceededError):
        sbm_ks_scan(50, 10**8, grid, 10, rng)
    assert rng.bit_generator.state == state


def test_sbm_scan_checks_its_size_before_drawing():
    # the CDF table holds n + 1 entries: n stops at MAX_EXACT_N, as for
    # the exact sign-count sums
    rng = np.random.default_rng(44)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match=f"n must be in 1..{MAX_EXACT_N}, got {MAX_EXACT_N + 1}"):
        sbm_ks_scan(MAX_EXACT_N + 1, 4, [(3.0, 1.0)], 100, rng)
    assert rng.bit_generator.state == state


def test_sbm_scan_degree_zero_is_one():
    [(estimate, stderr)] = sbm_ks_scan(20, 0, [(3.0, 1.0)], 100, np.random.default_rng(0))
    assert estimate == pytest.approx(1.0)
    assert stderr == 0.0


def _sbm_scan_exact(n, D, a, b):
    """E[f_trunc(D, 0.0)(r)] under <s1, s2> = 2 Binomial(n, 1/2) - n, as the
    O(n) log-space sum over the count, with the series' sign kept apart."""
    dot = 2.0 * np.arange(n + 1) - n
    v = f_trunc(D, 0.0)((a - b) ** 2 / (4 * (a + b)) * (dot * dot - n) / n)
    with np.errstate(divide="ignore"):
        return _sign_count_mean(np.log(np.abs(v)), np.sign(v))


def test_sbm_scan_matches_exact_enumeration():
    # oracle: the overlap law is 2*Binomial(n, 1/2) - n, so the scanned
    # functional has an exact finite sum; at odd D and (a, b) = (10, 1) the
    # series is negative near <s1, s2> = 0
    from scipy.stats import binom

    j = np.arange(31)
    dot = 2.0 * j - 30
    for n in (30, 200):
        for D, a, b in ((4, 3.0, 1.0), (3, 10.0, 1.0)):
            exact = _sbm_scan_exact(n, D, a, b)
            if n == 30:  # the oracle against the direct pmf sum
                r = (a - b) ** 2 / (4 * (a + b)) * (dot * dot - 30) / 30
                direct = float(np.sum(binom.pmf(j, 30, 0.5) * f_trunc(D, 0.0)(r)))
                assert exact == pytest.approx(direct, rel=1e-12), D
            [(estimate, stderr)] = sbm_ks_scan(n, D, [(a, b)], 400_000, np.random.default_rng(77))
            assert abs(estimate - exact) < 4 * stderr, (n, D)


class _FixedUniforms:
    """Generator stub whose ``random`` hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u


def test_sbm_scan_inverse_cdf_ends():
    # u = 0 draws the count 0 (scipy's binom.ppf gives -1, outside the
    # support); the largest double below 1 draws n for n <= 52, where
    # F(n - 1) = 1 - 2^-n lies below it
    a, b, D = 3.0, 1.0, 6
    c = (a - b) ** 2 / (4 * (a + b))
    for n in (1, 2, 20, 51):
        top = float(f_trunc(D, 0.0)(c * (n - 1)))  # |<s1, s2>| = n
        for u in (0.0, np.nextafter(1.0, 0.0)):
            [(estimate, _)] = sbm_ks_scan(n, D, [(a, b)], 1, _FixedUniforms([u]))
            assert estimate == top, (n, u)
    # u equal to F(k) draws k, the smallest count whose CDF reaches u
    n = 20
    for k in (3, 10, 16):
        u = _symmetric_binomial_cdf(n)[k]
        [(estimate, _)] = sbm_ks_scan(n, D, [(a, b)], 1, _FixedUniforms([u]))
        assert estimate == float(f_trunc(D, 0.0)(c * ((2 * k - n) ** 2 - n) / n)), k


def test_symmetric_binomial_cdf_matches_scipy_ppf():
    from scipy.stats import binom

    rng = np.random.default_rng(20260809)
    for n in (1, 2, 50, 200, 2000):
        u = rng.random(2_000_000)
        want = binom.ppf(u, n, 0.5)
        assert np.array_equal(np.searchsorted(_symmetric_binomial_cdf(n), u), want), n


def test_symmetric_binomial_cdf_matches_exact_integer_cdf():
    # running integer sums over 2**n: int / int division rounds correctly
    u = np.random.default_rng(5).random(100_000)
    for n in range(1, 61):
        exact = np.array([c / 2**n for c in itertools.accumulate(math.comb(n, k) for k in range(n + 1))])
        cdf = _symmetric_binomial_cdf(n)
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0)
        assert np.max(np.abs(cdf - exact)) < 1e-14, n
        assert np.array_equal(np.searchsorted(cdf, u), np.searchsorted(exact, u)), n

"""Closed forms against the generic algorithms they replaced.

Each library routine is pinned to its reference implementation in
``helpers``: the Morris recurrence to Gram-Schmidt on exact moments, the
generating-function products of the exact norms to multi-index
enumeration, the O(n) entrywise sum to the vertex-parity dynamic
program, the array z-scores, array f and one-call Monte Carlo overlap
to their per-scalar forms, and the atom-pair overlap table to gathering both
rows of every drawn pair.  Examples are derandomized so the suite stays
repeatable.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    atom_pair_overlaps_by_gather,
    entrywise_parity_dp,
    f_eval_scalar,
    gram_schmidt_basis,
    ldlr_exact_additive_enum,
    ldlr_exact_enum,
    overlap_mc_per_draw,
    random_shared_instance,
    z_rows_per_scalar,
)
from nefqvf.families import Family, parse_family
from nefqvf.ldlr import (
    AdditiveSpikedModel,
    KinSpikedModel,
    SpikePrior,
    _pair_overlaps,
    ldlr_exact,
    ldlr_exact_additive,
    overlap_bound_mc,
)
from nefqvf.orthopoly import build_basis, f_eval
from nefqvf.spiked import entrywise_ldlr_exact

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# (family, mean range) with the range inside the family's mean domain
FAMILIES = [
    (Family.gaussian(1.3), -2.0, 2.0),
    (Family.poisson(), 0.1, 4.0),
    (Family.gamma(2.5), 0.1, 4.0),
    (Family.binomial(3), 0.1, 2.9),
    (Family.negbinomial(3), 0.1, 4.0),
    (Family.sech(), -2.0, 2.0),
]

family_index = st.integers(0, len(FAMILIES) - 1)
unit = st.floats(0.0, 1.0)
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(index=family_index, u=unit, K=st.integers(0, 10))
def test_morris_recurrence_matches_gram_schmidt(index, u, K):
    family, lo, hi = FAMILIES[index]
    mu0 = lo + u * (hi - lo)
    basis = build_basis(family, mu0, K)
    monic, norm_sq = gram_schmidt_basis(family, Fraction(mu0), K)
    assert basis.monic == tuple(tuple(p) for p in monic)
    assert basis.norm_sq == tuple(norm_sq)


@PROPERTY
@given(index=family_index, seed=seeds, N=st.integers(1, 3), A=st.integers(1, 3),
       D=st.integers(0, 5))
def test_kin_generating_function_matches_enumeration(index, seed, N, A, D):
    family = FAMILIES[index][0]
    means, atoms = random_shared_instance(np.random.default_rng(seed), N, A)
    model = KinSpikedModel(family, means, SpikePrior.from_atoms("kin", atoms))
    assert ldlr_exact(model, D) == pytest.approx(ldlr_exact_enum(model, D), rel=1e-12)


@PROPERTY
@given(seed=seeds, N=st.integers(1, 3), A=st.integers(1, 3), D=st.integers(0, 5))
def test_additive_generating_function_matches_enumeration(seed, N, A, D):
    rng = np.random.default_rng(seed)
    vecs = rng.uniform(-1.0, 1.0, size=(A, N))
    probs = rng.dirichlet(np.ones(A))
    atoms = [(tuple(vecs[a]), float(probs[a])) for a in range(A)]
    model = AdditiveSpikedModel(Family.sech(), (0.0,) * N,
                                SpikePrior.from_atoms("additive", atoms))
    want = ldlr_exact_additive_enum(model, D)
    assert ldlr_exact_additive(model, D) == pytest.approx(want, rel=1e-12)


@PROPERTY
@given(n=st.integers(2, 8), D=st.integers(0, 3), lam=st.floats(-4.0, 4.0))
# w_even < w_odd, where the cross-pair factor changes sign
@example(n=2, D=1, lam=3.0)
@example(n=4, D=1, lam=3.0)
def test_entrywise_sum_matches_parity_dp(n, D, lam):
    want = entrywise_parity_dp(n, lam, D)
    assert entrywise_ldlr_exact(n, lam, D) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("D", [4, 5, 7, 9])
@pytest.mark.parametrize("lam", [0.9, 3.0])
def test_entrywise_sum_past_degree_three_matches_parity_dp(n, D, lam):
    want = entrywise_parity_dp(n, lam, D)
    assert entrywise_ldlr_exact(n, lam, D) == pytest.approx(want, rel=1e-12)


@PROPERTY
@given(index=family_index, seed=seeds, N=st.integers(1, 6), A=st.integers(1, 5))
def test_array_z_scores_match_per_scalar_oracle(index, seed, N, A):
    family, lo, hi = FAMILIES[index]
    rng = np.random.default_rng(seed)
    means = rng.uniform(lo, hi, N)
    rows = rng.uniform(lo, hi, size=(A, N))
    want = z_rows_per_scalar(family, means, rows)
    assert family.z_score(means, rows).tobytes() == want.tobytes()
    atoms = [(tuple(row), 1.0 / A) for row in rows]
    model = KinSpikedModel(family, tuple(means), SpikePrior.from_atoms("kin", atoms))
    assert model.z_scores(model.prior.atom_arrays()[0]).tobytes() == want.tobytes()


# v = 0, v > 0 and v = -1/m, with t past the singularity 1/v for most v > 0
v_values = st.one_of(st.just(0.0), st.floats(0.05, 3.0),
                     st.integers(1, 6).map(lambda m: -1.0 / m))


@PROPERTY
@given(v=v_values, ts=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=20))
@example(v=0.5, ts=[2.0, 1.999, 2.001, -1.0])  # at, below and past t = 1/v
@example(v=0.0, ts=[800.0, -800.0])  # overflow to inf, underflow to 0
def test_array_f_eval_matches_scalar_oracle(v, ts):
    def scalar(t):
        try:
            return f_eval_scalar(t, v)
        except OverflowError:
            return math.inf

    got = f_eval(np.array(ts), v)
    want = np.array([scalar(t) for t in ts])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert f_eval(ts[0], v) == got[0]


@PROPERTY
@given(index=family_index, seed=seeds, N=st.integers(1, 5),
       D=st.one_of(st.none(), st.integers(0, 6)), samples=st.integers(1, 30))
def test_sampler_overlap_mc_matches_per_draw_oracle(index, seed, N, D, samples):
    family, lo, hi = FAMILIES[index]
    rng = np.random.default_rng(seed)
    means = tuple(rng.uniform(lo, hi, N))
    # draws near the null means keep the overlap small and the value finite
    width = 0.1 * (hi - lo)
    prior = SpikePrior.from_sampler(
        "kin", lambda g: np.clip(np.array(means) + width * g.uniform(-1, 1, N), lo, hi))
    model = KinSpikedModel(family, means, prior)
    got = overlap_bound_mc(model, D, samples, np.random.default_rng(seed)).value
    want = overlap_mc_per_draw(model, D, samples, np.random.default_rng(seed))
    assert got == pytest.approx(want, rel=1e-12)


@PROPERTY
@given(index=family_index, seed=seeds, N=st.integers(1, 60), A=st.integers(1, 60),
       samples=st.integers(1, 3000))
@example(index=0, seed=0, N=1, A=1, samples=1)
@example(index=2, seed=3, N=40, A=500, samples=1000)
def test_atom_pair_table_matches_gathered_rows(index, seed, N, A, samples):
    means, atoms = random_shared_instance(np.random.default_rng(seed), N, A)
    model = KinSpikedModel(FAMILIES[index][0], means, SpikePrior.from_atoms("kin", atoms))
    got = _pair_overlaps(model, samples, np.random.default_rng(seed))
    want = atom_pair_overlaps_by_gather(model, samples, np.random.default_rng(seed))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def families(draw):
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    size = st.integers(1, 10**6)
    kind = draw(st.sampled_from(["gaussian", "poisson", "gamma", "binomial",
                                 "negbinomial", "sech"]))
    if kind == "gaussian":
        return Family.gaussian(draw(positive))
    if kind == "gamma":
        return Family.gamma(draw(positive))
    if kind in ("binomial", "negbinomial"):
        return getattr(Family, kind)(draw(size))
    return getattr(Family, kind)()


@PROPERTY
@given(family=families())
@example(family=Family.gaussian(2))  # integral float parameters print as ints
@example(family=Family.gamma(0.1))
def test_parse_family_round_trips_tag(family):
    assert parse_family(family.tag()) == family

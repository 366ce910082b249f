"""Closed forms against the generic algorithms they replaced.

Each library routine is pinned to its reference implementation in
``helpers``: the Morris recurrence to Gram-Schmidt on exact moments, the
generating-function products of the exact norms to multi-index
enumeration, and the O(n) entrywise sum to the vertex-parity dynamic
program.  Examples are derandomized so the suite stays repeatable.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    entrywise_parity_dp,
    gram_schmidt_basis,
    ldlr_exact_additive_enum,
    ldlr_exact_enum,
    random_shared_instance,
)
from nefqvf.families import Family
from nefqvf.ldlr import (
    AdditiveSpikedModel,
    KinSpikedModel,
    SpikePrior,
    ldlr_exact,
    ldlr_exact_additive,
)
from nefqvf.orthopoly import build_basis
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
    assert ldlr_exact(model, D).value == pytest.approx(ldlr_exact_enum(model, D), rel=1e-12)


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
    assert ldlr_exact_additive(model, D).value == pytest.approx(want, rel=1e-12)


@PROPERTY
@given(n=st.integers(2, 8), D=st.integers(0, 3), lam=st.floats(-4.0, 4.0))
# w_even < w_odd, where the cross-pair factor changes sign
@example(n=2, D=1, lam=3.0)
@example(n=4, D=1, lam=3.0)
def test_entrywise_sum_matches_parity_dp(n, D, lam):
    want = entrywise_parity_dp(n, lam, D)
    assert entrywise_ldlr_exact(n, lam, D) == pytest.approx(want, rel=1e-12)

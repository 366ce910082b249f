"""Families: closed forms, identities, the oracle samplers' moments and the
program's one sampler."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import DISCRETE_KINDS, natural_maps, pdf, sample_member
from nefqvf.errors import ConfigError, DomainError
from nefqvf.families import Family, parse_family

ALL = [
    Family.gaussian(1.3),
    Family.poisson(),
    Family.gamma(2.5),
    Family.binomial(10),
    Family.negbinomial(3),
    Family.sech(),
]

REF_MEANS = {
    "gaussian": 0.7,
    "poisson": 2.5,
    "gamma": 1.8,
    "binomial": 3.7,
    "negbinomial": 1.4,
    "sech": 0.6,
}


def test_v2_values_across_families():
    got = {f.kind: f.v2 for f in ALL}
    assert got == {
        "gaussian": 0.0,
        "poisson": 0.0,
        "gamma": 1 / 2.5,
        "binomial": -1 / 10,
        "negbinomial": 1 / 3,
        "sech": 1.0,
    }


def test_variance_closed_forms():
    assert Family.gamma(2.0).variance(3.0) == pytest.approx(4.5)
    assert Family.gaussian(1.0).variance(17.0) == 1.0
    assert Family.binomial(1).variance(0.5) == pytest.approx(0.25)
    assert Family.poisson().variance(2.5) == pytest.approx(2.5)
    assert Family.negbinomial(3).variance(1.4) == pytest.approx(1.4 + 1.4**2 / 3)
    assert Family.sech().variance(0.6) == pytest.approx(1.36)


def test_variance_rejects_outside_domain():
    with pytest.raises(DomainError):
        Family.poisson().variance(-1.0)
    with pytest.raises(DomainError):
        Family.binomial(2).variance(2.0)  # endpoint excluded: V would vanish
    with pytest.raises(DomainError):
        Family.gamma(1.0).variance(0.0)
    # the full text at NaN, +-inf and an endpoint, for a scalar and a
    # one-element array alike
    for fam, mu, text in [
        (Family.poisson(), math.nan, "mean nan outside (0.0, inf) for poisson"),
        (Family.poisson(), math.inf, "mean inf outside (0.0, inf) for poisson"),
        (Family.sech(), -math.inf, "mean -inf outside (-inf, inf) for sech"),
        (Family.binomial(2), 2.0, "mean 2.0 outside (0.0, 2.0) for binomial{m=2}"),
    ]:
        for arg in (mu, np.array([mu])):
            with pytest.raises(DomainError) as err:
                fam.variance(arg)
            assert str(err.value) == text, arg


def test_z_score_values():
    assert Family.poisson().z_score(1.0, 3.0) == pytest.approx(2.0)
    assert Family.binomial(1).z_score(0.5, 0.75) == pytest.approx(0.5)
    for fam in ALL:
        mu = REF_MEANS[fam.kind]
        assert fam.z_score(mu, mu) == 0.0


def test_z_score_maps_rows_of_values_against_a_vector_of_means():
    fam = Family.poisson()
    z = fam.z_score(np.array([1.0, 4.0]), np.array([[3.0, 4.0], [1.0, 0.0]]))
    assert z.shape == (2, 2)
    assert z.tolist() == [[2.0, 0.0], [0.0, -2.0]]
    with pytest.raises(DomainError, match="mean -1.0 outside"):
        fam.z_score(np.array([1.0, -1.0, 2.0]), np.zeros(3))


def test_mean_to_natural_closed_forms():
    assert natural_maps(Family.sech()).theta(1.0) == pytest.approx(math.pi / 4)
    assert natural_maps(Family.gaussian(1.0)).theta(0.0) == 0.0
    # Poisson: solve e^theta = e, verified against a finite difference of psi
    maps = natural_maps(Family.poisson())
    theta = maps.theta(math.e)
    assert theta == pytest.approx(1.0, abs=1e-12)
    h = 1e-6
    dpsi = (maps.psi(theta + h) - maps.psi(theta - h)) / (2 * h)
    assert dpsi == pytest.approx(math.e, rel=1e-8)


def test_cumulant_values():
    assert natural_maps(Family.sech()).psi(0.0) == 0.0
    assert natural_maps(Family.gaussian(1.0)).psi(2.0) == pytest.approx(2.0)
    assert natural_maps(Family.sech()).psi(math.pi / 3) == pytest.approx(math.log(2.0))


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.kind)
def test_cumulant_second_derivative_is_variance(fam):
    # psi''(theta) = V(psi'(theta)) on two grids of interior natural
    # parameters, with the library's V: this pins each kind's (v0, v1, v2)
    maps = natural_maps(fam)
    lo, hi = max(maps.lo, -1.0) + 0.1, min(maps.hi, 1.0) - 0.1
    h = 1e-4
    for theta in (*np.linspace(lo, hi, 7), *np.linspace(lo, hi, 9)):
        d2 = (maps.psi(theta + h) - 2 * maps.psi(theta) + maps.psi(theta - h)) / h**2
        assert d2 == pytest.approx(fam.variance(maps.mean(theta)), rel=1e-6)


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.kind)
def test_mean_natural_round_trip(fam):
    # every interior mean, the reference mean included, maps into the
    # natural domain and back
    maps, dom = natural_maps(fam), fam.mean_domain
    lo = dom.lo if math.isfinite(dom.lo) else -3.0
    hi = dom.hi if math.isfinite(dom.hi) else 4.0
    for mu in (*np.linspace(lo, hi, 9)[1:-1], REF_MEANS[fam.kind]):
        theta = maps.theta(mu)
        assert maps.lo < theta < maps.hi
        assert abs(maps.mean(theta) - mu) < 1e-10


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.kind)
def test_sampler_moments(fam):
    # the exact laws of the oracle draws have the mean and V(mu) stated
    rng = np.random.default_rng(12345)
    n = 1_000_000
    dom = fam.mean_domain
    mus = [REF_MEANS[fam.kind], REF_MEANS[fam.kind] / 2]
    if not math.isfinite(dom.hi) and not math.isfinite(dom.lo):
        mus.append(-0.9)
    for mu in mus:
        draws = sample_member(fam, mu, rng, n)
        v = fam.variance(mu)
        se_mean = math.sqrt(v / n)
        assert abs(draws.mean() - mu) < 4 * se_mean, (fam.kind, mu)
        m4 = np.mean((draws - mu) ** 4)
        se_var = math.sqrt(max(m4 - v * v, 0.0) / n)
        assert abs(draws.var() - v) < 4 * se_var, (fam.kind, mu)


def test_sech_standard_sampler_variance():
    # V(0) = 1 for the symmetric sech member
    rng = np.random.default_rng(7)
    draws = Family.sech().sample(0.0, rng, 1_000_000)
    assert abs(draws.mean()) < 4 / 1000
    assert abs(draws.var() - 1.0) < 4 * math.sqrt(np.mean(draws**4) / 1e6)


def test_sech_sampler_redraws_exact_zero_uniforms():
    # u = 0 would give log(tan 0) = -inf; only that entry is drawn again
    class StubGenerator:
        def __init__(self):
            self.batches = [np.array([0.0, 0.25, 0.5, 0.9]), np.array([0.0]),
                            np.array([0.7])]

        def random(self, size):
            out = self.batches.pop(0)
            assert out.size == size
            return out.copy()

    stub = StubGenerator()
    draws = Family.sech().sample(0.0, stub, 4)
    assert not stub.batches and np.all(np.isfinite(draws))
    u = np.array([0.7, 0.25, 0.5, 0.9])
    np.testing.assert_array_equal(draws, (2 / math.pi) * np.log(np.tan(math.pi * u / 2)))


def test_sample_count_zero_and_negative():
    rng = np.random.default_rng(0)
    assert Family.sech().sample(0.0, rng, 0).size == 0
    with pytest.raises(DomainError):
        Family.sech().sample(0.0, rng, -1)


@pytest.mark.parametrize("fam, mu", [
    *[(fam, REF_MEANS[fam.kind]) for fam in ALL[:-1]], (Family.gaussian(1.3), 0.0),
    (Family.sech(), 0.5)],
    ids=lambda x: getattr(x, "kind", str(x)))
def test_sample_draws_only_the_mean_zero_sech_member(fam, mu):
    # the program draws only the spiked model's noise; the other members'
    # laws live in helpers.sample_member
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match=rf"only sech at mean 0 is sampled, got .* at {mu}$"):
        fam.sample(mu, rng, 10)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.kind)
def test_pdf_normalization_and_mean(fam):
    mu = REF_MEANS[fam.kind]
    if fam.kind in DISCRETE_KINDS:
        hi = fam.param if fam.kind == "binomial" else 200
        xs = np.arange(0, hi + 1)
        w = np.array([pdf(fam, mu, float(x)) for x in xs])
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w * xs).sum() == pytest.approx(mu, rel=1e-10)
    else:
        lo, hi = (0.0, np.inf) if fam.kind == "gamma" else (-np.inf, np.inf)
        total, _ = quad(lambda x: pdf(fam, mu, x), lo, hi)
        assert total == pytest.approx(1.0, abs=1e-9)
        mean, _ = quad(lambda x: x * pdf(fam, mu, x), lo, hi)
        assert mean == pytest.approx(mu, abs=1e-8)


def test_tag_round_trip():
    for fam in ALL + [Family.gaussian(0.1), Family.gamma(1e-3), Family.gamma(1e300),
                      Family.binomial(49), Family.negbinomial(10**6)]:
        assert parse_family(fam.tag()) == fam
    assert parse_family("gamma{alpha=2}") == Family.gamma(2.0)
    assert parse_family(" poisson ") == Family.poisson()


def test_family_construction_is_checked():
    # an unknown kind, an out-of-range or infinite parameter, a non-integer
    # or bool m, an extra parameter and a missing one: no invalid family is
    # ever built
    for args, msg in [(("Gamma", 2.0), "unknown family 'Gamma'"),
                      (("gamma", -1.0), "gamma needs finite alpha > 0, got -1.0"),
                      (("binomial", 2.5), "binomial needs an integer m, got 2.5"),
                      (("binomial", 0), "binomial m must be >= 1, got 0"),
                      (("poisson", 3), "poisson takes no parameters"),
                      (("gaussian",), "gaussian requires parameter 'sigma2'"),
                      (("gaussian", math.nan), "gaussian needs finite sigma2 > 0, got nan"),
                      (("gaussian", math.inf), "gaussian needs finite sigma2 > 0, got inf"),
                      (("gamma", math.inf), "gamma needs finite alpha > 0, got inf"),
                      (("binomial", True), "binomial needs an integer m, got True")]:
        with pytest.raises(DomainError, match=msg):
            Family(*args)
    # any integer type gives m, stored as a plain int
    m = Family.binomial(np.int64(3))
    assert m == Family.binomial(3) and type(m.param) is int and m.tag() == "binomial{m=3}"
    assert Family("gamma", 2.0) == Family.gamma(2.0)
    assert Family("sech") == Family.sech()


def test_parse_family_rejects_malformed():
    for bad in ["weibull", "gamma", "gamma{alpha=x}", "gamma{beta=2}",
                "poisson{m=2}", "binomial{m=0}", "gamma{alpha=2", "gamma{}",
                "gamma{alpha}", "gamma{alpha=2,alpha=3}", "gamma{alpha=2,m=1}",
                "binomial{m=2.5}", "weibull{k=2}"]:
        with pytest.raises((ConfigError, DomainError)):
            parse_family(bad)

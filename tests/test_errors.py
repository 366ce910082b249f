"""Each error rule in one place: the one integer bound check, the one float
argument check, the exit code each error class carries, and the exit codes
the documents list."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from nefqvf import cli, errors
from nefqvf.cli import ExperimentConfig, main
from nefqvf.errors import (
    CapExceededError,
    ConfigError,
    DomainError,
    NefqvfError,
    NumericInstabilityError,
)
from nefqvf.families import Family
from nefqvf.ldlr import (
    MAX_EXACT_N,
    KinSpikedModel,
    SpikePrior,
    ldlr_exact,
    overlap_bound_mc,
    sbm_ks_scan,
)
from nefqvf.orthopoly import MAX_BASIS_DEGREE, a_hat, build_basis, f_ratios
from nefqvf.spiked import (
    MAX_EIG_SIZE,
    WigInstance,
    entrywise_coefficient,
    entrywise_ldlr_exact,
    entrywise_ldlr_mc_bound,
    overlap_chi2_mc,
    power_curve,
    sample_wig,
)
from nefqvf.translation import MAX_TABLE_DEGREE, build_translation_table

ROOT = Path(__file__).resolve().parent.parent

KIN = KinSpikedModel(Family.poisson(), (1.0,), SpikePrior.from_atoms("kin", [((1.5,), 1.0)]))


def _simulate(trials, rng):
    values = {"n": 20, "lambda": 1.0, "noise": "sech", "alpha": None, "planted": False,
              "trials": trials, "test": "none", "seed": 0, "out": None}
    cli._run_spiked_simulate(ExperimentConfig(("spiked", "simulate"), values))


# one row per check_range site: the route (called with the value and a
# generator), whether it draws from that generator, the value just outside
# the range, and the full message
BOUNDS = [
    ("families.sample count", lambda x, rng: Family.sech().sample(0.0, rng, x), True,
     -1, "count must be >= 0, got -1"),
    ("ldlr._check_work D", lambda x, rng: ldlr_exact(KIN, x), False,
     -1, "D must be >= 0, got -1"),
    ("ldlr.overlap_bound_mc samples", lambda x, rng: overlap_bound_mc(KIN, 2, x, rng), True,
     0, "samples must be >= 1, got 0"),
    ("ldlr.sbm_ks_scan n", lambda x, rng: sbm_ks_scan(x, 4, [(3.0, 1.0)], 10, rng), True,
     0, "n must be in 1..1000000, got 0"),
    ("ldlr.sbm_ks_scan n", lambda x, rng: sbm_ks_scan(x, 4, [(3.0, 1.0)], 10, rng), True,
     MAX_EXACT_N + 1, "n must be in 1..1000000, got 1000001"),
    ("ldlr.sbm_ks_scan samples", lambda x, rng: sbm_ks_scan(50, 4, [(3.0, 1.0)], x, rng), True,
     0, "samples must be >= 1, got 0"),
    # the scan's D reaches orthopoly.f_ratios's check before the first draw
    ("ldlr.sbm_ks_scan D", lambda x, rng: sbm_ks_scan(50, x, [(3.0, 1.0)], 10, rng), True,
     -1, "degree bound D must be >= 0, got -1"),
    ("orthopoly.a_hat k", lambda x, rng: a_hat(x, 0.5), False,
     -1, "degree k must be >= 0, got -1"),
    ("orthopoly.f_ratios D", lambda x, rng: f_ratios(x, 0.5), False,
     -1, "degree bound D must be >= 0, got -1"),
    ("orthopoly.build_basis K", lambda x, rng: build_basis(Family.poisson(), 1.0, x), False,
     -1, "K must be in 0..40, got -1"),
    ("orthopoly.build_basis K", lambda x, rng: build_basis(Family.poisson(), 1.0, x), False,
     MAX_BASIS_DEGREE + 1, "K must be in 0..40, got 41"),
    ("translation.eval k", lambda x, rng: build_translation_table(3).eval(x, 0.5), False,
     -1, "k must be in 0..3, got -1"),
    ("translation.eval k", lambda x, rng: build_translation_table(3).eval(x, 0.5), False,
     4, "k must be in 0..3, got 4"),
    ("translation.build_translation_table K", lambda x, rng: build_translation_table(x), False,
     -1, "translation table degree must be in 0..200, got -1"),
    ("translation.build_translation_table K", lambda x, rng: build_translation_table(x), False,
     MAX_TABLE_DEGREE + 1, "translation table degree must be in 0..200, got 201"),
    ("spiked.WigInstance n", lambda x, rng: WigInstance(1.0, np.zeros(x * (x - 1) // 2)), False,
     1, "n must be >= 2, got 1"),
    ("spiked.sample_wig n", lambda x, rng: sample_wig(x, 1.0, "sech", True, rng), True,
     1, "n must be in 2..4000, got 1"),
    ("spiked.sample_wig n", lambda x, rng: sample_wig(x, 1.0, "sech", True, rng), True,
     MAX_EIG_SIZE + 1, "n must be in 2..4000, got 4001"),
    ("spiked.entrywise_ldlr_exact n", lambda x, rng: entrywise_ldlr_exact(x, 0.5, 2), False,
     1, "n must be in 2..1000000, got 1"),
    ("spiked.entrywise_ldlr_exact n", lambda x, rng: entrywise_ldlr_exact(x, 0.5, 2), False,
     MAX_EXACT_N + 1, "n must be in 2..1000000, got 1000001"),
    ("spiked.overlap_chi2_mc samples", lambda x, rng: overlap_chi2_mc(0.5, 50, x, rng), True,
     0, "samples must be >= 1, got 0"),
    ("spiked.entrywise_coefficient D", lambda x, rng: entrywise_coefficient(50, 0.5, x), False,
     0, "D must be >= 1, got 0"),
    ("spiked.entrywise_ldlr_mc_bound n",
     lambda x, rng: entrywise_ldlr_mc_bound(x, 0.5, 2, 10, rng), True,
     1, "n must be >= 2, got 1"),
    ("spiked.power_curve trials", lambda x, rng: power_curve("pca", "sech", [1.0], 20, x, rng),
     True, 0, "trials must be >= 1, got 0"),
    ("cli._run_spiked_simulate trials", _simulate, False,
     0, "trials must be >= 1, got 0"),
    ("families.Family m", lambda x, rng: Family.binomial(x), False,
     0, "binomial m must be >= 1, got 0"),
]


@pytest.mark.parametrize("route, draws, value, message", [row[1:] for row in BOUNDS],
                         ids=[f"{row[0]}={row[3]}" for row in BOUNDS])
def test_every_integer_bound_raises_from_check_range(route, draws, value, message):
    rng = np.random.default_rng(35)
    state = rng.bit_generator.state
    with pytest.raises(DomainError) as info:
        route(value, rng)
    assert str(info.value) == message
    assert info.traceback[-1].name == "check_range"
    if draws:  # rejected before the first draw
        assert rng.bit_generator.state == state


# one row per check_float site, in the layout of BOUNDS
FLOATS = [
    ("spiked.WigInstance lambda", lambda x, rng: WigInstance(x, np.zeros(1)), False,
     math.nan, "need finite lambda >= 0, got nan"),
    ("spiked.sample_wig lambda", lambda x, rng: sample_wig(20, x, "sech", True, rng), True,
     -0.5, "need finite lambda >= 0, got -0.5"),
    ("spiked.sample_wig alpha",
     lambda x, rng: sample_wig(20, 1.0, "heavy", False, rng, alpha=x), True,
     1.0, "heavy noise needs finite alpha > 1, got 1.0"),
    # a later lambda is checked before the first one draws
    ("spiked.power_curve lambda",
     lambda x, rng: power_curve("pca", "sech", [1.0, x], 20, 2, rng), True,
     math.inf, "need finite lambda >= 0, got inf"),
    ("spiked.entrywise_ldlr_exact lambda", lambda x, rng: entrywise_ldlr_exact(6, x, 2), False,
     math.nan, "need finite lambda, got nan"),
    # the Monte Carlo bound reaches entrywise_coefficient's check before its first draw
    ("spiked.entrywise_coefficient lambda",
     lambda x, rng: entrywise_ldlr_mc_bound(50, x, 2, 10, rng), True,
     -math.inf, "need finite lambda, got -inf"),
    ("ldlr.sbm_ks_scan a",
     lambda x, rng: sbm_ks_scan(50, 4, [(3.0, 1.0), (x, 1.0)], 10, rng), True,
     0.0, "need finite rate a > 0, got 0.0"),
    ("ldlr.sbm_ks_scan b", lambda x, rng: sbm_ks_scan(50, 4, [(3.0, x)], 10, rng), True,
     math.nan, "need finite rate b > 0, got nan"),
    ("families.Family sigma2", lambda x, rng: Family.gaussian(x), False,
     0.0, "gaussian needs finite sigma2 > 0, got 0.0"),
    ("families.Family alpha", lambda x, rng: Family.gamma(x), False,
     math.inf, "gamma needs finite alpha > 0, got inf"),
    # a float parameter is a real number: not a string, a complex or a bool
    ("families.Family alpha", lambda x, rng: Family("gamma", x), False,
     "2", "gamma needs finite alpha > 0, got 2"),
    ("families.Family sigma2", lambda x, rng: Family("gaussian", x), False,
     1 + 2j, "gaussian needs finite sigma2 > 0, got (1+2j)"),
    ("families.Family alpha", lambda x, rng: Family("gamma", x), False,
     True, "gamma needs finite alpha > 0, got True"),
]


@pytest.mark.parametrize("route, draws, value, message", [row[1:] for row in FLOATS],
                         ids=[f"{row[0]}={row[3]}" for row in FLOATS])
def test_every_float_argument_raises_from_check_float(route, draws, value, message):
    rng = np.random.default_rng(36)
    state = rng.bit_generator.state
    with pytest.raises(DomainError) as info:
        route(value, rng)
    assert str(info.value) == message
    assert info.traceback[-1].name == "check_float"
    if draws:  # rejected before the first draw
        assert rng.bit_generator.state == state


def test_check_float_admits_its_bounds():
    errors.check_float("lambda", 0.0, 0, closed=True)
    errors.check_float("lambda", -1e308)
    errors.check_float("rate a", 5e-324, 0)
    errors.check_float("alpha", 1e308, 1, owner="heavy noise")
    errors.check_float("alpha", np.float64(2.5), 1)
    errors.check_float("alpha", np.int64(2), 1)
    for value, lo, closed, message in [
        (0.0, 0, False, "need finite x > 0, got 0.0"),
        (-5e-324, 0, True, "need finite x >= 0, got -5e-324"),
        (math.nan, -math.inf, False, "need finite x, got nan"),
        (math.nan, 0, True, "need finite x >= 0, got nan"),
        (None, 1, False, "need finite x > 1, got None"),
    ]:
        with pytest.raises(DomainError) as info:
            errors.check_float("x", value, lo, closed)
        assert str(info.value) == message


def test_check_range_admits_its_bounds():
    errors.check_range("n", 2, 2, 4)
    errors.check_range("n", 4, 2, 4)
    errors.check_range("samples", 10**9, 1)
    with pytest.raises(DomainError, match="samples must be >= 1, got nan"):
        errors.check_range("samples", float("nan"), 1)


@pytest.mark.parametrize("error, code", [
    (ConfigError, 2), (DomainError, 2), (CapExceededError, 3), (NumericInstabilityError, 4),
])
def test_main_returns_the_exit_code_of_the_raised_class(error, code, monkeypatch, capsys):
    def fail(config):
        raise error("raised by the runner")

    flags = cli.COMMANDS[("families", "list")][1]
    monkeypatch.setitem(cli.COMMANDS, ("families", "list"), (fail, flags))
    assert main(["families", "list"]) == code
    captured = capsys.readouterr()
    assert captured.err == "error: raised by the runner\n" and captured.out == ""


def test_main_returns_zero_for_help(capsys):
    assert main(["-h"]) == 0
    assert main(["families", "list", "-h"]) == 0
    assert "usage: nefqvf" in capsys.readouterr().out


def _listed_exit_codes(text: str) -> set[int]:
    """The numbers in the sentence that starts with ``Exit codes:``, which
    ends at the first full stop followed by a space or a line end."""
    sentence = re.split(r"\.(?:\s|$)", text[text.index("Exit codes:"):], maxsplit=1)[0]
    return {int(code) for code in re.findall(r"\b\d+\b", sentence)}


def test_documented_exit_codes_are_those_of_the_error_classes():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, NefqvfError)]
    assert len(classes) == 5
    expected = {0} | {c.exit_code for c in classes}
    assert expected == {0, 2, 3, 4}
    assert _listed_exit_codes((ROOT / "README.md").read_text()) == expected
    assert _listed_exit_codes(cli.__doc__) == expected

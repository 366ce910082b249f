"""Benchmark workloads: inputs generated from a seed, and output checks.

A workload is a list of operations.  An operation is one CLI invocation
through ``nefqvf.cli.main(argv)`` or one library call; it fails on a
non-zero exit, an exception, or an output that does not pass its check.
The workload seed fixes every CLI seed and every model file, so the program
sees only generated inputs.

Why these workloads (sizes at n = 2000, the size of the README and ACC-07):

- ``spiked-sech``: the paper's headline comparison of the plain and the
  score-transformed eigenvalue test.  Its time is sampling, matrix assembly,
  the score transform and Lanczos; ``orthopoly``, ``translation`` and
  ``ldlr`` do no work.
- ``spiked-mixed``: the same ``spiked`` layer, but the heavy branch of the
  mixed null (about a quarter of the instances) is decided by the largest
  entry and never builds a matrix.  Work moved up front into ``sample_wig``
  shows its cost here and nowhere else.
- ``norms``: exact rational arithmetic, multi-index enumeration, inverse-CDF
  overlap sampling and per-scalar z-scores, the targets of the closed forms;
  ``spiked`` does almost nothing.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("spiked-sech", "spiked-mixed", "norms")
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
# Verdict facts checked on the spiked workloads hold at this n on any seed:
# each sits at least five standard deviations of its statistic (measured
# over 20 null and 10 planted sech instances per lambda) from its threshold.
FACT_N = 2000

SIZES = {
    "full": {
        "n": 2000, "trials_sech": 1, "trials_mixed": 6,
        "sech_degree": 20, "gamma_degree": 16, "tau_degree": 80,
        "kin_N": 12, "kin_D": 8, "add_N": 10, "add_D": 6, "cmp_N": 10, "cmp_D": 6,
        "mc_samples": 200_000, "sbm_n": 200, "sbm_samples": 150_000,
        "ew_n": 8, "ew_samples": 200_000, "lib_N": 50, "lib_samples": 600,
    },
    "tiny": {
        "n": 200, "trials_sech": 1, "trials_mixed": 2,
        "sech_degree": 6, "gamma_degree": 6, "tau_degree": 16,
        "kin_N": 5, "kin_D": 3, "add_N": 4, "add_D": 3, "cmp_N": 4, "cmp_D": 3,
        "mc_samples": 2000, "sbm_n": 50, "sbm_samples": 2000,
        "ew_n": 5, "ew_samples": 2000, "lib_N": 5, "lib_samples": 20,
    },
}


class CheckError(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    name: str
    run: Callable[[], str]
    check: Callable[[str], None]
    seeded: bool  # output depends on the workload seed


# ---------------------------------------------------------------------------
# output parsing and comparison
# ---------------------------------------------------------------------------

def strip_provenance(text: str) -> str:
    """Drop the report's comment line; it carries the caller's git revision."""
    return "".join(line for line in text.splitlines(True) if not line.startswith("#"))


def rows(text: str) -> list[dict]:
    lines = strip_provenance(text).splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _num(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def cells_match(a: str, b: str) -> bool:
    """Numeric cells to a relative REL_TOL, others exactly."""
    x, y = _num(a), _num(b)
    if x is None or y is None:
        return a == b
    if isinstance(x, int) and isinstance(y, int):
        return abs(x - y) * 10**9 <= max(abs(x), abs(y))
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare_to_reference(name: str, text: str) -> None:
    ref = (REFERENCE_DIR / f"{name}.csv").read_text().splitlines()
    got = strip_provenance(text).splitlines()
    if len(ref) != len(got):
        raise CheckError(f"{name}: {len(got)} lines, reference has {len(ref)}")
    for lineno, (r, g) in enumerate(zip(ref, got), 1):
        rc, gc = r.split(","), g.split(",")
        if len(rc) != len(gc) or not all(map(cells_match, rc, gc)):
            raise CheckError(f"{name}: line {lineno} is {g!r}, reference {r!r}")


def _close(x: float, y: float, what: str) -> None:
    if not abs(x - y) <= REL_TOL * max(abs(x), abs(y)):
        raise CheckError(f"{what}: {x!r} != {y!r}")


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _finite(cell: str) -> float:
    v = float(cell)
    _need(math.isfinite(v), f"non-finite value {cell!r}")
    return v


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def cli_op(name: str, argv: list[str], check, seeded: bool = True) -> Op:
    from nefqvf import cli

    def run() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)  # looked up per call, so tracing applies
        if code != 0:
            raise CheckError(f"exit code {code}")
        return buf.getvalue()

    return Op(name, run, check, seeded)


def _write_model(path: Path, lines: list[str]) -> str:
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _vec(values) -> str:
    return " ".join(repr(round(float(v), 4)) for v in values)


def _atoms(values_list, weights) -> list[str]:
    probs = [float(w) / float(sum(weights)) for w in weights]
    return [f"atom = {_vec(v)} : {p!r}" for v, p in zip(values_list, probs)]


def spiked_sech_ops(rng, size, workdir) -> list[Op]:
    lambdas = (0.8, 1.0, 1.2, 1.5)
    # (lambda, rate) -> value: no false alarm where the threshold is far above
    # the null edge, no miss where the outlier is far above the threshold.
    # tpca at 0.8 and pca at 1.2 sit within a few standard deviations of the
    # null edge, and lambda = 1.0 puts the pca threshold on the edge itself.
    facts = {
        "tpca": {(1.2, "type_i"): 0.0, (1.5, "type_i"): 0.0, (1.5, "type_ii"): 0.0},
        "pca": {(0.8, "type_i"): 0.0, (1.5, "type_i"): 0.0, (1.5, "type_ii"): 0.0},
    }

    def check(test):
        def check_rows(text):
            got = rows(text)
            _need([float(r["lambda"]) for r in got] == list(lambdas), "lambda column")
            for r in got:
                _need(r["test"] == test and int(r["trials"]) == size["trials_sech"],
                      "test and trials columns")
                _need(0.0 <= float(r["type_i"]) <= 1.0 and 0.0 <= float(r["type_ii"]) <= 1.0,
                      "error rates outside [0, 1]")
            if size["n"] == FACT_N:
                for (lam, rate), want in facts[test].items():
                    (r,) = [r for r in got if float(r["lambda"]) == lam]
                    _need(float(r[rate]) == want, f"{test} {rate} at lambda {lam} is {r[rate]}")
        return check_rows

    return [
        cli_op(f"power-curve-{test}",
               ["spiked", "power-curve", "--test", test, "--noise", "sech",
                "--n", str(size["n"]), "--lambdas", ",".join(map(str, lambdas)),
                "--trials", str(size["trials_sech"]), "--seed", str(int(rng.integers(2**31)))],
               check(test))
        for test in ("tpca", "pca")
    ]


def spiked_mixed_ops(rng, size, workdir) -> list[Op]:
    # The mixed model's instances are composed explicitly: k heavy nulls,
    # k sech nulls and 2k planted, so exactly a quarter take the
    # short circuit.  `mix test` draws each null's branch itself, which
    # would make that share (and the pass time) a binomial draw per seed;
    # it runs at one trial so that its own code path is still covered.
    k = size["trials_mixed"]
    lam = 1.2
    cutoff = 10.0 * math.log(size["n"])
    # where the score-transformed statistic of a sech instance sits: the
    # null bulk edge, or the planted outlier
    lambda_star = 2.0 * math.sqrt(2.0) / math.pi
    edge = 2.0 * lambda_star
    outlier = lam + lambda_star**2 / lam

    def check_sim(noise, planted, trials):
        def check(text):
            got = rows(text)
            _need(len(got) == trials, "trial count")
            for r in got:
                _need(r["noise"] == noise and r["planted"] == planted and r["test"] == "mixed",
                      "instance kind")
                stat, thr = _finite(r["statistic"]), _finite(r["threshold"])
                short = noise == "heavy"
                _need(r["verdict"] == ("p" if stat >= thr and not short else "q"), "verdict")
                _need((thr == cutoff) == short and (stat > cutoff) == short,
                      "short circuit taken exactly on heavy noise")
                if size["n"] == FACT_N and not short:
                    want = outlier if planted == "true" else edge
                    _need(abs(stat - want) <= 0.08, f"statistic {stat} is not near {want}")
                    _need(planted == "true" or r["verdict"] == "q", "false alarm")
        return check

    def check_mix(text):
        (r,) = rows(text)
        t1, t2 = float(r["type_i"]), float(r["type_ii"])
        _need(0.0 <= t1 <= 1.0 and 0.0 <= t2 <= 1.0, "error rates outside [0, 1]")
        # either null branch is labelled null: heavy by the short circuit,
        # sech far below the tpca threshold at lambda 1.2
        _need(size["n"] != FACT_N or t1 == 0.0, "false alarm on the mixed null")

    def simulate(noise, planted, trials):
        return cli_op(f"simulate-{noise}-{'planted' if planted == 'true' else 'null'}",
                      ["spiked", "simulate", "--n", str(size["n"]), "--lambda", str(lam),
                       "--noise", noise, "--alpha", "3", "--planted", planted,
                       "--trials", str(trials), "--test", "mixed",
                       "--seed", str(int(rng.integers(2**31)))],
                      check_sim(noise, planted, trials))

    return [
        simulate("heavy", "false", k),
        simulate("sech", "false", k),
        simulate("mixed", "true", 2 * k),
        cli_op("mix-test", ["mix", "test", "--n", str(size["n"]), "--lambda", str(lam),
                            "--alpha", "3", "--trials", "1",
                            "--seed", str(int(rng.integers(2**31)))], check_mix),
    ]


def norms_ops(rng, size, workdir) -> list[Op]:
    from nefqvf import ldlr
    from nefqvf.families import Family

    def check_basis(degree):
        def check(text):
            got = rows(text)
            _need(len(got) == degree + 1, "degree count")
            for r in got:
                _close(float(r["norm_sq"]), float(r["closed_form"]), f"norm of degree {r['k']}")
        return check

    def check_tau(text):
        got = rows(text)
        _need(int(got[-1]["k"]) == size["tau_degree"], "table degree")
        _need(all(int(r["denominator"]) > 0 for r in got), "denominators")

    # Poisson kin model: v2 = 0, so the overlap route is an equality and
    # gives an independent value for the exact component sum
    N, D = size["kin_N"], size["kin_D"]
    mu = np.round(rng.uniform(0.5, 3.0, N), 4)
    kin_atoms = [np.round(mu * np.exp(rng.uniform(-0.3, 0.3, N)), 4) for _ in range(3)]
    kin_weights = list(rng.integers(1, 5, 3))
    kin_path = _write_model(workdir / "kin_poisson.model", [
        "family = poisson", "kind = kin", f"null_means = {_vec(mu)}",
        *_atoms(kin_atoms, kin_weights)])
    model = ldlr.KinSpikedModel(
        Family.poisson(), tuple(mu),
        ldlr.SpikePrior.from_atoms("kin", zip(kin_atoms, (float(w) / float(sum(kin_weights))
                                                          for w in kin_weights))))
    kin_expected = ldlr.overlap_bound_exact(model, D)

    def check_kin(text):
        (r,) = rows(text)
        _close(float(r["value"]), kin_expected, "kin norm against the overlap route")

    add_path = _write_model(workdir / "additive_sech.model", [
        "family = sech", "kind = additive", f"null_means = {_vec([0.0] * size['add_N'])}",
        *_atoms([rng.uniform(-0.4, 0.4, size["add_N"]) for _ in range(3)],
                list(rng.integers(1, 5, 3)))])

    def check_add(text):
        (r,) = rows(text)
        _need(_finite(r["value"]) >= 1.0 - 1e-12, "additive norm below 1")

    cmp_path = _write_model(workdir / "channels.model", [
        "families = gaussian{sigma2=1}; poisson; gamma{alpha=2}; binomial{m=5}; "
        "negbinomial{m=3}; sech",
        "kind = z", f"null_means = {_vec(rng.uniform(1.0, 2.0, size['cmp_N']))}",
        *_atoms([rng.uniform(-0.3, 0.3, size["cmp_N"]) for _ in range(3)],
                list(rng.integers(1, 5, 3)))])

    def check_cmp(text):
        got = rows(text)
        _need(len(got) == 6, "six channels")
        values = [_finite(r["value"]) for r in got]
        _need(all(b >= a - REL_TOL * a for a, b in zip(values, values[1:]))
              and values[0] >= 1.0 - 1e-12, "channel norms non-decreasing in v2")
        v0 = [float(r["value"]) for r in got if float(r["v2"]) == 0.0]
        _close(v0[0], v0[1], "gaussian and poisson channels (both v2 = 0)")

    mc_N = 6
    mc_mu = rng.uniform(0.3, 0.7, mc_N)
    mc_path = _write_model(workdir / "bernoulli.model", [
        "family = binomial{m=1}", "kind = kin", f"null_means = {_vec(mc_mu)}",
        *_atoms([rng.uniform(0.1, 0.9, mc_N) for _ in range(3)], list(rng.integers(1, 5, 3)))])

    def check_mc(text):
        got = rows(text)
        _need([r["mode"] for r in got] == ["monte-carlo", "monte-carlo-exp-upper"],
              "monte-carlo rows")
        for r in got:
            _need(_finite(r["value"]) > 0 and _finite(r["stderr"]) >= 0, "estimate")
            _need(int(r["samples"]) == size["mc_samples"], "samples column")

    def check_sbm(text):
        got = rows(text)
        _need(len(got) == 2, "two grid points")
        for r in got:
            _need(_finite(r["estimate"]) > 0 and int(r["samples"]) == size["sbm_samples"],
                  "sbm estimate")

    def check_entrywise(text):
        got = rows(text)
        _need([r["method"] for r in got] == ["mc-bound", "exact"], "entrywise rows")
        _need(_finite(got[1]["value"]) >= 1.0 - 1e-12, "exact entrywise sum below 1")

    # sampler-backed prior: model files cannot express it, so this is the
    # library-only call of the workload
    lib_mu = tuple(np.round(rng.uniform(1.0, 3.0, size["lib_N"]), 4))
    lib_model = ldlr.KinSpikedModel(
        Family.poisson(), lib_mu,
        ldlr.SpikePrior.from_sampler(
            "kin", lambda g: np.array(lib_mu) * np.exp(0.2 * g.standard_normal(len(lib_mu)))))
    lib_seed = int(rng.integers(2**31))

    def run_lib() -> str:
        res = ldlr.overlap_bound_mc(lib_model, 4, size["lib_samples"],
                                    np.random.default_rng(lib_seed))
        return f"value,stderr,samples\n{res.value!r},{res.stderr!r},{res.samples}\n"

    def check_lib(text):
        (r,) = rows(text)
        _need(_finite(r["value"]) > 0 and _finite(r["stderr"]) >= 0, "overlap estimate")

    seed = lambda: str(int(rng.integers(2**31)))  # noqa: E731
    return [
        cli_op("orthopoly-sech",
               ["orthopoly", "build", "--family", "sech", "--mu0", "0.6",
                "--degree", str(size["sech_degree"])],
               check_basis(size["sech_degree"]), seeded=False),
        cli_op("orthopoly-gamma",
               ["orthopoly", "build", "--family", "gamma{alpha=2.5}", "--mu0", "1.8",
                "--degree", str(size["gamma_degree"])],
               check_basis(size["gamma_degree"]), seeded=False),
        cli_op("tau-dump", ["tau", "dump", "--degree", str(size["tau_degree"])],
               check_tau, seeded=False),
        cli_op("ldlr-exact-kin", ["ldlr", "exact", "--model", kin_path, "--degree", str(D)],
               check_kin),
        cli_op("ldlr-exact-additive",
               ["ldlr", "exact", "--model", add_path, "--degree", str(size["add_D"])],
               check_add),
        cli_op("ldlr-compare",
               ["ldlr", "compare", "--model", cmp_path, "--degree", str(size["cmp_D"])],
               check_cmp),
        cli_op("ldlr-mc",
               ["ldlr", "mc", "--model", mc_path, "--degree", "6",
                "--samples", str(size["mc_samples"]), "--seed", seed()],
               check_mc),
        cli_op("ldlr-sbm",
               ["ldlr", "sbm", "--n", str(size["sbm_n"]), "--a", "3,7.5", "--b", "1,1.5",
                "--degree", "20", "--samples", str(size["sbm_samples"]), "--seed", seed()],
               check_sbm),
        cli_op("entrywise-bound",
               ["spiked", "entrywise-bound", "--n", str(size["ew_n"]), "--lambda", "0.5",
                "--degree", "2", "--samples", str(size["ew_samples"]), "--exact", "true",
                "--seed", seed()],
               check_entrywise),
        Op("overlap-mc-sampler", run_lib, check_lib, seeded=True),
    ]


OPS_BY_WORKLOAD = {"spiked-sech": spiked_sech_ops, "spiked-mixed": spiked_mixed_ops,
            "norms": norms_ops}


def make_ops(workload: str, seed: int, size_name: str, workdir: Path) -> list[Op]:
    """The workload's operations, with inputs drawn from ``seed`` only."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return OPS_BY_WORKLOAD[workload](rng, SIZES[size_name], workdir)

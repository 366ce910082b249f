"""Experiment command line: subcommand dispatch, config files, CSV reports.

Subcommands, each one ``COMMANDS`` entry (a runner that builds its rows, and flags)
    families list
    orthopoly build | dump
    tau dump
    ldlr exact | mc | compare | sbm
    spiked simulate | power-curve | entrywise-bound
    mix test

One parser holds every command; ``build_parser()`` builds it once per
process, and every call of ``main`` parses with it.

The numeric routes return only the values they compute; a runner writes
every column that echoes an input (rates, sizes, counts, seed) from its own
values, and derives the rest (power, standard errors of rates, the
Kesten-Stigum sides of ``ldlr sbm``) itself.

Exit codes: 0 ok, 2 config error, 3 work bound exceeded, 4 numeric
instability, each the ``exit_code`` of its error class in ``errors``.
Values may come from an INI-style ``--config`` file (section named after
the subcommand, e.g. ``[ldlr.exact]``, keys named as the flags); flags,
never abbreviated, override file values.  Every report
is CSV with one provenance comment line: the full parameters (a list
value's cells joined by ``;``), seed and git revision.  A report is
byte-identical for fixed (parameters, seed, BLAS library, BLAS thread
count).  Across thread counts only a ``statistic`` cell may move, within
1e-12 relative, so a verdict moves only when its statistic lies that close
to its threshold.

Model files are plain text, one ``key = value`` per line, ``#`` comments:

    family = binomial{m=1}        # kind = z takes a list: families = poisson; sech
    kind = kin                    # kin | additive | z  (z: offsets in
    null_means = 0.5              #   z-score units, used by `ldlr compare`)
    atom = 0.75 : 1.0             # coordinates, colon, probability

Each key but ``atom`` is given once; ``family = X`` is the one-entry
spelling of ``families``, and a kin or additive model has exactly one.
``null_means`` holds at least one value.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NefqvfError, NumericInstabilityError, check_range
from .families import Family, parse_family
from .ldlr import (
    MAX_EXACT_N,
    AdditiveSpikedModel,
    KinSpikedModel,
    SpikePrior,
    channel_compare,
    ldlr_exact,
    ldlr_exact_additive,
    overlap_bound_mc,
    sbm_ks_scan,
)
from .orthopoly import a_const, build_basis
from .spiked import (
    NOISE_KINDS,
    _TESTS as _TEST_FNS,
    entrywise_ldlr_exact,
    entrywise_ldlr_mc_bound,
    mixed_test,  # noqa: F401  (unused here; perfbench/tracing.py patches it by this name)
    power_curve,
    sample_wig,
)
from .translation import DEFAULT_TABLE_DEGREE, MAX_TABLE_DEGREE, build_translation_table


# ---------------------------------------------------------------------------
# declarative flags, shared by argparse and the config-file merge
# ---------------------------------------------------------------------------

def _bool(s) -> bool:
    if str(s).lower() in ("1", "true", "yes"):
        return True
    if str(s).lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _degree(s) -> int | None:
    if str(s).lower() in ("inf", "infinity"):
        return None
    return int(s)


def _seed(s) -> int:
    value = int(s)
    if value < 0:
        raise ValueError(f"negative seed: {s!r}")
    return value


def _float_list(s) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in str(s).split(",") if tok.strip())
    if not values:
        raise ValueError("empty list")
    return values


@dataclass(frozen=True)
class Flag:
    name: str
    convert: object
    help: str
    required: bool = False
    default: object = None


OUT = Flag("out", str, "output path (stdout when omitted)")

COMMON = [OUT, Flag("seed", _seed, "random seed, >= 0", default=0)]

# flags that several commands declare alike
N = Flag("n", int, "matrix size", required=True)
SAMPLES = Flag("samples", int, "Monte Carlo sample count", required=True)
LAMBDA = Flag("lambda", float, "signal strength", required=True)
NOISE = Flag("noise", str, " | ".join(NOISE_KINDS), required=True)
MODEL = Flag("model", str, "model file path", required=True)
DEGREE = Flag("degree", int, "degree bound D", required=True)
ALPHA = Flag("alpha", float, "heavy-tail exponent")
TEST_NAMES = " | ".join(_TEST_FNS)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated subcommand invocation: command pair plus parameter map."""

    command: tuple[str, str]
    values: dict


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built once per process; help
    and errors list every command, and each call parses with this tree."""
    parser = argparse.ArgumentParser(
        prog="nefqvf",
        description="likelihood-ratio norms and spiked-matrix experiments",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="INI file with per-subcommand defaults")
    groups = parser.add_subparsers(dest="group", required=True)
    seen: dict[str, argparse._SubParsersAction] = {}
    for (group, action), (_, flags) in COMMANDS.items():
        if group not in seen:
            gp = groups.add_parser(group, allow_abbrev=False)
            seen[group] = gp.add_subparsers(dest="action", required=True)
        sub = seen[group].add_parser(action, allow_abbrev=False)
        for flag in flags:
            sub.add_argument(f"--{flag.name}", dest=flag.name, default=None, help=flag.help)
    return parser


def merge_config(args: argparse.Namespace) -> ExperimentConfig:
    """Apply config-file defaults, convert types, check required keys."""
    command = (args.group, args.action)
    flags = COMMANDS[command][1]
    file_vals: dict[str, str] = {}
    if args.config:
        ini = configparser.ConfigParser()
        try:
            read = ini.read(args.config)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: cannot parse file {args.config!r}: {exc}") from exc
        if not read:
            raise ConfigError(f"config: cannot read file {args.config!r}")
        section = f"{command[0]}.{command[1]}"
        if ini.has_section(section):
            file_vals = dict(ini.items(section))
        known = {f.name for f in flags}
        for key in file_vals:
            if key not in known:
                raise ConfigError(f"config: unknown key {key!r} in [{section}]")
    values = {}
    for flag in flags:
        raw = getattr(args, flag.name, None)
        if raw is None:
            raw = file_vals.get(flag.name)
        if raw is None:
            if flag.required:
                raise ConfigError(f"config: missing required key {flag.name!r}")
            values[flag.name] = flag.default
            continue
        try:
            values[flag.name] = flag.convert(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config: bad value for {flag.name!r}: {raw!r}") from exc
    return ExperimentConfig(command=command, values=values)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def parse_model_file(path: str) -> dict:
    """Parse the documented key-value model format (see module docstring)."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"model: cannot read file {path!r}: {exc}") from exc
    out: dict = {"atoms": []}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"model: line {lineno} is not 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        key = "families" if key == "family" else key
        if key != "atom":
            if key in seen:
                raise ConfigError(f"model: line {lineno} repeats {key!r} of line {seen[key]}")
            seen[key] = lineno
        if key == "families":
            out["families"] = [parse_family(tok) for tok in val.split(";") if tok.strip()]
        elif key == "kind":
            if val not in ("kin", "additive", "z"):
                raise ConfigError(f"model: kind must be kin, additive or z, got {val!r}")
            out["kind"] = val
        elif key == "null_means":
            try:
                out["null_means"] = tuple(float(tok) for tok in val.split())
            except ValueError as exc:
                raise ConfigError(f"model: bad null_means {val!r}") from exc
            if not out["null_means"]:
                raise ConfigError("model: null_means needs at least one value")
        elif key == "atom":
            if ":" not in val:
                raise ConfigError(f"model: atom needs 'coords : prob', got {val!r}")
            coords, prob = val.rsplit(":", 1)
            try:
                vec = tuple(float(tok) for tok in coords.split())
                out["atoms"].append((vec, float(prob)))
            except ValueError as exc:
                raise ConfigError(f"model: bad atom {val!r}") from exc
        else:
            raise ConfigError(f"model: unknown key {key!r} on line {lineno}")
    for key in ("families", "kind", "null_means"):
        if key not in out:
            raise ConfigError(f"model: missing required key {key!r}")
    if not out["atoms"]:
        raise ConfigError("model: needs at least one 'atom' line")
    return out


def _load_model(path: str, *kinds: str):
    """The model file at ``path``, whose kind must be one of ``kinds``: a
    kin or additive model, or the parsed description of a z model."""
    desc = parse_model_file(path)
    kind = desc["kind"]
    if kind not in kinds:
        raise ConfigError(f"model: kind {kind!r} is not usable here; "
                          f"this command takes kind {' or '.join(kinds)}")
    if kind == "z":
        return desc
    if len(desc["families"]) != 1:
        raise ConfigError(f"model: a {kind} model has one family, got {len(desc['families'])}")
    model = KinSpikedModel if kind == "kin" else AdditiveSpikedModel
    prior = SpikePrior.from_atoms(kind, desc["atoms"])
    return model(desc["families"][0], desc["null_means"], prior)


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

@functools.cache
def _git_revision() -> str:
    """Short revision of the checkout holding this package, else ``unknown``."""
    try:
        res = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if res.returncode == 0:
            return res.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):  # numpy's repr would wrap the number
        return repr(float(v))
    if isinstance(v, tuple):  # a list flag's values, as in `--a 6,6.5` -> 6.0;6.5
        return ";".join(map(_cell, v))
    return str(v)


def write_report(config: ExperimentConfig, header: list[str], rows: list[tuple]) -> None:
    params = ",".join(
        f"{k}={_cell(v)}" for k, v in sorted(config.values.items()) if k != "out"
    )
    lines = [
        f"# nefqvf {config.command[0]} {config.command[1]} | {params} | rev={_git_revision()}",
        ",".join(header),
    ]
    lines += [",".join(_cell(c) for c in row) for row in rows]
    text = "\n".join(lines) + "\n"
    out = config.values.get("out")
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"report: cannot write file {out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _run_families_list(config):
    rows = []
    for fam in (Family.gaussian(1.0), Family.poisson(), Family.gamma(2.0),
                Family.binomial(1), Family.negbinomial(2), Family.sech()):
        v0, v1, v2 = fam.variance_coeffs()
        dom = fam.mean_domain
        rows.append((fam.kind, fam.tag(), v0, v1, v2, dom.lo, dom.hi))
    write_report(config, ["kind", "example_tag", "v0", "v1", "v2", "mean_lo", "mean_hi"], rows)


def _run_orthopoly_build(config):
    v = config.values
    fam = parse_family(v["family"])
    basis = build_basis(fam, v["mu0"], v["degree"])
    try:
        rows = [
            (k, float(basis.norm_sq[k]), float(a_const(k, fam.v2)) * fam.variance(v["mu0"]) ** k)
            for k in range(basis.max_degree + 1)
        ]
    except OverflowError:
        raise NumericInstabilityError(f"orthopoly basis overflows at mu0={v['mu0']}") from None
    write_report(config, ["k", "norm_sq", "closed_form"], rows)


def _run_orthopoly_dump(config):
    v = config.values
    basis = build_basis(parse_family(v["family"]), v["mu0"], v["degree"])
    K = basis.max_degree
    try:  # float(), so that p_0's plain int 1 prints as 1.0
        rows = [(k, *map(float, p), *(None,) * (K - k), float(norm))
                for k, (p, norm) in enumerate(zip(basis.monic, basis.norm_sq))]
    except OverflowError:
        raise NumericInstabilityError(f"orthopoly basis overflows at mu0={v['mu0']}") from None
    write_report(config, ["k", *(f"c{i}" for i in range(K + 1)), "norm_sq"], rows)


def _run_tau_dump(config):
    table = build_translation_table(config.values["degree"])
    rows = [(k, l, c.numerator, c.denominator)
            for k, row in enumerate(table.coeffs) for l, c in enumerate(row) if c != 0]
    write_report(config, ["k", "l", "numerator", "denominator"], rows)


HEADER_LDLR = ["mode", "D", "value", "stderr", "samples", "seed"]


def _run_ldlr_exact(config):
    model = _load_model(config.values["model"], "kin", "additive")
    D = config.values["degree"]
    exact = ldlr_exact_additive if isinstance(model, AdditiveSpikedModel) else ldlr_exact
    write_report(config, HEADER_LDLR, [("exact", D, exact(model, D), None, None, None)])


def _run_ldlr_mc(config):
    model = _load_model(config.values["model"], "kin")
    D, seed = config.values["degree"], config.values["seed"]
    res = overlap_bound_mc(model, D, config.values["samples"], np.random.default_rng(seed))
    D = "inf" if D is None else D
    rows = [("monte-carlo", D, res.value, res.stderr, res.samples, seed)]
    if res.upper_value is not None:
        rows.append(("monte-carlo-exp-upper", D, res.upper_value,
                     res.upper_stderr, res.samples, seed))
    write_report(config, HEADER_LDLR, rows)


def _run_ldlr_compare(config):
    desc = _load_model(config.values["model"], "z")
    prior = SpikePrior.from_atoms("kin", desc["atoms"])
    D = config.values["degree"]
    norms = channel_compare(desc["families"], desc["null_means"], prior, D)
    write_report(
        config,
        ["family", "v2", "mode", "D", "value"],
        [(f.tag(), f.v2, "exact", D, value) for f, value in norms],
    )


def _run_ldlr_sbm(config):
    v = config.values
    if len(v["a"]) != len(v["b"]):
        raise ConfigError("config: 'a' and 'b' need the same number of entries")
    grid = list(zip(v["a"], v["b"]))
    scan = sbm_ks_scan(v["n"], v["degree"], grid, v["samples"], np.random.default_rng(v["seed"]))
    rows = []
    for (a, b), (estimate, stderr) in zip(grid, scan):
        # the scan has raised on an overflowing (a - b)^2; a sum past the float range raises here
        ks_lhs, ks_rhs = (a - b) ** 2, 2.0 * (a + b)
        if not math.isfinite(ks_rhs):
            raise NumericInstabilityError(f"2(a + b) overflows at a={a}, b={b}")
        rows.append((a, b, v["n"], v["degree"], estimate, stderr, v["samples"], v["seed"],
                     ks_lhs, ks_rhs, ks_lhs > ks_rhs))
    write_report(config, ["a", "b", "n", "D", "estimate", "stderr", "samples", "seed",
                          "ks_lhs", "ks_rhs", "above_threshold"], rows)


def _run_spiked_simulate(config):
    v = config.values
    test = _TEST_FNS.get(v["test"])
    if test is None and v["test"] != "none":
        raise ConfigError(f"config: unknown test {v['test']!r} "
                          f"(expected none or one of {sorted(_TEST_FNS)})")
    check_range("trials", v["trials"], 1)
    seed = v["seed"]
    rng = np.random.default_rng(seed)
    rows = []
    for trial in range(v["trials"]):
        inst = sample_wig(v["n"], v["lambda"], v["noise"], v["planted"], rng, alpha=v["alpha"])
        stat = thr = label = None
        if test is not None:
            verdict = test(inst)
            stat, thr, label = verdict.statistic, verdict.threshold, verdict.label
        rows.append((trial, v["n"], v["lambda"], v["noise"], v["alpha"],
                     v["planted"], inst.branch, v["test"], stat, thr, label, seed))
        del inst  # the next trial draws with no other n x n buffer alive
    write_report(config, ["trial", "n", "lambda", "noise", "alpha", "planted",
                          "branch", "test", "statistic", "threshold", "verdict", "seed"], rows)


def _se(rate: float, trials: int) -> float:
    """Standard error of a rate observed over ``trials`` instances."""
    return math.sqrt(rate * (1 - rate) / trials)


def _run_spiked_power_curve(config):
    v = config.values
    rng = np.random.default_rng(v["seed"])
    rates = power_curve(v["test"], v["noise"], v["lambdas"], v["n"], v["trials"],
                        rng, alpha=v["alpha"])
    write_report(
        config,
        ["test", "noise", "n", "lambda", "trials", "type_i", "type_ii",
         "power", "se_type_i", "se_type_ii", "seed"],
        [(v["test"], v["noise"], v["n"], lam, v["trials"], t1, t2,
          1.0 - t2, _se(t1, v["trials"]), _se(t2, v["trials"]), v["seed"])
         for lam, (t1, t2) in zip(v["lambdas"], rates)],
    )


def _run_spiked_entrywise(config):
    v = config.values
    # the exact sum runs first, so that its caps reject the input before the Monte Carlo work
    exact = entrywise_ldlr_exact(v["n"], v["lambda"], v["degree"]) if v["exact"] else None
    rng = np.random.default_rng(v["seed"])
    c, value, stderr = entrywise_ldlr_mc_bound(v["n"], v["lambda"], v["degree"], v["samples"], rng)
    rows = [("mc-bound", v["n"], v["lambda"], v["degree"], c, value,
             stderr, v["samples"], v["seed"])]
    if v["exact"]:
        rows.append(("exact", v["n"], v["lambda"], v["degree"], None, exact, None, None, v["seed"]))
    write_report(config, ["method", "n", "lambda", "D", "c", "value",
                          "stderr", "samples", "seed"], rows)


def _run_mix_test(config):
    v = config.values
    rng = np.random.default_rng(v["seed"])
    [(t1, t2)] = power_curve("mixed", "mixed", [v["lambda"]], v["n"], v["trials"],
                             rng, alpha=v["alpha"])
    write_report(
        config,
        ["n", "lambda", "alpha", "trials", "type_i", "type_ii", "avg_error",
         "se_type_i", "se_type_ii", "seed"],
        [(v["n"], v["lambda"], v["alpha"], v["trials"], t1, t2, 0.5 * (t1 + t2),
          _se(t1, v["trials"]), _se(t2, v["trials"]), v["seed"])],
    )


# ---------------------------------------------------------------------------
# command table: runner and declarative flags, shared by argparse and the
# config-file merge
# ---------------------------------------------------------------------------

_ORTHOPOLY_FLAGS = [
    Flag("family", str, "family tag, e.g. gamma{alpha=2}", required=True),
    Flag("mu0", float, "null mean", required=True),
    Flag("degree", int, "maximum degree", required=True),
    OUT,
]

COMMANDS: dict[tuple[str, str], tuple[object, list[Flag]]] = {
    ("families", "list"): (_run_families_list, [OUT]),
    ("orthopoly", "build"): (_run_orthopoly_build, _ORTHOPOLY_FLAGS),
    ("orthopoly", "dump"): (_run_orthopoly_dump, _ORTHOPOLY_FLAGS),
    ("tau", "dump"): (_run_tau_dump, [
        Flag("degree", int, "maximum degree", default=DEFAULT_TABLE_DEGREE),
        OUT,
    ]),
    ("ldlr", "exact"): (_run_ldlr_exact, [MODEL, DEGREE, OUT]),
    ("ldlr", "mc"): (_run_ldlr_mc, [
        MODEL, Flag("degree", _degree, "degree bound D, or 'inf'", required=True), SAMPLES,
    ] + COMMON),
    ("ldlr", "compare"): (_run_ldlr_compare, [
        Flag("model", str, "model file with families list and z-unit prior", required=True),
        DEGREE, OUT,
    ]),
    ("ldlr", "sbm"): (_run_ldlr_sbm, [
        Flag("n", int, "number of vertices", required=True),
        Flag("a", _float_list, "inside rate(s), comma separated", required=True),
        Flag("b", _float_list, "across rate(s), comma separated", required=True),
        Flag("degree", int, "degree bound D", default=20),
        SAMPLES,
    ] + COMMON),
    ("spiked", "simulate"): (_run_spiked_simulate, [
        N, LAMBDA, NOISE, ALPHA,
        Flag("planted", _bool, "sample the planted side", default=False),
        Flag("trials", int, "number of instances", default=1),
        Flag("test", str, f"{TEST_NAMES} | none", default="none"),
    ] + COMMON),
    ("spiked", "power-curve"): (_run_spiked_power_curve, [
        Flag("test", str, TEST_NAMES, required=True),
        NOISE, N,
        Flag("lambdas", _float_list, "signal strengths, comma separated", required=True),
        Flag("trials", int, "trials per rate and side", required=True),
        ALPHA,
    ] + COMMON),
    ("spiked", "entrywise-bound"): (_run_spiked_entrywise, [
        N, LAMBDA,
        Flag("degree", int, "entrywise degree bound D", required=True),
        SAMPLES,
        Flag("exact", _bool,
             f"also run the exact sum (n <= {MAX_EXACT_N}, D <= {MAX_TABLE_DEGREE})",
             default=False),
    ] + COMMON),
    ("mix", "test"): (_run_mix_test, [
        N, LAMBDA,
        Flag("alpha", float, "heavy-tail exponent", required=True),
        Flag("trials", int, "trials per side", required=True),
    ] + COMMON),
}


def main(argv=None) -> int:
    """Run the command that argv (default ``sys.argv[1:]``) names and return
    its exit code.  argv is parsed once, by the cached ``build_parser()``."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return ConfigError.exit_code if exc.code not in (0, None) else 0
    try:
        config = merge_config(args)
        COMMANDS[config.command][0](config)
        return 0
    except NefqvfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

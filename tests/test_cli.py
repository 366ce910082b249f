"""Command-line surface: formats, determinism, exit codes."""

import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nefqvf
from nefqvf import cli, ldlr, spiked
from nefqvf.cli import main, parse_model_file

BERNOULLI_MODEL = """\
# one-coordinate fixture
family = binomial{m=1}
kind = kin
null_means = 0.5
atom = 0.75 : 1.0
"""

COMPARE_MODEL = """\
families = binomial{m=1}; gaussian{sigma2=1}; gamma{alpha=1}
kind = z
null_means = 0.5 0.4
atom = 0.3 -0.2 : 0.6
atom = -0.1 0.25 : 0.4
"""


@pytest.fixture
def bernoulli_model(tmp_path):
    path = tmp_path / "bernoulli.model"
    path.write_text(BERNOULLI_MODEL)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def body(out):
    """CSV rows after the provenance comment and the header."""
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    return lines[0], lines[1:]


def test_model_file_parsing(tmp_path):
    path = tmp_path / "m.model"
    path.write_text(BERNOULLI_MODEL)
    desc = parse_model_file(str(path))
    assert desc["kind"] == "kin"
    assert desc["null_means"] == (0.5,)
    assert desc["atoms"] == [((0.75,), 1.0)]


def test_ldlr_exact_bernoulli_fixture(bernoulli_model, capsys):
    code, out = run_cli(["ldlr", "exact", "--model", bernoulli_model, "--degree", "2"], capsys)
    assert code == 0
    header, rows = body(out)
    assert header == "mode,D,value,stderr,samples,seed"
    mode, d, value, *_ = rows[0].split(",")
    assert mode == "exact" and d == "2"
    assert float(value) == pytest.approx(1.25)


def test_ldlr_mc_reports_upper_bound(bernoulli_model, capsys):
    code, out = run_cli(
        ["ldlr", "mc", "--model", bernoulli_model, "--degree", "2",
         "--samples", "100", "--seed", "7"],
        capsys,
    )
    assert code == 0
    _, rows = body(out)
    modes = [r.split(",")[0] for r in rows]
    assert modes == ["monte-carlo", "monte-carlo-exp-upper"]  # v2 < 0 extra row


def test_determinism_byte_identical(bernoulli_model, tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(["ldlr", "mc", "--model", bernoulli_model, "--degree", "3",
                     "--samples", "500", "--seed", "11", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_determinism_covers_eigen_statistics(tmp_path):
    # the eigen-solver must not consume global randomness
    np.random.seed(1234)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["spiked", "simulate", "--n", "80", "--lambda", "1.2",
                     "--noise", "sech", "--planted", "true", "--trials", "2",
                     "--test", "tpca", "--seed", "21", "--out", str(out)])
        assert code == 0
        np.random.seed(987)  # perturb global state between runs
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_blas_thread_count_moves_only_the_statistic_cells():
    # a report is byte-identical for a fixed BLAS thread count; across
    # thread counts the eigen-solve may sum in another order, so only the
    # statistic may move, within 1e-12 relative
    src = str(Path(nefqvf.__file__).resolve().parents[1])
    argv = ["spiked", "simulate", "--n", "200", "--lambda", "1.2", "--noise", "sech",
            "--planted", "true", "--trials", "4", "--test", "tpca", "--seed", "5"]
    reports = []
    for threads in ("1", "2"):
        res = subprocess.run(
            [sys.executable, "-m", "nefqvf.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        )
        assert res.returncode == 0, res.stderr
        reports.append([line.split(",") for line in res.stdout.splitlines()[1:]])
    (header, *one), (header_two, *two) = reports
    col = header.index("statistic")
    assert header == header_two and len(one) == len(two) == 4
    for a, b in zip(one, two):
        assert a[:col] + a[col + 1:] == b[:col] + b[col + 1:]
        assert float(a[col]) == pytest.approx(float(b[col]), rel=1e-12, abs=0)


def test_malformed_model_names_key(tmp_path, capsys):
    path = tmp_path / "bad.model"
    path.write_text("family = binomial{m=1}\nkind = kin\natom = 0.75 : 1.0\n")
    code = main(["ldlr", "exact", "--model", str(path), "--degree", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "null_means" in err


def test_unknown_flag_exits_config_code(capsys):
    assert main(["ldlr", "exact", "--degrees", "2"]) == 2


def test_missing_required_key(capsys):
    code = main(["ldlr", "exact", "--degree", "2"])
    err = capsys.readouterr().err
    assert code == 2 and "model" in err


def test_config_file_defaults_and_override(bernoulli_model, tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        f"[ldlr.exact]\nmodel = {bernoulli_model}\ndegree = 1\n"
    )
    code, out = run_cli(["--config", str(cfg), "ldlr", "exact"], capsys)
    assert code == 0
    _, rows = body(out)
    assert rows[0].split(",")[1] == "1"
    # flag wins over the file value
    code, out = run_cli(
        ["--config", str(cfg), "ldlr", "exact", "--degree", "2"], capsys
    )
    _, rows = body(out)
    assert rows[0].split(",")[1] == "2"


@pytest.mark.parametrize("text, message", [
    ("[ldlr.exact]\nmodle = x\n", "unknown key 'modle' in [ldlr.exact]"),
    # configparser's own errors exit 2 as well, not with a traceback
    ("[ldlr.exact]\ndegree = 3\ndegree = 3\n", "cannot parse file"),
    ("degree = 3\n", "cannot parse file"),
    ("[ldlr.exact]\ndegree = 3\xff\n", "cannot parse file"),
], ids=["unknown-key", "repeated-option", "no-section-header", "not-utf8"])
def test_config_file_unknown_key(text, message, tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_bytes(text.encode("latin-1"))  # "\xff" is the byte 0xff, which UTF-8 rejects
    code = main(["--config", str(cfg), "ldlr", "exact", "--degree", "1"])
    captured = capsys.readouterr()
    assert code == 2 and message in captured.err and captured.out == ""


def test_config_keys_are_the_flag_names(tmp_path, capsys):
    # one spelling per value: the flag, the config key and the report's
    # parameter key are all `lambda`
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[spiked.simulate]\nlambda = 1.5\nnoise = sech\n")
    code, out = run_cli(["--config", str(cfg), "spiked", "simulate", "--n", "20",
                         "--seed", "4"], capsys)
    flags = ["spiked", "simulate", "--n", "20", "--lambda", "1.5", "--noise", "sech",
             "--seed", "4"]
    assert code == 0 and out == run_cli(flags, capsys)[1]
    assert ",lambda=1.5," in out.splitlines()[0] and body(out)[1][0].startswith("0,20,1.5,")


@pytest.mark.parametrize("argv", [
    ["spiked", "simulate", "--n", "20", "--lam", "1", "--noise", "sech"],
    # on power-curve an abbreviation would read --lambda as --lambdas
    ["spiked", "power-curve", "--test", "pca", "--noise", "sech", "--n", "20",
     "--lambda", "1", "--trials", "2"],
    ["spiked", "simulate", "--n", "20", "--lamb", "1", "--noise", "sech"],
    ["ldlr", "sbm", "--n", "20", "--a", "3", "--b", "1", "--sample", "10"],
    ["--conf", "exp.ini", "families", "list"],
], ids=["lam", "lambda-on-power-curve", "lamb", "sample", "conf"])
def test_flags_have_one_spelling(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def _parser_commands(parser):
    """The (group, action) pairs a parser was built with."""
    groups = parser._subparsers._group_actions[0].choices
    return {(group, action) for group, sub in groups.items()
            for action in sub._subparsers._group_actions[0].choices}


def _parse(parser, argv, capsys):
    """parse_args as a value: the namespace, or the exit code and its output."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def _main_twice_reads_as_a_fresh_tree(argv, capsys):
    """main parses argv, help and errors included, as a fresh uncached tree
    does, the second time in the process as the first."""
    want = _parse(cli.build_parser.__wrapped__(), argv, capsys)
    for _ in range(2):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == want


@pytest.mark.parametrize("prefix", [[], ["--config", "f"], ["--config=f"]],
                         ids=["plain", "config", "config-equals"])
def test_one_parser_serves_every_call(prefix, capsys):
    tails = [(command, tail) for command in cli.COMMANDS
             for tail in (["-h"], ["--bogus", "1"], ["extra"])]
    tails += [(("ldlr", "exact"), tail)
              for tail in (["--model", "m", "--bogus", "1"], ["--degree"])]
    for command, tail in tails:
        _main_twice_reads_as_a_fresh_tree(prefix + list(command) + tail, capsys)
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["ldlr"], ["ldlr", "-h"], ["ldlr", "bogus"], ["bogus", "exact"],
    ["--config"], ["--config", "f"], ["--config=f", "tau"], ["--conf", "f", "tau", "dump"],
    ["ldlr", "--config", "f", "exact"], ["dump", "tau"], ["families", "check"],
])
def test_argv_naming_no_command_builds_every_command(argv, capsys):
    # help and errors of an argv that names no command list every command
    assert len(_parser_commands(cli.build_parser())) == len(cli.COMMANDS) == 12
    _main_twice_reads_as_a_fresh_tree(argv, capsys)


def test_readme_usage_names_exactly_the_commands():
    # a removed command cannot outlive its usage line, nor a new one lack it;
    # the usage lines are the `nefqvf ...` lines of README's sh blocks, a
    # line ending in a backslash joined with the next
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    usage = [shlex.split(line)[1:] for line in lines if line.startswith("nefqvf ")]
    parsed = [cli.build_parser().parse_args(argv) for argv in usage]
    assert {(args.group, args.action) for args in parsed} == cli.COMMANDS.keys()


def test_model_file_not_utf8_exits_config_code(tmp_path, capsys):
    path = tmp_path / "bad.model"
    path.write_bytes(BERNOULLI_MODEL.encode() + b"atom = 0.5 : 1.0\xff\n")
    code = main(["ldlr", "exact", "--model", str(path), "--degree", "1"])
    captured = capsys.readouterr()
    assert code == 2 and "model: cannot read file" in captured.err and captured.out == ""


def test_cap_exceeded_exit_code(tmp_path, capsys):
    # work bound atoms^2 * N * (D+1)^2 = 30 * 601^2 exceeds 10^7
    means = " ".join(["1.0"] * 30)
    coords = " ".join(["1.1"] * 30)
    path = tmp_path / "big.model"
    path.write_text(f"family = poisson\nkind = kin\nnull_means = {means}\natom = {coords} : 1.0\n")
    assert main(["ldlr", "exact", "--model", str(path), "--degree", "600"]) == 3


def test_series_work_bound_exit_code(bernoulli_model, capsys):
    # (D+1) * points = (10^8 + 1) * 51 sign counts, or 1 atom pair, exceeds 10^7:
    # the run stops before it builds the series
    for argv, points in [(["ldlr", "sbm", "--n", "50", "--a", "3", "--b", "1"], 51),
                         (["ldlr", "mc", "--model", bernoulli_model], 1)]:
        code = main(argv + ["--samples", "10", "--degree", "100000000"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (f"error: (D+1) * points = {(10**8 + 1) * points} "
                                "exceeds the work bound 10000000\n")


def test_numeric_instability_exit_code(tmp_path, monkeypatch, capsys):
    # norms that fall as v2 rises trip the monotonicity guard of channel_compare
    def decreasing(Z, probs, v2, D):
        return -v2

    monkeypatch.setattr(ldlr, "_kin_norm", decreasing)
    path = tmp_path / "cmp.model"
    path.write_text(COMPARE_MODEL)
    code = main(["ldlr", "compare", "--model", str(path), "--degree", "3"])
    err = capsys.readouterr().err
    assert code == 4 and "not monotone" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text", [
    ("compare", "families = poisson; gamma{alpha=2}\nkind = z\nnull_means = 1.0\n"
                "atom = 1e200 : 0.5\natom = -0.5 : 0.5\n"),
    ("exact", "family = poisson\nkind = kin\nnull_means = 1.0\n"
              "atom = 1e200 : 0.5\natom = 0.5 : 0.5\n"),
    ("exact", "family = sech\nkind = additive\nnull_means = 0\n"
              "atom = 1e200 : 0.5\natom = -1e200 : 0.5\n"),
], ids=["compare", "exact-kin", "exact-additive"])
def test_a_non_finite_exact_norm_exits_numeric_code(command, text, tmp_path, capsys):
    # the products overflow to inf and meet opposite signs, so the norm
    # sum is nan; it is an error, not a row, and numpy prints no warning
    path = tmp_path / "huge.model"
    path.write_text(text)
    code = main(["ldlr", command, "--model", str(path), "--degree", "3"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: degree-3 norm sum is not finite")
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_an_overflowing_variance_exits_numeric_code(tmp_path, capsys):
    # gamma{alpha=2} has V(mu) = mu^2 / 2, past the float range at mu = 1e200;
    # gamma norms are scale-free, so null mean 1e100 and atom 2e100 give the
    # value of null mean 1 and atom 2
    path = tmp_path / "gamma.model"
    for null, atom in (("1e200", "2e200"), ("1e100", "2e100")):
        path.write_text(f"family = gamma{{alpha=2}}\nkind = kin\nnull_means = {null}\n"
                        f"atom = {atom} : 1.0\n")
        code = main(["ldlr", "exact", "--model", str(path), "--degree", "2"])
        captured = capsys.readouterr()
        if null == "1e200":
            assert code == 4 and captured.out == ""
            assert captured.err == "error: variance V(mu) overflows for gamma{alpha=2}\n"
        else:
            assert code == 0 and body(captured.out)[1] == ["exact,2,6.000000000000002,,,"]


@pytest.mark.parametrize("lam, s", [("1e150", "1e+147"), ("1e303", "1e+300")])
def test_entrywise_exact_weights_past_the_float_range_exit_numeric_code(lam, s, capsys):
    # tau_hat_2(1e147)^2 overflows in the square, an error and not a
    # traceback; tau_hat_2(1e300) is inf itself
    code = main(["spiked", "entrywise-bound", "--n", "1000000", "--lambda", lam,
                 "--degree", "2", "--samples", "10", "--exact", "true", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == f"error: tau-hat weights at lambda / sqrt(n) = {s} are not finite\n"


@pytest.mark.filterwarnings(r"ignore:\|lambda\|=300\.0 is at or above:UserWarning")
def test_entrywise_exact_sum_past_the_float_range_prints_inf(capsys):
    # finite weights whose sum over sign counts overflows: the documented inf
    code, out = run_cli(["spiked", "entrywise-bound", "--n", "1000", "--lambda", "300",
                         "--degree", "2", "--samples", "10", "--exact", "true",
                         "--seed", "0"], capsys)
    assert code == 0 and body(out)[1][1] == "exact,1000,300.0,2,,inf,,,0"


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("alpha", ["1.1", "1.01"])
def test_a_non_finite_statistic_exits_numeric_code(alpha, capsys):
    # t draws with alpha - 1 = 0.1 degrees of freedom pass the float32
    # range, and with 0.01 reach inf in float64: pca has no finite
    # statistic to threshold, while tpca's bounded transform still has one
    argv = ["spiked", "simulate", "--n", "60", "--lambda", "1.5", "--noise", "heavy",
            "--alpha", alpha, "--trials", "3", "--seed", "0", "--test"]
    code = main(argv + ["pca"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: matrix has a non-finite entry at n=60")
    code, out = run_cli(argv + ["tpca"], capsys)
    assert code == 0 and len(body(out)[1]) == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["ldlr", "sbm", "--n", "50", "--a", "1e200", "--b", "1", "--degree", "4",
      "--samples", "10", "--seed", "0"],
     "(a - b)^2 overflows at a=1e+200, b=1.0"),
    (["ldlr", "sbm", "--n", "50", "--a", "1e308", "--b", "1e308", "--degree", "4",
      "--samples", "10", "--seed", "0"],
     "2(a + b) overflows at a=1e+308, b=1e+308"),
    (["spiked", "entrywise-bound", "--n", "8", "--lambda", "1e100", "--degree", "2",
      "--samples", "10", "--seed", "0"],
     "entrywise coefficient overflows at lambda=1e+100"),
    (["orthopoly", "dump", "--family", "sech", "--mu0", "1e200", "--degree", "2"],
     "orthopoly basis overflows at mu0=1e+200"),
    (["orthopoly", "build", "--family", "sech", "--mu0", "1e100", "--degree", "40"],
     "orthopoly basis overflows at mu0=1e+100"),
], ids=["ldlr-sbm", "ldlr-sbm-sum", "entrywise-bound", "orthopoly-dump", "orthopoly-build"])
def test_a_float_overflow_exits_numeric_code(argv, message, capsys):
    # finite inputs whose Python float arithmetic leaves the float range
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
def test_a_nan_monte_carlo_estimate_exits_numeric_code(tmp_path, capsys):
    # overlaps of +-1e600 = +-inf, where the odd-degree series reads +-inf:
    # their mean is nan, an error with no numpy warning; the untruncated
    # series reads inf and 0 there and prints inf
    path = tmp_path / "signed.model"
    path.write_text("family = gaussian{sigma2=1}\nkind = kin\nnull_means = 0.0\n"
                    "atom = 1e300 : 0.5\natom = -1e300 : 0.5\n")
    argv = ["ldlr", "mc", "--model", str(path), "--samples", "1000", "--seed", "0", "--degree"]
    code = main(argv + ["3"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "error: Monte Carlo estimate is not a number: nan\n"
    code, out = run_cli(argv + ["inf"], capsys)
    assert code == 0 and body(out)[1] == ["monte-carlo,inf,inf,inf,1000,0"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("degree", ["4", "inf"])
def test_a_truncated_series_at_an_infinite_overlap_prints_inf(degree, tmp_path, capsys):
    # the overlap 1e300^2 = inf: the degree-4 series there is inf, as is f
    path = tmp_path / "huge.model"
    path.write_text("family = poisson\nkind = kin\nnull_means = 1.0\n"
                    "atom = 1e300 : 0.5\natom = 0.5 : 0.5\n")
    code, out = run_cli(["ldlr", "mc", "--model", str(path), "--samples", "1000",
                         "--seed", "0", "--degree", degree], capsys)
    assert code == 0 and body(out)[1] == [f"monte-carlo,{degree},inf,inf,1000,0"]


@pytest.mark.filterwarnings("error")
def test_binomial_monte_carlo_stops_at_degree_m(tmp_path, capsys):
    # m = 49, where 1 + v2 m is not exactly 0 in floats: a degree past m
    # reads the degree-m estimate, and a spread past 1e154 still has a
    # finite stderr (its squares leave the float range)
    path = tmp_path / "m49.model"
    path.write_text("family = binomial{m=49}\nkind = kin\nnull_means = 0.001\n"
                    "atom = 40 : 0.5\natom = 0.001 : 0.5\n")
    rows = {}
    for degree in ("49", "55"):
        code, out = run_cli(["ldlr", "mc", "--model", str(path), "--samples", "1000",
                             "--seed", "0", "--degree", degree], capsys)
        assert code == 0
        mode, d, *cells = body(out)[1][0].split(",")
        assert mode == "monte-carlo" and d == degree
        rows[degree] = cells
    assert rows["49"] == rows["55"]
    value, stderr = (float(c) for c in rows["49"][:2])
    assert 0 < value < math.inf and 0 < stderr < math.inf


@pytest.mark.parametrize("argv, message", [
    (["ldlr", "sbm", "--n", "1000001", "--a", "3", "--b", "1", "--samples", "10"],
     "n must be in 1..1000000, got 1000001"),
    (["spiked", "entrywise-bound", "--n", "1000001", "--lambda", "0.5", "--degree", "2",
      "--samples", "10", "--exact", "true"], "n must be in 2..1000000, got 1000001"),
], ids=["sbm", "entrywise-bound"])
def test_binomial_tables_stop_at_max_exact_n(argv, message, monkeypatch, capsys):
    # a Binomial(n, 1/2) table is n + 1 lgamma values, about 490 MB of
    # Python floats at n = 10^7; both commands refuse n > MAX_EXACT_N
    # before they build one
    def no_table(n):
        raise AssertionError(f"built a Binomial({n}, 1/2) table")

    monkeypatch.setattr(ldlr, "binomial_log_weights", no_table)
    assert ldlr.MAX_EXACT_N == 10**6
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == f"error: {message}\n" and captured.out == ""


SIMULATE = ["spiked", "simulate", "--n", "50", "--planted", "true", "--test", "pca"]


class Model(str):
    """A model file's text in an argv; the test writes it to a file and
    passes the file's path in its place."""


def model_argv(command, text):
    return ["ldlr", command, "--model", Model(text), "--degree", "2"] + (
        ["--samples", "20"] if command == "mc" else [])


KIN_MEANS = "kind = kin\nnull_means = 1.0\n"


@pytest.mark.parametrize("argv, message", [
    (["spiked", "entrywise-bound", "--n", "50", "--lambda", "0.5", "--degree", "0",
      "--samples", "30"], "D must be >= 1, got 0"),
    (["families", "list", "--out", "/nonexistent/x.csv"], "/nonexistent/x.csv"),
    (["spiked", "simulate", "--n", "20", "--lambda", "1", "--noise", "sech",
      "--test", "bogus", "--trials", "0"], "bogus"),
    # an empty input is an error, not an empty report
    (["spiked", "simulate", "--n", "20", "--lambda", "1", "--noise", "sech",
      "--test", "pca", "--trials", "0"], "trials must be >= 1, got 0"),
    (["spiked", "simulate", "--n", "20", "--lambda", "1", "--noise", "sech",
      "--trials", "-2"], "trials must be >= 1, got -2"),
    (["spiked", "power-curve", "--test", "pca", "--noise", "sech", "--n", "20",
      "--lambdas", "", "--trials", "2"], "'lambdas'"),
    (["ldlr", "sbm", "--n", "20", "--a", "", "--b", "", "--samples", "10"], "'a'"),
    # NaN and inf are rejected before any draw
    pytest.param(SIMULATE + ["--lambda", "nan", "--noise", "sech"],
                 "need finite lambda >= 0, got nan", id="simulate-lambda-nan"),
    pytest.param(SIMULATE + ["--lambda", "inf", "--noise", "sech"],
                 "need finite lambda >= 0, got inf", id="simulate-lambda-inf"),
    pytest.param(SIMULATE + ["--lambda", "1", "--noise", "heavy", "--alpha", "nan"],
                 "heavy noise needs finite alpha > 1, got nan", id="heavy-alpha-nan"),
    pytest.param(SIMULATE + ["--lambda", "1", "--noise", "heavy", "--alpha", "inf"],
                 "heavy noise needs finite alpha > 1, got inf", id="heavy-alpha-inf"),
    pytest.param(["ldlr", "sbm", "--n", "20", "--a", "nan", "--b", "1", "--samples", "10"],
                 "need finite rate a > 0, got nan", id="sbm-a-nan"),
    pytest.param(["ldlr", "sbm", "--n", "20", "--a", "inf", "--b", "1", "--samples", "10"],
                 "need finite rate a > 0, got inf", id="sbm-a-inf"),
    (["spiked", "entrywise-bound", "--n", "50", "--lambda", "nan", "--degree", "2",
      "--samples", "30", "--exact", "true"], "need finite lambda, got nan"),
    pytest.param(["orthopoly", "build", "--family", "gamma{alpha=inf}", "--mu0", "1",
                  "--degree", "2"], "gamma needs finite alpha > 0, got inf", id="gamma-alpha-inf"),
    # a given alpha is checked for every noise kind, sech included
    pytest.param(SIMULATE + ["--lambda", "1", "--noise", "sech", "--alpha", "nan"],
                 "heavy noise needs finite alpha > 1, got nan", id="sech-alpha-nan"),
    pytest.param(SIMULATE + ["--lambda", "1", "--noise", "sech", "--alpha", "inf"],
                 "heavy noise needs finite alpha > 1, got inf", id="sech-alpha-inf"),
    pytest.param(SIMULATE + ["--lambda", "1", "--noise", "sech", "--alpha", "0.5"],
                 "heavy noise needs finite alpha > 1, got 0.5", id="sech-alpha-0.5"),
    pytest.param(["spiked", "power-curve", "--test", "tpca", "--noise", "sech", "--n", "20",
                  "--lambdas", "1", "--trials", "2", "--alpha", "nan"],
                 "heavy noise needs finite alpha > 1, got nan", id="power-curve-alpha-nan"),
    # a kin or additive model has one family, and each key but atom comes once
    *[(model_argv(command, "families = poisson; gamma{alpha=2}\n" + KIN_MEANS
                  + "atom = 1.5 : 1.0\n"), "a kin model has one family, got 2")
      for command in ("exact", "mc")],
    (model_argv("exact", "families =\n" + KIN_MEANS + "atom = 1.5 : 1.0\n"),
     "a kin model has one family, got 0"),
    (model_argv("exact", "family = poisson\nkind = kin\nkind = additive\n"
                         "null_means = 1.0\natom = 1.5 : 1.0\n"),
     "line 3 repeats 'kind' of line 2"),
    (model_argv("exact", "family = poisson\n" + KIN_MEANS + "null_means = 2.0\n"
                         "atom = 1.5 : 1.0\n"),
     "line 4 repeats 'null_means' of line 3"),
    (model_argv("exact", "family = poisson\n" + KIN_MEANS + "family = sech\n"
                         "atom = 1.5 : 1.0\n"),
     "line 4 repeats 'families' of line 1"),
    (model_argv("exact", COMPARE_MODEL), "kind 'z' is not usable here"),
    (["ldlr", "compare", "--model", Model(BERNOULLI_MODEL), "--degree", "2"],
     "this command takes kind z"),
    (model_argv("mc", "family = sech\nkind = additive\nnull_means = 0\natom = 1 : 1\n"),
     "this command takes kind kin"),
    # priors hold finite numbers only
    *[(model_argv(command, "family = poisson\n" + KIN_MEANS + "atom = 1.5 : nan\n"),
       "atom probabilities sum to nan, not 1") for command in ("exact", "mc")],
    (["ldlr", "compare", "--model",
      Model(COMPARE_MODEL.replace("0.6", "nan")), "--degree", "2"],
     "atom probabilities sum to nan, not 1"),
    *[(model_argv("exact", f"family = sech\nkind = additive\nnull_means = 0\n"
                           f"atom = {x} : 1.0\n"), "atom coordinates must be finite")
      for x in ("nan", "inf")],
    # a family tag is a name or name{key=value}: one key, the kind's own
    (["orthopoly", "build", "--family", "gamma{alpha=2,alpha=3}", "--mu0", "1",
      "--degree", "2"], "family: bad value for 'alpha': '2,alpha=3'"),
    # a model has at least one coordinate
    *[(model_argv(command, "family = poisson\nkind = kin\nnull_means =\natom = : 1.0\n"),
       "null_means needs at least one value") for command in ("exact", "mc")],
    (["ldlr", "compare", "--model",
      Model("families = poisson\nkind = z\nnull_means =\natom = : 1.0\n"), "--degree", "2"],
     "null_means needs at least one value"),
    # a seed is a non-negative integer
    (SIMULATE + ["--lambda", "1", "--noise", "sech", "--seed", "-1"],
     "config: bad value for 'seed': '-1'"),
    (model_argv("mc", BERNOULLI_MODEL) + ["--seed", "-1"], "config: bad value for 'seed': '-1'"),
    # the other tags that are not a name or name{key=value} with the kind's key
    *[(["orthopoly", "build", "--family", tag, "--mu0", "1", "--degree", "2"], message)
      for tag, message in [
          ("gamma{alpha=2,m=1}", "family: bad value for 'alpha': '2,m=1'"),
          ("gamma{}", "family: malformed tag 'gamma{}'"),
          ("gamma{alpha}", "family: malformed tag 'gamma{alpha}'"),
          ("gamma{alpha=2", "family: malformed tag 'gamma{alpha=2'"),
          ("gamma{m=2}", "family: unexpected parameter(s) ['m'] for gamma"),
          ("sech{m=2}", "family: unexpected parameter(s) ['m'] for sech"),
          ("gamma", "gamma requires parameter 'alpha'")]],
])
def test_bad_input_exits_config_code(argv, message, tmp_path, capsys):
    for i, arg in enumerate(argv):
        if isinstance(arg, Model):
            path = tmp_path / f"{i}.model"
            path.write_text(arg)
            argv = [*argv[:i], str(path), *argv[i + 1:]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_exact_degree_must_be_finite(bernoulli_model, tmp_path, capsys):
    # `ldlr exact` and `ldlr compare` take an integer degree; only `ldlr mc`
    # accepts 'inf'
    compare_model = tmp_path / "cmp.model"
    compare_model.write_text(COMPARE_MODEL)
    for argv in (["ldlr", "exact", "--model", bernoulli_model, "--degree", "inf"],
                 ["ldlr", "compare", "--model", str(compare_model), "--degree", "inf"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and "bad value for 'degree'" in captured.err
        assert captured.out == ""


def test_mixed_test_runs_on_any_noise_in_both_commands(capsys):
    # one pairing rule: simulate and power-curve both accept the mixed
    # test on sech-only noise
    code, out = run_cli(["spiked", "simulate", "--n", "30", "--lambda", "1.5",
                         "--noise", "sech", "--trials", "2", "--test", "mixed",
                         "--seed", "1"], capsys)
    assert code == 0 and len(body(out)[1]) == 2
    code, out = run_cli(["spiked", "power-curve", "--test", "mixed", "--noise", "sech",
                         "--n", "30", "--lambdas", "1.5", "--trials", "2",
                         "--seed", "1"], capsys)
    assert code == 0 and body(out)[1][0].startswith("mixed,sech,30,1.5,2,")


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing():
    """perfbench/tracing.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("nefqvf_layer_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("nefqvf_bench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def assert_matches_reference(text, name, workloads):
    """Compare a report with REFERENCE_DIR/<name>.csv, provenance aside:
    every cell byte for byte, except an eigenvalue statistic, whose last
    bits follow the order in which the BLAS matvec sums, so it may move by
    a rounding error."""
    reference = (REFERENCE_DIR / f"{name}.csv").read_text()
    got, want = (workloads.strip_provenance(t).splitlines() for t in (text, reference))
    assert len(got) == len(want), name
    header = want[0].split(",")
    for got_line, want_line in zip(got, want):
        for column, g, w in zip(header, got_line.split(","), want_line.split(","), strict=True):
            if column == "statistic" and g != w:
                assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0), (name, want_line)
            else:
                assert g == w, (name, column, want_line)


def test_benchmark_operations_pass_their_checks(workloads, tmp_path, capsys):
    # perfbench/workloads.py drives the CLI and the library by name; run
    # every operation once at its smallest size, so that a change which
    # breaks a benchmark operation, or moves a byte of its seed-0 output
    # (tests/reference/tiny/<op>.csv), fails here
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, 0, "tiny", tmp_path / name)
        assert ops
        for op in ops:
            text = op.run()
            op.check(text)
            assert_matches_reference(text, f"tiny/{op.name}", workloads)
    capsys.readouterr()


def test_every_mapped_layer_reads_above_zero_where_it_runs(workloads, tracing, tmp_path,
                                                          capsys):
    # perfbench/design.json names, per layer, the workloads on which a traced
    # run must see it; run each workload's tiny ops once under the tracer and
    # check that map, so a traced name that src/ stops calling fails here.
    # The import.* layers are timed by subprocess probes, not by the tracer.
    layers = json.loads((PERFBENCH / "design.json").read_text())["layers"]
    original_main = cli.main
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, 0, "tiny", tmp_path / name)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            for op in ops:
                op.run()
        finally:
            undo()
        assert cli.main is original_main
        got = tracer.summary()
        # derived as perfbench/run.py's layer_metrics derives them
        instances, eigsh = got.get("spiked.sample_wig.calls", 0), got.get("spiked.eigsh.calls", 0)
        if instances:
            got["spiked.matrix_per_instance"] = got.get("spiked.matrix.calls", 0) / instances
        if eigsh:
            got["spiked.lanczos_ok_ratio"] = (
                eigsh - got.get("spiked.top_eigenvalue.fallbacks", 0)) / eigsh
        silent = [layer for layer, entry in layers.items()
                  if name in entry["runs_on"] and not layer.startswith("import.")
                  and not got.get(layer, 0) > 0]
        assert not silent, f"{name}: mapped layers read zero: {silent}"
    capsys.readouterr()


def test_unbenchmarked_commands_match_their_references(bernoulli_model, workloads,
                                                        tmp_path, capsys):
    # the commands and the config-file path that no benchmark operation runs
    config = tmp_path / "exp.ini"
    config.write_text(f"[ldlr.exact]\nmodel = {bernoulli_model}\ndegree = 3\n")
    runs = {
        "families-list": ["families", "list"],
        "orthopoly-dump-gamma": ["orthopoly", "dump", "--family", "gamma{alpha=2.5}",
                                 "--mu0", "1.8", "--degree", "6"],
        "ldlr-exact-config": ["--config", str(config), "ldlr", "exact"],
    }
    for name, argv in runs.items():
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert_matches_reference(out, f"tiny/{name}", workloads)


# seed-0 reports of the spiked commands, stored in tests/reference/<name>.csv
REFERENCE_RUNS = {
    **{f"simulate-{test}-{noise}-{side}": [
        "spiked", "simulate", "--n", "60", "--lambda", "1.5", "--noise", noise,
        "--alpha", "3", "--planted", str(side == "planted"), "--trials", "3",
        "--test", test, "--seed", "0"]
       for test in ("pca", "tpca", "mixed")
       for noise in ("sech", "heavy", "mixed")
       for side in ("null", "planted")},
    "power-curve-tpca-sech": ["spiked", "power-curve", "--test", "tpca", "--noise", "sech",
                              "--n", "60", "--lambdas", "0.5,1.2,2", "--trials", "3",
                              "--seed", "0"],
    "mix-test": ["mix", "test", "--n", "60", "--lambda", "1.3", "--alpha", "3",
                 "--trials", "4", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
def test_spiked_reports_match_their_references(name, workloads, capsys):
    code, out = run_cli(REFERENCE_RUNS[name], capsys)
    assert code == 0
    assert_matches_reference(out, name, workloads)


def test_simulate_rejects_test_name_before_drawing(monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew an instance for an unknown test")

    monkeypatch.setattr(cli, "sample_wig", no_draw)
    code = main(["spiked", "simulate", "--n", "2000", "--lambda", "1", "--noise", "sech",
                 "--test", "bogus", "--trials", "3"])
    assert code == 2 and "bogus" in capsys.readouterr().err


def test_power_curve_rejects_a_negative_lambda_before_drawing(monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew an instance before checking every lambda")

    monkeypatch.setattr(spiked, "sample_wig", no_draw)
    code = main(["spiked", "power-curve", "--test", "tpca", "--noise", "sech", "--n", "2000",
                 "--lambdas", "1.2,-1", "--trials", "5"])
    assert code == 2 and "need finite lambda >= 0, got -1" in capsys.readouterr().err


def test_cli_and_library_share_one_test_table():
    assert cli._TEST_FNS is spiked._TESTS
    assert set(spiked._TESTS) == {"pca", "tpca", "mixed"}


def test_layer_tracing_still_sees_the_spiked_layers(bernoulli_model, tracing, tmp_path,
                                                    capsys):
    # perfbench/tracing.py patches package functions by name; check that a
    # folded table, wrapper or accessor still routes through the patched names
    additive_model = tmp_path / "additive.model"
    additive_model.write_text("family = sech\nkind = additive\nnull_means = 0 0\n"
                              "atom = 0.3 -0.2 : 0.6\natom = -0.1 0.25 : 0.4\n")
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert cli.main(["spiked", "simulate", "--n", "30", "--lambda", "1.2",
                         "--noise", "heavy", "--alpha", "1.5", "--trials", "3",
                         "--test", "mixed", "--seed", "3"]) == 0
        assert cli.main(["spiked", "power-curve", "--test", "tpca", "--noise", "sech",
                         "--n", "30", "--lambdas", "1.3", "--trials", "2",
                         "--seed", "4"]) == 0
        for model in (bernoulli_model, str(additive_model)):
            assert cli.main(["ldlr", "exact", "--model", model, "--degree", "2"]) == 0
        assert cli.main(["ldlr", "mc", "--model", bernoulli_model, "--degree", "2",
                         "--samples", "50", "--seed", "5"]) == 0
    finally:
        undo()
    capsys.readouterr()
    counts = tracer.summary()
    assert counts.get("spiked.score_transform.entries", 0) > 0
    assert counts.get("spiked.top_eigenvalue.calls", 0) > 0
    # every solve goes through the patched spiked.eigsh: a solver bound
    # anywhere else would read as no Lanczos run at all
    assert counts.get("spiked.eigsh.calls", 0) > 0
    assert counts.get("spiked.top_eigenvalue.fallbacks", 0) == 0
    assert counts.get("spiked.mixed_test.short_circuits", 0) > 0
    assert counts.get("ldlr.ldlr_exact.calls", 0) > 0
    assert counts.get("ldlr.ldlr_exact_additive.calls", 0) > 0
    assert counts.get("ldlr.overlap_bound_mc.samples", 0) > 0
    assert counts.get("families.z_score.calls", 0) > 0
    assert spiked._TESTS["mixed"] is spiked.mixed_test
    assert cli.mixed_test is spiked.mixed_test


def test_families_list_and_check(capsys):
    code, out = run_cli(["families", "list"], capsys)
    assert code == 0
    _, rows = body(out)
    assert len(rows) == 6
    assert rows[0].startswith("gaussian")
    # the natural-parameter self-test is no command: tests/test_families.py
    # checks those identities against the oracle in tests/helpers.py
    assert main(["families", "check"]) == 2
    assert capsys.readouterr().out == ""


def test_numpy_float_cells_print_as_plain_numbers():
    # numpy 2 reprs its scalars as np.float64(...); a cell holds the number
    assert cli._cell(np.float64(2.6614001600823763e-09)) == "2.6614001600823763e-09"
    assert cli._cell(np.float32(0.5)) == "0.5"
    assert cli._cell(np.float32(0.1)) == repr(float(np.float32(0.1)))
    assert cli._cell(1.5) == "1.5" and cli._cell(True) == "true" and cli._cell(3) == "3"


def test_orthopoly_build_and_dump(capsys):
    code, out = run_cli(
        ["orthopoly", "build", "--family", "poisson", "--mu0", "1.0", "--degree", "3"],
        capsys,
    )
    assert code == 0
    header, rows = body(out)
    assert header == "k,norm_sq,closed_form"
    assert len(rows) == 4
    code, out = run_cli(
        ["orthopoly", "dump", "--family", "gaussian{sigma2=1}", "--mu0", "0",
         "--degree", "2"],
        capsys,
    )
    header, rows = body(out)
    assert header == "k,c0,c1,c2,norm_sq"
    assert rows[2].split(",")[1:4] == ["-1.0", "0.0", "1.0"]  # y^2 - 1


def test_tau_dump(capsys):
    code, out = run_cli(["tau", "dump", "--degree", "3"], capsys)
    assert code == 0
    header, rows = body(out)
    assert header == "k,l,numerator,denominator"
    assert "3,1,-1,3" in rows and "3,3,1,6" in rows


def test_ldlr_compare_subcommand(tmp_path, capsys):
    path = tmp_path / "cmp.model"
    path.write_text(COMPARE_MODEL)
    code, out = run_cli(["ldlr", "compare", "--model", str(path), "--degree", "3"], capsys)
    assert code == 0
    header, rows = body(out)
    assert header == "family,v2,mode,D,value"
    v2s = [float(r.split(",")[1]) for r in rows]
    vals = [float(r.split(",")[4]) for r in rows]
    assert v2s == sorted(v2s)
    assert vals == sorted(vals)


def test_ldlr_sbm_subcommand(capsys):
    code, out = run_cli(
        ["ldlr", "sbm", "--n", "40", "--a", "3,7.5", "--b", "1,1.5",
         "--degree", "10", "--samples", "2000", "--seed", "5"],
        capsys,
    )
    assert code == 0
    header, rows = body(out)
    assert header.startswith("a,b,n,D,estimate,stderr,samples,seed")
    assert len(rows) == 2
    assert rows[0].endswith("4.0,8.0,false")
    assert rows[1].endswith("36.0,18.0,true")


def test_sbm_report_compares_both_sides(capsys):
    # ks_lhs = (a - b)^2 and ks_rhs = 2(a + b), above strictly: the tie 16 = 16 is false
    code, out = run_cli(
        ["ldlr", "sbm", "--n", "20", "--a", "3,7.5,6,6.5", "--b", "1,1.5,2,2",
         "--degree", "4", "--samples", "10", "--seed", "1"],
        capsys,
    )
    assert code == 0
    header, rows = body(out)
    assert header == "a,b,n,D,estimate,stderr,samples,seed,ks_lhs,ks_rhs,above_threshold"
    assert [r.split(",", 4)[:4] for r in rows] == [
        ["3.0", "1.0", "20", "4"], ["7.5", "1.5", "20", "4"],
        ["6.0", "2.0", "20", "4"], ["6.5", "2.0", "20", "4"],
    ]
    assert [r.split(",")[6:] for r in rows] == [
        ["10", "1", "4.0", "8.0", "false"], ["10", "1", "36.0", "18.0", "true"],
        ["10", "1", "16.0", "16.0", "false"], ["10", "1", "20.25", "17.0", "true"],
    ]


def test_spiked_simulate_and_entrywise(capsys):
    code, out = run_cli(
        ["spiked", "simulate", "--n", "50", "--lambda", "1.5", "--noise", "sech",
         "--planted", "true", "--trials", "2", "--test", "pca", "--seed", "3"],
        capsys,
    )
    assert code == 0
    _, rows = body(out)
    assert len(rows) == 2
    assert all(r.split(",")[10] in ("p", "q") for r in rows)

    code, out = run_cli(
        ["spiked", "entrywise-bound", "--n", "6", "--lambda", "0.5", "--degree", "2",
         "--samples", "500", "--exact", "true", "--seed", "1"],
        capsys,
    )
    assert code == 0
    _, rows = body(out)
    assert [r.split(",")[0] for r in rows] == ["mc-bound", "exact"]
    mc_val = float(rows[0].split(",")[5])
    exact_val = float(rows[1].split(",")[5])
    assert exact_val <= mc_val * 1.5 + 1.0  # loose consistency of scales


def test_entrywise_exact_caps_reject_before_the_monte_carlo_bound(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the Monte Carlo bound ran on an input the exact sum rejects")

    monkeypatch.setattr(cli, "entrywise_ldlr_mc_bound", never)
    code = main(["spiked", "entrywise-bound", "--n", "6", "--lambda", "0.5", "--degree", "500",
                 "--samples", "500", "--exact", "true"])
    captured = capsys.readouterr()
    assert code == 2 and "must be in 0..200, got 500" in captured.err and captured.out == ""


def test_spiked_power_curve_and_mix(capsys):
    code, out = run_cli(
        ["spiked", "power-curve", "--test", "pca", "--noise", "sech", "--n", "60",
         "--lambdas", "0.0,2.5", "--trials", "4", "--seed", "9"],
        capsys,
    )
    assert code == 0
    header, rows = body(out)
    assert header.startswith("test,noise,n,lambda,trials,type_i,type_ii,power")
    assert len(rows) == 2

    code, out = run_cli(
        ["mix", "test", "--n", "60", "--lambda", "1.4", "--alpha", "3",
         "--trials", "3", "--seed", "2"],
        capsys,
    )
    assert code == 0
    header, rows = body(out)
    assert header.startswith("n,lambda,alpha,trials,type_i,type_ii,avg_error")
    assert len(rows) == 1


def test_provenance_line_present(bernoulli_model, capsys):
    code = main(["ldlr", "exact", "--model", bernoulli_model, "--degree", "1"])
    out = capsys.readouterr().out
    first = out.splitlines()[0]
    assert first.startswith("# nefqvf ldlr exact") and "rev=" in first


def test_provenance_revision_is_the_package_checkout(tmp_path, monkeypatch, capsys):
    # the revision belongs to the code that ran, not to the working directory
    package_dir = Path(nefqvf.__file__).resolve().parent
    try:
        res = subprocess.run(["git", "-C", str(package_dir), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        want = res.stdout.strip() if res.returncode == 0 else "unknown"
    except OSError:  # no git
        want = "unknown"
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(["families", "list"], capsys)
    assert code == 0
    assert out.splitlines()[0].endswith(f"rev={want}")


# a small run of every command
SMALL_RUNS = {
    ("families", "list"): [],
    ("orthopoly", "build"): ["--family", "gamma{alpha=2}", "--mu0", "1.5", "--degree", "3"],
    ("orthopoly", "dump"): ["--family", "binomial{m=4}", "--mu0", "0.3", "--degree", "2"],
    ("tau", "dump"): ["--degree", "4"],
    ("ldlr", "exact"): ["--model", Model(BERNOULLI_MODEL), "--degree", "2"],
    ("ldlr", "mc"): ["--model", Model(BERNOULLI_MODEL), "--degree", "inf",
                     "--samples", "20", "--seed", "3"],
    ("ldlr", "compare"): ["--model", Model(COMPARE_MODEL), "--degree", "2"],
    ("ldlr", "sbm"): ["--n", "30", "--a", "6,6.5", "--b", "2,2", "--samples", "20"],
    ("spiked", "simulate"): ["--n", "20", "--lambda", "1.2", "--noise", "mixed", "--alpha", "3",
                             "--trials", "2", "--test", "tpca"],
    ("spiked", "power-curve"): ["--test", "pca", "--noise", "sech", "--n", "20",
                                "--lambdas", "0.5,1.2,2", "--trials", "1"],
    ("spiked", "entrywise-bound"): ["--n", "6", "--lambda", "0.1", "--degree", "2",
                                    "--samples", "20", "--exact", "true"],
    ("mix", "test"): ["--n", "20", "--lambda", "1.3", "--alpha", "3", "--trials", "1"],
}


def test_provenance_line_parses_back_into_the_parsed_values(tmp_path, capsys):
    # `key=cell` pairs joined by commas, a list value's cells by `;`; each
    # float cell is its repr, so every value round-trips exactly
    assert SMALL_RUNS.keys() == cli.COMMANDS.keys()
    for command, args in SMALL_RUNS.items():
        for i, arg in enumerate(args):
            if isinstance(arg, Model):
                path = tmp_path / f"{'-'.join(command)}.model"
                path.write_text(arg)
                args = [*args[:i], str(path), *args[i + 1:]]
        argv = [*command, *args]
        code, out = run_cli(argv, capsys)
        assert code == 0, command
        head, params, rev = out.splitlines()[0].split(" | ")
        assert head == f"# nefqvf {' '.join(command)}" and rev.startswith("rev=")
        flags = {flag.name: flag for flag in cli.COMMANDS[command][1]}
        got = {}
        for pair in filter(None, params.split(",")):
            key, cell = pair.split("=", 1)
            got[key] = None if cell == "" else flags[key].convert(cell.replace(";", ","))
        want = cli.merge_config(cli.build_parser().parse_args(argv)).values
        del want["out"]
        assert got == want, command
        if command == ("ldlr", "sbm"):
            assert "a=6.0;6.5,b=2.0;2.0," in params


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about a second of import time; the package never
    # uses it.  Nor does it use numpy.polynomial: TruncSeries is its one
    # Horner evaluator
    src = str(Path(nefqvf.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys; import nefqvf.cli\n"
         "print([m for m in ('scipy.stats', 'numpy.polynomial') if m in sys.modules])"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_package_root_holds_only_its_version():
    # every name is imported from the module that defines it: the root
    # re-exports nothing, so importing one module loads only what it needs
    src = str(Path(nefqvf.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, nefqvf\n"
         "print([n for n in dir(nefqvf) if not n.startswith('_')], nefqvf.__version__)\n"
         "import nefqvf.families\n"
         "print(sorted(m for m in sys.modules if m.startswith('nefqvf')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "[] 0.1.0", "['nefqvf', 'nefqvf.errors', 'nefqvf.families']"]


@pytest.mark.parametrize("solve, want", [
    ("spiked.top_eigenvalue(inst)", ["True"]),
    # an eigenvalue test loads the solver before its matrix allocates, so
    # that scipy's long-lived objects sit below the matrix; the transform
    # prints once per packed row (29 at n = 30) as the matrix fills, once
    # per block of 64 rows (one) as the statistic reads the triangle, and
    # the script once at the end
    ("spiked.score_transform = lambda y: print('scipy.sparse.linalg' in sys.modules) or y\n"
     "spiked.tpca_test(inst)", ["True"] * 29 + ["True"] + ["True"]),
], ids=["top_eigenvalue", "before_transform"])
def test_scipy_loads_on_the_first_eigen_solve(solve, want):
    # scipy is most of the start-up time and only the eigen-solve needs it:
    # the CLI imports none of it, and one solve loads the Lanczos solver
    src = str(Path(nefqvf.__file__).resolve().parents[1])
    code = ("import sys, numpy as np, nefqvf.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "from nefqvf import spiked\n"
            "inst = spiked.sample_wig(30, 1.2, 'sech', True, np.random.default_rng(0))\n"
            f"{solve}\n"
            "print('scipy.sparse.linalg' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", *want]


def test_simulate_holds_one_instance_at_a_time(capsys):
    # a trial's instance is released before the next trial draws, so the
    # peak is one packed instance (0.5 x 8n^2) and the float32 matrix its
    # test solves (0.5 x) plus the solver's vectors (measured 1.12 x);
    # keeping the last instance alive would add another 0.5 x.  The parser
    # and ARPACK's 20 Lanczos vectors add about 0.28 MB, which n = 600 keeps
    # inside the margin
    n = 600
    argv = ["spiked", "simulate", "--n", str(n), "--lambda", "1.2", "--noise", "sech",
            "--trials", "3", "--test", "tpca", "--seed", "8"]
    assert main(argv) == 0  # the first solve imports scipy: keep that out of the peak
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 1.3 * 8 * n * n


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KB, as Linux reports it")
def test_repeated_power_curves_keep_their_peak():
    # one instance (0.5 x 8n^2) and one float32 matrix (0.5 x) are live at
    # a time, and no small object outlives a row loop to pin a freed buffer
    # in place on the heap, so six curves in one process peak where the
    # first one does (measured 1.13-1.14 x; the bound is 0.17 x above); a
    # float64 matrix (1.62 x) or objects left between freed buffers (one
    # more matrix) fail
    n = 1000
    src = str(Path(nefqvf.__file__).resolve().parents[1])
    code = (
        "import resource, sys, numpy as np\n"
        "from nefqvf import cli, spiked\n"
        "spiked.tpca_test(spiked.sample_wig(30, 1.2, 'sech', True, np.random.default_rng(0)))\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "for test in ('tpca', 'pca'):\n"
        "    for seed in ('0', '1', '2'):\n"
        "        cli.main(['spiked', 'power-curve', '--test', test, '--noise', 'sech',\n"
        f"                  '--n', '{n}', '--lambdas', '0.8,1.5', '--trials', '1',\n"
        "                  '--seed', seed])\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base\n"
        "print(grown * 1024, file=sys.stderr)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert int(res.stderr.splitlines()[-1]) <= 1.3 * 8 * n * n


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KB, as Linux reports it")
def test_repeated_mixed_sequences_keep_their_peak():
    # the spiked-mixed benchmark's calls: a heavy null that the mixed test
    # labels from its largest entry, a sech null and two planted mixed
    # instances, each solved on a float32 matrix that is filled one packed
    # row per transform call.  The first sequence imports scipy and sets the
    # peak; two more raise it by 0.05-0.07 x 8n^2 (measured).  A fill that
    # transforms blocks of 64 rows leaves a heap hole the next matrix cannot
    # reuse, and there the third sequence peaks 0.41-0.44 x higher
    n = 1000
    src = str(Path(nefqvf.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, resource, sys\n"
        "from nefqvf import cli\n"
        "peaks = []\n"
        "for sequence in range(3):\n"
        "    calls = (('heavy', 'false', '1'), ('sech', 'false', '1'), ('mixed', 'true', '2'))\n"
        "    for seed, (noise, planted, trials) in enumerate(calls, 3 * sequence):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        f"            assert cli.main(['spiked', 'simulate', '--n', '{n}', '--lambda', '1.2',\n"
        "                             '--noise', noise, '--alpha', '3', '--planted', planted,\n"
        "                             '--trials', trials, '--test', 'mixed',\n"
        "                             '--seed', str(seed)]) == 0\n"
        "    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "print((peaks[-1] - peaks[0]) * 1024, file=sys.stderr)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert int(res.stderr.splitlines()[-1]) <= 0.2 * 8 * n * n

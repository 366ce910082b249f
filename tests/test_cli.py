"""Command-line surface: formats, determinism, exit codes."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nefqvf
from nefqvf import cli, ldlr, spiked
from nefqvf.cli import main, parse_model_file
from nefqvf.ldlr import LdlrResult

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


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[ldlr.exact]\nmodle = x\n")
    code = main(["--config", str(cfg), "ldlr", "exact", "--degree", "1"])
    err = capsys.readouterr().err
    assert code == 2 and "modle" in err


def test_cap_exceeded_exit_code(tmp_path, capsys):
    # work bound atoms^2 * N * (D+1)^2 = 30 * 601^2 exceeds 10^7
    means = " ".join(["1.0"] * 30)
    coords = " ".join(["1.1"] * 30)
    path = tmp_path / "big.model"
    path.write_text(f"family = poisson\nkind = kin\nnull_means = {means}\natom = {coords} : 1.0\n")
    assert main(["ldlr", "exact", "--model", str(path), "--degree", "600"]) == 3


def test_numeric_instability_exit_code(tmp_path, monkeypatch, capsys):
    # norms that fall as v2 rises trip the monotonicity guard of channel_compare
    def decreasing(model, D):
        return LdlrResult(value=-model.family.v2, mode="exact", degree=D)

    monkeypatch.setattr(ldlr, "ldlr_exact", decreasing)
    path = tmp_path / "cmp.model"
    path.write_text(COMPARE_MODEL)
    code = main(["ldlr", "compare", "--model", str(path), "--degree", "3"])
    err = capsys.readouterr().err
    assert code == 4 and "not monotone" in err


@pytest.mark.parametrize("argv, message", [
    (["spiked", "entrywise-bound", "--n", "50", "--lambda", "0.5", "--degree", "0",
      "--samples", "30"], "D >= 1"),
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
])
def test_bad_input_exits_config_code(argv, message, capsys):
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


def test_benchmark_operations_pass_their_checks(tmp_path, monkeypatch, capsys):
    # perfbench/workloads.py drives the CLI and the library by name; load it
    # from its file and run every operation once at its smallest size, so
    # that a change which breaks a benchmark operation fails here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("nefqvf_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, 0, "tiny", tmp_path / name)
        assert ops
        for op in ops:
            op.check(op.run())
    capsys.readouterr()


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
    assert code == 2 and "need lambda >= 0, got -1" in capsys.readouterr().err


def test_cli_and_library_share_one_test_table():
    assert cli._TEST_FNS is spiked._TESTS
    assert set(spiked._TESTS) == {"pca", "tpca", "mixed"}


def test_layer_tracing_still_sees_the_spiked_layers(bernoulli_model, tmp_path, capsys):
    # perfbench/tracing.py patches package functions by name; load it from
    # its file and check that a folded table, wrapper or accessor still
    # routes through the patched names
    additive_model = tmp_path / "additive.model"
    additive_model.write_text("family = sech\nkind = additive\nnull_means = 0 0\n"
                              "atom = 0.3 -0.2 : 0.6\natom = -0.1 0.25 : 0.4\n")
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("nefqvf_layer_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
    code, out = run_cli(["families", "check"], capsys)
    assert code == 0
    _, rows = body(out)
    assert all(r.endswith("pass") for r in rows)


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


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about a second of import time; the package never
    # uses it
    src = str(Path(nefqvf.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys; import nefqvf.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("solve, want", [
    ("spiked.top_eigenvalue(inst.matrix())", ["True"]),
    # an eigenvalue test loads the solver before its transform allocates,
    # so that scipy's long-lived objects sit below the transform's buffer
    ("spiked.score_transform = lambda y: print('scipy.sparse.linalg' in sys.modules) or y\n"
     "spiked.tpca_test(inst)", ["True", "True"]),
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
    # a trial's matrix is released before the next trial draws, so the peak
    # is one matrix and its score transform (2 x 8n^2) plus the solver's
    # vectors; keeping the last instance alive would add a matrix and the
    # packed noise triangle (2.5 x).  The parser and ARPACK's 20 Lanczos
    # vectors add about 0.28 MB, which n = 600 keeps well inside the margin
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
    assert peak <= 2.2 * 8 * n * n

"""nefqvf benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload norms --seed 3 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Steps:

1. The workload's inputs are generated from ``--seed`` (see workloads.py).
2. Passes over all operations run in this process, one after another, until
   their total would exceed ``--seconds`` (at least MIN_PASSES).  ``wall_s`` and
   ``cpu_s`` (user plus system, all threads and child processes) are
   medians over passes; ``peak_rss_mb`` is this process's peak resident
   memory.  With ``--trace 1`` passes alternate untraced and traced; the
   per-layer metrics come from the traced ones and ``trace.overhead_s`` is
   the median traced minus the median untraced pass.
3. ``setup_s``: a fresh interpreter runs ``import nefqvf.cli`` and
   ``build_parser()``; the median wall time of SETUP_PROBES such runs,
   made one before each pass (and the rest after the last pass).
4. Every output is checked: it must equal the first pass's output, pass its
   operation's check and, for the default seed (or an input that does not
   depend on the seed), match the reference recorded in ``reference/``.

BLAS threads are capped at the number of usable cores.  Stdout ends with a
provenance line, a digest line (sha256 of each output, so that two commits
can be compared on any seed), a readable summary, and the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
MIN_PASSES = 3

IMPORTS = ("nefqvf", "scipy.stats", "scipy.sparse.linalg")


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(args: list[str]) -> tuple[float, str]:
    """Wall time and stderr of a fresh interpreter running ``args``."""
    start = perf_counter()
    res = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    wall = perf_counter() - start
    if res.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{res.stderr}")
    return wall, res.stderr


SETUP_CODE = "import nefqvf.cli as c; c.build_parser()"


def setup_seconds() -> float:
    return probe(["-c", SETUP_CODE])[0]


def import_ms() -> dict[str, float]:
    """Cumulative import time of IMPORTS, from ``python -X importtime``."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORTS}
    for _ in range(IMPORTTIME_PROBES):
        seen = dict.fromkeys(IMPORTS, 0.0)
        for line in probe(["-X", "importtime", "-c", SETUP_CODE])[1].splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name in seen and parts[1].strip().isdigit():
                    seen[name] = int(parts[1]) / 1e3
        for name, ms in seen.items():
            samples[name].append(ms)
    return {f"import.{name}.ms": statistics.median(v) for name, v in samples.items()}


def provenance() -> dict:
    """Revision of this checkout, library versions and BLAS threading."""
    import numpy
    import scipy

    def git(*args):
        res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
        return res.stdout.strip() if res.returncode == 0 else None

    rev, dirty = "unknown", None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top and Path(top).resolve() == ROOT:
            rev = git("rev-parse", "HEAD") or "unknown"
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except OSError:
        pass

    blas = []
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib, info = ctypes.CDLL(path), {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    info["config"] = config().decode()
                    info["threads"] = threads()
        blas.append(info)
    return {
        "git_revision": rev, "git_dirty": dirty,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": blas, "nproc": NPROC,
        "blas_thread_cap": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_pass(ops, tracer=None) -> dict:
    """Run every operation once; outputs are None where an operation raised."""
    from tracing import install

    gc.collect()
    undo = None
    if tracer is not None:
        tracer.reset()
        undo = install(tracer)
    outputs = []
    r0 = (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    start = perf_counter()
    try:
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            try:
                outputs.append(op.run())
            except Exception:  # an operation failure is counted, the pass goes on
                traceback.print_exc()
                outputs.append(None)
    finally:
        wall = perf_counter() - start
        r1 = (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
        if undo is not None:
            undo()
    cpu = sum(b.ru_utime - a.ru_utime + b.ru_stime - a.ru_stime for a, b in zip(r0, r1))
    result = {"wall": wall, "cpu": cpu, "outputs": outputs, "traced": tracer is not None}
    if tracer is not None:
        result["layers"] = tracer.summary()
    return result


def count_failures(ops, passes, seed, use_reference) -> int:
    """Failed operation runs: raised, differ from pass one, or fail a check."""
    from workloads import DEFAULT_SEED, CheckError, compare_to_reference, strip_provenance

    failed = 0
    checked: dict[tuple, str | None] = {}
    for i, op in enumerate(ops):
        first = strip_provenance(passes[0]["outputs"][i] or "")
        for p in passes:
            text = p["outputs"][i]
            if text is None:
                failed += 1
                continue
            if strip_provenance(text) != first:
                print(f"{op.name}: output differs between passes", file=sys.stderr)
                failed += 1
                continue
            key = (i, first)
            if key not in checked:
                try:
                    op.check(text)
                    if use_reference and (seed == DEFAULT_SEED or not op.seeded):
                        compare_to_reference(op.name, text)
                    checked[key] = None
                except (CheckError, OSError, KeyError, ValueError, IndexError) as exc:
                    checked[key] = f"{op.name}: {type(exc).__name__}: {exc}"
                    print(checked[key], file=sys.stderr)
            failed += checked[key] is not None
    return failed


def layer_metrics(passes, names) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    last = traced[-1]["layers"]
    out = {}
    for name in names:
        if name.endswith(".self_ms"):
            out[name] = statistics.median(p["layers"].get(name, 0.0) for p in traced)
        else:
            out[name] = float(last.get(name, 0))
    instances = last.get("spiked.sample_wig.calls", 0)
    eigsh = last.get("spiked.eigsh.calls", 0)
    out["spiked.matrix_per_instance"] = last.get("spiked.matrix.calls", 0) / instances if instances else 0.0
    out["spiked.lanczos_ok_ratio"] = (
        (eigsh - last.get("spiked.top_eigenvalue.fallbacks", 0)) / eigsh if eigsh else 0.0)
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in plain))
    out.update(import_ms())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "nefqvf" / "cli.py").is_file():
        print(f"error: no nefqvf sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))

    import nefqvf.cli  # noqa: F401  (compiles the package once, before the probes)
    from tracing import Tracer
    from workloads import WORKLOADS, make_ops, strip_provenance

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    ops = make_ops(args.workload, args.seed, args.size,
                   BUILD / f"{args.workload}-{args.seed}-{args.size}")

    # set-up probes run between passes, so that their median spans the run
    tracer = Tracer() if args.trace else None
    probes = 0 if args.trace else SETUP_PROBES
    passes, setup = [], []
    spent = 0.0
    while len(passes) < MIN_PASSES or spent + passes[-1]["wall"] <= args.seconds:
        if len(setup) < probes:
            setup.append(setup_seconds())
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(ops, tracer if traced else None))
        spent += passes[-1]["wall"]
    setup += [setup_seconds() for _ in range(probes - len(setup))]

    failed = count_failures(ops, passes, args.seed, use_reference=args.size == "full")
    attempted = len(ops) * len(passes)

    if args.trace:
        units = declared_metrics("per_layer")
        values = layer_metrics(passes, units)
        tracer.write(BUILD / f"spans-{args.workload}-{args.seed}-{args.size}.jsonl",
                     {"workload": args.workload, "seed": args.seed, **provenance()})
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = declared_metrics("end_to_end")
    metrics = {name: (values[name], unit) for name, unit in units.items()}

    print(json.dumps({"provenance": provenance()}))
    print(json.dumps({"digests": {
        op.name: hashlib.sha256(strip_provenance(text or "").encode()).hexdigest()
        for op, text in zip(ops, passes[0]["outputs"])}}))
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          + " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
          + f" error_rate={failed / attempted:.6g} ({failed}/{attempted} operations)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark, and a table of every workload's metrics.

    python3 perfbench/selftest.py              # each workload once, tiny inputs
    python3 perfbench/selftest.py --size full  # each workload at full size

Checks the form of BENCHMARK.json (from which run.py takes its metric names
and units) and design.json's layer map against it, then runs every workload
untraced and traced.  It fails loudly on a malformed result, a missing or
extra metric, a non-zero error rate, or a per-layer metric that reads zero
on a workload where design.json says its layer runs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SelfTestError(Exception):
    pass


def need(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestError(what)


def check_benchmark_json() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    need(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                       "per_layer"}, "BENCHMARK.json keys")
    need([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    for w in spec["workloads"]:
        need(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
             f"workload {w['name']}")
    for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        metrics = spec[key]
        need(len({m["name"] for m in metrics}) == len(metrics), f"{key} names repeat")
        for m in metrics:
            need(set(m) == fields and NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
                 and m["better"] in ("lower", "higher"), f"{key} entry {m}")
            need(key == "per_layer" or 0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    need(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]),
         "setup_s needs the largest bound")
    need(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    return spec


def run_once(workload: str, size: str, seconds: int, trace: int, declared: dict) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    need(res.returncode == 0, f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    need(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    need(type(result["attempted"]) is int and result["attempted"] >= 1
         and type(result["failed"]) is int, "attempted and failed counts")
    need(result["failed"] == 0 and result["correct"] is True,
         f"{workload}: error_rate {result['failed']}/{result['attempted']}:\n{res.stderr}")
    need(set(result["metrics"]) == set(declared), f"{workload}: metric names")
    for name, m in result["metrics"].items():
        need(m["unit"] == declared[name] and isinstance(m["value"], (int, float))
             and math.isfinite(m["value"]), f"{workload}: metric {name} = {m}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("tiny", "full"), default="tiny")
    args = parser.parse_args(argv)
    try:
        spec = check_benchmark_json()
        end_to_end, per_layer = ({m["name"]: m["unit"] for m in spec[key]}
                                 for key in ("end_to_end", "per_layer"))
        layers = json.loads((HERE / "design.json").read_text())["layers"]
        need(set(layers) == set(per_layer), "design.json layer map differs from BENCHMARK.json")
        seconds = 1 if args.size == "tiny" else spec["run_seconds"]
        print(f"{'workload':<14}" + "".join(f"{n + ' [' + u + ']':>20}" for n, u in end_to_end.items())
              + f"{'error_rate':>14}")
        for workload in WORKLOADS:
            plain = run_once(workload, args.size, seconds, 0, end_to_end)
            traced = run_once(workload, args.size, seconds, 1, per_layer)
            for name, entry in layers.items():
                if workload in entry["runs_on"]:
                    need(traced["metrics"][name]["value"] > 0,
                         f"{workload}: {name} reads zero where its layer runs")
            print(f"{workload:<14}" + "".join(f"{plain['metrics'][n]['value']:>20.4f}"
                                              for n in end_to_end)
                  + f"{plain['failed'] / plain['attempted']:>14.4f}", flush=True)
    except SelfTestError as exc:
        print(f"SELF-TEST FAILED: {exc}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

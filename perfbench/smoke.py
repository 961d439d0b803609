"""Smoke check of the benchmark, and one command for every workload's numbers.

    python3 perfbench/smoke.py                 # one short pass per workload
    python3 perfbench/smoke.py --seconds 28    # full-length runs

For each workload in BENCHMARK.json it runs ``perfbench/run.py`` untraced
and traced, one after the other, and asserts that each run exits 0, that
its last line carries every metric BENCHMARK.json names for that mode with
the declared unit, and that no job failed (error_rate 0). It also asserts
that ``workloads.json`` documents every workload and per-layer metric.
It then prints each workload's end-to-end metrics with the number of
samples each was taken from, and the error rate. Run it from the root of
the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def check(result: dict, record: dict, declared: list[dict], label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    expect(result["failed"] == 0 and result["correct"], f"{label}: failures {record['failures']}")
    expect(record["error_rate"] == 0, f"{label}: error_rate {record['error_rate']}")
    names = [m["name"] for m in declared]
    expect(sorted(result["metrics"]) == sorted(names), f"{label}: metrics differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{label}: {m['name']} in {got['unit']}, declared {m['unit']}")
        expect(isinstance(got["value"], (int, float)), f"{label}: {m['name']} is not a number")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=0.1, help="measuring time per run (default: one pass)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "workloads.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    expect(sorted(workloads) == sorted(spec["workloads"]), "workloads.json and BENCHMARK.json disagree")
    expect(
        sorted(m["name"] for m in bench["per_layer"]) == sorted(spec["layers"]),
        "workloads.json must map every per-layer metric of BENCHMARK.json",
    )

    print(f"{'workload':10s} {'metric':14s} {'value':>12s} unit   samples")
    for workload in workloads:
        result, record = run(workload, args.seed, args.seconds, 0)
        check(result, record, bench["end_to_end"], f"{workload} trace=0")
        traced, traced_record = run(workload, args.seed, args.seconds, 1)
        check(traced, traced_record, bench["per_layer"], f"{workload} trace=1")
        metrics = result["metrics"]
        samples = {
            "setup_s": record["setup_s"]["n"],
            "pass_s": record["pass_s"]["n"],
            "slowest_job_s": min(s["n"] for s in record["job_s"].values()),
            "peak_mib": len(record["memory_pass_peak_mib"]),
        }
        for name, m in metrics.items():
            print(f"{workload:10s} {name:14s} {m['value']:12.4f} {m['unit']:6s} {samples[name]}")
        print(f"{workload:10s} {'error_rate':14s} {record['error_rate']:12.4f} {'ratio':6s} {record['attempted']}")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark: the quick mode of every workload.

Usage (from the root of a checkout):

    python3 perfbench/smoke.py

For each workload it runs `run.py --quick` untraced and traced and checks
that the run exits 0, that its final JSON line is correct with no failed
operation and carries exactly the `end_to_end` (untraced) or `per_layer`
(traced) metrics of BENCHMARK.json with their units, and that every one
of them is also on a `metric NAME VALUE UNIT samples=N` report line.
Then it checks that verification fails as it should: against a
deliberately wrong golden table, `table5-seeds` and `fleet-canary` must
exit 1 without printing a result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["http-serve", "upgrade-whitebox", "table5-seeds", "fleet-canary"]


def run(workload, trace, *extra):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--quick", *extra]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_run(workload, trace, expected):
    out = run(workload, trace)
    where = f"{workload} trace={trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}\n{out.stdout[-3000:]}{out.stderr[-3000:]}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        errors.append(f"{where}: metrics {got} != {expected}")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == "metric" and parts[4].startswith("samples="):
            printed[parts[1]] = parts[3]
    for name, unit in expected.items():
        value = result["metrics"].get(name, {}).get("value")
        zero_ok = trace == 1
        if name not in printed:
            errors.append(f"{where}: no report line for {name}")
        elif printed[name] != unit:
            errors.append(f"{where}: {name} printed with unit {printed[name]}, want {unit}")
        elif not zero_ok and not value:
            errors.append(f"{where}: end-to-end {name} is {value}")
    if not any(line.startswith("stamp nproc=") for line in lines):
        errors.append(f"{where}: no stamp line")
    return errors


def check_wrong_golden(workload, name):
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    bad = target / "perfbench-smoke"
    bad.mkdir(parents=True, exist_ok=True)
    golden = bytearray((ROOT / "results" / name).read_bytes())
    golden[-2] = ord("0") if golden[-2] != ord("0") else ord("1")
    (bad / name).write_bytes(golden)
    out = run(workload, 0, "--golden-dir", str(bad))
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 1 or last.startswith("{") or "verify FAILED" not in out.stdout:
        return [f"{workload}: a wrong golden did not fail the run (exit {out.returncode})"]
    return []


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        print("smoke: BENCHMARK.json workloads differ from", WORKLOADS)
        return 1
    errors = []
    for workload in WORKLOADS:
        errors += check_run(workload, 0, end_to_end)
        errors += check_run(workload, 1, per_layer)
    errors += check_wrong_golden("table5-seeds", "table5.txt")
    errors += check_wrong_golden("fleet-canary", "fleetstudy.txt")
    for error in errors:
        print("smoke FAILED:", error)
    if not errors:
        print(f"smoke ok: {len(WORKLOADS)} workloads, untraced and traced, and wrong goldens rejected")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two sets of saved benchmark reports metric by metric.

Usage:

    python3 perfbench/compare.py BASE_REPORT... -- NEW_REPORT...

Each report is the saved standard output of one `run.py` run. All reports
must come from the same workload, traced or not, on the same host with the
same toolchain: the comparison is refused (exit 2) when any two stamps
differ in `nproc`, `cpu`, `rustc` or `traced`. The code may differ, that
being what is compared: each side's `commit` and `build` are printed, and
`calibration_ms`, the host-drift figure, is shown as a median. For each
metric it prints both medians and the change, and marks an end-to-end
metric whose new median is worse than the base by more than its
BENCHMARK.json bound.
"""

import json
import shlex
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("nproc", "cpu", "rustc", "traced")


def load(path):
    stamp, header, result = None, None, None
    for line in Path(path).read_text().splitlines():
        if line.startswith("stamp "):
            stamp = dict(part.split("=", 1) for part in shlex.split(line)[1:])
        elif line.startswith("perfbench "):
            header = dict(part.split("=", 1) for part in line.split()[1:])
        elif line.startswith("{"):
            result = json.loads(line)
    if stamp is None or header is None or result is None:
        sys.exit(f"compare: {path} is not a complete benchmark report")
    identity = {k: stamp.get(k) for k in HOST_KEYS}
    identity["workload"] = header["workload"]
    return identity, stamp, result["metrics"]


def describe(side, reports):
    """One line naming the code and the host drift of one side."""
    code = sorted({f"commit={s.get('commit')} build={s.get('build')}" for _, s, _ in reports})
    drift = statistics.median(float(s.get("calibration_ms", "nan")) for _, s, _ in reports)
    return f"{side}: {len(reports)} reports, {'; '.join(code)}, median calibration_ms={drift:.3f}"


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    base = [load(p) for p in argv[:split]]
    new = [load(p) for p in argv[split + 1:]]
    if not base or not new:
        sys.exit(__doc__)
    identities = {json.dumps(identity, sort_keys=True) for identity, _, _ in base + new}
    if len(identities) != 1:
        print("compare: refused, the reports' host or toolchain stamps differ:")
        for identity in sorted(identities):
            print("  ", identity)
        return 2
    print(describe("base", base))
    print(describe("new ", new))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    worse = 0
    for name in base[0][2]:
        b = statistics.median(m[name]["value"] for _, _, m in base)
        n = statistics.median(m[name]["value"] for _, _, m in new)
        change = (n - b) / b if b else 0.0
        rule = rules.get(name, {})
        sign = -1 if rule.get("better") == "higher" else 1
        flag = ""
        if "bound" in rule and sign * change > rule["bound"]:
            flag = "  WORSE than bound"
            worse += 1
        print(f"{name:32s} {b:16.6g} -> {n:16.6g} {change:+8.2%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

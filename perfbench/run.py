#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Builds `perfbench/` (a cargo package of its own that depends on the
workspace crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the workload in its own process.
The report, the verification results and, last, one JSON line go to
standard output; the exit code is non-zero when the build or the
verification fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def source_digest():
    """Digest of the sources the benchmark binary is built from."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for base in (ROOT / "crates", HERE / "src"):
        files += [p for p in base.rglob("*") if p.suffix in (".rs", ".toml") and "target" not in p.parts]
    for path in sorted(files):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    if not (ROOT / "crates" / "experiments" / "Cargo.toml").is_file():
        print("perfbench: workspace sources (crates/) not found beside perfbench/", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "--short=12", "HEAD"])
    env["PERFBENCH_BUILD"] = source_digest()
    argv = [str(target / "release" / "perfbench"), *sys.argv[1:]]
    sys.stdout.flush()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the campaign benchmark (see campaignbench/README.md).

Usage, from the repository root:

    python3 campaignbench/run.py --workload double_fault --seed 1 \
        --seconds 30 --trace 0
    python3 campaignbench/run.py --test      # the benchmark's own tests

Every call configures and builds the library and the benchmark into
.bench_build/ (Release); only the first one compiles everything. Build
output goes to stderr, so the last line on stdout is the result JSON.
--trace 0 runs .bench_build/campaignbench, --trace 1 the allocation-counting
.bench_build/campaignbench_traced. A result whose metric names or units
differ from BENCHMARK.json is refused (exit 1).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def jobs():
    return str(min(os.cpu_count() or 1, 4))


def build(*targets):
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", *targets,
                    "-j", jobs()], check=True, stdout=sys.stderr)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def metric_mismatch(result_line, trace):
    """Why the result's metrics differ from BENCHMARK.json, or ""."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    try:
        metrics = json.loads(result_line)["metrics"]
        got = {name: m["unit"] for name, m in metrics.items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return "no result line"
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        return f"metrics differ from BENCHMARK.json: {diff}"
    return ""


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if not args.test and not args.workload:
        p.error("--workload is required")

    binary = "campaignbench_traced" if args.trace == "1" else "campaignbench"
    try:
        build(*(["campaignbench_tests"] if args.test
                else ["campaignbench", "campaignbench_traced"]))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"campaignbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.test:
        return subprocess.run([os.path.join(BUILD, "campaignbench_tests")],
                              cwd=ROOT).returncode

    cmd = [os.path.join(BUILD, binary),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           # Relative to the root (the run's working directory), so spool
           # paths, and the journal that records them, do not depend on
           # where the checkout lives.
           "--out-dir", ".bench_out", "--work-dir", ".bench_work",
           "--commit", commit(), "--source", source_digest()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("campaignbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    problem = metric_mismatch(lines[-1] if lines else "", args.trace)
    if run.returncode != 0 or problem:
        sys.stderr.write(run.stdout)
        print(f"campaignbench: {problem or 'run failed'}", file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

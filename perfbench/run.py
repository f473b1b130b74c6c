#!/usr/bin/env python3
"""Builds and runs the pool benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

<name> is conv_pool, manager_fanout or wide_stream; "all" runs the three in
turn and fails if any of them does.

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the repository's libraries from src/ plus the
pool_bench program, Release) under .bench_build/perfbench; later calls only
rebuild what changed. pool_bench then runs with every RPOL_* variable
removed from its environment, in a working directory under the build tree
that also holds its checkpoint spill files. Its output is passed through;
the last line is the result JSON. Exits non-zero, without a result, when
the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ["conv_pool", "manager_fanout", "wide_stream"]


def build() -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "pool_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "pool_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_one(binary, w, args) for w in workloads]
    return 0 if all(code == 0 for code in codes) else 1


def run_one(binary: Path, workload: str, args: argparse.Namespace) -> int:
    workdir = BUILD / "run"
    tmpdir = workdir / "tmp"
    shutil.rmtree(tmpdir, ignore_errors=True)
    tmpdir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("RPOL_")}
    env["TMPDIR"] = str(tmpdir)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

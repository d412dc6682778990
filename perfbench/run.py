#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload online-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The first form builds perfbench_serving (Release, into .bench_build/perfbench)
from the sources in this checkout, runs one workload and prints the result
object {"correct", "attempted", "failed", "metrics"} as the last line of
standard output.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics.  Build output and the program's diagnostics
go to standard error; the full record of the run (metadata stamp, sample
counts, details) and, for traced runs, the spans are written under
.bench_build/perfbench/out.

--self-check runs every workload at a tiny scale with and without tracing,
asserts that each metric of BENCHMARK.json is emitted with its unit, and
asserts that the oracle rejects a deliberately corrupted result.

Exit status: the program's (0 = every operation succeeded and every checked
result matched the oracle); 2 when the build fails; 3 on a timeout or a
malformed result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_serving"
OUT = BUILD / "out"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def configured_here():
    """True when the build tree exists and was configured from this checkout."""
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]) == HERE
    return False


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not configured_here():
        shutil.rmtree(BUILD, ignore_errors=True)
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_serving"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            sys.exit(2)


def revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, parsed result, other stdout lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT), "--revision", revision(), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(3)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return proc.returncode, result, lines[:-1] if result else lines


def self_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result, _ = run_binary(workload, 1, 1, trace, ["--tiny"])
            where = f"{workload} trace={trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}")
                continue
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                problems.append(f"{where}: missing {missing}, unexpected {extra}, "
                                f"wrong unit {wrong}")
            log(f"{where}: {len(got)} metrics, attempted {result['attempted']}")
    # The oracle must trip on a corrupted result, on both oracles
    # (cpu-heap and the exact-sort rebuild of the live rows).
    for workload in ("online-small", "online-mutating"):
        code, result, _ = run_binary(workload, 1, 1, 0, ["--tiny", "--corrupt-result"])
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: corrupted result not rejected "
                            f"(exit {code}, result {result})")
        else:
            log(f"{workload}: corrupted result rejected (exit {code})")
    for problem in problems:
        log("SELF-CHECK FAILED: " + problem)
    if problems:
        return 1
    log("self-check passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["batch-large", "online-small", "online-mutating"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_check:
        return self_check()
    code, result, lines = run_binary(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        log("the program printed no result object")
        return code or 3
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Served-jobs benchmark: entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark package (perfbench/CMakeLists.txt) into .bench_build
at the root of the checkout on first use, runs the served_jobs program,
and prints its output; the last line is the JSON result. Before it a
`{"record": ...}` line gives the seed, the commit and the host
fingerprint, and the same record is appended to
.bench_build/results.jsonl so absolute rates can be tracked over time.

--self-test runs every workload in a short mode with both --trace values
and checks that each metric BENCHMARK.json names is printed with its unit
and that the correctness gate passes. See perfbench/BENCHMARK.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("steady", "long-streams", "fuse-per-job", "hub")
RUN_TIMEOUT_S = 175


def die(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds served_jobs and vlsipc; returns both."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "tools" / "vlsipc.cpp"
    ).is_file():
        die("the vlsip sources (src/, tools/) are not beside perfbench/")
    if shutil.which("cmake") is None:
        die("cmake is not installed")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "served_jobs", "vlsipc"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "served_jobs", BUILD / "vlsip" / "tools" / "vlsipc"


def host_fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = os.environ.get("VLSIP_COMMIT", "")
    # Only this checkout's own repository: git would otherwise report the
    # commit of any repository that happens to enclose it.
    if not commit and (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = ""
    return {"cpu": cpu, "nproc": os.cpu_count(), "commit": commit or "unknown",
            "simd_env": os.environ.get("VLSIP_SIMD_LEVEL", "")}


def run_served_jobs(program, vlsipc, workload, seed, seconds, trace,
                    jobs=None):
    """Runs one benchmark invocation; returns (exit code, stdout lines)."""
    cmd = [str(program), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--vlsipc", str(vlsipc)]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    # glibc returns the top of a heap to the kernel once it exceeds a
    # sliding trim threshold. Whether a processor's release hits that
    # depends on heap layout, so fuse-per-job ran at either ~250 or
    # ~1000 jobs/s from run to run, mostly in system time. Trimming off,
    # every run lands in the fast mode (BENCHMARK.md, "Allocator").
    env = dict(os.environ, MALLOC_TRIM_THRESHOLD_=str(1 << 30))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} overran {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, proc.stdout.splitlines()


def emit(lines):
    """Prints served_jobs' lines with the record completed; result last."""
    result = None
    for line in lines:
        if line.startswith('{"record"'):
            record = json.loads(line)["record"]
            record.update(host_fingerprint())
            record["time"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            text = json.dumps({"record": record})
            print(text)
            with open(BUILD / "results.jsonl", "a") as log:
                log.write(text + "\n")
        elif line.startswith('{"correct"'):
            result = line
        else:
            print(line)
    if result is not None:
        print(result)
    return result


def self_test(program, vlsipc):
    """Short-length mode: every metric with its unit, gate passing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    digests = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_served_jobs(program, vlsipc, workload, 11, 1,
                                          trace, jobs=20)
            results = [l for l in lines if l.startswith('{"correct"')]
            records = [l for l in lines if l.startswith('{"record"')]
            if code != 0 or not results:
                problems.append(f"{workload} trace {trace}: exit {code}")
                continue
            result = json.loads(results[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} trace {trace}: gate failed")
            for metric in wanted[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(
                        f"{workload} trace {trace}: {metric['name']} missing "
                        f"or not in {metric['unit']}")
            if trace == 0 and records:
                digests[workload] = json.loads(records[-1])["record"][
                    "stream0_output_digest"]
            print(f"self-test {workload} trace {trace}: "
                  f"{len(result['metrics'])} metrics", file=sys.stderr)
    if digests.get("steady") != digests.get("hub"):
        problems.append("steady and hub served the same stream with "
                        "different output digests")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="stream length per round (default: per workload)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        program, vlsipc = build()
    except subprocess.CalledProcessError as e:
        die(f"build failed: {e}", 1)
    if args.self_test:
        return self_test(program, vlsipc)
    code, lines = run_served_jobs(program, vlsipc, args.workload, args.seed,
                             args.seconds, args.trace, args.jobs)
    result = emit(lines)
    if result is None and code == 0:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())

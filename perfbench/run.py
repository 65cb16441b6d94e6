#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one run of one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload nonmux_cold|sq_cold|live_replay \
      --seed N --seconds S --trace 0|1

Steps:
  1. builds perfbench/ (the CSI libraries plus the csibench driver, Release)
     into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
  2. generates the workload's corpus of 10-minute sessions from --seed with
     src/testbed (a few generator processes side by side; untimed);
  3. runs `csibench run`, which measures for --seconds and checks the output;
  4. with --trace 1, validates the span trace with tools/check_trace.py;
  5. prints the corpus identity line, then the result as the last line:
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
     --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

The corpus is deleted after the run; the trace and the full report stay
under the build directory. Exits non-zero, without a result line, when the
build, the generation or the measurement fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("nonmux_cold", "sq_cold", "live_replay")
GENERATOR_PROCESSES = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, **kwargs):
    with open(log_path, "ab") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, **kwargs).returncode


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run_logged(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator,
            log,
        ):
            with open(log, encoding="utf-8", errors="replace") as fp:
                sys.stderr.write(fp.read()[-2000:])
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", build_dir, "-j", jobs], log):
        fail(f"build failed (see {log})")
    return os.path.join(build_dir, "csibench")


def generate(binary, workload, seed, corpus_dir):
    """Runs the generator shards side by side; returns the wall seconds."""
    os.makedirs(corpus_dir)
    start = time.monotonic()
    procs = [
        subprocess.Popen(
            [binary, "gen", "--workload", workload, "--seed", str(seed), "--out", corpus_dir,
             "--shard", str(i), "--shards", str(GENERATOR_PROCESSES)]
        )
        for i in range(GENERATOR_PROCESSES)
    ]
    codes = [p.wait() for p in procs]
    if any(codes):
        fail(f"corpus generation failed (exit codes {codes})")
    return time.monotonic() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    binary = build(build_dir)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    corpus_dir = os.path.join(build_dir, f"corpus-{tag}-{os.getpid()}")
    trace_path = os.path.join(build_dir, f"trace-{tag}.json")
    try:
        generate_s = generate(binary, args.workload, args.seed, corpus_dir)
        cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--corpus", corpus_dir, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", trace_path]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"measurement failed (exit code {proc.returncode})")
    report = json.loads(lines[-1])

    correct = bool(report["correct"])
    problems = list(report["problems"])
    if args.trace:
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "check_trace.py"), trace_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        report["check_trace"] = check.stdout.strip()
        if check.returncode != 0:
            correct = False
            problems.append("check_trace.py: " + check.stdout.strip())

    identity = dict(report["corpus"])
    identity["generate_s"] = round(generate_s, 3)
    with open(os.path.join(build_dir, f"report-{tag}.json"), "w", encoding="utf-8") as fp:
        json.dump({**report, "corpus": identity}, fp, indent=1)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"corpus": identity,
                      **{k: v for k, v in report.items()
                         if k not in ("correct", "attempted", "failed", "metrics", "corpus",
                                      "problems")}}))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the twin benchmark from source and run one workload, or the self-test.

    python3 twinbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 twinbench/run.py --self-test

Run from the repository root. The binary is built (CMake, Release) under
.bench_build/twinbench; build output goes to stderr so that the last line
of stdout is the benchmark's JSON result. Checkpoints are written to a
per-process directory under .bench_build and removed afterwards.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "twinbench")
BINARY = os.path.join(BUILD_DIR, "twinbench")
WORKLOADS = ("prototype_farm", "flash_crowd", "faulted_checkpointed")
INJECTIONS = ("flip-checkpoint", "bad-reference", "throw-day")
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build; returns False when either step fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"twinbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"twinbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def run_binary(args, capture):
    """Runs the benchmark binary in a private work directory; returns
    (exit code, stdout text or None)."""
    workdir = os.path.join(ROOT, ".bench_build", f"twinbench-run-{os.getpid()}")
    cmd = [BINARY, *args, "--workdir", workdir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"twinbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return done.returncode, done.stdout


def self_test():
    """Fires every correctness check on purpose, at tiny scale on each
    workload: a clean run must pass, each injected fault must show up as a
    failed operation while the run still completes and reports."""
    ok = True
    print(f"{'workload':22} {'injection':16} {'exit':>4} {'correct':>7} "
          f"{'attempted':>9} {'failed':>6}  verdict")
    for workload in WORKLOADS:
        for injection in ("none",) + INJECTIONS:
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--scale", "tiny"]
            if injection != "none":
                args += ["--inject", injection]
            code, out = run_binary(args, capture=True)
            result = None
            if code == 0 and out:
                try:
                    result = json.loads(out.strip().splitlines()[-1])
                except (ValueError, IndexError):
                    result = None
            if result is None:
                passed = False
                row = (code, "-", "-", "-")
            else:
                clean = injection == "none"
                passed = (result["correct"] == clean and
                          (result["failed"] == 0) == clean and result["attempted"] > 0)
                row = (code, str(result["correct"]).lower(), result["attempted"],
                       result["failed"])
            ok &= passed
            print(f"{workload:22} {injection:16} {row[0]:>4} {row[1]:>7} {row[2]:>9} "
                  f"{row[3]:>6}  {'ok' if passed else 'WRONG'}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()

    if not build():
        return 1
    if opts.self_test:
        return self_test()
    if opts.workload is None or opts.seed is None or opts.seconds is None or opts.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if opts.seed < 0 or opts.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    code, _ = run_binary(["--workload", opts.workload, "--seed", str(opts.seed),
                          "--seconds", str(opts.seconds), "--trace", str(opts.trace)],
                         capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())

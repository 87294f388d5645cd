#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout's sources and runs it.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-check

The first form builds perfbench/ (Release, into .bench_build/perfbench,
or $CARGO_TARGET_DIR/perfbench when that is set) and runs one workload;
the last line of stdout is the result JSON. With --trace 1 the timeline
(Perfetto-loadable) and the per-layer JSON are written to
.bench_results/<workload>/seed<n>/. Extra flags after the four standard
ones (--charge-index-io, --tiny) are passed to the binary. The exit code
is the binary's: 0 only when the run was correct.

--self-check runs the arithmetic tests, every workload at tiny sizes,
traced and untraced, and the spilled-index fault demonstration.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["solo-mixed", "group-read", "group-read-mirrored"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no src/ tree beside {HERE}; the benchmark builds the "
            "repository's sources and needs a full checkout")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            sys.exit(done.returncode or 1)
    return out


def run_binary(out, args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    try:
        done = subprocess.run([os.path.join(out, "perfbench")] + args,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              cwd=ROOT, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench {' '.join(args)} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return done.returncode, done.stdout


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_check(out):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    done = subprocess.run([os.path.join(out, "perfbench_math_test")],
                          stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        problems.append("perfbench_math_test failed")
    for workload in WORKLOADS:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--tiny", "--out",
                    os.path.join(ROOT, ".bench_results", "self-check",
                                 workload)]
            code, stdout = run_binary(out, args)
            result = last_json(stdout) if code == 0 else None
            what = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{what}: exit {code}, no result")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{what}: correct={result['correct']} "
                                f"failed={result['failed']}")
            missing = expected - set(result["metrics"])
            extra = set(result["metrics"]) - expected
            if missing or extra:
                problems.append(f"{what}: missing {sorted(missing)}, "
                                f"unlisted {sorted(extra)}")
            log(f"{what}: {result['attempted']} operations checked")
    # The reference-model check must catch the spilled-index fault: the
    # run prints its result and exits 1.
    code, stdout = run_binary(out, ["--workload", "group-read", "--seed", "7",
                                    "--seconds", "1", "--trace", "0",
                                    "--tiny", "--charge-index-io"])
    result = last_json(stdout) if code == 1 else None
    if result is None or result["correct"] or result["failed"] == 0:
        problems.append("--charge-index-io: expected failed reads")
    else:
        log(f"--charge-index-io: {result['failed']} of {result['attempted']} "
            "operations failed, as expected")
    for problem in problems:
        log(f"SELF-CHECK FAILED: {problem}")
    if not problems:
        log("self-check passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-check", action="store_true")
    args, extra = parser.parse_known_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    out = build()
    if args.self_check:
        return self_check(out)

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--out", os.path.join(ROOT, ".bench_results", args.workload,
                                      f"seed{args.seed}")]
    code, stdout = run_binary(out, cmd + extra)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

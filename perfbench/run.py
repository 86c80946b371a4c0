#!/usr/bin/env python3
"""Build and run the gridpipe wall-clock benchmark.

    python3 perfbench/run.py --workload saturate|trickle|adapt --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
libgridpipe plus the driver (perfbench.cpp) with CMake into
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. The driver's standard output is passed through; its last line is
the JSON result. Traces go to .bench_out/. --self-test runs a tiny size of
every workload in BENCHMARK.json, checks that every metric it names is
emitted, finite and in its unit, and that a deliberately corrupted output
is counted as failed.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, capture):
    """Runs cmd in its own process group; kills the whole group (forked
    workers included) on timeout and waits for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            stderr=None,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "rt", "runtime.hpp"))):
        fail(f"no gridpipe source tree beside {HERE}; nothing to build")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_dir, "perfbench")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "gridpipe_perfbench", "-j", "3"])
    for step in steps:
        # Build chatter goes to stderr so stdout's last line stays the result.
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1, deadline - time.monotonic()))
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "gridpipe_perfbench")


def driver_cmd(binary, workload, seed, seconds, trace, extra=()):
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]


def last_json(out):
    lines = [line for line in out.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = driver_cmd(binary, wl["name"], 1, 0, trace, ["--tiny"])
            code, out = run_group(cmd, RUN_TIMEOUT_S, True)
            res = last_json(out)
            where = f"{wl['name']} --trace {trace}"
            if code != 0 or not res or not res.get("correct"):
                problems.append(f"{where}: exit {code}, result {res}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if not isinstance(m.get("value"), (int, float)) or \
                        not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} value {m.get('value')!r}")
                if m.get("unit") != unit:
                    problems.append(f"{where}: {name} unit {m.get('unit')!r} != {unit!r}")
            print(f"self-test {where}: {len(got)} metrics, "
                  f"{res['attempted']} items, {res['failed']} failed")
    # One corrupted output must be counted, and must fail the run.
    for wl in spec["workloads"]:
        cmd = driver_cmd(binary, wl["name"], 1, 0, 0, ["--tiny", "--corrupt"])
        code, out = run_group(cmd, RUN_TIMEOUT_S, True)
        res = last_json(out)
        if code == 0 or not res or res["correct"] or res["failed"] != 1:
            problems.append(f"{wl['name']} --corrupt: exit {code}, result {res}")
        else:
            print(f"self-test {wl['name']} --corrupt: failed {res['failed']} "
                  f"of {res['attempted']}, exit {code}")
    for p in problems:
        print(f"self-test FAIL {p}", file=sys.stderr)
    print("self-test", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        fail("--workload is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    code, _ = run_group(driver_cmd(binary, args.workload, args.seed,
                                   args.seconds, args.trace),
                        RUN_TIMEOUT_S, False)
    return code


if __name__ == "__main__":
    sys.exit(main())

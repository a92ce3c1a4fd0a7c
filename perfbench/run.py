#!/usr/bin/env python3
"""One benchmark for the VP, the campaign engines and trace replay.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run builds the repo's libraries
unchanged, plus the harness, into .bench_build/perfbench. Each run generates
the workload's guests from the seed (gen.py), hands them to the harness,
and relays the harness's result: the last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones; `--workload all` prints
one such line per workload. README.md has the details.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing in the checkout's sources
import gen  # noqa: E402

BUILD = os.path.join(".bench_build", "perfbench")
HARNESS_TIMEOUT_S = 170
# setup_s is the median of this many cold set-ups, each in its own process.
SETUP_SAMPLES = 7

# Each workload: its guests (name, generator shape or None for a built-in
# guest of the repo's core::standard_workloads(), roles) and the size of one
# repetition of every timed operation. "fast" marks the guest_mips guest;
# "analysis" guests run under coverage, the two campaign engines, the
# recorder and replay. List entries of the plan are per analysis guest, in
# order.
WORKLOADS = {
    # One long firmware guest (~4.7e6 instructions) on the chained engine;
    # a 32-round prefix of it under the plugin paths and the campaigns.
    "firmware": {
        "guests": [
            ("firmware", gen.Shape(450, 64, 16, 6, 64, 32), "fast"),
            ("firmware_prefix", gen.Shape(32, 64, 16, 6, 64, 32), "analysis"),
        ],
        "plan": {"fast_runs": 6, "coverage_runs": [4], "record_runs": [4],
                 "fault_mutants": [32], "mutation_max": [48]},
    },
    # The E5 guest (278 instructions: restore and set-up dominate), the
    # built-in pid guest (312 instructions; triage prunes ~7 % of its fault
    # and mutation mutants), and a generated guest of ~1e5 instructions
    # (execution dominates). Coverage and recording of the small guests
    # would time little but machine builds.
    "campaigns": {
        "guests": [
            ("bubble_sort", None, "analysis"),
            ("pid", None, "analysis"),
            ("campaign_guest", gen.Shape(16, 48, 12, 4, 48, 16), "fast,analysis"),
        ],
        "plan": {"fast_runs": 150, "coverage_runs": [0, 0, 4],
                 "record_runs": [0, 0, 4], "fault_mutants": [2000, 2000, 48],
                 "mutation_max": [0, 0, 160]},
    },
    # A timing kernel: the trace, replay, WCET and QTA layers dominate.
    "timing_replay": {
        "guests": [
            ("timing_kernel", gen.Shape(24, 32, 8, 8, 32, 64), "fast,analysis"),
        ],
        "plan": {"fast_runs": 40, "coverage_runs": [2], "record_runs": [2],
                 "fault_mutants": [24], "mutation_max": [64]},
    },
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no repo sources under ./src; run from the root of a checkout")
        return None
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    with open(logfile, "a") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                      "perfbench-harness", "s4e-faultsim"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                log(f"build failed: {' '.join(cmd)} (see {logfile})")
                return None
    return os.path.join(BUILD, "perfbench-harness"), os.path.join(BUILD, "s4e-faultsim")


def write_guests(path, workload, seed, corrupt_guest=False):
    spec = WORKLOADS[workload]
    plan = dict(spec["plan"])
    lines = ["@plan " + " ".join(
        f"{k}={','.join(map(str, v)) if isinstance(v, list) else v}"
        for k, v in plan.items())]
    for name, shape, roles in spec["guests"]:
        if shape is None:
            lines.append(f"@builtin {name} {roles}")
            continue
        guest_seed = random.Random(f"{seed}:{name}").getrandbits(64)
        source, uart = gen.make_guest(guest_seed, shape, corrupt=corrupt_guest)
        lines.append(f"@guest {name} {roles}")
        lines.append("@uart " + uart.encode().hex())
        lines.extend(source.splitlines())
        lines.append("@end")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def call(cmd, deadline):
    """Runs cmd to its end or kills it at the deadline; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("harness timed out")
        return 1, ""
    return proc.returncode, out


def run_once(binaries, workload, seed, seconds, trace, corrupt=""):
    harness, faultsim = binaries
    deadline = time.monotonic() + HARNESS_TIMEOUT_S
    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        guests = os.path.join(workdir, "guests.txt")
        write_guests(guests, workload, seed, corrupt_guest=corrupt == "guest")
        # Cold set-ups, each in a fresh process; the main run adds its own.
        samples = []
        for _ in range(SETUP_SAMPLES - 1):
            code, out = call([harness, "--guests", guests, "--setup-only", "1"], deadline)
            if code != 0 or not out.strip():
                log("set-up run failed")
                return code or 1, None
            samples.append(out.split()[-1])
        cmd = [harness, "--guests", guests,
               "--seconds", str(seconds), "--trace", str(trace),
               "--setup-samples", ",".join(samples),
               "--faultsim", faultsim, "--workdir", workdir]
        if corrupt and corrupt != "guest":
            cmd += ["--corrupt", corrupt]
        code, out = call(cmd, deadline)
        lines = [line for line in out.splitlines() if line.strip()]
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        return code, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def self_test(binaries):
    """Corrupt one expected value at a time; each run must report failure."""
    ok = True
    for workload in WORKLOADS:
        for corrupt in ["", "guest", "ref_hash", "outcome_count", "repeat_count"]:
            code, result = run_once(binaries, workload, 1, 1, 0, corrupt)
            reported = result is not None and result["correct"]
            failed = result["failed"] if result is not None else None
            expected = corrupt == ""
            failed_ok = True
            if corrupt == "":
                failed_ok = failed == 0
            elif corrupt == "repeat_count":
                # One of the six operations of every round fails.
                failed_ok = result is not None and failed == result["attempted"] // 6
            verdict = "ok" if (reported == expected and (code == 0) == expected
                               and failed_ok) else "WRONG"
            ok = ok and verdict == "ok"
            log(f"self-test {workload:14s} corrupt={corrupt or '-':14s} "
                f"correct={reported} failed={failed} exit={code}: {verdict}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    binaries = build()
    if binaries is None:
        return 1
    if args.self_test:
        return self_test(binaries)
    if args.workload is None:
        ap.error("--workload is required")
    worst = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code, result = run_once(binaries, workload, args.seed, args.seconds, args.trace)
        if result is not None:
            print(json.dumps(result), flush=True)
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())

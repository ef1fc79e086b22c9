#!/usr/bin/env python3
"""moasguard end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the harness (perfbench/CMakeLists.txt)
into .bench_build, then runs cold passes of one workload -- each pass is a
fresh moas_perfbench process, because every timed section must pay the cold
start a user pays -- until --seconds have been spent (at least MIN_PASSES),
and reports the median of each metric over the passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead (traced vs untraced wall time) and the check
that both kinds of pass produce the same output fingerprint.

Human-readable lines go to stdout first; the last line is the JSON result.
Any failed output gate, fingerprint mismatch or crash exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "moas_perfbench"
WORKLOADS = ("paper_sweep", "internet_multiprefix", "stream_paper_trace")
MIN_PASSES = 3
PASS_TIMEOUT_S = 170
JOBS = "2"  # at most two worker threads; the other cores stay with the host
DEFAULT_SEED = 1
# Output fingerprints at DEFAULT_SEED. A change here is a change of the
# program's results and must be explained, never silently re-pinned.
PINNED = {
    "paper_sweep": "586dc4a94c02add3",
    "internet_multiprefix": "e6c17d2f9a7e06fc",
    "stream_paper_trace": "c2fdc4e79b1dbb84",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no library sources under {ROOT / 'src'}; nothing to build")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "moas_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(step))
            return False
    return True


def run_pass(workload, seed, traced, index):
    command = [str(HARNESS), "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0"]
    if traced:
        spans = BUILD / "spans" / f"{workload}-seed{seed}-pass{index}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        command += ["--spans-out", str(spans)]
    env = dict(os.environ, MOAS_JOBS=JOBS)
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=PASS_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: pass {index} of {workload} failed (exit {done.returncode})")
        return None
    return json.loads(lines[-1])


def describe(name, value, unit, passes):
    spread = ""
    if len(passes) > 1:
        spread = f" [min {min(passes):.6g}, max {max(passes):.6g}]"
    return f"{name} = {value:.6g} {unit} (median of {len(passes)} passes){spread}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit an unsigned 64-bit integer")

    if not build():
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Passes: untraced only, or untraced/traced pairs. Each pass is timed
    # whole so the loop can stop once --seconds are spent.
    start = time.monotonic()
    plain, traced = [], []
    while True:
        for is_traced in ((False, True) if args.trace else (False,)):
            result = run_pass(args.workload, args.seed, is_traced, len(plain) + len(traced))
            if result is None:
                return 1
            (traced if is_traced else plain).append(result)
        enough = len(plain) >= MIN_PASSES if not args.trace else len(traced) >= 2
        if enough and time.monotonic() - start >= args.seconds:
            break

    passes = plain + traced
    correct = all(p["ok"] for p in passes)
    fingerprints = {p["fingerprint"] for p in passes}
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced"
          f" + {len(traced)} traced passes, fingerprint(s) {sorted(fingerprints)}")
    if len(fingerprints) != 1:
        print("FAIL: passes disagree on the output fingerprint"
              + (" (traced vs untraced)" if traced else ""))
        correct = False
    pinned = PINNED[args.workload]
    if args.seed == DEFAULT_SEED and fingerprints != {pinned}:
        print(f"FAIL: fingerprint differs from the one pinned for seed {DEFAULT_SEED}: {pinned}")
        correct = False
    host = passes[0]["host"]
    print("host: jobs {jobs}, hardware_concurrency {hardware_concurrency}, build {build_type},"
          " compiler {compiler}, git {git_describe}".format(**host)
          + ", steal ticks per pass " + str([p["host"]["steal_ticks"] for p in passes]))

    source = traced if args.trace else plain
    metrics, missing = {}, []
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        values = [p["values"][name] for p in source if name in p["values"]]
        if name == "trace.wall_overhead_share":
            plain_wall = statistics.median(p["values"]["wall_s"] for p in plain)
            traced_wall = statistics.median(p["values"]["wall_s"] for p in traced)
            values = [traced_wall / plain_wall - 1.0]
            print(f"tracing overhead: traced wall {traced_wall:.6g} s vs untraced"
                  f" {plain_wall:.6g} s")
        if not values:
            missing.append(name)
            metrics[name] = {"value": 0.0, "unit": unit}
            continue
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(describe(name, value, unit, values))
    if missing:
        print("not exercised by this workload (reported as 0): " + ", ".join(missing))

    attempted = sum(p["attempted"] for p in source)
    failed = sum(p["failed"] for p in source)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

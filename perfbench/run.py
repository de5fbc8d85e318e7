#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `perfbench` from source twice
(plain, and with the `trace` feature) under `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset, then:

* `--trace 0` runs the plain build and prints the end-to-end metrics;
* `--trace 1` runs the plain build in `layers` mode (counter deltas, the
  job stream's breakdown, layer probes; benchmark-side spans go to
  `.bench_out/`) for 60% of the seconds, then the traced build in `trace`
  mode for the rest, and prints the per-layer metrics of both. The
  traced build divides its cell geomean by the plain one's to give
  `trace.overhead_ratio`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_small", "traffic")
# Each benchmark process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(trace):
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    target = os.path.join(base, "perfbench-trace" if trace else "perfbench-plain")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ]
    if trace:
        cmd += ["--features", "trace"]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr).returncode
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if code != 0:
        fail(f"build failed ({' '.join(cmd)})")
    return os.path.join(target, "release", "perfbench")


def run(binary, args, mode, seconds, extra=()):
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", f"{seconds:.3f}", "--mode", mode,
        "--out-dir", os.path.join(ROOT, ".bench_out"), *extra,
    ]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{mode} run exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{mode} run failed with code {r.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1]), lines
    except json.JSONDecodeError:
        fail(f"{mode} run printed no result line")


def record_field(lines, key):
    for line in lines:
        if line.startswith("record "):
            return json.loads(line[len("record "):])[key]
    fail("no record line")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")

    plain = build(trace=False)
    traced = build(trace=True)
    if args.trace == 0:
        result, _ = run(plain, args, "e2e", args.seconds)
    else:
        layers, lines = run(plain, args, "layers", 0.6 * args.seconds)
        reference = record_field(lines, "cell_geomean_ns")
        trace, _ = run(traced, args, "trace", 0.4 * args.seconds, ("--reference-ns", repr(reference)))
        result = {
            "correct": layers["correct"] and trace["correct"],
            "attempted": layers["attempted"] + trace["attempted"],
            "failed": layers["failed"] + trace["failed"],
            "metrics": {**layers["metrics"], **trace["metrics"]},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

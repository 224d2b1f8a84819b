#!/usr/bin/env python3
"""End-to-end benchmark of egtsim, split by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mixed-serial --seed 1234 \
        --seconds 45 --trace 0

The first call builds the library with the repository's own CMake file and
then the benchmark program (perfbench/op.cpp), both under .bench_build/.
Each operation is one whole simulation in a fresh process of that program:
build the engine, run every generation, compute the final cooperation
report. One warm-up operation runs first; then operations repeat until
--seconds have passed. The last line of stdout is one JSON object with the
medians.

--trace 0 prints the end-to-end metrics of untraced operations. --trace 1
alternates untraced and traced operations (and, on the rank workload,
unpinned ones) and prints the per-layer metrics of the traced ones, plus
obs.trace_overhead (traced over untraced wall time) and
par.unpinned_loop_s. Metric names and units come from BENCHMARK.json.

Every operation is checked; a failed one (non-zero exit, missed deadline,
or a result that differs from its reference) counts against the attempted
ones. See perfbench/README.md for the workloads and the checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
BUILD_TYPE = "Release"
REFERENCES = BENCH_DIR / "references.json"

# --seed picks the workload's SimConfig::seed. The default seed and the
# held-out seed (tune on the first, confirm a gain on the second) are used
# as given; every other seed is folded onto the pool 0 .. SEED_POOL-1, so
# each run has a recorded reference to check against.
DEFAULT_SEED = 1234
HELD_OUT_SEED = 99991
SEED_POOL = 10

# Rank count of each workload (the configs themselves live in op.cpp).
WORKLOADS = {"mixed-serial": 0, "pure-ft4": 4}

# A hung operation is killed and counted as failed after this many seconds
# (the slowest full-size operation takes about 3 s).
OP_DEADLINE_S = 30.0

# Fields of an operation that must match its references exactly.
FIXED_KEYS = ("table_hash", "pairs_evaluated", "adoptions", "mutations")
SERIAL_KEYS = FIXED_KEYS + ("fitness_hash",)
RECORD_KEYS = SERIAL_KEYS + (
    "ssets", "generations", "coop", "setup_s", "loop_s",
    "report_s", "wall_s", "peak_rss_mb", "host")


class BenchError(Exception):
    pass


def config_seed(seed):
    """The SimConfig::seed that --seed selects."""
    return seed if seed in (DEFAULT_SEED, HELD_OUT_SEED) else seed % SEED_POOL


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def build():
    """Build the library and perfbench_op; return the program's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no egtsim sources to build")
    jobs = str(min(4, os.cpu_count() or 1))
    lib_dir = BUILD_DIR / "egt"
    op_dir = BUILD_DIR / "perfbench"
    steps = []
    if not (lib_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(lib_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                      "-DEGT_BUILD_TESTS=OFF", "-DEGT_BUILD_BENCH=OFF",
                      "-DEGT_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", str(lib_dir), "-j", jobs,
                  "--target", "egt_analysis", "egt_ft"])
    if not (op_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(op_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                      f"-DEGT_SOURCE_DIR={ROOT}",
                      f"-DEGT_BUILD_DIR={lib_dir}"])
    steps.append(["cmake", "--build", str(op_dir), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            tail = (proc.stdout + proc.stderr)[-4000:]
            raise BenchError(f"build step failed: {' '.join(cmd)}\n{tail}")
    return op_dir / "perfbench_op"


def run_op(program, workload, seed, size, mode):
    """One operation. Returns (record, None) or (None, reason)."""
    cmd = [str(program), "--workload", workload, "--seed", str(seed),
           "--size", size, "--mode", mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=OP_DEADLINE_S)
    except subprocess.TimeoutExpired:
        return None, f"missed the {OP_DEADLINE_S:.0f} s deadline"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "unparseable output"
    missing = [k for k in RECORD_KEYS if k not in rec]
    if missing or (mode == "traced" and "layers" not in rec):
        return None, f"output lacks {missing or ['layers']}"
    return rec, None


def load_references(size, workload, seed):
    """The recorded reference of this (size, workload, config seed)."""
    refs = json.loads(REFERENCES.read_text())["references"]
    ref = refs.get(size, {}).get(workload, {}).get(str(seed))
    if ref is None:
        raise BenchError(f"no reference recorded for {workload} seed {seed} "
                         f"at size {size} in {REFERENCES}")
    return ref


def check(rec, fixed, serial, first):
    """Reasons `rec` is wrong (empty when it passes).

    fixed  -- recorded reference of this workload and seed
    serial -- the serial core::Engine's result on the same config (rank
              workloads), or None
    first  -- the run's first passing operation (repeatability)
    """
    def mismatches(name, ref, keys):
        return [f"{k} {rec[k]} != {ref[k]} of the {name}"
                for k in keys if rec[k] != ref[k]]

    bad = mismatches("recorded reference", fixed, FIXED_KEYS)
    for name, ref in (("serial engine", serial), ("first operation", first)):
        if ref is not None:
            bad += mismatches(name, ref, SERIAL_KEYS)
    # Work accounting: every pair of the initial evaluation, then both the
    # row and the column of each changed SSet.
    s = rec["ssets"]
    want = s * (s - 1) + 2 * (s - 1) * (rec["adoptions"] + rec["mutations"])
    if rec["pairs_evaluated"] != want:
        bad.append(f"pairs_evaluated {rec['pairs_evaluated']} != {want}")
    if not 0.0 <= rec["coop"] <= 1.0:
        bad.append(f"cooperation rate {rec['coop']} outside [0, 1]")
    for k in ("setup_s", "loop_s", "report_s", "wall_s"):
        if not rec[k] > 0.0:
            bad.append(f"{k} is {rec[k]}")
    return bad


def end_to_end_values(rec):
    return {"wall_s": rec["wall_s"], "setup_s": rec["setup_s"],
            "gens_per_s": rec["generations"] / rec["loop_s"],
            "report_s": rec["report_s"], "peak_rss_mb": rec["peak_rss_mb"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(samples, units):
    """Median of each metric; logs n and quartiles to stderr."""
    metrics = {}
    for name, unit in units.items():
        values = [s[name] for s in samples if name in s]
        if not values:
            values = [0.0]
        q1, _, q3 = quartiles(values)
        med = statistics.median(values)
        log(f"  {name:38s} median {med:.6g} {unit}  "
            f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
        metrics[name] = {"value": med, "unit": unit}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small SSets/generations (self-test)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    seed = config_seed(args.seed)
    try:
        fixed = load_references(args.size, args.workload, seed)
        end_to_end_units, per_layer_units = metric_units()
        program = build()
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1

    def op(mode):
        return run_op(program, args.workload, seed, args.size, mode)

    serial, serial_error = None, None
    if WORKLOADS[args.workload] > 0:
        serial, serial_error = op("serial-ref")

    attempted = failed = 0
    first = None

    def attempt(mode):
        """One checked operation; its record, or None when it failed."""
        nonlocal attempted, failed, first
        attempted += 1
        rec, reason = op(mode)
        if rec is not None:
            bad = check(rec, fixed, serial, first)
            if serial_error is not None:
                bad.append(f"no serial reference ({serial_error})")
            reason = "; ".join(bad) or None
        if reason is not None:
            failed += 1
            log(f"perfbench: {args.workload} seed {seed} {mode} "
                f"operation failed: {reason}")
            return None
        first = first or rec
        return rec

    records = {"run": [], "traced": [], "unpinned": []}
    modes = ["run"]
    if args.trace == 1:
        modes.append("traced")
        if WORKLOADS[args.workload] > 0:
            modes.append("unpinned")
    attempt("run")  # warm-up (page cache, CPU clock): checked, not summarized
    start = time.monotonic()
    while True:
        for mode in modes:
            rec = attempt(mode)
            if rec is not None:
                records[mode].append(rec)
        modes = modes[1:] + modes[:1]  # rotate which mode runs first
        if time.monotonic() - start >= args.seconds:
            break

    log(f"perfbench: {args.workload} seed {args.seed} (config seed {seed}) "
        f"size {args.size}: {attempted - failed}/{attempted} operations "
        f"passed against the recorded reference"
        + (" and the serial engine" if serial else ""))
    if records["run"]:  # the host of the untraced, timed operations
        print("host: " + json.dumps(records["run"][0]["host"],
                                    sort_keys=True))
    if args.trace == 0:
        samples = [end_to_end_values(r) for r in records["run"]]
        metrics = summarize(samples, end_to_end_units)
    else:
        samples = [r["layers"] for r in records["traced"]]
        overhead = 0.0
        if records["run"] and records["traced"]:
            overhead = (statistics.median(r["wall_s"] for r in records["traced"])
                        / statistics.median(r["wall_s"] for r in records["run"]))
        unpinned = 0.0
        if records["unpinned"]:
            unpinned = statistics.median(r["loop_s"]
                                         for r in records["unpinned"])
        for s in samples:
            s["obs.trace_overhead"] = overhead
            s["par.unpinned_loop_s"] = unpinned
        metrics = summarize(samples, per_layer_units)
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

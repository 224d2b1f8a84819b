#!/usr/bin/env python3
"""Record perfbench/references.json: the final table hash,
engine.pairs_evaluated, engine.adoptions and engine.mutations of every
workload for every config seed run.py can select (run.config_seed), from
the serial core::Engine. The tiny size, used only by the self-test, gets
the default and the held-out seed.

Run from the root of a source checkout:

    python3 perfbench/record_references.py

run.py fails an operation whose result differs from the recorded one.
Re-record only for a change that is meant to alter trajectories, and say
so in that change.
"""

import json
import sys

import run

TINY_SEEDS = [run.DEFAULT_SEED, run.HELD_OUT_SEED]
FULL_SEEDS = list(range(run.SEED_POOL)) + TINY_SEEDS


def main():
    program = run.build()
    refs = {}
    for size, seeds in (("full", FULL_SEEDS), ("tiny", TINY_SEEDS)):
        for workload in run.WORKLOADS:
            for seed in seeds:
                rec, reason = run.run_op(program, workload, seed, size,
                                         "serial-ref")
                if rec is None:
                    sys.exit(f"{workload} seed {seed}: {reason}")
                refs.setdefault(size, {}).setdefault(workload, {})[str(seed)] = {
                    k: rec[k] for k in run.FIXED_KEYS}
            print(f"{size} {workload}: {len(seeds)} seeds", file=sys.stderr)
    doc = {"schema": "perfbench.references/v1",
           "default_seed": run.DEFAULT_SEED, "held_out_seed": run.HELD_OUT_SEED,
           "recorded_with": {k: v for k, v in rec["host"].items()
                             if k != "pinned_cpu"}, "references": refs}
    run.REFERENCES.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

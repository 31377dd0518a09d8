"""Check that the modeled costs depend only on shapes where they should.

Usage: python3 perfbench/determinism.py [WORKLOAD ...]   (default: all)

For each workload this runs one untraced and one traced repetition at seed 0
and again at seed 1. ``run.measure`` already fails a run whose repetitions,
traced or not, disagree on the ``sim_*`` totals. This script adds the check
across seeds:

- the ``hwmodel.*`` counts, taken from every unadjusted cost report, must be
  identical;
- the ``sim_*`` totals must be identical, unless the workload prunes. Pruned
  rows report costs with the skipped MACs removed, and which MACs are
  skipped depends on the seeded weights and input.

Exits 1 if a check fails or any op fails.
"""

from __future__ import annotations

import sys

from run import WORKLOADS, measure


def main(argv: list[str]) -> int:
    ok = True
    for workload in argv or sorted(WORKLOADS):
        seen = []
        for seed in (0, 1):
            result = measure(workload, seed, seconds=0, trace=True)
            for problem in result["problems"]:
                print(f"{workload} seed {seed}: FAILED {problem}")
            ok &= result["correct"]
            s = result["summary"]
            seen.append(s)
            print(f"{workload} seed {seed}: sim {s['sims']} hwmodel {s['hwmodel']}")
        prunes = result["metrics"]["feature_pruning.skipped_macs"]["value"] > 0
        hw_same = seen[0]["hwmodel"] == seen[1]["hwmodel"]
        sim_same = seen[0]["sims"] == seen[1]["sims"]
        ok &= hw_same and (sim_same or prunes)
        note = ("" if sim_same else
                " (expected: pruning)" if prunes else " (FAILED: no pruning)")
        print(f"{workload}: hwmodel {'identical' if hw_same else 'DIFFERENT'}, "
              f"sim {'identical' if sim_same else 'different'} "
              f"across seeds 0 and 1{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

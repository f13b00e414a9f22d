#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (well under a minute):

    python3 bench/selftest.py

1. A timed and a traced run of every workload pass, and each reports exactly
   the metrics that BENCHMARK.json names for it, each with its unit.
2. A deliberately wrong descriptor (alpha perturbed by 0.05 rad) makes cases
   fail on every workload, so ``failed`` and the failed ratio are above 0.

Exits 1 when an expectation fails.
"""

from __future__ import annotations

import json
import sys

import run

PERTURBATION = 0.05  # radians added to alpha
#: Cases each tiny timed run makes at least (a pair or double run also ends on a whole grid pass).
FIXED_CASES = {"pair": 1, "double": 1, "cardinality": 100}
#: Positional index of the AlphaConfig argument of each perturbed library function.
PERTURBED = {
    "pair": ("pair_alpha_set", 2),
    "double": ("collinear_triple_alpha_set", 1),
    "cardinality": ("atheta_cardinality", 3),
}


def _wrong_alpha(fn, pos):
    from qangle.alphasets import AlphaConfig

    def wrong(*args):
        args = list(args)
        args[pos] = AlphaConfig.from_alpha(float(args[pos].alpha) + PERTURBATION)
        return fn(*args)

    return wrong


def main() -> int:
    error = run.load_library()
    if error:
        print(f"selftest: {error}", file=sys.stderr)
        return 2
    from cases import Sizes
    from qangle import alphasets

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    tiny = Sizes(cloud=20_000, samples=50, max_candidates=20, max_pool=40)
    problems = []
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            kw = {"probe_sizes": tiny} if trace else {"fixed_cases": FIXED_CASES[name]}
            result, report, _ = run.measure(name, 7, 0.5, trace, tiny, **kw)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                problems.append(f"{name} trace={trace}: metrics differ (missing {missing}, extra {extra})")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: failed {result['failed']}: {report['failures'][:2]}")
            counts = f"attempted {result['attempted']}, failed {result['failed']}"
            print(f"{name} trace={trace}: {len(units)} metrics, {counts}")

        attr, pos = PERTURBED[name]
        good = getattr(alphasets, attr)
        setattr(alphasets, attr, _wrong_alpha(good, pos))
        try:
            result, report, _ = run.measure(name, 7, 0.5, 0, tiny, fixed_cases=FIXED_CASES[name])
        finally:
            setattr(alphasets, attr, good)
        failed_ratio = report["printed"]["failed_ratio"]["value"]
        print(f"{name} with alpha perturbed in {attr}: failed_ratio {failed_ratio:.3f}")
        if not (failed_ratio > 0 and result["failed"] > 0 and not result["correct"]):
            problems.append(f"{name}: a perturbed alpha in {attr} went unnoticed")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

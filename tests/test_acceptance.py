"""Acceptance suite: every criterion at its stated tolerance.

Each criterion but 6 is a suite of :data:`qangle.verify.SUITES`, the engine
behind ``qangle verify``, run here at the criterion's seed and the suite's
default draws; a test adds only its gates.  Each test prints one
`[PASS]`/`[FAIL]` line per report (run with ``pytest -s`` to see them on a
green run), with the worst residual over all the checks it gathers.
"""

import time

import numpy as np

from qangle.verify import SUITES, Tally, check_balanced_common_lines, check_bridges, check_count_threshold


def report(label: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {label}" + (f": {detail}" if detail else ""))
    assert ok, f"{label}: {detail}"


def summary(tally: Tally) -> str:
    """The tally's worst residual, followed on failure by its distinct notes."""
    text = f"worst {tally.max_residual:.2e}"
    return text if tally.verdict else text + ": " + "; ".join(dict.fromkeys(tally.notes))


def run_suite(label: str, suite: str, seed: int, gate=lambda counts: True, seconds: float = float("inf")):
    """Report the suite at ``seed`` and its default draws: it passes when its verdict holds, its
    counts pass ``gate`` and it finishes within ``seconds``.  The line gives its counts and notes."""
    start = time.perf_counter()
    tally = SUITES[suite](seed)
    elapsed = time.perf_counter() - start
    counts = ", ".join(f"{k} {v}" for k, v in sorted(tally.counts.items()))
    notes = "".join(f"; {n}" for n in dict.fromkeys(tally.notes))
    ok = tally.verdict and gate(tally.counts) and elapsed < seconds
    report(label, ok, f"{counts}, worst {tally.max_residual:.2e}{notes}, {elapsed:.1f}s")


def test_criterion_1_pair_alpha_set_equivalence():
    # Oracle members within 1e-5 of the descriptor; 500 descriptor samples
    # reproduce alpha to both generators within 1e-9.
    run_suite(
        "criterion 1 (pair alpha-sets, dims 3 and 4)", "pair", 1000,
        lambda n: n["members_dim3"] > 500 and n["members_dim4"] > 500, seconds=120,
    )


def test_criterion_2_triple_and_double_alpha_sets():
    # Double-alpha-sets in dim 4 are single circles, and the exceptional dim-3
    # triples' second components are exact to 1e-12.
    run_suite(
        "criterion 2 (triple and double alpha-sets, exceptional dim-3 triples)", "triple", 2000,
        lambda n: n["members"] > 500 and n["survivors"] > 200,
    )


def test_criterion_3_cardinality_trichotomy():
    run_suite("criterion 3 (cardinality trichotomy)", "cardinality", 3000, lambda n: n["agreements"] == 1000)


def test_criterion_4_witness_construction():
    run_suite("criterion 4 (witness quadruples)", "witness", 4000, lambda n: n["witnesses"] == 20)


def test_criterion_5_classification_consistency():
    # The dim-3 boundary sweep is bounded at 1e-6.
    run_suite("criterion 5 (classifier vs empirical, dim-3 boundary)", "classification", 5000, lambda n: n["agreements"] == 100)


def test_criterion_6_section5_machinery():
    rng = np.random.default_rng(6000)

    # Threshold of the intersection count at overlap 1/6.
    tally = Tally()
    check_count_threshold(tally, rng, 3)
    report("criterion 6 (count threshold at 1/6)", tally.verdict, summary(tally))

    # Bridge post-checks over 100 random basis pairs.
    tally = Tally()
    check_bridges(tally, rng, 3, 100)
    report("criterion 6 (bridge over 100 pairs)", tally.verdict, "; ".join(dict.fromkeys(tally.notes)))

    # Balanced circles: explicit common lines recovered to 1e-10.
    tally = Tally()
    check_balanced_common_lines(tally, rng, 3, 50)
    report("criterion 6 (explicit balanced common lines)", tally.verdict, summary(tally))


def test_criterion_7_wigner_round_trip():
    run_suite("criterion 7 (reconstruction round-trip)", "wigner-round-trip", 7000, seconds=30)


def test_criterion_8_exotic_map_behavior():
    run_suite("criterion 8 (exotic quarter-turn map)", "exotic", 8000)

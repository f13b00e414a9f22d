"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with ``pytest -s`` to see
them on a green run).  Budgets follow the stated runtime caps.  The numeric
checks come from :mod:`qangle.verify`, the engine behind ``qangle verify``;
a line reports the worst residual over all the checks it gathers.
"""

import math
import time

import numpy as np

import qangle as qa
from qangle.alphasets import EXCEPTIONAL_TRIPLES
from qangle.alphasets import HIGHLY_SYMMETRIC, NOT_HIGHLY_SYMMETRIC
from qangle.verify import (
    Tally,
    check_alpha_set,
    check_balanced_common_lines,
    check_bridges,
    check_circle_classification,
    check_count_threshold,
    check_double_alpha_set,
    distinct_unimodular_triple,
    draw_alpha,
    random_cd,
    standard_family,
    sweep_verdict,
)

from conftest import random_line, random_orthonormal_pair


def report(label: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {label}" + (f": {detail}" if detail else ""))
    assert ok, f"{label}: {detail}"


def summary(tally: Tally) -> str:
    """The tally's worst residual, followed on failure by its distinct notes."""
    text = f"worst {tally.max_residual:.2e}"
    return text if tally.verdict else text + ": " + "; ".join(dict.fromkeys(tally.notes))


def test_criterion_1_pair_alpha_set_equivalence():
    # 50 draws per dim; oracle members within 1e-5 of the descriptor; 500
    # descriptor samples reproduce alpha to both generators within 1e-9.
    rng = np.random.default_rng(1000)
    clouds = {3: qa.sample_lines(3, 200_000, 1001), 4: qa.sample_lines(4, 1_000_000, 1002)}
    for dim in (3, 4):
        start = time.perf_counter()
        tally = Tally()
        total_found = 0
        for _ in range(50):
            cfg = draw_alpha(rng)
            v1, v2 = random_line(rng, dim), random_line(rng, dim)
            if qa.lines_equal(v1, v2, 1e-3):
                continue
            descr = qa.pair_alpha_set(v1, v2, cfg)
            total_found += len(check_alpha_set(
                tally, [v1, v2], cfg, descr, rng, 500, clouds[dim], 1e-2, 400
            ))
        elapsed = time.perf_counter() - start
        report(
            f"criterion 1 (dim {dim})",
            tally.verdict and total_found > 500 and elapsed < 120,
            f"{summary(tally)}, members {total_found}, {elapsed:.1f}s",
        )


def _draw_triple(rng):
    """Alpha and a dim-4 collinear triple with c > a + 0.05, or None when c misses it."""
    cfg = draw_alpha(rng)
    d = rng.uniform(0.15, 1 / math.sqrt(2) - 1e-3)
    c = math.sqrt(1 - d * d)
    if c <= cfg.a + 0.05:
        return None
    e1, e2 = random_orthonormal_pair(rng, 4)
    return cfg, qa.TripleCanonicalForm(e1, e2, c, d, distinct_unimodular_triple(rng, 5e-2))


def test_criterion_2_triple_and_double_alpha_sets():
    rng = np.random.default_rng(2000)
    cloud = qa.sample_lines(4, 1_000_000, 2001)

    # Collinear-triple alpha-sets in dim 4.
    tally = Tally()
    total_found = 0
    for _ in range(50):
        drawn = _draw_triple(rng)
        if drawn is None:
            continue
        cfg, form = drawn
        descr = qa.collinear_triple_alpha_set(form, cfg, 4)
        total_found += len(check_alpha_set(
            tally, list(form.synthesize()), cfg, descr, rng, 500, cloud, 3e-2, 400
        ))
    report(
        "criterion 2 (triple alpha-sets, dim 4)",
        tally.verdict and total_found > 500,
        f"{summary(tally)}, members {total_found}",
    )

    # Double-alpha-sets in dim 4: single circle, two-sided.
    tally = Tally()
    total_surv = 0
    for _ in range(50):
        drawn = _draw_triple(rng)
        if drawn is None:
            continue
        cfg, form = drawn
        first = qa.collinear_triple_alpha_set(form, cfg, 4)
        double = qa.double_alpha_set_classify(form, cfg, 4)
        total_surv += len(check_double_alpha_set(tally, first, double, cfg, rng, 500, cloud, 800))
    report(
        "criterion 2 (double-alpha-sets, dim 4)",
        tally.verdict and total_surv > 200,
        f"{summary(tally)}, survivors {total_surv}",
    )

    # Exceptional dim-3 classifications, coefficients exact to 1e-12.
    eye = np.eye(3, dtype=complex)
    e1, e2 = qa.canonical_line(eye[0]), qa.canonical_line(eye[1])
    a, c, d = EXCEPTIONAL_TRIPLES[0]
    cfg = qa.AlphaConfig.from_alpha(math.acos(a))
    descr = qa.double_alpha_set_classify(
        qa.TripleCanonicalForm(e1, e2, c, d, distinct_unimodular_triple(rng, 5e-2)), cfg, 3
    )
    second = descr.components[1]
    ok1 = (
        isinstance(second, qa.CircleComponent)
        and abs(second.c - math.sqrt(1 / 3)) < 1e-12
        and abs(second.d - math.sqrt(2 / 3)) < 1e-12
    )
    a, c, d = EXCEPTIONAL_TRIPLES[1]
    cfg = qa.AlphaConfig.from_alpha(math.acos(a))
    descr = qa.double_alpha_set_classify(
        qa.TripleCanonicalForm(e1, e2, c, d, distinct_unimodular_triple(rng, 5e-2)), cfg, 3
    )
    second = descr.components[1]
    ok2 = isinstance(second, qa.PointComponent) and float(
        qa.quantum_angle(second.line, qa.canonical_line(eye[2]))
    ) < 1e-12
    report("criterion 2 (exceptional dim-3 triples)", ok1 and ok2)


def test_criterion_3_cardinality_trichotomy():
    rng = np.random.default_rng(3000)
    disagreements = 0
    checked = 0
    while checked < 1000:
        cfg = draw_alpha(rng)
        a = cfg.a
        d = rng.uniform(0.15, 1 / math.sqrt(2))
        c = math.sqrt(1 - d * d)
        if c <= a + 0.02:
            continue
        fam = standard_family(cfg, c, d)
        theta = rng.uniform(-fam.theta0, fam.theta0)
        c1 = rng.standard_normal() + 1j * rng.standard_normal()
        c2 = rng.standard_normal() + 1j * rng.standard_normal()
        c3 = rng.uniform(0.2, 0.9)
        s = math.sqrt((1 - c3 * c3) / (abs(c1) ** 2 + abs(c2) ** 2))
        c1, c2 = c1 * s, c2 * s
        card = qa.atheta_cardinality(fam, theta, (c1, c2, c3), cfg)
        if card.margin < 1e-6:
            continue
        z = c1 * (a / c) * math.cos(theta) + c2 * (a / d) * math.sin(theta)
        if abs(z) < 1e-6:
            continue
        total = qa.root_count_on_disk(z, c3 * fam.rho(theta), a, 2048, 48)
        if card.tag != sweep_verdict(total):
            disagreements += 1
        checked += 1
    report(
        "criterion 3 (cardinality trichotomy)",
        disagreements == 0,
        f"{checked} draws, {disagreements} disagreements",
    )


def test_criterion_4_witness_construction():
    rng = np.random.default_rng(4000)
    eye = np.eye(3, dtype=complex)
    e1, e2 = qa.canonical_line(eye[0]), qa.canonical_line(eye[1])
    done = 0
    attempts = 0
    while done < 20 and attempts < 400:
        attempts += 1
        a = rng.uniform(0.25, 0.69)
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        bound = min(a, math.sqrt((1 - 2 * a * a) / (1 - a * a)))
        d = rng.uniform(0.2, 0.9) * bound
        c = math.sqrt(1 - d * d)
        if not (c / math.sqrt(1 + c * c) >= a > d):
            continue
        u1, u2, u3, w = qa.counterexample_witness(cfg, c, d)
        alpha = float(cfg.alpha)
        form = qa.TripleCanonicalForm(e1, e2, c, d, (1.0 + 0j, 1j, -1j))
        double = qa.double_alpha_set_classify(form, cfg, 3)
        first = qa.collinear_triple_alpha_set(form, cfg, 3)
        for u in (u1, u2, u3):
            assert double.distance(u) < 1e-9
            assert abs(float(qa.quantum_angle(w, u)) - alpha) < 1e-9
        assert first.distance(w) > 1e-6
        done += 1
    report("criterion 4 (witness quadruples)", done == 20, f"{done}/20 constructions")


def test_criterion_5_classification_consistency():
    rng = np.random.default_rng(5000)
    clouds = {3: qa.sample_lines(3, 30_000, 5001), 4: qa.sample_lines(4, 60_000, 5002)}
    tally = Tally()
    agreements = 0
    draws = 100
    for k in range(draws):
        dim = 3 if k % 2 == 0 else 4
        cfg = draw_alpha(rng)
        c, d = random_cd(rng, cfg.a, 1e-4)
        e1, e2 = random_orthonormal_pair(rng, dim)
        agreements += check_circle_classification(
            tally, qa.CircleComponent(e1, e2, c, d), cfg, 12, 5100 + k, clouds[dim]
        )
    report(
        "criterion 5 (classifier vs empirical)",
        agreements == draws,
        f"{agreements}/{draws} agreements",
    )

    # Boundary sweep: locate the verdict transition over d by bisection.
    eye = np.eye(3, dtype=complex)
    e1, e2 = qa.canonical_line(eye[0]), qa.canonical_line(eye[1])

    def verdict_tag(cfg, d):
        c = math.sqrt(1 - d * d)
        return qa.classify_circle(qa.CircleComponent(e1, e2, c, d), cfg).tag

    worst = 0.0
    for alpha, expected_boundary in (
        # a < 0.618: the tie d = a is the active boundary.
        (1.0, math.cos(1.0)),
        # a > 0.618: the second-component inequality binds instead.
        (0.82, math.sqrt((1 - 2 * math.cos(0.82) ** 2) / (1 - math.cos(0.82) ** 2))),
    ):
        cfg = qa.AlphaConfig.from_alpha(alpha)
        lo, hi = 0.05, 1 / math.sqrt(2) - 1e-6
        assert verdict_tag(cfg, lo) == NOT_HIGHLY_SYMMETRIC
        assert verdict_tag(cfg, hi) == HIGHLY_SYMMETRIC
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if verdict_tag(cfg, mid) == NOT_HIGHLY_SYMMETRIC:
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(0.5 * (lo + hi) - expected_boundary))
    report(
        "criterion 5 (dim-3 boundary sweep)", worst < 1e-6, f"boundary error {worst:.2e}"
    )


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
    start = time.perf_counter()
    rng = np.random.default_rng(7000)
    ok = 0
    n = 0
    for dim in (2, 3, 4, 5):
        for seed in range(100):
            anti = bool(seed % 2)
            w = qa.random_wigner(dim, 7000 + seed, anti)
            images = [qa.apply_symmetry(w, p) for p in qa.probe_set(dim)]
            fitted = qa.fit_from_probes(dim, images)
            ok += int(qa.same_induced_map(w, fitted))
            n += 1

    # Perturbed probes must be rejected.
    from qangle.projspace import orthonormal_complement

    rejected = True
    for dim in (2, 3, 4, 5):
        w = qa.random_wigner(dim, 7777 + dim, False)
        images = [qa.apply_symmetry(w, p) for p in qa.probe_set(dim)]
        idx = int(rng.integers(0, len(images)))
        victim = images[idx]
        comp = orthonormal_complement(victim.amplitudes[None, :])
        images[idx] = qa.canonical_line(
            math.cos(0.1) * victim.amplitudes + math.sin(0.1) * comp[0]
        )
        try:
            qa.fit_from_probes(dim, images)
            rejected = False
        except qa.NotAWignerMapError:
            pass
    elapsed = time.perf_counter() - start
    report(
        "criterion 7 (reconstruction round-trip)",
        ok == n and rejected and elapsed < 30,
        f"{ok}/{n} recovered, perturbed rejected={rejected}, {elapsed:.1f}s",
    )


def test_criterion_8_exotic_map_behavior():
    psi = qa.random_wigner(2, 8000, False)
    selector = lambda v: abs(v.amplitudes[0]) ** 2 > 0.5  # noqa: E731
    phi = qa.exotic_pi4_map(psi, selector)

    cfg4 = qa.AlphaConfig.from_alpha(np.pi / 4)
    rep4 = qa.preservation_report(phi, cfg4, 2, 1000, 8001, 1e-10)
    ok_preserved = rep4.forward_violations == 0 and rep4.backward_violations == 0

    cfg3 = qa.AlphaConfig.from_alpha(np.pi / 3)
    rep3 = qa.preservation_report(phi, cfg3, 2, 500, 8002, 1e-9)
    ok_broken = rep3.forward_violations > 0 and rep3.max_deviation > 1e-3
    report(
        "criterion 8 (exotic quarter-turn map)",
        ok_preserved and ok_broken,
        f"pi/4 violations {rep4.forward_violations + rep4.backward_violations}, "
        f"pi/3 deviation {rep3.max_deviation:.3f}",
    )

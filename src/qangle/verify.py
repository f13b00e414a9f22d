"""Verification engine: each numeric check of the paper's claims, written once.

The ``qangle verify`` suites and the acceptance tests run the same checks;
each caller picks its own seeds, draw counts, sample sizes and clouds.  A
check records residuals and failures on the caller's :class:`Tally`, draws
only from the caller's generator, and returns the count the caller reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import alphasets, oracle, projspace, symmetric_sets, wigner
from .alphasets import AlphaConfig, AthetaFamily
from .errors import QAngleError
from .oracle import OracleReport, SampleCloud, Tally, worst_angle_residual
from .projspace import Line, canonical_line, random_orthonormal_pair

SOUNDNESS_TOL = 1e-9  # |angle - alpha| of a descriptor sample, to every generator
COMPLETENESS_TOL = 1e-5  # distance of a refined oracle member to the descriptor
_FIRST_SAMPLES = 40  # alpha-set samples standing in for a double-alpha-set's generators
_SECTION5_C0 = math.sqrt(7.0 / 12.0)  # circle weight of the Section 5 count and bridge


def draw_alpha(rng: np.random.Generator) -> AlphaConfig:
    """An angle alpha drawn uniformly from [pi/4 + 0.05, pi/2 - 0.05]."""
    return AlphaConfig.from_alpha(rng.uniform(np.pi / 4 + 0.05, np.pi / 2 - 0.05))


def random_cd(rng: np.random.Generator, a: float, margin: float = 1e-3) -> tuple[float, float]:
    """Random circle weights c >= d away from the classification boundaries."""
    for _ in range(256):
        d = rng.uniform(0.15, 1 / math.sqrt(2) - 1e-3)
        c = math.sqrt(1.0 - d * d)
        if c <= a + 0.05:
            continue
        if abs(a - d) < margin or abs(c / math.sqrt(1 + c * c) - a) < margin:
            continue
        return c, d
    raise QAngleError("failed to draw circle weights away from the boundaries")


def distinct_unimodular_triple(rng: np.random.Generator, min_gap: float) -> tuple:
    """Three unimodular numbers, pairwise further apart than ``min_gap``."""
    while True:
        lams = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        if min(abs(lams[i] - lams[j]) for i in range(3) for j in range(i + 1, 3)) > min_gap:
            return tuple(lams)


def rotated_basis(e1: Line, e2: Line, afr: float, mu: complex) -> tuple[Line, Line]:
    """The basis [afr e1 + mu bfr e2], [bfr e1 - mu afr e2] with bfr = sqrt(1 - afr^2)."""
    bfr = math.sqrt(1 - afr * afr)
    f1 = canonical_line(afr * e1.amplitudes + mu * bfr * e2.amplitudes)
    f2 = canonical_line(bfr * e1.amplitudes - mu * afr * e2.amplitudes)
    return f1, f2


def sweep_verdict(total) -> str:
    """Cardinality read off a disk root count: two or more roots mean infinitely many."""
    return "infinite" if (total is math.inf or total >= 2) else "zero"


def standard_family(cfg: AlphaConfig, c: float, d: float) -> AthetaFamily:
    """The A_theta family of the first two standard basis lines of C^4."""
    theta0, _ = alphasets.theta0_and_rho(cfg, c, d)
    eye = np.eye(4, dtype=complex)
    return AthetaFamily(
        canonical_line(eye[0]), canonical_line(eye[1]), c, d, float(cfg.alpha), theta0, 4
    )


def check_alpha_set(
    tally: Tally, generators, cfg: AlphaConfig, descr, rng, n_samples: int,
    cloud: SampleCloud, discovery_tol: float, max_candidates: int,
) -> int:
    """Descriptor samples are at alpha from every generator, and every oracle
    member lies on the descriptor; returns the oracle member count."""
    res = worst_angle_residual(generators, cfg, descr.sample(n_samples, rng))
    tally.bound(res, SOUNDNESS_TOL, "descriptor sample misses a generator angle")
    found = oracle.discover_alpha_set(generators, cfg, cloud, discovery_tol, 1e-7, max_candidates)
    for m in found:
        tally.bound(descr.distance(m), COMPLETENESS_TOL, "oracle member escapes the descriptor")
    return len(found)


def check_double_alpha_set(
    tally: Tally, first, double, cfg: AlphaConfig, rng, n_samples: int,
    cloud: SampleCloud, max_pool: int,
) -> int:
    """The double-alpha-set ``double`` of a triple with alpha-set ``first`` is one
    circle whose samples are at alpha from samples of ``first``, and every
    funnel survivor against those samples lies on it; returns the survivor count."""
    if len(double.components) != 1:
        tally.fail("double-alpha-set must be a single circle in dimension 4")
    f_samples = first.sample(_FIRST_SAMPLES, rng)
    res = worst_angle_residual(f_samples, cfg, double.sample(n_samples, rng))
    tally.bound(res, SOUNDNESS_TOL, "circle sample misses the sampled alpha-set")
    survivors = oracle.funnel_alpha_set(f_samples, cfg, cloud, max_pool=max_pool)
    for s in survivors:
        tally.bound(double.distance(s), COMPLETENESS_TOL, "numeric double-alpha-set member off the circle")
    return len(survivors)


def check_circle_classification(
    tally: Tally, circle, cfg: AlphaConfig, dim: int, n_alpha_samples: int, seed: int,
    cloud: SampleCloud,
) -> int:
    """Compare the circle classifier with the sampled symmetry check; returns 1 on agreement."""
    rep = symmetric_sets.empirical_high_symmetry_check(
        circle, cfg, dim, n_triples=3, n_alpha_samples=n_alpha_samples, seed=seed, cloud=cloud
    )
    tally.worst = max(tally.worst, rep.max_residual)
    if not rep.verdict:
        tally.verdict = False
        tally.notes.extend(rep.notes)
    return int(rep.verdict)


def check_balanced_common_lines(tally: Tally, rng: np.random.Generator, dim: int, draws: int) -> None:
    """Balanced circles (weight 1/sqrt(2)) meet in the lines (e1 +- i mu e2)/sqrt(2)."""
    for _ in range(draws):
        e1, e2 = random_orthonormal_pair(rng, dim)
        afr = rng.uniform(0.05, 0.95)
        mu = np.exp(1j * rng.uniform(0, 2 * np.pi))
        f1, f2 = rotated_basis(e1, e2, afr, mu)
        got = wigner.circle_intersection(e1, e2, f1, f2, 1 / math.sqrt(2))
        want = [
            canonical_line((e1.amplitudes + 1j * mu * e2.amplitudes) / np.sqrt(2)),
            canonical_line((e1.amplitudes - 1j * mu * e2.amplitudes) / np.sqrt(2)),
        ]
        if len(got) != 2:
            tally.fail("balanced circles must always meet twice")
            continue
        for w in want:
            dist = min(float(projspace.quantum_angle(w, g)) for g in got)
            tally.bound(dist, 1e-10, "explicit common line not recovered")


def check_count_threshold(tally: Tally, rng: np.random.Generator, dim: int) -> None:
    """The sqrt(7/12) circles meet twice exactly from overlap 1/6 on; the threshold,
    located by bisection, is recorded as a note."""
    e1, e2 = random_orthonormal_pair(rng, dim)
    mu = np.exp(1j * rng.uniform(0, 2 * np.pi))

    def count(afr: float) -> int:
        f1, f2 = rotated_basis(e1, e2, afr, mu)
        return len(wigner.circle_intersection(e1, e2, f1, f2, _SECTION5_C0))

    lo, hi = 0.05, 0.4
    if not (count(lo) < 2 <= count(hi)):
        tally.fail("counts on either side of the threshold are wrong")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if count(mid) >= 2:
            hi = mid
        else:
            lo = mid
    thr = 0.5 * (lo + hi)
    tally.notes.append(f"threshold={thr:.12g}")
    tally.bound(abs(thr - 1.0 / 6.0), 1e-6, "intersection-count threshold misses 1/6")


def check_bridges(tally: Tally, rng: np.random.Generator, dim: int, draws: int) -> int:
    """The bridge basis g overlaps e1 and f1 by more than 1/6 and meets both circles
    twice; returns the number of bridges built."""
    cfg = AlphaConfig.from_alpha(math.acos(1 / math.sqrt(3)))
    for _ in range(draws):
        e1, e2 = random_orthonormal_pair(rng, dim)
        afr = rng.uniform(0.0, 0.95)
        mu = np.exp(1j * rng.uniform(0, 2 * np.pi))
        f1, f2 = rotated_basis(e1, e2, afr, mu)
        g1, g2 = wigner.bridge_basis(e1, e2, f1, f2, cfg)
        if not (
            abs(np.vdot(g1.amplitudes, e1.amplitudes)) > 1 / 6
            and abs(np.vdot(g1.amplitudes, f1.amplitudes)) > 1 / 6
        ):
            tally.fail("bridge vector overlaps an endpoint basis by at most 1/6")
        n1 = len(wigner.circle_intersection(e1, e2, g1, g2, _SECTION5_C0))
        n2 = len(wigner.circle_intersection(g1, g2, f1, f2, _SECTION5_C0))
        if n1 < 2 or n2 < 2:
            tally.fail("bridge basis fails to connect the two circles")
    return draws


def suite_shape(seed: int, draws: int, dim=None) -> OracleReport:
    """Cutoff angle and radius profile of the pair alpha-set, and its samples' angles."""
    rng = np.random.default_rng(seed)
    dim = dim or 3
    tally = Tally(counts={"draws": draws, "samples": 0})
    for k in range(draws):
        cfg = draw_alpha(rng)
        d = 1 / math.sqrt(2) if k == 0 else rng.uniform(0.2, 1 / math.sqrt(2))  # k = 0: constant radius
        c = math.sqrt(1.0 - d * d)
        theta0, rho = alphasets.theta0_and_rho(cfg, c, d)
        a = cfg.a
        if a > d:
            res = abs((a / c) ** 2 * math.cos(theta0) ** 2 + (a / d) ** 2 * math.sin(theta0) ** 2 - 1.0)
            tally.bound(res, 1e-12, "cutoff equation residual too large")
        elif abs(theta0 - np.pi / 2) > 1e-12:
            tally.fail("cutoff must be pi/2 when a <= d")
        vals = rho(np.linspace(-theta0, theta0, 400))
        if abs(d - 1 / math.sqrt(2)) < 1e-12:
            dev = float(np.max(np.abs(vals - math.sqrt(1 - 2 * a * a))))
            tally.bound(dev, 1e-12, "radius profile not constant at d = 1/sqrt(2)")
        else:
            diffs = np.diff(vals)
            mid = len(diffs) // 2
            if np.any(diffs[:mid] < -1e-12) or np.any(diffs[mid:] > 1e-12):
                tally.fail("radius profile not unimodal")
        e1, e2 = random_orthonormal_pair(rng, dim)
        v1 = canonical_line(c * e1.amplitudes + 1j * d * e2.amplitudes)
        v2 = canonical_line(c * e1.amplitudes - 1j * d * e2.amplitudes)
        pts = alphasets.pair_alpha_set(v1, v2, cfg).sample(30, rng)
        tally.counts["samples"] += len(pts)
        tally.bound(worst_angle_residual([v1, v2], cfg, pts), SOUNDNESS_TOL, "sampled member misses angle alpha")
    return tally.report()


def _random_triple(rng: np.random.Generator, dim: int):
    """Alpha, then a collinear triple in C^dim with weights away from the boundaries."""
    cfg = draw_alpha(rng)
    c, d = random_cd(rng, cfg.a)
    e1, e2 = random_orthonormal_pair(rng, dim)
    return cfg, projspace.TripleCanonicalForm(e1, e2, c, d, distinct_unimodular_triple(rng, 1e-2))


def suite_collin_alpha(seed: int, draws: int, dim=None) -> OracleReport:
    """Collinear-triple alpha-sets against the oracle in dimensions 3 and 4."""
    rng = np.random.default_rng(seed)
    dims = [dim] if dim else [3, 4]
    tally = Tally(counts={"draws": 0, "oracle_members": 0})
    for dim in dims:
        cloud = oracle.sample_lines(dim, 30_000 if dim == 3 else 60_000, seed + dim)
        for _ in range(max(2, draws // len(dims))):
            cfg, form = _random_triple(rng, dim)
            descr = alphasets.collinear_triple_alpha_set(form, cfg, dim)
            tally.counts["oracle_members"] += check_alpha_set(
                tally, list(form.synthesize()), cfg, descr, rng, 40, cloud, 3e-2, 4000
            )
            tally.counts["draws"] += 1
    return tally.report()


def suite_circle4(seed: int, draws: int, dim=None) -> OracleReport:
    """Double-alpha-sets of collinear triples in dimension 4 are single circles."""
    rng = np.random.default_rng(seed)
    dim = 4
    cloud = oracle.sample_lines(dim, 120_000, seed + 11)
    tally = Tally(counts={"draws": 0, "survivors": 0})
    for _ in range(draws):
        cfg, form = _random_triple(rng, dim)
        first = alphasets.collinear_triple_alpha_set(form, cfg, dim)
        double = alphasets.double_alpha_set_classify(form, cfg, dim)
        tally.counts["survivors"] += check_double_alpha_set(tally, first, double, cfg, rng, 30, cloud, 2000)
        tally.counts["draws"] += 1
    return tally.report()


def _snap_parameters(a: float, c: float, d: float) -> tuple[float, float, float]:
    """Snap decimal-truncated CLI parameters onto the exact exceptional triples,
    and renormalize (c, d) when they miss c^2 + d^2 = 1 by rounding only."""
    for ea, ec, ed in alphasets.EXCEPTIONAL_TRIPLES:
        if max(abs(a - ea), abs(c - ec), abs(d - ed)) < 1e-9:
            return ea, ec, ed
    s = math.sqrt(c * c + d * d)
    if abs(s - 1.0) > 1e-9:
        raise QAngleError(f"weights violate c^2 + d^2 = 1 beyond rounding: {s}")
    return a, c / s, d / s


def suite_circle3(seed: int, draws: int, dim=None, a=None, c=None, d=None) -> OracleReport:
    """Dimension-3 double-alpha-sets: the case split and the defining condition, for
    the triple ``(a, c, d)`` if given, else the exceptional triples and ``draws`` random ones."""
    rng = np.random.default_rng(seed)
    tally = Tally(counts={"cases": 0})
    if a is not None:
        triples = [_snap_parameters(a, c, d)]
    else:
        triples = list(alphasets.EXCEPTIONAL_TRIPLES)
        for _ in range(draws):
            cfg = draw_alpha(rng)
            triples.append((cfg.a, *random_cd(rng, cfg.a)))
    for a, c, d in triples:
        cfg = AlphaConfig.from_alpha(math.acos(a))
        e1, e2 = random_orthonormal_pair(rng, 3)
        form = projspace.TripleCanonicalForm(e1, e2, c, d, distinct_unimodular_triple(rng, 1e-2))
        descr = alphasets.double_alpha_set_classify(form, cfg, 3)
        case = "two-component" if len(descr.components) == 2 else "single-circle"
        tally.notes.append(f"a={a:.12g} c={c:.12g} d={d:.12g} case={case} components={len(descr.components)}")
        f_samples = alphasets.collinear_triple_alpha_set(form, cfg, 3).sample(_FIRST_SAMPLES, rng)
        res = worst_angle_residual(f_samples, cfg, descr.sample(30, rng))
        tally.bound(res, 1e-8, "double-alpha-set sample violates the defining condition")
        tally.counts["cases"] += 1
    return tally.report()


def suite_infinite_element(seed: int, draws: int, dim=None) -> OracleReport:
    """Disk root counts against the triangle-inequality band, and constructed tangencies."""
    rng = np.random.default_rng(seed)
    tally = Tally(counts={"draws": 0, "agreements": 0, "boundary_cases": 0})
    while tally.counts["draws"] < draws:
        z = complex(rng.standard_normal(), rng.standard_normal()) * rng.uniform(0, 0.7)
        r = rng.uniform(0.05, 0.9)
        a = rng.uniform(0.1, 0.95)
        margin = min(abs(a - (abs(z) - r)), abs(a - (abs(z) + r)))
        if margin < 1e-6 or abs(z) < 1e-6:
            continue
        lo, hi = abs(z) - r, abs(z) + r
        expected = "infinite" if lo < a < hi else "zero"
        if sweep_verdict(oracle.root_count_on_disk(z, r, a)) == expected:
            tally.counts["agreements"] += 1
        else:
            tally.fail(f"disagreement at z={z}, r={r}, a={a}")
        tally.counts["draws"] += 1
    # Constructed tangency cases (exact boundary): the classifier must say "one".
    for _ in range(20):
        c, d = random_cd(rng, 0.5)
        theta = rng.uniform(-0.4, 0.4)
        c1 = complex(rng.standard_normal(), rng.standard_normal())
        c2 = complex(rng.standard_normal(), rng.standard_normal())
        c3 = rng.uniform(0.3, 0.8)
        scale = math.sqrt((1 - c3 * c3) / (abs(c1) ** 2 + abs(c2) ** 2))
        c1, c2 = c1 * scale, c2 * scale
        z0 = c1 * math.cos(theta) / c + c2 * math.sin(theta) / d
        kk = math.cos(theta) ** 2 / c**2 + math.sin(theta) ** 2 / d**2
        denom = (1.0 - abs(z0)) ** 2 + c3 * c3 * kk
        a = c3 / math.sqrt(denom)
        if not (0 < a < c - 1e-6) or abs(z0) >= 1.0:
            continue
        cfg = AlphaConfig.from_alpha(math.acos(a))
        card = alphasets.atheta_cardinality(standard_family(cfg, c, d), theta, (c1, c2, c3), cfg)
        tally.worst = max(tally.worst, card.margin)
        if card.tag != "one":
            tally.fail(f"constructed boundary case classified as {card.tag}")
        tally.counts["boundary_cases"] += 1
    return tally.report()


def suite_circle_char(seed: int, draws: int, dim=None) -> OracleReport:
    """The circle classifier against the sampled symmetry check, alternating dimensions 3 and 4."""
    rng = np.random.default_rng(seed)
    tally = Tally(counts={"draws": draws, "agreements": 0})
    clouds = {}
    for k in range(draws):
        dim = 3 if k % 2 == 0 else 4
        cfg = draw_alpha(rng)
        c, d = random_cd(rng, cfg.a, 1e-4)
        e1, e2 = random_orthonormal_pair(rng, dim)
        if dim not in clouds:
            clouds[dim] = oracle.sample_lines(dim, 30_000 if dim == 3 else 60_000, seed + dim)
        tally.counts["agreements"] += check_circle_classification(
            tally, alphasets.CircleComponent(e1, e2, c, d), cfg, dim, 16, seed + k, clouds[dim]
        )
    return tally.report()


def suite_basic(seed: int, draws: int, dim=None) -> OracleReport:
    """The elementary alpha-set relations for a one-line and a two-line generator set."""
    rng = np.random.default_rng(seed)
    dim = dim or 3
    cloud = oracle.sample_lines(dim, 60_000, seed + 5)
    cfg = draw_alpha(rng)
    g = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    s1 = [canonical_line(g[0])]
    s2 = [canonical_line(g[0]), canonical_line(g[1])]
    return oracle.verify_basic_relations(s1, s2, cfg, cloud)


def suite_section5(seed: int, draws: int, dim=None) -> OracleReport:
    """Section 5: balanced common lines, the count threshold at 1/6, and ``draws`` bridges."""
    rng = np.random.default_rng(seed)
    dim = dim or 3
    tally = Tally()
    check_balanced_common_lines(tally, rng, dim, 20)
    check_count_threshold(tally, rng, dim)
    tally.counts["bridged"] = check_bridges(tally, rng, dim, draws)
    return tally.report()


@dataclass(frozen=True)
class Suite:
    run: Callable[..., OracleReport]
    draws: int = 8  # when the caller names no count


SUITES: dict[str, Suite] = {
    "shape": Suite(suite_shape),
    "collin-alpha": Suite(suite_collin_alpha),
    "circle4": Suite(suite_circle4),
    "circle3": Suite(suite_circle3),
    "infinite-element": Suite(suite_infinite_element, draws=1000),
    "circle-char": Suite(suite_circle_char),
    "basic": Suite(suite_basic),
    "section5": Suite(suite_section5, draws=100),
}

"""Verification engine: each numeric check of the paper's claims, written once.

This is the one module that judges results.  Every acceptance criterion of
the paper is a suite in :data:`SUITES`: ``qangle verify`` runs it at any
seed and draw count, and the acceptance tests run it at the criterion's own
seed and default draws and keep only their gates.  A check records residuals
and failures on the caller's :class:`Tally`, draws only from the caller's
generator, and returns the count the caller reports.  The brute-force
primitives the checks stand on (clouds, rejection, refinement, dedup, root
counting) live in :mod:`qangle.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import alphasets, oracle, projspace, wigner
from .alphasets import HIGHLY_SYMMETRIC, INFINITE, NOT_HIGHLY_SYMMETRIC, ONE, ZERO, AthetaFamily, classify_circle
from .errors import NotAWignerMapError, ParameterError, QAngleError
from .oracle import SampleCloud, worst_angle_residual
from .projspace import (
    AlphaConfig,
    Line,
    canonical_line,
    canonical_triple_form,
    circle_member,
    distinct_unimodular_triple,
    lines_equal,
    quantum_angle,
    random_line,
    random_orthonormal_pair,
)

SOUNDNESS_TOL = 1e-9  # |angle - alpha| of a descriptor sample, to every generator
COMPLETENESS_TOL = 1e-5  # distance of a refined oracle member to the descriptor
_FIRST_SAMPLES = 40  # alpha-set samples standing in for a double-alpha-set's generators
_SECTION5_C0 = math.sqrt(7.0 / 12.0)  # circle weight of the Section 5 count and bridge
# Tolerances of verify_basic_relations: rejection, refinement (also clause 1's
# bound), and the bound of the inclusion clauses 2 and 3.
_DISCOVERY_TOL = 1e-2
_CONFIRM_TOL = 1e-7
_INCLUSION_TOL = 1e-5


@dataclass
class Tally:
    """Verdict, largest residual, counts and notes of one verification run.

    Checks record into it as they run, and a suite returns it as its report.
    """

    verdict: bool = True
    max_residual: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.max_residual >= 0:
            raise ParameterError("max_residual must be non-negative")

    def fail(self, note: str) -> None:
        self.verdict = False
        self.notes.append(note)

    def bound(self, value: float, tol: float, note: str) -> None:
        """Record a residual; it fails the run when it exceeds ``tol`` or is NaN (kept out of the max)."""
        self.max_residual = max(self.max_residual, value)
        if not value <= tol:
            self.fail(note)

    def to_json(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "maxResidual": float(self.max_residual),
            "counts": {k: int(v) for k, v in sorted(self.counts.items())},
            "notes": list(self.notes),
        }


def _offset_seed(seed: int, k: int) -> int:
    """The seed ``k`` past ``seed``, wrapped into the seed range [0, 2**64): a suite's
    clouds and sub-checks are seeded this way, so every seed the CLI takes runs."""
    return (seed + k) % 2**64


def draw_alpha(rng: np.random.Generator) -> AlphaConfig:
    """An angle alpha drawn uniformly from [pi/4 + 0.05, pi/2 - 0.05]."""
    return AlphaConfig.from_alpha(rng.uniform(np.pi / 4 + 0.05, np.pi / 2 - 0.05))


def random_cd(rng: np.random.Generator, a: float, margin: float = 1e-3) -> tuple[float, float]:
    """Random circle weights c >= d, both margins of the dimension-3 case split at least ``margin``."""
    for _ in range(256):
        d = rng.uniform(0.15, 1 / math.sqrt(2) - 1e-3)
        c = math.sqrt(1.0 - d * d)
        if c <= a + 0.05:
            continue
        if min(alphasets._dim3_case(a, c, d)[1].values()) < margin:
            continue
        return c, d
    raise QAngleError("failed to draw circle weights away from the boundaries")


def rotated_basis(e1: Line, e2: Line, afr: float, mu: complex) -> tuple[Line, Line]:
    """The basis [afr e1 + mu bfr e2], [bfr e1 - mu afr e2] with bfr = sqrt(1 - afr^2)."""
    bfr = math.sqrt(1 - afr * afr)
    return circle_member(e1, e2, afr, bfr, mu), circle_member(e1, e2, bfr, afr, -mu)


def _random_rotated_bases(rng: np.random.Generator, dim: int, afr_lo: float):
    """(e1, e2, f1, f2, mu): a random orthonormal pair and its :func:`rotated_basis` at afr in [afr_lo, 0.95)."""
    e1, e2 = random_orthonormal_pair(rng, dim)
    afr = rng.uniform(afr_lo, 0.95)
    mu = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return (e1, e2, *rotated_basis(e1, e2, afr, mu), mu)


def sweep_verdict(total) -> str:
    """Cardinality read off a disk root count: two or more roots mean infinitely many."""
    return INFINITE if (total is math.inf or total >= 2) else ZERO


def standard_family(cfg: AlphaConfig, c: float, d: float) -> AthetaFamily:
    """The A_theta family of the first two standard basis lines of C^4."""
    theta0, _ = alphasets.theta0_and_rho(cfg, c, d)
    eye = np.eye(4, dtype=complex)
    return AthetaFamily(
        canonical_line(eye[0]), canonical_line(eye[1]), c, d, cfg.alpha, theta0, 4
    )


def _worst_distance(descr, lines) -> float:
    """Largest distance from the lines to the descriptor ``descr``; 0.0 for no line."""
    return float(np.max([descr.distance(m) for m in lines], initial=0.0))


def check_alpha_set(
    tally: Tally, generators, cfg: AlphaConfig, descr, rng, n_samples: int,
    cloud: SampleCloud, pool_tol: float, max_pool: int,
) -> list[Line]:
    """Descriptor samples are at alpha from every generator, and the oracle
    finds members, every one on the descriptor; returns the oracle members.

    The oracle is :func:`oracle.funnel_alpha_set`, seeded by the first three
    generators, so a pair or triple is every generator in both stages."""
    res = worst_angle_residual(generators, cfg, descr.sample(n_samples, rng))
    tally.bound(res, SOUNDNESS_TOL, "descriptor sample misses a generator angle")
    found = oracle.funnel_alpha_set(generators, cfg, cloud, pool_tol, 1e-7, max_pool)
    if not found:
        tally.fail("the oracle found no member")
    tally.bound(_worst_distance(descr, found), COMPLETENESS_TOL, "oracle member escapes the descriptor")
    return found


def check_double_alpha_set(
    tally: Tally, first, double, cfg: AlphaConfig, rng, n_samples: int,
    cloud: SampleCloud, max_pool: int,
) -> list[Line]:
    """The double-alpha-set ``double`` of a triple with alpha-set ``first``, judged by
    :func:`check_alpha_set` against samples of ``first`` and, on a cloud of dimension
    >= 4, required to be one circle; returns the oracle members."""
    if cloud.dim >= 4 and len(double.components) != 1:
        tally.fail("double-alpha-set must be a single circle in dimension >= 4")
    return check_alpha_set(
        tally, first.sample(_FIRST_SAMPLES, rng), cfg, double, rng, n_samples, cloud, 5e-2, max_pool
    )


def verify_basic_relations(
    S1,
    S2,
    cfg: AlphaConfig,
    cloud: SampleCloud,
) -> Tally:
    """Sampled check of the elementary alpha-set relations.

    Clause 1: every generator is at angle alpha from every numeric member of
    its alpha-set.  Clause 2 (monotonicity, requires S1 as a subset of S2):
    the numeric alpha-set of S2 satisfies the S1 constraints.  Clause 3:
    members of the numeric double-alpha-set of the alpha-set of S1 satisfy
    the original S1 constraints, and alpha-set members satisfy the
    constraints from sampled double-alpha-set members.
    """
    for s in S1:
        if not any(quantum_angle(s, t) < 1e-9 for t in S2):
            raise ParameterError("S1 must be a subset of S2")

    tally = Tally()
    n1 = oracle.funnel_alpha_set(S1, cfg, cloud, _DISCOVERY_TOL, _CONFIRM_TOL, 800)
    n2 = oracle.funnel_alpha_set(S2, cfg, cloud, _DISCOVERY_TOL, _CONFIRM_TOL, 800)
    tally.counts["alpha_set_S1"] = len(n1)
    tally.counts["alpha_set_S2"] = len(n2)

    # Clause 1: definitional, so the refined members must satisfy it exactly
    # at the confirmation tolerance.
    if n1:
        res1 = worst_angle_residual(S1, cfg, n1)
        tally.bound(res1, _CONFIRM_TOL, "clause1: generator/alpha-set residual above tolerance")

    # Clause 2: alpha-sets shrink as the generating set grows.
    if n2:
        res2 = worst_angle_residual(S1, cfg, n2)
        tally.bound(res2, _INCLUSION_TOL, "clause2: alpha-set of S2 escapes the alpha-set of S1")

    # Clause 3: the alpha-set is fixed by taking its own double-alpha-set.
    first = oracle.dedup_lines(n1, 1e-3)
    if len(first) >= 3:
        gen_a = first[: min(25, len(first))]
        holdout = first[min(25, len(first)) : min(45, len(first))]
        second = oracle.funnel_alpha_set(gen_a, cfg, cloud, confirm_tol=_CONFIRM_TOL)
        if holdout and second:
            res = oracle.angle_residuals(holdout, cfg, np.vstack([q.amplitudes for q in second]))
            second = [q for q, r in zip(second, res) if r <= 1e-4]
        tally.counts["double_alpha_set"] = len(second)
        if second:
            gen_b = oracle.dedup_lines(second, 1e-3)[: min(25, len(second))]
            third = oracle.funnel_alpha_set(gen_b, cfg, cloud, confirm_tol=_CONFIRM_TOL)
            tally.counts["triple_alpha_set"] = len(third)
            if third:
                res3 = worst_angle_residual(S1, cfg, third)
                tally.bound(res3, _INCLUSION_TOL, "clause3: triple alpha-set escapes the alpha-set of S1")
            resb = worst_angle_residual(gen_b, cfg, first)
            tally.bound(resb, _INCLUSION_TOL, "clause3: alpha-set members miss the double-alpha-set constraints")
        else:
            tally.notes.append("clause3: no numeric double-alpha-set members found")
    else:
        tally.notes.append("clause3: not enough alpha-set members found to test")

    return tally


def empirical_high_symmetry_check(
    circle: alphasets.CircleComponent,
    cfg: AlphaConfig,
    n_triples: int = 10,
    n_alpha_samples: int = 40,
    seed: int = 0,
    cloud: SampleCloud | None = None,
) -> Tally:
    """Sampled test of the highly-symmetric property, independent of the classifier.

    Draws random 3-subsets of the circle, forms their double-alpha-set
    descriptors through the generic canonical-form machinery, checks that the
    circle is contained in each, and hunts numerically for double-alpha-set
    members off the circle; the empirical tag is ``NotHighlySymmetric``
    exactly when the hunt finds one.  For two-component descriptors it
    additionally builds an explicit four-line witness breaking the symmetry
    property.  The report records agreement with :func:`classify_circle`.
    """
    if n_alpha_samples < 3:
        raise ParameterError("need at least 3 samples per check")
    if n_triples < 1:
        raise ParameterError("need at least one triple")
    seed = projspace.check_seed(seed)
    expected = classify_circle(circle, cfg)

    rng = np.random.default_rng(seed)
    tally = Tally(
        counts={"triples": n_triples, "components_max": 0, "off_circle_members": 0, "witnesses": 0}
    )
    first_descr: alphasets.AlphaSetDescriptor | None = None
    double_descr: alphasets.AlphaSetDescriptor | None = None

    for _ in range(n_triples):
        v1, v2, v3 = (circle.member(lam) for lam in distinct_unimodular_triple(rng, 1e-3))
        form = canonical_triple_form(v1, v2, v3)
        descr = alphasets.double_alpha_set_classify(form, cfg, circle.dim)
        first = alphasets.collinear_triple_alpha_set(form, cfg, circle.dim)
        if first_descr is None:
            first_descr, double_descr = first, descr
        tally.counts["components_max"] = max(tally.counts["components_max"], len(descr.components))

        # The circle must sit inside the double-alpha-set of each triple.
        circ_samples = circle.sample(n_alpha_samples, rng)
        tally.bound(_worst_distance(descr, circ_samples), 1e-8, "circle samples lie off the double-alpha-set of their triple")
        first_samples = first.sample(max(n_alpha_samples, 24), rng)
        res = worst_angle_residual(first_samples, cfg, circ_samples)
        tally.bound(res, 1e-8, "circle samples miss the sampled alpha-set at angle alpha")

        # Descriptor members must be at angle alpha from the sampled alpha-set.
        res = worst_angle_residual(first_samples, cfg, descr.sample(n_alpha_samples, rng))
        tally.bound(res, 1e-8, "double-alpha-set samples violate the defining condition")

    # Independent numeric hunt for double-alpha-set members, seeded only by
    # the defining angle conditions.
    assert first_descr is not None and double_descr is not None
    hunt_cloud = cloud or oracle.sample_lines(
        circle.dim, 40_000 if circle.dim == 3 else 80_000, _offset_seed(seed, 1)
    )
    survivors = check_double_alpha_set(tally, first_descr, double_descr, cfg, rng, n_alpha_samples, hunt_cloud, 2000)
    tally.counts["survivors"] = len(survivors)
    tally.counts["off_circle_members"] = sum(circle.distance(s) > 1e-3 for s in survivors)

    if tally.counts["components_max"] >= 2 and circle.dim == 3:
        try:
            alphasets.counterexample_witness(cfg, max(circle.c, circle.d), min(circle.c, circle.d))
            tally.counts["witnesses"] += 1
        except QAngleError:
            tally.fail("two-component case but the witness construction failed")

    empirical_tag = NOT_HIGHLY_SYMMETRIC if tally.counts["off_circle_members"] > 0 else HIGHLY_SYMMETRIC
    agreement = empirical_tag == expected.tag
    tally.notes += [f"empirical={empirical_tag}", f"classifier={expected.tag}", f"agreement={agreement}"]
    tally.verdict = tally.verdict and agreement
    return tally


def check_circle_classification(
    tally: Tally, circle, cfg: AlphaConfig, n_alpha_samples: int, seed: int, cloud: SampleCloud,
) -> int:
    """Compare the circle classifier with the sampled symmetry check; returns 1 on agreement."""
    rep = empirical_high_symmetry_check(
        circle, cfg, n_triples=3, n_alpha_samples=n_alpha_samples, seed=seed, cloud=cloud
    )
    tally.max_residual = max(tally.max_residual, rep.max_residual)
    if not rep.verdict:
        tally.verdict = False
        tally.notes.extend(rep.notes)
    return int(rep.verdict)


def check_balanced_common_lines(tally: Tally, rng: np.random.Generator, dim: int, draws: int) -> None:
    """Balanced circles (weight 1/sqrt(2)) meet in the lines (e1 +- i mu e2)/sqrt(2)."""
    for _ in range(draws):
        e1, e2, f1, f2, mu = _random_rotated_bases(rng, dim, 0.05)
        got = wigner.circle_intersection(e1, e2, f1, f2, 1 / math.sqrt(2))
        want = [circle_member(e1, e2, 1 / math.sqrt(2), 1 / math.sqrt(2), lam * mu) for lam in (1j, -1j)]
        if len(got) != 2:
            tally.fail("balanced circles must always meet twice")
            continue
        for w in want:
            dist = min(projspace.quantum_angle(w, g) for g in got)
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


def check_bridges(tally: Tally, rng: np.random.Generator, dim: int, draws: int) -> None:
    """The bridge basis g overlaps e1 and f1 by more than 1/6 and meets both circles twice."""
    for _ in range(draws):
        e1, e2, f1, f2, _ = _random_rotated_bases(rng, dim, 0.0)
        g1, g2 = wigner.bridge_basis(e1, e2, f1, f2)
        if not (
            abs(np.vdot(g1.amplitudes, e1.amplitudes)) > 1 / 6
            and abs(np.vdot(g1.amplitudes, f1.amplitudes)) > 1 / 6
        ):
            tally.fail("bridge vector overlaps an endpoint basis by at most 1/6")
        n1 = len(wigner.circle_intersection(e1, e2, g1, g2, _SECTION5_C0))
        n2 = len(wigner.circle_intersection(g1, g2, f1, f2, _SECTION5_C0))
        if n1 < 2 or n2 < 2:
            tally.fail("bridge basis fails to connect the two circles")


def suite_shape(seed: int, draws: int = 8, dim: int = 3) -> Tally:
    """Cutoff angle and radius profile of the pair alpha-set, and its samples' angles."""
    rng = np.random.default_rng(seed)
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
        v1, v2 = (circle_member(e1, e2, c, d, lam) for lam in (1j, -1j))
        pts = alphasets.pair_alpha_set(v1, v2, cfg).sample(30, rng)
        tally.counts["samples"] += len(pts)
        tally.bound(worst_angle_residual([v1, v2], cfg, pts), SOUNDNESS_TOL, "sampled member misses angle alpha")
    return tally


def _random_triple(rng: np.random.Generator, dim: int):
    """Alpha, then a collinear triple in C^dim with weights away from the boundaries."""
    cfg = draw_alpha(rng)
    c, d = random_cd(rng, cfg.a)
    e1, e2 = random_orthonormal_pair(rng, dim)
    return cfg, projspace.TripleCanonicalForm(e1, e2, c, d, distinct_unimodular_triple(rng, 1e-2))


def suite_collin_alpha(seed: int, draws: int = 8, dim=None) -> Tally:
    """Collinear-triple alpha-sets against the oracle in dimensions 3 and 4; the
    draws are split over the dimensions in order, the first ones taking the remainder."""
    rng = np.random.default_rng(seed)
    dims = [dim] if dim else [3, 4]
    tally = Tally(counts={"draws": 0, "oracle_members": 0})
    for i, dim in enumerate(dims):
        n = draws // len(dims) + (i < draws % len(dims))
        if n == 0:
            continue
        cloud = oracle.sample_lines(dim, 30_000 if dim == 3 else 60_000, _offset_seed(seed, dim))
        for _ in range(n):
            cfg, form = _random_triple(rng, dim)
            descr = alphasets.collinear_triple_alpha_set(form, cfg, dim)
            tally.counts["oracle_members"] += len(check_alpha_set(
                tally, list(form.synthesize()), cfg, descr, rng, 40, cloud, 3e-2, 4000
            ))
            tally.counts["draws"] += 1
    return tally


def suite_circle4(seed: int, draws: int = 8) -> Tally:
    """Double-alpha-sets of collinear triples in dimension 4 are single circles."""
    rng = np.random.default_rng(seed)
    dim = 4
    cloud = oracle.sample_lines(dim, 120_000, _offset_seed(seed, 11))
    tally = Tally(counts={"draws": 0, "survivors": 0})
    for _ in range(draws):
        cfg, form = _random_triple(rng, dim)
        first = alphasets.collinear_triple_alpha_set(form, cfg, dim)
        double = alphasets.double_alpha_set_classify(form, cfg, dim)
        tally.counts["survivors"] += len(check_double_alpha_set(tally, first, double, cfg, rng, 30, cloud, 2000))
        tally.counts["draws"] += 1
    return tally


def _snap_parameters(a: float, c: float, d: float) -> tuple[float, float, float]:
    """Snap decimal-truncated CLI parameters onto the exact exceptional triples,
    and renormalize (c, d) when they miss c^2 + d^2 = 1 by rounding only.
    ``a`` = cos(alpha) outside (0, 1), NaN included, and weights that miss by
    more are a ``ParameterError``."""
    if not 0.0 < a < 1.0:
        raise ParameterError(f"a = cos(alpha) must be in (0, 1), got {a}")
    for ea, ec, ed in alphasets.EXCEPTIONAL_TRIPLES:
        if max(abs(a - ea), abs(c - ec), abs(d - ed)) < 1e-9:
            return ea, ec, ed
    s = math.sqrt(c * c + d * d)
    if abs(s - 1.0) > 1e-9:
        raise ParameterError(f"weights violate c^2 + d^2 = 1 beyond rounding: {s}")
    return a, c / s, d / s


def suite_circle3(seed: int, draws: int = 8, a=None, c=None, d=None) -> Tally:
    """Dimension-3 double-alpha-sets: the case split, and the descriptor against the
    oracle, for the triple ``(a, c, d)`` if given, else the exceptional triples and
    ``draws`` random ones."""
    rng = np.random.default_rng(seed)
    tally = Tally(counts={"cases": 0, "survivors": 0})
    if a is not None:
        triples = [_snap_parameters(a, c, d)]
    else:
        triples = list(alphasets.EXCEPTIONAL_TRIPLES)
        for _ in range(draws):
            cfg = draw_alpha(rng)
            triples.append((cfg.a, *random_cd(rng, cfg.a)))
    cloud = oracle.sample_lines(3, 40_000, _offset_seed(seed, 3))
    for a, c, d in triples:
        cfg = AlphaConfig.from_alpha(math.acos(a))
        e1, e2 = random_orthonormal_pair(rng, 3)
        form = projspace.TripleCanonicalForm(e1, e2, c, d, distinct_unimodular_triple(rng, 1e-2))
        descr = alphasets.double_alpha_set_classify(form, cfg, 3)
        case = "two-component" if len(descr.components) == 2 else "single-circle"
        tally.notes.append(f"a={a:.12g} c={c:.12g} d={d:.12g} case={case} components={len(descr.components)}")
        first = alphasets.collinear_triple_alpha_set(form, cfg, 3)
        tally.counts["survivors"] += len(check_double_alpha_set(tally, first, descr, cfg, rng, 30, cloud, 2000))
        tally.counts["cases"] += 1
    return tally


def suite_infinite_element(seed: int, draws: int = 1000) -> Tally:
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
        expected = INFINITE if lo < a < hi else ZERO
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
        tally.max_residual = max(tally.max_residual, card.margin)
        if card.tag != ONE:
            tally.fail(f"constructed boundary case classified as {card.tag}")
        tally.counts["boundary_cases"] += 1
    return tally


def _classify_circles(
    tally: Tally, seed: int, draws: int, n_alpha_samples: int, cloud_offsets, check_offset: int,
) -> None:
    """Count on ``tally`` the agreements of the circle classifier with the sampled symmetry check over
    ``draws`` random circles, alternating dimensions 3 and 4.  The dimension-3 and dimension-4 clouds
    are seeded ``cloud_offsets`` past ``seed``, the k-th check ``check_offset + k`` past it."""
    rng = np.random.default_rng(seed)
    clouds = {}
    for k in range(draws):
        dim = 3 if k % 2 == 0 else 4
        cfg = draw_alpha(rng)
        c, d = random_cd(rng, cfg.a, 1e-4)
        e1, e2 = random_orthonormal_pair(rng, dim)
        if dim not in clouds:
            count = 30_000 if dim == 3 else 60_000
            clouds[dim] = oracle.sample_lines(dim, count, _offset_seed(seed, cloud_offsets[dim - 3]))
        circle = alphasets.CircleComponent(e1, e2, c, d)
        tally.counts["agreements"] += check_circle_classification(
            tally, circle, cfg, n_alpha_samples, _offset_seed(seed, check_offset + k), clouds[dim]
        )


def suite_circle_char(seed: int, draws: int = 8) -> Tally:
    """The circle classifier against the sampled symmetry check, alternating dimensions 3 and 4."""
    tally = Tally(counts={"draws": draws, "agreements": 0})
    _classify_circles(tally, seed, draws, 16, (3, 4), 0)
    return tally


def suite_basic(seed: int, dim: int = 3) -> Tally:
    """The elementary alpha-set relations for a one-line and a two-line generator set."""
    rng = np.random.default_rng(seed)
    cloud = oracle.sample_lines(dim, 60_000, _offset_seed(seed, 5))
    cfg = draw_alpha(rng)
    g = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    s1 = [canonical_line(g[0])]
    s2 = [canonical_line(g[0]), canonical_line(g[1])]
    return verify_basic_relations(s1, s2, cfg, cloud)


def suite_section5(seed: int, draws: int = 100, dim: int = 3) -> Tally:
    """Section 5: balanced common lines, the count threshold at 1/6, and ``draws`` bridges."""
    rng = np.random.default_rng(seed)
    tally = Tally(counts={"bridged": draws})
    check_balanced_common_lines(tally, rng, dim, 20)
    check_count_threshold(tally, rng, dim)
    check_bridges(tally, rng, dim, draws)
    return tally


def suite_pair(seed: int, draws: int = 50) -> Tally:
    """Pair alpha-sets against the oracle, ``draws`` random pairs in dimension 3 and then in dimension 4."""
    rng = np.random.default_rng(seed)
    clouds = {3: oracle.sample_lines(3, 200_000, _offset_seed(seed, 1))}
    clouds[4] = oracle.sample_lines(4, 1_000_000, _offset_seed(seed, 2))
    tally = Tally(counts={"members_dim3": 0, "members_dim4": 0})
    for dim, cloud in clouds.items():
        for _ in range(draws):
            cfg = draw_alpha(rng)
            v1, v2 = random_line(rng, dim), random_line(rng, dim)
            if lines_equal(v1, v2, 1e-3):
                continue
            descr = alphasets.pair_alpha_set(v1, v2, cfg)
            tally.counts[f"members_dim{dim}"] += len(check_alpha_set(
                tally, [v1, v2], cfg, descr, rng, 500, cloud, 1e-2, 400
            ))
    return tally


def _draw_dim4_triple(rng: np.random.Generator):
    """Alpha and a collinear triple in C^4 with c > a + 0.05 and lambdas 5e-2 apart, or None when c
    misses it; unlike :func:`_random_triple`, it neither retries nor checks the case-split margins."""
    cfg = draw_alpha(rng)
    d = rng.uniform(0.15, 1 / math.sqrt(2) - 1e-3)
    c = math.sqrt(1 - d * d)
    if c <= cfg.a + 0.05:
        return None
    e1, e2 = random_orthonormal_pair(rng, 4)
    return cfg, projspace.TripleCanonicalForm(e1, e2, c, d, distinct_unimodular_triple(rng, 5e-2))


def suite_triple(seed: int, draws: int = 50) -> Tally:
    """Dimension-4 collinear-triple alpha-sets, then double-alpha-sets, against the oracle (``draws``
    draws each), then the second components of the exceptional dimension-3 triples."""
    rng = np.random.default_rng(seed)
    cloud = oracle.sample_lines(4, 1_000_000, _offset_seed(seed, 1))
    tally = Tally(counts={"members": 0, "survivors": 0})
    for _ in range(draws):
        if drawn := _draw_dim4_triple(rng):
            cfg, form = drawn
            descr = alphasets.collinear_triple_alpha_set(form, cfg, 4)
            tally.counts["members"] += len(check_alpha_set(
                tally, list(form.synthesize()), cfg, descr, rng, 500, cloud, 3e-2, 400
            ))
    for _ in range(draws):
        if drawn := _draw_dim4_triple(rng):
            cfg, form = drawn
            first = alphasets.collinear_triple_alpha_set(form, cfg, 4)
            double = alphasets.double_alpha_set_classify(form, cfg, 4)
            tally.counts["survivors"] += len(check_double_alpha_set(tally, first, double, cfg, rng, 500, cloud, 800))
    e1, e2, e3 = (canonical_line(row) for row in np.eye(3, dtype=complex))
    circle, point = (
        alphasets.double_alpha_set_classify(
            projspace.TripleCanonicalForm(e1, e2, c, d, distinct_unimodular_triple(rng, 5e-2)),
            AlphaConfig.from_alpha(math.acos(a)), 3,
        ).components[-1]
        for a, c, d in alphasets.EXCEPTIONAL_TRIPLES
    )
    if isinstance(circle, alphasets.CircleComponent) and isinstance(point, alphasets.PointComponent):
        off = max(abs(circle.c - math.sqrt(1 / 3)), abs(circle.d - math.sqrt(2 / 3)), quantum_angle(point.line, e3))
        tally.bound(off, 1e-12, "an exceptional triple's second component is off")
    else:
        tally.fail("an exceptional triple's second component is of the wrong kind")
    return tally


def check_cardinality(tally: Tally, fam: AthetaFamily, theta: float, coeffs, cfg: AlphaConfig):
    """The closed-form cardinality of A_theta against the alpha-set of the line with ``coeffs``
    (c1, c2, c3), compared with the disk sweep; returns whether the two agree, or None, comparing
    nothing, when the verdict is within 1e-6 of a boundary or the disk centre within 1e-6 of 0."""
    card = alphasets.atheta_cardinality(fam, theta, coeffs, cfg)
    if card.margin < 1e-6:
        return None
    c1, c2, c3 = coeffs
    a = cfg.a
    z = c1 * (a / fam.c) * math.cos(theta) + c2 * (a / fam.d) * math.sin(theta)
    if abs(z) < 1e-6:
        return None
    swept = sweep_verdict(oracle.root_count_on_disk(z, c3 * fam.rho(theta), a, 2048, 48))
    if card.tag != swept:
        tally.fail(f"cardinality {card.tag} but the disk sweep says {swept}")
    return card.tag == swept


def suite_cardinality(seed: int, draws: int = 1000) -> Tally:
    """The cardinality trichotomy of A_theta families against the disk sweep, ``draws`` compared verdicts."""
    rng = np.random.default_rng(seed)
    tally = Tally(counts={"draws": 0, "agreements": 0})
    while tally.counts["draws"] < draws:
        cfg = draw_alpha(rng)
        d = rng.uniform(0.15, 1 / math.sqrt(2))
        c = math.sqrt(1 - d * d)
        if c <= cfg.a + 0.02:
            continue
        fam = standard_family(cfg, c, d)
        theta = rng.uniform(-fam.theta0, fam.theta0)
        c1 = rng.standard_normal() + 1j * rng.standard_normal()
        c2 = rng.standard_normal() + 1j * rng.standard_normal()
        c3 = rng.uniform(0.2, 0.9)
        s = math.sqrt((1 - c3 * c3) / (abs(c1) ** 2 + abs(c2) ** 2))
        agrees = check_cardinality(tally, fam, theta, (c1 * s, c2 * s, c3), cfg)
        if agrees is not None:
            tally.counts["draws"] += 1
            tally.counts["agreements"] += agrees
    return tally


def _dim3_boundary(a: float) -> float:
    """The weight d below which a dimension-3 circle is not highly symmetric at a = cos(alpha): the
    tie d = a, or the second-component bound where that is lower (for a above (sqrt(5) - 1)/2)."""
    return min(a, math.sqrt((1 - 2 * a * a) / (1 - a * a)))


def suite_witness(seed: int, draws: int = 20) -> Tally:
    """``draws`` dimension-3 witness quadruples (u1, u2, u3, w), in at most 20 attempts each: every u on
    the double-alpha-set of its triple and at alpha from w, and w off the triple's alpha-set."""
    rng = np.random.default_rng(seed)
    e1, e2 = (canonical_line(row) for row in np.eye(3, dtype=complex)[:2])
    tally = Tally(counts={"witnesses": 0})
    for _ in range(20 * draws):
        if tally.counts["witnesses"] == draws:
            break
        a = rng.uniform(0.25, 0.69)
        cfg = AlphaConfig.from_alpha(math.acos(a))
        d = rng.uniform(0.2, 0.9) * _dim3_boundary(a)
        c = math.sqrt(1 - d * d)
        if not c / math.sqrt(1 + c * c) >= a > d:
            continue
        *us, w = alphasets.counterexample_witness(cfg, c, d)
        form = projspace.TripleCanonicalForm(e1, e2, c, d, (1.0 + 0j, 1j, -1j))
        double = alphasets.double_alpha_set_classify(form, cfg, 3)
        tally.bound(_worst_distance(double, us), 1e-9, "a witness line lies off the double-alpha-set")
        tally.bound(max(abs(quantum_angle(w, u) - cfg.alpha) for u in us), 1e-9, "the witness misses angle alpha")
        if alphasets.collinear_triple_alpha_set(form, cfg, 3).distance(w) <= 1e-6:
            tally.fail("the witness lies on the alpha-set")
        tally.counts["witnesses"] += 1
    if tally.counts["witnesses"] < draws:
        tally.fail(f"only {tally.counts['witnesses']} witnesses in {20 * draws} attempts")
    return tally


def suite_classification(seed: int, draws: int = 100) -> Tally:
    """``circle-char`` at 12 samples per check, then the dimension-3 verdict's boundary in d, located
    by bisection at alpha = 1.0 and at alpha = 0.82, one on each side of :func:`_dim3_boundary`'s switch."""
    tally = Tally(counts={"draws": draws, "agreements": 0})
    _classify_circles(tally, seed, draws, 12, (1, 2), 100)
    e1, e2 = (canonical_line(row) for row in np.eye(3, dtype=complex)[:2])
    for alpha in (1.0, 0.82):
        cfg = AlphaConfig.from_alpha(alpha)

        def symmetric(d: float) -> bool:
            circle = alphasets.CircleComponent(e1, e2, math.sqrt(1 - d * d), d)
            return classify_circle(circle, cfg).tag == HIGHLY_SYMMETRIC

        lo, hi = 0.05, 1 / math.sqrt(2) - 1e-6
        if symmetric(lo) or not symmetric(hi):
            tally.fail("the dimension-3 verdict does not change over d")
            continue
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if symmetric(mid) else (mid, hi)
        tally.bound(abs(0.5 * (lo + hi) - _dim3_boundary(cfg.a)), 1e-6, "the dimension-3 verdict changes off its boundary")
    return tally


def suite_wigner_round_trip(seed: int, draws: int = 100) -> Tally:
    """``draws`` random symmetries in each dimension 2 to 5, every second one antiunitary, refitted
    from their probe images; and per dimension one probe image turned by 0.1 rad, which must be refused."""
    rng = np.random.default_rng(seed)
    tally = Tally(counts={"recovered": 0, "refused": 0})
    for dim in range(2, 6):
        probes = wigner.probe_set(dim)
        for k in range(draws):
            w = wigner.random_wigner(dim, _offset_seed(seed, k), bool(k % 2))
            if wigner.same_induced_map(w, wigner.fit_from_probes(dim, [wigner.apply_symmetry(w, p) for p in probes])):
                tally.counts["recovered"] += 1
            else:
                tally.fail("a symmetry differs from its refit")
    for dim in range(2, 6):
        w = wigner.random_wigner(dim, _offset_seed(seed, 777 + dim))
        images = [wigner.apply_symmetry(w, p) for p in wigner.probe_set(dim)]
        k = int(rng.integers(0, len(images)))
        v = images[k].amplitudes
        images[k] = canonical_line(math.cos(0.1) * v + math.sin(0.1) * projspace.orthonormal_complement(v[None, :])[0])
        try:
            wigner.fit_from_probes(dim, images)
            tally.fail("a turned probe image was fitted")
        except NotAWignerMapError:
            tally.counts["refused"] += 1
    return tally


def suite_exotic(seed: int, draws: int = 500) -> Tally:
    """The dimension-2 exotic map (a random symmetry, followed by the orthocomplement where |v_1|^2 > 1/2)
    keeps the angle pi/4 both ways over 2 * ``draws`` pairs, and breaks pi/3 over ``draws`` pairs."""
    phi = wigner.exotic_pi4_map(wigner.random_wigner(2, seed), lambda v: abs(v.amplitudes[0]) ** 2 > 0.5)
    kept = wigner.preservation_report(phi, AlphaConfig.from_alpha(np.pi / 4), 2, 2 * draws, _offset_seed(seed, 1), 1e-10)
    broken = wigner.preservation_report(phi, AlphaConfig.from_alpha(np.pi / 3), 2, draws, _offset_seed(seed, 2), 1e-9)
    tally = Tally(counts={"pi4_pairs": kept.pairs_tested, "pi3_violations": broken.forward_violations})
    # A report's max deviation exceeds its tolerance exactly when it counts a violation.
    tally.bound(kept.max_deviation, 1e-10, "the exotic map moves the angle pi/4")
    if not (broken.forward_violations > 0 and broken.max_deviation > 1e-3):
        tally.fail("the exotic map keeps the angle pi/3")
    tally.notes.append(f"pi/3 deviation {broken.max_deviation:.3g}")
    return tally


#: Each suite by name.  A suite runs as ``run(seed, **options)``: its keyword
#: parameters are the options it takes, ``draws`` (the number of random draws,
#: which every suite but ``basic`` takes) among them, and their defaults hold
#: when the caller names none.
SUITES = {
    "shape": suite_shape,
    "collin-alpha": suite_collin_alpha,
    "circle4": suite_circle4,
    "circle3": suite_circle3,
    "infinite-element": suite_infinite_element,
    "circle-char": suite_circle_char,
    "basic": suite_basic,
    "section5": suite_section5,
    "pair": suite_pair,
    "triple": suite_triple,
    "cardinality": suite_cardinality,
    "witness": suite_witness,
    "classification": suite_classification,
    "wigner-round-trip": suite_wigner_round_trip,
    "exotic": suite_exotic,
}

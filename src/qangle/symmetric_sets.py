"""Circles in projective space and the classification of highly symmetric sets.

A circle is the set {[c e1 + lambda d e2] : |lambda| = 1} for an orthonormal
pair and positive weights with c^2 + d^2 = 1.  A set T is highly symmetric
for the fixed angle when T and its alpha-set are both infinite and the
double-alpha-set of every 3-element subset reproduces T.  For ambient
dimension at least 4 every circle qualifies; in dimension 3 the verdict
depends on the circle weights relative to a = cos(alpha), with two
exceptional parameter triples handled exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .alphasets import (
    AlphaConfig,
    AlphaSetDescriptor,
    CircleComponent,
    collinear_triple_alpha_set,
    counterexample_witness,
    double_alpha_set_classify,
    has_second_double_component,
    matches_exceptional_triple,
)
from .errors import DimensionError, ParameterError, QAngleError, RangeError
from .oracle import (
    OracleReport,
    SampleCloud,
    Tally,
    funnel_alpha_set,
    sample_lines,
    worst_angle_residual,
)
from .projspace import canonical_triple_form

#: Enumerated verdict reasons.
REASON_DIM_GE_4 = "dim-at-least-4"
REASON_SINGLE_CIRCLE = "dim3-single-circle"
REASON_SECOND_COMPONENT = "dim3-second-component"
REASON_EXC_DOUBLE_CIRCLE = "dim3-exceptional-double-circle"
REASON_EXC_CIRCLE_POINT = "dim3-exceptional-circle-point"

REASONS = (
    REASON_DIM_GE_4,
    REASON_SINGLE_CIRCLE,
    REASON_SECOND_COMPONENT,
    REASON_EXC_DOUBLE_CIRCLE,
    REASON_EXC_CIRCLE_POINT,
)

HIGHLY_SYMMETRIC = "HighlySymmetric"
NOT_HIGHLY_SYMMETRIC = "NotHighlySymmetric"


@dataclass(frozen=True)
class SymmetryVerdict:
    """Classification outcome with the deciding clause and boundary margins."""

    tag: str
    reason: str
    margins: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.tag not in (HIGHLY_SYMMETRIC, NOT_HIGHLY_SYMMETRIC):
            raise ParameterError(f"unknown verdict tag {self.tag!r}")
        if self.reason not in REASONS:
            raise ParameterError(f"unknown verdict reason {self.reason!r}")

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "reason": self.reason,
            "margins": {k: float(v) for k, v in sorted(self.margins.items())},
        }


def classify_circle(circle: CircleComponent, cfg: AlphaConfig, ambient_dim: int) -> SymmetryVerdict:
    """Decide whether a circle is highly symmetric for the configured angle.

    Ambient dimension >= 4 always gives a positive verdict.  In dimension 3
    the circle fails exactly when its sorted weights (c >= d) satisfy
    c/sqrt(1 + c^2) >= a > d, or match one of the two exceptional triples
    within 1e-12.
    """
    cfg.require_classification_range()
    if ambient_dim < 3:
        raise RangeError("classification needs ambient dimension >= 3")
    if circle.dim != ambient_dim:
        raise DimensionError("circle does not live in the stated ambient dimension")

    c, d = max(circle.c, circle.d), min(circle.c, circle.d)
    a = cfg.a
    margins = {
        "weight_tie": abs(a - d),
        "second_component_boundary": abs(c / math.sqrt(1.0 + c * c) - a),
    }
    if ambient_dim >= 4:
        return SymmetryVerdict(HIGHLY_SYMMETRIC, REASON_DIM_GE_4, margins)

    exc = matches_exceptional_triple(a, c, d)
    if exc == 0:
        return SymmetryVerdict(NOT_HIGHLY_SYMMETRIC, REASON_EXC_DOUBLE_CIRCLE, margins)
    if exc == 1:
        return SymmetryVerdict(NOT_HIGHLY_SYMMETRIC, REASON_EXC_CIRCLE_POINT, margins)
    if has_second_double_component(cfg, c, d):
        return SymmetryVerdict(NOT_HIGHLY_SYMMETRIC, REASON_SECOND_COMPONENT, margins)
    return SymmetryVerdict(HIGHLY_SYMMETRIC, REASON_SINGLE_CIRCLE, margins)


def _distinct_phases(rng: np.random.Generator) -> np.ndarray:
    for _ in range(64):
        phis = rng.uniform(0.0, 2.0 * np.pi, 3)
        if min(
            abs(np.exp(1j * phis[i]) - np.exp(1j * phis[j]))
            for i in range(3)
            for j in range(i + 1, 3)
        ) > 1e-3:
            return phis
    raise ParameterError("could not draw three distinct circle points")


def empirical_high_symmetry_check(
    circle: CircleComponent,
    cfg: AlphaConfig,
    ambient_dim: int,
    n_triples: int = 10,
    n_alpha_samples: int = 40,
    seed: int = 0,
    cloud: SampleCloud | None = None,
) -> OracleReport:
    """Sampled test of the highly-symmetric property, independent of the classifier.

    Draws random 3-subsets of the circle, forms their double-alpha-set
    descriptors through the generic canonical-form machinery, checks that the
    circle is contained in each, and hunts numerically for double-alpha-set
    members off the circle.  For two-component descriptors it additionally
    builds an explicit four-line witness breaking the symmetry property.
    The report records agreement with :func:`classify_circle`.
    """
    if n_alpha_samples < 3:
        raise ParameterError("need at least 3 samples per check")
    if n_triples < 1:
        raise ParameterError("need at least one triple")
    expected = classify_circle(circle, cfg, ambient_dim)

    rng = np.random.default_rng(seed)
    tally = Tally(
        counts={"triples": n_triples, "components_max": 0, "off_circle_members": 0, "witnesses": 0}
    )
    two_component = False

    first_descr: AlphaSetDescriptor | None = None
    double_descr: AlphaSetDescriptor | None = None

    for _ in range(n_triples):
        phis = _distinct_phases(rng)
        v1, v2, v3 = (circle.member(np.exp(1j * p)) for p in phis)
        form = canonical_triple_form(v1, v2, v3)
        descr = double_alpha_set_classify(form, cfg, ambient_dim)
        first = collinear_triple_alpha_set(form, cfg, ambient_dim)
        if first_descr is None:
            first_descr, double_descr = first, descr
        tally.counts["components_max"] = max(tally.counts["components_max"], len(descr.components))
        if len(descr.components) >= 2:
            two_component = True

        # The circle must sit inside the double-alpha-set of each triple.
        circ_samples = circle.sample(n_alpha_samples, rng)
        for s in circ_samples:
            tally.worst = max(tally.worst, descr.distance(s))
        first_samples = first.sample(max(n_alpha_samples, 24), rng)
        res = worst_angle_residual(first_samples, cfg, circ_samples)
        tally.bound(res, 1e-8, "circle samples miss the sampled alpha-set at angle alpha")

        # Descriptor members must be at angle alpha from the sampled alpha-set.
        res = worst_angle_residual(first_samples, cfg, descr.sample(n_alpha_samples, rng))
        tally.bound(res, 1e-8, "double-alpha-set samples violate the defining condition")

    # Independent numeric hunt for double-alpha-set members, seeded only by
    # the defining angle conditions.
    assert first_descr is not None and double_descr is not None
    hunt_cloud = cloud or sample_lines(
        ambient_dim, 40_000 if ambient_dim == 3 else 80_000, seed + 1
    )
    constraints = first_descr.sample(40, rng)
    survivors = funnel_alpha_set(constraints, cfg, hunt_cloud)
    tally.counts["survivors"] = len(survivors)
    for s in survivors:
        dist_circle = circle.distance(s)
        dist = double_descr.distance(s)
        tally.bound(dist, 1e-5, "numeric double-alpha-set member escapes the descriptor")
        if dist_circle > 1e-3:
            tally.counts["off_circle_members"] += 1

    witness_ok = False
    if two_component and ambient_dim == 3:
        c, d = max(circle.c, circle.d), min(circle.c, circle.d)
        t = 0.05
        for _ in range(12):
            try:
                counterexample_witness(cfg, c, d, t)
                witness_ok = True
                tally.counts["witnesses"] += 1
                break
            except QAngleError:
                t *= 0.5
        if not witness_ok:
            tally.fail("two-component case but no witness construction succeeded")

    empirical_tag = (
        NOT_HIGHLY_SYMMETRIC
        if (two_component or tally.counts["off_circle_members"] > 0)
        else HIGHLY_SYMMETRIC
    )
    agreement = empirical_tag == expected.tag
    tally.notes += [f"empirical={empirical_tag}", f"classifier={expected.tag}", f"agreement={agreement}"]
    tally.verdict = tally.verdict and agreement
    return tally.report()

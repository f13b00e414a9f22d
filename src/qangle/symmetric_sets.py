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

from .alphasets import (
    CircleComponent,
    has_second_double_component,
    matches_exceptional_triple,
)
from .errors import DimensionError, ParameterError, RangeError
from .projspace import AlphaConfig

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

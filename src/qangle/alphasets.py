"""Closed-form alpha-sets and double-alpha-sets.

For a fixed angle alpha with cos(alpha) = a, the alpha-set of a set S of
lines consists of all lines at quantum angle exactly alpha from every member
of S.  This module describes these sets symbolically:

* the alpha-set of a pair of lines is a one-parameter family of spheres
  ``A_theta`` governed by a radius profile rho(theta) and a cutoff theta0;
* the alpha-set of a collinear triple is one or two sphere slices;
* the double-alpha-set (alpha-set of the alpha-set) of a collinear triple is
  a circle for ambient dimension >= 4, and in dimension 3 either a circle or
  a circle together with a second component (a second circle, degenerating
  to a single line at the case boundary).

A set T is highly symmetric for the fixed angle when T and its alpha-set are
both infinite and the double-alpha-set of every 3-element subset reproduces
T.  A circle, the set {[c e1 + lambda d e2] : |lambda| = 1} for an
orthonormal pair and positive weights with c^2 + d^2 = 1, qualifies in every
ambient dimension >= 4; in dimension 3 it qualifies exactly when the
double-alpha-set of its triples is the circle alone, which depends on the
weights relative to a = cos(alpha), with two exceptional parameter triples
handled exactly.  One case split decides both.

Descriptors are immutable and never enumerated.  Distances need no search and
build no member: every infinite component is a sphere {[center + r h]} (a
circle, a slice, one A_theta of a pair alpha-set), and the distance to one is
atan2 of closed-form sums of products, exact near 0 and near pi/2.  The
nearest A_theta is the best of +-theta0 and at most six stationary points of
the fidelity F: the roots of the degree-3 trigonometric polynomial G that
squaring F' = 0 leaves, each polished by Newton steps on F' as G's roots are
near-double when c ~ d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from .errors import (
    CaseError,
    DegenerateTripleError,
    DimensionError,
    DomainError,
    ParameterError,
    RangeError,
    WitnessRangeError,
)
from .projspace import (
    AlphaConfig,
    Line,
    TripleCanonicalForm,
    canonical_line,
    canonical_pair_form,
    check_close,
    check_orthonormal_pair,
    check_weighted_basis,
    check_weights,
    circle_member,
    circle_members_at,
    complex_json,
    inner,
    orthonormal_complement,
    quantum_angle,
)

#: Declared tolerance band for the one/infinite cardinality classification.
CARDINALITY_TOL = 1e-9

#: Absolute tolerance for matching the two exceptional parameter triples.
EXCEPTIONAL_TOL = 1e-12

#: Margin used for the floating-point case split in dimension 3.
CASE_MARGIN = 1e-10

_SQ3 = 1.0 / math.sqrt(3.0)
_SQ2 = 1.0 / math.sqrt(2.0)

#: The two (a, c, d) triples where the second double-alpha-set component
#: survives even though the generic inequality fails.
EXCEPTIONAL_TRIPLES = (
    (_SQ3, math.sqrt(2.0 / 3.0), _SQ3),
    (_SQ3, _SQ2, _SQ2),
)


def _check_profile_weights(a: float, c: float, d: float) -> None:
    """Parameter domain of the radius profile: weights passing :func:`check_weights`, and c > a."""
    check_weights(c, d)
    if c <= a:
        raise ParameterError(f"need c > a, got c={c}, a={a}")


def _rho(a: float, c: float, d: float, theta0: float, theta):
    """rho(theta) = sqrt(1 - (a/c)^2 cos^2 theta - (a/d)^2 sin^2 theta) on [-theta0, theta0].

    When a > d, theta0 is a zero of the radicand, which then factors as
    ((a/d)^2 - (a/c)^2) sin(theta0 - theta) sin(theta0 + theta); that form
    has no cancellation, so rho(+-theta0) is exactly 0.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(np.abs(th) <= theta0 + 1e-12):
        raise DomainError(f"theta outside [-{theta0}, {theta0}]")
    if a > d:
        val = ((a / d) ** 2 - (a / c) ** 2) * np.sin(theta0 - th) * np.sin(theta0 + th)
    else:
        val = 1.0 - (a / c) ** 2 * np.cos(th) ** 2 - (a / d) ** 2 * np.sin(th) ** 2
    out = np.sqrt(np.clip(val, 0.0, None))
    return float(out) if np.isscalar(theta) else out


def theta0_and_rho(cfg: AlphaConfig, c: float, d: float):
    """Cutoff angle theta0 and radius profile rho for the pair alpha-set.

    rho(theta) = sqrt(1 - (a/c)^2 cos^2 theta - (a/d)^2 sin^2 theta) on
    [-theta0, theta0].  If a <= d the cutoff is pi/2; otherwise theta0 is the
    unique zero of rho in (0, pi/2), in closed form
    atan2(sqrt(1 - (a/c)^2), sqrt((a/d)^2 - 1)), which stays well
    conditioned as a approaches d.

    Returns a pair (theta0, rho) where rho accepts scalars or arrays and
    raises DomainError at a theta outside [-theta0, theta0] or NaN.
    """
    a = cfg.a
    _check_profile_weights(a, c, d)
    if a <= d:
        theta0 = np.pi / 2
    else:
        theta0 = math.atan2(math.sqrt(1.0 - (a / c) ** 2), math.sqrt((a / d) ** 2 - 1.0))
    return float(theta0), partial(_rho, a, c, d, theta0)


def _sphere_point(center: np.ndarray, radius: float, comp: np.ndarray, rng) -> Line:
    """[center + radius h] for a uniformly random unit vector h in the row span of comp.

    Draws the real, then the imaginary parts of h's coordinates, and draws
    nothing when the radius or the span is zero.
    """
    k = comp.shape[0]
    if radius > 0 and k > 0:
        coords = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        coords /= np.linalg.norm(coords)
        center = center + radius * (coords @ comp)
    return canonical_line(center)


def _sphere_distance(v: Line, center: np.ndarray, radius: float, comp: np.ndarray) -> float:
    """Angular distance from v to the nearest [center + radius h], h a unit vector in the row span of comp.

    The span is orthogonal to the center and ||center||^2 + radius^2 = 1.
    Split v into s = |<u, v>| along u = center / k (k = ||center||), its part
    of norm p in the span and the rest, of norm q.  The nearest member's
    fidelity is k s + radius p, and as s^2 + p^2 + q^2 = 1, Lagrange's
    identity gives the sine of the distance as hypot(q, radius s - k p).
    Both are sums of products, so the distance is exact near 0 and near
    pi/2.  An empty span leaves the angle to the center line.  A line of
    another dimension than the center is a ``DimensionError``.
    """
    if v.dim != len(center):
        raise DimensionError(f"line of dimension {v.dim}, component of dimension {len(center)}")
    x = v.amplitudes
    k = float(np.linalg.norm(center))
    u = center / k if k else center
    if not comp.size:
        k, radius = 1.0, 0.0
    z = np.vdot(u, x)
    coords = comp.conj() @ x
    p = float(np.linalg.norm(coords))
    q = float(np.linalg.norm(x - z * u - coords @ comp))
    return math.atan2(math.hypot(q, radius * abs(z) - k * p), k * abs(z) + radius * p)


def _argmax_theta(x1: complex, x2: complex, p: float, ca: float, cb: float, theta0: float) -> float:
    """The theta in [-theta0, theta0] maximising |x1 cos theta + x2 sin theta| + p rho(theta),
    where rho(theta)^2 = 1 - ca^2 cos^2 theta - cb^2 sin^2 theta."""
    n1, n2 = abs(x1) ** 2, abs(x2) ** 2
    s0, sc, ss = (n1 + n2) / 2, (n1 - n2) / 2, (x1.conjugate() * x2).real
    t0, tc = 1.0 - (ca * ca + cb * cb) / 2, (cb * cb - ca * ca) / 2
    # S1 = |x|^2 and S2 = rho^2 as Laurent coefficients (z^-1, 1, z), z = exp(i phi).
    s1, s2 = np.array([sc + 1j * ss, 2 * s0, sc - 1j * ss]) / 2, np.array([tc, 2 * t0, tc]) / 2
    ds1, ds2 = s1 * [-1j, 0, 1j], s2 * [-1j, 0, 1j]
    g = np.convolve(np.convolve(ds1, ds1), s2) - p * p * np.convolve(np.convolve(ds2, ds2), s1)
    g[np.abs(g) < 1e-13 * np.abs(g).max()] = 0.0

    def newton(phi: np.ndarray, steps: int) -> np.ndarray:
        """Newton steps on F'(phi), taken where F'' < 0 and clipped to 0.1; returns theta."""
        for _ in range(steps):
            cos, sin = np.cos(phi), np.sin(phi)
            u1, d1 = s0 + sc * cos + ss * sin, ss * cos - sc * sin
            u2, d2 = t0 + tc * cos, -tc * sin
            r1, r2 = np.sqrt(np.maximum([u1, u2], 1e-30))
            q1, q2 = d1 / (2 * r1), d2 / (2 * r2)
            fpp = ((s0 - u1) / 2 - q1 * q1) / r1 + p * ((t0 - u2) / 2 - q2 * q2) / r2
            step = np.divide(q1 + p * q2, fpp, out=np.zeros_like(phi), where=fpp < 0)
            phi = phi - np.clip(step, -0.1, 0.1)
        return np.clip(np.angle(np.exp(1j * phi)) / 2, -theta0, theta0)

    thetas = np.concatenate([[-theta0, theta0, 0.0], newton(np.angle(np.roots(g[::-1])), 3)])
    cos = np.cos(2 * thetas)
    r1, r2 = np.sqrt(np.maximum([s0 + sc * cos + ss * np.sin(2 * thetas), t0 + tc * cos], 0.0))
    best = float(thetas[np.argmax(r1 + p * r2)])
    return float(newton(np.array([2 * best]), 2)[0]) if abs(best) < theta0 else best


@dataclass(frozen=True)
class AthetaFamily:
    """The family of spheres A_theta making up the alpha-set of a line pair.

    A member of A_theta has the form
    ``(a/c) cos(theta) e1 + (a/d) sin(theta) eh2 + h`` with h orthogonal to
    e1 and e2 and ||h|| = rho(theta), where eh2 = e2_phase * e2 is the
    phase-corrected second basis vector inherited from the pair canonical
    form (the family is a different set for a different phase).  The
    weights must satisfy c >= d > 0, c^2 + d^2 = 1 and c > a.  The family is
    itself the descriptor component of a pair alpha-set.
    """

    e1: Line
    e2: Line
    c: float
    d: float
    alpha: float
    theta0: float
    ambient_dim: int
    e2_phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.e1.dim != self.ambient_dim or self.e2.dim != self.ambient_dim:
            raise DimensionError("basis lines do not match the ambient dimension")
        check_orthonormal_pair(self.e1, self.e2)
        theta0, _ = theta0_and_rho(self.cfg, self.c, self.d)
        check_close(abs(self.e2_phase), 1.0, 1e-12, "e2_phase must be unimodular")
        check_close(self.theta0, theta0, 1e-12, f"theta0 {self.theta0} is not the cutoff {theta0} of (alpha, c, d)")

    @cached_property
    def cfg(self) -> AlphaConfig:
        return AlphaConfig.from_alpha(self.alpha)

    @property
    def e2_vector(self) -> np.ndarray:
        return self.e2_phase * self.e2.amplitudes

    def rho(self, theta):
        return _rho(self.cfg.a, self.c, self.d, self.theta0, theta)

    def _center(self, theta: float) -> np.ndarray:
        """Center (a/c) cos(theta) e1 + (a/d) sin(theta) eh2 of the sphere A_theta."""
        a = self.cfg.a
        return (a / self.c) * math.cos(theta) * self.e1.amplitudes + (
            a / self.d
        ) * math.sin(theta) * self.e2_vector

    @cached_property
    def _complement(self) -> np.ndarray:
        return orthonormal_complement(np.vstack([self.e1.amplitudes, self.e2.amplitudes]))

    def sample(self, count: int, rng: np.random.Generator) -> list[Line]:
        comp = self._complement
        thetas = rng.uniform(-self.theta0, self.theta0, size=count)
        radii = self.rho(thetas)
        return [_sphere_point(self._center(th), r, comp, rng) for th, r in zip(thetas, radii)]

    def distance(self, v: Line) -> float:
        """Angular distance from a line to the nearest member of the family.

        The nearest member maximises F = |x| + p rho, x(theta) being v's overlap
        with A_theta's center and p the norm of v's part off e1 and e2.  Squared,
        F' = 0 is a degree-3 trigonometric polynomial G in 2 theta: the candidates
        are +-theta0, 0 and at most six stationary points.  G's roots are near-double
        when c ~ d, losing half their digits, so each is polished on F' instead.
        """
        a = self.cfg.a
        x1 = inner(v, self.e1) * (a / self.c)
        x2 = complex(np.vdot(v.amplitudes, self.e2_vector)) * (a / self.d)
        comp = self._complement
        pnorm = float(np.linalg.norm(comp.conj() @ v.amplitudes)) if comp.size else 0.0
        th = _argmax_theta(x1, x2, pnorm, a / self.c, a / self.d, self.theta0)
        return _sphere_distance(v, self._center(th), self.rho(th), comp)


@dataclass(frozen=True)
class CircleComponent:
    """The circle {[c e1 + lambda d e2] : |lambda| = 1}: a descriptor component
    and the input of the symmetry classification."""

    e1: Line
    e2: Line
    c: float
    d: float

    def __post_init__(self):
        check_weighted_basis(self.e1, self.e2, self.c, self.d)

    @property
    def dim(self) -> int:
        return self.e1.dim

    def member(self, lam: complex) -> Line:
        return circle_member(self.e1, self.e2, self.c, self.d, lam)

    def sample(self, count: int, rng: np.random.Generator) -> list[Line]:
        phis = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return [self.member(np.exp(1j * p)) for p in phis]

    def distance(self, v: Line) -> float:
        """The circle is the sphere of radius d about c e1 inside span{e2}."""
        return _sphere_distance(v, self.c * self.e1.amplitudes, self.d, self.e2.amplitudes[None])


@dataclass(frozen=True)
class SphereSliceComponent:
    """Lines of the form [q * axis + h] with h of norm sqrt(1 - q^2), orthogonal to a basis."""

    axis: Line
    coefficient: float
    radius: float = field(init=False)
    orthogonal_to: tuple[Line, ...]

    def __post_init__(self):
        if not -1.0 <= self.coefficient <= 1.0:
            raise ParameterError(f"slice coefficient must be in [-1, 1], got {self.coefficient}")
        object.__setattr__(self, "radius", math.sqrt(1.0 - self.coefficient**2))
        if any(l.dim != self.axis.dim for l in self.orthogonal_to):
            raise DimensionError("orthogonal_to lines do not match the axis dimension")

    @cached_property
    def _complement(self) -> np.ndarray:
        rows = [self.axis.amplitudes] + [l.amplitudes for l in self.orthogonal_to]
        return orthonormal_complement(np.vstack(rows))

    def sample(self, count: int, rng: np.random.Generator) -> list[Line]:
        center = self.coefficient * self.axis.amplitudes
        return [_sphere_point(center, self.radius, self._complement, rng) for _ in range(count)]

    def distance(self, v: Line) -> float:
        return _sphere_distance(v, self.coefficient * self.axis.amplitudes, self.radius, self._complement)


@dataclass(frozen=True)
class PointComponent:
    """A single isolated line."""

    line: Line

    def sample(self, count: int, rng: np.random.Generator) -> list[Line]:
        return [self.line] * count

    def distance(self, v: Line) -> float:
        return quantum_angle(v, self.line)


Component = CircleComponent | SphereSliceComponent | PointComponent | AthetaFamily

#: The wire name of each component class.
_KIND_OF = {AthetaFamily: "atheta", CircleComponent: "circle", SphereSliceComponent: "slice", PointComponent: "point"}

#: The encoder of each annotated field type (a string: annotations are postponed).
_WIRE = {
    "Line": Line.to_json,
    "float": float,
    "int": int,
    "complex": complex_json,
    "tuple[Line, ...]": lambda ls: [l.to_json() for l in ls],
}


def _component_to_json(comp: Component) -> dict:
    """``{"kind": ...}``, then each dataclass field under its own name, in declaration order."""
    return {"kind": _KIND_OF[type(comp)], **{f.name: _WIRE[f.type](getattr(comp, f.name)) for f in fields(comp)}}


@dataclass(frozen=True)
class AlphaSetDescriptor:
    """Symbolic description of an alpha-set or double-alpha-set.

    The described set is the disjoint union of the components; infinite
    components are never enumerated.
    """

    components: tuple[Component, ...]

    def sample(self, count: int, rng: np.random.Generator) -> list[Line]:
        """Draw roughly ``count`` member lines, spread across components."""
        k = len(self.components)
        base, extra = divmod(count, k)
        out = []
        for i, comp in enumerate(self.components):
            out.extend(comp.sample(base + (1 if i < extra else 0), rng))
        return out

    def distance(self, v: Line) -> float:
        """Angular distance from a line to the nearest component."""
        return min(comp.distance(v) for comp in self.components)

    def to_json(self) -> dict:
        return {"components": [_component_to_json(comp) for comp in self.components]}


def pair_alpha_set(v1: Line, v2: Line, cfg: AlphaConfig) -> AlphaSetDescriptor:
    """Descriptor of the alpha-set of two distinct lines.

    The ambient dimension must be at least 3.  Every member lies at angle
    alpha from both generators.
    """
    if v1.dim < 3:
        raise DimensionError("pair alpha-sets need ambient dimension >= 3")
    pair = canonical_pair_form(v1, v2)
    theta0, _ = theta0_and_rho(cfg, pair.c, pair.d)
    fam = AthetaFamily(
        pair.e1, pair.e2, pair.c, pair.d, cfg.alpha, theta0, v1.dim, pair.e2_phase
    )
    return AlphaSetDescriptor((fam,))


def _check_triple(t: TripleCanonicalForm, ambient_dim: int) -> None:
    """An ambient dimension >= 3 that the canonical form lives in, and pairwise distinct lambdas."""
    if ambient_dim < 3:
        raise DimensionError("alpha-sets of a triple need ambient dimension >= 3")
    if t.e1.dim != ambient_dim:
        raise DimensionError("canonical form does not match the ambient dimension")
    lams = t.lambdas
    if any(abs(x - y) < 1e-9 for i, x in enumerate(lams) for y in lams[i + 1 :]):
        raise DegenerateTripleError("repeated lambda values")


def collinear_triple_alpha_set(
    t: TripleCanonicalForm, cfg: AlphaConfig, ambient_dim: int
) -> AlphaSetDescriptor:
    """Descriptor of the alpha-set of a collinear triple in canonical form.

    One sphere slice along e1 when a > d; an additional slice along e2 when
    a <= d.  A slice of radius zero degenerates to a single line.
    """
    _check_triple(t, ambient_dim)
    a, c, d = cfg.a, t.c, t.d
    _check_profile_weights(a, c, d)
    basis = (t.e1, t.e2)
    comps: list[Component] = [SphereSliceComponent(t.e1, a / c, basis)]
    # Ties a = d are resolved inside the exact-matching band: the square root
    # would otherwise blow representation noise in d up to a spurious thin
    # slice.
    if abs(a - d) <= EXCEPTIONAL_TOL:
        comps.append(PointComponent(t.e2))
    elif a < d:  # beyond the tie band, so the slice radius is at least about 1.4e-6
        comps.append(SphereSliceComponent(t.e2, a / d, basis))
    return AlphaSetDescriptor(tuple(comps))


#: Enumerated verdict reasons of :func:`classify_circle`; the four dimension-3
#: reasons are the cases of :func:`_dim3_case`.
REASON_DIM_GE_4 = "dim-at-least-4"
REASON_SINGLE_CIRCLE = "dim3-single-circle"
REASON_SECOND_COMPONENT = "dim3-second-component"
REASON_EXC_DOUBLE_CIRCLE = "dim3-exceptional-double-circle"
REASON_EXC_CIRCLE_POINT = "dim3-exceptional-circle-point"

REASONS = (
    REASON_DIM_GE_4, REASON_SINGLE_CIRCLE, REASON_SECOND_COMPONENT, REASON_EXC_DOUBLE_CIRCLE, REASON_EXC_CIRCLE_POINT
)

HIGHLY_SYMMETRIC = "HighlySymmetric"
NOT_HIGHLY_SYMMETRIC = "NotHighlySymmetric"


def _dim3_case(a: float, c: float, d: float) -> tuple[str, dict[str, float]]:
    """The dimension-3 case split of the double-alpha-set, and its margins.

    Returns the reason (exceptional double circle, exceptional circle-point,
    second component or single circle) with the distances of a to the two
    boundaries compared: ``weight_tie`` |a - d| and
    ``second_component_boundary`` |c/sqrt(1 + c^2) - a|.  A second component
    survives when (a, c, d) matches one of the two exceptional triples
    within 1e-12, or when c/sqrt(1 + c^2) >= a > d (floating comparison with
    margin 1e-10).
    """
    tie, boundary = a - d, c / math.sqrt(1.0 + c * c) - a
    margins = {"weight_tie": abs(tie), "second_component_boundary": abs(boundary)}
    for reason, triple in zip((REASON_EXC_DOUBLE_CIRCLE, REASON_EXC_CIRCLE_POINT), EXCEPTIONAL_TRIPLES):
        if all(abs(x - e) <= EXCEPTIONAL_TOL for x, e in zip((a, c, d), triple)):
            return reason, margins
    if boundary >= -CASE_MARGIN and tie > CASE_MARGIN:
        return REASON_SECOND_COMPONENT, margins
    return REASON_SINGLE_CIRCLE, margins


def has_second_double_component(cfg: AlphaConfig, c: float, d: float) -> bool:
    """Case split for dimension 3: does the double-alpha-set keep a second component?

    True in every case of :func:`_dim3_case` but the single circle.
    """
    return _dim3_case(cfg.a, c, d)[0] != REASON_SINGLE_CIRCLE


@dataclass(frozen=True)
class SymmetryVerdict:
    """Classification outcome with the deciding clause and boundary margins; the
    tag is read off the clause."""

    reason: str
    margins: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.reason not in REASONS:
            raise ParameterError(f"unknown verdict reason {self.reason!r}")

    @property
    def tag(self) -> str:
        return HIGHLY_SYMMETRIC if self.reason in (REASON_DIM_GE_4, REASON_SINGLE_CIRCLE) else NOT_HIGHLY_SYMMETRIC

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "reason": self.reason,
            "margins": {k: float(v) for k, v in sorted(self.margins.items())},
        }


def classify_circle(circle: CircleComponent, cfg: AlphaConfig) -> SymmetryVerdict:
    """Decide whether a circle is highly symmetric for the configured angle.

    Ambient dimension >= 4 always gives a positive verdict.  In dimension 3
    the circle is highly symmetric exactly when :func:`_dim3_case`, on its
    sorted weights (c >= d), finds the single circle.  The margins are that
    split's in every dimension.
    """
    cfg.require_classification_range()
    if circle.dim < 3:
        raise RangeError("classification needs ambient dimension >= 3")
    reason, margins = _dim3_case(cfg.a, max(circle.c, circle.d), min(circle.c, circle.d))
    if circle.dim >= 4:
        reason = REASON_DIM_GE_4
    return SymmetryVerdict(reason, margins)


def _second_double_component(
    e1: Line, e2: Line, e3: Line, cfg: AlphaConfig, c: float
) -> Component:
    """Second component of the dimension-3 double-alpha-set in case one.

    The circle [c' e2 + lambda d' e3] with c' = sqrt(1 - a^2/(1 - a^2/c^2))
    and d' = a / sqrt(1 - a^2/c^2); it degenerates to the single line [e3]
    exactly at the boundary c/sqrt(1 + c^2) = a.
    """
    a = cfg.a
    r1sq = 1.0 - (a / c) ** 2
    cprime_sq = 1.0 - a * a / r1sq
    if cprime_sq <= CASE_MARGIN:
        return PointComponent(e3)
    cprime = math.sqrt(cprime_sq)
    dprime = a / math.sqrt(r1sq)
    return CircleComponent(e2, e3, cprime, dprime)


def double_alpha_set_classify(
    t: TripleCanonicalForm, cfg: AlphaConfig, ambient_dim: int
) -> AlphaSetDescriptor:
    """Descriptor of the double-alpha-set of a collinear triple.

    For ambient dimension >= 4 this is always the circle through the three
    lines.  In dimension 3 a second component (circle or single line) appears
    exactly in the parameter region tested by
    :func:`has_second_double_component`.
    """
    cfg.require_classification_range()
    _check_triple(t, ambient_dim)
    circle = CircleComponent(t.e1, t.e2, t.c, t.d)
    if ambient_dim >= 4 or not has_second_double_component(cfg, t.c, t.d):
        return AlphaSetDescriptor((circle,))
    e3 = canonical_line(orthonormal_complement(np.vstack([t.e1.amplitudes, t.e2.amplitudes]))[0])
    return AlphaSetDescriptor((circle, _second_double_component(t.e1, t.e2, e3, cfg, t.c)))


@dataclass(frozen=True)
class Cardinality:
    """Cardinality verdict for A_theta intersected with a third line's alpha-set.

    ``margin`` is the distance of a = cos(alpha) to the nearest decision
    boundary, for callers operating close to it.
    """

    tag: str  # "zero" | "one" | "infinite"
    margin: float

    def __post_init__(self):
        if self.tag not in ("zero", "one", "infinite"):
            raise ParameterError(f"unknown cardinality tag {self.tag!r}")


ZERO, ONE, INFINITE = "zero", "one", "infinite"


def atheta_cardinality(
    fam: AthetaFamily,
    theta: float,
    v3coeffs: tuple[complex, complex, float],
    cfg: AlphaConfig,
) -> Cardinality:
    """Cardinality of A_theta intersected with the alpha-set of a third line.

    The third line is c1 e1 + c2 e2 + c3 e3 with c3 > 0 real and unit norm,
    c1 and c2 being its coordinates along ``fam.e1`` and ``fam.e2``.  The
    center of A_theta lies along eh2 = e2_phase e2, so writing
    z(theta) = c1 (a/c) cos theta + c2 conj(e2_phase) (a/d) sin theta and
    r = c3 rho(theta), the intersection is infinite iff |z| - r < a < |z| + r
    or (z = 0 and rho = a/c3), a single line iff z != 0 and a coincides with
    |z| +- r, and empty otherwise; all comparisons use the declared band
    1e-9.  ``cfg`` must hold the family's own alpha, else a ``ParameterError``;
    a theta outside [-theta0, theta0], or NaN, is the ``DomainError`` of
    ``fam.rho``.
    """
    if cfg.alpha != fam.alpha:
        raise ParameterError(f"cfg alpha {cfg.alpha} differs from the family's alpha {fam.alpha}")
    c1, c2, c3 = complex(v3coeffs[0]), complex(v3coeffs[1]), float(v3coeffs[2])
    if c3 <= 0:
        raise ParameterError("c3 must be strictly positive")
    m1, m2 = abs(c1), abs(c2)  # products: a huge modulus squares to inf, where ** 2 raises
    check_close(m1 * m1 + m2 * m2 + c3 * c3, 1.0, 1e-10, "|c1|^2 + |c2|^2 + c3^2 != 1")

    a = cfg.a
    r = c3 * fam.rho(theta)  # first: its domain check refuses an infinite theta before math.cos does
    z = c1 * (a / fam.c) * math.cos(theta) + c2 * fam.e2_phase.conjugate() * (a / fam.d) * math.sin(theta)
    az = abs(z)
    lo, hi = az - r, az + r
    margin = min(abs(a - lo), abs(a - hi))

    if az <= CARDINALITY_TOL:
        if r - a > -CARDINALITY_TOL:
            return Cardinality(INFINITE, margin)
        return Cardinality(ZERO, margin)
    if margin < CARDINALITY_TOL:
        return Cardinality(ONE, margin)
    if lo < a < hi:
        return Cardinality(INFINITE, margin)
    return Cardinality(ZERO, margin)


def counterexample_witness(
    cfg: AlphaConfig, c: float, d: float, t: float | None = None
) -> tuple[Line, Line, Line, Line]:
    """Four dimension-3 lines showing a two-component double-alpha-set is not highly symmetric.

    Returns (u1, u2, u3, w): the first three belong to the double-alpha-set
    of the canonical triple with parameters (c, d), all three lie at angle
    alpha from w, yet w does not belong to the triple's alpha-set.  The
    parameters must fall in the two-component case.  w lies at the offset t
    from e1 towards e2; u1 and u2 are the circle's members at angle alpha
    from w, u3 the second component's.  With cos beta = c and sin beta = d,
    both components have such members exactly for
    0 < t < min(2 beta, pi/2 - beta) (sin t < cos beta = c there); t
    defaults to beta / 2 = arcsin(d) / 2, inside that interval.  A t
    outside it, or one that rounding leaves without those members, is a
    ``WitnessRangeError``; one so small that w comes within 1e-6 of the
    alpha-set fails the post-check, a ``ParameterError``.
    """
    cfg.require_classification_range()
    a = cfg.a
    check_weights(c, d)
    if not has_second_double_component(cfg, c, d):
        raise CaseError("parameters lie in the single-circle case")
    beta = math.asin(d)
    if t is None:
        t = beta / 2
    hi = min(2 * beta, np.pi / 2 - beta)
    if not (0.0 < t < hi):
        raise WitnessRangeError(f"t {t} outside (0, {hi})")

    e1 = canonical_line([1.0, 0.0, 0.0])
    e2 = canonical_line([0.0, 1.0, 0.0])
    e3 = canonical_line([0.0, 0.0, 1.0])

    r1 = math.sqrt(1.0 - (a / c) ** 2)
    w_vec = (a / c) * math.cos(t) * e1.amplitudes + (a / c) * math.sin(
        t
    ) * e2.amplitudes + r1 * e3.amplitudes
    w = canonical_line(w_vec)

    # Two members of the circle and one of the second component, all at angle alpha from w.
    members = circle_members_at(e1, e2, c, d, w, a)
    second = _second_double_component(e1, e2, e3, cfg, c)
    if isinstance(second, PointComponent):
        members.append(second.line)
    else:
        members += circle_members_at(second.e1, second.e2, second.c, second.d, w, a)[1:]
    if len(members) != 3:
        raise WitnessRangeError(f"offset t {t} leaves a component without a member at angle alpha from w")
    u2, u1, u3 = members

    # Post-conditions: verified here so a returned witness is always valid.
    pseudo = TripleCanonicalForm(e1, e2, c, d, (1.0 + 0j, 1j, -1j))
    double = double_alpha_set_classify(pseudo, cfg, 3)
    first = collinear_triple_alpha_set(pseudo, cfg, 3)
    for u in (u1, u2, u3):
        if double.distance(u) > 1e-9:
            raise ParameterError("witness construction failed a membership post-check")
        if abs(quantum_angle(w, u) - cfg.alpha) > 1e-9:
            raise ParameterError("witness construction failed an angle post-check")
    if first.distance(w) <= 1e-6:
        raise ParameterError("witness line unexpectedly close to the alpha-set")
    return u1, u2, u3, w


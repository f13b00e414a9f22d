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

Descriptors are immutable and never enumerated; sampling members and
measuring the angular distance from a line to a descriptor are explicit
operations.

Distances need no search: the nearest member of a pair alpha-set is the best of
+-theta0 and at most six stationary points of the fidelity F, the roots of the
degree-3 trigonometric polynomial G that squaring F' = 0 leaves.  G's roots are
near-double when c ~ d, so each is polished by Newton steps on F' itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    CaseError,
    DegenerateTripleError,
    DimensionError,
    DomainError,
    ParameterError,
    SchemaError,
    WitnessRangeError,
)
from .projspace import (
    AlphaConfig,
    Line,
    TripleCanonicalForm,
    canonical_line,
    canonical_pair_form,
    check_weighted_basis,
    inner,
    json_complex,
    json_field,
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
    """Parameter domain of the radius profile: c >= d > 0, c^2 + d^2 = 1, c > a."""
    if not (c >= d > 0):
        raise ParameterError(f"need c >= d > 0, got c={c}, d={d}")
    if abs(c * c + d * d - 1.0) > 1e-12:
        raise ParameterError("c^2 + d^2 != 1")
    if c <= a:
        raise ParameterError(f"need c > a, got c={c}, a={a}")


def _rho(a: float, c: float, d: float, theta0: float, theta):
    """rho(theta) = sqrt(1 - (a/c)^2 cos^2 theta - (a/d)^2 sin^2 theta) on [-theta0, theta0]."""
    th = np.asarray(theta, dtype=float)
    if np.any(np.abs(th) > theta0 + 1e-12):
        raise DomainError(f"theta outside [-{theta0}, {theta0}]")
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
    raises DomainError outside [-theta0, theta0].
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


def _sphere_distance(
    v: Line, center: np.ndarray, radius: float, comp: np.ndarray, overlap: complex
) -> float:
    """Angular distance from v to the nearest [center + radius h], h a unit vector in the row span of comp.

    ``overlap`` is <v, center>.  The nearest line is built explicitly so that
    near-zero distances are not lost to arccos round-off.
    """
    if comp.size and radius > 0:
        coords = comp.conj() @ v.amplitudes
        pnorm = float(np.linalg.norm(coords))
        hdir = (coords @ comp) / pnorm if pnorm > 1e-15 else comp[0]
        phase = overlap / abs(overlap) if abs(overlap) > 1e-15 else 1.0
        center = center + phase * radius * hdir
    return quantum_angle(v, canonical_line(center))


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
        check_weighted_basis(self.e1, self.e2, self.c, self.d)
        _check_profile_weights(self.cfg.a, self.c, self.d)
        if abs(abs(self.e2_phase) - 1.0) > 1e-12:
            raise ParameterError("e2_phase must be unimodular")
        a = math.cos(self.alpha)
        if a > self.d:
            res = (a / self.c) ** 2 * math.cos(self.theta0) ** 2 + (
                a / self.d
            ) ** 2 * math.sin(self.theta0) ** 2
            if abs(res - 1.0) > 1e-12:
                raise ParameterError("theta0 does not solve the cutoff equation")
        elif abs(self.theta0 - np.pi / 2) > 1e-12:
            raise ParameterError("theta0 must be pi/2 when a <= d")

    @property
    def cfg(self) -> AlphaConfig:
        return AlphaConfig.from_alpha(self.alpha)

    @property
    def e2_vector(self) -> np.ndarray:
        return self.e2_phase * self.e2.amplitudes

    def rho(self, theta):
        return _rho(self.cfg.a, self.c, self.d, self.theta0, theta)

    def _center(self, theta: float) -> np.ndarray:
        """Center (a/c) cos(theta) e1 + (a/d) sin(theta) eh2 of the sphere A_theta."""
        a = math.cos(self.alpha)
        return (a / self.c) * math.cos(theta) * self.e1.amplitudes + (
            a / self.d
        ) * math.sin(theta) * self.e2_vector

    def _complement(self) -> np.ndarray:
        return orthonormal_complement(
            np.vstack([self.e1.amplitudes, self.e2.amplitudes]), self.ambient_dim
        )

    def sample(self, count: int, rng: np.random.Generator) -> list[Line]:
        comp = self._complement()
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
        if v.dim != self.ambient_dim:
            raise DimensionError("line dimension does not match the family")
        a = math.cos(self.alpha)
        x1 = inner(v, self.e1) * (a / self.c)
        x2 = complex(np.vdot(v.amplitudes, self.e2_vector)) * (a / self.d)
        comp = self._complement()
        pnorm = float(np.linalg.norm(comp.conj() @ v.amplitudes)) if comp.size else 0.0
        th = _argmax_theta(x1, x2, pnorm, a / self.c, a / self.d, self.theta0)
        overlap = x1 * math.cos(th) + x2 * math.sin(th)
        return _sphere_distance(v, self._center(th), self.rho(th), comp, overlap)

    def to_json(self) -> dict:
        return {
            "kind": "atheta",
            "e1": self.e1.to_json(),
            "e2": self.e2.to_json(),
            "c": self.c,
            "d": self.d,
            "alpha": self.alpha,
            "theta0": self.theta0,
            "ambient_dim": self.ambient_dim,
            "e2_phase": {"re": float(self.e2_phase.real), "im": float(self.e2_phase.imag)},
        }


@dataclass(frozen=True)
class CircleComponent:
    """The circle {[c e1 + lambda d e2] : |lambda| = 1}.

    Also exported as ``Circle``: the same object is a descriptor component
    and the input of the symmetry classification.
    """

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
        return canonical_line(self.c * self.e1.amplitudes + lam * self.d * self.e2.amplitudes)

    def sample(self, count: int, rng: np.random.Generator) -> list[Line]:
        phis = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return [self.member(np.exp(1j * p)) for p in phis]

    def distance(self, v: Line) -> float:
        # Build the nearest member explicitly so tiny distances stay resolvable.
        p = inner(v, self.e1)
        q = inner(v, self.e2)
        if abs(p) > 1e-15 and abs(q) > 1e-15:
            lam = p * np.conj(q) / (abs(p) * abs(q))
        else:
            lam = 1.0
        return quantum_angle(v, self.member(lam))

    def to_json(self) -> dict:
        return {
            "kind": "circle",
            "e1": self.e1.to_json(),
            "e2": self.e2.to_json(),
            "c": self.c,
            "d": self.d,
        }


Circle = CircleComponent


@dataclass(frozen=True)
class SphereSliceComponent:
    """Lines of the form [q * axis + h] with h of fixed norm, orthogonal to a basis."""

    axis: Line
    coefficient: float
    radius: float
    orthogonal_to: tuple[Line, ...]

    def __post_init__(self):
        if abs(self.coefficient**2 + self.radius**2 - 1.0) > 1e-10:
            raise ParameterError("coefficient^2 + radius^2 != 1")

    def _complement(self) -> np.ndarray:
        rows = [self.axis.amplitudes] + [l.amplitudes for l in self.orthogonal_to]
        return orthonormal_complement(np.vstack(rows), self.axis.dim)

    def sample(self, count: int, rng: np.random.Generator) -> list[Line]:
        comp = self._complement()
        center = self.coefficient * self.axis.amplitudes
        return [_sphere_point(center, self.radius, comp, rng) for _ in range(count)]

    def distance(self, v: Line) -> float:
        overlap = self.coefficient * inner(v, self.axis)
        return _sphere_distance(
            v, self.coefficient * self.axis.amplitudes, self.radius, self._complement(), overlap
        )

    def to_json(self) -> dict:
        return {
            "kind": "slice",
            "axis": self.axis.to_json(),
            "coefficient": self.coefficient,
            "radius": self.radius,
            "orthogonal_to": [l.to_json() for l in self.orthogonal_to],
        }


@dataclass(frozen=True)
class PointComponent:
    """A single isolated line."""

    line: Line

    def sample(self, count: int, rng: np.random.Generator) -> list[Line]:
        return [self.line] * count

    def distance(self, v: Line) -> float:
        return quantum_angle(v, self.line)

    def to_json(self) -> dict:
        return {"kind": "point", "line": self.line.to_json()}


Component = CircleComponent | SphereSliceComponent | PointComponent | AthetaFamily


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
        return {"components": [comp.to_json() for comp in self.components]}


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


def _check_distinct_lambdas(lambdas) -> None:
    lams = list(lambdas)
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if abs(lams[i] - lams[j]) < 1e-9:
                raise DegenerateTripleError("repeated lambda values")


def _triple_alpha_components(
    e1: Line, e2: Line, c: float, d: float, cfg: AlphaConfig
) -> tuple[Component, ...]:
    """Components of the alpha-set of {[c e1 + lambda_j d e2]} with >= 3 distinct lambdas."""
    a = cfg.a
    if c <= a:
        raise ParameterError(f"need c > a, got c={c}, a={a}")
    basis = (e1, e2)
    r1 = math.sqrt(max(0.0, 1.0 - (a / c) ** 2))
    comps: list[Component] = [SphereSliceComponent(e1, a / c, r1, basis)]
    # Ties a = d are resolved inside the exact-matching band: the square root
    # would otherwise blow representation noise in d up to a spurious thin
    # slice.
    if abs(a - d) <= EXCEPTIONAL_TOL:
        comps.append(PointComponent(e2))
    elif a < d:
        r2 = math.sqrt(max(0.0, 1.0 - (a / d) ** 2))
        if r2 <= 1e-9:
            comps.append(PointComponent(e2))
        else:
            comps.append(SphereSliceComponent(e2, a / d, r2, basis))
    return tuple(comps)


def collinear_triple_alpha_set(
    t: TripleCanonicalForm, cfg: AlphaConfig, ambient_dim: int
) -> AlphaSetDescriptor:
    """Descriptor of the alpha-set of a collinear triple in canonical form.

    One sphere slice along e1 when a > d; an additional slice along e2 when
    a <= d.  A slice of radius zero degenerates to a single line.
    """
    if ambient_dim < 3:
        raise DimensionError("triple alpha-sets need ambient dimension >= 3")
    if t.e1.dim != ambient_dim:
        raise DimensionError("canonical form does not match the ambient dimension")
    _check_distinct_lambdas(t.lambdas)
    return AlphaSetDescriptor(_triple_alpha_components(t.e1, t.e2, t.c, t.d, cfg))


def matches_exceptional_triple(a: float, c: float, d: float) -> int | None:
    """Index of the exceptional (a, c, d) triple matched within 1e-12, else None."""
    for i, (ea, ec, ed) in enumerate(EXCEPTIONAL_TRIPLES):
        if abs(a - ea) <= EXCEPTIONAL_TOL and abs(c - ec) <= EXCEPTIONAL_TOL and abs(d - ed) <= EXCEPTIONAL_TOL:
            return i
    return None


def has_second_double_component(cfg: AlphaConfig, c: float, d: float) -> bool:
    """Case split for dimension 3: does the double-alpha-set keep a second component?

    True when c/sqrt(1 + c^2) >= a > d (floating comparison with margin
    1e-10), or when (a, c, d) matches one of the two exceptional triples
    within 1e-12.
    """
    a = cfg.a
    if matches_exceptional_triple(a, c, d) is not None:
        return True
    return (c / math.sqrt(1.0 + c * c) - a >= -CASE_MARGIN) and (a - d > CASE_MARGIN)


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
    if ambient_dim < 3:
        raise DimensionError("double-alpha-sets need ambient dimension >= 3")
    if t.e1.dim != ambient_dim:
        raise DimensionError("canonical form does not match the ambient dimension")
    _check_distinct_lambdas(t.lambdas)

    circle = CircleComponent(t.e1, t.e2, t.c, t.d)
    if ambient_dim >= 4:
        return AlphaSetDescriptor((circle,))
    if has_second_double_component(cfg, t.c, t.d):
        comp = orthonormal_complement(
            np.vstack([t.e1.amplitudes, t.e2.amplitudes]), 3
        )
        e3 = canonical_line(comp[0])
        return AlphaSetDescriptor(
            (circle, _second_double_component(t.e1, t.e2, e3, cfg, t.c))
        )
    return AlphaSetDescriptor((circle,))


@dataclass(frozen=True)
class Cardinality:
    """Cardinality verdict for A_theta intersected with a third line's alpha-set.

    ``margin`` is the distance of a = cos(alpha) to the nearest decision
    boundary, for callers operating close to it.
    """

    tag: str  # "zero" | "one" | "infinite"
    margin: float = float("nan")

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

    The third line is c1 e1 + c2 e2 + c3 e3 with c3 > 0 real and unit norm.
    Writing z(theta) = c1 (a/c) cos theta + c2 (a/d) sin theta and
    r = c3 rho(theta), the intersection is infinite iff |z| - r < a < |z| + r
    or (z = 0 and rho = a/c3), a single line iff z != 0 and a coincides with
    |z| +- r, and empty otherwise; all comparisons use the declared band
    1e-9.
    """
    c1, c2, c3 = complex(v3coeffs[0]), complex(v3coeffs[1]), float(v3coeffs[2])
    if c3 <= 0:
        raise ParameterError("c3 must be strictly positive")
    if abs(abs(c1) ** 2 + abs(c2) ** 2 + c3 * c3 - 1.0) > 1e-10:
        raise ParameterError("|c1|^2 + |c2|^2 + c3^2 != 1")
    if abs(theta) > fam.theta0 + 1e-12:
        raise DomainError(f"theta {theta} outside [-{fam.theta0}, {fam.theta0}]")

    a = cfg.a
    z = c1 * (a / fam.c) * math.cos(theta) + c2 * (a / fam.d) * math.sin(theta)
    r = c3 * fam.rho(theta)
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
    cfg: AlphaConfig, c: float, d: float, t: float
) -> tuple[Line, Line, Line, Line]:
    """Four dimension-3 lines showing a two-component double-alpha-set is not highly symmetric.

    Returns (u1, u2, u3, w): the first three belong to the double-alpha-set
    of the canonical triple with parameters (c, d), all three lie at angle
    alpha from w, yet w does not belong to the triple's alpha-set.  The
    parameters must fall in the two-component case; the offset t must be
    small enough for the guard inequalities to hold.
    """
    cfg.require_classification_range()
    a = cfg.a
    if not (c >= d > 0) or abs(c * c + d * d - 1.0) > 1e-12:
        raise ParameterError("invalid (c, d)")
    if not has_second_double_component(cfg, c, d):
        raise CaseError("parameters lie in the single-circle case")
    if not (0.0 < t < np.pi / 2):
        raise WitnessRangeError(f"t {t} outside (0, pi/2)")

    e1 = canonical_line([1.0, 0.0, 0.0])
    e2 = canonical_line([0.0, 1.0, 0.0])
    e3 = canonical_line([0.0, 0.0, 1.0])

    r1 = math.sqrt(1.0 - (a / c) ** 2)
    w_vec = (a / c) * math.cos(t) * e1.amplitudes + (a / c) * math.sin(
        t
    ) * e2.amplitudes + r1 * e3.amplitudes
    w = canonical_line(w_vec)

    big_a = a * math.cos(t)
    big_b = (a * d / c) * math.sin(t)
    if not (0.0 < big_a - big_b < a < big_a + big_b):
        raise WitnessRangeError("offset t violates the circle guard inequality")

    cos_phi = (a * a - big_a * big_a - big_b * big_b) / (2.0 * big_a * big_b)
    phi = math.acos(min(max(cos_phi, -1.0), 1.0))
    lam = np.exp(-1j * phi)
    u1 = canonical_line(c * e1.amplitudes + lam * d * e2.amplitudes)
    u2 = canonical_line(c * e1.amplitudes + np.conj(lam) * d * e2.amplitudes)

    cprime_sq = 1.0 - a * a / (r1 * r1)
    if cprime_sq <= CASE_MARGIN:
        u3 = e3
    else:
        cprime = math.sqrt(cprime_sq)
        bp = cprime * (a / c) * math.sin(t)
        if not (0.0 < a - bp):
            raise WitnessRangeError("offset t violates the second-component guard")
        cos_psi = -bp / (2.0 * a)
        psi = math.acos(min(max(cos_psi, -1.0), 1.0))
        mu = np.exp(-1j * psi)
        dprime = a / r1
        u3 = canonical_line(cprime * e2.amplitudes + mu * dprime * e3.amplitudes)

    # Post-conditions: verified here so a returned witness is always valid.
    pseudo = TripleCanonicalForm(e1, e2, c, d, (1.0 + 0j, 1j, -1j))
    double = double_alpha_set_classify(pseudo, cfg, 3)
    first = AlphaSetDescriptor(_triple_alpha_components(e1, e2, c, d, cfg))
    for u in (u1, u2, u3):
        if double.distance(u) > 1e-9:
            raise ParameterError("witness construction failed a membership post-check")
        if abs(quantum_angle(w, u) - cfg.alpha) > 1e-9:
            raise ParameterError("witness construction failed an angle post-check")
    if first.distance(w) <= 1e-6:
        raise ParameterError("witness line unexpectedly close to the alpha-set")
    return u1, u2, u3, w


def descriptor_from_json(obj: dict) -> AlphaSetDescriptor:
    """Inverse of AlphaSetDescriptor.to_json; a mistyped or missing field is a SchemaError."""

    def line(c: dict, key: str) -> Line:
        return Line.from_json(json_field(c, key, dict))

    def num(c: dict, key: str) -> float:
        return json_field(c, key, float)

    comps: list[Component] = []
    for c in json_field(obj, "components", list):
        kind = json_field(c, "kind", str)
        if kind == "circle":
            comps.append(CircleComponent(line(c, "e1"), line(c, "e2"), num(c, "c"), num(c, "d")))
        elif kind == "slice":
            comps.append(
                SphereSliceComponent(
                    line(c, "axis"),
                    num(c, "coefficient"),
                    num(c, "radius"),
                    tuple(Line.from_json(l) for l in json_field(c, "orthogonal_to", list)),
                )
            )
        elif kind == "point":
            comps.append(PointComponent(line(c, "line")))
        elif kind == "atheta":
            phase = json_complex(json_field(c, "e2_phase", dict, {"re": 1.0, "im": 0.0}), 0)
            comps.append(
                AthetaFamily(
                    line(c, "e1"),
                    line(c, "e2"),
                    num(c, "c"),
                    num(c, "d"),
                    num(c, "alpha"),
                    num(c, "theta0"),
                    json_field(c, "ambient_dim", int),
                    complex(phase),
                )
            )
        else:
            raise SchemaError(f"unknown component kind {kind!r}")
    if not comps:
        raise SchemaError("field 'components' must hold at least one component")
    return AlphaSetDescriptor(tuple(comps))

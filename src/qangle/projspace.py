"""Lines in complex projective space, the quantum angle, and canonical forms.

A line is a one-dimensional subspace of C^n, represented by a unit vector in
a fixed phase gauge so that equal lines have (numerically) equal
representatives.  The quantum angle between two lines [u], [v] is
``arccos |<u, v>|``; inner products follow the convention
``<u, v> = sum(conj(u_i) * v_i)``.

Besides the metric itself, this module provides the canonical form of a pair
of distinct lines ([v1] = [c e1 + i d e2], [v2] = [c e1 - i d e2]) and of a
collinear triple ([v_j] = [c e1 + lambda_j d e2]), which downstream modules
use to describe alpha-sets in closed form.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePairError,
    DegenerateTripleError,
    DegenerateVectorError,
    DimensionError,
    NotCollinearError,
    ParameterError,
    QAngleError,
    RangeError,
    SchemaError,
)

NORM_TOL = 1e-12
GAUGE_TOL = 1e-12
LINE_EQUALITY_TOL = 1e-9
COLLINEARITY_TOL = 1e-9

#: Hard cap on ambient dimension; infinite-dimensional spaces are out of scope.
MAX_DIM = 16


def _check_finite(amps: np.ndarray) -> None:
    """Refuse a NaN or infinite amplitude, naming the first one, before any norm is taken."""
    finite = np.isfinite(amps)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ParameterError(f"amplitude {k} is not finite: {amps[k]}")


def check_dim(dim: int) -> None:
    """Refuse a dimension below 2 or above MAX_DIM before anything dim-sized is allocated."""
    if dim < 2:
        raise ParameterError(f"dim must be >= 2, got {dim}")
    if dim > MAX_DIM:
        raise DimensionError(f"dim {dim} outside supported range [2, {MAX_DIM}]")


def check_seed(seed) -> int:
    """``seed`` as an ``int`` (numpy integers pass), once it is integral and in [0, 2**64)."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ParameterError(f"seed must be an integer, got {type(seed).__name__}") from None
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def check_close(value: float, target: float, tol: float, message: str) -> None:
    """Refuse ``value`` with a ParameterError carrying ``message`` unless |value - target| <= tol; NaN is refused."""
    if not abs(value - target) <= tol:
        raise ParameterError(message)


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is negative or NaN; zero is allowed."""
    if not tol >= 0:
        raise ParameterError(f"tol must be >= 0, got {tol}")


_REQUIRED = object()


def _is_number(val) -> bool:
    """True for a JSON number (an int or float, never a boolean) within the finite float range."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= sys.float_info.max


def json_field(obj: dict, key: str, kind: type, default=_REQUIRED):
    """``obj[key]`` as a JSON value of ``kind`` (int, float, bool, str, list or dict), else SchemaError.

    An int is never a boolean; a float is any finite JSON number, returned as
    a float.  A missing key gives ``default`` if one is passed.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object holding {key!r}, got {type(obj).__name__}")
    if key not in obj:
        if default is _REQUIRED:
            raise SchemaError(f"missing field {key!r}")
        return default
    val = obj[key]
    if kind is float and _is_number(val):
        return float(val)
    if kind is not float and isinstance(val, kind) and not (kind is int and isinstance(val, bool)):
        return val
    raise SchemaError(f"field {key!r} must be {kind.__name__}, got {val!r}")


def _json_numbers(obj: dict, key: str, ndim: int) -> np.ndarray:
    """``obj[key]`` as a float array: finite JSON numbers nested exactly ``ndim`` deep, rectangular."""
    arr = np.array(json_field(obj, key, list if ndim else float), dtype=object)
    if arr.ndim != ndim or not all(_is_number(x) for x in arr.flat):
        raise SchemaError(f"field {key!r} must be a rectangular {ndim}-deep nesting of finite numbers")
    return arr.astype(float)


def complex_json(values) -> dict:
    """``{"re": ..., "im": ...}`` of a complex number or array, as deep as ``values``; inverse of json_complex."""
    values = np.asarray(values, dtype=complex)
    return {"re": values.real.tolist(), "im": values.imag.tolist()}


def json_complex(obj: dict, ndim: int) -> np.ndarray:
    """``obj["re"] + i obj["im"]``, each part copied bit for bit, else SchemaError.

    Both parts must be finite JSON numbers nested exactly ``ndim`` deep (0 for
    plain numbers), rectangular and of equal shape.
    """
    re, im = _json_numbers(obj, "re", ndim), _json_numbers(obj, "im", ndim)
    if re.shape != im.shape:
        raise SchemaError(f"re and im must have the same shape, got {re.shape} and {im.shape}")
    out = re.astype(complex)
    out.imag = im
    return out


@dataclass(frozen=True)
class AlphaConfig:
    """The fixed quantum angle alpha (radians) and its cosine a.

    Membership-style operations accept any 0 < alpha < pi/2; classification
    operations additionally require pi/4 < alpha < pi/2 (i.e. 0 < a < 1/sqrt 2).
    """

    alpha: float
    a: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (0.0 < self.alpha < np.pi / 2):
            raise ParameterError(f"alpha {self.alpha} outside (0, pi/2)")
        object.__setattr__(self, "a", float(np.cos(self.alpha)))

    @staticmethod
    def from_alpha(radians: float) -> "AlphaConfig":
        return AlphaConfig(radians)

    @property
    def in_classification_range(self) -> bool:
        return np.pi / 4 < self.alpha < np.pi / 2

    def require_classification_range(self):
        if not self.in_classification_range:
            raise RangeError(f"alpha {self.alpha} outside classification range (pi/4, pi/2)")


@dataclass(frozen=True, eq=False)
class Line:
    """A point of P(C^n): a unit vector in canonical phase gauge.

    Invariants: the amplitudes are finite, their Euclidean norm is 1 within
    1e-12, and the first amplitude of modulus > 1e-12 is real and strictly
    positive.  Use :func:`canonical_line` to build a Line from an arbitrary
    vector.
    """

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.dim,):
            raise DimensionError(f"expected {self.dim} amplitudes, got shape {amps.shape}")
        if self.dim < 1 or self.dim > MAX_DIM:
            raise DimensionError(f"dim {self.dim} outside supported range [1, {MAX_DIM}]")
        _check_finite(amps)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ParameterError(f"amplitudes not normalized: |v| = {norm}")
        big = np.abs(amps) > GAUGE_TOL
        k = int(np.argmax(big))
        lead = amps[k]
        if not big[k] or abs(lead.imag) > GAUGE_TOL or lead.real <= 0:
            raise ParameterError("amplitudes violate the canonical phase gauge")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def to_json(self) -> dict:
        return {"dim": self.dim, **complex_json(self.amplitudes)}

    @staticmethod
    def from_json(obj: dict) -> "Line":
        """Inverse of to_json.  A wire line that is not a valid Line is a SchemaError."""
        dim = json_field(obj, "dim", int)
        amps = json_complex(obj, 1)
        try:
            return Line(dim, amps)
        except QAngleError as exc:
            raise SchemaError(f"not a valid line: {exc}") from exc


def canonical_line(vector) -> Line:
    """Normalize and phase-gauge a raw complex vector into a Line.

    The gauge turns the first amplitude above ``GAUGE_TOL`` of the unit
    vector real positive.  Raises ParameterError for a non-finite amplitude
    and DegenerateVectorError when the vector norm is below 1e-9.  A finite
    vector whose norm overflows (above about 1.34e154) is first divided by
    its largest |re| or |im|.  For any unimodular lambda,
    ``canonical_line(lambda * v)`` equals ``canonical_line(v)`` as a line.
    """
    v = np.asarray(vector, dtype=complex).reshape(-1)
    _check_finite(v)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if not math.isfinite(n):
        v = v / max(np.max(np.abs(v.real)), np.max(np.abs(v.imag)))
        n = np.linalg.norm(v)
    if n <= 1e-9:
        raise DegenerateVectorError(f"vector norm {n} too small")
    v = v / n
    lead = v[int(np.argmax(np.abs(v) > GAUGE_TOL))]
    return Line(v.shape[0], v * (lead.conjugate() / abs(lead)))


def inner(u: Line, v: Line) -> complex:
    """Hermitian inner product of the representatives, conjugate-linear in the first slot."""
    if u.dim != v.dim:
        raise DimensionError(f"dims {u.dim} and {v.dim} differ")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def quantum_angle(u: Line, v: Line) -> float:
    """Quantum angle arccos|<u, v>| between two lines; symmetric and gauge-invariant.

    Near-identical lines are handled through the orthogonal residual
    (arcsin of its norm), since the arccos form cannot resolve angles below
    the square root of machine epsilon.  The residual is evaluated in a
    fixed argument order, which keeps the result bit-identical under swaps.
    """
    m = abs(inner(u, v))
    if m < 0.999:
        return float(np.arccos(m))
    a, b = (
        (u, v)
        if u.amplitudes.tobytes() <= v.amplitudes.tobytes()
        else (v, u)
    )
    z = np.vdot(a.amplitudes, b.amplitudes)
    perp = b.amplitudes - z * a.amplitudes
    return float(np.arcsin(min(1.0, float(np.linalg.norm(perp)))))


def lines_equal(u: Line, v: Line, tol: float = LINE_EQUALITY_TOL) -> bool:
    """Lines are equal iff their quantum angle is below ``tol`` (default 1e-9)."""
    return quantum_angle(u, v) < tol


def orthonormal_complement(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis (rows) of the Hermitian orthogonal complement of the row span.

    Rows h of the result satisfy <v, h> = sum(conj(v_i) h_i) = 0 for every
    input row v.  Deterministic: computed from the right singular vectors.
    """
    mat = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if mat.shape[1] != dim:
        raise DimensionError(f"vectors have length {mat.shape[1]}, expected {dim}")
    _, s, vh = np.linalg.svd(mat.conj(), full_matrices=True)
    rank = int(np.sum(s > 1e-10))
    return vh[rank:].conj()


def check_weights(c: float, d: float) -> None:
    """Refuse canonical weights unless c >= d > 0 and c^2 + d^2 = 1 within NORM_TOL (a NaN fails)."""
    if not c >= d > 0:
        raise ParameterError(f"need c >= d > 0, got c={c}, d={d}")
    check_close(c * c + d * d, 1.0, NORM_TOL, "c^2 + d^2 != 1")


def check_orthonormal_pair(e1: Line, e2: Line) -> None:
    """Refuse a basis pair unless |<e1, e2>| <= 1e-10: the one basis rule of every circle."""
    if abs(inner(e1, e2)) > 1e-10:
        raise ParameterError("basis pair is not orthonormal")


def check_weighted_basis(e1: Line, e2: Line, c: float, d: float) -> None:
    """Validate the weighted orthonormal pair behind [c e1 + lambda d e2].

    Raises ParameterError unless e1 and e2 pass :func:`check_orthonormal_pair`
    and the weights, larger first, pass :func:`check_weights`; so c < d is allowed.
    """
    check_orthonormal_pair(e1, e2)
    check_weights(*((d, c) if c < d else (c, d)))


def random_line(rng: np.random.Generator, dim: int) -> Line:
    """A line from a complex-Gaussian vector: real parts drawn first, then imaginary."""
    return canonical_line(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_orthonormal_pair(rng: np.random.Generator, dim: int) -> tuple[Line, Line]:
    """Two orthogonal lines: the QR factor of a complex-Gaussian dim x 2 matrix."""
    g = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, _ = np.linalg.qr(g)
    return canonical_line(q[:, 0]), canonical_line(q[:, 1])


def distinct_unimodular_triple(rng: np.random.Generator, min_gap: float) -> tuple:
    """Three unimodular numbers, pairwise further apart than ``min_gap``."""
    while True:
        lams = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        if min(abs(lams[i] - lams[j]) for i in range(3) for j in range(i + 1, 3)) > min_gap:
            return tuple(lams)


def lambdas_at_modulus(p: complex, q: complex, m: float) -> list[complex]:
    """Both unimodular lambda with |p + lambda q| = m, for nonzero p and q, by the law of cosines.

    |p + lambda q|^2 = |p|^2 + |q|^2 + 2 |p q| cos psi for lambda = e^{+-i psi} p conj(q) / |p q|;
    the e^{+i psi} root comes first.  ``[]`` when cos psi misses [-1, 1] by more than 1e-12.
    """
    cos_psi = (m * m - abs(p) ** 2 - abs(q) ** 2) / (2.0 * abs(p) * abs(q))
    if abs(cos_psi) > 1.0 + 1e-12:
        return []
    psi = math.acos(min(max(cos_psi, -1.0), 1.0))
    base = np.conj(q * np.conj(p)) / abs(q * p)
    return [base * np.exp(1j * psi), base * np.exp(-1j * psi)]


def circle_member(e1: Line, e2: Line, c: float, d: float, lam: complex) -> Line:
    """The member [c e1 + lam d e2] of the circle over the pair (e1, e2)."""
    return canonical_line(c * e1.amplitudes + lam * d * e2.amplitudes)


def circle_members_at(e1: Line, e2: Line, c: float, d: float, x: Line, m: float) -> list[Line]:
    """The circle members u with |<x, u>| = m, one per root of :func:`lambdas_at_modulus`, in its order."""
    lams = lambdas_at_modulus(c * inner(x, e1), d * inner(x, e2), m)
    return [circle_member(e1, e2, c, d, lam) for lam in lams]


@dataclass(frozen=True)
class PairCanonicalForm:
    """Orthonormal pair (e1, e2) and weights c >= d > 0 with c^2 + d^2 = 1.

    Encodes two distinct lines as [v1] = [c e1 + i d eh2] and
    [v2] = [c e1 - i d eh2], where eh2 = e2_phase * e2.  Both basis lines are
    stored in canonical gauge, which cannot in general coexist with the exact
    synthesis relation, so the leftover unimodular factor on e2 is kept
    explicitly.
    """

    e1: Line
    e2: Line
    c: float
    d: float
    e2_phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        check_orthonormal_pair(self.e1, self.e2)
        check_weights(self.c, self.d)
        check_close(abs(self.e2_phase), 1.0, NORM_TOL, "e2_phase must be unimodular")

    @property
    def e2_vector(self) -> np.ndarray:
        """The phase-corrected second basis vector used by the synthesis relation."""
        return self.e2_phase * self.e2.amplitudes

    def synthesize(self) -> tuple[Line, Line]:
        """The two lines [c e1 + i d eh2], [c e1 - i d eh2] encoded by this form."""
        return tuple(circle_member(self.e1, self.e2, self.c, self.d, lam * self.e2_phase) for lam in (1j, -1j))


@dataclass(frozen=True)
class TripleCanonicalForm:
    """Canonical form of a collinear triple: [v_j] = [c e1 + lambda_j d e2]."""

    e1: Line
    e2: Line
    c: float
    d: float
    lambdas: tuple[complex, complex, complex]

    def __post_init__(self):
        check_orthonormal_pair(self.e1, self.e2)
        check_weights(self.c, self.d)
        for lam in self.lambdas:
            check_close(abs(lam), 1.0, NORM_TOL, f"lambda {lam} not unimodular")

    def synthesize(self) -> tuple[Line, Line, Line]:
        return tuple(circle_member(self.e1, self.e2, self.c, self.d, lam) for lam in self.lambdas)


def canonical_pair_form(v1: Line, v2: Line) -> PairCanonicalForm:
    """Canonical form of two distinct lines.

    Aligns phases so that <v1, v2> >= 0, then splits along the orthogonal
    directions v1 + v2 and v1 - v2.  Orthogonal inputs are allowed and give
    c = d = 1/sqrt(2); coincident inputs raise DegeneratePairError.
    """
    if v1.dim != v2.dim:
        raise DimensionError(f"dims {v1.dim} and {v2.dim} differ")
    if lines_equal(v1, v2):
        raise DegeneratePairError("v1 and v2 coincide as lines")
    a1 = v1.amplitudes
    z = np.vdot(a1, v2.amplitudes)
    a2 = v2.amplitudes * (z.conjugate() / abs(z)) if abs(z) > 0 else v2.amplitudes

    s = a1 + a2
    t = a1 - a2
    c = float(np.linalg.norm(s) / 2.0)
    d = float(np.linalg.norm(t) / 2.0)
    e1v = s / (2.0 * c)
    e2v = t / (2.0j * d)
    # One Gram-Schmidt pass keeps orthogonality tight for nearly coincident pairs.
    e2v = e2v - np.vdot(e1v, e2v) * e1v
    e2v = e2v / np.linalg.norm(e2v)

    e1 = canonical_line(e1v)
    e2 = canonical_line(e2v)
    # Phase making v1 = c e1 + i d (phase * e2) exact after the gauge fixing.
    p = np.vdot(e1.amplitudes, a1)
    q = np.vdot(e2.amplitudes, a1)
    phase = -1j * q * p.conjugate() / (c * d)
    phase /= abs(phase)
    return PairCanonicalForm(e1, e2, c, d, complex(phase))


def is_collinear(v1: Line, v2: Line, v3: Line) -> bool:
    """True iff the three lines span a subspace of dimension at most two.

    Decided by the third singular value of the stacked representatives
    (threshold 1e-9); lines of C^2 have no third one and are always collinear.
    """
    if not (v1.dim == v2.dim == v3.dim):
        raise DimensionError("lines live in different dimensions")
    mat = np.vstack([v1.amplitudes, v2.amplitudes, v3.amplitudes])
    s = np.linalg.svd(mat, compute_uv=False)
    return bool(s.size < 3 or s[2] < COLLINEARITY_TOL)


def canonical_triple_form(v1: Line, v2: Line, v3: Line) -> TripleCanonicalForm:
    """Canonical form of three pairwise distinct collinear lines.

    Builds the pair form of (v1, v2), rotates the resulting basis by the
    smallest angle t in [0, pi/2) that equalizes all three overlap moduli,
    and reads off c >= d > 0 together with the three unimodular factors.
    The equalizing function is a pure sinusoid in 2t, so t has a closed
    form; when it vanishes identically (within 1e-15) t = 0 is kept.  When
    c and d tie, the basis produced by the construction is kept unchanged.
    """
    if not is_collinear(v1, v2, v3):
        raise NotCollinearError("input lines are not collinear")
    for x, y in ((v1, v2), (v1, v3), (v2, v3)):
        if lines_equal(x, y):
            raise DegenerateTripleError("two of the three lines coincide")

    pair = canonical_pair_form(v1, v2)
    # The phase-corrected basis is what makes |<v1, e(t)>| = |<v2, e(t)>| hold
    # for every rotation angle t.
    f1, f2 = pair.e1.amplitudes, pair.e2_vector

    # v3 lies in span{f1, f2} up to the collinearity tolerance; project it in.
    p3 = np.vdot(f1, v3.amplitudes)
    q3 = np.vdot(f2, v3.amplitudes)
    w3 = p3 * f1 + q3 * f2
    w3 = w3 / np.linalg.norm(w3)
    p3 = np.vdot(f1, w3)
    q3 = np.vdot(f2, w3)

    # The equalizing function h(t) = |<cos(t) f1 + sin(t) f2, w3>|^2
    # - (c^2 cos^2 t + d^2 sin^2 t) equals p + q cos 2t + r sin 2t, and
    # p = (|p3|^2 + |q3|^2 - c^2 - d^2) / 2 vanishes; t is its leftmost zero.
    q = ((abs(p3) ** 2 - pair.c**2) - (abs(q3) ** 2 - pair.d**2)) / 2.0
    r = float((p3.conjugate() * q3).real)
    t = 0.0 if math.hypot(q, r) < 1e-15 else ((math.atan2(r, q) + np.pi / 2) % np.pi) / 2.0
    e1 = canonical_line(np.cos(t) * f1 + np.sin(t) * f2)
    e2 = canonical_line(-np.sin(t) * f1 + np.cos(t) * f2)

    # Expansion against the gauge-fixed basis; the unimodular factors absorb
    # all leftover phases, so [v_j] = [c e1 + lambda_j d e2] holds exactly.
    reps = [v1.amplitudes, v2.amplitudes, w3]
    ps = [np.vdot(e1.amplitudes, r) for r in reps]
    qs = [np.vdot(e2.amplitudes, r) for r in reps]
    c = float(np.mean([abs(p) for p in ps]))
    d = float(np.mean([abs(q) for q in qs]))
    if c < d:
        e1, e2 = e2, e1
        ps, qs = qs, ps
        c, d = d, c
    if d <= 1e-12:
        raise DegenerateTripleError("triple degenerates to a single line")
    lambdas = tuple(
        complex((q / abs(q)) * (p.conjugate() / abs(p))) for p, q in zip(ps, qs)
    )
    return TripleCanonicalForm(e1, e2, c, d, lambdas)

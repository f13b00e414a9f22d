"""Wigner symmetries: application, reconstruction, and angle-preservation testing.

A Wigner symmetry acts on lines as [v] -> [U v] for a unitary U, or
[v] -> [U conj(v)] for an antiunitary one.  Two operators induce the same
map exactly when they differ by a unimodular scalar, which is what makes
reconstruction from finitely many probe lines possible.

Also covered here: the exotic dimension-2 maps that preserve only the angle
pi/4 (by optionally swapping each image with its orthocomplement), and the
circle-intersection and bridge-basis machinery used to show that angle
preserving maps send projective lines onto projective lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NotAWignerMapError,
    ParameterError,
    SpanError,
)
from .projspace import (
    AlphaConfig, Line, canonical_line, check_close, check_dim, check_orthonormal_pair, check_seed, check_tol,
    circle_member, circle_members_at, complex_json, json_complex, json_field, lines_equal, quantum_angle, random_line,
)


@dataclass(frozen=True)
class WignerSymmetry:
    """A unitary or antiunitary operator acting on projective space."""

    dim: int
    matrix: np.ndarray
    antiunitary: bool

    def __post_init__(self):
        check_dim(self.dim)
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionError(f"matrix shape {m.shape} does not match dim {self.dim}")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry leaves dev NaN or inf
            dev = np.max(np.abs(m.conj().T @ m - np.eye(self.dim)))
        check_close(dev, 0.0, 1e-10, f"matrix is not unitary: deviation {dev}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def to_json(self) -> dict:
        return {"dim": self.dim, "antiunitary": bool(self.antiunitary), **complex_json(self.matrix)}

    @staticmethod
    def from_json(obj: dict) -> "WignerSymmetry":
        return WignerSymmetry(
            json_field(obj, "dim", int), json_complex(obj, 2), json_field(obj, "antiunitary", bool)
        )


def random_wigner(dim: int, seed: int, antiunitary: bool = False) -> WignerSymmetry:
    """Haar-distributed symmetry: QR of a seeded complex-Gaussian matrix with
    the triangular factor's diagonal normalized to be real positive.  The
    seed must be an integer in [0, 2**64)."""
    check_dim(dim)
    rng = np.random.default_rng(check_seed(seed))
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    ph = np.diag(r) / np.abs(np.diag(r))
    return WignerSymmetry(dim, q * ph[None, :], antiunitary)


def apply_symmetry(w: WignerSymmetry, v: Line) -> Line:
    """Image of a line, canonical-gauged.  Preserves every quantum angle."""
    if w.dim != v.dim:
        raise DimensionError(f"symmetry dim {w.dim} != line dim {v.dim}")
    vec = v.amplitudes.conj() if w.antiunitary else v.amplitudes
    return canonical_line(w.matrix @ vec)


def inverse_symmetry(w: WignerSymmetry) -> WignerSymmetry:
    """The symmetry inducing the inverse map on lines."""
    if w.antiunitary:
        return WignerSymmetry(w.dim, w.matrix.T, True)
    return WignerSymmetry(w.dim, w.matrix.conj().T, False)


def compose_symmetries(w1: WignerSymmetry, w2: WignerSymmetry) -> WignerSymmetry:
    """The symmetry inducing v -> w1(w2(v)).

    Antiunitary flags xor; the right matrix is conjugated when the left
    factor is antiunitary.
    """
    if w1.dim != w2.dim:
        raise DimensionError("dims differ")
    m2 = w2.matrix.conj() if w1.antiunitary else w2.matrix
    return WignerSymmetry(w1.dim, w1.matrix @ m2, w1.antiunitary != w2.antiunitary)


def same_induced_map(w1: WignerSymmetry, w2: WignerSymmetry, tol: float = 1e-9) -> bool:
    """True iff the two symmetries act identically on every line.

    Holds exactly when the antiunitary flags match and w2 w1^dagger is a
    unimodular multiple of the identity (within ``tol``).
    """
    if w1.dim != w2.dim:
        raise DimensionError("dims differ")
    if w1.antiunitary != w2.antiunitary:
        return False
    m = w2.matrix @ w1.matrix.conj().T
    diag = np.diag(m)
    k = int(np.argmax(np.abs(diag)))
    lam = diag[k]
    if abs(lam) < tol:
        return False
    return bool(np.max(np.abs(m - lam * np.eye(w1.dim))) < tol)


def probe_set(dim: int) -> list[Line]:
    """The 3*dim - 2 probe lines, in normative enumeration order.

    First the basis lines [e_j] for j = 1..n, then [(e_1 + e_j)/sqrt2] for
    j = 2..n, then [(e_1 + i e_j)/sqrt2] for j = 2..n.
    """
    check_dim(dim)
    eye = np.eye(dim, dtype=complex)
    probes = [canonical_line(eye[j]) for j in range(dim)]
    probes += [canonical_line((eye[0] + eye[j]) / np.sqrt(2)) for j in range(1, dim)]
    probes += [canonical_line((eye[0] + 1j * eye[j]) / np.sqrt(2)) for j in range(1, dim)]
    return probes


def fit_from_probes(dim: int, images: list[Line]) -> WignerSymmetry:
    """Reconstruct the symmetry from the images of the probe lines.

    Columns come from the basis-line images, relative phases from the
    [(e_1+e_j)/sqrt2] images.  Both flags are then fitted: the unitary and
    the antiunitary candidate on those columns each map every probe, and the
    one with the smaller worst probe residual is kept (the
    [(e_1 + i e_j)/sqrt2] probes tell them apart).  Images inconsistent with
    every symmetry (residual above 1e-8 on some probe under the kept
    candidate) raise NotAWignerMapError carrying the worst probe.
    """
    probes = probe_set(dim)
    if len(images) != len(probes):
        raise ParameterError(f"expected {len(probes)} images, got {len(images)}")
    for img in images:
        if img.dim != dim:
            raise DimensionError("image dimension mismatch")

    cols = np.empty((dim, dim), dtype=complex)
    cols[:, 0] = images[0].amplitudes
    for j in range(1, dim):
        wj = images[dim + j - 1].amplitudes
        beta = np.vdot(images[0].amplitudes, wj)
        gamma = np.vdot(images[j].amplitudes, wj)
        if abs(beta) < 1e-6 or abs(gamma) < 1e-6:
            raise NotAWignerMapError(
                "superposition probe image has no overlap with a basis image",
                probe_index=dim + j - 1,
                residual=float(min(abs(beta), abs(gamma))),
            )
        mu = gamma / beta
        cols[:, j] = (mu / abs(mu)) * images[j].amplitudes

    ortho_dev = float(np.max(np.abs(cols.conj().T @ cols - np.eye(dim))))
    if ortho_dev > 1e-8:
        raise NotAWignerMapError(
            "recovered columns are not orthonormal", probe_index=0, residual=ortho_dev
        )

    best = None
    for anti in (False, True):
        cand = WignerSymmetry(dim, cols, anti)
        residuals = [
            quantum_angle(apply_symmetry(cand, p), img)
            for p, img in zip(probes, images)
        ]
        worst = int(np.argmax(residuals))
        if best is None or residuals[worst] < best[1]:
            best = (cand, residuals[worst], worst)
    cand, res, worst = best
    if res > 1e-8:
        raise NotAWignerMapError(
            f"probe {worst} off by {res} under the best candidate",
            probe_index=worst,
            residual=res,
        )
    return cand


#: Most pairs :func:`preservation_report` draws per direction: a hundred times
#: the CLI's default of 200, as ``cli.MAX_DRAWS`` bounds ``verify --draws``.
MAX_PAIRS = 20_000


@dataclass(frozen=True)
class PreservationReport:
    """Counts of angle-preservation failures over constructed test pairs."""

    forward_violations: int
    backward_violations: int
    max_deviation: float
    pairs_tested: int

    def __post_init__(self):
        if self.forward_violations + self.backward_violations > self.pairs_tested:
            raise ParameterError("violation counts exceed pairs tested")

    def to_json(self) -> dict:
        return {
            "forwardViolations": self.forward_violations,
            "backwardViolations": self.backward_violations,
            "maxDeviation": self.max_deviation,
            "pairsTested": self.pairs_tested,
        }


def _partner_at_angle(v: Line, angle: float, rng: np.random.Generator) -> Line:
    """A line at the exact quantum angle ``angle`` from v, drawn from its alpha-sphere."""
    w = rng.standard_normal(v.dim) + 1j * rng.standard_normal(v.dim)
    w = w - np.vdot(v.amplitudes, w) * v.amplitudes
    n = np.linalg.norm(w)
    if n < 1e-12:
        return _partner_at_angle(v, angle, rng)
    return canonical_line(math.cos(angle) * v.amplitudes + math.sin(angle) * (w / n))


def preservation_report(
    map_fn,
    cfg: AlphaConfig,
    dim: int,
    n_pairs: int,
    seed: int,
    tol: float = 1e-9,
    inverse_fn=None,
) -> PreservationReport:
    """Test whether a line map preserves the configured angle in both directions.

    Forward: ``n_pairs`` pairs at exactly alpha (second line drawn from the
    first's alpha-sphere) must map to pairs at alpha within ``tol``.
    Backward: image pairs at alpha are pulled back through ``inverse_fn``
    when available; independently, pairs constructed at the complementary
    angle pi/2 - alpha probe for images landing at alpha without the sources
    being at alpha.  Finite sampling can refute but not certify, and
    ``n_pairs`` must be at least 1 so that a report always rests on a sample,
    and at most ``MAX_PAIRS``; ``tol`` must be >= 0 and ``seed`` an integer
    in [0, 2**64).  Each is checked before anything is drawn.
    """
    if not 1 <= n_pairs <= MAX_PAIRS:
        raise ParameterError(f"n_pairs must be in [1, {MAX_PAIRS}], got {n_pairs}")
    check_tol(tol)
    rng = np.random.default_rng(check_seed(seed))
    alpha = cfg.alpha
    fwd = 0
    bwd = 0
    max_dev = 0.0
    tested = 0

    for _ in range(n_pairs):
        v1 = random_line(rng, dim)
        v2 = _partner_at_angle(v1, alpha, rng)
        dev = abs(quantum_angle(map_fn(v1), map_fn(v2)) - alpha)
        max_dev = max(max_dev, dev)
        tested += 1
        if dev > tol:
            fwd += 1

    beta = np.pi / 2 - alpha
    if 0.0 < beta < np.pi / 2:
        for _ in range(n_pairs):
            v1 = random_line(rng, dim)
            v2 = _partner_at_angle(v1, beta, rng)
            img_dev = abs(quantum_angle(map_fn(v1), map_fn(v2)) - alpha)
            src_dev = abs(quantum_angle(v1, v2) - alpha)
            tested += 1
            if img_dev <= tol and src_dev > 10 * tol:
                bwd += 1
                max_dev = max(max_dev, src_dev)

    if inverse_fn is not None:
        for _ in range(n_pairs):
            x1 = map_fn(random_line(rng, dim))
            x2 = _partner_at_angle(x1, alpha, rng)
            w1 = inverse_fn(x1)
            w2 = inverse_fn(x2)
            if not lines_equal(map_fn(w2), x2, 1e-6):
                continue  # x2 happens to fall outside the image of the map
            dev = abs(quantum_angle(w1, w2) - alpha)
            max_dev = max(max_dev, dev)
            tested += 1
            if dev > tol:
                bwd += 1

    return PreservationReport(fwd, bwd, max_dev, tested)


def orthocomplement_dim2(v: Line) -> Line:
    """The unique line orthogonal to a given line of a two-dimensional space."""
    if v.dim != 2:
        raise DimensionError("orthocomplement of a line is only unique in dimension 2")
    a, b = v.amplitudes
    return canonical_line(np.array([-np.conj(b), np.conj(a)]))


def exotic_pi4_map(psi: WignerSymmetry, selector):
    """A dimension-2 map sending [v] to psi([v]) or its orthocomplement.

    Every map of this shape preserves the angle pi/4 in both directions (and
    generally no other angle once the selector is non-constant).  The
    selector is evaluated on the canonical-gauge representative, so it is
    well defined on lines.
    """
    if psi.dim != 2:
        raise DimensionError("exotic maps exist only in dimension 2")

    def phi(v: Line) -> Line:
        img = apply_symmetry(psi, v)
        return orthocomplement_dim2(img) if selector(v) else img

    return phi


_C0_VALUES = (1.0 / math.sqrt(2.0), math.sqrt(7.0 / 12.0))


def _check_same_span(e1: Line, e2: Line, f1: Line, f2: Line) -> None:
    if len({l.dim for l in (e1, e2, f1, f2)}) != 1:
        raise DimensionError("the four basis lines live in different dimensions")
    check_orthonormal_pair(e1, e2)
    check_orthonormal_pair(f1, f2)
    for f in (f1, f2):
        proj = (
            np.vdot(e1.amplitudes, f.amplitudes) * e1.amplitudes
            + np.vdot(e2.amplitudes, f.amplitudes) * e2.amplitudes
        )
        if np.linalg.norm(f.amplitudes - proj) > 1e-9:
            raise SpanError("bases do not span the same two-dimensional subspace")


def circle_intersection(
    e1: Line, e2: Line, f1: Line, f2: Line, c0: float
) -> list[Line]:
    """Common lines of the circles with weights (c0, sqrt(1-c0^2)) over two bases.

    Supported c0 values are 1/sqrt(2) and sqrt(7/12).  Writing the first
    basis overlap as |<e1, f1>| = afrak, the sqrt(7/12) circles meet in two
    lines exactly when afrak > 1/6; the 1/sqrt(2) circles always meet in at
    least two lines.  Coincident circles return two representative common
    lines.
    """
    if not any(abs(c0 - val) <= 1e-12 for val in _C0_VALUES):
        raise ParameterError(f"unsupported circle weight c0 = {c0}")
    _check_same_span(e1, e2, f1, f2)
    d0 = math.sqrt(1.0 - c0 * c0)

    big_a = c0 * abs(np.vdot(e1.amplitudes, f1.amplitudes))
    big_b = d0 * abs(np.vdot(e2.amplitudes, f1.amplitudes))
    if big_b < 1e-12 or big_a < 1e-12:
        # f1 aligned with e1 (resp. e2): the circles either coincide or miss.
        attained = big_a if big_b < 1e-12 else big_b
        if abs(attained - c0) < 1e-9:
            return [circle_member(e1, e2, c0, d0, lam) for lam in (1j, -1j)]
        return []

    out = circle_members_at(e1, e2, c0, d0, f1, c0)
    if out and lines_equal(*out):
        out = out[:1]  # tangent circles: the two roots coincide
    for line in out:
        res = abs(abs(np.vdot(f1.amplitudes, line.amplitudes)) - c0)
        if res > 1e-9:
            raise ParameterError(f"intersection candidate failed verification: {res}")
    return out


def bridge_basis(
    e1: Line, e2: Line, f1: Line, f2: Line, cfg: AlphaConfig
) -> tuple[Line, Line]:
    """A basis whose circle meets both given circles, in the a = 1/sqrt(3) regime.

    When 1/6 < |<e1, f1>| the original basis already works and is returned
    unchanged.  Otherwise the rotated basis g1 = (e1 + mu e2)/sqrt2,
    g2 = (e1 - mu e2)/sqrt2 is returned, with mu the relative phase from the
    canonical form of f1; both overlaps |<g1, e1>| and |<g1, f1>| then
    exceed 1/6.
    """
    if abs(cfg.a - 1.0 / math.sqrt(3.0)) > 1e-9:
        raise ParameterError("bridge construction applies to the a = 1/sqrt(3) regime")
    _check_same_span(e1, e2, f1, f2)

    p = np.vdot(e1.amplitudes, f1.amplitudes)
    afrak = abs(p)
    if afrak > 1.0 / 6.0:
        return e1, e2

    q = np.vdot(e2.amplitudes, f1.amplitudes)
    tau = np.conj(p) / afrak if afrak > 1e-12 else 1.0
    qn = q * tau
    mu = qn / abs(qn)
    s = 1 / math.sqrt(2)
    g1, g2 = (circle_member(e1, e2, s, s, lam) for lam in (mu, -mu))

    if abs(np.vdot(g1.amplitudes, e1.amplitudes)) <= 1.0 / 6.0 + 1e-10:
        raise ParameterError("bridge post-check against the first basis failed")
    if abs(np.vdot(g1.amplitudes, f1.amplitudes)) <= 1.0 / 6.0 + 1e-10:
        raise ParameterError("bridge post-check against the second basis failed")
    return g1, g2

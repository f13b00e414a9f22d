"""Independent brute-force verification of alpha-set claims.

Everything here avoids the closed-form descriptors on purpose: lines are
found by rejection sampling on seeded clouds and polished by projected
gradient descent on the angle-residual sum, so the results can be compared
against the symbolic machinery as an independent check.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .alphasets import AlphaConfig
from .errors import DimensionError, ParameterError
from .projspace import GAUGE_TOL, MAX_DIM, Line, canonical_line, quantum_angle

_HEADER = struct.Struct("<QQQ")

# Largest count * dim of a cloud (256 MB of amplitudes): four times the
# 1 000 000 lines of dimension 4 that the acceptance criteria sample.
MAX_CLOUD_ENTRIES = 16_000_000


@dataclass(frozen=True)
class SampleCloud:
    """A reproducible batch of canonical-gauged random lines.

    The representatives are stored as the rows of ``vectors``; ``line(i)``
    materializes a single row as a :class:`Line`.
    """

    dim: int
    vectors: np.ndarray
    seed: int

    def __post_init__(self):
        self.vectors.flags.writeable = False

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def line(self, i: int) -> Line:
        return Line(self.dim, self.vectors[i].copy())


def sample_lines(dim: int, count: int, seed: int) -> SampleCloud:
    """Independent complex-Gaussian lines, normalized and gauged; deterministic per seed."""
    if dim < 2:
        raise ParameterError(f"dim must be >= 2, got {dim}")
    if dim > MAX_DIM:
        raise DimensionError(f"dim {dim} outside supported range [2, {MAX_DIM}]")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if count * dim > MAX_CLOUD_ENTRIES:
        raise ParameterError(f"{count} lines of dimension {dim} exceed {MAX_CLOUD_ENTRIES} amplitudes")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    idx = np.argmax(np.abs(v) > GAUGE_TOL, axis=1)
    lead = v[np.arange(count), idx]
    v *= (lead.conj() / np.abs(lead))[:, None]
    return SampleCloud(dim, v, seed)


def save_cloud(cloud: SampleCloud, path) -> None:
    """Persist a cloud: header (dim, count, seed as little-endian uint64), then
    little-endian doubles with re/im interleaved per amplitude."""
    flat = np.empty(cloud.count * cloud.dim * 2, dtype="<f8")
    flat[0::2] = cloud.vectors.real.reshape(-1)
    flat[1::2] = cloud.vectors.imag.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(cloud.dim, cloud.count, cloud.seed))
        fh.write(flat.tobytes())


def load_cloud(path) -> SampleCloud:
    with open(path, "rb") as fh:
        dim, count, seed = _HEADER.unpack(fh.read(_HEADER.size))
        flat = np.frombuffer(fh.read(), dtype="<f8")
    if flat.size != count * dim * 2:
        raise ParameterError("cloud file payload size does not match its header")
    vecs = (flat[0::2] + 1j * flat[1::2]).reshape(count, dim)
    return SampleCloud(int(dim), vecs, int(seed))


@dataclass(frozen=True)
class OracleReport:
    """Outcome of a numeric verification run."""

    verdict: bool
    max_residual: float
    counts: dict[str, int] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.max_residual < 0:
            raise ParameterError("max_residual must be non-negative")

    def to_json(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "maxResidual": float(self.max_residual),
            "counts": {k: int(v) for k, v in sorted(self.counts.items())},
            "notes": list(self.notes),
        }


@dataclass
class Tally:
    """Running verdict, worst residual, counts and notes of one verification run."""

    verdict: bool = True
    worst: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.verdict = False
        self.notes.append(note)

    def bound(self, value: float, tol: float, note: str) -> None:
        """Record a residual; it fails the run when it exceeds ``tol``."""
        self.worst = max(self.worst, value)
        if value > tol:
            self.fail(note)

    def report(self) -> OracleReport:
        return OracleReport(self.verdict, self.worst, dict(self.counts), tuple(self.notes))


def _lines_matrix(lines) -> np.ndarray:
    return np.vstack([l.amplitudes for l in lines])


def angle_residuals(generators, cfg: AlphaConfig, vectors: np.ndarray) -> np.ndarray:
    """Per-row maximum of |angle(row, g) - alpha| over the generators."""
    gens = _lines_matrix(generators)
    m = np.abs(np.atleast_2d(vectors) @ gens.conj().T)
    ang = np.arccos(np.clip(m, 0.0, 1.0))
    return np.max(np.abs(ang - float(cfg.alpha)), axis=1)


def worst_angle_residual(generators, cfg: AlphaConfig, lines) -> float:
    """Largest |angle(line, g) - alpha| over the lines and the generators."""
    return float(np.max(angle_residuals(generators, cfg, _lines_matrix(lines))))


def alpha_set_numeric(generators, cfg: AlphaConfig, cloud: SampleCloud, tol: float) -> list[Line]:
    """Cloud members whose angle to every generator is within ``tol`` of alpha."""
    if not generators:
        raise ParameterError("generator set must be non-empty")
    dims = {g.dim for g in generators}
    if dims != {cloud.dim}:
        raise DimensionError("generators and cloud live in different dimensions")
    res = angle_residuals(generators, cfg, cloud.vectors)
    return [cloud.line(int(i)) for i in np.nonzero(res <= tol)[0]]


def refine_alpha_members(
    generators,
    cfg: AlphaConfig,
    candidates,
    tol: float = 1e-7,
    max_iter: int = 40,
) -> list[Line]:
    """Polish candidate lines onto the constraint set angle(v, s_j) = alpha.

    Runs a damped Gauss-Newton iteration on the residual vector per
    candidate, renormalizing after every step.  (Plain projected gradient
    descent converges only linearly and stalls on ill-conditioned constraint
    sets, e.g. nearly coincident generators.)  Candidates whose final
    maximum residual exceeds ``tol`` are dropped.
    """
    if not candidates:
        return []
    gens = _lines_matrix(generators)
    n = gens.shape[1]
    alpha = float(cfg.alpha)
    out: list[Line] = []

    def residual(v: np.ndarray):
        g = gens.conj() @ v
        m = np.abs(g)
        ang = np.arccos(np.clip(m, 0.0, 1.0 - 1e-15))
        return g, m, ang - alpha

    for cand in candidates:
        v = cand.amplitudes.copy()
        g, m, r = residual(v)
        converged = bool(np.max(np.abs(r)) <= tol)
        for _ in range(max_iter):
            if converged:
                break
            denom = np.maximum(m * np.sqrt(np.clip(1.0 - m * m, 1e-18, None)), 1e-12)
            c = (g.conj() / denom)[:, None] * gens.conj()
            jac = np.hstack([-c.real, c.imag])
            delta, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            dv = delta[:n] + 1j * delta[n:]
            worst = np.max(np.abs(r))
            step = 1.0
            accepted = False
            while step >= 1.0 / 256.0:
                trial = v + step * dv
                trial /= np.linalg.norm(trial)
                g_t, m_t, r_t = residual(trial)
                if np.max(np.abs(r_t)) < worst:
                    v, g, m, r = trial, g_t, m_t, r_t
                    accepted = True
                    break
                step /= 2.0
            if not accepted:
                break
            converged = bool(np.max(np.abs(r)) <= tol)
        if converged:
            out.append(canonical_line(v))
    return out


def dedup_lines(lines, min_angle: float = 1e-4) -> list[Line]:
    """Keep one representative per cluster of lines closer than ``min_angle``."""
    kept: list[Line] = []
    for l in lines:
        if all(quantum_angle(l, other) >= min_angle for other in kept):
            kept.append(l)
    return kept


def discover_alpha_set(
    generators,
    cfg: AlphaConfig,
    cloud: SampleCloud,
    discovery_tol: float = 1e-3,
    confirm_tol: float = 1e-7,
    max_candidates: int = 4000,
    max_iter: int = 600,
) -> list[Line]:
    """Two-stage numeric alpha-set: wide rejection sampling, then refinement.

    Raw rejection alone cannot reach tight tolerances at desk-scale budgets,
    so hits at ``discovery_tol`` are polished down to ``confirm_tol``.
    """
    rough = alpha_set_numeric(generators, cfg, cloud, discovery_tol)
    return refine_alpha_members(generators, cfg, rough[:max_candidates], confirm_tol, max_iter)


def funnel_alpha_set(
    constraints,
    cfg: AlphaConfig,
    cloud: SampleCloud,
    pool_tol: float = 5e-2,
    confirm_tol: float = 1e-7,
    max_pool: int = 2000,
    n_seed_constraints: int = 3,
    max_iter: int = 600,
) -> list[Line]:
    """Numeric alpha-set of a large constraint family via a two-stage funnel.

    A set cut out by many angle constraints is too thin for direct rejection
    sampling, so the cloud is first filtered against a few of the constraints
    at a loose tolerance and the resulting pool is refined against the full
    family; only candidates meeting every constraint at ``confirm_tol``
    survive.
    """
    pool = alpha_set_numeric(constraints[:n_seed_constraints], cfg, cloud, pool_tol)
    if not pool:
        return []
    return refine_alpha_members(constraints, cfg, pool[:max_pool], confirm_tol, max_iter)


def root_count_on_circle(z: complex, r: float, a: float, grid_size: int = 10_000):
    """Number of unimodular lambda with |z + r*lambda| = a, by grid sign counting.

    Returns ``math.inf`` when |z + r*lambda| - a vanishes identically within
    1e-12 on the grid (the z = 0, r = a configuration).  The count only
    depends on |z|, r and a.
    """
    if grid_size < 1000:
        raise ParameterError(f"grid_size must be >= 1000, got {grid_size}")
    if r < 0 or a <= 0:
        raise ParameterError("need r >= 0 and a > 0")
    phis = np.linspace(0.0, 2.0 * np.pi, grid_size, endpoint=False)
    f = np.abs(z + r * np.exp(1j * phis)) - a
    if np.max(np.abs(f)) < 1e-12:
        return math.inf
    s = np.sign(f)
    changes = int(np.sum(s * np.roll(s, -1) < 0))
    exact = int(np.sum(s == 0))
    return changes + exact


def root_count_on_disk(
    z: complex, r: float, a: float, grid_size: int = 4096, radial: int = 64
):
    """Total root count of |z + w| = a over circles |w| = r' sweeping the disk |w| <= r.

    The closed disk is scanned as a family of concentric circles; the result
    is ``math.inf`` as soon as one circle carries an identically-zero
    residual, and otherwise the plain sum of per-circle counts.  An infinite
    intersection with the open disk shows up as a total strictly above 2.

    Besides the uniform radii, the sweep adds samples inside the window of
    radii where a circle of radius a around -z can meet circles around the
    origin at all (plain triangle-inequality geometry); without those, thin
    windows (tiny |z|) would slip between uniform samples.
    """
    if r <= 0:
        return 0 if abs(abs(z) - a) > 1e-12 else math.inf
    radii = list(np.linspace(r / radial, r, radial))
    win_lo, win_hi = abs(abs(z) - a), abs(z) + a
    if win_lo <= r:
        lo = max(win_lo, r * 1e-9)
        hi = min(win_hi, r)
        if hi >= lo:
            radii.extend(np.linspace(lo, hi, max(radial // 2, 16)))
    total = 0
    for rp in sorted(set(float(x) for x in radii)):
        c = root_count_on_circle(z, rp, a, grid_size)
        if c is math.inf:
            return math.inf
        total += c
    return total


def verify_basic_relations(
    S1,
    S2,
    cfg: AlphaConfig,
    cloud: SampleCloud,
    discovery_tol: float = 1e-2,
    confirm_tol: float = 1e-7,
    inclusion_tol: float = 1e-5,
) -> OracleReport:
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
    n1 = discover_alpha_set(S1, cfg, cloud, discovery_tol, confirm_tol, max_candidates=800)
    n2 = discover_alpha_set(S2, cfg, cloud, discovery_tol, confirm_tol, max_candidates=800)
    tally.counts["alpha_set_S1"] = len(n1)
    tally.counts["alpha_set_S2"] = len(n2)

    # Clause 1: definitional, so the refined members must satisfy it exactly
    # at the confirmation tolerance.
    if n1:
        res1 = worst_angle_residual(S1, cfg, n1)
        tally.bound(res1, confirm_tol, "clause1: generator/alpha-set residual above tolerance")

    # Clause 2: alpha-sets shrink as the generating set grows.
    if n2:
        res2 = worst_angle_residual(S1, cfg, n2)
        tally.bound(res2, inclusion_tol, "clause2: alpha-set of S2 escapes the alpha-set of S1")

    # Clause 3: the alpha-set is fixed by taking its own double-alpha-set.
    first = dedup_lines(n1, 1e-3)
    if len(first) >= 3:
        gen_a = first[: min(25, len(first))]
        holdout = first[min(25, len(first)) : min(45, len(first))]
        second = funnel_alpha_set(gen_a, cfg, cloud, confirm_tol=confirm_tol)
        if holdout:
            second = [
                q
                for q in second
                if worst_angle_residual(holdout, cfg, [q]) <= 1e-4
            ]
        tally.counts["double_alpha_set"] = len(second)
        if second:
            gen_b = dedup_lines(second, 1e-3)[: min(25, len(second))]
            third = funnel_alpha_set(gen_b, cfg, cloud, confirm_tol=confirm_tol)
            tally.counts["triple_alpha_set"] = len(third)
            if third:
                res3 = worst_angle_residual(S1, cfg, third)
                tally.bound(res3, inclusion_tol, "clause3: triple alpha-set escapes the alpha-set of S1")
            resb = worst_angle_residual(gen_b, cfg, first)
            tally.bound(resb, inclusion_tol, "clause3: alpha-set members miss the double-alpha-set constraints")
        else:
            tally.notes.append("clause3: no numeric double-alpha-set members found")
    else:
        tally.notes.append("clause3: not enough alpha-set members found to test")

    return tally.report()

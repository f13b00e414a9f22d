"""Brute-force primitives for checking alpha-set claims independently.

Everything here avoids the closed-form descriptors on purpose: lines are
found by rejection sampling on seeded clouds and polished by Riemannian
Gauss-Newton on the angle residuals (a minimum-norm step tangent to the unit
sphere, then renormalisation as the retraction, over stacked blocks of
candidate rows), clusters are thinned by dedup, and cardinalities are
counted by grid sign changes on circles, a disk being its concentric
circles on one shared grid.  Where the rejection hits outnumber the
refinement cap, the hits that two passes of refinement bring nearest the
full constraint family are the ones refined onward.  The checks that judge the
closed forms against these primitives live in :mod:`qangle.verify`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ParameterError
from .projspace import GAUGE_TOL, NORM_TOL, AlphaConfig, Line, canonical_line, check_dim, check_seed, check_tol

# Largest count * dim of a cloud (256 MB of amplitudes): four times the
# 1 000 000 lines of dimension 4 that the acceptance criteria sample.  The
# cloud path allocates a few row-block buffers once per call, so filtering or
# generating a cloud of that size peaks near 256 MB plus those (about 1 MB in
# dimension 4): the real parts are drawn into the cloud's own buffer, and the
# gauged rows are written straight into it.
MAX_CLOUD_ENTRIES = 16_000_000

# Rows per block on the cloud path (3 * _BLOCK_ROWS // k against k
# generators): every row is computed as in one shot.  Larger blocks only add
# to the heap the allocator keeps after the cloud path is done.
_BLOCK_ROWS = 4_096

# Gauss-Newton steps a refined candidate may take before it is dropped.
_MAX_ITER = 600

# A row already within ``tol`` keeps stepping down to this fraction of it:
# where the constraints meet nearly tangentially, a residual of ``tol`` can
# leave a row hundreds of times ``tol`` away from the set.
_POLISH = 1e-4

# Candidate rows refined together.  Caps the working set: 800 candidates
# against 40 constraints in dimension 4 peak at 1.5 MB of allocations in blocks
# of this size, and at 8.8 MB when every row is stacked at once.
_REFINE_ROWS = 128

# Largest grid of a root count (16 MB of exp(i phi) values, plus a few
# grid-sized arrays per radius) and the most uniform radii of a disk; a larger
# request is refused before any work.
MAX_GRID_SIZE = 1_000_000
MAX_RADIAL = 4_096

# Refinement passes that rank a funnel pool above its cap: a row's residual
# after two passes predicts whether it converges far better than its residual
# where rejection found it.  The kept rows refine onward from where the passes
# left them.
_LOOKAHEAD = 2


@dataclass(frozen=True)
class SampleCloud:
    """A reproducible batch of canonical-gauged random lines, stored as the rows of ``vectors``.

    ``vectors`` must be a 2-D complex array of shape ``(count, dim)``, with
    ``count >= 1`` and within ``MAX_CLOUD_ENTRIES``, and ``dim`` and ``seed``
    integers, ``seed`` in [0, 2**64); anything else is refused here, in O(1),
    and the rows are made read-only.  The rows must be finite unit vectors, as
    rejection's cosine-window screen assumes.  That takes a scan of every row,
    made at most once per cloud, by the first :func:`alpha_set_numeric` on it;
    :func:`sample_lines` makes none.
    """

    dim: int
    vectors: np.ndarray
    seed: int

    def __post_init__(self):
        v = self.vectors
        if not (isinstance(v, np.ndarray) and v.dtype == complex and v.ndim == 2):
            got = f"a {v.ndim}-D {v.dtype} array" if isinstance(v, np.ndarray) else type(v).__name__
            raise ParameterError(f"cloud vectors must be a 2-D complex array, got {got}")
        _check_cloud(self.dim, v.shape[0], self.seed)
        if v.shape[1] != self.dim:
            raise DimensionError(f"cloud rows of width {v.shape[1]}, cloud of dimension {self.dim}")
        v.flags.writeable = False

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def _row_faults(self) -> tuple | None:
        """``(row, what)`` of the first row that is not finite or not of norm 1 within ``NORM_TOL``,
        or ``None`` if there is none.

        The rows are scanned a block at a time, each norm taken as the gauge
        takes it, by :func:`_row_norms`.  The rows are read-only, so the
        result stays valid.
        """
        rows = min(self.count, _BLOCK_ROWS + 1)
        t, n = np.empty((rows, self.dim), dtype=complex), np.empty(rows)
        for start, stop in _blocks(self.count):
            block, m = self.vectors[start:stop], stop - start
            bad, what = ~np.isfinite(block).all(axis=1), "holds a non-finite amplitude"
            if not bad.any():
                bad, what = np.abs(_row_norms(block, t[:m], n[:m]) - 1.0) > NORM_TOL, "is not of norm 1"
            if bad.any():
                return start + int(np.argmax(bad)), what
        return None


def _check_cloud(dim, count, seed) -> tuple[int, int, int]:
    """``dim``, ``count`` and ``seed`` as ``int`` (numpy integers pass), once they fit a cloud."""
    ints = []
    for name, value in (("dim", dim), ("count", count)):
        try:
            ints.append(operator.index(value))
        except TypeError:
            raise ParameterError(f"{name} must be an integer, got {type(value).__name__}") from None
    dim, count = ints
    check_dim(dim)
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if count * dim > MAX_CLOUD_ENTRIES:
        raise ParameterError(f"{count} lines of dimension {dim} exceed {MAX_CLOUD_ENTRIES} amplitudes")
    return dim, count, check_seed(seed)


def _blocks(count: int, rows: int | None = None):
    """Row ranges of at most ``rows + 1`` rows (default ``_BLOCK_ROWS``) covering ``range(count)``.

    A single leftover row joins the block before it: numpy multiplies a
    one-row matrix through a matrix-vector BLAS call, whose rounding can
    differ from the matrix-matrix call every other block takes.
    """
    rows = rows or _BLOCK_ROWS
    start = 0
    while start < count:
        stop = min(start + rows, count)
        if count - stop == 1:
            stop = count
        yield start, stop
        start = stop


def _row_norms(w: np.ndarray, t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(w, axis=1)`` bit for bit into ``n``, with ``t`` as scratch of ``w``'s shape.

    numpy sums fewer than 8 terms left to right and 8 or more pairwise, so
    below dimension 8 the squared moduli are added a column at a time, far
    faster than a reduce over short rows, and from 8 by the reduce.
    """
    sq = np.multiply(np.conjugate(w, out=t), w, out=t).real
    if sq.shape[1] < 8:
        np.copyto(n, sq[:, 0])
        for j in range(1, sq.shape[1]):
            np.add(n, sq[:, j], out=n)
    else:
        np.add.reduce(sq, axis=1, out=n)
    return np.sqrt(n, out=n)


def _leads(w: np.ndarray, lead: np.ndarray, size: np.ndarray) -> None:
    """Each row's lead ``w[i, argmax(|w[i]| > GAUGE_TOL)]`` into ``lead`` and its modulus into ``size``;
    the ``argmax`` only runs on the rows whose first amplitude is not above ``GAUGE_TOL``."""
    np.copyto(lead, w[:, 0])
    np.abs(lead, out=size)
    low = np.flatnonzero(size <= GAUGE_TOL)
    if low.size:
        rows = w[low]
        lead[low] = rows[np.arange(low.size), np.argmax(np.abs(rows) > GAUGE_TOL, axis=1)]
        size[low] = np.abs(lead[low])


def _gauge_rows(w: np.ndarray, out: np.ndarray, t: np.ndarray, n: np.ndarray, lead: np.ndarray) -> None:
    """Write the rows of the C-contiguous complex block ``w`` to ``out``, normalised and gauged.

    The gauge turns a row's first amplitude above ``GAUGE_TOL`` real positive.
    ``w`` is overwritten; ``t``, ``n`` and ``lead`` are scratch of ``w``'s
    shape, of ``len(w)`` doubles and of ``len(w)`` complexes.  The bits are
    those of ``w /= np.linalg.norm(w, axis=1)``, the lead of :func:`_leads`
    and ``w * conj(lead) / |lead|``, the norm coming from :func:`_row_norms`.
    numpy divides a complex by a real as Smith's rule with a zero imaginary
    part, which is ``re * (1/n)`` and ``im * (1/n)``, so one float multiply
    over the re/im pairs replaces the complex division.  ``abs`` and the
    phase multiply stay numpy's complex ufuncs, whose rounding a float
    expansion does not repeat.
    """
    _row_norms(w, t, n)
    np.divide(1.0, n, out=n)
    pairs = w.view(np.float64)
    pairs *= n[:, None]
    _leads(w, lead, n)
    np.conjugate(lead, out=lead)
    np.divide(lead, n, out=lead)
    np.multiply(w, lead[:, None], out=out)


def sample_lines(dim: int, count: int, seed: int) -> SampleCloud:
    """Independent complex-Gaussian lines, normalized and gauged; deterministic per seed.

    The arguments are checked as :class:`SampleCloud` checks them, before
    anything is allocated or drawn.  All real parts are drawn first, then all
    imaginary parts, as one ``standard_normal((count, dim))`` call each would
    draw them.  The real parts go in one fill into the back half of the
    cloud's own buffer, read as ``2 * count * dim`` doubles.  Then, on the
    calling thread, each block of rows ``[a, b)`` gets its imaginary parts
    drawn, is assembled in a complex work block, and :func:`_gauge_rows`
    writes it gauged to doubles ``[2 dim a, 2 dim b)``; the real parts of the
    rows after it start at double ``count dim + dim b >= 2 dim b``, so no
    write reaches a draw not yet read, and the cloud is the same bytes as the
    one-shot computation.  Every buffer is allocated once per call: working
    memory beyond the cloud is one imaginary-part block, the complex work
    block and the gauge's scratch.
    """
    dim, count, seed = _check_cloud(dim, count, seed)
    rng = np.random.default_rng(seed)
    v = np.empty((count, dim), dtype=complex)
    real = v.view(np.float64).reshape(-1)[count * dim :].reshape(count, dim)
    rng.standard_normal(out=real)
    rows = min(count, _BLOCK_ROWS + 1)
    imag = np.empty((rows, dim))
    work, t = np.empty((2, rows, dim), dtype=complex)
    n, lead = np.empty(rows), np.empty(rows, dtype=complex)
    for start, stop in _blocks(count):
        m = stop - start
        rng.standard_normal(out=imag[:m])
        w = work[:m]
        w.real = real[start:stop]
        w.imag = imag[:m]
        _gauge_rows(w, v[start:stop], t[:m], n[:m], lead[:m])
    return SampleCloud(dim, v, seed)


def _rows(lines, width: int | None = None) -> np.ndarray:
    """The lines' amplitudes as ``(k, n)`` rows; no line is a ``ParameterError``, lines of different
    dimensions or of another dimension than ``width`` a ``DimensionError``.  Conjugated generator rows
    ``gens_c`` make ``rows @ gens_c.T`` the overlaps <s_j, row>."""
    if not lines:
        raise ParameterError("need at least one line")
    if len({l.dim for l in lines}) != 1:
        raise DimensionError("lines live in different dimensions")
    rows = np.vstack([l.amplitudes for l in lines])
    if width is not None and width != rows.shape[1]:
        raise DimensionError(f"rows of width {width}, lines of dimension {rows.shape[1]}")
    return rows


def _offsets(g: np.ndarray, alpha: float) -> np.ndarray:
    """angle - alpha for each overlap in ``g``."""
    return np.arccos(np.clip(np.abs(g), 0.0, 1.0)) - alpha


def _worst(r: np.ndarray) -> np.ndarray:
    """Each row's largest |r|, reduced across a generator-major copy (numpy reduces short
    rows element by element); a maximum rounds nothing, so every bit is kept."""
    return np.max(np.abs(r).T.copy(), axis=0)


def angle_residuals(generators, cfg: AlphaConfig, vectors: np.ndarray) -> np.ndarray:
    """Per-row maximum of |angle(row, g) - alpha| over the generators.

    Rows of another width than the generators are a ``DimensionError``.  The
    rows go in blocks of about ``3 * _BLOCK_ROWS`` row-generator entries
    (4 096 rows against three generators, 307 against 40), each row's
    residual computed as on the whole array at once.
    """
    vectors = np.atleast_2d(vectors)
    gens_c = _rows(generators, vectors.shape[1]).conj()
    out = np.empty(vectors.shape[0])
    for start, stop in _blocks(vectors.shape[0], max(1, 3 * _BLOCK_ROWS // len(gens_c))):
        out[start:stop] = _worst(_offsets(vectors[start:stop] @ gens_c.T, cfg.alpha))
    return out


def worst_angle_residual(generators, cfg: AlphaConfig, lines) -> float:
    """Largest |angle(line, g) - alpha| over the lines and the generators; the lines are checked
    first, as :func:`_rows` checks them."""
    return float(np.max(angle_residuals(generators, cfg, _rows(lines))))


def alpha_set_numeric(generators, cfg: AlphaConfig, cloud: SampleCloud, tol: float) -> np.ndarray:
    """The ``(H, dim)`` cloud rows whose angle to every generator is within ``tol`` of alpha.

    The cloud's row blocks, as in :func:`angle_residuals`, are multiplied
    into one reused overlap buffer.  For unit rows, |angle - alpha| <= tol
    exactly when each overlap re + i im has cos^2(alpha + tol) <= re^2 +
    im^2 <= cos^2(alpha - tol) (no lower bound once alpha + tol >= pi/2, an
    upper bound of 1 once alpha - tol <= 0).  Rows are screened on that
    window widened by 1e-12, far beyond the rounding of either side, and
    only the screened rows get the exact residual, from the block's own
    overlaps (a product re-taken on fewer rows could round differently).
    So the hits are the rows that ``angle_residuals(...) <= tol`` picks, in
    cloud order, in a fresh array, ``(0, dim)`` when no row hits; working
    memory is a few block-sized buffers.  ``tol`` must be >= 0, and a cloud
    row that is not finite or not of norm 1 is a ``ParameterError`` naming
    it; the gauge does not matter here.
    """
    check_tol(tol)
    vectors = cloud.vectors
    gens_c = _rows(generators, vectors.shape[1]).conj()
    if fault := cloud._row_faults:
        raise ParameterError(f"cloud row {fault[0]} {fault[1]}")
    rows = max(1, 3 * _BLOCK_ROWS // len(gens_c))
    lo = math.cos(min(cfg.alpha + tol, math.pi / 2)) ** 2 - 1e-12
    hi = math.cos(max(cfg.alpha - tol, 0.0)) ** 2 + 1e-12
    g = np.empty((min(rows + 1, len(vectors)), len(gens_c)), dtype=complex)
    sq = np.empty(g.shape + (2,))
    # One generator per row: reducing over each short row of ``sq`` instead
    # would take several times as long as the product.
    cols = np.empty(g.shape[::-1])
    hits = []
    for start, stop in _blocks(len(vectors), rows):
        m = stop - start
        block = np.matmul(vectors[start:stop], gens_c.T, out=g[:m])
        s = np.square(block.view(np.float64).reshape(sq[:m].shape), out=sq[:m])
        s = np.add(s[:, :, 0], s[:, :, 1], out=s[:, :, 0])
        np.copyto(cols[:, :m], s.T)
        keep = np.flatnonzero((np.min(cols[:, :m], axis=0) >= lo) & (np.max(cols[:, :m], axis=0) <= hi))
        hits.append(vectors[start + keep[_worst(_offsets(block[keep], cfg.alpha)) <= tol]])
    return np.concatenate(hits)


def _overlaps(v: np.ndarray, gens_c: np.ndarray, alpha: float):
    """Per row of ``v``: the overlaps g_j = <s_j, v> and the residuals angle(v, s_j) - alpha."""
    g = v @ gens_c.T
    return g, _offsets(g, alpha)


def _tangent_steps(v, g, r, gens_c) -> np.ndarray:
    """Minimum-norm Gauss-Newton step of every row of ``v``, tangent to the unit sphere.

    The Jacobian J of the residuals in the real coordinates ``[Re v, Im v]``
    loses its radial direction u before the solve, so the step has no part
    that the renormalisation would throw away.  J then annihilates u, and
    the phase direction w = i v too, since the residuals are phase-invariant.
    With k residuals in dimension n, a row with k >= 2n - 2 solves
    ``(J^T J + u u^T + w w^T) step = -J^T r``, whose matrix is regular when
    J has its full rank 2n - 2, and whose solution is then the minimum-norm
    least-squares step; a row with fewer residuals takes
    ``step = -J^T (J J^T)^-1 r`` from the k x k system.  Either system gets
    1e-13 of its trace added to its diagonal, so a rank loss beyond u and w
    gives a finite step rather than a singular solve.
    """
    n = v.shape[1]
    m = np.abs(g)
    denom = np.maximum(m * np.sqrt(np.clip(1.0 - m * m, 1e-18, None)), 1e-12)
    c = (g.conj() / denom)[:, :, None] * gens_c
    jac = np.concatenate([-c.real, c.imag], axis=2)
    u = np.concatenate([v.real, v.imag], axis=1)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    jac = jac @ (np.eye(2 * n) - u[:, :, None] * u[:, None, :])
    jac_t = jac.transpose(0, 2, 1)
    few = jac.shape[1] < 2 * n - 2
    if few:
        gram, rhs = jac @ jac_t, -r[:, :, None]
    else:
        w = np.concatenate([-u[:, n:], u[:, :n]], axis=1)
        gram = jac_t @ jac + u[:, :, None] * u[:, None, :] + w[:, :, None] * w[:, None, :]
        rhs = -(jac_t @ r[:, :, None])
    i = np.arange(gram.shape[1])
    gram[:, i, i] += 1e-13 * np.trace(gram, axis1=1, axis2=2)[:, None]
    delta = np.linalg.solve(gram, rhs)
    if few:
        delta = jac_t @ delta
    return delta[:, :n, 0] + 1j * delta[:, n:, 0]


def _refine_block(v: np.ndarray, gens_c: np.ndarray, alpha: float, tol: float, passes: int = _MAX_ITER) -> np.ndarray:
    """Refine the unit rows of ``v`` in place; each row's final maximum residual.

    A row stays live until its maximum residual is within ``_POLISH * tol``,
    no step length lowers it, or ``passes`` passes are done.  Each pass
    tries the full step on every live row, then half of it on the rows it did
    not improve, and so on down to 1/256.
    """
    g, r = _overlaps(v, gens_c, alpha)
    worst = _worst(r)
    polished = _POLISH * tol
    live = np.flatnonzero(worst > polished)
    for _ in range(passes):
        if not live.size:
            break
        dv = _tangent_steps(v[live], g[live], r[live], gens_c)
        moved = np.zeros(live.size, dtype=bool)
        trying = np.arange(live.size)
        step = 1.0
        while trying.size and step >= 1.0 / 256.0:
            rows = live[trying]
            trial = v[rows] + step * dv[trying]
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            g_t, r_t = _overlaps(trial, gens_c, alpha)
            w_t = _worst(r_t)
            ok = w_t < worst[rows]
            won = rows[ok]
            v[won], g[won], r[won], worst[won] = trial[ok], g_t[ok], r_t[ok], w_t[ok]
            moved[trying[ok]] = True
            trying = trying[~ok]
            step /= 2.0
        live = live[moved]
        live = live[worst[live] > polished]
    return worst


def refine_alpha_members(
    generators,
    cfg: AlphaConfig,
    candidates: np.ndarray,
    tol: float = 1e-7,
) -> list[Line]:
    """Polish candidate rows onto the constraint set angle(v, s_j) = alpha.

    Riemannian Gauss-Newton on the unit sphere (Absil, Mahony and Sepulchre,
    *Optimization Algorithms on Matrix Manifolds*, 2008, ch. 8): each step
    is the minimum-norm solution of the linearised residuals restricted to
    the tangent space at v, and renormalising v + step is the retraction
    back onto the sphere.  A step is accepted at the first length among 1,
    1/2, ..., 1/256 that strictly lowers the maximum residual.  A candidate
    whose maximum residual is still above ``tol`` after ``_MAX_ITER`` steps,
    or when no step length lowers it, is dropped; the others are returned as
    lines, in input order.  A candidate within ``tol`` keeps stepping until
    its residual is at most ``_POLISH * tol`` (1e-4 of it) or no step length
    lowers it, so that a near-tangent meeting of the constraints does not
    leave it far from the set.

    The rows are refined as stacked arrays, ``_REFINE_ROWS`` at a time, so
    the working memory is bounded whatever the number of candidates, and
    a row's result does not depend, beyond rounding, on the rows refined
    with it.

    ``candidates`` is an ``(N, dim)`` array (``(0, dim)`` gives ``[]``);
    another shape is a ``DimensionError``, and a row that is not finite or
    has zero norm is a ``ParameterError``.  ``tol`` must be >= 0.
    """
    check_tol(tol)
    gens_c = _rows(generators).conj()
    n = gens_c.shape[1]
    v = np.asarray(candidates, dtype=complex)
    if v.ndim != 2 or v.shape[1] != n:
        raise DimensionError(f"candidates must be an (N, {n}) array, got shape {v.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise ParameterError("every candidate row must be finite with a nonzero norm")
    v = v / norms
    blocks = [v[start:stop] for start, stop in _blocks(len(v), _REFINE_ROWS)]
    return [canonical_line(row) for b in blocks for row in b[_refine_block(b, gens_c, cfg.alpha, tol) <= tol]]


def dedup_lines(lines, min_angle: float = 1e-4) -> list[Line]:
    """Keep each line of the iterable ``lines`` whose angle to every line kept before it is at
    least ``min_angle`` (>= 0).

    A row x takes one product z = <k, x> against the kept rows k, and the angles
    atan2(||x - z k||, |z|), exact near 0.  Lines of different dimensions are a ``DimensionError``.
    """
    check_tol(min_angle)
    lines = list(lines)
    if not lines:
        return []
    rows, keep = _rows(lines), []
    for i, x in enumerate(rows):
        k = rows[keep]
        z = k.conj() @ x
        if np.all(np.arctan2(np.linalg.norm(x - z[:, None] * k, axis=1), np.abs(z)) >= min_angle):
            keep.append(i)
    return [lines[i] for i in keep]


def discover_alpha_set(
    generators,
    cfg: AlphaConfig,
    cloud: SampleCloud,
    discovery_tol: float = 1e-3,
    confirm_tol: float = 1e-7,
    max_candidates: int = 4000,
) -> list[Line]:
    """Numeric alpha-set of a few generators: :func:`funnel_alpha_set` with
    every generator in both stages.

    Raw rejection alone cannot reach tight tolerances at desk-scale budgets,
    so hits at ``discovery_tol`` are polished down to ``confirm_tol``.
    ``max_candidates`` must be at least 1 and caps the hits refined to
    convergence; above it, the hits are ranked by the look-ahead of
    :func:`funnel_alpha_set`, two passes of refinement per hit, the
    ``max_candidates`` best are refined onward, in cloud order, and the rest
    are dropped.
    """
    return funnel_alpha_set(
        generators, cfg, cloud, discovery_tol, confirm_tol, max_candidates, len(generators)
    )


def funnel_alpha_set(
    constraints,
    cfg: AlphaConfig,
    cloud: SampleCloud,
    pool_tol: float = 5e-2,
    confirm_tol: float = 1e-7,
    max_pool: int = 2000,
    n_seed_constraints: int = 3,
) -> list[Line]:
    """Numeric alpha-set of a large constraint family via a two-stage funnel.

    A set cut out by many angle constraints is too thin for direct rejection
    sampling, so the cloud is first filtered against a few of the constraints
    at a loose tolerance and the resulting pool is refined against the full
    family; only candidates meeting every constraint at ``confirm_tol``
    survive.

    ``max_pool`` caps the candidates refined to convergence and, like
    ``n_seed_constraints``, must be at least 1.  A pool above the cap is
    ranked by a look-ahead against the *whole* family: each hit takes the
    first two passes of refinement, and scores its maximum angle residual
    after them.  That costs two Gauss-Newton steps per pool row, and
    predicts convergence far better than the residual alone.  Scores are
    floored at ``confirm_tol``, so hits the look-ahead already brings within
    it tie rather than rank by rounding noise.  The ``max_pool``
    best-scoring hits are refined onward from where the two passes left
    them, in cloud order (ties keep cloud order); the rest are dropped.  A
    pool within the cap is refined whole.
    """
    if max_pool < 1 or n_seed_constraints < 1:
        raise ParameterError(
            f"need max_pool >= 1 and n_seed_constraints >= 1, got {max_pool} and {n_seed_constraints}"
        )
    pool = alpha_set_numeric(constraints[:n_seed_constraints], cfg, cloud, pool_tol)
    if len(pool) > max_pool:
        gens_c, blocks = _rows(constraints).conj(), _blocks(len(pool), _REFINE_ROWS)
        worst = np.concatenate([_refine_block(pool[a:b], gens_c, cfg.alpha, confirm_tol, _LOOKAHEAD) for a, b in blocks])
        best = np.argsort(np.fmax(worst, confirm_tol), kind="stable")[:max_pool]
        pool = pool[np.sort(best)]
    return refine_alpha_members(constraints, cfg, pool, confirm_tol)


def _grid_root_count(z: complex, radii, a: float, grid_size: int):
    """Grid root count of |z + r'*lambda| = a over |lambda| = 1, summed over the radii r'.

    One exp(i phi) row serves every radius, taken one at a time; ``math.inf``
    at the first circle whose residual is identically zero within 1e-12.
    """
    if not 1000 <= grid_size <= MAX_GRID_SIZE:
        raise ParameterError(f"grid_size must be in [1000, {MAX_GRID_SIZE}], got {grid_size}")
    if not np.all(np.isfinite([z, a])):
        raise ParameterError(f"need finite z and a, got {z} and {a}")
    unit = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, grid_size, endpoint=False))
    total = 0
    for rp in radii:
        f = np.abs(z + rp * unit) - a
        if np.max(np.abs(f)) < 1e-12:
            return math.inf
        s = np.sign(f)
        total += int(np.count_nonzero(s[:-1] * s[1:] < 0) + (s[-1] * s[0] < 0) + np.count_nonzero(s == 0))
    return total


def root_count_on_circle(z: complex, r: float, a: float, grid_size: int = 10_000):
    """Number of unimodular lambda with |z + r*lambda| = a, by grid sign counting.

    Returns ``math.inf`` when |z + r*lambda| - a vanishes identically within
    1e-12 on the grid (the z = 0, r = a configuration).  The count only
    depends on |z|, r and a.  Non-finite arguments, ``r < 0``, ``a <= 0``
    and a ``grid_size`` outside [1000, ``MAX_GRID_SIZE``] are refused.
    """
    if not 0 <= r < math.inf or a <= 0:
        raise ParameterError(f"need finite r >= 0 and a > 0, got {r} and {a}")
    return _grid_root_count(z, [r], a, grid_size)


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
    windows (tiny |z|) would slip between uniform samples.  ``r = 0`` is the
    point disk, its circle of radius 0; non-finite arguments, a ``radial``
    outside [1, ``MAX_RADIAL``], a ``grid_size`` outside [1000,
    ``MAX_GRID_SIZE``], ``r < 0`` and ``a <= 0`` are refused.
    """
    if not 1 <= radial <= MAX_RADIAL or not 0 <= r < math.inf or a <= 0:
        raise ParameterError(f"need 1 <= radial <= {MAX_RADIAL}, finite r >= 0 and a > 0, got {radial}, {r} and {a}")
    radii = list(np.linspace(r / radial, r, radial))
    win_lo, win_hi = abs(abs(z) - a), abs(z) + a
    if win_lo <= r:
        lo = max(win_lo, r * 1e-9)
        hi = min(win_hi, r)
        if hi >= lo:
            radii.extend(np.linspace(lo, hi, max(radial // 2, 16)))
    return _grid_root_count(z, sorted(set(float(x) for x in radii)), a, grid_size)

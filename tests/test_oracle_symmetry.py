"""Property tests: the brute-force oracle commutes with Wigner symmetries.

A unitary or antiunitary W preserves every quantum angle, so rejection on
W(generators) over the W-image of a cloud hits the images of the rows it
hits, refinement polishes W(candidates) onto the images of the members, the
funnel ranks and keeps the images of the rows it keeps, and dedup keeps the
same lines.  Only rounding separates the two sides, so rows whose residual
or look-ahead score ends within rounding of its threshold are left out.  A
permutation of the cloud's rows permutes the hits.  Examples are
derandomized with a fixed count, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qangle as qa
from qangle import oracle, wigner
from qangle.projspace import random_line

ROUNDING = 1e-12  # residuals this close to tol may land on either side of it
MEMBER_TOL = 1e-9  # angle from a mapped member to the image of the member

CASE = dict(
    dim=st.sampled_from([3, 4]),
    antiunitary=st.booleans(),
    w_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(math.pi / 4 + 0.05, math.pi / 2 - 0.05),
)
EXAMPLES = settings(derandomize=True, deadline=None, max_examples=25, database=None)


def mapped_rows(w, rows: np.ndarray) -> np.ndarray:
    """W applied to each row of ``rows``: U v, or U conj(v) for an antiunitary W."""
    return (rows.conj() if w.antiunitary else rows) @ w.matrix.T


def row_angles(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Angle between the lines of each pair of unit rows, atan2(||y - z x||, |z|) with z = <x, y>."""
    z = np.sum(x.conj() * y, axis=1)
    return np.arctan2(np.linalg.norm(y - z[:, None] * x, axis=1), np.abs(z))


def hit_indices(cloud: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """Cloud indices of the hit rows, which rejection returns as exact copies."""
    index = {row.tobytes(): i for i, row in enumerate(cloud)}
    return np.array([index[row.tobytes()] for row in hits], dtype=int)


def rejection_case(dim, seed, alpha):
    rng = np.random.default_rng(seed)
    gens = [random_line(rng, dim) for _ in range(int(rng.integers(1, 4)))]
    return gens, qa.AlphaConfig.from_alpha(alpha), qa.sample_lines(dim, 20_000, seed % 1000), 3e-2


def assert_same_hits(gens, cfg, vectors, tol, hits, got, other_vectors, other_gens):
    """``got`` (indices into ``other_vectors``) equals ``hits`` (indices into
    ``vectors``) but for rows whose residual on either side is within ROUNDING of tol."""
    res = oracle.angle_residuals(gens, cfg, vectors)
    other = oracle.angle_residuals(other_gens, cfg, other_vectors)
    near = (np.abs(res - tol) <= ROUNDING) | (np.abs(other - tol) <= ROUNDING)
    differ = np.zeros(len(vectors), dtype=bool)
    differ[hits] ^= True
    differ[got] ^= True
    assert not np.any(differ & ~near)
    assert np.array_equal(hits, np.sort(hits)) and np.array_equal(got, np.sort(got))


@EXAMPLES
@given(**CASE)
def test_rejection_commutes_with_wigner_symmetries(dim, antiunitary, w_seed, seed, alpha):
    w = qa.random_wigner(dim, w_seed, antiunitary)
    gens, cfg, cloud, tol = rejection_case(dim, seed, alpha)
    image = mapped_rows(w, cloud.vectors)
    w_gens = [qa.apply_symmetry(w, g) for g in gens]
    hits = hit_indices(cloud.vectors, qa.alpha_set_numeric(gens, cfg, cloud, tol))
    got = hit_indices(image, qa.alpha_set_numeric(w_gens, cfg, qa.SampleCloud(image), tol))
    assert_same_hits(gens, cfg, cloud.vectors, tol, hits, got, image, w_gens)


@EXAMPLES
@given(dim=st.sampled_from([3, 4]), seed=st.integers(0, 2**32 - 1), alpha=CASE["alpha"])
def test_a_permuted_cloud_permutes_the_hits(dim, seed, alpha):
    gens, cfg, cloud, tol = rejection_case(dim, seed, alpha)
    perm = np.random.default_rng(seed + 1).permutation(cloud.count)
    shuffled = cloud.vectors[perm]
    hits = hit_indices(cloud.vectors, qa.alpha_set_numeric(gens, cfg, cloud, tol))
    got = hit_indices(shuffled, qa.alpha_set_numeric(gens, cfg, qa.SampleCloud(shuffled), tol))
    # Shuffled index j holds cloud row perm[j]; map the hits back before comparing.
    assert_same_hits(gens, cfg, cloud.vectors, tol, hits, np.sort(perm[got]), cloud.vectors, gens)
    assert np.array_equal(np.sort(got), got)


@EXAMPLES
@given(**CASE)
def test_refinement_commutes_with_wigner_symmetries(dim, antiunitary, w_seed, seed, alpha):
    w = qa.random_wigner(dim, w_seed, antiunitary)
    rng = np.random.default_rng(seed)
    gens = [random_line(rng, dim) for _ in range(int(rng.integers(2, 2 * dim)))]
    cfg = qa.AlphaConfig.from_alpha(alpha)
    cloud = qa.sample_lines(dim, 20_000, seed % 1000)
    rows = qa.alpha_set_numeric(gens[:2], cfg, cloud, 5e-2)[:40]
    assume(len(rows) > 0)
    w_gens = [qa.apply_symmetry(w, g) for g in gens]
    tol = 1e-9
    v, w_v = rows.copy(), mapped_rows(w, rows)
    kept = oracle._refine_block(v, oracle._rows(gens).conj(), cfg.alpha, tol) <= tol
    w_kept = oracle._refine_block(w_v, oracle._rows(w_gens).conj(), cfg.alpha, tol) <= tol
    res = oracle.angle_residuals(gens, cfg, v)
    w_res = oracle.angle_residuals(w_gens, cfg, w_v)
    near = (np.abs(res - tol) <= ROUNDING) | (np.abs(w_res - tol) <= ROUNDING)
    assert not np.any((kept != w_kept) & ~near)
    both = kept & w_kept
    assert np.all(row_angles(mapped_rows(w, v[both]), w_v[both]) <= MEMBER_TOL)
    # The public call keeps the same members, as lines in candidate order.
    members = np.array([m.amplitudes for m in qa.refine_alpha_members(w_gens, cfg, mapped_rows(w, rows), tol)])
    assert len(members) == np.count_nonzero(w_kept)
    assert not len(members) or np.all(row_angles(members, w_v[w_kept]) <= MEMBER_TOL)


def cap_is_clear(scores: np.ndarray, cap: int, floor: float) -> bool:
    """No look-ahead score lies within ROUNDING of the cap's threshold, the ``cap``-th
    smallest score floored at ``floor``.  Scores tied at the floor keep cloud order,
    so there only a score near the floor could move a row across the cap."""
    cut = np.sort(np.fmax(scores, floor))[cap - 1]
    near = np.abs(scores - cut) <= ROUNDING
    return not np.any(near) if cut == floor else np.count_nonzero(near) == 1


def lookahead(rows: np.ndarray, gens_c: np.ndarray, alpha: float, tol: float) -> np.ndarray:
    """The funnel's look-ahead, in place: two refinement passes on ``rows``, a block at a time; each row's
    maximum residual after them."""
    blocks = oracle._blocks(len(rows), oracle._REFINE_ROWS)
    return np.concatenate([oracle._refine_block(rows[a:b], gens_c, alpha, tol, oracle._LOOKAHEAD) for a, b in blocks])


@EXAMPLES
@given(**CASE)
def test_funnel_commutes_with_wigner_symmetries(dim, antiunitary, w_seed, seed, alpha):
    w = qa.random_wigner(dim, w_seed, antiunitary)
    rng = np.random.default_rng(seed)
    cfg = qa.AlphaConfig.from_alpha(alpha)
    # Constraints at angle alpha from one line, so that the set they cut out is not empty.
    x = random_line(rng, dim)
    constraints = [wigner._partner_at_angle(x, alpha, rng) for _ in range(dim)]
    w_constraints = [qa.apply_symmetry(w, s) for s in constraints]
    cloud = qa.sample_lines(dim, 20_000, seed % 1000)
    w_cloud = qa.SampleCloud(mapped_rows(w, cloud.vectors))
    pool_tol, tol, cap, seeds = 5e-2, 1e-7, 16, 2
    pool = qa.alpha_set_numeric(constraints[:seeds], cfg, cloud, pool_tol)
    w_pool = qa.alpha_set_numeric(w_constraints[:seeds], cfg, w_cloud, pool_tol)
    # A pool above the cap, so that the look-ahead ranks it; the same pool on both sides.
    assume(len(pool) > cap)
    assume(np.array_equal(hit_indices(cloud.vectors, pool), hit_indices(w_cloud.vectors, w_pool)))
    gens_c, w_gens_c = oracle._rows(constraints).conj(), oracle._rows(w_constraints).conj()
    v, w_v = pool.copy(), w_pool.copy()
    scores, w_scores = lookahead(v, gens_c, cfg.alpha, tol), lookahead(w_v, w_gens_c, cfg.alpha, tol)
    assume(cap_is_clear(scores, cap, tol) and cap_is_clear(w_scores, cap, tol))
    # The kept rows, refined onward here too, to leave out any that ends within rounding of tol.
    kept = np.sort(np.argsort(np.fmax(scores, tol), kind="stable")[:cap])
    v, w_v = v[kept], w_v[kept]
    oracle._refine_block(v, gens_c, cfg.alpha, tol)
    oracle._refine_block(w_v, w_gens_c, cfg.alpha, tol)
    res, w_res = oracle.angle_residuals(constraints, cfg, v), oracle.angle_residuals(w_constraints, cfg, w_v)
    assume(not np.any((np.abs(res - tol) <= ROUNDING) | (np.abs(w_res - tol) <= ROUNDING)))

    members = qa.funnel_alpha_set(constraints, cfg, cloud, pool_tol, tol, cap, seeds)
    w_members = qa.funnel_alpha_set(w_constraints, cfg, w_cloud, pool_tol, tol, cap, seeds)
    assert len(w_members) == len(members)
    images = mapped_rows(w, np.array([m.amplitudes for m in members]).reshape(-1, dim))
    for m in w_members:
        assert np.min(row_angles(images, np.broadcast_to(m.amplitudes, images.shape))) <= MEMBER_TOL


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(
    dim=st.integers(2, 5),
    antiunitary=st.booleans(),
    w_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    min_angle=st.sampled_from([1e-6, 1e-4, 1e-2]),
)
def test_dedup_keeps_the_same_lines_under_wigner_symmetries(dim, antiunitary, w_seed, seed, min_angle):
    w = qa.random_wigner(dim, w_seed, antiunitary)
    rng = np.random.default_rng(seed)
    base = [random_line(rng, dim) for _ in range(6)]
    # Each line gets neighbours at about a tenth of, and ten times, min_angle.
    lines = [
        qa.canonical_line(b.amplitudes + scale * min_angle * random_line(rng, dim).amplitudes)
        for b in base
        for scale in (0.0, 0.1, 10.0)
    ]
    rows = np.array([l.amplitudes for l in lines])
    for i in range(len(rows)):
        angles = row_angles(np.broadcast_to(rows[i], rows.shape), rows)
        assume(not np.any(np.abs(angles - min_angle) <= 1e-3 * min_angle))
    images = [qa.apply_symmetry(w, l) for l in lines]
    kept = [lines.index(l) for l in oracle.dedup_lines(lines, min_angle)]
    w_kept = [images.index(l) for l in oracle.dedup_lines(images, min_angle)]
    assert kept == w_kept
    assert len(base) <= len(kept) < len(lines)

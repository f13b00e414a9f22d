"""Property tests: the alpha-set descriptors commute with Wigner symmetries.

A unitary or antiunitary W preserves every quantum angle, so the alpha-set
of the mapped generators is the image of the alpha-set, and the distance
from W x to the descriptor built from the mapped generators equals the
distance from x to the original descriptor.  Only the closed forms are
involved; no oracle runs here.  Examples are derandomized with a fixed
count, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qangle as qa
from qangle.projspace import distinct_unimodular_triple, random_line, random_orthonormal_pair
from qangle.verify import random_cd

EQUIVARIANCE_TOL = 1e-9

CASE = dict(
    dim=st.sampled_from([3, 4]),
    antiunitary=st.booleans(),
    w_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(math.pi / 4 + 0.05, math.pi / 2 - 0.05),
)
EXAMPLES = settings(derandomize=True, deadline=None, max_examples=50, database=None)


def probes(rng, descr, dim):
    """Two random lines and two lines 1e-3 off sampled members of ``descr``."""
    near = [
        qa.canonical_line(m.amplitudes + 1e-3 * random_line(rng, dim).amplitudes)
        for m in descr.sample(2, rng)
    ]
    return [random_line(rng, dim), random_line(rng, dim), *near]


def largest_gap(w, descr, mapped_descr, xs) -> float:
    """Largest |d(W x, mapped) - d(x, descr)| over the probe lines."""
    return max(abs(mapped_descr.distance(qa.apply_symmetry(w, x)) - descr.distance(x)) for x in xs)


def mapped_triple_forms(w, rng, cfg, dim):
    """Canonical forms of a random collinear triple and of its image under ``w``."""
    e1, e2 = random_orthonormal_pair(rng, dim)
    c, d = random_cd(rng, cfg.a)
    lines = qa.TripleCanonicalForm(e1, e2, c, d, distinct_unimodular_triple(rng, 1e-2)).synthesize()
    images = [qa.apply_symmetry(w, v) for v in lines]
    return qa.canonical_triple_form(*lines), qa.canonical_triple_form(*images)


@EXAMPLES
@given(**CASE)
def test_pair_alpha_set_commutes_with_wigner_symmetries(dim, antiunitary, w_seed, seed, alpha):
    w = qa.random_wigner(dim, w_seed, antiunitary)
    rng = np.random.default_rng(seed)
    cfg = qa.AlphaConfig.from_alpha(alpha)
    u, v = random_line(rng, dim), random_line(rng, dim)
    descr = qa.pair_alpha_set(u, v, cfg)
    mapped = qa.pair_alpha_set(qa.apply_symmetry(w, u), qa.apply_symmetry(w, v), cfg)
    assert largest_gap(w, descr, mapped, probes(rng, descr, dim)) <= EQUIVARIANCE_TOL


@EXAMPLES
@given(**CASE)
def test_triple_alpha_sets_commute_with_wigner_symmetries(dim, antiunitary, w_seed, seed, alpha):
    w = qa.random_wigner(dim, w_seed, antiunitary)
    rng = np.random.default_rng(seed)
    cfg = qa.AlphaConfig.from_alpha(alpha)
    form, mapped_form = mapped_triple_forms(w, rng, cfg, dim)
    for build in (qa.collinear_triple_alpha_set, qa.double_alpha_set_classify):
        descr, mapped = build(form, cfg, dim), build(mapped_form, cfg, dim)
        assert len(mapped.components) == len(descr.components)
        assert largest_gap(w, descr, mapped, probes(rng, descr, dim)) <= EQUIVARIANCE_TOL

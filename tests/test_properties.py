"""Property tests: the alpha-set descriptors commute with Wigner symmetries.

A unitary or antiunitary W preserves every quantum angle, so the alpha-set
of the mapped generators is the image of the alpha-set, and the distance
from W x to the descriptor built from the mapped generators equals the
distance from x to the original descriptor.  Only the closed forms are
involved; no oracle runs here.  Examples are derandomized with a fixed
count, so every run checks the same cases.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


# ---------------------------------------------------------------------------
# Metric, gauge, group and wire-format invariants.

GAUGE_TOL = 1e-12
TRIANGLE_SLACK = 1e-12
SMALL = settings(derandomize=True, deadline=None, max_examples=100, database=None)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(2, 5)


@st.composite
def lines(draw, dim):
    """A random line, or one with small integer amplitudes whose zeros carry signs."""
    if draw(st.booleans()):
        return random_line(np.random.default_rng(draw(seeds)), dim)
    parts = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    vec = np.array(draw(parts), dtype=float) + 1j * np.array(draw(parts), dtype=float)
    assume(np.any(vec))
    return qa.canonical_line(vec)


@st.composite
def symmetries(draw, dim):
    return qa.random_wigner(dim, draw(seeds), draw(st.booleans()))


@SMALL
@given(dim=dims, seed=seeds, phi=st.floats(0, 2 * math.pi))
def test_canonical_line_is_gauge_invariant(dim, seed, phi):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    lam = complex(math.cos(phi), math.sin(phi))
    gap = np.abs(qa.canonical_line(lam * vec).amplitudes - qa.canonical_line(vec).amplitudes)
    assert np.max(gap) <= GAUGE_TOL


@SMALL
@given(dim=dims, seed=seeds, scale=st.sampled_from([1e-9, 1e-5, 1e-2, 0.3, 3.0]))
def test_quantum_angle_is_symmetric_and_satisfies_the_triangle_inequality(dim, seed, scale):
    # Each line is a perturbation of the one before, so near-identical
    # pairs reach the arcsin branch and some triples sit near equality.
    rng = np.random.default_rng(seed)
    u = random_line(rng, dim)
    v = qa.canonical_line(u.amplitudes + scale * random_line(rng, dim).amplitudes)
    w = qa.canonical_line(v.amplitudes + scale * random_line(rng, dim).amplitudes)
    for x, y in ((u, v), (v, w), (u, w)):
        assert qa.quantum_angle(x, y) == qa.quantum_angle(y, x)
    for x, y, z in ((u, v, w), (v, u, w), (u, w, v)):
        assert qa.quantum_angle(x, z) <= qa.quantum_angle(x, y) + qa.quantum_angle(y, z) + TRIANGLE_SLACK


@SMALL
@given(data=st.data(), dim=st.integers(2, 4))
def test_symmetries_form_a_group(data, dim):
    a, b, c = (data.draw(symmetries(dim)) for _ in range(3))
    compose, inverse = qa.compose_symmetries, qa.inverse_symmetry
    identity = qa.WignerSymmetry(np.eye(dim), False)
    assert qa.same_induced_map(compose(a, compose(b, c)), compose(compose(a, b), c))
    assert qa.same_induced_map(compose(a, inverse(a)), identity)
    assert qa.same_induced_map(compose(inverse(a), a), identity)
    ab = compose(a, b)
    assert ab.antiunitary == (a.antiunitary != b.antiunitary)
    x = data.draw(lines(dim))
    image = qa.apply_symmetry(a, qa.apply_symmetry(b, x))
    assert qa.quantum_angle(qa.apply_symmetry(ab, x), image) < 1e-9


def wire_round_trip(obj: dict) -> dict:
    return json.loads(json.dumps(obj))


@SMALL
@given(data=st.data(), dim=st.integers(3, 4))
def test_json_round_trips_are_bit_exact(data, dim):
    u, v = data.draw(lines(dim)), data.draw(lines(dim))
    for line in (u, v):
        assert qa.Line.from_json(wire_round_trip(line.to_json())).amplitudes.tobytes() == line.amplitudes.tobytes()
    w = data.draw(symmetries(dim))
    again = qa.WignerSymmetry.from_json(wire_round_trip(w.to_json()))
    assert again.antiunitary == w.antiunitary
    assert again.matrix.tobytes() == w.matrix.tobytes()


def corrupt(data, obj: dict) -> dict:
    """``obj`` with one ``re``/``im`` entry made a string or a boolean, or dropped."""
    key = data.draw(st.sampled_from(["re", "im"]))
    part = json.loads(json.dumps(obj[key]))
    row = part
    while isinstance(row[0], list):
        row = row[data.draw(st.integers(0, len(row) - 1))]
    i = data.draw(st.integers(0, len(row) - 1))
    how = data.draw(st.sampled_from(["string", "boolean", "drop"]))
    if how == "drop":
        del row[i]
    else:
        row[i] = str(row[i]) if how == "string" else data.draw(st.booleans())
    return {**obj, key: part}


@SMALL
@given(data=st.data(), dim=st.integers(2, 4))
def test_a_corrupted_amplitude_is_a_schema_error(data, dim):
    with pytest.raises(qa.SchemaError):
        qa.Line.from_json(corrupt(data, data.draw(lines(dim)).to_json()))
    with pytest.raises(qa.SchemaError):
        qa.WignerSymmetry.from_json(corrupt(data, data.draw(symmetries(dim)).to_json()))

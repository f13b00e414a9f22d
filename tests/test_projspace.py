import json
import math
import warnings

import numpy as np
import pytest

import qangle as qa
from qangle.errors import (
    DegeneratePairError,
    DegenerateTripleError,
    DegenerateVectorError,
    DimensionError,
    NotCollinearError,
    ParameterError,
)
from qangle import verify
from qangle.projspace import (
    check_close, circle_member, circle_members_at, complex_json, json_complex, lambdas_at_modulus,
)

from conftest import random_collinear_triple, random_line, random_orthonormal_pair


class TestCanonicalLine:
    def test_single_component_phase_removed(self):
        l = qa.canonical_line([0, 2j, 0])
        assert np.allclose(l.amplitudes, [0, 1, 0])

    def test_global_phase_i_removed(self):
        l = qa.canonical_line(np.array([1j, 1j]) / np.sqrt(2))
        assert np.allclose(l.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_gauge_rule_by_hand(self):
        # ((1+i)/2, (1-i)/2): dividing out the leading phase e^{i pi/4}
        # leaves (1/sqrt2, -i/sqrt2).
        l = qa.canonical_line([(1 + 1j) / 2, (1 - 1j) / 2])
        assert np.allclose(l.amplitudes, [1 / np.sqrt(2), -1j / np.sqrt(2)], atol=1e-15)

    def test_gauge_invariance_under_unimodular_scaling(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        base = qa.canonical_line(v)
        for phi in rng.uniform(0, 2 * np.pi, 100):
            scaled = qa.canonical_line(np.exp(1j * phi) * v)
            assert qa.lines_equal(base, scaled)
            assert np.allclose(base.amplitudes, scaled.amplitudes, atol=1e-14)

    def test_near_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            qa.canonical_line([1e-10, 0.0])

    @pytest.mark.parametrize(
        "vec, want",
        [([1e200, 0], [1, 0]), ([3e154, 4e154], [0.6, 0.8]), ([0, 1e308j, -1e308], [0, 1 / 2**0.5, 1j / 2**0.5])],
    )
    def test_finite_vector_whose_norm_overflows(self, vec, want):
        # |v| above about 1.34e154 overflows to inf, which would scale v to 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no overflow warning from numpy's first norm
            l = qa.canonical_line(vec)
        assert np.allclose(l.amplitudes, want, atol=1e-15)

    def test_line_refuses_a_norm_that_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no overflow warning from numpy's norm
            with pytest.raises(ParameterError, match=r"\|v\| = inf"):
                qa.Line(2, np.array([1e300, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_line_refuses_non_finite_amplitude(self, bad):
        # Refused before the norm check, which a NaN norm would slip through.
        with pytest.raises(ParameterError, match="amplitude 1 is not finite"):
            qa.Line(2, np.array([1, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, 1)])
    def test_canonical_line_names_non_finite_amplitude(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning from normalizing first
            with pytest.raises(ParameterError, match="amplitude 1 is not finite"):
                qa.canonical_line([1, bad])


class TestQuantumAngle:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(1)
        u = random_line(rng, 3)
        assert float(qa.quantum_angle(u, u)) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_right_angle(self):
        e1 = qa.canonical_line([1, 0])
        e2 = qa.canonical_line([0, 1])
        assert float(qa.quantum_angle(e1, e2)) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_balanced_superposition_is_pi_over_4(self):
        e1 = qa.canonical_line([1, 0])
        mix = qa.canonical_line([1, 1])
        assert float(qa.quantum_angle(e1, mix)) == pytest.approx(np.pi / 4, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            qa.quantum_angle(qa.canonical_line([1, 0]), qa.canonical_line([1, 0, 0]))

    def test_metric_axioms_on_samples(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            dim = int(rng.integers(2, 6))
            u, v, w = (random_line(rng, dim) for _ in range(3))
            duv = float(qa.quantum_angle(u, v))
            dvu = float(qa.quantum_angle(v, u))
            assert duv == dvu  # symmetry, bit-exact
            duw = float(qa.quantum_angle(u, w))
            dvw = float(qa.quantum_angle(v, w))
            assert duw <= duv + dvw + 1e-10

    def test_gauge_invariant_angles(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = random_line(rng, 4)
        base = float(qa.quantum_angle(qa.canonical_line(u), v))
        for phi in rng.uniform(0, 2 * np.pi, 100):
            rotated = qa.canonical_line(np.exp(1j * phi) * u)
            assert float(qa.quantum_angle(rotated, v)) == pytest.approx(base, abs=1e-12)

    def test_tiny_angles_resolved(self):
        # arccos of the overlap cannot see angles below sqrt(eps); the
        # residual-based branch must.
        e1 = qa.canonical_line([1, 0, 0])
        for theta in (1e-12, 1e-10, 1e-8):
            v = qa.canonical_line([math.cos(theta), math.sin(theta), 0])
            assert float(qa.quantum_angle(e1, v)) == pytest.approx(theta, rel=1e-6)


class TestPairCanonicalForm:
    def test_orthogonal_pair_balanced_weights(self):
        f = qa.canonical_pair_form(qa.canonical_line([1, 0, 0]), qa.canonical_line([0, 1, 0]))
        assert f.c == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert f.d == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_weights_match_construction_angle(self):
        # v1 = cos(t) e + sin(t) f and v2 = cos(t) e - sin(t) f give
        # c = cos(t), d = sin(t), and c^2 - d^2 equals the overlap.
        rng = np.random.default_rng(4)
        e, f = random_orthonormal_pair(rng, 5)
        t = 0.55
        v1 = qa.canonical_line(math.cos(t) * e.amplitudes + math.sin(t) * f.amplitudes)
        v2 = qa.canonical_line(math.cos(t) * e.amplitudes - math.sin(t) * f.amplitudes)
        form = qa.canonical_pair_form(v1, v2)
        assert form.c == pytest.approx(math.cos(t), abs=1e-12)
        assert form.d == pytest.approx(math.sin(t), abs=1e-12)
        assert form.c**2 - form.d**2 == pytest.approx(abs(qa.inner(v1, v2)), abs=1e-12)

    def test_round_trip_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            v1, v2 = random_line(rng, dim), random_line(rng, dim)
            if qa.lines_equal(v1, v2, 1e-6):
                continue
            form = qa.canonical_pair_form(v1, v2)
            s1, s2 = form.synthesize()
            again = qa.canonical_pair_form(s1, s2)
            assert again.c == pytest.approx(form.c, abs=1e-10)
            assert again.d == pytest.approx(form.d, abs=1e-10)

    def test_round_trip_reproduces_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            dim = int(rng.integers(2, 6))
            v1, v2 = random_line(rng, dim), random_line(rng, dim)
            if qa.lines_equal(v1, v2, 1e-6):
                continue
            s1, s2 = qa.canonical_pair_form(v1, v2).synthesize()
            assert float(qa.quantum_angle(s1, v1)) < 1e-9
            assert float(qa.quantum_angle(s2, v2)) < 1e-9

    def test_invariants_of_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v1, v2 = random_line(rng, 4), random_line(rng, 4)
            if qa.lines_equal(v1, v2, 1e-6):
                continue
            form = qa.canonical_pair_form(v1, v2)
            assert abs(qa.inner(form.e1, form.e2)) < 1e-10
            assert form.c >= form.d > 0
            assert form.c**2 + form.d**2 == pytest.approx(1.0, abs=1e-12)

    def test_coincident_pair_rejected(self):
        v = qa.canonical_line([1, 1j, 0])
        with pytest.raises(DegeneratePairError):
            qa.canonical_pair_form(v, qa.canonical_line([1j, -1, 0]))


class TestCollinearity:
    def test_span_of_two_basis_vectors(self):
        v1 = qa.canonical_line([1, 0, 0])
        v2 = qa.canonical_line([0, 1, 0])
        v3 = qa.canonical_line([1, 1, 0])
        assert qa.is_collinear(v1, v2, v3)

    def test_full_basis_not_collinear(self):
        v1 = qa.canonical_line([1, 0, 0])
        v2 = qa.canonical_line([0, 1, 0])
        v3 = qa.canonical_line([0, 0, 1])
        assert not qa.is_collinear(v1, v2, v3)

    def test_any_three_lines_of_c2_are_collinear(self):
        rng = np.random.default_rng(9)
        assert qa.is_collinear(*(random_line(rng, 2) for _ in range(3)))

    def test_random_combinations_are_collinear(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            dim = int(rng.integers(3, 6))
            v1, v2 = random_line(rng, dim), random_line(rng, dim)
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v3 = qa.canonical_line(a * v1.amplitudes + b * v2.amplitudes)
            assert qa.is_collinear(v1, v2, v3)


class TestTripleCanonicalForm:
    def test_inputs_already_canonical(self):
        c, d = 0.8, 0.6
        v1 = qa.canonical_line([c, 1j * d, 0])
        v2 = qa.canonical_line([c, -1j * d, 0])
        v3 = qa.canonical_line([c, d, 0])
        form = qa.canonical_triple_form(v1, v2, v3)
        assert form.c == pytest.approx(c, abs=1e-12)
        assert form.d == pytest.approx(d, abs=1e-12)
        lams = sorted(np.angle(l) % (2 * np.pi) for l in form.lambdas)
        # The recovered unimodular factors are {i, -i, 1} up to a common
        # rotation and conjugation; compare the multiset of pairwise gaps.
        gaps = sorted(
            ((lams[1] - lams[0]), (lams[2] - lams[1]), (2 * np.pi - lams[2] + lams[0]))
        )
        expect = sorted([np.pi / 2, np.pi / 2, np.pi])
        assert np.allclose(gaps, expect, atol=1e-9)

    def test_random_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            dim = int(rng.integers(3, 6))
            vs = random_collinear_triple(rng, dim)
            form = qa.canonical_triple_form(*vs)
            assert form.c >= form.d > 0
            assert form.c**2 + form.d**2 == pytest.approx(1.0, abs=1e-12)
            for lam in form.lambdas:
                assert abs(lam) == pytest.approx(1.0, abs=1e-12)
            for s, v in zip(form.synthesize(), vs):
                assert float(qa.quantum_angle(s, v)) < 1e-8

    def test_synthesized_parameters_recovered(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            dim = int(rng.integers(3, 6))
            e1, e2 = random_orthonormal_pair(rng, dim)
            d = rng.uniform(0.2, 1 / np.sqrt(2))
            c = math.sqrt(1 - d * d)
            lams = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            if min(abs(lams[i] - lams[j]) for i in range(3) for j in range(i + 1, 3)) < 0.05:
                continue
            vs = [
                qa.canonical_line(c * e1.amplitudes + l * d * e2.amplitudes)
                for l in lams
            ]
            form = qa.canonical_triple_form(*vs)
            assert form.c == pytest.approx(c, abs=1e-8)
            assert form.d == pytest.approx(d, abs=1e-8)

    def test_equilateral_degenerate_weights(self):
        lams = [np.exp(2j * np.pi * k / 3) for k in range(3)]
        r = 1 / np.sqrt(2)
        vs = [qa.canonical_line([r, l * r, 0]) for l in lams]
        form = qa.canonical_triple_form(*vs)
        assert form.c == pytest.approx(r, abs=1e-9)
        assert form.d == pytest.approx(r, abs=1e-9)

    def test_non_collinear_rejected(self):
        with pytest.raises(NotCollinearError):
            qa.canonical_triple_form(
                qa.canonical_line([1, 0, 0]),
                qa.canonical_line([0, 1, 0]),
                qa.canonical_line([0, 0, 1]),
            )

    def test_coincident_rejected(self):
        v1 = qa.canonical_line([1, 0, 0])
        v2 = qa.canonical_line([0, 1, 0])
        with pytest.raises(DegenerateTripleError):
            qa.canonical_triple_form(v1, v2, qa.canonical_line([1j, 0, 0]))


def first_root_bisection(h, lo: float, hi: float, grid: int = 64, tol: float = 1e-12) -> float:
    """Reference root-finder: leftmost root of h on [lo, hi] by a grid scan, then bisection."""
    ts = np.linspace(lo, hi, grid + 1)
    vals = np.array([h(t) for t in ts])
    if np.max(np.abs(vals)) < 1e-15:
        return lo
    if abs(vals[0]) < 1e-15:
        return float(ts[0])
    idx = None
    for i in range(grid):
        if abs(vals[i + 1]) < 1e-15:
            return float(ts[i + 1])
        if vals[i] * vals[i + 1] < 0:
            idx = i
            break
    assert idx is not None, "no sign change found for bisection"
    a, b = float(ts[idx]), float(ts[idx + 1])
    fa = vals[idx]
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = h(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def reference_triple_form(v1, v2, v3):
    """Canonical triple form with the equalizing rotation found numerically.

    Returns (form, t).  Independent of the closed-form rotation: the angle
    is the leftmost root of h on [0, pi/2], located by grid plus bisection.
    """
    pair = qa.canonical_pair_form(v1, v2)
    f1, f2 = pair.e1.amplitudes, pair.e2_vector
    p3 = np.vdot(f1, v3.amplitudes)
    q3 = np.vdot(f2, v3.amplitudes)
    w3 = p3 * f1 + q3 * f2
    w3 = w3 / np.linalg.norm(w3)
    p3 = np.vdot(f1, w3)
    q3 = np.vdot(f2, w3)
    cf, df = pair.c, pair.d

    def h(t):
        ov = abs(p3.conjugate() * np.cos(t) + q3.conjugate() * np.sin(t)) ** 2
        return float(ov - (cf**2 * np.cos(t) ** 2 + df**2 * np.sin(t) ** 2))

    t = first_root_bisection(h, 0.0, np.pi / 2, tol=1e-14)
    e1 = qa.canonical_line(np.cos(t) * f1 + np.sin(t) * f2)
    e2 = qa.canonical_line(-np.sin(t) * f1 + np.cos(t) * f2)
    reps = [v1.amplitudes, v2.amplitudes, w3]
    ps = [np.vdot(e1.amplitudes, r) for r in reps]
    qs = [np.vdot(e2.amplitudes, r) for r in reps]
    c = float(np.mean([abs(p) for p in ps]))
    d = float(np.mean([abs(q) for q in qs]))
    if c < d:
        e1, e2 = e2, e1
        ps, qs = qs, ps
        c, d = d, c
    lambdas = tuple(complex((q / abs(q)) * (p.conjugate() / abs(p))) for p, q in zip(ps, qs))
    return qa.TripleCanonicalForm(e1, e2, c, d, lambdas), t


class TestClosedFormRotation:
    def test_matches_grid_bisection(self):
        rng = np.random.default_rng(31)
        for _ in range(240):
            dim = int(rng.integers(3, 6))
            vs = random_collinear_triple(rng, dim)
            form = qa.canonical_triple_form(*vs)
            ref, _ = reference_triple_form(*vs)
            assert form.c == pytest.approx(ref.c, abs=1e-10)
            assert form.d == pytest.approx(ref.d, abs=1e-10)
            for s, r in zip(form.synthesize(), ref.synthesize()):
                assert float(qa.quantum_angle(s, r)) < 1e-13
            overlaps = [abs(qa.inner(v, form.e1)) for v in vs]
            assert max(overlaps) - min(overlaps) < 1e-14

    def test_equalized_triple_is_not_rotated(self):
        # [c e1 +- i d e2] fix the pair basis, and every third line
        # [c e1 + lambda d e2] already has overlap c with e1, so t = 0.
        c, d = 0.8, 0.6
        vs = [qa.canonical_line([c, lam * d, 0]) for lam in (1j, -1j, 1.0)]
        _, t_ref = reference_triple_form(*vs)
        assert t_ref == 0.0
        pair = qa.canonical_pair_form(vs[0], vs[1])
        form = qa.canonical_triple_form(*vs)
        assert np.array_equal(form.e1.amplitudes, qa.canonical_line(pair.e1.amplitudes).amplitudes)
        assert np.array_equal(form.e2.amplitudes, qa.canonical_line(pair.e2_vector).amplitudes)


class TestLambdasAtModulus:
    def test_roots_reach_the_modulus(self):
        rng = np.random.default_rng(2202)
        for _ in range(500):
            p, q = (complex(*rng.standard_normal(2)) for _ in range(2))
            lo, hi = abs(abs(p) - abs(q)), abs(p) + abs(q)
            m = rng.uniform(lo, hi)
            lams = lambdas_at_modulus(p, q, m)
            assert len(lams) == 2
            for lam in lams:
                assert abs(abs(lam) - 1.0) <= 1e-15
                assert abs(abs(p + lam * q) - m) <= 1e-12
            # The e^{+i psi} root first: lambda q conj(p) has positive imaginary part.
            assert (lams[0] * q * p.conjugate()).imag >= 0 >= (lams[1] * q * p.conjugate()).imag

    def test_out_of_reach_gives_none(self):
        p, q = 0.8 + 0.1j, -0.3j
        lo, hi = abs(abs(p) - abs(q)), abs(p) + abs(q)
        for m in (0.0, lo * (1 - 1e-6), hi * (1 + 1e-6), 10.0):
            assert lambdas_at_modulus(p, q, m) == []
        for m in (lo, hi):
            (lam, other) = lambdas_at_modulus(p, q, m)
            assert abs(abs(p + lam * q) - m) <= 1e-12 and abs(lam - other) <= 1e-7


class TestCircleMembersAt:
    def test_members_reach_the_overlap_and_lie_on_the_circle(self):
        rng = np.random.default_rng(2603)
        for k in range(300):
            dim = 3 + k % 3
            e1, e2 = random_orthonormal_pair(rng, dim)
            d = rng.uniform(0.05, 0.999)
            c = math.sqrt(1 - d * d)
            x = random_line(rng, dim)
            p, q = c * qa.inner(x, e1), d * qa.inner(x, e2)
            m = rng.uniform(abs(abs(p) - abs(q)), abs(p) + abs(q))
            members = circle_members_at(e1, e2, c, d, x, m)
            lams = lambdas_at_modulus(p, q, m)
            assert len(members) == len(lams) == 2
            circle = qa.CircleComponent(e1, e2, c, d)
            for u, lam in zip(members, lams):
                assert np.array_equal(u.amplitudes, circle_member(e1, e2, c, d, lam).amplitudes)
                assert abs(abs(qa.inner(x, u)) - m) <= 1e-12
                assert circle.distance(u) < 1e-12

    def test_an_overlap_out_of_reach_gives_no_member(self):
        e1, e2 = qa.canonical_line([1, 0, 0]), qa.canonical_line([0, 1, 0])
        x = qa.canonical_line([1, 1, 1])
        assert circle_members_at(e1, e2, 0.8, 0.6, x, 0.99) == []


class TestOrthonormalPairRule:
    """Descriptors and the Section 5 constructions refuse and accept the same basis pairs."""

    BUILDS = {
        "circle_intersection": lambda e1, e2: qa.circle_intersection(e1, e2, e1, e2, 1 / math.sqrt(2)),
        "bridge_basis": lambda e1, e2: qa.bridge_basis(e1, e2, e1, e2, qa.AlphaConfig(math.acos(1 / math.sqrt(3)))),
        "CircleComponent": lambda e1, e2: qa.CircleComponent(e1, e2, 0.8, 0.6),
        "PairCanonicalForm": lambda e1, e2: qa.PairCanonicalForm(e1, e2, 0.8, 0.6),
        "TripleCanonicalForm": lambda e1, e2: qa.TripleCanonicalForm(e1, e2, 0.8, 0.6, (1.0 + 0j, 1j, -1j)),
    }

    @pytest.mark.parametrize("build", list(BUILDS))
    @pytest.mark.parametrize("offset, refused", [(5e-10, True), (5e-11, False)])
    def test_one_tolerance_everywhere(self, build, offset, refused):
        e1, e2 = qa.canonical_line([1, 0, 0]), qa.canonical_line([offset, 1, 0])
        if refused:
            with pytest.raises(ParameterError, match="basis pair is not orthonormal"):
                self.BUILDS[build](e1, e2)
        else:
            self.BUILDS[build](e1, e2)


class TestLineJson:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        l = random_line(rng, 4)
        again = qa.Line.from_json(l.to_json())
        assert np.array_equal(l.amplitudes, again.amplitudes)


class TestComplexJson:
    @pytest.mark.parametrize(
        "values",
        [
            complex(-0.0, 5e-324),
            np.array([complex(1e308, -0.0), complex(-0.0, 1e308), complex(5e-324, -5e-324)]),
            np.array([[0.1 + 0.2j, complex(-0.0, -0.0)], [complex(1e308, 5e-324), complex(-1e308, -1e-308)]]),
        ],
    )
    def test_round_trip_is_bit_exact(self, values):
        again = json_complex(json.loads(json.dumps(complex_json(values))), np.ndim(values))
        assert again.shape == np.shape(values)
        assert again.tobytes() == np.asarray(values, dtype=complex).tobytes()


E1, E2 = qa.canonical_line([1, 0, 0]), qa.canonical_line([0, 1, 0])
NAN = float("nan")


def atheta_family(e2_phase=1.0 + 0j, theta0=np.pi / 2):
    """The A_theta family over E1, E2 at alpha = 1.1, where a < d makes the cutoff pi/2."""
    return qa.AthetaFamily(E1, E2, 0.8, 0.6, 1.1, theta0, 3, e2_phase)


class TestCheckClose:
    """Every invariant held within a tolerance refuses NaN and inf, each with its own message."""

    BUILDS = {
        "wigner-inf": (lambda: qa.WignerSymmetry(2, np.array([[np.inf, 0], [0, 1]], dtype=complex), False),
                       "matrix is not unitary"),
        "wigner-nan": (lambda: qa.WignerSymmetry(2, np.array([[1, 0], [0, np.nan]], dtype=complex), False),
                       "matrix is not unitary"),
        "slice-coefficient": (lambda: qa.SphereSliceComponent(E1, NAN, 0.6, ()), r"coefficient\^2 \+ radius\^2 != 1"),
        "pair-e2-phase": (lambda: qa.PairCanonicalForm(E1, E2, 0.8, 0.6, complex(NAN)), "e2_phase must be unimodular"),
        "atheta-e2-phase": (lambda: atheta_family(e2_phase=complex(NAN)), "e2_phase must be unimodular"),
        "atheta-theta0": (lambda: atheta_family(theta0=NAN), "theta0 nan is not the cutoff"),
        "triple-lambda": (lambda: qa.TripleCanonicalForm(E1, E2, 0.8, 0.6, (1.0 + 0j, 1j, complex(NAN))),
                          r"lambda \(nan\+0j\) not unimodular"),
        "cardinality-c1": (lambda: qa.atheta_cardinality(atheta_family(), 0.0, (complex(NAN), 0j, 1.0), qa.AlphaConfig(1.1)),
                           r"\|c1\|\^2 \+ \|c2\|\^2 \+ c3\^2 != 1"),
        "tally-max-residual": (lambda: verify.Tally(max_residual=NAN), "max_residual must be non-negative"),
    }

    @pytest.mark.parametrize("build", list(BUILDS))
    def test_a_non_finite_invariant_is_refused(self, build):
        make, message = self.BUILDS[build]
        with pytest.raises(ParameterError, match=message):
            make()

    @pytest.mark.parametrize("value, refused", [(1.0 + 1e-12, False), (1.0 - 1e-12, False), (1.0 + 3e-12, True),
                                                (math.nan, True), (math.inf, True), (-math.inf, True)])
    def test_the_band_is_closed_and_refuses_nan(self, value, refused):
        if refused:
            with pytest.raises(ParameterError, match="^msg$"):
                check_close(value, 1.0, 2e-12, "msg")
        else:
            check_close(value, 1.0, 2e-12, "msg")

import json
import math

import numpy as np
import pytest

import qangle as qa
from qangle.alphasets import (
    EXCEPTIONAL_TRIPLES,
    HIGHLY_SYMMETRIC,
    AthetaFamily,
    descriptor_from_json,
    has_second_double_component,
    theta0_and_rho,
)
from qangle.errors import (
    CaseError,
    DegenerateTripleError,
    DimensionError,
    DomainError,
    ParameterError,
    RangeError,
    SchemaError,
    WitnessRangeError,
)

from qangle.projspace import orthonormal_complement
from qangle.verify import draw_alpha, standard_family

from conftest import random_line, random_orthonormal_pair

SQ3 = 1 / math.sqrt(3)


def closed_form_theta0(a: float, c: float, d: float) -> float:
    """Independent oracle: solve (a/c)^2 cos^2 + (a/d)^2 sin^2 = 1 for sin^2."""
    if a <= d:
        return np.pi / 2
    s2 = (1 - (a / c) ** 2) / ((a / d) ** 2 - (a / c) ** 2)
    return math.asin(math.sqrt(s2))


def dense_reference_distance(fam: AthetaFamily, v: qa.Line) -> float:
    """An upper bound on ``fam.distance(v)`` that shares no search code with it.

    Each sphere A_theta's nearest member to v is built explicitly; the
    fidelity |x(theta)| + p rho(theta) is scanned on a 2001-point grid, and the
    distance itself is minimised by golden-section search around the five
    highest local maxima of the scan; the endpoints are candidates too.
    """
    a = math.cos(fam.alpha)
    e1, e2 = fam.e1.amplitudes, fam.e2_vector
    w = v.amplitudes - np.vdot(e1, v.amplitudes) * e1 - np.vdot(e2, v.amplitudes) * e2
    p = float(np.linalg.norm(w))
    # With no part of v off span{e1, e2}, any unit vector orthogonal to it will do.
    what = w / p if p > 1e-15 else np.linalg.svd(np.vstack([e1, e2]).conj())[2][2].conj()

    def centers(th):
        return np.multiply.outer((a / fam.c) * np.cos(th), e1) + np.multiply.outer((a / fam.d) * np.sin(th), e2)

    def dist(th: float) -> float:
        center = centers(np.array([th]))[0]
        x = np.vdot(v.amplitudes, center)
        phase = x / abs(x) if abs(x) > 1e-15 else 1.0
        return qa.quantum_angle(v, qa.canonical_line(center + phase * fam.rho(th) * what))

    grid = np.linspace(-fam.theta0, fam.theta0, 2001)
    fid = np.abs(centers(grid) @ v.amplitudes.conj()) + p * fam.rho(grid)
    padded = np.concatenate([[-np.inf], fid, [-np.inf]])
    peaks = np.flatnonzero((fid >= padded[:-2]) & (fid >= padded[2:]))
    peaks = peaks[np.argsort(-fid[peaks])][:5]  # a flat scan has a peak at every point
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    best = min(dist(t) for t in (-fam.theta0, fam.theta0))
    for i in peaks:
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        for _ in range(70):
            x1, x2 = hi - gr * (hi - lo), lo + gr * (hi - lo)
            lo, hi = (lo, x2) if dist(x1) < dist(x2) else (x1, hi)
        best = min(best, dist(lo), dist(hi), dist(grid[i]))
    return best


def std_basis(dim: int):
    eye = np.eye(dim, dtype=complex)
    return [qa.canonical_line(eye[j]) for j in range(dim)]


class TestThetaZeroAndRho:
    def test_balanced_weights_constant_profile(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        r = 1 / math.sqrt(2)
        theta0, rho = theta0_and_rho(cfg, r, r)
        grid = np.linspace(-theta0, theta0, 1000)
        expected = math.sqrt(1 - 2 * cfg.a**2)
        assert np.max(np.abs(rho(grid) - expected)) < 1e-12

    def test_cutoff_is_right_angle_when_a_below_d(self):
        cfg = qa.AlphaConfig.from_alpha(1.2)  # a = 0.362
        theta0, _ = theta0_and_rho(cfg, 0.8, 0.6)
        assert theta0 == np.pi / 2

    def test_bisection_against_closed_form(self):
        # a = 0.6, d = 0.5, c = sqrt(0.75): cutoff below pi/2.
        cfg = qa.AlphaConfig.from_alpha(math.acos(0.6))
        c, d = math.sqrt(0.75), 0.5
        theta0, rho = theta0_and_rho(cfg, c, d)
        assert theta0 == pytest.approx(closed_form_theta0(0.6, c, d), abs=1e-12)
        res = (0.6 / c) ** 2 * math.cos(theta0) ** 2 + (0.6 / d) ** 2 * math.sin(theta0) ** 2
        assert res == pytest.approx(1.0, abs=1e-12)
        assert rho(theta0) >= 0.0

    def test_random_draws_match_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            cfg = draw_alpha(rng)
            d = rng.uniform(0.15, 1 / math.sqrt(2))
            c = math.sqrt(1 - d * d)
            theta0, _ = theta0_and_rho(cfg, c, d)
            assert theta0 == pytest.approx(closed_form_theta0(cfg.a, c, d), abs=1e-12)

    def test_profile_vanishes_at_cutoff_iff_a_at_least_d(self):
        cfg = qa.AlphaConfig.from_alpha(0.9)  # a = 0.622
        theta0, rho = theta0_and_rho(cfg, math.sqrt(1 - 0.36), 0.6)  # a > d
        assert rho(theta0) == pytest.approx(0.0, abs=1e-7)
        cfg2 = qa.AlphaConfig.from_alpha(1.2)  # a = 0.362 < d
        theta02, rho2 = theta0_and_rho(cfg2, math.sqrt(1 - 0.36), 0.6)
        assert rho2(theta02) > 0.1

    def test_monotonicity_of_profile(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            cfg = draw_alpha(rng)
            d = rng.uniform(0.15, 1 / math.sqrt(2) - 1e-3)
            c = math.sqrt(1 - d * d)
            theta0, rho = theta0_and_rho(cfg, c, d)
            vals = rho(np.linspace(-theta0, theta0, 1000))
            diffs = np.diff(vals)
            mid = len(diffs) // 2
            assert np.all(diffs[:mid] >= -1e-12)
            assert np.all(diffs[mid:] <= 1e-12)

    def test_domain_guard(self):
        cfg = qa.AlphaConfig.from_alpha(0.9)
        theta0, rho = theta0_and_rho(cfg, math.sqrt(1 - 0.36), 0.6)
        with pytest.raises(DomainError):
            rho(theta0 + 1e-3)

    def test_nan_theta_is_domain_error(self):
        # NaN fails every comparison, so the range test is written to pass only inside it.
        cfg = qa.AlphaConfig.from_alpha(1.0)
        _, rho = theta0_and_rho(cfg, 0.8, 0.6)
        fam = standard_family(cfg, 0.8, 0.6)
        for call in (rho, fam.rho, lambda th: qa.atheta_cardinality(fam, th, (0.6 + 0j, 0j, 0.8), cfg)):
            with pytest.raises(DomainError):
                call(math.nan)
        for call in (rho, fam.rho):
            with pytest.raises(DomainError):
                call(np.array([0.0, math.nan]))

    def test_parameter_guards(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        with pytest.raises(ParameterError):
            theta0_and_rho(cfg, 0.6, 0.8)  # c < d
        with pytest.raises(ParameterError):
            theta0_and_rho(qa.AlphaConfig.from_alpha(0.2), 0.7, math.sqrt(1 - 0.49))

    def test_family_guards_at_construction(self):
        e1, e2 = std_basis(4)[:2]
        with pytest.raises(ParameterError):
            AthetaFamily(e1, e2, 0.6, 0.8, 1.0, np.pi / 2, 4)  # c < d
        with pytest.raises(ParameterError):
            AthetaFamily(e1, e2, 0.8, 0.7, 1.0, np.pi / 2, 4)  # c^2 + d^2 != 1
        # c = a passes the cutoff equation at theta0 = 0 but leaves no profile.
        cfg = qa.AlphaConfig.from_alpha(math.acos(0.8))
        c = cfg.a
        with pytest.raises(ParameterError):
            AthetaFamily(e1, e2, c, math.sqrt(1 - c * c), float(cfg.alpha), 0.0, 4)

    @pytest.mark.parametrize("a", [0.75, 0.5], ids=["a-above-d", "a-below-d"])
    def test_family_checks_theta0_against_the_closed_form(self, a):
        e1, e2 = std_basis(4)[:2]
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        c, d = 0.8, 0.6
        theta0, _ = theta0_and_rho(cfg, c, d)
        assert (theta0 < np.pi / 2) == (a > d)
        for off in (-1e-13, 1e-13):
            fam = AthetaFamily(e1, e2, c, d, float(cfg.alpha), theta0 + off, 4)
            assert fam.theta0 == theta0 + off
        for off in (-1e-9, 1e-9):
            with pytest.raises(ParameterError, match="cutoff"):
                AthetaFamily(e1, e2, c, d, float(cfg.alpha), theta0 + off, 4)


class TestPairAlphaSet:
    def test_members_at_angle_alpha_from_both(self):
        # Samples lie at alpha from both generators and on the descriptor, on
        # both sides of the cutoff: a <= d (theta0 = pi/2) and a > d.
        rng = np.random.default_rng(14)
        sides = set()
        for dim in (3, 4, 5):
            for k in range(8):
                v1, v2 = random_line(rng, dim), random_line(rng, dim)
                pair = qa.canonical_pair_form(v1, v2)
                lo, hi = (pair.d, pair.c) if k % 2 else (0.05, pair.d)
                cfg = qa.AlphaConfig.from_alpha(math.acos(rng.uniform(lo, hi)))
                sides.add(cfg.a > pair.d)
                descr = qa.pair_alpha_set(v1, v2, cfg)
                for p in descr.sample(50, rng):
                    assert abs(float(qa.quantum_angle(p, v1)) - cfg.alpha) < 1e-10
                    assert abs(float(qa.quantum_angle(p, v2)) - cfg.alpha) < 1e-10
                    assert descr.distance(p) < 1e-12
        assert sides == {True, False}

    def test_cutoff_sphere_degenerates_when_a_exceeds_d(self):
        # rho(+-theta0) = 0 exactly when a > d: the extremal sphere is one line.
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 2000:
            cfg = draw_alpha(rng)
            d = rng.uniform(0.15, 1 / math.sqrt(2))
            c = math.sqrt(1 - d * d)
            if not c > cfg.a > d:
                continue
            theta0, rho = theta0_and_rho(cfg, c, d)
            assert rho(theta0) == 0.0 and rho(-theta0) == 0.0
            assert np.all(rho(np.array([-theta0, theta0])) == 0.0)
            checked += 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "alpha, d",
        [
            (1.1, 1 / math.sqrt(2)),  # c and d one ulp apart
            (1.1, 1 / math.sqrt(2) - 1e-9),
            (1.1, 0.7071067811865476),  # c = d exactly
            (0.9, 0.45),  # a > d: the cutoff sphere is a single line
        ],
        ids=["one-ulp", "near-tie", "tie", "a-above-d"],
    )
    def test_distance_never_exceeds_a_dense_reference(self, alpha, d):
        rng = np.random.default_rng(17)
        cfg = qa.AlphaConfig.from_alpha(alpha)
        c = max(d, math.sqrt(1 - d * d))  # at the tie, sqrt(1 - d^2) rounds one ulp below d
        theta0, _ = theta0_and_rho(cfg, c, d)
        for dim in (3, 4):
            e1, e2 = random_orthonormal_pair(rng, dim)
            phase = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
            fam = AthetaFamily(e1, e2, c, d, cfg.alpha, theta0, dim, phase)
            eh2 = fam.e2_vector
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            off_span = z - np.vdot(e1.amplitudes, z) * e1.amplitudes - np.vdot(eh2, z) * eh2
            rows = [
                e1,  # p = 0
                qa.canonical_line(off_span),  # |x| = 0
                qa.canonical_line(e1.amplitudes + 1j * eh2),  # G = 0 when c = d
                *(random_line(rng, dim) for _ in range(3)),
            ]
            for m in fam.sample(4, rng):
                rows.append(m)
                rows.append(qa.canonical_line(m.amplitudes + 1e-6 * random_line(rng, dim).amplitudes))
            for v in rows:
                got = fam.distance(v)
                assert math.isfinite(got)
                assert got <= dense_reference_distance(fam, v) + 1e-12

    def test_oracle_members_lie_in_descriptor(self, cloud4):
        rng = np.random.default_rng(15)
        cfg = qa.AlphaConfig.from_alpha(1.05)
        v1, v2 = random_line(rng, 4), random_line(rng, 4)
        descr = qa.pair_alpha_set(v1, v2, cfg)
        found = qa.discover_alpha_set([v1, v2], cfg, cloud4, 2e-2, 1e-7)
        assert len(found) >= 100
        for m in found:
            assert descr.distance(m) < 1e-6

    def test_degenerate_pair_rejected(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        v = qa.canonical_line([1, 1j, 0])
        with pytest.raises(qa.DegeneratePairError):
            qa.pair_alpha_set(v, v, cfg)


class TestCollinearTripleAlphaSet:
    def _form(self, c, d, dim=4):
        basis = std_basis(dim)
        lams = (1.0 + 0j, np.exp(0.9j), np.exp(-2.0j))
        return qa.TripleCanonicalForm(basis[0], basis[1], c, d, lams)

    def test_single_component_when_a_exceeds_d(self):
        cfg = qa.AlphaConfig.from_alpha(0.9)  # a = 0.622
        form = self._form(0.92, math.sqrt(1 - 0.92**2))  # d = 0.392
        descr = qa.collinear_triple_alpha_set(form, cfg, 4)
        assert len(descr.components) == 1

    def test_two_components_when_a_at_most_d(self):
        cfg = qa.AlphaConfig.from_alpha(1.2)  # a = 0.362
        form = self._form(0.8, 0.6)
        descr = qa.collinear_triple_alpha_set(form, cfg, 4)
        assert len(descr.components) == 2

    def test_tie_gives_isolated_point_component(self):
        # a = d makes the second slice radius sqrt(1 - a^2/d^2) = 0.
        d = 0.55
        cfg = qa.AlphaConfig.from_alpha(math.acos(d))
        form = self._form(math.sqrt(1 - d * d), d)
        descr = qa.collinear_triple_alpha_set(form, cfg, 4)
        assert len(descr.components) == 2
        point = descr.components[1]
        assert isinstance(point, qa.PointComponent)
        assert qa.lines_equal(point.line, form.e2)

    def test_members_at_angle_alpha(self):
        rng = np.random.default_rng(16)
        cfg = qa.AlphaConfig.from_alpha(1.15)
        form = self._form(0.78, math.sqrt(1 - 0.78**2))
        gens = form.synthesize()
        descr = qa.collinear_triple_alpha_set(form, cfg, 4)
        for p in descr.sample(300, rng):
            for g in gens:
                assert abs(float(qa.quantum_angle(p, g)) - float(cfg.alpha)) < 1e-10

    def test_oracle_members_lie_in_descriptor(self, cloud4):
        cfg = qa.AlphaConfig.from_alpha(1.2)
        form = self._form(0.8, 0.6)
        gens = list(form.synthesize())
        descr = qa.collinear_triple_alpha_set(form, cfg, 4)
        found = qa.discover_alpha_set(gens, cfg, cloud4, 3e-2, 1e-7)
        assert len(found) >= 50
        for m in found:
            assert descr.distance(m) < 1e-6

    def test_oracle_members_lie_in_descriptor_dim3(self, cloud3):
        cfg = qa.AlphaConfig.from_alpha(1.15)
        form = self._form(0.8, 0.6, dim=3)
        gens = list(form.synthesize())
        descr = qa.collinear_triple_alpha_set(form, cfg, 3)
        found = qa.discover_alpha_set(gens, cfg, cloud3, 5e-2, 1e-7)
        assert len(found) >= 20
        for m in found:
            assert descr.distance(m) < 1e-5

    def test_repeated_lambdas_rejected(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        basis = std_basis(4)
        form = qa.TripleCanonicalForm(
            basis[0], basis[1], 0.8, 0.6, (1.0 + 0j, 1.0 + 0j, 1j)
        )
        with pytest.raises(DegenerateTripleError):
            qa.collinear_triple_alpha_set(form, cfg, 4)


class TestDoubleAlphaSetClassify:
    def _form(self, c, d, dim):
        basis = std_basis(dim)
        lams = (1.0 + 0j, np.exp(1.1j), np.exp(-0.8j))
        return qa.TripleCanonicalForm(basis[0], basis[1], c, d, lams)

    def test_dim4_always_single_circle_through_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            cfg = draw_alpha(rng)
            d = rng.uniform(0.15, 1 / math.sqrt(2))
            c = math.sqrt(1 - d * d)
            form = self._form(c, d, 4)
            descr = qa.double_alpha_set_classify(form, cfg, 4)
            assert len(descr.components) == 1
            circle = descr.components[0]
            assert isinstance(circle, qa.CircleComponent)
            for g in form.synthesize():
                assert circle.distance(g) < 1e-12

    def test_exceptional_double_circle(self):
        # (a, c, d) = (1/sqrt3, sqrt(2/3), 1/sqrt3): circle plus second circle
        # with weights sqrt(1/3) and sqrt(2/3).
        a, c, d = EXCEPTIONAL_TRIPLES[0]
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        descr = qa.double_alpha_set_classify(self._form(c, d, 3), cfg, 3)
        assert len(descr.components) == 2
        second = descr.components[1]
        assert isinstance(second, qa.CircleComponent)
        assert second.c == pytest.approx(math.sqrt(1 / 3), abs=1e-12)
        assert second.d == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
        assert qa.lines_equal(second.e1, std_basis(3)[1])
        assert qa.lines_equal(second.e2, std_basis(3)[2])

    def test_exceptional_circle_point(self):
        # (a, c, d) = (1/sqrt3, 1/sqrt2, 1/sqrt2): circle plus the isolated
        # third basis line.
        a, c, d = EXCEPTIONAL_TRIPLES[1]
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        descr = qa.double_alpha_set_classify(self._form(c, d, 3), cfg, 3)
        assert len(descr.components) == 2
        second = descr.components[1]
        assert isinstance(second, qa.PointComponent)
        assert float(qa.quantum_angle(second.line, std_basis(3)[2])) < 1e-12

    def test_generic_dim3_single_circle(self):
        cfg = qa.AlphaConfig.from_alpha(1.2)  # a = 0.362
        descr = qa.double_alpha_set_classify(self._form(0.8, 0.6, 3), cfg, 3)
        assert len(descr.components) == 1

    def test_dim3_second_component_present_in_main_clause(self):
        cfg = qa.AlphaConfig.from_alpha(0.9)  # a = 0.622
        d = 0.35
        c = math.sqrt(1 - d * d)
        assert c / math.sqrt(1 + c * c) > cfg.a > d
        descr = qa.double_alpha_set_classify(self._form(c, d, 3), cfg, 3)
        assert len(descr.components) == 2

    def test_range_guard(self):
        cfg = qa.AlphaConfig.from_alpha(0.5)  # below pi/4
        with pytest.raises(RangeError):
            qa.double_alpha_set_classify(self._form(0.8, 0.6, 3), cfg, 3)

    def test_components_pairwise_disjoint_by_sampling(self):
        a, c, d = EXCEPTIONAL_TRIPLES[0]
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        descr = qa.double_alpha_set_classify(self._form(c, d, 3), cfg, 3)
        rng = np.random.default_rng(18)
        first = descr.components[0].sample(40, rng)
        second = descr.components[1].sample(40, rng)
        for x in first:
            for y in second:
                assert float(qa.quantum_angle(x, y)) > 1e-3


class TestCardinality:
    def _family(self, cfg, c, d, dim=4):
        basis = std_basis(dim)
        theta0, _ = theta0_and_rho(cfg, c, d)
        return AthetaFamily(basis[0], basis[1], c, d, float(cfg.alpha), theta0, dim)

    def test_zero_overlap_with_matching_radius_is_infinite(self):
        # z(theta) = 0 at theta = 0 with c1 = 0; choose c3 so rho(0) = a/c3.
        a = 0.45
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        c, d = 0.8, 0.6
        fam = self._family(cfg, c, d)
        rho0 = math.sqrt(1 - (a / c) ** 2)
        c3 = a / rho0
        assert c3 < 1
        c2 = math.sqrt(1 - c3 * c3)
        card = qa.atheta_cardinality(fam, 0.0, (0j, c2 + 0j, c3), cfg)
        assert card.tag == "infinite"

    def test_exact_boundary_is_one(self):
        # Solve a = |z| + c3 rho in closed form, then classify.
        rng = np.random.default_rng(19)
        hits = 0
        for _ in range(50):
            c, d = 0.85, math.sqrt(1 - 0.85**2)
            theta = rng.uniform(-0.3, 0.3)
            c1 = rng.standard_normal() + 1j * rng.standard_normal()
            c2 = rng.standard_normal() + 1j * rng.standard_normal()
            c3 = rng.uniform(0.3, 0.8)
            s = math.sqrt((1 - c3 * c3) / (abs(c1) ** 2 + abs(c2) ** 2))
            c1, c2 = c1 * s, c2 * s
            z0 = c1 * math.cos(theta) / c + c2 * math.sin(theta) / d
            kk = math.cos(theta) ** 2 / c**2 + math.sin(theta) ** 2 / d**2
            a = c3 / math.sqrt((1 - abs(z0)) ** 2 + c3 * c3 * kk)
            if not (0 < a < min(c - 1e-6, 0.999)) or abs(z0) >= 1 or abs(z0) < 1e-3:
                continue
            cfg = qa.AlphaConfig.from_alpha(math.acos(a))
            fam = self._family(cfg, c, d)
            if abs(theta) > fam.theta0:
                continue
            card = qa.atheta_cardinality(fam, theta, (c1, c2, c3), cfg)
            assert card.tag == "one"
            hits += 1
        assert hits >= 20

    def test_strict_band_is_infinite_and_grid_confirmed(self):
        # |z| = 0.5, c3 rho = 0.3, a = 0.6: inside the open band.
        a = 0.6
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        c, d = 0.9, math.sqrt(1 - 0.81)
        fam = self._family(cfg, c, d)
        rho0 = fam.rho(0.0)
        c3 = 0.3 / rho0
        c1 = 0.5 * c / a  # z(0) = c1 a / c = 0.5
        c2s = 1 - c1 * c1 - c3 * c3
        assert c2s > 0
        card = qa.atheta_cardinality(fam, 0.0, (c1, math.sqrt(c2s) * 1j, c3), cfg)
        assert card.tag == "infinite"
        # Independent grid scan: two roots on the outer circle, so the
        # solution circle crosses the open disk.
        count = qa.root_count_on_circle(0.5, 0.3, 0.6, 1_000_000)
        assert count == 2

    def test_sweep_agreement_with_disk_oracle(self):
        rng = np.random.default_rng(20)
        a0 = 0.55
        cfg = qa.AlphaConfig.from_alpha(math.acos(a0))
        c, d = 0.82, math.sqrt(1 - 0.82**2)
        fam = self._family(cfg, c, d)
        checked = 0
        while checked < 200:
            theta = rng.uniform(-fam.theta0, fam.theta0)
            c1 = rng.standard_normal() + 1j * rng.standard_normal()
            c2 = rng.standard_normal() + 1j * rng.standard_normal()
            c3 = rng.uniform(0.2, 0.9)
            s = math.sqrt((1 - c3 * c3) / (abs(c1) ** 2 + abs(c2) ** 2))
            c1, c2 = c1 * s, c2 * s
            card = qa.atheta_cardinality(fam, theta, (c1, c2, c3), cfg)
            if card.margin < 1e-6:
                continue
            z = c1 * (a0 / c) * math.cos(theta) + c2 * (a0 / d) * math.sin(theta)
            if abs(z) < 1e-6:
                continue
            total = qa.root_count_on_disk(z, c3 * fam.rho(theta), a0, 2048, 48)
            sweep = "infinite" if (total is math.inf or total >= 2) else "zero"
            assert card.tag == sweep
            checked += 1

    def test_phased_family_reads_the_overlap_with_its_own_center(self):
        # pair_alpha_set's families carry the phase of the pair's canonical
        # form.  A_theta is the sphere of radius rho(theta) about that
        # family's center, off e1 and e2, so its overlaps with v3 fill the
        # band |<v3, center>| -+ c3 rho(theta).
        rng = np.random.default_rng(24)
        cfg = qa.AlphaConfig.from_alpha(1.2)
        a, basis = cfg.a, std_basis(4)
        checked = 0
        while checked < 400:
            d = rng.uniform(0.15, 1 / math.sqrt(2))
            c = math.sqrt(1 - d * d)
            theta0, _ = theta0_and_rho(cfg, c, d)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            fam = AthetaFamily(basis[0], basis[1], c, d, float(cfg.alpha), theta0, 4, phase)
            theta = rng.uniform(-theta0, theta0)
            coeffs = rng.standard_normal(6)
            coeffs /= np.linalg.norm(coeffs)
            c1, c2, c3 = complex(*coeffs[:2]), complex(*coeffs[2:4]), float(np.hypot(*coeffs[4:]))
            card = qa.atheta_cardinality(fam, theta, (c1, c2, c3), cfg)
            w = abs(np.vdot(np.array([c1, c2, c3, 0]), fam._center(theta)))
            r = c3 * fam.rho(theta)
            if min(abs(a - (w - r)), abs(a - (w + r))) < 1e-6:
                continue
            assert card.tag == ("infinite" if w - r < a < w + r else "zero"), (phase, theta, c1, c2, c3)
            checked += 1

    def test_domain_and_parameter_guards(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        fam = self._family(cfg, 0.8, 0.6)
        with pytest.raises(ParameterError):
            qa.atheta_cardinality(fam, 0.0, (0.5 + 0j, 0.5 + 0j, 0.5), cfg)
        with pytest.raises(DomainError):
            qa.atheta_cardinality(
                fam, fam.theta0 + 0.1, (0.6 + 0j, 0j, 0.8), cfg
            )

    def test_cfg_of_another_alpha_refused(self):
        # z would take cos(alpha) from cfg and rho from the family, mixing two angles.
        fam = standard_family(qa.AlphaConfig.from_alpha(1.0), 0.8, 0.6)
        coeffs = (0.5 + 0j, 0.5j, math.sqrt(0.5))
        with pytest.raises(ParameterError):
            qa.atheta_cardinality(fam, 0.0, coeffs, qa.AlphaConfig.from_alpha(1.2))
        assert qa.atheta_cardinality(fam, 0.0, coeffs, qa.AlphaConfig.from_alpha(1.0)).tag in ("zero", "one", "infinite")


def scanned_circle_distance(circle, v: qa.Line, grid: int = 20_000) -> float:
    """Smallest angle from v to the members c e1 + lambda d e2 on a dense grid of phases lambda."""
    lams = np.exp(2j * np.pi * np.arange(grid) / grid)
    members = circle.c * circle.e1.amplitudes + np.multiply.outer(lams * circle.d, circle.e2.amplitudes)
    return float(np.arccos(min(np.max(np.abs(members.conj() @ v.amplitudes)), 1.0)))


def components_of_dim4() -> dict:
    basis = std_basis(4)
    return {
        "atheta": standard_family(qa.AlphaConfig.from_alpha(1.1), 0.8, 0.6),
        "circle": qa.CircleComponent(basis[0], basis[1], 0.8, 0.6),
        "slice": qa.SphereSliceComponent(basis[0], 0.8, 0.6, (basis[1],)),
        "point": qa.PointComponent(basis[2]),
    }


class TestLineOfAnotherDimension:
    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize("kind", ["atheta", "circle", "slice", "point"])
    def test_distance_refuses_it(self, kind, dim):
        comp = components_of_dim4()[kind]
        line = qa.canonical_line(np.ones(dim))
        with pytest.raises(DimensionError):
            comp.distance(line)
        with pytest.raises(DimensionError):
            qa.AlphaSetDescriptor((comp,)).distance(line)

    def test_slice_refuses_orthogonal_lines_of_another_dimension(self):
        with pytest.raises(DimensionError):
            qa.SphereSliceComponent(std_basis(4)[0], 0.8, 0.6, (std_basis(3)[1],))


class TestCircleDistance:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_never_exceeds_a_dense_phase_scan(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(20):
            e1, e2 = random_orthonormal_pair(rng, dim)
            c = float(rng.uniform(math.sqrt(0.5), 0.99))
            circle = qa.CircleComponent(e1, e2, c, math.sqrt(1 - c * c))
            span = np.vstack([e1.amplitudes, e2.amplitudes])
            off = qa.canonical_line(orthonormal_complement(span, dim)[0])
            for v in [random_line(rng, dim) for _ in range(5)] + [e1, e2, off]:
                dist, scan = circle.distance(v), scanned_circle_distance(circle, v)
                assert dist <= scan + 1e-12
                assert scan - dist <= 1e-6


class TestSphereDistancePrecision:
    """A line eps off a circle or a slice, orthogonally to the sphere's span, reads eps.

    The nearest member's fidelity is cos(eps), so an arccos of it alone would
    read 0 at eps = 1e-10; the bounds above only catch a distance too large.
    """

    @pytest.mark.parametrize("eps", [0.0, 1e-14, 1e-10, 1e-6, 1e-2, 0.3])
    @pytest.mark.parametrize("kind", ["circle", "slice", "centerless-slice"])
    def test_distance_reads_the_offset(self, kind, eps):
        rng = np.random.default_rng(7)
        frame, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        lines = [qa.canonical_line(col) for col in frame.T]
        e1, e2, e3, e4 = (l.amplitudes for l in lines)
        if kind == "circle":
            comp = qa.CircleComponent(lines[0], lines[1], 0.8, 0.6)
            member, off = comp.member(np.exp(0.4j)).amplitudes, e3
        else:
            # A slice of coefficient 0 is the unit sphere of its span.
            q, r = (math.cos(0.7), math.sin(0.7)) if kind == "slice" else (0.0, 1.0)
            comp = qa.SphereSliceComponent(lines[0], q, r, (lines[0], lines[1]))
            member, off = q * e1 + r * (e3 + 1j * e4) / math.sqrt(2), e2
        v = qa.canonical_line(math.cos(eps) * member + math.sin(eps) * off)
        assert abs(comp.distance(v) - eps) <= 2e-15


class TestCounterexampleWitness:
    def test_exceptional_witness_passes_post_checks(self):
        a, c, d = EXCEPTIONAL_TRIPLES[0]
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        u1, u2, u3, w = qa.counterexample_witness(cfg, c, d, 0.05)
        alpha = float(cfg.alpha)
        for u in (u1, u2, u3):
            assert abs(float(qa.quantum_angle(w, u)) - alpha) < 1e-9
        form = qa.TripleCanonicalForm(
            qa.canonical_line([1, 0, 0]),
            qa.canonical_line([0, 1, 0]),
            c,
            d,
            (1.0 + 0j, 1j, -1j),
        )
        double = qa.double_alpha_set_classify(form, cfg, 3)
        for u in (u1, u2, u3):
            assert double.distance(u) < 1e-9
        first = qa.collinear_triple_alpha_set(form, cfg, 3)
        assert first.distance(w) > 1e-6

    def test_main_clause_witness(self):
        cfg = qa.AlphaConfig.from_alpha(0.9)  # a = 0.622
        d = 0.3
        c = math.sqrt(1 - d * d)
        u1, u2, u3, w = qa.counterexample_witness(cfg, c, d, 0.05)
        alpha = float(cfg.alpha)
        for u in (u1, u2, u3):
            assert abs(float(qa.quantum_angle(w, u)) - alpha) < 1e-9

    def test_offset_guard(self):
        a, c, d = EXCEPTIONAL_TRIPLES[0]
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        with pytest.raises(WitnessRangeError):
            qa.counterexample_witness(cfg, c, d, 1.5)

    @staticmethod
    def assert_witness(cfg, c, d, quad):
        """Check the quadruple against the canonical triple's descriptors; returns the double-alpha-set."""
        u1, u2, u3, w = quad
        form = qa.TripleCanonicalForm(*std_basis(3)[:2], c, d, (1.0 + 0j, 1j, -1j))
        double = qa.double_alpha_set_classify(form, cfg, 3)
        for u in (u1, u2, u3):
            assert double.distance(u) < 1e-9
            assert abs(float(qa.quantum_angle(w, u)) - cfg.alpha) < 1e-9
        assert qa.collinear_triple_alpha_set(form, cfg, 3).distance(w) > 1e-6
        return double

    def test_default_offset_over_the_two_component_region(self):
        # The default t = arcsin(d) / 2 needs no search: it succeeds across the
        # region, at both exceptional triples and in the band about the
        # boundary c / sqrt(1 + c^2) = a, where the second circle shrinks to a line.
        rng = np.random.default_rng(2201)
        cases = [(math.acos(a), c, d) for a, c, d in EXCEPTIONAL_TRIPLES]
        while len(cases) < 400:
            d = rng.uniform(0.02, 0.62)
            c = math.sqrt(1 - d * d)
            edge = c / math.sqrt(1 + c * c)
            if edge <= d + 1e-9:
                continue
            a = rng.uniform(d, edge) if len(cases) % 2 else edge - rng.uniform(-5e-11, 1e-9)
            if a > d + 1e-9:
                cases.append((math.acos(a), c, d))
        seen_point = False
        for alpha, c, d in cases:
            cfg = qa.AlphaConfig.from_alpha(alpha)
            assert has_second_double_component(cfg, c, d)
            double = self.assert_witness(cfg, c, d, qa.counterexample_witness(cfg, c, d))
            seen_point |= isinstance(double.components[1], qa.PointComponent)
        assert seen_point

    @pytest.mark.parametrize(
        "a, c, d",
        [EXCEPTIONAL_TRIPLES[0], EXCEPTIONAL_TRIPLES[1], (0.6, math.sqrt(1 - 0.55**2), 0.55), (0.622, math.sqrt(0.91), 0.3)],
        ids=["exceptional-0", "exceptional-1", "upper-end-pi/2-beta", "upper-end-2beta"],
    )
    def test_explicit_offset_interval(self, a, c, d):
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        beta = math.asin(d)
        hi = min(2 * beta, math.pi / 2 - beta)
        for t in (hi + 1e-9, 0.0, -1e-9):
            with pytest.raises(WitnessRangeError):
                qa.counterexample_witness(cfg, c, d, t)
        for t in (hi - 1e-9, 1e-4, beta / 2):
            self.assert_witness(cfg, c, d, qa.counterexample_witness(cfg, c, d, t))

    def test_case_guard(self):
        cfg = qa.AlphaConfig.from_alpha(1.2)  # a = 0.362, single-circle case
        with pytest.raises(CaseError):
            qa.counterexample_witness(cfg, 0.8, 0.6, 0.05)


class TestDescriptorJson:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        cfg = qa.AlphaConfig.from_alpha(1.1)
        v1, v2 = random_line(rng, 4), random_line(rng, 4)
        descr = qa.pair_alpha_set(v1, v2, cfg)
        blob = json.dumps(descr.to_json(), sort_keys=True)
        again = descriptor_from_json(json.loads(blob))
        assert json.dumps(again.to_json(), sort_keys=True) == blob
        p = descr.sample(5, np.random.default_rng(1))[0]
        assert again.distance(p) < 1e-8

    def test_atheta_family_is_the_component(self):
        rng = np.random.default_rng(22)
        v1, v2 = random_line(rng, 4), random_line(rng, 4)
        descr = qa.pair_alpha_set(v1, v2, qa.AlphaConfig.from_alpha(1.1))
        assert type(descr.components[0]) is AthetaFamily
        again = descriptor_from_json(json.loads(json.dumps(descr.to_json())))
        assert type(again.components[0]) is AthetaFamily
        v = random_line(rng, 4)
        assert again.distance(v) == descr.distance(v)

    def test_circle_round_trip(self):
        basis = std_basis(4)
        descr = qa.AlphaSetDescriptor((qa.Circle(basis[0], basis[2], 0.8, 0.6),))
        blob = json.dumps(descr.to_json(), sort_keys=True)
        again = descriptor_from_json(json.loads(blob))
        assert type(again.components[0]) is qa.Circle
        assert json.dumps(again.to_json(), sort_keys=True) == blob
        v = qa.canonical_line([0.3, 0.5j, 0.4, 0.2])
        assert again.distance(v) == descr.distance(v)

    def test_empty_descriptor_refused(self):
        with pytest.raises(SchemaError):
            descriptor_from_json({"components": []})

    @staticmethod
    def pair_wire() -> dict:
        rng = np.random.default_rng(23)
        descr = qa.pair_alpha_set(random_line(rng, 4), random_line(rng, 4), qa.AlphaConfig.from_alpha(1.1))
        return json.loads(json.dumps(descr.to_json()))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("kind", "sphere"),
            ("c", "0.8"),
            ("ambient_dim", True),
        ],
    )
    def test_mistyped_field_is_schema_error(self, key, value):
        wire = self.pair_wire()
        wire["components"][0][key] = value
        with pytest.raises(SchemaError):
            descriptor_from_json(wire)

    def test_missing_field_is_schema_error(self):
        wire = self.pair_wire()
        del wire["components"][0]["theta0"]
        with pytest.raises(SchemaError, match="theta0"):
            descriptor_from_json(wire)

    def test_non_list_orthogonal_to_is_schema_error(self):
        basis = std_basis(3)
        descr = qa.AlphaSetDescriptor((qa.SphereSliceComponent(basis[0], 0.6, 0.8, (basis[0], basis[1])),))
        wire = json.loads(json.dumps(descr.to_json()))
        wire["components"][0]["orthogonal_to"] = wire["components"][0]["orthogonal_to"][0]
        with pytest.raises(SchemaError):
            descriptor_from_json(wire)

    def test_omitted_e2_phase_is_one(self):
        wire = self.pair_wire()
        del wire["components"][0]["e2_phase"]
        fam = descriptor_from_json(wire).components[0]
        assert type(fam.e2_phase) is complex and fam.e2_phase == 1 + 0j

    def test_all_component_kinds_round_trip(self):
        a, c, d = EXCEPTIONAL_TRIPLES[1]
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        basis = std_basis(3)
        form = qa.TripleCanonicalForm(
            basis[0], basis[1], c, d, (1.0 + 0j, 1j, -1j)
        )
        for descr in (
            qa.collinear_triple_alpha_set(form, cfg, 3),
            qa.double_alpha_set_classify(form, cfg, 3),
        ):
            blob = json.dumps(descr.to_json(), sort_keys=True)
            again = descriptor_from_json(json.loads(blob))
            assert json.dumps(again.to_json(), sort_keys=True) == blob


class TestCaseSplitPredicate:
    def test_exceptional_matching_is_exact(self):
        a, c, d = EXCEPTIONAL_TRIPLES[0]
        cfg = qa.AlphaConfig.from_alpha(math.acos(a))
        assert has_second_double_component(cfg, c, d)
        # Moving d just above a leaves the exceptional triple and lands in
        # the single-circle region (the generic clause needs a > d).
        assert not has_second_double_component(cfg, c - 1e-8, d + 1.18e-8)
        a2, c2, d2 = EXCEPTIONAL_TRIPLES[1]
        cfg2 = qa.AlphaConfig.from_alpha(math.acos(a2))
        assert has_second_double_component(cfg2, c2, d2)
        assert not has_second_double_component(cfg2, c2 - 1e-8, d2 + 1e-8)

    def test_generic_clause(self):
        cfg = qa.AlphaConfig.from_alpha(0.9)  # a = 0.622
        assert has_second_double_component(cfg, math.sqrt(1 - 0.09), 0.3)
        assert not has_second_double_component(cfg, 0.72, math.sqrt(1 - 0.72**2))

    @pytest.mark.parametrize("dim", [3, 4])
    def test_classifier_and_double_alpha_set_agree(self, dim):
        # classify_circle and double_alpha_set_classify read one split: a circle
        # is highly symmetric exactly when a triple on it has a one-component
        # double-alpha-set.  Cases: both exceptional triples, then 1e-9 either
        # side of each boundary, d = a and c / sqrt(1 + c^2) = a (a = 0.6 and
        # c = 0.95), the side of the second component first.
        c_edge = 0.95
        edge = c_edge / math.sqrt(1 + c_edge * c_edge)
        cases = [*EXCEPTIONAL_TRIPLES]
        for step in (-1e-9, 1e-9):
            cases += [(0.6, math.sqrt(1 - (0.6 + step) ** 2), 0.6 + step), (edge + step, c_edge, math.sqrt(1 - c_edge**2))]
        eye = np.eye(dim, dtype=complex)
        e1, e2 = qa.canonical_line(eye[0]), qa.canonical_line(eye[1])
        verdicts = []
        for a, c, d in cases:
            cfg = qa.AlphaConfig.from_alpha(math.acos(a))
            circle = qa.Circle(e1, e2, c, d)
            form = qa.canonical_triple_form(*(circle.member(lam) for lam in (1, 1j, -1)))
            single = len(qa.double_alpha_set_classify(form, cfg, dim).components) == 1
            symmetric = qa.classify_circle(circle, cfg, dim).tag == HIGHLY_SYMMETRIC
            assert symmetric == single, (a, c, d)
            verdicts.append(symmetric)
        assert verdicts == [dim == 4] * 4 + [True] * 2


class TestWeightDomain:
    """Every refusal of the weight domain c >= d > 0, c^2 + d^2 = 1 (and c > a
    where a radius profile is built) keeps its exception type at the domain's
    edges.  A circle may have c < d.  Codes: ``-`` accepted, ``P`` ParameterError,
    ``C`` CaseError, ``R`` RangeError; one per target, in the order of ``TARGETS``."""

    S = 1 / math.sqrt(2)
    C0 = 0.95
    D0 = math.sqrt(1 - C0 * C0)
    A08 = qa.AlphaConfig.from_alpha(math.acos(0.8)).a
    # case: (alpha, c, d, codes); at alpha = pi/3 the weights (C0, D0) lie in the two-component case.
    CASES = {
        "valid": (math.pi / 3, C0, D0, "-------"),
        "c<d": (math.pi / 3, D0, C0, "PP-PPPP"),
        "c=d": (math.pi / 3, S, S, "------C"),
        "d=0": (math.pi / 3, 1.0, 0.0, "PPPPPPP"),
        "nan-c": (math.pi / 3, math.nan, S, "PPPPPPP"),
        "nan-d": (math.pi / 3, S, math.nan, "PPPPPPP"),
        "norm+2e-12": (math.pi / 3, math.sqrt(C0 * C0 + 2e-12), D0, "PPPPPPP"),
        "norm-2e-12": (math.pi / 3, math.sqrt(C0 * C0 - 2e-12), D0, "PPPPPPP"),
        "c=a": (math.acos(0.8), A08, math.sqrt(1 - A08 * A08), "---PPPR"),
    }
    TARGETS = ("pair-form", "triple-form", "circle", "theta0", "atheta", "triple-alpha-set", "witness")
    ERRORS = {"-": None, "P": ParameterError, "C": CaseError, "R": RangeError}

    @staticmethod
    def call(target: str, cfg: qa.AlphaConfig, c: float, d: float):
        e1, e2 = std_basis(3)[:2]
        lams = (1.0 + 0j, 1j, -1j)
        if target == "pair-form":
            return qa.PairCanonicalForm(e1, e2, c, d)
        if target == "triple-form":
            return qa.TripleCanonicalForm(e1, e2, c, d, lams)
        if target == "circle":
            return qa.CircleComponent(e1, e2, c, d)
        if target == "theta0":
            return theta0_and_rho(cfg, c, d)
        if target == "atheta":
            try:
                theta0 = theta0_and_rho(cfg, c, d)[0]
            except ParameterError:
                theta0 = 0.0  # the family refuses the weights before it compares theta0
            return AthetaFamily(e1, e2, c, d, cfg.alpha, theta0, 3)
        if target == "triple-alpha-set":
            return qa.collinear_triple_alpha_set(qa.TripleCanonicalForm(e1, e2, c, d, lams), cfg, 3)
        return qa.counterexample_witness(cfg, c, d)

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("case", CASES)
    def test_refusal_type(self, case, target):
        alpha, c, d, codes = self.CASES[case]
        if case.startswith("norm"):
            assert 1.5e-12 < abs(c * c + d * d - 1.0) < 2.5e-12
        expected = self.ERRORS[codes[self.TARGETS.index(target)]]
        try:
            self.call(target, qa.AlphaConfig.from_alpha(alpha), c, d)
            got = None
        except qa.QAngleError as exc:
            got = type(exc)
        assert got is expected

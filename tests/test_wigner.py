import math

import numpy as np
import pytest

import qangle as qa
from qangle.errors import (
    DimensionError,
    NotAWignerMapError,
    ParameterError,
    SpanError,
)

from qangle.verify import rotated_basis

from conftest import random_line, random_orthonormal_pair


class TestRandomWigner:
    def test_deterministic(self):
        a = qa.random_wigner(3, 5, False)
        b = qa.random_wigner(3, 5, False)
        assert np.array_equal(a.matrix, b.matrix)

    def test_unitarity(self):
        for seed in range(10):
            w = qa.random_wigner(4, seed, False)
            dev = np.max(np.abs(w.matrix.conj().T @ w.matrix - np.eye(4)))
            assert dev < 1e-12

    def test_antiunitary_squares_to_unitary(self):
        w = qa.random_wigner(2, 9, True)
        square = qa.compose_symmetries(w, w)
        assert square.antiunitary is False
        rng = np.random.default_rng(0)
        v = random_line(rng, 2)
        direct = qa.apply_symmetry(w, qa.apply_symmetry(w, v))
        assert qa.lines_equal(direct, qa.apply_symmetry(square, v))


class TestApplySymmetry:
    def test_identity_fixes_everything(self):
        w = qa.WignerSymmetry(3, np.eye(3, dtype=complex), False)
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = random_line(rng, 3)
            assert qa.lines_equal(qa.apply_symmetry(w, v), v)

    def test_plain_conjugation(self):
        w = qa.WignerSymmetry(2, np.eye(2, dtype=complex), True)
        v = qa.canonical_line([1, 1j])
        img = qa.apply_symmetry(w, v)
        assert qa.lines_equal(img, qa.canonical_line([1, -1j]))

    def test_all_angles_preserved(self):
        rng = np.random.default_rng(2)
        for dim in range(2, 7):
            for anti in (False, True):
                w = qa.random_wigner(dim, dim * 7 + anti, anti)
                for _ in range(100):
                    u, v = random_line(rng, dim), random_line(rng, dim)
                    before = float(qa.quantum_angle(u, v))
                    after = float(
                        qa.quantum_angle(qa.apply_symmetry(w, u), qa.apply_symmetry(w, v))
                    )
                    assert abs(before - after) < 1e-12

    def test_inverse(self):
        rng = np.random.default_rng(3)
        for anti in (False, True):
            w = qa.random_wigner(3, 17 + anti, anti)
            inv = qa.inverse_symmetry(w)
            v = random_line(rng, 3)
            assert qa.lines_equal(qa.apply_symmetry(inv, qa.apply_symmetry(w, v)), v)


class TestSameInducedMap:
    def test_unimodular_multiple(self):
        w = qa.random_wigner(3, 4, False)
        w2 = qa.WignerSymmetry(3, np.exp(1j * np.pi / 7) * w.matrix, False)
        assert qa.same_induced_map(w, w2)

    def test_flag_toggle_differs(self):
        w = qa.random_wigner(3, 4, False)
        w2 = qa.WignerSymmetry(3, w.matrix, True)
        assert not qa.same_induced_map(w, w2)

    def test_distinct_symmetries_differ_with_separating_line(self):
        rng = np.random.default_rng(5)
        w1 = qa.random_wigner(3, 6, False)
        w2 = qa.random_wigner(3, 7, False)
        assert not qa.same_induced_map(w1, w2)
        separated = False
        for _ in range(100):
            v = random_line(rng, 3)
            if (
                float(
                    qa.quantum_angle(qa.apply_symmetry(w1, v), qa.apply_symmetry(w2, v))
                )
                > 1e-3
            ):
                separated = True
                break
        assert separated


class TestProbeSet:
    def test_normative_order(self):
        probes = qa.probe_set(3)
        assert len(probes) == 7
        r = 1 / np.sqrt(2)
        expected = [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [r, r, 0],
            [r, 0, r],
            [r, r * 1j, 0],
            [r, 0, r * 1j],
        ]
        for p, e in zip(probes, expected):
            assert np.allclose(p.amplitudes, e)


class TestFitFromProbes:
    def test_round_trip_all_dims(self):
        for dim in (2, 3, 4, 5):
            for seed in range(10):
                for anti in (False, True):
                    w = qa.random_wigner(dim, seed * 2 + anti, anti)
                    images = [qa.apply_symmetry(w, p) for p in qa.probe_set(dim)]
                    fitted = qa.fit_from_probes(dim, images)
                    assert fitted.antiunitary == anti
                    assert qa.same_induced_map(w, fitted)

    def test_identity_images(self):
        probes = qa.probe_set(3)
        fitted = qa.fit_from_probes(3, probes)
        assert not fitted.antiunitary
        assert qa.same_induced_map(
            fitted, qa.WignerSymmetry(3, np.eye(3, dtype=complex), False)
        )

    def test_perturbed_probe_rejected(self):
        from qangle.projspace import orthonormal_complement

        w = qa.random_wigner(3, 11, False)
        images = [qa.apply_symmetry(w, p) for p in qa.probe_set(3)]
        victim = images[4]
        comp = orthonormal_complement(victim.amplitudes[None, :], 3)
        images[4] = qa.canonical_line(
            math.cos(0.1) * victim.amplitudes + math.sin(0.1) * comp[0]
        )
        with pytest.raises(NotAWignerMapError) as err:
            qa.fit_from_probes(3, images)
        assert err.value.residual > 1e-3

    def test_non_orthonormal_images_rejected(self):
        e1 = qa.canonical_line([1, 0, 0])
        images = [e1] * 7
        with pytest.raises(NotAWignerMapError):
            qa.fit_from_probes(3, images)

    def test_wrong_count_rejected(self):
        with pytest.raises(ParameterError):
            qa.fit_from_probes(3, qa.probe_set(3)[:5])


class TestPreservation:
    def test_wigner_map_no_violations(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        for anti in (False, True):
            w = qa.random_wigner(4, 21 + anti, anti)
            inv = qa.inverse_symmetry(w)
            rep = qa.preservation_report(
                lambda v: qa.apply_symmetry(w, v),
                cfg,
                4,
                200,
                3,
                1e-9,
                inverse_fn=lambda v: qa.apply_symmetry(inv, v),
            )
            assert rep.forward_violations == 0
            assert rep.backward_violations == 0
            assert rep.max_deviation < 1e-12

    def test_report_counts_bounded(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        w = qa.random_wigner(3, 2, False)
        rep = qa.preservation_report(
            lambda v: qa.apply_symmetry(w, v), cfg, 3, 50, 1, 1e-9
        )
        assert rep.forward_violations + rep.backward_violations <= rep.pairs_tested

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_needs_a_pair(self, n_pairs):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        w = qa.random_wigner(3, 2, False)
        with pytest.raises(ParameterError):
            qa.preservation_report(lambda v: qa.apply_symmetry(w, v), cfg, 3, n_pairs, 1, 1e-9)

    def test_json_shape(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        w = qa.random_wigner(3, 2, False)
        rep = qa.preservation_report(
            lambda v: qa.apply_symmetry(w, v), cfg, 3, 20, 1, 1e-9
        )
        blob = rep.to_json()
        assert set(blob) == {
            "forwardViolations",
            "backwardViolations",
            "maxDeviation",
            "pairsTested",
        }


class TestExoticMap:
    def test_trivial_selector_reduces_to_symmetry(self):
        psi = qa.random_wigner(2, 31, False)
        phi = qa.exotic_pi4_map(psi, lambda v: False)
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = random_line(rng, 2)
            assert qa.lines_equal(phi(v), qa.apply_symmetry(psi, v))

    def test_constant_flip_still_preserves_quarter_turn(self):
        psi = qa.random_wigner(2, 32, False)
        phi = qa.exotic_pi4_map(psi, lambda v: True)
        cfg = qa.AlphaConfig.from_alpha(np.pi / 4)
        rep = qa.preservation_report(phi, cfg, 2, 300, 5, 1e-10)
        assert rep.forward_violations == 0
        assert rep.backward_violations == 0

    def test_nonconstant_selector_preserves_quarter_turn(self):
        psi = qa.random_wigner(2, 33, False)
        phi = qa.exotic_pi4_map(psi, lambda v: abs(v.amplitudes[0]) ** 2 > 0.5)
        cfg = qa.AlphaConfig.from_alpha(np.pi / 4)
        rep = qa.preservation_report(phi, cfg, 2, 1000, 6, 1e-10)
        assert rep.forward_violations == 0
        assert rep.backward_violations == 0

    def test_other_angles_broken(self):
        psi = qa.random_wigner(2, 34, False)
        phi = qa.exotic_pi4_map(psi, lambda v: abs(v.amplitudes[0]) ** 2 > 0.5)
        cfg = qa.AlphaConfig.from_alpha(np.pi / 3)
        rep = qa.preservation_report(phi, cfg, 2, 500, 7, 1e-9)
        assert rep.forward_violations > 0
        assert rep.max_deviation > 1e-3

    def test_dim_guard(self):
        psi = qa.random_wigner(3, 35, False)
        with pytest.raises(DimensionError):
            qa.exotic_pi4_map(psi, lambda v: False)

    def test_orthocomplement(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = random_line(rng, 2)
            w = qa.orthocomplement_dim2(v)
            assert abs(qa.inner(v, w)) < 1e-14


class TestCircleIntersection:
    def _basis_pair(self, rng, dim, afrak, mu):
        e1, e2 = random_orthonormal_pair(rng, dim)
        return (e1, e2, *rotated_basis(e1, e2, afrak, mu))

    def test_balanced_weights_explicit_lines(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            mu = np.exp(1j * rng.uniform(0, 2 * np.pi))
            afrak = rng.uniform(0.05, 0.95)
            e1, e2, f1, f2 = self._basis_pair(rng, 3, afrak, mu)
            got = qa.circle_intersection(e1, e2, f1, f2, 1 / math.sqrt(2))
            assert len(got) == 2
            r = 1 / np.sqrt(2)
            for sign in (1, -1):
                want = qa.canonical_line(
                    r * e1.amplitudes + sign * 1j * mu * r * e2.amplitudes
                )
                assert min(float(qa.quantum_angle(want, g)) for g in got) < 1e-10

    def test_low_overlap_misses(self):
        rng = np.random.default_rng(41)
        e1, e2, f1, f2 = self._basis_pair(rng, 3, 0.1, np.exp(0.3j))
        got = qa.circle_intersection(e1, e2, f1, f2, math.sqrt(7 / 12))
        assert len(got) < 2

    def test_threshold_crossing(self):
        rng = np.random.default_rng(42)
        mu = np.exp(1j * 0.77)
        e1, e2 = random_orthonormal_pair(rng, 3)

        def count(afrak):
            f1, f2 = rotated_basis(e1, e2, afrak, mu)
            return len(qa.circle_intersection(e1, e2, f1, f2, math.sqrt(7 / 12)))

        lo, hi = 0.05, 0.4
        assert count(lo) < 2 <= count(hi)
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if count(mid) >= 2:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - 1.0 / 6.0) < 1e-6

    def test_members_verified_on_both_circles(self):
        rng = np.random.default_rng(43)
        e1, e2, f1, f2 = self._basis_pair(rng, 4, 0.5, np.exp(1.1j))
        c0 = math.sqrt(7 / 12)
        got = qa.circle_intersection(e1, e2, f1, f2, c0)
        assert len(got) == 2
        d0 = math.sqrt(1 - c0 * c0)
        ce = qa.CircleComponent(e1, e2, c0, d0)
        cf = qa.CircleComponent(f1, f2, c0, d0)
        for g in got:
            assert ce.distance(g) < 1e-10
            assert cf.distance(g) < 1e-10

    def test_unsupported_weight_rejected(self):
        rng = np.random.default_rng(44)
        e1, e2, f1, f2 = self._basis_pair(rng, 3, 0.5, 1.0)
        with pytest.raises(ParameterError):
            qa.circle_intersection(e1, e2, f1, f2, 0.9)

    def test_span_mismatch_rejected(self):
        rng = np.random.default_rng(45)
        e1, e2 = random_orthonormal_pair(rng, 4)
        f1, f2 = random_orthonormal_pair(rng, 4)
        with pytest.raises(SpanError):
            qa.circle_intersection(e1, e2, f1, f2, 1 / math.sqrt(2))


class TestBridgeBasis:
    CFG = qa.AlphaConfig.from_alpha(math.acos(1 / math.sqrt(3)))

    def _basis_pair(self, rng, afrak, mu):
        e1, e2 = random_orthonormal_pair(rng, 3)
        return (e1, e2, *rotated_basis(e1, e2, afrak, mu))

    def test_large_overlap_returns_original(self):
        rng = np.random.default_rng(46)
        e1, e2, f1, f2 = self._basis_pair(rng, 0.5, np.exp(0.4j))
        g1, g2 = qa.bridge_basis(e1, e2, f1, f2, self.CFG)
        assert g1 is e1 and g2 is e2

    def test_orthogonal_extreme(self):
        rng = np.random.default_rng(47)
        e1, e2, f1, f2 = self._basis_pair(rng, 0.0, np.exp(2.2j))
        g1, _ = qa.bridge_basis(e1, e2, f1, f2, self.CFG)
        assert abs(np.vdot(g1.amplitudes, f1.amplitudes)) == pytest.approx(
            1 / math.sqrt(2), abs=1e-10
        )

    def test_both_hops_intersect(self):
        rng = np.random.default_rng(48)
        c0 = math.sqrt(7 / 12)
        for k in range(100):
            afrak = rng.uniform(0.0, 0.95)
            mu = np.exp(1j * rng.uniform(0, 2 * np.pi))
            e1, e2, f1, f2 = self._basis_pair(rng, afrak, mu)
            g1, g2 = qa.bridge_basis(e1, e2, f1, f2, self.CFG)
            assert abs(np.vdot(g1.amplitudes, e1.amplitudes)) > 1 / 6
            assert abs(np.vdot(g1.amplitudes, f1.amplitudes)) > 1 / 6
            assert len(qa.circle_intersection(e1, e2, g1, g2, c0)) >= 2
            assert len(qa.circle_intersection(g1, g2, f1, f2, c0)) >= 2

    def test_wrong_regime_rejected(self):
        rng = np.random.default_rng(49)
        e1, e2, f1, f2 = self._basis_pair(rng, 0.5, 1.0)
        with pytest.raises(ParameterError):
            qa.bridge_basis(e1, e2, f1, f2, qa.AlphaConfig.from_alpha(1.0))


class TestSymmetryJson:
    def test_round_trip(self):
        w = qa.random_wigner(3, 50, True)
        again = qa.WignerSymmetry.from_json(w.to_json())
        assert again.antiunitary
        assert np.array_equal(w.matrix, again.matrix)

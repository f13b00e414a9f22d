import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qangle as qa
from qangle.errors import (
    DimensionError,
    NotAWignerMapError,
    ParameterError,
    SpanError,
)

from qangle.projspace import MAX_DIM
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


    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "1"])
    def test_seed_outside_the_cloud_range_refused(self, seed):
        # One seed rule for every seeded call: an integer in [0, 2**64).
        cfg = qa.AlphaConfig.from_alpha(1.0)
        with pytest.raises(ParameterError, match="seed must be"):
            qa.random_wigner(2, seed)
        with pytest.raises(ParameterError, match="seed must be"):
            qa.preservation_report(lambda v: v, cfg, 2, 3, seed)

    def test_dimension_bound_before_allocation(self, monkeypatch):
        def allocate(*args, **kwargs):
            raise AssertionError("dim-sized allocation before the dimension check")

        cfg = qa.AlphaConfig.from_alpha(1.0)
        monkeypatch.setattr(np.random, "default_rng", allocate)
        monkeypatch.setattr(np, "eye", allocate)
        for dim in (MAX_DIM + 1, 100_000):
            with pytest.raises(DimensionError):
                qa.random_wigner(dim, 0)
            with pytest.raises(DimensionError):
                qa.probe_set(dim)
            with pytest.raises(DimensionError):
                qa.fit_from_probes(dim, [])
            with pytest.raises(DimensionError, match=f"\\[2, {MAX_DIM}\\]"):
                qa.preservation_report(lambda v: v, cfg, dim, 3, 0)
        with pytest.raises(ParameterError, match="dim must be >= 2"):
            qa.preservation_report(lambda v: v, cfg, 1, 3, 0)


class TestApplySymmetry:
    def test_identity_fixes_everything(self):
        w = qa.WignerSymmetry(np.eye(3, dtype=complex), False)
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = random_line(rng, 3)
            assert qa.lines_equal(qa.apply_symmetry(w, v), v)

    def test_plain_conjugation(self):
        w = qa.WignerSymmetry(np.eye(2, dtype=complex), True)
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
        w2 = qa.WignerSymmetry(np.exp(1j * np.pi / 7) * w.matrix, False)
        assert qa.same_induced_map(w, w2)

    def test_flag_toggle_differs(self):
        w = qa.random_wigner(3, 4, False)
        w2 = qa.WignerSymmetry(w.matrix, True)
        assert not qa.same_induced_map(w, w2)

    def test_swap_is_not_the_identity(self):
        # The swap's product with the identity has a zero diagonal: no scalar fits.
        identity = qa.WignerSymmetry(np.eye(2), False)
        swap = qa.WignerSymmetry(np.array([[0, 1], [1, 0]]), False)
        assert not qa.same_induced_map(identity, swap)

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

    def test_equality_is_identity(self):
        # Two operators of one map stay two objects; same_induced_map compares the maps.
        w1, w2 = qa.random_wigner(2, 1), qa.random_wigner(2, 1)
        phased = qa.WignerSymmetry(1j * w1.matrix, False)
        assert w1 == w1 and w1 != w2 and w1 != phased
        assert len({w1, w2, phased, w1}) == 3  # hashable
        assert qa.same_induced_map(w1, w2) and qa.same_induced_map(w1, phased)


C2_SYMMETRY = qa.WignerSymmetry(np.eye(2), False)
C3_SYMMETRY = qa.WignerSymmetry(np.eye(3), False)
C2_LINE, C3_LINE = qa.canonical_line([1, 0]), qa.canonical_line([1, 0, 0])


class TestDimensionRefusals:
    CALLS = {
        "apply_symmetry": lambda: qa.apply_symmetry(C2_SYMMETRY, C3_LINE),
        "compose_symmetries": lambda: qa.compose_symmetries(C2_SYMMETRY, C3_SYMMETRY),
        "same_induced_map": lambda: qa.same_induced_map(C2_SYMMETRY, C3_SYMMETRY),
        "fit_from_probes": lambda: qa.fit_from_probes(2, [C2_LINE, C2_LINE, C2_LINE, C3_LINE]),
        "orthocomplement_dim2": lambda: qa.orthocomplement_dim2(C3_LINE),
    }
    MESSAGES = {"fit_from_probes": "image dimension mismatch"}

    @pytest.mark.parametrize("call", list(CALLS))
    def test_lines_and_symmetries_of_two_dimensions_are_refused(self, call):
        with pytest.raises(DimensionError, match=self.MESSAGES.get(call)):
            self.CALLS[call]()


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
            fitted, qa.WignerSymmetry(np.eye(3, dtype=complex), False)
        )

    def test_perturbed_probe_rejected(self):
        from qangle.projspace import orthonormal_complement

        w = qa.random_wigner(3, 11, False)
        images = [qa.apply_symmetry(w, p) for p in qa.probe_set(3)]
        victim = images[4]
        comp = orthonormal_complement(victim.amplitudes[None, :])
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

    def test_superposition_image_without_overlap_is_refused(self):
        # [(e1 + e2)/sqrt2] sent to [e2] has no overlap with the image [e1] of [e1].
        images = [qa.canonical_line(v) for v in ([1, 0], [0, 1], [0, 1], [1, 1j])]
        with pytest.raises(NotAWignerMapError, match="no overlap") as err:
            qa.fit_from_probes(2, images)
        assert (err.value.probe_index, err.value.residual) == (2, 0.0)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(
        dim=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        anti=st.booleans(),
        eps=st.sampled_from([0.0, 1e-12, 1e-10, 3e-10, 1e-9, 1e-8, 1e-6, 1e-2]),
        data=st.data(),
    )
    def test_turned_probe_is_fitted_or_refused(self, dim, seed, anti, eps, data):
        # One probe image turned by eps rad: the fit maps every probe within
        # 1e-8 of its image, or refuses the images as no Wigner map.
        w = qa.random_wigner(dim, seed, anti)
        probes = qa.probe_set(dim)
        images = [qa.apply_symmetry(w, p) for p in probes]
        probe = data.draw(st.integers(0, len(images) - 1), label="probe")
        images[probe] = qa.wigner._partner_at_angle(images[probe], eps, np.random.default_rng(seed))
        try:
            fitted = qa.fit_from_probes(dim, images)
        except NotAWignerMapError:
            return
        assert max(qa.quantum_angle(qa.apply_symmetry(fitted, p), img) for p, img in zip(probes, images)) <= 1e-8


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

    def test_pull_back_counts_a_bijection_that_moves_angles(self):
        # v -> [diag(1, 2) v] is a bijection of the lines of C^2 with inverse
        # x -> [diag(1, 1/2) x]; no image pair at alpha pulls back to alpha.
        cfg = qa.AlphaConfig.from_alpha(1.0)
        stretch, shrink = np.diag([1, 2]), np.diag([1, 0.5])
        rep = qa.preservation_report(
            lambda v: qa.canonical_line(stretch @ v.amplitudes), cfg, 2, 50, 3,
            inverse_fn=lambda x: qa.canonical_line(shrink @ x.amplitudes),
        )
        assert (rep.backward_violations, rep.pairs_tested) == (50, 150)

    def test_pull_back_skips_lines_outside_the_image(self):
        # The constant map [e1] never reaches a partner at alpha from [e1].
        cfg = qa.AlphaConfig.from_alpha(1.0)
        e1 = qa.canonical_line([1, 0])
        rep = qa.preservation_report(lambda v: e1, cfg, 2, 50, 3, inverse_fn=lambda x: x)
        assert (rep.backward_violations, rep.pairs_tested) == (0, 100)

    def test_report_counts_bounded(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        w = qa.random_wigner(3, 2, False)
        rep = qa.preservation_report(
            lambda v: qa.apply_symmetry(w, v), cfg, 3, 50, 1, 1e-9
        )
        assert rep.forward_violations + rep.backward_violations <= rep.pairs_tested
        with pytest.raises(ParameterError, match="violation counts exceed pairs tested"):
            qa.PreservationReport(2, 0, 0.0, 1)

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_needs_a_pair(self, n_pairs):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        w = qa.random_wigner(3, 2, False)
        with pytest.raises(ParameterError):
            qa.preservation_report(lambda v: qa.apply_symmetry(w, v), cfg, 3, n_pairs, 1, 1e-9)

    def test_pair_cap(self):
        # One pair above the cap is refused before the map sees a line.
        cfg = qa.AlphaConfig.from_alpha(1.0)
        seen = []
        with pytest.raises(ParameterError, match=f"n_pairs must be in \\[1, {qa.wigner.MAX_PAIRS}\\]"):
            qa.preservation_report(seen.append, cfg, 3, qa.wigner.MAX_PAIRS + 1, 1, 1e-9)
        assert seen == [] and qa.wigner.MAX_PAIRS == 20_000

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        w = qa.random_wigner(3, 2, False)
        with pytest.raises(ParameterError):
            qa.preservation_report(lambda v: qa.apply_symmetry(w, v), cfg, 3, 5, 1, tol)
        rep = qa.preservation_report(lambda v: qa.apply_symmetry(w, v), cfg, 3, 5, 1, 0.0)  # zero stays valid
        assert rep.pairs_tested == 10  # forward and backward pairs

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

    def test_swapped_basis_misses_with_unequal_weights(self):
        # f1 = e2 is orthogonal to e1, so the circles meet only if d0 = sqrt(5/12) were c0 = sqrt(7/12).
        e1, e2 = qa.canonical_line([1, 0]), qa.canonical_line([0, 1])
        assert qa.circle_intersection(e1, e2, e2, e1, math.sqrt(7 / 12)) == []

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

    def test_tangent_circles_meet_once(self):
        # Just below 1/6 the two roots of the sqrt(7/12) circles coincide.
        e1, e2 = qa.canonical_line([1, 0, 0]), qa.canonical_line([0, 1, 0])
        f1, f2 = rotated_basis(e1, e2, 0.16666666666666566, 1.0)
        assert len(qa.circle_intersection(e1, e2, f1, f2, math.sqrt(7 / 12))) == 1

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
    def _basis_pair(self, rng, afrak, mu):
        e1, e2 = random_orthonormal_pair(rng, 3)
        return (e1, e2, *rotated_basis(e1, e2, afrak, mu))

    def test_large_overlap_returns_original(self):
        rng = np.random.default_rng(46)
        e1, e2, f1, f2 = self._basis_pair(rng, 0.5, np.exp(0.4j))
        g1, g2 = qa.bridge_basis(e1, e2, f1, f2)
        assert g1 is e1 and g2 is e2

    def test_orthogonal_extreme(self):
        rng = np.random.default_rng(47)
        e1, e2, f1, f2 = self._basis_pair(rng, 0.0, np.exp(2.2j))
        g1, _ = qa.bridge_basis(e1, e2, f1, f2)
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
            g1, g2 = qa.bridge_basis(e1, e2, f1, f2)
            assert abs(np.vdot(g1.amplitudes, e1.amplitudes)) > 1 / 6
            assert abs(np.vdot(g1.amplitudes, f1.amplitudes)) > 1 / 6
            assert len(qa.circle_intersection(e1, e2, g1, g2, c0)) >= 2
            assert len(qa.circle_intersection(g1, g2, f1, f2, c0)) >= 2


class TestSymmetryJson:
    def test_round_trip(self):
        w = qa.random_wigner(3, 50, True)
        again = qa.WignerSymmetry.from_json(w.to_json())
        assert again.antiunitary
        assert np.array_equal(w.matrix, again.matrix)

    def test_dim_is_read_off_the_matrix(self):
        assert qa.WignerSymmetry(np.eye(3), False).dim == 3

    @pytest.mark.parametrize(
        "matrix, error, message",
        [(np.eye(3)[:2], DimensionError, r"matrix shape \(2, 3\) is not square"),
         (np.ones(2), DimensionError, r"matrix shape \(2,\) is not square"),
         (np.eye(1), ParameterError, "dim must be >= 2"),
         (np.eye(MAX_DIM + 1), DimensionError, rf"dim {MAX_DIM + 1} outside supported range")],
    )
    def test_constructor_refuses_a_matrix_of_no_dimension(self, matrix, error, message):
        with pytest.raises(error, match=message):
            qa.WignerSymmetry(matrix, False)

    @pytest.mark.parametrize(
        "dim, error, message",
        [(3, DimensionError, r"^matrix shape \(2, 2\) does not match dim 3$"), (1, ParameterError, "dim must be >= 2"),
         (MAX_DIM + 1, DimensionError, rf"dim {MAX_DIM + 1} outside supported range")],
    )
    def test_wire_dim_is_checked_then_matched_to_the_matrix(self, dim, error, message):
        wire = {**qa.random_wigner(2, 50).to_json(), "dim": dim}
        with pytest.raises(error, match=message):
            qa.WignerSymmetry.from_json(wire)

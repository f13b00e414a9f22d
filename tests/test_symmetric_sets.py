import math

import numpy as np
import pytest

import qangle as qa
from qangle.errors import ParameterError, RangeError
from qangle.symmetric_sets import (
    HIGHLY_SYMMETRIC,
    NOT_HIGHLY_SYMMETRIC,
    REASON_DIM_GE_4,
)

from qangle.verify import draw_alpha

from conftest import random_orthonormal_pair

SQ3 = 1 / math.sqrt(3)


def std_circle(dim, c, d):
    eye = np.eye(dim, dtype=complex)
    return qa.Circle(qa.canonical_line(eye[0]), qa.canonical_line(eye[1]), c, d)


class TestClassifyCircle:
    def test_dim4_always_symmetric(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            cfg = draw_alpha(rng)
            d = rng.uniform(0.1, 1 / math.sqrt(2))
            v = qa.classify_circle(std_circle(4, math.sqrt(1 - d * d), d), cfg, 4)
            assert v.tag == HIGHLY_SYMMETRIC
            assert v.reason == REASON_DIM_GE_4

    def test_dim3_weights_above_a_symmetric(self):
        # a != 1/sqrt3 and c >= d > a: highly symmetric.
        cfg = qa.AlphaConfig.from_alpha(1.2)  # a = 0.362
        v = qa.classify_circle(std_circle(3, 0.8, 0.6), cfg, 3)
        assert v.tag == HIGHLY_SYMMETRIC

    def test_dim3_small_d_not_symmetric(self):
        # 0 < d < min(a, sqrt((1-2a^2)/(1-a^2))): not highly symmetric.
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.uniform(0.15, 0.69)
            cfg = qa.AlphaConfig.from_alpha(math.acos(a))
            bound = min(a, math.sqrt((1 - 2 * a * a) / (1 - a * a)))
            d = rng.uniform(0.05, 0.95) * bound
            v = qa.classify_circle(std_circle(3, math.sqrt(1 - d * d), d), cfg, 3)
            assert v.tag == NOT_HIGHLY_SYMMETRIC

    def test_dim3_strict_weights_at_special_a_symmetric(self):
        # a = 1/sqrt3 with c > d > a: still highly symmetric.
        cfg = qa.AlphaConfig.from_alpha(math.acos(SQ3))
        d = 0.62
        v = qa.classify_circle(std_circle(3, math.sqrt(1 - d * d), d), cfg, 3)
        assert v.tag == HIGHLY_SYMMETRIC

    def test_exceptional_circles_not_symmetric(self):
        cfg = qa.AlphaConfig.from_alpha(math.acos(SQ3))
        v1 = qa.classify_circle(std_circle(3, math.sqrt(2 / 3), SQ3), cfg, 3)
        assert v1.tag == NOT_HIGHLY_SYMMETRIC
        v2 = qa.classify_circle(
            std_circle(3, 1 / math.sqrt(2), 1 / math.sqrt(2)), cfg, 3
        )
        assert v2.tag == NOT_HIGHLY_SYMMETRIC

    def test_weight_order_does_not_matter(self):
        cfg = qa.AlphaConfig.from_alpha(0.9)
        a = qa.classify_circle(std_circle(3, 0.35, math.sqrt(1 - 0.35**2)), cfg, 3)
        b = qa.classify_circle(std_circle(3, math.sqrt(1 - 0.35**2), 0.35), cfg, 3)
        assert a.tag == b.tag

    def test_range_guards(self):
        cfg = qa.AlphaConfig.from_alpha(0.5)
        with pytest.raises(RangeError):
            qa.classify_circle(std_circle(3, 0.8, 0.6), cfg, 3)

    def test_circle_is_the_descriptor_component(self):
        assert qa.Circle is qa.CircleComponent
        circle = std_circle(3, 0.8, 0.6)
        assert circle.dim == 3
        assert (circle.c, circle.d) == (0.8, 0.6)

    def test_verdict_json(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        v = qa.classify_circle(std_circle(4, 0.8, 0.6), cfg, 4)
        blob = v.to_json()
        assert blob["tag"] == HIGHLY_SYMMETRIC
        assert "margins" in blob and "weight_tie" in blob["margins"]


class TestEmpiricalCheck:
    def test_dim4_agreement(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        circle = std_circle(4, 0.8, 0.6)
        report = qa.empirical_high_symmetry_check(
            circle, cfg, 4, n_triples=20, n_alpha_samples=20, seed=7
        )
        assert report.verdict
        assert report.max_residual < 1e-6
        assert "agreement=True" in report.notes

    def test_balanced_circle_dim4(self):
        r = 1 / math.sqrt(2)
        cfg = qa.AlphaConfig.from_alpha(1.1)
        report = qa.empirical_high_symmetry_check(
            std_circle(4, r, r), cfg, 4, n_triples=5, n_alpha_samples=12, seed=3
        )
        assert report.verdict
        assert "empirical=HighlySymmetric" in report.notes

    def test_exceptional_circle_witnessed(self):
        cfg = qa.AlphaConfig.from_alpha(math.acos(SQ3))
        circle = std_circle(3, math.sqrt(2 / 3), SQ3)
        report = qa.empirical_high_symmetry_check(
            circle, cfg, 3, n_triples=5, n_alpha_samples=12, seed=5
        )
        assert report.verdict
        assert report.counts["witnesses"] >= 1
        assert "empirical=NotHighlySymmetric" in report.notes

    def test_not_symmetric_main_clause(self):
        cfg = qa.AlphaConfig.from_alpha(0.9)
        circle = std_circle(3, math.sqrt(1 - 0.3**2), 0.3)
        report = qa.empirical_high_symmetry_check(
            circle, cfg, 3, n_triples=4, n_alpha_samples=12, seed=11
        )
        assert report.verdict
        assert report.counts["off_circle_members"] > 0

    def test_budget_guard(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        with pytest.raises(ParameterError):
            qa.empirical_high_symmetry_check(
                std_circle(3, 0.8, 0.6), cfg, 3, n_triples=3, n_alpha_samples=2
            )

    def test_agreement_on_random_draws(self):
        rng = np.random.default_rng(33)
        clouds = {
            3: qa.sample_lines(3, 30_000, 900),
            4: qa.sample_lines(4, 60_000, 901),
        }
        for k in range(12):
            dim = 3 if k % 2 == 0 else 4
            cfg = draw_alpha(rng)
            while True:
                d = rng.uniform(0.15, 1 / math.sqrt(2) - 1e-3)
                c = math.sqrt(1 - d * d)
                if (
                    c > cfg.a + 0.05
                    and abs(cfg.a - d) > 1e-4
                    and abs(c / math.sqrt(1 + c * c) - cfg.a) > 1e-4
                ):
                    break
            e1, e2 = random_orthonormal_pair(rng, dim)
            circle = qa.Circle(e1, e2, c, d)
            report = qa.empirical_high_symmetry_check(
                circle,
                cfg,
                dim,
                n_triples=3,
                n_alpha_samples=12,
                seed=33 + k,
                cloud=clouds[dim],
            )
            assert report.verdict, report.notes


class TestSampledSetRelations:
    def test_alpha_sets_of_subsets_coincide_for_symmetric_circles(self):
        # For a highly symmetric circle, any two 3-subsets generate the same
        # alpha-set; compare numeric members pairwise.
        cfg = qa.AlphaConfig.from_alpha(1.0)
        circle = std_circle(4, 0.8, 0.6)
        rng = np.random.default_rng(34)
        cloud = qa.sample_lines(4, 120_000, 77)
        base_members = None
        for trial in range(10):
            phis = rng.uniform(0, 2 * np.pi, 3)
            if min(
                abs(np.exp(1j * phis[i]) - np.exp(1j * phis[j]))
                for i in range(3)
                for j in range(i + 1, 3)
            ) < 1e-2:
                continue
            gens = [circle.member(np.exp(1j * p)) for p in phis]
            members = qa.discover_alpha_set(gens, cfg, cloud, 3e-2, 1e-7)
            assert members
            if base_members is None:
                base_members = members
                base_descr = qa.collinear_triple_alpha_set(
                    qa.canonical_triple_form(*gens), cfg, 4
                )
                continue
            # Every member for this subset belongs to the alpha-set
            # descriptor derived from the first subset, and conversely.
            for m in members[:40]:
                assert base_descr.distance(m) < 1e-5
            descr = qa.collinear_triple_alpha_set(
                qa.canonical_triple_form(*gens), cfg, 4
            )
            for m in base_members[:40]:
                assert descr.distance(m) < 1e-5

    def test_symmetric_circle_alpha_set_is_large(self):
        # Finite proxy for the infinite alpha-set premise: at least 50
        # distinct members at pairwise separation >= 1e-4.
        from qangle.oracle import dedup_lines

        cfg = qa.AlphaConfig.from_alpha(1.0)
        circle = std_circle(3, 0.8, 0.6)
        assert qa.classify_circle(circle, cfg, 3).tag == HIGHLY_SYMMETRIC
        rng = np.random.default_rng(35)
        gens = [circle.member(np.exp(1j * p)) for p in (0.3, 2.0, 4.4)]
        cloud = qa.sample_lines(3, 200_000, 55)
        members = qa.discover_alpha_set(gens, cfg, cloud, 5e-2, 1e-7)
        assert len(dedup_lines(members, 1e-4)) >= 50

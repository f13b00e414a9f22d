import math

import numpy as np
import pytest

import qangle as qa
from qangle import oracle
from qangle.errors import DimensionError, ParameterError
from qangle.projspace import MAX_DIM

from conftest import random_line


class TestSampleLines:
    def test_deterministic_per_seed(self):
        a = qa.sample_lines(3, 1000, 42)
        b = qa.sample_lines(3, 1000, 42)
        assert np.array_equal(a.vectors, b.vectors)
        c = qa.sample_lines(3, 1000, 43)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_rows_are_canonical_lines(self):
        cloud = qa.sample_lines(4, 500, 7)
        norms = np.linalg.norm(cloud.vectors, axis=1)
        assert np.max(np.abs(norms - 1)) < 1e-12
        for i in range(0, 500, 97):
            cloud.line(i)  # constructor validates gauge and norm

    def test_uniformity_sanity(self):
        # Mean squared overlap with a fixed basis line is 1/dim for the
        # unitarily invariant ensemble.
        cloud = qa.sample_lines(2, 10_000, 1)
        mean = float(np.mean(np.abs(cloud.vectors[:, 0]) ** 2))
        assert abs(mean - 0.5) < 0.02

    def test_single_line_cloud(self):
        cloud = qa.sample_lines(4, 1, 0)
        assert cloud.count == 1
        cloud.line(0)

    def test_parameter_guards(self):
        with pytest.raises(ParameterError):
            qa.sample_lines(1, 10, 0)
        with pytest.raises(ParameterError):
            qa.sample_lines(3, 0, 0)

    def test_dimension_bound(self):
        with pytest.raises(DimensionError):
            qa.sample_lines(MAX_DIM + 1, 10, 0)

    def test_cloud_size_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_CLOUD_ENTRIES", 100)
        assert qa.sample_lines(4, 25, 0).count == 25
        with pytest.raises(ParameterError):
            qa.sample_lines(4, 26, 0)


class TestCloudPersistence:
    def test_binary_round_trip(self, tmp_path):
        cloud = qa.sample_lines(3, 256, 11)
        path = tmp_path / "cloud.bin"
        qa.save_cloud(cloud, path)
        again = qa.load_cloud(path)
        assert again.dim == 3 and again.count == 256 and again.seed == 11
        assert np.array_equal(cloud.vectors, again.vectors)

    def test_header_layout(self, tmp_path):
        cloud = qa.sample_lines(2, 4, 9)
        path = tmp_path / "c.bin"
        qa.save_cloud(cloud, path)
        raw = path.read_bytes()
        dim, count, seed = np.frombuffer(raw[:24], dtype="<u8")
        assert (dim, count, seed) == (2, 4, 9)
        payload = np.frombuffer(raw[24:], dtype="<f8")
        assert payload.size == 2 * 4 * 2


class TestAlphaSetNumeric:
    def test_single_generator_overlap(self):
        cfg = qa.AlphaConfig.from_alpha(np.pi / 3)
        cloud = qa.sample_lines(2, 50_000, 3)
        e1 = qa.canonical_line([1, 0])
        members = qa.alpha_set_numeric([e1], cfg, cloud, 1e-2)
        assert members
        for m in members[:200]:
            assert abs(abs(qa.inner(m, e1)) - 0.5) < 1.2e-2

    def test_zero_tolerance_empty(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        cloud = qa.sample_lines(3, 20_000, 5)
        e1 = qa.canonical_line([1, 0, 0])
        assert qa.alpha_set_numeric([e1], cfg, cloud, 0.0) == []

    def test_monotone_filtering(self):
        # Shrinking the tolerance tenfold never adds members.
        rng = np.random.default_rng(6)
        cfg = qa.AlphaConfig.from_alpha(1.1)
        cloud = qa.sample_lines(3, 50_000, 8)
        gens = [random_line(rng, 3), random_line(rng, 3)]
        wide = {
            m.amplitudes.tobytes() for m in qa.alpha_set_numeric(gens, cfg, cloud, 1e-2)
        }
        narrow = {
            m.amplitudes.tobytes() for m in qa.alpha_set_numeric(gens, cfg, cloud, 1e-3)
        }
        assert narrow <= wide

    def test_empty_generator_set_rejected(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        cloud = qa.sample_lines(3, 100, 0)
        with pytest.raises(ParameterError):
            qa.alpha_set_numeric([], cfg, cloud, 1e-3)


class TestRefinement:
    def test_refinement_reaches_confirmation_tolerance(self):
        rng = np.random.default_rng(7)
        cfg = qa.AlphaConfig.from_alpha(1.05)
        cloud = qa.sample_lines(3, 100_000, 9)
        gens = [random_line(rng, 3), random_line(rng, 3)]
        rough = qa.alpha_set_numeric(gens, cfg, cloud, 1e-2)
        refined = qa.refine_alpha_members(gens, cfg, rough, 1e-9)
        assert len(refined) >= len(rough) // 2
        from qangle.oracle import angle_residuals

        res = angle_residuals(gens, cfg, np.vstack([m.amplitudes for m in refined]))
        assert float(np.max(res)) <= 1e-9

    def test_dedup(self):
        from qangle.oracle import dedup_lines

        e1 = qa.canonical_line([1, 0])
        near = qa.canonical_line([math.cos(1e-6), math.sin(1e-6)])
        far = qa.canonical_line([0, 1])
        kept = dedup_lines([e1, near, far], 1e-4)
        assert len(kept) == 2


class TestRootCounting:
    def test_degenerate_circle_is_infinite(self):
        assert qa.root_count_on_circle(0.0, 0.6, 0.6, 10_000) is math.inf

    def test_out_of_reach_is_zero(self):
        assert qa.root_count_on_circle(1.2, 0.3, 0.6, 10_000) == 0

    def test_transversal_crossing_is_two(self):
        assert qa.root_count_on_circle(0.5, 0.3, 0.6, 1_000_000) == 2

    def test_rotation_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            r = rng.uniform(0.05, 1.0)
            a = rng.uniform(0.1, 1.2)
            lam = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert qa.root_count_on_circle(z, r, a, 4096) == qa.root_count_on_circle(
                lam * z, r, a, 4096
            )

    def test_grid_size_guard(self):
        with pytest.raises(ParameterError):
            qa.root_count_on_circle(0.5, 0.3, 0.6, 100)

    def test_disk_sweep_detects_interior_solutions(self):
        # Solution circle strictly inside the disk: no boundary roots, but
        # the radial sweep still sees crossings.
        total = qa.root_count_on_disk(0.1, 0.9, 0.3)
        assert total is math.inf or total > 2
        assert qa.root_count_on_circle(0.1, 0.9, 0.3, 4096) == 0


class TestBasicRelations:
    def test_single_line_clause_one(self, cloud3):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        s = [qa.canonical_line([1, 0, 0])]
        report = qa.verify_basic_relations(s, s, cfg, cloud3)
        assert report.verdict
        assert report.max_residual < 1e-5

    def test_nested_sets_clauses(self, cloud3):
        rng = np.random.default_rng(11)
        cfg = qa.AlphaConfig.from_alpha(1.1)
        s1 = [random_line(rng, 3)]
        s2 = [s1[0], random_line(rng, 3)]
        report = qa.verify_basic_relations(s1, s2, cfg, cloud3)
        assert report.verdict
        assert report.counts["alpha_set_S1"] > report.counts["alpha_set_S2"]

    def test_subset_precondition(self, cloud3):
        rng = np.random.default_rng(12)
        cfg = qa.AlphaConfig.from_alpha(1.0)
        with pytest.raises(ParameterError):
            qa.verify_basic_relations(
                [random_line(rng, 3)], [random_line(rng, 3)], cfg, cloud3
            )

    def test_report_is_deterministic(self, cloud3):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        s = [qa.canonical_line([1, 0, 0])]
        r1 = qa.verify_basic_relations(s, s, cfg, cloud3)
        r2 = qa.verify_basic_relations(s, s, cfg, cloud3)
        assert r1.to_json() == r2.to_json()

    def test_collinear_triple_double_alpha_consistency(self, cloud3):
        # The numeric double-alpha-set of a collinear triple's alpha-set must
        # stay consistent with the closed-form alpha-set descriptor.
        cfg = qa.AlphaConfig.from_alpha(1.2)
        c, d = 0.8, 0.6
        gens = [
            qa.canonical_line([c, 1j * d, 0]),
            qa.canonical_line([c, -1j * d, 0]),
            qa.canonical_line([c, d, 0]),
        ]
        report = qa.verify_basic_relations(gens, gens, cfg, cloud3)
        assert report.verdict
        assert report.counts.get("triple_alpha_set", 0) > 0
        form = qa.canonical_triple_form(*gens)
        descr = qa.collinear_triple_alpha_set(form, cfg, 3)
        members = qa.discover_alpha_set(gens, cfg, cloud3, 5e-2, 1e-7, 400)
        assert members
        for m in members:
            assert descr.distance(m) < 1e-5

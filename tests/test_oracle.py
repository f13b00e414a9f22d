import ast
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qangle as qa
from qangle import oracle
from qangle.errors import DimensionError, ParameterError
from qangle.projspace import GAUGE_TOL, MAX_DIM, distinct_unimodular_triple

from conftest import random_line, random_orthonormal_pair


def imported_siblings(path: Path) -> set[str]:
    """The qangle modules a source file imports, by relative or absolute import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "qangle" + (f".{node.module}" if node.module else "") if node.level else node.module
            names |= {base} if base != "qangle" else {f"qangle.{a.name}" for a in node.names}
    return {n.split(".")[1] if "." in n else n for n in names if n.split(".")[0] == "qangle"}


def test_import_loads_no_worker_pool_modules():
    # The oracle runs on its caller's thread: a pool or queue module would
    # add its import time to every fresh `import qangle`.
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, qangle; print(sorted({'concurrent.futures', 'queue', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["oracle", "wigner"])
def test_imports_no_closed_form(module):
    # The oracle judges the closed forms, so it stands only on the errors and
    # the projective-space metric; the Wigner layer needs no descriptor either.
    path = Path(oracle.__file__).with_name(f"{module}.py")
    assert imported_siblings(path) <= {"errors", "projspace"}


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
            qa.Line(cloud.dim, cloud.vectors[i])  # constructor validates gauge and norm

    def test_uniformity_sanity(self):
        # Mean squared overlap with a fixed basis line is 1/dim for the
        # unitarily invariant ensemble.
        cloud = qa.sample_lines(2, 10_000, 1)
        mean = float(np.mean(np.abs(cloud.vectors[:, 0]) ** 2))
        assert abs(mean - 0.5) < 0.02

    def test_single_line_cloud(self):
        cloud = qa.sample_lines(4, 1, 0)
        assert cloud.count == 1
        qa.Line(cloud.dim, cloud.vectors[0])

    def test_parameter_guards(self):
        with pytest.raises(ParameterError):
            qa.sample_lines(1, 10, 0)
        with pytest.raises(ParameterError):
            qa.sample_lines(3, 0, 0)

    def test_dimension_bound(self):
        with pytest.raises(DimensionError):
            qa.sample_lines(MAX_DIM + 1, 10, 0)

    @pytest.mark.parametrize(
        "dim, count, seed",
        [(3.0, 10**6, 1), (3, 1e6, 1), (3, 10**6, 1.0), (3, 10**6, -1), (3, 10**6, 2**64)],
        ids=["float-dim", "float-count", "float-seed", "seed-below-0", "seed-2**64"],
    )
    def test_non_integral_arguments_and_seeds_out_of_range(self, monkeypatch, dim, count, seed):
        # Every seeded call takes a seed in [0, 2**64).  The check comes before
        # any draw and before the 48 MB cloud buffer is allocated.
        def no_draw(seed):
            raise AssertionError("drew before checking the arguments")

        monkeypatch.setattr(oracle.np.random, "default_rng", no_draw)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="dim|count|seed"):
                qa.sample_lines(dim, count, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_numpy_integer_arguments(self):
        cloud = qa.sample_lines(np.int64(3), np.uint64(5), np.uint64(2**64 - 1))
        assert (cloud.dim, cloud.count, cloud.seed) == (3, 5, 2**64 - 1)
        assert cloud.vectors.tobytes() == qa.sample_lines(3, 5, 2**64 - 1).vectors.tobytes()

    def test_cloud_size_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_CLOUD_ENTRIES", 100)
        assert qa.sample_lines(4, 25, 0).count == 25
        with pytest.raises(ParameterError):
            qa.sample_lines(4, 26, 0)


class TestSampleCloudShape:
    """A cloud built directly is refused unless it is a 2-D complex (count >= 1, dim) array
    within the size cap, with an integral dim and a seed in [0, 2**64), the seed rule of
    every seeded call."""

    @pytest.mark.parametrize(
        "dim, vectors, seed, error",
        [
            (3, np.ones((2, 4), complex) / 2, 0, DimensionError),  # rows wider than dim
            (3, [[1, 0, 0]], 0, ParameterError),  # a list
            (3, np.eye(3), 0, ParameterError),  # real
            (3, np.eye(3, dtype=np.complex64), 0, ParameterError),
            (3, np.ones(3, complex), 0, ParameterError),  # 1-D
            (3, np.ones((1, 1, 3), complex), 0, ParameterError),  # 3-D
            (3, np.ones((0, 3), complex), 0, ParameterError),  # no row
            (1, np.ones((2, 1), complex), 0, ParameterError),  # dim below 2
            (MAX_DIM + 1, np.ones((1, MAX_DIM + 1), complex), 0, DimensionError),
            (3.0, np.eye(3, dtype=complex), 0, ParameterError),
            (3, np.eye(3, dtype=complex), 0.0, ParameterError),
            (3, np.eye(3, dtype=complex), -1, ParameterError),
            (3, np.eye(3, dtype=complex), 2**64, ParameterError),
        ],
        ids=[
            "width", "list", "real", "complex64", "1-D", "3-D", "empty", "dim-1", "dim-cap",
            "float-dim", "float-seed", "seed-below-0", "seed-2**64",
        ],
    )
    def test_refused(self, dim, vectors, seed, error):
        with pytest.raises(error):
            qa.SampleCloud(dim, vectors, seed)

    def test_numpy_integer_dim_and_seed(self):
        rows = qa.sample_lines(3, 2_000, 1).vectors
        e1, cfg = qa.canonical_line([1, 0, 0]), qa.AlphaConfig(1.0)
        hits = qa.alpha_set_numeric([e1], cfg, qa.SampleCloud(3, rows, 7), 0.05)
        assert len(hits)
        for dim, seed in [(np.int64(3), np.int64(7)), (np.uint64(3), np.uint64(2**64 - 1))]:
            cloud = qa.SampleCloud(dim, rows, seed)
            assert (cloud.dim, cloud.seed) == (3, seed)
            assert qa.alpha_set_numeric([e1], cfg, cloud, 0.05).tobytes() == hits.tobytes()

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_CLOUD_ENTRIES", 100)
        assert qa.SampleCloud(4, np.eye(25, 4, dtype=complex), 0).count == 25
        with pytest.raises(ParameterError):
            qa.SampleCloud(4, np.eye(26, 4, dtype=complex), 0)

    def test_rows_are_made_read_only(self):
        rows = qa.sample_lines(3, 6, 2).vectors.copy()
        assert rows.flags.writeable
        cloud = qa.SampleCloud(3, rows, 2)
        assert cloud.vectors is rows and not rows.flags.writeable


class TestCloudRowScan:
    """A cloud built directly is scanned once, by its first rejection, which refuses
    a row that is not finite or not of norm 1 and names it; a row out of gauge is
    no fault, and ``sample_lines`` never scans."""

    E1 = qa.canonical_line([1, 0, 0])

    @pytest.mark.parametrize(
        "row, what",
        [
            ([2, 0, 0], "is not of norm 1"),
            ([2 * math.cos(1.0), 2 * math.sin(1.0), 0], "is not of norm 1"),  # at angle exactly 1.0 from e1
            ([1 + 1e-11, 0, 0], "is not of norm 1"),
            ([math.nan, 0, 0], "holds a non-finite amplitude"),
        ],
    )
    def test_rejection_refuses_a_row_off_the_unit_sphere(self, row, what):
        cloud = qa.SampleCloud(3, np.array([row], complex), 0)
        with pytest.raises(ParameterError, match=rf"^cloud row 0 {what}$"):
            qa.alpha_set_numeric([self.E1], qa.AlphaConfig(1.0), cloud, 0.1)
        with pytest.raises(ParameterError, match=rf"^cloud row 0 {what}$"):
            qa.discover_alpha_set([self.E1], qa.AlphaConfig(1.0), cloud)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0.5, math.inf), complex(-math.inf, 0)])
    def test_names_the_first_non_finite_row(self, bad):
        rows = qa.sample_lines(3, 8, 5).vectors.copy()
        rows[4, 1] = bad
        with pytest.raises(ParameterError, match=r"^cloud row 4 holds a non-finite amplitude$"):
            qa.alpha_set_numeric([self.E1], qa.AlphaConfig(1.0), qa.SampleCloud(3, rows, 5), 0.1)

    @pytest.mark.parametrize(
        "scale, row",
        [({0: 2.0}, 0), ({0: 2.0, 1: 1j}, 0), ({1: 1j, 5: 1 + 1e-11}, 5), ({3: 1j, 4_500: 2.0}, 4_500)],
        ids=["norm-2", "norm-2-then-gauge", "gauge-then-norm", "gauge-then-norm-in-second-block"],
    )
    def test_names_the_first_row_off_the_unit_sphere(self, scale, row):
        # A row times i keeps its norm but leaves the gauge, which is no fault.
        rows = qa.sample_lines(3, 5_000, 4).vectors.copy()
        for i, factor in scale.items():
            rows[i] *= factor
        with pytest.raises(ParameterError, match=rf"^cloud row {row} is not of norm 1$"):
            qa.alpha_set_numeric([self.E1], qa.AlphaConfig(1.0), qa.SampleCloud(3, rows, 4), 0.1)

    def test_unit_rows_out_of_gauge_pass_rejection(self):
        cloud = qa.sample_lines(3, 2_000, 5)
        turned = qa.SampleCloud(3, cloud.vectors * 1j, 5)
        cfg = qa.AlphaConfig(1.0)
        assert len(qa.alpha_set_numeric([self.E1], cfg, turned, 0.05)) == len(
            qa.alpha_set_numeric([self.E1], cfg, cloud, 0.05)
        )

    def test_scanned_once_and_only_when_needed(self, monkeypatch):
        cloud = qa.sample_lines(3, 300, 6)
        assert "_row_faults" not in vars(cloud)
        first = qa.alpha_set_numeric([self.E1], qa.AlphaConfig(1.0), cloud, 0.1)
        assert vars(cloud)["_row_faults"] is None

        def no_second_scan(*args):
            raise AssertionError("the cloud's rows were scanned again")

        monkeypatch.setattr(oracle, "_row_norms", no_second_scan)
        again = qa.alpha_set_numeric([self.E1], qa.AlphaConfig(1.0), cloud, 0.1)
        assert again.tobytes() == first.tobytes()


def one_shot_gauge(v):
    """The rows of ``v`` normalised, each with its first amplitude above ``GAUGE_TOL`` real positive."""
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    idx = np.argmax(np.abs(v) > GAUGE_TOL, axis=1)
    lead = v[np.arange(len(v)), idx]
    v *= (lead.conj() / np.abs(lead))[:, None]
    return v


def one_shot_lines(dim, count, seed):
    """The cloud of ``sample_lines`` computed on the whole array at once."""
    rng = np.random.default_rng(seed)
    return one_shot_gauge(rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim)))


def one_shot_residuals(generators, alpha, vectors):
    gens = np.vstack([g.amplitudes for g in generators])
    ang = np.arccos(np.clip(np.abs(vectors @ gens.conj().T), 0.0, 1.0))
    return np.max(np.abs(ang - alpha), axis=1)


class TestBlockedCloudPath:
    """The cloud path works in row blocks; every row must come out as in one shot."""

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("count", [1, 6, 7, 8, 26, 16_385, 16_386, 32_769])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 16])
    def test_sample_lines_matches_one_shot(self, monkeypatch, block, count, dim):
        # 16 385 rows are four default blocks, the last with a leftover row,
        # 16 386 end in a two-row block, 32 769 are eight blocks with a
        # leftover row.  Below 8 amplitudes a row's norm is summed a column at
        # a time, from 8 by numpy's pairwise reduce.  Bytes, not values, so
        # that a signed zero or a NaN would show.
        if block is not None:
            monkeypatch.setattr(oracle, "_BLOCK_ROWS", block)
        cloud = qa.sample_lines(dim, count, 10 * dim + count)
        assert cloud.vectors.tobytes() == one_shot_lines(dim, count, 10 * dim + count).tobytes()

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize(
        "n_gens, alpha, tol",
        [
            (1, 1.1, 1e-3),
            (3, 1.1, 5e-2),
            (2, 1.5, 0.1),  # alpha + tol >= pi/2: no lower bound
            (1, 0.2, 0.6),  # alpha - tol <= 0: the upper bound is 1
            (1, 1.1, 0.0),
            (1, 1.1, 2e-5),  # one hit in the cloud: its block screens one row
        ],
        ids=["1", "3", "above-pi-2", "below-0", "tol-0", "one-row"],
    )
    def test_rejection_matches_one_shot(self, monkeypatch, block, n_gens, alpha, tol):
        if block is not None:
            monkeypatch.setattr(oracle, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(n_gens)
        cfg = qa.AlphaConfig.from_alpha(alpha)
        cloud = qa.sample_lines(3, 20_000, 4)  # 20 000 = 7 * 2857 + 1: a one-row remainder
        gens = [random_line(rng, 3) for _ in range(n_gens)]
        res = oracle.angle_residuals(gens, cfg, cloud.vectors)
        ref = one_shot_residuals(gens, alpha, cloud.vectors)
        assert np.max(np.abs(res - ref)) <= 1e-15
        rows = np.nonzero(ref <= tol)[0]
        assert rows.size > 0 or tol == 0
        offsets, screened = oracle._offsets, []

        def spy(g, a):
            screened.append(len(g))
            return offsets(g, a)

        monkeypatch.setattr(oracle, "_offsets", spy)
        members = qa.alpha_set_numeric(gens, cfg, cloud, tol)
        assert np.array_equal(members, cloud.vectors[rows])
        # The screen spares the exact residual almost every row, and keeps every hit.
        assert rows.size <= sum(screened) <= max(100, 2 * rows.size)
        if tol == 2e-5:
            assert rows.size == 1 and 1 in screened


class TestGaugeRows:
    """The per-block gauge of ``sample_lines`` against the whole-row ``argmax`` formula."""

    @staticmethod
    def crafted_rows():
        rng = np.random.default_rng(8)
        v = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v[0, 0] = 0.0
        v[1, 0] = 1e-13 * (0.6 + 0.8j)
        v[2, 0] = 2e-12 * (0.6 - 0.8j)
        v[3] = [0.0, 0.0, 0.0, 0.6 - 0.8j]
        v[4, :2] = [0.0, 1e-13j]
        return v

    def test_matches_the_argmax_formula(self):
        v = self.crafted_rows()
        w = np.empty_like(v)
        oracle._gauge_rows(v.copy(), w, np.empty_like(v), np.empty(len(v)), np.empty(len(v), dtype=complex))
        assert w.tobytes() == one_shot_gauge(v).tobytes()
        # Rows 0, 1, 3 and 4 take their lead from a later column.
        assert list(np.argmax(np.abs(w) > GAUGE_TOL, axis=1)[:5]) == [1, 1, 0, 3, 2]
        for row in w:
            qa.Line(4, row)  # the constructor validates the gauge and the norm

    @pytest.mark.parametrize("rows", [1, 2, 4_097])
    @pytest.mark.parametrize("dim", range(2, 17))
    def test_row_norms_match_linalg_norm(self, rows, dim):
        # Column adds below dimension 8, numpy's pairwise reduce from 8.
        rng = np.random.default_rng(100 * dim + rows)
        w = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
        w *= 10.0 ** rng.uniform(-150, 150, (rows, 1))
        w[0, dim // 2] = 0.0
        w[-1, 0] = 1e150
        n = oracle._row_norms(w, np.empty_like(w), np.empty(rows))
        assert n.tobytes() == np.linalg.norm(w, axis=1).tobytes()


class _InjectedError(Exception):
    pass


class TestCloudHelperThread:
    """``sample_lines`` starts no helper thread; callers on threads of their own each get their own cloud."""

    @pytest.mark.parametrize("count", [1, 4_097, 4_098, 40_000])
    def test_starts_no_thread(self, monkeypatch, count):
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        before = threading.active_count()
        cloud = qa.sample_lines(2, count, 3)
        assert started == [] and threading.active_count() == before
        assert cloud.vectors.tobytes() == one_shot_lines(2, count, 3).tobytes()

    @pytest.mark.parametrize("fail_at", [1, 2, 3, 4, 6])
    def test_a_failed_draw_leaves_with_its_own_type(self, monkeypatch, fail_at):
        # Call 1 draws every real part, and call k + 2 the imaginary parts of block k.
        make_rng = np.random.default_rng

        class FailingGenerator:
            def __init__(self, seed):
                self.gen, self.calls = make_rng(seed), 0

            def standard_normal(self, *args, **kwargs):
                self.calls += 1
                if self.calls == fail_at:
                    raise _InjectedError(f"draw {fail_at}")
                return self.gen.standard_normal(*args, **kwargs)

        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(oracle.np.random, "default_rng", FailingGenerator)
        with pytest.raises(_InjectedError, match=rf"^draw {fail_at}$"):
            qa.sample_lines(3, 40, 9)

    def test_concurrent_clouds_under_fast_switching(self, monkeypatch):
        # Four callers on 1000-row blocks, whose copies release the GIL,
        # switching threads every microsecond: a buffer shared between calls
        # would change some cloud's bytes.
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1000)
        seeds = range(20, 24)
        clouds = {}

        def run(seed):
            clouds[seed] = qa.sample_lines(3, 60_500, seed).vectors.tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for seed in seeds:
            assert clouds[seed] == one_shot_lines(3, 60_500, seed).tobytes()


def double_alpha_cell(seed, d, alpha):
    """A collinear triple in C^4 and 40 constraints sampled from its alpha-set,
    whose double-alpha-set is one circle."""
    rng = np.random.default_rng(seed)
    e1, e2 = random_orthonormal_pair(rng, 4)
    form = qa.TripleCanonicalForm(e1, e2, math.sqrt(1 - d * d), d, distinct_unimodular_triple(rng, 5e-2))
    cfg = qa.AlphaConfig.from_alpha(alpha)
    return form, cfg, qa.collinear_triple_alpha_set(form, cfg, 4).sample(40, rng)


def traced_peak(fn):
    """``fn()`` and the peak bytes it allocated above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - base


class TestMemoryBudget:
    """Working memory of the cloud path: a few 4 096-row buffers beyond the cloud's own bytes."""

    DIM, COUNT, SEED = 4, 200_000, 3

    @pytest.fixture(scope="class")
    def cloud(self):
        return qa.sample_lines(self.DIM, self.COUNT, self.SEED)

    def test_sample_lines(self):
        cloud, peak = traced_peak(lambda: qa.sample_lines(self.DIM, self.COUNT, self.SEED))
        assert peak <= cloud.vectors.nbytes + 1_500_000

    def test_rejection(self, cloud):
        rng = np.random.default_rng(5)
        gens = [random_line(rng, self.DIM) for _ in range(3)]
        cfg = qa.AlphaConfig.from_alpha(1.1)
        members, peak = traced_peak(lambda: qa.alpha_set_numeric(gens, cfg, cloud, 1e-2))
        assert len(members)
        assert peak <= 600_000

    def test_rejection_does_not_grow_with_cloud(self, cloud):
        # Rejection holds one block plus its hits, never a per-row array of the cloud.
        rng = np.random.default_rng(5)
        gens = [random_line(rng, self.DIM) for _ in range(3)]
        cfg = qa.AlphaConfig.from_alpha(1.1)
        big = qa.sample_lines(self.DIM, 2 * self.COUNT, self.SEED + 1)
        _, small_peak = traced_peak(lambda: qa.alpha_set_numeric(gens, cfg, cloud, 1e-2))
        members, big_peak = traced_peak(lambda: qa.alpha_set_numeric(gens, cfg, big, 1e-2))
        assert len(members)
        assert big_peak <= 1.1 * small_peak
        assert big_peak <= 600_000

    def test_refinement_working_set_is_bounded(self):
        # 800 rows against 40 constraints: stacking every row at once would take
        # several MB of Jacobians and their products per pass.
        rng = np.random.default_rng(4)
        gens = [random_line(rng, self.DIM) for _ in range(40)]
        cfg = qa.AlphaConfig.from_alpha(1.1)
        candidates = qa.sample_lines(self.DIM, 800, self.SEED).vectors
        _, peak = traced_peak(lambda: qa.refine_alpha_members(gens, cfg, candidates))
        assert peak <= 4_000_000

    def test_funnel_ranking_does_not_grow_with_pool_times_constraints(self, cloud):
        # Ranking a pool far above the cap against 40 constraints works in row
        # blocks: the peak grows by a few pool rows' bytes per extra pool row,
        # where one overlap per constraint would add 40 * 16 bytes.
        rng = np.random.default_rng(5)
        gens = [random_line(rng, self.DIM) for _ in range(40)]
        cfg = qa.AlphaConfig.from_alpha(1.1)
        big = qa.sample_lines(self.DIM, 2 * self.COUNT, self.SEED + 1)
        pools, peaks = [], []
        for c in (cloud, big):
            pools.append(len(qa.alpha_set_numeric(gens[:3], cfg, c, 0.2)))
            _, peak = traced_peak(lambda: qa.funnel_alpha_set(gens, cfg, c, 0.2, 1e-7, 16))
            peaks.append(peak)
        assert pools[0] >= 1000 * 16
        assert pools[1] >= 1.5 * pools[0]
        row = self.DIM * 16
        assert peaks[1] - peaks[0] <= 3 * row * (pools[1] - pools[0])

    def test_disk_root_count_takes_one_radius_at_a_time(self):
        # One grid row per radius: evaluating every radius at once would hold
        # about 100 MB of (radii, grid) arrays at this grid size.
        total, peak = traced_peak(lambda: qa.root_count_on_disk(0.1, 0.9, 0.3, 4096, 1024))
        assert total is math.inf or total > 2
        assert peak <= 1_000_000


class TestAlphaSetNumeric:
    def test_single_generator_overlap(self):
        cfg = qa.AlphaConfig.from_alpha(np.pi / 3)
        cloud = qa.sample_lines(2, 50_000, 3)
        e1 = qa.canonical_line([1, 0])
        members = qa.alpha_set_numeric([e1], cfg, cloud, 1e-2)
        assert len(members)
        for row in members[:200]:
            assert abs(abs(qa.inner(qa.Line(cloud.dim, row), e1)) - 0.5) < 1.2e-2

    def test_zero_tolerance_empty(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        cloud = qa.sample_lines(3, 20_000, 5)
        e1 = qa.canonical_line([1, 0, 0])
        assert qa.alpha_set_numeric([e1], cfg, cloud, 0.0).shape == (0, 3)

    def test_monotone_filtering(self):
        # Shrinking the tolerance tenfold never adds members.
        rng = np.random.default_rng(6)
        cfg = qa.AlphaConfig.from_alpha(1.1)
        cloud = qa.sample_lines(3, 50_000, 8)
        gens = [random_line(rng, 3), random_line(rng, 3)]
        wide = {row.tobytes() for row in qa.alpha_set_numeric(gens, cfg, cloud, 1e-2)}
        narrow = {row.tobytes() for row in qa.alpha_set_numeric(gens, cfg, cloud, 1e-3)}
        assert narrow <= wide

    def test_empty_generator_set_rejected(self):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        cloud = qa.sample_lines(3, 100, 0)
        with pytest.raises(ParameterError):
            qa.alpha_set_numeric([], cfg, cloud, 1e-3)

    @pytest.mark.parametrize("tol", [-1e-3, -1.0, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        cloud = qa.sample_lines(3, 100, 0)
        with pytest.raises(ParameterError):
            qa.alpha_set_numeric([qa.canonical_line([1, 0, 0])], cfg, cloud, tol)


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

    @pytest.mark.parametrize("tol", [-1e-9, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        cfg = qa.AlphaConfig.from_alpha(1.05)
        gens = [qa.canonical_line([1, 0, 0]), qa.canonical_line([0, 1, 0])]
        candidates = qa.sample_lines(3, 10, 1).vectors
        with pytest.raises(ParameterError):
            qa.refine_alpha_members(gens, cfg, candidates, tol)
        with pytest.raises(ParameterError):
            oracle.discover_alpha_set(gens, cfg, qa.sample_lines(3, 2000, 1), 1e-1, tol)
        assert isinstance(qa.refine_alpha_members(gens, cfg, candidates, 0.0), list)  # zero stays valid

    @pytest.mark.parametrize(
        "candidates",
        [np.zeros((2, 2), complex), np.zeros((2, 4), complex), np.ones(3, complex), np.ones((1, 2, 3), complex)],
    )
    def test_candidates_of_wrong_shape_rejected(self, candidates):
        gens = [qa.canonical_line([1, 0, 0])]
        with pytest.raises(DimensionError):
            qa.refine_alpha_members(gens, qa.AlphaConfig.from_alpha(1.0), candidates)

    @pytest.mark.parametrize("bad", [[math.nan, 0, 0], [math.inf, 1, 0], [0, 0, 0]])
    def test_non_finite_or_zero_row_rejected(self, bad, capfd):
        # One such row would sink a whole stacked solve, so the call refuses it
        # before any LAPACK routine sees it and prints its complaint to stderr.
        gens = [qa.canonical_line([1, 0, 0]), qa.canonical_line([0, 1, 0])]
        candidates = np.vstack([qa.sample_lines(3, 5, 1).vectors, np.array(bad, dtype=complex)])
        with pytest.raises(ParameterError):
            qa.refine_alpha_members(gens, qa.AlphaConfig.from_alpha(1.05), candidates)
        assert capfd.readouterr().err == ""

    def test_no_candidates(self):
        gens = [qa.canonical_line([1, 0, 0])]
        assert qa.refine_alpha_members(gens, qa.AlphaConfig.from_alpha(1.0), np.zeros((0, 3), complex)) == []

    def test_result_does_not_depend_on_the_batch(self):
        rng = np.random.default_rng(7)
        cfg = qa.AlphaConfig.from_alpha(1.05)
        gens = [random_line(rng, 3), random_line(rng, 3)]
        rough = qa.alpha_set_numeric(gens, cfg, qa.sample_lines(3, 100_000, 9), 3e-2)[:300]
        assert len(rough) == 300  # more than one block of rows

        def rows(lines):
            return np.array([l.amplitudes for l in lines])

        together = rows(qa.refine_alpha_members(gens, cfg, rough, 1e-9))
        singly = rows([m for row in rough for m in qa.refine_alpha_members(gens, cfg, row[None], 1e-9)])
        backwards = rows(qa.refine_alpha_members(gens, cfg, rough[::-1], 1e-9)[::-1])
        assert len(together) >= 250
        for other in (singly, backwards):
            assert other.shape == together.shape
            assert np.max(np.abs(other - together)) <= 1e-12

    def test_tangent_step_converges_a_thin_double_alpha_cell(self, cloud4):
        # Forty constraints sampled from a collinear triple's alpha-set cut out
        # its double-alpha-set, a circle.  A Gauss-Newton step with a radial part
        # crawls or stalls on most of the funnel pool here (48 of 300 converge);
        # the tangent step converges nearly all of it, and onto the circle.
        form, cfg, constraints = double_alpha_cell(1, 0.61, 1.435)
        pool = qa.alpha_set_numeric(constraints[:3], cfg, cloud4, 5e-2)
        assert len(pool) >= 300
        survivors = qa.funnel_alpha_set(constraints, cfg, cloud4, max_pool=300)
        assert len(survivors) >= 240
        circle = qa.double_alpha_set_classify(form, cfg, 4)
        assert max(circle.distance(s) for s in survivors) < 1e-5

    def test_funnel_refines_the_nearest_pool_rows(self, cloud4):
        # The pool here is twelve times the cap.  Its first 200 rows in cloud
        # order converge only 78 times; the 200 the funnel ranks best against
        # the whole family converge nearly all, and onto the circle.
        form, cfg, constraints = double_alpha_cell(4, 0.3, 1.0)
        pool = qa.alpha_set_numeric(constraints[:3], cfg, cloud4, 5e-2)
        assert len(pool) >= 2000
        survivors = qa.funnel_alpha_set(constraints, cfg, cloud4, max_pool=200)
        assert len(survivors) >= 180
        circle = qa.double_alpha_set_classify(form, cfg, 4)
        assert max(circle.distance(s) for s in survivors) < 1e-5

    def test_dedup(self):
        from qangle.oracle import dedup_lines

        e1 = qa.canonical_line([1, 0])
        near = qa.canonical_line([math.cos(1e-6), math.sin(1e-6)])
        far = qa.canonical_line([0, 1])
        kept = dedup_lines([e1, near, far], 1e-4)
        assert len(kept) == 2

    def test_dedup_edge_cases(self):
        e1, far = qa.canonical_line([1, 0, 0]), qa.canonical_line([0, 1, 0])
        near = qa.canonical_line([math.cos(1e-9), math.sin(1e-9) * 1j, 0])
        kept = oracle.dedup_lines(iter([e1, near, far]), 1e-4)
        assert len(kept) == 2 and kept[0] is e1 and kept[1] is far
        # Lines 1e-9 apart: the angle is resolved well below the square root of epsilon.
        assert len(oracle.dedup_lines([e1, near], 5e-10)) == 2
        assert oracle.dedup_lines([e1, near], 2e-9) == [e1]
        assert oracle.dedup_lines([], 1e-4) == []
        with pytest.raises(DimensionError):
            oracle.dedup_lines([e1, qa.canonical_line([1, 0])], 1e-4)

    @pytest.mark.parametrize("min_angle", [math.nan, -1e-4])
    def test_dedup_refuses_a_nan_or_negative_bound(self, min_angle):
        # A NaN bound would keep only the first line, a negative one every line.
        with pytest.raises(ParameterError):
            oracle.dedup_lines([qa.canonical_line([1, 0]), qa.canonical_line([0, 1])], min_angle)


def lstsq_steps(generators, alpha, rows):
    """Per row: the residuals r, the Jacobian J of the residuals in ``[Re v, Im v]``
    with the row's radial direction projected out, and lstsq's step for J step = -r."""
    gens = np.vstack([g.amplitudes for g in generators])
    out = []
    for v in rows:
        g = gens.conj() @ v
        m = np.abs(g)
        r = np.arccos(m) - alpha
        # d|g_j| = Re(conj(g_j) <s_j, dv>) / |g_j| and d arccos(x) = -dx / sqrt(1 - x^2).
        z = (g.conj() / (m * np.sqrt(1 - m * m)))[:, None] * gens.conj()
        jac = np.hstack([-z.real, z.imag])
        u = np.concatenate([v.real, v.imag])
        jac = jac @ (np.eye(len(u)) - np.outer(u, u))
        out.append((r, jac, np.linalg.lstsq(jac, -r, rcond=None)[0]))
    return out


class TestTangentStep:
    """The stacked Gram-system step against lstsq on each row's projected Jacobian."""

    @staticmethod
    def steps(generators, alpha, rows):
        gens_c = np.vstack([g.amplitudes for g in generators]).conj()
        g, r = oracle._overlaps(rows, gens_c, alpha)
        step = oracle._tangent_steps(rows, g, r, gens_c)
        return np.hstack([step.real, step.imag])

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("k", [2, 3, 40])
    def test_full_rank_step_is_the_minimum_norm_step(self, dim, k):
        rng = np.random.default_rng(10 * dim + k)
        gens = [random_line(rng, dim) for _ in range(k)]
        rows = qa.sample_lines(dim, 50, k).vectors
        got = self.steps(gens, 1.1, rows)
        for step, (_, _, ref) in zip(got, lstsq_steps(gens, 1.1, rows)):
            assert np.linalg.norm(step - ref) <= 1e-8 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("copies, distinct", [(40, 3), (7, 1), (2, 1)])
    def test_rank_deficient_step_is_finite_and_least_squares(self, dim, copies, distinct):
        # Repeated constraints leave J short of rank 2n - 2; the guarded solve
        # may then differ from lstsq's step, but not in the residual it leaves.
        rng = np.random.default_rng(copies + distinct + dim)
        gens = [random_line(rng, dim) for _ in range(distinct)] * copies
        rows = qa.sample_lines(dim, 50, dim).vectors
        got = self.steps(gens, 1.1, rows)
        assert np.all(np.isfinite(got))
        for step, (r, jac, ref) in zip(got, lstsq_steps(gens, 1.1, rows)):
            best = np.linalg.norm(jac @ ref + r)
            assert np.linalg.norm(jac @ step + r) <= best + 1e-9 * np.linalg.norm(r)


_LINE3 = qa.canonical_line([1, 0, 0])
_MALFORMED = {
    # case: (generators, width of the rows, error); "no-lines" takes valid generators and rows
    "empty": ([], 3, ParameterError),
    "mixed": ([_LINE3, qa.canonical_line([1, 0])], 3, DimensionError),
    "width": ([_LINE3], 4, DimensionError),
}


class TestMalformedGenerators:
    """An empty or mixed-dimension generator set, or rows of another width, are
    refused before any array work; so is a worst residual over no lines, or over
    lines of different dimensions."""

    def test_worst_over_lines_of_different_dimensions(self):
        lines = [qa.canonical_line([1, 1j, 0]), qa.canonical_line([1, 1j])]
        with pytest.raises(DimensionError, match="different dimensions"):
            oracle.worst_angle_residual([_LINE3], qa.AlphaConfig.from_alpha(1.0), lines)

    @pytest.mark.parametrize(
        "call, case",
        [(call, case) for call in ("refine", "residuals", "worst") for case in _MALFORMED]
        + [("worst", "no-lines")],
        ids=lambda x: x,
    )
    def test_refused(self, call, case):
        cfg = qa.AlphaConfig.from_alpha(1.0)
        gens, width, error = _MALFORMED.get(case, ([_LINE3], 3, ParameterError))
        rows = qa.sample_lines(width, 4, 1).vectors
        lines = [] if case == "no-lines" else [qa.canonical_line(rows[0])]
        fn = {
            "refine": lambda: qa.refine_alpha_members(gens, cfg, rows),
            "residuals": lambda: oracle.angle_residuals(gens, cfg, rows),
            "worst": lambda: oracle.worst_angle_residual(gens, cfg, lines),
        }[call]
        with pytest.raises(error):
            fn()


def lookahead_reference(generators, alpha, rows, tol=1e-7):
    """Each row after two line-searched refinement passes, and its maximum residual then; all rows at once.

    A pass gives each live row its tangent step at the first length among 1,
    1/2, ..., 1/256 that lowers its maximum residual, renormalised.  A row
    is live until its residual is within 1e-4 * tol or a pass lowers nothing.
    """
    gens_c = np.vstack([g.amplitudes for g in generators]).conj()

    def residuals(v):
        return np.arccos(np.clip(np.abs(v @ gens_c.T), 0.0, 1.0)) - alpha

    v = rows.copy()
    worst = np.max(np.abs(residuals(v)), axis=1)
    live = worst > 1e-4 * tol
    for _ in range(2):
        dv = oracle._tangent_steps(v, v @ gens_c.T, residuals(v), gens_c)
        moved = np.zeros(len(v), dtype=bool)
        for step in 2.0 ** -np.arange(9):
            trial = v + step * dv
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            trial_worst = np.max(np.abs(residuals(trial)), axis=1)
            ok = live & ~moved & (trial_worst < worst)
            v[ok], worst[ok] = trial[ok], trial_worst[ok]
            moved |= ok
        live = moved & (worst > 1e-4 * tol)
    return v, worst


class TestFunnelRanking:
    """Above its cap, the funnel hands on the pool rows with the best two-pass look-ahead, as the passes left them."""

    @pytest.fixture(scope="class")
    def cell(self, cloud4):
        _, cfg, constraints = double_alpha_cell(4, 0.3, 1.0)
        pool = qa.alpha_set_numeric(constraints[:3], cfg, cloud4, 5e-2)
        return cfg, constraints, pool

    @staticmethod
    def refined_candidates(monkeypatch, call):
        seen = []

        def capture(generators, cfg, candidates, tol=1e-7):
            seen.append(np.array(candidates))
            return []

        monkeypatch.setattr(oracle, "refine_alpha_members", capture)
        call()
        assert len(seen) == 1
        return seen[0]

    @staticmethod
    def assert_best_rows_in_cloud_order(got, moved, scores, cap):
        # Each handed-on row is the row the two passes leave, within 1e-12.
        # Rounding may only swap rows whose scores tie with the cut within 1e-9.
        kept = np.array([np.argmin(np.linalg.norm(moved - row, axis=1)) for row in got])
        assert np.all(np.linalg.norm(moved[kept] - got, axis=1) <= 1e-12)
        assert len(kept) == cap
        assert np.all(np.diff(kept) > 0)  # cloud order, each row once
        best = np.argsort(scores, kind="stable")[:cap]
        cut = scores[best[-1]]
        assert np.all(np.abs(scores[np.setxor1d(kept, best)] - cut) <= 1e-9)

    @pytest.mark.parametrize("max_pool", [1, 37, 800, None])
    def test_funnel_keeps_the_nearest_rows_in_cloud_order(self, monkeypatch, cloud4, cell, max_pool):
        # Nearest after the look-ahead, scores floored at confirm_tol; None:
        # the whole pool fits under the cap and is handed on byte for byte.
        cfg, constraints, pool = cell
        cap = max_pool or len(pool)
        got = self.refined_candidates(
            monkeypatch, lambda: qa.funnel_alpha_set(constraints, cfg, cloud4, max_pool=cap)
        )
        if max_pool is None:
            assert got.dtype == pool.dtype and got.tobytes() == pool.tobytes()
        else:
            moved, scores = lookahead_reference(constraints, float(cfg.alpha), pool)
            self.assert_best_rows_in_cloud_order(got, moved, np.fmax(scores, 1e-7), cap)

    def test_discovery_ranks_by_every_generator(self, monkeypatch, cloud4, cell):
        # Three generators at a loose tolerance: two passes leave the scores
        # spread over 1e-11 to 5e-2; those within confirm_tol tie at it.
        cfg, constraints, pool = cell
        gens = constraints[:3]
        got = self.refined_candidates(
            monkeypatch, lambda: qa.discover_alpha_set(gens, cfg, cloud4, 5e-2, 1e-7, 50)
        )
        moved, scores = lookahead_reference(gens, float(cfg.alpha), pool)
        self.assert_best_rows_in_cloud_order(got, moved, np.fmax(scores, 1e-7), 50)

    def test_scores_within_confirm_tol_keep_cloud_order(self, monkeypatch, cloud4, cell):
        # Two generators at a tight tolerance: two passes bring every hit
        # within confirm_tol, so no score ranks by rounding noise and the
        # first hits in cloud order are the ones handed on.
        cfg, constraints, _ = cell
        gens = constraints[:2]
        pool = qa.alpha_set_numeric(gens, cfg, cloud4, 5e-3)
        assert len(pool) > 20
        moved, scores = lookahead_reference(gens, float(cfg.alpha), pool)
        assert np.all(scores < 1e-7)
        got = self.refined_candidates(
            monkeypatch, lambda: qa.discover_alpha_set(gens, cfg, cloud4, 5e-3, 1e-7, 20)
        )
        assert got.shape == (20, 4)
        assert np.all(np.linalg.norm(got - moved[:20], axis=1) <= 1e-12)

    def test_lookahead_converges_every_kept_row_of_a_thin_cell(self, cloud4):
        # 600 of this cell's 2749 pool rows are refined.  Ranked by their raw
        # maximum residual, 548 of them converged; ranked by the look-ahead,
        # all 600 do, and onto the circle.
        form, cfg, constraints = double_alpha_cell(1, 0.61, 1.435)
        survivors = qa.funnel_alpha_set(constraints, cfg, cloud4, max_pool=600)
        assert len(survivors) >= 590
        circle = qa.double_alpha_set_classify(form, cfg, 4)
        assert max(circle.distance(s) for s in survivors) < 1e-5


class TestCandidateCaps:
    """A cap below 1 is refused rather than silently dropping candidates."""

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(6)
        gens = [random_line(rng, 3), random_line(rng, 3)]
        return gens, qa.AlphaConfig.from_alpha(1.1), qa.sample_lines(3, 50_000, 8)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_max_candidates_below_one(self, problem, cap):
        gens, cfg, cloud = problem
        assert len(qa.alpha_set_numeric(gens, cfg, cloud, 1e-2)) > 1
        with pytest.raises(ParameterError):
            oracle.discover_alpha_set(gens, cfg, cloud, 1e-2, 1e-7, cap)

    @pytest.mark.parametrize("max_pool, n_seed", [(0, 2), (-1, 2), (10, -1)])
    def test_funnel_caps_below_one(self, problem, max_pool, n_seed):
        gens, cfg, cloud = problem
        with pytest.raises(ParameterError):
            oracle.funnel_alpha_set(gens, cfg, cloud, 1e-2, 1e-7, max_pool, n_seed)


def reference_circle_count(z, r, a, grid_size):
    """The per-circle grid count, written out on its own grid."""
    phis = np.linspace(0.0, 2.0 * np.pi, grid_size, endpoint=False)
    f = np.abs(z + r * np.exp(1j * phis)) - a
    if np.max(np.abs(f)) < 1e-12:
        return math.inf
    s = np.sign(f)
    return int(np.sum(s * np.roll(s, -1) < 0)) + int(np.sum(s == 0))


def reference_disk_count(z, r, a, grid_size, radial):
    """The disk count as a sum of per-circle counts over the uniform and window radii."""
    radii = list(np.linspace(r / radial, r, radial))
    win_lo, win_hi = abs(abs(z) - a), abs(z) + a
    if win_lo <= r:
        lo, hi = max(win_lo, r * 1e-9), min(win_hi, r)
        if hi >= lo:
            radii.extend(np.linspace(lo, hi, max(radial // 2, 16)))
    total = 0
    for rp in sorted(set(float(x) for x in radii)):
        c = reference_circle_count(z, rp, a, grid_size)
        if c is math.inf:
            return math.inf
        total += c
    return total


def root_count_cases(seed, count):
    """Seeded (z, r, a): generic draws, point disks (some with |z| = a), z = 0 with r = a, and tiny |z|."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        a = float(rng.uniform(0.05, 1.0))
        z = complex(rng.standard_normal(), rng.standard_normal()) * float(rng.uniform(0.0, 1.2))
        r = float(rng.uniform(0.0, 1.2))
        if k % 4 == 1:
            r = 0.0
            if k % 8 == 1:
                z = a * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        elif k % 4 == 2:
            z, r = 0j, a
        elif k % 4 == 3:
            z *= 1e-9
        yield z, r, a


class TestRootCounting:
    @pytest.mark.parametrize("grid_size, radial", [(2048, 48), (4096, 64)])
    def test_disk_count_is_the_sum_of_circle_counts(self, grid_size, radial):
        # Window radii included: tiny |z| opens a thin window near r' = a.  A
        # finite count is a Python int, so that it serialises as JSON.
        for z, r, a in root_count_cases(21, 60):
            got = qa.root_count_on_disk(z, r, a, grid_size, radial)
            assert got == reference_disk_count(z, r, a, grid_size, radial)
            assert got is math.inf or type(got) is int

    def test_circle_count_matches_the_reference(self):
        for z, r, a in root_count_cases(22, 200):
            for rp in (r, a):
                got = qa.root_count_on_circle(z, rp, a, 2048)
                assert got == reference_circle_count(z, rp, a, 2048)
                assert got is math.inf or type(got) is int

    @pytest.mark.parametrize("count", [qa.root_count_on_circle, qa.root_count_on_disk])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", ["z", "r", "a"])
    def test_non_finite_arguments_are_refused(self, count, bad, slot):
        args = {"z": 0.5, "r": 0.3, "a": 0.6}
        args[slot] = complex(0.1, bad) if slot == "z" else bad
        with pytest.raises(ParameterError):
            count(args["z"], args["r"], args["a"], 4096)

    def test_point_disk_needs_a_grid(self):
        with pytest.raises(ParameterError):
            qa.root_count_on_disk(0.5, 0.0, 0.6, 100)

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

    @pytest.mark.parametrize("count", [qa.root_count_on_circle, qa.root_count_on_disk])
    def test_grid_size_cap(self, count):
        with pytest.raises(ParameterError):
            count(0.5, 0.3, 0.6, oracle.MAX_GRID_SIZE + 1)

    @pytest.mark.parametrize(
        "r, a, radial",
        [(0.3, 0.6, 0), (0.3, 0.6, -3), (-0.3, 0.6, 64), (0.3, 0.0, 64), (0.3, -0.6, 64), (0.0, 0.0, 64),
         (0.3, 0.6, oracle.MAX_RADIAL + 1)],
    )
    def test_disk_parameter_guards(self, r, a, radial):
        with pytest.raises(ParameterError):
            qa.root_count_on_disk(0.5, r, a, 4096, radial)

    def test_point_disk(self):
        assert qa.root_count_on_disk(0.6, 0.0, 0.6) is math.inf
        assert qa.root_count_on_disk(0.5, 0.0, 0.6) == 0
        assert qa.root_count_on_disk(0.5, 0.3, 0.6, 4096, 1) > 0

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

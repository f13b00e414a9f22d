import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qangle as qa
from qangle import wigner
from qangle.cli import _PAYLOAD_HANDLERS, MAX_DRAWS, main
from qangle.projspace import MAX_DIM
from qangle.verify import SUITES, Tally


def run_cli(args, payload=None, tmp_path=None):
    """Invoke the CLI in-process, returning (exit_code, parsed_stdout)."""
    import io
    from contextlib import redirect_stdout

    argv = list(args)
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        argv += ["--in", str(path)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue()
    return code, json.loads(out) if out.strip() else None


def run_cli_process(args, stdin_bytes, cwd):
    """Run ``python -m qangle.cli`` in a fresh interpreter, returning the finished process.

    The package is found from this file's location, so the call holds on any
    checkout; an inherited relative PYTHONPATH such as "src" would not resolve
    from the neutral working directory.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    cmd = [sys.executable, "-m", "qangle.cli", *args]
    return subprocess.run(cmd, input=stdin_bytes, capture_output=True, cwd=cwd, env=env, timeout=120)


def line_json(vec):
    l = qa.canonical_line(vec)
    return l.to_json()


ORACLE_PAYLOAD = {"alpha": 1.1, "generators": [line_json([1, 0, 0]), line_json([1, 2j, 0])], "dim": 3, "count": 10}
IDENTITY_CHECK_PAYLOAD = {
    "alpha": 1.0,
    "symmetry": {"dim": 2, "antiunitary": False, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
}


class TestAngleVerb:
    def test_matches_library(self, tmp_path):
        payload = {"u": line_json([1, 0]), "v": line_json([1, 1])}
        code, out = run_cli(["angle"], payload, tmp_path)
        assert code == 0
        assert out["radians"] == pytest.approx(np.pi / 4, abs=1e-15)

    def test_dimension_mismatch_is_domain_error(self, tmp_path):
        payload = {"u": line_json([1, 0]), "v": line_json([1, 0, 0])}
        code, out = run_cli(["angle"], payload, tmp_path)
        assert code == 1
        assert out["error"] == "dimension-mismatch"

    def test_missing_field_is_schema_error(self, tmp_path):
        code, out = run_cli(["angle"], {"u": line_json([1, 0])}, tmp_path)
        assert code == 2
        assert out["error"] == "schema"

    @pytest.mark.parametrize("dim", [2.9, "2"])
    def test_non_integer_dim_is_schema_error(self, tmp_path, dim):
        payload = {"u": {**line_json([1, 0]), "dim": dim}, "v": line_json([0, 1])}
        code, out = run_cli(["angle"], payload, tmp_path)
        assert code == 2
        assert out["error"] == "schema"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("re", ["1", 0]),
            ("im", [False, False]),
            ("im", [0]),
            ("im", 0),
            ("re", [[1], [0]]),
            ("re", [1, float("nan")]),
            ("re", [10**400, 0]),
        ],
    )
    def test_amplitudes_must_be_finite_numbers_of_equal_shape(self, tmp_path, key, value):
        payload = {"u": {**line_json([1, 0]), key: value}, "v": line_json([0, 1])}
        code, out = run_cli(["angle"], payload, tmp_path)
        assert code == 2
        assert out["error"] == "schema"

    @pytest.mark.parametrize(
        "re, im", [([2, 0], [0, 0]), ([0, 1], [1, 0]), ([1, 0, 0], [0, 0, 0])], ids=["norm", "gauge", "length"]
    )
    def test_well_typed_invalid_line_is_schema_error(self, tmp_path, re, im):
        payload = {"u": {"dim": 2, "re": re, "im": im}, "v": line_json([0, 1])}
        code, out = run_cli(["angle"], payload, tmp_path)
        assert code == 2
        assert out["error"] == "schema"


class TestPayloadVerbFlags:
    @pytest.mark.parametrize("flag", ["--seed", "--tol"])
    @pytest.mark.parametrize("verb", list(_PAYLOAD_HANDLERS))
    def test_settings_live_only_in_the_payload(self, verb, flag):
        with pytest.raises(SystemExit) as err:
            main([verb, flag, "3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("verb", list(_PAYLOAD_HANDLERS))
    def test_a_payload_that_is_no_object_is_schema_error(self, tmp_path, verb):
        path = tmp_path / "payload.json"
        path.write_text("[]")
        code, out = run_cli([verb, "--in", str(path)])
        assert (code, out["error"]) == (2, "schema")


class TestCanonicalVerb:
    def test_phase_removal(self, tmp_path):
        code, out = run_cli(["canonical"], {"re": [0, 0, 0], "im": [0, 2, 0]}, tmp_path)
        assert code == 0
        assert out["re"] == [0.0, 1.0, 0.0]
        assert out["im"] == [0.0, 0.0, 0.0]

    def test_degenerate_vector(self, tmp_path):
        code, out = run_cli(["canonical"], {"re": [0, 0], "im": [0, 0]}, tmp_path)
        assert code == 1
        assert out["error"] == "degenerate-vector"

    @pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")  # none from numpy's first norm
    def test_large_finite_vector_is_a_line(self, tmp_path):
        code, out = run_cli(["canonical"], {"re": [1e200, 0], "im": [0, 0]}, tmp_path)
        assert code == 0
        assert out["re"] == [1.0, 0.0]

    def test_huge_amplitudes_print_nothing_on_stderr(self, tmp_path):
        # numpy's overflow in the first norm would print a warning to stderr.
        huge = {"dim": 2, "re": [1e300, 0], "im": [0, 0]}
        angle = run_cli_process(["angle"], json.dumps({"u": huge, "v": line_json([1, 0])}).encode(), tmp_path)
        assert angle.returncode == 2 and json.loads(angle.stdout)["error"] == "schema"
        canonical = run_cli_process(["canonical"], json.dumps({"re": [1e200, 0], "im": [0, 0]}).encode(), tmp_path)
        assert canonical.returncode == 0 and json.loads(canonical.stdout)["re"] == [1.0, 0.0]
        assert angle.stderr == canonical.stderr == b""

    def test_non_numeric_amplitude_is_schema_error(self, tmp_path):
        code, out = run_cli(["canonical"], {"re": ["a"], "im": [0]}, tmp_path)
        assert code == 2
        assert out["error"] == "schema"


class TestAlphaSetVerbs:
    def test_pair_descriptor(self, tmp_path):
        payload = {
            "alpha": 1.1,
            "generators": [line_json([1, 0, 0, 0]), line_json([0, 1, 0, 0])],
        }
        code, out = run_cli(["alphaset"], payload, tmp_path)
        assert code == 0
        assert out["components"][0]["kind"] == "atheta"

    def test_triple_descriptor(self, tmp_path):
        c, d = 0.8, 0.6
        payload = {
            "alpha": 1.2,
            "generators": [
                line_json([c, 1j * d, 0, 0]),
                line_json([c, -1j * d, 0, 0]),
                line_json([c, d, 0, 0]),
            ],
        }
        code, out = run_cli(["alphaset"], payload, tmp_path)
        assert code == 0
        kinds = [comp["kind"] for comp in out["components"]]
        assert kinds[0] == "slice"

    def test_double_alphaset_dim4_circle(self, tmp_path):
        c, d = 0.8, 0.6
        payload = {
            "alpha": 1.1,
            "generators": [
                line_json([c, 1j * d, 0, 0]),
                line_json([c, -1j * d, 0, 0]),
                line_json([c, d, 0, 0]),
            ],
        }
        code, out = run_cli(["double-alphaset"], payload, tmp_path)
        assert code == 0
        assert [comp["kind"] for comp in out["components"]] == ["circle"]

    @pytest.mark.parametrize("verb, count", [("alphaset", 4), ("double-alphaset", 2)])
    def test_a_generator_count_the_verb_does_not_take_is_schema_error(self, tmp_path, verb, count):
        gens = [line_json([1, 0, 0]), line_json([0, 1, 0]), line_json([0, 0, 1]), line_json([1, 1, 1])][:count]
        code, out = run_cli([verb], {"alpha": 1.1, "generators": gens}, tmp_path)
        assert (code, out["error"]) == (2, "schema")

    @pytest.mark.parametrize("verb", ["alphaset", "double-alphaset"])
    def test_three_lines_of_c2_are_refused(self, tmp_path, verb):
        # Any three lines of C^2 are collinear; the descriptors need dimension >= 3.
        gens = [line_json([1, 0]), line_json([0.6, 0.8]), line_json([0.8, 0.6j])]
        code, out = run_cli([verb], {"alpha": 1.1, "generators": gens}, tmp_path)
        assert code == 1
        assert out["error"] == "dimension-mismatch"


class TestCardinalityVerb:
    def test_strict_band(self, tmp_path):
        a = 0.6
        c, d = 0.9, math.sqrt(1 - 0.81)
        rho0 = math.sqrt(1 - (a / c) ** 2)
        c3 = 0.3 / rho0
        c1 = 0.5 * c / a
        c2 = math.sqrt(1 - c1 * c1 - c3 * c3)
        payload = {
            "alpha": math.acos(a),
            "c": c,
            "d": d,
            "theta": 0.0,
            "c1": {"re": c1, "im": 0.0},
            "c2": {"re": 0.0, "im": c2},
            "c3": c3,
        }
        code, out = run_cli(["cardinality"], payload, tmp_path)
        assert code == 0
        assert out["tag"] == "infinite"

    def test_non_numeric_coefficient_is_schema_error(self, tmp_path):
        payload = {
            "alpha": 1.0,
            "c": 0.9,
            "d": math.sqrt(1 - 0.81),
            "theta": 0.0,
            "c1": {"re": "x", "im": 0},
            "c2": {"re": 0.0, "im": 0.5},
            "c3": 0.5,
        }
        code, out = run_cli(["cardinality"], payload, tmp_path)
        assert code == 2
        assert out["error"] == "schema"


class TestClassifyCircleVerb:
    def test_default_basis(self, tmp_path):
        payload = {"alpha": 1.0, "dim": 4, "cfrak": 0.8, "dfrak": 0.6}
        code, out = run_cli(["classify-circle"], payload, tmp_path)
        assert code == 0
        assert out["tag"] == "HighlySymmetric"

    @staticmethod
    def with_basis(e1, e2, dim=3):
        """A classify-circle payload whose basis is the real pair (e1, e2)."""
        basis = {key: {"dim": len(v), "re": v, "im": [0.0] * len(v)} for key, v in (("e1", e1), ("e2", e2))}
        return {"alpha": 1.0, "dim": dim, "cfrak": 0.8, "dfrak": 0.6, **basis}

    def test_explicit_default_basis_gives_the_default_verdict(self, tmp_path):
        payload = self.with_basis([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        code, out = run_cli(["classify-circle"], payload, tmp_path)
        default = {k: v for k, v in payload.items() if k not in ("e1", "e2")}
        assert code == 0
        assert out == run_cli(["classify-circle"], default, tmp_path)[1]

    def test_basis_of_another_dimension_is_a_mismatch(self, tmp_path):
        payload = self.with_basis([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], dim=3)
        code, out = run_cli(["classify-circle"], payload, tmp_path)
        assert code == 1
        assert out["error"] == "dimension-mismatch"
        assert "ambient dimension" in out["detail"]

    def test_non_orthonormal_basis_is_a_parameter_error(self, tmp_path):
        payload = self.with_basis([1.0, 0.0, 0.0], [0.6, 0.8, 0.0])
        code, out = run_cli(["classify-circle"], payload, tmp_path)
        assert code == 1
        assert out["error"] == "parameter"

    def test_out_of_range_alpha(self, tmp_path):
        payload = {"alpha": 0.3, "dim": 3, "cfrak": 0.8, "dfrak": 0.6}
        code, out = run_cli(["classify-circle"], payload, tmp_path)
        assert code == 1
        assert out["error"] == "range"

    @pytest.mark.parametrize(
        "dim, error", [(1, "range"), (2, "range"), (MAX_DIM + 1, "dimension-mismatch"), (100_000_000, "dimension-mismatch")]
    )
    def test_dim_bound_before_allocation(self, tmp_path, monkeypatch, dim, error):
        def allocate(*args, **kwargs):
            raise AssertionError("dim-sized allocation before the dimension check")

        monkeypatch.setattr(np, "eye", allocate)
        payload = {"alpha": 1.0, "dim": dim, "cfrak": 0.8, "dfrak": 0.6}
        code, out = run_cli(["classify-circle"], payload, tmp_path)
        assert code == 1
        assert out["error"] == error


class TestWitnessVerb:
    def test_witness_output(self, tmp_path):
        payload = {
            "alpha": math.acos(1 / math.sqrt(3)),
            "c": math.sqrt(2 / 3),
            "d": 1 / math.sqrt(3),
            "t": 0.05,
        }
        code, out = run_cli(["witness"], payload, tmp_path)
        assert code == 0
        for key in ("u1", "u2", "u3", "w"):
            assert key in out
        for ang in out["angles"]:
            assert ang == pytest.approx(math.acos(1 / math.sqrt(3)), abs=1e-9)

    def test_guard_failure(self, tmp_path):
        payload = {
            "alpha": math.acos(1 / math.sqrt(3)),
            "c": math.sqrt(2 / 3),
            "d": 1 / math.sqrt(3),
            "t": 1.5,
        }
        code, out = run_cli(["witness"], payload, tmp_path)
        assert code == 1
        assert out["error"] == "witness-range"


class TestOracleVerb:
    def test_single_generator(self, tmp_path):
        payload = {
            "alpha": math.pi / 3,
            "generators": [line_json([1, 0])],
            "dim": 2,
            "count": 30_000,
            "seed": 3,
            "tol": 1e-2,
        }
        code, out = run_cli(["oracle"], payload, tmp_path)
        assert code == 0
        assert out["count"] > 0
        member = qa.Line.from_json(out["members"][0])
        assert abs(abs(member.amplitudes[0]) - 0.5) < 1.2e-2

    def test_bad_tol_is_schema_error(self, tmp_path):
        payload = {
            "alpha": math.pi / 3,
            "generators": [line_json([1, 0])],
            "dim": 2,
            "count": 100,
            "tol": "abc",
        }
        code, out = run_cli(["oracle"], payload, tmp_path)
        assert code == 2
        assert out["error"] == "schema"


class TestWignerVerbs:
    def test_generate_fit_check_pipeline(self, tmp_path):
        code, sym = run_cli(["wigner-generate"], {"dim": 3, "seed": 5}, tmp_path)
        assert code == 0
        w = qa.WignerSymmetry.from_json(sym)
        images = [qa.apply_symmetry(w, p).to_json() for p in qa.probe_set(3)]
        code, fitted = run_cli(["wigner-fit"], {"dim": 3, "images": images}, tmp_path)
        assert code == 0
        assert qa.same_induced_map(w, qa.WignerSymmetry.from_json(fitted))
        code, rep = run_cli(
            ["wigner-check"],
            {"symmetry": sym, "alpha": 1.0, "nPairs": 100, "seed": 2},
            tmp_path,
        )
        assert code == 0
        assert rep["forwardViolations"] == 0
        assert rep["backwardViolations"] == 0

    def test_check_pair_cap(self, tmp_path, monkeypatch):
        # Above the cap the payload is refused before the map is applied to any line.
        code, sym = run_cli(["wigner-generate"], {"dim": 3}, tmp_path)
        applied = []
        monkeypatch.setattr(wigner, "apply_symmetry", lambda w, v: applied.append(v))
        payload = {"symmetry": sym, "alpha": 1.0, "nPairs": wigner.MAX_PAIRS + 1}
        code, out = run_cli(["wigner-check"], payload, tmp_path)
        assert (code, out["error"], applied) == (1, "parameter", [])

    def test_check_needs_a_pair(self, tmp_path):
        code, sym = run_cli(["wigner-generate"], {"dim": 3}, tmp_path)
        assert code == 0
        code, out = run_cli(
            ["wigner-check"], {"symmetry": sym, "alpha": 1.0, "nPairs": -3}, tmp_path
        )
        assert code == 1
        assert out["error"] == "parameter"

    def test_check_needs_the_antiunitary_flag(self, tmp_path):
        code, sym = run_cli(["wigner-generate"], {"dim": 3}, tmp_path)
        assert code == 0
        del sym["antiunitary"]
        code, out = run_cli(["wigner-check"], {"symmetry": sym, "alpha": 1.0}, tmp_path)
        assert code == 2
        assert out["error"] == "schema"

    @pytest.mark.parametrize("key, value", [("antiunitary", "no"), ("dim", 3.0)])
    def test_check_refuses_mistyped_symmetry_fields(self, tmp_path, key, value):
        code, sym = run_cli(["wigner-generate"], {"dim": 3}, tmp_path)
        assert code == 0
        sym[key] = value
        code, out = run_cli(["wigner-check"], {"symmetry": sym, "alpha": 1.0, "nPairs": 60}, tmp_path)
        assert code == 2
        assert out["error"] == "schema"

    @pytest.mark.parametrize("key, value", [("re", [["1", 0], [0, 1]]), ("im", [0])])
    def test_check_refuses_mistyped_matrix_entries(self, tmp_path, key, value):
        sym = {"dim": 2, "antiunitary": False, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]], key: value}
        code, out = run_cli(["wigner-check"], {"symmetry": sym, "alpha": 1.0, "nPairs": 60}, tmp_path)
        assert code == 2
        assert out["error"] == "schema"

    def test_check_refuses_a_matrix_of_the_wrong_size(self, tmp_path):
        sym = {"dim": 3, "antiunitary": False, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        code, out = run_cli(["wigner-check"], {"symmetry": sym, "alpha": 1.0}, tmp_path)
        assert code == 1
        assert out["error"] == "dimension-mismatch"

    def test_check_refuses_a_non_unitary_matrix(self, tmp_path):
        code, sym = run_cli(["wigner-generate"], {"dim": 3}, tmp_path)
        assert code == 0
        sym["re"] = [[2 * x for x in row] for row in sym["re"]]
        code, out = run_cli(["wigner-check"], {"symmetry": sym, "alpha": 1.0}, tmp_path)
        assert code == 1
        assert out["error"] == "parameter"

    def test_check_refuses_dimension_one(self, tmp_path):
        sym = {"dim": 1, "antiunitary": False, "re": [[1]], "im": [[0]]}
        code, out = run_cli(["wigner-check"], {"symmetry": sym, "alpha": 1.0, "nPairs": 3}, tmp_path)
        assert code == 1
        assert out["error"] == "parameter"

    def test_generate_dim_bound(self, tmp_path):
        code, out = run_cli(["wigner-generate"], {"dim": MAX_DIM + 1}, tmp_path)
        assert code == 1
        assert out["error"] == "dimension-mismatch"

    @pytest.mark.parametrize("seed", ["x", 1.5])
    def test_bad_seed_is_schema_error(self, tmp_path, seed):
        code, out = run_cli(["wigner-generate"], {"dim": 3, "seed": seed}, tmp_path)
        assert code == 2
        assert out["error"] == "schema"

    @pytest.mark.parametrize(
        "verb, payload",
        [
            ("wigner-generate", {"dim": 3}),
            ("oracle", ORACLE_PAYLOAD),
            ("wigner-check", IDENTITY_CHECK_PAYLOAD),
        ],
    )
    def test_negative_seed_is_parameter_error(self, tmp_path, verb, payload):
        # Every seeded call takes a seed in [0, 2**64), one rule for all of them.
        for seed in (-1, 2**64):
            code, out = run_cli([verb], {**payload, "seed": seed}, tmp_path)
            assert code == 1
            assert out["error"] == "parameter"
            assert out["detail"] == f"seed must be in [0, 2**64), got {seed}"

    def test_oracle_seed_beyond_the_cloud_header_is_parameter_error(self, tmp_path):
        # The largest seed of that one rule, 2**64 - 1, draws a cloud.
        code, out = run_cli(["oracle"], {**ORACLE_PAYLOAD, "seed": 2**64 - 1}, tmp_path)
        assert code == 0 and out["count"] >= 0
        code, out = run_cli(["oracle"], {**ORACLE_PAYLOAD, "seed": 2**64}, tmp_path)
        assert code == 1
        assert out["error"] == "parameter"

    @pytest.mark.parametrize(
        "verb, payload",
        [
            ("oracle", {**ORACLE_PAYLOAD, "tol": -1}),
            ("oracle", {**ORACLE_PAYLOAD, "refine": True, "confirmTol": -1}),
            ("wigner-check", {**IDENTITY_CHECK_PAYLOAD, "tol": -1}),
        ],
    )
    def test_negative_tolerance_is_parameter_error(self, tmp_path, verb, payload):
        code, out = run_cli([verb], payload, tmp_path)
        assert code == 1
        assert out["error"] == "parameter"

    def test_fit_rejects_garbage(self, tmp_path):
        images = [line_json([1, 0, 0]).copy() for _ in range(7)]
        code, out = run_cli(["wigner-fit"], {"dim": 3, "images": images}, tmp_path)
        assert code == 1
        assert out["error"] == "not-a-wigner-map"
        assert "probeIndex" in out and "residual" in out

    def test_fit_refuses_columns_off_unitary_at_probe_0(self, tmp_path):
        # Probe 1's image turned by 1e-9 rad leaves the recovered columns 1e-9 off unitary.
        eps = 1e-9
        images = [p.to_json() for p in qa.probe_set(3)]
        images[1] = line_json([0, math.cos(eps), math.sin(eps)])
        code, out = run_cli(["wigner-fit"], {"dim": 3, "images": images}, tmp_path)
        assert (code, out["error"], out["probeIndex"]) == (1, "not-a-wigner-map", 0)
        assert out["residual"] == pytest.approx(eps, rel=1e-6)


class TestIntersectAndBridge:
    def test_intersect(self, tmp_path):
        mu = np.exp(0.9j)
        a, b = 0.6, 0.8
        payload = {
            "e1": line_json([1, 0, 0]),
            "e2": line_json([0, 1, 0]),
            "f1": line_json([a, mu * b, 0]),
            "f2": line_json([b, -mu * a, 0]),
            "c0": 1 / math.sqrt(2),
        }
        code, out = run_cli(["intersect"], payload, tmp_path)
        assert code == 0
        assert out["count"] == 2

    def test_bridge(self, tmp_path):
        mu = np.exp(0.9j)
        a = 0.05
        b = math.sqrt(1 - a * a)
        payload = {
            "alpha": math.acos(1 / math.sqrt(3)),
            "e1": line_json([1, 0, 0]),
            "e2": line_json([0, 1, 0]),
            "f1": line_json([a, mu * b, 0]),
            "f2": line_json([b, -mu * a, 0]),
        }
        code, out = run_cli(["bridge"], payload, tmp_path)
        assert code == 0
        g1 = qa.Line.from_json(out["g1"])
        assert abs(g1.amplitudes[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_bridge_refuses_another_regime(self, tmp_path):
        payload = {
            "alpha": 1.0,
            "e1": line_json([1, 0, 0]),
            "e2": line_json([0, 1, 0]),
            "f1": line_json([0.6, 0.8, 0]),
            "f2": line_json([0.8, -0.6, 0]),
        }
        code, out = run_cli(["bridge"], payload, tmp_path)
        assert (code, out) == (1, {"error": "parameter", "detail": "bridge construction applies to the a = 1/sqrt(3) regime"})

    @pytest.mark.parametrize("verb", ["intersect", "bridge"])
    def test_bases_of_mixed_dimension_are_refused(self, tmp_path, verb):
        payload = {
            "alpha": math.acos(1 / math.sqrt(3)),
            "e1": line_json([1, 0, 0]),
            "e2": line_json([0, 1, 0]),
            "f1": line_json([1, 0]),
            "f2": line_json([0, 1]),
            "c0": 1 / math.sqrt(2),
        }
        code, out = run_cli([verb], payload, tmp_path)
        assert code == 1
        assert out["error"] == "dimension-mismatch"


class TestVerifySuites:
    def test_circle3_exceptional_parameters(self, tmp_path):
        code, out = run_cli(
            [
                "verify",
                "circle3",
                "--a",
                "0.57735026919",
                "--c",
                "0.81649658092",
                "--d",
                "0.57735026919",
            ]
        )
        assert code == 0
        assert out["verdict"] is True
        assert any("case=two-component" in n and "components=2" in n for n in out["notes"])

    def test_section5(self, tmp_path):
        code, out = run_cli(["verify", "section5", "--dim", "3", "--seed", "3", "--draws", "20"])
        assert code == 0
        assert out["verdict"] is True

    @pytest.mark.parametrize(
        "suite, draws, keys",
        [
            ("collin-alpha", 2, {"draws", "oracle_members"}),
            ("circle4", 2, {"draws", "survivors"}),
            ("circle-char", 2, {"draws", "agreements"}),
            ("basic", 2, {"alpha_set_S1", "alpha_set_S2", "double_alpha_set", "triple_alpha_set"}),
            # Without --draws this suite runs 1000; an explicit count is honoured.
            ("infinite-element", 9, {"draws", "agreements", "boundary_cases"}),
        ],
    )
    def test_suite_passes_at_small_draws(self, suite, draws, keys):
        code, out = run_cli(["verify", suite, "--seed", "1", "--draws", str(draws)])
        assert code == 0
        assert out["verdict"] is True
        assert set(out["counts"]) == keys
        assert all(v > 0 for v in out["counts"].values())

    @pytest.mark.parametrize(
        "suite, key", [("infinite-element", "draws"), ("section5", "bridged"), ("collin-alpha", "draws")]
    )
    def test_explicit_draws_are_honoured(self, suite, key):
        code, out = run_cli(["verify", suite, "--seed", "0", "--draws", "2"])
        assert code == 0
        assert out["verdict"] is True
        assert out["counts"][key] == 2

    @pytest.mark.parametrize("draws", ["0", "-1"])
    def test_draws_below_one_exit_2(self, draws):
        code, out = run_cli(["verify", "shape", "--draws", draws])
        assert code == 2
        assert out["error"] == "schema"

    def test_draws_cap(self, monkeypatch):
        # The suite itself never runs: at the cap it records the draws, above it is refused first.
        seen = []

        def record(seed, draws, dim=3):
            seen.append(draws)
            return Tally()

        monkeypatch.setitem(SUITES, "shape", record)
        assert run_cli(["verify", "shape", "--draws", str(MAX_DRAWS)])[0] == 0
        code, out = run_cli(["verify", "shape", "--draws", str(MAX_DRAWS + 1)])
        assert (code, out["error"], seen) == (2, "schema", [MAX_DRAWS])

    def test_negative_seed_exit_2(self):
        for seed in (-1, 2**64):
            code, out = run_cli(["verify", "shape", "--seed", str(seed), "--draws", "1"])
            assert code == 2
            assert out == {"error": "schema", "detail": f"--seed must be in [0, 2**64), got {seed}"}
        assert run_cli(["verify", "shape", "--seed", str(2**64 - 1), "--draws", "1"])[0] == 0

    def test_top_seed_runs_a_suite_that_samples_a_cloud(self):
        # The suite's cloud seed, --seed plus 3, wraps into [0, 2**64).
        code, out = run_cli(["verify", "collin-alpha", "--seed", str(2**64 - 1), "--draws", "1"])
        assert (code, out["verdict"], out["counts"]["draws"]) == (0, True, 1)

    def _schema_error(self, args):
        code, out = run_cli(["verify", *args, "--draws", "1"])
        assert code == 2
        assert out["error"] == "schema"

    @pytest.mark.parametrize("suite", ["circle4", "circle3", "circle-char", "infinite-element"])
    def test_dim_rejected_where_unused(self, suite):
        self._schema_error([suite, "--dim", "4"])

    @pytest.mark.parametrize("flag", ["--a", "--c", "--d"])
    @pytest.mark.parametrize("suite", [s for s in SUITES if s != "circle3"])
    def test_circle_weights_rejected_elsewhere(self, suite, flag):
        self._schema_error([suite, flag, "0.5"])

    @pytest.mark.parametrize(
        "flags",
        [["--c", "0.8"], ["--d", "0.6"], ["--c", "0.8", "--d", "0.6"], ["--a", "0.5"], ["--a", "0.5", "--d", "0.6"]],
    )
    def test_circle3_takes_a_c_d_together(self, flags):
        self._schema_error(["circle3", *flags])

    @pytest.mark.parametrize("dim", ["1", "0", "-3"])
    @pytest.mark.parametrize("suite", ["shape", "collin-alpha", "basic", "section5"])
    def test_dim_below_two(self, suite, dim):
        self._schema_error([suite, "--dim", dim])

    @pytest.mark.parametrize("suite", ["shape", "collin-alpha", "basic", "section5"])
    def test_dim_above_max_dim_is_refused_before_running(self, suite, monkeypatch):
        def must_not_run(seed, draws, dim=None):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(SUITES, suite, must_not_run)
        code, out = run_cli(["verify", suite, "--dim", str(MAX_DIM + 1), "--draws", "1"])
        assert code == 1
        assert out["error"] == "dimension-mismatch"

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_tol_is_not_a_verify_flag(self, suite):
        with pytest.raises(SystemExit) as err:
            main(["verify", suite, "--tol", "1e-3", "--draws", "1"])
        assert err.value.code == 2

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nonsense"])
        assert err.value.code == 2


class TestDeterminismAndRoundTrip:
    def test_byte_identical_runs(self, tmp_path):
        args = ["verify", "shape", "--seed", "4", "--draws", "3"]
        a = run_cli_process(args, None, tmp_path)
        b = run_cli_process(args, None, tmp_path)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        report = json.loads(a.stdout)
        assert report["verdict"] is True
        assert report["counts"]["draws"] == 3

    def test_output_round_trips(self, tmp_path):
        payload = {"u": line_json([1, 0]), "v": line_json([1, 1j])}
        code, out = run_cli(["angle"], payload, tmp_path)
        assert code == 0
        assert json.loads(json.dumps(out)) == out

    def test_out_flag_writes_file(self, tmp_path):
        payload = {"u": line_json([1, 0]), "v": line_json([0, 1])}
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        target = tmp_path / "result.json"
        code = main(["angle", "--in", str(path), "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["radians"] == pytest.approx(np.pi / 2)

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qangle as qa
from qangle.cli import main


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


def line_json(vec):
    l = qa.canonical_line(vec)
    return l.to_json()


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


class TestClassifyCircleVerb:
    def test_default_basis(self, tmp_path):
        payload = {"alpha": 1.0, "dim": 4, "cfrak": 0.8, "dfrak": 0.6}
        code, out = run_cli(["classify-circle"], payload, tmp_path)
        assert code == 0
        assert out["tag"] == "HighlySymmetric"

    def test_out_of_range_alpha(self, tmp_path):
        payload = {"alpha": 0.3, "dim": 3, "cfrak": 0.8, "dfrak": 0.6}
        code, out = run_cli(["classify-circle"], payload, tmp_path)
        assert code == 1
        assert out["error"] == "range"


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

    def test_check_needs_a_pair(self, tmp_path):
        code, sym = run_cli(["wigner-generate"], {"dim": 3}, tmp_path)
        assert code == 0
        code, out = run_cli(
            ["wigner-check"], {"symmetry": sym, "alpha": 1.0, "nPairs": -3}, tmp_path
        )
        assert code == 1
        assert out["error"] == "parameter"

    @pytest.mark.parametrize("seed", ["x", 1.5])
    def test_bad_seed_is_schema_error(self, tmp_path, seed):
        code, out = run_cli(["wigner-generate"], {"dim": 3, "seed": seed}, tmp_path)
        assert code == 2
        assert out["error"] == "schema"

    def test_fit_rejects_garbage(self, tmp_path):
        images = [line_json([1, 0, 0]).copy() for _ in range(7)]
        code, out = run_cli(["wigner-fit"], {"dim": 3, "images": images}, tmp_path)
        assert code == 1
        assert out["error"] == "not-a-wigner-map"
        assert "probeIndex" in out and "residual" in out


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

    @pytest.mark.parametrize("suite, key", [("infinite-element", "draws"), ("section5", "bridged")])
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

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nonsense"])
        assert err.value.code == 2


class TestDeterminismAndRoundTrip:
    def test_byte_identical_runs(self, tmp_path):
        cmd = [
            sys.executable,
            "-m",
            "qangle.cli",
            "verify",
            "shape",
            "--seed",
            "4",
            "--draws",
            "3",
        ]
        # Fresh interpreters find the package from this file's location, so the
        # test holds on any checkout; an inherited relative PYTHONPATH such as
        # "src" would not resolve from the neutral working directory.
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        a = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env, timeout=120)
        b = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env, timeout=120)
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

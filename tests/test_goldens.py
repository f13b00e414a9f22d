"""tools/goldens.py: ``compare`` flags every changed or unmatched run, ``capture``
refuses an output directory that already holds files before it runs anything, and
the runs cover every payload verb and every ``qangle verify`` suite."""

import importlib.util
from pathlib import Path

import pytest

from qangle import cli, verify

_PATH = Path(__file__).resolve().parents[1] / "tools" / "goldens.py"
_spec = importlib.util.spec_from_file_location("goldens", _PATH)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


def write_capture(root: Path, runs: dict[str, tuple[str, int]]) -> Path:
    """A capture directory holding ``<run>.stdout`` and ``<run>.exit`` for each run."""
    root.mkdir()
    for name, (stdout, code) in runs.items():
        (root / f"{name}.stdout").write_text(stdout)
        (root / f"{name}.exit").write_text(f"{code}\n")
    return root


RUNS = {"verify-shape-s0-d2": ('{"verdict": true}\n', 0), "payload-angle": ('{"radians": 0.5}\n', 0)}


def test_identical_captures_compare_equal(tmp_path, capsys):
    a, b = write_capture(tmp_path / "a", RUNS), write_capture(tmp_path / "b", RUNS)
    assert goldens.compare(a, b) == 0
    out, err = capsys.readouterr()
    assert out == "" and "0 of 2 runs differ" in err


@pytest.mark.parametrize(
    "change",
    [
        {"payload-angle": ('{"radians": 0.6}\n', 0)},  # one stdout byte
        {"payload-angle": ('{"radians": 0.5}\n', 2)},  # the exit code
        {"payload-extra": ("", 0)},  # a run only one capture holds
    ],
    ids=["stdout", "exit", "unmatched"],
)
def test_a_differing_run_is_listed(tmp_path, capsys, change):
    a = write_capture(tmp_path / "a", RUNS)
    b = write_capture(tmp_path / "b", {**RUNS, **change})
    for left, right in ((a, b), (b, a)):
        assert goldens.compare(left, right) == 1
        out, _ = capsys.readouterr()
        assert out.split() == list(change)


def test_capture_refuses_a_non_empty_output_before_running(tmp_path, monkeypatch):
    out = write_capture(tmp_path / "out", RUNS)

    def no_run(*args, **kwargs):
        raise AssertionError("capture started a process")

    monkeypatch.setattr(goldens.subprocess, "run", no_run)
    with pytest.raises(SystemExit, match="is not empty"):
        goldens.capture(tmp_path, out)
    assert sorted(p.name for p in out.iterdir()) == sorted(f"{n}.{s}" for n in RUNS for s in ("stdout", "exit"))


def test_every_verb_and_suite_has_a_golden_run():
    # A verb or suite without a run would escape the byte-identity check.
    runs = goldens.all_runs().values()
    assert {argv[0] for argv, payload in runs if payload is not None} == set(cli._PAYLOAD_HANDLERS)
    assert {argv[1] for argv, _ in runs if argv[0] == "verify" and argv[1] != "--help"} == set(verify.SUITES)
    assert {argv[0] for argv, _ in runs if argv[1:] == ["--help"]} == {*cli._PAYLOAD_HANDLERS, "verify"}

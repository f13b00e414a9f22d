"""Capture and compare the CLI's golden runs: the stdout and exit code of fixed commands.

    python tools/goldens.py capture --src SRC OUT
    python tools/goldens.py compare A B

``capture`` runs ``python -m qangle.cli`` with ``SRC`` (a checkout's ``src/``
directory) first on ``PYTHONPATH``, once per golden run, in an empty working
directory, and writes ``OUT/<run>.stdout`` and ``OUT/<run>.exit`` for each.
``OUT`` must be new or empty, so a capture never mixes with an older one.
The 58 runs are the 24 ``qangle verify`` goldens (each suite at seeds 0 and
1 with two draws, the default-draws runs of ``infinite-element``,
``section5`` and ``collin-alpha``, and three runs with explicit parameters),
one valid payload per payload verb, a second ``oracle`` payload without
``refine`` (plain rejection), five dimension-3 ``classify-circle`` payloads
(one per reason of the dimension-3 case split, and one with an explicit
basis), and the ``--help`` text of ``qangle``, of ``qangle verify`` and of
each payload verb.

``compare`` lists every run whose stdout bytes or exit code differ between
two captures, or that only one of them holds, and exits 1 if there is any.

Only the standard library is used.  Float bytes can differ between BLAS
builds, so compare captures made on the same machine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TWO_DRAW_SUITES = ("shape", "collin-alpha", "circle4", "circle3", "circle-char", "basic")


def line(*amps: complex) -> dict:
    """The wire form of the line through ``amps``; the first nonzero entry must be real positive."""
    norm = math.sqrt(sum(abs(z) ** 2 for z in amps))
    return {
        "dim": len(amps),
        "re": [complex(z).real / norm for z in amps],
        "im": [complex(z).imag / norm for z in amps],
    }


def verify_runs() -> dict[str, list[str]]:
    runs = {}
    for seed in ("0", "1"):
        for suite in TWO_DRAW_SUITES:
            runs[f"verify-{suite}-s{seed}-d2"] = [suite, "--seed", seed, "--draws", "2"]
        for suite in ("infinite-element", "section5", "collin-alpha"):
            runs[f"verify-{suite}-s{seed}"] = [suite, "--seed", seed]
        for suite in ("infinite-element", "section5"):
            runs[f"verify-{suite}-s{seed}-d9"] = [suite, "--seed", seed, "--draws", "9"]
    runs["verify-circle3-acd"] = ["circle3", "--a", "0.57735026919", "--c", "0.81649658092", "--d", "0.57735026919"]
    runs["verify-section5-dim3-s3-d20"] = ["section5", "--dim", "3", "--seed", "3", "--draws", "20"]
    return {name: ["verify", *args] for name, args in runs.items()}


def payloads() -> dict[str, dict]:
    mu = complex(math.cos(0.9), math.sin(0.9))
    a, c, d = 0.6, 0.9, math.sqrt(1 - 0.81)
    c1, c3 = 0.5 * c / a, 0.3 / math.sqrt(1 - (a / c) ** 2)
    triple = [line(0.8, 0.6j, 0, 0), line(0.8, -0.6j, 0, 0), line(0.8, 0.6, 0, 0)]
    s = 1 / math.sqrt(2)
    bridge_a = 0.05
    return {
        "angle": {"u": line(1, 0), "v": line(1, 1j)},
        "canonical": {"re": [0, 3, 0], "im": [0, -4, 1]},
        "alphaset": {"alpha": 1.1, "generators": [line(1, 0, 0, 0), line(1, 2j, 0, 0)]},
        "double-alphaset": {"alpha": 1.1, "generators": triple},
        "cardinality": {
            "alpha": math.acos(a), "c": c, "d": d, "theta": 0.0,
            "c1": {"re": c1, "im": 0.0}, "c2": {"re": 0.0, "im": math.sqrt(1 - c1 * c1 - c3 * c3)}, "c3": c3,
        },
        "classify-circle": {"alpha": 1.0, "dim": 4, "cfrak": 0.8, "dfrak": 0.6},
        "witness": {"alpha": math.acos(1 / math.sqrt(3)), "c": math.sqrt(2 / 3), "d": 1 / math.sqrt(3), "t": 0.05},
        "oracle": {
            "alpha": 1.1, "generators": [line(1, 0, 0), line(1, 2j, 0)], "dim": 3, "count": 20_000, "seed": 3, "tol": 2e-2,
            "refine": True,
        },
        "wigner-generate": {"dim": 3, "seed": 5, "antiunitary": True},
        "wigner-fit": {"dim": 2, "images": [line(0, 1), line(1, 0), line(1, 1), line(1, -1j)]},
        "wigner-check": {
            "alpha": 1.0, "nPairs": 50, "seed": 2,
            "symmetry": {"dim": 2, "antiunitary": False, "re": [[s, 0], [0, s]], "im": [[0, s], [s, 0]]},
        },
        "intersect": {
            "e1": line(1, 0, 0), "e2": line(0, 1, 0), "f1": line(0.6, 0.8 * mu, 0), "f2": line(0.8, -0.6 * mu, 0),
            "c0": s,
        },
        "bridge": {
            "alpha": math.acos(1 / math.sqrt(3)),
            "e1": line(1, 0, 0), "e2": line(0, 1, 0),
            "f1": line(bridge_a, math.sqrt(1 - bridge_a**2) * mu, 0),
            "f2": line(math.sqrt(1 - bridge_a**2), -bridge_a * mu, 0),
        },
    }


def classify_circle_dim3() -> dict[str, dict]:
    """One dimension-3 ``classify-circle`` payload per reason of the case split."""
    sq3 = 1 / math.sqrt(3)
    cases = {
        "exceptional-double-circle": (math.acos(sq3), math.sqrt(2 / 3), sq3),
        "exceptional-circle-point": (math.acos(sq3), 1 / math.sqrt(2), 1 / math.sqrt(2)),
        "second-component": (math.pi / 3, 0.95, math.sqrt(1 - 0.95**2)),
        "single-circle": (1.0, 0.8, 0.6),
    }
    return {name: {"alpha": alpha, "dim": 3, "cfrak": c, "dfrak": d} for name, (alpha, c, d) in cases.items()}


def all_runs() -> dict[str, tuple[list[str], dict | None]]:
    runs = {name: (argv, None) for name, argv in verify_runs().items()}
    runs.update({f"payload-{verb}": ([verb], body) for verb, body in payloads().items()})
    runs["payload-oracle-reject"] = (["oracle"], {k: v for k, v in payloads()["oracle"].items() if k != "refine"})
    for name, body in classify_circle_dim3().items():
        runs[f"payload-classify-circle-{name}"] = (["classify-circle"], body)
    runs["payload-classify-circle-basis"] = (
        ["classify-circle"],
        {**classify_circle_dim3()["second-component"], "e1": line(0, 1, 0), "e2": line(0.6, 0, 0.8j)},
    )
    runs["help"] = (["--help"], None)
    for verb in ("verify", *payloads()):
        runs[f"help-{verb}"] = ([verb, "--help"], None)
    return runs


def capture(src: Path, out: Path) -> int:
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"capture: {out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src.resolve()), os.environ.get("PYTHONPATH")]))}
    env["COLUMNS"] = "80"  # argparse wraps --help text to the terminal width
    for name, (argv, payload) in sorted(all_runs().items()):
        stdin = None if payload is None else json.dumps(payload)
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run(
                [sys.executable, "-m", "qangle.cli", *argv],
                input=stdin, capture_output=True, text=True, cwd=cwd, env=env,
                stdin=subprocess.DEVNULL if stdin is None else None,
            )
        (out / f"{name}.stdout").write_text(proc.stdout)
        (out / f"{name}.exit").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}", file=sys.stderr)
    return 0


def load(path: Path) -> dict[str, tuple[bytes, bytes]]:
    return {
        p.stem: (p.read_bytes(), p.with_suffix(".exit").read_bytes())
        for p in path.glob("*.stdout")
    }


def compare(a: Path, b: Path) -> int:
    left, right = load(a), load(b)
    differ = sorted(n for n in left.keys() | right.keys() if left.get(n) != right.get(n))
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(left.keys() | right.keys())} runs differ", file=sys.stderr)
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    cap = sub.add_parser("capture", help="run every golden against SRC and write the results to OUT")
    cap.add_argument("--src", type=Path, required=True, help="the src/ directory of a checkout")
    cap.add_argument("out", type=Path)
    cmp_ = sub.add_parser("compare", help="list the runs that differ between two captures")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = p.parse_args(argv)
    if args.cmd == "capture":
        return capture(args.src, args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

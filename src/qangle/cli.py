"""Command-line front end: every operation exposed with JSON input/output.

Payload-driven verbs read a JSON document from ``--in FILE`` or standard
input and print a JSON result; ``verify`` is flag-driven and runs one of the
named verification suites, emitting a report.  All randomness funnels
through ``--seed`` (default 0), so output bytes are reproducible.  Exit
codes: 0 success, 1 domain error, 2 schema or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import alphasets, oracle, projspace, symmetric_sets, verify, wigner
from .alphasets import AlphaConfig
from .errors import DimensionError, NotAWignerMapError, QAngleError, RangeError
from .projspace import Line, canonical_line

# Suite parameters of ``verify``; a suite takes only those in its ``Suite.options``.
_SUITE_OPTIONS = ("dim", "a", "c", "d")


class SchemaError(Exception):
    pass


def _emit(obj: dict, out_path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _need(payload: dict, key: str, kind):
    if key not in payload:
        raise SchemaError(f"missing field {key!r}")
    val = payload[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return val
    if kind is bool and isinstance(val, bool):
        return val
    if kind in (dict, list) and isinstance(val, kind):
        return val
    raise SchemaError(f"field {key!r} must be {kind.__name__}")


def _optional(payload: dict, key: str, kind, default):
    """An optional field, type-checked like a required one when present."""
    return _need(payload, key, kind) if key in payload else default


def _line(payload: dict, key: str) -> Line:
    obj = _need(payload, key, dict)
    try:
        return Line.from_json(obj)
    except (QAngleError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"field {key!r} is not a valid line: {exc}") from exc


def _lines(payload: dict, key: str) -> list[Line]:
    objs = _need(payload, key, list)
    out = []
    for i, obj in enumerate(objs):
        try:
            out.append(Line.from_json(obj))
        except (QAngleError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"entry {i} of {key!r} is not a valid line: {exc}") from exc
    return out


def _complex(payload: dict, key: str) -> complex:
    obj = _need(payload, key, dict)
    return complex(_need(obj, "re", float), _need(obj, "im", float))


def _symmetry(payload: dict, key: str) -> wigner.WignerSymmetry:
    obj = _need(payload, key, dict)
    try:
        return wigner.WignerSymmetry.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"field {key!r} is not a valid symmetry: {exc}") from exc


def _cfg(payload: dict) -> AlphaConfig:
    return AlphaConfig.from_alpha(_need(payload, "alpha", float))


# ---------------------------------------------------------------------------
# payload verbs


def _run_angle(payload, args):
    u, v = _line(payload, "u"), _line(payload, "v")
    return {"radians": float(projspace.quantum_angle(u, v))}


def _run_canonical(payload, args):
    re = _need(payload, "re", list)
    im = _need(payload, "im", list)
    if len(re) != len(im):
        raise SchemaError("re and im must have the same length")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in re + im):
        raise SchemaError("re and im must hold numbers")
    vec = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    return canonical_line(vec).to_json()


def _run_alphaset(payload, args):
    cfg = _cfg(payload)
    gens = _lines(payload, "generators")
    if len(gens) == 2:
        descr = alphasets.pair_alpha_set(gens[0], gens[1], cfg)
    elif len(gens) == 3:
        form = projspace.canonical_triple_form(*gens)
        descr = alphasets.collinear_triple_alpha_set(form, cfg, gens[0].dim)
    else:
        raise SchemaError("generators must hold 2 or 3 lines")
    return descr.to_json()


def _run_double_alphaset(payload, args):
    cfg = _cfg(payload)
    gens = _lines(payload, "generators")
    if len(gens) != 3:
        raise SchemaError("generators must hold exactly 3 lines")
    form = projspace.canonical_triple_form(*gens)
    return alphasets.double_alpha_set_classify(form, cfg, gens[0].dim).to_json()


def _run_cardinality(payload, args):
    cfg = _cfg(payload)
    c = _need(payload, "c", float)
    d = _need(payload, "d", float)
    theta = _need(payload, "theta", float)
    c1 = _complex(payload, "c1")
    c2 = _complex(payload, "c2")
    c3 = _need(payload, "c3", float)
    fam = verify.standard_family(cfg, c, d)
    card = alphasets.atheta_cardinality(fam, theta, (c1, c2, c3), cfg)
    return {"tag": card.tag, "margin": card.margin}


def _run_classify_circle(payload, args):
    cfg = _cfg(payload)
    dim = _need(payload, "dim", int)
    cf = _need(payload, "cfrak", float)
    df = _need(payload, "dfrak", float)
    # Checked before the default basis allocates dim x dim amplitudes.
    if dim < 3:
        raise RangeError("classification needs ambient dimension >= 3")
    if dim > projspace.MAX_DIM:
        raise DimensionError(f"dim {dim} outside supported range [3, {projspace.MAX_DIM}]")
    if "e1" in payload:
        e1, e2 = _line(payload, "e1"), _line(payload, "e2")
    else:
        eye = np.eye(dim, dtype=complex)
        e1, e2 = canonical_line(eye[0]), canonical_line(eye[1])
    circle = alphasets.CircleComponent(e1, e2, cf, df)
    return symmetric_sets.classify_circle(circle, cfg, dim).to_json()


def _run_witness(payload, args):
    cfg = _cfg(payload)
    c = _need(payload, "c", float)
    d = _need(payload, "d", float)
    t = _need(payload, "t", float)
    u1, u2, u3, w = alphasets.counterexample_witness(cfg, c, d, t)
    return {
        "u1": u1.to_json(),
        "u2": u2.to_json(),
        "u3": u3.to_json(),
        "w": w.to_json(),
        "angles": [float(projspace.quantum_angle(w, u)) for u in (u1, u2, u3)],
    }


def _run_oracle(payload, args):
    cfg = _cfg(payload)
    gens = _lines(payload, "generators")
    dim = _need(payload, "dim", int)
    count = _need(payload, "count", int)
    seed = _optional(payload, "seed", int, args.seed)
    tol = _optional(payload, "tol", float, args.tol if args.tol is not None else 1e-3)
    refine = _optional(payload, "refine", bool, False)
    confirm_tol = _optional(payload, "confirmTol", float, 1e-7)
    cloud = oracle.sample_lines(dim, count, seed)
    if refine:
        members = oracle.discover_alpha_set(gens, cfg, cloud, tol, confirm_tol)
    else:
        members = oracle.alpha_set_numeric(gens, cfg, cloud, tol)
    return {"count": len(members), "members": [m.to_json() for m in members]}


def _run_wigner_generate(payload, args):
    dim = _need(payload, "dim", int)
    seed = _optional(payload, "seed", int, args.seed)
    anti = _optional(payload, "antiunitary", bool, False)
    return wigner.random_wigner(dim, seed, anti).to_json()


def _run_wigner_fit(payload, args):
    dim = _need(payload, "dim", int)
    images = _lines(payload, "images")
    return wigner.fit_from_probes(dim, images).to_json()


def _run_wigner_check(payload, args):
    cfg = _cfg(payload)
    sym = _symmetry(payload, "symmetry")
    n_pairs = _optional(payload, "nPairs", int, 200)
    seed = _optional(payload, "seed", int, args.seed)
    tol = _optional(payload, "tol", float, args.tol if args.tol is not None else 1e-9)
    inv = wigner.inverse_symmetry(sym)
    report = wigner.preservation_report(
        lambda v: wigner.apply_symmetry(sym, v),
        cfg,
        sym.dim,
        n_pairs,
        seed,
        tol,
        inverse_fn=lambda v: wigner.apply_symmetry(inv, v),
    )
    return report.to_json()


def _run_intersect(payload, args):
    lines = [_line(payload, k) for k in ("e1", "e2", "f1", "f2")]
    c0 = _need(payload, "c0", float)
    out = wigner.circle_intersection(*lines, c0)
    return {"count": len(out), "lines": [l.to_json() for l in out]}


def _run_bridge(payload, args):
    cfg = _cfg(payload)
    lines = [_line(payload, k) for k in ("e1", "e2", "f1", "f2")]
    g1, g2 = wigner.bridge_basis(*lines, cfg)
    return {"g1": g1.to_json(), "g2": g2.to_json()}


_PAYLOAD_HANDLERS = {
    "angle": _run_angle,
    "canonical": _run_canonical,
    "alphaset": _run_alphaset,
    "double-alphaset": _run_double_alphaset,
    "cardinality": _run_cardinality,
    "classify-circle": _run_classify_circle,
    "witness": _run_witness,
    "oracle": _run_oracle,
    "wigner-generate": _run_wigner_generate,
    "wigner-fit": _run_wigner_fit,
    "wigner-check": _run_wigner_check,
    "intersect": _run_intersect,
    "bridge": _run_bridge,
}


def _run_suite(args) -> verify.Tally:
    suite = verify.SUITES[args.suite]
    draws = suite.draws if args.draws is None else args.draws
    if draws < 1:
        raise SchemaError(f"--draws must be >= 1, got {draws}")
    given = {k: v for k in _SUITE_OPTIONS if (v := getattr(args, k)) is not None}
    unused = sorted(given.keys() - suite.options)
    if unused:
        raise SchemaError(f"suite {args.suite} does not take " + ", ".join(f"--{k}" for k in unused))
    dim = given.get("dim", 2)
    if dim < 2:
        raise SchemaError(f"--dim must be >= 2, got {dim}")
    # Checked before the suite runs, which would allocate dim-sized arrays first.
    projspace.check_dim(dim)
    if given.keys() & {"a", "c", "d"} and not {"a", "c", "d"} <= given.keys():
        raise SchemaError(f"{args.suite} needs --a, --c and --d together")
    return suite.run(args.seed, draws, **given)


def _read_payload(args) -> dict:
    try:
        if args.infile:
            with open(args.infile) as fh:
                payload = json.load(fh)
        else:
            payload = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError("payload must be a JSON object")
    return payload


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qangle",
        description="Quantum-angle geometry toolkit: alpha-sets, circles, Wigner symmetries",
    )
    sub = p.add_subparsers(dest="verb", required=True)
    for verb in _PAYLOAD_HANDLERS:
        sp = sub.add_parser(verb, help=f"run the {verb} operation on a JSON payload")
        sp.add_argument("--in", dest="infile", help="payload file (default: stdin)")
        sp.add_argument("--seed", type=int, default=0, help="seed for any randomness")
        sp.add_argument("--tol", type=float, default=None, help="tolerance override")
        sp.add_argument("--out", dest="outfile", help="also write the result JSON here")
    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=tuple(verify.SUITES))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", dest="outfile", help="also write the report JSON here")
    sp.add_argument("--draws", type=int, default=None, help="number of random draws (default: per suite)")
    sp.add_argument("--dim", type=int, default=None, help="ambient dimension")
    sp.add_argument("--a", type=float, default=None, help="cos(alpha) for circle3")
    sp.add_argument("--c", type=float, default=None, help="first weight for circle3")
    sp.add_argument("--d", type=float, default=None, help="second weight for circle3")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "verify":
            start = time.perf_counter()
            report = _run_suite(args)
            elapsed = time.perf_counter() - start
            print(f"suite {args.suite} finished in {elapsed:.2f}s", file=sys.stderr)
            _emit(report.to_json(), args.outfile)
        else:
            payload = _read_payload(args)
            result = _PAYLOAD_HANDLERS[args.verb](payload, args)
            _emit(result, args.outfile)
        return 0
    except SchemaError as exc:
        _emit({"error": "schema", "detail": str(exc)}, None)
        return 2
    except NotAWignerMapError as exc:
        _emit(
            {
                "error": exc.code,
                "detail": str(exc),
                "probeIndex": exc.probe_index,
                "residual": exc.residual,
            },
            None,
        )
        return 1
    except QAngleError as exc:
        _emit({"error": exc.code, "detail": str(exc)}, None)
        return 1


if __name__ == "__main__":
    sys.exit(main())

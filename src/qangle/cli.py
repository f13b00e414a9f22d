"""Command-line front end: every operation exposed with JSON input/output.

Payload-driven verbs read a JSON document from ``--in FILE`` or standard
input and print a JSON result; every setting, the seed and tolerance
included, is a payload field, so these verbs take no ``--seed`` or ``--tol``.
``verify`` runs a named verification suite from flags, with its randomness
from ``--seed`` (default 0).  Output bytes are reproducible.  Exit codes:
0 success, 1 domain error, 2 schema or usage error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time

import numpy as np

from . import alphasets, oracle, projspace, verify, wigner
from .errors import DimensionError, NotAWignerMapError, ParameterError, QAngleError, RangeError, SchemaError
from .projspace import AlphaConfig, Line, canonical_line, json_complex, json_field

# Suite parameters of ``verify``; a suite takes only those among its keyword parameters.
_SUITE_OPTIONS = ("dim", "a", "c", "d")

#: Largest ``verify --draws``, a hundred times the largest default (1000
#: draws of ``infinite-element``); a larger count is refused before the suite starts.
MAX_DRAWS = 100_000


def _emit(obj: dict, out_path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _line(payload: dict, key: str) -> Line:
    return Line.from_json(json_field(payload, key, dict))


def _lines(payload: dict, key: str) -> list[Line]:
    return [Line.from_json(obj) for obj in json_field(payload, key, list)]


def _seed(payload: dict) -> int:
    return projspace.check_seed(json_field(payload, "seed", int, 0))


def _cfg(payload: dict) -> AlphaConfig:
    return AlphaConfig.from_alpha(json_field(payload, "alpha", float))


# ---------------------------------------------------------------------------
# payload verbs


def _run_angle(payload):
    u, v = _line(payload, "u"), _line(payload, "v")
    return {"radians": projspace.quantum_angle(u, v)}


def _run_canonical(payload):
    return canonical_line(json_complex(payload, 1)).to_json()


def _run_alphaset(payload):
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


def _run_double_alphaset(payload):
    cfg = _cfg(payload)
    gens = _lines(payload, "generators")
    if len(gens) != 3:
        raise SchemaError("generators must hold exactly 3 lines")
    form = projspace.canonical_triple_form(*gens)
    return alphasets.double_alpha_set_classify(form, cfg, gens[0].dim).to_json()


def _run_cardinality(payload):
    cfg = _cfg(payload)
    c = json_field(payload, "c", float)
    d = json_field(payload, "d", float)
    theta = json_field(payload, "theta", float)
    c1 = complex(json_complex(json_field(payload, "c1", dict), 0))
    c2 = complex(json_complex(json_field(payload, "c2", dict), 0))
    c3 = json_field(payload, "c3", float)
    fam = verify.standard_family(cfg, c, d)
    card = alphasets.atheta_cardinality(fam, theta, (c1, c2, c3), cfg)
    return {"tag": card.tag, "margin": card.margin}


def _run_classify_circle(payload):
    cfg = _cfg(payload)
    dim = json_field(payload, "dim", int)
    cf = json_field(payload, "cfrak", float)
    df = json_field(payload, "dfrak", float)
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
    cfg.require_classification_range()  # first, as classify_circle refuses alpha before the circle
    if circle.dim != dim:
        raise DimensionError("circle does not live in the stated ambient dimension")
    return alphasets.classify_circle(circle, cfg).to_json()


def _run_witness(payload):
    cfg = _cfg(payload)
    c = json_field(payload, "c", float)
    d = json_field(payload, "d", float)
    t = json_field(payload, "t", float)
    u1, u2, u3, w = alphasets.counterexample_witness(cfg, c, d, t)
    return {
        "u1": u1.to_json(),
        "u2": u2.to_json(),
        "u3": u3.to_json(),
        "w": w.to_json(),
        "angles": [projspace.quantum_angle(w, u) for u in (u1, u2, u3)],
    }


def _run_oracle(payload):
    cfg = _cfg(payload)
    gens = _lines(payload, "generators")
    dim = json_field(payload, "dim", int)
    count = json_field(payload, "count", int)
    seed = _seed(payload)
    tol = json_field(payload, "tol", float, 1e-3)
    refine = json_field(payload, "refine", bool, False)
    confirm_tol = json_field(payload, "confirmTol", float, 1e-7)
    cloud = oracle.sample_lines(dim, count, seed)
    if refine:
        members = oracle.funnel_alpha_set(gens, cfg, cloud, tol, confirm_tol, 4000, n_seed_constraints=len(gens))
    else:
        members = [Line(row) for row in oracle.alpha_set_numeric(gens, cfg, cloud, tol)]
    return {"count": len(members), "members": [m.to_json() for m in members]}


def _run_wigner_generate(payload):
    dim = json_field(payload, "dim", int)
    seed = _seed(payload)
    anti = json_field(payload, "antiunitary", bool, False)
    return wigner.random_wigner(dim, seed, anti).to_json()


def _run_wigner_fit(payload):
    dim = json_field(payload, "dim", int)
    images = _lines(payload, "images")
    return wigner.fit_from_probes(dim, images).to_json()


def _run_wigner_check(payload):
    cfg = _cfg(payload)
    sym = wigner.WignerSymmetry.from_json(json_field(payload, "symmetry", dict))
    n_pairs = json_field(payload, "nPairs", int, 200)
    seed = _seed(payload)
    tol = json_field(payload, "tol", float, 1e-9)
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


def _run_intersect(payload):
    lines = [_line(payload, k) for k in ("e1", "e2", "f1", "f2")]
    c0 = json_field(payload, "c0", float)
    out = wigner.circle_intersection(*lines, c0)
    return {"count": len(out), "lines": [l.to_json() for l in out]}


def _run_bridge(payload):
    cfg = _cfg(payload)
    lines = [_line(payload, k) for k in ("e1", "e2", "f1", "f2")]
    if abs(cfg.a - 1.0 / math.sqrt(3.0)) > 1e-9:
        raise ParameterError("bridge construction applies to the a = 1/sqrt(3) regime")
    g1, g2 = wigner.bridge_basis(*lines)
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
    run = verify.SUITES[args.suite]
    params = inspect.signature(run).parameters
    draws = params["draws"].default if args.draws is None else args.draws
    if not 1 <= draws <= MAX_DRAWS:
        raise SchemaError(f"--draws must be in [1, {MAX_DRAWS}], got {draws}")
    try:  # the payload seed's range, refused as a usage error
        projspace.check_seed(args.seed)
    except ParameterError as exc:
        raise SchemaError(f"--{exc}") from None
    given = {k: v for k in _SUITE_OPTIONS if (v := getattr(args, k)) is not None}
    unused = sorted(given.keys() - params.keys())
    if unused:
        raise SchemaError(f"suite {args.suite} does not take " + ", ".join(f"--{k}" for k in unused))
    dim = given.get("dim", 2)
    if dim < 2:
        raise SchemaError(f"--dim must be >= 2, got {dim}")
    # Checked before the suite runs, which would allocate dim-sized arrays first.
    projspace.check_dim(dim)
    if given.keys() & {"a", "c", "d"} and not {"a", "c", "d"} <= given.keys():
        raise SchemaError(f"{args.suite} needs --a, --c and --d together")
    return run(args.seed, draws, **given)


def _read_payload(args) -> dict:
    try:
        if args.infile:
            with open(args.infile) as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read payload: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qangle",
        description="Quantum-angle geometry toolkit: alpha-sets, circles, Wigner symmetries",
    )
    sub = p.add_subparsers(dest="verb", required=True)
    for verb in _PAYLOAD_HANDLERS:
        sp = sub.add_parser(verb, help=f"run the {verb} operation on a JSON payload")
        sp.add_argument("--in", dest="infile", help="payload file (default: stdin)")
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
            result = _PAYLOAD_HANDLERS[args.verb](payload)
            _emit(result, args.outfile)
        return 0
    except QAngleError as exc:
        error = {"error": exc.code, "detail": str(exc)}
        if isinstance(exc, NotAWignerMapError):
            error.update(probeIndex=exc.probe_index, residual=exc.residual)
        _emit(error, None)
        return 2 if isinstance(exc, SchemaError) else 1


if __name__ == "__main__":
    sys.exit(main())

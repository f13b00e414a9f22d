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
import math
import sys
import time

import numpy as np

from . import alphasets, oracle, projspace, symmetric_sets, wigner
from .alphasets import AlphaConfig
from .errors import NotAWignerMapError, QAngleError
from .projspace import Line, canonical_line, random_orthonormal_pair

SUITES = (
    "shape",
    "collin-alpha",
    "circle4",
    "circle3",
    "infinite-element",
    "circle-char",
    "basic",
    "section5",
)

PAYLOAD_VERBS = (
    "angle",
    "canonical",
    "alphaset",
    "double-alphaset",
    "cardinality",
    "classify-circle",
    "witness",
    "oracle",
    "wigner-generate",
    "wigner-fit",
    "wigner-check",
    "intersect",
    "bridge",
)


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
    if "re" not in obj or "im" not in obj:
        raise SchemaError(f"field {key!r} must carry re and im")
    return complex(float(obj["re"]), float(obj["im"]))


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
    dim = 4
    eye = np.eye(dim, dtype=complex)
    theta0, _ = alphasets.theta0_and_rho(cfg, c, d)
    fam = alphasets.AthetaFamily(
        canonical_line(eye[0]), canonical_line(eye[1]), c, d, float(cfg.alpha), theta0, dim
    )
    card = alphasets.atheta_cardinality(fam, theta, (c1, c2, c3), cfg)
    return {"tag": card.tag, "margin": card.margin}


def _run_classify_circle(payload, args):
    cfg = _cfg(payload)
    dim = _need(payload, "dim", int)
    cf = _need(payload, "cfrak", float)
    df = _need(payload, "dfrak", float)
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
    sym = wigner.WignerSymmetry.from_json(_need(payload, "symmetry", dict))
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


# ---------------------------------------------------------------------------
# verify suites


def _random_cd(rng: np.random.Generator, a: float, margin: float = 1e-3) -> tuple[float, float]:
    """Random circle weights c >= d away from the classification boundaries."""
    for _ in range(256):
        d = rng.uniform(0.15, 1 / math.sqrt(2) - 1e-3)
        c = math.sqrt(1.0 - d * d)
        if c <= a + 0.05:
            continue
        if abs(a - d) < margin or abs(c / math.sqrt(1 + c * c) - a) < margin:
            continue
        return c, d
    raise QAngleError("failed to draw circle weights away from the boundaries")


def _distinct_unimodular_triple(rng: np.random.Generator):
    while True:
        phis = rng.uniform(0, 2 * np.pi, 3)
        lams = np.exp(1j * phis)
        if min(
            abs(lams[i] - lams[j]) for i in range(3) for j in range(i + 1, 3)
        ) > 1e-2:
            return tuple(lams)


def _suite_shape(args) -> oracle.OracleReport:
    rng = np.random.default_rng(args.seed)
    dim = args.dim or 3
    worst = 0.0
    samples = 0
    verdict = True
    notes = []
    for k in range(args.draws):
        alpha = rng.uniform(np.pi / 4 + 0.05, np.pi / 2 - 0.05)
        cfg = AlphaConfig.from_alpha(alpha)
        if k == 0:
            d = 1 / math.sqrt(2)  # constant-radius special case
        else:
            d = rng.uniform(0.2, 1 / math.sqrt(2))
        c = math.sqrt(1.0 - d * d)
        theta0, rho = alphasets.theta0_and_rho(cfg, c, d)
        a = cfg.a
        if a > d:
            res = abs(
                (a / c) ** 2 * math.cos(theta0) ** 2
                + (a / d) ** 2 * math.sin(theta0) ** 2
                - 1.0
            )
            worst = max(worst, res)
            if res > 1e-12:
                verdict = False
                notes.append("cutoff equation residual too large")
        elif abs(theta0 - np.pi / 2) > 1e-12:
            verdict = False
            notes.append("cutoff must be pi/2 when a <= d")
        grid = np.linspace(-theta0, theta0, 400)
        vals = rho(grid)
        if abs(d - 1 / math.sqrt(2)) < 1e-12:
            dev = float(np.max(np.abs(vals - math.sqrt(1 - 2 * a * a))))
            worst = max(worst, dev)
            if dev > 1e-12:
                verdict = False
                notes.append("radius profile not constant at d = 1/sqrt(2)")
        else:
            diffs = np.diff(vals)
            mid = len(diffs) // 2
            if np.any(diffs[:mid] < -1e-12) or np.any(diffs[mid:] > 1e-12):
                verdict = False
                notes.append("radius profile not unimodal")
        e1, e2 = random_orthonormal_pair(rng, dim)
        v1 = canonical_line(c * e1.amplitudes + 1j * d * e2.amplitudes)
        v2 = canonical_line(c * e1.amplitudes - 1j * d * e2.amplitudes)
        descr = alphasets.pair_alpha_set(v1, v2, cfg)
        pts = descr.sample(30, rng)
        res = float(np.max(oracle.angle_residuals([v1, v2], cfg, np.vstack([p.amplitudes for p in pts]))))
        samples += len(pts)
        worst = max(worst, res)
        if res > 1e-9:
            verdict = False
            notes.append("sampled member misses angle alpha")
    return oracle.OracleReport(verdict, worst, {"draws": args.draws, "samples": samples}, tuple(notes))


def _suite_collin_alpha(args) -> oracle.OracleReport:
    rng = np.random.default_rng(args.seed)
    dims = [args.dim] if args.dim else [3, 4]
    worst = 0.0
    verdict = True
    notes = []
    counts = {"draws": 0, "oracle_members": 0}
    for dim in dims:
        cloud = oracle.sample_lines(dim, 30_000 if dim == 3 else 60_000, args.seed + dim)
        for _ in range(max(2, args.draws // len(dims))):
            alpha = rng.uniform(np.pi / 4 + 0.05, np.pi / 2 - 0.05)
            cfg = AlphaConfig.from_alpha(alpha)
            c, d = _random_cd(rng, cfg.a)
            e1, e2 = random_orthonormal_pair(rng, dim)
            lams = _distinct_unimodular_triple(rng)
            form = projspace.TripleCanonicalForm(e1, e2, c, d, lams)
            gens = list(form.synthesize())
            descr = alphasets.collinear_triple_alpha_set(form, cfg, dim)
            pts = descr.sample(40, rng)
            res = float(np.max(oracle.angle_residuals(gens, cfg, np.vstack([p.amplitudes for p in pts]))))
            worst = max(worst, res)
            if res > 1e-9:
                verdict = False
                notes.append("descriptor sample misses a generator angle")
            found = oracle.discover_alpha_set(gens, cfg, cloud, 3e-2, 1e-7)
            counts["oracle_members"] += len(found)
            for m in found:
                dist = descr.distance(m)
                worst = max(worst, dist)
                if dist > 1e-5:
                    verdict = False
                    notes.append("oracle member escapes the descriptor")
            counts["draws"] += 1
    return oracle.OracleReport(verdict, worst, counts, tuple(notes))


def _suite_circle4(args) -> oracle.OracleReport:
    rng = np.random.default_rng(args.seed)
    dim = 4
    cloud = oracle.sample_lines(dim, 120_000, args.seed + 11)
    worst = 0.0
    verdict = True
    notes = []
    counts = {"draws": 0, "survivors": 0}
    for _ in range(args.draws):
        alpha = rng.uniform(np.pi / 4 + 0.05, np.pi / 2 - 0.05)
        cfg = AlphaConfig.from_alpha(alpha)
        c, d = _random_cd(rng, cfg.a)
        e1, e2 = random_orthonormal_pair(rng, dim)
        lams = _distinct_unimodular_triple(rng)
        form = projspace.TripleCanonicalForm(e1, e2, c, d, lams)
        descr = alphasets.double_alpha_set_classify(form, cfg, dim)
        if len(descr.components) != 1:
            verdict = False
            notes.append("double-alpha-set must be a single circle in dimension 4")
        first = alphasets.collinear_triple_alpha_set(form, cfg, dim)
        f_samples = first.sample(40, rng)
        pts = descr.sample(30, rng)
        res = float(
            np.max(oracle.angle_residuals(f_samples, cfg, np.vstack([p.amplitudes for p in pts])))
        )
        worst = max(worst, res)
        if res > 1e-9:
            verdict = False
            notes.append("circle sample misses the sampled alpha-set")
        survivors = oracle.funnel_alpha_set(f_samples, cfg, cloud)
        counts["survivors"] += len(survivors)
        for s in survivors:
            dist = descr.distance(s)
            worst = max(worst, dist)
            if dist > 1e-5:
                verdict = False
                notes.append("numeric double-alpha-set member off the circle")
        counts["draws"] += 1
    return oracle.OracleReport(verdict, worst, counts, tuple(notes))


def _snap_parameters(a: float, c: float, d: float) -> tuple[float, float, float]:
    """Snap decimal-truncated CLI parameters onto the exact exceptional triples,
    and renormalize (c, d) when they miss c^2 + d^2 = 1 by rounding only."""
    for ea, ec, ed in alphasets.EXCEPTIONAL_TRIPLES:
        if max(abs(a - ea), abs(c - ec), abs(d - ed)) < 1e-9:
            return ea, ec, ed
    s = math.sqrt(c * c + d * d)
    if abs(s - 1.0) > 1e-9:
        raise QAngleError(f"weights violate c^2 + d^2 = 1 beyond rounding: {s}")
    return a, c / s, d / s


def _suite_circle3(args) -> oracle.OracleReport:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    verdict = True
    notes = []
    counts = {"cases": 0}
    triples = []
    if args.a is not None:
        if args.c is None or args.d is None:
            raise SchemaError("circle3 with --a also needs --c and --d")
        triples.append(_snap_parameters(args.a, args.c, args.d))
    else:
        triples.extend(alphasets.EXCEPTIONAL_TRIPLES)
        for _ in range(args.draws):
            alpha = rng.uniform(np.pi / 4 + 0.05, np.pi / 2 - 0.05)
            cfg = AlphaConfig.from_alpha(alpha)
            c, d = _random_cd(rng, cfg.a)
            triples.append((cfg.a, c, d))
    for a, c, d in triples:
        cfg = AlphaConfig.from_alpha(math.acos(a))
        e1, e2 = random_orthonormal_pair(rng, 3)
        lams = _distinct_unimodular_triple(rng)
        form = projspace.TripleCanonicalForm(e1, e2, c, d, lams)
        descr = alphasets.double_alpha_set_classify(form, cfg, 3)
        case = "two-component" if len(descr.components) == 2 else "single-circle"
        notes.append(f"a={a:.12g} c={c:.12g} d={d:.12g} case={case} components={len(descr.components)}")
        first = alphasets.collinear_triple_alpha_set(form, cfg, 3)
        f_samples = first.sample(40, rng)
        pts = descr.sample(30, rng)
        res = float(
            np.max(oracle.angle_residuals(f_samples, cfg, np.vstack([p.amplitudes for p in pts])))
        )
        worst = max(worst, res)
        if res > 1e-8:
            verdict = False
            notes.append("double-alpha-set sample violates the defining condition")
        counts["cases"] += 1
    return oracle.OracleReport(verdict, worst, counts, tuple(notes))


def _suite_infinite_element(args) -> oracle.OracleReport:
    rng = np.random.default_rng(args.seed)
    draws = args.draws if args.draws > 8 else 1000
    agree = 0
    checked = 0
    ones = 0
    verdict = True
    notes = []
    worst = 0.0
    while checked < draws:
        z = complex(rng.standard_normal(), rng.standard_normal()) * rng.uniform(0, 0.7)
        r = rng.uniform(0.05, 0.9)
        a = rng.uniform(0.1, 0.95)
        margin = min(abs(a - (abs(z) - r)), abs(a - (abs(z) + r)))
        if margin < 1e-6 or abs(z) < 1e-6:
            continue
        lo, hi = abs(z) - r, abs(z) + r
        expected = "infinite" if lo < a < hi else "zero"
        total = oracle.root_count_on_disk(z, r, a)
        sweep = "infinite" if (total is math.inf or total >= 2) else "zero"
        if sweep == expected:
            agree += 1
        else:
            verdict = False
            notes.append(f"disagreement at z={z}, r={r}, a={a}")
        checked += 1
    # Constructed tangency cases (exact boundary): the classifier must say "one".
    for _ in range(20):
        c, d = _random_cd(rng, 0.5)
        theta = rng.uniform(-0.4, 0.4)
        c1 = complex(rng.standard_normal(), rng.standard_normal())
        c2 = complex(rng.standard_normal(), rng.standard_normal())
        c3 = rng.uniform(0.3, 0.8)
        scale = math.sqrt((1 - c3 * c3) / (abs(c1) ** 2 + abs(c2) ** 2))
        c1, c2 = c1 * scale, c2 * scale
        z0 = c1 * math.cos(theta) / c + c2 * math.sin(theta) / d
        kk = math.cos(theta) ** 2 / c**2 + math.sin(theta) ** 2 / d**2
        denom = (1.0 - abs(z0)) ** 2 + c3 * c3 * kk
        a = c3 / math.sqrt(denom)
        if not (0 < a < c - 1e-6) or abs(z0) >= 1.0:
            continue
        cfg = AlphaConfig.from_alpha(math.acos(a))
        theta0, _ = alphasets.theta0_and_rho(cfg, c, d)
        eye = np.eye(4, dtype=complex)
        fam = alphasets.AthetaFamily(
            canonical_line(eye[0]), canonical_line(eye[1]), c, d, float(cfg.alpha), theta0, 4
        )
        card = alphasets.atheta_cardinality(fam, theta, (c1, c2, c3), cfg)
        worst = max(worst, card.margin)
        if card.tag != "one":
            verdict = False
            notes.append(f"constructed boundary case classified as {card.tag}")
        ones += 1
    return oracle.OracleReport(
        verdict,
        worst,
        {"draws": checked, "agreements": agree, "boundary_cases": ones},
        tuple(notes),
    )


def _suite_circle_char(args) -> oracle.OracleReport:
    rng = np.random.default_rng(args.seed)
    draws = args.draws
    agree = 0
    verdict = True
    notes = []
    worst = 0.0
    clouds = {}
    for k in range(draws):
        dim = 3 if k % 2 == 0 else 4
        alpha = rng.uniform(np.pi / 4 + 0.05, np.pi / 2 - 0.05)
        cfg = AlphaConfig.from_alpha(alpha)
        for _ in range(64):
            d = rng.uniform(0.15, 1 / math.sqrt(2) - 1e-3)
            c = math.sqrt(1 - d * d)
            if c > cfg.a + 0.05 and abs(cfg.a - d) > 1e-4 and abs(
                c / math.sqrt(1 + c * c) - cfg.a
            ) > 1e-4:
                break
        e1, e2 = random_orthonormal_pair(rng, dim)
        circle = alphasets.CircleComponent(e1, e2, c, d)
        if dim not in clouds:
            clouds[dim] = oracle.sample_lines(dim, 30_000 if dim == 3 else 60_000, args.seed + dim)
        report = symmetric_sets.empirical_high_symmetry_check(
            circle, cfg, dim, n_triples=3, n_alpha_samples=16, seed=args.seed + k, cloud=clouds[dim]
        )
        worst = max(worst, report.max_residual)
        if report.verdict:
            agree += 1
        else:
            verdict = False
            notes.extend(report.notes)
    return oracle.OracleReport(verdict, worst, {"draws": draws, "agreements": agree}, tuple(notes))


def _suite_basic(args) -> oracle.OracleReport:
    rng = np.random.default_rng(args.seed)
    dim = args.dim or 3
    cloud = oracle.sample_lines(dim, 60_000, args.seed + 5)
    alpha = rng.uniform(np.pi / 4 + 0.05, np.pi / 2 - 0.05)
    cfg = AlphaConfig.from_alpha(alpha)
    g = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    s1 = [canonical_line(g[0])]
    s2 = [canonical_line(g[0]), canonical_line(g[1])]
    return oracle.verify_basic_relations(s1, s2, cfg, cloud)


def _suite_section5(args) -> oracle.OracleReport:
    rng = np.random.default_rng(args.seed)
    dim = args.dim or 3
    verdict = True
    notes = []
    worst = 0.0
    c0_half = 1 / math.sqrt(2)
    c0_seven = math.sqrt(7.0 / 12.0)

    # Great-circle case: both explicit common lines must be recovered.
    for _ in range(20):
        e1, e2 = random_orthonormal_pair(rng, dim)
        afr = rng.uniform(0.05, 0.95)
        bfr = math.sqrt(1 - afr * afr)
        mu = np.exp(1j * rng.uniform(0, 2 * np.pi))
        f1 = canonical_line(afr * e1.amplitudes + mu * bfr * e2.amplitudes)
        f2 = canonical_line(bfr * e1.amplitudes - mu * afr * e2.amplitudes)
        got = wigner.circle_intersection(e1, e2, f1, f2, c0_half)
        want = [
            canonical_line((e1.amplitudes + 1j * mu * e2.amplitudes) / np.sqrt(2)),
            canonical_line((e1.amplitudes - 1j * mu * e2.amplitudes) / np.sqrt(2)),
        ]
        if len(got) != 2:
            verdict = False
            notes.append("balanced circles must always meet twice")
            continue
        for w in want:
            dist = min(float(projspace.quantum_angle(w, g)) for g in got)
            worst = max(worst, dist)
            if dist > 1e-10:
                verdict = False
                notes.append("explicit common line not recovered")

    # Count transition of the sqrt(7/12) circles at overlap 1/6.
    e1, e2 = random_orthonormal_pair(rng, dim)
    mu = np.exp(1j * rng.uniform(0, 2 * np.pi))

    def count(afr: float) -> int:
        bfr = math.sqrt(1 - afr * afr)
        f1 = canonical_line(afr * e1.amplitudes + mu * bfr * e2.amplitudes)
        f2 = canonical_line(bfr * e1.amplitudes - mu * afr * e2.amplitudes)
        return len(wigner.circle_intersection(e1, e2, f1, f2, c0_seven))

    lo, hi = 0.05, 0.4
    if not (count(lo) < 2 <= count(hi)):
        verdict = False
        notes.append("counts on either side of the threshold are wrong")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if count(mid) >= 2:
            hi = mid
        else:
            lo = mid
    thr = 0.5 * (lo + hi)
    dev = abs(thr - 1.0 / 6.0)
    worst = max(worst, dev)
    notes.append(f"threshold={thr:.12g}")
    if dev > 1e-6:
        verdict = False
        notes.append("intersection-count threshold misses 1/6")

    # Bridge construction: both hops must intersect in at least two lines.
    cfg = AlphaConfig.from_alpha(math.acos(1 / math.sqrt(3)))
    bridged = 0
    for _ in range(args.draws if args.draws > 8 else 100):
        e1, e2 = random_orthonormal_pair(rng, dim)
        afr = rng.uniform(0.0, 0.95)
        bfr = math.sqrt(1 - afr * afr)
        mu = np.exp(1j * rng.uniform(0, 2 * np.pi))
        f1 = canonical_line(afr * e1.amplitudes + mu * bfr * e2.amplitudes)
        f2 = canonical_line(bfr * e1.amplitudes - mu * afr * e2.amplitudes)
        g1, g2 = wigner.bridge_basis(e1, e2, f1, f2, cfg)
        n1 = len(wigner.circle_intersection(e1, e2, g1, g2, c0_seven))
        n2 = len(wigner.circle_intersection(g1, g2, f1, f2, c0_seven))
        if n1 < 2 or n2 < 2:
            verdict = False
            notes.append("bridge basis fails to connect the two circles")
        bridged += 1
    return oracle.OracleReport(
        verdict, worst, {"bridged": bridged}, tuple(notes)
    )


_SUITE_RUNNERS = {
    "shape": _suite_shape,
    "collin-alpha": _suite_collin_alpha,
    "circle4": _suite_circle4,
    "circle3": _suite_circle3,
    "infinite-element": _suite_infinite_element,
    "circle-char": _suite_circle_char,
    "basic": _suite_basic,
    "section5": _suite_section5,
}


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
    for verb in PAYLOAD_VERBS:
        sp = sub.add_parser(verb, help=f"run the {verb} operation on a JSON payload")
        sp.add_argument("--in", dest="infile", help="payload file (default: stdin)")
        sp.add_argument("--seed", type=int, default=0, help="seed for any randomness")
        sp.add_argument("--tol", type=float, default=None, help="tolerance override")
        sp.add_argument("--out", dest="outfile", help="also write the result JSON here")
    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=SUITES)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--out", dest="outfile", help="also write the report JSON here")
    sp.add_argument("--draws", type=int, default=8, help="number of random draws")
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
            report = _SUITE_RUNNERS[args.suite](args)
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

"""Workloads of the verification benchmark: seeded inputs and checked cases.

A case is one draw of a workload, run end to end through the public library
API and checked against the acceptance bounds.  ``inputs(seed, k)`` draws
everything case ``k`` needs from ``(seed, k)`` alone, so a case can be
replayed exactly: the traced run replays every case it times.

A case's cost is set by its configuration (alpha, the overlap of the pair,
the weight d and the sampled constraints of the triple), and varies by a
factor of 50 across the criteria's range.  So case position ``k`` fixes the
configuration up to a unitary change of frame, walking a grid over the
criteria's parameter range, and the seed draws the frame, the soundness
samples and the cloud.  Every timed run then meets the same cases up to frame
and cloud, and its cost does not swing with the seed.  See README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qangle import alphasets, oracle
from qangle.alphasets import AlphaConfig
from qangle.projspace import TripleCanonicalForm, canonical_line

SOUNDNESS_TOL = 1e-9
COMPLETENESS_TOL = 1e-5
#: Criterion 3 redraws parameters this close to a verdict boundary.
BOUNDARY_MARGIN = 1e-6

DIM = 4
ALPHA_LO, ALPHA_HI = math.pi / 4 + 0.05, math.pi / 2 - 0.05
D_LO, D_HI = 0.15, 1 / math.sqrt(2) - 1e-3
CONSTRAINTS = 40


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the acceptance criteria's."""

    cloud: int = 1_000_000  # lines in the dimension-4 cloud
    samples: int = 500  # descriptor members checked for soundness
    max_candidates: int = 400  # discover_alpha_set cap (criterion 1)
    max_pool: int = 800  # funnel_alpha_set pool (criterion 2)


@dataclass
class Outcome:
    members: int  # oracle members checked against the closed form
    errors: list[str]


def _cell_centres(lo: float, hi: float, order) -> list[float]:
    n = len(order)
    return [lo + (i + 0.5) * (hi - lo) / n for i in order]


# Grid orders spread every prefix over the grid: a traced run covers a prefix.
_PAIR_ALPHAS = _cell_centres(ALPHA_LO, ALPHA_HI, (0, 4, 2, 6, 1, 5, 3, 7))
# Overlap |<v1, v2>| of two random lines of C^4 at the quartiles u = 1/4, 3/4 of
# its law (|<v1, v2>|^2 is Beta(1, 3) distributed).
_PAIR_OVERLAPS = [math.sqrt(1 - (1 - u) ** (1 / 3)) for u in (0.25, 0.75)]
PAIR_GRID = [(alpha, overlap) for alpha in _PAIR_ALPHAS for overlap in _PAIR_OVERLAPS]

_CELLS = [
    (alpha, d)
    for alpha in _cell_centres(ALPHA_LO, ALPHA_HI, range(4))
    for d in _cell_centres(D_LO, D_HI, range(3))
]
# The costliest cell (largest cos(alpha), smallest d) comes last.
DOUBLE_GRID = [_CELLS[5 * k % len(_CELLS)] for k in range(len(_CELLS))][::-1]


def _random_line(rng):
    return canonical_line(rng.standard_normal(DIM) + 1j * rng.standard_normal(DIM))


def _worst_residual(generators, cfg, members) -> float:
    res = oracle.angle_residuals(generators, cfg, np.vstack([m.amplitudes for m in members]))
    return float(np.max(res))


def _outcome(members: int, soundness: float, completeness: float, errors=()) -> Outcome:
    errors = list(errors)
    if not soundness < SOUNDNESS_TOL:
        errors.append(f"soundness {soundness:.3e} >= {SOUNDNESS_TOL:g}")
    if not completeness < COMPLETENESS_TOL:
        errors.append(f"completeness {completeness:.3e} >= {COMPLETENESS_TOL:g}")
    return Outcome(members, errors)


# -- pair: criterion 1 in dimension 4 ---------------------------------------


@dataclass
class PairInputs:
    cfg: AlphaConfig
    v1: object
    v2: object
    rng: np.random.Generator


def pair_inputs(seed: int, k: int) -> PairInputs:
    rng = np.random.default_rng([seed, 1, k])
    alpha, overlap = PAIR_GRID[k % len(PAIR_GRID)]
    v1 = _random_line(rng)
    w = rng.standard_normal(DIM) + 1j * rng.standard_normal(DIM)
    w -= np.vdot(v1.amplitudes, w) * v1.amplitudes
    w /= np.linalg.norm(w)
    v2 = canonical_line(overlap * v1.amplitudes + math.sqrt(1 - overlap**2) * w)
    return PairInputs(AlphaConfig.from_alpha(alpha), v1, v2, rng)


def pair_case(x: PairInputs, cloud, sizes: Sizes, span) -> Outcome:
    gens = [x.v1, x.v2]
    with span("alphasets.descriptor"):
        descr = alphasets.pair_alpha_set(x.v1, x.v2, x.cfg)
    members = descr.sample(sizes.samples, x.rng)
    with span("check.soundness"):
        soundness = _worst_residual(gens, x.cfg, members)
    with span("oracle.discover"):
        found = oracle.discover_alpha_set(gens, x.cfg, cloud, 1e-2, 1e-7, sizes.max_candidates)
    with span("check.completeness"):
        worst = max((descr.distance(m) for m in found), default=0.0)
    return _outcome(len(found), soundness, worst)


# -- double: double-alpha-sets of criterion 2 (and the circle4 suite) -------


@dataclass
class DoubleInputs:
    cfg: AlphaConfig
    c: float
    d: float
    e1: object
    e2: object
    lambdas: tuple
    rng: np.random.Generator
    constraint_rng: np.random.Generator


def double_inputs(seed: int, k: int) -> DoubleInputs:
    rng = np.random.default_rng([seed, 2, k])
    alpha, d = DOUBLE_GRID[k % len(DOUBLE_GRID)]
    q, _ = np.linalg.qr(rng.standard_normal((DIM, 2)) + 1j * rng.standard_normal((DIM, 2)))
    while True:
        lams = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        if min(abs(lams[i] - lams[j]) for i in range(3) for j in range(i + 1, 3)) > 5e-2:
            break
    return DoubleInputs(
        AlphaConfig.from_alpha(alpha),
        math.sqrt(1 - d * d),
        d,
        canonical_line(q[:, 0]),
        canonical_line(q[:, 1]),
        tuple(lams),
        rng,
        np.random.default_rng([2, k % len(DOUBLE_GRID)]),
    )


def double_case(x: DoubleInputs, cloud, sizes: Sizes, span) -> Outcome:
    with span("alphasets.descriptor"):
        form = TripleCanonicalForm(x.e1, x.e2, x.c, x.d, x.lambdas)
        first = alphasets.collinear_triple_alpha_set(form, x.cfg, DIM)
        double = alphasets.double_alpha_set_classify(form, x.cfg, DIM)
    errors = [] if len(double.components) == 1 else ["dimension-4 double-alpha-set is not one circle"]
    constraints = first.sample(CONSTRAINTS, x.constraint_rng)
    members = double.sample(sizes.samples, x.rng)
    with span("check.soundness"):
        soundness = _worst_residual(constraints, x.cfg, members)
    with span("oracle.funnel"):
        survivors = oracle.funnel_alpha_set(constraints, x.cfg, cloud, max_pool=sizes.max_pool)
    with span("check.completeness"):
        worst = max((double.distance(s) for s in survivors), default=0.0)
    return _outcome(len(survivors), soundness, worst, errors)


# -- cardinality: criterion 3 and the infinite-element suite ----------------

_E1 = canonical_line(np.eye(DIM, dtype=complex)[0])
_E2 = canonical_line(np.eye(DIM, dtype=complex)[1])


@dataclass
class CardinalityInputs:
    cfg: AlphaConfig
    c: float
    d: float
    theta: float
    coeffs: tuple  # (c1, c2, c3) of the third line
    disk: tuple  # (z, r, a) of the infinite-element draw
    expected: str  # its verdict from |z| - r < a < |z| + r


def _margin(z: complex, r: float, a: float) -> float:
    return min(abs(a - (abs(z) - r)), abs(a - (abs(z) + r)))


def _sweep_verdict(total) -> str:
    return "infinite" if (total is math.inf or total >= 2) else "zero"


def cardinality_inputs(seed: int, k: int) -> CardinalityInputs:
    """Criterion 3's draw and one infinite-element draw, both away from the boundary.

    theta0 and rho are evaluated in closed form here, so that redrawing stays
    out of the timed case.
    """
    rng = np.random.default_rng([seed, 3, k])
    while True:
        cfg = AlphaConfig.from_alpha(rng.uniform(ALPHA_LO, ALPHA_HI))
        a = cfg.a
        d = rng.uniform(0.15, 1 / math.sqrt(2))
        c = math.sqrt(1 - d * d)
        if c <= a + 0.02:
            continue
        ac2, ad2 = (a / c) ** 2, (a / d) ** 2
        theta0 = math.pi / 2 if a <= d else math.asin(math.sqrt((1 - ac2) / (ad2 - ac2)))
        theta = rng.uniform(-theta0, theta0)
        c1 = complex(rng.standard_normal(), rng.standard_normal())
        c2 = complex(rng.standard_normal(), rng.standard_normal())
        c3 = rng.uniform(0.2, 0.9)
        s = math.sqrt((1 - c3 * c3) / (abs(c1) ** 2 + abs(c2) ** 2))
        c1, c2 = c1 * s, c2 * s
        z = c1 * (a / c) * math.cos(theta) + c2 * (a / d) * math.sin(theta)
        rho = math.sqrt(max(0.0, 1 - ac2 * math.cos(theta) ** 2 - ad2 * math.sin(theta) ** 2))
        if abs(z) >= BOUNDARY_MARGIN and _margin(z, c3 * rho, a) >= BOUNDARY_MARGIN:
            break
    while True:
        zd = complex(rng.standard_normal(), rng.standard_normal()) * rng.uniform(0, 0.7)
        r = rng.uniform(0.05, 0.9)
        ad = rng.uniform(0.1, 0.95)
        if abs(zd) >= BOUNDARY_MARGIN and _margin(zd, r, ad) >= BOUNDARY_MARGIN:
            break
    expected = "infinite" if abs(zd) - r < ad < abs(zd) + r else "zero"
    return CardinalityInputs(cfg, c, d, theta, (c1, c2, c3), (zd, r, ad), expected)


def cardinality_case(x: CardinalityInputs, cloud, sizes: Sizes, span) -> Outcome:
    c1, c2, c3 = x.coeffs
    a = x.cfg.a
    with span("alphasets.descriptor"):
        theta0, rho = alphasets.theta0_and_rho(x.cfg, x.c, x.d)
        fam = alphasets.AthetaFamily(_E1, _E2, x.c, x.d, float(x.cfg.alpha), theta0, DIM)
    with span("alphasets.cardinality"):
        card = alphasets.atheta_cardinality(fam, x.theta, x.coeffs, x.cfg)
    z = c1 * (a / x.c) * math.cos(x.theta) + c2 * (a / x.d) * math.sin(x.theta)
    with span("oracle.root_count"):
        total = oracle.root_count_on_disk(z, c3 * rho(x.theta), a, 2048, 48)
    with span("oracle.root_count"):
        disk_total = oracle.root_count_on_disk(*x.disk)
    errors = []
    if card.tag != _sweep_verdict(total):
        errors.append(f"cardinality {card.tag} but the disk sweep says {_sweep_verdict(total)}")
    if x.expected != _sweep_verdict(disk_total):
        errors.append(f"infinite-element sweep says {_sweep_verdict(disk_total)}, expected {x.expected}")
    roots = sum(t for t in (total, disk_total) if t is not math.inf)
    return Outcome(roots, errors)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object  # (seed, k) -> inputs
    run: object  # (inputs, cloud, sizes, span) -> Outcome
    needs_cloud: bool
    round: int  # cases in one pass over the geometry grid; a timed run ends on a whole pass
    fixed_cases: int  # cases always run; their members make oracle_members


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pair", pair_inputs, pair_case, True, len(PAIR_GRID), len(PAIR_GRID)),
        Workload("double", double_inputs, double_case, True, len(DOUBLE_GRID), len(DOUBLE_GRID)),
        Workload("cardinality", cardinality_inputs, cardinality_case, False, 1, 400),
    )
}

"""The shared verification checks pass on the right descriptor and fail on a wrong one.

The acceptance criteria and the ``qangle verify`` suites pass only through
these checks, so a check that cannot fail would let both pass vacuously.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import qangle as qa
from qangle import verify
from qangle.alphasets import EXCEPTIONAL_TRIPLES, INFINITE, ZERO
from qangle.errors import ParameterError
from qangle.projspace import distinct_unimodular_triple
from qangle.verify import COMPLETENESS_TOL, Tally, check_alpha_set, check_double_alpha_set

from conftest import random_line, random_orthonormal_pair

CFG = qa.AlphaConfig.from_alpha(1.1)


def assert_detects(tally, wrong, notes):
    assert tally.verdict is not wrong, tally.notes
    assert (tally.max_residual > COMPLETENESS_TOL) is wrong
    assert set(notes) <= set(tally.notes) if wrong else not tally.notes


def pair_check(wrong):
    """The tally and member count of ``check_alpha_set`` on a pair, with a descriptor for another alpha if ``wrong``."""
    rng = np.random.default_rng(11)
    v1, v2 = random_line(rng, 3), random_line(rng, 3)
    descr = qa.pair_alpha_set(v1, v2, qa.AlphaConfig.from_alpha(1.1 + 0.05 * wrong))
    tally = Tally()
    found = check_alpha_set(tally, [v1, v2], CFG, descr, rng, 50, qa.sample_lines(3, 20_000, 12), 1e-2, 30)
    return tally, len(found)


def double_check(wrong):
    """The tally and survivor count of ``check_double_alpha_set``, with a circle of other weights if ``wrong``."""
    # The double-alpha-set of a collinear triple is the circle through it for
    # every alpha, so the wrong descriptor comes from perturbed weights instead.
    rng = np.random.default_rng(21)
    e1, e2 = random_orthonormal_pair(rng, 4)
    lams = (1.0 + 0j, 1j, -1j)
    d = 0.6 + 0.02 * wrong
    first = qa.collinear_triple_alpha_set(qa.TripleCanonicalForm(e1, e2, 0.8, 0.6, lams), CFG, 4)
    double = qa.double_alpha_set_classify(
        qa.TripleCanonicalForm(e1, e2, math.sqrt(1 - d * d), d, lams), CFG, 4
    )
    tally = Tally()
    survivors = check_double_alpha_set(
        tally, first, double, CFG, rng, 30, qa.sample_lines(4, 60_000, 22), 40
    )
    return tally, len(survivors)


@pytest.mark.parametrize("wrong", [False, True])
def test_check_alpha_set(wrong):
    tally, found = pair_check(wrong)
    assert found > 0
    assert_detects(
        tally, wrong, ["descriptor sample misses a generator angle", "oracle member escapes the descriptor"]
    )


@pytest.mark.parametrize("wrong", [False, True])
def test_check_double_alpha_set(wrong):
    tally, survivors = double_check(wrong)
    assert survivors > 0
    assert_detects(
        tally,
        wrong,
        ["descriptor sample misses a generator angle", "oracle member escapes the descriptor"],
    )


SINGLE_CIRCLE_NOTE = "double-alpha-set must be a single circle in dimension >= 4"


def test_a_second_component_fails_the_double_alpha_set_in_dimension_4():
    # The point lies on the circle, so every sample and oracle member still
    # sits on the descriptor, and only the single-circle rule can fail it.
    rng = np.random.default_rng(23)
    e1, e2 = random_orthonormal_pair(rng, 4)
    form = qa.TripleCanonicalForm(e1, e2, 0.8, 0.6, (1.0 + 0j, 1j, -1j))
    first = qa.collinear_triple_alpha_set(form, CFG, 4)
    circle = qa.CircleComponent(e1, e2, 0.8, 0.6)
    double = qa.AlphaSetDescriptor((circle, qa.PointComponent(circle.member(np.exp(0.3j)))))
    tally = Tally()
    survivors = check_double_alpha_set(tally, first, double, CFG, rng, 30, qa.sample_lines(4, 60_000, 22), 40)
    assert len(survivors) > 0
    assert tally.verdict is False
    assert tally.notes == [SINGLE_CIRCLE_NOTE]


@pytest.mark.parametrize("a, c, d", EXCEPTIONAL_TRIPLES, ids=["double-circle", "circle-point"])
def test_an_exceptional_dimension_3_double_alpha_set_passes_with_two_components(a, c, d):
    # Built as suite_circle3 builds its cases: the rule is for dimension >= 4 only.
    rng = np.random.default_rng(3)
    cfg = qa.AlphaConfig.from_alpha(math.acos(a))
    e1, e2 = random_orthonormal_pair(rng, 3)
    form = qa.TripleCanonicalForm(e1, e2, c, d, distinct_unimodular_triple(rng, 1e-2))
    double = qa.double_alpha_set_classify(form, cfg, 3)
    first = qa.collinear_triple_alpha_set(form, cfg, 3)
    tally = Tally()
    survivors = check_double_alpha_set(tally, first, double, cfg, rng, 30, qa.sample_lines(3, 40_000, 3), 2000)
    assert len(double.components) == 2
    assert len(survivors) > 0
    assert tally.verdict, tally.notes
    assert not tally.notes


@pytest.mark.parametrize("check", [pair_check, double_check], ids=["pair", "double"])
def test_a_failed_check_notes_once(check):
    # Many members escape a wrong descriptor; the check bounds their worst
    # distance once, so its note appears once.
    tally, members = check(True)
    assert members > 1
    assert len(tally.notes) == len(set(tally.notes)) == 2, tally.notes


def hunt_check(_wrong):
    """The tally of the symmetry check's oracle hunt on a dimension-4 circle."""
    e1, e2 = random_orthonormal_pair(np.random.default_rng(41), 4)
    tally = verify.empirical_high_symmetry_check(
        qa.CircleComponent(e1, e2, 0.8, 0.6), CFG, n_triples=1, n_alpha_samples=12, seed=5,
        cloud=qa.sample_lines(4, 5_000, 42),
    )
    return tally, tally.counts["survivors"]


@pytest.mark.parametrize("check", [pair_check, double_check, hunt_check], ids=["pair", "double", "hunt"])
def test_an_empty_oracle_result_fails_the_check(monkeypatch, check):
    # Each descriptor these checks compare is non-empty, so an oracle that
    # finds no member has missed it; the check must not pass vacuously.
    monkeypatch.setattr(verify.oracle, "funnel_alpha_set", lambda *args, **kwargs: [])
    tally, members = check(False)
    assert members == 0
    assert tally.verdict is False
    assert "the oracle found no member" in tally.notes


def test_the_empirical_tag_reads_the_oracle_hunt_only(monkeypatch):
    # The dimension-3 exceptional circle's double-alpha-sets have two
    # components.  A hunt that finds only circle members must tag the circle
    # HighlySymmetric, and so disagree with the classifier, whatever the
    # closed form's component count says.
    cfg = qa.AlphaConfig.from_alpha(math.acos(1 / math.sqrt(3)))
    e1, e2 = random_orthonormal_pair(np.random.default_rng(43), 3)
    circle = qa.CircleComponent(e1, e2, math.sqrt(2 / 3), 1 / math.sqrt(3))
    on_circle = [circle.member(np.exp(1j * t)) for t in np.linspace(0.0, 2 * math.pi, 12, endpoint=False)]
    monkeypatch.setattr(verify.oracle, "funnel_alpha_set", lambda *args, **kwargs: on_circle)
    tally = verify.empirical_high_symmetry_check(circle, cfg, n_triples=2, n_alpha_samples=12, seed=5)
    assert tally.counts["components_max"] == 2
    assert tally.counts["off_circle_members"] == 0
    assert "empirical=HighlySymmetric" in tally.notes
    assert "classifier=NotHighlySymmetric" in tally.notes
    assert tally.verdict is False


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_circle3_fails_a_double_alpha_set_without_its_second_component(monkeypatch, seed):
    # Each seed draws two-component cases.  Their descriptor samples stay at
    # alpha with the second component dropped, so only the oracle members on
    # that component can fail the suite.
    tally = verify.suite_circle3(seed, 8)
    assert tally.verdict, tally.notes
    assert any("case=two-component" in n for n in tally.notes)
    monkeypatch.setattr(verify.alphasets, "has_second_double_component", lambda *args: False)
    tally = verify.suite_circle3(seed, 8)
    assert not any("case=two-component" in n for n in tally.notes)
    assert tally.verdict is False
    assert "oracle member escapes the descriptor" in tally.notes


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tag, flipped", [(INFINITE, ZERO), (ZERO, INFINITE)], ids=["infinite-to-zero", "zero-to-infinite"])
def test_cardinality_suite_fails_a_flipped_verdict(monkeypatch, seed, tag, flipped):
    # infinite-element passes under either flip: it never calls the closed
    # form on a generic draw.  Twenty draws hold verdicts of both kinds.
    assert verify.SUITES["cardinality"](seed, 20).verdict
    closed_form = qa.atheta_cardinality

    def mutant(*args):
        card = closed_form(*args)
        return dataclasses.replace(card, tag=flipped) if card.tag == tag else card

    monkeypatch.setattr(verify.alphasets, "atheta_cardinality", mutant)
    monkeypatch.setattr(qa, "atheta_cardinality", mutant)
    tally = verify.SUITES["cardinality"](seed, 20)
    assert tally.verdict is False
    assert tally.counts["agreements"] < tally.counts["draws"] == 20
    assert f"cardinality {flipped} but the disk sweep says {tag}" in tally.notes


@pytest.mark.parametrize("seed, draws, dim", [(11, 8, None), (0, 4, 5), (1, 4, 5)])
def test_collinear_triple_suite_passes_where_constraints_meet_nearly_tangentially(seed, draws, dim):
    # These draws hold oracle members whose angle residual is within the
    # refinement tolerance while the member itself is 1e-5 or more from the set.
    tally = verify.suite_collin_alpha(seed, draws, dim)
    assert tally.verdict, tally.notes
    assert tally.max_residual < 1e-7


def test_nan_residual_fails_the_run():
    tally = Tally()
    tally.bound(0.5, 1.0, "finite")
    tally.bound(float("nan"), 1e-9, "nan residual")
    assert tally.verdict is False
    assert tally.notes == ["nan residual"]
    assert tally.max_residual == 0.5
    json.dumps(tally.to_json(), allow_nan=False)


@pytest.mark.parametrize("wrong", [False, True])
def test_high_symmetry_check_holds_the_circle_to_the_double_alpha_set(monkeypatch, wrong):
    # A double-alpha-set whose circle has perturbed weights misses the
    # circle it was built from; the check must say so.
    classify = qa.double_alpha_set_classify

    def perturbed(form, cfg, dim):
        d = form.d + 0.02
        return qa.AlphaSetDescriptor((qa.CircleComponent(form.e1, form.e2, math.sqrt(1 - d * d), d),))

    monkeypatch.setattr(verify.alphasets, "double_alpha_set_classify", perturbed if wrong else classify)
    rng = np.random.default_rng(31)
    e1, e2 = random_orthonormal_pair(rng, 4)
    tally = verify.empirical_high_symmetry_check(
        qa.CircleComponent(e1, e2, 0.8, 0.6), CFG, n_triples=2, n_alpha_samples=12, seed=5,
        cloud=qa.sample_lines(4, 5_000, 32),
    )
    assert ("circle samples lie off the double-alpha-set of their triple" in tally.notes) is wrong


@pytest.mark.parametrize("seed", [-1, 2**64, 0.5])
def test_high_symmetry_check_refuses_a_seed_outside_the_cloud_range(seed):
    e1, e2 = random_orthonormal_pair(np.random.default_rng(0), 4)
    with pytest.raises(ParameterError, match="seed must be"):
        verify.empirical_high_symmetry_check(qa.CircleComponent(e1, e2, 0.8, 0.6), CFG, seed=seed)


TOP_SEED = 2**64 - 1


@pytest.mark.parametrize(
    "suite, draws, clouds, checks",
    [
        ("collin-alpha", 2, [2, 3], []),
        ("circle4", 1, [10], []),
        ("circle3", 1, [2], []),
        ("circle-char", 2, [2, 3], [TOP_SEED, 0]),
        ("basic", None, [4], []),
        ("pair", 1, [0, 1], []),
        ("triple", 1, [0], []),
        ("cardinality", 1, [], []),
        ("witness", 1, [], []),
        ("classification", 2, [0, 1], [99, 100]),
        ("wigner-round-trip", 1, [], []),
        ("exotic", 1, [], []),
    ],
)
def test_suite_seeds_wrap_into_the_seed_range(monkeypatch, suite, draws, clouds, checks):
    # A suite seeds its clouds, its symmetry checks and its Wigner draws at
    # offsets from its own seed, wrapped into [0, 2**64), so the largest seed
    # the CLI takes runs.
    seen = {"clouds": [], "checks": []}
    sample_lines, symmetry_check = verify.oracle.sample_lines, verify.empirical_high_symmetry_check

    def record_cloud(dim, count, seed):
        seen["clouds"].append(seed)
        return sample_lines(dim, min(count, 2_000), seed)

    def record_check(*args, seed, **kwargs):
        seen["checks"].append(seed)
        return symmetry_check(*args, seed=seed, **kwargs)

    monkeypatch.setattr(verify.oracle, "sample_lines", record_cloud)
    monkeypatch.setattr(verify, "empirical_high_symmetry_check", record_check)
    verify.SUITES[suite](TOP_SEED, **({} if draws is None else {"draws": draws}))
    assert seen == {"clouds": clouds, "checks": checks}


def test_high_symmetry_check_wraps_its_hunt_seed(monkeypatch):
    seen = []
    sample_lines = verify.oracle.sample_lines

    def record_cloud(dim, count, seed):
        seen.append(seed)
        return sample_lines(dim, 2_000, seed)

    monkeypatch.setattr(verify.oracle, "sample_lines", record_cloud)
    e1, e2 = random_orthonormal_pair(np.random.default_rng(0), 4)
    verify.empirical_high_symmetry_check(qa.CircleComponent(e1, e2, 0.8, 0.6), CFG, n_triples=1, n_alpha_samples=3, seed=TOP_SEED)
    assert seen == [0]

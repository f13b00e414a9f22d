"""The shared verification checks pass on the right descriptor and fail on a wrong one.

The acceptance criteria and the ``qangle verify`` suites pass only through
these checks, so a check that cannot fail would let both pass vacuously.
"""

import json
import math

import numpy as np
import pytest

import qangle as qa
from qangle import verify
from qangle.alphasets import EXCEPTIONAL_TRIPLES
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
    circle = qa.Circle(e1, e2, 0.8, 0.6)
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
        qa.Circle(e1, e2, 0.8, 0.6), CFG, 4, n_triples=1, n_alpha_samples=12, seed=5,
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
    circle = qa.Circle(e1, e2, math.sqrt(2 / 3), 1 / math.sqrt(3))
    on_circle = [circle.member(np.exp(1j * t)) for t in np.linspace(0.0, 2 * math.pi, 12, endpoint=False)]
    monkeypatch.setattr(verify.oracle, "funnel_alpha_set", lambda *args, **kwargs: on_circle)
    tally = verify.empirical_high_symmetry_check(circle, cfg, 3, n_triples=2, n_alpha_samples=12, seed=5)
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
        return qa.AlphaSetDescriptor((qa.Circle(form.e1, form.e2, math.sqrt(1 - d * d), d),))

    monkeypatch.setattr(verify.alphasets, "double_alpha_set_classify", perturbed if wrong else classify)
    rng = np.random.default_rng(31)
    e1, e2 = random_orthonormal_pair(rng, 4)
    tally = verify.empirical_high_symmetry_check(
        qa.Circle(e1, e2, 0.8, 0.6), CFG, 4, n_triples=2, n_alpha_samples=12, seed=5,
        cloud=qa.sample_lines(4, 5_000, 32),
    )
    assert ("circle samples lie off the double-alpha-set of their triple" in tally.notes) is wrong


@pytest.mark.parametrize("seed", [-1, 2**64, 0.5])
def test_high_symmetry_check_refuses_a_seed_outside_the_cloud_range(seed):
    e1, e2 = random_orthonormal_pair(np.random.default_rng(0), 4)
    with pytest.raises(ParameterError, match="seed must be"):
        verify.empirical_high_symmetry_check(qa.Circle(e1, e2, 0.8, 0.6), CFG, 4, seed=seed)

"""The shared verification checks pass on the right descriptor and fail on a wrong one.

The acceptance criteria and the ``qangle verify`` suites pass only through
these checks, so a check that cannot fail would let both pass vacuously.
"""

import math

import numpy as np
import pytest

import qangle as qa
from qangle.verify import COMPLETENESS_TOL, Tally, check_alpha_set, check_double_alpha_set

from conftest import random_line, random_orthonormal_pair

CFG = qa.AlphaConfig.from_alpha(1.1)


def assert_detects(tally, wrong, notes):
    assert tally.verdict is not wrong, tally.notes
    assert (tally.worst > COMPLETENESS_TOL) is wrong
    assert set(notes) <= set(tally.notes) if wrong else not tally.notes


@pytest.mark.parametrize("wrong", [False, True])
def test_check_alpha_set(wrong):
    rng = np.random.default_rng(11)
    v1, v2 = random_line(rng, 3), random_line(rng, 3)
    descr = qa.pair_alpha_set(v1, v2, qa.AlphaConfig.from_alpha(1.1 + 0.05 * wrong))
    tally = Tally()
    found = check_alpha_set(tally, [v1, v2], CFG, descr, rng, 50, qa.sample_lines(3, 20_000, 12), 1e-2, 30)
    assert found > 0
    assert_detects(
        tally, wrong, ["descriptor sample misses a generator angle", "oracle member escapes the descriptor"]
    )


@pytest.mark.parametrize("wrong", [False, True])
def test_check_double_alpha_set(wrong):
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
    assert survivors > 0
    assert_detects(
        tally,
        wrong,
        ["circle sample misses the sampled alpha-set", "numeric double-alpha-set member off the circle"],
    )

import numpy as np
import pytest

import qangle as qa
from qangle.projspace import random_line, random_orthonormal_pair  # noqa: F401


def random_collinear_triple(rng: np.random.Generator, dim: int):
    """Three distinct random lines spanning a two-dimensional subspace."""
    e1, e2 = random_orthonormal_pair(rng, dim)
    while True:
        coeffs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        vs = [
            qa.canonical_line(c[0] * e1.amplitudes + c[1] * e2.amplitudes)
            for c in coeffs
        ]
        distinct = all(
            not qa.lines_equal(vs[i], vs[j], 1e-6)
            for i in range(3)
            for j in range(i + 1, 3)
        )
        if distinct:
            return vs


@pytest.fixture(scope="session")
def cloud3():
    return qa.sample_lines(3, 200_000, 101)


@pytest.fixture(scope="session")
def cloud4():
    return qa.sample_lines(4, 400_000, 202)

"""The benchmark's own self-test, run as part of the test suite.

``bench/cases.py`` and ``bench/run.py`` pin this library surface:

* ``qangle.oracle``: ``sample_lines(dim, count, seed)`` and the cloud's
  ``count``; ``alpha_set_numeric``, ``refine_alpha_members`` and
  ``root_count_on_circle`` (wrapped by the tracer, which reads the cloud as
  the third positional argument of ``alpha_set_numeric``);
  ``discover_alpha_set``, ``funnel_alpha_set`` with ``max_pool=``,
  ``angle_residuals`` and ``root_count_on_disk``;
* ``qangle.alphasets``: ``pair_alpha_set``, ``collinear_triple_alpha_set``,
  ``double_alpha_set_classify``, ``theta0_and_rho``, a positional
  ``AthetaFamily(e1, e2, c, d, alpha, theta0, dim)``,
  ``atheta_cardinality``, ``AlphaSetDescriptor.sample``, the ``distance``
  of ``AthetaFamily`` and of ``CircleComponent``, and ``AlphaConfig``
  (``from_alpha``, ``alpha``, ``a``) imported from this module;
* ``qangle.projspace``: ``TripleCanonicalForm`` and ``canonical_line``.

Renaming or reshaping one of them makes ``bench/selftest.py`` fail, and so
this test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "selftest: passed" in proc.stdout.splitlines()

"""Benchmark: the LP solver on the mechanism-design programs.

DESIGN.md calls out the LP solver as a substitution for the paper's
PyLPSolve.  This module times SciPy/HiGHS on constrained design problems and
checks each optimum against the paper's closed forms.  The paper reports
"sub-second" LP solves on commodity hardware; the timings here confirm the
same order of magnitude for comparable n.
"""

from __future__ import annotations

import pytest

from repro.core.design import design_mechanism
from repro.core.losses import l0_score
from repro.core.theory import em_l0_score, gm_l0_score

#: The ``[scipy]`` case id names the solver, as the committed baselines do.
SOLVER = pytest.mark.parametrize("backend", ["scipy"])


@pytest.mark.benchmark(group="lp-backends")
@SOLVER
def test_unconstrained_design_backend(benchmark, backend):
    n, alpha = 7, 0.62
    mechanism = benchmark(lambda: design_mechanism(n, alpha, properties=()))
    assert l0_score(mechanism) == pytest.approx(gm_l0_score(alpha), abs=1e-7)


@pytest.mark.benchmark(group="lp-backends")
@SOLVER
def test_fully_constrained_design_backend(benchmark, backend):
    n, alpha = 7, 0.62
    mechanism = benchmark(lambda: design_mechanism(n, alpha, properties="all"))
    assert l0_score(mechanism) == pytest.approx(em_l0_score(n, alpha), abs=1e-7)


@pytest.mark.benchmark(group="lp-backends")
def test_scipy_backend_scales_to_larger_groups(benchmark):
    """The solver must stay sub-second well beyond the paper's sizes."""
    n, alpha = 24, 0.9
    mechanism = benchmark(lambda: design_mechanism(n, alpha, properties="WH+CM+S"))
    assert l0_score(mechanism) <= em_l0_score(n, alpha) + 1e-6

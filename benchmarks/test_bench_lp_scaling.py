"""Benchmarks for the sparse vectorized LP pipeline.

The paper's design loop is one LP over ``(n + 1)^2`` variables with ~4
nonzeros per constraint row.  The sparse pipeline (triplet-block constraint
emission + CSR export + HiGHS-native sparse solve) is what lets mechanism
design scale past ``n ≈ 100``; this module asserts the headline guarantees
instead of just timing them:

* at ``n = 100`` the sparse pipeline builds **and** solves the design LP at
  least 5x faster than the dense path (the loop-based emitters and dense
  export kept in ``tests/_reference.py``);
* both paths produce identical LP solutions, and identical mechanisms after
  renormalisation;
* a fully constrained (all seven properties) design at ``n = 300`` completes
  within an interactive time budget — the dense export alone would need
  ~43 GB for that program, so this was simply impossible before.

The timings use ``alpha = 0.5``: solver degeneracy grows sharply with
``alpha``, and pinning it keeps the benchmark about pipeline cost (build,
export, solver ingestion) rather than simplex pivoting pathologies.

Set ``REPRO_BENCH_TINY=1`` (the CI smoke job does) to run the same code at
toy sizes with the wall-clock assertions disabled, so the benchmark itself
cannot rot between full runs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

# Both pipelines solve through HiGHS; import SciPy here so its one-off
# ~0.5 s import cost is not timed inside whichever pipeline runs first.
import scipy.optimize  # noqa: F401
import scipy.sparse  # noqa: F401
from _reference import build_loop_mechanism_lp, solve_dense
from _tiny import TINY

from repro.core.constraints import build_mechanism_lp
from repro.core.design import design_mechanism
from repro.lp.solver import solve

N_SPEEDUP = 16 if TINY else 100
N_LARGE = 10 if TINY else 300
ALPHA = 0.5

#: Required build+solve advantage of the sparse pipeline at ``N_SPEEDUP``.
MIN_SPEEDUP = 5.0

#: Generous wall-clock ceiling for the n=300 fully constrained design (the
#: measured time on one commodity core is ~20 s).
LARGE_BUDGET_SECONDS = 240.0


#: (build, solve) for each pipeline: the package's own, and the reference.
SPARSE = (build_mechanism_lp, solve)
DENSE = (build_loop_mechanism_lp, solve_dense)


def _build_and_solve(n: int, pipeline, properties=()):
    """One full pipeline pass; returns (solution, mechanism matrix, seconds).

    ``seconds`` is the pair (build, export + solve).
    """
    build, solve_program = pipeline
    start = time.perf_counter()
    mechanism_lp = build(n, ALPHA, properties=properties)
    built = time.perf_counter()
    solution = solve_program(mechanism_lp.program)
    solved = time.perf_counter()
    matrix = mechanism_lp.matrix_from_values(solution.values)
    return solution, matrix, (built - start, solved - built)


def test_sparse_pipeline_at_least_5x_faster_than_dense_at_n100():
    """The headline scaling guarantee, asserted on wall-clock time.

    Dense path = the original pipeline shape: per-constraint Python dict
    emitters plus an ``O(n^4)``-memory dense export (~1.6 GB at n=100).
    Sparse path = vectorized triplet blocks plus CSR export.
    """
    sparse_solution, sparse_matrix, sparse_parts = _build_and_solve(N_SPEEDUP, SPARSE)
    dense_solution, dense_matrix, dense_parts = _build_and_solve(N_SPEEDUP, DENSE)
    # Same program, same solver: the solutions must agree exactly.
    assert np.array_equal(sparse_solution.values, dense_solution.values)
    assert np.array_equal(sparse_matrix, dense_matrix)
    sparse_seconds, dense_seconds = sum(sparse_parts), sum(dense_parts)
    if not TINY:
        assert dense_seconds >= MIN_SPEEDUP * sparse_seconds, (
            f"sparse pipeline only {dense_seconds / sparse_seconds:.1f}x faster "
            f"({sparse_seconds:.2f}s vs {dense_seconds:.2f}s; "
            f"build {sparse_parts[0]:.2f}s vs {dense_parts[0]:.2f}s, "
            f"export+solve {sparse_parts[1]:.2f}s vs {dense_parts[1]:.2f}s)"
        )


def test_sparse_and_dense_mechanisms_bit_identical_at_small_n():
    """At a size where both paths are cheap, the pipelines are interchangeable."""
    for properties in ((), "WH+CM", "all"):
        sparse_solution, sparse_matrix, _ = _build_and_solve(8, SPARSE, properties)
        dense_solution, dense_matrix, _ = _build_and_solve(8, DENSE, properties)
        assert np.array_equal(sparse_solution.values, dense_solution.values), properties
        assert np.array_equal(sparse_matrix, dense_matrix), properties


def test_fully_constrained_design_completes_at_n300():
    """An all-properties design at n=300 — unreachable with the dense export."""
    start = time.perf_counter()
    mechanism = design_mechanism(N_LARGE, ALPHA, properties="all")
    elapsed = time.perf_counter() - start
    size = N_LARGE + 1
    assert mechanism.matrix.shape == (size, size)
    assert np.allclose(mechanism.matrix.sum(axis=0), 1.0)
    assert mechanism.metadata["lp_variables"] == size * size
    assert mechanism.metadata["lp_nonzeros"] > 0
    assert mechanism.metadata["lp_solve_seconds"] <= elapsed
    if not TINY:
        assert elapsed < LARGE_BUDGET_SECONDS, f"n=300 design took {elapsed:.0f}s"


@pytest.mark.benchmark(group="lp-scaling")
def test_sparse_build_throughput(benchmark):
    """Constraint assembly alone: triplet blocks at a mid-size n."""
    n = 8 if TINY else 60

    program = benchmark(
        lambda: build_mechanism_lp(n, ALPHA, properties="all").program
    )
    assert program.num_nonzeros() > 0


@pytest.mark.benchmark(group="lp-scaling")
def test_sparse_export_throughput(benchmark):
    """CSR export alone (the dense equivalent allocates O(n^4) memory)."""
    n = 8 if TINY else 60
    program = build_mechanism_lp(n, ALPHA, properties="all").program

    arrays = benchmark(program.to_sparse_arrays)
    assert arrays["A_ub"].nnz > 0

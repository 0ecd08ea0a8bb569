"""The power table GM, EM and STAIRCASE read their integer powers of α from.

``power_table`` stops at the first power that underflows to an exact zero,
and every reader treats later exponents as that zero.  That is only correct
if one-shot array pow is zero from there on, so these tests check it on an
α grid, with the degenerate ends α = 0 (``0.0 ** 0`` is 1) and α = 1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mechanisms.powers import power_table, powers_at, two_sided

ALPHAS = [0.0, 1e-6, 0.05, 0.3, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-9, 1.0]
LENGTHS = [1, 3, 1002, 2050, 100002]


def _assert_cut_at_first_zero(alpha: float, length: int) -> None:
    table = power_table(alpha, length)
    one_shot = alpha ** np.arange(length, dtype=float)
    assert 1 <= table.shape[0] <= length
    assert np.array_equal(table, one_shot[: table.shape[0]])
    assert not one_shot[table.shape[0] :].any(), "a power past the table's end is not 0.0"
    zeros = np.flatnonzero(table == 0.0).tolist()
    if table.shape[0] < length:
        assert zeros == [table.shape[0] - 1]
    else:
        assert zeros in ([], [length - 1])


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_table_is_one_shot_pow_cut_at_its_first_zero(alpha, length):
    _assert_cut_at_first_zero(alpha, length)


def test_cut_holds_on_a_dense_alpha_grid():
    for alpha in np.linspace(0.0, 1.0, 101):
        _assert_cut_at_first_zero(float(alpha), 100002)


@pytest.mark.parametrize(
    "alpha, size", [(0.3, 620), (0.9, 7074), (0.99, 74142), (0.999, 100002)]
)
def test_table_sizes(alpha, size):
    assert power_table(alpha, 100002).shape == (size,)


def test_degenerate_alphas():
    assert power_table(0.0, 1).tolist() == [1.0]
    assert power_table(0.0, 100002).tolist() == [1.0, 0.0]
    assert power_table(1.0, 2050).tolist() == [1.0] * 2050


def test_reads_past_either_end_are_clipped():
    table = power_table(0.3, 100002)
    exponents = np.array([-5, -1, 0, 7, 619, 620, 10**6])
    expected = 0.3 ** np.maximum(exponents, 0).astype(float)
    assert np.array_equal(powers_at(table, exponents), expected)


@pytest.mark.parametrize("alpha", [0.05, 0.9, 0.999])
@pytest.mark.parametrize("size", [1, 2, 1001, 100001])
def test_two_sided_slices_equal_the_gather(alpha, size):
    table = power_table(alpha, size + 1)
    for j in sorted({0, 1, size // 2, size - 2, size - 1} & set(range(size))):
        expected = 0.7 * powers_at(table, np.abs(np.arange(size) - j))
        assert np.array_equal(two_sided(table, size, j, 0.7), expected), f"j={j}"

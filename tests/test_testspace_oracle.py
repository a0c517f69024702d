"""The component search lists and counts the covers the Algorithm X lister found.

`testspace_oracle` holds a verbatim copy of the Algorithm X lister that the
component search replaced.  On random rows, on the weight rows of loops, on
the cell rows of the partition test spaces of loops, on square grids of
tests and on 1,200 singleton tests, `_exact_covers` must list the same
covers and `count_exact_covers` must count them.
"""

import math
import random

import pytest

import partlogic as P
import testspace_oracle as old
from partlogic import testspace
from test_testspace import loop_test_space, lucas, random_rows


def agrees(width, rows):
    """Assert both searches agree with the oracle; return the number of covers."""
    expected = sorted(old._exact_covers(width, rows))
    assert sorted(testspace._exact_covers(width, rows)) == expected
    assert testspace.count_exact_covers(width, rows) == len(expected)
    return len(expected)


def cell_rows(pts):
    """The exact-cover rows of a completion: one base-point mask per cell."""
    bit = {p: 1 << i for i, p in enumerate(pts.base)}
    return [sum(bit[p] for p in c) for c in pts.cells]


def grid_test_space(n):
    """n x n outcomes; each row and each column of the grid is a test."""
    cell = [["g%d_%d" % (i, j) for j in range(n)] for i in range(n)]
    tests = [set(row) for row in cell] + [set(col) for col in zip(*cell)]
    return P.TestSpace([x for row in cell for x in row], tests)


def test_random_rows_agree():
    rng = random.Random(14)
    found = [
        agrees(width, random_rows(rng, width, rng.randint(1, 16)))
        for width in (rng.randint(1, 10) for _ in range(400))
    ]
    assert sum(n == 0 for n in found) >= 20 and sum(n > 1 for n in found) >= 20


@pytest.mark.parametrize("k", range(3, 21))
def test_loop_weight_rows_agree(k):
    ts = loop_test_space(k)
    assert agrees(len(ts.tests), testspace._weight_rows(ts)) == lucas(k)


@pytest.mark.parametrize("k", range(3, 9))
def test_loop_partition_test_space_cells_agree(k):
    pts = P.ts_to_partition_test_space(loop_test_space(k))
    assert agrees(len(pts.base), cell_rows(pts)) >= len(pts.tests)


@pytest.mark.parametrize("n", range(1, 7))
def test_grid_weight_rows_agree(n):
    ts = grid_test_space(n)
    # the covers are the n x n permutation matrices
    assert agrees(len(ts.tests), testspace._weight_rows(ts)) == math.factorial(n)


def test_singleton_tests_agree():
    assert agrees(1200, [1 << i for i in range(1200)]) == 1

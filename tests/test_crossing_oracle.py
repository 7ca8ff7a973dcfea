"""`mutation._crossings`, the array scan of a trajectory's ray crossings,
against the pair-by-pair walk kept in `tests/crossing_oracle.py`.

On seeded random marking arrays both must give the same lists, step by
step, with every (i, j) a Python int and every crossing time s equal to
the bit.  The markings lie on a small grid of heights, so alignments are
exactly 0 at many nodes: a pair touching the ray and returning to its
side, a pair crossing through one or more nodes on the ray, a pair
starting or ending on it, and equal markings.  Other arrays use a nonzero
phase, continuous markings, and steps where two markings coincide."""
import math

import numpy as np
import pytest

import crossing_oracle as oracle
from toriclg import mutation


def _markings(rng, grid):
    nodes = int(rng.integers(2, 12))
    n = int(rng.integers(1, 7))
    if grid:
        # heights and real parts on a small grid: exact 0 alignments at
        # phase 0, and exactly equal markings
        return (rng.integers(-2, 3, (nodes, n))
                + 1j * rng.integers(-2, 3, (nodes, n))).astype(complex)
    V = rng.normal(size=(nodes, n)) + 1j * rng.normal(size=(nodes, n))
    if n > 1:       # markings 0 and 1 coincide at some nodes
        same = rng.random(nodes) < 0.2
        V[same, 1] = V[same, 0]
    return V


def _bits(steps):
    return [[(type(i), i, type(j), j, dr, s.hex()) for i, j, dr, s in step]
            for step in steps]


@pytest.mark.parametrize("grid, phases", [
    (True, [0.0]),
    (True, [math.pi / 2, math.pi, 0.3]),
    (False, [0.0, 0.3, -2.2, math.pi]),
], ids=["grid-phase-0", "grid-other-phases", "continuous"])
def test_scan_is_the_pair_by_pair_walk(grid, phases):
    rng = np.random.default_rng(31)
    found = equal = through = 0
    for _ in range(300):
        V = _markings(rng, grid)
        for phase in phases:
            got = mutation._crossings(V, phase)
            want = oracle.crossings(V.tolist(), phase)
            assert _bits(got) == _bits(want)
            assert got == mutation._crossings(list(V), phase)
            found += sum(map(len, got))
            through += sum(s == 1.0 for step in got for *_, s in step)
        equal += V.shape[1] > 1 and (V[:, 0] == V[:, 1]).any()
    # crossings, crossings through a node on the ray (s = 1) and
    # coinciding markings all occur
    assert found > 100 and equal > 50
    if grid:
        assert through > 20


def test_single_branch_and_single_node():
    assert mutation._crossings(np.zeros((3, 1), complex), 0.0) == [[], []]
    assert mutation._crossings(np.zeros((1, 4), complex), 0.0) == []
    assert mutation._crossings(np.zeros((2, 0), complex), 0.0) == [[]]

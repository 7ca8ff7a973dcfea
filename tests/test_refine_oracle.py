"""The lockstep crossing refinement of `mutation.evolve` against the
crossing-by-crossing evolution it replaced (`tests/refine_oracle.py`):
every event's step, branches, direction, coefficient and parameter (by
repr) on the `mutate bl-line-p4` trajectories, and the number of Newton
solves the refinement makes."""
import functools
import json
import os

import numpy as np
import pytest

from toriclg import cli, errors, lg, mutation
from toriclg.ktheory import (bl_line_p4, bl_line_p4_initial_collection,
                             build_cohomology_ring)
from toriclg.lg import Trajectory
from toriclg.mutation import KBackend, MarkedReflectionSystem
from toriclg.scenario import Scenario

import refine_oracle as oracle

SCN = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                   "bl-line-p4.json")


@functools.cache
def _trajectory(seed):
    """The trajectory `mutate --scenario bl-line-p4.json --seed S` tracks."""
    with open(SCN) as fh:
        return cli._track(Scenario(json.load(fh)), seed)[0]


@pytest.fixture(scope="module")
def back():
    return KBackend(build_cohomology_ring(bl_line_p4()))


def _system(traj, back, phase=0.0):
    initial = bl_line_p4_initial_collection(back.ring)
    order0 = sorted(range(traj.nbranches),
                    key=lambda b: -traj.branches[b][0].value.imag)
    vectors = [None] * traj.nbranches
    for pos, b in enumerate(order0):
        vectors[b] = back.flatten(initial[pos].ch)
    return MarkedReflectionSystem(back, vectors,
                                  [br[0].value for br in traj.branches],
                                  phase=phase)


def _outcome(module, mrs, traj):
    """The final vectors and every event, or the error raised."""
    try:
        final, events = module.evolve(mrs, traj)
    except errors.ToricLGError as exc:
        return type(exc).__name__, str(exc)
    return final.vectors, [(e.step, e.moving, e.pivot, e.direction,
                            e.coefficient, repr(e.at)) for e in events]


@pytest.mark.parametrize("seed", range(6))
def test_mutate_trajectory_matches_oracle(seed, back):
    traj = _trajectory(seed)
    mrs = _system(traj, back)
    got = _outcome(mutation, mrs, traj)
    assert got == _outcome(oracle, mrs, traj)
    assert len(got[1]) == 10


def test_reversed_trajectory_matches_oracle(back):
    traj = _trajectory(0)
    final, _ = mutation.evolve(_system(traj, back), traj)
    rev = Trajectory(traj.params[::-1], traj.log_points[::-1],
                     traj.values[::-1], traj.components, [],
                     family=traj.family)
    got = _outcome(mutation, final, rev)
    assert got == _outcome(oracle, final, rev)
    assert len(got[1]) == 10


def test_nonzero_phase_matches_oracle(back):
    traj = _trajectory(1)
    mrs = _system(traj, back, phase=0.3)
    got = _outcome(mutation, mrs, traj)
    assert got == _outcome(oracle, mrs, traj)
    assert len(got[1]) > 0 and got[1] != _outcome(mutation, _system(
        traj, back), traj)[1]


def test_refinement_is_one_solve_per_bisection_level(back, monkeypatch):
    # crossing by crossing, the 10 crossings at seed 7 made 36 two-row
    # solves each (both ends of the step, then 34 midpoints); in lockstep
    # they make one solve per level
    traj = _trajectory(7)
    mrs = _system(traj, back)
    rows = []
    solve = lg._newton_solve

    def counted(F, L0, C, *args, **kwargs):
        rows.append(len(C))
        return solve(F, L0, C, *args, **kwargs)
    monkeypatch.setattr(lg, "_newton_solve", counted)
    _, events = mutation.evolve(mrs, traj)
    assert len(events) == 10
    assert len(rows) <= 36
    assert rows[0] == 4 * len(events)
    assert np.sum(rows) <= 2 * 36 * len(events)

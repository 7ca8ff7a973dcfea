"""Cross-module invariants from the contract that are not tied to a single
operation: wall classification partition, cohomology-dimension drop across
discrepant walls, evolution refinement stability, and the endpoint Orlov
block verification in K-class mode."""
import math

import numpy as np

from orlov_evolution_oracle import verify_orlov_evolution
from toriclg.families import bl_line_p4_family_lambda
from toriclg.fans import StackyFan
from toriclg.ktheory import (BlowupData, bl_line_p4,
                             bl_line_p4_initial_collection,
                             build_cohomology_ring)
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.lg import track_critical_values
from toriclg.mutation import KBackend, MarkedReflectionSystem, evolve
from toriclg.secondary import enumerate_adapted_fans, wall_between

WALL_KINDS = {"flip", "contract_divisor", "extract_divisor", "root", "crepant"}


def corpus():
    out = []
    out.append(VectorSet(AbelianLattice(2), [(-1, 1), (1, 1), (0, 1)]))
    out.append(VectorSet(AbelianLattice(2), [(1, 0), (0, 1), (1, 1)]))
    for d in (3, 4):
        out.append(VectorSet(AbelianLattice(2), [(0, 1), (d, -1), (1, 0)]))
    # a type III wall: replace a ray by a parallel shorter one
    out.append(VectorSet(AbelianLattice(2), [(1, 0), (2, 0), (0, 1)]))
    return out


def test_wall_kinds_partition_and_dimension_drop():
    seen = set()
    for vs in corpus():
        fans, walls = enumerate_adapted_fans(vs)
        for a, b, _ in walls:
            w = wall_between(fans[a], fans[b])
            assert w.kind in WALL_KINDS
            seen.add(w.kind)
            if w.kind != "crepant":
                assert (w.plus_fan.dim_orbifold_cohomology()
                        > w.minus_fan.dim_orbifold_cohomology())
            # circuit relation checked inside WallCrossing already; the
            # discrepancy orientation is canonical
            assert w.discrepancy >= 0
    assert "root" in seen and "crepant" in seen
    assert "contract_divisor" in seen and "extract_divisor" in seen


def test_root_wall_data():
    vs = VectorSet(AbelianLattice(2), [(1, 0), (2, 0), (0, 1)])
    fans, walls = enumerate_adapted_fans(vs)
    assert len(fans) == 2
    a, b, _ = walls[0]
    w = wall_between(fans[a], fans[b])
    assert w.kind == "root"
    assert w.J == w.discrepancy == 1
    assert w.K == 4          # k = 2 for the doubled ray, K = 2^2
    assert tuple(w.hat_b.free) == (2, 0)


def bl_traj(steps, seed=2):
    fam = bl_line_p4_family_lambda()
    lams = list(np.exp(np.linspace(math.log(12.5), math.log(0.0009), steps)))
    return track_critical_values(fam, lams, rng=np.random.default_rng(seed))


def initial_mrs(traj, ring, back):
    initial = bl_line_p4_initial_collection(ring)
    order0 = sorted(range(9), key=lambda b: -traj.branches[b][0].value.imag)
    vectors = [None] * 9
    labels = [None] * 9
    for pos, b in enumerate(order0):
        vectors[b] = back.flatten(initial[pos].ch)
        labels[b] = initial[pos].label
    return MarkedReflectionSystem(back, vectors,
                                  [br[0].value for br in traj.branches],
                                  phase=0.0, labels=labels)


def test_evolution_refinement_stable():
    ring = build_cohomology_ring(bl_line_p4())
    back = KBackend(ring)
    sigs = []
    for steps in (151, 301):
        traj = bl_traj(steps)
        mrs = initial_mrs(traj, ring, back)
        final, events = evolve(mrs, traj)
        # identify events by the branch pair, direction and coefficient
        sigs.append([(e.moving, e.pivot, e.direction, str(e.coefficient))
                     for e in events])
    assert sigs[0] == sigs[1]


def test_endpoint_orlov_blocks_in_k_mode():
    import itertools
    traj = bl_traj(201)
    ring = build_cohomology_ring(bl_line_p4())
    back = KBackend(ring)
    mrs = initial_mrs(traj, ring, back)
    final, _ = evolve(mrs, traj)
    fan_plus = bl_line_p4()
    fan_minus = StackyFan(fan_plus.vector_set,
                          [set(c) for c in itertools.combinations(range(5), 4)])
    wall = wall_between(fan_plus, fan_minus)
    bd = BlowupData(wall, center_twist_ray=3)
    report = verify_orlov_evolution(final, blowup=bd)
    assert len(report["convergent"]) == 5
    assert sorted(len(v) for v in report["clusters"].values()) == [2, 2]
    assert report["convergent_in_pullback"]


def test_reversed_trajectory_restores_system():
    ring = build_cohomology_ring(bl_line_p4())
    back = KBackend(ring)
    traj = bl_traj(151)
    mrs = initial_mrs(traj, ring, back)
    final, ev_fwd = evolve(mrs, traj)

    from toriclg.lg import Trajectory
    reversed_traj = Trajectory(traj.params[::-1], traj.log_points[::-1],
                               traj.values[::-1], traj.components, [],
                               family=traj.family)
    back_sys, ev_back = evolve(final, reversed_traj)
    assert back_sys.vectors == mrs.vectors
    assert len(ev_back) == len(ev_fwd)


def test_mutate_cli_end_to_end(tmp_path):
    import json
    import os
    from toriclg.cli import main
    scn = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                       "bl-line-p4.json")
    rc = main(["mutate", "--scenario", scn, "--out", str(tmp_path),
               "--seed", "3"])
    assert rc == 0
    with open(tmp_path / "mutate.json") as fh:
        rep = json.load(fh)
    assert rep["match_up_to_sign"] is True
    assert rep["gram_unipotent_upper_triangular"] is True
    assert "O(-H1)" in rep["initial"]
    assert any(lbl.startswith("O_E(E-H2)") or lbl == "O_E(E-H2)"
               for lbl in rep["final"])

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from orlov_evolution_oracle import BlockMismatch, verify_orlov_evolution
from toriclg import errors
from toriclg.families import bl_line_p4_family_lambda, pn_mirror
from toriclg.ktheory import (KClass, bl_line_p4, bl_line_p4_collection,
                             build_cohomology_ring, euler_pairing_hrr,
                             projective_space)
from toriclg.lg import (LGPotential, Trajectory,
                        track_critical_values)
from toriclg.mutation import (KBackend, MarkedReflectionSystem, MatrixBackend,
                              admissible, evolve)
from toriclg.rational import det


def test_admissible():
    assert admissible(math.pi / 4, [0, 1, 1j])
    assert not admissible(0.0, [0, 1])
    assert admissible(0.0, [2 + 1j, 2 + 1j, 2 + 1j])


def test_stokes_p1():
    ring = build_cohomology_ring(projective_space(1))
    back = KBackend(ring)
    O = KClass.structure_sheaf(ring)
    O1 = KClass.line_bundle(ring, ring.divisor(0), "O(1)")
    q = 1.0
    # markings -+2 sqrt(q): O at the negative value, O(1) at the positive
    mrs = MarkedReflectionSystem(back,
                                 [back.flatten(O.ch), back.flatten(O1.ch)],
                                 [-2 * math.sqrt(q), 2 * math.sqrt(q)],
                                 phase=0.3)
    G = mrs.stokes_matrix()
    assert G == [[1, 2], [0, 1]]


def test_stokes_single_vector():
    back = MatrixBackend([[1]])
    mrs = MarkedReflectionSystem(back, [(1,)], [0.5j], phase=0.0)
    assert mrs.stokes_matrix() == [[1]]


def test_not_semiorthogonal_raises():
    back = MatrixBackend([[1, 0], [3, 1]])
    mrs = MarkedReflectionSystem(back, [(1, 0), (0, 1)], [1j, -1j], phase=0.0)
    with pytest.raises(errors.NotSemiorthogonal):
        mrs.stokes_matrix()


def test_mutation_involution_and_determinant():
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(2, 4)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            G[i][i] = 1
            for j in range(i + 1, n):
                G[i][j] = rng.randint(-3, 3)
        back = MatrixBackend(G)
        vectors = [tuple(1 if k == i else 0 for k in range(n))
                   for i in range(n)]
        markings = [complex(0, n - i) for i in range(n)]
        mrs = MarkedReflectionSystem(back, vectors, markings, phase=0.0)
        pos = rng.randint(0, n - 2)
        d0 = det([[Fraction(x) for x in row] for row in mrs.gram()])
        m1 = mrs.mutate(pos, "right")
        m2 = m1.mutate(pos, "left")
        assert m2.vectors == mrs.vectors
        assert sorted(map(abs, m2.markings)) == sorted(map(abs, mrs.markings))
        d1 = det([[Fraction(x) for x in row] for row in m1.gram()])
        assert abs(d0) == abs(d1)
        # Z-span is preserved: the change of basis is unimodular by
        # construction (elementary column operation)


def test_mutation_zero_pairing_is_transposition():
    back = MatrixBackend([[1, 0], [0, 1]])
    mrs = MarkedReflectionSystem(back, [(1, 0), (0, 1)], [1j, -1j], phase=0.0)
    m1 = mrs.mutate(0, "right")
    assert sorted(m1.vectors) == sorted(mrs.vectors)


def test_braid_smoke():
    # two standard mutation paths between opposite chambers agree up to signs
    G = [[1, 2, -1], [0, 1, 3], [0, 0, 1]]
    back = MatrixBackend(G)
    vectors = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    markings = [3j, 0j, -3j]
    mrs = MarkedReflectionSystem(back, vectors, markings, phase=0.0)
    a = mrs.mutate(0, "right").mutate(1, "right").mutate(0, "right")
    b = mrs.mutate(1, "right").mutate(0, "right").mutate(1, "right")
    ga = a.gram()
    gb = b.gram()
    n = 3
    found = False
    import itertools
    for signs in itertools.product([1, -1], repeat=n):
        ok = all(ga[i][j] == signs[i] * signs[j] * gb[i][j]
                 for i in range(n) for j in range(n))
        if ok:
            found = True
            break
    assert found


def test_left_mutation_of_OmH1_gives_exceptional_class():
    fan_plus = bl_line_p4()
    ring = build_cohomology_ring(fan_plus)
    back = KBackend(ring)
    coll = bl_line_p4_collection(ring)
    p1 = ring.divisor_by_s_index(0)
    OmH1 = KClass.line_bundle(ring, p1.scaled(Fraction(-1)), "O(-H1)")
    OmH2 = coll[2]
    c = euler_pairing_hrr(OmH2, OmH1)
    assert c == 1
    mutated = tuple(x - c * y for x, y in zip(back.flatten(OmH1.ch),
                                              back.flatten(OmH2.ch)))
    assert mutated == back.flatten(coll[0].ch)   # O_E(E - H2)


def bl_trajectory(lam0, lam1, steps, rng_seed=0):
    fam = bl_line_p4_family_lambda()
    lams = list(np.exp(np.linspace(math.log(lam0), math.log(lam1), steps)))
    return track_critical_values(fam, lams,
                                 rng=np.random.default_rng(rng_seed))


def final_mrs_for_trajectory(traj, ring, back, coll):
    """Assign the nine-term collection to branches by decreasing Im at the
    end of the (backward-oriented) trajectory start."""
    order = sorted(range(9), key=lambda b: -traj.branches[b][0].value.imag)
    vectors = [None] * 9
    labels = [None] * 9
    for pos, b in enumerate(order):
        vectors[b] = back.flatten(coll[pos].ch)
        labels[b] = coll[pos].label
    markings = [br[0].value for br in traj.branches]
    return MarkedReflectionSystem(back, vectors, markings, phase=0.0,
                                  labels=labels)


def test_example_716_backward_forward_roundtrip():
    # backward: collection at lambda = 0.0009 evolves to line bundles at 12.5
    ring = build_cohomology_ring(bl_line_p4())
    back = KBackend(ring)
    coll = bl_line_p4_collection(ring)
    traj_back = bl_trajectory(0.0009, 12.5, 201)
    mrs0 = final_mrs_for_trajectory(traj_back, ring, back, coll)
    mrs_init, events_back = evolve(mrs0, traj_back)
    # the initial system must be semiorthogonal at phase 0
    mrs_init.stokes_matrix()
    # the E-slot vector becomes O(-H1) and the F-slot becomes O(H1)
    p1 = ring.divisor_by_s_index(0)
    OmH1 = back.flatten(KClass.line_bundle(ring, p1.scaled(Fraction(-1)), "").ch)
    OH1 = back.flatten(KClass.line_bundle(ring, p1, "").ch)
    labels = {tuple(v): mrs_init.labels[i]
              for i, v in enumerate(mrs_init.vectors)}
    assert tuple(OmH1) in labels and labels[tuple(OmH1)] == "O_E(E-H2)"
    assert tuple(OH1) in labels and labels[tuple(OH1)] == "O_E(H2)[-1]"
    # forward: evolve back down and recover the collection exactly
    traj_fwd = bl_trajectory(12.5, 0.0009, 201)
    order_12 = sorted(range(9), key=lambda b: -traj_back.branches[b][-1].value.imag)
    fwd_order = sorted(range(9), key=lambda b: -traj_fwd.branches[b][0].value.imag)
    vectors = [None] * 9
    for a, b in zip(order_12, fwd_order):
        vectors[b] = mrs_init.vectors[a]
    mrs1 = MarkedReflectionSystem(back, vectors,
                                  [br[0].value for br in traj_fwd.branches],
                                  phase=0.0)
    mrs_fin, events_fwd = evolve(mrs1, traj_fwd)
    # the O(-H1) vs O(-H2) event is logged
    OmH2flat = back.flatten(coll[2].ch)
    hit = [e for e in events_fwd
           if mrs1.vectors[e.moving] == tuple(OmH1)
           and mrs1.vectors[e.pivot] == OmH2flat]
    assert hit
    # final collection equals the nine classes, matched through Im-order
    end_order = sorted(range(9),
                       key=lambda b: -traj_fwd.branches[b][-1].value.imag)
    got = [mrs_fin.vectors[b] for b in end_order]
    want = [back.flatten(c.ch) for c in coll]
    assert got == want


def _traj(params, values, log_points=None, family=None):
    """A trajectory on the trivial fibre component, one tuple of node
    values per branch (start, ..., end), as tracking stores it: one
    (branches, 2) array of log points (0 unless given as a (nodes,
    branches, 2) array) and one value array per node."""
    V = np.array(values, dtype=complex).T
    if log_points is None:
        log_points = np.zeros(V.shape + (2,), dtype=complex)
    return Trajectory(params, log_points, V, [()] * len(values), [],
                      family=family)


def _fake_traj(values):
    """A trajectory without a family at evenly spaced parameters in [0, 1],
    so crossings keep their interpolated times."""
    params = [k / (len(values[0]) - 1) for k in range(len(values[0]))]
    return _traj(params, values)


def _identity_system(markings, phase=0.0):
    n = len(markings)
    back = MatrixBackend([[1 if i == j else 0 for j in range(n)]
                          for i in range(n)])
    vectors = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    return MarkedReflectionSystem(back, vectors, markings, phase=phase)


def test_evolve_no_crossings_identity():
    back = MatrixBackend([[1, 1], [0, 1]])
    mrs = MarkedReflectionSystem(back, [(1, 0), (0, 1)], [1j, -1j], phase=0.0)
    out, events = evolve(mrs, _fake_traj([(1j, 1j), (-1j, -1j)]))
    assert not events and out.vectors == mrs.vectors


def test_evolve_simultaneous_crossing_raises():
    # branches 1 and 2 both cross the positive ray of branch 0 at s = 1/2,
    # so the two mutations share vector 0 at the same time
    values = [(0, 0), (1 - 1j, 1 + 1j), (2 - 2j, 2 + 2j)]
    mrs = _identity_system([u0 for u0, _ in values])
    with pytest.raises(errors.SimultaneousCrossing):
        evolve(mrs, _fake_traj(values))


def test_evolve_non_admissible_endpoint_raises():
    # no crossing in the step, but the final markings 0 and 1 differ by a
    # positive real, parallel to e^{i 0}
    values = [(1j, 0), (1 + 1j, 1)]
    mrs = _identity_system([u0 for u0, _ in values])
    with pytest.raises(errors.NonAdmissibleEndpoint):
        evolve(mrs, _fake_traj(values))


def test_evolve_refinement_lost_branch_raises():
    # the stored values cross the positive ray, but the family has no torus
    # critical point, so re-solving a crossing branch fails
    values = [(0, 0), (1 - 1j, 1 + 1j)]
    traj = _traj([0.0, 1.0], values,
                 family=lambda s: LGPotential([(1, 0), (0, 1)], [1, 1]))
    mrs = _identity_system([u0 for u0, _ in values])
    with pytest.raises(errors.LostBranch, match="branch 0"):
        evolve(mrs, traj)


@pytest.mark.parametrize("heights, want", [
    ((-1, 0, 1), [(0, "up", 0.5)]),
    ((1, 0, -1), [(0, "down", 0.5)]),
    ((1, 0, 1), []),
    ((-1, 0, -1), []),
    ((1, 0, 0, -1), [(0, "down", 1 / 3)]),
], ids=["up-through-node", "down-through-node", "touch-above",
        "touch-below", "two-nodes-on-ray"])
def test_evolve_crossing_through_a_node(heights, want):
    # branch 1 in front of branch 0 (real part 1) at the given heights
    # Im(u_1 - u_0) per node: exactly 0 at a node is on the ray, and the
    # signs on either side decide, not the step that reaches the node
    values = [(0,) * len(heights), tuple(1 + 1j * h for h in heights)]
    mrs = _identity_system([v[0] for v in values])
    _, events = evolve(mrs, _fake_traj(values))
    assert [(e.step, e.direction, e.at) for e in events] == want
    assert all((e.moving, e.pivot) == (0, 1) for e in events)


@pytest.mark.parametrize("branch2, error, match", [
    ((2 - 2j, 2 + 2j, 2 + 2j), errors.SimultaneousCrossing, "at step 0"),
    ((2 - 2j, 2 - 2j, 2 - 2j), errors.LostBranch,
     "branch 1 at parameter 1.0"),
], ids=["entangled-first", "lost-alone"])
def test_evolve_step_errors_raise_in_step_order(branch2, error, match):
    # the P^2 mirror at q = 1 throughout, seeded at its three critical
    # points, so re-solved values never change and each crossing keeps its
    # interpolated time.  Branch 1 crosses the ray of branch 0 in step 0
    # and back in step 1, where its seed is not finite, so that refinement
    # loses it; when branch 2 crosses that ray with branch 1 in step 0, the
    # entangled step 0 raises first
    F = pn_mirror(2, 1.0)
    values = [(0, 0, 0), (1 - 1j, 1 + 1j, 1 - 1j), branch2]
    L = np.array([[np.full(2, 2j * math.pi * b / 3) for b in range(3)]] * 3)
    L[1, 1] = complex(np.nan)       # node 1 of branch 1
    traj = _traj([0.0, 1.0, 2.0], values, L, family=lambda s: F)
    with pytest.raises(error, match=match):
        evolve(_identity_system([v[0] for v in values]), traj)


def test_verify_orlov_evolution_abstract_cyclic():
    # abstract mode: d critical values of the cyclic chart, 2 convergent
    d = 5
    J = d - 2
    back = MatrixBackend([[1 if i == j else 0 for j in range(d)]
                          for i in range(d)])
    markings = [0.1, -0.12]
    for m in range(J):
        gamma = 2.0 * cmath.exp(1j * (math.pi + 2 * math.pi * m) / J)
        markings.append(J * gamma)
    vectors = [tuple(1 if k == i else 0 for k in range(d)) for i in range(d)]
    mrs = MarkedReflectionSystem(back, vectors, markings, phase=0.0)
    report = verify_orlov_evolution(mrs, rank_minus=2, rank_center=1, J=J)
    assert len(report["convergent"]) == 2
    assert len(report["clusters"]) == J


def test_verify_orlov_evolution_blockmismatch():
    back = MatrixBackend([[1, 0], [0, 1]])
    mrs = MarkedReflectionSystem(back, [(1, 0), (0, 1)], [0.1, 5.0],
                                 phase=0.0)
    with pytest.raises(BlockMismatch):
        verify_orlov_evolution(mrs, rank_minus=1, rank_center=1, J=2)

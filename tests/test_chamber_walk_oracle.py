"""The chamber walk and Sigma_0 against the probe walk and the subset scan
they replaced (`chamber_walk_oracle.py`): the same fans in the same order,
the same walls with the same normals, and the same cells of Sigma_0 on every
wall, over seeded vector sets in ranks 2 to 4, with a torsion lattice and
sets holding a vector v beside 2v."""
import random

import pytest

import chamber_walk_oracle
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.rational import idot
from toriclg.secondary import (enumerate_adapted_fans, pl_cone_data,
                               sigma0_max_cones, wall_between)


def seeded_sets(seed, count):
    """`count` (lattice, vectors) with rank n in 2..4 and n + 2 to
    min(n + 3, 6) nonzero vectors, entries in [-2, 2]; every other set adds
    2v for its first vector v (the subset scan of Sigma_0 takes 2^|S| cones
    a wall, so |S| stays at most 7)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = (2, 3, 4)[len(out) % 3]
        size = min(n + rng.randint(2, 3), 6)
        vecs = set()
        while len(vecs) < size:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                vecs.add(v)
        vecs = sorted(vecs)
        if len(out) % 2 == 0:
            vecs.append(tuple(2 * x for x in vecs[0]))
        try:
            VectorSet(AbelianLattice(n), vecs)
        except ValueError:
            continue
        out.append((AbelianLattice(n), vecs))
    return out


SETS = seeded_sets(46, 21) + [
    (AbelianLattice(2, (2,)), [((0, -1), (0,)), ((0, 1), (1,)),
                               ((1, -2), (1,)), ((2, 2), (0,)),
                               ((-1, 1), (1,))]),
]
IDS = [f"rank{lat.rank}-{len(vecs)}" + ("-torsion" if lat.torsion else "")
       + f"-{i}" for i, (lat, vecs) in enumerate(SETS)]


def walked(lattice, vecs):
    return enumerate_adapted_fans(VectorSet(lattice, vecs))


def test_the_sample_has_every_kind_of_set():
    ranks = [lat.rank for lat, _ in SETS]
    assert len(SETS) >= 20 and {2, 3, 4} <= set(ranks)
    assert any(lat.torsion for lat, _ in SETS)
    parallel = [vecs for _, vecs in SETS
                if any(tuple(2 * x for x in v) in vecs for v in vecs)]
    assert len(parallel) >= 10
    # and the walks are not trivial
    chambers = [len(walked(lat, vecs)[0]) for lat, vecs in SETS]
    assert sum(c >= 5 for c in chambers) >= 10


@pytest.mark.parametrize("lattice,vecs", SETS, ids=IDS)
def test_walk_matches_the_probe_walk(lattice, vecs):
    fans, walls = walked(lattice, vecs)
    want_fans, want_walls = chamber_walk_oracle.probe_walk(
        VectorSet(lattice, vecs))
    assert [f.key() for f in fans] == [f.key() for f in want_fans]
    assert walls == want_walls


@pytest.mark.parametrize("lattice,vecs", SETS, ids=IDS)
def test_wall_normals_are_oriented_and_sigma0_matches_the_scan(lattice,
                                                               vecs):
    fans, walls = walked(lattice, vecs)
    for a, b, g in walls:
        assert a < b
        assert all(idot(g, rr) >= 0 for rr in pl_cone_data(fans[a]).cpl.rays)
        assert all(idot(g, rr) <= 0 for rr in pl_cone_data(fans[b]).cpl.rays)
        wall = wall_between(fans[a], fans[b])
        assert g in (wall.w, tuple(-x for x in wall.w))
        cells = [I for I, _ in sigma0_max_cones(wall)]
        assert len(cells) == len(set(cells))
        assert set(cells) == chamber_walk_oracle.subset_scan_sigma0(wall)

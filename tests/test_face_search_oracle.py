"""The one-batch face test of `lg.newton_nondegenerate` against the
Gauss-Newton face search it replaced (`tests/face_search_oracle.py`): the
same verdict on every proper face."""
import cmath

import numpy as np
import pytest

from toriclg import lg
from toriclg.families import bl_line_p4_potential, pn_mirror
from toriclg.lg import LGPotential

import face_search_oracle as oracle


def _verdicts(module, F):
    ok, report = module.newton_nondegenerate(F, rng=np.random.default_rng(3))
    faces = {tuple(r["face"]): r["degenerate"] for r in report}
    assert ok == (not any(faces.values()))
    return faces


def _same_verdicts(F):
    got = _verdicts(lg, F)
    assert got == _verdicts(oracle, F)
    return got


def _square_edges():
    """(a x + b y)^2 + c / (x y) for random complex a, b, c: the edge
    x^2, xy, y^2 is degenerate; its middle coefficient moved by a generic
    factor makes it non-degenerate."""
    rng = np.random.default_rng(5)
    out = []
    for _ in range(4):
        a, b, c = rng.uniform(0.3, 2.0, 3) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, 3))
        for nudge in (1.0, 1.0 + 0.05 * rng.uniform(0.5, 1.0)):
            out.append((LGPotential([(2, 0), (1, 1), (0, 2), (-1, -1)],
                                    [a * a, 2 * a * b * nudge, b * b, c]),
                        nudge == 1.0))
    return out


@pytest.mark.parametrize("F, degenerate", _square_edges())
def test_square_edges(F, degenerate):
    faces = _same_verdicts(F)
    assert faces[(0, 1, 2)] == degenerate
    assert sum(faces.values()) == degenerate


def test_square_of_a_plane():
    # (x + y + z)^2 + 1/(xyz): the 2-face of the six quadratic terms is
    # degenerate along the surface x + y + z = 0, and so is each edge
    # (x + y)^2 of it and every face through one
    F = LGPotential([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1),
                     (0, 1, 1), (-1, -1, -1)], [1, 1, 1, 2, 2, 2, 0.7])
    faces = _same_verdicts(F)
    assert faces[(0, 1, 2, 3, 4, 5)] and faces[(0, 1, 3)]
    assert not faces[(0, 6)]


@pytest.mark.parametrize("F", [pn_mirror(2, q) for q in (1.0, 0.3, -2.0 + 1j)]
                         + [bl_line_p4_potential(lam, t) for lam, t in
                            ((0.8, 1.1), (2.0 - 0.5j, 0.7))],
                         ids=["p2-1", "p2-0.3", "p2-complex", "bl-real",
                              "bl-complex"])
def test_mirror_potentials(F):
    assert not any(_same_verdicts(F).values())


@pytest.mark.parametrize("c0, c2", [(1.0, 1.0), (2.0, 0.5 + 0.5j),
                                    (-0.3 + 1j, 1.7)])
def test_three_point_edge_closed_form(c0, c2):
    # y (c0 + c1 x + c2 x^2), an edge of conv{(0, 1), (2, 1), (-1, -1)}:
    # degenerate iff the quadratic has a double root, c1^2 = 4 c0 c2
    double = 2 * cmath.sqrt(c0 * c2)
    for c1, degenerate in ((double, True), (-double, True),
                           (1.01 * double, False), (double + 0.1j, False)):
        F = LGPotential([(0, 1), (1, 1), (2, 1), (-1, -1)],
                        [c0, c1, c2, 1.0])
        assert _same_verdicts(F)[(0, 1, 2)] == degenerate

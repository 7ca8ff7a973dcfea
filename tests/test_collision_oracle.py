"""`lg._locate_collision` against the one-probe-at-a-time golden section
kept in `tests/collision_oracle.py`.

The lockstep search solves the probes of the next COLLISION_LOOKAHEAD moves
as one stack and then walks the real path, so it must return the oracle's
parameter bit for bit (`float.hex`) at any lookahead, while making a third
of the solves.  The paths are the `bl_line_p4` family's through its
discriminant lambda* = 400 sqrt(5) i / 3^9: the discriminant probe (lambda
= i s, s in [0.02, 0.08], 61 steps) and two straight lines crossing it
along other directions, whose brackets straddle the collision at 0.  The
real path of `toriclg mutate` on `bl-line-p4.json` meets no discriminant
and makes no collision search, and neither does any other shipped
scenario's `track`.
"""
import math

import numpy as np
import pytest

import collision_oracle as oracle
from toriclg import lg
from toriclg.families import bl_line_p4_family_lambda

STAR = 400j * math.sqrt(5) / 3 ** 9
PATHS = {"discriminant-probe": (lambda s: 1j * s, (0.02, 0.08, 61)),
         "diagonal": (lambda u: STAR + (1 + 1j) * u, (-0.01, 0.01, 41)),
         "real-offset": (lambda u: STAR + u, (-0.01, 0.01, 41))}


@pytest.fixture(scope="module")
def searches():
    """The arguments of every collision search of each path."""
    fam = bl_line_p4_family_lambda()
    locate = lg._locate_collision
    out = {}
    for name, (lam, grid) in PATHS.items():
        calls = out[name] = []

        def recorded(traj, k_enter, k_exit):
            # the search reads steps up to k_exit, which later steps leave
            # as they are
            calls.append((traj, k_enter, k_exit))
            return locate(traj, k_enter, k_exit)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lg, "_locate_collision", recorded)
            lg.track_critical_values(lambda s, lam=lam: fam(lam(s)),
                                     list(np.linspace(*grid)),
                                     rng=np.random.default_rng(3))
    return out


def _hex(s):
    s = complex(s)
    return s.real.hex(), s.imag.hex()


@pytest.mark.parametrize("lookahead", [1, 2, 3, 4])
@pytest.mark.parametrize("path", list(PATHS))
def test_parameter_is_the_sequential_one(searches, path, lookahead,
                                         monkeypatch):
    monkeypatch.setattr(lg, "COLLISION_LOOKAHEAD", lookahead)
    assert searches[path]
    for args in searches[path]:
        assert _hex(lg._locate_collision(*args)) == _hex(
            oracle.locate_collision(*args))


def _count_solves(monkeypatch):
    rows = []
    solve = lg._newton_solve

    def counted(F, L0, C, **kw):
        rows.append(len(C))
        return solve(F, L0, C, **kw)
    monkeypatch.setattr(lg, "_newton_solve", counted)
    return rows


def test_a_third_of_the_solves(searches, monkeypatch):
    # the oracle: two probes, then one per move (37 moves); lockstep at
    # K = 3: the two probes with the first move's two candidates, then 7
    # parameters (3 moves) per stack, the last move's unread probe skipped
    assert lg.COLLISION_LOOKAHEAD == 3
    rows = _count_solves(monkeypatch)
    args, = searches["discriminant-probe"]
    oracle.locate_collision(*args)
    assert rows == [4] * 39
    rows.clear()
    lg._locate_collision(*args)
    assert len(rows) == 13 and rows[0] == 4 * 4 and max(rows) == 4 * 7
    for args in searches["diagonal"] + searches["real-offset"]:
        rows.clear()
        oracle.locate_collision(*args)
        sequential = len(rows)
        rows.clear()
        lg._locate_collision(*args)
        assert len(rows) <= sequential // 3 + 1


@pytest.mark.parametrize("past_entry", [0, 1], ids=["last-step", "open"])
def test_collision_open_at_the_end_is_located(searches, past_entry):
    # the discriminant probe cut inside the collision neighbourhood, at the
    # step that enters it or one later: the collision is still logged, at
    # the step that entered it, located up to the path's last parameter
    (traj, k_enter, k_exit), = searches["discriminant-probe"]
    end = k_enter + 1 + past_entry      # index of the last parameter
    assert end < k_exit
    lam = PATHS["discriminant-probe"][0]
    fam = bl_line_p4_family_lambda()
    cut = lg.track_critical_values(lambda s: fam(lam(s)),
                                   traj.params[:end + 1],
                                   rng=np.random.default_rng(3))
    coll = [e for e in cut.events
            if e["kind"] == "collision_near_discriminant"]
    assert [e["step"] for e in coll] == [k_enter]
    assert _hex(coll[0]["param"]) == _hex(
        oracle.locate_collision(cut, k_enter, end))

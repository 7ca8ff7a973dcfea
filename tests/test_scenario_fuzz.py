"""Seeded scenario fuzzing, after Miller, Fredriksen and So 1990 (An
empirical study of the reliability of UNIX utilities, CACM 33(12)).

Each case takes a shipped scenario, deletes one or two of its fields or
replaces them with junk (null, a wrong type, NaN, +-10^9, an empty list or
object, a bad expression), and runs a random subcommand on it in process
through `cli.main`.  Every run must exit 0, 1 or 2 with no exception
escaping `main` and within a per-case alarm, and an exit 2 must print one
`Class: message` line on stderr.  The cases are fixed by the seed.
"""
import copy
import glob
import json
import os
import random
import re
import signal

import pytest

from toriclg.cli import COMMANDS, main

SCN = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SEED = 1990
CASES = 200
ALARM_S = 10
DELETE = object()
JUNK = (DELETE, None, "x", True, 0.5, float("nan"), 10 ** 9, -10 ** 9, [], {},
        [1, 2], "lam^", "(lam", "1/0", "lam^(2/3) + q")


def field_path(doc, rng):
    """A random key path into doc: a random key at each level, stopping
    there with probability 1/2 or where nothing is below, so each field
    name, not each leaf, is about as likely as its siblings."""
    path, node = (), doc
    while isinstance(node, (dict, list)) and node:
        key = rng.choice(list(node) if isinstance(node, dict)
                         else range(len(node)))
        path, node = path + (key,), node[key]
        if rng.random() < 0.5:
            break
    return path


def mutated(doc, rng):
    """doc with one or two fields deleted or replaced by junk."""
    for _ in range(rng.choice((1, 2))):
        path = field_path(doc, rng)
        if not path:
            break
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        junk = rng.choice(JUNK)
        if junk is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(junk)
    return doc


def cases():
    rng = random.Random(SEED)
    shipped = sorted(glob.glob(os.path.join(SCN, "*.json")))
    out = []
    for i in range(CASES):
        path = rng.choice(shipped)
        with open(path) as fh:
            doc = json.load(fh)
        command = rng.choice(sorted(COMMANDS))
        name = os.path.basename(path)[:-len(".json")]
        out.append((f"{i}-{command}-{name}", command, mutated(doc, rng)))
    return out


CASE_LIST = cases()


class Hang(Exception):
    pass


def _alarm(signum, frame):
    raise Hang


@pytest.mark.parametrize("command, doc", [c[1:] for c in CASE_LIST],
                         ids=[c[0] for c in CASE_LIST])
def test_mutated_scenario_exits_cleanly(tmp_path, capsys, command, doc):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        rc = main([command, "--scenario", str(scenario),
                   "--out", str(tmp_path / "out")])
    except Hang:
        pytest.fail(f"{command} still running after {ALARM_S} s on "
                    f"{json.dumps(doc)}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    if rc == 2:
        assert re.fullmatch(r"[A-Za-z]+: .+\n", err), err

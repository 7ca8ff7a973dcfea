"""Byte identity of `critical` and `track` output at `--seed 0`.

Each digest is the sha256 of one output file, recorded before the potential
families shared one layout per family (chart data and the Bernstein bound
computed once).  A refactor of the numerics must leave every file unchanged.
The digests pin the floating-point results of the numpy build they were
recorded with (numpy 2.4.6 on x86-64); another numpy build or CPU may
round a Newton iterate differently in the last bit, and then these digests
move although the program did not change.
"""
import hashlib
import os

import pytest

from toriclg.cli import main

SCN = os.path.join(os.path.dirname(__file__), "..", "scenarios")

DIGESTS = {
    ("critical", "a1"): {
        "critical.json": "852fa8905b02b99b5fe1cd36590271feb0169a350f886c0e7b9097c4001075af"},
    ("track", "a1"): {
        "events.json": "33a39e7777d2db9c26be564759c7a92a597b863c9adaec115aa93d8210a6935a",
        "trajectory.csv": "a60b4a86a0b438ce224c07094f8ff4e5ac2133a2f7c862bcddad1bd362dfa0ad"},
    ("critical", "blowup-c2"): {
        "critical.json": "25b04120f5d5a337bbb86a62595c9c1d3c5f0e4a8eb24b64239432f0ec0476d6"},
    ("track", "blowup-c2"): {
        "events.json": "f40b65c1901699680b94f60fc48cb3de03bfb7b45e71b1fa2971e62632524e81",
        "trajectory.csv": "9aa2d45f737f6f78a931c7083c6b46cf02fd2d0ce4fa3b697e83238e55e1acf1"},
    ("critical", "cyclic-d3"): {
        "critical.json": "bd9a18b3bcafc338b099d2c7ee2073025c58576f75d47b1b204b466409971305"},
    ("track", "cyclic-d3"): {
        "events.json": "c5eba1578ac48ab692b8907cf65309a84b8aef2ffd7a71861cb34eb88b152ece",
        "trajectory.csv": "a3c847ab5b337fdd7337b8af28fc46901c494ead72d446a3a7d26a9d6766580c"},
    ("critical", "cyclic-d4"): {
        "critical.json": "afebcf39931da516bc183ba1f07f23533d6ba2e64da841cd69bde09a6f7edab0"},
    ("track", "cyclic-d4"): {
        "events.json": "405e638287c4c408484f64bc54020f935b993e1802d1dd52d61d1d5c7b75b49f",
        "trajectory.csv": "e47032a2863b90f0f71ecd5158f673653819d6dbad46b53ebb35f0d39742c21c"},
    ("critical", "cyclic-d5"): {
        "critical.json": "84e90acbf2460856ef5277b04920d6ff7666a8ec6fd745f44a1ce165764192db"},
    ("track", "cyclic-d5"): {
        "events.json": "4a440a08a99cc7f351b581c8e811b81f8d4402a8897d47217a5df4040d04aa1b",
        "trajectory.csv": "1a1f6cd2401a9b5d4349e65a212dfd549ee5d1e2e79692acf5fbae2a0070510d"},
    ("critical", "p2"): {
        "critical.json": "713b2d1afdf4b9acd166563b99772ee3f8fff6549aa3851e690cb6d2b00f00d5"},
    ("track", "p2"): {
        "events.json": "640b9629d7ee0b643359cefe7e43b021ece922e84d756315ecfa7df2fbbdb655",
        "trajectory.csv": "dc2ce8b91192e7fc3ee7d3840a2a649699422a7b99eabb3df4b695ba241fd47d"},
    ("critical", "bl-line-p4"): {
        "critical.json": "dc3f05c5ea3fc0d6e73b1a30ad732034421e310452251bc97c4ba74c82611c9d"},
    ("track", "discriminant-probe"): {
        "events.json": "19408e958de4ad176d211263d3e181bc177ae06e65c3d556300cd7a6a2d8e072",
        "trajectory.csv": "0493c6778c5cf1d938a0a9e2b3a5e7082be4dde560711c13151e5a228b24dd8c"},
}


@pytest.mark.parametrize("command,scenario", sorted(DIGESTS),
                         ids=[f"{c}-{s}" for c, s in sorted(DIGESTS)])
def test_output_bytes_pinned(tmp_path, command, scenario):
    rc = main([command, "--scenario", os.path.join(SCN, scenario + ".json"),
               "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in sorted(os.listdir(tmp_path))}
    assert got == DIGESTS[command, scenario]

"""Byte identity of CLI output at `--seed 0`.

Each digest is the sha256 of one output file.  The `critical` and `track`
digests were recorded before the potential families shared one layout per
family (chart data and the Bernstein bound computed once): a refactor of
the numerics must leave every file unchanged.  They pin the floating-point
results of the numpy build they were recorded with (numpy 2.4.6 on x86-64);
another numpy build or CPU may round a Newton iterate differently in the
last bit, and then these digests move although the program did not change.

The `fans`, `wallcross` and `gkz` digests cover every shipped scenario on
which the command exits 0.  They were recorded before the chamber cone
cpl(Sigma) was built in rank dimensions from per-cone complements: a change
to the combinatorics must keep the chamber order, the walls, the wall
kinds and every exact GKZ number, and these outputs are exact, so they do
not depend on the numpy build.

The `orlov`, `euler` and `mutate` digests were recorded before the Smith
form left the integer kernel and the Box enumeration, so every subcommand
now has pinned output on a shipped scenario.  The `orlov` Gram matrix,
the exact `euler` Gram matrices and the `mutate` events, final collection
and Gram matrix must not move under a change to the exact kernel, the
K-theory ring or the mutation bookkeeping.  The `euler` file also holds
the float deviation of the Gamma pairing from the exact one, and `mutate`
the float crossing parameters of its track, so those two digests carry
the same numpy-build caveat as `critical` and `track`.

The `euler` digests of the scenarios without an `euler` section (each
runs the default varieties), `critical` on `discriminant-probe` and
`track` on `bl-line-p4` complete the runs that exit 0.  Every other run
of the 8 subcommands on the 9 shipped scenarios exits 2, and `EXIT_2`
pins its one stderr line; `test_every_run_is_pinned` checks that the two
tables together cover all 72 runs.
"""
import glob
import hashlib
import os

import pytest

from toriclg.cli import COMMANDS, main

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
    ("fans", "a1"): {
        "fans.json": "5dd0efa8726129be956f2c825553123ae8fe676732943c46c8bb356be2df109c"},
    ("fans", "bl-line-p4"): {
        "fans.json": "d4392522c0bc67c1e4bb738d74f60d9965b6ac1f7c5e90b1a64538b53c01ceca"},
    ("fans", "blowup-c2"): {
        "fans.json": "9c4c6e0a5a1103207ff853e49963c955b48660eb6558c2832cfca030e85bcdf0"},
    ("fans", "cyclic-d3"): {
        "fans.json": "0a05c2703ada158b8ea728af52c4af1d3c34a62eb850ecdcc961259ed0ae0ca9"},
    ("fans", "cyclic-d4"): {
        "fans.json": "702c5be685122c9244dd9180ccd31f1d68bee18ae90ad0fe3a19b68e8ce3c211"},
    ("fans", "cyclic-d5"): {
        "fans.json": "06605bbfe711fe8aeb643379d809e99dcea07aad2cbc0e6500dd8e7e6280aa0e"},
    ("fans", "p2"): {
        "fans.json": "42902c546b089edda3f3c8c9939de443edbb01e6b2acc2f886ed7cbf8c7aee52"},
    ("wallcross", "a1"): {
        "wallcross.json": "2f1ef234b1fc72871436c803752654e63ad4737e6fba1f93bc48f5edf77b8a94"},
    ("wallcross", "bl-line-p4"): {
        "wallcross.json": "f293a673cd99bccff19b58da7e7150d69a4177918532fe0d85b475a8bfc25b41"},
    ("wallcross", "blowup-c2"): {
        "wallcross.json": "5b8f3b271a6d4ef4696a08ac5104ac56d48d010d9c1b42a2b60db8abf7ead83e"},
    ("wallcross", "cyclic-d3"): {
        "wallcross.json": "0d2d8f86b314f4e784a0e54becdd3d82755dbdc4c8caba4b0bf6087d059c1440"},
    ("wallcross", "cyclic-d4"): {
        "wallcross.json": "5bdc4b349f26f5b0c831851b59c9b32b36e45e1086c12178669c12ccc8b57d90"},
    ("wallcross", "cyclic-d5"): {
        "wallcross.json": "4f50e1e59f0df1027458698e9089266dc606ad42d8fff2c8ac967080252d25ca"},
    ("gkz", "a1"): {
        "gkz.json": "117a420ce8dc983c8a40eefbe533f737d3408784662da08f91edbbebe1b7ff1e"},
    ("gkz", "bl-line-p4"): {
        "gkz.json": "320ebd77d8f466226107ef51b97ed3344a066a341fd717e4e383628f54ee1c69"},
    ("gkz", "blowup-c2"): {
        "gkz.json": "b4d007834d76ae402ba210f42c5b6f772d1c4722d0956b65904f1d3d59c052ef"},
    ("gkz", "cyclic-d3"): {
        "gkz.json": "83949f3d800e01250b5bf372e20a760f546b7ebb2eecfa3b36037134303f0b2b"},
    ("gkz", "cyclic-d4"): {
        "gkz.json": "6d6b409300fa24582439ae8d69c77d05ebe8cfff3d6df80c3df1244eee8ae8e6"},
    ("gkz", "cyclic-d5"): {
        "gkz.json": "5512006d5c5823c99bed1046ac479e763d62c09b0ba68c1866e73170106f4705"},
    ("gkz", "discriminant-probe"): {
        "gkz.json": "c71810dfb18ee4637d40e5f262552a73b9371bbe2308458bacce7041377caffd"},
    ("gkz", "euler-gram"): {
        "gkz.json": "7a861bf63b6ee1aa82c440ebec3fcb2ac4aecf5e815ea6144b2624e50a6dd812"},
    ("gkz", "p2"): {
        "gkz.json": "4f108a3c6e0f54b6a712d6621c33f08e1e81b352231e26da9f11335a7dc30e0b"},
    ("orlov", "bl-line-p4"): {
        "orlov.json": "5fa6413921db14542c1775bc95f458e6505177cc9df134d0bdf54c2fa894fe2d"},
    ("euler", "euler-gram"): {
        "euler.json": "c66a0ca35bf4bf0d1e6f311ef5ae654ec28f0fa2f63228c27bb98d211d63b619"},
    ("mutate", "bl-line-p4"): {
        "mutate.json": "ac71c694e713e41181226298ae230af31becaca3543e8ac3be7ab5c5aabc9850"},
    ("euler", "a1"): {
        "euler.json": "5a7760a5db2de83798a5e02ea3998c9fd7a8e4f27decdf4ef4e696faeff41ad7"},
    ("euler", "bl-line-p4"): {
        "euler.json": "a85bfd578cef64b63a0dd534c0bd0fc7e2fe8d99ea249d8efeb513f45ceb6771"},
    ("euler", "blowup-c2"): {
        "euler.json": "d6990f587339cdd24e57c7b32ef4641fe299c5fa2bb2954984a28bfbb9bab51b"},
    ("euler", "cyclic-d3"): {
        "euler.json": "e5fd9476291505e55612a64cfa3f02dbc172bb14f3a684c91bcd1802667b64d5"},
    ("euler", "cyclic-d4"): {
        "euler.json": "5a3d6527203da6c80289594b3e6690b002a96ed019a11850b6fa71aad3571476"},
    ("euler", "cyclic-d5"): {
        "euler.json": "3cd448cc0fc8f8cf0fc516f6d63ad2c2af52c1137f55ea5be1637984d6c39973"},
    ("euler", "discriminant-probe"): {
        "euler.json": "b0d0b5923b836f4f4a93d0eadf90216f534a61c1c4ffd5549254e6759c29a811"},
    ("euler", "p2"): {
        "euler.json": "6ace3f7d720c76a1172adea4f6b184e75990c15945b0017f46e15eb7f1e9318e"},
    ("critical", "discriminant-probe"): {
        "critical.json": "3276e34527e5545d975fded233ce2891f3fe17c61da92a1bd5f294d9331b252f"},
    ("track", "bl-line-p4"): {
        "events.json": "ec9ca22cde2c62d8083bdd66a0de8336451a3fa51b94d5e181f44d2bc1e29181",
        "trajectory.csv": "5bd8529157c5a97f419ce0989bf7745be812121678f4172fa8ba6eef866c4f7f"},
}

NO_POTENTIAL = "ScenarioError: scenario has no potential"
NO_LATTICE = "ScenarioError: scenario has no lattice/S data"
MUTATE_PRESET = "ScenarioError: mutate currently ships the bl_line_p4 preset"
NO_ORLOV_WALL = "RankMismatch: Orlov data requires a type II-i or III wall"
NO_WALLS = "NotAdjacent: no walls in the secondary fan"

EXIT_2 = {
    ("critical", "euler-gram"): NO_POTENTIAL,
    ("track", "euler-gram"): NO_POTENTIAL,
    ("fans", "discriminant-probe"): NO_LATTICE,
    ("fans", "euler-gram"): NO_LATTICE,
    ("wallcross", "discriminant-probe"): NO_LATTICE,
    ("wallcross", "euler-gram"): NO_LATTICE,
    ("wallcross", "p2"): NO_WALLS,
    ("orlov", "a1"): NO_ORLOV_WALL,
    ("orlov", "blowup-c2"): "NotComplete: ring requires a complete fan",
    ("orlov", "cyclic-d3"): NO_ORLOV_WALL,
    ("orlov", "cyclic-d4"): NO_ORLOV_WALL,
    ("orlov", "cyclic-d5"): NO_ORLOV_WALL,
    ("orlov", "discriminant-probe"): NO_LATTICE,
    ("orlov", "euler-gram"): NO_LATTICE,
    ("orlov", "p2"): NO_WALLS,
    **{("mutate", s): MUTATE_PRESET
       for s in ("a1", "blowup-c2", "cyclic-d3", "cyclic-d4", "cyclic-d5",
                 "discriminant-probe", "euler-gram", "p2")},
}


def test_every_run_is_pinned():
    scenarios = {os.path.basename(p)[:-len(".json")]
                 for p in glob.glob(os.path.join(SCN, "*.json"))}
    runs = {(c, s) for c in COMMANDS for s in scenarios}
    assert len(runs) == 72
    assert not set(DIGESTS) & set(EXIT_2)
    assert set(DIGESTS) | set(EXIT_2) == runs


@pytest.mark.parametrize("command,scenario", sorted(DIGESTS),
                         ids=[f"{c}-{s}" for c, s in sorted(DIGESTS)])
def test_output_bytes_pinned(tmp_path, command, scenario):
    rc = main([command, "--scenario", os.path.join(SCN, scenario + ".json"),
               "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in sorted(os.listdir(tmp_path))}
    assert got == DIGESTS[command, scenario]


@pytest.mark.parametrize("command,scenario", sorted(EXIT_2),
                         ids=[f"{c}-{s}" for c, s in sorted(EXIT_2)])
def test_exit_2_pinned(tmp_path, capsys, command, scenario):
    rc = main([command, "--scenario", os.path.join(SCN, scenario + ".json"),
               "--out", str(tmp_path), "--seed", "0"])
    out, err = capsys.readouterr()
    assert (rc, out, err.splitlines()[-1:]) == \
        (2, "", [EXIT_2[command, scenario]])
    assert os.listdir(tmp_path) == []

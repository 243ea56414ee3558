"""Report bodies pinned by digest.

Each case runs the CLI with a fixed configuration, drops the `timings`
block (the only part of a report allowed to vary between runs) and
compares the sha256 of the canonical JSON body with a recorded value.  A
refactor that keeps behaviour must keep these digests; a change that alters
a body on purpose updates the digest and says so in CHANGES.md.

One more case pins the result of the 2-eps dichotomy (no CLI mode runs
it) the same way, through `harness.structure_result_dict` with its
records beside it, and two pin
the whole stdout of `stats` and `bohr`, which print no timings.

Only exact paths are pinned here: 2-group transforms are integer Walsh
transforms and the chosen verify suites count exactly.  Bodies on general
groups carry float DFT values that may move between numpy versions.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from addcomb import setstat
from addcomb.cli import main
from addcomb.families import make_planted
from addcomb.fileio import write_set
from addcomb.groups import boolean_group
from addcomb.harness import structure_result_dict
from addcomb.setstat import group_set
from addcomb.structure import certify_difference_subset

PINNED = {
    "example-h-lambda": "846d5574221f3c2fa0e7f506e497c6d2a69d2149c369b48b9e699c1c5bc56369",
    "structure-h-lambda": "24598437d28dece62653fd43b995be077d57eb7c4726d53dd881f6fb6385e2ea",
    "dichotomy-planted-f2-12": "63b613d06babbbc5bdcbb2c624de95ca97a7f1d3db1f88fbdd07f4922a34f40e",
    "structure-bohr-planted-f2-12": "740e7efc1b9ec7f87e978891b9fe5e871f8e1cbe4de2d523b5d98c591d88d28c",
    "structure-b-half-planted-f2-12": "c170146909c322719ec6fd55f5ce75db2210548871f1bcecaa8eeb1c89aca820",
    "verify-seed-7": "8499cbb4cfe2d001f9fbf42a168291f0be9a9c546d4c252a623f5b37d1bc3cf7",
    "verify-kk-Z4xZ6": "2836e7cfef2e2021e564f4df40ddfab3f2d0521c2ad5b384e70e8966d6e97cb2",
    "verify-kk-F2^5": "b7e3833b1606688ce6fba09ed7fe0cd78e6d3e1c0b55f3c5a162d3aa46ad89fb",
    "verify-parseval-F2^8": "a6ee3a11c77df0399ae78e59fff529466f046885ec945d267dca0aed978598a9",
    "verify-multiblock-F2^6": "50beb037ce451ca51415280d3b84ce159898bdaad214e4694e4c01c2b7635b1f",
    "verify-multiblock-Z24": "d5f7a6107937e266492694021d3666743960775d3d6b4780c5a5c7b6c7c79c97",
    "certify-2eps-subgroup-f2-12": "91e8b5cc3a30a2ee714f9a68ffa547700cf50e3d15605f68525cf96d336617c7",
    "h-lambda-seed-0": "76ab65369b8ccb21854267a571d7691f5463a2089efe4baea7d1a6cd8fa5f30c",
    "h-lambda-seed-1": "5fb88f145e410c05b704c872d3df021491615ca252a9e50ac40b7c4c5968e483",
    "h-lambda-seed-2": "d725cca12fa977da38242914d31f6d9d51adc243346001cb7a46220cf0ba1dc5",
    "h-lambda-seed-3": "4139e11a3b6c153f538c61637d381e72d1222ed4948ecc302fdef482300b5fb2",
    "h-lambda-seed-7": "b0842cab1f79012d685ae6e258f08ca864e97791566aec58fc50aabca6f90809",
    "planted-seed-1": "88c0de148b2023a21af4474352fd56d2b81de9f506fa78677ae53da433fb0cd3",
    "planted-seed-2": "356ddcda8285c103b7bb2fc294d3cc9d16699ed010fb582f4087e88eddb084ea",
    "planted-seed-5": "900156e9c4be60ca6baefb134ab26508cc4324abd94647edc61ef609e3cddf00",
    "stats-h-lambda": "de0877e64abf7fd7f033b5ee8fe82cf77b8ad3246bb587c293a1d28c6e5474c6",
    "bohr-Z101": "350c92fa34127c453962a02adb285b8130f0d45c447359eaf31ee9ba7e3c3a18",
}


def _body_digest(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        body = json.load(fh)
    body.pop("timings", None)
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def in_tmp(tmp_path, monkeypatch, capsys):
    # structure reports name their set file, so run on relative paths
    monkeypatch.chdir(tmp_path)
    yield tmp_path
    capsys.readouterr()


def test_readme_pair_bodies_are_pinned(in_tmp):
    args = ["example", "h-lambda", "--n", "8", "--k", "3", "--lambda", "5"]
    assert main(args + ["--set-out", "A.txt", "--out", "ex.json"]) == 0
    assert main(["structure", "A.txt", "--out", "st.json"]) == 0
    assert _body_digest("ex.json") == PINNED["example-h-lambda"]
    assert _body_digest("st.json") == PINNED["structure-h-lambda"]


def test_dichotomy_body_on_planted_f2_12_is_pinned(in_tmp):
    inst = make_planted(boolean_group(12), subgroup_dim=4, cosets=2, noise=0, seed=3)
    write_set("P.txt", inst.set)
    assert main(["structure", "P.txt", "--mode", "dichotomy", "--out", "d.json"]) == 0
    assert _body_digest("d.json") == PINNED["dichotomy-planted-f2-12"]


def test_bohr_body_on_planted_f2_12_is_pinned(in_tmp):
    # the regular Bohr piece on a 2-group: its attempt with its radius
    # sufficiency, and its span mass, every one an exact count
    inst = make_planted(boolean_group(12), subgroup_dim=4, cosets=2, noise=0, seed=3)
    write_set("P.txt", inst.set)
    assert main(["structure", "P.txt", "--mode", "bohr", "--out", "b.json"]) == 0
    with open("b.json", "r", encoding="utf-8") as fh:
        result = json.load(fh)["results"][0]["result"]
    assert result["kind"] == "BohrPiece"
    assert (result["witness"]["dim"], result["witness"]["size"]) == (7, 32)
    assert {"attempts", "spectral_mass", "dim_bound"} <= set(result["diagnostics"])
    assert result["diagnostics"]["attempts"][0]["sufficiency"]["ok"] is True
    assert _body_digest("b.json") == PINNED["structure-bohr-planted-f2-12"]


def test_a_b_run_counts_a_plus_b_once_and_keeps_its_body(in_tmp, monkeypatch):
    # derive_params and check_hypotheses both read |A+B|; B is every other
    # member of the planted set, so neither A's cache nor -A answers it
    A = make_planted(boolean_group(12), subgroup_dim=4, cosets=2, noise=0, seed=3).set
    B = group_set(A.group, A.members[::2])
    write_set("P.txt", A)
    write_set("B.txt", B)
    real = setstat._pair_counts
    sums = []

    def counting(X, Y, reflect):
        if not reflect:
            sums.append(sorted([X.members.tolist(), Y.members.tolist()]))
        return real(X, Y, reflect)

    monkeypatch.setattr(setstat, "_pair_counts", counting)
    assert main(["structure", "P.txt", "--b", "B.txt", "--out", "s.json"]) == 0
    assert sums.count(sorted([A.members.tolist(), B.members.tolist()])) == 1
    assert _body_digest("s.json") == PINNED["structure-b-half-planted-f2-12"]


def test_verify_seed_7_body_is_pinned(in_tmp):
    suites = "triangle,energy-bound,bohr-size,katz-koester,energy-mono"
    args = ["verify", "--seed", "7", "--suites", suites, "--instances", "5"]
    assert main(args + ["--out", "v.json"]) == 0
    assert _body_digest("v.json") == PINNED["verify-seed-7"]


@pytest.mark.parametrize("group", ["Z4xZ6", "F2^5"])
def test_katz_koester_verify_body_is_pinned(in_tmp, group):
    args = ["verify", "--seed", "11", "--suites", "katz-koester", "--instances", "20"]
    assert main(args + ["--group", group, "--out", "v.json"]) == 0
    assert _body_digest("v.json") == PINNED[f"verify-kk-{group}"]


@pytest.mark.parametrize("group", ["F2^6", "Z24"])
def test_verify_body_across_small_blocks_is_pinned(in_tmp, monkeypatch, group):
    # blocks of 2^8 cells hold a few columns of these groups, so every
    # stacked kernel cuts its instances into several blocks
    monkeypatch.setattr(setstat, "_BLOCK_ELEMENTS", 1 << 8)
    suites = "triangle,energy-bound,katz-koester,energy-mono"
    args = ["verify", "--seed", "7", "--suites", suites, "--group", group]
    assert main(args + ["--out", "v.json"]) == 0
    assert _body_digest("v.json") == PINNED[f"verify-multiblock-{group}"]


def test_parseval_verify_body_on_f2_8_is_pinned(in_tmp):
    # exact Walsh transforms of tables drawn block by block from randbytes
    args = ["verify", "--seed", "7", "--suites", "parseval", "--group", "F2^8", "--instances", "5"]
    assert main(args + ["--out", "v.json"]) == 0
    assert _body_digest("v.json") == PINNED["verify-parseval-F2^8"]


def test_difference_subset_result_on_a_subgroup_of_f2_12_is_pinned():
    # the 2-eps dichotomy's subspace branch, on criterion 10's subgroup of
    # dimension 3, where every count and transform is exact; its records
    # are pinned beside its result, as a report lists them
    res = certify_difference_subset(group_set(boolean_group(12), range(1 << 3)), Fraction(1, 2))
    assert res.kind == "SubspacePiece"
    body = {"records": [r.to_dict() for r in res.records], "result": structure_result_dict(res)}
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED["certify-2eps-subgroup-f2-12"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
def test_seeded_h_lambda_body_is_pinned(in_tmp, seed):
    # the seed draws Lambda through the shared independent-vector loop, so
    # any change in how many rng.randrange calls it makes moves the body
    args = ["example", "h-lambda", "--n", "10", "--k", "3", "--lambda", "4", "--seed", str(seed)]
    assert main(args + ["--out", "h.json"]) == 0
    assert _body_digest("h.json") == PINNED[f"h-lambda-seed-{seed}"]


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_planted_config_source_body_is_pinned(in_tmp, seed):
    # a planted set draws its subgroup basis through the same loop, then its
    # coset representatives and noise points from the same rng
    source = {"kind": "planted", "n": 12, "dim": 4, "cosets": 3, "noise": 5}
    with open("c.json", "w") as fh:
        json.dump({"kind": "structure", "seed": seed, "sets": [source]}, fh)
    assert main(["verify", "--config", "c.json", "--out", "p.json"]) == 0
    assert _body_digest("p.json") == PINNED[f"planted-seed-{seed}"]


@pytest.mark.parametrize(
    "case, argv",
    [
        ("stats-h-lambda", ["stats", "A.txt", "--k", "2,3,4"]),
        ("bohr-Z101", ["bohr", "--group", "Z101", "--gamma", "1,7", "--eps", "1/4,1/3", "--regularize"]),
    ],
)
def test_stats_and_bohr_stdout_is_pinned(in_tmp, capsys, case, argv):
    # the README's commands; their option values go through the config reader
    assert main(["example", "h-lambda", "--n", "8", "--k", "3", "--lambda", "5", "--set-out", "A.txt"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == PINNED[case]

from __future__ import annotations

import json

import pytest

from addcomb import cli
from addcomb.cli import main
from addcomb.families import make_planted
from addcomb.fileio import dump_set, parse_set, read_function, write_set
from addcomb.groups import boolean_group, make_group
from addcomb.setstat import group_set


@pytest.fixture
def subgroup_file(tmp_path):
    p = tmp_path / "h.set"
    write_set(p, group_set(boolean_group(10), range(8)))
    return str(p)


def test_stats_exit_and_payload(subgroup_file, tmp_path, capsys):
    out = tmp_path / "stats.json"
    assert main(["stats", subgroup_file, "--k", "2,3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["size"] == 8
    assert data["higher"]["2"] == str(8**3)
    capsys.readouterr()


def test_parser_is_built_once_and_parses_each_call_afresh(subgroup_file, tmp_path, monkeypatch, capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    seen = []
    parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: seen.append(parse(argv)) or seen[-1])
    out = tmp_path / "stats.json"
    assert main(["stats", subgroup_file, "--k", "2,5", "--out", str(out)]) == 0
    assert main(["verify", "--suites", "parseval", "--instances", "1", "--group", "Z5"]) == 0
    assert main(["stats", subgroup_file]) == 0
    capsys.readouterr()
    first, second, third = seen
    assert len({id(first), id(second), id(third)}) == 3
    assert (first.command, first.k, first.out) == ("stats", "2,5", str(out))
    assert (second.command, second.seed, second.suites, second.instances, second.group) == (
        "verify", 0, "parseval", 1, "Z5"
    )
    assert (second.config, second.out, second.summary) == (None, None, False)
    assert not hasattr(second, "k")
    assert (third.command, third.k, third.out) == ("stats", "2,3,4", None)
    assert not hasattr(third, "suites")


def test_stats_reports_oversized_group(tmp_path, capsys):
    p = tmp_path / "big.set"
    p.write_text("Z20000000\n0\n")
    code = main(["stats", str(p)])
    capsys.readouterr()
    assert code == 3


def test_stats_bad_file_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "bad.set"
    p.write_text("Z6\n1\n1\n")
    code = main(["stats", str(p)])
    capsys.readouterr()
    assert code == 2
    assert main(["stats", str(tmp_path / "missing.set")]) == 2
    capsys.readouterr()


def test_spectrum_round_trip(subgroup_file, tmp_path, capsys):
    out = tmp_path / "hat.fn"
    assert main(["spectrum", subgroup_file, "--out", str(out)]) == 0
    capsys.readouterr()
    table = read_function(out)
    assert table.group == boolean_group(10)
    # subgroup transform: |H| on the annihilator, 0 elsewhere
    vals = sorted(set(table.values))
    assert vals == [0, 8]
    assert sum(1 for v in table.values if v) == 128


def test_spectrum_of_function_file(tmp_path, capsys):
    p = tmp_path / "f.fn"
    p.write_text("group=Z6 kind=int\n0 2\n3 4\n")
    assert main(["spectrum", str(p)]) == 0
    capsys.readouterr()


def test_bohr_command(capsys):
    assert main(["bohr", "--group", "Z101", "--gamma", "1", "--eps", "1/4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 51
    assert main(["bohr", "--group", "Z101", "--gamma", "1", "--eps", "1/4", "--regularize"]) == 0
    capsys.readouterr()


def test_bohr_rejects_bad_radii(capsys):
    assert main(["bohr", "--group", "Z101", "--gamma", "1,2", "--eps", "1/4"]) == 2
    capsys.readouterr()


def test_structure_subspace_run(subgroup_file, tmp_path, capsys):
    out = tmp_path / "res.json"
    assert main(["structure", subgroup_file, "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["results"][0]["result"]["kind"] == "SubspacePiece"
    assert all(r["ok"] for r in data["records"])


def test_structure_gate_failure_exits_one(tmp_path, capsys):
    p = tmp_path / "dense.set"
    write_set(p, group_set(make_group((30,)), range(10)))
    code = main(["structure", str(p), "--mode", "dichotomy"])
    capsys.readouterr()
    assert code == 1


def test_structure_gate_failure_still_writes_its_report(tmp_path, capsys):
    inst = make_planted(boolean_group(12), subgroup_dim=4, cosets=3, noise=5, seed=3)
    p = tmp_path / "P.txt"
    write_set(p, inst.set)
    out = tmp_path / "d.json"
    assert main(["structure", str(p), "--mode", "dichotomy", "--out", str(out)]) == 1
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["ok"] is False
    (record,) = data["records"]
    assert record["ref"] == "dichotomy:gate_M" and record["ok"] is False
    assert (record["lhs"], record["rhs"]) == ("9859600/53", "4096")
    assert data["results"][0]["result"] is None
    assert data["results"][0]["size"] == len(inst.set)


@pytest.mark.parametrize("group", ["Z16", "F2^4"])
def test_structure_on_an_empty_set_is_a_config_error(group, tmp_path, capsys):
    p = tmp_path / "empty.set"
    p.write_text(f"{group}\n")
    code = main(["structure", str(p)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("group, line", [("Z16", "3"), ("F2^4", "1,0,1,1")])
def test_structure_on_a_singleton_succeeds(group, line, tmp_path, capsys):
    p = tmp_path / "one.set"
    p.write_text(f"{group}\n{line}\n")
    out = tmp_path / "res.json"
    assert main(["structure", str(p), "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["results"][0]["size"] == 1


def test_structure_with_params_file(subgroup_file, tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps({"zeta": "1/4"}))
    assert main(["structure", subgroup_file, "--params", str(pf), "--summary"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_example_writes_set_file(tmp_path, capsys):
    sp = tmp_path / "ex.set"
    code = main(
        ["example", "h-lambda", "--n", "8", "--k", "3", "--lambda", "5", "--set-out", str(sp)]
    )
    capsys.readouterr()
    assert code == 0
    A = parse_set(sp.read_text())
    assert len(A) == 40


def test_example_katz(capsys):
    assert main(["example", "katz", "--p", "3", "--d", "2", "--summary"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_verify_from_flags(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(
        [
            "verify",
            "--suites",
            "parseval,energy-mono",
            "--group",
            "Z24",
            "--instances",
            "3",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert all(r["ok"] for r in data["records"])


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 3,
                "instances": 2,
                "group": "F2^6",
                "experiments": [
                    {"name": "p", "kind": "verify", "suites": ["parseval"]},
                    {"name": "t", "kind": "verify", "suites": ["triangle"]},
                ],
            }
        )
    )
    assert main(["verify", "--config", str(cfg), "--summary"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_verify_unknown_suite_is_config_error(capsys):
    code = main(["verify", "--suites", "nope", "--seed", "1"])
    capsys.readouterr()
    assert code == 2


def test_verify_missing_config_file(tmp_path, capsys):
    code = main(["verify", "--config", str(tmp_path / "none.json")])
    capsys.readouterr()
    assert code == 2


_SUITE_RECORDS = {
    "parseval": [("energy identity", "parseval")] * 4,
    "triangle": [("tuple-count triangle", "triangle:count")] * 2,
    "energy-bound": [("energy floor from differences", "energy:k_floor")] * 2,
    "bohr-size": [
        ("Bohr size floor", "bohr:size_lower"),
        ("half-radius doubling cap", "bohr:size_halving"),
        ("intersection entropy floor", "bohr:size_intersection"),
    ] * 2,
    "katz-koester": [("slice sum containment", "inclusion:katz-koester")],
    "energy-mono": [
        ("energy log-convexity", "energy:log_convex"),
        ("energy growth cap", "energy:growth_cap"),
    ] * 2,
}


@pytest.mark.parametrize("instances", [0, 1])
@pytest.mark.parametrize("suite", sorted(_SUITE_RECORDS))
def test_verify_with_zero_or_one_instance(suite, instances, tmp_path, capsys):
    # a stack of zero or one column keeps every record of the suite
    out = tmp_path / "v.json"
    args = ["verify", "--seed", "7", "--suites", suite, "--instances", str(instances)]
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    records = json.loads(out.read_text())["records"]
    assert [(r["name"], r["ref"]) for r in records] == _SUITE_RECORDS[suite]
    assert all(r["ok"] for r in records)

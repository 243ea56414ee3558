from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addcomb import bohr, cli, f2, families, harness, setstat, structure
from addcomb.cli import main
from addcomb.families import make_planted
from addcomb.fileio import dump_set, parse_set, read_table, write_set
from addcomb.groups import SizeLimitError, boolean_group, make_group, parse_group_text
from addcomb.report import format_value
from addcomb.setstat import group_set

from .test_fileio import set_files


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


def _structure_body(path: str, out) -> tuple[int, dict]:
    code = main(["structure", path, "--out", str(out)])
    body = json.loads(out.read_text())
    del body["timings"]
    return code, body


@pytest.mark.parametrize(
    "returns, sets",
    [(OSError, []), (None, []), (0, [(-3, 32 << 20)]), (1, [(-3, 32 << 20), (-1, 64 << 20)])],
    ids=["no-dlopen", "no-mallopt", "mmap-threshold-refused", "both-set"],
)
def test_the_malloc_policy_sets_both_thresholds_or_neither(returns, sets, subgroup_file, tmp_path, monkeypatch, capsys):
    expected = _structure_body(subgroup_file, tmp_path / "parent.json")
    opened, calls = [], []

    def cdll(name):
        opened.append(name)
        if returns is OSError:
            raise OSError("no dlopen(NULL) here")
        if returns is None:
            return SimpleNamespace()  # a C library without mallopt, as on macOS
        return SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or returns)

    monkeypatch.setattr(cli, "_keep_freed_memory", functools.cache(cli._keep_freed_memory.__wrapped__))
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert _structure_body(subgroup_file, tmp_path / "a.json") == expected
    assert _structure_body(subgroup_file, tmp_path / "b.json") == expected
    capsys.readouterr()
    assert opened == [None]  # once per process, and never through a library search
    assert calls == sets


_REPEATED_RUN = """
import resource, sys
from addcomb.cli import main
main(sys.argv[1:])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts page faults under glibc's mallopt; this C library is not glibc")
def test_a_repeated_structure_run_on_f2_16_takes_its_tables_from_the_heap(tmp_path):
    # freed Walsh tables of 0.5-1 MiB stay in the heap: without the policy
    # the second run takes some 1500 minor faults, one per page of those
    # tables.  A fresh process, since glibc's own thresholds rise with what
    # an earlier test in this one freed.
    path = tmp_path / "planted.set"
    write_set(path, make_planted(boolean_group(16), 6, 2, 6, seed=1).set)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", _REPEATED_RUN, "structure", str(path), "--out", str(tmp_path / "r.json")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120, check=True)
    code, faults = map(int, done.stdout.split())
    assert code == 0
    assert faults < 64


_BENCH_COMMANDS = """
import json, sys
from addcomb.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_the_benchmarked_commands_never_import_numpy_ma(tmp_path):
    # numpy 2.4's np.unique without index or count outputs, which np.isin's
    # sort path calls unless told its inputs are unique, asks
    # np.ma.is_masked, and the first such call imports numpy.ma (some 20 ms
    # inside a timed op).  A fresh process, since any earlier test may have
    # imported it into this one.
    planted = make_planted(boolean_group(13), subgroup_dim=4, cosets=1, noise=0, seed=1).set
    write_set(tmp_path / "P.set", planted)
    write_set(tmp_path / "B.set", group_set(planted.group, planted.members[::2]))
    write_set(tmp_path / "Z.set", group_set(make_group((4096,)), range(3, 4096, 37)))
    runs = [
        ["structure", "P.set", "--mode", "dichotomy"],
        ["structure", "P.set", "--b", "B.set"],
        ["structure", "Z.set"],
        ["example", "h-lambda", "--n", "9", "--k", "3", "--lambda", "4"],
        ["example", "katz", "--p", "5", "--d", "4"],
        ["verify", "--seed", "1"],
    ]
    runs = [argv + ["--out", f"r{i}.json"] for i, argv in enumerate(runs)]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", _BENCH_COMMANDS, json.dumps(runs)]
    done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize(
    "module, loads",
    [
        ("addcomb", []),
        ("addcomb.f2", ["f2"]),
        ("addcomb.setstat", ["groups", "harmonic", "report", "setstat"]),
    ],
)
def test_a_module_loads_only_the_layers_below_it(module, loads):
    # the package re-exports nothing, so importing one layer never loads
    # the pipeline above it.  A fresh process, since this one has them all.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, {module}; print(*sorted(m for m in sys.modules if m.startswith('addcomb.')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [f"addcomb.{m}" for m in loads]


def test_stats_reports_oversized_group(tmp_path, capsys):
    p = tmp_path / "big.set"
    p.write_text("Z20000000\n0\n")
    code = main(["stats", str(p)])
    capsys.readouterr()
    assert code == 3


def test_verify_group_past_the_cap_is_a_resource_error(capsys):
    assert main(["verify", "--seed", "1", "--group", "Z33554432"]) == 3
    assert capsys.readouterr().err.startswith("resource cap:")


@pytest.mark.parametrize("command", ["structure", "stats"])
def test_a_set_past_the_transform_cap_is_refused_before_any_count(command, tmp_path, monkeypatch, capsys):
    # both commands read the set's transform, which Z131072 (not a 2-group,
    # order past 2^16) has none of: they exit 3 before counting A + A or
    # A - A by pairs, which costs |A|^2 cells and ran for a minute at 60000
    # points of Z1048576
    p = tmp_path / "big.set"
    p.write_text("Z131072\n0\n1\n5\n")

    def counting(*args):
        raise AssertionError("counted pairs past the transform cap")

    monkeypatch.setattr(setstat, "_conv_loop", counting)
    assert main([command, str(p)]) == 3
    assert capsys.readouterr().err == "resource cap: dense transform beyond order 65536\n"


def test_config_source_group_past_the_cap_is_a_resource_error(tmp_path, capsys):
    p = tmp_path / "big.json"
    source = {"kind": "random", "group": "Z33554432", "size": 5}
    p.write_text(json.dumps({"kind": "structure", "name": "big", "seed": 1, "sets": [source]}))
    assert main(["verify", "--config", str(p)]) == 3
    assert capsys.readouterr().err.startswith("resource cap:")


def test_stats_bad_file_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "bad.set"
    p.write_text("Z6\n1\n1\n")
    code = main(["stats", str(p)])
    capsys.readouterr()
    assert code == 2
    assert main(["stats", str(tmp_path / "missing.set")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("stats", b"\xef\xbb\xbfZ6\n1\n", "1: non-ASCII byte 0xef"),  # a UTF-8 byte order mark
        ("structure", b"# set\r\nZ6\r\n1\r2 # caf\xc3\xa9\n", "4: non-ASCII byte 0xc3"),
        ("spectrum", b"group=Z8 kind=int\n1 2\x0b3 \xff\n", "3: non-ASCII byte 0xff"),  # \x0b ends a line
    ],
)
def test_a_non_ascii_byte_names_its_file_and_line(command, content, message, tmp_path, capsys):
    p = tmp_path / "f.txt"
    p.write_bytes(content)
    assert main([command, str(p)]) == 2
    assert capsys.readouterr().err == f"config error: {p}:{message}\n"


def test_spectrum_round_trip(subgroup_file, tmp_path, capsys):
    out = tmp_path / "hat.fn"
    assert main(["spectrum", subgroup_file, "--out", str(out)]) == 0
    capsys.readouterr()
    table = read_table(out)
    assert table.group == boolean_group(10)
    # subgroup transform: |H| on the annihilator, 0 elsewhere
    vals = sorted(set(table.values))
    assert vals == [0, 8]
    assert sum(1 for v in table.values if v) == 128


def test_spectrum_reads_a_function_file_after_comments(tmp_path, capsys):
    outputs = []
    for text in ("group=Z6 kind=int\n0 2\n3 4\n", "# a function\r\n\r\ngroup=Z6 kind=int\r\n0 2\n3 4\n"):
        p = tmp_path / "f.fn"
        p.write_bytes(text.encode("ascii"))
        assert main(["spectrum", str(p)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]
    assert outputs[0].out.startswith("group=Z6 kind=complex\n0 6.0+0.0j\n")


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


def test_stats_and_bohr_print_the_stdlib_indent_2_sorted_text(subgroup_file, capsys):
    for argv in (["stats", subgroup_file, "--k", "2,3"],
                 ["bohr", "--group", "Z101", "--gamma", "1,3", "--eps", "1/4,1/3"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


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


def test_a_core_hypothesis_failure_through_params_exits_1_with_its_record(subgroup_file, tmp_path, capsys):
    # an energy cap m' far below E(B) K' / |B|^3 = 1 on a subgroup
    pf, out = tmp_path / "params.json", tmp_path / "r.json"
    pf.write_text(json.dumps({"m_prime": "1/1000"}))
    assert main(["structure", subgroup_file, "--params", str(pf), "--out", str(out)]) == 1
    capsys.readouterr()
    data = json.loads(out.read_text())
    (record,) = data["records"]
    assert (record["ref"], record["ok"], record["rhs"]) == ("structure:energy_cap", False, "64/125")
    assert data["results"][0]["result"] is None and "failure" not in data["results"][0]


def test_an_internal_assertion_propagates_out_of_main(subgroup_file, monkeypatch, capsys):
    # a short annihilator basis breaks an internal invariant, not a checked inequality
    real = f2.nullspace_basis
    monkeypatch.setattr(f2, "nullspace_basis", lambda vectors, n: real(vectors, n)[:-1])
    with pytest.raises(AssertionError, match="annihilator dimension disagrees"):
        main(["structure", subgroup_file])
    assert "check failed:" not in capsys.readouterr().err


def test_a_failed_jump_search_writes_its_report(subgroup_file, tmp_path, monkeypatch, capsys):
    # m_star below 1 admits no jump, as E_(k+1) <= |B| E_k
    monkeypatch.setattr(structure.StructureParams, "m_star", property(lambda self: Fraction(1, 2)))
    out = tmp_path / "r.json"
    assert main(["structure", subgroup_file, "--out", str(out)]) == 1
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["ok"] is False
    failed = [r for r in data["records"] if not r["ok"]]
    assert [r["ref"] for r in failed] == ["structure:energy_jump"]
    assert data["results"][0]["result"] is None and "failure" not in data["results"][0]


def test_a_failed_jump_search_past_the_int_text_limit_writes_its_report(subgroup_file, tmp_path, monkeypatch, capsys):
    # a tension near 1 and a large m' put k0 at 6961, where E_k0 of the
    # 8-point subgroup, 8^(k0 + 1), has more than 4300 digits; the failed
    # record holds counts, not energies, so it still has a text form
    monkeypatch.setattr(structure.StructureParams, "m_star", property(lambda self: Fraction(1, 2)))
    pf, out = tmp_path / "params.json", tmp_path / "r.json"
    pf.write_text(json.dumps({"m_prime": 1000, "t": "101/100"}))
    assert main(["structure", subgroup_file, "--params", str(pf), "--out", str(out)]) == 1
    capsys.readouterr()
    data = json.loads(out.read_text())
    failed = [r for r in data["records"] if not r["ok"]]
    assert [(r["ref"], r["lhs"], r["rhs"]) for r in failed] == [("structure:energy_jump", "0", "1")]
    assert failed[0]["note"].startswith("k in [2, 6961] ")


def test_an_exhausted_radius_search_writes_its_report(tmp_path, monkeypatch, capsys):
    p, out = tmp_path / "A.txt", tmp_path / "r.json"
    write_set(p, group_set(make_group((1000,)), range(0, 1000, 10)))
    monkeypatch.setattr(bohr, "_RADIUS_ROUNDS", ())
    assert main(["structure", str(p), "--out", str(out)]) == 1
    capsys.readouterr()
    data = json.loads(out.read_text())
    failed = [r for r in data["records"] if not r["ok"]]
    assert [(r["ref"], r["lhs"], r["rhs"]) for r in failed] == [("bohr:regular_radius", "0", "1")]


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


@pytest.mark.parametrize("text", ["{", '{"zeta": }', "[1, 2"])
def test_structure_params_that_are_no_json_exit_2(text, subgroup_file, tmp_path, capsys):
    # json.JSONDecodeError is a ValueError, which the exit-2 clause names
    pf = tmp_path / "params.json"
    pf.write_text(text)
    assert main(["structure", subgroup_file, "--params", str(pf)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_structure_params_that_are_no_json_name_their_file(subgroup_file, tmp_path, capsys):
    # the params file is read as verify --config reads a config: its path
    # leads the message
    pf = tmp_path / "bad.json"
    pf.write_text("{'zeta': 1}")
    assert main(["structure", subgroup_file, "--params", str(pf)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {pf}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
    )
    assert main(["structure", subgroup_file, "--params", str(tmp_path / "none.json")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {tmp_path / 'none.json'}: ")


@pytest.mark.parametrize("key, raw", [("c_local", "1/16"), ("k0_pad", 20), ("c_chang", "1/100")])
def test_structure_params_reject_the_proof_constants(key, raw, subgroup_file, tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps({key: raw}))
    assert main(["structure", subgroup_file, "--params", str(pf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown parameter overrides")
    assert key in err


def _structure_set_file(tmp_path, group: str) -> str:
    """The README's h-lambda set in F2^8, or two 60-term APs in Z4096."""
    if group == "F2^8":
        A = families.make_h_lambda(families.HLambdaSpec(n=8, k=3, lambda_size=5))
    else:
        A = group_set(make_group((4096,)), [(s + 3 * i) % 4096 for s in (0, 2000) for i in range(60)])
    path = tmp_path / f"{group}.txt"
    write_set(path, A)
    return str(path)


@pytest.mark.parametrize("mode", ["auto", "bohr", "dichotomy"])
@pytest.mark.parametrize("group", ["Z4096", "F2^12"])
def test_structure_b_outside_a_is_a_config_error(group, mode, tmp_path, capsys):
    # 300 random points of the group and 100 more from the rest: the bounds
    # are for dense subsets of A (or of -A, under the dichotomy)
    g = parse_group_text(group)
    rng = random.Random(g.order)
    picks = rng.sample(range(g.order), 400)
    paths = [tmp_path / "A.txt", tmp_path / "B.txt"]
    for path, members in zip(paths, (picks[:300], picks[300:])):
        write_set(path, group_set(g, members))
    argv = ["structure", str(paths[0]), "--b", str(paths[1]), "--mode", mode, "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: B (file:{paths[1]}) is not a subset of A (file:{paths[0]})")
    assert err.endswith(" or of -A\n" if mode == "dichotomy" else ")\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("mode, code", [("dichotomy", 0), ("bohr", 2)])
def test_only_the_dichotomy_takes_b_inside_minus_a(mode, code, tmp_path, capsys):
    # B = -{1, 2} lies in -A but not in A = {1, 2, 5}
    paths = [tmp_path / "A.txt", tmp_path / "B.txt"]
    for path, members in zip(paths, ([1, 2, 5], [4094, 4095])):
        write_set(path, group_set(make_group((4096,)), members))
    assert main(["structure", str(paths[0]), "--b", str(paths[1]), "--mode", mode, "--summary"]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else f"config error: B (file:{paths[1]}) is not a subset of A (file:{paths[0]})\n")


def _exit_without_a_traceback(argv) -> int:
    """main(argv)'s exit code, checked to be one of the four documented
    ones, with no traceback and the error line its code names."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code >= 2 or err:
        assert err.startswith({1: "check failed:", 2: "config error:", 3: "resource cap:"}[code])
    return code


# a rational past the double range, and one below it, written out in digits
_EXTREME_PARAMS = [{"m": "1e400"}, {"t": "1e400"}, {"zeta": "1/1" + "0" * 300}]


@pytest.mark.parametrize("params", _EXTREME_PARAMS, ids=["m", "t", "zeta"])
@pytest.mark.parametrize("group", ["F2^8", "Z4096"])
def test_extreme_structure_params_exit_without_a_traceback(group, params, tmp_path):
    path = _structure_set_file(tmp_path, group)
    pf, out = tmp_path / "params.json", tmp_path / "r.json"
    pf.write_text(json.dumps(params))
    code = _exit_without_a_traceback(["structure", path, "--params", str(pf), "--out", str(out)])
    if code in (0, 1) and (result := json.loads(out.read_text())["results"][0]["result"]):
        # the unasserted diagnostics report a term past the double range as inf
        diagnostics = result["diagnostics"]
        assert diagnostics["codim_bound" if group == "F2^8" else "dim_bound"] == "inf"
        assert (diagnostics["chang"]["bound"], diagnostics["chang"]["ok"]) == ("inf", True)
    config = tmp_path / "cfg.json"
    source = {"kind": "file", "path": path}
    config.write_text(json.dumps({"kind": "structure", "name": "x", "sets": [source], "params": params}))
    _exit_without_a_traceback(["verify", "--config", str(config)])


@pytest.mark.parametrize("t", ["1.000001", "1." + "0" * 299 + "1"], ids=["1e-6", "1e-300"])
def test_jump_tension_near_one_exits_3(t, tmp_path):
    # k0 = pad + ceil(pad ln y / ln t) reaches 1.8e7 and 1.8e301 here: refused
    # from the bounds on the logs, before a power of t is formed
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps({"t": t}))
    started = time.perf_counter()
    code = _exit_without_a_traceback(["structure", _structure_set_file(tmp_path, "F2^8"), "--params", str(pf)])
    assert code == 3
    assert time.perf_counter() - started < 30


def test_a_record_past_the_int_text_limit_exits_3(tmp_path, capsys):
    # at m = 10^400 the Bohr size floor of the candidate compares integers of
    # more than 4300 digits, which have no text form
    rng = random.Random(0)
    members = set()
    for _ in range(2):
        start, step = rng.randrange(4096), rng.randrange(1, 4096, 2)
        members |= {(start + i * step) % 4096 for i in range(16)}
    path, pf = tmp_path / "ap.txt", tmp_path / "params.json"
    write_set(path, group_set(make_group((4096,)), sorted(members)))
    pf.write_text(json.dumps({"m": "1e400"}))
    assert main(["structure", str(path), "--params", str(pf)]) == 3
    assert capsys.readouterr().err == "resource cap: a value past the 4300-digit limit of int text\n"


def test_format_value_refuses_an_integer_past_the_int_text_limit():
    # 10^4299 has 4300 digits, the default limit; one more digit has no text
    assert format_value(Fraction(10**4299, 3)) == f"{10**4299}/3"
    for value in (10**4300, Fraction(1, 10**4300), -(10**4300)):
        with pytest.raises(SizeLimitError, match="4300-digit limit"):
            format_value(value)


_MAGNITUDES = st.one_of(
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(-400, 400)),
    st.builds("{}/{}".format, st.integers(1, 10**400), st.integers(1, 10**400)),
)


@given(group=st.sampled_from(["F2^8", "Z4096"]),
       params=st.dictionaries(st.sampled_from(["m", "m_prime", "kappa", "zeta", "t"]), _MAGNITUDES,
                              min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_structure_params_of_any_magnitude_exit_without_a_traceback(group, params, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("params")
    pf = tmp / "params.json"
    pf.write_text(json.dumps(params))
    _exit_without_a_traceback(["structure", _structure_set_file(tmp, group), "--params", str(pf), "--summary"])


@pytest.mark.parametrize("group", ["F2^8", "Z4096"])
def test_the_retired_subspace_mode_exits_2_and_writes_no_report(group, tmp_path, capsys):
    # auto takes the subspace piece on a 2-group, so --mode subspace is no choice
    path = _structure_set_file(tmp_path, group)
    with pytest.raises(SystemExit) as exc:
        main(["structure", path, "--mode", "subspace", "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "argument --mode: invalid choice: 'subspace'" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


_STRUCTURE_GROUPS = [f"F2^{n}" for n in range(1, 7)] + [f"Z{n}" for n in range(2, 129)] + ["Z4xZ6", "Z3xZ5xZ7"]


@st.composite
def structure_inputs(draw) -> tuple[str, list[int], str]:
    """A group, a random nonempty subset of it and a structure mode."""
    group = draw(st.sampled_from(_STRUCTURE_GROUPS))
    order = parse_group_text(group).order
    members = draw(st.sets(st.integers(0, order - 1), min_size=1, max_size=order))
    return group, sorted(members), draw(st.sampled_from(["auto", "bohr", "dichotomy"]))


@given(structure_inputs())
@settings(max_examples=150, deadline=None)
def test_structure_exit_codes_on_random_subsets(case):
    group, members, mode = case
    g = parse_group_text(group)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "a.set"), os.path.join(tmp, "r.json")
        write_set(path, group_set(g, members))
        code = _exit_without_a_traceback(["structure", path, "--mode", mode, "--out", out])
        assert code in (0, 1)
        # a failed check is a result: its report is still written
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
    assert report["ok"] is (code == 0)
    [entry] = report["results"]
    if entry["result"] is not None and entry["result"]["kind"] == "BohrPiece":
        assert len(entry["result"]["diagnostics"]["attempts"]) == 1
    if "failure" in entry:
        assert len(entry["failure"]["attempts"]) == 1


@pytest.mark.parametrize(
    "argv",
    [["structure", "A.txt", "--seed", "1"], ["example", "katz", "--p", "3", "--d", "4", "--seed", "1"]],
    ids=["structure", "example-katz"],
)
def test_commands_that_draw_nothing_take_no_seed(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_example_writes_set_file(tmp_path, capsys):
    sp = tmp_path / "ex.set"
    code = main(
        ["example", "h-lambda", "--n", "8", "--k", "3", "--lambda", "5", "--set-out", str(sp)]
    )
    capsys.readouterr()
    assert code == 0
    A = parse_set(sp.read_text())
    assert len(A) == 40


def test_example_h_lambda_seed_reaches_the_source(tmp_path, capsys):
    def set_bytes(*seed: str) -> bytes:
        sp = tmp_path / "ex.set"
        argv = ["example", "h-lambda", "--n", "8", "--k", "3", "--lambda", "5", "--set-out", str(sp), *seed]
        assert main(argv) == 0
        return sp.read_bytes()

    one, two, plain = set_bytes("--seed", "1"), set_bytes("--seed", "2"), set_bytes()
    capsys.readouterr()
    assert one != two and set_bytes("--seed", "1") == one
    # no seed: the standard instance, the cosets H + e_(3+j), j < 5, of H = <e_0, e_1, e_2>
    standard = group_set(boolean_group(8), (x ^ (8 << j) for x in range(8) for j in range(5)))
    assert plain == dump_set(standard).encode()


def test_example_katz(capsys):
    assert main(["example", "katz", "--p", "3", "--d", "2", "--summary"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_example_katz_checks_the_cap_before_primality(monkeypatch, capsys):
    # p = 2^61 - 1 is prime: trial division would take 2^30 steps, so the
    # test fails at once if the primality test runs first
    def no_trial_division(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(families, "prime_factors", no_trial_division)
    assert main(["example", "katz", "--p", "2305843009213693951", "--d", "2"]) == 3
    assert capsys.readouterr().err == "resource cap: field order 2305843009213693951^2 past the cap 2^20\n"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["h-lambda", "--n", "21", "--k", "1", "--lambda", "1"], 3, "resource cap: ambient dimension 21 past the cap 20"),
        (["katz", "--p", "3", "--d", "30000000"], 3, "resource cap: field order 3^30000000 past the cap 2^20"),
        (["katz", "--p", "3", "--d", "0"], 2, "config error: set source 'katz' with p=3, d=0: need d >= 1, got 0"),
        (["katz", "--p", "1", "--d", "30000000"], 2,
         "config error: set source 'katz' with p=1, d=30000000: 1 is not prime"),
    ],
    ids=["h-lambda-n-21", "katz-3^30000000", "katz-d-0", "katz-p-1"],
)
def test_example_caps_exit_3_at_once(argv, code, message, capsys):
    # 3^30000000 is never formed: past d = 20 every p >= 2 is over the cap
    started = time.perf_counter()
    assert main(["example", *argv]) == code
    assert time.perf_counter() - started < 5
    assert capsys.readouterr().err == message + "\n"


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


@pytest.mark.parametrize(
    "group, suites, message",
    [
        # katz-koester draws sizes in range(2, N // 2), empty below N = 6
        ("Z4", "katz-koester", "suite katz-koester needs a group of order at least 6, got Z4 of order 4"),
        ("Z5", "parseval,katz-koester", "suite katz-koester needs a group of order at least 6, got Z5 of order 5"),
        # triangle draws families of up to 4 distinct members
        ("Z3", "triangle", "suite triangle needs a group of order at least 4, got Z3 of order 3"),
        ("F2^1", "triangle,katz-koester", "suite triangle needs a group of order at least 4, got F2^1 of order 2"),
        # from 10 instances on, bohr-size draws two distinct nonzero characters
        ("Z2", "bohr-size", "suite bohr-size needs a group of order at least 3, got F2^1 of order 2"),
    ],
)
def test_verify_names_the_suite_a_group_is_too_small_for(group, suites, message, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("drew before checking the group")

    monkeypatch.setattr(harness, "_draw_below", fail)
    assert main(["verify", "--seed", "1", "--group", group, "--suites", suites]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "group, suite", [("Z6", "katz-koester"), ("Z4", "triangle"), ("F2^2", "triangle"), ("Z2", "bohr-size")]
)
def test_verify_runs_on_the_smallest_group_a_suite_allows(group, suite, capsys):
    assert main(["verify", "--seed", "1", "--group", group, "--suites", suite, "--instances", "5"]) == 0
    capsys.readouterr()


def test_verify_missing_config_file(tmp_path, capsys):
    code = main(["verify", "--config", str(tmp_path / "none.json")])
    capsys.readouterr()
    assert code == 2


_SUBGROUP_SOURCE = [{"kind": "subgroup", "n": 4, "dim": 1}]


@pytest.mark.parametrize(
    "command, payload, flags",
    [
        ("verify", {"seed": 1, "suites": 5}, []),
        ("verify", {"seed": 1, "instances": None}, []),
        ("verify", {"kind": "structure", "seed": 1, "sets": ["abc"]}, []),
        ("verify", {"kind": "structure", "seed": 1, "sets": _SUBGROUP_SOURCE, "params": [1]}, []),
        ("structure", {"m": "1/0"}, []),
        ("structure", {"m": "1/0"}, ["--mode", "dichotomy"]),
        ("structure", {"m": None}, []),
        ("structure", {"m": None}, ["--mode", "dichotomy"]),
        ("bohr", None, ["--group", "Z10", "--gamma", "1", "--eps", "1/0"]),
    ],
    ids=[
        "suites-int", "instances-null", "sets-str", "params-list",
        "m-zero-den", "m-zero-den-dichotomy", "m-null", "m-null-dichotomy", "eps-zero-den",
    ],
)
def test_bad_config_values_are_config_errors(command, payload, flags, subgroup_file, tmp_path, capsys):
    given = tmp_path / "given.json"
    given.write_text(json.dumps(payload))
    argv = {
        "verify": ["verify", "--config", str(given)],
        "structure": ["structure", subgroup_file, "--params", str(given)],
        "bohr": ["bohr"],
    }[command]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config",
    [
        {"seed": 1, "sets": [{"kind": "random", "group": "Z16", "size": None}]},
        {"seed": 1, "sets": [{"kind": "random", "group": 5, "size": 3}]},
        {"seed": 1, "sets": [{"kind": "literal", "group": "Z16", "members": 5}]},
        {"seed": [1], "sets": [{"kind": "random", "group": "Z16", "size": 3}]},
    ],
    ids=["size-null", "group-int", "members-int", "seed-list"],
)
def test_wrong_typed_set_sources_are_config_errors(config, tmp_path, capsys):
    given = tmp_path / "given.json"
    given.write_text(json.dumps({"kind": "structure", **config}))
    assert main(["verify", "--config", str(given)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "group, members",
    [("Z5", [1.5]), ("Z5", [0.9]), ("Z5", [True]), ("Z5xZ5", [[1, 2.5], [0, 0], [1, 1]]), ("Z5xZ5", [[1, True]])],
    ids=["float", "float-below-1", "bool", "float-coordinate", "bool-coordinate"],
)
def test_non_integer_literal_members_are_config_errors(group, members, tmp_path, capsys):
    # none is rounded or read as 1 into a set
    given = tmp_path / "given.json"
    given.write_text(json.dumps({"kind": "structure", "sets": [{"kind": "literal", "group": group, "members": members}]}))
    assert main(["verify", "--config", str(given)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: set source 'literal': member ")
    assert json.dumps(members[0]).replace("true", "True") in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "group, members, message",
    [
        ("Z6", [1, 9], "member 9 is out of range for Z6"),
        ("Z6", [-1, 2], "member -1 is out of range for Z6"),
        ("Z4xZ6", [[1, 9]], "member [1, 9] is out of range for Z4xZ6"),
        ("Z4xZ6", [[1, 2, 0]], "member [1, 2, 0] is out of range for Z4xZ6"),
        ("Z10", [0, 3, 3, 6, 9], "member 3 is listed twice"),
        ("Z4xZ6", [[1, 2], [3, 5], [1, 2]], "member [1, 2] is listed twice"),
    ],
    ids=["index-past-order", "index-negative", "coordinate-past-factor", "rank-3", "index-twice", "coordinates-twice"],
)
def test_literal_members_out_of_range_or_listed_twice_are_config_errors(group, members, message, tmp_path, capsys):
    # as a set file's repeated line is: none is dropped or read modulo the group
    given = tmp_path / "given.json"
    given.write_text(json.dumps({"kind": "structure", "sets": [{"kind": "literal", "group": group, "members": members}]}))
    assert main(["verify", "--config", str(given)]) == 2
    assert capsys.readouterr().err == f"config error: set source 'literal': {message}\n"


@pytest.mark.parametrize(
    "source, message",
    [
        ({"kind": "katz", "d": 2}, "config error: set source 'katz' missing field 'p'"),
        ({"kind": "katz", "p": 3, "d": "two"}, "config error: set source 'katz': d must be an integer, got 'two'"),
    ],
    ids=["p-missing", "d-str"],
)
def test_malformed_example_sources_are_config_errors(source, message, tmp_path, capsys):
    given = tmp_path / "given.json"
    given.write_text(json.dumps({"kind": "example", "sets": [source]}))
    assert main(["verify", "--config", str(given)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == message
    assert "Traceback" not in err


_TRIANGLE = {"seed": 1, "suites": ["triangle"], "group": "Z15"}


@pytest.mark.parametrize(
    "config, message",
    [
        ({**_TRIANGLE, "instances": 2.5}, "instances must be an integer, got 2.5"),
        ({**_TRIANGLE, "instances": True}, "instances must be an integer, got True"),
        ({"kind": "structure", "sets": [{"kind": "subgroup", "n": 4.9, "dim": True}]},
         "set source 'subgroup': n must be an integer, got 4.9"),
        ({"kind": "structure", "sets": [{"kind": "subgroup", "n": 4, "dim": True}]},
         "set source 'subgroup': dim must be an integer, got True"),
        ({**_TRIANGLE, "seed": [1]}, "seed must be a number or a string, got [1]"),
        ({**_TRIANGLE, "name": 5}, "name must be a string, got 5"),
        ({**_TRIANGLE, "pipeline": 1}, "pipeline must be a string, got 1"),
    ],
    ids=["instances-float", "instances-bool", "n-float", "dim-bool", "seed-list", "name-int", "pipeline-int"],
)
def test_config_values_of_the_wrong_type_exit_2_naming_their_key(config, message, tmp_path, capsys):
    # none is truncated, read as 1 or turned into text
    given = tmp_path / "given.json"
    given.write_text(json.dumps(config))
    assert main(["verify", "--config", str(given), "--out", str(tmp_path / "r.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("mode", ["auto", "dichotomy"])
def test_a_bool_parameter_override_exits_2_naming_its_key(mode, subgroup_file, tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps({"m": True}))
    assert main(["structure", subgroup_file, "--params", str(pf), "--mode", mode]) == 2
    assert capsys.readouterr().err == 'config error: params: m must be a rational (an integer, a float or "p/q" text), got True\n'


@pytest.mark.parametrize(
    "argv, given, code, message",
    [
        (["stats", "A", "--k", "2.5", "--out", "r.json"], None, 2,
         "config error: --k must be a comma list of integers, got '2.5'\n"),
        (["bohr", "--group", "Q8", "--gamma", "1", "--eps", "1/4"], None, 2,
         "config error: --group must be a group such as 'Z4xZ6', got 'Q8' (cannot parse group factor 'Q8')\n"),
        (["bohr", "--group", "Z10", "--gamma", "1,x", "--eps", "1/4"], None, 2,
         "config error: --gamma must be a comma list of integers, got '1,x'\n"),
        (["bohr", "--group", "Z10", "--gamma", "1", "--eps", "1/0"], None, 2,
         "config error: --eps must be a comma list of rationals, got '1/0'\n"),
        (["bohr", "--group", "Z33554432", "--gamma", "1", "--eps", "1/4"], None, 3,
         "resource cap: group order 33554432 exceeds the supported cap 16777216\n"),
        (["structure", "A", "--params", "given.json", "--out", "r.json"], {"omega": "1/2"}, 2,
         "config error: unknown parameter overrides: ['omega']\n"),
        (["structure", "A", "--params", "given.json", "--out", "r.json"], {"zeta": "2"}, 2,
         "config error: bad structure parameters: zeta must lie in (0, 1), got 2\n"),
        (["verify", "--config", "given.json"], {**_TRIANGLE, "pipeline": "nope", "output": "r.json"}, 2,
         "config error: unknown pipeline 'nope'; known: ['auto', 'bohr', 'dichotomy']\n"),
        (["verify", "--config", "given.json"],
         {"kind": "example", "sets": [{"kind": "katz", "p": 3, "d": 2}], "pipeline": "nope", "output": "r.json"}, 2,
         "config error: unknown pipeline 'nope'; known: ['auto', 'bohr', 'dichotomy']\n"),
        (["verify", "--config", "given.json"],
         {"kind": "structure", "sets": [{"kind": "file", "path": "A"}], "pipeline": "subspace", "output": "r.json"}, 2,
         "config error: unknown pipeline 'subspace'; known: ['auto', 'bohr', 'dichotomy']\n"),
        (["stats", "A", "--k", "1", "--out", "r.json"], None, 2,
         "config error: --k: energy orders start at 2, got '1'\n"),
        (["stats", "A", "--k", "", "--out", "r.json"], None, 2,
         "config error: --k: name at least one energy order, got ''\n"),
        (["stats", "A", "--k", ",", "--out", "r.json"], None, 2,
         "config error: --k: name at least one energy order, got ','\n"),
        (["bohr", "--group", "Z10", "--gamma", "1", "--eps", "2"], None, 2,
         "config error: --gamma 1 --eps 2: radius 2 outside (0, 1]\n"),
        (["bohr", "--group", "Z10", "--gamma", "1", "--eps", "0"], None, 2,
         "config error: --gamma 1 --eps 0: radius 0 outside (0, 1]\n"),
        (["bohr", "--group", "Z10", "--gamma", "12", "--eps", "1/4"], None, 2,
         "config error: --gamma 12 --eps 1/4: character index 12 out of range\n"),
        (["bohr", "--group", "Z10", "--gamma", "1,2", "--eps", "1/4,1/3,1/5"], None, 2,
         "config error: --gamma 1,2 --eps 1/4,1/3,1/5: one radius per character required\n"),
        (["example", "h-lambda", "--n", "5", "--k", "3", "--lambda", "5", "--out", "r.json"], None, 2,
         "config error: set source 'h-lambda' with n=5, k=3, lambda=5: k + lambda_size must fit inside n coordinates\n"),
        (["example", "h-lambda", "--n", "5", "--k", "-1", "--lambda", "5", "--out", "r.json"], None, 2,
         "config error: set source 'h-lambda' with n=5, k=-1, lambda=5: need k >= 0 and lambda_size >= 1\n"),
        (["example", "katz", "--p", "4", "--d", "2", "--out", "r.json"], None, 2,
         "config error: set source 'katz' with p=4, d=2: 4 is not prime\n"),
        (["example", "katz", "--p", "3", "--d", "1", "--out", "r.json"], None, 2,
         "config error: set source 'katz' with p=3, d=1: need d >= 2 so that g + j never vanishes\n"),
    ],
    ids=["k-float", "group-q8", "gamma-x", "eps-zero-den", "group-past-cap", "omega", "zeta-2",
         "pipeline-verify", "pipeline-example", "pipeline-subspace", "k-1", "k-empty", "k-comma", "eps-2", "eps-0",
         "gamma-12", "eps-count", "h-lambda-k-lambda-past-n", "h-lambda-k-negative", "katz-p-4", "katz-d-1"],
)
def test_option_and_override_refusals_name_their_value(argv, given, code, message, tmp_path, monkeypatch, capsys):
    # every command-line option goes through the config reader, and every
    # --params override is one that can change a run; none writes a report
    monkeypatch.chdir(tmp_path)
    write_set("A", families.make_h_lambda(families.HLambdaSpec(n=8, k=3, lambda_size=5)))
    if given is not None:
        (tmp_path / "given.json").write_text(json.dumps(given))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    assert not (tmp_path / "r.json").exists()


def test_an_integer_string_is_an_integer(tmp_path, capsys):
    given = tmp_path / "given.json"
    given.write_text(json.dumps({**_TRIANGLE, "instances": "3"}))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(given), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["config"]["instances"] == 3
    assert report["records"][0]["note"].startswith("3 tuple families on Z15")


def _planted_f2_12(path) -> str:
    write_set(path, make_planted(boolean_group(12), subgroup_dim=4, cosets=2, noise=0, seed=3).set)
    return str(path)


@pytest.mark.parametrize("params", [{"zeta": "1/4"}, {"bogus": 1}, {"m": 1, "t": 2}])
def test_dichotomy_refuses_every_override_but_m(params, tmp_path, capsys):
    # the dichotomy reads M alone; the extraction parameters mean nothing to it
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps(params))
    argv = ["structure", _planted_f2_12(tmp_path / "P.txt"), "--mode", "dichotomy", "--params", str(pf)]
    assert main(argv + ["--out", str(tmp_path / "d.json")]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown parameter overrides")
    assert not (tmp_path / "d.json").exists()


def test_dichotomy_takes_an_m_override(tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps({"m": 1}))
    argv = ["structure", _planted_f2_12(tmp_path / "P.txt"), "--mode", "dichotomy", "--params", str(pf)]
    assert main(argv + ["--out", str(tmp_path / "d.json")]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "d.json").read_text())["config"]["params"] == {"m": 1}


@pytest.mark.parametrize("outputs", [[None, None], ["same", "same"], ["same", None]])
def test_verify_refuses_two_reports_bound_for_one_file(outputs, tmp_path, capsys):
    # with --out, an experiment without an output of its own writes there
    out = tmp_path / "same.json"
    experiments = [
        {"name": name, "suites": ["triangle"], **({"output": str(out)} if o else {})}
        for name, o in zip(("first", "second"), outputs)
    ]
    given = tmp_path / "given.json"
    given.write_text(json.dumps({"seed": 1, "group": "Z15", "experiments": experiments}))
    assert main(["verify", "--config", str(given), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: experiments 'first' and 'second' both write their report to {out}\n"
    assert captured.out == ""
    assert not out.exists()


def test_an_empty_experiment_list_is_a_config_error(tmp_path, capsys):
    # a run of nothing would exit 0, print nothing and write no report
    given = tmp_path / "given.json"
    given.write_text(json.dumps({"experiments": [], "seed": 1}))
    assert main(["verify", "--config", str(given), "--out", str(tmp_path / "r.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {given}: experiments must list at least one experiment\n"
    assert captured.out == ""
    assert not (tmp_path / "r.json").exists()


def test_verify_writes_each_experiment_to_its_own_output(tmp_path, capsys):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    experiments = [{"name": f"e{i}", "suites": ["triangle"], "output": str(o)} for i, o in enumerate(outs)]
    given = tmp_path / "given.json"
    given.write_text(json.dumps({"seed": 1, "group": "Z15", "experiments": experiments}))
    assert main(["verify", "--config", str(given), "--out", str(tmp_path / "unused.json")]) == 0
    capsys.readouterr()
    assert [json.loads(o.read_text())["config"]["name"] for o in outs] == ["e0", "e1"]
    assert not (tmp_path / "unused.json").exists()


# Random experiment objects for verify --config: the known keys, each with a
# well-typed value, or a wrong-typed one about one time in five.  Groups have
# order <= 1024, instances <= 8, and example recipes p^d <= 1024 and n <= 10,
# so every run is small; a file source reads an F2^8 set or a missing file
# ("set" and "missing" below).
def _mostly(valid, wrong):
    return st.integers(0, 4).flatmap(lambda i: wrong if i == 4 else valid)


_FUZZ_GROUPS = _mostly(st.sampled_from(["Z2", "Z16", "Z101", "F2^4", "F2^10", "Z1024", "Z4xZ6", "Z3xZ5xZ7"]),
                       st.sampled_from(["Z0", "Zx", "F2^x", "", 12, None, ["Z4"]]))
_FUZZ_SIZES = _mostly(st.integers(0, 10), st.sampled_from([-1, "3", "x", None, 2.5, [1], True]))
_KATZ = [(p, d) for p in (2, 3, 5, 7, 31) for d in range(1, 11) if p**d <= 1024]
_FUZZ_SOURCES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("random"), "group": _FUZZ_GROUPS,
                           "size": _mostly(st.integers(0, 64), _FUZZ_SIZES)}),
    st.fixed_dictionaries({"kind": st.just("subgroup"), "n": _FUZZ_SIZES, "dim": _FUZZ_SIZES}),
    st.fixed_dictionaries({"kind": st.just("planted"), "n": _FUZZ_SIZES, "dim": _FUZZ_SIZES, "cosets": _FUZZ_SIZES},
                          optional={"noise": _FUZZ_SIZES}),
    st.fixed_dictionaries({"kind": st.just("literal"), "group": _FUZZ_GROUPS,
                           "members": _mostly(st.lists(st.integers(0, 100), max_size=8),
                                              st.sampled_from([[-1], [1100], [[0, 1], [1, 0]], 5, "x", [1.5]]))}),
    st.fixed_dictionaries({"kind": st.just("h-lambda"), "n": _FUZZ_SIZES, "k": _FUZZ_SIZES, "lambda": _FUZZ_SIZES},
                          optional={"seed": _mostly(st.integers(0, 9), st.sampled_from([None, [1]]))}),
    st.builds(lambda pd: {"kind": "katz", "p": pd[0], "d": pd[1]},
              _mostly(st.sampled_from(_KATZ), st.sampled_from([(4, 2), (1, 3), (3, 0), (3, None), ("x", 2)]))),
    st.fixed_dictionaries({"kind": st.just("file"), "path": _mostly(st.just("set"), st.sampled_from(["missing", 7]))}),
    st.sampled_from([{}, {"kind": "nope"}, {"kind": "random", "group": "Z16", "size": 3, "extra": 1}]),
)
_FUZZ_EXPERIMENTS = st.fixed_dictionaries(
    {"kind": _mostly(st.sampled_from(["verify", "structure", "example"]), st.sampled_from(["nope", 3, None])),
     "seed": _mostly(st.integers(0, 9), st.sampled_from(["s", None, [1], 1.5])),
     "sets": _mostly(st.lists(_FUZZ_SOURCES, min_size=1, max_size=2), st.sampled_from(["abc", [1], 5, []])),
     "instances": _mostly(st.integers(0, 8), st.sampled_from([-1, "3", "x", None, 2.5, [1]]))},
    optional={
        "name": _mostly(st.text(max_size=4), st.sampled_from([3, None])),
        "group": _FUZZ_GROUPS,
        "pipeline": _mostly(st.sampled_from(["auto", "bohr", "dichotomy"]), st.sampled_from(["nope", "subspace", 1])),
        "params": _mostly(
            st.dictionaries(st.sampled_from(["m", "m_prime", "kappa", "zeta", "t"]),
                            st.sampled_from(["1/2", 2, "3", "1/8", "3/2", "101/100", "1/1000"]), max_size=3),
            st.sampled_from([{"zeta": "0"}, {"m": -1}, {"t": None}, {"m": "abc"}, {"c_local": 1}, [1], "x"])),
        "suites": _mostly(st.lists(st.sampled_from(list(harness._SUITES)), max_size=3),
                          st.sampled_from([["nope"], "parseval", 5, None])),
        "output": _mostly(st.none(), st.sampled_from([3, [1]])),
    },
)


def _resolve_paths(value, paths: dict):
    """value with every file source's placeholder path made a real path."""
    if isinstance(value, list):
        return [_resolve_paths(v, paths) for v in value]
    if isinstance(value, dict):
        if value.get("kind") == "file" and value.get("path") in paths:
            return {**value, "path": paths[value["path"]]}
        return {k: _resolve_paths(v, paths) for k, v in value.items()}
    return value


@given(config=st.one_of(
    _FUZZ_EXPERIMENTS,
    st.builds(lambda shared, items: {**shared, "experiments": items},
              _FUZZ_EXPERIMENTS, st.lists(_FUZZ_EXPERIMENTS, max_size=2)),
    st.sampled_from([[], 3, "x", {"experiments": 5}, {"experiments": [1]}]),
))
@settings(max_examples=150, deadline=None)
def test_random_experiment_configs_exit_without_a_traceback(config, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("config")
    paths = {"set": _structure_set_file(tmp, "F2^8"), "missing": str(tmp / "none.txt")}
    given = tmp / "given.json"
    given.write_text(json.dumps(_resolve_paths(config, paths)))
    _exit_without_a_traceback(["verify", "--config", str(given), "--summary"])


def test_output_must_be_a_path(tmp_path, capsys):
    # an integer output would be opened as that file descriptor
    sink = tmp_path / "sink"
    fd = os.open(sink, os.O_WRONLY | os.O_CREAT)
    try:
        given = tmp_path / "given.json"
        given.write_text(json.dumps({"seed": 1, "suites": ["triangle"], "output": fd}))
        assert main(["verify", "--config", str(given)]) == 2
    finally:
        with contextlib.suppress(OSError):  # closed already if the report went to it
            os.close(fd)
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.out == ""
    assert sink.read_bytes() == b""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["given.json", "sink"]


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


def _special_set(head: str, members: str) -> str:
    g = parse_group_text(head)
    picks = {"empty": [], "singleton": [g.order - 1], "full": range(g.order)}[members]
    return dump_set(group_set(g, picks))


@given(st.one_of(
    set_files(["Z6", "Z4xZ6", "F2^3", "Z2xZ3xZ5"]),
    st.builds(_special_set, st.sampled_from(["Z2", "Z6", "F2^3", "Z4xZ6"]), st.sampled_from(["empty", "singleton", "full"])),
))
@settings(max_examples=150, deadline=None)
def test_stats_exit_codes_on_fuzzed_set_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.set")
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["stats", path])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1) and not err.getvalue():
        assert json.loads(out.getvalue())["size"] >= 1
    else:
        assert err.getvalue().startswith({1: "check failed:", 2: "config error:", 3: "resource cap:"}[code])


_FUNCTION_VALUES = {
    "int": ["0", "3", "-7", "+2", "1_000", "9" * 30],
    "real": ["0", "1/2", "-3/4", "0.25", "2", "1e308", "9" * 30 + "/7"],
    "complex": ["0", "1+2j", "-1j", "(1+1j)", "3", "1e308+1e308j"],
}
# a zero denominator, non-finite values, and tokens no reader of any kind accepts
_BAD_VALUES = [
    "1/0", "0/0", "-5/0", "1e400", "inf", "-inf", "nan", "infj", "nanj",
    "x", "1/", "/2", "1//2", "1.5.2", "0x10", "1 2",
]


@st.composite
def function_files(draw) -> str:
    """The text of a function file, valid or not: a header (now and then a
    bad one), then 'index value' lines of its kind, now and then with an
    index out of range, a repeat, a missing value, a zero denominator, a
    non-finite value or a token no reader accepts."""
    group = draw(st.sampled_from(["Z4", "Z6", "F2^3", "Z2xZ3"]))
    kind = draw(st.sampled_from(sorted(_FUNCTION_VALUES)))
    good = f"group={group} kind={kind}"
    bad = [f"group={group}", f"group=Q8 kind={kind}", f"group={group} kind=rational", f"{good} x=1"]
    lines = [draw(st.sampled_from([good] * 12 + bad))]
    order = parse_group_text(group).order
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        idx = draw(st.sampled_from([str(draw(st.integers(0, order - 1)))] * 8 + [str(order), "-1", "x", ""]))
        value = draw(st.sampled_from(_FUNCTION_VALUES[kind] * 2 + _BAD_VALUES))
        lines.append(f"{idx} {value}".strip())
    return "\n".join(lines) + "\n"


# finite entries whose float transform leaves the double range: a sum past
# it, and an integer no double holds; the integer Walsh path keeps the
# latter exact
_OVERFLOW_FILES = ("group=Z4 kind=real\n0 1e308\n1 1e308\n", f"group=Z4 kind=int\n0 {10**400}\n")
_EXACT_BIG_FILE = f"group=F2^2 kind=int\n0 {10**400}\n"


@given(function_files())
@example("group=Z4 kind=real\n1 1/0\n")
@example("group=Z4 kind=real\n1 nan\n")
@example(_OVERFLOW_FILES[0])
@example(_OVERFLOW_FILES[1])
@example(_EXACT_BIG_FILE)
@settings(max_examples=150, deadline=None)
def test_spectrum_exit_codes_on_fuzzed_function_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.txt")
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["spectrum", path])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    entries = [line.split(None, 1) for line in text.splitlines()[1:]]
    if any(len(parts) == 2 and parts[1] in _BAD_VALUES for parts in entries) or text in _OVERFLOW_FILES:
        assert code == 2
    if text == _EXACT_BIG_FILE:
        assert code == 0
    if code == 0:
        assert out.getvalue().startswith("group=")
    else:
        assert err.getvalue().startswith({1: "check failed:", 2: "config error:", 3: "resource cap:"}[code])

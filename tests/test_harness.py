from __future__ import annotations

import hashlib
import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import addcomb.harness as harness
from addcomb.families import HLambdaSpec
from addcomb.groups import boolean_group, format_group_text, make_group
from addcomb.harness import (
    ConfigError,
    RunConfig,
    build_params,
    config_from_dict,
    load_configs,
    realize_source,
    run_all,
    run_config,
    run_example,
    run_structure,
    run_verify,
    structure_result_dict,
    write_report,
)
from addcomb.fileio import parse_set, write_set
from addcomb.report import CheckFailure, record_eq
from addcomb.setstat import GroupSet, SetStack, group_set
from addcomb.structure import check_hypotheses, derive_params, dichotomy_M


def _verify_cfg(**kw):
    base = dict(kind="verify", name="t", seed=5, instances=4, group="Z24", suites=["parseval"])
    base.update(kw)
    return config_from_dict(base)


class _Chunks:
    """A stand-in rng whose randbytes hands out the given chunks in order,
    each of exactly the length asked for."""

    def __init__(self, *chunks):
        self.chunks = list(chunks)

    def randbytes(self, n):
        chunk = self.chunks.pop(0)
        assert len(chunk) == n
        return chunk


def _words(*values):
    return np.array(values, dtype="<u4").tobytes()


def test_parseval_tables_come_from_randbytes_by_rejection():
    table = harness._draw_table(random.Random("7:parseval"), 256, 5)
    assert table.shape == (256, 5) and table.dtype == np.int64
    assert hashlib.sha256(table.tobytes()).hexdigest() == (
        "02a69b6d7c7f34ce7347b2396d2bc5419dc2befbc1381bd63e9891c656b76e5f"
    )

    # a byte below 255 reads as byte % 17 - 8, and the table fills column
    # by column; each 255 is rejected and drawn again
    rng = _Chunks(bytes([255, 0, 1, 255]), bytes([19, 255]), bytes([254]))
    assert harness._draw_table(rng, 2, 2).tolist() == [[-8, -6], [-7, 8]]
    assert not rng.chunks


@pytest.mark.parametrize(
    "n, sizes",
    [
        (1, [0, 1, 1]),
        (6, [0, 1, 3, 4, 6, 2]),
        (256, [0, 1, 2, 128, 129, 255, 256, 85]),
        (1 << 21, [0, 1, 2, 3, (1 << 21) - 2]),
    ],
)
def test_drawn_sets_have_their_sizes_in_order_and_range(n, sizes):
    g = make_group((max(n, 2),))  # n = 1 draws subsets of range(1) on Z2
    draw = lambda seed: harness._draw_subsets(random.Random(seed), g, np.array(sizes), n)
    sets = draw("s")
    assert isinstance(sets, SetStack) and sets.group == g
    assert sets.sizes.tolist() == [len(members) for members in sets] == sizes
    for members in sets:
        assert members.dtype == np.int64
        assert (np.diff(members) > 0).all()
        assert members.size == 0 or (0 <= members[0] and members[-1] < n)
    assert [m.tolist() for m in draw("s")] == [m.tolist() for m in sets]
    assert n == 1 or [m.tolist() for m in draw("t")] != [m.tolist() for m in sets]


def test_small_sets_on_a_group_of_order_2_21_are_drawn_without_a_table():
    # one int64 row of the group would take 16 MiB
    g = make_group((1 << 21,))
    tracemalloc.start()
    try:
        rng = random.Random(3)
        sets = harness._draw_subsets(rng, g, 1 + harness._draw_below(rng, 400, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert set(sets.sizes.tolist()) == {1, 2, 3, 4}
    assert len(set(sets.members.tolist())) > 900  # spread over the group


@pytest.mark.parametrize("k, quantile", [(3, 43.8), (4, 36.1)])
def test_subsets_of_z6_are_uniform(k, quantile):
    # 12000 draws over the 20 three-subsets (19 degrees of freedom) or the
    # 15 four-subsets, complements of drawn pairs (14): the chi-square
    # statistic stays below its 0.999 quantile
    sets = harness._draw_subsets(random.Random(6), make_group((6,)), np.full(12000, k))
    counts = Counter(tuple(m.tolist()) for m in sets)
    assert sorted(counts) == list(itertools.combinations(range(6), k))
    expected = len(sets) / len(counts)
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < quantile


def test_draws_reject_masked_words_past_the_range_and_redraw_repeats():
    # n = 6: words are masked to 3 bits (9 reads as 1) and 6 or 7 is
    # rejected; of a set's repeated members one is kept, the rest drawn again
    rng = _Chunks(_words(9, 1, 6), _words(4), _words(4), _words(15), _words(0))
    [members] = harness._draw_subsets(rng, make_group((6,)), np.array([3]))
    assert members.tolist() == [0, 1, 4]
    assert not rng.chunks
    with pytest.raises(ValueError):
        harness._draw_subsets(random.Random(1), make_group((3,)), np.array([4]))
    with pytest.raises(ValueError):
        harness._draw_below(random.Random(1), 2, 0)
    assert harness._draw_below(random.Random(1), 0, 0).size == 0


def test_config_rejects_unknown_keys_and_kinds():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "verify", "seed": 1, "bogus": 2})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "prove"})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "verify", "seed": 1, "suites": ["nope"]})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "verify", "seed": 1, "group": "Q8"})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "verify", "seed": 1, "instances": -1})


def test_config_requires_seed_for_randomized_runs():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "verify"})
    with pytest.raises(ConfigError):
        config_from_dict(
            {"kind": "structure", "sets": [{"kind": "random", "size": 4, "group": "Z24"}]}
        )
    # deterministic sources do not need one
    cfg = config_from_dict({"kind": "structure", "sets": [{"kind": "subgroup", "n": 8, "dim": 2}]})
    assert cfg.seed is None


def test_load_configs_shared_keys_and_duplicates(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps(
            {
                "seed": 9,
                "instances": 3,
                "experiments": [
                    {"name": "a", "kind": "verify", "suites": ["parseval"], "group": "Z24"},
                    {"name": "b", "kind": "verify", "suites": ["triangle"], "group": "Z24"},
                ],
            }
        )
    )
    configs = load_configs(str(p))
    assert [c.name for c in configs] == ["a", "b"]
    assert all(c.seed == 9 and c.instances == 3 for c in configs)

    p2 = tmp_path / "dup.json"
    p2.write_text(
        json.dumps(
            {
                "seed": 9,
                "experiments": [
                    {"name": "a", "suites": ["parseval"]},
                    {"name": "a", "suites": ["triangle"]},
                ],
            }
        )
    )
    with pytest.raises(ConfigError):
        load_configs(str(p2))
    p3 = tmp_path / "bad.json"
    p3.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_configs(str(p3))


def test_realize_source_variants(tmp_path):
    g = make_group((24,))
    label, A, recipe = realize_source({"kind": "literal", "members": [0, 3, 7]}, g, None)
    assert A.members.tolist() == [0, 3, 7] and label == "literal[3]" and recipe is None

    _, B, _ = realize_source({"kind": "literal", "group": "Z4xZ6", "members": [[1, 2], [3, 5]]}, None, None)
    assert B.group.factors == (4, 6) and len(B) == 2

    _, C, _ = realize_source({"kind": "random", "size": 5}, g, 3)
    assert len(C) == 5

    _, H, _ = realize_source({"kind": "subgroup", "n": 6, "dim": 2}, None, None)
    assert H.members.tolist() == [0, 1, 2, 3]

    _, P, _ = realize_source({"kind": "planted", "n": 9, "dim": 2, "cosets": 3}, None, 4)
    assert len(P) == 12

    _, E, spec = realize_source({"kind": "h-lambda", "n": 8, "k": 3, "lambda": 5}, None, None)
    assert len(E) == 40 and spec == HLambdaSpec(n=8, k=3, lambda_size=5)

    _, K, fld = realize_source({"kind": "katz", "p": 3, "d": 2}, None, None)
    assert K.group.factors == (8,) and len(K) == 3 and (fld.p, fld.d) == (3, 2)

    sf = tmp_path / "s.set"
    write_set(sf, A)
    label, F, _ = realize_source({"kind": "file", "path": str(sf)}, g, None)
    assert F.members.tolist() == A.members.tolist()

    with pytest.raises(ConfigError):
        realize_source({"kind": "mystery"}, g, None)
    with pytest.raises(ConfigError):
        realize_source({"kind": "random", "size": 5}, g, None)  # no seed
    with pytest.raises(ConfigError):
        realize_source({"kind": "subgroup", "n": 6, "dim": 2, "extra": 1}, None, None)
    with pytest.raises(ConfigError):
        realize_source({"kind": "random"}, g, 3)  # missing size


def test_derive_params_pass_hypotheses():
    for A in (
        group_set(boolean_group(8), range(8)),
        group_set(make_group((24,)), [0, 1, 3, 7, 12]),
    ):
        params = derive_params(A, A)
        assert check_hypotheses(A, A, params).core_ok


def test_build_params_overrides():
    A = group_set(boolean_group(8), range(8))
    params = build_params({"zeta": "1/4", "t": 3}, A, A)
    assert params.zeta == Fraction(1, 4)
    assert params.t == 3
    with pytest.raises(ConfigError):
        build_params({"bogus": 1}, A, A)


def test_run_verify_is_deterministic_and_green():
    cfg = _verify_cfg(suites=["parseval", "triangle", "energy-mono"])
    rep1 = run_verify(cfg)
    rep2 = run_verify(cfg)
    assert rep1.ok
    assert rep1.body_dict() == rep2.body_dict()
    assert rep1.timings and set(rep1.timings) == {"parseval", "triangle", "energy-mono"}
    assert "checks passed" in rep1.summary_text()


def test_a_default_verify_op_builds_few_group_sets(monkeypatch):
    # every suite carries its drawn sets as one SetStack, not a GroupSet each
    built = []
    real = GroupSet.__post_init__

    def counting(self):
        built.append(len(self.members))
        real(self)

    monkeypatch.setattr(GroupSet, "__post_init__", counting)
    rep = run_verify(config_from_dict({"kind": "verify", "seed": 7}))
    assert rep.ok
    assert len(built) < 10


def test_run_verify_reports_a_corrupted_oracle(monkeypatch):
    # a lying energy routine must surface as a failing record, not an abort
    real = harness.higher_energies
    # shrinking one interior order breaks log-convexity at the next order up
    monkeypatch.setattr(
        harness,
        "higher_energies",
        lambda sets, top: [{k: e // 1000 + 1 if k == 3 else e for k, e in row.items()} for row in real(sets, top)],
    )
    rep = run_verify(_verify_cfg(suites=["energy-mono"]))
    assert not rep.ok
    assert any(not r["ok"] for r in rep.records)
    assert "FAIL" in rep.summary_text()
    # the report still carries config and timing info
    assert rep.config["name"] == "t"
    assert "energy-mono" in rep.timings


def test_a_check_failure_leaves_only_its_record_of_the_suite(monkeypatch):
    # bohr-size passes on its first default group, Z101, and trips a hard
    # assertion on its second, Z60: its Z101 records are dropped, and the
    # suite after it still runs
    real = harness.size_bound_stack
    failed = record_eq("tripped size bound", "bohr:size", 1, 0, note="Z60")
    groups = []

    def tripping(g, instances):
        groups.append(format_group_text(g))
        if g.factors == (60,):
            raise CheckFailure(failed)
        return real(g, instances)

    monkeypatch.setattr(harness, "size_bound_stack", tripping)
    rep = run_verify(config_from_dict({"kind": "verify", "seed": 7, "suites": ["bohr-size", "parseval"]}))
    assert groups == ["Z101", "Z60"]
    assert [r["ref"] for r in rep.records] == ["bohr:size"] + ["parseval"] * 4
    assert rep.records[0] == failed.to_dict()
    assert set(rep.timings) == {"bohr-size", "parseval"}
    assert not rep.ok


def test_run_structure_subspace_entry_shape():
    cfg = config_from_dict(
        {"kind": "structure", "name": "s", "sets": [{"kind": "subgroup", "n": 9, "dim": 2}]}
    )
    rep = run_structure(cfg)
    assert rep.ok
    entry = rep.results[0]
    assert entry["mode"] == "subspace"
    assert entry["group"] == "F2^9"
    assert entry["hypotheses"]["core_ok"] is True
    res = entry["result"]
    assert res["kind"] == "SubspacePiece"
    assert res["witness"]["codim"] >= 0
    assert "jump" in res


def test_run_structure_dichotomy_mode():
    cfg = config_from_dict(
        {
            "kind": "structure",
            "name": "d",
            "pipeline": "dichotomy",
            "sets": [{"kind": "subgroup", "n": 10, "dim": 3}],
        }
    )
    rep = run_structure(cfg)
    assert rep.ok
    assert rep.results[0]["result"]["kind"] == "SubspacePiece"


def test_run_example_embeds_set_text():
    cfg = config_from_dict(
        {
            "kind": "example",
            "name": "e",
            "sets": [
                {"kind": "h-lambda", "n": 8, "k": 3, "lambda": 5},
                {"kind": "katz", "p": 3, "d": 2},
            ],
        }
    )
    rep = run_example(cfg)
    assert rep.ok
    assert len(rep.results) == 2
    A = parse_set(rep.results[0]["set_text"])
    assert len(A) == 40
    assert rep.results[1]["family"] == "katz[3,2]"


def test_run_all_preserves_order():
    configs = [
        _verify_cfg(name="one", suites=["parseval"]),
        _verify_cfg(name="two", suites=["triangle"]),
        _verify_cfg(name="three", suites=["energy-mono"]),
    ]
    reports = run_all(configs)
    assert [r.config["name"] for r in reports] == ["one", "two", "three"]
    assert all(r.ok for r in reports)


def test_structure_result_dict_shapes():
    H = group_set(boolean_group(10), range(8))
    res = dichotomy_M(H)
    d = structure_result_dict(res)
    assert d["kind"] == "SubspacePiece"
    assert set(d["witness"]) >= {"z", "codim", "size", "density"}

    A = group_set(make_group((1000,)), [0, 1])
    lc = structure_result_dict(dichotomy_M(A, M=1))
    assert lc["kind"] == "LargeCoefficient"
    assert set(lc["witness"]) >= {"x", "value"}


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n,\n  ", "\x00\x1f\x7f", "é☃𝄞", '{"a": [1]}']),
)


def _json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(min_value=-(1 << 70), max_value=1 << 70), children, max_size=4),
    )


@settings(max_examples=400, deadline=None)
@given(st.recursive(_JSON_SCALARS, _json_containers, max_leaves=40))
@example({"a": [], "b": {}, "c": [[], {}, [[{}]]]})
@example({3: {2: [1.5, -0.0]}, -1: {}, 1 << 70: [float("nan")]})
@example([[float("inf"), True], "x", (None,), {}])
def test_dumps_is_the_stdlib_indent_2_sorted_text(value):
    assert harness._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dumps_refuses_what_the_stdlib_refuses(monkeypatch):
    for value in (np.int64(3), [1, np.int64(3)], {"a": {"b": [np.float32(1)]}}, {"a": {(1, 2): 1}}, {1: 1, "a": [2]}):
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            harness._dumps(value)
        assert str(got.value) == str(want.value)
    # a Python built without _json takes the stdlib writer itself
    monkeypatch.setattr(harness, "c_make_encoder", None)
    value = {"b": [1, {"c": float("nan")}], "a": ()}
    assert harness._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_write_report_round_trip(tmp_path):
    rep = run_verify(_verify_cfg())
    out = tmp_path / "rep.json"
    write_report(rep, str(out))
    data = json.loads(out.read_text())
    assert data["schema"] == "addcomb-report/1"
    assert data["config"]["name"] == "t"
    assert all(r["ok"] for r in data["records"])

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

import addcomb.harness as harness
from addcomb.groups import boolean_group, make_group
from addcomb.harness import (
    ConfigError,
    RunConfig,
    build_params,
    config_from_dict,
    derive_params,
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
from addcomb.setstat import group_set
from addcomb.structure import check_hypotheses, dichotomy_M, extract_subspace


def _verify_cfg(**kw):
    base = dict(kind="verify", name="t", seed=5, instances=4, group="Z24", suites=["parseval"])
    base.update(kw)
    return config_from_dict(base)


def test_parseval_tables_come_from_randbytes_by_rejection():
    table = harness._draw_table(random.Random("7:parseval"), 256, 5)
    assert table.shape == (256, 5) and table.dtype == np.int64
    assert hashlib.sha256(table.tobytes()).hexdigest() == (
        "02a69b6d7c7f34ce7347b2396d2bc5419dc2befbc1381bd63e9891c656b76e5f"
    )

    class Chunks:
        def __init__(self, *chunks):
            self.chunks = list(chunks)

        def randbytes(self, n):
            chunk = self.chunks.pop(0)
            assert len(chunk) == n
            return chunk

    # a byte below 255 reads as byte % 17 - 8, and the table fills column
    # by column; each 255 is rejected and drawn again
    rng = Chunks(bytes([255, 0, 1, 255]), bytes([19, 255]), bytes([254]))
    assert harness._draw_table(rng, 2, 2).tolist() == [[-8, -6], [-7, 8]]
    assert not rng.chunks


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
    label, A = realize_source({"kind": "literal", "members": [0, 3, 7]}, g, None)
    assert A.members.tolist() == [0, 3, 7] and label == "literal[3]"

    _, B = realize_source({"kind": "literal", "group": "Z4xZ6", "members": [[1, 2], [3, 5]]}, None, None)
    assert B.group.factors == (4, 6) and len(B) == 2

    _, C = realize_source({"kind": "random", "size": 5}, g, 3)
    assert len(C) == 5

    _, H = realize_source({"kind": "subgroup", "n": 6, "dim": 2}, None, None)
    assert H.members.tolist() == [0, 1, 2, 3]

    _, P = realize_source({"kind": "planted", "n": 9, "dim": 2, "cosets": 3}, None, 4)
    assert len(P) == 12

    _, E = realize_source({"kind": "h-lambda", "n": 8, "k": 3, "lambda": 5}, None, None)
    assert len(E) == 40

    _, K = realize_source({"kind": "katz", "p": 3, "d": 2}, None, None)
    assert K.group.factors == (8,) and len(K) == 3

    sf = tmp_path / "s.set"
    write_set(sf, A)
    label, F = realize_source({"kind": "file", "path": str(sf)}, g, None)
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
    assert rep1.body_text() == rep2.body_text()
    assert rep1.timings and set(rep1.timings) == {"parseval", "triangle", "energy-mono"}
    assert "checks passed" in rep1.summary_text()


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


def test_write_report_round_trip(tmp_path):
    rep = run_verify(_verify_cfg())
    out = tmp_path / "rep.json"
    write_report(rep, str(out))
    data = json.loads(out.read_text())
    assert data["schema"] == "addcomb-report/1"
    assert data["config"]["name"] == "t"
    assert all(r["ok"] for r in data["records"])

"""Design rules of the package, read off its source.

Each rule counts the matches of a regular expression in the source of the
package, the tests or one definition: a name gone, a definition made once, a
call made in one place.  A rule that keeps a name gone also counts what
replaced it, so a rename fails the rule instead of passing it unseen.  Where
the rule is about calls, the syntax tree is read; bench/tracer.py, which
patches the package by name, is read the same way, never imported.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pathlib
import re
import types

import pytest

from addcomb.groups import GroupSpec
from addcomb.structure import extract

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted(p.stem for p in (ROOT / "src" / "addcomb").glob("*.py"))
TESTS = sorted(f"tests/{p.stem}" for p in (ROOT / "tests").glob("*.py"))


@functools.lru_cache(maxsize=None)
def _text(name: str) -> str:
    """A package module ("bohr"), or any file by its path without ".py"."""
    return (ROOT / (f"{name}.py" if "/" in name else f"src/addcomb/{name}.py")).read_text(encoding="utf-8")


@functools.lru_cache(maxsize=None)
def _texts(where: str) -> tuple[str, ...]:
    """The source a rule reads, space-separated: "src" (every package
    module), "tests" (every test module), a module, or "module:name", every
    definition of name (a function, method or class) in the module."""
    texts = []
    for part in where.split():
        module, _, name = part.partition(":")
        modules = {"src": PACKAGE, "tests": TESTS}.get(module, [module])
        if not name:
            texts += map(_text, modules)
            continue
        text = _text(module)
        defs = [ast.get_source_segment(text, n) for n in ast.walk(ast.parse(text))
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
        assert defs, f"{module} defines no {name}"
        texts += defs
    return tuple(texts)


# Each rule: rows (scope, pattern, count).  The pattern matches exactly count
# times in the scope's source, comments included, with ^ at each line start.
# A row of count 0 keeps a name gone; every rule also has a row that counts
# what is there.
RULES = {
    "the test oracles call no scalar index shim; only test_groups.py does": [
        ("tests/oracles", r"\.(unindex|index|add_index|neg_index|sub_index)\(", 0),
        ("tests", r"\.(add_index|neg_index|sub_index)\(", 3),
        ("tests/test_groups", r"\.(add_index|neg_index|sub_index)\(", 3),
        ("tests/oracles", r"^def element_(add|sub|neg|coords)\(", 4),
    ],
    "one float error model, and no hand-picked float tolerance": [
        ("src", r"[0-9]e-[0-9]|limit_denominator\(|_FLOAT_SLACK|_FLOAT_GUARD|_KATZ_REL_TOL", 0),
        ("harmonic", r"^def (transform_error|transform_errors|conv_errors)\(|^_U =", 4),
    ],
    "sets are arrays, never tuples of members": [
        ("src", r"as_array\(|index_set|GroupSet\([^)]*tuple\(", 0),
        ("setstat", r"^def group_set\(|^class (GroupSet|SetStack)\b", 3),
    ],
    "Bohr sets are counted on an integer key, never a float key": [
        ("bohr", r"float64|2\.0\*\*|\bf8\b|\b\d+\.\d", 0),
        ("bohr", r"^def (_keys|_radius_cut)\(", 2),
    ],
    "Bohr counts keep no sorted or weighted key and no masked store; one counter, one phase table": [
        ("bohr", r"sorted_keys|_KEY_BOUND|lcm|where=", 0),
        ("bohr", r"^class _ExactCounter\b|^def (_phase_table|_outer_sum)\(", 3),
    ],
    "Bohr phases come from per-digit tables, never coordinates and a matmul": [
        ("bohr", r"_coords_of|weights @|\S @ \S", 0),
        ("src", r"\b_coords_of\b", 0),
        ("bohr", r"^def (_digits|_phase_blocks)\(", 2),
    ],
    "each verify check has one entry point, its stacked kernel": [
        ("src", r"\b(katz_koester_rows|check_katz_koester|check_generalized_triangle|TriangleReport"
                r"|check_energy_difference_bound|check_size_bounds|_size_bound_records)\b", 0),
        ("setstat", r"^def (katz_koester_stack|triangle_stack|energy_difference_bounds)\(", 3),
        ("bohr", r"^def size_bound_stack\(", 1),
    ],
    "verify suites draw their sets in one array pass, as one SetStack": [
        ("harness", r"\.sample\(", 0),
        ("src", r"\b(_random_sets|_supports|_stack_group)\b", 0),
        ("harness", r"^def (_draw_below|_draw_subsets)\(", 2),
    ],
    "regularity is decided on integer cuts; the unread twin APIs stay deleted": [
        ("src", r"_grid_verdict|_grid_sizes|certified_size|read_function|borderline", 0),
        ("src", r"def (conv_error|idft|table_from_values|_l2|support)\(", 0),
        ("bohr", r"def count\(|def _cut\(|_passes|MAX_MEMBERSHIP_ORDER", 0),
        ("bohr", r"^def (_grid_counts|_grid_margins|regularity_test)\(", 3),
        ("harmonic", r"^def (idft_columns|conv_errors)\(", 2),
    ],
    "each verify suite is declared once, by its registry entry": [
        ("harness", r"_suite_groups|_MIN_ORDER", 0),
        ("harness", r"^class _Suite\b|^def _suite\(|^_SUITES\b.* =", 3),
    ],
    "one certify step recounts each piece from one of two builders": [
        ("src", r"_certify_subspace_branch|def _recount", 0),
        ("structure", r"def _(piece|trace)\(", 0),
        ("structure", r"^def (_annihilator|_paper_bohr)\(", 2),
        # one raise carries a failed certificate's trace, and Lambda's
        # nullspace is spanned once
        ("structure", r"trace=", 1),
        ("structure", r"raise CheckFailure\(.*trace=", 1),
        ("structure", r"nullspace_basis\(", 1),
    ],
    "one extraction entry point, where the group picks the piece": [
        ("src", r"def (extract_subspace|extract_bohr)\b|\"subgroup\" if", 0),
        ("src", r"def derive_params\b", 1),
        ("structure", r"^def derive_params\(", 1),
        ("structure", r"^def (extract|_pipeline_front|_extract)\(", 3),
    ],
    "one reader for every configured value and CLI option": [
        ("harness", r"int\(raw|_override\(|_group_value|def _int\(", 0),
        ("cli", r"def _parse_ints|def _parse_fractions|parse_group_text\(", 0),
        ("harness", r"^def _take\(|^_KINDS\b.* =", 2),
        ("cli:_option", r"\b_take\(", 1),
    ],
    "one failure type for a failed check, and no internal fault reads as one": [
        ("cli", r"AssertionError", 0),
        ("src", r"\b(HypothesisFailure|DensityGuaranteeFailed|InclusionFailed)\b", 0),
        ("report", r"^class CheckFailure\b", 1),
        ("cli:main", r"except CheckFailure\b", 1),
    ],
    "reports go through one JSON writer; the Bohr span mass is one array pass": [
        ("src", r"json\.dumps\([^)]*indent(?!.*# a Python built without _json)", 0),
        ("src", r"json\.dumps\([^)]*indent", 1),
        ("harness:_dumps", r"json\.dumps\([^)]*indent", 1),
        ("structure", r"w \* m\*\*2", 0),
        ("structure:_bohr_span_diagnostics", r"float_power\(|accumulate\(", 2),
    ],
    "each pipeline builds one piece at the paper's radius, with no escalation loop": [
        ("structure", r"_ESCALATION_TRIES|_candidates|class _Candidate|escalat", 0),
        ("structure", r"_subspace_result|_bohr_result|_bohr_candidates|size_ratio=", 0),
        ("structure:_paper_bohr", r"find_regular_radius\(", 1),
        ("structure", r"^def _extract\(|^_C_LOCAL =", 2),
    ],
    "one piece type": [
        ("structure harness", r"class (SubspacePiece|BohrPiece)\b|variant\.subspace|\.codim\b|<= 4096", 0),
        ("structure", r"^class Piece\b", 1),
    ],
    "proof constants stay constants, and GF(2) reduction has one entry": [
        ("src", r"k0_pad|params\.c_local|params\.c_chang|def (in_span|coset_label|reduce_vector)\(", 0),
        ("structure", r"^_K0_PAD =|^_C_LOCAL =", 2),
        ("f2", r"^def reduce_in_basis\(", 1),
    ],
    "one kernel for sums of powers": [
        ("src", r"def (sum_of_squares|_power_sums|_coords_in_basis)\(|64 \* g\.order\*\*3", 0),
        ("harmonic", r"^def power_sums\(", 1),
        ("harness:_parseval_suite families:verify_h_lambda", r"\bpower_sums\(", 2),
    ],
    "one Walsh butterfly, _wht, at every width and pass shape": [
        ("harmonic", r"(?i)^\s*def \w*(wht|walsh|hadamard|butterfly|radix)\w*\(", 3),
        ("harmonic", r"^\s*def (_wht|wht_int|wht_int_columns)\(", 3),
        ("harmonic", r"^def _wht\(", 1),
    ],
    "pair counts take one cost rule and one blocked loop, none per member": [
        ("setstat", r"_FFT_COST|for a in small\.members", 0),
        ("setstat:_pair_counts", r"\* transform_cost\(", 1),
        ("setstat", r"^def _conv_loop\(", 1),
    ],
    "spans grow by rolling the mask, and the Bohr span checks read the witness's span": [
        ("spectral", r"add_index_many|sub_index_many|dict\.fromkeys\(np", 0),
        ("structure", r"\bspan\(g, lam\)", 0),
        ("spectral", r"^def (_grow|_roll)\(", 2),
        ("structure:_bohr_span_diagnostics", r"witness\.span\b", 1),
    ],
    "B + A_x has no shift-loop kernel, and H+Lambda slices are read off A o A": [
        ("src", r"_plus_columns", 0),
        ("families", r"slice_set|\.translate\(", 0),
        ("setstat", r"^def katz_koester_stack\(", 1),
        ("families:verify_h_lambda", r"\bA\.autocorr\b", 2),
    ],
    "one dissociated witness, the heaviest-first greedy over the weight table": [
        ("src", r"independent_subset|brute_force_3B_subspace|dual_spaces|is_dissociated|_span_mask"
                r"|_SUBSPACES_PER_LEVEL_CAP", 0),
        ("spectral", r"_EXACT_SEARCH_MAX|def descend|^def span\(", 0),
        ("structure", r"spec\.members", 0),
        ("structure:_pipeline_front", r"max_dissociated\(|spec\.weights\b", 2),
        # the one span is the witness's, and the Bohr scan checks symmetry without a mirror pass
        ("spectral:DissociatedWitness", r"def span\(", 1),
        ("bohr", r"mirror", 0),
        ("bohr", r"^def _scan\(", 1),
    ],
    "setstat reads -A one way, and the thin wrappers nothing called stay deleted": [
        ("setstat", r"weakref|_transform_owner|_neg_of", 0),
        ("src", r"def (difference_set|slice_set|doubling_constant|energy|full_set|sumsets|conv_columns|translate)\(", 0),
        ("setstat:GroupSet", r"def neg\(", 1),
    ],
}


@pytest.mark.parametrize("rule", RULES)
def test_design_rule(rule):
    rows = RULES[rule]
    assert any(count for _, _, count in rows), "a rule counts what is there, not only what is gone"
    for where, pattern, count in rows:
        found = [m.group() for text in _texts(where) for m in re.finditer(pattern, text, re.M)]
        assert len(found) == count, f"{where}: {pattern!r} should match {count} times, matches {found}"


def test_the_extraction_core_is_called_only_inside_extract_and_no_caller_passes_a_kind():
    # the group picks the piece: extract takes (A, B, params) and the keyword bohr
    core = ("_pipeline_front", "_extract")

    def calls(node):
        return sorted(c.func.id for c in ast.walk(node)
                      if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id in core)

    tree = ast.parse(_text("structure"))
    [entry] = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "extract"]
    assert calls(tree) == calls(entry) == sorted(core)
    assert list(inspect.signature(extract).parameters) == ["A", "B", "params", "bohr"]
    passed = [f"{name}:{c.lineno}" for name in PACKAGE for c in ast.walk(ast.parse(_text(name)))
              if isinstance(c, ast.Call) and getattr(c.func, "id", getattr(c.func, "attr", None)) == "extract"
              and (len(c.args) > 3 or any(k.arg != "bohr" for k in c.keywords))]
    assert not passed


def test_the_oracles_call_no_groupspec_method():
    [spec] = [n for n in ast.walk(ast.parse(_text("groups"))) if isinstance(n, ast.ClassDef) and n.name == "GroupSpec"]
    methods = {n.name for n in spec.body if isinstance(n, ast.FunctionDef)}
    assert {"index", "unindex", "add_index"} <= methods
    assert not methods & set(re.findall(r"\.(\w+)\(", _text("tests/oracles")))


def test_the_package_init_is_its_docstring():
    # the package re-exports nothing, so importing one layer loads no other
    [doc] = ast.parse(_text("__init__")).body
    assert isinstance(doc, ast.Expr) and isinstance(doc.value.value, str)


def test_the_tracer_finds_what_it_patches_by_name():
    # install() reads vars(GroupSpec)[name] for each scalar method, and keys
    # its probes by the public functions of its modules, as "module.function"
    value = {t.id: n.value for n in ast.parse(_text("bench/tracer")).body if isinstance(n, ast.Assign)
             for t in n.targets if isinstance(t, ast.Name)}
    scalar = ast.literal_eval(value["SCALAR_METHODS"])
    assert scalar and all(isinstance(vars(GroupSpec).get(name), types.FunctionType) for name in scalar)
    modules = ast.literal_eval(value["MODULES"])
    probes = [ast.literal_eval(key) for key in value["PROBES"].keys]
    assert probes
    for key in probes:
        module, name = key.split(".")
        fn = vars(importlib.import_module(f"addcomb.{module}")).get(name)
        assert module in modules and not name.startswith("_"), key
        assert isinstance(fn, types.FunctionType) and fn.__module__ == f"addcomb.{module}", key

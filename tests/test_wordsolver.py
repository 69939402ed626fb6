"""Tests for the word problem solver.

Statuses in the frozen tables below are [DERIVED]: satisfiable entries
were confirmed by brute-force enumeration over bounded sequences, and
every witness is re-checked here against the reference semantics.
Unsatisfiable entries were cross-checked by exhausting the same
bounded domains.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from seqsolve import oracle, wordsolver
from seqsolve.ast import matrix_vars
from seqsolve.dfa import lit, star, union
from seqsolve.elaborate import ElaborationError, elaborate
from seqsolve.encode import (
    L,
    V,
    WAnd,
    WEq,
    WIn,
    WNot,
    WOr,
    WordProblem,
    bstar_dfa,
    encode_elaboration,
    wconj,
)
from seqsolve.oracle import Bounds
from seqsolve.parser import parse_formula
from seqsolve.randgen import gen_quadratic_clause
from seqsolve.wordsolver import (
    Budget,
    ClauseCapExceeded,
    check_sat,
    check_valid,
    nnf_dnf,
    solve_problem,
    _canon,
    _components,
    _diseq_branches,
    _length_infeasible,
    _replay,
    _simplify,
    _strip,
    _subst_eqs,
    _var,
)

BUDGET = Budget(max_nodes=200_000)
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _quadratic_problems() -> list[WordProblem]:
    """The 200 quadratic clauses of rng seed 1 as word problems."""
    rng = random.Random(1)
    out = []
    for _ in range(200):
        eqs = gen_quadratic_clause(rng)
        names = tuple(sorted({t.name for l, r in eqs for t in l + r if isinstance(t, V)}))
        matrix = wconj([WEq(l, r) for l, r in eqs])
        out.append(WordProblem("existential", names, matrix, names))
    return out


# ---------------------------------------------------------------------------
# clause extraction


def test_dnf_single_equation():
    clauses = nnf_dnf(WEq((V("x"),), (L("a"),)))
    assert len(clauses) == 1
    assert clauses[0].eqs == [((V("x"),), (L("a"),))]
    assert clauses[0].diseqs == []
    assert clauses[0].members == {}


def test_dnf_negated_equation_is_disequation():
    clauses = nnf_dnf(WNot(WEq((V("x"),), (V("y"),))))
    assert len(clauses) == 1
    assert clauses[0].eqs == []
    assert clauses[0].diseqs == [((V("x"),), (V("y"),))]


def test_dnf_negated_membership_complements():
    clauses = nnf_dnf(WNot(WIn("x", lit("ab"))))
    assert len(clauses) == 1
    d = clauses[0].members["x"]
    assert not d.accepts("ab")
    assert d.accepts("")
    assert d.accepts("ba")


def test_dnf_distributes_or_under_and():
    w = WAnd(
        WOr(WEq((V("x"),), ()), WEq((V("x"),), (L("a"),))),
        WOr(WEq((V("y"),), ()), WEq((V("y"),), (L("b"),))),
    )
    assert len(nnf_dnf(w)) == 4


def test_dnf_merges_memberships():
    w = WAnd(WIn("x", star(lit("a"))), WIn("x", union(lit(""), lit("a"))))
    clauses = nnf_dnf(w)
    assert len(clauses) == 1
    d = clauses[0].members["x"]
    assert d.accepts("") and d.accepts("a") and not d.accepts("aa")


def test_dnf_drops_contradictory_membership_clause():
    w = WAnd(WIn("x", lit("a")), WIn("x", lit("b")))
    assert nnf_dnf(w) == []


def test_dnf_clause_cap():
    w = WEq((V("x"),), ())
    for ch in "abcd":
        w = WOr(w, WEq((V("x"),), (L(ch),)))
    with pytest.raises(ClauseCapExceeded):
        nnf_dnf(w, cap=3)


# ---------------------------------------------------------------------------
# simplification

# Inside the search a side is a str: letters "abcd" and one interned code
# point per variable.
X, Y, Z, U, W = (_var(n) for n in "xyzuw")


def test_strip_common_affixes():
    assert _strip("a" + X + "b", "a" + Y + "cb") == (X, Y + "c")


def test_simplify_resolves_ground_equation():
    ok, eqs, diseqs, members, log = _simplify([("ab", "ab")], [], {})
    assert ok == "ok" and eqs == []


def test_simplify_rejects_ground_mismatch():
    assert _simplify([("a", "b")], [], {})[0] == "fail"


def test_simplify_pins_single_variable():
    ok, eqs, _, _, log = _simplify([(X + "a", "ba")], [], {})
    assert ok == "ok" and eqs == []
    assert (X, "b") in log


def test_simplify_empty_side_forces_empty_variables():
    ok, eqs, _, _, log = _simplify([(X + Y, "")], [], {})
    assert ok == "ok" and eqs == []
    assert (X, "") in log and (Y, "") in log


def test_simplify_empty_side_against_letter_fails():
    assert _simplify([("a", "")], [], {})[0] == "fail"


def test_simplify_applies_singleton_membership():
    ok, eqs, _, members, log = _simplify([(X, Y)], [], {X: lit("ab")})
    assert ok == "ok"
    assert eqs == [] and (Y, "ab") in log or (X, "ab") in log


def test_simplify_rejects_empty_membership():
    empty = lit("a").intersect(lit("b"))
    assert _simplify([], [], {X: empty})[0] == "fail"


def test_simplify_merges_variable_aliases():
    d1 = union(lit(""), lit("a"))
    d2 = union(lit("a"), lit("b"))
    ok, eqs, _, members, log = _simplify([(X, Y)], [], {X: d1, Y: d2})
    assert ok == "ok" and eqs == []
    # the memberships intersect to just "a", pinning both variables
    assert members == {}
    sigma = _replay(log, {})
    assert sigma == {X: "a", Y: "a"}


def test_simplify_eliminates_defined_variable():
    ok, eqs, _, _, log = _simplify([(X, Y + Z)], [], {})
    assert ok == "ok" and eqs == []
    assert (X, Y + Z) in log


def test_simplify_solves_tail_recursion_by_stripping():
    # x = y x is x-suffix stripping away, forcing y empty
    ok, eqs, _, _, log = _simplify([(X, Y + X)], [], {})
    assert ok == "ok" and eqs == []
    assert (Y, "") in log


def test_simplify_keeps_occurs_check_equation():
    ok, eqs, _, _, _ = _simplify([(X, Y + X + Z)], [], {})
    assert ok == "ok"
    assert eqs  # x also occurs inside the right side, so it is not defined by it


def test_simplify_fails_on_equal_disequation_sides():
    assert _simplify([], [(X + "a", X + "a")], {})[0] == "fail"


def test_simplify_drops_settled_disequations():
    ok, _, diseqs, _, _ = _simplify([], [("a", ""), ("a" + X, "b" + Y)], {})
    assert ok == "ok" and diseqs == []


def test_incremental_simplify_matches_full_rescan(monkeypatch):
    # Every search child is simplified from its parent's fixpoint with
    # only what the branch touched unsettled; simplifying the substituted
    # child with nothing settled must fire the same rules in the same order.
    simplify = wordsolver._simplify
    children = with_written = 0

    def both(eqs, diseqs, members, step=None, written=()):
        nonlocal children, with_written
        res = simplify(eqs, diseqs, members, step, written)
        if step is not None:
            children += 1
            with_written += bool(written)
            full = simplify(_subst_eqs(eqs, *step), diseqs, members)
            assert res[0] == full[0]
            if res[0] == "ok":
                _, eqs1, diseqs1, members1, log1 = res
                _, eqs2, diseqs2, members2, log2 = full
                assert (eqs1, diseqs1) == (eqs2, diseqs2)
                assert list(members1.items()) == list(members2.items())
                assert log1 == [step] + log2
        return res

    monkeypatch.setattr(wordsolver, "_simplify", both)
    f = parse_formula((CORPUS / "comparison_viol.seq").read_text())
    assert check_valid(f, BUDGET).status == "invalid"
    for wp in _quadratic_problems():
        solve_problem(wp, BUDGET)
    assert children > 5_000 and with_written > 1_000


def test_incremental_simplify_rechecks_merged_membership():
    # the substitution turns the settled x z = y w into x = y; merging
    # the aliases intersects their memberships down to the singleton "a"
    d1 = union(lit(""), lit("a"))
    d2 = union(lit("a"), lit("b"))
    parent = [(X + Z, Y + W)]
    members = {X: d1, Y: d2}
    assert _simplify(parent, [], members)[1] == parent  # a fixpoint
    ok, eqs, _, members2, log = _simplify(parent, [], members, (W, Z))
    assert ok == "ok" and eqs == [] and members2 == {}
    assert _replay(log, {}) == {X: "a", Y: "a", W: ""}
    full = _simplify(_subst_eqs(parent, W, Z), [], members)
    assert full == ("ok", [], [], {}, log[1:])


def test_replay_restores_time_ordered_values():
    log = [(X, Y + "a"), (Y, "b")]
    sigma = _replay(log, {})
    assert sigma == {Y: "b", X: "ba"}


def test_canon_orients_symmetric_equations():
    e1 = [(X + Y, "a")]
    e2 = [("a", X + Y)]
    assert _canon(e1, {}) == _canon(e2, {})


# ---------------------------------------------------------------------------
# length abstraction


def test_length_rejects_strict_growth():
    assert _length_infeasible([(X, X + "a")], {})


def test_length_accepts_balanced_system():
    assert not _length_infeasible([(X + Y, Y + X)], {})


def test_length_rejects_fractional_solution():
    assert _length_infeasible([(X + X, "aaa")], {})


def test_length_rejects_negative_solution():
    assert _length_infeasible([(X + X + "a", X)], {})


def test_length_checks_forced_length_against_membership():
    assert _length_infeasible([(X, "aa")], {X: lit("b")})
    assert not _length_infeasible([(X, "aa")], {X: lit("bb")})


# ---------------------------------------------------------------------------
# disequation branching


def test_diseq_branch_count_and_freshness():
    b1 = _diseq_branches(X, Y, 1)
    b2 = _diseq_branches(X, Y, 2)
    assert len(b1) == len(b2) == 14
    names1 = {c for eqs, _ in b1 for u, v in eqs for c in u + v if c > "d"}
    names2 = {c for eqs, _ in b2 for u, v in eqs for c in u + v if c > "d"}
    assert names1 & names2 == {X, Y}


def test_components_split_independent_systems():
    eqs = [(X, Y), (U, "a")]
    members = {W: bstar_dfa()}
    groups = _components(eqs, members)
    assert len(groups) == 3
    sizes = sorted((len(e), len(m)) for e, m in groups)
    assert sizes == [(0, 1), (1, 0), (1, 0)]


def test_components_join_on_shared_variable():
    eqs = [(X, Y), (Y, Z)]
    groups = _components(eqs, {Z: bstar_dfa()})
    assert len(groups) == 1


# ---------------------------------------------------------------------------
# end-to-end decisions

# (source, status, expected witness or None) [DERIVED]
SAT_CASES = [
    ("exists x . x = eps", {"x": ()}),
    ("exists x . first(x) == 3 & last(x) == -2", {"x": (3, -2)}),
    ("exists x, y . x ++ y = y ++ x & !(x = y)", None),
    ("exists x . len(x) == 2 & first(x) == last(x) & first(x) < 0", None),
    ("exists x, y . x ++ y = y ++ x & first(x) < first(y)", None),
    ("exists x . x in (INT INT) & first(x) == last(x) & first(x) == 1", None),
    ("exists x . x in (1 | 2)* & !(x = eps) & first(x) == 2", {"x": (2,)}),
    ("exists x . rev(x) = 1 ++ 2", {"x": (2, 1)}),
    (
        "exists x, y . rev(x) = y & first(x) == 1 & first(y) == 2 & len(x) == 2",
        {"x": (1, 2), "y": (2, 1)},
    ),
    ("exists x, y . x = y ++ y & len(x) == 4 & first(x) == 7", None),
    ("first(x) == 1", None),
]

UNSAT_CASES = [
    "exists x . x ++ 0 = 1 ++ x",
    "exists x . first(x) < first(x)",
    "exists x . rest(x) = x & !(x = eps)",
    "exists x, y . x ++ y = y ++ x & first(x) < first(y) & !(x = eps) & !(y = eps)",
    "exists x, y . rev(x) = 1 ++ y & len(x) == 0",
    "exists x . x in (1 | 2)* & first(x) == 3",
    "exists x, y . x = y ++ y & len(x) == 3",
]


@pytest.mark.parametrize("src,expected", SAT_CASES)
def test_satisfiable(src, expected):
    f = parse_formula(src)
    r = check_sat(f, BUDGET)
    assert r.status == "sat"
    assert oracle.matrix_value(f.matrix, r.witness)
    if expected is not None:
        assert r.witness == expected


@pytest.mark.parametrize("src", UNSAT_CASES)
def test_unsatisfiable(src):
    f = parse_formula(src)
    r = check_sat(f, BUDGET)
    assert r.status == "unsat"
    names = tuple(f.prefix) if f.quantifier else tuple(sorted(matrix_vars(f.matrix)))
    assert oracle.brute_force_sat(f.matrix, names, Bounds(max_len=2, values=(-1, 0, 1))) is None


def test_variables_named_like_letters():
    # the word variables of a, b, c and d must not meet the letters "abcd"
    f = parse_formula(
        "exists a, b, c, d . a = b ++ c & b = 1 & c = d ++ d & d = 2 ++ -1"
        " & a ++ 3 = 1 ++ rest(a) ++ 3"
    )
    r = check_sat(f, BUDGET)
    assert r.status == "sat"
    assert r.witness == {"a": (1, 2, -1, 2, -1), "b": (1,), "c": (2, -1, 2, -1), "d": (2, -1)}
    assert oracle.matrix_value(f.matrix, r.witness)


def test_cold_and_warm_tables_agree():
    # in a fresh interpreter the first solve interns every variable and
    # automaton it meets; the second finds them all interned already
    src = "exists x, y . x ++ y = y ++ x & !(x = y) & first(y) < first(x)"
    code = (
        "from seqsolve.parser import parse_formula\n"
        "from seqsolve.wordsolver import Budget, check_sat\n"
        f"f = parse_formula({src!r})\n"
        "for _ in range(2):\n"
        "    r = check_sat(f, Budget())\n"
        "    print(r.status, r.witness, r.nodes, r.clauses)\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    cold, warm = proc.stdout.splitlines()
    assert cold == warm
    status, *_, nodes, _ = cold.split()
    assert status == "sat" and int(nodes) > 0


def test_universal_sentence_reported_as_sat():
    r = check_sat(parse_formula("forall x . first(x) == first(x ++ x)"), BUDGET)
    assert r.status == "sat"
    assert r.witness is None and r.counterexample is None


def test_universal_sentence_counterexample():
    f = parse_formula("forall x . first(x) == 0")
    r = check_sat(f, BUDGET)
    assert r.status == "unsat"
    assert r.counterexample is not None
    assert not oracle.matrix_value(f.matrix, r.counterexample)


# (source, status) [DERIVED]
VALIDITY_CASES = [
    ("forall x . first(1 ++ x) == 1", "valid"),
    ("forall x, y . first(x) < first(y) => !(x = y)", "valid"),
    ("forall x . len(x) <= 2 | len(x) > 1", "valid"),
    ("forall x . last(x) == 0", "invalid"),
    ("first(x ++ 3) == first(3 ++ x)", "invalid"),
]


@pytest.mark.parametrize("src,expected", VALIDITY_CASES)
def test_validity(src, expected):
    f = parse_formula(src)
    r = check_valid(f, BUDGET)
    assert r.status == expected
    if expected == "invalid":
        assert not oracle.matrix_value(f.matrix, r.counterexample)
    else:
        assert r.counterexample is None


def test_mixed_rev_occurrence_is_rejected():
    with pytest.raises(ElaborationError):
        check_sat(parse_formula("exists x . rev(x) = x"), BUDGET)


def test_universal_problem_cannot_be_solved_directly():
    elab = elaborate(parse_formula("forall x . x = eps"))
    wp = encode_elaboration(elab)
    with pytest.raises(ValueError):
        solve_problem(wp, BUDGET)


# The search's exploration, pinned: (file, status, nodes, clauses,
# counterexample). A change that moves these figures must update them
# and say why in CHANGES.md.
EXPLORATION = [
    ("comparison_hold.seq", "valid", 7485, 144, None),
    ("comparison_viol.seq", "invalid", 6714, 144, {"h": (4, 5), "t": (7,), "v": (5,)}),
    ("mergesort_final_vc.seq", "valid", 3500, 4, None),
]


@pytest.mark.parametrize("name,status,nodes,clauses,counterexample", EXPLORATION)
def test_search_exploration_pinned(name, status, nodes, clauses, counterexample):
    r = check_valid(parse_formula((CORPUS / name).read_text()), BUDGET)
    assert (r.status, r.nodes, r.clauses) == (status, nodes, clauses)
    assert r.counterexample == counterexample


def test_quadratic_exploration_pinned():
    assert sum(solve_problem(wp, BUDGET)[2].nodes for wp in _quadratic_problems()) == 79


# ---------------------------------------------------------------------------
# budgets and unknowns


def test_node_budget_exhaustion_is_reported():
    f = parse_formula("exists x, y . x ++ y = y ++ x & !(x = y)")
    r = check_sat(f, Budget(max_nodes=5))
    assert r.status == "unknown"
    assert r.reason == "node budget exhausted"
    assert r.witness is None


def test_witness_length_cap_is_reported():
    f = parse_formula("exists x, y . x ++ x = 70 ++ 70 ++ y")
    r = check_sat(f, Budget(max_nodes=200_000))
    assert r.status == "unknown"
    assert r.reason == "witness length cap"


def test_budget_from_env(monkeypatch):
    monkeypatch.setenv("SEQSOLVE_BUDGET_NODES", "123")
    assert Budget.from_env().max_nodes == 123
    monkeypatch.delenv("SEQSOLVE_BUDGET_NODES")
    assert Budget.from_env().max_nodes == 200_000


def test_results_are_deterministic():
    src = "exists x, y . x ++ y = y ++ x & !(x = y)"
    r1 = check_sat(parse_formula(src), Budget(max_nodes=200_000))
    r2 = check_sat(parse_formula(src), Budget(max_nodes=200_000))
    assert (r1.status, r1.witness, r1.nodes) == (r2.status, r2.witness, r2.nodes)


# ---------------------------------------------------------------------------
# agreement with bounded enumeration

CONSISTENCY_SOURCES = [
    "x = y",
    "!(x = y)",
    "x ++ y = y ++ x",
    "first(x) == last(y)",
    "first(x) < first(y) & first(y) < first(x)",
    "x = y ++ 1",
    "rest(x) = y & first(x) == 1",
    "len(x) == 2 & x in (0)*",
    "len(x) == 2 & x in (0)* & first(x) == 1",
    "x in (1 | -1)* & first(x) < last(x)",
    "first(x) == first(y) + first(y)",
    "first(x) != 0 & x = eps",
    "last(x ++ 5) == 5",
    "x ++ 1 = 1 ++ x & first(x) == 1 & len(x) == 2",
    "first(rest(x)) == 4 & len(x) <= 1",
]


@pytest.mark.parametrize("src", CONSISTENCY_SOURCES)
def test_agreement_with_enumeration(src):
    f = parse_formula(src)
    names = tuple(sorted(matrix_vars(f.matrix)))
    bounds = Bounds(max_len=2, values=(-1, 0, 1))
    found = oracle.brute_force_sat(f.matrix, names, bounds)
    r = check_sat(f, BUDGET)
    assert r.status in ("sat", "unsat")
    if found is not None:
        assert r.status == "sat"
    if r.status == "unsat":
        assert found is None
    if r.status == "sat":
        assert oracle.matrix_value(f.matrix, r.witness)

"""Tests for the word problem solver.

Statuses in the frozen tables below are [DERIVED]: satisfiable entries
were confirmed by brute-force enumeration over bounded sequences, and
every witness is re-checked here against the reference semantics.
Unsatisfiable entries were cross-checked by exhausting the same
bounded domains.
"""

import collections
import functools
import heapq
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from seqsolve import dfa, oracle, wordsolver
from seqsolve.ast import FORALL, And, BoolLit, Not, Or, conj, matrix_vars
from seqsolve.dfa import ALPHABET, concat, empty_dfa, lit, make_dfa, plus, star, union
from seqsolve.elaborate import ElaborationError, elaborate
from seqsolve.encode import (
    WEq,
    WIn,
    WordProblem,
    bplus_dfa,
    bstar_dfa,
    encode_elaboration,
    encode_int,
    frame_dfa,
    lstar_dfa,
    sign_dfa,
    var,
    var_name,
)
from seqsolve.oracle import Bounds
from seqsolve.parser import parse_formula
from seqsolve.randgen import gen_formula, gen_quadratic_clause
from seqsolve.vcgen import discharge, parse_program_file, vcs
from seqsolve.wordsolver import (
    Budget,
    ClauseCapExceeded,
    check_sat,
    check_valid,
    negation,
    nnf_dnf,
    solve_problem,
    _canon,
    _components,
    _diseq_branches,
    _extend,
    _final_assignment,
    _join,
    _Search,
    _ALLOWANCE,
    _length_bounds,
    _length_feasible,
    _length_row,
    _lengths_add,
    _lengths_bound,
    _NO_LENGTHS,
    _replay,
    _simplify,
    _race,
    _solve_constraints,
    _solve_equations,
    _solve_system,
    _strip,
    _subst_eqs,
)

BUDGET = Budget(max_nodes=200_000)


def _answer(search):
    """Resume a search, which yields its turns, until it answers."""
    while True:
        try:
            next(search)
        except StopIteration as done:
            return done.value


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PROGRAMS = CORPUS.parent / "programs"


def _quadratic_problems() -> list[WordProblem]:
    """The 200 quadratic clauses of rng seed 1 as word problems."""
    rng = random.Random(1)
    out = []
    for _ in range(200):
        eqs = gen_quadratic_clause(rng)
        names = tuple(sorted({var_name(c) for l, r in eqs for c in l + r if c > "d"}))
        matrix = conj([WEq(l, r) for l, r in eqs])
        out.append(WordProblem(names, matrix))
    return out


# A side is a str: letters "abcd" and one interned code point per variable.
X, Y, Z, U, W = (var(n) for n in "xyzuw")


# ---------------------------------------------------------------------------
# clause extraction


# A clause is yielded as its fixpoint (eqs, diseqs, members, log).


def test_dnf_single_equation():
    # the equation defines x, so the fixpoint is empty and logs x = a
    clauses = nnf_dnf(WEq(X, "a"))
    assert clauses == [([], [], {}, [(X, "a")])]


def test_dnf_negated_equation_is_disequation():
    clauses = nnf_dnf(Not(WEq(X, Y)))
    assert clauses == [([], [(X, Y)], {}, [])]


def test_dnf_negated_membership_complements():
    clauses = nnf_dnf(Not(WIn(X, lit("ab"))))
    assert len(clauses) == 1
    eqs, diseqs, members, log = clauses[0]
    assert (eqs, diseqs, list(members), log) == ([], [], [X], [])
    d = members[X]
    assert not d.accepts("ab")
    assert d.accepts("")
    assert d.accepts("ba")


def test_dnf_distributes_or_under_and():
    w = And(
        Or(WEq(X, ""), WEq(X, "a")),
        Or(WEq(Y, ""), WEq(Y, "b")),
    )
    clauses = nnf_dnf(w)
    assert len(clauses) == 4
    assert [log for _, _, _, log in clauses] == [
        [(X, ""), (Y, "")],
        [(X, ""), (Y, "b")],
        [(X, "a"), (Y, "")],
        [(X, "a"), (Y, "b")],
    ]
    assert all(c[:3] == ([], [], {}) for c in clauses)


def test_dnf_merges_memberships():
    w = And(WIn(X, star(lit("a"))), WIn(X, union(lit(""), lit("a"))))
    clauses = nnf_dnf(w)
    assert len(clauses) == 1
    d = clauses[0][2][X]
    assert d.accepts("") and d.accepts("a") and not d.accepts("aa")


def test_dnf_drops_contradictory_membership_clause():
    w = And(WIn(X, lit("a")), WIn(X, lit("b")))
    assert nnf_dnf(w) == []


def test_dnf_clause_cap():
    w = WEq(X, "")
    for ch in "abcd":
        w = Or(w, WEq(X, ch))
    with pytest.raises(ClauseCapExceeded):
        nnf_dnf(w, cap=3)


def _replayable(it):
    """Iterations over what it yields; it runs once, as far as the
    furthest of them has read."""
    seen = []

    def again():
        for i in itertools.count():
            if i == len(seen):
                c = next(it, None)
                if c is None:
                    return
                seen.append(c)
            yield seen[i]

    return again


class RawClause(NamedTuple):
    """A clause as distributing And over Or builds it: a conjunction on
    str sides, not simplified."""

    eqs: list = []
    diseqs: list = []
    members: dict = {}


def _eager_dnf(w):
    """The reference: the raw clauses of distributing And over Or, left
    to right, dropping only those whose memberships intersect to
    nothing. It is the eager normal form, yielded in order so that a
    test can take a prefix of a large one."""
    match w:
        case BoolLit(value=v):
            if v:
                yield RawClause()
        case WEq(left=l, right=r):
            yield RawClause(eqs=[(l, r)])
        case Not(arg=WEq(left=l, right=r)):
            yield RawClause(diseqs=[(l, r)])
        case WIn(var=x, dfa=d):
            if not d.is_empty():
                yield RawClause(members={x: d})
        case Not(arg=WIn(var=x, dfa=d)):
            yield from _eager_dnf(WIn(x, d.complement()))
        case Or(left=l, right=r):
            yield from _eager_dnf(l)
            yield from _eager_dnf(r)
        case And(left=l, right=r):
            rights = _replayable(_eager_dnf(r))
            for c1 in _eager_dnf(l):
                for c2 in rights():
                    members = dict(c1.members)
                    for x, d in c2.members.items():
                        members[x] = members[x].intersect(d) if x in members else d
                    if not any(d.is_empty() for d in members.values()):
                        yield RawClause(c1.eqs + c2.eqs, c1.diseqs + c2.diseqs, members)
        case _:
            raise TypeError(w)


def _assert_pruned_reference(w, limit: int | None = None) -> int:
    """The lazy clauses are the fixpoints _simplify gives from scratch
    to the reference's clauses, minus the clauses _simplify refutes or
    the length theory, run from scratch on the whole clause, refutes, in
    the same order and with the same content (memberships in the same
    key order); with a limit, as far as the first limit reference
    clauses reach. Returns how many the pruning dropped."""
    ref = list(itertools.islice(_eager_dnf(w), limit))
    kept = []
    for c in ref:
        res = _simplify(c.eqs, c.diseqs, c.members)
        if res[0] == "ok" and not _length_infeasible(c.eqs, c.members):
            kept.append(res[1:])
    lazy = [fix for fix, _ in itertools.islice(wordsolver._clauses(w, 10**6), len(kept) + 1)]
    if limit is not None and len(ref) == limit:
        lazy = lazy[: len(kept)]
    assert lazy == kept
    assert [list(c[2]) for c in lazy] == [list(c[2]) for c in kept]
    return len(ref) - len(kept)


def _problem(f):
    """The word problem check_sat or check_valid solves for f."""
    return encode_elaboration(elaborate(negation(f) if f.quantifier == FORALL else f))


@pytest.mark.parametrize("seed", [0, 1])
def test_lazy_clauses_are_the_pruned_eager_dnf_on_random_formulas(seed):
    # 1,400 formulas of up to 8 atoms with constants in [-5, 5]; a
    # formula whose normal form has more than 5,000 clauses is compared
    # on its first 5,000. (Since comparisons lower to one bound without
    # sign-split sums, the first 1,000 formulas of the random-500 profile
    # drop fewer than 4,000 clauses.)
    rng = random.Random(seed)
    dropped = 0
    for _ in range(1400):
        f = gen_formula(rng, max_vars=3, max_atoms=8, lo=-5, hi=5)
        dropped += _assert_pruned_reference(_problem(f).matrix, limit=5000)
    assert dropped > 20_000


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.seq")))
def test_lazy_clauses_are_the_pruned_eager_dnf_on_the_corpus(name):
    _assert_pruned_reference(_problem(parse_formula((CORPUS / name).read_text())).matrix)


def test_lazy_clauses_differ_from_scratch_only_by_rule_order():
    # formula #286 of the 12-atom stream: the walk checks the disequation
    # 'aca' != 'adba' x w when it joins and drops it for its differing
    # letters; from scratch, w is substituted first and the disequation
    # is stripped to '' != 'dba' x 'a', which _simplify keeps, although a
    # side with a letter is never empty. The two fixpoints differ in that
    # disequation only, and each clause has the same models both ways.
    rng = random.Random(0)
    for _ in range(286):
        gen_formula(rng, max_vars=3, max_atoms=12, lo=-5, hi=5)
    f = gen_formula(rng, max_vars=3, max_atoms=12, lo=-5, hi=5)
    w = _problem(f).matrix
    scratch = []
    for c in _eager_dnf(w):
        res = _simplify(c.eqs, c.diseqs, c.members)
        if res[0] == "ok" and not _length_infeasible(c.eqs, c.members):
            scratch.append(res[1:])
    lazy = [fix for fix, _ in wordsolver._clauses(w, 10**6)]
    assert len(lazy) == len(scratch) == 13
    differ = [k for k, (a, b) in enumerate(zip(lazy, scratch)) if a != b]
    assert differ == [1]
    (eqs, diseqs, members, log), (eqs2, diseqs2, members2, log2) = lazy[1], scratch[1]
    assert (eqs, members, log) == (eqs2, members2, log2)
    assert diseqs == [] and len(diseqs2) == 1
    u, v = diseqs2[0]
    assert u == "" and min(v) <= "d"

    names = oracle.search_names(f)
    bounds = Bounds(max_len=1, values=(-2, -1, 0, 1, 2))
    envs = list(itertools.product(oracle.enum_seqs(bounds), repeat=len(names)))

    def models(fix) -> set:
        # the environments whose encoding, pinned by equations, the clause admits
        out = set()
        for vals in envs:
            pins = [(var(x), "".join(map(encode_int, s))) for x, s in zip(names, vals)]
            branch = _extend(fix, pins, [])
            if branch is None:
                continue
            st, _ = _answer(_solve_constraints(branch, _NO_LENGTHS, _Search(BUDGET)))
            assert st != "unknown"
            if st == "sat":
                out.add(vals)
        return out

    admitted = set()
    for a, b in zip(lazy, scratch):
        got = models(a)
        assert got == models(b)
        admitted |= got
    truth = [vals for vals in envs if oracle.matrix_value(f.matrix, dict(zip(names, vals)))]
    assert admitted == set(truth) and len(truth) == 56
    assert oracle.brute_force_sat(f.matrix, names, bounds) == dict(zip(names, truth[0]))


def test_lazy_clauses_prune_a_ground_contradiction():
    # eps = -1 as the encoder spells it, between two disjunctions;
    # elaboration folds such an atom to false, so the formula is built
    # by hand: each partial clause of the first disjunction is refuted
    # at the contradiction, and the second is never expanded
    w = conj(
        [
            WIn(X, bstar_dfa()),
            WIn(Y, bstar_dfa()),
            Or(Or(WEq(X, Y + "b"), WEq(Y, X + "b")), Not(WEq(X, Y))),
            WEq("", encode_int(-1)),
            Or(WEq(X, Y + Y), Or(WEq(Y, ""), Not(WEq(Y, X)))),
        ]
    )
    assert _assert_pruned_reference(w) == len(list(_eager_dnf(w))) == 9
    assert nnf_dnf(w) == []


def test_lazy_clauses_drop_contradictory_memberships():
    a_star = star(lit("a"))
    w = Or(
        And(WIn(X, a_star), And(WEq(Y, ""), Not(WIn(X, a_star)))),
        And(WIn(X, lit("a")), WIn(Y, lit("b"))),
    )
    assert _assert_pruned_reference(w) == 0
    # the singleton memberships pin x and y
    assert nnf_dnf(w) == [([], [], {}, [(X, "a"), (Y, "b")])]


def test_lazy_clause_cap_counts_clauses_after_pruning():
    # eight clauses, of which the ground equation refutes four
    w = And(
        Or(WEq("a", "b"), WEq(X, "")),
        Or(
            Or(WEq(Y, ""), WEq(Y, "a")),
            Or(WEq(Z, ""), WEq(Z, "a")),
        ),
    )
    assert len(list(_eager_dnf(w))) == 8
    assert _assert_pruned_reference(w) == 4
    assert len(nnf_dnf(w, cap=4)) == 4
    clauses = wordsolver._clauses(w, 3)
    assert [next(clauses)[0] for _ in range(3)] == nnf_dnf(w)[:3]
    with pytest.raises(ClauseCapExceeded):
        next(clauses)


def _assert_fixpoint(clause):
    """_simplify from scratch leaves the clause as it is, with an empty
    log and its memberships in the same key order."""
    eqs, diseqs, members, _ = clause
    res = _simplify(eqs, diseqs, members)
    assert res == ("ok", eqs, diseqs, members, [])
    assert list(res[3]) == list(members)


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.seq")))
def test_walk_yields_fixpoints_on_the_corpus(name):
    w = _problem(parse_formula((CORPUS / name).read_text())).matrix
    for clause, _ in wordsolver._clauses(w, 10**6):
        _assert_fixpoint(clause)


def test_walk_yields_fixpoints_on_random_formulas():
    # the random-500 set of seed 0 and the next 500 formulas of its
    # stream, each formula's first 2,000 clauses
    rng = random.Random(0)
    n = 0
    for _ in range(1000):
        f = gen_formula(rng, max_vars=3, max_atoms=4, lo=-2, hi=2)
        for clause, _ in itertools.islice(wordsolver._clauses(_problem(f).matrix, 10**6), 2000):
            _assert_fixpoint(clause)
            n += 1
    assert n > 2_000


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


def test_simplify_eliminates_a_variable_its_definition_implies():
    # x = y b z with x in (a|b)*, y in a* and z in b+: every word of the
    # right side lies in (a|b)*, so x is substituted away and its
    # membership dropped, and the memberships of y and z stay
    a_or_b = star(union(lit("a"), lit("b")))
    members = {X: a_or_b, Y: star(lit("a")), Z: plus(lit("b"))}
    ok, eqs, _, members2, log = _simplify([(X, Y + "b" + Z)], [], members)
    assert ok == "ok" and eqs == [] and log == [(X, Y + "b" + Z)]
    assert members2 == {Y: members[Y], Z: members[Z]}
    # with x in a*, y b z has words outside x's language
    members[X] = star(lit("a"))
    assert _simplify([(X, Y + "b" + Z)], [], members)[1] == [(X, Y + "b" + Z)]
    # a variable of the side without a membership may hold any word
    del members[Z]
    members[X] = a_or_b
    assert _simplify([(X, Y + "b" + Z)], [], members)[1] == [(X, Y + "b" + Z)]


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


def _run_watched_inputs():
    """Solve the inputs whose _simplify calls the cross-checks below
    watch: three corpus files under check_valid, every condition of
    merge_sort.sqp, and the 200 quadratic clauses."""
    for name, status in (
        ("comparison_viol.seq", "invalid"),
        ("comparison_hold.seq", "valid"),
        ("reversal_step_vc.seq", "valid"),
    ):
        f = parse_formula((CORPUS / name).read_text())
        assert check_valid(f, BUDGET).status == status
    for vc in vcs(parse_program_file(PROGRAMS / "merge_sort.sqp")):
        assert check_valid(vc.formula, BUDGET, vc.elaboration).status != "unknown"
    for wp in _quadratic_problems():
        solve_problem(wp, BUDGET)


def test_incremental_simplify_matches_full_rescan(monkeypatch):
    # Every search child is simplified from its parent's fixpoint with
    # only what the branch touched unsettled; simplifying the substituted
    # child with nothing settled must fire the same rules in the same order.
    # So must a partial clause of the clause walk that an atom joins.
    simplify = wordsolver._simplify
    children = with_written = joins = 0

    def both(eqs, diseqs, members, step=None, written=(), fixed=None):
        nonlocal children, with_written, joins
        res = simplify(eqs, diseqs, members, step, written, fixed)
        if fixed is not None:
            joins += 1
            full = simplify(eqs, diseqs, members)
            assert res == full
            if res[0] == "ok":
                assert list(res[3].items()) == list(full[3].items())
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
    _run_watched_inputs()
    assert children > 5_000 and with_written > 1_000 and joins > 100


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


def test_incremental_simplify_rechecks_a_written_membership():
    # the parent settles x = y b while y may hold an a. The split z = y z
    # writes y's membership down to b* and leaves x = y b as it is; y b
    # then implies x's b*, so the child substitutes x away as a rescan does
    b_star, a_or_b = star(lit("b")), star(union(lit("a"), lit("b")))
    parent = [(X, Y + "b"), (Z + "a", Y + W)]
    members = {X: b_star, Y: a_or_b, Z: a_or_b}
    assert _simplify(parent, [], members)[1] == parent  # a fixpoint
    step, mem = (Z, Y + Z), {X: b_star, Y: b_star, Z: a_or_b}
    ok, eqs, _, members2, log = _simplify(parent, [], mem, step, (Y, Z))
    assert ok == "ok" and eqs == [] and members2 == {Y: b_star, Z: a_or_b}
    assert log == [step, (X, Y + "b"), (W, Z + "a")]
    assert _simplify(_subst_eqs(parent, *step), [], mem) == ("ok", [], [], members2, log[1:])


# ---------------------------------------------------------------------------
# the rescanning _simplify, frozen as the reference: settledness by a set of
# equation tuples, every rule firing rebuilding the lists and then
# rescanning from the start


def _reference_strip(u: str, v: str) -> tuple:
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    j = 0
    while j < n - i and u[-1 - j] == v[-1 - j]:
        j += 1
    return u[i : len(u) - j], v[i : len(v) - j]


_FAIL = ("fail", None, None, None, None)


def _reference_implied(d, side: str, members: dict) -> bool:
    """Does d contain the concatenation of side's letters and its
    variables' memberships? False when a variable has none."""
    if any(c > "d" and c not in members for c in side):
        return False
    parts = [members[c] if c > "d" else lit(c) for c in side]
    return concat(*parts).intersect(d.complement()).is_empty()


def _reference_simplify(
    eqs: list,
    diseqs: list,
    members: dict,
    step: tuple | None = None,
    written=(),
    fixed: int | None = None,
):
    """Fixpoint of the cheap rules: affix stripping, ground resolution,
    forced-empty sides, pinned variables (singleton automata, one-sided
    variables), variable merging, and the substitution of a variable
    defined by a side it does not occur in, when it has no membership
    or the memberships of the side's variables imply it. Returns (ok,
    eqs, diseqs, members, log); the log records substitutions for
    witness replay.

    A search child passes its parent's fixpoint as eqs, its branch
    substitution as step and the membership keys the branch wrote as
    written; its log starts with step. Equations the substitution
    leaves alone and memberships the branch did not write were settled
    in the parent and are not examined again, and the rules fire in
    the same order as on the substituted child with nothing settled.

    A partial clause that an equation or a disequation joins passes its
    fixpoint with the new atom appended, substituted by the fixpoint's
    log, and the number of the fixpoint's equations as fixed; those
    equations and every membership are settled."""
    eqs = list(eqs)
    diseqs = list(diseqs)
    members = dict(members)
    log: list[tuple[str, str]] = []
    # An equation is settled once a scan passes it with no rule firing.
    # Whether a rule fires on it depends only on the equation and on the
    # memberships of its variables; a membership is dropped only when its
    # variable is substituted away, and every equation that holds a
    # variable whose membership is written or merged, and not pinned, is
    # dropped from the settled set.
    settled = set()
    dirty = set(members)  # keys whose membership may be empty or a singleton

    def substitute(x: str, repl: str):
        nonlocal eqs, diseqs
        eqs = _subst_eqs(eqs, x, repl)
        if diseqs:
            diseqs = _subst_eqs(diseqs, x, repl)
        log.append((x, repl))

    if step is not None:
        settled = set(eqs)
        dirty = set(written)
        substitute(*step)
    elif fixed is not None:
        settled = set(eqs[:fixed])
        dirty = set()

    def eq_step() -> str:
        """Check the dirty memberships, in membership order, then apply
        at most one equation rule; 'fail', 'again' or 'done'."""
        nonlocal eqs
        if dirty:
            # pinning a singleton dirties nothing, so one pass over the
            # dirty keys finds them in the order rescans would
            for x in [x for x in members if x in dirty]:
                d = members[x]
                if d.is_empty():
                    return "fail"
                if d.is_singleton():
                    del members[x]
                    substitute(x, d.shortest_word())
                else:
                    settled.difference_update([e for e in settled if x in e[0] + e[1]])
            dirty.clear()

        for i, (u0, v0) in enumerate(eqs):
            if (u0, v0) in settled:
                continue
            u, v = _reference_strip(u0, v0)
            if not u and not v:
                eqs = eqs[:i] + eqs[i + 1 :]
                return "again"
            if not u or not v:
                rest = u or v
                if min(rest) <= "d":
                    return "fail"  # a letter faces eps
                x = rest[0]
                if x in members:
                    if not members[x].accepts(""):
                        return "fail"
                    del members[x]
                eqs = eqs[:i] + [(u, v)] + eqs[i + 1 :]
                substitute(x, "")
                return "again"
            if u[0] <= "d" and v[0] <= "d":
                return "fail"  # heads differ after stripping
            if len(v) == 1 and v > "d":
                u, v = v, u
            if len(u) == 1 and u > "d":
                x = u
                if max(v) <= "d":
                    if x in members:
                        if not members[x].accepts(v):
                            return "fail"
                        del members[x]
                    eqs = eqs[:i] + eqs[i + 1 :]
                    substitute(x, v)
                    return "again"
                if len(v) == 1 and v > "d":
                    y = v
                    if x in members:
                        d = members.pop(x)
                        d = members[y].intersect(d) if y in members else d
                        if d.is_empty():
                            return "fail"
                        members[y] = d
                        dirty.add(y)
                    eqs = eqs[:i] + eqs[i + 1 :]
                    substitute(x, v)
                    return "again"
                if x not in v and (x not in members or _reference_implied(members[x], v, members)):
                    members.pop(x, None)
                    eqs = eqs[:i] + eqs[i + 1 :]
                    substitute(x, v)
                    return "again"
            if (u, v) != (u0, v0):
                eqs = eqs[:i] + [(u, v)] + eqs[i + 1 :]
                return "again"
            settled.add((u0, v0))
        return "done"

    def diseq_step() -> str:
        nonlocal diseqs
        for i, (u0, v0) in enumerate(diseqs):
            u, v = _reference_strip(u0, v0)
            if not u and not v:
                return "fail"  # the sides are equal
            if (not u or not v) and max(u or v) <= "d":
                diseqs = diseqs[:i] + diseqs[i + 1 :]
                return "again"  # a nonempty ground word differs from eps
            if u and v and u[0] <= "d" and v[0] <= "d":
                diseqs = diseqs[:i] + diseqs[i + 1 :]
                return "again"  # differing head letters, trivially true
            if (u, v) != (u0, v0):
                diseqs = diseqs[:i] + [(u, v)] + diseqs[i + 1 :]
                return "again"
        return "done"

    while True:
        st = eq_step()
        if st == "fail":
            return _FAIL
        if st == "again":
            continue
        st = diseq_step()
        if st == "fail":
            return _FAIL
        if st == "done":
            return "ok", eqs, diseqs, members, log


def _assert_same_result(res, ref):
    """Status, eqs, diseqs, members with their key order, and log."""
    assert res == ref
    if res[0] == "ok":
        assert list(res[3].items()) == list(ref[3].items())


def test_simplify_matches_the_reference_on_solver_runs(monkeypatch):
    # each yes of the reference's implication check is a firing of the
    # rule (see the random systems below)
    simplify, reference = wordsolver._simplify, _reference_implied
    calls = collections.Counter()

    def implied(d, side, members):
        yes = reference(d, side, members)
        calls["implied"] += yes
        return yes

    def both(eqs, diseqs, members, step=None, written=(), fixed=None):
        res = simplify(eqs, diseqs, members, step, written, fixed)
        _assert_same_result(
            res, _reference_simplify(eqs, diseqs, members, step, written, fixed)
        )
        calls["step" if step is not None else "fixed" if fixed is not None else "full"] += 1
        return res

    monkeypatch.setattr(wordsolver, "_simplify", both)
    monkeypatch.setitem(globals(), "_reference_implied", implied)
    _run_watched_inputs()
    rng = random.Random(0)
    for _ in range(100):  # a prefix of the random-500 set
        check_sat(gen_formula(rng, max_vars=3, max_atoms=4, lo=-2, hi=2), BUDGET)
    assert calls["step"] > 5_000 and calls["fixed"] > 100 and calls["full"] > 100
    assert calls["implied"] > 1_000, calls


# memberships for the random systems: singletons, one holding only eps,
# and infinite ones
SMALL_AUTOMATA = [
    lit(""),
    lit("a"),
    lit("ab"),
    union(lit(""), lit("a")),
    union(lit("a"), lit("b")),
    star(lit("a")),
    plus(lit("b")),
    star(union(lit("a"), lit("c"))),
]
SMALL_VARS = (X, Y, Z, U, W)


def _random_side(rng) -> str:
    return "".join(
        rng.choice("abcd") if rng.random() < 0.3 else rng.choice(SMALL_VARS)
        for _ in range(rng.randint(0, 4))
    )


def _random_system(rng):
    eqs = [(_random_side(rng), _random_side(rng)) for _ in range(rng.randint(0, 4))]
    diseqs = [(_random_side(rng), _random_side(rng)) for _ in range(rng.randint(0, 2))]
    members = {x: rng.choice(SMALL_AUTOMATA) for x in rng.sample(SMALL_VARS, rng.randint(0, 3))}
    return eqs, diseqs, members


def _random_definition(rng, members: dict) -> tuple:
    """An equation x = side, x not in side, that gives x and every
    variable of side a membership in members; about half the time x's
    automaton is built to hold the side's language."""
    x = rng.choice(SMALL_VARS)
    side = _random_side(rng).replace(x, "") or rng.choice("abcd")
    for c in side:
        if c > "d" and c not in members:
            members[c] = rng.choice(SMALL_AUTOMATA)
    d = rng.choice(SMALL_AUTOMATA)
    if rng.random() < 0.5:
        d = union(d, concat(*[members[c] if c > "d" else lit(c) for c in side]))
    members[x] = d
    return x, side


def _random_step(rng, eqs: list, members: dict):
    """A branch of the search from the fixpoint (eqs, members): a
    variable of eqs becomes empty, gains a head letter, or gains a head
    variable, and the branch writes memberships as the search does. None
    when eqs has no variable."""
    vs = sorted({c for e in eqs for c in e[0] + e[1] if c > "d"})
    if not vs:
        return None
    z = rng.choice(vs)
    mem = dict(members)
    kind = rng.randrange(3)
    if kind == 0:
        mem.pop(z, None)
        return (z, ""), (), mem
    if kind == 1:
        if z in mem:
            mem[z] = rng.choice(SMALL_AUTOMATA)
        return (z, rng.choice("abcd") + z), (z,), mem
    y = rng.choice([x for x in SMALL_VARS if x != z])
    if z in mem:
        mem[y] = rng.choice(SMALL_AUTOMATA)
        mem[z] = rng.choice(SMALL_AUTOMATA)
        return (z, y + z), (y, z), mem
    return (z, y + z), (), mem


def test_simplify_matches_the_reference_on_random_systems(monkeypatch):
    # with nothing settled, as a search child from its parent's fixpoint,
    # and as a partial clause that an equation or a disequation joins;
    # the reference asks whether a definition implies its variable's
    # membership only when that variable has one, so each yes is a firing
    rng = random.Random(0)
    runs = collections.Counter()
    reference = _reference_implied

    def implied(d, side, members):
        yes = reference(d, side, members)
        runs["implied"] += yes
        return yes

    monkeypatch.setitem(globals(), "_reference_implied", implied)
    while min(runs["full"], runs["step"], runs["fixed"]) < 2_000:
        eqs, diseqs, members = _random_system(rng)
        if runs["full"] % 2:
            eqs.append(_random_definition(rng, members))
        res = _simplify(eqs, diseqs, members)
        _assert_same_result(res, _reference_simplify(eqs, diseqs, members))
        runs["full"] += 1
        runs["full ok"] += res[0] == "ok"
        if res[0] == "fail":
            continue
        _, eqs, diseqs, members, log = res

        step = _random_step(rng, eqs, members)
        if step is not None:
            step, written, mem = step
            res = _simplify(eqs, diseqs, mem, step, written)
            _assert_same_result(res, _reference_simplify(eqs, diseqs, mem, step, written))
            runs["step"] += 1
            runs["step ok"] += res[0] == "ok"

        u, v = _random_side(rng), _random_side(rng)
        for x, repl in log:
            u, v = u.replace(x, repl), v.replace(x, repl)
        if rng.random() < 0.7:
            args = eqs + [(u, v)], diseqs
        else:
            args = eqs, diseqs + [(u, v)]
        res = _simplify(*args, members, fixed=len(eqs))
        _assert_same_result(res, _reference_simplify(*args, members, fixed=len(eqs)))
        runs["fixed"] += 1
        runs["fixed ok"] += res[0] == "ok"
    assert min(runs["full ok"], runs["step ok"], runs["fixed ok"]) > 500, runs
    assert runs["implied"] > 300, runs


def test_implied_matches_the_reference():
    # the state-set image against the product with the complement, on
    # random sides over SMALL_AUTOMATA and the encoder's automata, some
    # variables without a membership. The automaton is drawn from the
    # same pool, or built around the side's own language so that both
    # answers are common: its union with another automaton always holds
    # it, and the removal of its shortest word does not
    pool = SMALL_AUTOMATA + [frame_dfa(), lstar_dfa(), sign_dfa(), bstar_dfa(), bplus_dfa()]
    rng = random.Random(0)
    answers = collections.Counter()
    for _ in range(3_000):
        members = {x: rng.choice(pool) for x in SMALL_VARS if rng.random() < 0.9}
        side = _random_side(rng) or rng.choice(SMALL_VARS)
        kind = rng.randrange(3)
        if kind == 0 or any(c > "d" and c not in members for c in side):
            d = rng.choice(pool)
        else:
            own = concat(*[members[c] if c > "d" else lit(c) for c in side])
            if kind == 1:
                d = union(own, rng.choice(pool))
            else:
                d = own.intersect(lit(own.shortest_word()).complement())
        got = wordsolver._implied(d, side, members)
        assert got == _reference_implied(d, side, members), (side, members, d)
        answers[kind, got] += 1
    assert answers[1, True] > 300 and answers[2, False] > 300, answers
    assert answers[0, True] > 50 and answers[0, False] > 500, answers


def test_extending_a_fixpoint_by_a_branch_matches_a_rescan():
    # a branch of a split disequation extends its clause's fixpoint by
    # its equations and the fresh one-letter membership; simplifying the
    # same system from scratch must give the same fixpoint, and the
    # branch's log is the clause's followed by the rescan's
    rng = random.Random(0)
    runs = collections.Counter()
    while min(runs["ok"], runs["fail"]) < 1_000:
        res = _simplify(*_random_system(rng))
        if res[0] == "fail" or not res[2]:
            continue
        _, eqs, diseqs, members, log = res
        diseqs = list(dict.fromkeys(diseqs))
        (u, v), rest = diseqs[0], diseqs[1:]
        for extra_eqs, extra_mem in _diseq_branches(u, v, 1):
            mem = members | extra_mem
            branch = _extend((eqs, rest, mem, log), extra_eqs, [])
            full = _simplify(eqs + extra_eqs, rest, mem)
            if full[0] == "fail":
                assert branch is None
                runs["fail"] += 1
                continue
            _, eqs2, diseqs2, members2, log2 = full
            assert branch == (eqs2, diseqs2, members2, log + log2)
            assert list(branch[2]) == list(members2)
            runs["ok"] += 1


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


def _length_infeasible(eqs: list, members: dict) -> bool:
    """The length theory run from scratch on a whole system, frozen as
    the reference: True only on a proof that the lengths of the
    equations and the memberships admit no solution. The solver keeps
    one theory state per clause instead, which the clause walk and the
    disequation branches extend."""
    box = {}
    for x, d in members.items():
        box[x] = _length_bounds(d)
        if box[x] is None:
            return True
    th = {}, box
    for u, v in eqs:
        th = _lengths_add(th, _length_row(u, v), members)
        if th is None:
            return True
    return False


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
    # |x| = 2 lies inside the bounds (0, None) of (bbb)*, which accepts
    # only multiples of three
    assert _length_infeasible([(X, "aa")], {X: star(lit("bbb"))})


def test_length_uses_automaton_bounds():
    # |x| = |y| + |z| and |y| = |x| force |z| = 0, which b+ rules out
    eqs = [(X, Y + Z), (Y, X)]
    assert _length_infeasible(eqs, {Z: plus(lit("b"))})
    assert not _length_infeasible(eqs, {Z: star(lit("b"))})
    # |x| = 3 + |y| against the upper bound 2 of bb
    assert _length_infeasible([(X, "aaa" + Y)], {X: lit("bb")})
    assert not _length_infeasible([(X, "aa" + Y)], {X: lit("bb")})


def test_length_bounds_of_automata():
    assert _length_bounds(plus(lit("b"))) == (1, None)
    assert _length_bounds(lit("acba")) == (4, 4)
    assert _length_bounds(union(lit("a"), lit("bbb"))) == (1, 3)
    assert _length_bounds(star(lit("bb"))) == (0, None)
    assert _length_bounds(lit("a").intersect(lit("b"))) is None
    assert _lengths_bound(_NO_LENGTHS, X, empty_dfa(), {}) is None


def test_length_feasible_matches_plain_stepping():
    # the period read-off against stepping once per letter, for every
    # length up to three times past the states plus one
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 8)
        delta = [[rng.randrange(n) for _ in ALPHABET] for _ in range(n)]
        d = make_dfa(delta, 0, [s for s in range(n) if rng.random() < 0.3])
        states = {d.start}
        for k in range(3 * (d.n + 1) + 1):
            assert _length_feasible(d, k) == bool(states & d.accepting), (d, k)
            states = {t for q in states for t in d.delta[q]}
    assert _length_feasible(star(lit("bbb")), 30_000)
    assert not _length_feasible(star(lit("bbb")), 30_001)


# automata with the lengths they accept, for the soundness test below
LENGTH_AUTOMATA = [
    (lit("bb"), lambda n: n == 2),
    (star(lit("b")), lambda n: True),
    (plus(lit("b")), lambda n: n >= 1),
    (star(lit("bb")), lambda n: n % 2 == 0),
    (union(lit("c"), lit("d")), lambda n: n == 1),
]


def test_length_theory_refutes_only_unsolvable_systems():
    # random systems of at most four variables, each occurring at most
    # twice on a side (coefficients -2..2), with random automata; every
    # refutation, from scratch or with rows and bounds joined in a random
    # order as the clause walk joins them, must leave no lengths 0..8
    # that meet the rows and the automata
    rng = random.Random(7)
    names = [X, Y, Z, U]
    refuted = kept = 0
    for _ in range(600):
        nvars = rng.randint(1, 4)
        vs = names[:nvars]
        eqs = []
        for _ in range(rng.randint(1, 2)):
            sides = ["", ""]
            for x in vs:
                for _ in range(rng.randint(0, 2)):
                    sides[rng.randint(0, 1)] += x
            sides[rng.randint(0, 1)] += "a" * rng.randint(0, 3)
            eqs.append(tuple("".join(rng.sample(t, len(t))) for t in sides))
        members, accepted = {}, {}
        for x in vs:
            if rng.random() < 0.6:
                d, ok = rng.choice(LENGTH_AUTOMATA)
                members[x], accepted[x] = d, ok
        ops = [("eq", e) for e in eqs] + [("in", x) for x in members]
        rng.shuffle(ops)
        th = _NO_LENGTHS
        joined = {}
        for kind, arg in ops:
            if kind == "eq":
                th = _lengths_add(th, _length_row(*arg), joined)
            else:
                joined = joined | {arg: members[arg]}
                th = _lengths_bound(th, arg, members[arg], joined)
            if th is None:
                break
        from_scratch = _length_infeasible(eqs, members)
        if th is not None and not from_scratch:
            kept += 1
            continue
        refuted += 1
        rows = [_length_row(u, v) for u, v in eqs]
        for lens in itertools.product(range(9), repeat=nvars):
            n = dict(zip(vs, lens))
            assert not (
                all(sum(k * n[x] for x, k in c.items()) == const for c, const in rows)
                and all(ok(n[x]) for x, ok in accepted.items())
            ), (eqs, members, n)
    assert refuted > 150 and kept > 150, (refuted, kept)


# ---------------------------------------------------------------------------
# disequation branching


def test_diseq_branch_count_and_freshness():
    b1 = _diseq_branches(X, Y, 1)
    b2 = _diseq_branches(X, Y, 2)
    assert len(b1) == len(b2) == 6
    names1 = {c for eqs, _ in b1 for u, v in eqs for c in u + v if c > "d"}
    names2 = {c for eqs, _ in b2 for u, v in eqs for c in u + v if c > "d"}
    assert names1 & names2 == {X, Y}


def test_diseq_branches_partition_the_disequation():
    # for every pair of words up to length 3, exactly one branch of
    # u != v has a model when the words differ, and none when they are
    # equal; each model found satisfies its branch
    words = ["".join(p) for k in range(4) for p in itertools.product(ALPHABET, repeat=k)]
    for u, v in itertools.product(words, repeat=2):
        models = 0
        for eqs, members in _diseq_branches(u, v, 1):
            res = _simplify(eqs, [], members)
            if res[0] == "fail":
                continue
            _, eqs2, _, members2, log = res
            st, sigma = _answer(_solve_equations(eqs2, members2, _Search(BUDGET)))
            assert st in ("sat", "unsat"), (u, v, eqs)
            if st == "sat":
                assert _is_model(eqs, members, _replay(log, sigma)), (u, v, eqs)
                models += 1
        assert models == (u != v), (u, v)


def test_equations_model_that_separates_needs_no_split():
    # x y = ab has the first model x = eps, y = ab, and that already
    # makes x differ from y
    ctl = _Search(BUDGET)
    clause = _simplify([(X + Y, "ab")], [(X, Y)], {})[1:]
    st, sigma = _answer(_solve_constraints(clause, _NO_LENGTHS, ctl))
    assert st == "sat" and ctl.fresh == 0
    assert (sigma.get(X, ""), sigma[Y]) == ("", "ab")


def test_equations_model_that_does_not_separate_still_splits():
    # the first model of x y = y x is x = y = eps; the split on x != y
    # then finds two different commuting words
    ctl = _Search(BUDGET)
    clause = _simplify([(X + Y, Y + X)], [(X, Y)], {})[1:]
    st, sigma = _answer(_solve_constraints(clause, _NO_LENGTHS, ctl))
    assert st == "sat" and ctl.fresh == 1
    x, y = sigma.get(X, ""), sigma.get(Y, "")
    assert x + y == y + x and x != y


def test_split_answer_is_replayed_through_the_clause_log():
    # z = x merges x into z, and the shortest words z = y = a do not
    # separate z from y, so the clause splits; the branch's model names
    # z and y, and the clause's log gives x back
    ctl = _Search(BUDGET)
    a_plus = plus(lit("a"))
    clause = _simplify([(Z, X)], [(Z, Y)], {X: a_plus, Y: a_plus})[1:]
    assert clause[3] == [(X, Z)]
    st, sigma = _answer(_solve_constraints(clause, _NO_LENGTHS, ctl))
    assert st == "sat" and ctl.fresh == 1
    x, y, z = (sigma.get(c, "") for c in (X, Y, Z))
    assert x == z != y and a_plus.accepts(x) and a_plus.accepts(y)


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
# variables that leave every equation of a search node


def test_split_child_pins_a_variable_that_left_every_equation(monkeypatch):
    # in x y = z b, the split x = z x gives z x y = z b, which strips to
    # x y = b: z occurs in no equation of the child, so the child keeps
    # no membership for z and its log pins z to its shortest word
    a_or_b = star(union(lit("a"), lit("b")))
    a_plus = plus(lit("a"))
    simplify = wordsolver._simplify
    accepted = []

    def record(*args):
        res = simplify(*args)
        if res[0] == "ok":
            accepted.append(res)  # the search then edits its members and log in place
        return res

    monkeypatch.setattr(wordsolver, "_simplify", record)
    eqs, members = [(X + Y, Z + "b")], {X: a_or_b, Z: a_plus}
    st, sigma = _answer(_solve_system(eqs, members, _Search(BUDGET)))
    (child,) = [res for res in accepted if res[4][0] == (X, Z + X)]
    _, child_eqs, _, child_members, log = child
    assert child_eqs == [(X + Y, "b")]
    assert child_members == {X: a_or_b}
    assert log[-1] == (Z, a_plus.shortest_word()) == (Z, "a")
    assert st == "sat" and _is_model(eqs, members, sigma)


def test_nodes_that_differ_only_in_a_finished_membership_share_a_key(monkeypatch):
    # in x a = y b with x in {eps, a}, the child x = eps drops x's
    # membership, and the split y = x y strips to a = y b, where x occurs
    # in no equation but still has its membership; both children are
    # a = y b and get one key
    eps_or_a = union(lit(""), lit("a"))
    simplify, canon = wordsolver._simplify, wordsolver._canon
    accepted, keys = [], []

    def record(*args):
        res = simplify(*args)
        if res[0] == "ok":
            accepted.append((list(res[1]), dict(res[3])))
        return res

    def key(eqs, members):
        keys.append(canon(eqs, members))
        return keys[-1]

    monkeypatch.setattr(wordsolver, "_simplify", record)
    monkeypatch.setattr(wordsolver, "_canon", key)
    _answer(_solve_system([(X + "a", Y + "b")], {X: eps_or_a}, _Search(BUDGET)))
    # the root's key comes first, then one per accepted child
    assert len(keys) == len(accepted) + 1
    same = [(m, k) for (e, m), k in zip(accepted, keys[1:]) if e == [("a", Y + "b")]]
    assert [m for m, _ in same] == [{}, {X: eps_or_a}]
    assert same[0][1] == same[1][1]


def _is_model(eqs: list, members: dict, sigma: dict) -> bool:
    """Does sigma, with the empty word for unassigned variables, satisfy
    every equation and membership?"""
    return all(_join(u, sigma) == _join(v, sigma) for u, v in eqs) and all(
        d.accepts(sigma.get(x, "")) for x, d in members.items()
    )


@functools.lru_cache(maxsize=None)
def _splits(d):
    """The split of a membership as it was before Dfa.splits, frozen for
    the reference search: a head minimized for every state q of d, with
    its tail, both nonempty, in state order. The caller intersects each
    head with the shorter variable's membership."""
    out = []
    for q in range(d.n):
        head, tail = dfa._canon(d.delta, d.start, frozenset([q])), d.with_start(q)
        if not head.is_empty() and not tail.is_empty():
            out.append((head, tail))
    return tuple(out)


def _reference_solve_system(eqs: list, members: dict, ctl: _Search, allowance: int | None):
    """The search as it was before it pinned the variables that leave
    every equation, frozen as the reference: a finished variable keeps
    its membership, and so its automaton, in the node's key."""
    if _length_infeasible(eqs, members):
        return "unsat", None
    if not eqs:
        return "sat", _final_assignment(members)

    key0 = _canon(eqs, members)
    store = {key0: (eqs, members, None, [], 0)}
    heap = [(0, 0, 0, key0)]
    tick = itertools.count(1)
    capped = False
    start_nodes = ctl.nodes

    def emit(parent_key, g, eqs, step, members, written, extra_letters):
        nonlocal capped
        res = _simplify(eqs, [], members, step, written)
        if res[0] == "fail":
            return
        _, eqs2, _, members2, elog = res
        g2 = g + extra_letters
        if g2 > ctl.budget.witness_letters:
            capped = True
            return
        key = _canon(eqs2, members2)
        if key in store:
            return
        store[key] = (eqs2, members2, parent_key, elog, g2)
        heapq.heappush(heap, (g2, sum(len(u) + len(v) for u, v in eqs2), next(tick), key))

    while heap:
        if allowance is not None and ctl.nodes - start_nodes >= allowance:
            return "unknown", None
        if not ctl.spend():
            return "unknown", None
        _, _, _, key = heapq.heappop(heap)
        eqs, members, _, _, g = store[key]
        if not eqs:
            sigma = _final_assignment(members)
            k = key
            while k is not None:
                _, _, parent, elog, _ = store[k]
                sigma = _replay(elog, sigma)
                k = parent
            return "sat", sigma

        u, v = eqs[0]
        if u[0] <= "d":
            u, v = v, u
        x = u[0]
        other = v[0]

        for z in (x,) if other <= "d" else (x, other):
            mem = members
            if z in mem:
                if not mem[z].accepts(""):
                    continue
                mem = dict(mem)
                del mem[z]
            emit(key, g, eqs, (z, ""), mem, (), 0)

        if other <= "d":
            mem = members
            if x in mem:
                d = mem[x].derivative(other)
                mem = None if d.is_empty() else mem | {x: d}
            if mem is not None:
                emit(key, g, eqs, (x, other + x), mem, (x,), 1)
        else:
            y = other
            for longer, shorter in ((x, y), (y, x)):
                step = (longer, shorter + longer)
                if longer in members:
                    for head, tail in _splits(members[longer]):
                        mem = dict(members)
                        if shorter in mem:
                            head = mem[shorter].intersect(head)
                            if head.is_empty():
                                continue
                        mem[shorter] = head
                        mem[longer] = tail
                        emit(key, g, eqs, step, mem, (shorter, longer), 0)
                else:
                    emit(key, g, eqs, step, members, (), 0)

    if capped:
        ctl.capped = True
        return "unknown", None
    return "unsat", None


def test_solve_system_matches_the_reference():
    # the same status as the search that keeps finished memberships, on
    # the components of the 200 quadratic clauses, of four corpus files'
    # clauses and of seeded random fixpoints over SMALL_AUTOMATA, and
    # every model satisfies its system. The random systems are shallow
    # and rarely leave a variable behind; the corpus's sign and
    # magnitude variables often do. Some random systems never end, so
    # they get a small budget, which the others would exceed.
    # _solve_system trusts its caller's length theory, and the random
    # systems never pass one: where the theory from scratch refutes a
    # system, which the reference does at its root, the search must not
    # answer sat, and the statuses and nodes are compared on the rest
    problems = _quadratic_problems() + [
        _problem(parse_formula((CORPUS / name).read_text()))
        for name in (
            "comparison_hold.seq", "comparison_viol.seq", "mergesort_final_vc.seq",
            "periodicity_101.seq",
        )
    ]
    systems = [
        (eqs, members, BUDGET)
        for wp in problems
        for clause in nnf_dnf(wp.matrix)
        for eqs, members in _components(clause[0], clause[2])
    ]
    rng = random.Random(0)
    for _ in range(4_500):
        eqs, _, members = _random_system(rng)
        res = _simplify(eqs, [], members)
        if res[0] == "ok":
            systems += [(eqs, members, Budget(max_nodes=300)) for eqs, members in _components(res[1], res[3])]
    statuses = collections.Counter()
    nodes = collections.Counter()
    for eqs, members, budget in systems:
        ctl, ref_ctl = _Search(budget), _Search(budget)
        st, sigma = _answer(_solve_system(eqs, members, ctl))
        if _length_infeasible(eqs, members):
            assert st != "sat"
            statuses["refuted by lengths"] += 1
            continue
        assert st == _reference_solve_system(eqs, members, ref_ctl, None)[0]
        if st == "sat":
            assert _is_model(eqs, members, sigma)
        statuses[st] += 1
        nodes["pinned"] += ctl.nodes
        nodes["reference"] += ref_ctl.nodes
    assert statuses["sat"] > 1_000 and statuses["unsat"] > 300, statuses
    assert nodes["pinned"] < nodes["reference"], nodes


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
    names = oracle.search_names(f)
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


# Formulas of the random sets (formula seed, index) that the length
# theory refutes and that the Nielsen search alone gave up on with
# "witness length cap". Why each is unsat, by counting elements, where
# x[i:i] has one element when x has at least i and none otherwise:
LENGTH_REFUTED = [
    # (1, 3): |x[2:2]| + 1 = |x| + 1, so |x| <= 1, and then x[2:2] is
    # empty, so x is too; that leaves [-2] = [1]
    "exists x . ((x in (2 | -1)*) | !x - 2 > x) & x[2:2] ++ (-2) ++ eps = (x ++ eps) ++ 1",
    # (2, 241): the left side of the last conjunct has 1 + 2|x| elements
    # and the right side at most one, so x = eps, and then x[3:3] = eps
    # cannot equal [0]
    "exists x, y . ((y = y & y = (eps ++ x) ++ y[3:3]) & y - (-2) > x)"
    " & (0 ++ x) ++ x = x[3:3]",
    # (2, 268): |x[2:2]| = 1 + |x| forces x = eps and |x[2:2]| = 1, but
    # x[2:2] of the empty sequence is empty
    "exists x, y . (y in INT* 0 INT* & x - 2 != x - (-2)) & eps ++ x[2:2] = 0 ++ x",
]


@pytest.mark.parametrize("src", LENGTH_REFUTED)
def test_length_theory_decides_former_witness_cap_unknowns(src):
    f = parse_formula(src)
    assert check_sat(f, BUDGET).status == "unsat"
    bounds = Bounds(max_len=3, values=(-2, -1, 0, 1, 2))
    assert oracle.brute_force_sat(f.matrix, f.prefix, bounds) is None


def test_mixed_rev_occurrence_is_rejected():
    with pytest.raises(ElaborationError):
        check_sat(parse_formula("exists x . rev(x) = x"), BUDGET)


def test_universal_problem_cannot_be_solved_directly():
    # no word problem is built for a universal formula; check_valid
    # solves the problem of its negation instead
    with pytest.raises(ValueError):
        elaborate(parse_formula("forall x . x = eps"))


# The search's exploration, pinned: (file, status, nodes, clauses,
# counterexample). A change that moves these figures must update them
# and say why in CHANGES.md. Each case is named by its file alone, so
# re-pinning a figure does not rename the test.
EXPLORATION = [
    ("comparison_hold.seq", "valid", 731, 11, None),
    ("comparison_viol.seq", "invalid", 372, 3, {"h": (4, 5), "t": (7,), "v": (5,)}),
    ("mergesort_final_vc.seq", "valid", 174, 4, None),
]


@pytest.mark.parametrize(
    "name,status,nodes,clauses,counterexample", EXPLORATION, ids=[e[0] for e in EXPLORATION]
)
def test_search_exploration_pinned(name, status, nodes, clauses, counterexample):
    r = check_valid(parse_formula((CORPUS / name).read_text()), BUDGET)
    assert (r.status, r.nodes, r.clauses) == (status, nodes, clauses)
    assert r.counterexample == counterexample


UNIVERSAL = sorted(
    p.name for p in CORPUS.glob("*.seq") if parse_formula(p.read_text()).quantifier == FORALL
)


@pytest.mark.parametrize("name", UNIVERSAL)
def test_sat_and_valid_of_a_universal_formula_are_one_search(name):
    # check_sat reads a universal formula as the sentence it denotes: it
    # runs the search check_valid runs, and only the status is renamed
    f = parse_formula((CORPUS / name).read_text())
    s, v = check_sat(f), check_valid(f)
    assert {"sat": "valid", "unsat": "invalid"}.get(s.status, s.status) == v.status
    assert (s.nodes, s.clauses, s.counterexample, s.reason) == (
        v.nodes, v.clauses, v.counterexample, v.reason
    )
    assert s.witness is None and v.witness is None


@pytest.mark.parametrize("program", ["reverse.sqp", "merge_sort.sqp"])
def test_discharge_passes_the_verdict_of_check_valid_through(program):
    # only an invalid condition whose sorted(...) hypothesis was dropped
    # is renamed, to undetermined; every other verdict is check_valid's
    conditions = vcs(parse_program_file(PROGRAMS / program))
    for vc, d in zip(conditions, discharge(conditions)):
        if vc.unencodable:
            assert (d.verdict, d.detail) == ("unencodable", vc.unencodable)
            continue
        r = check_valid(vc.formula, elab=vc.elaboration)
        if r.status == "invalid" and vc.weakened:
            assert (d.verdict, d.counterexample) == ("undetermined", None)
        else:
            assert (d.verdict, d.detail, d.counterexample) == (
                r.status, r.reason, r.counterexample
            )


def test_a_branch_the_clause_theory_refutes_starts_no_search(monkeypatch):
    # the second clause of reversal_step_vc.seq holds s = $u2 $v2 and
    # splits $v2 != s; its branch $v2 = s $dl2 $da2, with $dl2 one
    # letter long, asks |$v2| > |s|. The clause's length theory, extended
    # by the branch, refutes it before any of its systems is searched
    systems = []
    solve_system = wordsolver._solve_system

    def record(eqs, members, ctl):
        systems.append(eqs)
        return solve_system(eqs, members, ctl)

    monkeypatch.setattr(wordsolver, "_solve_system", record)
    r = check_valid(parse_formula((CORPUS / "reversal_step_vc.seq").read_text()), BUDGET)
    assert (r.status, r.nodes, r.clauses) == ("valid", 297, 2)
    assert len(systems) == 26


def test_quadratic_exploration_pinned():
    assert sum(solve_problem(wp, BUDGET)[2].nodes for wp in _quadratic_problems()) == 73


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


def test_clause_cap_is_reported():
    # the first clause is refuted in the search; reaching the second
    # exceeds a cap of one clause. 1 and -1 are both four letters long,
    # so the lengths of x ++ 1 = -1 ++ x balance and the first clause
    # reaches the search
    f = parse_formula("exists x . x ++ 1 = -1 ++ x | x = 1")
    r = check_sat(f, Budget(clause_cap=1))
    assert (r.status, r.reason, r.clauses) == ("unknown", "clause cap exceeded", 1)
    assert check_sat(f, Budget(clause_cap=2)).witness == {"x": (1,)}


def _ladder_branch():
    """The first letter branch of exists x, y . x ++ y = y ++ x & !(x = y),
    the formula of the test below: one system with no model, whose
    search never ends."""
    f = parse_formula("exists x, y . x ++ y = y ++ x & !(x = y)")
    [(eqs, diseqs, members, log)] = nnf_dnf(encode_elaboration(elaborate(f)).matrix)
    extra_eqs, extra_mem = _diseq_branches(*diseqs[0], 1)[0]
    eqs, _, members, _ = _extend((eqs, [], members | extra_mem, log), extra_eqs, [])
    return eqs, members


def test_ladder_finds_a_model_past_a_hard_first_branch():
    # a single search that never yields its turn stays in a branch with
    # no model and spends the whole budget there; the branches' turns
    # reach the model
    f = parse_formula("exists x, y . x ++ y = y ++ x & !(x = y)")
    r = check_sat(f)
    assert r.status == "sat"
    assert oracle.matrix_value(f.matrix, r.witness)
    # each of the four letter branches yields its turn after 6 x 32
    # nodes, and the fifth branch, started before any of them resumes,
    # has the model; pinned so that a race that spends more before
    # reaching it shows
    assert r.nodes == 778


def test_allowance_is_per_variable_of_the_system(monkeypatch):
    # a letter branch has no model, and its search never ends: it
    # yields after its allowance per variable times the branch's six
    # variables, and resumed, it yields again after as many more nodes.
    # It went on and did not start over: no node of the first turn is
    # popped again in the second
    eqs, members = _ladder_branch()
    assert len(_components(eqs, members)) == 1
    assert len({c for u, v in eqs for c in u + v if c > "d"}) == 6
    popped = []

    def heappop(heap):
        item = heapq.heappop(heap)
        popped.append(item[-1])  # the node's key
        return item

    monkeypatch.setattr(wordsolver, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
    ctl = _Search(BUDGET)
    search = _solve_system(eqs, members, ctl)
    next(search)
    assert ctl.nodes == len(popped) == 6 * _ALLOWANCE
    next(search)
    assert ctl.nodes == len(set(popped)) == 12 * _ALLOWANCE


def test_race_starts_new_searches_before_resuming_suspended_ones():
    turns = []

    def search(name, yields, status):
        for _ in range(yields):
            turns.append(name)
            yield
        turns.append(name)
        return status, ({name: name} if status == "sat" else None)

    searches = [search("a", 2, "unsat"), search("b", 0, "unsat"), search("c", 1, "sat")]
    assert _answer(_race(iter(searches), _Search(BUDGET))) == ("sat", {"c": "c"})
    assert turns == ["a", "b", "c", "a", "c"]
    # racing for unsat, the models of searches that are all sat are joined
    searches = [search("a", 1, "sat"), search("b", 0, "sat")]
    assert _answer(_race(iter(searches), _Search(BUDGET), "unsat")) == ("sat", {"a": "a", "b": "b"})


def test_a_component_that_never_ends_does_not_starve_an_unsat_one():
    # z a = b z has no model; its component comes after the letter
    # branch's, which yields its turn after 6 x 32 nodes, and the next
    # node refutes z's
    eqs, members = _ladder_branch()
    eqs, members = eqs + [(Z + "a", "b" + Z)], members | {Z: lstar_dfa()}
    assert [len(e) for e, _ in _components(eqs, members)] == [3, 1]
    ctl = _Search(BUDGET)
    assert _answer(_solve_equations(eqs, members, ctl)) == ("unsat", None)
    assert ctl.nodes == 6 * _ALLOWANCE + 1


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

"""Satisfiability of word problems by transformation search.

The clauses of the encoded matrix's disjunctive normal form are
enumerated lazily; each is a conjunction of word equations, word
disequations, and per-variable regular memberships. A clause travels
as its fixpoint under the cheap rewrite rules (_simplify): the tuple
(eqs, diseqs, members, log) of what the rules leave and the
substitutions they made, which replay a model of the fixpoint into one
of the clause. The walk is depth first over the negation-normal matrix
and extends the fixpoint of its partial clause as atoms join. It drops
a partial clause as soon as the rules or the length theory refute it,
together with every clause that would extend it, and yields each
clause as its fixpoint. The search pulls clauses from the walk, so a
satisfiable clause ends it.

The length theory reads each equation as a linear equation over the
lengths of its variables and each membership as the range of lengths
its automaton accepts. It keeps the equations in fraction-free reduced
echelon form over the integers, tightens the length intervals by
propagation with integer rounding, and checks a length that becomes
pinned against its variable's automaton. It never reads a disequation,
and it answers only with a proof of infeasibility, so it drops clauses
but never changes the ones kept. Integers are unary blocks, so sign
cases of element arithmetic that cannot balance are dropped before
they are searched.

A clause's equations and memberships are solved first. If they have no
model, neither has the clause; if their model separates every
disequation, it is the answer. Only otherwise is a disequation
eliminated by branching on the first position where the two sides can
differ; a branch extends the clause's fixpoint by its equations, and
its theory state by their length rows and its one-letter variable, so
a branch whose lengths cannot balance is dropped before it is searched.
Systems of equations are solved by a best-first search over prefix
transformations:

    x = eps            drop the variable
    x = <letter> x     when x faces a letter on the other side
    x = y x / y = x y  when two variables face each other

The encoder hands every side over as a plain str: letters are "abcd",
and each word variable is its own interned code point above them, so a
transformation is str.replace and a side is ground when
max(side) <= "d". Assignments are mapped back to variable names on the
way out.

The searches take turns (_race): the clauses as the walk hands them
out, the branches of a disequation and the components of a system. So
a hard branch cannot starve an easy satisfiable one, nor a hard
component an unsatisfiable one. A system's search yields its turn after
_ALLOWANCE nodes per distinct variable of its equations, and it goes
on from where it stopped when resumed.

Memberships follow the transformations: peeling a letter takes the
derivative of the variable's automaton, and splitting x into y x picks
an intermediate state q of x's automaton for the boundary: y keeps the
words of its own membership that lead to q, and the new x reads on from
q. One product search of y's and x's automata finds every such q and
its head (Dfa.splits), and a q that y's words cannot reach, or from
which x cannot accept, costs no minimization. States are memoized
under a canonical form (automata are interned canonical instances, so
one language is one object), and the frontier is ordered by how many
letters a branch has committed to.

Every node is a fixpoint of cheap rewrite rules (_simplify): affix
stripping, ground resolution, forced-empty sides, pinned variables,
variable merging, and the substitution of a variable x defined by a
side v it does not occur in. That last rule needs x to have no
membership, or the memberships of v's variables to imply x's: every
word of v, each variable read as a word of its membership, lies in x's
automaton. The check steps a set of x's states through v's letters and
maps it through each variable's automaton (Dfa.image), with no
concatenation automaton built. It keeps the models, so an alias that
only names a concatenation is gone before the search, which would
otherwise peel it letter by letter.

A root is one component of a clause's fixpoint, so it is one already.
A child starts from its parent's fixpoint and re-examines only what
its branch touched: the equations the branch substitution changed, the
memberships the branch wrote and the equations that hold their
variables. Settledness is tracked by position, one flag per equation,
and the rules rewrite and delete equations in place. They fire in the
same order as on a full rescan of the child.

A variable that leaves every equation of a child is then pinned: its
membership is dropped and the child's log sets it to the shortest word
of its automaton, the word the final assignment would pick. The search
carries no disequations, so such a variable is independent of the rest
of the system, and children that differ only in its automaton share
one memo key. The step stays out of _simplify, whose clause walk still
gains atoms and carries disequations.

A satisfiable system yields a word assignment, rebuilt by replaying the
substitution trail backwards; callers decode it and verify it against
the reference semantics before reporting.
"""

from __future__ import annotations

import collections
import heapq
import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .ast import EXISTS, FORALL, And, BoolLit, Formula, Not, Or
from .dfa import ALPHABET, Dfa, empty_dfa, lit, union
from .elaborate import Elaboration, elaborate
from . import oracle
from .encode import (
    WEq,
    WIn,
    WordProblem,
    decode_word,
    encode_elaboration,
    var,
    var_name,
)

Eq = tuple  # (side, side), each a str


class ClauseCapExceeded(Exception):
    pass


@dataclass
class Budget:
    max_nodes: int = 200_000
    witness_letters: int = 64
    clause_cap: int = 4096


@dataclass
class SolverResult:
    status: str  # "sat" | "unsat" | "unknown" (or "valid"/"invalid"/"unknown")
    witness: dict | None = None
    counterexample: dict | None = None
    nodes: int = 0
    clauses: int = 0
    reason: str = ""


class _Search:
    """Mutable counters shared across one solve call."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.nodes = 0
        self.capped = False
        self.overflowed = False
        self.fresh = 0
        self.clauses = 0

    def spend(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.budget.max_nodes

    def exhausted(self) -> bool:
        return self.nodes >= self.budget.max_nodes


# ---------------------------------------------------------------------------
# substitutions


def _subst_eqs(eqs: list, x: str, repl: str) -> list:
    return [
        e if x not in e[0] and x not in e[1] else (e[0].replace(x, repl), e[1].replace(x, repl))
        for e in eqs
    ]


def _strip(u: str, v: str) -> Eq:
    if u[:1] != v[:1] and u[-1:] != v[-1:]:
        return u, v  # both ends already differ
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    j = 0
    while j < n - i and u[-1 - j] == v[-1 - j]:
        j += 1
    return u[i : len(u) - j], v[i : len(v) - j]


def _canon(eqs: list, members: dict):
    oriented = sorted([(u, v) if u <= v else (v, u) for u, v in eqs])
    return tuple(oriented), tuple(sorted(members.items()))


# ---------------------------------------------------------------------------
# shared simplification

_FAIL = ("fail", None, None, None, None)


def _substitute(eqs: list, settled: list, x: str, repl: str):
    """Substitute repl for x in eqs in place; an equation that holds x
    is no longer settled."""
    for i, (u, v) in enumerate(eqs):
        if x in u or x in v:
            eqs[i] = u.replace(x, repl), v.replace(x, repl)
            settled[i] = False


def _implied(d: Dfa, side: str, members: dict) -> bool:
    """Does d accept every word of side, each variable read as a word
    of its membership? False when a variable of side has none. The set
    of d's states the side can reach is stepped letter by letter and
    mapped through each variable's automaton (Dfa.image)."""
    states = frozenset([d.start])
    for c in side:
        if c > "d":
            if c not in members:
                return False
            states = d.image(states, members[c])
        else:
            states = frozenset([d.step(q, c) for q in states])
    return states <= d.accepting


def _simplify(
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

    Settledness is tracked by position: settled[i] is True once a scan
    has passed eqs[i] with no rule firing, a substitution clears the
    flag of each equation it changes, a membership that is written or
    merged and not pinned clears the flag of each equation that holds
    its variable, and the next equation examined is the first one not
    settled. Rules rewrite and delete equations in place. The
    disequations are read once the equations are a fixpoint, with the
    log substituted into them.

    A search child passes its parent's fixpoint as eqs, its branch
    substitution as step and the membership keys the branch wrote as
    written; its log starts with step. Memberships the branch did not
    write, and equations the substitution leaves alone that hold no
    variable whose membership it wrote, were settled in the parent and
    are not examined again, and the rules fire in the same order as on
    the substituted child with nothing settled.

    _extend passes a clause's fixpoint with new atoms appended,
    substituted by the fixpoint's log, and the number of the fixpoint's
    equations as fixed; those equations and every membership are
    settled."""
    eqs = list(eqs)
    members = dict(members)
    log: list[tuple[str, str]] = []
    # Whether a rule fires on an equation depends only on the equation
    # and on the memberships of its variables. A membership is dropped
    # only when its variable is substituted away, and a written or
    # merged one unsettles the equations of its variable, so a settled
    # equation stays settled while it stands.
    if step is not None:
        settled = [True] * len(eqs)
        dirty = set(written)
        _substitute(eqs, settled, *step)
        log.append(step)
    elif fixed is not None:
        settled = [True] * fixed + [False] * (len(eqs) - fixed)
        dirty = set()
    else:
        settled = [False] * len(eqs)
        dirty = set(members)  # keys whose membership may be empty or a singleton

    while True:
        if dirty:
            # pinning a singleton dirties nothing, so one pass over the
            # dirty keys finds them in the order rescans would; a branch
            # dirties one or two keys, and only several need ordering
            for x in dirty if len(dirty) == 1 else [x for x in members if x in dirty]:
                d = members.get(x)
                if d is None:
                    continue
                if d.is_empty():
                    return _FAIL
                if d.is_singleton():
                    del members[x]
                    w = d.shortest_word()
                    _substitute(eqs, settled, x, w)
                    log.append((x, w))
                elif True in settled:
                    # a definition that holds x may now imply its variable's
                    # membership; x for itself changes no side but unsettles
                    # every equation that holds x
                    _substitute(eqs, settled, x, x)
            dirty.clear()
        if False not in settled:
            break
        i = settled.index(False)
        u0, v0 = eqs[i]
        u, v = _strip(u0, v0)
        if not u and not v:
            del eqs[i], settled[i]
            continue
        if not u or not v:
            rest = u or v
            if min(rest) <= "d":
                return _FAIL  # a letter faces eps
            x = rest[0]
            if x in members:
                if not members[x].accepts(""):
                    return _FAIL
                del members[x]
            eqs[i] = u, v
            _substitute(eqs, settled, x, "")
            log.append((x, ""))
            continue
        if u[0] <= "d" and v[0] <= "d":
            return _FAIL  # heads differ after stripping
        if len(v) == 1 and v > "d":
            u, v = v, u
        if len(u) == 1 and u > "d" and (
            len(v) == 1
            or max(v) <= "d"
            or u not in v and (u not in members or _implied(members[u], v, members))
        ):
            # u is defined by a ground word, by another variable, or by a
            # side it does not occur in while it has no membership or
            # the memberships of the side's variables imply its own
            x = u
            if x in members:
                d = members.pop(x)
                if max(v) <= "d":
                    if not d.accepts(v):
                        return _FAIL
                elif len(v) == 1:  # x and the variable v are merged
                    d = members[v].intersect(d) if v in members else d
                    if d.is_empty():
                        return _FAIL
                    members[v] = d
                    dirty.add(v)
            del eqs[i], settled[i]
            _substitute(eqs, settled, x, v)
            log.append((x, v))
            continue
        # no rule fires; stripping and orienting are idempotent, so the
        # rewritten equation is settled as well
        eqs[i] = u, v
        settled[i] = True

    if diseqs:
        for x, repl in log:
            diseqs = _subst_eqs(diseqs, x, repl)
    kept = []
    for u, v in diseqs:
        u, v = _strip(u, v)
        if not u and not v:
            return _FAIL  # the sides are equal
        if (not u or not v) and max(u or v) <= "d":
            continue  # a nonempty ground word differs from eps
        if u and v and u[0] <= "d" and v[0] <= "d":
            continue  # differing head letters, trivially true
        kept.append((u, v))
    return "ok", eqs, kept, members, log


def _replay(log: list, sigma: dict) -> dict:
    """Undo a substitution trail: the last substitution is undone
    first, so each replacement is joined under the values the system
    had at that point."""
    sigma = dict(sigma)
    for x, repl in reversed(log):
        sigma[x] = _join(repl, sigma)
    return sigma


def _join(side: str, sigma: dict) -> str:
    """The word of a side under sigma; unassigned variables are empty."""
    return "".join(sigma.get(c, "") if c > "d" else c for c in side)


# ---------------------------------------------------------------------------
# clauses


def _fixpoint(eqs, diseqs, members: dict):
    """The fixpoint of a clause, _simplify run from scratch, or None
    when it fails."""
    res = _simplify(eqs, diseqs, members)
    return None if res[0] == "fail" else res[1:]


def _extend(fix, eqs: list, diseqs: list):
    """The fixpoint of fix's clause with the equations eqs and the
    disequations diseqs joined, or None when _simplify fails on it. The
    new atoms are substituted by fix's log, and _simplify goes on from
    fix with its equations and memberships settled: a rescan reaches the
    new atoms only once everything before them is settled, so the rules
    fire in the same order. The log is fix's with the new one appended."""
    feqs, fdiseqs, members, log = fix
    new = eqs + diseqs
    for x, repl in log:
        new = _subst_eqs(new, x, repl)
    k = len(eqs)
    res = _simplify(feqs + new[:k], fdiseqs + new[k:], members, fixed=len(feqs))
    if res[0] == "fail":
        return None
    return res[1], res[2], res[3], log + res[4]


def _clauses(w, cap: int):
    """The fixpoints (eqs, diseqs, members, log) of the clauses of the
    disjunctive normal form of a word formula in negation normal form,
    each paired with its length theory state, lazily and in the order
    of distributing And over Or left to right.
    A negated equation is a disequation and a negated membership
    complements the automaton.

    The walk is depth first and carries one partial clause with its
    fixpoint. An equation or a disequation that joins extends the
    fixpoint (_extend), and a partial clause the cheap rules refute is
    dropped with every clause that would extend it; a membership joins
    by intersection and is dropped when empty. A joining membership is
    examined first on a rescan, so after one the fixpoint is computed
    from scratch at the next join, or before the clause is yielded.
    No clause that fails _simplify is yielded. A yielded clause has the
    models of the fixpoint _simplify gives the whole clause from
    scratch, but it need not be that fixpoint: the rules can run in
    another order. A disequation the walk drops when it joins, for
    differing letters, can survive from scratch, where a later
    substitution strips it to an empty side against one with a letter.

    The partial clause also carries its length theory state. A joining
    equation adds its length row, computed once per atom, and a joining
    membership bounds its variable by the lengths of the intersection;
    a clause the theory refutes is dropped as a _simplify failure is.
    The state yielded with a clause has admitted all its atoms, and the
    search extends it along the clause's disequation branches.
    Raises ClauseCapExceeded before yielding clause cap + 1."""
    rows: dict[int, tuple] = {}  # id of an equation atom -> its length row
    count = 0
    # (eqs, diseqs, members, fix, th, todo): fix is the fixpoint of the
    # partial clause or None after a membership joined, th its length
    # theory state, and todo is a linked list (formula, rest) of the
    # conjuncts still to join
    stack = [((), (), {}, ([], [], {}, []), _NO_LENGTHS, (w, None))]
    while stack:
        eqs, diseqs, members, fix, th, todo = stack.pop()
        while todo is not None:
            a, todo = todo
            match a:
                case And(left=l, right=r):
                    todo = (l, (r, todo))
                case Or(left=l, right=r):
                    stack.append((eqs, diseqs, members, fix, th, (r, todo)))
                    todo = (l, todo)
                case BoolLit(value=v):
                    if not v:
                        break
                case WEq(left=u, right=v):
                    eqs += ((u, v),)
                    fix = _extend(fix, [(u, v)], []) if fix else _fixpoint(eqs, diseqs, members)
                    if fix is None:
                        break
                    row = rows.get(id(a))
                    if row is None:
                        row = rows[id(a)] = _length_row(u, v)
                    th = _lengths_add(th, row, members)
                    if th is None:
                        break
                case Not(arg=WEq(left=u, right=v)):
                    diseqs += ((u, v),)
                    fix = _extend(fix, [], [(u, v)]) if fix else _fixpoint(eqs, diseqs, members)
                    if fix is None:
                        break
                case WIn(var=x, dfa=d) | Not(arg=WIn(var=x, dfa=d)):
                    if isinstance(a, Not):
                        d = d.complement()
                    if x in members:
                        d = members[x].intersect(d)
                        if d is members[x]:
                            continue  # the clause is unchanged
                    if d.is_empty():
                        break
                    members = members | {x: d}
                    th = _lengths_bound(th, x, d, members)
                    if th is None:
                        break
                    fix = None
                case _:
                    raise TypeError(f"not a word formula in negation normal form: {a!r}")
        else:
            if fix is None and (fix := _fixpoint(eqs, diseqs, members)) is None:
                continue
            count += 1
            if count > cap:
                raise ClauseCapExceeded(f"more than {cap} clauses")
            yield fix, th


def nnf_dnf(w, cap: int = Budget.clause_cap) -> list[tuple]:
    """Every clause fixpoint (eqs, diseqs, members, log) _clauses
    yields; raises ClauseCapExceeded when there are more than cap."""
    return [fix for fix, _ in _clauses(w, cap)]


# ---------------------------------------------------------------------------
# length theory
#
# Every equation u = v says that sum((occ_u(x) - occ_v(x)) * |x|) equals
# letters(v) - letters(u), and every membership bounds its variable's
# length by the lengths its automaton accepts. A state of the theory is
# (rows, box) and is never mutated, so the clause walk keeps one per
# partial clause on its stack. rows maps each pivot variable to its row
# (coeffs, const), meaning sum(coeffs[x] * |x|) == const, in fraction-free
# reduced echelon form: integer coefficients with no common divisor, and
# a pivot occurs only in its own row, with a positive coefficient. box
# maps a variable to the bounds (lo, hi) of its length, hi None when
# unbounded; a variable not in it has _FREE. The theory only refutes, and
# only on a proof: a row whose coefficients' gcd does not divide its
# constant, an empty interval, or a pinned length the variable's
# automaton does not accept.

_NO_LENGTHS = ({}, {})
_FREE = (0, None)  # the bounds of a length nothing constrains
_PASSES = 4  # interval propagation passes; stopping early refutes nothing


@lru_cache(maxsize=None)
def _length_bounds(d: Dfa):
    """(shortest, longest) length d accepts, longest None when a live
    state lies on a cycle; None when d is empty."""
    if d.is_empty():
        return None
    live = set(d.accepting)  # the states that reach acceptance
    grew = True
    while grew:
        grew = False
        for q, row in enumerate(d.delta):
            if q not in live and not live.isdisjoint(row):
                live.add(q)
                grew = True
    # the live states reached by exactly k letters; a path of more than
    # d.n letters through live states repeats one, so it lies on a cycle
    level, accepted = {d.start}, []
    for k in range(d.n + 1):
        if not level.isdisjoint(d.accepting):
            accepted.append(k)
        level = {t for q in level for t in d.delta[q] if t in live}
        if not level:
            return accepted[0], accepted[-1]
    return accepted[0], None


@lru_cache(maxsize=None)
def _length_feasible(d: Dfa, n: int) -> bool:
    """Does d accept a word of length n? The state sets reached by k
    letters are eventually periodic, so stepping stops at the first set
    that repeats and reads the set for n off the period."""
    states = frozenset([d.start])
    first: dict[frozenset, int] = {}  # a state set -> the k letters that reach it
    for k in range(n):
        if states in first:
            j = first[states]
            states = list(first)[j + (n - j) % (k - j)]
            break
        first[states] = k
        states = frozenset([t for q in states for t in d.delta[q]])
    return not states.isdisjoint(d.accepting)


def _length_row(u: str, v: str):
    """The length row (coeffs, const) of the equation u = v."""
    coeffs: dict[str, int] = {}
    for c in u:
        if c > "d":
            coeffs[c] = coeffs.get(c, 0) + 1
    for c in v:
        if c > "d":
            coeffs[c] = coeffs.get(c, 0) - 1
    const = len(v) - len(u) + sum(coeffs.values())
    return {x: k for x, k in coeffs.items() if k}, const


def _normal(coeffs: dict, const: int):
    """The row divided by its coefficients' gcd; None when that gcd
    does not divide the constant (an empty row with a nonzero one)."""
    if not coeffs:
        return None if const else (coeffs, 0)
    g = gcd(*coeffs.values())
    if const % g:
        return None
    if g > 1:
        coeffs = {x: k // g for x, k in coeffs.items()}
        const //= g
    return coeffs, const


def _eliminate(coeffs: dict, const: int, p: str, pc: dict, pk: int):
    """A positive multiple of the row (coeffs, const) minus a multiple
    of p's pivot row (pc, pk), so that p cancels."""
    a, k = pc[p], coeffs[p]
    g = gcd(a, k)
    a, k = a // g, k // g
    out = {x: a * c for x, c in coeffs.items()}
    for y, c in pc.items():
        out[y] = out.get(y, 0) - k * c
    return {x: c for x, c in out.items() if c}, a * const - k * pk


def _lengths_add(th, row, members: dict):
    """th with an equation's length row joined, or None when refuted."""
    rows, box = th
    coeffs, const = row
    for p in [x for x in coeffs if x in rows]:
        coeffs, const = _eliminate(coeffs, const, p, *rows[p])
    row = _normal(coeffs, const)
    if row is None:
        return None
    coeffs, const = row
    if not coeffs:
        return th
    # the pivot has the least coefficient and, among those, occurs in
    # the most rows, so eliminating it collapses them the most
    least = min(map(abs, coeffs.values()))
    uses = {x: 0 for x, c in coeffs.items() if abs(c) == least}
    for r in rows.values():
        for x in r[0]:
            if x in uses:
                uses[x] += 1
    pivot = max(uses, key=uses.__getitem__)
    if coeffs[pivot] < 0:
        coeffs = {x: -c for x, c in coeffs.items()}
        const = -const
    new = {}
    todo = [pivot]
    for q, r in rows.items():
        if pivot in r[0]:
            r = _normal(*_eliminate(*r, pivot, coeffs, const))
            if r is None:
                return None
            todo.append(q)
        new[q] = r
    new[pivot] = coeffs, const
    return _propagate(new, box, todo, (), members)


def _lengths_bound(th, x: str, d: Dfa, members: dict):
    """th with x's length bounded by the automaton d, the membership x
    has now, or None when refuted."""
    bounds = _length_bounds(d)
    if bounds is None:
        return None
    rows, box = th
    l, h = box.get(x, _FREE)
    least, most = bounds
    nl = max(l, least)
    nh = most if h is None else h if most is None else min(h, most)
    if nl == l and nh == h:
        # the box stands, but a pinned length meets a new automaton
        return None if l == h and not _length_feasible(d, l) else th
    if nh is not None and nl > nh:
        return None
    todo = [q for q, r in rows.items() if x in r[0]]
    return _propagate(rows, box | {x: (nl, nh)}, todo, (x,), members)


def _propagate(rows: dict, box: dict, todo: list, touched, members: dict):
    """Tighten the box by interval propagation with integer rounding
    over the rows in todo, then over every row a tightened variable
    occurs in, for at most _PASSES passes. A length that ends pinned is
    checked against its automaton. Returns the state, or None when
    refuted."""
    touched = list(touched)
    own = False
    for _ in range(_PASSES):
        changed = {}
        for q in todo:
            coeffs, const = rows[q]
            # the least and greatest sum of the terms, each with its
            # count of unbounded terms
            smin = smax = nmin = nmax = 0
            for x, a in coeffs.items():
                l, h = box.get(x, _FREE)
                if a > 0:
                    smin += a * l
                    if h is None:
                        nmax += 1
                    else:
                        smax += a * h
                else:
                    smax += a * l
                    if h is None:
                        nmin += 1
                    else:
                        smin += a * h
            if nmin > 1 and nmax > 1:
                continue  # every term has another unbounded one beside it
            for x, a in coeffs.items():
                # bound a * |x| by const minus the least and the greatest
                # sum of the other terms, where those are finite
                l, h = box.get(x, _FREE)
                nl, nh = l, h
                # hi is the sum that holds a * h (smax when a > 0, smin
                # when a < 0) with its count, lo the one that holds a * l
                hi, nhi, lo, nlo = (smax, nmax, smin, nmin) if a > 0 else (smin, nmin, smax, nmax)
                up, down = hi - const, const - lo
                if nhi == 0:
                    nl = max(l, h - up // a)
                elif nhi == 1 and h is None:
                    nl = max(l, -(up // a))
                if nlo == 0:
                    nh = l + down // a if h is None else min(h, l + down // a)
                if nl == l and nh == h:
                    continue
                if nh is not None and nl > nh:
                    return None
                if not own:
                    box, own = dict(box), True
                box[x] = nl, nh
                changed[x] = None
        if not changed:
            break
        touched += changed
        todo = [q for q, r in rows.items() if not changed.keys().isdisjoint(r[0])]
    for x in touched:
        if x in members:
            l, h = box[x]
            if l == h and not _length_feasible(members[x], l):
                return None
    return rows, box


# ---------------------------------------------------------------------------
# equation systems


def _final_assignment(members: dict) -> dict:
    return {x: d.shortest_word() for x, d in members.items()}


# A system's turn is this many nodes per distinct variable of its
# equations, because the search widens with them; every system of the
# corpus and the programs ends within 12 nodes per variable.
_ALLOWANCE = 32


def _solve_system(eqs: list, members: dict, ctl: _Search):
    """Search one component, whose lengths the caller's length theory
    state has admitted. A generator: it yields its turn after every
    _ALLOWANCE nodes per variable of its equations, goes on from the
    same frontier when resumed, and returns (status, sigma)."""
    if not eqs:
        return "sat", _final_assignment(members)
    turn = _ALLOWANCE * len({c for u, v in eqs for c in u + v if c > "d"})

    key0 = _canon(eqs, members)
    store = {key0: (eqs, members, None, [], 0)}
    heap = [(0, 0, 0, key0)]
    tick = itertools.count(1)
    capped = False
    spent = 0

    def emit(parent_key, g, eqs, step, members, written, extra_letters):
        nonlocal capped
        res = _simplify(eqs, [], members, step, written)
        if res[0] == "fail":
            return
        _, eqs2, _, members2, elog = res
        # a variable that left every equation is independent of the rest:
        # pin it to the word _final_assignment would pick, so the key
        # forgets its automaton (every membership of an accepted child
        # is nonempty)
        used = "".join([u + v for u, v in eqs2])
        for x in [x for x in members2 if x not in used]:
            elog.append((x, members2.pop(x).shortest_word()))
        g2 = g + extra_letters
        if g2 > ctl.budget.witness_letters:
            capped = True
            return
        key = _canon(eqs2, members2)
        if key in store:
            return
        store[key] = (eqs2, members2, parent_key, elog, g2)
        heapq.heappush(heap, (g2, len(used), next(tick), key))

    while heap:
        if spent == turn:
            yield
            spent = 0
        spent += 1
        if not ctl.spend():
            return "unknown", None
        _, _, _, key = heapq.heappop(heap)
        eqs, members, _, _, g = store[key]
        if not eqs:
            sigma = {}  # a child without equations pinned every variable
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

        # x, or either of two facing variables, is empty
        for z in (x,) if other <= "d" else (x, other):
            mem = members
            if z in mem:
                if not mem[z].accepts(""):
                    continue
                mem = dict(mem)
                del mem[z]
            emit(key, g, eqs, (z, ""), mem, (), 0)

        if other <= "d":
            # x = other x: x's membership becomes its derivative
            mem = members
            if x in mem:
                d = mem[x].derivative(other)
                mem = None if d.is_empty() else mem | {x: d}
            if mem is not None:
                emit(key, g, eqs, (x, other + x), mem, (x,), 1)
        else:
            y = other
            for longer, shorter in ((x, y), (y, x)):
                # longer = shorter . longer': the boundary is a state q of
                # longer's automaton. shorter keeps its words that lead
                # there and longer' reads on from q; Dfa.splits finds
                # every such q with one product search
                step = (longer, shorter + longer)
                if longer in members:
                    prefix = members.get(shorter, empty_dfa().complement())
                    for head, tail in members[longer].splits(prefix):
                        mem = members | {shorter: head, longer: tail}
                        emit(key, g, eqs, step, mem, (shorter, longer), 0)
                else:
                    emit(key, g, eqs, step, members, (), 0)

    if capped:
        ctl.capped = True
        return "unknown", None
    return "unsat", None


def _components(eqs: list, members: dict):
    """Split a system into independent parts linked by shared
    variables."""
    items = [("eq", e, {c for c in e[0] + e[1] if c > "d"}) for e in eqs]
    items += [("mem", (x, d), {x}) for x, d in members.items()]
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_var: dict[str, int] = {}
    for i, (_, _, vs) in enumerate(items):
        for x in vs:
            if x in by_var:
                ra, rb = find(by_var[x]), find(i)
                parent[ra] = rb
            else:
                by_var[x] = i
    groups: dict[int, tuple[list, dict]] = {}
    for i, (kind, payload, _) in enumerate(items):
        g = groups.setdefault(find(i), ([], {}))
        if kind == "eq":
            g[0].append(payload)
        else:
            g[1][payload[0]] = payload[1]
    return [groups[k] for k in sorted(groups)]


_ANY_LETTER = union(*(lit(ch) for ch in ALPHABET))
_OTHER_LETTER = {a: union(*(lit(b) for b in ALPHABET if b != a)) for a in ALPHABET}


def _diseq_branches(u: str, v: str, n: int):
    """The six disjoint ways two words can differ: for each letter a, a
    common prefix w followed by a on u's side and a letter l other than
    a on v's (so w is the longest common prefix), or one side a strict
    prefix of the other."""
    w, s1, s2, l = (var(f"${p}{n}") for p in ("dw", "da", "db", "dl"))
    out = [([(u, w + a + s1), (v, w + l + s2)], {l: d}) for a, d in _OTHER_LETTER.items()]
    out.append(([(v, u + l + s1)], {l: _ANY_LETTER}))
    out.append(([(u, v + l + s1)], {l: _ANY_LETTER}))
    return out


def _solve_equations(eqs, members, ctl: _Search):
    """Solve a system without disequations: its components race, and
    an unsat one ends the race."""
    comps = _components(eqs, members)
    return (yield from _race((_solve_system(e, m, ctl) for e, m in comps), ctl, "unsat"))


def _solve_constraints(clause, th, ctl: _Search):
    """Solve a clause fixpoint (eqs, diseqs, members, log) whose lengths
    the length theory state th has admitted. The equations and
    memberships are solved first. Their model answers the whole clause
    when it separates every disequation; only otherwise is the first
    disequation split, and its branches race. A branch the theory, with
    its atoms joined, refutes is dropped; the others extend the fixpoint
    by their equations, with the rest of the disequations."""
    eqs, diseqs, members, log = clause
    st, sigma = yield from _solve_equations(eqs, members, ctl)
    if st == "unsat":
        return "unsat", None
    # the disequations are already substituted by the log, so they are
    # read on sigma itself, with the empty word for unassigned variables
    # as the witness decoder reads it
    if st == "sat" and all(_join(u, sigma) != _join(v, sigma) for u, v in diseqs):
        return "sat", _replay(log, sigma)
    if not diseqs:
        return st, None

    diseqs = list(dict.fromkeys(diseqs))
    rest = diseqs[1:]

    def branches():
        ctl.fresh += 1
        for extra_eqs, extra_mem in _diseq_branches(*diseqs[0], ctl.fresh):
            # branching is search work too; charging it keeps a deep
            # disequation tree inside the global budget even when every
            # system below it is cheap
            if not ctl.spend():
                return
            mem = members | extra_mem
            bth = th
            for l, d in extra_mem.items():
                bth = _lengths_bound(bth, l, d, mem)
            for u, v in extra_eqs:
                if bth is not None:
                    bth = _lengths_add(bth, _length_row(u, v), mem)
            if bth is None:
                continue
            # l's membership is neither empty nor a singleton and l occurs
            # only in the branch's own equations, which _extend examines
            # anyway, so l's membership is settled as well
            branch = _extend((eqs, rest, mem, log), extra_eqs, [])
            if branch is not None:
                yield _solve_constraints(branch, bth, ctl)

    return (yield from _race(branches(), ctl))


def _race(searches, ctl: _Search, goal: str = "sat"):
    """Run by turns the searches an iterator hands out. A search runs
    until it yields its turn or answers; a new one starts before a
    suspended one resumes, and the race yields when a search does, so
    nested races take turns too. The first answer with the status goal
    ends the race. Otherwise the answer is unknown if one was or the
    node budget ran out, and else the other definite status, with the
    models of the searches joined when that is sat."""
    suspended = collections.deque()
    status = "unsat" if goal == "sat" else "sat"
    sigma: dict[str, str] = {}
    while True:
        search = next(searches, None)
        if search is None:
            if not suspended:
                return status, sigma if status == "sat" else None
            search = suspended.popleft()
        try:
            next(search)
        except StopIteration as done:
            st, s = done.value
            if st == goal:
                return st, s
            if st == "unknown":
                status = st
            elif s:
                sigma |= s
        else:
            suspended.append(search)
            yield
        if ctl.exhausted():
            return "unknown", None


def solve_problem(wp: WordProblem, budget: Budget | None = None):
    """Solve a word problem: its clauses race as the walk hands them
    out. Returns (status, sigma, search, clause count); sigma maps word
    variables to words, and the count is of the clauses handed to the
    search."""
    budget = budget or Budget()
    ctl = _Search(budget)

    def searches():
        for clause, th in _clauses(wp.matrix, budget.clause_cap):
            ctl.clauses += 1
            yield _solve_constraints(clause, th, ctl)

    race = _race(searches(), ctl)
    try:
        while True:
            next(race)
    except StopIteration as done:
        status, sigma = done.value
    except ClauseCapExceeded:
        ctl.overflowed = True
        status, sigma = "unknown", None
    if sigma is not None:
        sigma = {var_name(c): w for c, w in sigma.items()}
    return status, sigma, ctl, ctl.clauses


# ---------------------------------------------------------------------------
# entry points


def _decode_witness(sigma: dict, f: Formula, elab: Elaboration) -> dict:
    env = {}
    for x in oracle.search_names(f):
        marked = elab.rev_map.get(x, x)
        seq = decode_word(sigma.get(marked, ""))
        env[x] = seq[::-1] if marked != x else seq
    return env


def _solve(g: Formula, budget: Budget | None, elab: Elaboration | None) -> SolverResult:
    """Decide the existential or prefix-free g, and verify a witness
    against its matrix. elab, when the caller already has it, is g's."""
    if elab is None:
        elab = elaborate(g)
    status, sigma, ctl, nclauses = solve_problem(encode_elaboration(elab), budget)
    result = SolverResult(status=status, nodes=ctl.nodes, clauses=nclauses)
    if status == "sat":
        env = _decode_witness(sigma, g, elab)
        if not oracle.matrix_value(g.matrix, env):
            raise RuntimeError(f"witness failed verification: {env!r}")
        result.witness = env
    elif status == "unknown":
        if ctl.overflowed:
            result.reason = "clause cap exceeded"
        elif ctl.capped:
            result.reason = "witness length cap"
        else:
            result.reason = "node budget exhausted"
    return result


def negation(f: Formula) -> Formula:
    """The existential formula whose refutation decides the validity of
    f's universal closure; its witnesses are counterexamples to f."""
    return Formula(EXISTS, oracle.search_names(f), Not(f.matrix))


def _refute(
    f: Formula, budget: Budget | None, elab: Elaboration | None, holds: str, fails: str
) -> SolverResult:
    """Decide f's universal closure by solving negation(f): the status
    is holds when that has no model and fails when it has one, which is
    the counterexample."""
    r = _solve(negation(f), budget, elab)
    r.status = {"unsat": holds, "sat": fails, "unknown": "unknown"}[r.status]
    r.witness, r.counterexample = None, r.witness
    return r


def check_sat(f: Formula, budget: Budget | None = None) -> SolverResult:
    """Decide satisfiability. A universal formula is treated as the
    sentence it denotes: it is sat when valid, and unsat with the
    counterexample when invalid."""
    if f.quantifier == FORALL:
        return _refute(f, budget, None, "sat", "unsat")
    return _solve(f, budget, None)


def check_valid(
    f: Formula, budget: Budget | None = None, elab: Elaboration | None = None
) -> SolverResult:
    """Decide validity of the universal closure by refuting the
    negation. A counterexample assignment is reported when one
    exists. elab, when the caller already has it, is the elaboration of
    negation(f)."""
    return _refute(f, budget, elab, "valid", "invalid")

"""Satisfiability of word problems by transformation search.

The encoded matrix is put into disjunctive normal form; each clause is
a conjunction of word equations, word disequations, and per-variable
regular memberships. Disequations are eliminated by branching on the
first position where the two sides can differ. The remaining systems
of equations are solved by a best-first search over prefix
transformations:

    x = eps            drop the variable
    x = <letter> x     when x faces a letter on the other side
    x = y x / y = x y  when two variables face each other

Inside the search every side is a plain str: letters are "abcd", and
each word variable is interned once to its own code point above them
(from U+10000), so a transformation is str.replace and a side is
ground when max(side) <= "d". Clauses are converted on the way in and
assignments mapped back to variable names on the way out.

Memberships follow the transformations: peeling a letter takes the
derivative of the variable's automaton, and splitting x into y x picks
an intermediate automaton state for the boundary. States are memoized
under a canonical form (automata are interned canonical instances, so
one language is one object), the frontier is ordered by how many
letters a branch has committed to, and an exact length abstraction
(Gaussian elimination over the equation length constraints) discards
systems whose lengths cannot balance.

Every node is a fixpoint of cheap rewrite rules (_simplify). A child
starts from its parent's fixpoint and re-examines only what its branch
touched: the equations the branch substitution changed and the
memberships the branch wrote. The rules fire in the same order as on
a full rescan of the child.

A satisfiable system yields a word assignment, rebuilt by replaying the
substitution trail backwards; callers decode it and verify it against
the reference semantics before reporting.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .ast import EXISTS, FORALL, Formula, Not, free_vars
from .dfa import ALPHABET, Dfa, lit, union
from .elaborate import Elaboration, elaborate
from . import oracle
from .encode import (
    V,
    WAnd,
    WBool,
    WEq,
    WIn,
    WNot,
    WOr,
    WordProblem,
    decode_word,
    encode_elaboration,
)

Side = str  # letters "abcd" and interned variable code points
Eq = tuple  # (Side, Side)


class ClauseCapExceeded(Exception):
    pass


@dataclass
class Budget:
    max_nodes: int = 200_000
    witness_letters: int = 64
    clause_cap: int = 4096

    @staticmethod
    def from_env() -> "Budget":
        b = Budget()
        nodes = os.environ.get("SEQSOLVE_BUDGET_NODES")
        if nodes:
            b.max_nodes = int(nodes) if nodes.strip().isdecimal() else 0
            if b.max_nodes <= 0:
                raise ValueError(
                    f"SEQSOLVE_BUDGET_NODES must be a positive integer, not {nodes!r}"
                )
        return b


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

    def spend(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.budget.max_nodes

    def exhausted(self) -> bool:
        return self.nodes >= self.budget.max_nodes


# ---------------------------------------------------------------------------
# DNF


@dataclass
class Clause:
    eqs: list = field(default_factory=list)
    diseqs: list = field(default_factory=list)
    members: dict = field(default_factory=dict)


def _merge(c1: Clause, c2: Clause) -> Clause | None:
    members = dict(c1.members)
    for x, d in c2.members.items():
        d = members[x].intersect(d) if x in members else d
        if d.is_empty():
            return None
        members[x] = d
    return Clause(c1.eqs + c2.eqs, c1.diseqs + c2.diseqs, members)


def nnf_dnf(w, cap: int = 4096) -> list[Clause]:
    """Clauses of the disjunctive normal form, negations pushed onto
    atoms (a negated membership complements the automaton)."""

    def go(w, pos: bool) -> list[Clause]:
        match w:
            case WBool(value=v):
                return [Clause()] if v == pos else []
            case WEq(left=l, right=r):
                return [Clause(eqs=[(l, r)])] if pos else [Clause(diseqs=[(l, r)])]
            case WIn(var=x, dfa=d):
                d = d if pos else d.complement()
                if d.is_empty():
                    return []
                return [Clause(members={x: d})]
            case WNot(arg=a):
                return go(a, not pos)
            case WAnd(left=l, right=r) if pos:
                return cross(go(l, pos), go(r, pos))
            case WAnd(left=l, right=r):
                return cat(go(l, pos), go(r, pos))
            case WOr(left=l, right=r) if pos:
                return cat(go(l, pos), go(r, pos))
            case WOr(left=l, right=r):
                return cross(go(l, pos), go(r, pos))
        raise TypeError(f"not a word formula: {w!r}")

    def cat(a: list, b: list) -> list:
        if len(a) + len(b) > cap:
            raise ClauseCapExceeded(f"more than {cap} clauses")
        return a + b

    def cross(a: list, b: list) -> list:
        out = []
        for c1 in a:
            for c2 in b:
                m = _merge(c1, c2)
                if m is not None:
                    out.append(m)
                if len(out) > cap:
                    raise ClauseCapExceeded(f"more than {cap} clauses")
        return out

    return go(w, True)


# ---------------------------------------------------------------------------
# sides and substitutions

_names: list[str] = []  # code point - 0x10000 -> variable name
_codes: dict[str, str] = {}  # variable name -> code point


def _var(name: str) -> str:
    c = _codes.get(name)
    if c is None:
        c = _codes[name] = chr(0x10000 + len(_names))
        _names.append(name)
    return c


def _name(c: str) -> str:
    return _names[ord(c) - 0x10000]


def _side(toks) -> Side:
    return "".join(_var(t.name) if isinstance(t, V) else t.ch for t in toks)


def _on_strings(c: Clause):
    """(eqs, diseqs, members) of a clause, on str sides and code points."""
    return (
        [(_side(u), _side(v)) for u, v in c.eqs],
        [(_side(u), _side(v)) for u, v in c.diseqs],
        {_var(x): d for x, d in c.members.items()},
    )


def _subst_eqs(eqs: list, x: str, repl: Side) -> list:
    return [(u.replace(x, repl), v.replace(x, repl)) for u, v in eqs]


def _strip(u: Side, v: Side) -> Eq:
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    j = 0
    while j < n - i and u[-1 - j] == v[-1 - j]:
        j += 1
    return u[i : len(u) - j], v[i : len(v) - j]


def _canon(eqs: list, members: dict):
    oriented = sorted((u, v) if u <= v else (v, u) for u, v in eqs)
    return tuple(oriented), tuple(sorted(members.items()))


# ---------------------------------------------------------------------------
# shared simplification

_FAIL = ("fail", None, None, None, None)


def _simplify(
    eqs: list, diseqs: list, members: dict, step: tuple | None = None, written=()
):
    """Fixpoint of the cheap rules: affix stripping, ground resolution,
    forced-empty sides, pinned variables (singleton automata, one-sided
    variables), and variable merging. Returns (ok, eqs, diseqs,
    members, log); the log records substitutions for witness replay.

    A search child passes its parent's fixpoint as eqs, its branch
    substitution as step and the membership keys the branch wrote as
    written; its log starts with step. Equations the substitution
    leaves alone and memberships the branch did not write were settled
    in the parent and are not examined again, and the rules fire in
    the same order as on the substituted child with nothing settled."""
    eqs = list(eqs)
    diseqs = list(diseqs)
    members = dict(members)
    log: list[tuple[str, Side]] = []
    # An equation is settled once a scan passes it with no rule firing.
    # Whether a rule fires on it depends only on the equation and, for a
    # variable it defines, on that variable having no membership; a
    # membership is dropped only when its variable is substituted away,
    # so a settled equation stays settled while it stands.
    settled = set()
    dirty = set(members)  # keys whose membership may be empty or a singleton

    def substitute(x: str, repl: Side):
        nonlocal eqs, diseqs
        eqs = _subst_eqs(eqs, x, repl)
        diseqs = _subst_eqs(diseqs, x, repl)
        log.append((x, repl))

    if step is not None:
        settled = set(eqs)
        dirty = set(written)
        substitute(*step)

    def eq_step() -> str:
        """Apply at most one rule; 'fail', 'again' or 'done'."""
        nonlocal eqs
        if dirty:
            for x, d in members.items():
                if x not in dirty:
                    continue
                dirty.discard(x)
                if d.is_empty():
                    return "fail"
                if d.is_singleton():
                    del members[x]
                    substitute(x, d.shortest_word())
                    return "again"
            dirty.clear()

        for i, (u0, v0) in enumerate(eqs):
            if (u0, v0) in settled:
                continue
            u, v = _strip(u0, v0)
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
                if x not in members and x not in v:
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
            u, v = _strip(u0, v0)
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


def _replay(log: list, sigma: dict) -> dict:
    """Undo a substitution trail: the last substitution is undone
    first, so each replacement is joined under the values the system
    had at that point."""
    sigma = dict(sigma)
    for x, repl in reversed(log):
        sigma[x] = "".join(sigma.get(c, "") if c > "d" else c for c in repl)
    return sigma


# ---------------------------------------------------------------------------
# length abstraction


def _length_feasible(d: Dfa, n: int) -> bool:
    states = {d.start}
    for _ in range(n):
        states = {d.step(q, ch) for q in states for ch in ALPHABET}
    return bool(states & d.accepting)


def _length_infeasible(eqs: list, members: dict) -> bool:
    """True only on an exact proof that the length constraints of the
    equations admit no solution."""
    rows = []
    for u, v in eqs:
        coeffs = Counter()
        const = 0
        for c in u:
            if c > "d":
                coeffs[c] += 1
            else:
                const -= 1
        for c in v:
            if c > "d":
                coeffs[c] -= 1
            else:
                const += 1
        coeffs = {x: Fraction(c) for x, c in coeffs.items() if c}
        rows.append((coeffs, Fraction(const)))

    solved: dict[str, tuple] = {}  # pivot var -> (coeffs, const)
    for coeffs, const in rows:
        coeffs = dict(coeffs)
        # reduce by the pivots found so far
        again = True
        while again:
            again = False
            for x in list(coeffs):
                if x in solved:
                    factor = coeffs.pop(x)
                    pc, pconst = solved[x]
                    for y, c in pc.items():
                        coeffs[y] = coeffs.get(y, Fraction(0)) + factor * c
                        if coeffs[y] == 0:
                            del coeffs[y]
                    const -= factor * pconst
                    again = True
                    break
        if not coeffs:
            if const != 0:
                return True
            continue
        pivot = min(coeffs, key=_name)
        factor = coeffs.pop(pivot)
        pc = {y: -c / factor for y, c in coeffs.items()}
        solved[pivot] = (pc, const / factor)

    for x, (pc, const) in solved.items():
        if pc:
            continue
        # the length of x is forced exactly
        if const < 0 or const.denominator != 1:
            return True
        n = int(const)
        if x in members and not _length_feasible(members[x], n):
            return True
    return False


# ---------------------------------------------------------------------------
# equation systems


def _final_assignment(members: dict) -> dict:
    return {x: d.shortest_word() for x, d in members.items()}


def _total_len(eqs: list) -> int:
    return sum(len(u) + len(v) for u, v in eqs)


def _solve_system(eqs: list, members: dict, ctl: _Search, allowance: int | None):
    res = _simplify(eqs, [], members)
    if res[0] == "fail":
        return "unsat", None
    _, eqs, _, members, log0 = res
    if _length_infeasible(eqs, members):
        return "unsat", None
    if not eqs:
        return "sat", _replay(log0, _final_assignment(members))

    key0 = _canon(eqs, members)
    store = {key0: (eqs, members, None, log0, 0)}
    heap = [(0, 0, 0, key0)]
    tick = itertools.count(1)
    visited = set()
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
        if key in visited or key in store:
            return
        store[key] = (eqs2, members2, parent_key, elog, g2)
        heapq.heappush(heap, (g2, _total_len(eqs2), next(tick), key))

    while heap:
        if allowance is not None and ctl.nodes - start_nodes >= allowance:
            return "unknown", None
        if not ctl.spend():
            return "unknown", None
        _, _, _, key = heapq.heappop(heap)
        if key in visited:
            continue
        visited.add(key)
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

        def try_eps(z: str):
            mem = dict(members)
            if z in mem:
                if not mem[z].accepts(""):
                    return
                del mem[z]
            emit(key, g, eqs, (z, ""), mem, (), 0)

        if other <= "d":
            alpha = other
            try_eps(x)
            mem = dict(members)
            ok = True
            if x in mem:
                d = mem[x].derivative(alpha)
                if d.is_empty():
                    ok = False
                else:
                    mem[x] = d
            if ok:
                emit(key, g, eqs, (x, alpha + x), mem, (x,), 1)
        else:
            y = other
            try_eps(x)
            try_eps(y)
            for longer, shorter in ((x, y), (y, x)):
                # longer = shorter . longer'
                step = (longer, shorter + longer)
                if longer in members:
                    d = members[longer]
                    for q in range(d.n):
                        head = d.accept_at(q)
                        tail = d.with_start(q)
                        if head.is_empty() or tail.is_empty():
                            continue
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


@lambda f: f()
def _any_letter():
    d = union(*(lit(ch) for ch in ALPHABET))
    return lambda: d


def _diseq_branches(u: Side, v: Side, n: int):
    """The fourteen ways two words can differ: a common prefix followed
    by different letters, or one side a strict prefix of the other."""
    w, s1, s2, l = (_var(f"${p}{n}") for p in ("dw", "da", "db", "dl"))
    out = []
    for a, b in itertools.permutations(ALPHABET, 2):
        out.append(([(u, w + a + s1), (v, w + b + s2)], {}))
    out.append(([(v, u + l + s1)], {l: _any_letter()}))
    out.append(([(u, v + l + s1)], {l: _any_letter()}))
    return out


def _solve_constraints(eqs, diseqs, members, ctl: _Search, allowance: int | None):
    res = _simplify(eqs, diseqs, members)
    if res[0] == "fail":
        return "unsat", None
    _, eqs, diseqs, members, log = res

    if diseqs:
        diseqs = list(dict.fromkeys(diseqs))
        u, v = diseqs[0]
        rest = diseqs[1:]
        ctl.fresh += 1
        saw_unknown = False
        for extra_eqs, extra_mem in _diseq_branches(u, v, ctl.fresh):
            # branching is search work too; charging it keeps a deep
            # disequation tree inside the global budget even when every
            # system below it is cheap
            if not ctl.spend():
                return "unknown", None
            mem = dict(members)
            for x, d in extra_mem.items():
                mem[x] = d
            st, sigma = _solve_constraints(eqs + extra_eqs, rest, mem, ctl, allowance)
            if st == "sat":
                return "sat", _replay(log, sigma)
            if st == "unknown":
                saw_unknown = True
        return ("unknown" if saw_unknown else "unsat"), None

    sigma: dict[str, str] = {}
    saw_unknown = False
    for comp_eqs, comp_members in _components(eqs, members):
        st, s = _solve_system(comp_eqs, comp_members, ctl, allowance)
        if st == "unsat":
            return "unsat", None
        if st == "unknown":
            saw_unknown = True
            continue
        sigma |= s
    if saw_unknown:
        return "unknown", None
    return "sat", _replay(log, sigma)


# Node allowances per equation system, escalated so that one hard
# branch cannot starve an easy satisfiable one elsewhere.
_LEVELS = (400, 6000, None)


def solve_problem(wp: WordProblem, budget: Budget | None = None):
    """Solve an existential word problem clause by clause. Returns
    (status, sigma, search, clause count); sigma maps word variables
    to words."""
    if wp.kind != "existential":
        raise ValueError("only existential problems can be solved directly")
    budget = budget or Budget.from_env()
    ctl = _Search(budget)
    try:
        clauses = nnf_dnf(wp.matrix, budget.clause_cap)
    except ClauseCapExceeded:
        ctl.overflowed = True
        return "unknown", None, ctl, 0
    # converted as the first level reaches each clause, so that only the
    # clauses still unknown after it are held twice
    pending = map(_on_strings, clauses)
    for allowance in _LEVELS:
        still_unknown = []
        for clause in pending:
            st, sigma = _solve_constraints(*clause, ctl, allowance)
            if st == "sat":
                sigma = {_name(c): w for c, w in sigma.items()}
                return "sat", sigma, ctl, len(clauses)
            if st == "unknown":
                still_unknown.append(clause)
            if ctl.exhausted():
                return "unknown", None, ctl, len(clauses)
        if not still_unknown:
            return "unsat", None, ctl, len(clauses)
        pending = still_unknown
    return "unknown", None, ctl, len(clauses)


# ---------------------------------------------------------------------------
# entry points


def _original_vars(f: Formula) -> list[str]:
    if f.quantifier is not None:
        return list(f.prefix)
    return sorted(free_vars(f))


def _decode_witness(sigma: dict, f: Formula, elab: Elaboration) -> dict:
    env = {}
    for x in _original_vars(f):
        marked = elab.rev_map.get(x, x)
        seq = decode_word(sigma.get(marked, ""))
        env[x] = seq[::-1] if marked != x else seq
    return env


def check_sat(f: Formula, budget: Budget | None = None) -> SolverResult:
    """Decide satisfiability. A universal formula is treated as the
    sentence it denotes: it is sat when valid, and unsat with the
    counterexample when invalid."""
    budget = budget or Budget.from_env()
    if f.quantifier == FORALL:
        r = check_valid(f, budget)
        r.status = {"valid": "sat", "invalid": "unsat", "unknown": "unknown"}[r.status]
        return r

    elab = elaborate(f, EXISTS)
    wp = encode_elaboration(elab)
    status, sigma, ctl, nclauses = solve_problem(wp, budget)
    result = SolverResult(status=status, nodes=ctl.nodes, clauses=nclauses)
    if status == "sat":
        env = _decode_witness(sigma, f, elab)
        if not oracle.matrix_value(f.matrix, env):
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


def check_valid(f: Formula, budget: Budget | None = None) -> SolverResult:
    """Decide validity of the universal closure by refuting the
    negation. A counterexample assignment is reported when one
    exists."""
    prefix = tuple(_original_vars(f))
    negated = Formula(EXISTS, prefix, Not(f.matrix))
    inner = check_sat(negated, budget)
    status = {"sat": "invalid", "unsat": "valid", "unknown": "unknown"}[inner.status]
    return SolverResult(
        status=status,
        counterexample=inner.witness,
        nodes=inner.nodes,
        clauses=inner.clauses,
        reason=inner.reason,
    )

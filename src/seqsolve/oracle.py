"""Reference semantics: direct evaluation over concrete integer sequences.

This module is deliberately independent of the rewriting and encoding
pipeline; it evaluates the full surface language recursively, exactly
following the definitions:

  * a sequence used as an integer denotes its first element, with the
    empty sequence denoting 0;
  * an integer used as a sequence denotes the one-element sequence;
  * t[k1:k2] uses 1-based positions; non-positive positions count from
    the end (0 is the last element, -1 the one before it, and so on).
    If the requested window does not fit, the result is empty.

Quantified formulas are decided by a bounded search over all sequences
of a finite pool of element values up to a length bound, so a True from
``formula_value`` for a universal formula means "true within the given
bounds" only. Enlarging bounds never removes candidate sequences, so a
counterexample found by ``brute_force_sat`` stays a counterexample
under any larger bounds.

``brute_force_sat`` binds the variables depth first, in the order of
``iter_envs``, and after each binding evaluates the matrix in Kleene's
three-valued logic, where an atom that reads a still unbound variable
is unknown. A false value cuts the subtree; a true one completes the
assignment with empty sequences, which come first in the enumeration.
The answer is therefore the same first model, in enumeration order, as
evaluating every environment of ``iter_envs`` in turn.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .ast import (
    And,
    BoolLit,
    Formula,
    IAdd,
    IConst,
    IOfSeq,
    ISub,
    Iff,
    Imp,
    InRe,
    IntCmp,
    IntTerm,
    LenCmp,
    Matrix,
    Not,
    Or,
    SConcat,
    SEmpty,
    SInt,
    SRev,
    SSub,
    SVar,
    SeqEq,
    SeqTerm,
    ZAny,
    ZCat,
    ZLit,
    ZPlus,
    ZPow,
    ZRegex,
    ZSet,
    ZStar,
    ZUnion,
)

Seq = tuple[int, ...]


def subseq_eval(v: Seq, k1: int, k2: int) -> Seq:
    """The subsequence selection v(k1, k2)."""
    n = len(v)
    if 1 <= k1 <= k2 <= n:
        return v[k1 - 1 : k2]
    if k1 - n <= k2 < 1 <= k1:
        return v[k1 - 1 : n + k2]
    if 1 - n <= k1 <= k2 < 1:
        return v[n + k1 - 1 : n + k2]
    return ()


def seq_value(t: SeqTerm, env: dict[str, Seq]) -> Seq:
    match t:
        case SVar(name=n):
            return env[n]
        case SEmpty():
            return ()
        case SInt(value=i):
            return (int_value(i, env),)
        case SConcat(left=l, right=r):
            return seq_value(l, env) + seq_value(r, env)
        case SSub(arg=a, lo=k1, hi=k2):
            return subseq_eval(seq_value(a, env), k1, k2)
        case SRev(arg=a):
            return tuple(reversed(seq_value(a, env)))
    raise TypeError(f"not a sequence term: {t!r}")


def int_value(i: IntTerm, env: dict[str, Seq]) -> int:
    match i:
        case IConst(value=k):
            return k
        case IOfSeq(arg=t):
            s = seq_value(t, env)
            return s[0] if s else 0
        case IAdd(left=l, right=r):
            return int_value(l, env) + int_value(r, env)
        case ISub(left=l, right=r):
            return int_value(l, env) - int_value(r, env)
    raise TypeError(f"not an integer term: {i!r}")


# ---------------------------------------------------------------------------
# regular membership over integer sequences, via a symbolic NFA whose
# edges carry element predicates


@dataclass(frozen=True)
class _Pred:
    kind: str  # "lit" | "any" | "set"
    values: frozenset[int] = frozenset()

    def holds(self, x: int) -> bool:
        return self.kind == "any" or x in self.values


class _Nfa:
    def __init__(self):
        self.eps: list[tuple[int, int]] = []
        self.edges: list[tuple[int, _Pred, int]] = []
        self.n = 0

    def state(self) -> int:
        self.n += 1
        return self.n - 1

    def add(self, r: ZRegex, src: int, dst: int) -> None:
        match r:
            case ZLit(value=k):
                self.edges.append((src, _Pred("lit", frozenset([k])), dst))
            case ZAny():
                self.edges.append((src, _Pred("any"), dst))
            case ZSet(values=vs):
                self.edges.append((src, _Pred("set", frozenset(vs)), dst))
            case ZCat(parts=ps):
                cur = src
                for p in ps:
                    nxt = self.state()
                    self.add(p, cur, nxt)
                    cur = nxt
                self.eps.append((cur, dst))
            case ZUnion(parts=ps):
                for p in ps:
                    self.add(p, src, dst)
            case ZStar(arg=a):
                mid = self.state()
                self.eps.append((src, mid))
                self.add(a, mid, mid)
                self.eps.append((mid, dst))
            case ZPlus(arg=a):
                mid = self.state()
                self.add(a, src, mid)
                self.add(a, mid, mid)
                self.eps.append((mid, dst))
            case ZPow(arg=a, power=k):
                cur = src
                for _ in range(max(k, 0)):
                    nxt = self.state()
                    self.add(a, cur, nxt)
                    cur = nxt
                self.eps.append((cur, dst))
            case _:
                raise TypeError(f"not a regex: {r!r}")

    def closure(self, states: set[int]) -> set[int]:
        out = set(states)
        changed = True
        while changed:
            changed = False
            for s, d in self.eps:
                if s in out and d not in out:
                    out.add(d)
                    changed = True
        return out


@functools.lru_cache(maxsize=1024)
def _compiled(r: ZRegex) -> tuple[_Nfa, int, int]:
    nfa = _Nfa()
    start, accept = nfa.state(), nfa.state()
    nfa.add(r, start, accept)
    return nfa, start, accept


def regex_match(r: ZRegex, s: Seq) -> bool:
    nfa, start, accept = _compiled(r)
    cur = nfa.closure({start})
    for x in s:
        step = {d for (src, p, d) in nfa.edges if src in cur and p.holds(x)}
        if not step:
            return False
        cur = nfa.closure(step)
    return accept in cur


# ---------------------------------------------------------------------------
# formulas


def matrix_value(m: Matrix, env: dict[str, Seq]) -> bool:
    match m:
        case BoolLit(value=v):
            return v
        case Not(arg=a):
            return not matrix_value(a, env)
        case And(left=l, right=r):
            return matrix_value(l, env) and matrix_value(r, env)
        case Or(left=l, right=r):
            return matrix_value(l, env) or matrix_value(r, env)
        case Imp(left=l, right=r):
            return (not matrix_value(l, env)) or matrix_value(r, env)
        case Iff(left=l, right=r):
            return matrix_value(l, env) == matrix_value(r, env)
        case SeqEq(left=l, right=r):
            return seq_value(l, env) == seq_value(r, env)
        case InRe(arg=t, regex=rx):
            return regex_match(rx, seq_value(t, env))
        case IntCmp(op=op, left=l, right=r):
            a, b = int_value(l, env), int_value(r, env)
            match op:
                case "==":
                    return a == b
                case "!=":
                    return a != b
                case "<":
                    return a < b
                case "<=":
                    return a <= b
                case ">":
                    return a > b
                case ">=":
                    return a >= b
            raise ValueError(f"unknown comparison {op!r}")
        case LenCmp(arg=t, op=op, bound=k):
            n = len(seq_value(t, env))
            match op:
                case "==":
                    return n == k
                case "!=":
                    return n != k
                case "<":
                    return n < k
                case "<=":
                    return n <= k
                case ">":
                    return n > k
                case ">=":
                    return n >= k
            raise ValueError(f"unknown comparison {op!r}")
    raise TypeError(f"not a matrix node: {m!r}")


@dataclass(frozen=True)
class Bounds:
    """Finite search space: sequences over ``values`` of length at most
    ``max_len``. Enumeration order is by length, then by the position
    of elements in ``values`` (leftmost sequence position most
    significant)."""

    max_len: int = 3
    values: tuple[int, ...] = (-2, -1, 0, 1, 2)


def enum_seqs(bounds: Bounds):
    for n in range(bounds.max_len + 1):
        yield from itertools.product(bounds.values, repeat=n)


def iter_envs(names: tuple[str, ...], bounds: Bounds):
    """All assignments of bounded sequences to the given names. The
    first name is the slowest-varying."""
    pool = list(enum_seqs(bounds))
    for combo in itertools.product(pool, repeat=len(names)):
        yield dict(zip(names, combo))


def formula_value(f: Formula, bounds: Bounds = Bounds()) -> bool:
    """Evaluate a formula, deciding its quantifier prefix within the
    bounds: an existential formula holds if it has a model, a universal
    one if its negation has none."""
    if f.is_universal():
        return brute_force_sat(Not(f.matrix), f.prefix, bounds) is None
    return brute_force_sat(f.matrix, f.prefix, bounds) is not None


def _kleene(m: Matrix, env: dict[str, Seq]) -> bool | None:
    """The value of ``m`` under a partial assignment in Kleene's
    three-valued logic: None (unknown) while it depends on an atom that
    reads a name ``env`` does not bind."""
    match m:
        case Not(arg=a):
            v = _kleene(a, env)
            return None if v is None else not v
        case And(left=l, right=r):
            a = _kleene(l, env)
            if a is False:
                return False
            b = _kleene(r, env)
            return b if a or b is False else None
        case Or(left=l, right=r):
            a = _kleene(l, env)
            if a:
                return True
            b = _kleene(r, env)
            return b if a is False or b else None
        case Imp(left=l, right=r):
            a = _kleene(l, env)
            if a is False:
                return True
            b = _kleene(r, env)
            return b if a or b else None
        case Iff(left=l, right=r):
            a, b = _kleene(l, env), _kleene(r, env)
            return None if a is None or b is None else a == b
    try:
        return matrix_value(m, env)
    except KeyError:
        return None


def brute_force_sat(
    m: Matrix, names: tuple[str, ...], bounds: Bounds = Bounds()
) -> dict[str, Seq] | None:
    """First satisfying assignment of ``names`` in the enumeration order
    of ``iter_envs``, or None if there is none within the bounds.

    Depth first, one name at a time over the values of ``enum_seqs``;
    after each binding ``m`` is evaluated three-valued (``_kleene``). A
    false value prunes the subtree; a true one holds for every
    completion, so the first of them, each unbound name empty, is the
    answer. ``names`` must be distinct and bind every variable of ``m``."""
    if not names:
        return {} if matrix_value(m, {}) else None
    pool = tuple(enum_seqs(bounds))
    env: dict[str, Seq] = {}
    last = len(names) - 1

    def extend(d: int) -> bool:
        name = names[d]
        for s in pool:
            env[name] = s
            if d == last:
                if matrix_value(m, env):
                    return True
                continue
            v = _kleene(m, env)
            if v:
                env.update(dict.fromkeys(names[d + 1 :], ()))
                return True
            if v is None and extend(d + 1):
                return True
        env.pop(name, None)
        return False

    return {n: env[n] for n in names} if extend(0) else None

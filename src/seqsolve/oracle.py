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
  * t in R holds if R matches all of t: each regex is read as the set
    of positions where its match can end, given those where it can
    start, so R^k costs at most len(t) + 2 rounds for any count k.

Quantified formulas are decided by a bounded search over all sequences
of a finite pool of element values up to a length bound, so a True from
``formula_value`` for a universal formula means "true within the given
bounds" only. Enlarging bounds never removes candidate sequences, so a
counterexample found by ``brute_force_sat`` stays a counterexample
under any larger bounds.

``brute_force_sat`` binds the variables depth first, in the order of
``iter_envs``. After each binding it folds the matrix into a residual:
every atom it can now evaluate is replaced by its value, and the
connectives are simplified by Kleene's three-valued rules, so what is
left holds only the atoms that read a still unbound variable. A false
residual cuts the subtree; a true one completes the assignment with
empty sequences, which come first in the enumeration. Otherwise the
residual, not the whole matrix, is what the next variable's values are
folded into, so an atom is evaluated once for each assignment of the
variables up to the last one it reads, not once per environment. The
answer is the same first model, in enumeration order, as evaluating
every environment of ``iter_envs`` in turn.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import eq, ge, gt, le, lt, ne

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
    check_magnitude,
    free_vars,
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
# regular membership over integer sequences: a regex read as a relation
# between the positions of a sequence where a match starts and ends


def _ends(r: ZRegex, s: Seq, starts: frozenset[int]) -> frozenset[int]:
    """The positions j such that r matches s[i:j] for some i in starts."""
    match r:
        case ZLit(value=k):
            return frozenset(i + 1 for i in starts if i < len(s) and s[i] == k)
        case ZAny():
            return frozenset(i + 1 for i in starts if i < len(s))
        case ZSet(values=vs):
            return frozenset(i + 1 for i in starts if i < len(s) and s[i] in vs)
        case ZCat(parts=ps):
            for p in ps:
                starts = _ends(p, s, starts)
            return starts
        case ZUnion(parts=ps):
            return frozenset().union(*[_ends(p, s, starts) for p in ps])
        case ZStar(arg=a):
            reached = frontier = starts
            while frontier:
                frontier = _ends(a, s, frontier) - reached
                reached |= frontier
            return reached
        case ZPlus(arg=a):
            return _ends(ZStar(a), s, _ends(a, s, starts))
        case ZPow(arg=a, power=k):
            # at most len(s) + 2 rounds for any k: an a that matches the
            # empty sequence only adds ends, any other moves every end on,
            # and a round that changes nothing ends the loop. A count too
            # large for sat is refused here too.
            check_magnitude("repetition count", k)
            for _ in range(k):
                before, starts = starts, _ends(a, s, starts)
                if starts == before:
                    break
            return starts
    raise TypeError(f"not a regex: {r!r}")


def regex_match(r: ZRegex, s: Seq) -> bool:
    return len(s) in _ends(r, s, frozenset([0]))


# ---------------------------------------------------------------------------
# formulas

_COMPARISONS = {"==": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def _compare(op: str, a: int, b: int) -> bool:
    try:
        holds = _COMPARISONS[op]
    except KeyError:
        raise ValueError(f"unknown comparison {op!r}") from None
    return holds(a, b)


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
            return _compare(op, int_value(l, env), int_value(r, env))
        case LenCmp(arg=t, op=op, bound=k):
            return _compare(op, len(seq_value(t, env)), k)
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


def search_names(f: Formula) -> tuple[str, ...]:
    """The names a search for models of f binds: its prefix, or its
    free variables in sorted order when it has no quantifier."""
    return f.prefix if f.quantifier is not None else tuple(sorted(free_vars(f)))


def formula_value(f: Formula, bounds: Bounds = Bounds()) -> bool:
    """Evaluate a formula, deciding its quantifier prefix within the
    bounds: an existential formula holds if it has a model, a universal
    one if its negation has none. Free variables of a formula without a
    quantifier are read universally."""
    names = search_names(f)
    if f.is_universal():
        return brute_force_sat(Not(f.matrix), names, bounds) is None
    return brute_force_sat(f.matrix, names, bounds) is not None


def _negate(v: Matrix | bool) -> Matrix | bool:
    return not v if type(v) is bool else Not(v)


def brute_force_sat(
    m: Matrix, names: tuple[str, ...], bounds: Bounds = Bounds()
) -> dict[str, Seq] | None:
    """First satisfying assignment of ``names`` in the enumeration order
    of ``iter_envs``, or None if there is none within the bounds.

    Depth first, one name at a time over the values of ``enum_seqs``.
    Each binding folds the current residual of ``m`` (at first ``m``
    itself): an atom whose names are all bound becomes its value, an
    atom that reads an unbound name (``matrix_value`` raises KeyError)
    stays, and the connectives are simplified as in Kleene's logic. A
    false residual prunes the subtree; a true one holds for every
    completion, so the first of them, each unbound name empty, is the
    answer; any other is searched with the next name. Memberships are
    matched once per atom and sequence in a call. ``names`` must be
    distinct and bind every variable of ``m``."""
    if not names:
        return {} if matrix_value(m, {}) else None
    pool = tuple(enum_seqs(bounds))
    env: dict[str, Seq] = {}
    member: dict[tuple[int, Seq], bool] = {}

    def fold(r: Matrix) -> Matrix | bool:
        kind = type(r)
        if kind is And:
            a = fold(r.left)
            if a is False:
                return False
            b = fold(r.right)
            if a is True or b is False:
                return b
            if b is True:
                return a
            return r if a is r.left and b is r.right else And(a, b)
        if kind is Or:
            a = fold(r.left)
            if a is True:
                return True
            b = fold(r.right)
            if a is False or b is True:
                return b
            if b is False:
                return a
            return r if a is r.left and b is r.right else Or(a, b)
        if kind is Imp:
            a = fold(r.left)
            if a is False:
                return True
            b = fold(r.right)
            if a is True or b is True:
                return b
            if b is False:
                return _negate(a)
            return r if a is r.left and b is r.right else Imp(a, b)
        if kind is Iff:
            a, b = fold(r.left), fold(r.right)
            if a is True:
                return b
            if a is False:
                return _negate(b)
            if b is True:
                return a
            if b is False:
                return _negate(a)
            return r if a is r.left and b is r.right else Iff(a, b)
        if kind is Not:
            a = fold(r.arg)
            return _negate(a) if a is not r.arg else r
        try:
            if kind is InRe:
                s = seq_value(r.arg, env)
                v = member.get((id(r), s))
                if v is None:
                    v = member[id(r), s] = regex_match(r.regex, s)
                return v
            return matrix_value(r, env)
        except KeyError:
            return r

    def extend(d: int, r: Matrix) -> bool:
        if d == len(names):  # r reads a name outside names: raise its KeyError
            return matrix_value(r, env)
        name = names[d]
        for s in pool:
            env[name] = s
            v = fold(r)
            if v is True:
                env.update(dict.fromkeys(names[d + 1 :], ()))
                return True
            if v is not False and extend(d + 1, v):
                return True
        del env[name]
        return False

    return {n: env[n] for n in names} if extend(0, m) else None

"""AST for the sequence-constraint language.

Two sorts of terms exist side by side: sequence terms and integer terms.
A sequence term used in an integer position denotes its first element
(0 for the empty sequence); an integer term used in a sequence position
denotes the singleton sequence holding that value.  The coercion nodes
``SInt`` and ``IOfSeq`` make these switches explicit in the tree.
The connectives (``Not``, ``And``, ``Or``, ``BoolLit``) also carry the
encoder's word formulas, over its atoms ``encode.WEq`` and ``encode.WIn``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Union


@dataclass(frozen=True)
class Span:
    """Source location: 1-based line/column, end exclusive."""

    line: int
    col: int
    end_line: int
    end_col: int

    def covers(self, other: "Span") -> bool:
        return (self.line, self.col) <= (other.line, other.col) and (
            other.end_line,
            other.end_col,
        ) <= (self.end_line, self.end_col)


def _loc_field():
    return field(default=None, compare=False, repr=False)


class LiteralTooLarge(ValueError):
    pass


# Magnitudes are spelled in unary, so the encoding of a literal is as
# long as its value and the work on it grows at least as fast: a formula
# with a literal of 10^5 already runs for more than 30 s. Past this
# bound a literal is refused rather than left to exhaust time or memory
# (above sys.maxsize its spelling cannot be built at all). A repetition
# count, which lengths and slices elaborate to, is a magnitude too: its
# automaton is a chain of that many copies.
MAX_MAGNITUDE = 10**6


def check_magnitude(what: str, k: int) -> None:
    if abs(k) > MAX_MAGNITUDE:
        raise LiteralTooLarge(
            f"{what} {k} is too large to encode"
            f" (magnitudes are unary, at most {MAX_MAGNITUDE})"
        )


# ---------------------------------------------------------------------------
# Regular expressions over integers.
#
# Atoms are single integers (ZLit), any integer (ZAny) or a finite choice
# (ZSet).  ZCat(()) is the empty-word regex.


@dataclass(frozen=True)
class ZLit:
    value: int
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class ZAny:
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class ZSet:
    values: tuple[int, ...]
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class ZCat:
    parts: tuple["ZRegex", ...]
    loc: Span | None = _loc_field()

    def __post_init__(self):
        flat: list[ZRegex] = []
        for p in self.parts:
            if isinstance(p, ZCat):
                flat.extend(p.parts)
            else:
                flat.append(p)
        object.__setattr__(self, "parts", tuple(flat))


@dataclass(frozen=True)
class ZUnion:
    parts: tuple["ZRegex", ...]
    loc: Span | None = _loc_field()

    def __post_init__(self):
        flat: list[ZRegex] = []
        for p in self.parts:
            if isinstance(p, ZUnion):
                flat.extend(p.parts)
            else:
                flat.append(p)
        object.__setattr__(self, "parts", tuple(flat))


@dataclass(frozen=True)
class ZStar:
    arg: "ZRegex"
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class ZPlus:
    arg: "ZRegex"
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class ZPow:
    arg: "ZRegex"
    power: int
    loc: Span | None = _loc_field()


ZRegex = Union[ZLit, ZAny, ZSet, ZCat, ZUnion, ZStar, ZPlus, ZPow]


# ---------------------------------------------------------------------------
# Sequence terms.


@dataclass(frozen=True)
class SVar:
    name: str
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class SEmpty:
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class SInt:
    """An integer term used where a sequence is expected (singleton)."""

    value: "IntTerm"
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class SConcat:
    left: "SeqTerm"
    right: "SeqTerm"
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class SSub:
    """Subsequence selection t[lo:hi] with literal integer indices.

    Indices are 1-based; non-positive indices count from the end of the
    sequence (0 is the last element).  Out-of-range windows select the
    empty sequence.
    """

    arg: "SeqTerm"
    lo: int
    hi: int
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class SRev:
    arg: "SeqTerm"
    loc: Span | None = _loc_field()


SeqTerm = Union[SVar, SEmpty, SInt, SConcat, SSub, SRev]


# ---------------------------------------------------------------------------
# Integer terms.


@dataclass(frozen=True)
class IConst:
    value: int
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class IOfSeq:
    """A sequence term used where an integer is expected (first element)."""

    arg: SeqTerm
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class IAdd:
    left: "IntTerm"
    right: "IntTerm"
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class ISub:
    left: "IntTerm"
    right: "IntTerm"
    loc: Span | None = _loc_field()


IntTerm = Union[IConst, IOfSeq, IAdd, ISub]


# ---------------------------------------------------------------------------
# Atoms and boolean structure.

INT_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class SeqEq:
    left: SeqTerm
    right: SeqTerm
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class InRe:
    arg: SeqTerm
    regex: ZRegex
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class IntCmp:
    op: str  # one of INT_OPS
    left: IntTerm
    right: IntTerm
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class LenCmp:
    arg: SeqTerm
    op: str  # one of INT_OPS
    bound: int  # non-negative literal
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Sorted:
    """Adjacent elements of the argument are nondecreasing. Only
    program annotations produce it; the VC generator expands or drops
    it before a condition reaches the solver."""

    arg: SeqTerm
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class BoolLit:
    value: bool
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Not:
    arg: "Matrix"
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class And:
    left: "Matrix"
    right: "Matrix"
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Or:
    left: "Matrix"
    right: "Matrix"
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Imp:
    left: "Matrix"
    right: "Matrix"
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Iff:
    left: "Matrix"
    right: "Matrix"
    loc: Span | None = _loc_field()


Atom = Union[SeqEq, InRe, IntCmp, LenCmp, Sorted, BoolLit]
Matrix = Union[Atom, Not, And, Or, Imp, Iff]

FORALL = "forall"
EXISTS = "exists"


@dataclass(frozen=True)
class Formula:
    """A prenex formula: a (possibly empty) one-quantifier prefix + matrix."""

    quantifier: str | None  # FORALL, EXISTS or None when the prefix is empty
    prefix: tuple[str, ...]  # quantified variable names, left to right
    matrix: Matrix
    loc: Span | None = _loc_field()

    def is_universal(self) -> bool:
        return self.quantifier in (None, FORALL)


def qf(matrix: Matrix) -> Formula:
    """Wrap a matrix as a quantifier-free formula."""
    return Formula(None, (), matrix)


# ---------------------------------------------------------------------------
# Traversal helpers.
#
# The iterators read a tree; the maps rebuild one. map_atoms rebuilds
# the Boolean skeleton of a matrix and hands each atom to a function.
# map_terms rewrites a sequence or integer term top-down, crossing the
# coercions, and map_atom_terms applies it to every term of an atom. A
# pass that only changes atoms is an atom function over these maps and
# writes no recursion of its own. Rebuilt nodes carry no source location.
# The elaborator runs atoms, map_atoms, map_terms and fold_consts over
# every node several times per formula, so they dispatch on exact node
# types where a match statement would try its cases one by one.

_CONNECTIVES = frozenset((Not, And, Or, Imp, Iff))


def seq_subterms(t: SeqTerm) -> Iterator[SeqTerm]:
    """Yield t and every sequence subterm, pre-order (crosses coercions)."""
    yield t
    match t:
        case SConcat(a, b):
            yield from seq_subterms(a)
            yield from seq_subterms(b)
        case SSub(a, _, _) | SRev(a):
            yield from seq_subterms(a)
        case SInt(i):
            yield from _seq_in_int(i)
        case _:
            pass


def _seq_in_int(i: IntTerm) -> Iterator[SeqTerm]:
    match i:
        case IOfSeq(s):
            yield from seq_subterms(s)
        case IAdd(a, b) | ISub(a, b):
            yield from _seq_in_int(a)
            yield from _seq_in_int(b)
        case _:
            pass


def atoms(m: Matrix) -> Iterator[Atom]:
    """Yield every atom of a matrix, left to right."""
    todo = [m]
    while todo:
        m = todo.pop()
        kind = type(m)
        if kind is Not:
            todo.append(m.arg)
        elif kind in _CONNECTIVES:
            todo += (m.right, m.left)
        else:
            yield m


def atom_seq_terms(a: Atom) -> Iterator[SeqTerm]:
    match a:
        case SeqEq(l, r):
            yield from seq_subterms(l)
            yield from seq_subterms(r)
        case InRe(t, _):
            yield from seq_subterms(t)
        case LenCmp(t, _, _) | Sorted(t):
            yield from seq_subterms(t)
        case IntCmp(_, l, r):
            yield from _seq_in_int(l)
            yield from _seq_in_int(r)
        case BoolLit(_):
            return


def matrix_vars(m: Matrix) -> set[str]:
    """All sequence variable names occurring in a matrix."""
    out: set[str] = set()
    for a in atoms(m):
        for t in atom_seq_terms(a):
            if isinstance(t, SVar):
                out.add(t.name)
    return out


def free_vars(f: Formula) -> set[str]:
    """Variables of the matrix not bound by the prefix."""
    return matrix_vars(f.matrix) - set(f.prefix)


def map_atoms(m: Matrix, f: Callable[[Atom], Matrix]) -> Matrix:
    """Rebuild the connectives of m, replacing each atom a by f(a);
    atoms are visited left to right."""
    kind = type(m)
    if kind not in _CONNECTIVES:
        return f(m)
    if kind is Not:
        return Not(map_atoms(m.arg, f))
    return kind(map_atoms(m.left, f), map_atoms(m.right, f))


Term = Union[SeqTerm, IntTerm]


def map_terms(t: Term, f: Callable[[Term], Term | None]) -> Term:
    """Rewrite a term top-down: where f(t) is not None it replaces t,
    otherwise t is rebuilt around its rewritten children, left to
    right. Crosses the SInt/IOfSeq coercions; f decides whether a
    replacement itself is rewritten further."""
    out = f(t)
    if out is not None:
        return out
    kind = type(t)
    if kind is SConcat or kind is IAdd or kind is ISub:
        return kind(map_terms(t.left, f), map_terms(t.right, f))
    if kind is SInt:
        return SInt(map_terms(t.value, f))
    if kind is IOfSeq or kind is SRev:
        return kind(map_terms(t.arg, f))
    if kind is SSub:
        return SSub(map_terms(t.arg, f), t.lo, t.hi)
    return t


def map_atom_terms(a: Atom, f: Callable[[Term], Term | None]) -> Atom:
    """Apply map_terms with f to every term of an atom, left to right."""
    match a:
        case SeqEq(l, r):
            return SeqEq(map_terms(l, f), map_terms(r, f))
        case IntCmp(op, l, r):
            return IntCmp(op, map_terms(l, f), map_terms(r, f))
        case InRe(t, rx):
            return InRe(map_terms(t, f), rx)
        case LenCmp(t, op, k):
            return LenCmp(map_terms(t, f), op, k)
        case Sorted(t):
            return Sorted(map_terms(t, f))
    return a


def _chain(kind, parts: list, unit: bool):
    """parts joined by the connective kind, nested to the right; the
    constant unit when there are none."""
    if not parts:
        return BoolLit(unit)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = kind(p, out)
    return out


def conj(parts: list[Matrix]) -> Matrix:
    """Right-nested conjunction of a list (True when empty)."""
    return _chain(And, parts, True)


def disj(parts: list[Matrix]) -> Matrix:
    """Right-nested disjunction of a list (False when empty)."""
    return _chain(Or, parts, False)


def fold_consts(m: Matrix) -> Matrix:
    """Collapse the Boolean constants of a matrix bottom-up. A constant
    operand of !, & or | decides its connective or drops out of it;
    => and <=> fold only where that needs no new negation, so a false
    conclusion or a false side of <=> stays."""
    kind = type(m)
    if kind not in _CONNECTIVES:
        return m
    if kind is Not:
        a = fold_consts(m.arg)
        return BoolLit(not a.value) if type(a) is BoolLit else Not(a)
    l, r = fold_consts(m.left), fold_consts(m.right)
    lv = l.value if type(l) is BoolLit else None
    rv = r.value if type(r) is BoolLit else None
    if kind is And:
        if lv is False or rv is False:
            return BoolLit(False)
        if lv is True:
            return r
        if rv is True:
            return l
    elif kind is Or:
        if lv is True or rv is True:
            return BoolLit(True)
        if lv is False:
            return r
        if rv is False:
            return l
    elif kind is Imp:
        if lv is False or rv is True:
            return BoolLit(True)
        if lv is True:
            return r
    else:  # Iff
        if lv is True:
            return r
        if rv is True:
            return l
    return kind(l, r)

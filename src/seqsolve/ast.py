"""AST for the sequence-constraint language.

Two sorts of terms exist side by side: sequence terms and integer terms.
A sequence term used in an integer position denotes its first element
(0 for the empty sequence); an integer term used in a sequence position
denotes the singleton sequence holding that value.  The coercion nodes
``SInt`` and ``IOfSeq`` make these switches explicit in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union


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

Z_EPSILON = ZCat(())


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
class IZero:
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class IOne:
    loc: Span | None = _loc_field()


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


IntTerm = Union[IZero, IOne, IConst, IOfSeq, IAdd, ISub]


# ---------------------------------------------------------------------------
# Atoms and boolean structure.

INT_OPS = ("==", "!=", "<", "<=", ">", ">=")
CORE_INT_OPS = ("==", "<")


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
    match m:
        case Not(a):
            yield from atoms(a)
        case And(a, b) | Or(a, b) | Imp(a, b) | Iff(a, b):
            yield from atoms(a)
            yield from atoms(b)
        case _:
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


# ---------------------------------------------------------------------------
# Structural substitution (used by the VC generator).


def subst_in_seq(t: SeqTerm, env: dict[str, SeqTerm]) -> SeqTerm:
    match t:
        case SVar(name):
            return env.get(name, t)
        case SEmpty():
            return t
        case SInt(i):
            return SInt(subst_in_int(i, env))
        case SConcat(a, b):
            return SConcat(subst_in_seq(a, env), subst_in_seq(b, env))
        case SSub(a, lo, hi):
            return SSub(subst_in_seq(a, env), lo, hi)
        case SRev(a):
            return SRev(subst_in_seq(a, env))
    raise TypeError(f"not a sequence term: {t!r}")


def subst_in_int(i: IntTerm, env: dict[str, SeqTerm]) -> IntTerm:
    match i:
        case IZero() | IOne() | IConst(_):
            return i
        case IOfSeq(s):
            return IOfSeq(subst_in_seq(s, env))
        case IAdd(a, b):
            return IAdd(subst_in_int(a, env), subst_in_int(b, env))
        case ISub(a, b):
            return ISub(subst_in_int(a, env), subst_in_int(b, env))
    raise TypeError(f"not an integer term: {i!r}")


def subst_in_matrix(m: Matrix, env: dict[str, SeqTerm]) -> Matrix:
    match m:
        case SeqEq(l, r):
            return SeqEq(subst_in_seq(l, env), subst_in_seq(r, env))
        case InRe(t, rx):
            return InRe(subst_in_seq(t, env), rx)
        case IntCmp(op, l, r):
            return IntCmp(op, subst_in_int(l, env), subst_in_int(r, env))
        case LenCmp(t, op, k):
            return LenCmp(subst_in_seq(t, env), op, k)
        case Sorted(t):
            return Sorted(subst_in_seq(t, env))
        case BoolLit(_):
            return m
        case Not(a):
            return Not(subst_in_matrix(a, env))
        case And(a, b):
            return And(subst_in_matrix(a, env), subst_in_matrix(b, env))
        case Or(a, b):
            return Or(subst_in_matrix(a, env), subst_in_matrix(b, env))
        case Imp(a, b):
            return Imp(subst_in_matrix(a, env), subst_in_matrix(b, env))
        case Iff(a, b):
            return Iff(subst_in_matrix(a, env), subst_in_matrix(b, env))
    raise TypeError(f"not a matrix node: {m!r}")


def conj(parts: list[Matrix]) -> Matrix:
    """Right-nested conjunction of a non-empty list (True when empty)."""
    if not parts:
        return BoolLit(True)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


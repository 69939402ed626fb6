"""Rewriting of parsed formulas into the core constraint language.

The core language the encoder accepts:

  sequence terms   variables, eps, integer singletons, concatenations
  atoms            t = t' between core sequence terms,
                   x in E for a variable x,
                   and integer atoms over first elements of variables:
                   x == 0, x == 1, x == y, x < y, x == y + z

Everything else is rewritten away here: reversal, subranges, length
bounds, derived comparisons, integer constants and nested arithmetic.
Rewrites that need a name for an intermediate value introduce fresh
'$'-variables together with guard constraints that pin them down; for
every assignment to the original variables the guards are satisfiable
and force the fresh variables to carry the intended values, so gluing
them on with "and" (existential reading) or "implies" (universal
reading) preserves meaning in either direction.

Reversal has no core form. It is removed in two stages. First rev is
pushed inward:

    rev(rev(t)) -> t                rev(eps) -> eps
    rev(t ++ u) -> rev(u) ++ rev(t)
    rev(t[k1:k2]) -> rev(t)[1-k2:1-k1]

(the index flip mirrors a subrange through reversal; one-element
subranges, singletons, first elements and lengths are invariant and
shed the rev directly). After pushing, rev sits on variables only.
A variable x that still occurs under rev is then renamed through the
bijection x' = rev(x): occurrences of rev(x) become x', and the other
occurrences of x are rewritten when their context is insensitive to
the renaming (memberships reverse the regex, length bounds carry over,
equations with eps or a singleton carry over, one-element subranges
flip their index, first elements become last elements). If some
occurrence cannot be carried over, the formula is outside the
supported fragment and ElaborationError is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    And,
    Atom,
    BoolLit,
    EXISTS,
    FORALL,
    Formula,
    IAdd,
    IConst,
    IOfSeq,
    IOne,
    ISub,
    IZero,
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
    conj,
)


class ElaborationError(ValueError):
    pass


@dataclass
class Elaboration:
    """Result of rewriting a formula into core form.

    ``formula`` carries the guards already glued onto the matrix and
    the fresh variables appended to the prefix. ``reading`` records
    which quantifier reading was used for a prefix-free input.
    ``rev_map`` maps each reversal-abstracted original variable to the
    fresh variable that denotes its reversal; a model value for the
    original variable is the reversal of the fresh one's value.
    """

    formula: Formula
    reading: str
    core_matrix: Matrix
    guards: tuple[Matrix, ...]
    fresh_vars: tuple[str, ...]
    rev_map: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# regex helpers over integer alphabets


def z_exact(n: int) -> ZRegex:
    """Language of sequences of length exactly n."""
    return ZPow(ZAny(), n)


def z_at_least(n: int) -> ZRegex:
    """Language of sequences of length at least n."""
    if n <= 0:
        return ZStar(ZAny())
    return ZCat((ZPow(ZAny(), n), ZStar(ZAny())))


def z_at_most(n: int) -> ZRegex:
    """Language of sequences of length at most n (empty language if n < 0)."""
    if n < 0:
        return ZUnion(())
    if n == 0:
        return ZPow(ZAny(), 0)
    return ZUnion(tuple(ZPow(ZAny(), i) for i in range(n + 1)))


def rev_regex(r: ZRegex) -> ZRegex:
    """The reversal of a regular language, as a regex."""
    match r:
        case ZLit() | ZAny() | ZSet():
            return r
        case ZCat(parts=ps):
            return ZCat(tuple(rev_regex(p) for p in reversed(ps)))
        case ZUnion(parts=ps):
            return ZUnion(tuple(rev_regex(p) for p in ps))
        case ZStar(arg=a):
            return ZStar(rev_regex(a))
        case ZPlus(arg=a):
            return ZPlus(rev_regex(a))
        case ZPow(arg=a, power=k):
            return ZPow(rev_regex(a), k)
    raise TypeError(f"not a regex: {r!r}")


# ---------------------------------------------------------------------------
# stage 1: push reversal inward


def _rev_of(t: SeqTerm) -> SeqTerm:
    # t has already been pushed; build the reversal of t.
    match t:
        case SEmpty() | SInt():
            return t
        case SVar():
            return SRev(t)
        case SRev(arg=a):
            return a
        case SConcat(left=l, right=r):
            return SConcat(_rev_of(r), _rev_of(l))
        case SSub(arg=a, lo=k1, hi=k2):
            if k1 == k2:
                return t  # at most one element, its own reversal
            return SSub(_rev_of(a), 1 - k2, 1 - k1)
    raise TypeError(f"not a sequence term: {t!r}")


def _push_rev_seq(t: SeqTerm) -> SeqTerm:
    match t:
        case SVar() | SEmpty():
            return t
        case SInt(value=i):
            return SInt(_push_rev_int(i))
        case SConcat(left=l, right=r):
            return SConcat(_push_rev_seq(l), _push_rev_seq(r))
        case SSub(arg=a, lo=k1, hi=k2):
            return SSub(_push_rev_seq(a), k1, k2)
        case SRev(arg=a):
            return _rev_of(_push_rev_seq(a))
    raise TypeError(f"not a sequence term: {t!r}")


def _push_rev_int(i: IntTerm) -> IntTerm:
    match i:
        case IZero() | IOne() | IConst():
            return i
        case IOfSeq(arg=t):
            t = _push_rev_seq(t)
            if isinstance(t, SRev):
                # first element of a reversal is the last element
                return IOfSeq(SSub(t.arg, 0, 0))
            return IOfSeq(t)
        case IAdd(left=l, right=r):
            return IAdd(_push_rev_int(l), _push_rev_int(r))
        case ISub(left=l, right=r):
            return ISub(_push_rev_int(l), _push_rev_int(r))
    raise TypeError(f"not an integer term: {i!r}")


def _is_short(t: SeqTerm) -> bool:
    # terms of length at most one, invariant under reversal
    return isinstance(t, (SEmpty, SInt))


def _push_rev_matrix(m: Matrix) -> Matrix:
    match m:
        case BoolLit():
            return m
        case Not(arg=a):
            return Not(_push_rev_matrix(a))
        case And(left=l, right=r):
            return And(_push_rev_matrix(l), _push_rev_matrix(r))
        case Or(left=l, right=r):
            return Or(_push_rev_matrix(l), _push_rev_matrix(r))
        case Imp(left=l, right=r):
            return Imp(_push_rev_matrix(l), _push_rev_matrix(r))
        case Iff(left=l, right=r):
            return Iff(_push_rev_matrix(l), _push_rev_matrix(r))
        case SeqEq(left=l, right=r):
            l, r = _push_rev_seq(l), _push_rev_seq(r)
            # rev(t) = rev(u) iff t = u; rev(t) = short iff t = short
            if isinstance(l, SRev) and isinstance(r, SRev):
                return SeqEq(l.arg, r.arg)
            if isinstance(l, SRev) and _is_short(r):
                return SeqEq(l.arg, r)
            if isinstance(r, SRev) and _is_short(l):
                return SeqEq(l, r.arg)
            return SeqEq(l, r)
        case InRe(arg=t, regex=rx):
            t = _push_rev_seq(t)
            if isinstance(t, SRev):
                return InRe(t.arg, rev_regex(rx))
            return InRe(t, rx)
        case LenCmp(arg=t, op=op, bound=k):
            t = _push_rev_seq(t)
            if isinstance(t, SRev):
                t = t.arg  # reversal preserves length
            return LenCmp(t, op, k)
        case IntCmp(op=op, left=l, right=r):
            return IntCmp(op, _push_rev_int(l), _push_rev_int(r))
    raise TypeError(f"not a matrix node: {m!r}")


# ---------------------------------------------------------------------------
# stage 2: abstract reversed variables through the bijection


def _marked_vars(m: Matrix) -> set[str]:
    found: set[str] = set()

    def seq(t: SeqTerm):
        match t:
            case SRev(arg=SVar(name=n)):
                found.add(n)
            case SRev(arg=a):
                seq(a)
            case SConcat(left=l, right=r):
                seq(l)
                seq(r)
            case SSub(arg=a):
                seq(a)
            case SInt(value=i):
                intt(i)
            case _:
                pass

    def intt(i: IntTerm):
        match i:
            case IOfSeq(arg=t):
                seq(t)
            case IAdd(left=l, right=r) | ISub(left=l, right=r):
                intt(l)
                intt(r)
            case _:
                pass

    def mat(m: Matrix):
        match m:
            case BoolLit():
                pass
            case Not(arg=a):
                mat(a)
            case And(left=l, right=r) | Or(left=l, right=r) | Imp(left=l, right=r) | Iff(left=l, right=r):
                mat(l)
                mat(r)
            case SeqEq(left=l, right=r):
                seq(l)
                seq(r)
            case InRe(arg=t):
                seq(t)
            case LenCmp(arg=t):
                seq(t)
            case IntCmp(left=l, right=r):
                intt(l)
                intt(r)

    mat(m)
    return found


class _RevTransfer:
    def __init__(self, marked: set[str]):
        self.marked = marked
        self.map = {x: f"$rev_{x}" for x in sorted(marked)}

    def fail(self, name: str):
        raise ElaborationError(
            f"variable {name!r} occurs under rev() and also in a position "
            "the reversal rules cannot rewrite; this is outside the "
            "supported fragment"
        )

    def seq(self, t: SeqTerm) -> SeqTerm:
        match t:
            case SVar(name=n):
                if n in self.marked:
                    self.fail(n)
                return t
            case SEmpty():
                return t
            case SInt(value=i):
                return SInt(self.intt(i))
            case SConcat(left=l, right=r):
                return SConcat(self.seq(l), self.seq(r))
            case SSub(arg=SVar(name=n), lo=k1, hi=k2) if n in self.marked:
                if k1 != k2:
                    self.fail(n)
                return SSub(SVar(self.map[n]), 1 - k1, 1 - k1)
            case SSub(arg=a, lo=k1, hi=k2):
                return SSub(self.seq(a), k1, k2)
            case SRev(arg=SVar(name=n)):
                return SVar(self.map[n])
        raise TypeError(f"unexpected term during reversal transfer: {t!r}")

    def intt(self, i: IntTerm) -> IntTerm:
        match i:
            case IZero() | IOne() | IConst():
                return i
            case IOfSeq(arg=SVar(name=n)) if n in self.marked:
                # first element of x is the last element of rev(x)
                return IOfSeq(SSub(SVar(self.map[n]), 0, 0))
            case IOfSeq(arg=t):
                return IOfSeq(self.seq(t))
            case IAdd(left=l, right=r):
                return IAdd(self.intt(l), self.intt(r))
            case ISub(left=l, right=r):
                return ISub(self.intt(l), self.intt(r))
        raise TypeError(f"not an integer term: {i!r}")

    def mat(self, m: Matrix) -> Matrix:
        match m:
            case BoolLit():
                return m
            case Not(arg=a):
                return Not(self.mat(a))
            case And(left=l, right=r):
                return And(self.mat(l), self.mat(r))
            case Or(left=l, right=r):
                return Or(self.mat(l), self.mat(r))
            case Imp(left=l, right=r):
                return Imp(self.mat(l), self.mat(r))
            case Iff(left=l, right=r):
                return Iff(self.mat(l), self.mat(r))
            case SeqEq(left=SVar(name=n), right=r) if n in self.marked and _is_short(r):
                return SeqEq(SVar(self.map[n]), self.seq(r))
            case SeqEq(left=l, right=SVar(name=n)) if n in self.marked and _is_short(l):
                return SeqEq(self.seq(l), SVar(self.map[n]))
            case SeqEq(left=SVar(name=a), right=SVar(name=b)) if (
                a in self.marked and b in self.marked
            ):
                return SeqEq(SVar(self.map[a]), SVar(self.map[b]))
            case SeqEq(left=l, right=r):
                return SeqEq(self.seq(l), self.seq(r))
            case InRe(arg=SVar(name=n), regex=rx) if n in self.marked:
                return InRe(SVar(self.map[n]), rev_regex(rx))
            case InRe(arg=t, regex=rx):
                return InRe(self.seq(t), rx)
            case LenCmp(arg=SVar(name=n), op=op, bound=k) if n in self.marked:
                return LenCmp(SVar(self.map[n]), op, k)
            case LenCmp(arg=t, op=op, bound=k):
                return LenCmp(self.seq(t), op, k)
            case IntCmp(op=op, left=l, right=r):
                return IntCmp(op, self.intt(l), self.intt(r))
        raise TypeError(f"not a matrix node: {m!r}")


def eliminate_rev(m: Matrix) -> tuple[Matrix, dict[str, str]]:
    """Remove all rev() nodes, renaming variables through the reversal
    bijection where needed. Returns the rewritten matrix and the map
    from abstracted original variables to their reversal names."""
    m = _push_rev_matrix(m)
    marked = _marked_vars(m)
    if not marked:
        return m, {}
    tr = _RevTransfer(marked)
    return tr.mat(m), tr.map


# ---------------------------------------------------------------------------
# stage 3: expand subranges


def _static_kappa(k1: int, k2: int) -> str | None:
    """Which clause of the subrange definition can apply for literal
    indices (at most one can): "head" takes elements k1..k2 from the
    front, "tail" takes a suffix, "end" takes a window addressed from
    the end. None means the subrange is always empty."""
    if 1 <= k1 <= k2:
        return "head"
    if k2 < 1 <= k1:
        return "tail"
    if k1 <= k2 < 1:
        return "end"
    return None


def _sub_of_singleton(i: IntTerm, k1: int, k2: int) -> SeqTerm:
    # subrange of a one-element sequence, decided statically
    if (k1, k2) in ((1, 1), (1, 0), (0, 0)):
        return SInt(i)
    return SEmpty()


class _Fresh:
    def __init__(self):
        self.counts: dict[str, int] = {}
        self.names: list[str] = []

    def new(self, role: str) -> str:
        self.counts[role] = self.counts.get(role, 0) + 1
        name = f"${role}{self.counts[role]}"
        self.names.append(name)
        return name


def _fold_first(m: Matrix) -> Matrix:
    """Rewrite fst(t[1:1]) to fst(t). The two agree on every sequence:
    both pick the first element when t is nonempty and denote 0 when t
    is empty. Folding before subrange expansion avoids a pointless
    split for the common first(t) sugar in integer position."""

    def seq(t: SeqTerm) -> SeqTerm:
        match t:
            case SSub(arg=a, lo=k1, hi=k2):
                return SSub(seq(a), k1, k2)
            case SConcat(left=l, right=r):
                return SConcat(seq(l), seq(r))
            case SInt(value=i):
                return SInt(intt(i))
            case SRev(arg=a):
                return SRev(seq(a))
            case _:
                return t

    def intt(i: IntTerm) -> IntTerm:
        match i:
            case IOfSeq(arg=t):
                t = seq(t)
                while isinstance(t, SSub) and t.lo == 1 and t.hi == 1:
                    t = t.arg
                return IOfSeq(t)
            case IAdd(left=l, right=r):
                return IAdd(intt(l), intt(r))
            case ISub(left=l, right=r):
                return ISub(intt(l), intt(r))
            case _:
                return i

    def mat(m: Matrix) -> Matrix:
        match m:
            case Not(arg=a):
                return Not(mat(a))
            case And(left=l, right=r):
                return And(mat(l), mat(r))
            case Or(left=l, right=r):
                return Or(mat(l), mat(r))
            case Imp(left=l, right=r):
                return Imp(mat(l), mat(r))
            case Iff(left=l, right=r):
                return Iff(mat(l), mat(r))
            case SeqEq(left=l, right=r):
                return SeqEq(seq(l), seq(r))
            case InRe(arg=t, regex=rx):
                return InRe(seq(t), rx)
            case LenCmp(arg=t, op=op, bound=k):
                return LenCmp(seq(t), op, k)
            case IntCmp(op=op, left=l, right=r):
                return IntCmp(op, intt(l), intt(r))
            case _:
                return m

    return mat(m)


def _collect_subs(m: Matrix) -> list[SSub]:
    """Innermost subrange nodes (argument free of subranges), deduplicated,
    in first-occurrence order."""
    out: list[SSub] = []
    seen: set[SSub] = set()

    def has_sub(t: SeqTerm) -> bool:
        match t:
            case SSub():
                return True
            case SConcat(left=l, right=r):
                return has_sub(l) or has_sub(r)
            case SInt(value=i):
                return any(has_sub(s) for s in _int_seqs(i))
            case _:
                return False

    def seq(t: SeqTerm):
        match t:
            case SSub(arg=a):
                seq(a)
                if not has_sub(a) and t not in seen:
                    seen.add(t)
                    out.append(t)
            case SConcat(left=l, right=r):
                seq(l)
                seq(r)
            case SInt(value=i):
                for s in _int_seqs(i):
                    seq(s)
            case _:
                pass

    def _int_seqs(i: IntTerm):
        match i:
            case IOfSeq(arg=t):
                yield t
            case IAdd(left=l, right=r) | ISub(left=l, right=r):
                yield from _int_seqs(l)
                yield from _int_seqs(r)
            case _:
                return

    def mat(m: Matrix):
        match m:
            case Not(arg=a):
                mat(a)
            case And(left=l, right=r) | Or(left=l, right=r) | Imp(left=l, right=r) | Iff(left=l, right=r):
                mat(l)
                mat(r)
            case SeqEq(left=l, right=r):
                seq(l)
                seq(r)
            case InRe(arg=t) | LenCmp(arg=t):
                seq(t)
            case IntCmp(left=l, right=r):
                for s in _int_seqs(l):
                    seq(s)
                for s in _int_seqs(r):
                    seq(s)
            case _:
                pass

    mat(m)
    return out


def _replace_seq(t: SeqTerm, table: dict[SeqTerm, SeqTerm]) -> SeqTerm:
    if t in table:
        return table[t]
    match t:
        case SConcat(left=l, right=r):
            return SConcat(_replace_seq(l, table), _replace_seq(r, table))
        case SSub(arg=a, lo=k1, hi=k2):
            return SSub(_replace_seq(a, table), k1, k2)
        case SInt(value=i):
            return SInt(_replace_int(i, table))
        case _:
            return t


def _replace_int(i: IntTerm, table: dict[SeqTerm, SeqTerm]) -> IntTerm:
    match i:
        case IOfSeq(arg=t):
            return IOfSeq(_replace_seq(t, table))
        case IAdd(left=l, right=r):
            return IAdd(_replace_int(l, table), _replace_int(r, table))
        case ISub(left=l, right=r):
            return ISub(_replace_int(l, table), _replace_int(r, table))
        case _:
            return i


def _replace_matrix(m: Matrix, table: dict[SeqTerm, SeqTerm]) -> Matrix:
    match m:
        case BoolLit():
            return m
        case Not(arg=a):
            return Not(_replace_matrix(a, table))
        case And(left=l, right=r):
            return And(_replace_matrix(l, table), _replace_matrix(r, table))
        case Or(left=l, right=r):
            return Or(_replace_matrix(l, table), _replace_matrix(r, table))
        case Imp(left=l, right=r):
            return Imp(_replace_matrix(l, table), _replace_matrix(r, table))
        case Iff(left=l, right=r):
            return Iff(_replace_matrix(l, table), _replace_matrix(r, table))
        case SeqEq(left=l, right=r):
            return SeqEq(_replace_seq(l, table), _replace_seq(r, table))
        case InRe(arg=t, regex=rx):
            return InRe(_replace_seq(t, table), rx)
        case LenCmp(arg=t, op=op, bound=k):
            return LenCmp(_replace_seq(t, table), op, k)
        case IntCmp(op=op, left=l, right=r):
            return IntCmp(op, _replace_int(l, table), _replace_int(r, table))
    raise TypeError(f"not a matrix node: {m!r}")


def expand_subs(m: Matrix, fresh: _Fresh) -> tuple[Matrix, list[Matrix]]:
    """Replace every subrange t[k1:k2] by a fresh variable pinned by a
    guard. The guard splits on whether the sequence is long enough:

      long enough:  x = u ++ v ++ w with the lengths of two of the
                    three parts fixed by the indices; the result is v
      too short:    the result is empty (u, v, w all pinned to eps)

    Identical subrange terms share one expansion."""
    guards: list[Matrix] = []
    while True:
        subs = _collect_subs(m)
        if not subs:
            return m, guards
        table: dict[SeqTerm, SeqTerm] = {}
        for node in subs:
            arg, k1, k2 = node.arg, node.lo, node.hi
            if isinstance(arg, SEmpty):
                table[node] = SEmpty()
                continue
            if isinstance(arg, SInt):
                table[node] = _sub_of_singleton(arg.value, k1, k2)
                continue
            kappa = _static_kappa(k1, k2)
            if kappa is None:
                table[node] = SEmpty()
                continue
            if isinstance(arg, SVar):
                subject = arg
            else:
                subject = SVar(fresh.new("g"))
                guards.append(SeqEq(subject, arg))
            u = SVar(fresh.new("u"))
            v = SVar(fresh.new("v"))
            w = SVar(fresh.new("w"))
            split = SeqEq(subject, SConcat(u, SConcat(v, w)))
            if kappa == "head":
                threshold = k2
                lengths = [InRe(u, z_exact(k1 - 1)), InRe(v, z_exact(k2 - k1 + 1))]
            elif kappa == "tail":
                threshold = k1 - k2
                lengths = [InRe(u, z_exact(k1 - 1)), InRe(w, z_exact(-k2))]
            else:  # "end"
                threshold = 1 - k1
                lengths = [InRe(v, z_exact(k2 - k1 + 1)), InRe(w, z_exact(-k2))]
            long_enough = conj([InRe(subject, z_at_least(threshold)), split] + lengths)
            too_short = conj(
                [
                    InRe(subject, z_at_most(threshold - 1)),
                    SeqEq(u, SEmpty()),
                    SeqEq(v, SEmpty()),
                    SeqEq(w, SEmpty()),
                ]
            )
            guards.append(Or(long_enough, too_short))
            table[node] = v
        m = _replace_matrix(m, table)
        guards = [_replace_matrix(g, table) for g in guards]


# ---------------------------------------------------------------------------
# stage 4: length bounds become memberships


def expand_lencmp(m: Matrix) -> Matrix:
    match m:
        case LenCmp(arg=t, op=op, bound=k):
            match op:
                case "==":
                    return InRe(t, z_exact(k))
                case "!=":
                    return Not(InRe(t, z_exact(k)))
                case "<":
                    return BoolLit(False) if k <= 0 else InRe(t, z_at_most(k - 1))
                case "<=":
                    return InRe(t, z_at_most(k))
                case ">":
                    return InRe(t, z_at_least(k + 1))
                case ">=":
                    return BoolLit(True) if k <= 0 else InRe(t, z_at_least(k))
            raise ValueError(f"unknown length comparison {op!r}")
        case Not(arg=a):
            return Not(expand_lencmp(a))
        case And(left=l, right=r):
            return And(expand_lencmp(l), expand_lencmp(r))
        case Or(left=l, right=r):
            return Or(expand_lencmp(l), expand_lencmp(r))
        case Imp(left=l, right=r):
            return Imp(expand_lencmp(l), expand_lencmp(r))
        case Iff(left=l, right=r):
            return Iff(expand_lencmp(l), expand_lencmp(r))
        case _:
            return m


# ---------------------------------------------------------------------------
# stage 5: negations move inward and vanish into comparisons

_FLIP_CMP = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", "<=": ">", ">": "<="}


def push_negations(m: Matrix, neg: bool = False) -> Matrix:
    """Drive negations down to atoms. A negated integer comparison
    flips its operator instead, so comparisons always reach the
    encoder positively; sequence equations and memberships keep their
    negations because both have direct negative encodings."""
    match m:
        case BoolLit(value=v):
            return BoolLit(v != neg)
        case Not(arg=a):
            return push_negations(a, not neg)
        case And(left=l, right=r):
            l2, r2 = push_negations(l, neg), push_negations(r, neg)
            return Or(l2, r2) if neg else And(l2, r2)
        case Or(left=l, right=r):
            l2, r2 = push_negations(l, neg), push_negations(r, neg)
            return And(l2, r2) if neg else Or(l2, r2)
        case Imp(left=l, right=r):
            if neg:
                return And(push_negations(l, False), push_negations(r, True))
            return Or(push_negations(l, True), push_negations(r, False))
        case Iff(left=l, right=r):
            if neg:
                return Or(
                    And(push_negations(l, False), push_negations(r, True)),
                    And(push_negations(l, True), push_negations(r, False)),
                )
            return And(
                Or(push_negations(l, True), push_negations(r, False)),
                Or(push_negations(r, True), push_negations(l, False)),
            )
        case IntCmp(op=op, left=l, right=r):
            return IntCmp(_FLIP_CMP[op] if neg else op, l, r)
        case SeqEq() | InRe():
            return Not(m) if neg else m
    raise TypeError(f"unexpected node in negation pass: {m!r}")


# ---------------------------------------------------------------------------
# stage 6: integer arithmetic and remaining compound atoms


class _AtomLowering:
    """Flattens integer terms to first-elements of variables and
    normalizes membership arguments to variables, accumulating guards.

    A normalized integer term is either a known constant or the first
    element of a variable. Sums and differences that cannot be folded
    get a fresh variable whose first element is pinned by a core sum
    atom; constants in variable positions get a shared one-element
    witness variable pinned by a membership."""

    def __init__(self, fresh: _Fresh):
        self.fresh = fresh
        self.guards: list[Matrix] = []
        self.int_cache: dict[IntTerm, tuple] = {}
        self.alias_cache: dict[SeqTerm, SVar] = {}
        self.const_cache: dict[int, SVar] = {}

    # sequence terms: flatten SInt contents, alias any non-variable
    # membership argument

    def seq(self, t: SeqTerm) -> SeqTerm:
        match t:
            case SVar() | SEmpty():
                return t
            case SConcat(left=l, right=r):
                return SConcat(self.seq(l), self.seq(r))
            case SInt(value=i):
                ni = self.intt(i)
                if ni[0] == "const":
                    return SInt(IConst(ni[1]))
                return SInt(IOfSeq(SVar(ni[1])))
        raise ElaborationError(f"unexpected term after earlier stages: {t!r}")

    def alias(self, t: SeqTerm) -> SVar:
        t = self.seq(t)
        if isinstance(t, SVar):
            return t
        if t in self.alias_cache:
            return self.alias_cache[t]
        g = SVar(self.fresh.new("g"))
        self.guards.append(SeqEq(g, t))
        self.alias_cache[t] = g
        return g

    # integer terms

    def intt(self, i: IntTerm) -> tuple:
        if i in self.int_cache:
            return self.int_cache[i]
        out = self._intt(i)
        self.int_cache[i] = out
        return out

    def _intt(self, i: IntTerm) -> tuple:
        match i:
            case IZero():
                return ("const", 0)
            case IOne():
                return ("const", 1)
            case IConst(value=k):
                return ("const", k)
            case IOfSeq(arg=SVar(name=n)):
                return ("fst", n)
            case IOfSeq(arg=SEmpty()):
                return ("const", 0)
            case IOfSeq(arg=SInt(value=j)):
                return self.intt(j)
            case IOfSeq(arg=t):
                return ("fst", self.alias(t).name)
            case IAdd(left=l, right=r):
                nl, nr = self.intt(l), self.intt(r)
                if nl[0] == "const" and nr[0] == "const":
                    return ("const", nl[1] + nr[1])
                s = SVar(self.fresh.new("s"))
                self.guards.append(
                    IntCmp("==", IOfSeq(s), IAdd(self.as_fst(nl), self.as_fst(nr)))
                )
                return ("fst", s.name)
            case ISub(left=l, right=r):
                nl, nr = self.intt(l), self.intt(r)
                if nl[0] == "const" and nr[0] == "const":
                    return ("const", nl[1] - nr[1])
                d = SVar(self.fresh.new("d"))
                self.guards.append(
                    IntCmp("==", self.as_fst(nl), IAdd(IOfSeq(d), self.as_fst(nr)))
                )
                return ("fst", d.name)
        raise TypeError(f"not an integer term: {i!r}")

    def const_var(self, k: int) -> SVar:
        if k in self.const_cache:
            return self.const_cache[k]
        name = f"$c{k}" if k >= 0 else f"$cn{-k}"
        self.fresh.names.append(name)
        v = SVar(name)
        self.guards.append(InRe(v, ZLit(k)))
        self.const_cache[k] = v
        return v

    def as_fst(self, n: tuple) -> IOfSeq:
        if n[0] == "const":
            return IOfSeq(self.const_var(n[1]))
        return IOfSeq(SVar(n[1]))

    # atoms

    def int_atom(self, op: str, l: IntTerm, r: IntTerm) -> Matrix:
        match op:
            case "==" | "<":
                pass
            case "!=":
                return Or(self.int_atom("<", l, r), self.int_atom("<", r, l))
            case "<=":
                return Or(self.int_atom("<", l, r), self.int_atom("==", l, r))
            case ">=":
                return Or(self.int_atom("<", r, l), self.int_atom("==", l, r))
            case ">":
                return self.int_atom("<", r, l)
            case _:
                raise ValueError(f"unknown comparison {op!r}")
        if op == "==":
            # orient sums and differences into the core shape k == i + j
            if isinstance(l, (IAdd, ISub)) and not isinstance(r, (IAdd, ISub)):
                l, r = r, l
            if isinstance(r, IAdd):
                n1, n2 = self.intt(r.left), self.intt(r.right)
                if n1[0] == n2[0] == "const":
                    r = IConst(n1[1] + n2[1])
                else:
                    nl = self.intt(l)
                    return IntCmp(
                        "==", self.as_fst(nl), IAdd(self.as_fst(n1), self.as_fst(n2))
                    )
            elif isinstance(r, ISub):
                # l == a - b is a == l + b
                na, nb = self.intt(r.left), self.intt(r.right)
                if na[0] == nb[0] == "const":
                    r = IConst(na[1] - nb[1])
                else:
                    nl = self.intt(l)
                    return IntCmp(
                        "==", self.as_fst(na), IAdd(self.as_fst(nl), self.as_fst(nb))
                    )
        nl, nr = self.intt(l), self.intt(r)
        if nl[0] == "const" and nr[0] == "const":
            return BoolLit(nl[1] == nr[1] if op == "==" else nl[1] < nr[1])
        if op == "==":
            if nr[0] == "const" and nr[1] in (0, 1) and nl[0] == "fst":
                rhs = IZero() if nr[1] == 0 else IOne()
                return IntCmp("==", IOfSeq(SVar(nl[1])), rhs)
            if nl[0] == "const" and nl[1] in (0, 1) and nr[0] == "fst":
                rhs = IZero() if nl[1] == 0 else IOne()
                return IntCmp("==", IOfSeq(SVar(nr[1])), rhs)
        return IntCmp(op, self.as_fst(nl), self.as_fst(nr))

    def mat(self, m: Matrix) -> Matrix:
        match m:
            case BoolLit():
                return m
            case Not(arg=a):
                return Not(self.mat(a))
            case And(left=l, right=r):
                return And(self.mat(l), self.mat(r))
            case Or(left=l, right=r):
                return Or(self.mat(l), self.mat(r))
            case Imp(left=l, right=r):
                return Imp(self.mat(l), self.mat(r))
            case Iff(left=l, right=r):
                return Iff(self.mat(l), self.mat(r))
            case SeqEq(left=l, right=r):
                return SeqEq(self.seq(l), self.seq(r))
            case InRe(arg=t, regex=rx):
                return InRe(self.alias(t), rx)
            case IntCmp(op=op, left=l, right=r):
                return self.int_atom(op, l, r)
        raise TypeError(f"unexpected node after earlier stages: {m!r}")


# ---------------------------------------------------------------------------
# core form check


def _core_seq(t: SeqTerm) -> bool:
    match t:
        case SVar() | SEmpty():
            return True
        case SInt(value=IConst()) | SInt(value=IOfSeq(arg=SVar())):
            return True
        case SConcat(left=l, right=r):
            return _core_seq(l) and _core_seq(r)
        case _:
            return False


def _core_atom(a: Atom) -> bool:
    match a:
        case BoolLit():
            return True
        case SeqEq(left=l, right=r):
            return _core_seq(l) and _core_seq(r)
        case InRe(arg=SVar()):
            return True
        case IntCmp(op="==", left=IOfSeq(arg=SVar()), right=IZero() | IOne()):
            return True
        case IntCmp(op="==" | "<", left=IOfSeq(arg=SVar()), right=IOfSeq(arg=SVar())):
            return True
        case IntCmp(
            op="==",
            left=IOfSeq(arg=SVar()),
            right=IAdd(left=IOfSeq(arg=SVar()), right=IOfSeq(arg=SVar())),
        ):
            return True
        case _:
            return False


def validate_core(m: Matrix) -> None:
    """Raise ElaborationError if the matrix is not in core form."""
    match m:
        case Not(arg=a):
            validate_core(a)
        case And(left=l, right=r) | Or(left=l, right=r) | Imp(left=l, right=r) | Iff(left=l, right=r):
            validate_core(l)
            validate_core(r)
        case _:
            if not _core_atom(m):
                raise ElaborationError(f"not in core form: {m!r}")


# ---------------------------------------------------------------------------
# driver


def elaborate(f: Formula, default_reading: str = EXISTS) -> Elaboration:
    """Rewrite a formula into core form.

    Guards for the fresh variables are conjoined under an existential
    reading and turned into hypotheses under a universal one; both
    preserve the meaning of the original formula because every guard is
    satisfiable for every assignment to the original variables and pins
    the fresh values the rewritten matrix depends on.
    """
    reading = f.quantifier if f.quantifier is not None else default_reading
    if reading not in (FORALL, EXISTS):
        raise ValueError(f"unknown reading {reading!r}")

    matrix, rev_map = eliminate_rev(f.matrix)
    prefix = tuple(rev_map.get(x, x) for x in f.prefix)
    matrix = _fold_first(matrix)

    fresh = _Fresh()
    matrix, sub_guards = expand_subs(matrix, fresh)
    work = [expand_lencmp(g) for g in sub_guards]
    matrix = expand_lencmp(matrix)
    matrix = push_negations(matrix)
    work = [push_negations(g) for g in work]

    lower = _AtomLowering(fresh)
    matrix = lower.mat(matrix)
    work = [lower.mat(g) for g in work]
    guards = tuple(work + lower.guards)

    for g in guards:
        validate_core(g)
    validate_core(matrix)

    if guards:
        g = conj(list(guards))
        combined = Imp(g, matrix) if reading == FORALL else And(g, matrix)
    else:
        combined = matrix

    if f.quantifier is None:
        out = Formula(None, (), combined)
    else:
        out = Formula(reading, prefix + tuple(fresh.names), combined)

    return Elaboration(
        formula=out,
        reading=reading,
        core_matrix=matrix,
        guards=guards,
        fresh_vars=tuple(fresh.names),
        rev_map=rev_map,
    )

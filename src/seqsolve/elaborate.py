"""Rewriting of parsed formulas into the core constraint language.

The core language the encoder accepts, as encode._Translator defines
and checks it (a non-core node raises ElaborationError there):

  sequence terms   variables, eps, integer singletons, concatenations
  atoms            t = t' between core sequence terms,
                   x in E for a variable x,
                   and integer atoms over first elements of variables:
                   x == 0, x == 1, x == y, x < y, x == y + z

Everything else is rewritten away here: reversal, subranges, length
bounds, derived comparisons, integer constants and nested arithmetic.
Each integer comparison is lowered from its linear form over first
elements, so equivalent spellings give the same atoms. Atoms that are
constant fold away: a comparison whose linear form has no terms, and
an equation between sides built from eps and integer literals, become
true or false, and the constants then propagate through & and |, so
a false conjunct leaves the formula false, with no fresh variables,
before it reaches the encoder.
Rewrites that need a name for an intermediate value introduce fresh
'$'-variables together with guard constraints that pin them down; for
every assignment to the original variables the guards are satisfiable
and force the fresh variables to carry the intended values, so
conjoining them preserves the meaning of an existential formula. Only
existential (or prefix-free) formulas are elaborated: a universal one
is decided by refuting its negation, which is existential.

The stages run in order: reversal, subranges (which also fold
first(t[1:1]) to first(t)), length bounds, negations, arithmetic (with
the constant atoms), and last ast.fold_consts on the guarded matrix.
Each stage but negation pushing and that last fold is an atom rewrite:
a function on one atom that ast.map_atoms runs over the Boolean
skeleton, with any change inside terms made by a rule that
ast.map_terms runs top-down over each term of the atom.

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

from collections import Counter
from dataclasses import dataclass, field
from operator import eq, ge, gt, le, lt, ne

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
    Term,
    ZAny,
    ZCat,
    ZLit,
    ZPlus,
    ZPow,
    ZRegex,
    ZSet,
    ZStar,
    ZUnion,
    atom_seq_terms,
    atoms,
    conj,
    fold_consts,
    map_atom_terms,
    map_atoms,
    map_terms,
)


class ElaborationError(ValueError):
    pass


@dataclass
class Elaboration:
    """Result of rewriting a formula into core form.

    ``core_matrix`` is the rewritten matrix and ``guards`` the
    constraints that pin ``fresh_vars``; the encoder, not elaborate,
    checks that they are in core form. ``formula`` carries the guards
    already conjoined with the matrix and the fresh variables appended
    to the prefix. ``rev_map`` maps each reversal-abstracted original
    variable to the fresh variable that denotes its reversal; a model
    value for the original variable is the reversal of the fresh one's
    value.
    """

    formula: Formula
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
    return ZPow(ZUnion((ZAny(), ZCat(()))), n)


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


def _push_rev(t: Term) -> Term | None:
    # map_terms rule: push rev below t, bottom-up
    match t:
        case SRev(arg=a):
            return _rev_of(map_terms(a, _push_rev))
        case IOfSeq(arg=a):
            a = map_terms(a, _push_rev)
            if isinstance(a, SRev):
                # first element of a reversal is the last element
                return IOfSeq(SSub(a.arg, 0, 0))
            return IOfSeq(a)
    return None


def _is_short(t: SeqTerm) -> bool:
    # terms of length at most one, invariant under reversal
    return isinstance(t, (SEmpty, SInt))


def _push_rev_atom(a: Atom) -> Atom:
    a = map_atom_terms(a, _push_rev)
    match a:
        # rev(t) = rev(u) iff t = u; rev(t) = short iff t = short
        case SeqEq(left=SRev(arg=l), right=SRev(arg=r)):
            return SeqEq(l, r)
        case SeqEq(left=SRev(arg=l), right=r) if _is_short(r):
            return SeqEq(l, r)
        case SeqEq(left=l, right=SRev(arg=r)) if _is_short(l):
            return SeqEq(l, r)
        case InRe(arg=SRev(arg=t), regex=rx):
            return InRe(t, rev_regex(rx))
        case LenCmp(arg=SRev(arg=t), op=op, bound=k):
            return LenCmp(t, op, k)  # reversal preserves length
    return a


# ---------------------------------------------------------------------------
# stage 2: abstract reversed variables through the bijection


def _marked_vars(m: Matrix) -> set[str]:
    return {
        t.arg.name
        for a in atoms(m)
        for t in atom_seq_terms(a)
        if isinstance(t, SRev) and isinstance(t.arg, SVar)
    }


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

    def term(self, t: Term) -> Term | None:
        # map_terms rule; after pushing, rev sits on variables only
        match t:
            case SVar(name=n) if n in self.marked:
                self.fail(n)
            case SSub(arg=SVar(name=n), lo=k1, hi=k2) if n in self.marked:
                if k1 != k2:
                    self.fail(n)
                return SSub(SVar(self.map[n]), 1 - k1, 1 - k1)
            case SRev(arg=SVar(name=n)):
                return SVar(self.map[n])
            case IOfSeq(arg=SVar(name=n)) if n in self.marked:
                # first element of x is the last element of rev(x)
                return IOfSeq(SSub(SVar(self.map[n]), 0, 0))
        return None

    def atom(self, a: Atom) -> Atom:
        match a:
            case SeqEq(left=SVar(name=n), right=r) if n in self.marked and _is_short(r):
                return SeqEq(SVar(self.map[n]), map_terms(r, self.term))
            case SeqEq(left=l, right=SVar(name=n)) if n in self.marked and _is_short(l):
                return SeqEq(map_terms(l, self.term), SVar(self.map[n]))
            case SeqEq(left=SVar(name=x), right=SVar(name=y)) if (
                x in self.marked and y in self.marked
            ):
                return SeqEq(SVar(self.map[x]), SVar(self.map[y]))
            case InRe(arg=SVar(name=n), regex=rx) if n in self.marked:
                return InRe(SVar(self.map[n]), rev_regex(rx))
            case LenCmp(arg=SVar(name=n), op=op, bound=k) if n in self.marked:
                return LenCmp(SVar(self.map[n]), op, k)
        return map_atom_terms(a, self.term)


def eliminate_rev(m: Matrix) -> tuple[Matrix, dict[str, str]]:
    """Remove all rev() nodes, renaming variables through the reversal
    bijection where needed. Returns the rewritten matrix and the map
    from abstracted original variables to their reversal names."""
    m = map_atoms(m, _push_rev_atom)
    marked = _marked_vars(m)
    if not marked:
        return m, {}
    tr = _RevTransfer(marked)
    return map_atoms(m, tr.atom), tr.map


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


def _split(arg: SeqTerm, k1: int, k2: int, fresh: _Fresh, guards: list[Matrix]) -> SeqTerm:
    """The value of arg[k1:k2] for an arg free of subranges: eps or a
    singleton when it is decided statically, else the middle part v of
    a split pinned by the guards it appends."""
    if isinstance(arg, SEmpty):
        return SEmpty()
    if isinstance(arg, SInt):
        return _sub_of_singleton(arg.value, k1, k2)
    kappa = _static_kappa(k1, k2)
    if kappa is None:
        return SEmpty()
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
    return v


def expand_subs(m: Matrix, fresh: _Fresh) -> tuple[Matrix, list[Matrix]]:
    """Replace every subrange t[k1:k2] by a fresh variable pinned by a
    guard. The guard splits on whether the sequence is long enough:

      long enough:  x = u ++ v ++ w with the lengths of two of the
                    three parts fixed by the indices; the result is v
      too short:    the result is empty (u, v, w all pinned to eps)

    One map_terms rule runs over each atom. It rewrites the argument of
    a subrange first, so the innermost subrange expands first, and
    identical rewritten subranges share one expansion. It also folds
    first(t[1:1]) to first(t): the two agree on every sequence (the
    first element when t is nonempty, 0 when it is empty), so the
    common first(t) sugar in integer position needs no split."""
    guards: list[Matrix] = []
    memo: dict[SSub, SeqTerm] = {}

    def rule(t: Term) -> Term | None:
        kind = type(t)
        if kind is IOfSeq:
            a = t.arg
            while type(a) is SSub and a.lo == 1 and a.hi == 1:
                a = a.arg
            return IOfSeq(map_terms(a, rule))
        if kind is not SSub:
            return None
        node = SSub(map_terms(t.arg, rule), t.lo, t.hi)
        if node not in memo:
            memo[node] = _split(node.arg, node.lo, node.hi, fresh, guards)
        return memo[node]

    return map_atoms(m, lambda a: map_atom_terms(a, rule)), guards


# ---------------------------------------------------------------------------
# stage 4: length bounds become memberships


def _lencmp_atom(a: Atom) -> Matrix:
    if not isinstance(a, LenCmp):
        return a
    t, k = a.arg, a.bound
    match a.op:
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
    raise ValueError(f"unknown length comparison {a.op!r}")


def expand_lencmp(m: Matrix) -> Matrix:
    return map_atoms(m, _lencmp_atom)


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


_MIRROR = {"==": "==", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}
_HOLDS = {"==": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}

# A linear form sum(c * first(n)) + k over lowered names n: the pairs
# (n, c) sorted by name, with no zero c, and k.
Form = tuple[tuple[tuple[str, int], ...], int]


class _AtomLowering:
    """Lowers integer comparisons from their linear forms and
    normalizes membership arguments to variables, accumulating guards.

    An integer term or comparison is read as its linear form
    sum(c * first(n)) + k over variable names n (first(eps) is 0,
    first(k) and first(k ++ t) are k, first(eps ++ t) is first(t), a
    left-nested concatenation is read right-nested, and any other
    first(t) aliases t), so equivalent spellings give one atom. A comparison is the bound `form op 0`,
    negated with op mirrored if every c is negative:

      no terms               true or false
      two terms, c = 1, -1,  a bound d op k' on d = first(n1) - first(n2),
      k != 0, op not ==/!=   n1 before n2 by name, so that every bound on
                             one difference shares one variable d
      any other form         positive terms op negative terms; for == and
                             != the constant stays positive (t == v + 1,
                             never v == t + (-1)), else it goes right

    <=, >= and != become disjunctions of < and ==. A side that is not
    one name or one integer is a fresh variable, one per linear form,
    pinned by the guard `v == form`, which is lowered the same way; an
    integer in a variable position gets a shared one-element witness
    variable pinned by a membership. An equation between ground sides
    becomes its BoolLit."""

    def __init__(self, fresh: _Fresh):
        self.fresh = fresh
        self.guards: list[Matrix] = []
        self.int_cache: dict[Form, str] = {}
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
                v = self.value(self.linear(i))
                return SInt(IConst(v) if isinstance(v, int) else IOfSeq(SVar(v)))
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

    def linear(self, l: IntTerm, r: IntTerm = IConst(0)) -> Form:
        """The linear form of l - r. The first-element terms are
        aliased left to right, and only those whose coefficients do not
        cancel."""
        coeffs: dict[SeqTerm, int] = {}
        k = 0
        todo = [(r, -1), (l, 1)]
        while todo:
            i, sign = todo.pop()
            match i:
                case IConst(value=v):
                    k += sign * v
                case IAdd(left=a, right=b):
                    todo += ((b, sign), (a, sign))
                case ISub(left=a, right=b):
                    todo += ((b, -sign), (a, sign))
                case IOfSeq(arg=SEmpty()):
                    pass
                case IOfSeq(arg=SInt(value=j)) | IOfSeq(arg=SConcat(left=SInt(value=j))):
                    todo.append((j, sign))
                case IOfSeq(arg=SConcat(left=SEmpty(), right=t)):
                    todo.append((IOfSeq(t), sign))
                case IOfSeq(arg=SConcat(left=SConcat(left=a, right=b), right=c)):
                    todo.append((IOfSeq(SConcat(a, SConcat(b, c))), sign))
                case IOfSeq(arg=t):
                    coeffs[t] = coeffs.get(t, 0) + sign
                case _:
                    raise TypeError(f"not an integer term: {i!r}")
        names: dict[str, int] = {}
        for t, c in coeffs.items():
            if c:
                n = self.alias(t).name
                names[n] = names.get(n, 0) + c
        return tuple(sorted((n, c) for n, c in names.items() if c)), k

    def value(self, form: Form) -> str | int:
        """A name whose first element is the form's value, or the value
        itself when the form is constant."""
        terms, k = form
        if not terms:
            return k
        if k == 0 and len(terms) == 1 and terms[0][1] == 1:
            return terms[0][0]
        if form not in self.int_cache:
            v = self.fresh.new("d" if any(c < 0 for _, c in terms) else "s")
            self.guards.append(self.compare("==", (((v, -1),) + terms, k)))
            self.int_cache[form] = v
        return self.int_cache[form]

    def const_var(self, k: int) -> SVar:
        if k in self.const_cache:
            return self.const_cache[k]
        name = f"$c{k}" if k >= 0 else f"$cn{-k}"
        self.fresh.names.append(name)
        v = SVar(name)
        self.guards.append(InRe(v, ZLit(k)))
        self.const_cache[k] = v
        return v

    def fst(self, side: list[str | int]) -> IOfSeq:
        """The first element of a variable holding the sum of side."""
        if len(side) == 1:
            v = side[0]
        else:
            terms = tuple(sorted(Counter(n for n in side if isinstance(n, str)).items()))
            v = self.value((terms, sum(n for n in side if isinstance(n, int))))
        return IOfSeq(self.const_var(v) if isinstance(v, int) else SVar(v))

    # atoms

    def compare(self, op: str, form: Form) -> Matrix:
        """The bound form op 0 in core atoms."""
        terms, k = form
        if not terms:
            return BoolLit(_HOLDS[op](k, 0))
        if all(c < 0 for _, c in terms):
            op, terms, k = _MIRROR[op], tuple((n, -c) for n, c in terms), -k
        if k and op not in ("==", "!=") and [c for _, c in terms] in ([1, -1], [-1, 1]):
            (n1, c1), (n2, _) = terms
            d = self.value((((n1, 1), (n2, -1)), 0))
            return self.compare(op, (((d, c1),), k))
        pos = [n for n, c in terms if c > 0 for _ in range(c)]
        neg = [n for n, c in terms if c < 0 for _ in range(-c)]
        if k > 0 and neg and op in ("==", "!="):
            pos.append(k)
        elif k or not neg:
            neg.append(-k)
        return self.lower(op, pos, neg)

    def lower(self, op: str, l: list[str | int], r: list[str | int]) -> Matrix:
        """l op r for two sums of names and integers; an integer can
        only be the last summand of a side."""
        if op in ("==", "!=") and len(l) > len(r):
            l, r = r, l
        match op:
            case "!=":
                return Or(self.lower("<", l, r), self.lower("<", r, l))
            case "<=":
                return Or(self.lower("<", l, r), self.lower("==", l, r))
            case ">=":
                return Or(self.lower("<", r, l), self.lower("==", l, r))
            case ">":
                return self.lower("<", r, l)
            case "==" if len(r) > 1:
                return IntCmp("==", self.fst(l), IAdd(self.fst(r[:1]), self.fst(r[1:])))
            case "==" if r in ([0], [1]):
                return IntCmp("==", self.fst(l), IConst(r[0]))
            case "==" | "<":
                return IntCmp(op, self.fst(l), self.fst(r))
        raise ValueError(f"unknown comparison {op!r}")

    def atom(self, a: Atom) -> Matrix:
        match a:
            case BoolLit():
                return a
            case SeqEq(left=l, right=r):
                l, r = self.seq(l), self.seq(r)
                vl, vr = _ground_value(l), _ground_value(r)
                if vl is None or vr is None:
                    return SeqEq(l, r)
                return BoolLit(vl == vr)
            case InRe(arg=t, regex=rx):
                return InRe(self.alias(t), rx)
            case IntCmp(op=op, left=l, right=r):
                return self.compare(op, self.linear(l, r))
        raise TypeError(f"unexpected node after earlier stages: {a!r}")


def _ground_value(t: SeqTerm) -> tuple[int, ...] | None:
    """The value of a lowered sequence term made of eps and integer
    literals only; None if it holds anything else."""
    match t:
        case SEmpty():
            return ()
        case SInt(value=IConst(value=k)):
            return (k,)
        case SConcat(left=l, right=r):
            vl, vr = _ground_value(l), _ground_value(r)
            if vl is not None and vr is not None:
                return vl + vr
    return None


# ---------------------------------------------------------------------------
# driver


def elaborate(f: Formula, reading: str = EXISTS) -> Elaboration:
    """Rewrite an existential or prefix-free formula into core form.

    The guards for the fresh variables are conjoined with the matrix,
    which preserves meaning because every guard is satisfiable for
    every assignment to the original variables and pins the fresh
    values the rewritten matrix depends on. The result is in negation
    normal form: Not sits only on sequence equations and memberships.
    The core form is checked where it is read, by
    encode.encode_elaboration. ``reading`` must be EXISTS; a universal
    formula raises ValueError (its validity is decided through
    wordsolver.negation).
    """
    if reading != EXISTS:
        raise ValueError(f"unknown reading {reading!r}: only EXISTS is elaborated")
    if f.quantifier == FORALL:
        raise ValueError("a universal formula is elaborated through its negation")

    matrix, rev_map = eliminate_rev(f.matrix)
    prefix = tuple(rev_map.get(x, x) for x in f.prefix)

    fresh = _Fresh()
    # subrange guards hold no length bound and no negation to rewrite
    matrix, sub_guards = expand_subs(matrix, fresh)
    matrix = push_negations(expand_lencmp(matrix))

    lower = _AtomLowering(fresh)
    matrix = fold_consts(map_atoms(matrix, lower.atom))
    guards = tuple([map_atoms(g, lower.atom) for g in sub_guards] + lower.guards)

    fresh_vars = tuple(fresh.names)
    if isinstance(matrix, BoolLit):
        # the guards hold for some value of the fresh variables in every
        # environment, so a constant matrix needs neither
        guards = fresh_vars = ()
    combined = fold_consts(And(conj(list(guards)), matrix))
    if f.quantifier is None:
        out = Formula(None, (), combined)
    else:
        out = Formula(EXISTS, prefix + fresh_vars, combined)

    return Elaboration(
        formula=out,
        core_matrix=matrix,
        guards=guards,
        fresh_vars=fresh_vars,
        rev_map=rev_map,
    )

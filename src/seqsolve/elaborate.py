"""Rewriting of parsed formulas into the core constraint language.

The core language the encoder accepts:

  sequence terms   variables, eps, integer singletons, concatenations
  atoms            t = t' between core sequence terms,
                   x in E for a variable x,
                   and integer atoms over first elements of variables:
                   x == 0, x == 1, x == y, x < y, x == y + z

Everything else is rewritten away here: reversal, subranges, length
bounds, derived comparisons, integer constants and nested arithmetic.
Atoms that are constant fold away too: a comparison whose two sides
differ by a constant, and an equation between sides built from eps
and integer literals, become true or false, and the constants then
propagate through & and |, so a false conjunct leaves the formula
false before it reaches the encoder.
Rewrites that need a name for an intermediate value introduce fresh
'$'-variables together with guard constraints that pin them down; for
every assignment to the original variables the guards are satisfiable
and force the fresh variables to carry the intended values, so
conjoining them preserves the meaning of an existential formula. Only
existential (or prefix-free) formulas are elaborated: a universal one
is decided by refuting its negation, which is existential.

The stages run in order: reversal, subranges, length bounds, negations,
arithmetic (with the constant atoms), and last ast.fold_consts on the
guarded matrix. Each stage but negation pushing and that last fold is
an atom rewrite: a function on one atom that ast.map_atoms runs over
the Boolean skeleton, with any change inside terms made by a rule that
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
    seq_subterms,
)


class ElaborationError(ValueError):
    pass


@dataclass
class Elaboration:
    """Result of rewriting a formula into core form.

    ``formula`` carries the guards already conjoined with the matrix
    and the fresh variables appended to the prefix. ``rev_map`` maps
    each reversal-abstracted original variable to the fresh variable
    that denotes its reversal; a model value for the original variable
    is the reversal of the fresh one's value.
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


def _fold_first(t: Term) -> Term | None:
    """map_terms rule: rewrite fst(t[1:1]) to fst(t). The two agree on
    every sequence: both pick the first element when t is nonempty and
    denote 0 when t is empty. Folding before subrange expansion avoids
    a pointless split for the common first(t) sugar in integer
    position."""
    if not isinstance(t, IOfSeq):
        return None
    a = map_terms(t.arg, _fold_first)
    while isinstance(a, SSub) and a.lo == 1 and a.hi == 1:
        a = a.arg
    return IOfSeq(a)


def _collect_subs(m: Matrix) -> list[SSub]:
    """Innermost subrange nodes (argument free of subranges), deduplicated,
    in first-occurrence order."""
    return list(
        dict.fromkeys(
            t
            for a in atoms(m)
            for t in atom_seq_terms(a)
            if isinstance(t, SSub)
            and not any(isinstance(s, SSub) for s in seq_subterms(t.arg))
        )
    )


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

        def replace(a: Atom) -> Atom:
            return map_atom_terms(a, table.get)

        m = map_atoms(m, replace)
        guards = [map_atoms(g, replace) for g in guards]


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


class _AtomLowering:
    """Flattens integer terms to first-elements of variables and
    normalizes membership arguments to variables, accumulating guards.

    A normalized integer term is either a known constant or the first
    element of a variable. Sums and differences that cannot be folded
    get a fresh variable whose first element is pinned by a core sum
    atom; constants in variable positions get a shared one-element
    witness variable pinned by a membership. An atom that has one value
    in every environment becomes that BoolLit before any of this: a
    comparison whose sides differ by a constant (their linear forms over
    first elements cancel), or an equation between ground sides."""

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
        if op == "==":
            if nr[0] == "const" and nr[1] in (0, 1) and nl[0] == "fst":
                return IntCmp("==", IOfSeq(SVar(nl[1])), IConst(nr[1]))
            if nl[0] == "const" and nl[1] in (0, 1) and nr[0] == "fst":
                return IntCmp("==", IOfSeq(SVar(nr[1])), IConst(nl[1]))
        return IntCmp(op, self.as_fst(nl), self.as_fst(nr))

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
                d = _constant_difference(l, r)
                return self.int_atom(op, l, r) if d is None else BoolLit(_holds(op, d))
        raise TypeError(f"unexpected node after earlier stages: {a!r}")


def _constant_difference(l: IntTerm, r: IntTerm) -> int | None:
    """l - r, if it is one integer in every environment: its linear
    form over first-element terms, reading first(eps) as 0 and first(k)
    as k, has no nonzero coefficient. None otherwise."""
    coeffs: dict[SeqTerm, int] = {}
    const = 0
    todo = [(l, 1), (r, -1)]
    while todo:
        i, sign = todo.pop()
        match i:
            case IConst(value=k):
                const += sign * k
            case IAdd(left=a, right=b):
                todo += ((a, sign), (b, sign))
            case ISub(left=a, right=b):
                todo += ((a, sign), (b, -sign))
            case IOfSeq(arg=SEmpty()):
                pass
            case IOfSeq(arg=SInt(value=j)):
                todo.append((j, sign))
            case IOfSeq(arg=t):
                coeffs[t] = coeffs.get(t, 0) + sign
            case _:
                raise TypeError(f"not an integer term: {i!r}")
    return None if any(coeffs.values()) else const


def _holds(op: str, d: int) -> bool:
    """Whether l op r holds when l - r == d."""
    match op:
        case "==":
            return d == 0
        case "!=":
            return d != 0
        case "<":
            return d < 0
        case "<=":
            return d <= 0
        case ">":
            return d > 0
        case ">=":
            return d >= 0
    raise ValueError(f"unknown comparison {op!r}")


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
        case IntCmp(op="==", left=IOfSeq(arg=SVar()), right=IConst(value=0 | 1)):
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
    for a in atoms(m):
        if not _core_atom(a):
            raise ElaborationError(f"not in core form: {a!r}")


# ---------------------------------------------------------------------------
# driver


def elaborate(f: Formula, reading: str = EXISTS) -> Elaboration:
    """Rewrite an existential or prefix-free formula into core form.

    The guards for the fresh variables are conjoined with the matrix,
    which preserves meaning because every guard is satisfiable for
    every assignment to the original variables and pins the fresh
    values the rewritten matrix depends on. The result is in negation
    normal form: Not sits only on sequence equations and memberships.
    ``reading`` must be EXISTS; a universal formula raises ValueError
    (its validity is decided through wordsolver.negation).
    """
    if reading != EXISTS:
        raise ValueError(f"unknown reading {reading!r}: only EXISTS is elaborated")
    if f.quantifier == FORALL:
        raise ValueError("a universal formula is elaborated through its negation")

    matrix, rev_map = eliminate_rev(f.matrix)
    prefix = tuple(rev_map.get(x, x) for x in f.prefix)
    matrix = map_atoms(matrix, lambda a: map_atom_terms(a, _fold_first))

    fresh = _Fresh()
    matrix, sub_guards = expand_subs(matrix, fresh)
    work = [expand_lencmp(g) for g in sub_guards]
    matrix = expand_lencmp(matrix)
    matrix = push_negations(matrix)
    work = [push_negations(g) for g in work]

    lower = _AtomLowering(fresh)
    matrix = fold_consts(map_atoms(matrix, lower.atom))
    work = [map_atoms(g, lower.atom) for g in work]
    guards = tuple(work + lower.guards)

    for g in guards:
        validate_core(g)
    validate_core(matrix)

    combined = fold_consts(And(conj(list(guards)), matrix))
    if f.quantifier is None:
        out = Formula(None, (), combined)
    else:
        out = Formula(EXISTS, prefix + tuple(fresh.names), combined)

    return Elaboration(
        formula=out,
        core_matrix=matrix,
        guards=guards,
        fresh_vars=tuple(fresh.names),
        rev_map=rev_map,
    )

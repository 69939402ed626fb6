"""Encoding of core constraints into word equations with regular
constraints over the alphabet {a, b, c, d}.

Integers become unary blocks: k >= 0 is "ac" + "b"*k + "a", k < 0 is
"ad" + "b"*|k| + "a". A sequence is the concatenation of its blocks,
so sequence values range over L* for the block language
L = acb*a | adb+a. Note -0 ("ada") is not a block, so every integer
has exactly one spelling.

Each sequence variable x is glued to bookkeeping variables by frame
constraints:

    x in L*
    x aca = h_x t_x          (the first block of x, or aca if x is
    h_x = a sg_x m_x a        empty, is h_x; the appended aca makes
    sg_x in {c,d}, m_x in b*, t_x in L*    the split unambiguous)

h_x is exactly the encoding of the first element of x under the
"empty sequence denotes 0" convention, so the integer atoms become:

    x == 0       h_x = aca
    x == 1       h_x = acba
    x == y       h_x = h_y
    x < y        sign/magnitude comparison of (sg, m) pairs, with a
                 shared witness p in b+ for the magnitude difference
    x == y + z   four-way case split on signs, building h_x from
                 sg/m components and the witness p

Comparison atoms are only ever encoded positively: negations are
flipped into the opposite comparison (upstream for surface operators,
in neg_atom for core atoms), sign cases are memberships whose
contradictions cancel by automaton intersection, and the shared
magnitude witness p in b+ is pinned by the equations of whichever
case uses it. Nothing about p or a sign ever sits under a negation,
which is what makes the case splits cheap to discharge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

from .ast import (
    And,
    BoolLit,
    EXISTS,
    FORALL,
    Formula,
    IAdd,
    IConst,
    IOfSeq,
    IOne,
    IZero,
    Iff,
    Imp,
    InRe,
    IntCmp,
    ISub,
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
    IntTerm,
    ZAny,
    ZCat,
    ZLit,
    ZPlus,
    ZPow,
    ZRegex,
    ZSet,
    ZStar,
    ZUnion,
    matrix_vars,
)
from .dfa import Dfa, concat, empty_dfa, lit, plus, power, star, union
from .elaborate import Elaboration, elaborate, validate_core


class DecodeError(ValueError):
    pass


class LiteralTooLarge(ValueError):
    pass


# Magnitudes are spelled in unary, so the encoding of a literal is as
# long as its value and the work on it grows at least as fast: a formula
# with a literal of 10^5 already runs for more than 30 s. Past this
# bound a literal is refused rather than left to exhaust time or memory
# (above sys.maxsize its spelling cannot be built at all).
MAX_MAGNITUDE = 10**6


def encode_int(k: int) -> str:
    if abs(k) > MAX_MAGNITUDE:
        raise LiteralTooLarge(
            f"integer literal {k} is too large to encode"
            f" (magnitudes are unary, at most {MAX_MAGNITUDE})"
        )
    if k >= 0:
        return "ac" + "b" * k + "a"
    return "ad" + "b" * (-k) + "a"


def decode_word(w: str) -> tuple[int, ...]:
    """Inverse of the sequence encoding; rejects anything outside L*."""
    out = []
    i, n = 0, len(w)
    while i < n:
        if w[i] != "a" or i + 1 >= n or w[i + 1] not in "cd":
            raise DecodeError(f"bad block at {i} in {w!r}")
        sign = 1 if w[i + 1] == "c" else -1
        j = i + 2
        while j < n and w[j] == "b":
            j += 1
        if j >= n or w[j] != "a":
            raise DecodeError(f"unterminated block at {i} in {w!r}")
        count = j - (i + 2)
        if sign < 0 and count == 0:
            raise DecodeError(f"negative zero block at {i} in {w!r}")
        out.append(sign * count)
        i = j + 1
    return tuple(out)


@lru_cache(maxsize=None)
def frame_dfa() -> Dfa:
    """The block language L = acb*a | adb+a."""
    return union(
        concat(lit("ac"), star(lit("b")), lit("a")),
        concat(lit("ad"), plus(lit("b")), lit("a")),
    )


@lru_cache(maxsize=None)
def lstar_dfa() -> Dfa:
    return star(frame_dfa())


@lru_cache(maxsize=None)
def sign_dfa() -> Dfa:
    return union(lit("c"), lit("d"))


@lru_cache(maxsize=None)
def bstar_dfa() -> Dfa:
    return star(lit("b"))


@lru_cache(maxsize=None)
def bplus_dfa() -> Dfa:
    return plus(lit("b"))


@lru_cache(maxsize=None)
def not_single_b_dfa() -> Dfa:
    """Every word except the single letter b."""
    return lit("b").complement()


@lru_cache(maxsize=None)
def encode_regex(r: ZRegex) -> Dfa:
    """DFA over {a,b,c,d} accepting exactly the encodings of the
    sequences in the regex's language."""
    match r:
        case ZLit(value=k):
            return lit(encode_int(k))
        case ZAny():
            return frame_dfa()
        case ZSet(values=vs):
            if not vs:
                return empty_dfa()
            return union(*(lit(encode_int(v)) for v in vs))
        case ZCat(parts=ps):
            if not ps:
                return lit("")
            return concat(*(encode_regex(p) for p in ps))
        case ZUnion(parts=ps):
            if not ps:
                return empty_dfa()
            return union(*(encode_regex(p) for p in ps))
        case ZStar(arg=a):
            return star(encode_regex(a))
        case ZPlus(arg=a):
            return plus(encode_regex(a))
        case ZPow(arg=a, power=k):
            return power(encode_regex(a), k)
    raise TypeError(f"not a regex: {r!r}")


# ---------------------------------------------------------------------------
# word-level formulas


@dataclass(frozen=True)
class V:
    name: str


@dataclass(frozen=True)
class L:
    ch: str


Tok = Union[V, L]
Side = tuple  # tuple[Tok, ...]


@dataclass(frozen=True)
class WEq:
    left: Side
    right: Side


@dataclass(frozen=True)
class WIn:
    var: str
    dfa: Dfa


@dataclass(frozen=True)
class WBool:
    value: bool


@dataclass(frozen=True)
class WNot:
    arg: "WFormula"


@dataclass(frozen=True)
class WAnd:
    left: "WFormula"
    right: "WFormula"


@dataclass(frozen=True)
class WOr:
    left: "WFormula"
    right: "WFormula"


WFormula = Union[WEq, WIn, WBool, WNot, WAnd, WOr]


def wconj(parts: list) -> WFormula:
    if not parts:
        return WBool(True)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = WAnd(p, out)
    return out


def wdisj(parts: list) -> WFormula:
    if not parts:
        return WBool(False)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = WOr(p, out)
    return out


def letters(s: str) -> tuple:
    return tuple(L(ch) for ch in s)


def h_of(x: str) -> str:
    return f"$h_{x}"


def sg_of(x: str) -> str:
    return f"$sg_{x}"


def m_of(x: str) -> str:
    return f"$m_{x}"


def t_of(x: str) -> str:
    return f"$t_{x}"


@dataclass
class WordProblem:
    kind: str  # "existential" | "universal"
    variables: tuple[str, ...]  # every word variable, in a fixed order
    matrix: WFormula  # frame and guards already glued per the kind
    source_vars: tuple[str, ...]  # the variables of the core formula
    elaboration: Elaboration | None = None
    components: dict[str, tuple[str, str, str, str]] = field(default_factory=dict)

    def to_json(self) -> dict:
        eqs, diseqs, members, rest = [], [], {}, []

        def side_json(side: Side):
            return [
                {"v": t.name} if isinstance(t, V) else {"l": t.ch} for t in side
            ]

        def peel(w: WFormula):
            match w:
                case WAnd(left=l, right=r):
                    peel(l)
                    peel(r)
                case WEq(left=l, right=r):
                    eqs.append({"left": side_json(l), "right": side_json(r)})
                case WNot(arg=WEq(left=l, right=r)):
                    diseqs.append({"left": side_json(l), "right": side_json(r)})
                case WIn(var=x, dfa=d):
                    members[x] = d.intersect(members[x]) if x in members else d
                case _:
                    rest.append(w)

        def matrix_json(w: WFormula) -> dict:
            match w:
                case WBool(value=v):
                    return {"op": "true" if v else "false"}
                case WEq(left=l, right=r):
                    return {"op": "eq", "left": side_json(l), "right": side_json(r)}
                case WIn(var=x, dfa=d):
                    return {"op": "member", "var": x, "dfa": dfa_json(d)}
                case WNot(arg=a):
                    return {"op": "not", "arg": matrix_json(a)}
                case WAnd(left=l, right=r):
                    return {"op": "and", "left": matrix_json(l), "right": matrix_json(r)}
                case WOr(left=l, right=r):
                    return {"op": "or", "left": matrix_json(l), "right": matrix_json(r)}
            raise TypeError(f"not a word formula: {w!r}")

        peel(self.matrix)
        return {
            "schema": "wp-1",
            "kind": self.kind,
            "vars": list(self.variables),
            "equations": eqs,
            "disequations": diseqs,
            "memberships": {x: dfa_json(d) for x, d in sorted(members.items())},
            "matrix": matrix_json(wconj(rest)) if rest else {"op": "true"},
        }


def dfa_json(d: Dfa) -> dict:
    return {
        "states": d.n,
        "start": d.start,
        "accepting": sorted(d.accepting),
        "transitions": [list(row) for row in d.delta],
    }


# ---------------------------------------------------------------------------
# translation


class _Translator:
    def __init__(self):
        self.extra: list[WFormula] = []  # witness memberships and guards
        self.pair_witness: dict[frozenset, str] = {}
        self.pair_order: list[str] = []
        self.guarded_pairs: set[frozenset] = set()
        self.used_components: set[str] = set()

    def witness(self, x: str, y: str) -> str:
        self.used_components.update((x, y))
        key = frozenset((x, y))
        if key in self.pair_witness:
            return self.pair_witness[key]
        p = f"$p{len(self.pair_order) + 1}"
        self.pair_witness[key] = p
        self.pair_order.append(p)
        self.extra.append(WIn(p, bplus_dfa()))
        return p

    def canonical_witness(self, x: str, y: str) -> str:
        """The pair witness, additionally pinned to the actual magnitude
        difference by a guard disjunction. Positive uses of p do not
        need this (each case equates p itself), but a literal about p
        under a negation is only correct when p is forced."""
        p = self.witness(x, y)
        key = frozenset((x, y))
        if key not in self.guarded_pairs:
            self.guarded_pairs.add(key)
            mx, my = (V(m_of(x)),), (V(m_of(y)),)
            pv = (V(p),)
            self.extra.append(
                wdisj([WEq(mx, my), WEq(mx, my + pv), WEq(my, mx + pv)])
            )
        return p

    def side(self, t: SeqTerm) -> Side:
        match t:
            case SVar(name=n):
                return (V(n),)
            case SEmpty():
                return ()
            case SInt(value=IConst(value=k)):
                return letters(encode_int(k))
            case SInt(value=IOfSeq(arg=SVar(name=n))):
                self.used_components.add(n)
                return (V(h_of(n)),)
            case SConcat(left=l, right=r):
                return self.side(l) + self.side(r)
        raise ValueError(f"not a core sequence term: {t!r}")

    def sign_pair(self, x: str, cx: str, y: str, cy: str) -> WFormula:
        # membership rather than an equation: contradictory sign cases
        # then cancel during clause assembly instead of surviving as
        # disequations
        return WAnd(WIn(sg_of(x), lit(cx)), WIn(sg_of(y), lit(cy)))

    def less_than(self, x: str, y: str) -> WFormula:
        p = self.witness(x, y)
        mx, my, pv = (V(m_of(x)),), (V(m_of(y)),), (V(p),)
        return wdisj(
            [
                self.sign_pair(x, "d", y, "c"),
                WAnd(self.sign_pair(x, "c", y, "c"), WEq(my, mx + pv)),
                WAnd(self.sign_pair(x, "d", y, "d"), WEq(mx, my + pv)),
            ]
        )

    def sum_atom(self, k: str, i: str, j: str) -> WFormula:
        p = self.witness(i, j)
        hk = (V(h_of(k)),)
        mi, mj, pv = (V(m_of(i)),), (V(m_of(j)),), (V(p),)
        si, sj = (V(sg_of(i)),), (V(sg_of(j)),)
        same = wdisj(
            [
                WAnd(self.sign_pair(i, "c", j, "c"), WEq(hk, (L("a"),) + si + mi + mj + (L("a"),))),
                WAnd(self.sign_pair(i, "d", j, "d"), WEq(hk, (L("a"),) + si + mi + mj + (L("a"),))),
            ]
        )
        differ_cases = []
        for ci, cj in (("c", "d"), ("d", "c")):
            signs = self.sign_pair(i, ci, j, cj)
            differ_cases.append(WAnd(signs, WAnd(WEq(mi, mj), WEq(hk, letters("aca")))))
            differ_cases.append(
                WAnd(signs, WAnd(WEq(mi, mj + pv), WEq(hk, (L("a"),) + si + pv + (L("a"),))))
            )
            differ_cases.append(
                WAnd(signs, WAnd(WEq(mj, mi + pv), WEq(hk, (L("a"),) + sj + pv + (L("a"),))))
            )
        return wdisj([same] + differ_cases)

    def atom(self, m: Matrix) -> WFormula:
        match m:
            case BoolLit(value=v):
                return WBool(v)
            case SeqEq(left=l, right=r):
                return WEq(self.side(l), self.side(r))
            case InRe(arg=SVar(name=x), regex=rx):
                return WIn(x, encode_regex(rx))
            case IntCmp(op="==", left=IOfSeq(arg=SVar(name=x)), right=IZero()):
                self.used_components.add(x)
                return WEq((V(h_of(x)),), letters("aca"))
            case IntCmp(op="==", left=IOfSeq(arg=SVar(name=x)), right=IOne()):
                self.used_components.add(x)
                return WEq((V(h_of(x)),), letters("acba"))
            case IntCmp(
                op="==",
                left=IOfSeq(arg=SVar(name=x)),
                right=IAdd(left=IOfSeq(arg=SVar(name=i)), right=IOfSeq(arg=SVar(name=j))),
            ):
                self.used_components.add(x)
                return self.sum_atom(x, i, j)
            case IntCmp(op="==", left=IOfSeq(arg=SVar(name=x)), right=IOfSeq(arg=SVar(name=y))):
                self.used_components.update((x, y))
                return WEq((V(h_of(x)),), (V(h_of(y)),))
            case IntCmp(op="<", left=IOfSeq(arg=SVar(name=x)), right=IOfSeq(arg=SVar(name=y))):
                return self.less_than(x, y)
        raise ValueError(f"not a core atom: {m!r}")

    def neg_atom(self, m: Matrix) -> WFormula:
        """Direct positive encodings of negated atoms. Comparisons get
        flipped rather than wrapped in negation, so no sign case or
        magnitude equation ever appears under a negation: contradictory
        cases are then killed by membership intersection instead of
        surviving as disequations that force deep branching."""
        match m:
            case BoolLit(value=v):
                return WBool(not v)
            case SeqEq() | InRe():
                return WNot(self.atom(m))
            case IntCmp(op="==", left=IOfSeq(arg=SVar(name=x)), right=IZero()):
                # nonzero: negative sign, or a nonempty magnitude
                self.used_components.add(x)
                return WOr(WIn(sg_of(x), lit("d")), WIn(m_of(x), bplus_dfa()))
            case IntCmp(op="==", left=IOfSeq(arg=SVar(name=x)), right=IOne()):
                self.used_components.add(x)
                return WOr(
                    WIn(sg_of(x), lit("d")), WIn(m_of(x), not_single_b_dfa())
                )
            case IntCmp(op="==", left=IOfSeq(arg=SVar(name=x)), right=IOfSeq(arg=SVar(name=y))):
                return WOr(self.less_than(x, y), self.less_than(y, x))
            case IntCmp(op="<", left=IOfSeq(arg=SVar(name=x)), right=IOfSeq(arg=SVar(name=y))):
                self.used_components.update((x, y))
                return WOr(
                    self.less_than(y, x), WEq((V(h_of(x)),), (V(h_of(y)),))
                )
            case IntCmp(
                op="==",
                left=IOfSeq(arg=SVar()),
                right=IAdd(left=IOfSeq(arg=SVar(name=i)), right=IOfSeq(arg=SVar(name=j))),
            ):
                # the sum encoding is negated literally, which is only
                # sound with the operand pair's witness pinned
                self.canonical_witness(i, j)
                return WNot(self.atom(m))
        raise ValueError(f"no negative encoding for {m!r}")

    def mat(self, m: Matrix, neg: bool = False) -> WFormula:
        match m:
            case Not(arg=a):
                return self.mat(a, not neg)
            case And(left=l, right=r):
                l2, r2 = self.mat(l, neg), self.mat(r, neg)
                return WOr(l2, r2) if neg else WAnd(l2, r2)
            case Or(left=l, right=r):
                l2, r2 = self.mat(l, neg), self.mat(r, neg)
                return WAnd(l2, r2) if neg else WOr(l2, r2)
            case Imp(left=l, right=r):
                if neg:
                    return WAnd(self.mat(l), self.mat(r, True))
                return WOr(self.mat(l, True), self.mat(r))
            case Iff(left=l, right=r):
                if neg:
                    return WOr(
                        WAnd(self.mat(l), self.mat(r, True)),
                        WAnd(self.mat(l, True), self.mat(r)),
                    )
                return WAnd(
                    WOr(self.mat(l, True), self.mat(r)),
                    WOr(self.mat(r, True), self.mat(l)),
                )
            case _:
                return self.neg_atom(m) if neg else self.atom(m)


def frame_constraints(x: str) -> list[WFormula]:
    h, sg, m, t = h_of(x), sg_of(x), m_of(x), t_of(x)
    return [
        WIn(x, lstar_dfa()),
        WEq((V(x), L("a"), L("c"), L("a")), (V(h), V(t))),
        WEq((V(h),), (L("a"), V(sg), V(m), L("a"))),
        WIn(sg, sign_dfa()),
        WIn(m, bstar_dfa()),
        WIn(t, lstar_dfa()),
    ]


def encode_elaboration(elab: Elaboration) -> WordProblem:
    matrix = elab.formula.matrix
    validate_core(matrix)
    if elab.formula.quantifier is not None:
        core_vars = elab.formula.prefix
    else:
        core_vars = tuple(sorted(matrix_vars(matrix)))

    tr = _Translator()
    wmatrix = tr.mat(matrix)

    # Every variable ranges over encodings; the full component frame is
    # attached only where some atom looks at the first block.
    frame: list[WFormula] = []
    components = {}
    for x in core_vars:
        if x in tr.used_components:
            frame.extend(frame_constraints(x))
            components[x] = (h_of(x), sg_of(x), m_of(x), t_of(x))
        else:
            frame.append(WIn(x, lstar_dfa()))
    frame.extend(tr.extra)

    hypotheses = wconj(frame)
    if elab.reading == FORALL:
        combined = WOr(WNot(hypotheses), wmatrix) if frame else wmatrix
        kind = "universal"
    else:
        combined = WAnd(hypotheses, wmatrix) if frame else wmatrix
        kind = "existential"

    variables = list(core_vars)
    for x in core_vars:
        if x in components:
            variables.extend(components[x])
    variables.extend(tr.pair_order)

    return WordProblem(
        kind=kind,
        variables=tuple(variables),
        matrix=combined,
        source_vars=core_vars,
        elaboration=elab,
        components=components,
    )


def encode(f: Formula, default_reading: str = EXISTS) -> WordProblem:
    """Elaborate and encode a formula as a word problem."""
    return encode_elaboration(elaborate(f, default_reading))


# ---------------------------------------------------------------------------
# size measures


def formula_size(f: Formula) -> int:
    """Node count of a formula, with integer literals weighted by
    magnitude (their encodings and automata grow with the value)."""

    def zr(r: ZRegex) -> int:
        match r:
            case ZLit(value=k):
                return max(1, abs(k))
            case ZAny():
                return 1
            case ZSet(values=vs):
                return 1 + sum(max(1, abs(v)) for v in vs)
            case ZCat(parts=ps) | ZUnion(parts=ps):
                return 1 + sum(zr(p) for p in ps)
            case ZStar(arg=a) | ZPlus(arg=a):
                return 1 + zr(a)
            case ZPow(arg=a, power=k):
                return max(1, k) * (1 + zr(a))
        raise TypeError(f"not a regex: {r!r}")

    def seq(t: SeqTerm) -> int:
        match t:
            case SVar() | SEmpty():
                return 1
            case SInt(value=i):
                return 1 + intt(i)
            case SConcat(left=l, right=r):
                return 1 + seq(l) + seq(r)
            case SSub(arg=a, lo=k1, hi=k2):
                return 1 + max(1, abs(k1)) + max(1, abs(k2)) + seq(a)
            case SRev(arg=a):
                return 1 + seq(a)
        raise TypeError(f"not a sequence term: {t!r}")

    def intt(i: IntTerm) -> int:
        match i:
            case IZero() | IOne():
                return 1
            case IConst(value=k):
                return max(1, abs(k))
            case IOfSeq(arg=t):
                return 1 + seq(t)
            case IAdd(left=l, right=r) | ISub(left=l, right=r):
                return 1 + intt(l) + intt(r)
        raise TypeError(f"not an integer term: {i!r}")

    def mat(m: Matrix) -> int:
        match m:
            case BoolLit():
                return 1
            case Not(arg=a):
                return 1 + mat(a)
            case And(left=l, right=r) | Or(left=l, right=r) | Imp(left=l, right=r) | Iff(left=l, right=r):
                return 1 + mat(l) + mat(r)
            case SeqEq(left=l, right=r):
                return 1 + seq(l) + seq(r)
            case InRe(arg=t, regex=rx):
                return 1 + seq(t) + zr(rx)
            case IntCmp(left=l, right=r):
                return 1 + intt(l) + intt(r)
            case LenCmp(arg=t, bound=k):
                return 1 + seq(t) + max(1, abs(k))
        raise TypeError(f"not a matrix node: {m!r}")

    return 1 + len(f.prefix) + mat(f.matrix)


def problem_size(wp: WordProblem) -> int:
    """Connective count, word-equation symbol count, and total
    automaton state count of an encoded problem."""

    def wf(w: WFormula) -> int:
        match w:
            case WBool():
                return 1
            case WEq(left=l, right=r):
                return 1 + len(l) + len(r)
            case WIn(dfa=d):
                return 1 + d.n
            case WNot(arg=a):
                return 1 + wf(a)
            case WAnd(left=l, right=r) | WOr(left=l, right=r):
                return 1 + wf(l) + wf(r)
        raise TypeError(f"not a word formula: {w!r}")

    return wf(wp.matrix)

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

The matrix arrives from elaborate in negation normal form, with Not
only on sequence equations and memberships, so the translation is a
structural map: a word formula is the same ast connectives (And, Or,
Not, BoolLit) over two word atoms, WEq (an equation between sides)
and WIn (a variable's membership in a Dfa). Every comparison is
encoded positively: sign cases are memberships whose contradictions
cancel by automaton intersection, and the shared magnitude witness p
in b+ is pinned by the equations of whichever case uses it. Nothing
about p or a sign ever sits under a negation, which is what makes the
case splits cheap to discharge. The frame and the witness memberships
are conjoined with the result: every problem is existential, validity
being decided by refuting the negation.

Each side of a word equation is a plain str, the form the search works
on: letters are "abcd", and each word variable is interned once to its
own code point above them (from U+10000, see var), so a side is ground
when max(side) <= "d". Variable names come back only at the edges: the
wp-1 dump and the solver's assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ast import (
    And,
    BoolLit,
    Formula,
    IAdd,
    IConst,
    IOfSeq,
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
    check_magnitude,
    conj,
    disj,
)
from .ast import LiteralTooLarge, MAX_MAGNITUDE  # noqa: F401 (re-exported)
from .dfa import Dfa, concat, lit, plus, power, star, union
from .elaborate import Elaboration, ElaborationError, elaborate
from .oracle import search_names


class DecodeError(ValueError):
    pass


def encode_int(k: int) -> str:
    check_magnitude("integer literal", k)
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
def encode_regex(r: ZRegex) -> Dfa:
    """DFA over {a,b,c,d} accepting exactly the encodings of the
    sequences in the regex's language."""
    match r:
        case ZLit(value=k):
            return lit(encode_int(k))
        case ZAny():
            return frame_dfa()
        case ZSet(values=vs):
            return union(*(lit(encode_int(v)) for v in vs))
        case ZCat(parts=ps):
            return concat(*(encode_regex(p) for p in ps))
        case ZUnion(parts=ps):
            return union(*(encode_regex(p) for p in ps))
        case ZStar(arg=a):
            return star(encode_regex(a))
        case ZPlus(arg=a):
            return plus(encode_regex(a))
        case ZPow(arg=a, power=k):
            check_magnitude("repetition count", k)
            return power(encode_regex(a), k)
    raise TypeError(f"not a regex: {r!r}")


# ---------------------------------------------------------------------------
# word-level formulas


_names: list[str] = []  # code point - 0x10000 -> variable name
_codes: dict[str, str] = {}  # variable name -> code point


def var(name: str) -> str:
    """The code point that stands for the word variable name in a side."""
    c = _codes.get(name)
    if c is None:
        c = _codes[name] = chr(0x10000 + len(_names))
        _names.append(name)
    return c


def var_name(c: str) -> str:
    """The name of the word variable whose code point is c."""
    return _names[ord(c) - 0x10000]


def side_json(side: str) -> list[dict]:
    """A side as wp-1 tokens: {"v": name} for a variable, {"l": ch} for
    a letter."""
    return [{"v": var_name(c)} if c > "d" else {"l": c} for c in side]


@dataclass(frozen=True)
class WEq:
    left: str
    right: str


@dataclass(frozen=True)
class WIn:
    var: str  # a code point, as in a side
    dfa: Dfa


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
    """Is there a word for each variable that makes the matrix true?"""

    variables: tuple[str, ...]  # every word variable, in a fixed order
    matrix: Matrix  # over WEq and WIn; frame and witness memberships conjoined

    def to_json(self) -> dict:
        eqs, diseqs, members, rest = [], [], {}, []

        def peel(w: Matrix):
            match w:
                case And(left=l, right=r):
                    peel(l)
                    peel(r)
                case WEq(left=l, right=r):
                    eqs.append({"left": side_json(l), "right": side_json(r)})
                case Not(arg=WEq(left=l, right=r)):
                    diseqs.append({"left": side_json(l), "right": side_json(r)})
                case WIn(var=c, dfa=d):
                    x = var_name(c)
                    members[x] = d.intersect(members[x]) if x in members else d
                case _:
                    rest.append(w)

        def matrix_json(w: Matrix) -> dict:
            match w:
                case BoolLit(value=v):
                    return {"op": "true" if v else "false"}
                case WEq(left=l, right=r):
                    return {"op": "eq", "left": side_json(l), "right": side_json(r)}
                case WIn(var=x, dfa=d):
                    return {"op": "member", "var": var_name(x), "dfa": dfa_json(d)}
                case Not(arg=a):
                    return {"op": "not", "arg": matrix_json(a)}
                case And(left=l, right=r):
                    return {"op": "and", "left": matrix_json(l), "right": matrix_json(r)}
                case Or(left=l, right=r):
                    return {"op": "or", "left": matrix_json(l), "right": matrix_json(r)}
            raise TypeError(f"not a word formula: {w!r}")

        peel(self.matrix)
        return {
            "schema": "wp-1",
            "kind": "existential",
            "vars": list(self.variables),
            "equations": eqs,
            "disequations": diseqs,
            "memberships": {x: dfa_json(d) for x, d in sorted(members.items())},
            "matrix": matrix_json(conj(rest)),
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
    """Translates a core matrix to a word formula. Its match cases are
    the one definition of the core form (listed in elaborate's module
    docstring): And, Or, and Not on a sequence equation or membership,
    over the core atoms and sequence terms. Anything else raises
    ElaborationError."""

    def __init__(self):
        self.extra: list[WIn] = []  # witness memberships
        self.pair_witness: dict[frozenset, str] = {}
        self.pair_order: list[str] = []
        self.used_components: set[str] = set()

    def witness(self, x: str, y: str) -> str:
        """The code point of the magnitude witness shared by x and y."""
        self.used_components.update((x, y))
        key = frozenset((x, y))
        if key in self.pair_witness:
            return self.pair_witness[key]
        p = f"$p{len(self.pair_order) + 1}"
        self.pair_witness[key] = pv = var(p)
        self.pair_order.append(p)
        self.extra.append(WIn(pv, bplus_dfa()))
        return pv

    def side(self, t: SeqTerm) -> str:
        match t:
            case SVar(name=n):
                return var(n)
            case SEmpty():
                return ""
            case SInt(value=IConst(value=k)):
                return encode_int(k)
            case SInt(value=IOfSeq(arg=SVar(name=n))):
                self.used_components.add(n)
                return var(h_of(n))
            case SConcat(left=l, right=r):
                return self.side(l) + self.side(r)
        raise ElaborationError(f"not in core form: {t!r}")

    def sign_pair(self, x: str, cx: str, y: str, cy: str) -> Matrix:
        # membership rather than an equation: contradictory sign cases
        # then cancel during clause assembly instead of surviving as
        # disequations
        return And(WIn(var(sg_of(x)), lit(cx)), WIn(var(sg_of(y)), lit(cy)))

    def less_than(self, x: str, y: str) -> Matrix:
        pv = self.witness(x, y)
        mx, my = var(m_of(x)), var(m_of(y))
        return disj(
            [
                self.sign_pair(x, "d", y, "c"),
                And(self.sign_pair(x, "c", y, "c"), WEq(my, mx + pv)),
                And(self.sign_pair(x, "d", y, "d"), WEq(mx, my + pv)),
            ]
        )

    def sum_atom(self, k: str, i: str, j: str) -> Matrix:
        pv = self.witness(i, j)
        hk = var(h_of(k))
        mi, mj = var(m_of(i)), var(m_of(j))
        si, sj = var(sg_of(i)), var(sg_of(j))
        same = disj(
            [
                And(self.sign_pair(i, "c", j, "c"), WEq(hk, "a" + si + mi + mj + "a")),
                And(self.sign_pair(i, "d", j, "d"), WEq(hk, "a" + si + mi + mj + "a")),
            ]
        )
        differ_cases = []
        for ci, cj in (("c", "d"), ("d", "c")):
            signs = self.sign_pair(i, ci, j, cj)
            differ_cases.append(And(signs, And(WEq(mi, mj), WEq(hk, "aca"))))
            differ_cases.append(
                And(signs, And(WEq(mi, mj + pv), WEq(hk, "a" + si + pv + "a")))
            )
            differ_cases.append(
                And(signs, And(WEq(mj, mi + pv), WEq(hk, "a" + sj + pv + "a")))
            )
        return disj([same] + differ_cases)

    def atom(self, m: Matrix) -> Matrix:
        match m:
            case BoolLit():
                return m
            case SeqEq(left=l, right=r):
                return WEq(self.side(l), self.side(r))
            case InRe(arg=SVar(name=x), regex=rx):
                return WIn(var(x), encode_regex(rx))
            case IntCmp(op="==", left=IOfSeq(arg=SVar(name=x)), right=IConst(value=0)):
                self.used_components.add(x)
                return WEq(var(h_of(x)), "aca")
            case IntCmp(op="==", left=IOfSeq(arg=SVar(name=x)), right=IConst(value=1)):
                self.used_components.add(x)
                return WEq(var(h_of(x)), "acba")
            case IntCmp(
                op="==",
                left=IOfSeq(arg=SVar(name=x)),
                right=IAdd(left=IOfSeq(arg=SVar(name=i)), right=IOfSeq(arg=SVar(name=j))),
            ):
                self.used_components.add(x)
                return self.sum_atom(x, i, j)
            case IntCmp(op="==", left=IOfSeq(arg=SVar(name=x)), right=IOfSeq(arg=SVar(name=y))):
                self.used_components.update((x, y))
                return WEq(var(h_of(x)), var(h_of(y)))
            case IntCmp(op="<", left=IOfSeq(arg=SVar(name=x)), right=IOfSeq(arg=SVar(name=y))):
                return self.less_than(x, y)
        raise ElaborationError(f"not in core form: {m!r}")

    def mat(self, m: Matrix) -> Matrix:
        match m:
            case And(left=l, right=r):
                return And(self.mat(l), self.mat(r))
            case Or(left=l, right=r):
                return Or(self.mat(l), self.mat(r))
            case Not(arg=SeqEq() | InRe() as a):
                return Not(self.atom(a))
        return self.atom(m)  # Imp, Iff or any other Not raises there


def frame_constraints(x: str) -> list[Matrix]:
    xv, h, sg, m, t = var(x), var(h_of(x)), var(sg_of(x)), var(m_of(x)), var(t_of(x))
    return [
        WIn(xv, lstar_dfa()),
        WEq(xv + "aca", h + t),
        WEq(h, "a" + sg + m + "a"),
        WIn(sg, sign_dfa()),
        WIn(m, bstar_dfa()),
        WIn(t, lstar_dfa()),
    ]


def encode_elaboration(elab: Elaboration) -> WordProblem:
    """Encode an elaborated formula; ElaborationError if its matrix is
    not in core form."""
    core_vars = search_names(elab.formula)

    tr = _Translator()
    wmatrix = tr.mat(elab.formula.matrix)

    # Every variable ranges over encodings; the full component frame is
    # attached only where some atom looks at the first block.
    frame: list[Matrix] = []
    variables = list(core_vars)
    for x in core_vars:
        if x in tr.used_components:
            frame.extend(frame_constraints(x))
            variables.extend((h_of(x), sg_of(x), m_of(x), t_of(x)))
        else:
            frame.append(WIn(var(x), lstar_dfa()))
    frame.extend(tr.extra)
    variables.extend(tr.pair_order)

    return WordProblem(
        variables=tuple(variables),
        matrix=And(conj(frame), wmatrix) if frame else wmatrix,
    )


def encode(f: Formula) -> WordProblem:
    """Elaborate and encode an existential or prefix-free formula as a
    word problem."""
    return encode_elaboration(elaborate(f))


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

    def wf(w: Matrix) -> int:
        match w:
            case BoolLit():
                return 1
            case WEq(left=l, right=r):
                return 1 + len(l) + len(r)
            case WIn(dfa=d):
                return 1 + d.n
            case Not(arg=a):
                return 1 + wf(a)
            case And(left=l, right=r) | Or(left=l, right=r):
                return 1 + wf(l) + wf(r)
        raise TypeError(f"not a word formula: {w!r}")

    return wf(wp.matrix)

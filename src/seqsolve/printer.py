"""Pretty printer, the inverse of the parser.

Printing drops the explicit coercion nodes (an integer used as a
sequence, a sequence used as an integer): the surface syntax leaves
them implicit and the parser reintroduces them deterministically, so
``parse(print(f))`` equals ``f`` modulo source locations for every tree
the parser can produce (a ``sorted(t)`` atom reparses in annotation
mode).
"""

from __future__ import annotations

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
    Sorted,
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

# Precedence levels for boolean connectives, loosest first.
_IFF, _IMP, _OR, _AND, _NOT = range(5)

# Term precedence: additive < concat < postfix/primary.
_ADD, _CAT, _POST = range(3)


def print_formula(f: Formula) -> str:
    # an empty prefix binds nothing and has no syntax: the closed matrix
    # alone reads to the same verdict, existential or universal
    if not f.prefix:
        return print_matrix(f.matrix)
    return f"{f.quantifier} {', '.join(f.prefix)} . {print_matrix(f.matrix)}"


def print_matrix(m: Matrix) -> str:
    return _matrix(m, _IFF)


def _paren(text: str, need: bool) -> str:
    return f"({text})" if need else text


def _matrix(m: Matrix, ctx: int, bar: bool = False) -> str:
    """``bar``: a ``|`` follows the text unless it is parenthesized (an
    Or, Imp or Iff met with it set always is). A regex reads on across a
    ``|``, even one after a closing parenthesis of its own, so an ``in``
    atom is parenthesized whole there."""
    match m:
        case BoolLit(value=v):
            return "true" if v else "false"
        case Not(arg=a):
            return "!" + _matrix(a, _NOT, bar)
        case And(left=l, right=r):
            p = ctx > _AND
            return _paren(f"{_matrix(l, _NOT)} & {_matrix(r, _AND, bar and not p)}", p)
        case Or(left=l, right=r):
            return _paren(f"{_matrix(l, _AND, True)} | {_matrix(r, _OR)}", ctx > _OR)
        case Imp(left=l, right=r):
            return _paren(f"{_matrix(l, _OR)} => {_matrix(r, _IMP)}", ctx > _IMP)
        case Iff(left=l, right=r):
            return _paren(f"{_matrix(l, _IMP)} <=> {_matrix(r, _IFF)}", ctx > _IFF)
        case SeqEq(left=l, right=r):
            return f"{print_seq_term(l)} = {print_seq_term(r)}"
        case InRe(arg=t, regex=rx):
            return _paren(f"{print_seq_term(t)} in {print_regex(rx)}", bar)
        case IntCmp(op=op, left=l, right=r):
            return f"{print_int_term(l)} {op} {print_int_term(r)}"
        case LenCmp(arg=t, op=op, bound=k):
            return f"len({print_seq_term(t)}) {op} {k}"
        case Sorted(arg=t):
            return f"sorted({print_seq_term(t)})"
    raise TypeError(f"not a matrix node: {m!r}")


def print_seq_term(t: SeqTerm) -> str:
    return _seq(t, _ADD)


def _seq(t: SeqTerm, ctx: int) -> str:
    match t:
        case SVar(name=n):
            return n
        case SEmpty():
            return "eps"
        case SInt(value=i):
            # The coercion is implicit in the source language.
            return _int(i, ctx)
        case SConcat(left=l, right=r):
            return _paren(f"{_seq(l, _POST)} ++ {_seq(r, _CAT)}", ctx > _CAT)
        case SSub(arg=a, lo=1, hi=1):
            return f"first({_seq(a, _ADD)})"
        case SSub(arg=a, lo=0, hi=0):
            return f"last({_seq(a, _ADD)})"
        case SSub(arg=a, lo=2, hi=0):
            return f"rest({_seq(a, _ADD)})"
        case SSub(arg=a, lo=lo, hi=hi):
            return f"{_seq(a, _POST)}[{lo}:{hi}]"
        case SRev(arg=a):
            return f"rev({_seq(a, _ADD)})"
    raise TypeError(f"not a sequence term: {t!r}")


def print_int_term(i: IntTerm) -> str:
    return _int(i, _ADD)


def _int(i: IntTerm, ctx: int) -> str:
    match i:
        case IConst(value=v):
            return _paren(str(v), v < 0 and ctx > _ADD)
        case IOfSeq(arg=t):
            return _seq(t, ctx)
        case IAdd(left=l, right=r):
            return _paren(f"{_int(l, _ADD)} + {_int(r, _CAT)}", ctx > _ADD)
        case ISub(left=l, right=r):
            return _paren(f"{_int(l, _ADD)} - {_int(r, _CAT)}", ctx > _ADD)
    raise TypeError(f"not an integer term: {i!r}")


# Regex precedence: union < concatenation < postfix.
_RUNION, _RCAT, _RPOST = range(3)


def print_regex(r: ZRegex) -> str:
    return _regex(r, _RUNION)


def _regex(r: ZRegex, ctx: int) -> str:
    match r:
        case ZLit(value=v):
            return _paren(str(v), v < 0 and ctx >= _RPOST)
        case ZAny():
            return "INT"
        case ZSet(values=vs):
            return "{" + ", ".join(str(v) for v in vs) + "}"
        case ZCat(parts=()):
            return "eps"
        case ZCat(parts=ps):
            return _paren(" ".join(_regex(p, _RCAT) for p in ps), ctx > _RCAT)
        case ZUnion(parts=ps):
            return _paren(" | ".join(_regex(p, _RUNION + 1) for p in ps), ctx > _RUNION)
        case ZStar(arg=a):
            return f"{_regex(a, _RPOST)}*"
        case ZPlus(arg=a):
            return f"{_regex(a, _RPOST)}+"
        case ZPow(arg=a, power=k):
            return f"{_regex(a, _RPOST)}^{k}"
    raise TypeError(f"not a regex node: {r!r}")

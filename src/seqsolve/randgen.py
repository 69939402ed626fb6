"""Seeded random instance generators for differential testing.

Two kinds of instances are produced: small surface formulas, which are
fed through the full pipeline and compared against bounded
enumeration, and quadratic word-equation clauses (every variable
occurs at most twice), on which the search is complete and can be
compared against brute force over short words.

The generators take an explicit ``random.Random``; the command line
takes ``--seed``. Nothing here is used by the solver itself.

    python3 -m seqsolve.randgen --seed 7 --count 10
    python3 -m seqsolve.randgen --seed 7 --count 5 --kind clause
"""

from __future__ import annotations

import argparse
import json
import random

from .ast import (
    And,
    EXISTS,
    Formula,
    IAdd,
    IConst,
    INT_OPS,
    InRe,
    IntCmp,
    IOfSeq,
    ISub,
    LenCmp,
    Matrix,
    Not,
    Or,
    SConcat,
    SEmpty,
    SInt,
    SSub,
    SVar,
    SeqEq,
    SeqTerm,
    ZAny,
    ZCat,
    ZLit,
    ZStar,
    ZUnion,
    free_vars,
)
from .encode import side_json, var
from .printer import print_formula

VAR_POOL = ("x", "y", "z")


# ---------------------------------------------------------------------------
# surface formulas


def _seq_term(rng: random.Random, names, lo: int, hi: int, depth: int = 2) -> SeqTerm:
    kinds = ["var", "var", "int", "eps"]
    if depth > 0:
        kinds += ["cat", "cat", "window"]
    match rng.choice(kinds):
        case "var":
            return SVar(rng.choice(names))
        case "int":
            return SInt(IConst(rng.randint(lo, hi)))
        case "eps":
            return SEmpty()
        case "cat":
            return SConcat(
                _seq_term(rng, names, lo, hi, depth - 1),
                _seq_term(rng, names, lo, hi, depth - 1),
            )
        case _:
            k1 = rng.randint(1, 3)
            if rng.random() < 0.3:
                k2 = rng.choice((0, -1))
            else:
                k2 = rng.randint(k1, 3)
            return SSub(SVar(rng.choice(names)), k1, k2)


def _int_term(rng: random.Random, names, lo: int, hi: int):
    match rng.choice(("first", "const", "sum", "diff")):
        case "first":
            return IOfSeq(SVar(rng.choice(names)))
        case "const":
            return IConst(rng.randint(lo, hi))
        case "sum":
            return IAdd(IOfSeq(SVar(rng.choice(names))), IConst(rng.randint(lo, hi)))
        case _:
            return ISub(IOfSeq(SVar(rng.choice(names))), IConst(rng.randint(lo, hi)))


def _regex(rng: random.Random, lo: int, hi: int):
    k1 = rng.randint(lo, hi)
    k2 = rng.randint(lo, hi)
    match rng.randrange(4):
        case 0:
            return ZStar(ZAny())
        case 1:
            return ZCat((ZStar(ZAny()), ZLit(k1), ZStar(ZAny())))
        case 2:
            return ZStar(ZUnion((ZLit(k1), ZLit(k2))))
        case _:
            return ZCat((ZLit(k1), ZStar(ZLit(k2))))


def _atom(rng: random.Random, names, lo: int, hi: int) -> Matrix:
    match rng.choice(("seqeq", "seqeq", "intcmp", "len", "inre")):
        case "seqeq":
            return SeqEq(
                _seq_term(rng, names, lo, hi), _seq_term(rng, names, lo, hi)
            )
        case "intcmp":
            return IntCmp(
                rng.choice(INT_OPS),
                _int_term(rng, names, lo, hi),
                _int_term(rng, names, lo, hi),
            )
        case "len":
            return LenCmp(
                SVar(rng.choice(names)), rng.choice(INT_OPS), rng.randint(0, 3)
            )
        case _:
            return InRe(SVar(rng.choice(names)), _regex(rng, lo, hi))


def gen_formula(
    rng: random.Random,
    max_vars: int = 3,
    max_atoms: int = 4,
    lo: int = -2,
    hi: int = 2,
) -> Formula:
    """A random existential formula: a small boolean combination of
    atoms over at most ``max_vars`` variables with constants in
    [lo, hi]."""
    names = VAR_POOL[: rng.randint(1, max_vars)]
    atoms = [_atom(rng, names, lo, hi) for _ in range(rng.randint(1, max_atoms))]
    m = atoms[0]
    for a in atoms[1:]:
        combine = rng.choice((And, And, Or))
        if rng.random() < 0.25:
            a = Not(a)
        m = combine(m, a)
    used = tuple(sorted(free_vars(Formula(None, (), m))))
    return Formula(EXISTS, used or ("x",), m)


# ---------------------------------------------------------------------------
# quadratic word-equation clauses


def gen_quadratic_clause(
    rng: random.Random,
    max_vars: int = 3,
    max_eqs: int = 2,
    alphabet: str = "ab",
) -> list[tuple[str, str]]:
    """Random equations where each variable occurs at most twice in
    the whole system, so Nielsen search terminates without budget
    pressure. Letters are drawn from a two-letter alphabet to keep
    brute-force cross-checking cheap. Sides are str, as the encoder
    builds them: a variable is its code point (encode.var)."""
    n_vars = rng.randint(1, max_vars)
    names = VAR_POOL[:n_vars]
    # a global occurrence pool: each variable contributes twice
    pool = [var(n) for n in names for _ in range(2)]
    rng.shuffle(pool)
    n_eqs = rng.randint(1, max_eqs)
    eqs = []
    for _ in range(n_eqs):
        sides = []
        for _ in range(2):
            side = ""
            for _ in range(rng.randint(0, 3)):
                if pool and rng.random() < 0.45:
                    side += pool.pop()
                else:
                    side += rng.choice(alphabet)
            sides.append(side)
        eqs.append((sides[0], sides[1]))
    return eqs


# ---------------------------------------------------------------------------
# command line


def _clause_json(eqs) -> str:
    return json.dumps(
        [{"left": side_json(l), "right": side_json(r)} for l, r in eqs]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m seqsolve.randgen",
        description="emit random test instances, one per line",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--count", type=int, default=10, help="instances to emit")
    parser.add_argument(
        "--kind", choices=("formula", "clause"), default="formula",
        help="surface formulas or quadratic word-equation clauses",
    )
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        if args.kind == "formula":
            print(print_formula(gen_formula(rng)))
        else:
            print(_clause_json(gen_quadratic_clause(rng)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

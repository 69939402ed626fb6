"""Reference semantics tests.

The subsequence cases are hand-computed from the definition before the
code ran and frozen here [DERIVED]. The pruned search of
``brute_force_sat`` is held against the plain enumeration loop, which
it must match model for model. The rest are small direct checks of the
evaluator [TRIVIAL].
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from seqsolve.ast import (
    FORALL,
    IConst,
    IOfSeq,
    IntCmp,
    LenCmp,
    SEmpty,
    SInt,
    SVar,
    atoms,
)
from seqsolve import oracle
from seqsolve.oracle import (
    Bounds,
    brute_force_sat,
    enum_seqs,
    formula_value,
    int_value,
    iter_envs,
    matrix_value,
    regex_match,
    search_names,
    seq_value,
    subseq_eval,
)
from seqsolve.parser import parse_formula, parse_matrix
from seqsolve.randgen import gen_formula
from seqsolve.wordsolver import negation

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


# [DERIVED] frozen from the 4-case definition
SUBSEQ_CASES = [
    ((5, 6, 7), 1, 2, (5, 6)),
    ((5, 6, 7), 2, 0, (6, 7)),
    ((5, 6, 7), 2, 5, ()),
    ((5, 6, 7), -1, 0, (6, 7)),
    ((5, 6, 7), 0, 0, (7,)),
    ((5, 6, 7), 1, 1, (5,)),
    ((5, 6, 7), 2, 2, (6,)),
    ((5, 6, 7), -2, -1, (5, 6)),
    ((5, 6, 7), 1, 3, (5, 6, 7)),
    ((5, 6, 7), 1, 0, (5, 6, 7)),
    ((5, 6, 7), 3, 0, (7,)),
    ((5, 6, 7), 0, 1, ()),
    ((5, 6, 7), -3, 0, ()),
    ((), 1, 1, ()),
    ((), 0, 0, ()),
    ((), 1, 0, ()),
    ((9,), 0, 0, (9,)),
    ((9,), 1, 0, (9,)),
    ((9,), 1, 1, (9,)),
    ((9,), 2, 0, ()),
    ((9,), 2, 2, ()),
    ((9,), -1, 0, ()),
]


@pytest.mark.parametrize("v,k1,k2,expected", SUBSEQ_CASES)
def test_subseq_eval(v, k1, k2, expected):
    assert subseq_eval(v, k1, k2) == expected


def test_empty_sequence_denotes_zero():
    assert int_value(IOfSeq(SEmpty()), {}) == 0
    assert int_value(IOfSeq(SVar("x")), {"x": ()}) == 0
    assert int_value(IOfSeq(SVar("x")), {"x": (7, 8)}) == 7


def test_integer_denotes_singleton():
    assert seq_value(SInt(IConst(5)), {}) == (5,)


def test_term_evaluation_via_parser():
    m = parse_matrix("first(x ++ y) == last(y)")
    assert matrix_value(m, {"x": (), "y": (3,)}) is True
    assert matrix_value(m, {"x": (1,), "y": (3,)}) is False
    m2 = parse_matrix("rev(x) = y")
    assert matrix_value(m2, {"x": (1, 2), "y": (2, 1)}) is True
    m3 = parse_matrix("x[2:-1] = y")
    assert matrix_value(m3, {"x": (1, 2, 3, 4), "y": (2, 3)}) is True


REGEX_CASES = [
    ("(2 3)*", (), True),
    ("(2 3)*", (2, 3, 2, 3), True),
    ("(2 3)*", (2, 3, 2), False),
    ("INT+", (), False),
    ("INT+", (0,), True),
    ("INT^3", (1, 1, 1), True),
    ("INT^3", (1, 1), False),
    ("{1, -2}", (-2,), True),
    ("{1, -2}", (2,), False),
    ("eps", (), True),
    ("eps", (1,), False),
    ("-4 INT*", (-4, 9), True),
    ("-4 INT*", (4, 9), False),
    ("1 | 2 2", (2, 2), True),
    ("1 | 2 2", (1, 2), False),
    ("INT^0", (), True),
    # the largest count that is not refused
    ("INT^1000000", (1, 1, 1), False),
    ("(INT*)^1000000", (1, 1, 1), True),
]


@pytest.mark.parametrize("rx,s,expected", REGEX_CASES)
def test_regex_match(rx, s, expected):
    m = parse_matrix(f"x in {rx}")
    assert regex_match(m.regex, s) is expected


@pytest.mark.parametrize(
    "atom",
    [
        IntCmp("=<", IConst(1), IConst(2)),
        LenCmp(SEmpty(), "=<", 2),
    ],
    ids=["IntCmp", "LenCmp"],
)
def test_unknown_comparison_raises(atom):
    with pytest.raises(ValueError, match="unknown comparison '=<'"):
        matrix_value(atom, {})


def test_oracle_imports_none_of_the_solver():
    # the reference interpreter shares only the syntax with the pipeline
    # it checks
    code = (
        "import sys, seqsolve.oracle\n"
        "print(*sorted(m for m in sys.modules if m.startswith('seqsolve.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    loaded = proc.stdout.split()
    assert "seqsolve.oracle" in loaded
    for name in ("dfa", "elaborate", "encode", "wordsolver"):
        assert f"seqsolve.{name}" not in loaded


def test_enum_order_is_length_then_position():
    b = Bounds(max_len=2, values=(1, 2))
    assert list(enum_seqs(b)) == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_formula_value_quantifiers():
    f = parse_formula("forall x . len(x) <= 2")
    assert formula_value(f, bounds=Bounds(max_len=2, values=(0,))) is True
    assert formula_value(f, bounds=Bounds(max_len=3, values=(0,))) is False
    g = parse_formula("exists x . x = x ++ x & len(x) > 0")
    assert formula_value(g, bounds=Bounds(max_len=2, values=(0, 1))) is False


def test_brute_force_sat_returns_first_in_order():
    m = parse_matrix("len(x) == 1")
    got = brute_force_sat(m, ("x",), Bounds(max_len=2, values=(1, 2)))
    assert got == {"x": (1,)}
    m2 = parse_matrix("x = y ++ y & len(x) == 2")
    got2 = brute_force_sat(m2, ("x", "y"), Bounds(max_len=2, values=(1, 2)))
    assert got2 == {"x": (1, 1), "y": (1,)}
    assert brute_force_sat(parse_matrix("len(x) > 3"), ("x",), Bounds(max_len=2, values=(1,))) is None
    with pytest.raises(KeyError, match="y"):
        brute_force_sat(parse_matrix("x = y"), ("x",))


# ---------------------------------------------------------------------------
# the pruned search returns the plain loop's first model


def plain_first_model(m, names, bounds):
    return next((e for e in iter_envs(names, bounds) if matrix_value(m, e)), None)


@pytest.mark.parametrize("seed", [0, 1])
def test_search_matches_plain_loop_on_random_formulas(seed):
    bounds = Bounds(2, (-2, -1, 0, 1, 2))
    rng = random.Random(seed)
    for i in range(500):
        f = gen_formula(rng, max_vars=3, max_atoms=4, lo=-2, hi=2)
        got = brute_force_sat(f.matrix, f.prefix, bounds)
        assert got == plain_first_model(f.matrix, f.prefix, bounds), (seed, i)


# every corpus file but the 5-variable disjunction_* and injectivity_*
# files (about 5 s each for the plain loop) and the 12-variable
# mergesort_final_vc.seq (which the plain loop does not finish)
EQUIVALENCE_FILES = [
    "bounded_equality_hold.seq",
    "bounded_equality_viol.seq",
    "boundedness_hold.seq",
    "boundedness_viol.seq",
    "comparison_hold.seq",
    "comparison_viol.seq",
    "equality_hold.seq",
    "equality_viol.seq",
    "len_clash.seq",
    "membership_hold.seq",
    "membership_viol.seq",
    "nonmembership_hold.seq",
    "nonmembership_viol.seq",
    "partitioning_hold.seq",
    "partitioning_viol.seq",
    "periodicity_101.seq",
    "periodicity_viol.seq",
    "reversal_step_vc.seq",
    "sorted_123.seq",
    "sorted_21.seq",
    "sorted_nonstrict_112.seq",
    "sorted_nonstrict_21.seq",
]


@pytest.mark.parametrize("name", EQUIVALENCE_FILES)
def test_search_matches_plain_loop_on_corpus(name):
    # a universal file is decided as `seqsolve oracle` does: by
    # searching for a model of its negation
    f = parse_formula((CORPUS / name).read_text())
    if f.quantifier == FORALL:
        f = negation(f)
    names = search_names(f)
    bounds = Bounds(2, (-1, 0, 1))
    assert brute_force_sat(f.matrix, names, bounds) == plain_first_model(f.matrix, names, bounds)


HAND_BOUNDS = Bounds(2, (1, 2))


@pytest.mark.parametrize(
    "src,names,expected",
    [
        # x = (2) makes the matrix true before y and z are bound
        ("first(x) == 2 | x = y ++ z & len(z) == 2", ("x", "y", "z"), {"x": (2,), "y": (), "z": ()}),
        # u is in the prefix but not in the matrix
        ("len(x) == 2 & first(x) == 2", ("x", "u"), {"x": (2, 1), "u": ()}),
        ("len(x) == 1", ("u", "x"), {"u": (), "x": (1,)}),
        ("len(x) > 2", ("u", "x"), None),
        # no prefix at all
        ("1 = 1", (), {}),
        ("1 = 2", (), None),
        # the other connectives, with a definite side next to an unknown one
        ("(x = 2 => len(y) == 2) & (len(y) == 1 <=> first(x) == 1)", ("x", "y"), {"x": (), "y": ()}),
        ("!(len(x) == 2 <=> len(y) == 2) & !(len(y) == 1 => x = y)", ("x", "y"), {"x": (1, 1), "y": (1,)}),
        ("len(x) == 1 => len(y) > 5", ("x", "y"), {"x": (), "y": ()}),
        ("len(y) == 1 => len(x) == 2", ("x", "y"), {"x": (), "y": ()}),
        ("!(len(x) < 2 => x = y) & !(len(y) == 0 | len(y) == 2)", ("x", "y"), {"x": (), "y": (1,)}),
        # once x is bound, one side of => and <=> is definite and the
        # other still reads y and z: on the left, on the right, under !
        (
            "first(x) == 2 & (len(x) == 1 => y = z ++ z) & len(y) == 2",
            ("x", "y", "z"),
            {"x": (2,), "y": (1, 1), "z": (1,)},
        ),
        (
            "first(x) == 2 & (y = z ++ z => len(x) == 2) & len(y) == 2",
            ("x", "y", "z"),
            {"x": (2,), "y": (1, 1), "z": ()},
        ),
        (
            "len(x) == 1 & (first(x) == 1 <=> y = z ++ 1) & len(y) == 2",
            ("x", "y", "z"),
            {"x": (1,), "y": (1, 1), "z": (1,)},
        ),
        (
            "len(x) == 1 & (y = z ++ 1 <=> first(x) == 1) & len(y) == 2",
            ("x", "y", "z"),
            {"x": (1,), "y": (1, 1), "z": (1,)},
        ),
        (
            "first(x) == 2 & !(len(x) == 1 => y = z ++ z) & len(y) == 2",
            ("x", "y", "z"),
            {"x": (2,), "y": (1, 1), "z": ()},
        ),
        (
            "first(x) == 2 & !(y = z ++ z => len(x) == 2) & len(z) == 1",
            ("x", "y", "z"),
            {"x": (2,), "y": (1, 1), "z": (1,)},
        ),
        (
            "len(x) == 1 & !(first(x) == 2 <=> y = z ++ 1) & len(y) == 2",
            ("x", "y", "z"),
            {"x": (1,), "y": (1, 1), "z": (1,)},
        ),
        (
            "len(x) == 1 & !(y = z ++ 1 <=> first(x) == 2) & len(y) == 2",
            ("x", "y", "z"),
            {"x": (1,), "y": (1, 1), "z": (1,)},
        ),
        # two memberships with different regexes over the same variable
        ("x in 1 2* & !(x in 1 | 2 2) & y = z ++ x", ("x", "y", "z"), {"x": (1, 2), "y": (1, 2), "z": ()}),
        ("z in (1 | 2) 2 & !(z in 2 INT) & x ++ z = y", ("x", "y", "z"), {"x": (), "y": (1, 2), "z": (1, 2)}),
    ],
)
def test_search_hand_cases(src, names, expected):
    m = parse_matrix(src)
    assert plain_first_model(m, names, HAND_BOUNDS) == expected
    assert brute_force_sat(m, names, HAND_BOUNDS) == expected


def test_atoms_are_evaluated_once_per_value(monkeypatch):
    # the first two atoms read only x: each is evaluated once for each
    # value of x, not again for every value of y. The membership of y
    # is matched once for each value of y, not again under each x.
    m = parse_matrix("x in 1* & len(x) < 2 & y in 2* & len(x ++ y) > 4")
    short = next(a for a in atoms(m) if isinstance(a, LenCmp) and a.op == "<")
    matched, compared = [], []

    def counting_match(rx, s):
        matched.append(s)
        return regex_match(rx, s)

    def counting_value(a, env):
        if a is short:
            compared.append(env["x"])
        return matrix_value(a, env)

    monkeypatch.setattr(oracle, "regex_match", counting_match)
    monkeypatch.setattr(oracle, "matrix_value", counting_value)
    assert brute_force_sat(m, ("x", "y"), HAND_BOUNDS) is None
    values = sorted(enum_seqs(HAND_BOUNDS))
    assert sorted(matched) == sorted(values + values)
    # len(x) < 2 is reached only where x is in 1*
    assert compared == [(), (1,), (1, 1)]


# ---------------------------------------------------------------------------
# the names a formula's search binds


def test_formula_value_binds_free_variables():
    assert formula_value(parse_formula("x = x ++ 1")) is False
    assert formula_value(parse_formula("x = x")) is True
    assert search_names(parse_formula("y = x ++ z")) == ("x", "y", "z")
    assert search_names(parse_formula("exists z, x . x = z")) == ("z", "x")

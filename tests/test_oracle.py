"""Reference semantics tests.

The subsequence cases are hand-computed from the definition before the
code ran and frozen here [DERIVED]. The rest are small direct checks
of the evaluator [TRIVIAL].
"""

import pytest

from seqsolve.ast import IConst, IOfSeq, SEmpty, SInt, SVar
from seqsolve.oracle import (
    Bounds,
    brute_force_sat,
    enum_seqs,
    formula_value,
    int_value,
    matrix_value,
    regex_match,
    seq_value,
    subseq_eval,
)
from seqsolve.parser import parse_formula, parse_matrix


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
]


@pytest.mark.parametrize("rx,s,expected", REGEX_CASES)
def test_regex_match(rx, s, expected):
    m = parse_matrix(f"x in {rx}")
    assert regex_match(m.regex, s) is expected


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

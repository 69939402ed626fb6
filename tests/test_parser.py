"""Parser and printer tests.

Truth sources: expected ASTs are hand-built from the grammar
([DERIVED], written before running the parser on each input);
round-trip and error cases are [TRIVIAL] properties of the interface.
"""

import random

import pytest

from seqsolve.ast import (
    EXISTS,
    FORALL,
    And,
    BoolLit,
    Formula,
    IAdd,
    IConst,
    IOfSeq,
    ISub,
    Imp,
    InRe,
    IntCmp,
    LenCmp,
    Not,
    Or,
    SConcat,
    SEmpty,
    SInt,
    SRev,
    SSub,
    SVar,
    SeqEq,
    Sorted,
    ZAny,
    ZCat,
    ZLit,
    ZPlus,
    ZPow,
    ZSet,
    ZStar,
    ZUnion,
    qf,
)
from seqsolve.parser import (
    FragmentError,
    ParseError,
    parse_formula,
    parse_matrix,
    parse_seq_term,
)
from seqsolve.oracle import formula_value
from seqsolve.printer import print_formula, print_matrix
from seqsolve.randgen import gen_formula


# [DERIVED] hand-built trees
def test_concat_is_right_associative():
    m = parse_matrix("x ++ y ++ z = w")
    assert m == SeqEq(
        SConcat(SVar("x"), SConcat(SVar("y"), SVar("z"))), SVar("w")
    )


def test_addition_is_left_associative_and_looser_than_concat():
    m = parse_matrix("x ++ y + 2 == 5")
    # (x ++ y) + 2, the sum coerces both operands to integers
    assert m == IntCmp(
        "==",
        IAdd(IOfSeq(SConcat(SVar("x"), SVar("y"))), IConst(2)),
        IConst(5),
    )


def test_subtraction_builds_isub():
    m = parse_matrix("a - b - 1 == 0")
    assert m == IntCmp(
        "==",
        ISub(ISub(IOfSeq(SVar("a")), IOfSeq(SVar("b"))), IConst(1)),
        IConst(0),
    )


def test_zero_and_one_parse_as_int_constants():
    m = parse_matrix("x == 0 & y == 1")
    assert m == And(
        IntCmp("==", IOfSeq(SVar("x")), IConst(0)),
        IntCmp("==", IOfSeq(SVar("y")), IConst(1)),
    )


def test_integer_literal_in_sequence_position_is_singleton():
    assert parse_matrix("x = 7") == SeqEq(SVar("x"), SInt(IConst(7)))
    assert parse_matrix("x = -7") == SeqEq(SVar("x"), SInt(IConst(-7)))


def test_first_last_rest_are_subrange_sugar():
    m = parse_matrix("first(x) = last(y) & rest(z) = eps")
    assert m == And(
        SeqEq(SSub(SVar("x"), 1, 1), SSub(SVar("y"), 0, 0)),
        SeqEq(SSub(SVar("z"), 2, 0), SEmpty()),
    )


def test_subrange_indices_may_be_negative():
    assert parse_matrix("x[2:-1] = eps") == SeqEq(SSub(SVar("x"), 2, -1), SEmpty())
    assert parse_matrix("x[-3:0] = eps") == SeqEq(SSub(SVar("x"), -3, 0), SEmpty())


def test_rev_node():
    assert parse_matrix("rev(x ++ y) = x") == SeqEq(
        SRev(SConcat(SVar("x"), SVar("y"))), SVar("x")
    )


def test_len_atom():
    assert parse_matrix("len(x ++ y) >= 2") == LenCmp(
        SConcat(SVar("x"), SVar("y")), ">=", 2
    )


def test_connective_precedence_and_associativity():
    m = parse_matrix("a = eps => b = eps => c = eps")
    ae = SeqEq(SVar("a"), SEmpty())
    be = SeqEq(SVar("b"), SEmpty())
    ce = SeqEq(SVar("c"), SEmpty())
    assert m == Imp(ae, Imp(be, ce))
    m2 = parse_matrix("a = eps | b = eps & !c = eps")
    assert m2 == Or(ae, And(be, Not(ce)))


def test_quantifier_prefix():
    f = parse_formula("forall x, y . x = y")
    assert f.quantifier == "forall"
    assert f.prefix == ("x", "y")
    f2 = parse_formula("exists x . exists y . x = y")
    assert f2.quantifier == "exists"
    assert f2.prefix == ("x", "y")
    f3 = parse_formula("x = x")
    assert f3.quantifier is None and f3.prefix == ()


def test_regex_grammar():
    m = parse_matrix("u in {1, -2} (INT^2 | eps)+ | 5*")
    assert m == InRe(
        SVar("u"),
        ZUnion(
            (
                ZCat(
                    (
                        ZSet((1, -2)),
                        ZPlus(ZUnion((ZPow(ZAny(), 2), ZCat(())))),
                    )
                ),
                ZStar(ZLit(5)),
            )
        ),
    )


def test_parenthesised_term_versus_matrix():
    # "(" can open either a matrix or a term; both must resolve
    assert parse_matrix("(x ++ y) = z") == SeqEq(
        SConcat(SVar("x"), SVar("y")), SVar("z")
    )
    assert parse_matrix("(x = y) & z = w") == And(
        SeqEq(SVar("x"), SVar("y")), SeqEq(SVar("z"), SVar("w"))
    )
    assert parse_matrix("((x ++ y)) = z") == SeqEq(
        SConcat(SVar("x"), SVar("y")), SVar("z")
    )
    assert parse_matrix("(x) == 3") == IntCmp("==", IOfSeq(SVar("x")), IConst(3))


def test_comments_and_whitespace():
    src = """
    # a comment
    forall x .  # trailing comment
      x = x
    """
    assert parse_formula(src) == Formula("forall", ("x",), SeqEq(SVar("x"), SVar("x")))


# [TRIVIAL] interface properties
ROUND_TRIP_CASES = [
    "forall x, y . x = y ++ y => len(x) != 1",
    "exists u . u in (2 3)* & first(u) == 2 & rev(u) = u",
    "x ++ y = y ++ x <=> x = eps | y = eps",
    "forall s . s in INT INT* => last(s) >= first(s) - 3 + -2",
    "x[2:-1] = rest(y) & len(x) > 0 & !(x = eps) & true",
    "u in {1, -2} (INT^2 | eps)+ | 5*",
    "x == -7 & -7 < y + z",
    "(x ++ 3) ++ y = x ++ 3 ++ y",
    "exists p . p in 1 INT* 1 & len(p) >= 2",
    "x = eps | false",
    "first(x ++ y) == first(x) + 0 - 1",
    "rev(rev(x)) = x & x[1:2] = x[-2:0]",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CASES)
def test_print_parse_round_trip(src):
    f = parse_formula(src)
    assert parse_formula(print_formula(f)) == f


def test_printer_matrix_round_trip_under_negation():
    m = parse_matrix("!(a = eps & b = eps) | !c = eps")
    assert parse_matrix(print_matrix(m)) == m


def test_empty_prefix_prints_the_matrix_alone():
    # vcgen closes a condition over no variables when its program has
    # none; "forall  . true" would not parse. The closed matrix alone
    # reads to the same verdict
    for q in (FORALL, EXISTS):
        for m in (BoolLit(True), BoolLit(False), parse_matrix("eps = 1 ++ eps")):
            f = Formula(q, (), m)
            g = parse_formula(print_formula(f))
            assert g == qf(m)
            assert formula_value(g) == formula_value(f)


def test_printer_parenthesizes_membership_before_or():
    # a regex reads on across "|", so the atom itself needs the parentheses
    m = parse_matrix("(x in INT* -2 INT*) | -2 = x[2:2]")
    assert print_matrix(m) == "(x in INT* -2 INT*) | -2 = x[2:2]"
    assert parse_matrix(print_matrix(m)) == m
    assert print_matrix(parse_matrix("y = y | x in INT*")) == "y = y | x in INT*"


def test_printed_random_formulas_parse_and_reprint_identically():
    rng = random.Random(0)
    for _ in range(500):
        f = gen_formula(rng, max_vars=3, max_atoms=4, lo=-2, hi=2)
        text = print_formula(f)
        assert parse_formula(text) == f, text
        assert print_formula(parse_formula(text)) == text


# error reporting
def test_reserved_extension_tokens_raise_fragment_error():
    for bad in ["elg(x, y) = z", "sum(x) == 3", "count(x, 4) == 1"]:
        with pytest.raises(FragmentError):
            parse_matrix(bad)


def test_mixed_quantifiers_raise_fragment_error():
    with pytest.raises(FragmentError):
        parse_formula("forall x . exists y . x = y")
    with pytest.raises(FragmentError):
        parse_formula("exists x . forall y . x = y")


def test_nested_quantifier_raises_fragment_error():
    with pytest.raises(FragmentError):
        parse_formula("forall x . x = x & exists y . y = x")


def test_same_quantifier_groups_merge():
    f = parse_formula("forall x . forall y, z . x = y ++ z")
    assert f.prefix == ("x", "y", "z")


def test_dollar_names_always_rejected():
    for annotations in (False, True):
        with pytest.raises(ParseError, match="reserved") as e:
            parse_matrix("x = $h1", annotations=annotations)
        assert (e.value.line, e.value.col) == (1, 5)
    with pytest.raises(ParseError, match="reserved"):
        parse_formula("exists $old_x . $old_x = eps")


def test_annotation_forms():
    m = parse_matrix("sorted(top(s) ++ x) & old(a) = rest(a)", annotations=True)
    assert m == And(
        Sorted(SConcat(SSub(SVar("s"), 0, 0), SVar("x"))),
        SeqEq(SVar("$old_a"), SSub(SVar("a"), 2, 0)),
    )
    assert parse_seq_term("old(a) ++ top(s)", annotations=True) == SConcat(
        SVar("$old_a"), SSub(SVar("s"), 0, 0)
    )
    # only with the flag, and only as a call: otherwise plain names
    assert parse_matrix("old = top", annotations=True) == SeqEq(SVar("old"), SVar("top"))
    with pytest.raises(ParseError):
        parse_matrix("sorted(x)")
    with pytest.raises(ParseError):
        parse_seq_term("old(a)")


def test_annotation_errors_point_at_the_source():
    with pytest.raises(ParseError) as e:
        parse_matrix("sorted(x & y)", annotations=True)
    assert (e.value.msg, e.value.col) == ("expected ')', found '&'", 10)
    with pytest.raises(ParseError) as e:
        parse_matrix("old(a ++ b) = a", annotations=True)
    assert (e.value.msg, e.value.col) == ("expected ')', found '++'", 7)


def test_sorted_prints_and_reparses():
    m = parse_matrix("sorted(x ++ y) <=> !sorted(rev(x))", annotations=True)
    assert print_matrix(m) == "sorted(x ++ y) <=> !sorted(rev(x))"
    assert parse_matrix(print_matrix(m), annotations=True) == m


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_formula("x =")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_formula("forall x .\n  x = @")
    assert e.value.line == 2
    with pytest.raises(ParseError, match="trailing"):
        parse_formula("x = y y")
    with pytest.raises(ParseError, match="duplicate"):
        parse_formula("forall x, x . x = x")
    with pytest.raises(ParseError, match="keyword"):
        parse_formula("forall in . in = eps")


@pytest.mark.parametrize(
    "src,msg,col",
    [
        ("exists x . x[1:] = x", "expected an integer index", 16),
        ("exists x . x[-a:2] = x", "expected an integer index", 15),
        ("exists x . x in {}", "expected an integer set element", 18),
        ("exists x . x in {1, -}", "expected an integer set element", 22),
        ("exists x . x in (1 | -)*", "expected digits after '-'", 23),
    ],
)
def test_signed_integer_errors_name_their_context(src, msg, col):
    # a subrange index, a set element and a regex literal each say
    # which integer is missing, at the token that stands in its place
    with pytest.raises(ParseError) as e:
        parse_formula(src)
    assert (e.value.msg, e.value.line, e.value.col) == (msg, 1, col)


def test_prefix_must_bind_every_variable():
    # without a prefix the free names are the variables
    assert parse_formula("x = y").quantifier is None
    with pytest.raises(ParseError, match="'z' is not bound") as e:
        parse_formula("exists x, y .\n  x = y & (first(z) == 1 | z = y)")
    assert (e.value.line, e.value.col) == (2, 18)


def test_spans_nest():
    f = parse_formula("forall x, y . x ++ y = eps")
    m = f.matrix
    assert f.loc is not None and m.loc is not None
    assert f.loc.covers(m.loc)
    assert m.loc.covers(m.left.loc)
    assert m.left.loc.covers(m.left.right.loc)


def test_locations_do_not_affect_equality():
    a = parse_matrix("x  =  y")
    b = parse_matrix("x = y")
    assert a == b
    assert hash(a.left) == hash(b.left)

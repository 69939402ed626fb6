"""Elaboration tests.

The heart of this file is an equivalence driver: for a formula with
shorthand constructs, every assignment to the original variables is
extended to assignments of the fresh '$'-variables that satisfy the
guards (found by enumeration, not by trusting the rewriter), and the
rewritten core matrix must agree with the reference evaluation of the
original matrix on every such extension. Together with non-emptiness
of the extension set this establishes that conjoining the guards, as
elaborate does, preserves the meaning of the formula. Expected shapes
in the unit tests are hand-derived [DERIVED]; the driver checks are
oracle-backed.
"""

import itertools
import random
from pathlib import Path

import pytest

from seqsolve.ast import (
    And,
    BoolLit,
    EXISTS,
    FORALL,
    IAdd,
    IOfSeq,
    InRe,
    IntCmp,
    Not,
    Or,
    SConcat,
    SEmpty,
    SVar,
    SeqEq,
    atoms,
    matrix_vars,
    qf,
)
from seqsolve.elaborate import (
    Elaboration,
    ElaborationError,
    elaborate,
    expand_lencmp,
    rev_regex,
    z_at_least,
    z_at_most,
    z_exact,
)
from seqsolve.encode import encode_elaboration
from seqsolve.oracle import Bounds, enum_seqs, iter_envs, matrix_value
from seqsolve.parser import parse_formula, parse_matrix
from seqsolve.printer import print_formula
from seqsolve.randgen import gen_formula
from seqsolve.wordsolver import negation

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def guard_extensions(elab: Elaboration, env, pool, cap=400):
    """All ways to value the fresh variables so that every guard holds,
    found guard by guard via enumeration."""
    candidates = [dict(env)]
    for g in elab.guards:
        needed = sorted(n for n in matrix_vars(g) if n not in candidates[0])
        new = []
        for cand in candidates:
            if not needed:
                if matrix_value(g, cand):
                    new.append(cand)
                continue
            for combo in itertools.product(pool, repeat=len(needed)):
                ext = cand | dict(zip(needed, combo))
                if matrix_value(g, ext):
                    new.append(ext)
                    if len(new) >= cap:
                        break
            if len(new) >= cap:
                break
        candidates = new
        if not candidates:
            return []
    return candidates


def assert_faithful(src, *, values=(0, 1), max_len=2, fresh_max_len=4, fresh_values=None):
    f = parse_formula(src)
    assert f.quantifier is None, "driver expects a bare matrix"
    elab = elaborate(f)
    orig_vars = tuple(sorted(matrix_vars(f.matrix)))
    pool = list(enum_seqs(Bounds(fresh_max_len, fresh_values or values)))
    for env in iter_envs(orig_vars, Bounds(max_len, values)):
        want = matrix_value(f.matrix, env)
        exts = guard_extensions(elab, env, pool)
        assert exts, f"guards unsatisfiable for {env} in {src!r}"
        for ext in exts:
            got = matrix_value(elab.core_matrix, ext)
            assert got == want, f"{src!r} at {env}: core gave {got}, expected {want} (ext {ext})"


# subranges, over both static shapes and all three dynamic clauses
@pytest.mark.parametrize(
    "src",
    [
        "x[1:2] = y",
        "x[2:0] = y",
        "x[0:0] = y",
        "x[-1:0] = y",
        "x[1:1] = x",
        "first(x) = last(x)",
        "rest(x) = x[2:0]",
        "x[1:0] = x",
        "x[3:1] = y",
        # nested: the inner subrange expands first
        "last(x[1:-1]) = y",
        "x[2:0][1:1] = y & y[1:2] = x[2:0]",
    ],
)
def test_subrange_expansion_faithful(src):
    # pieces of a split are never longer than the subject, so the fresh
    # pool can share the original length bound
    assert_faithful(src, fresh_max_len=2)


def test_subrange_of_concatenation_faithful():
    assert_faithful("(x ++ y)[2:2] = first(y)", max_len=1, fresh_max_len=2)


# integer arithmetic and derived comparisons; the fresh variables here
# only matter through their first element, so a length-1 pool with a
# band wide enough to hold all sums and differences is exhaustive
@pytest.mark.parametrize(
    "src",
    [
        "x > y",
        "x >= y | x != y",
        "x <= y",
        "x == y + z",
        "x < y + z",
        "x == y - z",
        "x + y == z - x",
        "x == 0",
        "x == 1 & y == x + x",
        "x - y < 1",
        "1 >= y - x",
        "y + 1 != x",
        "x + (-1) == y",
        "x + x < y",
        "z + 1 == x + y",
        "x = first(y) - 1",
        "first(1 ++ x) == y",
        "first(eps ++ x) < y",
    ],
)
def test_arithmetic_lowering_faithful(src):
    assert_faithful(
        src, values=(0, 1), max_len=2, fresh_max_len=1, fresh_values=(-2, -1, 0, 1, 2, 3, 4)
    )


def test_arithmetic_over_subranges_faithful():
    assert_faithful(
        "first(x) + 1 == last(y)", values=(0, 1), max_len=2, fresh_max_len=2, fresh_values=(0, 1, 2)
    )


def test_constant_atoms_faithful():
    assert_faithful("x == 2 | x < 2", values=(1, 2, 3), max_len=1, fresh_max_len=1, fresh_values=(1, 2, 3))


def test_reversal_faithful_after_abstraction():
    # the abstraction renames x to its reversal; evaluate the core
    # matrix on the reversed values and compare against the original
    src = "rev(x) ++ r = rev(y) & x = eps"
    f = parse_formula(src)
    elab = elaborate(f)
    assert elab.rev_map == {"x": "$rev_x", "y": "$rev_y"}
    bounds = Bounds(2, (0, 1))
    for env in iter_envs(("x", "r", "y"), bounds):
        want = matrix_value(f.matrix, env)
        core_env = {
            "$rev_x": tuple(reversed(env["x"])),
            "$rev_y": tuple(reversed(env["y"])),
            "r": env["r"],
        }
        exts = guard_extensions(elab, core_env, list(enum_seqs(Bounds(3, (0, 1)))))
        assert exts
        for ext in exts:
            assert matrix_value(elab.core_matrix, ext) == want


def test_reversal_with_subranges_faithful():
    src = "rev(rest(x)) ++ first(x) = rev(x)"
    f = parse_formula(src)
    elab = elaborate(f)
    assert elab.rev_map == {"x": "$rev_x"}
    for env in iter_envs(("x",), Bounds(3, (4, 7))):
        want = matrix_value(f.matrix, env)  # always True, but check both routes
        core_env = {"$rev_x": tuple(reversed(env["x"]))}
        exts = guard_extensions(elab, core_env, list(enum_seqs(Bounds(3, (4, 7)))))
        assert exts
        for ext in exts:
            assert matrix_value(elab.core_matrix, ext) == want


# hand-derived shapes [DERIVED]
def test_rev_of_rev_cancels():
    elab = elaborate(parse_formula("rev(rev(x)) = x"))
    assert elab.rev_map == {}
    assert elab.core_matrix == SeqEq(SVar("x"), SVar("x"))


def test_rev_of_concat_distributes():
    elab = elaborate(parse_formula("rev(x ++ y) = rev(y) ++ rev(x)"))
    assert elab.rev_map == {"x": "$rev_x", "y": "$rev_y"}
    swapped = SConcat(SVar("$rev_y"), SVar("$rev_x"))
    assert elab.core_matrix == SeqEq(swapped, swapped)


def test_rev_equals_rev_strips():
    elab = elaborate(parse_formula("rev(x) = rev(y)"))
    assert elab.rev_map == {}
    assert elab.core_matrix == SeqEq(SVar("x"), SVar("y"))


def test_palindrome_constraint_is_rejected():
    with pytest.raises(ElaborationError):
        elaborate(parse_formula("rev(x) = x"))
    with pytest.raises(ElaborationError):
        elaborate(parse_formula("rev(x) = x ++ y"))


def test_len_of_rev_carries_over():
    elab = elaborate(parse_formula("len(rev(x)) == 2"))
    assert elab.rev_map == {}
    assert elab.core_matrix == InRe(SVar("x"), z_exact(2))


def test_membership_of_rev_reverses_regex():
    f = parse_formula("rev(x) in 1 2 INT*")
    elab = elaborate(f)
    assert elab.rev_map == {}
    got = elab.core_matrix
    assert isinstance(got, InRe) and got.arg == SVar("x")
    bounds = Bounds(3, (1, 2, 3))
    for env in iter_envs(("x",), bounds):
        assert matrix_value(got, env) == matrix_value(f.matrix, env)


def test_statically_empty_subrange_folds():
    elab = elaborate(parse_formula("x[-1:2] = y"))
    assert elab.guards == ()
    assert elab.core_matrix == SeqEq(SEmpty(), SVar("y"))


def test_subrange_of_eps_folds():
    elab = elaborate(parse_formula("eps[1:1] = y"))
    assert elab.guards == ()
    assert elab.core_matrix == SeqEq(SEmpty(), SVar("y"))


def test_identical_subranges_share_one_expansion():
    elab = elaborate(parse_formula("first(x) = y & first(x) = z"))
    assert len([g for g in elab.guards if isinstance(g, Or)]) == 1


def test_constants_share_one_witness_variable():
    elab = elaborate(parse_formula("x < 5 & y < 5"))
    assert elab.fresh_vars.count("$c5") == 1
    memberships = [g for g in elab.guards if isinstance(g, InRe)]
    assert len(memberships) == 1


# constant atoms fold to their value during lowering [DERIVED]
@pytest.mark.parametrize(
    "src, value",
    [
        ("x - 2 == x - 1", False),
        ("x + 1 <= x + 1", True),
        ("-2 = eps", False),
        ("eps ++ 1 = 1", True),
        ("first(2) - 1 == 1", True),
        ("x - first(x) > 0", False),
    ],
)
def test_constant_atoms_fold(src, value):
    elab = elaborate(parse_formula(src))
    assert elab.formula.matrix == elab.core_matrix == BoolLit(value)
    assert elab.guards == elab.fresh_vars == ()


@pytest.mark.parametrize("src", ["x - 1 == z + 2", "first(x) < first(y)"])
def test_nonconstant_atoms_do_not_fold(src):
    elab = elaborate(parse_formula(src))
    assert not any(isinstance(a, BoolLit) for a in atoms(elab.formula.matrix))


def test_false_conjunct_folds_the_formula():
    elab = elaborate(parse_formula("exists x, y . eps = -1 & (first(x) < first(y) | x = y)"))
    assert elab.formula.matrix == BoolLit(False)
    assert elab.formula.prefix == ("x", "y")


def test_folded_formula_keeps_no_fresh_variables():
    # random-500 #141: the guards of its other atoms go with the false
    rng = random.Random(0)
    f = [gen_formula(rng, max_vars=3, max_atoms=4, lo=-2, hi=2) for _ in range(142)][141]
    elab = elaborate(f)
    assert print_formula(elab.formula) == "exists x, y, z . false"
    assert elab.guards == elab.fresh_vars == ()
    assert encode_elaboration(elab).variables == ("x", "y", "z")


# Spellings of one bound on one difference: where the constants stand,
# + (-k) against - k, and which side is which. Each is the linear form
# y - x + 5 < 0 and elaborates to the same formula. [DERIVED]
DIFFERENCE_SPELLINGS = [
    "y + (-9) < x + (-14)",
    "y - 9 < x - 14",
    "y < x - 5",
    "y - x < -5",
    "x - y > 5",
]


def test_spellings_of_one_comparison_elaborate_alike():
    texts = {
        print_formula(elaborate(parse_formula(f"exists x, y . {src}")).formula)
        for src in DIFFERENCE_SPELLINGS
    }
    assert texts == {"exists x, y, $d1, $c5 . (x == $d1 + y & $c5 in 5) & $c5 < $d1"}


def test_bounds_on_one_difference_share_its_variable():
    elab = elaborate(parse_formula("exists x, y . y - 9 < x - 14 & x - y <= 3"))
    assert [g for g in elab.guards if isinstance(g, IntCmp)] == [
        IntCmp("==", IOfSeq(SVar("x")), IAdd(IOfSeq(SVar("$d1")), IOfSeq(SVar("y"))))
    ]


@pytest.mark.parametrize(
    "src, text",
    [
        ("x + 1 == y", "exists x, y, $c1 . $c1 in 1 & y == x + $c1"),
        ("y == x + (-1)", "exists x, y, $c1 . $c1 in 1 & x == y + $c1"),
        ("x + (-1) != y", "exists x, y, $s1, $c1 . ($c1 in 1 & $s1 == y + $c1) & (x < $s1 | $s1 < x)"),
        ("3 > x", "exists x, y, $c3 . $c3 in 3 & x < $c3"),
        ("x = first(y) - first(y)", "exists x, y . x = 0"),
    ],
)
def test_lowered_shapes(src, text):
    # == and != take the encoder's sum shape t == v + k with k > 0,
    # never a difference; a lone term stays on the left; a constant
    # integer in a sequence folds
    assert print_formula(elaborate(parse_formula(f"exists x, y . {src}")).formula) == text


@pytest.mark.parametrize("seed", [0, 1])
def test_folded_atoms_agree_with_the_oracle(seed):
    # every atom of the random-500 set that elaborates to a constant
    # has that value in every environment of the bounded oracle
    rng = random.Random(seed)
    folded = 0
    for _ in range(500):
        f = gen_formula(rng, max_vars=3, max_atoms=4, lo=-2, hi=2)
        for a in atoms(f.matrix):
            m = elaborate(qf(a)).formula.matrix
            if isinstance(m, BoolLit):
                folded += 1
                names = tuple(sorted(matrix_vars(a)))
                for env in iter_envs(names, Bounds(2)):
                    assert matrix_value(a, env) == m.value, (a, env)
    assert folded > 100


def test_universal_formula_is_refused():
    # only the existential problem is elaborated, with the guards
    # conjoined; a universal formula goes through its negation
    f = parse_formula("forall x . first(x) = eps")
    with pytest.raises(ValueError):
        elaborate(f)
    with pytest.raises(ValueError):
        elaborate(negation(f), FORALL)
    elab = elaborate(negation(f))
    assert elab.formula.quantifier == EXISTS
    assert isinstance(elab.formula.matrix, And)


def test_fresh_variables_join_the_prefix():
    f = parse_formula("exists x . first(x) = eps")
    elab = elaborate(f)
    assert elab.formula.prefix[0] == "x"
    assert set(elab.fresh_vars) <= set(elab.formula.prefix)


def test_lencmp_table_against_reference():
    # both routes are reference-level: LenCmp is evaluated directly,
    # the expansion goes through regex matching
    for op in ("==", "!=", "<", "<=", ">", ">="):
        for k in range(0, 4):
            m = parse_matrix(f"len(x) {op} {k}")
            e = expand_lencmp(m)
            for n in range(0, 6):
                env = {"x": (0,) * n}
                assert matrix_value(e, env) == matrix_value(m, env), (op, k, n)


def test_elaborate_is_idempotent_on_core():
    f = parse_formula("x = y ++ z & x < y")
    elab = elaborate(f)
    again = elaborate(parse_formula(src := "x = y ++ z & x < y"))
    assert elab.core_matrix == again.core_matrix
    assert elaborate(elab.formula).core_matrix == elab.formula.matrix


# The elaborated text of the negations that `valid` refutes for two
# universal corpus files, fresh names and their order included. The
# encoding names its word variables after these and the search's
# choices depend on those names, so the node counts pinned in
# tests/test_wordsolver.py move when this text does: a change that moves
# it updates this pin and says why. A length bound len(s) <= n reads
# s in (INT | eps)^n: one power, whose single chain is built once, and
# the automaton of the union INT^0 | ... | INT^n of the same language.
ELABORATED = {
    "reversal_step_vc.seq": (
        'exists olda, $rev_res, s, $u1, $v1, $w1, $u2, $v2, $w2 . ((s in INT^2 INT* '
        '& s = $u1 ++ $v1 ++ $w1 & $u1 in INT^0 & ($w1 in INT^1) | s in (INT | '
        'eps)^1 & $u1 = eps & $v1 = eps & $w1 = eps) & (s in INT^1 INT* & s = $u2 ++ '
        '$v2 ++ $w2 & $v2 in INT^1 & ($w2 in INT^0) | s in (INT | eps)^0 & $u2 = eps '
        '& $v2 = eps & $w2 = eps)) & (s ++ $rev_res = olda & !s in INT^0) & !$v1 ++ '
        '$v2 ++ $rev_res = olda'
    ),
    "comparison_hold.seq": (
        'exists h, t, v, $u1, $v1, $w1, $s1, $c1 . ((h in INT^1 INT* & h = '
        '$u1 ++ $v1 ++ $w1 & $v1 in INT^1 & ($w1 in INT^0) | h in (INT | eps)^0 & '
        '$u1 = eps & $v1 = eps & $w1 = eps) & $c1 in 1 & $s1 == v + $c1) & '
        '(4 ++ 5 ++ 6 = h ++ t & h in INT^1 INT* & t in INT^1 INT* & $v1 == v) & '
        '(t < $s1 | $s1 < t)'
    ),
}


@pytest.mark.parametrize("name", sorted(ELABORATED))
def test_elaborated_corpus_text_pinned(name):
    f = parse_formula((CORPUS / name).read_text())
    assert print_formula(elaborate(negation(f)).formula) == ELABORATED[name]

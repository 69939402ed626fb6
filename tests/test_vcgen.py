"""Tests for program parsing and verification condition generation.

Expected verdicts are [DERIVED]: every condition expected valid is
re-checked here against the reference semantics, exhaustively at small
bounds and by random sampling at the default bounds. Structural
weakest precondition identities are checked as term equalities.
"""

import random
from pathlib import Path

import pytest

from seqsolve import wordsolver
from seqsolve.ast import (
    And,
    BoolLit,
    Imp,
    IntCmp,
    IOfSeq,
    Not,
    SConcat,
    SRev,
    SSub,
    SVar,
    SeqEq,
    Sorted,
    conj,
)
from seqsolve.oracle import Bounds, formula_value, iter_envs, matrix_value
from seqsolve.parser import parse_matrix
from seqsolve.printer import print_formula, print_matrix
from seqsolve.vcgen import (
    Assert,
    Assign,
    Assume,
    Havoc,
    If,
    Loop,
    MissingInvariant,
    Program,
    Skip,
    UnsupportedStatement,
    VcError,
    discharge,
    parse_program,
    parse_program_file,
    vcs,
    wp,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

SMALL = Bounds(max_len=2, values=(-1, 0, 1))


def conditions_of(path):
    return vcs(parse_program_file(PROGRAMS / path))


def sample_envs(names, rng, count=250):
    """Random ground environments at the default bounds."""
    pool = (-2, -1, 0, 1, 2)
    for _ in range(count):
        yield {
            n: tuple(rng.choice(pool) for _ in range(rng.randrange(4)))
            for n in names
        }


# ---------------------------------------------------------------------------
# program parsing


REVERSE = (PROGRAMS / "reverse.sqp").read_text()


def test_parse_reverse_header():
    prog = parse_program(REVERSE)
    assert prog.name == "reverse"
    assert prog.params == ("a",)
    assert prog.locals == ("s", "res")
    assert prog.old_names == ("a",)
    assert len(prog.body) == 2
    assert all(isinstance(s, Loop) for s in prog.body)


def test_push_pop_extend_are_assignments():
    prog = parse_program(REVERSE)
    first_body = prog.body[0].body
    assert first_body[0] == Assign("s", SConcat(SVar("s"), SSub(SVar("a"), 1, 1)), 12)
    second_body = prog.body[1].body
    assert second_body[0] == Assign(
        "res", SConcat(SVar("res"), SSub(SVar("s"), 0, 0)), 20
    )
    assert second_body[1] == Assign("s", SSub(SVar("s"), 1, -1), 21)


def test_old_rewrites_to_snapshot_variable():
    prog = parse_program(REVERSE)
    assert prog.ensures == SeqEq(SRev(SVar("res")), SVar("$old_a"))


def test_if_else_and_assert_parse():
    prog = parse_program_file(PROGRAMS / "merge_sort.sqp")
    outer = prog.body[0]
    assert isinstance(outer, If)
    assert outer.then == (Assign("res", SVar("a"), 12),)
    drain = outer.orelse[-1]
    assert isinstance(drain, If)
    assert isinstance(drain.orelse[0], Assert)


def test_statement_errors():
    with pytest.raises(UnsupportedStatement):
        parse_program("program p(x)\ndo\nfrobnicate x\nend\n")
    with pytest.raises(MissingInvariant):
        parse_program("program p(x)\ndo\nfrom\nskip\nuntil len(x) == 0\nloop\nskip\nend\nend\n")
    with pytest.raises(VcError):
        parse_program("program p(x)\ndo\ny := x\nend\n")  # undeclared lhs
    with pytest.raises(VcError):
        parse_program("program p(x)\ndo\npop(x, x)\nend\n")
    with pytest.raises(VcError):
        parse_program("program p(x)\ndo\nassume $h = x\nend\n")  # reserved name
    with pytest.raises(VcError):
        parse_program("program p(x)\ndo\nassume old(q) = x\nend\n")  # not a variable


def test_empty_program_error_is_on_line_one():
    # line numbers are 1-based, even when the file has no line at all
    with pytest.raises(VcError, match=":1:"):
        parse_program("")


def annotation_error(text):
    with pytest.raises(VcError) as e:
        parse_program(text)
    return str(e.value)


def test_annotation_error_points_at_the_users_text():
    # the stray ')' is column 27 of the annotation, 35 of the line
    msg = annotation_error(
        "program p(a, b)\ndo\n  assert sorted(a) & old(b) = a & )\nend\n"
    )
    assert msg == "<string>:3:35: bad annotation: expected a term, found ')'"


def test_sorted_argument_error_mentions_only_the_users_tokens():
    msg = annotation_error("program p(x, y)\ndo\nskip\nend\nensure sorted(x & y)\n")
    assert msg == "<string>:5:17: bad annotation: expected ')', found '&'"
    assert "=" not in msg


def test_dollar_name_in_program_rejected_with_column():
    msg = annotation_error("program p(x)\ndo\n  assume $h = x\nend\n")
    assert msg == (
        "<string>:3:10: bad annotation: "
        "names starting with '$' are reserved for generated variables"
    )
    msg = annotation_error("program p(x)\ndo\n  x := x ++ $old_x\nend\n")
    assert msg.startswith("<string>:3:13: bad term: names starting with '$'")


def test_old_of_non_variable_errors_with_its_line():
    msg = annotation_error("program p(x)\ndo\n  assume old(z) = x\nend\n")
    assert msg == "<string>:3:10: bad annotation: old(z): 'z' is not a program variable"
    msg = annotation_error("program p(x)\ndo\n  push(x, old(q))\nend\n")
    assert msg == "<string>:3:11: bad term: old(q): 'q' is not a program variable"


def test_keywords_are_whole_tokens():
    # requires, ensures and locals are not require, ensure and local
    # with a stray letter, and a keyword needs no space before a bracket
    assert annotation_error("program p(x)\nrequires len(x) > 0\ndo\nend\n") == (
        "<string>:2:1: expected 'do', found 'requires len(x) > 0'"
    )
    assert annotation_error("program p(x)\ndo\nend\nensures x = x\n") == (
        "<string>:4:1: unexpected trailing line 'ensures x = x'"
    )
    assert annotation_error("program p(x)\nlocals y\ndo\nend\n") == (
        "<string>:2:1: expected 'do', found 'locals y'"
    )
    prog = parse_program(
        "program p(x)\ndo\n  assume(x = x)\n  if(x = x)then\n    x:=x\n  end\nend\n"
    )
    xx = SeqEq(SVar("x"), SVar("x"))
    assert prog.body == (Assume(xx, 3), If(xx, (Assign("x", SVar("x"), 5),), (), 4))


def test_every_program_error_has_a_column():
    assert annotation_error("program p(x) ;\ndo\nend\n") == (
        "<string>:1:14: unexpected character ';'"
    )
    assert annotation_error("program p(x)\ndo\n  frobnicate x  # no such\nend\n") == (
        "<string>:3:3: cannot parse 'frobnicate x'"
    )
    assert annotation_error("program p(x, x)\ndo\nend\n") == (
        "<string>:1:14: bad variable list entry 'x'"
    )


def test_old_names_come_from_every_annotation_and_term():
    prog = parse_program(
        "program p(a, b, c)\nrequire len(old(c)) == 1\ndo\n"
        "  a := old(b)\nend\nensure a = b\n"
    )
    assert prog.old_names == ("b", "c")


def test_comments_and_blank_lines_ignored():
    prog = parse_program(
        "# header\nprogram p(x)  # trailing\n\ndo\n  skip\nend\n"
    )
    assert prog.body == (Skip(5),)


# ---------------------------------------------------------------------------
# weakest preconditions: structural identities


POST = parse_matrix("x ++ y = z")


def test_wp_assign_substitutes():
    got = wp(Assign("x", SConcat(SVar("x"), SVar("v")), 1), POST)
    assert got == parse_matrix("(x ++ v) ++ y = z")


def test_wp_sequence_composes():
    s1 = Assign("x", SConcat(SVar("x"), SVar("v")), 1)
    s2 = Assign("y", SSub(SVar("y"), 2, 0), 2)
    assert wp((s1, s2), POST) == wp(s1, wp(s2, POST))


def test_wp_assume_and_assert():
    cond = parse_matrix("len(x) == 0")
    assert wp(Assume(cond, 1), POST) == Imp(cond, POST)
    assert wp(Assert(cond, 1), POST) == And(cond, POST)


def test_wp_if_is_guarded_conjunction():
    cond = parse_matrix("len(x) == 0")
    s_then = Assign("x", SVar("y"), 2)
    s_else = Skip(3)
    got = wp(If(cond, (s_then,), (s_else,), 1), POST)
    assert got == And(Imp(cond, wp(s_then, POST)), Imp(Not(cond), POST))


def test_wp_havoc_uses_fresh_name():
    got = wp(Havoc("x", 1), POST)
    names = {v for v in {"x", "y", "z"} if v != "x"}
    assert isinstance(got, SeqEq)
    lhs = got.left
    assert isinstance(lhs, SConcat)
    assert lhs.left.name.startswith("$ha")
    assert lhs.left.name.endswith("_x")
    assert names == {"y", "z"} and got.right == SVar("z")


def test_wp_substitution_example_sorted_extend():
    # wp(res := res ++ v, sorted(res)) is sorted(res ++ v): the
    # argument of sorted is substituted like any other term.
    prog = parse_program(
        "program p(res, v)\ndo\nextend(res, v)\nend\nensure sorted(res)\n"
    )
    got = wp(prog.body, prog.ensures)
    assert got == Sorted(SConcat(SVar("res"), SVar("v")))


def test_snapshot_never_captured():
    # res := old(a) style capture: assignments to a must not touch the
    # snapshot variable $old_a.
    prog = parse_program(
        "program p(a)\nlocal res\ndo\na := eps\nres := a\nend\nensure res ++ old(a) = old(a)\n"
    )
    [vc] = vcs(prog)
    text = print_formula(vc.formula)
    assert "eps ++ $old_a = $old_a" in text
    r = discharge([vc])[0]
    assert r.verdict == "valid"


# ---------------------------------------------------------------------------
# reverse.sqp end to end


def test_reverse_vc_shapes():
    conditions = conditions_of("reverse.sqp")
    assert [vc.label for vc in conditions] == [
        "invariant-init",
        "invariant-inductive",
        "postcondition",
        "invariant-inductive",
        "postcondition",
    ]
    assert all(not vc.weakened and not vc.unencodable for vc in conditions)
    # the second loop's inductive step, written with the pop/top sugar
    # expanded into windows
    text = print_formula(conditions[3].formula)
    assert "s[1:-1] ++ rev(res ++ last(s)) = $old_a" in text


def test_reverse_discharges_valid():
    results = discharge(conditions_of("reverse.sqp"))
    assert [r.verdict for r in results] == ["valid"] * 5


def test_discharge_reuses_the_probe_elaboration(monkeypatch):
    # vcs elaborates each condition's negation once to probe whether it
    # is encodable, and discharge solves that elaboration
    conditions = conditions_of("reverse.sqp")
    assert all(vc.elaboration is not None for vc in conditions)

    def elaborate_again(f, reading=None):
        raise AssertionError(f"elaborated again: {print_formula(f)}")

    monkeypatch.setattr(wordsolver, "elaborate", elaborate_again)
    assert [r.verdict for r in discharge(conditions)] == ["valid"] * 5


def test_reverse_vcs_hold_in_reference_semantics():
    rng = random.Random(11)
    for vc in conditions_of("reverse.sqp"):
        assert formula_value(vc.formula, bounds=SMALL), vc.description
        for env in sample_envs(vc.formula.prefix, rng, count=120):
            assert matrix_value(vc.formula.matrix, env), vc.description


# ---------------------------------------------------------------------------
# merge_sort.sqp end to end


def test_merge_sort_vc_inventory():
    conditions = conditions_of("merge_sort.sqp")
    assert len(conditions) == 19
    assert all(vc.label == "branch" for vc in conditions)
    assert all(not vc.unencodable for vc in conditions)
    assert any(vc.weakened for vc in conditions)


def merge_target(conditions):
    """The merge loop piece whose conclusion compares the freshly
    emitted element against the head of the other side."""
    for vc in conditions:
        if "last(res ++ first(r)) <= first(l)" in print_formula(vc.formula):
            return vc
    raise AssertionError("target piece not generated")


def test_merge_sort_target_piece_valid():
    conditions = conditions_of("merge_sort.sqp")
    vc = merge_target(conditions)
    assert vc.label == "branch"
    text = print_formula(vc.formula)
    assert "!first(l) <= first(r)" in text
    r = discharge([vc])[0]
    assert r.verdict == "valid"


def test_merge_sort_no_false_alarms():
    results = discharge(conditions_of("merge_sort.sqp"))
    # sortedness facts dropped from hypotheses never produce "invalid"
    assert {r.verdict for r in results} == {"valid", "undetermined"}


def test_merge_sort_valid_pieces_hold_in_reference_semantics():
    rng = random.Random(23)
    results = discharge(conditions_of("merge_sort.sqp"))
    for r in results:
        if r.verdict != "valid":
            continue
        for env in sample_envs(r.vc.formula.prefix, rng, count=80):
            assert matrix_value(r.vc.formula.matrix, env), r.vc.description


def test_merge_target_holds_exhaustively():
    vc = merge_target(conditions_of("merge_sort.sqp"))
    assert formula_value(vc.formula, bounds=SMALL)


# ---------------------------------------------------------------------------
# sorted expansion and weakening


def test_sorted_conclusion_expands_exactly():
    prog = parse_program(
        "program p(x)\ndo\nskip\nend\nensure sorted(x)\n"
    )
    [vc] = vcs(prog)
    # one fresh three-way split with a unit middle and nonempty tail
    text = print_formula(vc.formula)
    assert "x = $so1h ++ $so1m ++ $so1t" in text
    assert "len($so1m) == 1" in text
    assert "len($so1t) > 0" in text
    assert not vc.weakened

    def holds(x):
        splits = iter_envs(("$so1h", "$so1m", "$so1t"), SMALL)
        return all(matrix_value(vc.formula.matrix, {"x": x} | e) for e in splits)

    # expansion agrees with sortedness on ground sequences
    assert holds(())
    assert holds((1,))
    assert holds((1, 1))
    assert holds((-1, 0, 1))
    assert not holds((1, 0))
    assert not holds((0, 1, 0))


def test_sorted_hypothesis_dropped_and_flagged():
    prog = parse_program(
        "program p(x, y)\ndo\nassume sorted(x)\ny := x\nend\nensure sorted(y)\n"
    )
    [vc] = vcs(prog)
    assert vc.weakened
    # the dropped hypothesis leaves no sorted atom and no residue behind
    text = print_formula(vc.formula)
    assert "sorted" not in text
    assert "true" not in text
    r = discharge([vc])[0]
    assert r.verdict == "undetermined"


def test_sorted_under_iff_is_unencodable():
    prog = parse_program(
        "program p(x, y)\ndo\nskip\nend\nensure sorted(x) <=> sorted(y)\n"
    )
    [vc] = vcs(prog)
    assert vc.unencodable
    # the condition names only the program's variables
    assert vc.formula.prefix == ("x", "y")
    assert print_formula(vc.formula) == (
        "forall x, y . true => (sorted(x) <=> sorted(y))"
    )
    r = discharge([vc])[0]
    assert r.verdict == "unencodable"


def test_reversal_palindrome_is_unencodable():
    prog = parse_program("program p(x)\ndo\nskip\nend\nensure rev(x) = x\n")
    [vc] = vcs(prog)
    assert vc.unencodable
    assert vc.elaboration is None


# ---------------------------------------------------------------------------
# trivial and failing conditions


def test_trivial_invariant_skip_loop():
    prog = parse_program(
        "program p(x)\ndo\nfrom\nskip\ninvariant true\nuntil len(x) == 0\nloop\nskip\nend\nend\n"
    )
    conditions = vcs(prog)
    inductive = [vc for vc in conditions if vc.label == "invariant-inductive"]
    assert len(inductive) == 1
    assert inductive[0].formula.matrix == Imp(
        Not(parse_matrix("len(x) == 0")), BoolLit(True)
    )
    assert discharge(inductive)[0].verdict == "valid"


def test_wrong_postcondition_is_invalid_with_counterexample():
    prog = parse_program(
        "program p(x)\ndo\nx := x ++ 1\nend\nensure x = old(x)\n"
    )
    [vc] = vcs(prog)
    r = discharge([vc])[0]
    assert r.verdict == "invalid"
    assert r.counterexample is not None
    # the counterexample must really break the obligation
    env = {name: tuple(val) for name, val in r.counterexample.items()}
    assert not matrix_value(vc.formula.matrix, env)


def test_entry_label_without_loops_is_postcondition():
    prog = parse_program("program p(x)\ndo\nskip\nend\nensure x = x\n")
    [vc] = vcs(prog)
    assert vc.label == "postcondition"
    assert vc.description == "p: entry, line 1"


def test_vcs_deterministic():
    a = conditions_of("merge_sort.sqp")
    b = conditions_of("merge_sort.sqp")
    assert a == b

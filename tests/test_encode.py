"""Tests for the word-equation encoding.

The heart of the file is an agreement driver: evaluate the original
matrix with the reference semantics, then evaluate the encoded word
formula under the corresponding word assignment (components computed
from the frame definition, pair witnesses enumerated), and require the
two to agree on every assignment.
"""

import itertools
import json

import pytest

from seqsolve.ast import (
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
    InRe,
    IntCmp,
    Not,
    SConcat,
    SEmpty,
    SInt,
    SVar,
    SeqEq,
)
from seqsolve.elaborate import Elaboration, ElaborationError
from seqsolve.encode import (
    MAX_MAGNITUDE,
    DecodeError,
    L,
    LiteralTooLarge,
    V,
    WAnd,
    WBool,
    WEq,
    WIn,
    WNot,
    WOr,
    WordProblem,
    bplus_dfa,
    decode_word,
    encode,
    encode_elaboration,
    encode_int,
    encode_regex,
    formula_size,
    frame_dfa,
    lstar_dfa,
    problem_size,
)
from seqsolve import oracle
from seqsolve.oracle import Bounds, enum_seqs, iter_envs, matrix_value
from seqsolve.parser import parse_formula, parse_matrix


# ---------------------------------------------------------------------------
# codec

# [DERIVED] spelled out by hand from the block shape (a, sign letter,
# one b per unit of magnitude, a).
CODEC_CASES = [
    (0, "aca"),
    (1, "acba"),
    (2, "acbba"),
    (5, "acbbbbba"),
    (-1, "adba"),
    (-2, "adbba"),
    (-4, "adbbbba"),
]


@pytest.mark.parametrize("k,expected", CODEC_CASES)
def test_encode_int_frozen(k, expected):
    assert encode_int(k) == expected


def test_encode_int_refuses_magnitudes_past_the_bound():
    assert len(encode_int(-MAX_MAGNITUDE)) == MAX_MAGNITUDE + 3
    for k in (MAX_MAGNITUDE + 1, -MAX_MAGNITUDE - 1, 10**20):
        with pytest.raises(LiteralTooLarge, match=str(k)):
            encode_int(k)


def test_decode_inverts_encode():
    for k in range(-6, 7):
        assert decode_word(encode_int(k)) == (k,)
    for s in [(), (0,), (3, -1), (-2, -2, 0), (1, 0, -1, 4)]:
        w = "".join(encode_int(e) for e in s)
        assert decode_word(w) == s


@pytest.mark.parametrize(
    "bad",
    ["ada", "ac", "acb", "bca", "acab", "aac", "acaada", "acad", "d"],
)
def test_decode_rejects_junk(bad):
    with pytest.raises(DecodeError):
        decode_word(bad)


def test_frame_language():
    f = frame_dfa()
    for k in range(-5, 6):
        assert f.accepts(encode_int(k))
    for w in ["", "ada", "acaaca", "ab", "aca aca".replace(" ", "")]:
        assert not f.accepts(w)
    ls = lstar_dfa()
    assert ls.accepts("")
    assert ls.accepts("acaadbaacbba")
    assert not ls.accepts("ada")
    assert not ls.accepts("acab")
    assert len(f.shortest_word()) == 3


# ---------------------------------------------------------------------------
# regex encoding agrees with the reference matcher through the codec

REGEX_SOURCES = [
    "0",
    "INT",
    "{1,-2}",
    "0 1",
    "(0|1)*",
    "1^2",
    "INT INT",
    "(1|2)+",
    "eps",
    "INT* 0",
]


@pytest.mark.parametrize("src", REGEX_SOURCES)
def test_encode_regex_matches_oracle(src):
    rx = parse_matrix(f"x in {src}").regex
    d = encode_regex(rx)
    for s in enum_seqs(Bounds(max_len=3, values=(-2, -1, 0, 1, 2))):
        w = "".join(encode_int(e) for e in s)
        assert d.accepts(w) == oracle.regex_match(rx, s), (src, s)


def test_encode_regex_rejects_non_encodings():
    d = encode_regex(parse_matrix("x in INT*").regex)
    for junk in ["b", "ac", "caa", "ada", "acb"]:
        assert not d.accepts(junk)


# ---------------------------------------------------------------------------
# the frame pins the components uniquely

def _sg_m_shape(h: str) -> bool:
    return (
        len(h) >= 3
        and h[0] == "a"
        and h[1] in "cd"
        and h[-1] == "a"
        and all(ch == "b" for ch in h[2:-1])
    )


def test_frame_split_is_unique():
    ls = lstar_dfa()
    for s in enum_seqs(Bounds(max_len=3, values=(-2, -1, 0, 1, 2))):
        w = "".join(encode_int(e) for e in s)
        target = w + "aca"
        splits = [
            (target[:i], target[i:])
            for i in range(len(target) + 1)
            if _sg_m_shape(target[:i]) and ls.accepts(target[i:])
        ]
        assert len(splits) == 1, (s, splits)
        h, _ = splits[0]
        assert h == encode_int(s[0] if s else 0)


# ---------------------------------------------------------------------------
# word-formula evaluation helpers (independent of the solver)

def weval(w, env) -> bool:
    match w:
        case WBool(value=v):
            return v
        case WEq(left=l, right=r):
            return _join(l, env) == _join(r, env)
        case WIn(var=x, dfa=d):
            return d.accepts(env[x])
        case WNot(arg=a):
            return not weval(a, env)
        case WAnd(left=l, right=r):
            return weval(l, env) and weval(r, env)
        case WOr(left=l, right=r):
            return weval(l, env) or weval(r, env)
    raise TypeError(w)


def _join(side, env) -> str:
    return "".join(env[t.name] if isinstance(t, V) else t.ch for t in side)


def seq_word(s) -> str:
    return "".join(encode_int(e) for e in s)


def components_env(env) -> dict:
    """Word assignment extending a sequence assignment: each variable's
    frame components computed from the frame definition."""
    out = {}
    for x, s in env.items():
        w = seq_word(s)
        h = encode_int(s[0] if s else 0)
        out[x] = w
        out[f"$h_{x}"] = h
        out[f"$sg_{x}"] = h[1]
        out[f"$m_{x}"] = h[2:-1]
        out[f"$t_{x}"] = (w + "aca")[len(h):]
    return out


def p_vars(wp: WordProblem):
    return [v for v in wp.variables if v.startswith("$p")]


P_POOL = ["b", "bb", "bbb", "bbbb"]


def core_problem(matrix, names, reading=EXISTS) -> WordProblem:
    f = Formula(reading, tuple(names), matrix)
    elab = Elaboration(
        formula=f, reading=reading, core_matrix=matrix, guards=(), fresh_vars=()
    )
    return encode_elaboration(elab)


def assert_atom_agrees(matrix, names, bounds):
    wp = core_problem(matrix, names)
    ps = p_vars(wp)
    for env in iter_envs(names, bounds):
        expected = matrix_value(matrix, env)
        base = components_env(env)
        got = any(
            weval(wp.matrix, base | dict(zip(ps, choice)))
            for choice in itertools.product(P_POOL, repeat=len(ps))
        )
        assert got == expected, (matrix, env)


# ---------------------------------------------------------------------------
# atom encodings vs the reference semantics

X, Y, Z = SVar("x"), SVar("y"), SVar("z")
FX, FY, FZ = IOfSeq(X), IOfSeq(Y), IOfSeq(Z)

TWO_VAR_ATOMS = [
    IntCmp("==", FX, IZero()),
    IntCmp("==", FX, IOne()),
    IntCmp("==", FX, FY),
    IntCmp("<", FX, FY),
    IntCmp("<", FX, FX),
    Not(IntCmp("==", FX, FY)),
    Not(IntCmp("<", FX, FY)),
    SeqEq(SConcat(X, SInt(IConst(2))), Y),
    SeqEq(X, SInt(FY)),
    Not(SeqEq(X, SInt(FY))),
    InRe(X, parse_matrix("x in (0|1)*").regex),
    Not(InRe(X, parse_matrix("x in (0|1)*").regex)),
    And(IntCmp("<", FX, FY), SeqEq(X, SConcat(Y, Y))),
    SeqEq(X, SEmpty()),
]


@pytest.mark.parametrize("matrix", TWO_VAR_ATOMS, ids=range(len(TWO_VAR_ATOMS)))
def test_two_var_atoms_agree(matrix):
    assert_atom_agrees(matrix, ("x", "y"), Bounds(max_len=2, values=(-2, -1, 0, 1, 2)))


THREE_VAR_ATOMS = [
    IntCmp("==", FX, IAdd(FY, FZ)),
    Not(IntCmp("==", FX, IAdd(FY, FZ))),
]


@pytest.mark.parametrize("matrix", THREE_VAR_ATOMS, ids=range(len(THREE_VAR_ATOMS)))
@pytest.mark.parametrize("values", [(-2, 1), (-1, 2), (0, 2)])
def test_sum_atoms_agree(matrix, values):
    assert_atom_agrees(matrix, ("x", "y", "z"), Bounds(max_len=2, values=values))


def test_sum_with_shared_operand():
    # x == x + y holds exactly when the first element of y is 0
    m = IntCmp("==", FX, IAdd(FX, FY))
    assert_atom_agrees(m, ("x", "y"), Bounds(max_len=2, values=(-2, 0, 1)))


def test_sum_doubling():
    m = IntCmp("==", FX, IAdd(FY, FY))
    assert_atom_agrees(m, ("x", "y"), Bounds(max_len=2, values=(-2, -1, 0, 1, 2)))


# ---------------------------------------------------------------------------
# full pipeline: parse, elaborate, encode, evaluate

def assert_pipeline_agrees(src, bounds, fresh_pool, reading_all=False):
    f = parse_formula(src)
    wp = encode(f)
    user = [v for v in wp.source_vars if not v.startswith("$")]
    fresh = [v for v in wp.source_vars if v.startswith("$")]
    ps = p_vars(wp)
    for env in iter_envs(user, bounds):
        expected = matrix_value(f.matrix, env)
        outcomes = []
        for fresh_choice in itertools.product(fresh_pool, repeat=len(fresh)):
            full = dict(env) | dict(zip(fresh, fresh_choice))
            base = components_env(full)
            for p_choice in itertools.product(P_POOL[:3], repeat=len(ps)):
                outcomes.append(weval(wp.matrix, base | dict(zip(ps, p_choice))))
        got = all(outcomes) if reading_all else any(outcomes)
        assert got == expected, (src, env)


FRESH_POOL = [(), (-1,), (0,), (1,), (2,)]


def test_pipeline_first_comparison():
    assert_pipeline_agrees(
        "exists x, y . first(x) < first(y)",
        Bounds(max_len=2, values=(-2, 0, 1)),
        FRESH_POOL,
    )


def test_pipeline_constant_sum():
    assert_pipeline_agrees(
        "exists x, y . x = y ++ 1 & first(x) == first(y) + 1",
        Bounds(max_len=2, values=(-1, 0, 1)),
        FRESH_POOL,
    )


def test_pipeline_last_element():
    assert_pipeline_agrees(
        "exists x . last(x) == 0",
        Bounds(max_len=2, values=(-1, 0, 1)),
        FRESH_POOL,
    )


def test_pipeline_universal_reading():
    assert_pipeline_agrees(
        "forall x . first(x) == 0 | !(x = eps)",
        Bounds(max_len=2, values=(-1, 0, 1)),
        FRESH_POOL,
        reading_all=True,
    )


# ---------------------------------------------------------------------------
# problem shape

def test_universal_problem_shape():
    wp = encode(parse_formula("forall x . x = x"))
    assert wp.kind == "universal"
    assert isinstance(wp.matrix, WOr)
    assert isinstance(wp.matrix.left, WNot)


def test_existential_problem_shape():
    wp = encode(parse_formula("exists x . x = eps"))
    assert wp.kind == "existential"
    assert isinstance(wp.matrix, WAnd)
    # no atom looks at an element of x, so x only needs its range
    # membership, not the component frame
    assert wp.components == {}
    assert wp.variables == ("x",)


def test_component_frame_only_when_needed():
    wp = encode(parse_formula("exists x, y . x = y ++ y & first(x) == 0"))
    assert wp.components["x"] == ("$h_x", "$sg_x", "$m_x", "$t_x")
    assert "y" not in wp.components
    assert "$h_y" not in wp.variables


def test_variables_unique_and_cover_components():
    wp = encode(parse_formula("exists x, y . first(x) < first(y)"))
    assert len(set(wp.variables)) == len(wp.variables)
    for x in wp.source_vars:
        for comp in wp.components[x]:
            assert comp in wp.variables
    assert p_vars(wp) == ["$p1"]


def test_shared_pair_witness():
    wp = encode(
        parse_formula("exists x, y . first(x) < first(y) & first(y) < first(x)")
    )
    assert p_vars(wp) == ["$p1"]


def test_encode_rejects_non_core():
    from seqsolve.ast import LenCmp

    m = LenCmp(SVar("x"), "==", 2)
    f = Formula(EXISTS, ("x",), m)
    elab = Elaboration(
        formula=f, reading=EXISTS, core_matrix=m, guards=(), fresh_vars=()
    )
    with pytest.raises(ElaborationError):
        encode_elaboration(elab)


def test_encode_deterministic():
    src = "exists x, y . x = y ++ 1 & first(x) < first(y)"
    a = encode(parse_formula(src))
    b = encode(parse_formula(src))
    assert a.variables == b.variables
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# JSON emission

def test_wp_json_shape():
    wp = encode(parse_formula("exists x, y . x ++ 0 = y & first(x) == 1"))
    doc = wp.to_json()
    assert doc["schema"] == "wp-1"
    assert doc["kind"] == "existential"
    assert set(doc) == {
        "schema",
        "kind",
        "vars",
        "equations",
        "disequations",
        "memberships",
        "matrix",
    }
    declared = set(doc["vars"])
    for eq in doc["equations"]:
        for tok in eq["left"] + eq["right"]:
            if "v" in tok:
                assert tok["v"] in declared
            else:
                assert tok["l"] in "abcd"
    for x, d in doc["memberships"].items():
        assert x in declared
        assert 0 <= d["start"] < d["states"]
        assert len(d["transitions"]) == d["states"]
    json.dumps(doc)  # must be serializable as-is


def test_wp_json_universal_keeps_matrix():
    wp = encode(parse_formula("forall x . x = eps"))
    doc = wp.to_json()
    # hypotheses sit inside the implication, not in the conjunctive lists
    assert doc["equations"] == []
    assert doc["matrix"]["op"] == "or"


# ---------------------------------------------------------------------------
# size measures

def test_formula_size_weights_constants():
    small = formula_size(parse_formula("x = 1"))
    big = formula_size(parse_formula("x = 100"))
    assert big - small == 99


def test_problem_size_positive_and_monotone():
    a = problem_size(encode(parse_formula("exists x . x = eps")))
    b = problem_size(encode(parse_formula("exists x, y . x = y & first(x) < first(y)")))
    assert 0 < a < b

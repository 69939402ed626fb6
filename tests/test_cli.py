"""Tests for the command line driver.

Expected statuses for the corpus files are [DERIVED]: they were fixed
by independent ground reasoning (bounded enumeration and hand-built
instantiations) in tests/data/corpus_truth.json before the solver ever
ran on them, and the CLI must reproduce every one together with the
matching exit code. JSON reports are validated against the bundled
schemas.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from seqsolve.cli import build_parser, run
from seqsolve.parser import parse_formula
from seqsolve.wordsolver import check_sat, check_valid

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
PROGRAMS = ROOT / "programs"
SCHEMAS = ROOT / "src" / "seqsolve" / "schemas"

TRUTH = json.loads((Path(__file__).parent / "data" / "corpus_truth.json").read_text())
RES_SCHEMA = json.loads((SCHEMAS / "res-1.json").read_text())
WP_SCHEMA = json.loads((SCHEMAS / "wp-1.json").read_text())


def run_cli(capsys, *argv):
    """Run the CLI in-process; return (exit code, stdout, stderr)."""
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert err == ""
    doc = json.loads(out)
    return code, doc


# ---------------------------------------------------------------------------
# corpus golden runs


@pytest.mark.parametrize("name", sorted(TRUTH))
def test_corpus_status_and_exit_code(capsys, name):
    entry = TRUTH[name]
    code, doc = run_json(capsys, entry["command"], str(CORPUS / name))
    assert doc["status"] == entry["status"]
    expect_code = {"valid": 0, "sat": 0, "invalid": 1, "unsat": 1}[entry["status"]]
    assert code == expect_code
    jsonschema.validate(doc, RES_SCHEMA)


@pytest.mark.parametrize("name", sorted(TRUTH))
def test_corpus_text_format_agrees(capsys, name):
    entry = TRUTH[name]
    code, out, err = run_cli(capsys, entry["command"], str(CORPUS / name))
    assert err == ""
    assert f"status: {entry['status']}" in out


def test_invalid_report_carries_checked_counterexample(capsys):
    # sorted_21 asserts that [2, 1] is sorted; the refutation must name
    # the quantified decomposition variables with concrete sequences
    code, doc = run_json(capsys, "valid", str(CORPUS / "sorted_21.seq"))
    assert code == 1
    assert doc["status"] == "invalid"
    cex = doc["counterexample"]
    assert cex is not None and all(
        isinstance(v, list) and all(isinstance(k, int) for k in v)
        for v in cex.values()
    )


def test_sat_witness_reported(capsys):
    code, doc = run_json(capsys, "sat", str(CORPUS / "membership_hold.seq"))
    assert code == 0
    assert doc["status"] in ("sat", "valid")
    if doc["command"] == "sat" and doc["status"] == "sat":
        assert doc["witness"] is not None


def test_sat_of_holding_universal_reports_no_witness(capsys):
    # a universal formula is sat when it holds; sat and valid share one
    # path, and the refutation of the negation leaves nothing to print
    path = str(CORPUS / "sorted_123.seq")
    code, doc = run_json(capsys, "sat", path)
    assert code == 0 and doc["status"] == "sat" and "witness" not in doc
    jsonschema.validate(doc, RES_SCHEMA)
    assert run_cli(capsys, "sat", path) == (0, "status: sat\n", "")
    code, doc = run_json(capsys, "sat", str(CORPUS / "sorted_21.seq"))
    assert code == 1 and doc["status"] == "unsat"
    assert doc["counterexample"] is not None


# ---------------------------------------------------------------------------
# encode command and its stages


def test_encode_stop_after_parse(capsys, tmp_path):
    src = tmp_path / "f.seq"
    src.write_text("exists x . x ++ 1 = 1 ++ x\n")
    code, doc = run_json(capsys, "encode", str(src), "--stop-after", "parse")
    assert code == 0
    assert doc["status"] == "ok" and doc["stage"] == "parse"
    assert doc["formulas"] == ["exists x . x ++ 1 = 1 ++ x"]
    jsonschema.validate(doc, RES_SCHEMA)


def test_encode_stop_after_elaborate_inserts_guards(capsys, tmp_path):
    src = tmp_path / "f.seq"
    src.write_text("exists x . first(x) = 1\n")
    code, doc = run_json(capsys, "encode", str(src), "--stop-after", "elaborate")
    assert code == 0
    assert doc["stage"] == "elaborate"
    # elaboration rewrites the window away into fresh decomposition vars
    assert "first" not in doc["formulas"][0]
    jsonschema.validate(doc, RES_SCHEMA)


def test_encode_full_dump_matches_schema(capsys, tmp_path):
    src = tmp_path / "f.seq"
    src.write_text("exists x, y . x ++ 1 = y & len(x) > 0 & x in (1 | 2)*\n")
    code, doc = run_json(capsys, "encode", str(src))
    assert code == 0
    assert doc["schema"] == "wp-1"
    jsonschema.validate(doc, WP_SCHEMA)
    assert doc["vars"]
    assert doc["equations"] or doc["matrix"] != {"op": "true"}
    # memberships intersect per variable and carry dense transition rows
    for dfa in doc["memberships"].values():
        assert all(len(row) == 4 for row in dfa["transitions"])


def test_encode_text_quotes_letter_runs(capsys, tmp_path):
    src = tmp_path / "f.seq"
    src.write_text("exists x . x = 1\n")
    code, out, err = run_cli(capsys, "encode", str(src))
    assert code == 0 and err == ""
    assert "kind:" in out and '"' in out


def test_encode_universal_dumps_the_refuted_negation(capsys, tmp_path):
    # `encode` on a universal file dumps the problem `valid` refutes: the
    # same document as the hand-written existential negation
    universal = CORPUS / "sorted_21.seq"
    twin = tmp_path / "twin.seq"
    twin.write_text(
        "exists h, m, t . !(2 ++ 1 = h ++ m ++ t & len(m) == 1 & len(t) > 0 => m < t)\n"
    )
    _, got = run_json(capsys, "encode", str(universal))
    _, want = run_json(capsys, "encode", str(twin))
    assert got.pop("input") == str(universal) and want.pop("input") == str(twin)
    assert got == want and got["kind"] == "existential"
    assert run_cli(capsys, "encode", str(universal)) == run_cli(capsys, "encode", str(twin))
    code, doc = run_json(capsys, "encode", str(universal), "--stop-after", "elaborate")
    assert code == 0
    assert doc["formulas"][0].startswith("exists h, m, t")


def test_encode_outside_fragment_exits_3(capsys, tmp_path):
    src = tmp_path / "f.seq"
    # rev of a variable is only supported where rewriting can remove it
    src.write_text("exists x . rev(x) = x\n")
    code, out, err = run_cli(capsys, "encode", str(src))
    assert code == 3
    assert "outside the supported fragment" in err


def test_outside_fragment_is_one_line_for_every_command(capsys, tmp_path):
    # sat, valid and encode all elaborate the input, and each names it
    src = tmp_path / "f.seq"
    src.write_text("exists x . rev(x) = x ++ 1 & x[1:2] = x\n")
    lines = set()
    for command in ("sat", "valid", "encode"):
        code, out, err = run_cli(capsys, command, str(src))
        assert (code, out) == (3, "")
        lines.add(err)
    (line,) = lines
    assert line.startswith(f"seqsolve: error: {src}: outside the supported fragment: ")


def _wp_tokens(doc):
    """Every side token and membership variable of a wp-1 document:
    the equations, the disequations, the memberships and the matrix."""
    for eq in doc["equations"] + doc["disequations"]:
        yield from eq["left"] + eq["right"]
    for x in doc["memberships"]:
        yield {"v": x}
    todo = [doc["matrix"]]
    while todo:
        m = todo.pop()
        if m["op"] == "eq":
            yield from m["left"] + m["right"]
        elif m["op"] == "member":
            yield {"v": m["var"]}
        elif m["op"] == "not":
            todo.append(m["arg"])
        elif m["op"] in ("and", "or"):
            todo += [m["left"], m["right"]]


def test_encode_all_corpus_files_validate(capsys, tmp_path):
    # sides reach the dump by variable name, never by the code point the
    # solver works on; variables named like letters stay variables
    letters_src = tmp_path / "letters.seq"
    letters_src.write_text("exists a, b . a = b ++ 1\n")
    for src in [CORPUS / name for name in sorted(TRUTH)] + [letters_src]:
        code, doc = run_json(capsys, "encode", str(src))
        assert code == 0, src.name
        jsonschema.validate(doc, WP_SCHEMA)
        declared = set(doc["vars"])
        for tok in _wp_tokens(doc):
            if "v" in tok:
                assert tok["v"] in declared, (src.name, tok)
            else:
                assert tok["l"] in ("a", "b", "c", "d"), (src.name, tok)
        code, out, _ = run_cli(capsys, "encode", str(src))
        assert code == 0 and max(out) < "\U00010000", src.name
    _, doc = run_json(capsys, "encode", str(letters_src))
    assert doc["equations"] == [
        {
            "left": [{"v": "a"}],
            "right": [{"v": "b"}] + [{"l": ch} for ch in "acba"],
        }
    ]
    assert list(doc["memberships"]) == ["a", "b"]


# ---------------------------------------------------------------------------
# oracle command


def test_oracle_agrees_on_small_valid_file(capsys):
    code, doc = run_json(capsys, "oracle", str(CORPUS / "sorted_123.seq"))
    assert code == 0 and doc["status"] == "valid"
    assert doc["bounds"] == {"max_len": 3, "values": [-2, -1, 0, 1, 2]}
    jsonschema.validate(doc, RES_SCHEMA)


def test_oracle_finds_counterexample(capsys):
    code, doc = run_json(capsys, "oracle", str(CORPUS / "sorted_21.seq"))
    assert code == 1 and doc["status"] == "invalid"
    assert doc["counterexample"]


def test_oracle_bounds_flags(capsys, tmp_path):
    src = tmp_path / "f.seq"
    src.write_text("exists x . x = 5 ++ 5\n")
    # 5 is outside the default pool, so the default bounds miss the model
    code, doc = run_json(capsys, "oracle", str(src))
    assert code == 1 and doc["status"] == "unsat"
    code, doc = run_json(capsys, "oracle", str(src), "--values", "5", "--max-len", "2")
    assert code == 0 and doc["status"] == "sat"
    assert doc["witness"] == {"x": [5, 5]}


def test_oracle_value_pool_drops_repeats(capsys, tmp_path):
    src = tmp_path / "f.seq"
    src.write_text("exists x . x = 1 ++ 1\n")
    code, doc = run_json(capsys, "oracle", str(src), "--values", "1,1,2,1", "--max-len", "2")
    assert code == 0 and doc["witness"] == {"x": [1, 1]}
    assert doc["bounds"] == {"max_len": 2, "values": [1, 2]}


def test_oracle_value_pool_may_start_negative(capsys, tmp_path):
    # "--values -1,0,1" reads -1,0,1 as an option; joined by "=" it is
    # the pool
    src = tmp_path / "f.seq"
    src.write_text("exists x . x = -1\n")
    code, doc = run_json(capsys, "oracle", str(src), "--values=-1,0,1", "--max-len", "1")
    assert code == 0 and doc["witness"] == {"x": [-1]}
    assert doc["bounds"]["values"] == [-1, 0, 1]


# frozen text reports: a universal file with a counterexample, a
# file without a quantifier, and free variables with a witness, whose
# names come in sorted order
ORACLE_TEXT = [
    (
        CORPUS / "sorted_21.seq",
        1,
        "status: invalid\nbounded: max_len=2 values=[-2, -1, 0, 1, 2]\n"
        "counterexample:\n  h = []\n  m = [2]\n  t = [1]\n",
    ),
    (CORPUS / "len_clash.seq", 1, "status: unsat\nbounded: max_len=2 values=[-2, -1, 0, 1, 2]\n"),
    (None, 0, "status: sat\nbounded: max_len=2 values=[-2, -1, 0, 1, 2]\nwitness:\n  x = [1]\n  y = [1]\n"),
]


@pytest.mark.parametrize("path,code,text", ORACLE_TEXT)
def test_oracle_output_is_unchanged(capsys, tmp_path, path, code, text):
    if path is None:  # free variables, no quantifier
        path = tmp_path / "f.seq"
        path.write_text("y ++ 1 = 1 ++ x & len(x) == 1\n")
    assert run_cli(capsys, "oracle", str(path), "--max-len", "2") == (code, text, "")


# ---------------------------------------------------------------------------
# vc command


def test_vc_listing_without_discharge(capsys):
    code, doc = run_json(capsys, "vc", str(PROGRAMS / "reverse.sqp"))
    assert code == 0 and doc["status"] == "ok"
    assert doc["program"] == "reverse"
    assert [vc["label"] for vc in doc["vcs"]] == [
        "invariant-init",
        "invariant-inductive",
        "postcondition",
        "invariant-inductive",
        "postcondition",
    ]
    assert all(vc["verdict"] is None for vc in doc["vcs"])
    jsonschema.validate(doc, RES_SCHEMA)


def test_vc_discharge_reverse_all_valid(capsys):
    code, doc = run_json(capsys, "vc", str(PROGRAMS / "reverse.sqp"), "--discharge")
    assert code == 0 and doc["status"] == "valid"
    assert all(vc["verdict"] == "valid" for vc in doc["vcs"])
    jsonschema.validate(doc, RES_SCHEMA)


def test_vc_text_output_lists_verdicts(capsys):
    code, out, err = run_cli(capsys, "vc", str(PROGRAMS / "reverse.sqp"), "--discharge")
    assert code == 0 and err == ""
    assert out.count("verdict: valid") == 5
    assert "status: valid" in out


def test_vc_condition_over_no_variables_parses_back(capsys, tmp_path):
    # a program without variables has a closed condition, printed as its
    # matrix alone, which parses back to the same verdict
    src = tmp_path / "empty.sqp"
    src.write_text("program p()\ndo\nend\n")
    code, doc = run_json(capsys, "vc", str(src), "--discharge")
    assert code == 0 and doc["status"] == "valid"
    [vc] = doc["vcs"]
    assert (vc["formula"], vc["verdict"]) == ("true", "valid")
    assert check_valid(parse_formula(vc["formula"])).status == "valid"


def test_vc_failing_program_exits_1(capsys, tmp_path):
    src = tmp_path / "bad.sqp"
    src.write_text(
        "program bad(x)\n"
        "do\n"
        "  x := x ++ 1\n"
        "end\n"
        "ensure x = old(x)\n"
    )
    code, doc = run_json(capsys, "vc", str(src), "--discharge")
    assert code == 1 and doc["status"] == "invalid"
    bad = [vc for vc in doc["vcs"] if vc["verdict"] == "invalid"]
    assert bad and bad[0]["counterexample"] is not None


def test_vc_sorted_under_iff_is_unencodable_exit_2(capsys, tmp_path):
    src = tmp_path / "iff.sqp"
    src.write_text("program p(x, y)\ndo\n  skip\nend\nensure sorted(x) <=> sorted(y)\n")
    code, doc = run_json(capsys, "vc", str(src), "--discharge")
    assert code == 2 and doc["status"] == "unknown"
    [vc] = doc["vcs"]
    assert vc["formula"] == "forall x, y . true => (sorted(x) <=> sorted(y))"
    assert vc["verdict"] == "unencodable"
    jsonschema.validate(doc, RES_SCHEMA)


def test_vc_undetermined_exits_2(capsys, tmp_path):
    src = tmp_path / "weak.sqp"
    src.write_text(
        "program p(x, y)\n"
        "do\n"
        "  assume sorted(x)\n"
        "  y := x\n"
        "end\n"
        "ensure sorted(y)\n"
    )
    code, doc = run_json(capsys, "vc", str(src), "--discharge")
    assert code == 2 and doc["status"] == "unknown"
    assert [vc["verdict"] for vc in doc["vcs"]] == ["undetermined"]
    jsonschema.validate(doc, RES_SCHEMA)


def test_vc_parse_error_exits_3(capsys, tmp_path):
    src = tmp_path / "bad.sqp"
    src.write_text("program p(x)\ndo\n  frobnicate x\nend\nensure x = x\n")
    code, out, err = run_cli(capsys, "vc", str(src))
    assert code == 3 and "seqsolve: error:" in err


# ---------------------------------------------------------------------------
# configuration errors and budgets


def test_missing_file_exits_3(capsys):
    code, out, err = run_cli(capsys, "sat", "/nonexistent/f.seq")
    assert code == 3 and "cannot read" in err


@pytest.mark.parametrize("command", ["sat", "valid", "encode", "oracle", "vc"])
def test_non_utf8_file_exits_3(capsys, tmp_path, command):
    src = tmp_path / "f.seq"
    src.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, command, str(src))
    assert code == 3 and out == ""
    assert err.startswith(f"seqsolve: error: cannot read {src}: ")
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("command", ["sat", "valid", "encode"])
def test_literal_too_large_to_encode_exits_3(capsys, tmp_path, command):
    src = tmp_path / "f.seq"
    src.write_text("exists x . first(x) == 99999999999999999999\n")
    code, out, err = run_cli(capsys, command, str(src))
    assert code == 3 and out == ""
    assert err.startswith(
        "seqsolve: error: integer literal 99999999999999999999 is too large"
    )


@pytest.mark.parametrize(
    "formula",
    [
        "exists x . len(x) >= 99999999999999999999",
        "exists x . x in INT^99999999999999999999",
        "exists x . x[99999999999999999999:99999999999999999999] = 1",
    ],
)
def test_repetition_too_large_to_encode_exits_3(capsys, tmp_path, formula):
    # a length bound, a power and a slice elaborate to a repetition of
    # INT, whose automaton is a chain as long as the count
    src = tmp_path / "f.seq"
    src.write_text(formula + "\n")
    code, out, err = run_cli(capsys, "sat", str(src))
    assert code == 3 and out == ""
    assert err.startswith(
        "seqsolve: error: repetition count 99999999999999999999 is too large"
    )


def test_oracle_answers_a_long_power_at_once(capsys, tmp_path):
    # a power costs the oracle a round per position of the sequence at
    # most, not one per repetition
    src = tmp_path / "f.seq"
    src.write_text("exists x . x in INT^1000000\n")

    def too_slow(signum, frame):
        raise TimeoutError("oracle still running after 2 s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        code, out, err = run_cli(capsys, "oracle", str(src))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert (code, err) == (1, "")
    assert out.startswith("status: unsat\n")


def test_oracle_refuses_a_huge_repetition_count(capsys, tmp_path):
    # the count is refused at once, as the encoder refuses it, so that
    # oracle and sat accept the same inputs
    src = tmp_path / "f.seq"
    src.write_text("exists x . x in INT^99999999999999999999\n")

    def too_slow(signum, frame):
        raise TimeoutError("oracle still running after 1 s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, out, err = run_cli(capsys, "oracle", str(src))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert code == 3 and out == ""
    assert err.startswith(
        "seqsolve: error: repetition count 99999999999999999999 is too large"
    )


def test_formula_syntax_error_exits_3(capsys, tmp_path):
    src = tmp_path / "f.seq"
    src.write_text("exists x . x = = 1\n")
    code, out, err = run_cli(capsys, "sat", str(src))
    assert code == 3 and "seqsolve: error:" in err


@pytest.mark.parametrize("command", ["sat", "valid", "oracle"])
def test_name_free_beside_prefix_exits_3(capsys, tmp_path, command):
    src = tmp_path / "f.seq"
    src.write_text("exists x .\n  x = y\n")
    code, out, err = run_cli(capsys, command, str(src))
    assert code == 3 and out == ""
    assert err == (
        f"seqsolve: error: {src}:2:7: variable 'y' is not bound by the quantifier prefix\n"
    )


def test_unknown_flag_exits_3(capsys):
    code, out, err = run_cli(capsys, "sat", "f.seq", "--frobnicate")
    assert code == 3


def test_bad_budget_value_exits_3(capsys):
    code, out, err = run_cli(capsys, "sat", "f.seq", "--budget-nodes", "-5")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--budget-nodes", "5"),
        ("encode", "--witness-letters", "5"),
        ("oracle", "--clause-cap", "5"),
        ("sat", "--jobs", "2"),
        ("valid", "--jobs", "2"),
        ("encode", "--jobs", "2"),
        ("vc", "--jobs", "2"),
    ],
)
def test_flags_only_where_they_act(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "f.seq", *argv[1:])
    assert code == 3 and "unrecognized arguments" in err


def test_deeply_nested_input_exits_3(capsys, tmp_path):
    src = tmp_path / "deep.seq"
    src.write_text("exists x . " + " & ".join(["first(x) == 1"] * 2000) + "\n")
    code, out, err = run_cli(capsys, "sat", str(src))
    assert code == 3
    assert err == "seqsolve: error: input nested too deeply\n"


@pytest.fixture
def commutation_file(tmp_path):
    # satisfiable, but pre-search filters cannot close it: the search
    # itself must pop at least two systems, so node budgets bite here
    src = tmp_path / "commute.seq"
    src.write_text("exists x . x ++ 1 = 1 ++ x\n")
    return str(src)


def test_tiny_budget_yields_unknown_exit_2(capsys, commutation_file):
    code, doc = run_json(capsys, "sat", commutation_file, "--budget-nodes", "1")
    assert code == 2 and doc["status"] == "unknown"
    assert doc["reason"] == "node budget exhausted"


def test_witness_cap_yields_unknown_exit_2(capsys, tmp_path):
    src = tmp_path / "long.seq"
    src.write_text("exists x . x ++ 1 = 1 ++ x & len(x) == 5\n")
    code, doc = run_json(capsys, "sat", str(src), "--witness-letters", "2")
    assert code == 2 and doc["status"] == "unknown"
    assert doc["reason"] == "witness length cap"
    code, doc = run_json(capsys, "sat", str(src))
    assert code == 0 and doc["witness"] == {"x": [1, 1, 1, 1, 1]}


@pytest.mark.parametrize("value", ["1", "abc"])
def test_budget_comes_only_from_the_caller(
    capsys, monkeypatch, commutation_file, value
):
    # the environment is not a source of settings, for the library or the CLI
    monkeypatch.setenv("SEQSOLVE_BUDGET_NODES", value)
    f = parse_formula(Path(commutation_file).read_text())
    assert check_sat(f).status == "sat"
    code, doc = run_json(capsys, "sat", commutation_file)
    assert code == 0 and doc["status"] == "sat"


@pytest.mark.parametrize(
    "flag,reason",
    [
        (("--budget-nodes", "1"), "node budget exhausted"),
        (("--clause-cap", "1"), "clause cap exceeded"),
    ],
)
def test_vc_passes_budget_flags_to_each_condition(capsys, flag, reason):
    program = str(PROGRAMS / "reverse.sqp")
    code, doc = run_json(capsys, "vc", program, "--discharge", *flag)
    assert code == 2 and doc["status"] == "unknown"
    unknown = [vc["detail"] for vc in doc["vcs"] if vc["verdict"] == "unknown"]
    assert reason in unknown


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])


# ---------------------------------------------------------------------------
# the installed console script


def test_console_script_end_to_end():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "seqsolve.cli", "valid", str(CORPUS / "sorted_123.seq")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "status: valid" in proc.stdout


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "seqsolve", "valid", str(CORPUS / "sorted_21.seq")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "status: invalid" in proc.stdout


def test_closed_stdout_ends_quietly():
    # the read end of the pipe is closed before the child has started,
    # so writing the report fails with a broken pipe
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "seqsolve", "sat", str(CORPUS / "sorted_123.seq")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), stderr) == (3, b"")

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
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from seqsolve.cli import build_parser, run

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


def test_encode_outside_fragment_exits_3(capsys, tmp_path):
    src = tmp_path / "f.seq"
    # rev of a variable is only supported where rewriting can remove it
    src.write_text("exists x . rev(x) = x\n")
    code, out, err = run_cli(capsys, "encode", str(src))
    assert code == 3
    assert "outside the supported fragment" in err


def test_encode_all_corpus_files_validate(capsys):
    for name in sorted(TRUTH):
        code, doc = run_json(capsys, "encode", str(CORPUS / name))
        assert code == 0, name
        jsonschema.validate(doc, WP_SCHEMA)


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


def test_vc_discharge_jobs_parity(capsys):
    code1, doc1 = run_json(capsys, "vc", str(PROGRAMS / "reverse.sqp"), "--discharge")
    code2, doc2 = run_json(
        capsys, "vc", str(PROGRAMS / "reverse.sqp"), "--discharge", "--jobs", "4"
    )
    assert (code1, doc1["vcs"]) == (code2, doc2["vcs"])


def test_vc_text_output_lists_verdicts(capsys):
    code, out, err = run_cli(capsys, "vc", str(PROGRAMS / "reverse.sqp"), "--discharge")
    assert code == 0 and err == ""
    assert out.count("verdict: valid") == 5
    assert "status: valid" in out


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


def test_formula_syntax_error_exits_3(capsys, tmp_path):
    src = tmp_path / "f.seq"
    src.write_text("exists x . x = = 1\n")
    code, out, err = run_cli(capsys, "sat", str(src))
    assert code == 3 and "seqsolve: error:" in err


def test_unknown_flag_exits_3(capsys):
    code, out, err = run_cli(capsys, "sat", "f.seq", "--frobnicate")
    assert code == 3


def test_bad_budget_value_exits_3(capsys):
    code, out, err = run_cli(capsys, "sat", "f.seq", "--budget-nodes", "-5")
    assert code == 3


@pytest.mark.parametrize("value", ["abc", "-5", "0"])
def test_bad_budget_environment_exits_3(capsys, monkeypatch, tmp_path, value):
    src = tmp_path / "f.seq"
    src.write_text("exists x . x = 1\n")
    monkeypatch.setenv("SEQSOLVE_BUDGET_NODES", value)
    code, out, err = run_cli(capsys, "sat", str(src))
    assert code == 3 and out == ""
    assert err == (
        "seqsolve: error: SEQSOLVE_BUDGET_NODES must be a positive integer, "
        f"not {value!r}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--budget-nodes", "5"),
        ("encode", "--witness-letters", "5"),
        ("oracle", "--clause-cap", "5"),
        ("sat", "--jobs", "2"),
        ("valid", "--jobs", "2"),
        ("encode", "--jobs", "2"),
    ],
)
def test_flags_only_where_they_act(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "f.seq", *argv[1:])
    assert code == 3 and "unrecognized arguments" in err


def test_budget_environment_read_only_by_searching_commands(
    capsys, monkeypatch, tmp_path
):
    src = tmp_path / "f.seq"
    src.write_text("exists x . x = 1\n")
    monkeypatch.setenv("SEQSOLVE_BUDGET_NODES", "abc")
    assert run_cli(capsys, "oracle", str(src))[0] == 0
    assert run_cli(capsys, "encode", str(src))[0] == 0
    for command, path in (("valid", src), ("vc", PROGRAMS / "reverse.sqp")):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 3 and "SEQSOLVE_BUDGET_NODES" in err


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


def test_budget_flag_beats_environment(capsys, monkeypatch, commutation_file):
    monkeypatch.setenv("SEQSOLVE_BUDGET_NODES", "1")
    code, doc = run_json(capsys, "sat", commutation_file, "--budget-nodes", "200000")
    assert code == 0 and doc["status"] == "sat"


def test_budget_environment_applies_without_flag(capsys, monkeypatch, commutation_file):
    monkeypatch.setenv("SEQSOLVE_BUDGET_NODES", "1")
    code, doc = run_json(capsys, "sat", commutation_file)
    assert code == 2 and doc["status"] == "unknown"


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

"""Command line driver.

One process runs one command against one input file::

    seqsolve sat FILE.seq        satisfiability of a formula
    seqsolve valid FILE.seq      validity of its universal closure
    seqsolve encode FILE.seq     dump the word problem the solver decides
    seqsolve oracle FILE.seq     decide by a pruned bounded search instead
    seqsolve vc FILE.sqp         generate (and optionally discharge)
                                 verification conditions

Exit codes follow the reported status: 0 for sat/valid/ok, 1 for
unsat/invalid, 2 for unknown or undetermined outcomes, and 3 or above
for configuration, parse, or I/O errors, which are diagnosed on
stderr. A standard output closed before the report is written ends
the run quietly with 3. JSON output follows the res-1 schema, except
for the full encoding dump, which follows wp-1. Output ordering is
deterministic throughout; nothing in the solver path is randomized.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .elaborate import ElaborationError, elaborate
from .encode import LiteralTooLarge, encode
from .oracle import Bounds, brute_force_sat, search_names
from .parser import ParseError, parse_formula
from .printer import print_formula
from .vcgen import (
    VC,
    Discharge,
    VcError,
    discharge,
    parse_program,
    vcs,
)
from .wordsolver import Budget, SolverResult, check_sat, check_valid, negation
from .ast import FORALL, Formula, Not


class CliError(Exception):
    """A configuration or input problem; maps to exit code 3."""


_STATUS_EXIT = {
    "sat": 0,
    "valid": 0,
    "ok": 0,
    "unsat": 1,
    "invalid": 1,
    "unknown": 2,
    "undetermined": 2,
    "unencodable": 2,
}


# ---------------------------------------------------------------------------
# argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _positive(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {n}")
    return n


def _int_csv(text: str) -> tuple[int, ...]:
    """A comma-separated value pool; a repeated value is kept once, at
    its first position, so no sequence is enumerated twice."""
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("value pool is empty")
    return tuple(dict.fromkeys(values))


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="seqsolve", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = _ArgumentParser(add_help=False)
    common.add_argument("input", type=Path, help="input file")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    solver = _ArgumentParser(add_help=False)
    solver.add_argument(
        "--budget-nodes", type=_positive, default=Budget.max_nodes,
        help="most search nodes spent on one formula",
    )
    solver.add_argument(
        "--witness-letters", type=_positive, default=Budget.witness_letters,
        help="longest witness word explored per variable",
    )
    solver.add_argument(
        "--clause-cap", type=_positive, default=Budget.clause_cap,
        help="most clauses enumerated, counted after pruning",
    )

    sub.add_parser("sat", parents=[common, solver], help="decide satisfiability")
    sub.add_parser("valid", parents=[common, solver], help="decide validity")

    enc = sub.add_parser("encode", parents=[common], help="dump the encoding")
    enc.add_argument(
        "--stop-after", choices=("parse", "elaborate", "encode"), default="encode",
        help="pipeline stage to stop at",
    )

    orc = sub.add_parser("oracle", parents=[common], help="pruned bounded search")
    orc.add_argument(
        "--max-len", type=_positive, default=Bounds.max_len,
        help="longest sequence enumerated",
    )
    orc.add_argument(
        "--values", type=_int_csv, default=Bounds.values,
        help="comma-separated element pool; a pool that starts with a negative"
        " value is written --values=-1,0,1",
    )

    vc = sub.add_parser("vc", parents=[common, solver], help="verification conditions")
    vc.add_argument(
        "--discharge", action="store_true", help="run the solver on each condition"
    )
    return parser


def _budget(args) -> Budget:
    """The search budget of `sat`, `valid` and `vc`."""
    return Budget(
        max_nodes=args.budget_nodes,
        witness_letters=args.witness_letters,
        clause_cap=args.clause_cap,
    )


# ---------------------------------------------------------------------------
# reports


def _seq_text(value) -> str:
    return "[" + ", ".join(str(k) for k in value) + "]"


def _env_lines(env: dict, out: list[str]) -> None:
    for name in sorted(env):
        out.append(f"  {name} = {_seq_text(env[name])}")


def _env_json(env: dict | None):
    if env is None:
        return None
    return {name: list(value) for name, value in sorted(env.items())}


def _read_source(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise CliError(f"cannot read {path}: {e}")


def _load_formula(path: Path) -> Formula:
    src = _read_source(path)
    try:
        return parse_formula(src)
    except ParseError as e:
        raise CliError(f"{path}:{e}")


def _report(args, status: str, fields: dict, text: list[str]) -> int:
    """Print a res-1 report and return its exit code: in JSON, the
    fields follow the status; in text, the lines are the report."""
    if args.format == "json":
        report = {
            "schema": "res-1",
            "command": args.command,
            "input": str(args.input),
            "status": status,
        }
        print(json.dumps(report | fields, indent=2))
    else:
        print("\n".join(text))
    return _STATUS_EXIT[status]


def _answer(args, r: SolverResult, fields: dict, note: str | None = None) -> int:
    """Report one decision. ``fields``, which gain the witness, the
    counterexample and the reason, follow the status in the JSON,
    ``note`` in the text."""
    text = [f"status: {r.status}"] + ([note] if note else [])
    for key, env in (("witness", r.witness), ("counterexample", r.counterexample)):
        if env is not None:
            fields[key] = _env_json(env)
            text.append(f"{key}:")
            _env_lines(env, text)
    if r.status == "unknown":
        fields["reason"] = r.reason
        text.append(f"reason: {r.reason}")
    return _report(args, r.status, fields, text)


# ---------------------------------------------------------------------------
# commands


def _run_check(args) -> int:
    f = _load_formula(args.input)
    check = check_sat if args.command == "sat" else check_valid
    r = check(f, _budget(args))
    return _answer(args, r, {"nodes": r.nodes, "clauses": r.clauses})


def _side_text(side: list) -> str:
    """A wp-1 side: runs of letters quoted, variables by name."""
    parts = []
    run = ""
    for tok in side:
        if "l" in tok:
            run += tok["l"]
            continue
        if run:
            parts.append(f'"{run}"')
            run = ""
        parts.append(tok["v"])
    if run:
        parts.append(f'"{run}"')
    return " ++ ".join(parts) if parts else '""'


def _encode_text(doc: dict) -> list[str]:
    text = [f"kind: {doc['kind']}", "vars: " + ", ".join(doc["vars"])]
    for key, op in (("equations", "="), ("disequations", "!=")):
        if doc[key]:
            text.append(f"{key}:")
            for eq in doc[key]:
                text.append(f"  {_side_text(eq['left'])} {op} {_side_text(eq['right'])}")
    if doc["memberships"]:
        text.append("memberships:")
        for var, dfa in doc["memberships"].items():
            text.append(f"  {var} in dfa({dfa['states']} states)")
    if doc["matrix"] != {"op": "true"}:
        text.append("matrix: " + json.dumps(doc["matrix"]))
    return text


def _run_encode(args) -> int:
    f = _load_formula(args.input)
    g = negation(f) if f.quantifier == FORALL else f  # the problem `valid` refutes
    if args.stop_after == "encode":
        doc = encode(g).to_json()
        doc["input"] = str(args.input)
        print(json.dumps(doc, indent=2) if args.format == "json"
              else "\n".join(_encode_text(doc)))
        return 0
    shown = print_formula(f if args.stop_after == "parse" else elaborate(g).formula)
    return _report(args, "ok", {"stage": args.stop_after, "formulas": [shown]}, [shown])


def _run_oracle(args) -> int:
    f = _load_formula(args.input)
    bounds = Bounds(args.max_len, args.values)
    fields = {"bounds": {"max_len": bounds.max_len, "values": list(bounds.values)}}
    note = f"bounded: max_len={bounds.max_len} values={list(bounds.values)}"
    names = search_names(f)
    if f.quantifier == FORALL:
        cex = brute_force_sat(Not(f.matrix), names, bounds)
        r = SolverResult("invalid" if cex is not None else "valid", counterexample=cex)
    else:
        witness = brute_force_sat(f.matrix, names, bounds)
        r = SolverResult("sat" if witness is not None else "unsat", witness=witness)
    return _answer(args, r, fields, note)


def _vc_json(vc: VC, result: Discharge | None) -> dict:
    doc = {
        "label": vc.label,
        "description": vc.description,
        "line": vc.line,
        "formula": print_formula(vc.formula),
        "weakened": vc.weakened,
        "unencodable": vc.unencodable,
        "verdict": None,
        "detail": None,
        "counterexample": None,
    }
    if result is not None:
        doc["verdict"] = result.verdict
        doc["detail"] = result.detail or None
        doc["counterexample"] = _env_json(result.counterexample)
    return doc


def _run_vc(args) -> int:
    src = _read_source(args.input)
    try:
        program = parse_program(src, str(args.input))
    except (VcError, ParseError) as e:
        raise CliError(str(e))
    conditions = vcs(program)
    results: list[Discharge | None] = [None] * len(conditions)
    status = "ok"
    if args.discharge:
        results = discharge(conditions, _budget(args))
        worst = max((_STATUS_EXIT[r.verdict] for r in results), default=0)
        status = ("valid", "invalid", "unknown")[worst]

    text = [f"program: {program.name} ({len(conditions)} conditions)"]
    for vc, res in zip(conditions, results):
        text.append(f"[{vc.label}] {vc.description}")
        text.append(f"  {print_formula(vc.formula)}")
        if vc.unencodable:
            text.append(f"  unencodable: {vc.unencodable}")
        if res is not None:
            line = f"  verdict: {res.verdict}"
            if res.detail:
                line += f" ({res.detail})"
            text.append(line)
            if res.counterexample is not None:
                text.append("  counterexample:")
                _env_lines(res.counterexample, text)
    text.append(f"status: {status}")
    fields = {
        "program": program.name,
        "vcs": [_vc_json(vc, res) for vc, res in zip(conditions, results)],
    }
    return _report(args, status, fields, text)


_COMMANDS = {
    "sat": _run_check,
    "valid": _run_check,
    "encode": _run_encode,
    "oracle": _run_oracle,
    "vc": _run_vc,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (CliError, LiteralTooLarge) as e:
        print(f"seqsolve: error: {e}", file=sys.stderr)
        return 3
    except ElaborationError as e:
        print(
            f"seqsolve: error: {args.input}: outside the supported fragment: {e}",
            file=sys.stderr,
        )
        return 3
    except RecursionError:
        print("seqsolve: error: input nested too deeply", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout before the report was written (say,
        # `| head -0`); end quietly, with stdout on devnull so that the
        # flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()

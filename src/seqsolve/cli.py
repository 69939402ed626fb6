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
stderr. JSON output follows the res-1 schema, except for the full
encoding dump, which follows wp-1. Output ordering is deterministic
throughout; nothing in the solver path is randomized.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .elaborate import ElaborationError, elaborate
from .encode import LiteralTooLarge, encode_elaboration
from .oracle import Bounds, brute_force_sat
from .parser import ParseError, parse_formula
from .printer import print_formula
from .vcgen import (
    VC,
    Discharge,
    VcError,
    discharge,
    parse_program,
    vcs,
    worst_exit,
)
from .wordsolver import Budget, check_sat, check_valid, negation
from .ast import FORALL, Formula, free_vars


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


@dataclass
class RunConfig:
    command: str
    input: Path
    budget: Budget | None  # sat, valid and vc only
    bounds: Bounds
    format: str = "text"
    stop_after: str = "encode"
    do_discharge: bool = False
    jobs: int = 1


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
        "--budget-nodes", type=_positive, default=None,
        help="search node budget (beats SEQSOLVE_BUDGET_NODES)",
    )
    solver.add_argument(
        "--witness-letters", type=_positive, default=None,
        help="longest witness word explored per variable",
    )
    solver.add_argument(
        "--clause-cap", type=_positive, default=None,
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
        "--max-len", type=_positive, default=3, help="longest sequence enumerated"
    )
    orc.add_argument(
        "--values", type=_int_csv, default=(-2, -1, 0, 1, 2),
        help="comma-separated element pool",
    )

    vc = sub.add_parser("vc", parents=[common, solver], help="verification conditions")
    vc.add_argument(
        "--discharge", action="store_true", help="run the solver on each condition"
    )
    vc.add_argument(
        "--jobs", type=_positive, default=1,
        help="parallel workers for independent obligations (default 1)",
    )
    return parser


def _budget(args) -> Budget | None:
    """The search budget of the commands that search, else None."""
    if not hasattr(args, "budget_nodes"):
        return None
    try:
        budget = Budget.from_env()
    except ValueError as e:
        raise CliError(str(e))
    if args.budget_nodes is not None:
        budget.max_nodes = args.budget_nodes
    if args.witness_letters is not None:
        budget.witness_letters = args.witness_letters
    if args.clause_cap is not None:
        budget.clause_cap = args.clause_cap
    return budget


def _config(args) -> RunConfig:
    bounds = Bounds(
        max_len=getattr(args, "max_len", 3),
        values=getattr(args, "values", (-2, -1, 0, 1, 2)),
    )
    return RunConfig(
        command=args.command,
        input=args.input,
        budget=_budget(args),
        bounds=bounds,
        format=args.format,
        stop_after=getattr(args, "stop_after", "encode"),
        do_discharge=getattr(args, "discharge", False),
        jobs=getattr(args, "jobs", 1),
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


def _emit(config: RunConfig, report: dict, text: list[str]) -> None:
    if config.format == "json":
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        print("\n".join(text))


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


def _report_skeleton(config: RunConfig, status: str) -> dict:
    return {
        "schema": "res-1",
        "command": config.command,
        "input": str(config.input),
        "status": status,
    }


def _verdict(
    config: RunConfig,
    status: str,
    fields: dict,
    note: str | None = None,
    witness: dict | None = None,
    counterexample: dict | None = None,
    reason: str = "",
) -> int:
    """Print the res-1 report of one decision and return its exit
    code. ``fields`` follow the status in the JSON, ``note`` in the
    text."""
    report = _report_skeleton(config, status) | fields
    text = [f"status: {status}"] + ([note] if note else [])
    for key, env in (("witness", witness), ("counterexample", counterexample)):
        if env is not None:
            report[key] = _env_json(env)
            text.append(f"{key}:")
            _env_lines(env, text)
    if status == "unknown":
        report["reason"] = reason
        text.append(f"reason: {reason}")
    _emit(config, report, text)
    return _STATUS_EXIT[status]


# ---------------------------------------------------------------------------
# commands


def _run_check(config: RunConfig) -> int:
    f = _load_formula(config.input)
    check = check_sat if config.command == "sat" else check_valid
    r = check(f, config.budget)
    return _verdict(
        config,
        r.status,
        {"nodes": r.nodes, "clauses": r.clauses},
        witness=r.witness,
        counterexample=r.counterexample,
        reason=r.reason,
    )


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
    if doc["equations"]:
        text.append("equations:")
        for eq in doc["equations"]:
            text.append(f"  {_side_text(eq['left'])} = {_side_text(eq['right'])}")
    if doc["disequations"]:
        text.append("disequations:")
        for eq in doc["disequations"]:
            text.append(f"  {_side_text(eq['left'])} != {_side_text(eq['right'])}")
    if doc["memberships"]:
        text.append("memberships:")
        for var, dfa in doc["memberships"].items():
            text.append(f"  {var} in dfa({dfa['states']} states)")
    if doc["matrix"] != {"op": "true"}:
        text.append("matrix: " + json.dumps(doc["matrix"]))
    return text


def _run_encode(config: RunConfig) -> int:
    f = _load_formula(config.input)
    if config.stop_after == "parse":
        report = _report_skeleton(config, "ok")
        report["stage"] = "parse"
        report["formulas"] = [print_formula(f)]
        _emit(config, report, [print_formula(f)])
        return 0
    if f.quantifier == FORALL:
        f = negation(f)  # the problem `valid` refutes
    try:
        elab = elaborate(f)
    except ElaborationError as e:
        raise CliError(f"{config.input}: outside the supported fragment: {e}")
    if config.stop_after == "elaborate":
        report = _report_skeleton(config, "ok")
        report["stage"] = "elaborate"
        report["formulas"] = [print_formula(elab.formula)]
        _emit(config, report, [print_formula(elab.formula)])
        return 0
    wp = encode_elaboration(elab)
    doc = wp.to_json()
    doc["input"] = str(config.input)
    _emit(config, doc, _encode_text(doc))
    return 0


def _run_oracle(config: RunConfig) -> int:
    f = _load_formula(config.input)
    bounds = config.bounds
    fields = {"bounds": {"max_len": bounds.max_len, "values": list(bounds.values)}}
    note = f"bounded: max_len={bounds.max_len} values={list(bounds.values)}"
    if f.quantifier == FORALL:
        neg = negation(f)
        cex = brute_force_sat(neg.matrix, neg.prefix, bounds)
        status = "invalid" if cex is not None else "valid"
        return _verdict(config, status, fields, note, counterexample=cex)
    names = f.prefix if f.quantifier is not None else tuple(sorted(free_vars(f)))
    witness = brute_force_sat(f.matrix, names, bounds)
    status = "sat" if witness is not None else "unsat"
    return _verdict(config, status, fields, note, witness=witness)


def _discharge_one(payload: tuple[VC, Budget]) -> Discharge:
    vc, budget = payload
    return discharge([vc], budget)[0]


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


def _run_vc(config: RunConfig) -> int:
    src = _read_source(config.input)
    try:
        program = parse_program(src, str(config.input))
    except (VcError, ParseError) as e:
        raise CliError(str(e))
    conditions = vcs(program)
    results: list[Discharge | None] = [None] * len(conditions)
    if config.do_discharge:
        if config.jobs > 1 and len(conditions) > 1:
            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                results = list(
                    pool.map(
                        _discharge_one,
                        [(vc, config.budget) for vc in conditions],
                    )
                )
        else:
            results = discharge(conditions, config.budget)
        status_code = worst_exit(results)
        status = {0: "valid", 1: "invalid", 2: "unknown"}[status_code]
    else:
        status, status_code = "ok", 0

    report = _report_skeleton(config, status)
    report["program"] = program.name
    report["vcs"] = [
        _vc_json(vc, res) for vc, res in zip(conditions, results)
    ]
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
    _emit(config, report, text)
    return status_code


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
        config = _config(args)
        return _COMMANDS[config.command](config)
    except (CliError, LiteralTooLarge) as e:
        print(f"seqsolve: error: {e}", file=sys.stderr)
        return 3
    except ElaborationError as e:
        print(f"seqsolve: error: outside the supported fragment: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        print("seqsolve: error: input nested too deeply", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

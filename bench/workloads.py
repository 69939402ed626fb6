"""Inputs, reference checks and summary rules shared by the benchmark's
parent process (run.py) and its per-repetition workers (worker.py).

Every workload is a fixed list of units decided in order. A unit is one
corpus file, one program (all of its verification conditions) or one
random formula. The order is fixed because it moves the times: the
automaton caches fill as a run goes, and with the 500 random formulas
shuffled, one formula took 2.75 s in one order and 1.84 s in another.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
PROGRAMS = ROOT / "programs"
TRUTH_FILE = ROOT / "tests" / "data" / "corpus_truth.json"
PROGRAM_FILES = ("reverse.sqp", "merge_sort.sqp")

WORKLOADS = ("files", "random500", "oracle-enum")
N_RANDOM = 500
# enumeration bounds of the `seqsolve oracle` workload; the tier-1
# differential uses max_len=3, which is ten times slower
ORACLE_MAX_LEN = 2
ORACLE_VALUES = (-2, -1, 0, 1, 2)

# pinned by tests/test_acceptance.py
MERGE_TARGET = ("last(res ++ first(r)) <= first(l)", "!first(l) <= first(r)")

UNDECIDED = ("unknown", "unencodable", "error")


def missing_sources() -> list[str]:
    """Paths the benchmark needs from the checkout and cannot find."""
    need = [SRC / "seqsolve", CORPUS, TRUTH_FILE] + [PROGRAMS / p for p in PROGRAM_FILES]
    return [str(p.relative_to(ROOT)) for p in need if not p.exists()]


def truth() -> dict:
    return json.loads(TRUTH_FILE.read_text())


def units(workload: str, formula_seed: int, limit: int | None = None) -> list[str]:
    """Unit ids of a workload in their canonical order."""
    if workload == "files":
        out = [f"corpus/{name}" for name in sorted(truth())]
        out += [f"programs/{name}" for name in PROGRAM_FILES]
    else:
        out = [f"r{formula_seed}.{i}" for i in range(N_RANDOM)]
    return out[:limit] if limit else out


def random_formulas(formula_seed: int, count: int):
    """The first ``count`` formulas of the seeded random-500 set, the
    same draw the tier-1 differential makes for seed 0."""
    from seqsolve.randgen import gen_formula

    rng = random.Random(formula_seed)
    return [gen_formula(rng, max_vars=3, max_atoms=4, lo=-2, hi=2) for _ in range(count)]


def formula_index(unit: str) -> int:
    return int(unit.rsplit(".", 1)[1])


def oracle_bounds():
    from seqsolve.oracle import Bounds

    return Bounds(max_len=ORACLE_MAX_LEN, values=ORACLE_VALUES)


# ---------------------------------------------------------------------------
# summaries


def tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves at least ten of ``n``
    samples above it: p80 for 51 samples, p98 for 500."""
    if n < 10:
        return 50
    return max(50, math.floor(100 - 1000 / n + 1e-9))


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def env_json(env: dict | None):
    if env is None:
        return None
    return {k: list(v) for k, v in sorted(env.items())}


def env_of(doc: dict | None) -> dict | None:
    if doc is None:
        return None
    return {k: tuple(v) for k, v in doc.items()}


def digest(verdicts: list[dict]) -> tuple[str, dict]:
    """A hash of every verdict's id, status and witness or
    counterexample, and the count of each status."""
    rows = sorted((v["id"], v["status"], v.get("env")) for v in verdicts)
    h = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    counts: dict[str, int] = {}
    for _, status, _ in rows:
        counts[status] = counts.get(status, 0) + 1
    return h[:16], dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# reference checks (outside every timed region)


def _within_bounds(env: dict) -> bool:
    return all(
        len(seq) <= ORACLE_MAX_LEN and all(v in ORACLE_VALUES for v in seq)
        for seq in env.values()
    )


def check_files(verdicts: list[dict]) -> list[str]:
    """Compare corpus verdicts with corpus_truth.json and program
    verdicts with the outcomes the acceptance tests pin, and re-evaluate
    every witness and counterexample."""
    from seqsolve.oracle import matrix_value
    from seqsolve.parser import parse_formula

    frozen = truth()
    bad = []
    by_program: dict[str, list[dict]] = {}
    for v in verdicts:
        uid, status, env = v["id"], v["status"], env_of(v.get("env"))
        if uid.startswith("programs/"):
            by_program.setdefault(uid.split("#")[0], []).append(v)
            continue
        name = uid.split("/", 1)[1]
        if status != frozen[name]["status"]:
            bad.append(f"{uid}: {status}, frozen truth is {frozen[name]['status']}")
            continue
        if env is None:
            continue
        f = parse_formula((CORPUS / name).read_text())
        holds = matrix_value(f.matrix, env)
        # a sat witness satisfies the matrix; a counterexample falsifies it
        if holds != (status == "sat"):
            bad.append(f"{uid}: {status} assignment {env} fails re-evaluation")
    for prog, vs in by_program.items():
        statuses = [v["status"] for v in vs]
        if prog.endswith("reverse.sqp") and statuses != ["valid"] * 5:
            bad.append(f"{prog}: {statuses}, expected 5 x valid")
        if prog.endswith("merge_sort.sqp"):
            if any(s not in ("valid", "undetermined") for s in statuses):
                bad.append(f"{prog}: {statuses} has a definite failure")
            target = [v for v in vs if all(t in v["text"] for t in MERGE_TARGET)]
            if [v["status"] for v in target] != ["valid"]:
                bad.append(f"{prog}: final merge condition not a single valid")
    return bad


def check_random(verdicts: list[dict], formulas: list, models: dict) -> list[str]:
    """Re-evaluate every sat witness, and hold the solver's verdicts
    against bounded enumeration of the same formulas: an oracle model
    refutes an unsat, and a witness inside the bounds must be found."""
    from seqsolve.oracle import matrix_value

    bad = []
    for v in verdicts:
        uid, status, env = v["id"], v["status"], env_of(v.get("env"))
        f = formulas[formula_index(uid)]
        model = models[uid]
        if status == "error":
            bad.append(f"{uid}: {v.get('reason')}")
        elif status == "sat" and not matrix_value(f.matrix, env):
            bad.append(f"{uid}: witness {env} fails re-evaluation")
        elif status == "sat" and _within_bounds(env) and model is None:
            bad.append(f"{uid}: witness {env} inside the bounds, oracle found none")
        elif status == "unsat" and model is not None:
            bad.append(f"{uid}: unsat, oracle model {model}")
    return bad


def check_oracle(verdicts: list[dict], formulas: list) -> list[str]:
    """Every bounded model must satisfy its formula."""
    from seqsolve.oracle import matrix_value

    bad = []
    for v in verdicts:
        uid, status, env = v["id"], v["status"], env_of(v.get("env"))
        if status == "error":
            bad.append(f"{uid}: {v.get('reason')}")
        elif status == "sat" and not matrix_value(formulas[formula_index(uid)].matrix, env):
            bad.append(f"{uid}: oracle model {env} fails re-evaluation")
    return bad

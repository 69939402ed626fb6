"""The seqsolve benchmark: time to verdict on the shipped files, on
random-500 and on bounded enumeration.

    python3 bench/run.py --workload files --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout. Each repetition decides every input
of the workload in a fresh interpreter (bench/worker.py), so the
automaton caches start cold as they do for every command-line user; one
process and one caller at a time, a closed loop with one client.
Repetitions go on while another one fits in ``--seconds``. Times are in
reference seconds: wall time scaled by the machine's speed, which a
calibration kernel samples throughout (bench/calib.py). The inputs are fixed:
``--formula-seed`` (default 0) draws the random formula set, and
``--seed`` is only recorded, for the reasons bench/NOTES.md gives.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it pairs an untraced and a traced repetition and reports
the per-layer metrics. Every verdict is checked
against an independent reference outside the timed region. The last
line of standard output is one JSON object; the exit code is 1 when a
verdict failed its check and 2 when the checkout lacks the sources.
See bench/NOTES.md for the workloads and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
DEADLINE_S = 170.0
SETUP_REPEATS = 11
SETUP_CODE = (
    "import time; t = time.perf_counter(); "
    "import seqsolve.parser, seqsolve.wordsolver, seqsolve.vcgen, seqsolve.oracle; "
    "t = time.perf_counter() - t; "
    f"import sys; sys.path.insert(0, {str(BENCH)!r}); import calib; "
    "print(calib.reference_seconds(t))"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_ms.p50": "ms",
    "verdict_ms.tail": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = {
    "parser.self_s": "parser",
    "vcgen.self_s": "vcgen",
    "elaborate.self_s": "elaborate",
    "encode.self_s": "encode",
    "wordsolver.dnf_s": "wordsolver.dnf",
    "oracle.check_s": "oracle.check",
    "oracle.enum_s": "oracle.enum",
    "trace.glue_s": "input",
}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(W.SRC)
    # string hashing drives set and dict order; fixing it keeps repeated
    # runs comparable
    env["PYTHONHASHSEED"] = "0"
    env.pop("SEQSOLVE_BUDGET_NODES", None)  # the default budget, as shipped
    return env


def _python(args: list[str], deadline: float) -> str:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before {args[:2]}")
    try:
        p = subprocess.run(
            [sys.executable, *args], cwd=W.ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[:3]} did not finish within the run's deadline")
    if p.returncode != 0:
        raise BenchError(f"{args[:3]} exited {p.returncode}: {p.stderr.strip()[-2000:]}")
    return p.stdout.strip().splitlines()[-1]


def measure_setup(deadline: float) -> float:
    """Median import time of the four user-facing modules, each in a
    fresh interpreter, in reference seconds; the first import, which may
    compile bytecode, is not counted."""
    _python(["-c", SETUP_CODE], deadline)
    return statistics.median(
        float(_python(["-c", SETUP_CODE], deadline)) for _ in range(SETUP_REPEATS)
    )


def repetition(args, traced: bool, deadline: float, tag: str) -> dict:
    cmd = [str(BENCH / "worker.py"), "--workload", args.workload,
           "--formula-seed", str(args.formula_seed), "--trace", str(int(traced))]
    if args.limit:
        cmd += ["--limit", str(args.limit)]
    if traced:
        cmd += ["--spans", str(OUT / f"{tag}-spans.json")]
    return json.loads(_python(cmd, deadline))


def checker(args):
    """The reference check of one repetition's verdicts."""
    if args.workload == "files":
        return W.check_files
    ids = W.units(args.workload, args.formula_seed, args.limit)
    formulas = W.random_formulas(args.formula_seed, len(ids))
    if args.workload == "oracle-enum":
        return lambda verdicts: W.check_oracle(verdicts, formulas)
    models = oracle_models(ids, formulas)
    return lambda verdicts: W.check_random(verdicts, formulas, models)


def oracle_models(ids: list[str], formulas: list) -> dict:
    """Bounded models of the random formulas, the reference of random500.
    Enumeration takes 5 s or more, so the models are kept in OUT, keyed by
    the formulas and by the sources that compute them."""
    from seqsolve.oracle import brute_force_sat

    key = hashlib.sha256(repr((ids, W.ORACLE_MAX_LEN, W.ORACLE_VALUES)).encode())
    for src in sorted((W.SRC / "seqsolve").glob("*.py")):
        key.update(src.read_bytes())
    cache = OUT / f"oracle-models-{key.hexdigest()[:16]}.json"
    if cache.exists():
        return {u: W.env_of(m) for u, m in json.loads(cache.read_text()).items()}
    bounds = W.oracle_bounds()
    models = {u: brute_force_sat(f.matrix, f.prefix, bounds) for u, f in zip(ids, formulas)}
    cache.write_text(json.dumps({u: W.env_json(m) for u, m in models.items()}))
    return models


def _commit() -> str:
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(reps: list[dict], setup_s: float) -> tuple[dict, dict]:
    # each input's time is its median over the repetitions
    per_input: dict[str, list[float]] = {}
    for r in reps:
        for v in r["verdicts"]:
            per_input.setdefault(v["id"], []).append(v["s"])
    times_ms = sorted(statistics.median(t) * 1000 for t in per_input.values())
    tail = W.tail_percentile(len(times_ms))
    first = reps[0]["verdicts"]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "verdict_ms.p50": statistics.median(times_ms),
        "verdict_ms.tail": W.percentile(times_ms, tail),
        "decided_ratio": sum(v["status"] not in W.UNDECIDED for v in first) / len(first),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) * 1024 / 1e6,
    }
    notes = {
        "tail": f"p{tail} of {len(times_ms)} verdicts",
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
        "kernel_ms": statistics.median(r["kernel_s"] for r in reps) * 1000,
    }
    return values, notes


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    def med(fn):
        return statistics.median(fn(plain, traced) for plain, traced in pairs)

    values = {
        name: med(lambda p, t, k=key: t["self_s"].get(k, 0.0))
        for name, key in LAYER_TIMES.items()
    }
    values["wordsolver.search_s"] = med(
        lambda p, t: t["self_s"].get("wordsolver.solve", 0.0)
        - t["self_s"].get("wordsolver.dnf", 0.0)
    )
    plain, traced = pairs[0]
    values.update(traced["counters"])
    cache = plain["dfa"]
    values["dfa.built"] = cache["misses"]
    values["dfa.hit_ratio"] = cache["hits"] / max(1, cache["hits"] + cache["misses"])
    values["trace.wall_s"] = med(lambda p, t: t["wall_s"])
    values["trace.overhead_s"] = med(lambda p, t: t["wall_s"] - p["wall_s"])
    # time inside the traced loop that no span covers
    values["trace.unattributed_s"] = med(lambda p, t: t["wall_s"] - sum(t["self_s"].values()))
    notes = {"untraced_wall_s": med(lambda p, t: p["wall_s"])}
    return values, notes


def status_mismatches(plain: dict, traced: dict) -> list[str]:
    a = {v["id"]: v["status"] for v in plain["verdicts"]}
    b = {v["id"]: v["status"] for v in traced["verdicts"]}
    return [
        f"{k}: untraced {a.get(k)}, traced {b.get(k)}"
        for k in sorted(a.keys() | b.keys())
        if a.get(k) != b.get(k)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded with the result; the inputs do not depend on it")
    ap.add_argument("--seconds", type=float, default=36.0, help="measure for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--formula-seed", type=int, default=0, help="draws the random formulas")
    ap.add_argument("--limit", type=int, default=None, help="only the first N inputs (for tests)")
    args = ap.parse_args(argv)

    missing = W.missing_sources()
    if missing:
        print(f"bench: not a seqsolve checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(W.SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + DEADLINE_S

    try:
        setup_s = None if args.trace else measure_setup(deadline)
        t0 = time.monotonic()
        reps, pairs = [], []
        # another repetition (or pair) starts only if, at the mean pace so
        # far, it ends within --seconds
        while not reps or (time.monotonic() - t0) * (len(reps) + 1) / len(reps) <= args.seconds:
            plain = repetition(args, False, deadline, tag)
            reps.append(plain)
            if args.trace:
                pairs.append((plain, repetition(args, True, deadline, tag)))
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    check = checker(args)
    failures, attempted = [], 0
    for rep in reps + [t for _, t in pairs]:
        attempted += len(rep["verdicts"])
        failures += check(rep["verdicts"])
    for plain, traced in pairs:
        failures += status_mismatches(plain, traced)
    digests = {W.digest(r["verdicts"])[0] for r in reps}
    digest, counts = W.digest(reps[0]["verdicts"])
    if len(digests) > 1:
        failures.append(f"verdict digests differ between repetitions: {sorted(digests)}")

    if args.trace:
        values, notes = per_layer(pairs)
        units = {k: "ratio" if k == "dfa.hit_ratio" else "s" if k.endswith("_s") else "count"
                 for k in values}
    else:
        values, notes = end_to_end(reps, setup_s)
        units = END_TO_END
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "formula_seed": args.formula_seed if args.workload != "files" else None,
        "repetitions": len(reps),
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
    }
    result = {
        "meta": meta,
        "digest": digest,
        "status_counts": counts,
        "failures": failures,
        "notes": notes,
        "rep_wall_s": [r["wall_s"] for r in reps],
        "rep_raw_wall_s": [r["raw_wall_s"] for r in reps],
        "rep_kernel_s": [r["kernel_s"] for r in reps],
        "metrics": values,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    for k, v in meta.items():
        print(f"# {k}: {v}")
    print(f"# verdicts: {counts} digest {digest}")
    for k, v in notes.items():
        print(f"# {k}: {v}")
    for line in failures[:20]:
        print(f"# FAILED {line}")
    print(f"failed_ratio {len(failures) / attempted:.6g} ratio")
    for k, v in values.items():
        print(f"{k} {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

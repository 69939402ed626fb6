"""One repetition of a workload in a fresh interpreter.

    PYTHONPATH=src python3 bench/worker.py --workload files --trace 0

Run from the root of a checkout with ``src`` on PYTHONPATH (run.py does
both). The untraced run calls what users call: check_sat / check_valid,
parse_program_file -> vcs -> discharge, and brute_force_sat. The traced
run rebuilds check_sat from the layers' public functions and records a
span around each call. Either way a calibrator (calib.py) samples the
machine's speed throughout, every time reported is in reference seconds,
and the last line of standard output is one JSON object with the
verdicts, their times and the counters.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from contextlib import contextmanager

import workloads as W
from calib import Calibrator, clock
from seqsolve import dfa
from seqsolve.ast import EXISTS, FORALL, Formula, Not, free_vars
from seqsolve.elaborate import elaborate
from seqsolve.encode import decode_word, encode_elaboration, formula_size, problem_size
from seqsolve.oracle import brute_force_sat, matrix_value
from seqsolve.parser import parse_formula
from seqsolve.printer import print_formula
from seqsolve.vcgen import discharge, parse_program_file, vcs
from seqsolve.wordsolver import (
    Budget,
    ClauseCapExceeded,
    check_sat,
    check_valid,
    nnf_dnf,
    solve_problem,
)

COUNTERS = (
    "parser.formula_size", "vcgen.conditions", "vcgen.weakened",
    "encode.problem_size", "wordsolver.clauses", "wordsolver.clause_cap_hits",
    "wordsolver.nodes", "wordsolver.unknown.node_budget",
    "wordsolver.unknown.witness_cap", "wordsolver.unknown.clause_cap",
)
_FLIP_SAT = {"sat": "unsat", "unsat": "sat", "unknown": "unknown"}
_TO_VALID = {"sat": "invalid", "unsat": "valid", "unknown": "unknown"}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, input id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.input = ""

    @contextmanager
    def span(self, name: str):
        rec = [name, clock(), 0.0, self._stack[-1] if self._stack else None, self.input]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = clock()
            self._stack.pop()

    def to_reference(self, ref) -> None:
        for rec in self.spans:
            rec[1], rec[2] = ref(rec[1]), ref(rec[2])

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the children's."""
        out: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
            if parent is not None:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - (end - start)
        return out


class TracedPipeline:
    """check_sat, check_valid and discharge rebuilt from the layers'
    public functions, with a span around each call and the layer
    counters summed over the run."""

    def __init__(self, budget: Budget):
        self.tr = Tracer()
        self.budget = budget
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.parsed: list[Formula] = []
        self.problems: list = []  # sized after the timed loop

    def parse(self, text: str) -> Formula:
        with self.tr.span("parser"):
            f = parse_formula(text)
        self.parsed.append(f)
        return f

    def exists(self, g: Formula):
        tr, b, c = self.tr, self.budget, self.counts
        with tr.span("elaborate"):
            elab = elaborate(g, EXISTS)
        with tr.span("encode"):
            wp = encode_elaboration(elab)
        self.problems.append(wp)
        # solve_problem repeats this inside; timing it alone is what lets
        # search time be told apart from DNF time
        with tr.span("wordsolver.dnf"):
            try:
                nnf_dnf(wp.matrix, b.clause_cap)
            except ClauseCapExceeded:
                c["wordsolver.clause_cap_hits"] += 1
        with tr.span("wordsolver.solve"):
            status, sigma, ctl, nclauses = solve_problem(wp, b)
        c["wordsolver.clauses"] += nclauses
        c["wordsolver.nodes"] += ctl.nodes
        env, reason = None, ""
        if status == "sat":
            names = g.prefix if g.quantifier is not None else sorted(free_vars(g))
            env = {}
            for x in names:
                marked = elab.rev_map.get(x, x)
                seq = decode_word(sigma.get(marked, ""))
                env[x] = seq[::-1] if marked != x else seq
            with tr.span("oracle.check"):
                ok = matrix_value(g.matrix, env)
            if not ok:
                raise RuntimeError(f"witness failed verification: {env!r}")
        elif status == "unknown":
            if ctl.overflowed:
                reason, key = "clause cap exceeded", "clause_cap"
            elif ctl.capped:
                reason, key = "witness length cap", "witness_cap"
            else:
                reason, key = "node budget exhausted", "node_budget"
            c[f"wordsolver.unknown.{key}"] += 1
        return status, env, reason

    def sat(self, f: Formula):
        if f.quantifier == FORALL:
            st, env, reason = self.exists(Formula(EXISTS, f.prefix, Not(f.matrix)))
            return _FLIP_SAT[st], env, reason
        return self.exists(f)

    def valid(self, f: Formula):
        prefix = f.prefix if f.quantifier is not None else tuple(sorted(free_vars(f)))
        st, env, reason = self.exists(Formula(EXISTS, prefix, Not(f.matrix)))
        return _TO_VALID[st], env, reason

    def discharge(self, vc):
        if vc.unencodable:
            return "unencodable", None, vc.unencodable
        st, env, reason = self.valid(vc.formula)
        if st == "invalid" and vc.weakened:
            return "undetermined", None, ""
        return st, env, reason

    def counters(self, conditions: list) -> dict:
        c = dict(self.counts)
        c["parser.formula_size"] = sum(formula_size(f) for f in self.parsed)
        c["encode.problem_size"] = sum(problem_size(wp) for wp in self.problems)
        c["vcgen.conditions"] = len(conditions)
        c["vcgen.weakened"] = sum(vc.weakened for vc in conditions)
        return c


def _answer(r):
    return r.status, r.witness if r.status == "sat" else r.counterexample, r.reason


class Run:
    """The verdicts of one repetition, traced when ``pipe`` is set."""

    def __init__(self, workload: str, ids: list[str], formula_seed: int, traced: bool):
        self.workload = workload
        self.budget = Budget()
        self.pipe = TracedPipeline(self.budget) if traced else None
        self.verdicts: list[dict] = []
        self.vc_lists: dict[str, list] = {}
        if workload == "files":
            frozen = W.truth()
            self.corpus = {
                u: ((W.ROOT / u).read_text(), frozen[u.split("/", 1)[1]]["command"])
                for u in ids
                if u.startswith("corpus/")
            }
        else:
            self.formulas = dict(zip(ids, W.random_formulas(formula_seed, len(ids))))
            self.bounds = W.oracle_bounds()

    def _record(self, uid: str, start: float, status: str, env=None, reason: str = ""):
        """A verdict reached in the clock() interval from ``start`` to now;
        ``to_reference`` turns the interval into its time ``s``."""
        self.verdicts.append(
            {"id": uid, "status": status, "env": W.env_json(env), "reason": reason,
             "interval": (start, clock())}
        )

    def to_reference(self, ref) -> None:
        for v in self.verdicts:
            a, b = v.pop("interval")
            v["s"], v["raw_s"] = ref(b) - ref(a), b - a

    @contextmanager
    def _input(self, uid: str, layer: str | None = None):
        """The root span of one traced input, and a layer span inside it."""
        tr = self.pipe.tr
        tr.input = uid
        with tr.span("input"):
            if layer is None:
                yield
            else:
                with tr.span(layer):
                    yield

    def decide(self, uid: str):
        """Decide one unit and record its verdicts with their times."""
        try:
            if uid.startswith("programs/"):
                self._program(uid)
                return
            t0 = clock()
            status, env, reason = self._formula(uid)
            self._record(uid, t0, status, env, reason)
        except Exception as e:  # recorded as a failed verdict, the run goes on
            self._record(uid, clock(), "error", None, f"{type(e).__name__}: {e}")

    def _formula(self, uid: str):
        p = self.pipe
        if self.workload == "oracle-enum":
            f = self.formulas[uid]
            if p is None:
                model = brute_force_sat(f.matrix, f.prefix, self.bounds)
            else:
                with self._input(uid, "oracle.enum"):
                    model = brute_force_sat(f.matrix, f.prefix, self.bounds)
            return ("sat" if model is not None else "unsat"), model, ""
        if self.workload == "random500":
            f = self.formulas[uid]
            if p is None:
                return _answer(check_sat(f, self.budget))
            with self._input(uid):
                return p.sat(f)
        text, command = self.corpus[uid]
        if p is None:
            f = parse_formula(text)
            decide = check_valid if command == "valid" else check_sat
            return _answer(decide(f, self.budget))
        with self._input(uid):
            f = p.parse(text)
            return p.valid(f) if command == "valid" else p.sat(f)

    def _program(self, uid: str):
        start = clock()
        if self.pipe is None:
            conditions = vcs(parse_program_file(W.ROOT / uid))
        else:
            with self._input(uid, "vcgen"):
                conditions = vcs(parse_program_file(W.ROOT / uid))
        self.vc_lists[uid] = conditions
        for k, vc in enumerate(conditions):
            cid = f"{uid}#{k}"
            # the program's parse and vcs time goes to its first verdict
            t0 = start if k == 0 else clock()
            if self.pipe is None:
                d = discharge([vc], self.budget)[0]
                status, env, reason = d.verdict, d.counterexample, d.detail
            else:
                with self._input(cid):
                    status, env, reason = self.pipe.discharge(vc)
            self._record(cid, t0, status, env, reason)


def _dfa_cache() -> dict:
    hits = misses = 0
    for obj in vars(dfa).values():
        info = getattr(obj, "cache_info", None)
        if info is not None:
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return {"hits": hits, "misses": misses}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--formula-seed", type=int, default=0)
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="file to write the spans to")
    args = ap.parse_args(argv)

    ids = W.units(args.workload, args.formula_seed, args.limit)
    run = Run(args.workload, ids, args.formula_seed, bool(args.trace))
    cal = Calibrator()
    cal.start()
    try:
        t0 = clock()
        for uid in ids:
            run.decide(uid)
        t1 = clock()
    finally:
        cal.stop()
    ref = cal.ref_clock()
    run.to_reference(ref)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    texts = {
        f"{uid}#{k}": print_formula(vc.formula)
        for uid, conditions in run.vc_lists.items()
        for k, vc in enumerate(conditions)
    }
    for v in run.verdicts:
        if v["id"] in texts:
            v["text"] = texts[v["id"]]
    out = {
        "wall_s": ref(t1) - ref(t0),
        "raw_wall_s": t1 - t0,
        "kernel_s": ref.kernel_s,
        "peak_rss_kb": peak_kb,
        "dfa": _dfa_cache(),
        "verdicts": run.verdicts,
    }
    if run.pipe is not None:
        run.pipe.tr.to_reference(ref)
        out["self_s"] = run.pipe.tr.self_times()
        conditions = [vc for vl in run.vc_lists.values() for vc in vl]
        out["counters"] = run.pipe.counters(conditions)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(run.pipe.tr.spans, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

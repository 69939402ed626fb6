"""Acceptance checks for the whole toolkit, one verdict line each.

Every test here guards one end-to-end promise: the property corpus
decides correctly and fast, annotated programs produce the reference
verification conditions and discharge them, the integer codec is an
exact bijection on a large range, solver verdicts never contradict
bounded enumeration, encodings stay within the frozen growth budget,
witnesses survive independent re-evaluation, and quadratic clauses
are decided with no unknowns.

Expected outcomes are [DERIVED]: corpus statuses were frozen from
independent ground reasoning in tests/data/corpus_truth.json before
the solver ever ran on them, the growth budget is pinned in
tests/data/blowup_baseline.json, and the differential checks recompute
ground truth in-process by an exhaustive search of the bounded space
(oracle.brute_force_sat). Each test
prints a one-line PASS summary with its measurements (visible under
pytest -s or -rA); failures carry the same detail in the assertion.
"""

import collections
import hashlib
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from seqsolve.ast import FORALL, conj
from seqsolve.elaborate import elaborate
from seqsolve.encode import (
    WEq,
    WordProblem,
    decode_word,
    encode_elaboration,
    encode_int,
    formula_size,
    problem_size,
    var_name,
)
from seqsolve.oracle import Bounds, brute_force_sat, matrix_value
from seqsolve.parser import parse_formula
from seqsolve.printer import print_formula
from seqsolve.randgen import gen_formula, gen_quadratic_clause
from seqsolve.vcgen import discharge, parse_program_file, vcs
from seqsolve.wordsolver import check_sat, check_valid, negation, solve_problem

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
PROGRAMS = ROOT / "programs"
DATA = Path(__file__).parent / "data"

TRUTH = json.loads((DATA / "corpus_truth.json").read_text())

# the property families the corpus must cover, each with one holding
# and one violating ground instance
FAMILIES = {
    "equality": ("equality_hold.seq", "equality_viol.seq"),
    "bounded-equality": ("bounded_equality_hold.seq", "bounded_equality_viol.seq"),
    "boundedness": ("boundedness_hold.seq", "boundedness_viol.seq"),
    "sortedness": ("sorted_123.seq", "sorted_21.seq"),
    "injectivity": ("injectivity_hold.seq", "injectivity_121.seq"),
    "partitioning": ("partitioning_hold.seq", "partitioning_viol.seq"),
    "membership": ("membership_hold.seq", "membership_viol.seq"),
    "non-membership": ("nonmembership_hold.seq", "nonmembership_viol.seq"),
    "periodicity": ("periodicity_101.seq", "periodicity_viol.seq"),
    "comparison": ("comparison_hold.seq", "comparison_viol.seq"),
    "disjunction": ("disjunction_hold.seq", "disjunction_viol.seq"),
}

HOLD_STATUSES = {"valid", "sat"}
VIOL_STATUSES = {"invalid", "unsat"}


def _decide(name: str):
    f = parse_formula((CORPUS / name).read_text())
    entry = TRUTH[name]
    r = check_valid(f) if entry["command"] == "valid" else check_sat(f)
    return entry, r


# ---------------------------------------------------------------------------
# 1. property corpus: every frozen status reproduced, quickly


# The search's totals, pinned so that any change to the search order
# shows: (nodes, clauses) over the corpus, each file under its frozen
# command, over the seed-0 random formulas, and over every condition of
# each program under check_valid. A change that moves them must update
# them and say why in CHANGES.md.
CORPUS_SEARCH_TOTALS = (3_141, 60)
RANDOM_SEARCH_TOTALS = (1_885, 409)
PROGRAM_SEARCH_TOTALS = {"reverse.sqp": (458, 4), "merge_sort.sqp": (3_135, 86)}


def test_property_corpus_statuses():
    assert len(FAMILIES) == 11
    t0 = time.monotonic()
    mismatches = []
    nodes = clauses = 0
    for name in sorted(TRUTH):
        entry, r = _decide(name)
        if r.status != entry["status"]:
            mismatches.append(f"{name}: expected {entry['status']}, got {r.status}")
        nodes += r.nodes
        clauses += r.clauses
    elapsed = time.monotonic() - t0
    assert (nodes, clauses) == CORPUS_SEARCH_TOTALS
    for family, (hold, viol) in FAMILIES.items():
        assert TRUTH[hold]["status"] in HOLD_STATUSES, family
        assert TRUTH[viol]["status"] in VIOL_STATUSES, family
    assert not mismatches, "; ".join(mismatches)
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s, budget is 60s"
    print(
        f"\nproperty corpus: PASS "
        f"({len(TRUTH)} files over {len(FAMILIES)} property families, "
        f"all statuses as frozen, {elapsed:.1f}s)"
    )


# The wp-1 dump of the word problem each corpus file is decided by (the
# negation, for a file decided under `valid`), as the first 16 hex
# digits of the SHA-256 of its sorted-key JSON. A change to elaboration
# or encoding that alters any clause, side or automaton moves a digest;
# one that moves it on purpose re-pins it and says why in CHANGES.md.
CORPUS_ENCODING_DIGESTS = {
    "bounded_equality_hold.seq": "031ff18502598d8f",
    "bounded_equality_viol.seq": "45bf8372e7938adc",
    "boundedness_hold.seq": "b88b5ada1d3b7485",
    "boundedness_viol.seq": "6038439855a08824",
    "comparison_hold.seq": "3eab65871b009707",
    "comparison_viol.seq": "2c5fc00afb1af66e",
    "disjunction_hold.seq": "b8055e12011925a6",
    "disjunction_viol.seq": "a4cce4d814a4034e",
    "equality_hold.seq": "82f9868f139cb1b9",
    "equality_viol.seq": "3ecd2bd7f575274a",
    "injectivity_121.seq": "2fd7cf0827188c76",
    "injectivity_hold.seq": "965531deed171816",
    "len_clash.seq": "4f46df1f70446892",
    "membership_hold.seq": "dfc489f33c552e76",
    "membership_viol.seq": "82a3ac84552081a0",
    "mergesort_final_vc.seq": "903bc7cafb1487a7",
    "nonmembership_hold.seq": "ac4e5ce57e367a23",
    "nonmembership_viol.seq": "ac993c605d05127f",
    "partitioning_hold.seq": "1acf2994d94213c1",
    "partitioning_viol.seq": "dc214f57403a2718",
    "periodicity_101.seq": "d102b7481f9889ce",
    "periodicity_viol.seq": "2c54974bc79103a5",
    "reversal_step_vc.seq": "0c58e27bd84d0f4a",
    "sorted_123.seq": "dff06ae5239de098",
    "sorted_21.seq": "22e467918b02b08a",
    "sorted_nonstrict_112.seq": "30cc878bd12bd59b",
    "sorted_nonstrict_21.seq": "ef5e52def7de3aa9",
}


def test_corpus_encodings_pinned():
    got = {}
    for name in sorted(TRUTH):
        f = parse_formula((CORPUS / name).read_text())
        if TRUTH[name]["command"] == "valid" or f.quantifier == FORALL:
            f = negation(f)
        doc = encode_elaboration(elaborate(f)).to_json()
        got[name] = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
    assert got == CORPUS_ENCODING_DIGESTS


# the encodings of both programs' conditions, in vcs order; merge_sort's
# hold the only nested subranges of the shipped inputs
PROGRAM_ENCODING_DIGESTS = {
    "merge_sort.sqp": [
        "48283dcc0c19ce1b", "8f77cde93c1f7e5d", "9f58243968e59be3", "eb115661afe14368",
        "9c681cf564be6fa0", "6bc5368f15523a09", "d83e511a4ae78706", "cfec91510d4c3efb",
        "643a5fece8dd9559", "3077021da9ba9402", "3e5c3cf1b7ed9cef", "28604155c20ef75d",
        "98749389546c7088", "0cf5ce40cea25188", "1d783d13918d5dbf", "6d4f9a3ca1eaec19",
        "36ca2332fea6b7b4", "6cd068930ecdf2ed", "bce2d9d5eb9b41e3",
    ],
    "reverse.sqp": [
        "9b2493c59d711141", "adedeece3ec81663", "2b86e82142b74231", "bee50b0977da831a",
        "4d2798315f0b451b",
    ],
}


@pytest.mark.parametrize("name", sorted(PROGRAM_ENCODING_DIGESTS))
def test_program_encodings_pinned(name):
    got = []
    for vc in vcs(parse_program_file(PROGRAMS / name)):
        doc = encode_elaboration(vc.elaboration).to_json()
        got.append(hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16])
    assert got == PROGRAM_ENCODING_DIGESTS[name]


# ---------------------------------------------------------------------------
# 2. annotated programs: the two reference conditions are generated
#    and discharged valid


@pytest.mark.parametrize("name", sorted(PROGRAM_SEARCH_TOTALS))
def test_program_search_totals(name):
    nodes = clauses = 0
    for vc in vcs(parse_program_file(PROGRAMS / name)):
        r = check_valid(vc.formula, None, vc.elaboration)
        nodes += r.nodes
        clauses += r.clauses
    assert (nodes, clauses) == PROGRAM_SEARCH_TOTALS[name]


def test_reversal_program_inductive_step_discharged():
    t0 = time.monotonic()
    program = parse_program_file(PROGRAMS / "reverse.sqp")
    conditions = vcs(program)
    results = discharge(conditions)
    elapsed = time.monotonic() - t0
    assert [d.verdict for d in results] == ["valid"] * 5
    texts = [print_formula(c.formula) for c in conditions]
    inductive = [
        t for t in texts if "s[1:-1] ++ rev(res ++ last(s)) = $old_a" in t
    ]
    assert len(inductive) == 1, texts
    assert elapsed < 120.0, f"reversal took {elapsed:.1f}s, budget is 120s"
    # the same step, written directly as a formula, is also valid
    f = parse_formula((CORPUS / "reversal_step_vc.seq").read_text())
    assert check_valid(f).status == "valid"
    print(
        f"\nreversal program: PASS "
        f"(5 conditions valid incl. inductive step, {elapsed:.1f}s)"
    )


def test_merge_program_final_condition_discharged():
    t0 = time.monotonic()
    program = parse_program_file(PROGRAMS / "merge_sort.sqp")
    conditions = vcs(program)
    results = discharge(conditions)
    elapsed = time.monotonic() - t0
    # the decisive piece: after taking from the right run, the next
    # left element still dominates the appended one
    target = [
        (c, d)
        for c, d in zip(conditions, results)
        if "last(res ++ first(r)) <= first(l)" in print_formula(c.formula)
        and "!first(l) <= first(r)" in print_formula(c.formula)
    ]
    assert len(target) == 1
    assert target[0][1].verdict == "valid"
    # dropped sortedness hypotheses may leave pieces undetermined, but
    # nothing may be reported as a definite failure
    assert all(d.verdict in ("valid", "undetermined") for d in results)
    assert elapsed < 120.0, f"merge took {elapsed:.1f}s, budget is 120s"
    # the fully decomposed form of the same condition is also valid
    f = parse_formula((CORPUS / "mergesort_final_vc.seq").read_text())
    assert check_valid(f).status == "valid"
    n_valid = sum(d.verdict == "valid" for d in results)
    print(
        f"\nmerge program: PASS "
        f"({len(results)} conditions: {n_valid} valid, "
        f"{len(results) - n_valid} undetermined, final condition valid, "
        f"{elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 3. integer codec: exact roundtrip on a large range


def test_integer_codec_roundtrip_exact():
    for k in range(-1000, 1001):
        assert list(decode_word(encode_int(k))) == [k], k
    print("\ninteger codec: PASS (roundtrip exact for k in [-1000, 1000])")


# ---------------------------------------------------------------------------
# 4 and 6. random formulas: solver verdicts vs bounded enumeration


N_FORMULAS = 500
ORACLE_BOUNDS = Bounds(max_len=3, values=(-2, -1, 0, 1, 2))


@pytest.fixture(scope="module")
def formula_runs():
    rng = random.Random(0)
    formulas = [
        gen_formula(rng, max_vars=3, max_atoms=4, lo=-2, hi=2)
        for _ in range(N_FORMULAS)
    ]
    return [(f, check_sat(f)) for f in formulas]


def test_random_formula_differential_agreement(formula_runs):
    disagreements = []
    unknown = 0
    n_sat = n_unsat = 0
    for i, (f, r) in enumerate(formula_runs):
        if r.status == "unknown":
            unknown += 1
            continue
        if r.status == "sat":
            n_sat += 1
            if not matrix_value(f.matrix, r.witness):
                disagreements.append(f"#{i} sat witness fails: {print_formula(f)}")
            continue
        n_unsat += 1
        env = brute_force_sat(f.matrix, f.prefix, ORACLE_BOUNDS)
        if env is not None:
            disagreements.append(f"#{i} unsat but bounded model {env}: {print_formula(f)}")
    rate = unknown / len(formula_runs)
    assert not disagreements, "; ".join(disagreements[:5])
    assert rate < 0.20, f"unknown rate {rate:.1%} exceeds 20%"
    print(
        f"\nrandom formula differential: PASS "
        f"({len(formula_runs)} formulas: {n_sat} sat / {n_unsat} unsat / "
        f"{unknown} unknown ({rate:.1%}), 0 disagreements)"
    )


# The eager DNF gave up on these with `clause cap exceeded`; enumerated
# lazily and pruned, each is decided at the default budget. #141 and
# #338 each have a false ground conjunct, so elaboration folds them to
# false and no clause reaches the search.
FORMER_CLAUSE_CAP_UNKNOWNS = {68: "unsat", 82: "unsat", 141: "unsat", 279: "sat", 493: "sat"}


def test_former_clause_cap_unknowns_decided(formula_runs):
    assert not [i for i, (_, r) in enumerate(formula_runs) if r.status == "unknown"]
    for i, status in FORMER_CLAUSE_CAP_UNKNOWNS.items():
        f, r = formula_runs[i]
        assert r.status == status, f"#{i}"
        if status == "sat":
            assert matrix_value(f.matrix, r.witness), f"#{i}"
        else:
            assert brute_force_sat(f.matrix, f.prefix, ORACLE_BOUNDS) is None, f"#{i}"
    assert formula_runs[141][1].clauses == formula_runs[338][1].clauses == 0


# Every bound on y - x lowers to a bound on one difference variable, so
# the clause walk's length theory refutes the pair before any search.
# #191 of seed 0's stream with up to 8 atoms and constants in [-20, 20]
# ended `unknown (witness length cap)` when each side of a comparison
# had its own sum guard.
def test_contradictory_difference_bounds_refuted_without_search():
    rng = random.Random(0)
    drawn = [gen_formula(rng, max_vars=3, max_atoms=8, lo=-20, hi=20) for _ in range(192)]
    small = parse_formula("exists x, y . y + (-9) < x + (-14) & !(y - 9 <= x)")
    for f in (small, drawn[191]):
        r = check_sat(f)
        assert (r.status, r.nodes) == ("unsat", 0)
    bounds = Bounds(max_len=1, values=tuple(range(-20, 21)))
    assert brute_force_sat(small.matrix, small.prefix, bounds) is None


# #70 of seed 1's stream with up to 8 atoms and constants in [-20, 20]
# ended `unknown (witness length cap)`. It is unsat: in
# y ++ y ++ [-20] = [12] ++ y ++ x the lengths force |x| = |y|, so the
# first |y| + 1 elements of each side give y = [12] ++ y[0:-1] and
# first(y) = last(y). y is a rotation of itself that starts with 12, so
# every element is 12, which contradicts y in INT* 14 INT*.
def test_rotation_contradiction_decided_unsat():
    rng = random.Random(1)
    f = [gen_formula(rng, max_vars=3, max_atoms=8, lo=-20, hi=20) for _ in range(71)][70]
    assert "y ++ y ++ (-20) = 12 ++ y ++ x" in print_formula(f)
    assert check_sat(f).status == "unsat"
    bounds = Bounds(max_len=2, values=(-20, -14, 3, 9, 10, 12, 14, 17, 19))
    assert brute_force_sat(f.matrix, f.prefix, bounds) is None


# 200 formulas of seed 1's stream with up to 8 atoms and constants in
# [-20, 20], a harder profile than the differential's, whose searches
# use up their turns: the totals show a search that starts over instead
# of resuming. #197 took 8,001 nodes that way. #64 needs a longer
# witness than the default cap allows.
def test_harder_profile_pinned():
    rng = random.Random(1)
    runs = [check_sat(gen_formula(rng, max_vars=3, max_atoms=8, lo=-20, hi=20)) for _ in range(200)]
    counts = collections.Counter((r.status, r.reason) for r in runs)
    assert counts == {("sat", ""): 143, ("unsat", ""): 56, ("unknown", "witness length cap"): 1}
    assert runs[64].status == "unknown"
    assert sum(r.nodes for r in runs) == 6_692
    assert runs[197].status == "sat" and runs[197].nodes <= 1_000


def test_random_search_totals_pinned(formula_runs):
    nodes = sum(r.nodes for _, r in formula_runs)
    clauses = sum(r.clauses for _, r in formula_runs)
    assert (nodes, clauses) == RANDOM_SEARCH_TOTALS


def test_sat_witnesses_independently_reevaluated(formula_runs):
    total = passed = 0
    for f, r in formula_runs:
        if r.status != "sat":
            continue
        total += 1
        passed += bool(matrix_value(f.matrix, r.witness))
    # corpus satisfiability runs contribute their witnesses as well
    for name in sorted(TRUTH):
        if TRUTH[name]["command"] != "sat" or TRUTH[name]["status"] != "sat":
            continue
        f = parse_formula((CORPUS / name).read_text())
        r = check_sat(f)
        total += 1
        passed += bool(matrix_value(f.matrix, r.witness))
    assert total > 0
    assert passed == total, f"{total - passed} of {total} witnesses fail re-evaluation"
    print(f"\nwitness soundness: PASS ({passed}/{total} witnesses re-evaluate true)")


# ---------------------------------------------------------------------------
# 5. encoding growth: frozen quadratic budget, regressions over 10% fail
#
# The encoded size is that of the problem the solver decides: the
# formula itself if it is existential or prefix-free, and the negation
# `valid` refutes if it is universal. The formula size is the input's.


def test_encoding_growth_quadratic_bound():
    baseline = json.loads((DATA / "blowup_baseline.json").read_text())
    allowed_ratio = baseline["ratio"] * 1.10
    worst = 0.0
    offenders = []
    seen = {}
    for path in sorted(CORPUS.glob("*.seq")):
        f = parse_formula(path.read_text())
        decided = negation(f) if f.quantifier == FORALL else f
        wp = encode_elaboration(elaborate(decided))
        nf, ne = formula_size(f), problem_size(wp)
        seen[path.name] = ne
        ratio = ne / (nf * nf)
        worst = max(worst, ratio)
        if ratio > allowed_ratio:
            offenders.append(f"{path.name}: ratio {ratio:.3f} > {allowed_ratio:.3f}")
    for name, record in baseline["files"].items():
        if seen.get(name, 0) > record["encoded"] * 1.10:
            offenders.append(
                f"{name}: encoded size {seen[name]} regressed over {record['encoded']}"
            )
    assert not offenders, "; ".join(offenders)
    print(
        f"\nencoding growth: PASS "
        f"(worst size ratio {worst:.3f} of frozen {baseline['ratio']:.3f}, "
        f"quadratic budget holds on {len(seen)} files)"
    )


# ---------------------------------------------------------------------------
# 7. quadratic clauses: complete, and agreeing with brute force


def _short_words(max_len: int = 4) -> list[str]:
    words = []
    for n in range(max_len + 1):
        words.extend("".join(p) for p in itertools.product("ab", repeat=n))
    return words


def _side_word(side, assignment) -> str:
    return "".join(assignment[var_name(c)] if c > "d" else c for c in side)


def _brute_clause(eqs, names, words) -> dict | None:
    for combo in itertools.product(words, repeat=len(names)):
        assignment = dict(zip(names, combo))
        if all(
            _side_word(l, assignment) == _side_word(r, assignment) for l, r in eqs
        ):
            return assignment
    return None


def test_quadratic_clauses_decided_completely():
    rng = random.Random(1)
    words = _short_words()
    n_sat = n_unsat = 0
    for i in range(200):
        eqs = gen_quadratic_clause(rng)
        names = sorted({var_name(c) for l, r in eqs for c in l + r if c > "d"})
        wp = WordProblem(
            variables=tuple(names),
            matrix=conj([WEq(l, r) for l, r in eqs]),
        )
        status, sigma, _, _ = solve_problem(wp)
        assert status != "unknown", f"clause #{i} returned unknown: {eqs}"
        model = _brute_clause(eqs, names, words)
        if status == "unsat":
            n_unsat += 1
            assert model is None, f"clause #{i}: solver unsat but model {model}"
        else:
            n_sat += 1
            assignment = {n: sigma.get(n, "") for n in names}
            assert all(
                _side_word(l, assignment) == _side_word(r, assignment)
                for l, r in eqs
            ), f"clause #{i}: witness fails substitution"
        if model is not None:
            assert status == "sat", f"clause #{i}: brute model exists but unsat"
    print(
        f"\nquadratic clauses: PASS "
        f"(200 clauses: {n_sat} sat / {n_unsat} unsat, no unknowns, "
        f"brute force agrees)"
    )

"""Automaton tests: every operation is cross-checked against plain set
arithmetic over an exhaustive enumeration of short words [TRIVIAL
oracle-by-enumeration]."""

import itertools
import random

from seqsolve import dfa
from seqsolve.dfa import (
    ALPHABET,
    Dfa,
    _canon,
    concat,
    empty_dfa,
    lit,
    make_dfa,
    plus,
    power,
    star,
    union,
)

MAXLEN = 5


def words(maxlen=MAXLEN):
    for n in range(maxlen + 1):
        for combo in itertools.product(ALPHABET, repeat=n):
            yield "".join(combo)


def lang(d: Dfa, maxlen=MAXLEN):
    return {w for w in words(maxlen) if d.accepts(w)}


A, B, C = lit("ab"), lit("b"), union(lit("a"), lit("cd"))


def test_lit():
    assert lang(lit("ab")) == {"ab"}
    assert lang(lit("")) == {""}
    assert lang(empty_dfa()) == set()
    assert lang(empty_dfa().complement()) == set(words())


def test_union_and_intersection_match_set_ops():
    for x, y in [(A, B), (A, C), (B, C)]:
        assert lang(union(x, y)) == lang(x) | lang(y)
        assert lang(x.intersect(y)) == lang(x) & lang(y)


def test_complement_is_set_difference():
    for x in (A, B, C):
        assert lang(x.complement()) == set(words()) - lang(x)


def test_concat_star_plus_power():
    assert lang(concat(A, B)) == {"abb"}
    got = lang(star(C))
    expect = set()
    for n in range(6):
        for combo in itertools.product(["a", "cd"], repeat=n):
            w = "".join(combo)
            if len(w) <= MAXLEN:
                expect.add(w)
    assert got == expect
    assert lang(plus(B)) == {"b" * k for k in range(1, MAXLEN + 1)}
    assert lang(power(B, 3)) == {"bbb"}
    assert lang(power(B, 0)) == {""}


def test_canonical_equality_is_language_equality():
    assert union(A, B) == union(B, A)
    assert star(star(C)) == star(C)
    assert concat(A, union(B, C)) == union(concat(A, B), concat(A, C))
    assert A.complement().complement() == A
    assert A != B


def test_emptiness_universality_singleton():
    assert A.intersect(B).is_empty()
    assert not A.is_empty()
    assert empty_dfa().complement().complement().is_empty()
    assert union(A, A.complement()).complement().is_empty()
    assert A.is_singleton()
    assert not C.is_singleton()
    assert not empty_dfa().is_singleton()
    assert lit("").is_singleton()


def test_shortest_word_is_length_lex_least():
    d = union(lit("cd"), lit("b"), lit("ad"))
    assert d.shortest_word() == "b"
    d2 = union(lit("ca"), lit("ab"))
    assert d2.shortest_word() == "ab"
    assert empty_dfa().shortest_word() is None
    assert star(B).shortest_word() == ""
    assert len(d.shortest_word()) == 1


def test_derivative():
    for d in (A, B, C, star(C)):
        for ch in ALPHABET:
            dd = d.derivative(ch)
            assert lang(dd, MAXLEN - 1) == {
                w[1:] for w in lang(d) if w.startswith(ch)
            }


def test_state_surgery_splits_language():
    # every accepted word must split at each prefix into a path to some
    # state and a completion from it, and the split at that state holds
    # both halves
    d = star(C)
    splits = d.splits(empty_dfa().complement())
    for w in sorted(lang(d, 4)):
        for cut in range(len(w) + 1):
            s = d.start
            for ch in w[:cut]:
                s = d.step(s, ch)
            head, tail = _canon(d.delta, d.start, {s}), d.with_start(s)
            assert head.accepts(w[:cut]) and tail.accepts(w[cut:])
            assert (head, tail) in splits


def test_containment():
    assert union(C, lit("")).intersect(star(C).complement()).is_empty()
    assert not star(C).intersect(C.complement()).is_empty()


def test_make_dfa_canonicalizes():
    # two redundant states collapsing to the one-state universal DFA
    d = make_dfa([(1, 1, 1, 1), (0, 0, 0, 0)], 0, [0, 1])
    assert d == empty_dfa().complement()
    assert d.n == 1


SHORT = 4  # the word sets multiplied below grow as their product


def _cat(x: set, y: set) -> set:
    return {u + v for u in x for v in y if len(u) + len(v) <= SHORT}


def _star(x: set) -> set:
    out = {""}
    while True:
        more = out | _cat(out, x)
        if more == out:
            return out
        out = more


def test_constructors_match_word_set_arithmetic():
    # random canonical parts, among them the empty language, lit("") and
    # parts whose start accepts, joined in 0-4 parts
    rng = random.Random(3)
    pool = [empty_dfa(), lit(""), empty_dfa().complement(), lit("a")]
    for _ in range(40):
        n = rng.randint(1, 5)
        delta = tuple(tuple(rng.randrange(n) for _ in ALPHABET) for _ in range(n))
        accepting = {s for s in range(n) if rng.random() < 0.3}
        if rng.random() < 0.3:
            accepting.add(0)
        pool.append(_canon(delta, 0, frozenset(accepting)))
    assert any(d.accepts("") for d in pool[4:])
    short = {d: lang(d, SHORT) for d in pool}
    for _ in range(100):
        parts = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        assert lang(union(*parts), SHORT) == set().union(*[short[d] for d in parts])
        expect = {""}
        for d in parts:
            expect = _cat(expect, short[d])
        assert lang(concat(*parts), SHORT) == expect
        d = rng.choice(pool)
        assert lang(star(d), SHORT) == _star(short[d])
        assert lang(plus(d), SHORT) == _cat(short[d], _star(short[d]))
        k = rng.randint(0, 4)
        expect = {""}
        for _ in range(k):
            expect = _cat(expect, short[d])
        assert lang(power(d, k), SHORT) == expect


def test_lit_is_the_canonical_path_automaton():
    # the word's path and one dead state are already minimal, so lit's
    # relabeling must land on the instance make_dfa minimizes to
    rng = random.Random(4)
    for _ in range(300):
        w = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 40)))
        dead = len(w) + 1
        delta = [[dead] * 4 for _ in range(dead + 1)]
        for p, ch in enumerate(w):
            delta[p][ALPHABET.index(ch)] = p + 1
        assert lit(w) is make_dfa(delta, 0, [len(w)])


def test_lit_needs_no_minimization(monkeypatch):
    calls = []
    monkeypatch.setattr(dfa, "_canon", lambda *args: calls.append(args))
    d = lit.__wrapped__("a" * 500)
    assert calls == []
    assert d.n == 502 and d.accepts("a" * 500) and not d.accepts("a" * 499)


def _reference_splits(d: Dfa, prefix: Dfa) -> tuple:
    """A split per state q: prefix intersected with the words from the
    start to exactly q, with the words from q on, both nonempty."""
    out = []
    for q in range(d.n):
        head, tail = prefix.intersect(_canon(d.delta, d.start, {q})), d.with_start(q)
        if not head.is_empty() and not tail.is_empty():
            out.append((head, tail))
    return tuple(out)


def test_splits_match_the_reference_on_random_automata():
    # prefixes include the empty and the universal language, and many
    # meet only some states of d or none
    rng = random.Random(3)
    automata = [empty_dfa(), empty_dfa().complement(), A, B, C, star(C), lit("")]
    for _ in range(300):
        n = rng.randint(1, 8)
        delta = tuple(tuple(rng.randrange(n) for _ in ALPHABET) for _ in range(n))
        automata.append(_canon(delta, 0, frozenset(s for s in range(n) if rng.random() < 0.3)))
    some = none = 0
    for _ in range(3_000):
        d, prefix = rng.choice(automata), rng.choice(automata)
        got = d.splits(prefix)
        assert got == _reference_splits(d, prefix)
        assert d.splits(empty_dfa().complement()) == _reference_splits(d, empty_dfa().complement())
        if not prefix.is_empty():
            some += 0 < len(got) < d.n
            none += not got
    assert some > 200 and none > 500


def test_splits_minimize_only_the_heads_they_keep(monkeypatch):
    # d spells abcd: 5 live states on its path and a dead one. The prefix
    # reaches 2 live states (after "" and "ab") and the dead state
    # (after "b"), so exactly those 2 heads are minimized. A head per
    # state and a product per live state would minimize 6 + 5
    d, prefix = lit("abcd"), union(lit(""), lit("ab"), lit("b"))
    calls = []
    canon = dfa._canon
    monkeypatch.setattr(dfa, "_canon", lambda *args: calls.append(args) or canon(*args))
    got = dfa._splits.__wrapped__(d, prefix)
    assert len(calls) == 2
    assert got == ((lit(""), d), (lit("ab"), lit("cd")))


# ---------------------------------------------------------------------------
# the dict-based Moore refinement, frozen as the reference: reachable states
# by search, refinement until the class count stops growing, then a second
# breadth-first search of the quotient for the canonical labels; every
# operation minimized its result


def _reference_canon(delta, start, accepting) -> tuple:
    order = [start]
    seen = {start}
    for s in order:
        for t in delta[s]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    cls = {s: (s in accepting) for s in order}
    while True:
        sig = {s: (cls[s], tuple(cls[t] for t in delta[s])) for s in order}
        ids: dict[tuple, int] = {}
        new = {}
        for s in order:
            new[s] = ids.setdefault(sig[s], len(ids))
        if len(set(new.values())) == len(set(cls.values())):
            cls = new
            break
        cls = new
    rep: dict[int, int] = {}
    for s in order:
        rep.setdefault(cls[s], s)
    label = {cls[start]: 0}
    bfs = [cls[start]]
    for c in bfs:
        s = rep[c]
        for t in delta[s]:
            ct = cls[t]
            if ct not in label:
                label[ct] = len(label)
                bfs.append(ct)
    out = [None] * len(label)
    acc = set()
    for c in bfs:
        s = rep[c]
        out[label[c]] = tuple(label[cls[t]] for t in delta[s])
        if s in accepting:
            acc.add(label[c])
    return tuple(out), frozenset(acc)


def _parts(d: Dfa) -> tuple:
    assert d.start == 0
    return d.delta, d.accepting


def _reference_singleton(d: Dfa) -> bool:
    w = d.shortest_word()
    return w is not None and d.intersect(lit(w).complement()).is_empty()


def test_operations_match_the_reference_canon_on_random_automata():
    rng = random.Random(0)
    for _ in range(2_000):
        n = rng.randint(1, 12)
        delta = tuple(tuple(rng.randrange(n) for _ in ALPHABET) for _ in range(n))
        accepting = frozenset(s for s in range(n) if rng.random() < 0.3)
        for start in range(n):
            assert _parts(_canon(delta, start, accepting)) == _reference_canon(delta, start, accepting)
        d = _canon(delta, rng.randrange(n), accepting)
        everything = frozenset(range(d.n))
        assert _parts(d.complement()) == _reference_canon(d.delta, 0, everything - d.accepting)
        q = rng.randrange(d.n)
        assert _parts(d.with_start(q)) == _reference_canon(d.delta, q, d.accepting)
        assert [(_parts(h), _parts(t)) for h, t in d.splits(empty_dfa().complement())] == [
            (_reference_canon(d.delta, 0, {s}), _reference_canon(d.delta, s, d.accepting))
            for s in range(d.n)
            if _reference_canon(d.delta, s, d.accepting)[1]
        ]
        ch = rng.choice(ALPHABET)
        assert _parts(d.derivative(ch)) == _reference_canon(d.delta, d.step(0, ch), d.accepting)
        assert d.is_singleton() == _reference_singleton(d)


def test_is_singleton_matches_the_reference():
    rng = random.Random(1)
    cases = [lit("abcd"), lit(""), lit("a").complement(), empty_dfa(), star(B)]
    for _ in range(200):
        w = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))
        x = rng.choice(ALPHABET)
        cases += [
            lit(w),
            union(lit(w), lit(w + x)),
            union(lit(w), lit(x + w)),
            concat(lit(w), star(lit(x))),
            lit(w).intersect(star(lit(x))),
        ]
    for d in cases:
        assert d.is_singleton() == _reference_singleton(d), d
    assert lit("abcd").is_singleton() and lit("").is_singleton()
    assert not union(lit("abcd"), lit("abcda")).is_singleton()


def test_image_is_the_states_some_word_reaches():
    # s is in the image of q under b when b meets the words that lead
    # from q to s; a set's image is the union of its states' images
    rng = random.Random(2)
    automata = [empty_dfa(), empty_dfa().complement(), A, B, C, star(C)]
    for _ in range(200):
        n = rng.randint(1, 8)
        delta = tuple(tuple(rng.randrange(n) for _ in ALPHABET) for _ in range(n))
        automata.append(_canon(delta, 0, frozenset(s for s in range(n) if rng.random() < 0.3)))
    nonempty = 0
    for _ in range(2_000):
        a, b = rng.choice(automata), rng.choice(automata)
        q = rng.randrange(a.n)
        image = a.image({q}, b)
        assert image == {s for s in range(a.n) if not b.intersect(_canon(a.delta, q, {s})).is_empty()}
        nonempty += bool(image)
        states = {s for s in range(a.n) if rng.random() < 0.5}
        assert a.image(states, b) == set().union(*[a.image({s}, b) for s in states])
    assert nonempty > 1_000

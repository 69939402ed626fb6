"""Complete deterministic finite automata over the alphabet {a, b, c, d}.

Every Dfa is kept canonical: complete (a transition for every letter,
with an explicit dead state when needed), restricted to reachable
states, minimized, and relabeled by breadth-first search in letter
order. Canonical form makes structural equality coincide with language
equality, and each canonical automaton is interned, so one language is
one object: equality and hashing are by identity, at C speed, and
automata serve as cheap memoization keys. Canonical form also keeps the
set of automata generated by repeated intersections and start/accept
surgery finite, which the solver's termination argument relies on.

Minimizing is the cost of canonical form, so only the operations that
can merge states minimize (_canon): make_dfa and the constructors, the
product of intersect, and accept_at, which changes the accepting set.
The others inherit minimality from their canonical argument. complement
keeps the transitions and flips acceptance, which keeps every pair of
states told apart by the same words. with_start, and so derivative,
keeps the states reachable from the new start: each still differs from
every other, so they only need relabeling. is_singleton reads its
answer off the canonical structure, and image, the states a set of
states reaches by the words of another automaton, searches the pairs
of the product without building it.

Build automata with the regex-style constructors (lit, union, concat,
star, plus, power) or from explicit parts with make_dfa.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

ALPHABET = "abcd"
_IDX = {c: i for i, c in enumerate(ALPHABET)}


@dataclass(frozen=True, eq=False)
class Dfa:
    delta: tuple[tuple[int, int, int, int], ...]
    start: int
    accepting: frozenset[int]

    @property
    def n(self) -> int:
        return len(self.delta)

    def step(self, state: int, letter: str) -> int:
        return self.delta[state][_IDX[letter]]

    def accepts(self, word: str) -> bool:
        s = self.start
        for ch in word:
            s = self.delta[s][_IDX[ch]]
        return s in self.accepting

    def is_empty(self) -> bool:
        return not self.accepting  # canonical: all states reachable

    def shortest_word(self) -> str | None:
        """Length-lexicographically least accepted word, None if empty."""
        return _shortest_word(self)

    def complement(self) -> Dfa:
        return _complement(self)

    def intersect(self, other: Dfa) -> Dfa:
        return _intersect(self, other)

    def image(self, states, other: Dfa) -> frozenset[int]:
        """The states reached from a state of states by reading a word
        of other."""
        return frozenset().union(*[_image(self, q, other) for q in states])

    def with_start(self, q: int) -> Dfa:
        """The language read from state q to acceptance."""
        return _with_start(self, q)

    def accept_at(self, q: int) -> Dfa:
        """The language read from the start to exactly state q."""
        return _accept_at(self, q)

    def derivative(self, letter: str) -> Dfa:
        return self.with_start(self.step(self.start, letter))

    def is_singleton(self) -> bool:
        """Does the language consist of exactly one word?"""
        return _is_singleton(self)


# The solver calls these on the same automata over and over while
# searching, so memoize; automata are immutable and interned.


@lru_cache(maxsize=None)
def _complement(d: Dfa) -> Dfa:
    return _intern(d.delta, frozenset(range(d.n)) - d.accepting)


@lru_cache(maxsize=None)
def _with_start(d: Dfa, q: int) -> Dfa:
    order, rows = _renumber(d.delta, q)
    return _intern(tuple(rows), frozenset(i for i, s in enumerate(order) if s in d.accepting))


@lru_cache(maxsize=None)
def _accept_at(d: Dfa, q: int) -> Dfa:
    return _canon(d.delta, d.start, frozenset([q]))


@lru_cache(maxsize=None)
def _shortest_word(d: Dfa) -> str | None:
    if d.start in d.accepting:
        return ""
    seen = {d.start}
    frontier = [(d.start, "")]
    while frontier:
        nxt = []
        for state, word in frontier:
            for i, ch in enumerate(ALPHABET):
                t = d.delta[state][i]
                if t in seen:
                    continue
                if t in d.accepting:
                    return word + ch
                seen.add(t)
                nxt.append((t, word + ch))
        frontier = nxt
    return None


@lru_cache(maxsize=None)
def _is_singleton(d: Dfa) -> bool:
    """The canonical automaton of {w} is w's path, of distinct states,
    and one dead state that every edge off the path enters. Only the
    path's end can accept: the path before it spells words shorter than
    the shortest, and an accepting dead state would equal the end."""
    w = d.shortest_word()
    if w is None or d.n != len(w) + 2:
        return False
    path = [d.start]
    for ch in w:
        path.append(d.step(path[-1], ch))
    (dead,) = set(range(d.n)).difference(path)
    on_path = {(q, _IDX[ch]): t for q, ch, t in zip(path, w, path[1:])}
    return all(
        t == on_path.get((q, i), dead) for q, row in enumerate(d.delta) for i, t in enumerate(row)
    )


_interned: dict[tuple, Dfa] = {}  # (delta, accepting) -> the one instance


def _intern(delta, accepting) -> Dfa:
    """The one instance of the canonical automaton (delta, accepting)."""
    key = (delta, accepting)
    d = _interned.get(key)
    if d is None:
        d = _interned[key] = Dfa(delta, 0, accepting)
    return d


def _renumber(delta, start):
    """The states reachable from start in breadth-first order, letters in
    alphabet order, and their rows with each state renamed by its
    position in that order."""
    num = {start: 0}
    order = [start]
    for s in order:
        for t in delta[s]:
            if t not in num:
                num[t] = len(order)
                order.append(t)
    return order, [tuple([num[t] for t in delta[s]]) for s in order]


def _canon(delta, start, accepting) -> Dfa:
    """Restrict to reachable states, minimize, relabel canonically, and
    return the interned instance of the result.

    Moore refinement over the states renumbered in breadth-first order:
    a state's signature is its class with its successors' classes, and
    refinement stops when the class count stops growing. Classes are
    numbered by their first state in that order, which is the order a
    breadth-first search of the quotient meets them, so the final
    numbering is already the canonical labeling."""
    order, rows = _renumber(delta, start)
    cls = [s in accepting for s in order]
    count = len(set(cls))
    while True:
        ids: dict[tuple, int] = {}
        cls = [
            ids.setdefault((cls[s], cls[a], cls[b], cls[c], cls[d]), len(ids))
            for s, (a, b, c, d) in enumerate(rows)
        ]
        if len(ids) == count:
            break
        count = len(ids)
    out = []
    acc = set()
    for s, row in enumerate(rows):
        c = cls[s]
        if c == len(out):
            out.append(tuple([cls[t] for t in row]))
            if order[s] in accepting:
                acc.add(c)
    return _intern(tuple(out), frozenset(acc))


def make_dfa(delta, start, accepting) -> Dfa:
    """Canonical DFA from explicit transition rows (one 4-tuple of
    successor states per state, in alphabet order)."""
    return _canon(tuple(tuple(row) for row in delta), start, frozenset(accepting))


@lru_cache(maxsize=None)
def _intersect(a: Dfa, b: Dfa) -> Dfa:
    """The product automaton of a and b, accepting where both accept."""
    ids = {(a.start, b.start): 0}
    order = [(a.start, b.start)]
    rows = []
    for (s, t) in order:
        row = []
        for i in range(4):
            nxt = (a.delta[s][i], b.delta[t][i])
            if nxt not in ids:
                ids[nxt] = len(ids)
                order.append(nxt)
            row.append(ids[nxt])
        rows.append(tuple(row))
    acc = frozenset(
        ids[(s, t)] for (s, t) in order if s in a.accepting and t in b.accepting
    )
    return _canon(tuple(rows), 0, acc)


@lru_cache(maxsize=None)
def _image(a: Dfa, q: int, b: Dfa) -> frozenset[int]:
    """The states of a that words of b lead to from q: breadth-first
    search over the pairs of the product from (q, b.start), keeping the
    states of a paired with an accepting state of b."""
    seen = {(q, b.start)}
    order = [(q, b.start)]
    for s, t in order:
        for nxt in zip(a.delta[s], b.delta[t]):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return frozenset([s for s, t in order if t in b.accepting])


# ---------------------------------------------------------------------------
# regex-style constructors, via a small epsilon-NFA


class _Nfa:
    def __init__(self):
        self.n = 0
        self.eps: list[tuple[int, int]] = []
        self.edges: list[tuple[int, int, int]] = []  # (src, letter index, dst)

    def state(self) -> int:
        self.n += 1
        return self.n - 1

    def closure(self, states: frozenset[int]) -> frozenset[int]:
        out = set(states)
        changed = True
        while changed:
            changed = False
            for s, t in self.eps:
                if s in out and t not in out:
                    out.add(t)
                    changed = True
        return frozenset(out)

    def determinize(self, start: int, accept: int) -> Dfa:
        init = self.closure(frozenset([start]))
        ids = {init: 0}
        order = [init]
        rows = []
        for cur in order:
            row = []
            for i in range(4):
                step = frozenset(d for (s, l, d) in self.edges if s in cur and l == i)
                step = self.closure(step)
                if step not in ids:
                    ids[step] = len(ids)
                    order.append(step)
                row.append(ids[step])
            rows.append(tuple(row))
        acc = frozenset(ids[s] for s in order if accept in s)
        return _canon(tuple(rows), 0, acc)


def _from_parts(build) -> Dfa:
    nfa = _Nfa()
    start, accept = nfa.state(), nfa.state()
    build(nfa, start, accept)
    return nfa.determinize(start, accept)


def _add_dfa(nfa: _Nfa, d: Dfa, src: int, dst: int) -> None:
    base = nfa.n
    for _ in range(d.n):
        nfa.state()
    nfa.eps.append((src, base + d.start))
    for s in range(d.n):
        for i in range(4):
            nfa.edges.append((base + s, i, base + d.delta[s][i]))
        if s in d.accepting:
            nfa.eps.append((base + s, dst))


@lru_cache(maxsize=None)
def lit(word: str) -> Dfa:
    """The language containing exactly the given word. Memoized: the
    encoder asks for the same sign letters and literals in every
    formula."""

    def build(nfa, src, dst):
        cur = src
        for ch in word:
            nxt = nfa.state()
            nfa.edges.append((cur, _IDX[ch], nxt))
            cur = nxt
        nfa.eps.append((cur, dst))

    return _from_parts(build)


def union(*parts: Dfa) -> Dfa:
    def build(nfa, src, dst):
        for p in parts:
            _add_dfa(nfa, p, src, dst)

    return _from_parts(build)


def concat(*parts: Dfa) -> Dfa:
    def build(nfa, src, dst):
        cur = src
        for p in parts:
            nxt = nfa.state()
            _add_dfa(nfa, p, cur, nxt)
            cur = nxt
        nfa.eps.append((cur, dst))

    return _from_parts(build)


def star(d: Dfa) -> Dfa:
    def build(nfa, src, dst):
        mid = nfa.state()
        nfa.eps.append((src, mid))
        _add_dfa(nfa, d, mid, mid)
        nfa.eps.append((mid, dst))

    return _from_parts(build)


def plus(d: Dfa) -> Dfa:
    return concat(d, star(d))


def power(d: Dfa, k: int) -> Dfa:
    def build(nfa, src, dst):
        cur = src
        for _ in range(max(k, 0)):
            nxt = nfa.state()
            _add_dfa(nfa, d, cur, nxt)
            cur = nxt
        nfa.eps.append((cur, dst))

    return _from_parts(build)


@lru_cache(maxsize=None)
def empty_dfa() -> Dfa:
    return make_dfa([(0, 0, 0, 0)], 0, [])


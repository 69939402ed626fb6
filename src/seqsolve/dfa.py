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
can merge states minimize (_canon). union, concat and star (and through
concat, plus and power) and the product of intersect are each one
breadth-first search over the tuples or sets of their arguments' states
that the start reaches (_reach), which _canon then minimizes; make_dfa
minimizes its explicit parts. splits, the ways a word splits at a state
q with its head in a second automaton, searches the pairs of that
product once and minimizes one head per q that an accepting pair
reaches and that can still reach acceptance. The others only relabel
or flip a canonical automaton. lit spells its word's path and one dead
state, which is already minimal, and relabels it. complement keeps the
transitions and flips acceptance, which keeps every pair of states told
apart by the same words. with_start, and so derivative, keeps the states reachable
from the new start: each still differs from every other, so they only
need relabeling. is_singleton reads its answer off the canonical
structure, and image, the states a set of states reaches by the words
of another automaton, searches the pairs of the product without
building it.

Every one of these searches is _explore, the one numbering search:
_canon, with_start and lit number a table's states with it, and
_reach, image and splits the tuples, sets or pairs of other states.

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

    def splits(self, prefix: Dfa) -> tuple:
        """The ways a word of self splits at an intermediate state q with
        its head in prefix: pairs (head, tail), head the words of prefix
        that lead from the start to exactly q and tail the words from q
        to acceptance, in state order, with both languages nonempty."""
        return _splits(self, prefix)

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
    order, rows = _explore(q, d.delta.__getitem__)
    return _intern(rows, frozenset(i for i, s in enumerate(order) if s in d.accepting))


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


def _canon(delta, start, accepting) -> Dfa:
    """Restrict to reachable states, minimize, relabel canonically, and
    return the interned instance of the result.

    Moore refinement over the states _explore numbers in breadth-first
    order: a state's signature is its class with its successors'
    classes, and refinement stops when the class count stops growing.
    Classes are numbered by their first state in that order, which is
    the order a breadth-first search of the quotient meets them, so the
    final numbering is already the canonical labeling."""
    order, rows = _explore(start, delta.__getitem__)
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


def _explore(start, step) -> tuple[list, tuple]:
    """The states reachable from start, where step(s) gives the
    successors of s in alphabet order, numbered by a breadth-first search
    in the order it meets them, and their rows of numbers."""
    ids = {start: 0}
    order = [start]
    rows = []
    for s in order:
        row = []
        for t in step(s):
            i = ids.get(t)
            if i is None:
                i = ids[t] = len(order)
                order.append(t)
            row.append(i)
        rows.append(tuple(row))
    return order, tuple(rows)


def _reach(start, step, accepting) -> Dfa:
    """The canonical automaton of the states reachable from start, where
    accepting(s) says whether s accepts: _explore numbers them and
    _canon minimizes."""
    order, rows = _explore(start, step)
    return _canon(rows, 0, frozenset([i for i, s in enumerate(order) if accepting(s)]))


def _pairs(a: Dfa, b: Dfa):
    """The step of the product of a and b: the successors of a pair
    (state of a, state of b) in alphabet order."""
    return lambda st: zip(a.delta[st[0]], b.delta[st[1]])


@lru_cache(maxsize=None)
def _intersect(a: Dfa, b: Dfa) -> Dfa:
    """The product automaton of a and b, accepting where both accept."""
    return _reach(
        (a.start, b.start),
        _pairs(a, b),
        lambda st: st[0] in a.accepting and st[1] in b.accepting,
    )


@lru_cache(maxsize=None)
def _image(a: Dfa, q: int, b: Dfa) -> frozenset[int]:
    """The states of a that words of b lead to from q: the pairs of the
    product that the search reaches from (q, b.start), keeping the
    states of a paired with an accepting state of b."""
    order, _ = _explore((q, b.start), _pairs(a, b))
    return frozenset([s for s, t in order if t in b.accepting])


@lru_cache(maxsize=None)
def _splits(d: Dfa, prefix: Dfa) -> tuple:
    """One breadth-first search over the pairs (state of prefix, state
    of d) of their product. The head at q is that product accepting at
    the pairs of an accepting state of prefix with q, so only a q that
    such a pair holds and that reaches acceptance is minimized."""
    order, rows = _explore((prefix.start, d.start), _pairs(prefix, d))
    ends: dict[int, list] = {}  # q -> the product states ending a head at q
    for i, (p, q) in enumerate(order):
        if p in prefix.accepting:
            ends.setdefault(q, []).append(i)
    out = []
    for q in sorted(ends):
        tail = d.with_start(q)
        if not tail.is_empty():
            out.append((_canon(rows, 0, frozenset(ends[q])), tail))
    return tuple(out)


# ---------------------------------------------------------------------------
# regex-style constructors, each a reachability search over tuples or
# sets of their parts' states


@lru_cache(maxsize=None)
def lit(word: str) -> Dfa:
    """The language containing exactly the given word. Memoized: the
    encoder asks for the same sign letters and literals in every
    formula. The word's path of distinct states and one dead state is
    already minimal, so it only needs relabeling."""
    dead = len(word) + 1
    delta = [[dead] * 4 for _ in range(dead + 1)]
    for p, ch in enumerate(word):
        delta[p][_IDX[ch]] = p + 1
    order, rows = _explore(0, delta.__getitem__)
    return _intern(rows, frozenset([order.index(len(word))]))


def union(*parts: Dfa) -> Dfa:
    """A state is a tuple of the parts' states; it accepts when any
    part accepts."""
    return _reach(
        tuple(p.start for p in parts),
        lambda st: [tuple([p.delta[q][i] for p, q in zip(parts, st)]) for i in range(4)],
        lambda st: any(q in p.accepting for p, q in zip(parts, st)),
    )


def concat(*parts: Dfa) -> Dfa:
    """A state is a set of pairs (j, q), part j being in state q. A pair
    that accepts in its part brings in the next part's start, and a set
    accepts when it holds an accepting pair of the last part."""
    if not parts:
        return lit("")
    last = len(parts) - 1

    def close(pairs) -> frozenset:
        out = set(pairs)
        todo = list(out)
        while todo:
            j, q = todo.pop()
            if j < last and q in parts[j].accepting:
                nxt = (j + 1, parts[j + 1].start)
                if nxt not in out:
                    out.add(nxt)
                    todo.append(nxt)
        return frozenset(out)

    return _reach(
        close([(0, parts[0].start)]),
        lambda s: [close([(j, parts[j].delta[q][i]) for j, q in s]) for i in range(4)],
        lambda s: any(j == last and q in parts[last].accepting for j, q in s),
    )


def star(d: Dfa) -> Dfa:
    """A state is a set of d's states, holding d.start too whenever it
    holds an accepting state. The empty set is the start, before any
    letter, and accepts; d is complete, so no later state is empty."""

    def close(states: frozenset) -> frozenset:
        return states | {d.start} if states & d.accepting else states

    return _reach(
        frozenset(),
        lambda s: [close(frozenset([d.delta[q][i] for q in s or (d.start,)])) for i in range(4)],
        lambda s: not s or not s.isdisjoint(d.accepting),
    )


def plus(d: Dfa) -> Dfa:
    return concat(d, star(d))


def power(d: Dfa, k: int) -> Dfa:
    return concat(*[d] * max(k, 0))


@lru_cache(maxsize=None)
def empty_dfa() -> Dfa:
    return make_dfa([(0, 0, 0, 0)], 0, [])


"""Verification conditions for annotated sequence programs.

A program file (.sqp) is line oriented::

    program NAME(param, ...)
      local x, y          # zero or more
      require <matrix>    # zero or more, conjoined
      do
        <statements>
      end
      ensure <matrix>     # zero or more, conjoined

    statement := x := <seq term>
              | havoc x
              | assume <matrix> | assert <matrix> | skip
              | push(s, e) | pop(s) | extend(r, e)
              | if <matrix> then ... [else ...] end
              | from ... invariant <matrix> until <matrix> loop ... end

push/pop/extend are assignment sugar (s := s ++ e, s := s[1:-1],
r := r ++ e). Annotations and assigned terms are read by the formula
parser in annotation mode, which adds three forms: top(s) is last(s),
old(x) is the value of x at entry (a snapshot variable, equated with
x in the hypotheses of the entry condition), and sorted(t), "adjacent
elements of t are nondecreasing", is a Sorted atom. Parse errors give
the line and column of the program text.

Verification conditions come from backward weakest preconditions:
assignments substitute, assume adds an implication, assert a
conjunct, and every loop contributes an inductive obligation
(invariant and a failed exit test carry through the body) and an exit
obligation (invariant and exit test imply what follows), while the
loop's own precondition is that its initialisation establishes the
invariant. Each obligation is split into sequent-shaped pieces whose
hypotheses fold in the guards of the branches they came from.

sorted(t) is a universally quantified statement. In a conclusion it
expands exactly, with fresh outer universals for the split point. As
a hypothesis it would need instantiation outside the quantifier-free
fragment, so it is dropped and the condition is marked weakened: a
"valid" verdict still stands, but a counterexample might be spurious
and discharge reports "undetermined" instead of "invalid".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .ast import (
    And,
    BoolLit,
    FORALL,
    Formula,
    Imp,
    Iff,
    IntCmp,
    IOfSeq,
    LenCmp,
    Matrix,
    Not,
    Or,
    SConcat,
    SSub,
    SVar,
    SeqEq,
    SeqTerm,
    Sorted,
    atom_seq_terms,
    atoms,
    conj,
    fold_consts,
    map_atom_terms,
    map_atoms,
    matrix_vars,
    seq_subterms,
)
from .elaborate import Elaboration, ElaborationError, elaborate
from .parser import OLD_PREFIX, ParseError, parse_matrix, parse_seq_term
from .wordsolver import Budget, check_valid, negation


class VcError(ValueError):
    pass


class MissingInvariant(VcError):
    pass


class UnsupportedStatement(VcError):
    pass


# ---------------------------------------------------------------------------
# program representation


@dataclass(frozen=True)
class Assign:
    lhs: str
    rhs: SeqTerm
    line: int


@dataclass(frozen=True)
class Havoc:
    var: str
    line: int


@dataclass(frozen=True)
class Assume:
    cond: Matrix
    line: int


@dataclass(frozen=True)
class Assert:
    cond: Matrix
    line: int


@dataclass(frozen=True)
class Skip:
    line: int


@dataclass(frozen=True)
class If:
    cond: Matrix
    then: tuple
    orelse: tuple
    line: int


@dataclass(frozen=True)
class Loop:
    init: tuple
    invariant: Matrix
    exit_cond: Matrix
    body: tuple
    line: int


Stmt = Assign | Havoc | Assume | Assert | Skip | If | Loop


@dataclass(frozen=True)
class Program:
    name: str
    params: tuple[str, ...]
    locals: tuple[str, ...]
    requires: Matrix
    body: tuple[Stmt, ...]
    ensures: Matrix
    old_names: tuple[str, ...]  # names snapshot at entry, sorted
    path: str = "<string>"


@dataclass(frozen=True)
class VC:
    """One proof obligation. The formula is universally closed; label
    is its origin (invariant-init, invariant-inductive, postcondition,
    or branch for a piece that folded an if guard or an implication
    premise into its hypotheses)."""

    label: str
    description: str
    formula: Formula
    line: int
    weakened: bool = False
    unencodable: str = ""
    # the elaboration of the negation check_valid refutes, made once by
    # the encodability probe and handed to discharge
    elaboration: Elaboration | None = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# .sqp parsing


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].rstrip()


class _ProgramParser:
    def __init__(self, text: str, path: str):
        self.path = path
        self.rows = []
        self.indent: dict[int, int] = {}
        for n, raw in enumerate(text.splitlines(), start=1):
            if s := _strip_comment(raw).strip():
                self.rows.append((n, s))
                self.indent[n] = len(raw) - len(raw.lstrip())
        self.i = 0
        self.variables: tuple[str, ...] = ()
        self.old_names: set[str] = set()

    def err(self, line: int, msg: str, col: int | None = None) -> VcError:
        where = f"{line}:{col}" if col is not None else f"{line}"
        return VcError(f"{self.path}:{where}: {msg}")

    def peek(self) -> tuple[int, str]:
        if self.i >= len(self.rows):
            last = self.rows[-1][0] if self.rows else 1
            return (last, "")
        return self.rows[self.i]

    def take(self) -> tuple[int, str]:
        row = self.peek()
        self.i += 1
        return row

    # -- annotations and terms ----------------------------------------------

    def _parse(self, line: int, row: str, start: int, end: int | None, term: bool):
        """Parse row[start:end], an annotation or (``term``) a sequence
        term, so that errors carry the columns of the source line."""
        src = " " * (self.indent[line] + start) + row[start:end]
        what = "term" if term else "annotation"
        try:
            out = (parse_seq_term if term else parse_matrix)(src, annotations=True)
        except ParseError as e:
            raise self.err(line, f"bad {what}: {e.msg}", e.col) from e
        terms = seq_subterms(out) if term else (
            t for a in atoms(out) for t in atom_seq_terms(a)
        )
        for t in terms:
            if isinstance(t, SVar) and t.name.startswith(OLD_PREFIX):
                x = t.name[len(OLD_PREFIX) :]
                if x not in self.variables:
                    msg = f"bad {what}: old({x}): {x!r} is not a program variable"
                    raise self.err(line, msg, t.loc.col)
                self.old_names.add(x)
        return out

    def annotation(self, line: int, row: str, start: int, end: int | None = None) -> Matrix:
        return self._parse(line, row, start, end, term=False)

    def seq_term(self, line: int, row: str, start: int, end: int | None = None) -> SeqTerm:
        return self._parse(line, row, start, end, term=True)

    def check_assignable(self, name: str, line: int) -> None:
        if name not in self.variables:
            raise self.err(line, f"{name!r} is not a parameter or local")

    # -- header and trailer ---------------------------------------------------

    def program(self) -> Program:
        line, head = self.take()
        m = re.fullmatch(r"program\s+([A-Za-z_]\w*)\s*\(([^)]*)\)", head)
        if not m:
            raise self.err(line, "expected 'program name(params)'")
        name = m.group(1)
        params = tuple(p.strip() for p in m.group(2).split(",") if p.strip())

        locs: list[str] = []
        while self.peek()[1].startswith("local"):
            line, row = self.take()
            locs.extend(p.strip() for p in row[len("local") :].split(",") if p.strip())
        self.variables = params + tuple(locs)
        seen: set[str] = set()
        for v in self.variables:
            if not re.fullmatch(r"[A-Za-z_]\w*", v) or v in seen:
                raise self.err(line, f"bad variable list entry {v!r}")
            seen.add(v)

        requires: list[Matrix] = []
        while self.peek()[1].startswith("require"):
            line, row = self.take()
            requires.append(self.annotation(line, row, len("require")))

        line, row = self.take()
        if row != "do":
            raise self.err(line, f"expected 'do', found {row!r}")
        body = self.block(("end",))
        self.take()  # end

        ensures: list[Matrix] = []
        while self.peek()[1].startswith("ensure"):
            line, row = self.take()
            ensures.append(self.annotation(line, row, len("ensure")))
        line, row = self.peek()
        if row:
            raise self.err(line, f"unexpected trailing line {row!r}")

        return Program(
            name=name,
            params=params,
            locals=tuple(locs),
            requires=conj(requires),
            body=body,
            ensures=conj(ensures),
            old_names=tuple(sorted(self.old_names)),
            path=self.path,
        )

    # -- statements -----------------------------------------------------------

    def block(self, stop: tuple[str, ...]) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        while True:
            line, row = self.peek()
            if not row:
                raise self.err(line, f"unexpected end of file, expected {stop[0]!r}")
            if row.split()[0] in stop:
                return tuple(out)
            out.append(self.statement())

    def statement(self) -> Stmt:
        line, row = self.take()
        head = row.split()[0]
        if row == "skip":
            return Skip(line)
        if head == "havoc":
            name = row[len("havoc") :].strip()
            self.check_assignable(name, line)
            return Havoc(name, line)
        if head == "assume":
            return Assume(self.annotation(line, row, len("assume")), line)
        if head == "assert":
            return Assert(self.annotation(line, row, len("assert")), line)
        if m := re.fullmatch(r"(push|pop|extend)\s*\((.*)\)", row):
            return self.sugar(m.group(1), line, row, m.start(2))
        if m := re.fullmatch(r"([A-Za-z_]\w*)\s*:=\s*(.+)", row):
            self.check_assignable(m.group(1), line)
            return Assign(m.group(1), self.seq_term(line, row, m.start(2)), line)
        if m := re.fullmatch(r"if\s+(.+?)\s+then", row):
            cond = self.annotation(line, row, m.start(1), m.end(1))
            then = self.block(("else", "end"))
            orelse: tuple[Stmt, ...] = ()
            if self.peek()[1] == "else":
                self.take()
                orelse = self.block(("end",))
            self.take()  # end
            return If(cond, then, orelse, line)
        if row == "from":
            return self.loop(line)
        raise UnsupportedStatement(f"{self.path}:{line}: cannot parse {row!r}")

    def sugar(self, op: str, line: int, row: str, start: int) -> Assign:
        """push/pop/extend, whose arguments are row[start:-1]."""
        args = _split_args(row[start:-1])
        if op == "pop":
            if len(args) != 1:
                raise self.err(line, "pop takes one argument")
            s = args[0].strip()
            self.check_assignable(s, line)
            return Assign(s, SSub(SVar(s), 1, -1), line)
        if len(args) != 2:
            raise self.err(line, f"{op} takes two arguments")
        s = args[0].strip()
        self.check_assignable(s, line)
        e = self.seq_term(line, row, start + len(args[0]) + 1, -1)
        return Assign(s, SConcat(SVar(s), e), line)

    def loop(self, line: int) -> Loop:
        init = self.block(("invariant", "until"))
        inv_line, row = self.peek()
        if not row.startswith("invariant"):
            raise MissingInvariant(f"{self.path}:{line}: loop has no invariant")
        self.take()
        invariant = self.annotation(inv_line, row, len("invariant"))
        until_line, row = self.take()
        if not row.startswith("until"):
            raise self.err(until_line, f"expected 'until', found {row!r}")
        exit_cond = self.annotation(until_line, row, len("until"))
        loop_line, row = self.take()
        if row != "loop":
            raise self.err(loop_line, f"expected 'loop', found {row!r}")
        body = self.block(("end",))
        self.take()  # end
        return Loop(init, invariant, exit_cond, body, line)


def _split_args(src: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in src:
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
            continue
        depth += {"(": 1, ")": -1, "[": 1, "]": -1}.get(ch, 0)
        cur.append(ch)
    out.append("".join(cur))
    return out


def parse_program(text: str, path: str = "<string>") -> Program:
    return _ProgramParser(text, path).program()


def parse_program_file(path: str | Path) -> Program:
    p = Path(path)
    return parse_program(p.read_text(), str(p))


# ---------------------------------------------------------------------------
# weakest preconditions


@dataclass
class _Obligation:
    label: str
    what: str
    line: int
    hyps: tuple[Matrix, ...]
    concl: Matrix


class _WpState:
    def __init__(self):
        self.fresh = 0
        self.side: list[_Obligation] = []


def _subst(m: Matrix, x: str, e: SeqTerm) -> Matrix:
    """m with every occurrence of the variable x replaced by e."""

    def term(t):
        return e if isinstance(t, SVar) and t.name == x else None

    return map_atoms(m, lambda a: map_atom_terms(a, term))


def _wp(stmt: Stmt, post: Matrix, st: _WpState) -> Matrix:
    match stmt:
        case Assign(lhs=x, rhs=e):
            return _subst(post, x, e)
        case Havoc(var=x):
            st.fresh += 1
            return _subst(post, x, SVar(f"$ha{st.fresh}_{x}"))
        case Assume(cond=c):
            return Imp(c, post)
        case Assert(cond=c):
            return And(c, post)
        case Skip():
            return post
        case If(cond=c, then=t, orelse=e):
            return And(
                Imp(c, _wp_seq(t, post, st)), Imp(Not(c), _wp_seq(e, post, st))
            )
        case Loop(init=init, invariant=inv, exit_cond=exit_cond, body=body):
            st.side.append(
                _Obligation(
                    "invariant-inductive",
                    "loop invariant preserved",
                    stmt.line,
                    (inv, Not(exit_cond)),
                    _wp_seq(body, inv, st),
                )
            )
            st.side.append(
                _Obligation(
                    "postcondition",
                    "loop exit",
                    stmt.line,
                    (inv, exit_cond),
                    post,
                )
            )
            return _wp_seq(init, inv, st)
    raise UnsupportedStatement(f"no rule for {stmt!r}")


def _wp_seq(stmts: tuple[Stmt, ...], post: Matrix, st: _WpState) -> Matrix:
    for s in reversed(stmts):
        post = _wp(s, post, st)
    return post


def wp(stmts, post: Matrix) -> Matrix:
    """Weakest precondition of a statement or statement tuple, without
    the loop side obligations."""
    if not isinstance(stmts, tuple):
        stmts = (stmts,)
    return _wp_seq(stmts, post, _WpState())


# ---------------------------------------------------------------------------
# sorted(...) expansion


class _PolarityError(ValueError):
    pass


class _Expander:
    def __init__(self):
        self.fresh = 0
        self.weakened = False

    def expansion(self, t: SeqTerm) -> Matrix:
        """sorted(t), exactly: any one-element cut m with a nonempty
        tail tl satisfies first(m) <= first(tl). The cut variables are
        fresh and universally closed with the rest of the condition."""
        self.fresh += 1
        h = SVar(f"$so{self.fresh}h")
        mm = SVar(f"$so{self.fresh}m")
        tl = SVar(f"$so{self.fresh}t")
        split = SeqEq(t, SConcat(h, SConcat(mm, tl)))
        shape = And(LenCmp(mm, "==", 1), LenCmp(tl, ">", 0))
        return Imp(And(split, shape), IntCmp("<=", IOfSeq(mm), IOfSeq(tl)))

    def walk(self, m: Matrix, positive: bool) -> Matrix:
        match m:
            case Sorted(arg=t):
                if positive:
                    return self.expansion(t)
                self.weakened = True
                return BoolLit(True)
            case Not(arg=a):
                return Not(self.walk(a, not positive))
            case And(left=l, right=r):
                return And(self.walk(l, positive), self.walk(r, positive))
            case Or(left=l, right=r):
                return Or(self.walk(l, positive), self.walk(r, positive))
            case Imp(left=l, right=r):
                return Imp(self.walk(l, not positive), self.walk(r, positive))
            case Iff():
                if any(isinstance(a, Sorted) for a in atoms(m)):
                    raise _PolarityError(
                        "sorted(...) under <=> has no polarity to expand at"
                    )
                return m
            case _:
                return m


# ---------------------------------------------------------------------------
# condition assembly


def _split_pieces(hyps: list[Matrix], concl: Matrix, folded: bool):
    """Sequent shaping: conjunction conclusions split, implication
    conclusions move their premise into the hypotheses."""
    match concl:
        case And(left=l, right=r):
            yield from _split_pieces(hyps, l, folded)
            yield from _split_pieces(hyps, r, folded)
        case Imp(left=l, right=r):
            yield from _split_pieces(hyps + [l], r, True)
        case _:
            yield hyps, concl, folded


def _contains_loop(stmts: tuple[Stmt, ...]) -> bool:
    for s in stmts:
        match s:
            case Loop():
                return True
            case If(then=t, orelse=e):
                if _contains_loop(t) or _contains_loop(e):
                    return True
    return False


def _finalize(ob: _Obligation, program: Program) -> list[VC]:
    expander = _Expander()
    try:
        hyps = [fold_consts(expander.walk(h, positive=False)) for h in ob.hyps]
        concl = fold_consts(expander.walk(ob.concl, positive=True))
    except _PolarityError as e:
        matrix = Imp(conj(list(ob.hyps)), ob.concl)
        formula = Formula(FORALL, tuple(sorted(matrix_vars(matrix))), matrix)
        return [
            VC(ob.label, _describe(ob, program, None), formula, ob.line,
               unencodable=str(e))
        ]

    pieces = list(_split_pieces(list(hyps), concl, folded=False))
    out = []
    many = len(pieces) > 1
    for idx, (piece_hyps, piece_concl, folded) in enumerate(pieces, start=1):
        piece_hyps = [h for h in piece_hyps if h != BoolLit(True)]
        matrix = Imp(conj(piece_hyps), piece_concl) if piece_hyps else piece_concl
        formula = Formula(FORALL, tuple(sorted(matrix_vars(matrix))), matrix)
        elab, unencodable = None, ""
        try:
            elab = elaborate(negation(formula))
        except ElaborationError as e:
            unencodable = str(e)
        out.append(
            VC(
                label="branch" if folded else ob.label,
                description=_describe(ob, program, idx if many else None),
                formula=formula,
                line=ob.line,
                weakened=expander.weakened,
                unencodable=unencodable,
                elaboration=elab,
            )
        )
    return out


def _describe(ob: _Obligation, program: Program, piece: int | None) -> str:
    base = f"{program.name}: {ob.what}, line {ob.line}"
    return f"{base}, piece {piece}" if piece is not None else base


def vcs(program: Program) -> list[VC]:
    """All verification conditions of a program, in source order."""
    st = _WpState()
    concl = _wp_seq(program.body, program.ensures, st)

    snapshots: list[Matrix] = [
        SeqEq(SVar(OLD_PREFIX + x), SVar(x)) for x in program.old_names
    ]
    entry_hyps = tuple(snapshots) + (
        (program.requires,) if program.requires != BoolLit(True) else ()
    )
    entry_label = (
        "invariant-init" if _contains_loop(program.body) else "postcondition"
    )
    entry = _Obligation(entry_label, "entry", 1, entry_hyps, concl)

    rank = {"invariant-inductive": 0, "postcondition": 1}
    ordered = [entry] + sorted(st.side, key=lambda ob: (ob.line, rank[ob.label]))
    out: list[VC] = []
    for ob in ordered:
        out.extend(_finalize(ob, program))
    return out


# ---------------------------------------------------------------------------
# discharge


@dataclass(frozen=True)
class Discharge:
    vc: VC
    verdict: str  # valid | invalid | undetermined | unknown | unencodable
    detail: str = ""
    counterexample: dict | None = None


def discharge(conditions: list[VC], budget: Budget | None = None) -> list[Discharge]:
    out = []
    for vc in conditions:
        if vc.unencodable:
            out.append(Discharge(vc, "unencodable", vc.unencodable))
            continue
        r = check_valid(vc.formula, budget, vc.elaboration)
        if r.status == "invalid" and vc.weakened:
            out.append(
                Discharge(
                    vc,
                    "undetermined",
                    "a dropped sorted(...) hypothesis may rule out the "
                    "counterexample",
                )
            )
        else:
            out.append(Discharge(vc, r.status, r.reason, r.counterexample))
    return out

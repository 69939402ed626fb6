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
r := r ++ e). The file is read by the formula tokenizer, so comments
and columns work as in formulas. Each line is one row of tokens, and a
statement or header line is known by its first token, compared as a
whole token (`requires` is not `require`). Annotations and assigned
terms are parsed from their own tokens by the formula parser in
annotation mode, which adds three forms: top(s) is last(s), old(x) is
the value of x at entry (a snapshot variable, equated with x in the
hypotheses of the entry condition), and sorted(t), "adjacent elements
of t are nondecreasing", is a Sorted atom. Every error gives
FILE:LINE:COLUMN of the program text.

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

from dataclasses import dataclass, field
from itertools import groupby
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
from .parser import KEYWORDS, OLD_PREFIX, ParseError, Token, parse_matrix, parse_seq_term, tokenize
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


class _ProgramParser:
    """Reads a program from the tokens of parser.tokenize, one row of
    tokens per source line. A statement is chosen by the first token of
    its row, and each annotation or term is parsed from its own tokens."""

    def __init__(self, text: str, path: str):
        self.path = path
        self.lines = text.split("\n")
        try:
            toks = tokenize(text)
        except ParseError as e:
            raise VcError(f"{path}:{e}") from e
        self.eof = toks.pop()
        self.rows = [list(row) for _, row in groupby(toks, lambda t: t.line)]
        self.i = 0
        self.variables: tuple[str, ...] = ()
        self.old_names: set[str] = set()

    def err(self, at, msg: str, cls: type[VcError] = VcError) -> VcError:
        """An error at the line and column of a token, span or ParseError."""
        return cls(f"{self.path}:{at.line}:{at.col}: {msg}")

    def peek(self) -> list[Token]:
        return self.rows[self.i] if self.i < len(self.rows) else [self.eof]

    def take(self) -> list[Token]:
        row = self.peek()
        self.i += 1
        return row

    def text(self, row: list[Token]) -> str:
        """The source text of a row, without its comment."""
        first, last = row[0], row[-1]
        return self.lines[first.line - 1][first.col - 1 : last.col - 1 + len(last.text)]

    def word(self, keyword: str) -> None:
        """Take a row that is the keyword alone."""
        row = self.take()
        if [t.text for t in row] != [keyword]:
            found = self.text(row) or "end of file"
            raise self.err(row[0], f"expected {keyword!r}, found {found!r}")

    # -- annotations, terms and names -----------------------------------------

    def parse(self, row: list[Token], start: int, stop: int | None = None, term: bool = False):
        """Parse row[start:stop], an annotation or (``term``) a sequence
        term, ended by an eof token right after row[stop - 1]."""
        last = row[(stop or len(row)) - 1]
        toks = row[start:stop] + [Token("eof", "", last.line, last.col + len(last.text))]
        what = "term" if term else "annotation"
        try:
            out = (parse_seq_term if term else parse_matrix)(toks, annotations=True)
        except ParseError as e:
            raise self.err(e, f"bad {what}: {e.msg}") from e
        terms = seq_subterms(out) if term else (
            t for a in atoms(out) for t in atom_seq_terms(a)
        )
        for t in terms:
            if isinstance(t, SVar) and t.name.startswith(OLD_PREFIX):
                x = t.name[len(OLD_PREFIX) :]
                if x not in self.variables:
                    msg = f"bad {what}: old({x}): {x!r} is not a program variable"
                    raise self.err(t.loc, msg)
                self.old_names.add(x)
        return out

    def declare(self, toks: list[Token]) -> None:
        """Declare the entries of a comma-separated list as variables."""
        for k, t in enumerate(toks):
            if k % 2 and t.text == ",":
                continue
            if k % 2 or t.kind != "ident" or t.text in KEYWORDS or t.text.startswith("$") \
                    or t.text in self.variables:
                raise self.err(t, f"bad variable list entry {t.text!r}")
            self.variables += (t.text,)

    def assignable(self, t: Token) -> str:
        if t.text not in self.variables:
            raise self.err(t, f"{t.text!r} is not a parameter or local")
        return t.text

    # -- header and trailer ---------------------------------------------------

    def program(self) -> Program:
        row = self.take()
        texts = [t.text for t in row]
        if texts[:1] != ["program"] or texts[2:3] != ["("] or texts[-1] != ")" \
                or row[1].kind != "ident":
            raise self.err(row[0], "expected 'program name(params)'")
        self.declare(row[3:-1])
        params = self.variables
        while self.peek()[0].text == "local":
            self.declare(self.take()[1:])

        requires: list[Matrix] = []
        while self.peek()[0].text == "require":
            requires.append(self.parse(self.take(), 1))

        self.word("do")
        body = self.block(("end",))
        self.word("end")

        ensures: list[Matrix] = []
        while self.peek()[0].text == "ensure":
            ensures.append(self.parse(self.take(), 1))
        row = self.peek()
        if row[0].kind != "eof":
            raise self.err(row[0], f"unexpected trailing line {self.text(row)!r}")

        return Program(
            name=texts[1],
            params=params,
            locals=self.variables[len(params) :],
            requires=conj(requires),
            body=body,
            ensures=conj(ensures),
            old_names=tuple(sorted(self.old_names)),
            path=self.path,
        )

    # -- statements -----------------------------------------------------------

    def block(self, stop: tuple[str, ...]) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        while (t := self.peek()[0]).text not in stop:
            if t.kind == "eof":
                raise self.err(t, f"unexpected end of file, expected {stop[0]!r}")
            out.append(self.statement())
        return tuple(out)

    def statement(self) -> Stmt:
        row = self.take()
        line, head = row[0].line, row[0].text
        texts = [t.text for t in row]
        if texts == ["skip"]:
            return Skip(line)
        if head == "havoc" and len(row) == 2:
            return Havoc(self.assignable(row[1]), line)
        if head in ("assume", "assert"):
            return (Assume if head == "assume" else Assert)(self.parse(row, 1), line)
        if head in ("push", "pop", "extend") and texts[1:2] == ["("] and texts[-1] == ")":
            return self.sugar(row)
        if texts[1:3] == [":", "="] and row[2].col == row[1].col + 1:  # x := e
            return Assign(self.assignable(row[0]), self.parse(row, 3, term=True), line)
        if head == "if" and texts[-1] == "then":
            cond = self.parse(row, 1, -1)
            then = self.block(("else", "end"))
            orelse: tuple[Stmt, ...] = ()
            if self.peek()[0].text == "else":
                self.word("else")
                orelse = self.block(("end",))
            self.word("end")
            return If(cond, then, orelse, line)
        if texts == ["from"]:
            return self.loop(row[0])
        raise self.err(row[0], f"cannot parse {self.text(row)!r}", UnsupportedStatement)

    def sugar(self, row: list[Token]) -> Assign:
        """push(s, e), pop(s) or extend(s, e), whose s is row[2]."""
        op, s, line = row[0].text, row[2], row[0].line
        if op == "pop":
            if len(row) != 4:
                raise self.err(row[0], "pop takes one argument")
            return Assign(self.assignable(s), SSub(SVar(s.text), 1, -1), line)
        if len(row) < 5 or row[3].text != ",":
            raise self.err(row[0], f"{op} takes two arguments")
        e = SConcat(SVar(self.assignable(s)), self.parse(row, 4, -1, term=True))
        return Assign(s.text, e, line)

    def loop(self, start: Token) -> Loop:
        init = self.block(("invariant", "until"))
        row = self.take()
        if row[0].text != "invariant":
            raise self.err(start, "loop has no invariant", MissingInvariant)
        invariant = self.parse(row, 1)
        row = self.take()
        if row[0].text != "until":
            raise self.err(row[0], f"expected 'until', found {self.text(row)!r}")
        exit_cond = self.parse(row, 1)
        self.word("loop")
        body = self.block(("end",))
        self.word("end")
        return Loop(init, invariant, exit_cond, body, start.line)


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
    # every loop _wp met left its two obligations in st.side
    entry_label = "invariant-init" if st.side else "postcondition"
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

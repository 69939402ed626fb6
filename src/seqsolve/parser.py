"""Parser for the surface syntax of sequence constraints.

Grammar sketch (see README for the full reference)::

    formula := [ ("forall" | "exists") ident ("," ident)* "." ] matrix
    matrix  := iff
    iff     := imp ("<=>" imp)*          (right associative)
    imp     := or ("=>" or)*             (right associative)
    or      := and ("|" and)*
    and     := not ("&" not)*
    not     := "!" not | atom
    atom    := "true" | "false"
            | "len" "(" term ")" intop nat
            | term "=" term | term "in" regex | term intop term
            | "(" matrix ")"
    term    := cat (("+" | "-") cat)*    (left associative)
    cat     := post ("++" post)*         (right associative)
    post    := prim ("[" int ":" int "]")*
    prim    := ident | "eps" | int | "-" int
            | ("first" | "last" | "rest" | "rev") "(" term ")"
            | "(" term ")"
    regex   := rcat ("|" rcat)*
    rcat    := rpost rpost*
    rpost   := rprim ("*" | "+" | "^" nat)*
    rprim   := "INT" | int | "-" int | "eps"
            | "{" int ("," int)* "}" | "(" regex ")"

`=` is equality of sequences; `==`, `!=`, `<`, `<=`, `>`, `>=` compare
integers (a sequence in an integer position denotes its first element).
Comments run from `#` to end of line.

Program annotations (``annotations=True``, used by the VC generator)
add three forms, each recognised only when followed by ``(``::

    atom    := ... | "sorted" "(" term ")"
    prim    := ... | "top" "(" term ")" | "old" "(" ident ")"

``top(t)`` is ``last(t)``, ``old(x)`` is the snapshot variable
``$old_x`` (the value of x at program entry) and ``sorted(t)`` is a
``Sorted`` atom. Names starting with ``$`` are reserved for generated
variables and are always rejected, so a snapshot variable only ever
comes from ``old``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    And,
    BoolLit,
    EXISTS,
    FORALL,
    INT_OPS,
    Formula,
    IAdd,
    IConst,
    IOfSeq,
    ISub,
    Iff,
    Imp,
    InRe,
    IntCmp,
    IntTerm,
    LenCmp,
    Matrix,
    Not,
    Or,
    SConcat,
    SEmpty,
    SInt,
    SRev,
    SSub,
    SVar,
    SeqEq,
    SeqTerm,
    Sorted,
    Span,
    ZAny,
    ZCat,
    ZLit,
    ZPlus,
    ZPow,
    ZRegex,
    ZSet,
    ZStar,
    ZUnion,
)


class ParseError(ValueError):
    """Raised on malformed input; carries a 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.msg = message
        self.line = line
        self.col = col


class FragmentError(ParseError):
    """Raised when the input is syntactically fine but outside the
    supported decidable fragment."""


# old(x) in an annotation denotes this variable, x's value at entry.
OLD_PREFIX = "$old_"

# Tokens reserved for extensions that would make the logic undecidable:
# equal-length comparisons, per-value counting, and element sums.
RESERVED_EXTENSION_TOKENS = {"elg", "sum", "count"}

KEYWORDS = {
    "forall",
    "exists",
    "in",
    "len",
    "first",
    "last",
    "rest",
    "rev",
    "eps",
    "true",
    "false",
    "INT",
}

_PUNCT = [
    "<=>",
    "=>",
    "++",
    "==",
    "!=",
    "<=",
    ">=",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ".",
    ":",
    "=",
    "<",
    ">",
    "&",
    "|",
    "!",
    "+",
    "-",
    "*",
    "^",
]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "punct", "eof"
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_$"):
                j += 1
            toks.append(Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if src.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# Untyped term tree built during parsing; coerced to seq/int per atom.
@dataclass
class _PTerm:
    kind: str  # "var" | "eps" | "intlit" | "concat" | "add" | "subtract"
    #            | "sub" | "first" | "last" | "rest" | "rev"
    span: Span
    name: str = ""
    value: int = 0
    args: tuple = ()
    lo: int = 0
    hi: int = 0


class _Parser:
    def __init__(self, toks: list[Token], annotations: bool = False):
        self.toks = toks
        self.pos = 0
        self.annotations = annotations
        self.names: dict[str, Token] = {}  # variable -> a token naming it

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def at_kw(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == text

    def at_annotation(self, name: str) -> bool:
        """At an annotation form: ``name`` followed by ``(``."""
        return self.annotations and self.at_kw(name) and self.peek(1).text == "("

    def expect_punct(self, text: str) -> Token:
        t = self.peek()
        if not self.at_punct(text):
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def err(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    def _span(self, start: Token, end: Token | None = None) -> Span:
        last = end or self.toks[max(self.pos - 1, 0)]
        return Span(start.line, start.col, last.line, last.col + len(last.text))

    # -- identifiers -------------------------------------------------------

    def ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise self.err(f"expected an identifier, found {t.text or 'end of input'!r}")
        if t.text in RESERVED_EXTENSION_TOKENS:
            raise FragmentError(
                f"{t.text!r} is reserved: equal-length, element-sum and "
                "per-value counting constraints make the logic undecidable "
                "and are not supported",
                t.line,
                t.col,
            )
        if t.text in KEYWORDS:
            raise ParseError(f"{t.text!r} is a keyword", t.line, t.col)
        if t.text.startswith("$"):
            raise ParseError(
                "names starting with '$' are reserved for generated variables",
                t.line,
                t.col,
            )
        return self.next()

    # -- formula -----------------------------------------------------------

    def formula(self) -> Formula:
        start = self.peek()
        quantifier = None
        prefix: list[str] = []
        while self.at_kw("forall") or self.at_kw("exists"):
            q = FORALL if self.peek().text == "forall" else EXISTS
            if quantifier is None:
                quantifier = q
            elif quantifier != q:
                t = self.peek()
                raise FragmentError(
                    "mixed quantifier prefixes are outside the supported fragment",
                    t.line,
                    t.col,
                )
            self.next()
            prefix.append(self.ident().text)
            while self.at_punct(","):
                self.next()
                prefix.append(self.ident().text)
            self.expect_punct(".")
        seen: set[str] = set()
        for name in prefix:
            if name in seen:
                raise ParseError(f"duplicate quantified variable {name!r}", start.line, start.col)
            seen.add(name)
        m = self.matrix()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)
        return Formula(quantifier, tuple(prefix), m, loc=self._span(start))

    # -- boolean structure ---------------------------------------------------

    def matrix(self) -> Matrix:
        return self.iff()

    def _right_chain(self, sub, op: str, node):
        start = self.peek()
        parts = [sub()]
        while self.at_punct(op):
            self.next()
            parts.append(sub())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = node(p, out, loc=self._span(start))
        return out

    def iff(self) -> Matrix:
        return self._right_chain(self.imp, "<=>", Iff)

    def imp(self) -> Matrix:
        return self._right_chain(self.or_, "=>", Imp)

    def or_(self) -> Matrix:
        return self._right_chain(self.and_, "|", Or)

    def and_(self) -> Matrix:
        return self._right_chain(self.not_, "&", And)

    def not_(self) -> Matrix:
        start = self.peek()
        if self.at_punct("!"):
            self.next()
            return Not(self.not_(), loc=self._span(start))
        return self.atom()

    # -- atoms ---------------------------------------------------------------

    def atom(self) -> Matrix:
        start = self.peek()
        if self.at_kw("forall") or self.at_kw("exists"):
            raise FragmentError(
                "quantifiers may only appear in one prefix at the front of the formula",
                start.line,
                start.col,
            )
        if self.at_kw("true"):
            self.next()
            return BoolLit(True, loc=self._span(start))
        if self.at_kw("false"):
            self.next()
            return BoolLit(False, loc=self._span(start))
        if self.at_kw("len"):
            return self.len_atom()
        if self.at_annotation("sorted"):
            self.next()
            self.next()
            t = self.coerce_seq(self.term())
            self.expect_punct(")")
            return Sorted(t, loc=self._span(start))
        if self.at_punct("("):
            # Either a parenthesised matrix or a parenthesised term; try the
            # matrix reading first and fall back when a term context follows.
            save = self.pos
            try:
                self.next()
                inner = self.matrix()
                self.expect_punct(")")
            except FragmentError:
                raise
            except ParseError:
                self.pos = save
                return self.relational_atom()
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.text in ("=", *INT_OPS, "++", "+", "-", "["):
                self.pos = save
                return self.relational_atom()
            if nxt.kind == "ident" and nxt.text == "in":
                self.pos = save
                return self.relational_atom()
            return inner
        return self.relational_atom()

    def len_atom(self) -> Matrix:
        start = self.next()  # len
        self.expect_punct("(")
        t = self.coerce_seq(self.term())
        self.expect_punct(")")
        op = self.int_op()
        k = self.peek()
        if k.kind != "int":
            raise self.err("expected a non-negative length bound")
        self.next()
        return LenCmp(t, op, int(k.text), loc=self._span(start))

    def int_op(self) -> str:
        t = self.peek()
        if t.kind == "punct" and t.text in INT_OPS:
            self.next()
            return t.text
        raise self.err(f"expected a comparison operator, found {t.text!r}")

    def relational_atom(self) -> Matrix:
        start = self.peek()
        lhs = self.term()
        t = self.peek()
        if self.at_punct("="):
            self.next()
            rhs = self.term()
            return SeqEq(self.coerce_seq(lhs), self.coerce_seq(rhs), loc=self._span(start))
        if self.at_kw("in"):
            self.next()
            rx = self.regex()
            return InRe(self.coerce_seq(lhs), rx, loc=self._span(start))
        if t.kind == "punct" and t.text in INT_OPS:
            op = self.int_op()
            rhs = self.term()
            return IntCmp(op, self.coerce_int(lhs), self.coerce_int(rhs), loc=self._span(start))
        raise self.err(f"expected '=', 'in' or a comparison operator, found {t.text or 'end of input'!r}")

    # -- terms -----------------------------------------------------------------

    def term(self) -> _PTerm:
        start = self.peek()
        out = self.cat_term()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.next().text
            rhs = self.cat_term()
            kind = "add" if op == "+" else "subtract"
            out = _PTerm(kind, self._span(start), args=(out, rhs))
        return out

    def cat_term(self) -> _PTerm:
        start = self.peek()
        parts = [self.post_term()]
        while self.at_punct("++"):
            self.next()
            parts.append(self.post_term())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = _PTerm("concat", self._span(start), args=(p, out))
        return out

    def post_term(self) -> _PTerm:
        start = self.peek()
        out = self.prim_term()
        while self.at_punct("["):
            self.next()
            lo = self.signed_int("an integer index")
            self.expect_punct(":")
            hi = self.signed_int("an integer index")
            self.expect_punct("]")
            out = _PTerm("sub", self._span(start), args=(out,), lo=lo, hi=hi)
        return out

    def signed_int(self, what: str) -> int:
        neg = False
        if self.at_punct("-"):
            self.next()
            neg = True
        t = self.peek()
        if t.kind != "int":
            raise self.err(f"expected {what}")
        self.next()
        return -int(t.text) if neg else int(t.text)

    def prim_term(self) -> _PTerm:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return _PTerm("intlit", self._span(t), value=int(t.text))
        if self.at_punct("-"):
            self.next()
            k = self.peek()
            if k.kind != "int":
                raise self.err("expected digits after '-'")
            self.next()
            return _PTerm("intlit", self._span(t), value=-int(k.text))
        if self.at_kw("eps"):
            self.next()
            return _PTerm("eps", self._span(t))
        builtin = t.kind == "ident" and t.text in ("first", "last", "rest", "rev")
        if builtin or self.at_annotation("top"):
            self.next()
            self.expect_punct("(")
            arg = self.term()
            self.expect_punct(")")
            kind = "last" if t.text == "top" else t.text
            return _PTerm(kind, self._span(t), args=(arg,))
        if self.at_annotation("old"):
            self.next()
            self.next()
            name = self.ident().text
            self.expect_punct(")")
            return _PTerm("var", self._span(t), name=OLD_PREFIX + name)
        if self.at_punct("("):
            self.next()
            inner = self.term()
            self.expect_punct(")")
            return inner
        if t.kind == "ident":
            name = self.ident()
            self.names.setdefault(name.text, name)
            return _PTerm("var", self._span(name), name=name.text)
        raise self.err(f"expected a term, found {t.text or 'end of input'!r}")

    # -- coercions ----------------------------------------------------------

    def coerce_seq(self, p: _PTerm) -> SeqTerm:
        match p.kind:
            case "var":
                return SVar(p.name, loc=p.span)
            case "eps":
                return SEmpty(loc=p.span)
            case "intlit":
                return SInt(self.coerce_int(p), loc=p.span)
            case "add" | "subtract":
                return SInt(self.coerce_int(p), loc=p.span)
            case "concat":
                return SConcat(self.coerce_seq(p.args[0]), self.coerce_seq(p.args[1]), loc=p.span)
            case "sub":
                return SSub(self.coerce_seq(p.args[0]), p.lo, p.hi, loc=p.span)
            case "first":
                return SSub(self.coerce_seq(p.args[0]), 1, 1, loc=p.span)
            case "last":
                return SSub(self.coerce_seq(p.args[0]), 0, 0, loc=p.span)
            case "rest":
                return SSub(self.coerce_seq(p.args[0]), 2, 0, loc=p.span)
            case "rev":
                return SRev(self.coerce_seq(p.args[0]), loc=p.span)
        raise ParseError(f"cannot use this term as a sequence", p.span.line, p.span.col)

    def coerce_int(self, p: _PTerm) -> IntTerm:
        match p.kind:
            case "intlit":
                return IConst(p.value, loc=p.span)
            case "add":
                return IAdd(self.coerce_int(p.args[0]), self.coerce_int(p.args[1]), loc=p.span)
            case "subtract":
                return ISub(self.coerce_int(p.args[0]), self.coerce_int(p.args[1]), loc=p.span)
            case _:
                return IOfSeq(self.coerce_seq(p), loc=p.span)

    # -- regexes over integers -----------------------------------------------

    _REGEX_STARTERS = ("(", "{", "-")

    def regex(self) -> ZRegex:
        start = self.peek()
        parts = [self.regex_cat()]
        while self.at_punct("|"):
            self.next()
            parts.append(self.regex_cat())
        if len(parts) == 1:
            return parts[0]
        return ZUnion(tuple(parts), loc=self._span(start))

    def _at_regex_primary(self) -> bool:
        t = self.peek()
        if t.kind == "int":
            return True
        if t.kind == "ident" and (t.text == "INT" or t.text == "eps"):
            return True
        return t.kind == "punct" and t.text in self._REGEX_STARTERS

    def regex_cat(self) -> ZRegex:
        start = self.peek()
        parts = [self.regex_post()]
        while self._at_regex_primary():
            parts.append(self.regex_post())
        if len(parts) == 1:
            return parts[0]
        return ZCat(tuple(parts), loc=self._span(start))

    def regex_post(self) -> ZRegex:
        start = self.peek()
        out = self.regex_prim()
        while True:
            if self.at_punct("*"):
                self.next()
                out = ZStar(out, loc=self._span(start))
            elif self.at_punct("+"):
                self.next()
                out = ZPlus(out, loc=self._span(start))
            elif self.at_punct("^"):
                self.next()
                k = self.peek()
                if k.kind != "int":
                    raise self.err("expected a repetition count after '^'")
                self.next()
                out = ZPow(out, int(k.text), loc=self._span(start))
            else:
                return out

    def regex_prim(self) -> ZRegex:
        t = self.peek()
        if t.kind == "ident" and t.text == "INT":
            self.next()
            return ZAny(loc=self._span(t))
        if t.kind == "ident" and t.text == "eps":
            self.next()
            return ZCat((), loc=self._span(t))
        if t.kind == "int" or self.at_punct("-"):
            return ZLit(self.signed_int("digits after '-'"), loc=self._span(t))
        if self.at_punct("{"):
            self.next()
            vals = [self.signed_int("an integer set element")]
            while self.at_punct(","):
                self.next()
                vals.append(self.signed_int("an integer set element"))
            self.expect_punct("}")
            return ZSet(tuple(vals), loc=self._span(t))
        if self.at_punct("("):
            self.next()
            inner = self.regex()
            self.expect_punct(")")
            return inner
        raise self.err(f"expected a regex, found {t.text or 'end of input'!r}")


def parse_formula(src: str) -> Formula:
    """Parse a formula; raises ParseError/FragmentError on bad input.
    A formula with a quantifier prefix must bind every variable in it."""
    p = _Parser(tokenize(src))
    f = p.formula()
    if f.quantifier is not None:
        free = [t for name, t in p.names.items() if name not in f.prefix]
        if free:
            t = min(free, key=lambda t: (t.line, t.col))
            raise ParseError(
                f"variable {t.text!r} is not bound by the quantifier prefix", t.line, t.col
            )
    return f


def parse_matrix(src: str | list[Token], annotations: bool = False) -> Matrix:
    """Parse a bare matrix (no quantifier prefix allowed) from text or
    eof-ended tokens; ``annotations`` admits old(x), top(t) and sorted(t)."""
    p = _Parser(tokenize(src) if isinstance(src, str) else src, annotations)
    start = p.peek()
    f = p.formula()
    if f.quantifier is not None:
        raise ParseError("a quantifier prefix is not allowed here", start.line, start.col)
    return f.matrix


def parse_seq_term(src: str | list[Token], annotations: bool = False) -> SeqTerm:
    """Parse one sequence-valued term, such as an assignment right side,
    from text or eof-ended tokens; ``annotations`` admits old(x), top(t)."""
    p = _Parser(tokenize(src) if isinstance(src, str) else src, annotations)
    t = p.coerce_seq(p.term())
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return t

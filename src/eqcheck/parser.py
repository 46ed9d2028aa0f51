"""Lexer and parser for .eq source files.

Layout rule: a top-level item starts on a line whose first token is in column
1; indented lines continue the current item.  `--` starts a line comment.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, NoReturn, TypeVar

from .syntax import (
    Annotation, BaseRef, Chain, Clause, CtorDef, DataDecl, Decl, FunDecl, IntLit,
    App, BoolLit, Con, PAnd, PAtom, PFalse, POr, PTrue, Pattern, Pred, PrimOp,
    REL_OPS, Signature, SourceModule, Span, Step, Term, TypeExpr, UnitLit, Var,
    Wild, cons, negate_pred, nil, pattern_vars,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


class Token(NamedTuple):
    kind: str  # 'lower', 'upper', 'int', 'sym', 'kw', 'eof'
    text: str
    line: int
    col: int
    value: int = 0  # an 'int' token's value


KEYWORDS = {"data", "measure", "reflect", "ple", "not", "true", "false", "QED"}

SYMBOLS = [
    "==.", "***", "==", "/=", "<=", ">=", "->", "&&", "||",
    "<", ">", "=", "+", "-", "*", "/", "|", "(", ")", "[", "]",
    "{", "}", ",", ":", "?", "_",
]

# One match per token: blanks, `\r` and comments are skipped by the prefix,
# and `\Z` ends the input there, so a final comment is never re-read as
# symbols.  At the end of the longest prefix one alternative always matches,
# so the prefix never backtracks.
# Digits are ASCII: "²" passes str.isdigit but not int(), and int() reads "٣"
# as 3.  `ident` also admits "²", "½" and "Ⅳ" as a first character; tokenize
# rejects any first character that is not str.isalpha().  A literal is
# converted where it is read, so one longer than int()'s digit limit (4300 by
# default, or PYTHONINTMAXSTRDIGITS) is a located error.
_TOKEN_RE = re.compile(r"(?:[ \t\r]+|--[^\n]*)*(?:" + "|".join([
    r"(?P<ident>[^\W\d_][\w']*)",
    "(?P<sym>" + "|".join(map(re.escape, sorted(SYMBOLS, key=len, reverse=True))) + ")",
    r"(?P<nl>\n)", r"(?P<int>[0-9]+)", r"(?P<end>\Z)", r"(?P<bad>.)",
]) + ")")
# a Token or Span from a plain tuple, without NamedTuple's Python-level __new__
_new_tuple = tuple.__new__


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        start, end = m.span(kind)
        col = start - line_start + 1
        if kind == "ident":
            text = m.group(kind)
            if not text[0].isalpha():
                raise ParseError(f"unexpected character {text[0]!r}", line, col)
            kind = "kw" if text in KEYWORDS else "upper" if text[0].isupper() else "lower"
            append(_new_tuple(Token, (kind, text, line, col, 0)))
        elif kind == "sym":
            append(_new_tuple(Token, (kind, m.group(kind), line, col, 0)))
        elif kind == "nl":
            line, line_start = line + 1, end
        elif kind == "int":
            text = m.group(kind)
            try:
                append(_new_tuple(Token, (kind, text, line, col, int(text))))
            except ValueError:
                raise ParseError("integer literal too long", line, col) from None
        elif kind == "end":
            break
        else:
            raise ParseError(f"unexpected character {m.group(kind)!r}", line, col)
    append(_new_tuple(Token, ("eof", "", line + 1, 1, 0)))
    return toks


def _ended(toks: list[Token]) -> list[Token]:
    """`toks` and an end token just past the last of them (at 1:1 if none)."""
    if not toks:
        return [Token("eof", "", 1, 1)]
    last = toks[-1]
    return toks + [Token("eof", "", last.line, last.col + len(last.text))]


def _split_items(toks: list[Token]) -> list[list[Token]]:
    """The layout items of `toks`, each closed by its own end token."""
    items: list[list[Token]] = []
    last_line = -1
    for t in toks[:-1]:  # tokenize's end token closes no item
        if t.col == 1 and t.line != last_line:
            items.append([])
        elif not items:
            raise ParseError("top-level item must start in column 1", t.line, t.col)
        items[-1].append(t)
        last_line = t.line
    return [_ended(item) for item in items]


T = TypeVar("T")

# the kinds of the tokens, and the texts of the 'sym' and 'kw' tokens, that
# start a term atom
_ATOM_KINDS = frozenset(("lower", "upper", "int"))
_ATOM_TEXTS = frozenset(("(", "[", "true", "false"))


class _ItemParser:
    """Recursive-descent parser over one layout item's tokens, which end in
    an 'eof' token."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0
        # start position -> (the term `term` read there, the position after it)
        self.terms: dict[int, tuple[Term, int]] = {}

    # -- token plumbing -------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.toks[self.pos + offset]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        """Consume the next token if it is `kind` (reading `text`)."""
        return self.next() if self.at(kind, text) else None

    def at_atom(self, also: tuple[str, ...] = ()) -> bool:
        """Does a term atom, or a symbol in `also`, start here?"""
        t = self.toks[self.pos]
        return t.kind in _ATOM_KINDS or t.text in _ATOM_TEXTS or t.text in also

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"unexpected {t.text!r}", t.line, t.col, (want,))
        return self.next()

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> NoReturn:
        t = self.peek()
        raise ParseError(message, t.line, t.col, expected)

    def finish(self, message: str) -> None:
        """Fail with `message` unless the item's tokens are all consumed."""
        if not self.at("eof"):
            self.fail(message)

    def separated(self, item: Callable[[], T], sep: str) -> list[T]:
        """One or more `item`s separated by the symbol `sep` (sepBy1)."""
        items = [item()]
        while self.accept("sym", sep):
            items.append(item())
        return items

    def chainl1(self, operand: Callable[[], Term], ops: tuple[str, ...]) -> Term:
        """Operands joined by the symbols `ops`, grouped to the left."""
        start = self.peek()
        left = operand()
        while self.peek().text in ops:
            op = self.next().text
            left = PrimOp(op, left, operand(), span=self.span_from(start))
        return left

    def negative_int(self) -> Token | None:
        """After '(': read `-n)` and return n's token, or read nothing."""
        if self.at("sym", "-") and self.peek(1).kind == "int":
            self.next()
            lit = self.next()
            self.expect("sym", ")")
            return lit
        return None

    @staticmethod
    def span_of(tok: Token) -> Span:
        return _new_tuple(Span, (tok.line, tok.col, tok.line, tok.col + len(tok.text)))

    def span_from(self, start: Token) -> Span:
        prev = self.toks[self.pos - 1]
        return _new_tuple(Span, (start.line, start.col, prev.line, prev.col + len(prev.text)))

    # -- types -----------------------------------------------------------
    def type_atom(self) -> TypeExpr:
        t = self.peek()
        if self.accept("sym", "("):
            te = self.type_expr()
            self.expect("sym", ")")
            return te
        if t.kind in ("upper", "lower"):
            self.next()
            return TypeExpr(t.text, (), span=self.span_of(t))
        self.fail("expected a type", ("type",))

    def type_args(self) -> tuple[TypeExpr, ...]:
        args: list[TypeExpr] = []
        while self.peek().kind in ("upper", "lower") or self.at("sym", "("):
            args.append(self.type_atom())
        return tuple(args)

    def type_expr(self) -> TypeExpr:
        start = self.peek()
        head = self.type_atom()
        if head.args or not head.name[0].isupper():
            return head
        args = self.type_args()
        return TypeExpr(head.name, args, span=self.span_from(start)) if args else head

    def base_ref(self) -> BaseRef:
        start = self.peek()
        if not self.accept("sym", "{"):
            return BaseRef(self.type_expr(), "v", PTrue(), span=self.span_from(start))
        binder = self.expect("lower").text
        self.expect("sym", ":")
        ty = self.type_expr()
        self.expect("sym", "|")
        pred = self.pred()
        self.expect("sym", "}")
        return BaseRef(ty, binder, pred, span=self.span_from(start))

    def binder_ref(self) -> tuple[str | None, BaseRef]:
        binder: str | None = None
        if self.at("lower") and self.peek(1).text == ":":
            binder = self.next().text
            self.next()  # ':'
        return binder, self.base_ref()

    def ref_type(self) -> Signature:
        comps = self.separated(self.binder_ref, "->")
        metric: tuple[Term, ...] | None = None
        if self.accept("sym", "/"):
            self.expect("sym", "[")
            metric = tuple(self.separated(self.term, ","))
            self.expect("sym", "]")
        res_binder, result = comps[-1]
        if res_binder is not None:
            self.fail("result type must not carry an argument binder")
        params = tuple((name if name is not None else f"_arg{i}", base)
                       for i, (name, base) in enumerate(comps[:-1]))
        return Signature(params, result, metric)

    # -- patterns ----------------------------------------------------------
    def pattern_atom(self) -> Pattern:
        t = self.peek()
        if self.accept("lower"):
            return Var(t.text, span=self.span_of(t))
        if self.accept("sym", "_"):
            return Wild(span=self.span_of(t))
        if self.accept("int"):
            return IntLit(t.value, span=self.span_of(t))
        if self.accept("kw", "true") or self.accept("kw", "false"):
            return BoolLit(t.text == "true", span=self.span_of(t))
        if self.accept("upper"):
            return Con(t.text, (), span=self.span_of(t))
        if self.accept("sym", "["):
            self.expect("sym", "]")
            return Con("Nil", (), span=self.span_of(t))
        if self.accept("sym", "("):
            lit = self.negative_int()
            if lit:
                return IntLit(-lit.value, span=self.span_of(lit))
            p = self.pattern_cons()
            self.expect("sym", ")")
            return p
        self.fail("expected a pattern", ("pattern",))

    def pattern_app(self) -> Pattern:
        start = self.peek()
        if not self.accept("upper"):
            return self.pattern_atom()
        args: list[Pattern] = []
        while self.at_atom(also=("_",)):
            args.append(self.pattern_atom())
        return Con(start.text, tuple(args), span=self.span_from(start))

    def pattern_cons(self) -> Pattern:
        start = self.peek()
        head = self.pattern_app()
        if self.accept("sym", ":"):
            return Con("Cons", (head, self.pattern_cons()), span=self.span_from(start))
        return head

    # -- terms ---------------------------------------------------------------
    def term_atom(self) -> Term:
        t = self.toks[self.pos]
        kind, text = t.kind, t.text
        if kind == "lower" or kind == "upper" or kind == "int":
            self.pos += 1
            span = self.span_of(t)
            if kind == "lower":
                return Var(text, span=span)
            if kind == "upper":
                return Con(text, (), span=span)
            return IntLit(t.value, span=span)
        if kind == "kw" and (text == "true" or text == "false"):
            self.pos += 1
            return BoolLit(text == "true", span=self.span_of(t))
        if kind == "sym" and text == "[":
            self.pos += 1
            items = [] if self.at("sym", "]") else self.separated(self.term, ",")
            end = self.expect("sym", "]")
            span = Span(t.line, t.col, end.line, end.col + 1)
            out = nil(span)
            for item in reversed(items):
                out = cons(item, out, span)
            return out
        if kind == "sym" and text == "(":
            self.pos += 1
            end = self.accept("sym", ")")
            if end:
                return UnitLit(span=Span(t.line, t.col, end.line, end.col + 1))
            lit = self.negative_int()
            if lit:
                return IntLit(-lit.value, span=self.span_of(lit))
            inner = self.term()
            self.expect("sym", ")")
            return inner
        self.fail("expected a term", ("term",))

    def term_app(self) -> Term:
        toks = self.toks
        head = toks[self.pos]
        kind = head.kind
        if kind != "lower" and kind != "upper":
            return self.term_atom()
        self.pos += 1
        args: list[Term] = []
        while (t := toks[self.pos]).kind in _ATOM_KINDS or t.text in _ATOM_TEXTS:
            args.append(self.term_atom())
        span = self.span_from(head)
        if kind == "upper":
            return Con(head.text, tuple(args), span=span)
        if args:
            return App(head.text, tuple(args), span=span)
        return Var(head.text, span=span)

    def term_mul(self) -> Term:
        return self.chainl1(self.term_app, ("*",))

    def term(self) -> Term:
        """A term.  The one read at each start position is remembered (a term
        depends only on the tokens), so when `pred_atom` backtracks out of a
        parenthesised predicate it re-reads the term inside in one step."""
        at = self.pos
        hit = self.terms.get(at)
        if hit is not None:
            self.pos = hit[1]
            return hit[0]
        start = self.peek()
        out = self.chainl1(self.term_mul, ("+", "-"))
        if self.accept("sym", ":"):
            out = cons(out, self.term(), self.span_from(start))
        self.terms[at] = (out, self.pos)
        return out

    # -- predicates ------------------------------------------------------------
    def pred_atom(self) -> Pred:
        t = self.peek()
        # 'true' or 'false' standing alone is a trivial predicate; as a
        # relational operand it is a Bool term, told apart by the next token.
        if t.kind == "kw" and t.text in ("true", "false") and self.peek(1).text not in ("==", "/="):
            self.next()
            return (PTrue if t.text == "true" else PFalse)(span=self.span_of(t))
        if self.accept("kw", "not"):
            return negate_pred(self.pred_atom())
        if self.at("sym", "("):
            # could be a parenthesised predicate or a parenthesised term; a
            # term read before the ParseError is remembered by `term`
            save = self.pos
            try:
                self.next()
                inner = self.pred()
                self.expect("sym", ")")
                return inner
            except ParseError:
                self.pos = save
        lhs = self.term()
        op = self.peek()
        if op.text not in REL_OPS:
            self.fail("expected a relational operator", REL_OPS)
        self.next()
        return PAtom(op.text, lhs, self.term(), span=self.span_from(t))

    def junction(self, item: Callable[[], Pred], sep: str, node: type[PAnd] | type[POr]) -> Pred:
        start = self.peek()
        items = self.separated(item, sep)
        return items[0] if len(items) == 1 else node(tuple(items), span=self.span_from(start))

    def pred_and(self) -> Pred:
        return self.junction(self.pred_atom, "&&", PAnd)

    def pred(self) -> Pred:
        return self.junction(self.pred_and, "||", POr)

    # -- items ---------------------------------------------------------------
    def hints(self) -> tuple[Term, ...]:
        out: list[Term] = []
        while self.accept("sym", "?"):
            out.append(self.term())
        return tuple(out)

    def body(self) -> Chain:
        start = self.peek()
        head = self.term()
        links = [Step(head, self.hints(), span=head.span)]
        while stok := self.accept("sym", "==."):
            links.append(Step(self.term(), self.hints(), span=self.span_from(stok)))
        qed = bool(self.accept("sym", "***"))
        if qed:
            self.expect("kw", "QED")
        self.finish("unexpected trailing tokens in clause body")
        return Chain(tuple(links), qed, span=self.span_from(start))

    def constructor(self) -> CtorDef:
        start = self.peek()
        name = self.expect("upper").text
        return CtorDef(name, self.type_args(), span=self.span_from(start))

    def data_decl(self) -> DataDecl:
        start = self.expect("kw", "data")
        name = self.expect("upper").text
        params: list[str] = []
        while self.at("lower"):
            params.append(self.next().text)
        self.expect("sym", "=")
        ctors = self.separated(self.constructor, "|")
        self.finish("unexpected tokens after data declaration")
        return DataDecl(name, tuple(params), tuple(ctors), span=self.span_from(start))


def _check_linear(clause: Clause) -> None:
    seen: set[str] = set()
    for pat in clause.patterns:
        for v in pattern_vars(pat):
            if v in seen:
                raise ParseError(
                    f"nonlinear pattern: variable {v!r} bound twice in one clause",
                    clause.span.line, clause.span.col,
                )
            seen.add(v)


def parse_module(source: str) -> SourceModule:
    """Parse a .eq module into the core AST: list notation becomes `Cons`/`Nil`
    terms and every clause body a `Chain`."""
    toks = tokenize(source)

    decls: list[Decl] = []
    annotations: list[Annotation] = []
    pending_sig: tuple[str, Signature, Span] | None = None  # name, signature, span
    pending_clauses: list[Clause] = []

    def flush_fun():
        nonlocal pending_sig, pending_clauses
        if pending_sig is None:
            return
        name, sig, span = pending_sig
        if not pending_clauses:
            raise ParseError(f"signature for {name!r} has no clauses", span.line, span.col)
        decls.append(FunDecl(name, sig, tuple(pending_clauses), span=span))
        pending_sig = None
        pending_clauses = []

    for item in _split_items(toks):
        p = _ItemParser(item)
        first = p.peek()
        if first.kind == "kw" and first.text == "data":
            flush_fun()
            decls.append(p.data_decl())
            continue
        if first.kind == "kw" and first.text in ("measure", "reflect", "ple"):
            kind = p.next().text
            target = p.expect("lower").text
            p.finish("unexpected tokens after annotation")
            annotations.append(Annotation(kind, target, span=p.span_of(first)))
            continue
        if first.kind != "lower":
            raise ParseError(f"unexpected {first.text!r} at top level", first.line, first.col,
                             ("data", "measure", "reflect", "ple", "identifier"))
        name = p.next().text
        if p.accept("sym", ":"):
            flush_fun()
            sig = p.ref_type()
            p.finish("unexpected tokens after type signature")
            pending_sig = (name, sig, p.span_of(first))
            continue
        # clause
        patterns: list[Pattern] = []
        while not p.accept("sym", "="):
            if p.at("eof"):
                p.fail("expected '=' in clause", ("=",))
            patterns.append(p.pattern_atom())
        body = p.body()
        clause = Clause(name, tuple(patterns), body, span=p.span_of(first))
        _check_linear(clause)
        if pending_sig is None or pending_sig[0] != name:
            raise ParseError(
                f"clause for {name!r} without a preceding type signature",
                first.line, first.col,
            )
        pending_clauses.append(clause)
    flush_fun()

    end = toks[-1]
    return SourceModule(tuple(decls), tuple(annotations), span=Span(1, 1, end.line, end.col))


def _parse_alone(source: str, rule: Callable[[_ItemParser], T], what: str) -> T:
    p = _ItemParser(_ended(tokenize(source)[:-1]))
    out = rule(p)
    p.finish(f"unexpected trailing tokens after {what}")
    return out


def parse_term(source: str) -> Term:
    """Parse a single term (testing convenience)."""
    return _parse_alone(source, _ItemParser.term, "term")


def parse_pred(source: str) -> Pred:
    return _parse_alone(source, _ItemParser.pred, "predicate")

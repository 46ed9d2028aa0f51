"""Lexer and parser for .eq source files.

Layout rule: a top-level item starts on a line whose first token is in column
1; indented lines continue the current item.  `--` starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .syntax import (
    Annotation, BaseRef, Chain, Clause, CtorDef, DataDecl, Decl, FunDecl, IntLit,
    App, BoolLit, Con, PAnd, PAtom, PBool, PCon, PFalse, PInt, POr, PTrue,
    PVar, PWild, Pattern, Pred, PrimOp, REL_OPS, Signature, SourceModule, Span,
    Step, Term, TypeExpr, UnitLit, Var, cons, negate_pred, nil, pattern_vars,
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

# Digits are ASCII: "²" passes str.isdigit but not int(), and int() reads "٣"
# as 3.  `ident` also admits "²", "½" and "Ⅳ" as a first character; tokenize
# rejects any first character that is not str.isalpha().  A literal is
# converted where it is read, so one longer than int()'s digit limit (4300 by
# default, or PYTHONINTMAXSTRDIGITS) is a located error.
_TOKEN_RE = re.compile("|".join([
    r"(?P<nl>\n)", r"(?P<blank>[ \t\r]+)", r"(?P<comment>--[^\n]*)",
    r"(?P<int>[0-9]+)", r"(?P<ident>[^\W\d_][\w']*)",
    "(?P<sym>" + "|".join(map(re.escape, sorted(SYMBOLS, key=len, reverse=True))) + ")",
    r"(?P<bad>.)",
]))


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind, text = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind == "bad" or kind == "ident" and not text[0].isalpha():
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
        elif kind == "int":
            try:
                toks.append(Token(kind, text, line, col, int(text)))
            except ValueError:
                raise ParseError("integer literal too long", line, col) from None
        elif kind == "ident":
            kind = "kw" if text in KEYWORDS else "upper" if text[0].isupper() else "lower"
            toks.append(Token(kind, text, line, col))
        elif kind == "sym":
            toks.append(Token(kind, text, line, col))
    toks.append(Token("eof", "", line + 1, 1))
    return toks


def _split_items(toks: list[Token]) -> list[list[Token]]:
    items: list[list[Token]] = []
    current: list[Token] = []
    last_line = -1
    for t in toks:
        if t.kind == "eof":
            break
        if t.col == 1 and t.line != last_line:
            if current:
                items.append(current)
            current = []
        elif not current and t.col != 1:
            raise ParseError("top-level item must start in column 1", t.line, t.col)
        current.append(t)
        last_line = t.line
    if current:
        items.append(current)
    return items


class _ItemParser:
    """Recursive-descent parser over one layout item's tokens."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    # -- token plumbing -------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        i = self.pos + offset
        if i < len(self.toks):
            return self.toks[i]
        last = self.toks[-1]
        return Token("eof", "", last.line, last.col + max(len(last.text), 1))

    def next(self) -> Token:
        t = self.peek()
        self.pos += 1
        return t

    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"unexpected {t.text!r}", t.line, t.col, (want,))
        return self.next()

    def fail(self, message: str, expected: tuple[str, ...] = ()):
        t = self.peek()
        raise ParseError(message, t.line, t.col, expected)

    @staticmethod
    def span_of(tok: Token) -> Span:
        return Span(tok.line, tok.col, tok.line, tok.col + max(len(tok.text), 1))

    def span_from(self, start: Token) -> Span:
        prev = self.toks[min(self.pos, len(self.toks)) - 1]
        return Span(start.line, start.col, prev.line, prev.col + len(prev.text))

    # -- types -----------------------------------------------------------
    def type_atom(self) -> TypeExpr:
        t = self.peek()
        if self.at("sym", "("):
            self.next()
            te = self.type_expr()
            self.expect("sym", ")")
            return te
        if t.kind in ("upper", "lower"):
            self.next()
            return TypeExpr(t.text, (), span=self.span_of(t))
        self.fail("expected a type", ("type",))
        raise AssertionError

    def type_expr(self) -> TypeExpr:
        start = self.peek()
        head = self.type_atom()
        if head.args or not head.name[0].isupper():
            return head
        args: list[TypeExpr] = []
        while self.at("upper") or self.at("lower") or self.at("sym", "("):
            args.append(self.type_atom())
        if not args:
            return head
        return TypeExpr(head.name, tuple(args), span=self.span_from(start))

    def base_ref(self) -> BaseRef:
        start = self.peek()
        if self.at("sym", "{"):
            self.next()
            binder = self.expect("lower").text
            self.expect("sym", ":")
            ty = self.type_expr()
            self.expect("sym", "|")
            pred = self.pred()
            self.expect("sym", "}")
            return BaseRef(ty, binder, pred, span=self.span_from(start))
        ty = self.type_expr()
        return BaseRef(ty, "v", PTrue(), span=self.span_from(start))

    def ref_type(self) -> Signature:
        comps: list[tuple[str | None, BaseRef]] = []
        while True:
            binder: str | None = None
            if self.at("lower") and self.peek(1).kind == "sym" and self.peek(1).text == ":":
                binder = self.next().text
                self.next()  # ':'
            comps.append((binder, self.base_ref()))
            if self.at("sym", "->"):
                self.next()
                continue
            break
        metric: tuple[Term, ...] | None = None
        if self.at("sym", "/"):
            self.next()
            self.expect("sym", "[")
            terms = [self.term()]
            while self.at("sym", ","):
                self.next()
                terms.append(self.term())
            self.expect("sym", "]")
            metric = tuple(terms)
        res_binder, result = comps[-1]
        if res_binder is not None:
            self.fail("result type must not carry an argument binder")
        params = []
        for i, (name, base) in enumerate(comps[:-1]):
            params.append((name if name is not None else f"_arg{i}", base))
        return Signature(tuple(params), result, metric)

    # -- patterns ----------------------------------------------------------
    def pattern_atom(self) -> Pattern:
        t = self.peek()
        if self.at("lower"):
            self.next()
            return PVar(t.text, span=self.span_of(t))
        if self.at("sym", "_"):
            self.next()
            return PWild(span=self.span_of(t))
        if self.at("int"):
            self.next()
            return PInt(t.value, span=self.span_of(t))
        if self.at("kw", "true") or self.at("kw", "false"):
            self.next()
            return PBool(t.text == "true", span=self.span_of(t))
        if self.at("upper"):
            self.next()
            return PCon(t.text, (), span=self.span_of(t))
        if self.at("sym", "["):
            self.next()
            self.expect("sym", "]")
            return PCon("Nil", (), span=self.span_of(t))
        if self.at("sym", "("):
            self.next()
            if self.at("sym", "-") and self.peek(1).kind == "int":
                self.next()
                lit = self.next()
                self.expect("sym", ")")
                return PInt(-lit.value, span=self.span_of(lit))
            p = self.pattern_cons()
            self.expect("sym", ")")
            return p
        self.fail("expected a pattern", ("pattern",))
        raise AssertionError

    def pattern_app(self) -> Pattern:
        start = self.peek()
        if self.at("upper"):
            name = self.next().text
            args: list[Pattern] = []
            while self.peek().kind in ("lower", "upper", "int") or (
                self.peek().kind == "sym" and self.peek().text in ("_", "(", "[")
            ) or self.peek().kind == "kw" and self.peek().text in ("true", "false"):
                args.append(self.pattern_atom())
            return PCon(name, tuple(args), span=self.span_from(start))
        return self.pattern_atom()

    def pattern_cons(self) -> Pattern:
        start = self.peek()
        head = self.pattern_app()
        if self.at("sym", ":"):
            self.next()
            tail = self.pattern_cons()
            return PCon("Cons", (head, tail), span=self.span_from(start))
        return head

    # -- terms ---------------------------------------------------------------
    def term_atom(self) -> Term:
        t = self.peek()
        if self.at("lower"):
            self.next()
            return Var(t.text, span=self.span_of(t))
        if self.at("upper"):
            self.next()
            return Con(t.text, (), span=self.span_of(t))
        if self.at("int"):
            self.next()
            return IntLit(t.value, span=self.span_of(t))
        if self.at("kw", "true") or self.at("kw", "false"):
            self.next()
            return BoolLit(t.text == "true", span=self.span_of(t))
        if self.at("sym", "["):
            self.next()
            items: list[Term] = []
            if not self.at("sym", "]"):
                items.append(self.term())
                while self.at("sym", ","):
                    self.next()
                    items.append(self.term())
            end = self.expect("sym", "]")
            span = Span(t.line, t.col, end.line, end.col + 1)
            out = nil(span)
            for item in reversed(items):
                out = cons(item, out, span)
            return out
        if self.at("sym", "("):
            self.next()
            if self.at("sym", ")"):
                end = self.next()
                return UnitLit(span=Span(t.line, t.col, end.line, end.col + 1))
            if self.at("sym", "-") and self.peek(1).kind == "int":
                self.next()
                lit = self.next()
                self.expect("sym", ")")
                return IntLit(-lit.value, span=self.span_of(lit))
            inner = self.term()
            self.expect("sym", ")")
            return inner
        self.fail("expected a term", ("term",))
        raise AssertionError

    def term_app(self) -> Term:
        start = self.peek()
        if self.at("lower") or self.at("upper"):
            head = self.next()
            args: list[Term] = []
            while (
                self.peek().kind in ("lower", "upper", "int")
                or (self.peek().kind == "sym" and self.peek().text in ("(", "["))
                or (self.peek().kind == "kw" and self.peek().text in ("true", "false"))
            ):
                args.append(self.term_atom())
            span = self.span_from(start)
            if head.kind == "upper":
                return Con(head.text, tuple(args), span=span)
            if args:
                return App(head.text, tuple(args), span=span)
            return Var(head.text, span=span)
        return self.term_atom()

    def term_mul(self) -> Term:
        start = self.peek()
        left = self.term_app()
        while self.at("sym", "*"):
            self.next()
            right = self.term_app()
            left = PrimOp("*", left, right, span=self.span_from(start))
        return left

    def term_add(self) -> Term:
        start = self.peek()
        left = self.term_mul()
        while self.at("sym", "+") or self.at("sym", "-"):
            op = self.next().text
            right = self.term_mul()
            left = PrimOp(op, left, right, span=self.span_from(start))
        return left

    def term(self) -> Term:
        start = self.peek()
        head = self.term_add()
        if self.at("sym", ":"):
            self.next()
            tail = self.term()
            return cons(head, tail, self.span_from(start))
        return head

    # -- predicates ------------------------------------------------------------
    def pred_atom(self) -> Pred:
        t = self.peek()
        # 'true' or 'false' standing alone is a trivial predicate; as a
        # relational operand it is a Bool term, told apart by the next token.
        if t.kind == "kw" and t.text in ("true", "false") and not (
                self.peek(1).kind == "sym" and self.peek(1).text in ("==", "/=")):
            self.next()
            return (PTrue if t.text == "true" else PFalse)(span=self.span_of(t))
        if self.at("kw", "not"):
            self.next()
            return negate_pred(self.pred_atom())
        if self.at("sym", "("):
            # could be a parenthesised predicate or a parenthesised term
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
        if op.kind == "sym" and op.text in REL_OPS:
            self.next()
            rhs = self.term()
            return PAtom(op.text, lhs, rhs, span=self.span_from(t))
        self.fail("expected a relational operator", REL_OPS)
        raise AssertionError

    def pred_and(self) -> Pred:
        start = self.peek()
        items = [self.pred_atom()]
        while self.at("sym", "&&"):
            self.next()
            items.append(self.pred_atom())
        if len(items) == 1:
            return items[0]
        return PAnd(tuple(items), span=self.span_from(start))

    def pred(self) -> Pred:
        start = self.peek()
        items = [self.pred_and()]
        while self.at("sym", "||"):
            self.next()
            items.append(self.pred_and())
        if len(items) == 1:
            return items[0]
        return POr(tuple(items), span=self.span_from(start))

    # -- clause bodies -----------------------------------------------------------
    def hints(self) -> tuple[Term, ...]:
        out: list[Term] = []
        while self.at("sym", "?"):
            self.next()
            out.append(self.term())
        return tuple(out)

    def body(self) -> Chain:
        start = self.peek()
        head = self.term()
        head_hints = self.hints()
        steps: list[Step] = []
        while self.at("sym", "==."):
            stok = self.next()
            rhs = self.term()
            hints = self.hints()
            steps.append(Step(rhs, hints, span=self.span_from(stok)))
        qed = False
        if self.at("sym", "***"):
            self.next()
            self.expect("kw", "QED")
            qed = True
        if not self.at_end():
            self.fail("unexpected trailing tokens in clause body")
        return Chain(head=head, head_hints=head_hints, steps=tuple(steps), qed=qed,
                     span=self.span_from(start))


def _parse_data(p: _ItemParser) -> DataDecl:
    start = p.expect("kw", "data")
    name = p.expect("upper").text
    params: list[str] = []
    while p.at("lower"):
        params.append(p.next().text)
    p.expect("sym", "=")
    ctors: list[CtorDef] = []
    while True:
        cstart = p.peek()
        cname = p.expect("upper").text
        fields: list[TypeExpr] = []
        while p.at("upper") or p.at("lower") or p.at("sym", "("):
            fields.append(p.type_atom())
        ctors.append(CtorDef(cname, tuple(fields), span=p.span_from(cstart)))
        if p.at("sym", "|"):
            p.next()
            continue
        break
    if not p.at_end():
        p.fail("unexpected tokens after data declaration")
    return DataDecl(name, tuple(params), tuple(ctors), span=p.span_from(start))


@dataclass
class _RawSig:
    name: str
    signature: Signature
    span: Span


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
    items = _split_items(toks)

    decls: list[Decl] = []
    annotations: list[Annotation] = []
    pending_sig: _RawSig | None = None
    pending_clauses: list[Clause] = []

    def flush_fun():
        nonlocal pending_sig, pending_clauses
        if pending_sig is None:
            return
        if not pending_clauses:
            raise ParseError(
                f"signature for {pending_sig.name!r} has no clauses",
                pending_sig.span.line, pending_sig.span.col,
            )
        decls.append(FunDecl(pending_sig.name, pending_sig.signature,
                             tuple(pending_clauses), span=pending_sig.span))
        pending_sig = None
        pending_clauses = []

    for item in items:
        p = _ItemParser(item)
        first = p.peek()
        if first.kind == "kw" and first.text == "data":
            flush_fun()
            decls.append(_parse_data(p))
            continue
        if first.kind == "kw" and first.text in ("measure", "reflect", "ple"):
            kind = p.next().text
            target = p.expect("lower").text
            if not p.at_end():
                p.fail("unexpected tokens after annotation")
            annotations.append(Annotation(kind, target, span=p.span_of(first)))
            continue
        if first.kind != "lower":
            raise ParseError(f"unexpected {first.text!r} at top level", first.line, first.col,
                             ("data", "measure", "reflect", "ple", "identifier"))
        name = p.next().text
        if p.at("sym", ":"):
            p.next()
            flush_fun()
            sig = p.ref_type()
            if not p.at_end():
                p.fail("unexpected tokens after type signature")
            pending_sig = _RawSig(name, sig, _ItemParser.span_of(first))
            continue
        # clause
        patterns: list[Pattern] = []
        while not p.at("sym", "="):
            if p.at_end():
                p.fail("expected '=' in clause", ("=",))
            patterns.append(p.pattern_atom())
        p.expect("sym", "=")
        body = p.body()
        clause = Clause(name, tuple(patterns), body, span=_ItemParser.span_of(first))
        _check_linear(clause)
        if pending_sig is not None and pending_sig.name == name:
            pending_clauses.append(clause)
        else:
            raise ParseError(
                f"clause for {name!r} without a preceding type signature",
                first.line, first.col,
            )
    flush_fun()

    if toks:
        last = toks[-1]
        span = Span(1, 1, last.line, last.col)
    else:
        span = Span(1, 1, 1, 1)
    return SourceModule(tuple(decls), tuple(annotations), span=span)


def parse_term(source: str) -> Term:
    """Parse a single term (testing convenience)."""
    p = _ItemParser([t for t in tokenize(source) if t.kind != "eof"])
    t = p.term()
    if not p.at_end():
        p.fail("unexpected trailing tokens after term")
    return t


def parse_pred(source: str) -> Pred:
    p = _ItemParser([t for t in tokenize(source) if t.kind != "eof"])
    q = p.pred()
    if not p.at_end():
        p.fail("unexpected trailing tokens after predicate")
    return q

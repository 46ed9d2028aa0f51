"""Core AST for .eq modules: terms, patterns, predicates, refinement types,
declarations, plus the pretty-printer."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from operator import is_
from typing import Iterable, Iterator, NamedTuple, Optional, Union


class Span(NamedTuple):
    """A source range; printed as its start, `line:col`."""
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_SPAN = Span(0, 0, 0, 0)


# ---------------------------------------------------------------- terms

@dataclass(frozen=True, slots=True)
class Term:
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class IntLit(Term):
    value: int


@dataclass(frozen=True, slots=True)
class BoolLit(Term):
    value: bool


@dataclass(frozen=True, slots=True)
class UnitLit(Term):
    pass


@dataclass(frozen=True, slots=True)
class Con(Term):
    """Constructor application, always saturated."""
    name: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class App(Term):
    """Function application, always saturated (the language is first order)."""
    name: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class PrimOp(Term):
    """Arithmetic primitive; '*' requires a literal operand (kept linear)."""
    op: str  # '+', '-', '*'
    lhs: Term = field(default=None)  # type: ignore[assignment]
    rhs: Term = field(default=None)  # type: ignore[assignment]


@dataclass(frozen=True, slots=True)
class Wild(Term):
    """The wildcard `_`; only clause patterns hold one."""


# A clause pattern is the term it matches: a Var, IntLit, BoolLit, Con of
# patterns, or a Wild.
Pattern = Term


# ----------------------------------------------------------- predicates

@dataclass(frozen=True, slots=True)
class Pred:
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


REL_OPS = ("==", "/=", "<=", "<", ">=", ">")


@dataclass(frozen=True, slots=True)
class PAtom(Pred):
    rel: str  # one of REL_OPS
    lhs: Term = field(default=None)  # type: ignore[assignment]
    rhs: Term = field(default=None)  # type: ignore[assignment]


@dataclass(frozen=True, slots=True)
class PAnd(Pred):
    items: tuple[Pred, ...] = ()


@dataclass(frozen=True, slots=True)
class POr(Pred):
    items: tuple[Pred, ...] = ()


@dataclass(frozen=True, slots=True)
class PTrue(Pred):
    pass


@dataclass(frozen=True, slots=True)
class PFalse(Pred):
    pass


_DUAL = {"==": "/=", "/=": "==", "<=": ">", ">": "<=", "<": ">=", ">=": "<"}


def negate_pred(p: Pred) -> Pred:
    """`not p` pushed to the atoms: each relation becomes its dual, `&&` and
    `||` swap, and so do `true` and `false`.  The parser stores `not` this
    way, so no later phase sees a negation."""
    if isinstance(p, PAtom):
        return PAtom(_DUAL[p.rel], p.lhs, p.rhs, span=p.span)
    if isinstance(p, PAnd):
        return POr(tuple(negate_pred(q) for q in p.items), span=p.span)
    if isinstance(p, POr):
        return PAnd(tuple(negate_pred(q) for q in p.items), span=p.span)
    if isinstance(p, PTrue):
        return PFalse(span=p.span)
    return PTrue(span=p.span)


# ------------------------------------------------------ refinement types

@dataclass(frozen=True, slots=True)
class TypeExpr:
    """Surface type: Int, Bool, Proof, a type variable (lowercase name), or a
    declared type applied to arguments."""
    name: str
    args: tuple[TypeExpr, ...] = ()
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)

    @property
    def is_tyvar(self) -> bool:
        return self.name[:1].islower()


@dataclass(frozen=True, slots=True)
class BaseRef:
    """{binder : ty | pred}; a bare type means a trivially true predicate."""
    ty: TypeExpr
    binder: str
    pred: Pred
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)

    @property
    def refined(self) -> bool:
        return not isinstance(self.pred, PTrue)


@dataclass(frozen=True, slots=True)
class Signature:
    """Chain of named argument binders ending in the result base type."""
    params: tuple[tuple[str, BaseRef], ...]
    result: BaseRef
    metric: Optional[tuple[Term, ...]] = None
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)

    def binders(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.params)


# ----------------------------------------------------------------- bodies

@dataclass(frozen=True, slots=True)
class Step:
    """One link of a chain: a term and the `? hint`s attached to it.  The
    first link is the head; each later one is a `==. rhs` step."""
    rhs: Term
    hints: tuple[Term, ...] = ()
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Chain:
    """A clause body: head (? hint)* (==. rhs (? hint)*)* [*** QED], stored as
    its links, the head with its hints first.  A plain term is a chain of
    one link with no hints and no QED."""
    links: tuple[Step, ...]
    qed: bool = False
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)

    @property
    def plain(self) -> bool:
        return len(self.links) == 1 and not (self.links[0].hints or self.qed)

    def value_term(self) -> Term:
        """The term a chain evaluates to: the unit value after QED, else its
        last link's (==. returns its right argument)."""
        return UnitLit() if self.qed else self.links[-1].rhs

    def terms(self, upto: int | None = None) -> list[Term]:
        """Every link's term, plus the hints of links 0..`upto` (of every
        link when `upto` is None), in source order."""
        out: list[Term] = []
        for k, link in enumerate(self.links):
            out.append(link.rhs)
            if upto is None or k <= upto:
                out.extend(link.hints)
        return out


# ----------------------------------------------------------- declarations

@dataclass(frozen=True, slots=True)
class Clause:
    name: str
    patterns: tuple[Pattern, ...]
    body: Chain
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class CtorDef:
    name: str
    fields: tuple[TypeExpr, ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class DataDecl:
    name: str
    params: tuple[str, ...]
    ctors: tuple[CtorDef, ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class FunDecl:
    name: str
    signature: Signature
    clauses: tuple[Clause, ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


Decl = Union[DataDecl, FunDecl]

@dataclass(frozen=True, slots=True)
class Annotation:
    kind: str  # measure | reflect | ple
    target: str
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class SourceModule:
    decls: tuple[Decl, ...]
    annotations: tuple[Annotation, ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


# The List type every module gets for free; [] / (:) sugar targets it.
PRELUDE_LIST = DataDecl(
    name="List",
    params=("a",),
    ctors=(
        CtorDef("Nil", ()),
        CtorDef("Cons", (TypeExpr("a"), TypeExpr("List", (TypeExpr("a"),)))),
    ),
)


def nil(span: Span = NO_SPAN) -> Term:
    return Con("Nil", (), span=span)


def cons(h: Term, t: Term, span: Span = NO_SPAN) -> Term:
    return Con("Cons", (h, t), span=span)


# ------------------------------------------------------------- traversal

def allow_deep_recursion() -> None:
    """Raise the interpreter's recursion limit to 20000 frames.

    The passes over syntax trees and the reference evaluator recurse once
    per nesting level, two frames deep where they rebuild a tuple, and an
    n-element list literal nests n deep: at the default limit of 1000 a
    500-element literal raises RecursionError.  The entry points call this,
    rather than a module doing it at import, so importing eqcheck changes no
    interpreter setting.  Deeper inputs still raise RecursionError, which
    the CLI reports as an input error."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


def subterms(t: Term) -> Iterator[Term]:
    """Yield t and every nested term, preorder and left to right.  The walk
    keeps an explicit stack, so its cost per term does not grow with depth."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, (Con, App)):
            stack.extend(reversed(t.args))
        elif isinstance(t, PrimOp):
            stack += (t.rhs, t.lhs)


def apps(terms: Iterable[Term]) -> Iterator[App]:
    """Every function application in `terms`, preorder and left to right
    (fact order follows it, and reaches the output)."""
    for t in terms:
        for sub in subterms(t):
            if isinstance(sub, App):
                yield sub


def pred_terms(p: Pred) -> Iterator[Term]:
    if isinstance(p, PAtom):
        yield p.lhs
        yield p.rhs
    elif isinstance(p, (PAnd, POr)):
        for q in p.items:
            yield from pred_terms(q)


def substitute(t: Term, subst: dict[str, Term]) -> Term:
    """`t` with every variable named in `subst` replaced by its image.

    The result shares structure with `t`: a subterm with no replaced
    variable under it is returned as the very same object, so an empty map
    returns `t` itself, and a rebuilt node keeps its unchanged arguments.
    Terms are immutable, so the sharing is invisible to `==`; the solver's
    intern memo (`SolverState.intern_term`) uses it to skip walks."""
    if not subst:
        return t
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if isinstance(t, (Con, App)):
        args = tuple(substitute(a, subst) for a in t.args)
        if all(map(is_, args, t.args)):
            return t
        return type(t)(t.name, args, span=t.span)
    if isinstance(t, PrimOp):
        lhs, rhs = substitute(t.lhs, subst), substitute(t.rhs, subst)
        if lhs is t.lhs and rhs is t.rhs:
            return t
        return PrimOp(t.op, lhs, rhs, span=t.span)
    return t


def substitute_pred(p: Pred, subst: dict[str, Term]) -> Pred:
    """`substitute` on every term of `p`, sharing structure the same way."""
    if not subst:
        return p
    if isinstance(p, PAtom):
        lhs, rhs = substitute(p.lhs, subst), substitute(p.rhs, subst)
        if lhs is p.lhs and rhs is p.rhs:
            return p
        return PAtom(p.rel, lhs, rhs, span=p.span)
    if isinstance(p, (PAnd, POr)):
        items = tuple(substitute_pred(q, subst) for q in p.items)
        if all(map(is_, items, p.items)):
            return p
        return type(p)(items, span=p.span)
    return p


def substitute_chain(b: Chain, subst: dict[str, Term]) -> Chain:
    """`substitute` on every term and hint of `b`, sharing structure the same
    way; an empty map returns `b` itself."""
    if not subst:
        return b
    return Chain(tuple(Step(substitute(s.rhs, subst),
                            tuple(substitute(h, subst) for h in s.hints), span=s.span)
                       for s in b.links), b.qed, span=b.span)


def pattern_vars(p: Pattern) -> Iterator[str]:
    return (s.name for s in subterms(p) if isinstance(s, Var))


class FreshNames:
    """Name supply that avoids a fixed set of taken names."""

    def __init__(self, taken: set[str] | None = None):
        self.taken = set(taken or ())
        self.counter = 0

    def take(self, base: str) -> str:
        name = base
        while name in self.taken:
            self.counter += 1
            name = f"{base}{self.counter}"
        self.taken.add(name)
        return name


# -------------------------------------------------------------- desugar

def desugar(m: SourceModule) -> SourceModule:
    """The identity.  The parser already writes `[]`, `[e1, ..., ek]` and
    `e : e'` as `Nil`/`Cons` terms, so no pass removes notation; scripts that
    drive the pipeline stage by stage still call this name."""
    return m


# --------------------------------------------------------------- pretty

# precedence levels: 0 cons, 1 additive, 2 multiplicative, 3 application, 4 atom
def _term_doc(t: Term, level: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, IntLit):
        return str(t.value) if t.value >= 0 else f"({t.value})"
    if isinstance(t, BoolLit):
        return "true" if t.value else "false"
    if isinstance(t, UnitLit):
        return "()"
    if isinstance(t, Con) and t.name == "Nil" and not t.args:
        return "[]"
    if isinstance(t, Con) and t.name == "Cons" and len(t.args) == 2:
        s = f"{_term_doc(t.args[0], 1)} : {_term_doc(t.args[1], 0)}"
        return f"({s})" if level > 0 else s
    if isinstance(t, (Con, App)):
        if not t.args:
            return t.name
        s = t.name + " " + " ".join(_term_doc(a, 4) for a in t.args)
        return f"({s})" if level > 3 else s
    if isinstance(t, PrimOp):
        if t.op == "*":
            s = f"{_term_doc(t.lhs, 2)} * {_term_doc(t.rhs, 3)}"
            return f"({s})" if level > 2 else s
        s = f"{_term_doc(t.lhs, 1)} {t.op} {_term_doc(t.rhs, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(t, Wild):
        return "_"
    raise AssertionError(f"unknown term {t!r}")


def pretty(t: Term) -> str:
    """Render a term so that parsing it back yields the same structure."""
    return _term_doc(t, 0)


def pretty_pred(p: Pred, level: int = 0) -> str:
    # levels: 0 or, 1 and, 2 atom
    if isinstance(p, PTrue):
        return "true"
    if isinstance(p, PFalse):
        return "false"
    if isinstance(p, PAtom):
        return f"{_term_doc(p.lhs, 0)} {p.rel} {_term_doc(p.rhs, 0)}"
    if isinstance(p, PAnd):
        s = " && ".join(pretty_pred(q, 2) for q in p.items)
        return f"({s})" if level > 1 else s
    if isinstance(p, POr):
        s = " || ".join(pretty_pred(q, 1) for q in p.items)
        return f"({s})" if level > 0 else s
    raise AssertionError(f"unknown pred {p!r}")


def pretty_type(te: TypeExpr, atom: bool = False) -> str:
    if not te.args:
        return te.name
    s = te.name + " " + " ".join(pretty_type(a, True) for a in te.args)
    return f"({s})" if atom else s


def pretty_base(b: BaseRef) -> str:
    if b.refined:
        return "{" + f"{b.binder}:{pretty_type(b.ty, True)} | {pretty_pred(b.pred)}" + "}"
    return pretty_type(b.ty, True)


def pretty_signature(name: str, sig: Signature) -> str:
    parts = [f"{n}:{pretty_base(b)}" for n, b in sig.params]
    parts.append(pretty_base(sig.result))
    text = f"{name} : " + " -> ".join(parts)
    if sig.metric is not None:
        text += " / [" + ", ".join(pretty(t) for t in sig.metric) + "]"
    return text


def pretty_module(m: SourceModule) -> str:
    """Render a whole module in parseable concrete syntax."""
    lines: list[str] = []
    anns_by_target: dict[str, list[str]] = {}
    for a in m.annotations:
        anns_by_target.setdefault(a.target, []).append(a.kind)
    for d in m.decls:
        if lines:
            lines.append("")
        if isinstance(d, DataDecl):
            ctors = " | ".join(
                c.name + ("" if not c.fields else " " + " ".join(pretty_type(f, True) for f in c.fields))
                for c in d.ctors
            )
            params = ("" if not d.params else " " + " ".join(d.params))
            lines.append(f"data {d.name}{params} = {ctors}")
            continue
        for kind in anns_by_target.get(d.name, ()):
            lines.append(f"{kind} {d.name}")
        lines.append(pretty_signature(d.name, d.signature))
        for c in d.clauses:
            pats = "".join(" " + _term_doc(p, 4) for p in c.patterns)
            ch = c.body
            if ch.plain:
                lines.append(f"{c.name}{pats} = {pretty(ch.links[0].rhs)}")
                continue
            lines.append(f"{c.name}{pats}")
            for k, s in enumerate(ch.links):
                lines.append(f"  {'==.' if k else '=  '} {pretty(s.rhs)}")
                lines.extend(f"      ? {pretty(h)}" for h in s.hints)
            if ch.qed:
                lines.append("  *** QED")
    return "\n".join(lines) + "\n"

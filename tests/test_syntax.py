import dataclasses
import itertools

import pytest
from hypothesis import given, strategies as st

from eqcheck import parser
from eqcheck.parser import (
    ParseError, Token, parse_module, parse_pred, parse_term, tokenize,
)
from eqcheck.syntax import (
    App, Annotation, BoolLit, Chain, Con, IntLit, PAnd, PAtom, PFalse, POr, PTrue,
    PrimOp, REL_OPS, Span, Step, Var, Wild, apps, cons, nil, pred_terms, pretty,
    pretty_module, pretty_pred, substitute, substitute_chain, substitute_pred, subterms,
)

from conftest import FILES, corpus_text


def test_reflect_annotation_recorded():
    m = parse_module("reflect reverse\nreverse : xs:(List a) -> List a\nreverse xs = xs\n")
    assert Annotation("reflect", "reverse") in m.annotations
    assert [d.name for d in m.decls] == ["reverse"]


def test_empty_module():
    m = parse_module("")
    assert m.decls == () and m.annotations == ()


def test_nonlinear_pattern_rejected():
    with pytest.raises(ParseError, match="nonlinear"):
        parse_module("f : x:Int -> y:Int -> Int\nf x x = x\n")


def test_clause_without_signature_rejected():
    with pytest.raises(ParseError, match="signature"):
        parse_module("f x = x\n")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as e:
        parse_module("f : Int -> Int\nf x = x +\n")
    assert e.value.line == 2


@pytest.mark.parametrize("source, expected", [
    ("x--y", [("lower", "x", 1, 1)]),
    ("a==.b", [("lower", "a", 1, 1), ("sym", "==.", 1, 2), ("lower", "b", 1, 5)]),
    ("x'_1", [("lower", "x'_1", 1, 1)]),
    ("_x", [("sym", "_", 1, 1), ("lower", "x", 1, 2)]),
    ("->-", [("sym", "->", 1, 1), ("sym", "-", 1, 3)]),
    ("12ab ***", [("int", "12", 1, 1), ("lower", "ab", 1, 3), ("sym", "***", 1, 6)]),
    ("\tf\t1\n\tQED Nil", [("lower", "f", 1, 2), ("int", "1", 1, 4),
                          ("kw", "QED", 2, 2), ("upper", "Nil", 2, 6)]),
    ("x\u00bd y\u00b2", [("lower", "x\u00bd", 1, 1), ("lower", "y\u00b2", 1, 4)]),
    ("a \u2163", "1:3: unexpected character '\u2163'"),
    ("\u00bd", "1:1: unexpected character '\u00bd'"),
    ("\n \u0663", "2:2: unexpected character '\u0663'"),
    # a comment that ends the input is skipped whole, not re-read as symbols
    ("x -- c", [("lower", "x", 1, 1)]),
    ("-- c", []),
    ("x - -- c", [("lower", "x", 1, 1), ("sym", "-", 1, 3)]),
    ("x  \t", [("lower", "x", 1, 1)]),
    ("x \t\n\t ", [("lower", "x", 1, 1)]),
    ("a\r\nb\r\n", [("lower", "a", 1, 1), ("lower", "b", 2, 1)]),
    ("f x\r\n  -- c\r\n  = 1", [("lower", "f", 1, 1), ("lower", "x", 1, 3),
                              ("sym", "=", 3, 3), ("int", "1", 3, 5)]),
    ("  \t ", []),
    ("\n\n", []),
])
def test_tokenize_table(source, expected):
    if isinstance(expected, str):
        with pytest.raises(ParseError) as e:
            tokenize(source)
        assert str(e.value) == expected
        return
    toks = [(t.kind, t.text, t.line, t.col) for t in tokenize(source)]
    lines = source.count("\n") + 1
    assert toks == expected + [("eof", "", lines + 1, 1)]


def test_desugar_singleton():
    assert parse_term("[x]") == Con("Cons", (Var("x"), Con("Nil")))


def test_desugar_empty_list():
    assert parse_term("[]") == Con("Nil")


def test_desugar_stack_pattern_sugar():
    got = parse_term("m : n : s")
    assert got == Con("Cons", (Var("m"), Con("Cons", (Var("n"), Var("s")))))


def test_list_literal_is_cons_chain_with_literal_span():
    got = parse_term("[1, x : xs, f y]")
    assert got == cons(IntLit(1), cons(cons(Var("x"), Var("xs")),
                                       cons(App("f", (Var("y"),)), nil())))
    literal = Span(1, 1, 1, 17)
    outer = [got, got.args[1], got.args[1].args[1]]
    assert [c.span for c in outer] == [literal] * 3
    assert outer[2].args[1] == nil() and outer[2].args[1].span == literal
    # `x : xs` keeps its own span, from `x` to the end of `xs`
    assert got.args[1].args[0].span == Span(1, 5, 1, 11)


def test_pretty_cons():
    assert pretty(Con("Cons", (IntLit(1), Con("Nil")))) == "1 : []"


def test_pretty_application():
    assert pretty(App("reverse", (Var("xs"),))) == "reverse xs"


def test_pretty_primop():
    assert pretty(PrimOp("+", Var("n"), IntLit(1))) == "n + 1"


def test_precedence_app_over_plus_over_cons():
    t = parse_term("eval x + eval y : s")
    assert isinstance(t, Con) and t.name == "Cons"
    assert isinstance(t.args[0], PrimOp)
    assert isinstance(t.args[0].lhs, App)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_corpus_roundtrip(path):
    m1 = parse_module(path.read_text())
    text = pretty_module(m1)
    m2 = parse_module(text)
    assert m2 == m1
    assert parse_module(pretty_module(m2)) == m2


@pytest.mark.parametrize("name", ["section2.eq", "section5.eq"])
def test_spans_inside_file(name):
    from eqcheck.syntax import FunDecl
    src = corpus_text(name)
    n_lines = src.count("\n") + 1
    m = parse_module(src)
    for d in m.decls:
        assert 1 <= d.span.line <= d.span.end_line <= n_lines
        if isinstance(d, FunDecl):
            for clause in d.clauses:
                for t in clause.body.terms():
                    for sub in subterms(t):
                        assert 1 <= sub.span.line <= sub.span.end_line <= n_lines


# random core terms: pretty . parse round trips
_names = st.sampled_from(["x", "ys", "n", "acc"])


def _list_of(items):
    out = nil()
    for item in reversed(items):
        out = cons(item, out)
    return out


def _terms():
    base = st.one_of(
        _names.map(Var),
        st.integers(min_value=-9, max_value=9).map(IntLit),
        st.just(nil()),
    )
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: cons(p[0], p[1])),
            st.lists(sub, min_size=1, max_size=3).map(_list_of),
            st.tuples(sub, sub).map(lambda p: PrimOp("+", p[0], p[1])),
            st.tuples(_names, st.lists(sub, min_size=1, max_size=2)).map(
                lambda p: App(p[0], tuple(p[1]))),
        ),
        max_leaves=8,
    )


@given(_terms())
def test_pretty_parse_roundtrip(t):
    assert parse_term(pretty(t)) == t


# random linear patterns: a clause's patterns print and read back
def _patterns():
    base = st.one_of(
        st.just(Var("x")), st.just(Wild()), st.integers(min_value=-9, max_value=9).map(IntLit),
        st.booleans().map(BoolLit), st.just(Con("Nil")), st.just(Con("Leaf")),
    )
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: Con("Cons", p)),
            st.tuples(st.sampled_from(["Just", "Node"]), st.lists(sub, min_size=1, max_size=3)).map(
                lambda c: Con(c[0], tuple(c[1]))),
        ),
        max_leaves=8,
    )


def _numbered(p, counter):
    """`p` with its variables renamed x0, x1, ... so that a clause stays linear."""
    if isinstance(p, Var):
        return Var(f"x{next(counter)}")
    if isinstance(p, Con):
        return Con(p.name, tuple(_numbered(a, counter) for a in p.args))
    return p


@given(st.lists(_patterns(), min_size=1, max_size=3))
def test_pattern_print_parse_roundtrip(pats):
    counter = itertools.count()
    pats = tuple(_numbered(p, counter) for p in pats)
    text = " ".join("(" + pretty(p) + ")" for p in pats)
    (decl,) = parse_module(f"f : a -> Int\nf {text} = 0\n").decls
    assert decl.clauses[0].patterns == pats


# random predicates: pretty_pred . parse_pred round trips
def _pred_trees():
    atom = st.one_of(
        st.tuples(st.sampled_from(REL_OPS), _terms(), _terms()).map(lambda r: PAtom(*r)),
        st.just(PAtom("==", BoolLit(True), Var("b"))),
        st.just(PTrue()), st.just(PFalse()),
    )
    return st.recursive(
        atom,
        lambda sub: st.tuples(st.sampled_from([PAnd, POr]),
                              st.lists(sub, min_size=2, max_size=3)).map(
            lambda c: c[0](tuple(c[1]))),
        max_leaves=6,
    )


@given(_pred_trees())
def test_pred_print_parse_roundtrip(p):
    assert parse_pred(pretty_pred(p)) == p


def test_parenthesised_term_reads_in_linear_time(monkeypatch):
    # on '(' a predicate is tried first; after backtracking, the term inside
    # is read from memory instead of token by token again
    calls = [0]
    term_atom = parser._ItemParser.term_atom

    def counting_term_atom(self):
        calls[0] += 1
        return term_atom(self)

    monkeypatch.setattr(parser._ItemParser, "term_atom", counting_term_atom)
    counts = []
    for k in (40, 80):
        calls[0] = 0
        assert parse_pred("(" * k + "x" + ")" * k + " == y") == PAtom("==", Var("x"), Var("y"))
        counts.append(calls[0])
    assert counts[1] <= 2.2 * counts[0], counts


def test_apps_preorder_left_to_right():
    terms = [parse_term("f (g x) [h 1, k] + (m (n 2) : p 3)"), parse_term("q y")]
    assert [a.name for a in apps(terms)] == ["f", "g", "h", "m", "n", "p", "q"]


# ------------------------------------------------ shared substitution

def _copying_substitute(t, subst):
    """The reference: rebuilds every compound node."""
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if isinstance(t, (Con, App)):
        return type(t)(t.name, tuple(_copying_substitute(a, subst) for a in t.args),
                       span=t.span)
    if isinstance(t, PrimOp):
        return PrimOp(t.op, _copying_substitute(t.lhs, subst),
                      _copying_substitute(t.rhs, subst), span=t.span)
    return t


def _copying_substitute_pred(p, subst):
    if isinstance(p, PAtom):
        return PAtom(p.rel, _copying_substitute(p.lhs, subst),
                     _copying_substitute(p.rhs, subst), span=p.span)
    if isinstance(p, (PAnd, POr)):
        return type(p)(tuple(_copying_substitute_pred(q, subst) for q in p.items),
                       span=p.span)
    return p


def _preds():
    atom = st.tuples(st.sampled_from(["==", "/=", "<="]), _terms(), _terms()).map(
        lambda r: PAtom(*r))
    return st.recursive(
        st.one_of(atom, st.just(PTrue())),
        lambda sub: st.lists(sub, min_size=1, max_size=3).flatmap(
            lambda items: st.sampled_from([PAnd(tuple(items)), POr(tuple(items))])),
        max_leaves=4,
    )


def _children(x):
    if isinstance(x, (Con, App)):
        return x.args
    if isinstance(x, (PrimOp, PAtom)):
        return (x.lhs, x.rhs)
    if isinstance(x, (PAnd, POr)):
        return x.items
    return ()


def _var_names(x):
    terms = pred_terms(x) if isinstance(x, (PAtom, PAnd, POr, PTrue)) else [x]
    return {s.name for t in terms for s in subterms(t) if isinstance(s, Var)}


def _assert_shared(orig, out, subst):
    """`out` is `orig` itself when no mapped variable occurs in it; else the
    same holds, argument by argument, for the node it rebuilt."""
    if not _var_names(orig) & subst.keys():
        assert out is orig
        return
    if isinstance(orig, Var):
        assert out is subst[orig.name]
        return
    assert type(out) is type(orig)
    for a, b in zip(_children(orig), _children(out), strict=True):
        _assert_shared(a, b, subst)


_maps = st.dictionaries(_names, _terms(), max_size=3)


@given(_terms(), _maps)
def test_substitute_shares_what_it_leaves_unchanged(t, subst):
    out = substitute(t, subst)
    assert out == _copying_substitute(t, subst)
    _assert_shared(t, out, subst)
    assert substitute(t, {}) is t


@given(_preds(), _maps)
def test_substitute_pred_shares_what_it_leaves_unchanged(p, subst):
    out = substitute_pred(p, subst)
    assert out == _copying_substitute_pred(p, subst)
    _assert_shared(p, out, subst)
    assert substitute_pred(p, {}) is p


_spans = st.builds(Span, *[st.integers(min_value=1, max_value=9)] * 4)
_links = st.builds(lambda t, hints, span: Step(t, tuple(hints), span=span),
                   _terms(), st.lists(_terms(), max_size=2), _spans)
_chains = st.builds(lambda links, qed, span: Chain(tuple(links), qed, span=span),
                    st.lists(_links, min_size=1, max_size=3), st.booleans(), _spans)


@given(_chains, _maps)
def test_substitute_chain_shares_what_it_leaves_unchanged(b, subst):
    out = substitute_chain(b, subst)
    assert out.qed == b.qed and out.span == b.span
    for link, new in zip(b.links, out.links, strict=True):
        assert new.span == link.span
        assert new.rhs == substitute(link.rhs, subst)
        assert new.hints == tuple(substitute(h, subst) for h in link.hints)
        for t, u in zip((link.rhs, *link.hints), (new.rhs, *new.hints), strict=True):
            _assert_shared(t, u, subst)
    assert substitute_chain(b, {}) is b


# ------------------------------------------------ tokens and spans

def test_tokens_and_spans_are_tuples_not_dataclasses():
    assert not dataclasses.is_dataclass(Span) and not dataclasses.is_dataclass(Token)
    assert str(Span(3, 4, 3, 9)) == "3:4"
    assert Span(3, 4, 3, 9).end_col == 9
    assert tokenize("f 12")[1] == Token("int", "12", 1, 3, 12)


def test_spans_do_not_affect_term_equality():
    s1, s2 = Span(1, 1, 1, 2), Span(7, 3, 7, 4)
    assert Var("x", span=s1) == Var("x", span=s2)
    assert hash(Var("x", span=s1)) == hash(Var("x", span=s2))
    assert parse_term("f (x + 1)") == parse_term("f  (x  +  1)")


def test_parse_error_carries_line_and_col():
    with pytest.raises(ParseError) as e:
        parse_module("f : Int -> Int\nf x = x +\n")
    assert str(e.value).startswith("2:")
    assert (e.value.line, e.value.col) == (2, 10)


@pytest.mark.parametrize("parse", [parse_term, parse_pred])
@pytest.mark.parametrize("source", ["", "  "])
def test_empty_input_is_a_located_parse_error(parse, source):
    with pytest.raises(ParseError) as e:
        parse(source)
    assert str(e.value).startswith("1:1: expected a term")
    assert (e.value.line, e.value.col) == (1, 1)

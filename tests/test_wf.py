import itertools

import pytest

from eqcheck.checker import check_module
from eqcheck.semantics import Fuel, MatchFailure, enumerate_values, evaluate, value_to_term
from eqcheck.syntax import App, PCon, pretty_pred
from eqcheck.wf import (
    NonTermination, TerminationEvidence, call_graph_cycles, check_termination,
    check_totality, clause_contexts, clause_leaves, missing_pattern_text,
)
from eqcheck.types import INT, SortData

from conftest import LIST_BASICS, corpus_text, env_of
from oracles import check_leaves_partition

CORPUS_FILES = ("section2.eq", "section2_ple.eq", "section4.eq", "section5.eq")


INVOLUTION_BASE_ONLY = LIST_BASICS + """\

involutionP : xs:(List a) -> {v:Proof | reverse (reverse xs) == xs}
involutionP []
  =   reverse (reverse [])
  ==. reverse []
  ==. []
  *** QED
"""


def test_single_clause_involution_missing_cons():
    env = env_of(INVOLUTION_BASE_ONLY)
    missing = check_totality(env.funs["involutionP"], env)
    assert [missing_pattern_text(r) for r in missing] == ["Cons _ _"]


def test_total_exec_accepted():
    env = env_of(corpus_text("section5.eq"))
    assert check_totality(env.funs["exec"], env) == []


def test_exec_without_catchall_missing():
    src = corpus_text("section5.eq").replace("exec _ _ = Nothing\n", "")
    env = env_of(src)
    missing = {missing_pattern_text(r) for r in check_totality(env.funs["exec"], env)}
    assert missing == {"(Cons ADD _) Nil", "(Cons ADD _) (Cons _ Nil)"}


def test_bool_clauses_total():
    env = env_of("neg : b:Bool -> Bool\nneg true = false\nneg false = true\n")
    assert check_totality(env.funs["neg"], env) == []


def test_int_literals_never_exhaustive():
    env = env_of("iszero : n:Int -> Bool\niszero 0 = true\n")
    missing = check_totality(env.funs["iszero"], env)
    assert missing and missing_pattern_text(missing[0]) == "1"
    # a negative literal is written the way a pattern spells it
    env = env_of("f : n:Int -> m:Int -> Int\nf (-1) 0 = 0\n")
    missing = {missing_pattern_text(r) for r in check_totality(env.funs["f"], env)}
    assert missing == {"(-1) 1", "0 _"}


def test_totality_agrees_with_evaluator():
    # brute force: an input raises MatchFailure iff it matches a missing row
    src = """\
data Shape = Dot | Box Shape Shape

weird : s:Shape -> t:Shape -> Int
weird Dot _ = 0
weird (Box Dot x) Dot = 1
"""
    env = env_of(src)
    fi = env.funs["weird"]
    missing = check_totality(fi, env)
    shape = SortData("Shape", ())
    values = enumerate_values(env, shape, 5)

    def matches_row(row, args):
        def m(pat, v):
            if isinstance(pat, PCon):
                return v[0] == pat.name and all(m(p, a) for p, a in zip(pat.args, v[1:]))
            return True
        return all(m(p, v) for p, v in zip(row, args))

    for a, b in itertools.product(values, values):
        try:
            evaluate(env, App("weird", (value_to_term(a), value_to_term(b))))
            failed = False
        except MatchFailure:
            failed = True
        assert failed == any(matches_row(row, (a, b)) for row in missing)


def test_leaves_of_overlapping_clause():
    env = env_of(corpus_text("section5.eq"))
    fi = env.funs["sequenceP"]
    leaves = clause_leaves(fi, 3, env)  # the (ADD:c) d s clause
    rows = {missing_pattern_text(l.row) for l in leaves}
    assert rows == {"(Cons ADD c) d Nil", "(Cons ADD c) d (Cons _w Nil)"}


def test_disjoint_clause_has_single_leaf(list_env):
    fi = list_env.funs["append"]
    assert len(clause_leaves(fi, 0, list_env)) == 1
    assert len(clause_leaves(fi, 1, list_env)) == 1


# Clauses after a literal sub-pattern: the later clause's leaves name the
# position the literal constrained and exclude the literal there.
LITERAL_HEAD = """\
f : xs:(List Int) -> Int
f (0 : ys) = 1
f zs = 2
"""

LITERAL_FIELD = """\
data Expr = Val Int | Neg Expr

isZero : e:Expr -> Int
isZero (Val 0) = 1
isZero _ = 2
"""

LITERAL_PAIR = """\
data P = Pair Int Int

measure fstP
fstP : p:P -> Int
fstP (Pair a b) = a

h : p:P -> {v:Int | v == fstP p}
h (Pair 0 b) = 0
h q = fstP q
"""

LITERAL_HD = """\
reflect hd
hd : xs:(List Int) -> Int
hd [] = 1
hd (y : ys) = y

k : xs:(List Int) -> {v:Int | v /= 0}
k (0 : ys) = 1
k [] = 1
k zs = hd zs
"""

LITERAL_METRIC = """\
measure length
length : xs:(List a) -> {v:Int | 0 <= v}
length [] = 0
length (_:xs) = 1 + length xs

reflect tl
tl : xs:(List Int) -> List Int
tl [] = []
tl (y : ys) = ys

h : xs:(List Int) -> Int / [length xs]
h (0 : ys) = 0
h [] = 0
h zs = h (tl zs)
"""

LITERAL_NESTED = """\
g : xs:(List Int) -> ys:(List Int) -> Int
g (0 : 1 : zs) [] = 1
g (x : zs) (2 : w) = 2
g a b = 3
"""

# each module with its (proved, total) verdict counts
LITERAL_MODULES = {
    "head": (LITERAL_HEAD, (0, 0)),
    "field": (LITERAL_FIELD, (0, 0)),
    "pair": (LITERAL_PAIR, (2, 2)),
    "hd": (LITERAL_HD, (3, 3)),
    "metric": (LITERAL_METRIC, (2, 2)),
    "nested": (LITERAL_NESTED, (0, 0)),
}


@pytest.mark.parametrize("name", LITERAL_MODULES)
def test_clause_after_a_literal_sub_pattern_checks(name):
    source, counts = LITERAL_MODULES[name]
    verdicts = check_module(source).verdicts
    assert (sum(v.proved for v in verdicts), len(verdicts)) == counts


def test_clause_after_a_literal_sub_pattern_excludes_the_literal():
    obs = {ob.oid: ob for ob in check_module(LITERAL_HD).obligations}
    facts = [pretty_pred(f) for f in obs["k/c2/vc"].facts]
    assert facts == ["xs == _w : _w1", "zs == _w : _w1", "_w /= 0"]


def test_exclusion_names_the_position_the_literal_constrained():
    # with 1 excluded in place of 0, hd zs may be 0: the clause VC must fail
    source = LITERAL_HD.replace("k (0 : ys) = 1", "k (1 : ys) = 1")
    verdicts = {v.oid: v.proved for v in check_module(source).verdicts}
    assert verdicts["k/c2/vc"] is False
    assert sum(verdicts.values()) == 2


@pytest.mark.parametrize("source", [
    *(corpus_text(name) for name in CORPUS_FILES),
    *(source for source, _ in LITERAL_MODULES.values()),
], ids=[*CORPUS_FILES, *LITERAL_MODULES])
def test_clause_leaves_partition_the_inputs_by_first_match(source):
    env = env_of(source)
    assert sum(check_leaves_partition(env, fi) for fi in env.funs.values()) > 0


# ---------------------------------------------------------------- termination

def test_length_structural(list_env):
    fi = list_env.funs["length"]
    ev = check_termination(fi, list_env, lambda: clause_contexts(fi, list_env))
    assert ev == TerminationEvidence("structural", (0,))


def test_exec_structural():
    env = env_of(corpus_text("section5.eq"))
    fi = env.funs["exec"]
    ev = check_termination(fi, env, lambda: clause_contexts(fi, env))
    assert isinstance(ev, TerminationEvidence) and ev.kind == "structural"
    assert ev.positions == (0,)


def test_involution_semantic_metric():
    env = env_of(corpus_text("section2.eq"))
    fi = env.funs["involutionP"]
    ev = check_termination(fi, env, lambda: clause_contexts(fi, env))
    assert isinstance(ev, TerminationEvidence)
    assert ev.kind == "semantic" and not ev.guessed
    assert len(ev.metric) == 1


def test_loop_rejected():
    env = env_of("loop : xs:(List a) -> List a\nloop xs = loop xs\n")
    fi = env.funs["loop"]
    assert isinstance(check_termination(fi, env, lambda: clause_contexts(fi, env)),
                      NonTermination)


def test_metric_guess_used_when_structure_fails():
    # recursion on a reversed tail is not structural, but length shrinks
    src = LIST_BASICS + """\

churn : xs:(List a) -> Int
churn [] = 0
churn (_:xs) = churn (reverse xs)
"""
    env = env_of(src)
    fi = env.funs["churn"]
    ev = check_termination(fi, env, lambda: clause_contexts(fi, env))
    assert isinstance(ev, NonTermination) or (ev.kind == "semantic" and ev.guessed)


def test_guess_on_int_argument():
    src = """\
count : n:{k:Int | 0 <= k} -> m:Int -> Int
count 0 m = m
count n m = count (n - 1) (m + 1)
"""
    env = env_of(src)
    fi = env.funs["count"]
    ev = check_termination(fi, env, lambda: clause_contexts(fi, env))
    assert isinstance(ev, TerminationEvidence) and ev.kind == "semantic" and ev.guessed


def test_nonrecursive_trivially_terminates(list_env):
    fi = list_env.funs["length"]
    ev = check_termination(fi, list_env, lambda: clause_contexts(fi, list_env))
    assert isinstance(ev, TerminationEvidence)


def test_lexicographic_second_position():
    src = """\
data Nat = Z | S Nat

ack : m:Nat -> n:Nat -> Nat
ack Z n = S n
ack (S m) Z = ack m (S Z)
ack (S m) (S n) = ack m (ack (S m) n)
"""
    env = env_of(src)
    fi = env.funs["ack"]
    ev = check_termination(fi, env, lambda: clause_contexts(fi, env))
    assert isinstance(ev, TerminationEvidence) and ev.kind == "structural"
    assert ev.positions == (0, 1)


def test_structural_terminates_under_fuel():
    # structural evidence implies bounded unfolding on small inputs
    env = env_of(corpus_text("section2.eq"))
    for fname in ["length", "append", "reverse"]:
        fi = env.funs[fname]
        ev = check_termination(fi, env, lambda: clause_contexts(fi, env))
        assert isinstance(ev, TerminationEvidence)
    lists = enumerate_values(env, SortData("List", (INT,)), 6, ints=(0, 1))
    for v in lists:
        evaluate(env, App("reverse", (value_to_term(v),)), Fuel(10_000))
        evaluate(env, App("length", (value_to_term(v),)), Fuel(10_000))


def test_mutual_recursion_reported():
    src = """\
f : n:Int -> Int
f n = g n

g : n:Int -> Int
g n = f n
"""
    env = env_of(src)
    assert call_graph_cycles(env) == [["f", "g"]]


def test_call_cycles_and_their_callers():
    src = """\
f : n:Int -> Int
f n = g n

g : n:Int -> Int
g n = h n

h : n:Int -> Int
h n = f n

k : n:Int -> Int
k n = f n

a : n:Int -> Int
a n = b n

b : n:Int -> Int
b n = a n
"""
    assert call_graph_cycles(env_of(src)) == [["a", "b"], ["f", "g", "h"]]
    verdicts = {v.decl: (v.kind, v.status) for v in check_module(src).verdicts}
    assert verdicts == {
        **{name: ("termination", "failed") for name in "fghab"},
        "k": ("blocked", "failed"),
    }

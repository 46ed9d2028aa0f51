"""Totality, clause leaves and termination.

Run as a script, the file sweeps N seeded random pattern matrices
(`oracles.random_pattern_module`, at most two arguments): on every
enumerated input, the clause leaves partition the inputs by first match,
and MatchFailure is raised exactly where a totality witness matches.  It
exits 1 at the first module that breaks either:

    PYTHONPATH=src python tests/test_wf.py [--modules N] [--seed S]
"""

import argparse
import random
from collections import Counter

import pytest

from eqcheck import wf
from eqcheck.checker import check_module
from eqcheck.semantics import Fuel, enumerate_values, evaluate, value_to_term
from eqcheck.syntax import App, BoolLit, IntLit, pretty_pred
from eqcheck.wf import (
    NonTermination, TerminationEvidence, call_graph_cycles,
    check_termination, check_totality, clause_contexts, clause_leaves, missing_pattern_text,
)
from eqcheck.types import INT, SortData

from conftest import LIST_BASICS, corpus_text, env_of
from oracles import check_leaves_partition, check_totality_witnesses, random_pattern_module

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
    assert check_totality_witnesses(env, env.funs["weird"], size=5) > 0


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


def random_matrix_sweep(modules: int, seed: int = 0) -> Counter:
    """Check the leaves and the totality witnesses of `modules` seeded random
    modules on every input of size at most 2 with ints {0, 1, 2}; count the
    inputs and the leaves, and those leaves with bindings or exclusions."""
    rng = random.Random(seed)
    counts: Counter = Counter()
    for m in range(modules):
        source = random_pattern_module(rng, max_arity=2)
        env = env_of(source)
        fi = env.funs["f"]
        try:
            counts["inputs"] += check_leaves_partition(env, fi, size=2)
            check_totality_witnesses(env, fi, size=2)
        except AssertionError as e:
            raise AssertionError(f"module {m} of seed {seed}:\n{source}") from e
        leaves = [leaf for ci in range(len(fi.clauses)) for leaf in clause_leaves(fi, ci, env)]
        counts["leaves"] += len(leaves)
        counts["with bindings"] += sum(bool(leaf.var_bindings) for leaf in leaves)
        counts["with exclusions"] += sum(bool(leaf.excluded_ints) for leaf in leaves)
    return counts


def test_random_pattern_matrices_partition_and_witness_inputs():
    counts = random_matrix_sweep(280)
    assert counts["leaves"] >= 600, counts
    assert counts["with bindings"] >= 150 and counts["with exclusions"] >= 75, counts


def matrix_probe(n: int) -> str:
    """`f` of n arguments of `data T = A | B | C`: clause i names A at
    position i and has wildcards elsewhere, and a last clause binds only
    variables.  Clause i has 2^i leaves and the last one 2^n."""
    lines = ["data T = A | B | C", "",
             "f : " + " -> ".join(f"x{i}:T" for i in range(n)) + " -> {v:Int | 0 <= v}"]
    lines += ["f " + " ".join("A" if j == i else "_" for j in range(n)) + " = 0"
              for i in range(n)]
    lines.append("f " + " ".join(f"y{j}" for j in range(n)) + " = 0")
    return "\n".join(lines) + "\n"


def counting(monkeypatch, name: str) -> Counter:
    """Count the calls of `wf.<name>`, recursive ones included."""
    calls: Counter = Counter()
    real = getattr(wf, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(wf, name, counted)
    return calls


@pytest.mark.parametrize("n", [4, 8])
def test_pattern_matrix_work_stops_at_a_row_of_wildcards(n, monkeypatch):
    # a row of wildcards leaves no input uncovered, so nothing under it is
    # explored: totality takes one call whatever n is (walking every
    # constructor branch under it takes 9841 at n = 8), and the leaves of
    # all clauses at most 3 calls per leaf
    env = env_of(matrix_probe(n))
    fi = env.funs["f"]
    calls = counting(monkeypatch, "uncovered")
    assert check_totality(fi, env) == []
    assert calls["uncovered"] == 1
    calls.clear()
    leaves = sum(len(clause_leaves(fi, ci, env)) for ci in range(len(fi.clauses)))
    assert leaves == 2 ** (n + 1) - 1
    assert calls["uncovered"] <= 3 * leaves


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


# the first argument is passed through unchanged at one call and shrinks at
# the other; the second shrinks where the first is passed through
LITERAL_PASS_THROUGH = """\
h : xs:(List Int) -> ys:(List Int) -> Int
h [] ys = 0
h (1 : xs) [] = 0
h (1 : xs) (y : ys) = h (1 : xs) ys
h (x : xs) ys = h xs (0 : ys)
"""

BOOL_PASS_THROUGH = """\
h : xs:(List Bool) -> ys:(List Int) -> Int
h [] ys = 0
h (true : xs) [] = 0
h (true : xs) (y : ys) = h (true : xs) ys
h (false : xs) ys = h xs (0 : ys)
"""


@pytest.mark.parametrize("source", [LITERAL_PASS_THROUGH, BOOL_PASS_THROUGH],
                         ids=["int", "bool"])
def test_literal_passed_through_unchanged_is_structural(source):
    env = env_of(source)
    fi = env.funs["h"]
    ev = check_termination(fi, env, lambda: clause_contexts(fi, env))
    assert ev == TerminationEvidence("structural", (0, 1))


def test_literal_pattern_equals_only_its_own_kind_of_literal():
    # Python's True == 1 must not make a Bool pattern equal an Int argument
    assert BoolLit(True) == BoolLit(True)
    assert BoolLit(True) != IntLit(1)
    assert IntLit(1) != BoolLit(True)
    assert IntLit(0) != BoolLit(False)


def shrink_each_alone(n: int) -> str:
    """`g` over n lists, whose one clause calls `g` once per argument with
    only that argument shrunk, and once with every argument unchanged: no
    ordering exists."""
    calls = ["g " + " ".join(f"t{j}" if j == i else f"(h{j} : t{j})" for j in range(n))
             for i in range(n + 1)]
    return ("g : " + " -> ".join(f"x{i}:(List Int)" for i in range(n)) + " -> Int\n"
            + "g " + " ".join(f"(h{i} : t{i})" for i in range(n)) + " = "
            + " + ".join(calls) + "\n")


def test_structural_search_never_backtracks(monkeypatch):
    # a search that backtracks tries the eligible positions in every order
    # before giving up: 109,600 sub-pattern tests at n = 8
    env = env_of(shrink_each_alone(8))
    fi = env.funs["g"]
    calls = counting(monkeypatch, "pattern_vars")
    assert wf._structural(fi, wf._self_calls(fi)) is None
    assert calls["pattern_vars"] <= 8


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


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Sweep seeded random pattern matrices.")
    ap.add_argument("--modules", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print(dict(random_matrix_sweep(args.modules, args.seed)))

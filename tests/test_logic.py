import collections
import copy
import gc
import itertools
import random
import sys
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from eqcheck import logic
from eqcheck.checker import check_module
from eqcheck.logic import (
    DEFAULT_PLE_FUEL, SolverState, _Lia, _reduced, assert_fact, entails, holds,
    instantiate_axioms, ple_saturate,
)
from eqcheck.syntax import IntLit, PAtom, PrimOp, Var, pred_terms, subterms
from eqcheck.types import INT, SortData, SortVar

from conftest import CORPUS, env_of, pred, term
from oracles import (
    SOUNDNESS_SRC, UNINTERPRETED_SRC, ScanLia, atom_truth, check_graph_against_oracle,
    compound_soundness_trial, interned_node, random_atom, random_valuation,
    record_states, scan_reduced, soundness_trial,
)

A = SortVar("a")
LA = SortData("List", (A,))


def fresh(list_env, ple=False, **var_sorts):
    return SolverState(list_env, var_sorts=var_sorts, ple=ple)


def test_congruence_axiom(list_env):
    st = fresh(list_env, a=LA, b=LA, c=LA)
    assert_fact(st, pred("a == b"))
    assert_fact(st, pred("reverse a == c"))
    fb = st.intern_term(term("reverse b"))
    c = st.intern_term(term("c"))
    assert st.find(fb) == st.find(c)


def test_constructor_disjointness(list_env):
    st = fresh(list_env, x=A, xs=LA)
    assert_fact(st, pred("[] == x : xs"))
    assert st.contradiction


def test_constructor_injectivity(list_env):
    st = fresh(list_env, x=A, xs=LA, y=A, ys=LA)
    assert_fact(st, pred("x : xs == y : ys"))
    assert st.find(st.intern_term(term("x"))) == st.find(st.intern_term(term("y")))
    assert st.find(st.intern_term(term("xs"))) == st.find(st.intern_term(term("ys")))


def test_distinct_literals_clash(list_env):
    st = fresh(list_env, n=INT)
    assert_fact(st, pred("n == 1"))
    assert_fact(st, pred("n == 2"))
    assert st.contradiction


def test_lia_entailment(list_env):
    st = fresh(list_env, v=INT, vp=INT)
    assert entails(st, [pred("0 <= vp"), pred("v == 1 + vp")], pred("0 <= v"))


def test_lia_diseq_sharpening(list_env):
    st = fresh(list_env, n=INT)
    assert entails(st, [pred("0 <= n"), pred("n /= 0")], pred("1 <= n"))


def test_singleton_equations_close_goal(list_env):
    st = fresh(list_env, x=A)
    facts = [pred("reverse [x] == append (reverse []) [x]"),
             pred("reverse [] == []"),
             pred("append [] [x] == [x]")]
    assert entails(st, facts, pred("reverse [x] == [x]"))


def test_opaque_constants_not_equal(list_env):
    st = fresh(list_env, x=A, y=A)
    assert not entails(st, [], pred("x == y"))


def test_measure_instantiation_on_literal_list(list_env):
    st = fresh(list_env)
    st.intern_term(term("length (1 : [])"), active=True)
    instantiate_axioms(st)
    assert st.stats["measure"] == 2  # length (1:[]) and length []
    assert entails(st, [], pred("length (1 : []) == 1"))


def test_no_unfolding_without_constructor(list_env):
    st = fresh(list_env, xs=LA)
    st.intern_term(term("reverse xs"), active=True)
    instantiate_axioms(st)
    assert st.stats["reflect"] == 0


def test_singletonp_reflects_exactly_three_equations(list_env):
    st = fresh(list_env, x=A)
    for s in ["reverse [x]", "append (reverse []) [x]", "append [] [x]", "[x]"]:
        st.intern_term(term(s), active=True)
    assert entails(st, [], pred("reverse [x] == [x]"))
    assert st.stats["reflect"] == 3


def test_reflect_ledger_bounded(list_env):
    # non-PLE reflection fires at most once per present application node
    st = fresh(list_env, x=A)
    terms = ["reverse [x]", "append (reverse []) [x]", "append [] [x]", "[x]"]
    apps = set()
    for s in terms:
        nid = st.intern_term(term(s), active=True)
    n_apps = sum(1 for n in st.nodes if n.kind == "app")
    instantiate_axioms(st)
    assert st.stats["reflect"] <= n_apps


def test_measure_unfolds_at_fact_constructor(list_env):
    st = fresh(list_env, xs=LA, y=A, ys=LA)
    assert entails(st, [pred("xs == y : ys")], pred("length xs == 1 + length ys"))
    assert (st.stats["measure"], st.stats["reflect"]) == (1, 0)


def _append_singleton_state(list_env):
    st = fresh(list_env, x=A)
    st.intern_term(term("append [x] []"), active=True)
    return st


def test_measure_unfolds_at_constructor_made_by_reflect(list_env):
    st = _append_singleton_state(list_env)
    goal = pred("length (append [x] []) == 1 + length (append [] [])")
    assert entails(st, [], goal)
    assert (st.stats["reflect"], st.stats["measure"]) == (1, 3)


TREE_SRC = """\
data Tree a = Leaf | Node (Tree a) a (Tree a)

measure size
size : t:(Tree a) -> {v:Int | 0 <= v}
size Leaf = 0
size (Node l x r) = 1 + size l + size r

measure leaves
leaves : t:(Tree a) -> {v:Int | 1 <= v}
leaves Leaf = 1
leaves (Node l x r) = leaves l + leaves r

measure isLeaf
isLeaf : t:(Tree a) -> Bool
isLeaf Leaf = true
isLeaf (Node l x r) = false

reflect mirror
mirror : t:(Tree a) -> Tree a
mirror Leaf = Leaf
mirror (Node l x r) = Node (mirror r) x (mirror l)
"""

# each constructor class unfolds every measure of its data type once
_TREE_CASES = {
    "fact": (["t == Node l 1 r"], (), ["size t == 1 + size l + size r",
                                       "leaves t == leaves l + leaves r",
                                       "isLeaf t == false"], 1),
    "goal": ([], (), ["size (Node Leaf 1 Leaf) == 1", "leaves (Node Leaf 1 Leaf) == 2",
                      "isLeaf Leaf == true"], 2),
    # the unfolding makes Node (mirror l) 1 (mirror Leaf), a third class
    "reflect": ([], ("mirror (Node Leaf 1 l)",),
                ["size (mirror (Node Leaf 1 l)) == 1 + size (mirror l) + size (mirror Leaf)",
                 "leaves (mirror (Node Leaf 1 l)) == leaves (mirror l) + leaves (mirror Leaf)",
                 "isLeaf (mirror (Node Leaf 1 l)) == false"], 3),
}


@pytest.mark.parametrize("case", list(_TREE_CASES))
def test_every_measure_of_a_data_type_unfolds_once_per_constructor_class(case):
    facts, written, goals, classes = _TREE_CASES[case]
    env = env_of(TREE_SRC)
    tree = SortData("Tree", (INT,))
    st = SolverState(env, var_sorts={"t": tree, "l": tree, "r": tree})
    for s in written:
        st.intern_term(term(s), active=True)
    goal = pred(" && ".join(goals))
    assert entails(st, [pred(f) for f in facts], goal)
    assert st.stats["measure"] == 3 * classes
    assert not entails(SolverState(env), [], pred("size (Node Leaf 1 Leaf) == 2"))


def test_derived_application_stays_folded_outside_ple(list_env):
    st = _append_singleton_state(list_env)
    assert not entails(st, [], pred("length (append [x] []) == 1"))


def test_unfolding_leaves_no_reference_cycle(list_env):
    # a state must be freed by reference counting, without the cycle collector
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        st = fresh(list_env, x=A)
        st.intern_term(term("reverse [x]"), active=True)
        assert entails(st, [], pred("reverse [x] == append (reverse []) [x]"))
        assert st.stats["reflect"] == 1
        ref = weakref.ref(st)
        del st
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_ple_closes_right_identity_base(list_env):
    st = fresh(list_env, ple=True, xs=LA)
    assert entails(st, [pred("xs == []")], pred("append xs [] == xs"))


def test_non_ple_does_not_unfold_goal(list_env):
    st = fresh(list_env, xs=LA)
    assert not entails(st, [pred("xs == []")], pred("append xs [] == xs"))


def test_ple_closes_assoc_inductive_step(list_env):
    st = fresh(list_env, ple=True, xs0=LA, w=A, xs=LA, ys=LA, zs=LA)
    ih = pred("append xs (append ys zs) == append (append xs ys) zs")
    goal = pred("append xs0 (append ys zs) == append (append xs0 ys) zs")
    assert entails(st, [pred("xs0 == w : xs"), ih], goal)


def test_ple_fuel_zero_is_identity(list_env):
    # fuel 0 is zero rounds: nothing unfolds, and the state says it ran out
    st = SolverState(list_env, var_sorts={}, ple=True, ple_fuel=0)
    st.intern_term(term("append [] []"), active=True)
    before = len(st.nodes)
    ple_saturate(st)
    assert len(st.nodes) == before and st.stats["reflect"] == 0
    assert st.fuel_exhausted


def test_ple_fuel_exhaustion_flag(list_env):
    st = SolverState(list_env, var_sorts={}, ple=True, ple_fuel=1)
    st.intern_term(term("reverse [1, 2, 3, 4]"), active=True)
    ple_saturate(st)
    assert st.fuel_exhausted


# (reflect, measure, nodes, fuel_exhausted) of `reverse [1, 2, 3, 4, 5, 6]`
# saturated under PLE with fuel 1..8.  A round unfolds only the applications
# made before it began, so each unit of fuel is one round; a round that also
# unfolded its own new applications gave (2, 8, 36, True) at fuel 1.
_REVERSE_BY_FUEL = [
    (1, 7, 32, True), (2, 8, 36, True), (3, 9, 40, True), (4, 10, 44, True),
    (5, 11, 48, True), (6, 12, 50, True), (8, 12, 50, True), (9, 12, 53, True),
]


def test_ple_fuel_counts_rounds(list_env):
    seen = []
    for fuel in range(1, len(_REVERSE_BY_FUEL) + 1):
        st = SolverState(list_env, var_sorts={}, ple=True, ple_fuel=fuel)
        st.intern_term(term("reverse [1, 2, 3, 4, 5, 6]"), active=True)
        ple_saturate(st)
        seen.append((st.stats["reflect"], st.stats["measure"], len(st.nodes),
                     st.fuel_exhausted))
    assert seen == _REVERSE_BY_FUEL


def test_continued_state_revisits_no_unfolded_application(list_env, monkeypatch):
    # an application that `_unfold` reports finished never unfolds again, so
    # saturating a continued state does not look at it
    st = fresh(list_env, ple=True, xs=LA)
    goal = pred("reverse [1, 2, 3] == [3, 2, 1]")
    finished, visited = set(), []
    real_unfold = logic._unfold

    def unfold(state, nid):
        visited.append(nid)
        done = real_unfold(state, nid)
        if done:
            finished.add(nid)
        return done
    monkeypatch.setattr(logic, "_unfold", unfold)
    assert entails(st, [pred("xs == append [1] [2]")], goal)
    assert finished
    del visited[:]
    assert entails(st, [], goal)
    assert finished.isdisjoint(visited)


@pytest.mark.parametrize("fuel", [1, DEFAULT_PLE_FUEL], ids=["exhausted", "fixpoint"])
def test_holds_never_proves_false_on_a_consistent_state(list_env, fuel):
    st = SolverState(list_env, var_sorts={}, ple=True, ple_fuel=fuel)
    st.intern_term(term("reverse [1, 2, 3, 4]"), active=True)
    assert not entails(st, [], pred("false"))
    assert not st.contradiction
    assert st.fuel_exhausted == (fuel == 1)
    assert not holds(st, pred("false"))


@pytest.mark.parametrize("fuel", [0, 1, DEFAULT_PLE_FUEL])
def test_every_saturation_exit_checks_the_facts(list_env, fuel):
    # `entails` checks the facts only where saturation ends: at the fixpoint,
    # and at the fuel limit, which fuel 0 reaches before any round.  Without
    # the check at the fuel limit, fuel 0 answered not entailed here.
    st = SolverState(list_env, var_sorts={"x": INT, "xs": LA, "ys": LA},
                     ple=True, ple_fuel=fuel)
    assert entails(st, [pred("0 <= x"), pred("x + 1 <= 0")], pred("xs == ys"))
    assert st.contradiction and not st.fuel_exhausted


SELF_DISEQUALITY = """\
f : x:{v:Int | v + 1 /= 1 + v} -> {v:Int | v == 7}
f x = 0
"""


def test_self_disequality_is_a_contradiction(list_env):
    # `x + 1` and `1 + x` are two classes of one linear form, so only the
    # arithmetic store sees that the fact is false
    st = fresh(list_env, x=INT, xs=LA, ys=LA)
    assert entails(st, [pred("x + 1 /= 1 + x")], pred("xs == ys"))
    assert st.contradiction


def test_self_disequality_refinement_proves_any_result():
    report = check_module(SELF_DISEQUALITY, file="selfdiseq.eq")
    assert report.verdicts and all(v.proved for v in report.verdicts)


def test_product_of_two_variables_is_opaque(list_env):
    # sorts reject `x * y`, so only the solver API makes one: its linear form
    # is a variable of its own, neither operand's
    product = PrimOp("*", Var("x"), Var("y"))
    st = fresh(list_env, x=INT, y=INT)
    assert not entails(st, [pred("x == 1")], PAtom("==", product, IntLit(1)))
    three = PAtom("==", product, IntLit(3))
    st = fresh(list_env, x=INT, y=INT)
    assert entails(st, [three], three)
    assert not st.contradiction


def test_pinch_feeds_congruence(list_env):
    st = fresh(list_env, x=INT, y=INT)
    st.intern_term(term("[x]"), active=True)
    st.intern_term(term("[y]"), active=True)
    assert entails(st, [pred("x <= y"), pred("y <= x")], pred("[x] == [y]"))


# Two gaps in the implied equalities `_pinch` finds.  ROADMAP item 1 may flip
# these answers, and only from not entailed to entailed.

def test_equality_only_store_does_not_pinch(list_env):
    def ask(facts):
        st = fresh(list_env, x=INT, y=INT)
        st.intern_term(term("[x]"), active=True)
        st.intern_term(term("[y]"), active=True)
        return entails(st, [pred(f) for f in facts], pred("[x] == [y]"))
    assert not ask(["x + 1 == y + 1"])
    assert ask(["x + 1 == y + 1", "0 <= x"])


ISZ_SRC = """\
reflect isz

isz : n:Int -> Int
isz 0 = 1
isz n = 2
"""


@pytest.mark.parametrize("ple", [False, True], ids=["no-ple", "ple"])
def test_bounds_pinning_a_literal_do_not_tag_its_class(ple):
    env = env_of(ISZ_SRC)

    def ask(facts):
        st = SolverState(env, var_sorts={"n": INT}, ple=ple)
        st.intern_term(term("isz n"), active=True)
        return entails(st, [pred(f) for f in facts], pred("isz n == 1"))
    assert not ask(["0 <= n", "n <= 0"])
    assert ask(["n == 0"])


def test_pinch_has_no_representative_cap(list_env):
    # x1 <= x2 <= ... <= x13 <= x1 forces all thirteen classes equal
    n = 13
    st = fresh(list_env, **{f"x{i}": INT for i in range(1, n + 1)})
    for i in range(1, n + 1):
        st.intern_term(term(f"[x{i}]"), active=True)
    facts = [pred(f"x{i} <= x{i % n + 1}") for i in range(1, n + 1)]
    assert entails(st, facts, pred(f"[x1] == [x{n}]"))


@pytest.mark.parametrize("ple", [False, True], ids=["no-ple", "ple"])
def test_saturating_a_saturated_state_changes_nothing(list_env, ple):
    # `_pinch` keeps no record of the state it last saw: on a state that
    # `entails` saturated, saturating again finds every group merged
    st = SolverState(list_env, var_sorts={"x": INT, "y": INT, "z": INT}, ple=ple)
    for s in ("[x]", "[y]", "[z]"):
        st.intern_term(term(s), active=True)
    assert entails(st, [pred("x <= y"), pred("y <= x"), pred("y <= z")], pred("[x] == [y]"))
    before = _snapshot(st)
    instantiate_axioms(st)
    ple_saturate(st)
    assert _snapshot(st) == before


def test_tag_survives_when_its_class_is_absorbed(list_env):
    # the tagged class has the shorter use list and is absorbed; the witness
    # must move
    st = fresh(list_env, u1=LA, u2=LA)
    st.intern_term(term("append u1 u2"), active=True)
    assert_fact(st, pred("u1 == u2"))  # an untagged class with two uses
    assert_fact(st, pred("[] == u1"))
    nil = st.intern_term(term("[]"))
    assert st.tag.get(st.find(nil)) is not None
    assert entails(st, [], pred("append u1 u2 == u2"))


@pytest.mark.parametrize("facts", [
    ["[] == x : xs"],
    ["n == 1", "n == 2"],
    ["xs /= ys", "xs == ys"],
    ["false"],
    ["n <= 0", "1 <= n"],
], ids=["constructors", "literals", "merged-diseq", "false", "infeasible-lia"])
def test_contradictory_facts_entail_anything(list_env, facts):
    st = fresh(list_env, x=A, xs=LA, ys=LA, n=INT)
    assert entails(st, [pred(f) for f in facts], pred("1 <= 0"))
    assert st.contradiction


def test_dropped_disjunction_is_sound(list_env):
    from eqcheck.syntax import POr
    st = fresh(list_env, n=INT)
    disj = POr((pred("n == 1"), pred("n == 2")))
    assert not entails(st, [disj], pred("1 <= n"))


# ------------------------------------------------------- oracle comparisons

def test_congruence_matches_naive_oracle_smoke():
    env = env_of(UNINTERPRETED_SRC)
    rng = random.Random(7)
    for _ in range(60):
        check_graph_against_oracle(env, rng)


def test_soundness_smoke():
    env = env_of(SOUNDNESS_SRC)
    rng = random.Random(11)
    unsound = 0
    for i in range(500):
        entailed, true = soundness_trial(env, rng, ple=(i % 4 == 0))
        if entailed and not true:
            unsound += 1
    assert unsound == 0


def test_compound_predicate_soundness():
    # facts and goals under `not`, `&&` and `||`; truth comes from the atoms
    env = env_of(SOUNDNESS_SRC)
    rng = random.Random(3)
    entailed_count = unsound = 0
    for i in range(400):
        entailed, true = compound_soundness_trial(env, rng, ple=(i % 4 == 0))
        entailed_count += entailed
        unsound += entailed and not true
    assert unsound == 0
    assert entailed_count >= 20


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_entailment_monotonic(seed):
    env = env_of(SOUNDNESS_SRC)
    rng = random.Random(seed)
    valuation = random_valuation(rng)
    facts = [a for a in (random_atom(rng) for _ in range(8))
             if atom_truth(env, a, valuation)]
    goal = random_atom(rng)
    base, extended = facts[: len(facts) // 2], facts
    var_sorts = {"xs": SortData("List", (INT,)), "ys": SortData("List", (INT,)),
                 "n": INT, "m": INT}
    st1 = SolverState(env, var_sorts=var_sorts)
    st2 = SolverState(env, var_sorts=var_sorts)
    if entails(st1, base, goal):
        assert entails(st2, extended, goal)


def _snapshot(st):
    """Everything a query could change in a state, by value."""
    lia = st.lia
    return copy.deepcopy((
        len(st.nodes), st.intern_table, [st.find(i) for i in range(len(st.nodes))],
        st.tag, st.active, st.todo, st.reflect_done_keys, st.stats, st.contradiction,
        lia.has_bound, lia.diseqs, lia.pivots, lia.ineqs, lia.consistent,
        lia._feasible_cache,
    ))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_holds_only_reads_a_saturated_state(seed, ple):
    # one saturated state answers many goals only if asking changes nothing
    env = env_of(SOUNDNESS_SRC)
    rng = random.Random(seed)
    valuation = random_valuation(rng)
    facts = [a for a in (random_atom(rng) for _ in range(6))
             if atom_truth(env, a, valuation)]
    var_sorts = {"xs": SortData("List", (INT,)), "ys": SortData("List", (INT,)),
                 "n": INT, "m": INT}
    state = SolverState(env, var_sorts=var_sorts, ple=ple, ple_fuel=20)
    for f in facts:
        for t in pred_terms(f):
            state.intern_term(t, active=True)
    first = random_atom(rng)
    entailed = entails(state, facts, first)
    # random goals whose terms are interned, and atoms over interned terms,
    # where arithmetic equalities that congruence has not merged turn up
    goals = [first] + [g for g in (random_atom(rng) for _ in range(20))
                       if all(interned_node(state, t) is not None for t in pred_terms(g))]
    terms = list(dict.fromkeys(s for p in (*facts, first) for t in pred_terms(p)
                               for s in subterms(t)))
    for _ in range(20):
        a, b = rng.choice(terms), rng.choice(terms)
        is_int = state.nodes[interned_node(state, a)].is_int
        if is_int == state.nodes[interned_node(state, b)].is_int:
            goals.append(PAtom(rng.choice(("==", "/=", "<=", "<") if is_int
                                          else ("==", "/=")), a, b))
    before = _snapshot(state)
    for goal in goals:
        answers = [holds(state, goal), holds(state, goal)]
        assert _snapshot(state) == before, goal
        assert answers[0] == answers[1]
    assert holds(state, first) == entailed


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_entails_continues_a_saturated_state(seed):
    # a kept state may be extended by entails with further facts F' after
    # deciding a goal from facts F: its answer stays sound, and it entails
    # every goal that a fresh state of F and F' entails
    env = env_of(SOUNDNESS_SRC)
    rng = random.Random(seed)
    ple = rng.random() < 0.25
    valuation = random_valuation(rng)
    facts = [a for a in (random_atom(rng) for _ in range(8))
             if atom_truth(env, a, valuation)]
    cut = rng.randrange(len(facts) + 1)
    first, goal = random_atom(rng), random_atom(rng)
    var_sorts = {"xs": SortData("List", (INT,)), "ys": SortData("List", (INT,)),
                 "n": INT, "m": INT}

    def scoped():
        state = SolverState(env, var_sorts=var_sorts, ple=ple, ple_fuel=20)
        for f in facts:
            for t in pred_terms(f):
                state.intern_term(t, active=True)
        return state

    continued = scoped()
    entails(continued, facts[:cut], first)
    entailed = entails(continued, facts[cut:], goal)
    assert not entailed or atom_truth(env, goal, valuation)
    if entails(scoped(), facts, goal):
        assert entailed


# ------------------------------------------------------- intern memo
# `intern_term` memoises each term object's node; these check that the memo
# changes nothing a walk would have built.

def _graph(st):
    return ([(n.kind, n.head, n.args, n.is_int) for n in st.nodes],
            st.intern_table, st.active, [st.find(i) for i in range(len(st.nodes))])


class _NoMemo(dict):
    """A memo that never stores, so every intern_term call walks."""

    def __setitem__(self, key, value):
        pass


def test_equal_copy_of_interned_term_gets_its_node(list_env):
    st = fresh(list_env, xs=LA, x=A)
    nid = st.intern_term(term("append (reverse xs) [x]"), active=True)
    size = len(st.nodes)
    assert st.intern_term(term("append (reverse xs) [x]")) == nid
    assert st.intern_term(term("append (reverse xs) [x]"), active=True) == nid
    assert len(st.nodes) == size


def test_congruent_term_interns_to_the_node_it_is_congruent_to(list_env):
    # terms are interned up to congruence: once x == y, `reverse y` is the
    # node of `reverse x`, and looking it up makes no node and no merge
    st = fresh(list_env, x=LA, y=LA)
    fx = st.intern_term(term("reverse x"))
    assert_fact(st, pred("x == y"))
    size, merges = len(st.nodes), st.stats["merges"]
    assert st.intern_term(term("reverse y")) == fx
    assert (len(st.nodes), st.stats["merges"]) == (size, merges)


def test_active_intern_after_inactive_marks_applications(list_env):
    t = term("append (reverse xs) (reverse [x])")
    st = fresh(list_env, xs=LA, x=A)
    st.intern_term(t)
    assert not st.active
    st.intern_term(t, active=True)
    first_active = fresh(list_env, xs=LA, x=A)
    first_active.intern_term(t, active=True)
    first_active.intern_term(t)
    assert _graph(st) == _graph(first_active)
    assert len(st.active) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_intern_memo_builds_what_walks_build(seed):
    # fact lists that reuse term objects, interned active or not and then
    # asserted, build the same state with the memo as with every call walking
    env = env_of(SOUNDNESS_SRC)
    rng = random.Random(seed)
    var_sorts = {"xs": SortData("List", (INT,)), "ys": SortData("List", (INT,)),
                 "n": INT, "m": INT}
    scratch = SolverState(env, var_sorts=var_sorts)
    atoms = [random_atom(rng) for _ in range(6)]
    pool = [s for a in atoms for t in pred_terms(a) for s in subterms(t)]
    for _ in range(6):
        a, b = rng.choice(pool), rng.choice(pool)
        if (scratch.nodes[scratch.intern_term(a)].is_int
                == scratch.nodes[scratch.intern_term(b)].is_int):
            atoms.append(PAtom(rng.choice(("==", "/=")), a, b))
    plan = [(fact, [rng.random() < 0.5 for _ in pred_terms(fact)])
            for fact in rng.sample(atoms, len(atoms)) * 2]
    memo = SolverState(env, var_sorts=var_sorts)
    walk = SolverState(env, var_sorts=var_sorts)
    walk.term_memo = _NoMemo()
    for state in (memo, walk):
        for fact, flags in plan:
            for t, active in zip(pred_terms(fact), flags):
                state.intern_term(t, active=active)
            assert_fact(state, fact)
    assert memo.term_memo and not walk.term_memo
    assert _graph(memo) == _graph(walk)
    assert (memo.stats, memo.contradiction) == (walk.stats, walk.contradiction)


# ------------------------------------------------ facts fixed when a node is made
# A `prim` node's linear form and a measure application's clause are
# computed once, not on every use.  Each is checked against the computation
# it replaces, after the seeded oracle queries of the solver goldens and
# over the corpus modules, so a reuse that goes wrong shows on the traffic
# the goldens pin.


def test_lin_is_a_lookup_at_any_depth(list_env):
    # a recursive walk of this chain overflows the stack even under the
    # CLI's 20,000-frame limit; the stored forms are built one node at a time
    st = fresh(list_env, x=INT)
    x = st._mk("var", "x", ())
    one = st._mk("int", 1, ())
    top = x
    for _ in range(25000):
        top = st._mk("prim", "+", (top, one))
    assert st.lin(top) == ({x: 1}, 25000)


def _walked_lin(st, nid):
    """A node's linear form by a walk of its subtree, as `lin` computed it
    before forms were stored."""
    node = st.nodes[nid]
    if node.kind == "int":
        return ({}, node.head)
    if node.kind != "prim":
        return ({nid: 1}, 0)
    (lc, lk), (rc, rk) = _walked_lin(st, node.args[0]), _walked_lin(st, node.args[1])
    if node.head == "*":
        if lc and rc:
            return ({nid: 1}, 0)
        (coeffs, const), k = ((rc, rk), lk) if not lc else ((lc, lk), rk)
        return ({v: c * k for v, c in coeffs.items()}, const * k)
    sign = 1 if node.head == "+" else -1
    coeffs = dict(lc)
    for v, c in rc.items():
        coeffs[v] = coeffs.get(v, 0) + sign * c
    return (coeffs, lk + sign * rk)


def _check_kept_facts(st, seen, bad):
    """Oracles (a) and (b) on one finished state: what was checked is
    counted into `seen`, each disagreement listed in `bad` by oracle."""
    for nid, node in enumerate(st.nodes):
        if node.kind == "prim":
            seen["prim"] += 1
            if st.lin(nid) != _walked_lin(st, nid):
                bad["a"].append(node)
        elif node.kind == "app" and st.env.funs[node.head].is_measure:
            fi = st.env.funs[node.head]
            dispatched = logic._measure_clause(st, fi, node.args[0])
            seen["measure" if dispatched else "measure_waiting"] += 1
            if dispatched != logic._select_clause(st, fi, node.args):
                bad["b"].append(node)


@pytest.fixture(scope="module")
def kept_facts_traffic():
    """The seeded oracle queries (`test_golden.solver_runs`), then the
    corpus modules, with every finished state checked against oracles (a)
    and (b).  Returns the counts of what was checked and the disagreements
    of each oracle."""
    seen = collections.Counter()
    bad = collections.defaultdict(list)
    env = env_of(SOUNDNESS_SRC)
    rng = random.Random(2018)
    for trial in (soundness_trial, compound_soundness_trial):
        for i in range(1500):
            states = []
            trial(env, rng, ple=(i % 4 == 0), states=states)
            [st] = states
            _check_kept_facts(st, seen, bad)
    with pytest.MonkeyPatch.context() as m:
        states = record_states(m)
        for path in sorted(CORPUS.glob("*.eq")):
            report = check_module(path.read_text(), file=path.name)
            seen["modules"] += 1
            seen["unproved"] += sum(not v.proved for v in report.verdicts)
            while states:
                _check_kept_facts(states.pop(), seen, bad)
    return seen, bad


def test_stored_linear_forms_match_a_walk(kept_facts_traffic):
    # (a): every `prim` node's stored form is the form its subtree walks to
    seen, bad = kept_facts_traffic
    assert (seen["modules"], seen["unproved"]) == (4, 0)
    assert seen["prim"] > 1000
    assert not bad["a"], bad["a"][:3]


def test_measure_dispatch_matches_clause_selection(kept_facts_traffic):
    # (b): on every measure application, the clause and binding read off its
    # argument's constructor are those `_select_clause` matches, and both
    # wait where the argument's class has no constructor
    seen, bad = kept_facts_traffic
    assert seen["measure"] > 1000 and seen["measure_waiting"] > 0
    assert not bad["b"], bad["b"][:3]


IS_NIL = """\
measure isNil
isNil : xs:(List a) -> Bool
isNil [] = true
isNil (_:_) = false

nilP : u:Int -> {v:Proof | isNil [1, 2] == false}
nilP u = ()
"""


def test_measure_of_sort_bool_makes_no_integer_node():
    # a constructor's measure applications take their sort from the measure
    with pytest.MonkeyPatch.context() as m:
        states = record_states(m)
        report = check_module(IS_NIL, file="isnil.eq")
    assert report.verdicts and all(v.proved for v in report.verdicts)
    applications = [(s, nid) for s in states for nid, node in enumerate(s.nodes)
                    if node.kind == "app" and node.head == "isNil"]
    assert len(applications) >= 3  # one per constructor of [1, 2]
    for s, nid in applications:
        assert not s.nodes[nid].is_int


# ------------------------------------------------------------- LIA store
# The store is checked against brute force over an integer box: the box holds
# only some of the integer points, so this checks soundness (an infeasible
# verdict or an entailment is never wrong), not completeness.

_BOX = range(-5, 6)


def _holds(lin, rel, point):
    coeffs, const = lin
    value = sum(c * point[v] for v, c in coeffs.items()) + const
    return {"==": value == 0, "<=": value <= 0, "<": value < 0, "/=": value != 0}[rel]


@st.composite
def _lia_problems(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    lin = st.tuples(
        st.dictionaries(st.integers(min_value=0, max_value=n - 1),
                        st.integers(min_value=-3, max_value=3), max_size=n),
        st.integers(min_value=-6, max_value=6))
    ops = draw(st.lists(st.tuples(st.sampled_from(["==", "<=", "<", "/="]), lin),
                        max_size=6))
    goal = draw(st.tuples(st.sampled_from(["==", "<=", "<"]), lin))
    return n, ops, goal


def test_gcd_tightening_rounds_bounds_to_integers():
    # 2x <= 1 and 2x >= 1 hold only at x = 1/2; 2x - 2y + 1 <= 0 holds on
    # the integers only where x - y <= -1
    lia = _Lia()
    lia.add({0: 2}, -1, "<=")
    lia.add({0: -2}, 1, "<=")
    assert not lia.feasible()
    lia = _Lia()
    lia.add({0: 2, 1: -2}, 1, "<=")
    assert lia.entails({0: 1, 1: -1}, 1, "<=")


@settings(max_examples=300, deadline=None)
@given(_lia_problems())
# 2x + 1 <= 0 and x >= -1: gcd tightening must keep the one model x = -1
@example((1, [("<=", ({0: 2}, 1)), ("<=", ({0: -1}, -1))], ("<=", ({0: 1}, 1))))
def test_lia_store_agrees_with_box_enumeration(problem):
    n, ops, (goal_rel, goal) = problem
    lia = _Lia()
    models = list(itertools.product(_BOX, repeat=n))
    for rel, (coeffs, const) in ops:
        if rel == "/=":
            lia.add_diseq(dict(coeffs), const)
        else:
            lia.add(dict(coeffs), const, rel)
        models = [p for p in models if _holds((coeffs, const), rel, p)]
        # asked after every operation, so cached verdicts are checked too
        if not lia.feasible():
            assert not models
    if lia.entails(dict(goal[0]), goal[1], goal_rel):
        assert all(_holds(goal, goal_rel, p) for p in models)
    # an equality extra, as `x /= y` goals ask it
    if not lia.feasible(((dict(goal[0]), goal[1], "=="),)):
        assert not any(_holds(goal, "==", p) for p in models)


@settings(max_examples=300, deadline=None)
@given(_lia_problems())
# x2 == x0 + 1 and x0 <= x1 <= x0 + 1 with x1 /= x0: the store forces
# x1 == x2 only through integer branching on the disequality
@example((3, [("==", ({2: 1, 0: -1}, -1)), ("<=", ({0: 1, 1: -1}, 0)),
              ("<=", ({1: 1, 0: -1}, -1)), ("/=", ({0: 1, 1: -1}, 0))], ("<=", ({}, 0))))
@example((2, [("<=", ({0: 1, 1: -1}, 0)), ("<=", ({1: 1, 0: -1}, 0))], ("<=", ({}, 0))))
def test_pinch_merges_agree_with_box_enumeration(list_env, problem):
    # every pair of classes the store is said to force equal is equal in each
    # integer model of the store in the box
    n, ops, _ = problem
    st = SolverState(list_env, var_sorts={f"x{i}": INT for i in range(n)})
    nids = [st.intern_term(term(f"x{i}")) for i in range(n)]
    for i in range(n):
        st.intern_term(term(f"[x{i}]"))
    models = list(itertools.product(_BOX, repeat=n))
    for rel, (coeffs, const) in ops:
        node_coeffs = {nids[v]: c for v, c in coeffs.items()}
        if rel == "/=":
            st.lia.add_diseq(node_coeffs, const)
        else:
            st.lia.add(node_coeffs, const, rel)
        models = [p for p in models if _holds((coeffs, const), rel, p)]
    forms = [(i, ({nids[i]: 1}, 0)) for i in range(n)]
    for group in st.lia.implied_equalities(forms):
        assert all(len({p[i] for i in group}) == 1 for p in models), group
    before = [st.find(nid) for nid in nids]
    st._pinch()
    for i, j in itertools.combinations(range(n), 2):
        if before[i] != before[j] and st.find(nids[i]) == st.find(nids[j]):
            assert all(p[i] == p[j] for p in models), (i, j)


# One store keeps its verdict and its solved form between calls; every answer
# must equal that of a fresh store given the same atoms and diseqs.
_LIN3 = st.tuples(st.dictionaries(st.integers(min_value=0, max_value=2),
                                  st.integers(min_value=-3, max_value=3), max_size=3),
                  st.integers(min_value=-4, max_value=4))
_RELS = st.sampled_from(["==", "<=", "<"])
_LIA_CALLS = st.lists(st.one_of(
    st.tuples(st.just("add"), _RELS, _LIN3),
    st.tuples(st.just("diseq"), _LIN3),
    st.just(("diseq", ({}, 0))),  # x /= x poisons the store
    st.tuples(st.just("feasible"), st.lists(st.tuples(_RELS, _LIN3), max_size=2)),
    st.tuples(st.just("entails"), _RELS, _LIN3),
), max_size=16)


def _update(lia, call):
    if call[0] == "add":
        _, rel, (coeffs, const) = call
        lia.add(dict(coeffs), const, rel)
    else:
        _, (coeffs, const) = call
        lia.add_diseq(dict(coeffs), const)


def _ask(lia, call):
    if call[0] == "feasible":
        return lia.feasible(tuple((dict(c), k, rel) for rel, (c, k) in call[1]))
    _, rel, (coeffs, const) = call
    return lia.entails(dict(coeffs), const, rel)


@settings(max_examples=300, deadline=None)
@given(_LIA_CALLS)
# an atom and a poisoning disequality arrive after the verdict was cached
@example([("add", "<=", ({0: 1}, 0)), ("feasible", []), ("add", "<", ({0: -1}, 0)),
          ("feasible", [])])
@example([("add", "<=", ({0: 1}, 0)), ("feasible", []), ("diseq", ({}, 0)),
          ("feasible", [("<=", ({0: 1}, 0))])])
# more disequalities than DISEQ_CAP, then an equality extra
@example([("add", "<=", ({0: -1}, 0)), ("add", "==", ({0: 1, 1: -1}, 0))]
         + [("diseq", ({1: 1}, -j)) for j in range(_Lia.DISEQ_CAP + 2)]
         + [("entails", "<=", ({0: -1}, 6)), ("feasible", [("==", ({1: 1}, -6))])])
# an equality extra must not leave its pivot in the store
@example([("add", "<=", ({0: 1}, 0)), ("feasible", [("==", ({0: 1, 1: -1}, 0))]),
          ("add", "<=", ({1: -1}, 1)), ("entails", "<=", ({0: 1}, 0))])
def test_lia_caches_agree_with_fresh_store(calls):
    lia, updates = _Lia(), []
    for call in calls:
        if call[0] in ("add", "diseq"):
            _update(lia, call)
            updates.append(call)
            continue
        fresh = _Lia()
        for update in updates:
            _update(fresh, update)
        assert _ask(lia, call) == _ask(fresh, call), (updates, call)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.tuples(st.just("add"), _RELS, _LIN3),
                         st.tuples(st.just("diseq"), _LIN3)), max_size=10))
# equalities alone: no row, so no FM
@example([("add", "==", ({0: 1, 1: -1}, 0)), ("add", "==", ({1: 2}, -4))])
# a disequality's branches each add a row to a pivoted, bounded store
@example([("add", "==", ({0: 1, 1: -1}, 0)), ("add", "<=", ({1: 1}, -2)),
          ("diseq", ({0: 1}, -2)), ("diseq", ({0: 1}, -1))])
def test_feasible_without_extra_agrees_with_branches_on_copies(updates):
    # `feasible()` runs the disequality branches on the store's own pivots
    # and rows; after every update it must answer as the branch search on
    # copies does, and leave the store as it was
    lia = _Lia()
    for call in updates:
        _update(lia, call)
        store = copy.deepcopy((lia.pivots, lia.ineqs, lia.diseqs))
        expected = lia.consistent and lia._feasible_branches(
            dict(lia.pivots), list(lia.ineqs), lia.diseqs[:_Lia.DISEQ_CAP])
        assert lia.feasible() == expected, updates
        assert (lia.pivots, lia.ineqs, lia.diseqs) == store


@settings(max_examples=300, deadline=None)
@given(_LIA_CALLS, st.lists(_LIN3, max_size=3))
# x0 == x1 + x2 then x1 == 2: substituting pivot x0 into a row brings in x1,
# whose pivot comes later
@example([("add", "==", ({0: 1, 1: -1, 2: -1}, 0)), ("add", "==", ({1: 1}, -2)),
          ("entails", "==", ({0: 1, 2: -1}, -2))], [({0: 1, 1: 1}, 0)])
def test_pivot_lookup_substitutes_as_the_full_scan(calls, forms):
    # looking a row's pivots up by variable performs exactly the substitutions
    # of a scan over every pivot in order: same solved form, same answers
    lia, ref = _Lia(), ScanLia()
    for call in calls:
        if call[0] in ("add", "diseq"):
            _update(lia, call)
            _update(ref, call)
        else:
            assert _ask(lia, call) == _ask(ref, call), call
        assert list(lia.pivots.values()) == list(ref.pivots.values())
        assert (lia.ineqs, lia.consistent) == (ref.ineqs, ref.consistent)
        for coeffs, const in forms:
            assert (_reduced(lia.pivots, dict(coeffs), const)
                    == scan_reduced(ref.pivots, dict(coeffs), const))


def test_pivot_does_not_depend_on_a_rows_key_order():
    # the pivot is the newest variable among those with the smallest
    # coefficient, whichever order the row lists them in
    one, other = _Lia(), _Lia()
    one.add({1: 1, 2: -1}, 0, "==")
    other.add({2: -1, 1: 1}, 0, "==")
    assert one.pivots == other.pivots
    assert list(one.pivots) == [2]


def _chain_lines(n):
    """Lines of logic.py run while a store takes n chained equalities
    x_i - x_(i+1) - 1 == 0 and is asked x_0 - x_n == n."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == logic.__file__ else None

    lia = _Lia()
    outer = sys.gettrace()
    sys.settrace(calls)
    try:
        for i in range(n):
            lia.add({i: 1, i + 1: -1}, -1, "==")
        entailed = lia.entails({0: 1, n: -1}, -n, "==")
    finally:
        sys.settrace(outer)
    assert entailed
    return count


def test_chained_equalities_cost_linear_work():
    # counted, not timed: a scan of every pivot per row made this 3.7x
    assert _chain_lines(1000) <= 2.5 * _chain_lines(500)


def test_diseq_cap_reports_true_entailment_as_not_entailed(monkeypatch):
    # 0 <= x <= k with x /= 0, ..., x /= k - 1 entails x >= k, but only by
    # branching on all k disequalities
    k = _Lia.DISEQ_CAP + 1

    def entailed():
        lia = _Lia()
        lia.add({0: -1}, 0, "<=")
        lia.add({0: 1}, -k, "<=")
        for j in range(k):
            lia.add_diseq({0: 1}, -j)
        return lia.entails({0: -1}, k, "<=")

    assert not entailed()
    monkeypatch.setattr(_Lia, "DISEQ_CAP", k)
    assert entailed()


def test_atom_cap_reports_true_entailment_as_not_entailed(monkeypatch):
    # x0 <= x1 <= x2 <= x3 entails x0 <= x3; refuting its negation leaves
    # three inequalities after the first elimination round
    def entailed():
        lia = _Lia()
        for i in range(3):
            lia.add({i: 1, i + 1: -1}, 0, "<=")
        return lia.entails({0: 1, 3: -1}, 0, "<=")

    assert entailed()
    monkeypatch.setattr(_Lia, "ATOM_CAP", 2)
    assert not entailed()


@pytest.mark.parametrize("k", [1, 10, 40])
def test_fm_runs_per_entails_do_not_grow_with_the_facts(list_env, monkeypatch, k):
    # `entails` checks the store for contradiction once, at the congruence
    # fixpoint after all its facts, and once more to decide the goal; a check
    # after each fact made k + 1
    st = fresh(list_env, **{f"x{i}": INT for i in range(k)})
    runs = []
    real_fm = _Lia._fm

    def fm(self, ineqs):
        runs.append(len(ineqs))
        return real_fm(self, ineqs)
    monkeypatch.setattr(_Lia, "_fm", fm)
    assert entails(st, [pred(f"0 <= x{i}") for i in range(k)], pred("0 <= x0 + x0"))
    assert len(runs) == 2

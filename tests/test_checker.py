import dataclasses
import re
from collections import Counter

import pytest

from eqcheck import checker, logic, wf
from eqcheck.checker import (
    CheckConfig, build_decl_obligations, check_module, discharge,
)
from eqcheck.semantics import evaluate
from eqcheck.syntax import FunDecl, PAtom, Var, Wild, pred_terms, pretty_pred, subterms
from eqcheck.parser import parse_term
from eqcheck.types import lemma_facts
from eqcheck.wf import clause_contexts

from conftest import (
    CORPUS, FILES, LIST_BASICS, UNUSED_HINT_MODULE, corpus_text, discharge_unshared, env_of, term,
)
from oracles import check_chain_coherence


def facts_text(facts):
    return {pretty_pred(f) for f in facts}


def obligations(env, decl, config=CheckConfig()):
    """The obligations of one declaration, by id."""
    fi = env.funs[decl]
    obs, _ = build_decl_obligations(fi, clause_contexts(fi, env), config)
    return {ob.oid: ob for ob in obs}


def decl_verdicts(source, decl):
    """The verdicts `check_module` gives one declaration of `source`."""
    return [v for v in check_module(source).verdicts if v.decl == decl]


# ------------------------------------------------------------ clause context

def test_append_cons_clause_context(list_env):
    facts = facts_text(obligations(list_env, "append")["append/c1/vc"].facts)
    assert "xs == x : xs'" in facts  # pattern information
    # the recursive call's refinement: the inductive hypothesis
    assert "length (append xs' ys) == length xs' + length ys" in facts


def test_involution_context_contains_ih():
    env = env_of(corpus_text("section2.eq"))
    facts = facts_text(obligations(env, "involutionP")["involutionP/c1/vc"].facts)
    assert "reverse (reverse xs') == xs'" in facts


def test_wildcard_clause_context_has_only_pattern_facts(list_env):
    env = env_of("konst : x:Int -> ys:(List a) -> {v:Int | v == 7}\nkonst _ ys = 7\n")
    facts = facts_text(obligations(env, "konst")["konst/c0/vc"].facts)
    assert facts == {"x == _w"}


def test_lemma_facts_instantiation():
    env = env_of(corpus_text("section2.eq"))
    fact = lemma_facts(env.funs["singletonP"], (parse_term("1"),))
    assert pretty_pred(fact) == "reverse (1 : []) == 1 : []"


def test_lemma_facts_assoc_instance():
    env = env_of(corpus_text("section2.eq"))
    args = tuple(term(s) for s in ["reverse ys", "reverse xs", "[x]"])
    fact = lemma_facts(env.funs["assocP"], args)
    assert pretty_pred(fact) == (
        "append (reverse ys) (append (reverse xs) (x : [])) == "
        "append (append (reverse ys) (reverse xs)) (x : [])")


def test_lemma_facts_sequence_instance():
    env = env_of(corpus_text("section5.eq"))
    args = tuple(term(s) for s in ["c", "d", "n : s"])
    fact = lemma_facts(env.funs["sequenceP"], args)
    assert pretty_pred(fact) == (
        "exec (append c d) (n : s) == bindExec (exec c (n : s)) d")


# ------------------------------------------------------- function verdicts

def test_length_both_clauses_proved():
    verdicts = decl_verdicts(LIST_BASICS, "length")
    assert [v.status for v in verdicts] == ["proved", "proved"]


@pytest.mark.parametrize("claim", [3000, 3001])
def test_long_length_literal_verdict(claim):
    # sizes past the benchmark's scale family (length n <= 500, PLE n <= 16)
    src = (LIST_BASICS + "\n"
           f"lenLit : u:Int -> {{v:Proof | length {[i % 10 for i in range(3000)]} == {claim}}}\n"
           "lenLit u = ()\n")
    failed = [v.oid for v in decl_verdicts(src, "lenLit") if not v.proved]
    assert failed == ([] if claim == 3000 else ["lenLit/c0/vc"])


@pytest.mark.parametrize("true", [True, False])
def test_long_ple_reverse_literal_verdict(true):
    xs = list(range(30))
    ys = xs[::-1]
    if not true:
        ys[7] += 30
    src = (LIST_BASICS + "\nple revLit\n"
           f"revLit : u:Int -> {{v:Proof | reverse {xs} == {ys}}}\n"
           "revLit u = ()\n")
    failed = [v.oid for v in decl_verdicts(src, "revLit") if not v.proved]
    assert failed == ([] if true else ["revLit/c0/vc"])


def test_append_refinement_proved():
    verdicts = decl_verdicts(LIST_BASICS, "append")
    assert all(v.proved for v in verdicts)


def test_append_wrong_refinement_fails():
    src = LIST_BASICS.replace("length zs == length xs + length ys",
                              "length zs == length xs")
    env = env_of(src)
    verdicts = decl_verdicts(src, "append")
    failing = [v for v in verdicts if not v.proved]
    # countermodel xs=[], ys=[0] falsifies the statement, landing in the
    # clause that handles xs=[] (the 'cons' step is inductively consistent)
    assert [v.oid for v in failing] == ["append/c0/vc"]
    cm = {"xs": ("Nil",), "ys": ("Cons", 0, ("Nil",))}
    lhs = evaluate(env, term("length (append xs ys)"), binding=dict(cm))
    rhs = evaluate(env, term("length xs"), binding=dict(cm))
    assert lhs != rhs


# ---------------------------------------------------------------- negation

NEGATION_MODULE = """\
bad : x:Int -> {v:Proof | not (x == x)}
bad x = () *** QED

f : n:{n:Int | not (n == 0)} -> {v:Int | v == 0}
f n = n

g : x:Int -> {v:Int | not (v == x)}
g x = x - 1
"""


def test_negated_refinements_are_read_soundly():
    report = check_module(NEGATION_MODULE)
    verdicts = {v.oid: v for v in report.verdicts}
    assert {oid: v.status for oid, v in verdicts.items()} == {
        "bad/c0/vc": "failed", "f/c0/vc": "failed", "g/c0/vc": "proved"}
    assert verdicts["bad/c0/vc"].goal_text == "x /= x"
    assert verdicts["f/c0/vc"].fact_texts == ("n /= 0",)


# ---------------------------------------------------- literal multiplication

LITERAL_PRODUCTS = """\
triple : x:Int -> {v:Int | v == x + x + x}
triple x = 3 * x

twice : x:Int -> {v:Int | v == x * 2}
twice x = x + x

six : x:Int -> {v:Int | v == 6}
six x = 2 * 3

bad : x:Int -> {v:Int | v == x + x}
bad x = 3 * x
"""


def test_literal_multiplication_scales_the_linear_form():
    # a product with a literal on either side, or on both, is linear
    assert statuses(LITERAL_PRODUCTS) == {
        "triple/c0/vc": "proved", "twice/c0/vc": "proved", "six/c0/vc": "proved",
        "bad/c0/vc": "failed"}


# ------------------------------------------------------- proof declarations

def test_singletonp_obligations():
    verdicts = decl_verdicts(corpus_text("section2.eq"), "singletonP")
    kinds = [(v.kind, v.status) for v in verdicts]
    assert kinds == [("chain-step", "proved")] * 3 + [("clause-vc", "proved")]


def test_mutated_singletonp_step_fails():
    src = corpus_text("section2.eq").replace(
        "  ==. [x]\n  *** QED", "  ==. x : (x : [])\n  *** QED", 1)
    env = env_of(src)
    verdicts = decl_verdicts(src, "singletonP")
    failing = [v for v in verdicts if not v.proved]
    assert [v.oid for v in failing] == ["singletonP/c0/step3"]
    # evaluator countermodel x = 0
    lhs = evaluate(env, term("append [] [x]"), binding={"x": 0})
    rhs = evaluate(env, term("x : (x : [])"), binding={"x": 0})
    assert lhs != rhs


def test_involution_proof_accepted():
    verdicts = decl_verdicts(corpus_text("section2.eq"), "involutionP")
    assert verdicts and all(v.proved for v in verdicts)


def test_derivation_goal_uses_last_rhs():
    env = env_of(corpus_text("section4.eq"))
    fi = env.funs["reverseApp"]
    obs, _ = build_decl_obligations(fi, clause_contexts(fi, env), CheckConfig())
    vc = next(ob for ob in obs if ob.oid == "reverseApp/c1/vc")
    assert pretty_pred(vc.goal) == "reverseApp xs' (x : ys) == append (reverse xs) ys"


def test_aligned_variables_keep_their_names(list_env):
    facts = facts_text(obligations(list_env, "append")["append/c1/vc"].facts)
    assert "xs == x : xs'" in facts
    assert "length (append xs' ys) == length xs' + length ys" in facts


# A clause variable named like a binder at another position denotes another
# argument, also when an earlier clause refines it into a constructor or a
# literal; each module below was proved while such a variable kept its name.

SWAPPED_INT_BINDERS = """\
h : n:Int -> m:Int -> {v:Int | v == m}
h 0 0 = 0
h m n = %s
"""

SWAPPED_LIST_BINDERS = LIST_BASICS + """\

f : xs:(List Int) -> ys:(List Int) -> {v:Int | v == length ys}
f [] ys = length ys
f ys xs = length %s
"""

SEQUENCE_LAST_CLAUSE = """\
sequenceP (ADD:c) d s
  =   exec (append (ADD:c) d) s
  ==. exec (ADD : append c d) s
  ==. Nothing
  ==. bindExec Nothing d
  ==. bindExec (exec (ADD:c) s) d
"""


def statuses(source):
    return {v.oid: v.status for v in check_module(source).verdicts}


def test_refined_variable_named_like_another_binder_is_renamed():
    assert statuses(SWAPPED_INT_BINDERS % "m")["h/c1/l0/vc"] == "failed"
    env = env_of(SWAPPED_INT_BINDERS % "m")
    assert evaluate(env, term("h 0 5")) == 0  # the claim v == m is false
    assert all(s == "proved" for s in statuses(SWAPPED_INT_BINDERS % "n").values())


def test_refined_list_variable_named_like_another_binder_is_renamed():
    assert statuses(SWAPPED_LIST_BINDERS % "ys")["f/c1/vc"] == "failed"
    env = env_of(SWAPPED_LIST_BINDERS % "ys")
    assert evaluate(env, term("f [0] []")) == 1  # length ys is 0
    assert all(s == "proved" for s in statuses(SWAPPED_LIST_BINDERS % "xs").values())


def test_swapped_sequence_variables_keep_the_wrong_step_failed():
    text = (CORPUS / "mutations" / "bindExec_wrong_nothing.eq").read_text()
    assert SEQUENCE_LAST_CLAUSE in text
    swapped = re.sub(r"\b[cs]\b", lambda m: "s" if m[0] == "c" else "c",
                     SEQUENCE_LAST_CLAUSE)
    assert swapped.splitlines()[0] == "sequenceP (ADD:s) d c"
    got = statuses(text.replace(SEQUENCE_LAST_CLAUSE, swapped))
    assert got["sequenceP/c3/l0/step3"] == got["sequenceP/c3/l1/step3"] == "failed"


# ------------------------------------------------------------------ hint modes

HINT_AFTER_NEEDING_STEP = LIST_BASICS + """\

rightIdP : xs:(List a) -> {v:Proof | append xs [] == xs}
rightIdP []
  =   append [] []
  ==. []
  *** QED
rightIdP (x:xs)
  =   append (x:xs) []
  ==. x : xs
  ==. x : xs
      ? rightIdP xs
  *** QED
"""


def test_hint_placement_immaterial_by_default():
    report = check_module(HINT_AFTER_NEEDING_STEP)
    assert report.ok


def test_strict_hints_reject_late_hint():
    # step 1 needs the inductive hypothesis, which is attached to step 2
    strict = check_module(HINT_AFTER_NEEDING_STEP, CheckConfig(strict_hints=True))
    assert not strict.ok
    assert {v.oid for v in strict.failed()} == {"rightIdP/c1/step1"}


def test_chain_steps_share_the_clause_hypotheses():
    obs = obligations(env_of(HINT_AFTER_NEEDING_STEP), "rightIdP")
    step1, step2, vc = (obs[f"rightIdP/c1/{k}"] for k in ("step1", "step2", "vc"))
    assert step1.facts == step2.facts
    assert "append xs' [] == xs'" in facts_text(step1.facts)
    # the clause VC adds the chain's equalities after the shared hypotheses
    assert vc.facts[:len(step1.facts)] == step1.facts
    assert [pretty_pred(f) for f in vc.facts[len(step1.facts):]] == [
        "append (x : xs') [] == x : xs'", "x : xs' == x : xs'"]


def test_strict_hints_hide_later_hints_from_a_step():
    obs = obligations(env_of(HINT_AFTER_NEEDING_STEP), "rightIdP",
                      CheckConfig(strict_hints=True))
    assert "append xs' [] == xs'" not in facts_text(obs["rightIdP/c1/step1"].facts)
    assert "append xs' [] == xs'" in facts_text(obs["rightIdP/c1/step2"].facts)


def test_hint_permutations_keep_verdicts():
    base = corpus_text("section2.eq")
    moved = base.replace(
        "  ==. x : append xs []\n      ? rightIdP xs\n  ==. x : xs",
        "  ==. x : append xs []\n  ==. x : xs\n      ? rightIdP xs")
    assert moved != base
    r1, r2 = check_module(base), check_module(moved)
    assert r1.ok and r2.ok
    assert [(v.oid, v.status) for v in r1.verdicts] == [(v.oid, v.status) for v in r2.verdicts]


def test_unused_hint_warning():
    report = check_module(UNUSED_HINT_MODULE)
    assert report.ok
    assert any("trivP" in w and "unused" in w for w in report.warnings)


def _count_inside_unused_hint_pass(monkeypatch, **wrapped):
    """Counts of calls to each `checker` function named in `wrapped` made
    inside `_unused_hint_warnings`, filled in as the corpus files are checked."""
    counts = dict.fromkeys(wrapped, 0)
    inside = [False]
    unused = checker._unused_hint_warnings

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += inside[0]
            return fn(*args, **kwargs)
        return wrapper

    def flagged_unused(*args):
        inside[0] = True
        try:
            return unused(*args)
        finally:
            inside[0] = False

    for key, name in wrapped.items():
        monkeypatch.setattr(checker, name, counting(key, getattr(checker, name)))
    monkeypatch.setattr(checker, "_unused_hint_warnings", flagged_unused)
    for path in sorted(CORPUS.glob("*.eq")):
        check_module(path.read_text())
    return counts


def test_unused_hint_pass_builds_only_what_it_discharges(monkeypatch):
    # obligations are built one at a time, so a hint kept at a failed chain
    # step builds none of its clause's later obligations
    counts = _count_inside_unused_hint_pass(monkeypatch, built="Obligation",
                                            decided="decide")
    assert counts["built"] == counts["decided"] > 0, counts


def test_unused_hint_pass_renders_no_failure_texts(monkeypatch):
    # the pass asks only whether each obligation is proved: every corpus
    # verdict is proved, so each failure is the pass's own (24, where a hint
    # is needed), and none of their texts is rendered
    decide, statuses = checker.decide, []

    def recording(*args):
        statuses.append(decide(*args))
        return statuses[-1]

    monkeypatch.setattr(checker, "decide", recording)
    counts = _count_inside_unused_hint_pass(monkeypatch, rendered="pretty_pred")
    assert "failed" in statuses and counts["rendered"] == 0, counts


def test_warning_order_unreachable_before_unused():
    src = UNUSED_HINT_MODULE + """
shadow : x:Int -> Int
shadow x = 0
shadow 1 = 1

trivP2 : x:a -> {v:Proof | [x] == [x]}
trivP2 x
  =   [x]
  ==. [x]
      ? singleLemma x
  *** QED

lateShadow : b:Bool -> Int
lateShadow b = 0
lateShadow true = 1

lenP : xs:(List a) -> {v:Proof | 0 <= length xs}
lenP xs = length xs *** QED
lenP ys = () ? lenP ys *** QED
"""
    report = check_module(src)
    assert report.ok
    assert report.warnings == [
        "shadow: clause 2 is unreachable (shadowed by earlier clauses)",
        "lateShadow: clause 2 is unreachable (shadowed by earlier clauses)",
        "lenP: clause 2 is unreachable (shadowed by earlier clauses)",
        "trivP: clause 1: hint '? singleLemma x' is unused",
        "trivP2: clause 1: hint '? singleLemma x' is unused",
    ]


# ------------------------------------------------------ shared solver states

MODES = {
    "default": CheckConfig(), "strict": CheckConfig(strict_hints=True),
    "ple": CheckConfig(ple_default=True),
    "strict+ple": CheckConfig(strict_hints=True, ple_default=True),
}
ALL_MODES = pytest.mark.parametrize("config", list(MODES.values()), ids=list(MODES))
# PLE fuel counts the rounds of one saturation, and a continued state
# saturates again; `fuel_exhausted` stays set once a saturation ran out, so
# a failed goal on such a state still reports fuel-exhausted
STARVED = {f"ple+fuel{n}": CheckConfig(ple_default=True, ple_fuel=n) for n in (1, 2)}


@pytest.mark.parametrize("config", [*MODES.values(), *STARVED.values()],
                         ids=[*MODES, *STARVED])
def test_shared_states_give_the_fresh_verdicts(config, monkeypatch):
    shared = [check_module(path.read_text(), config) for path in FILES]
    monkeypatch.setattr(checker, "_discharge_each", discharge_unshared)
    for path, report in zip(FILES, shared):
        fresh = check_module(path.read_text(), config)
        assert report.verdicts == fresh.verdicts, path.name
        assert report.warnings == fresh.warnings, path.name
    starved = [v for report in shared for v in report.verdicts
               if v.status == "fuel-exhausted"]
    assert bool(starved) == (config in STARVED.values()), len(starved)


def test_goal_outside_its_scope_gets_a_state_of_its_own(list_env, monkeypatch):
    # append's clause-VC goal length (x : append xs' ys) == length xs +
    # length ys names terms outside the scope; a goal in scope, written into
    # the same keyless obligation, is not decided on a kept state either
    config = CheckConfig()
    vc = obligations(list_env, "append")["append/c1/vc"]
    assert vc.hypotheses is None
    call = vc.body_terms[0].args[1]
    assert pretty_pred(PAtom("==", call, call)) == "append xs' ys == append xs' ys"
    entails = checker.entails
    built = []

    def counting_entails(st, facts, goal):
        built.append(st)
        return entails(st, facts, goal)

    monkeypatch.setattr(checker, "entails", counting_entails)
    states = {}
    for goal in (PAtom("==", call, call), vc.goal):
        ob = dataclasses.replace(vc, goal=goal)
        for _ in range(2):
            n_built = len(built)
            verdict = discharge(ob, list_env, config, states)
            assert len(built) == n_built + 1 and states == {}
            assert verdict.proved and verdict == discharge(ob, list_env, config)
    # the two chain steps of one leaf share one key, and so one state
    env = env_of(HINT_AFTER_NEEDING_STEP)
    obs = obligations(env, "rightIdP")
    steps = [obs["rightIdP/c1/step1"], obs["rightIdP/c1/step2"]]
    assert steps[0].hypotheses is not None
    assert steps[0].hypotheses is steps[1].hypotheses
    fresh = [discharge(ob, env, config) for ob in steps]
    n_built = len(built)
    assert list(checker._discharge_each(discharge, steps, env, config)) == fresh
    assert len(built) == n_built + 1


# a leaf with a chain step whose clause-VC goal names a constructor that its
# scope (the head and the step, both `xs`) does not
NEW_CONSTRUCTOR_IN_VC = LIST_BASICS + """\

consLengthP : x:a -> xs:(List a) -> {v:Proof | length [x] == CLAIM}
consLengthP x xs
  =   xs
  ==. xs
  *** QED
"""


@pytest.mark.parametrize("claim, proved", [("1", True), ("2", False)])
def test_continued_state_fires_measures_on_new_constructors(claim, proved):
    config = CheckConfig()
    env = env_of(NEW_CONSTRUCTOR_IN_VC.replace("CLAIM", claim))
    obs = obligations(env, "consLengthP")
    step, vc = obs["consLengthP/c0/step1"], obs["consLengthP/c0/vc"]
    assert vc.hypotheses is step.hypotheses is not None
    assert [pretty_pred(f) for f in vc.extra] == ["xs == xs"]
    states = {}
    assert discharge(step, env, config, states).proved
    (st,) = states.values()
    n_nodes, n_measures = len(st.nodes), st.stats["measure"]
    verdict = discharge(vc, env, config, states)
    assert states == {vc.hypotheses: st}
    # `length [x]` and `length []` unfold only once the goal is interned
    assert len(st.nodes) > n_nodes and st.stats["measure"] >= n_measures + 2
    assert verdict.proved == proved
    assert verdict == discharge(vc, env, config)


# the step's saturation unfolds `length` on both constructors in its one
# round of fuel, so it runs out; the VC's saturation finds nothing new
LENGTH_OF_ONE = LIST_BASICS + """\

lengthOneP : x:a -> {v:Proof | length [x] == CLAIM}
lengthOneP x
  =   length [x]
  ==. length [x]
  *** QED
"""


@pytest.mark.parametrize("claim, status", [("1", "proved"), ("2", "fuel-exhausted")])
def test_fuel_exhausted_stays_set_on_a_continued_state(claim, status, monkeypatch):
    config = CheckConfig(ple_default=True, ple_fuel=1)
    env = env_of(LENGTH_OF_ONE.replace("CLAIM", claim))
    obs = obligations(env, "lengthOneP", config)
    step, vc = obs["lengthOneP/c0/step1"], obs["lengthOneP/c0/vc"]
    assert vc.hypotheses is step.hypotheses is not None
    ran_out = []
    saturate = logic._saturate

    def recording_saturate(st):
        before, st.fuel_exhausted = st.fuel_exhausted, False
        saturate(st)
        ran_out.append(st.fuel_exhausted)
        st.fuel_exhausted |= before
        return st

    monkeypatch.setattr(logic, "_saturate", recording_saturate)
    states = {}
    assert discharge(step, env, config, states).proved
    verdict = discharge(vc, env, config, states)
    assert ran_out == [True, False]
    assert verdict.status == status
    assert verdict == discharge(vc, env, config)


@ALL_MODES
def test_clause_vcs_continue_the_state_of_their_last_steps(config, monkeypatch):
    # a step's goal equates two terms of its scope, so interning it adds no
    # node to the state its key shares; a keyed clause VC or precondition
    # continues the state of its leaf's last run of steps and brings exactly
    # the chain equalities to it; every other obligation has no key
    leaves = []
    build = checker.build_clause_obligations

    def recording_build(*args):
        out = list(build(*args))
        leaves.append(out)
        return out

    monkeypatch.setattr(checker, "build_clause_obligations", recording_build)
    reports = [check_module(path.read_text(), config) for path in FILES]
    # the main pass's obligations all went through the wrapper
    in_reports = {id(ob) for report in reports for ob in report.obligations}
    assert in_reports and in_reports <= {id(ob) for obs in leaves for ob in obs}
    kinds = {"keyed": set(), "keyless": set()}
    for obs in leaves:
        steps = [ob for ob in obs if ob.kind == "chain-step"]
        for ob in steps:
            scope = {s for t in ob.body_terms for s in subterms(t)}
            assert isinstance(ob.goal, PAtom) and ob.goal.rel == "==", ob.oid
            assert ob.goal.lhs in scope and ob.goal.rhs in scope, ob.oid
            assert ob.hypotheses is not None and ob.extra == (), ob.oid
        chain = [("==", s.goal.lhs, s.goal.rhs) for s in steps]
        for ob in obs[len(steps):]:
            if ob.hypotheses is None:
                kinds["keyless"].add(ob.kind)
                assert ob.extra == () and not steps, ob.oid
                continue
            kinds["keyed"].add(ob.kind)
            assert ob.kind in ("clause-vc", "hint-pre") and steps, ob.oid
            assert ob.hypotheses is steps[-1].hypotheses, ob.oid
            assert ob.facts == steps[-1].facts + ob.extra, ob.oid
            assert ob.body_terms == steps[-1].body_terms, ob.oid
            assert [(f.rel, f.lhs, f.rhs) for f in ob.extra] == chain, ob.oid
    # the corpus's preconditions all belong to leaves without steps
    assert kinds["keyed"] == {"clause-vc"}, kinds
    assert kinds["keyless"] == {"clause-vc", "hint-pre"}, kinds


@ALL_MODES
def test_no_wildcard_or_exclusion_marker_reaches_the_solver(config, monkeypatch):
    # `_` and the integer exclusion markers live only in pattern matrices:
    # every leaf names them, so no leaf binding and no obligation holds one.
    # Both are checked as they are built, before the solver could see them
    build, leaves_of = checker.build_clause_obligations, wf.clause_leaves
    named = Counter()

    def unmarked(terms, where):
        subs = [s for t in terms for s in subterms(t)]
        assert not [s for s in subs if isinstance(s, (Wild, wf._PIntExcept))], where
        named["wildcards"] += sum(isinstance(s, Var) and s.name.startswith("_w") for s in subs)

    def checked_build(*args):
        out = list(build(*args))
        for ob in out:
            preds = (*ob.facts, ob.goal)
            unmarked([*ob.body_terms, *(t for p in preds for t in pred_terms(p))], ob.oid)
        return out

    def checked_leaves(*args):
        out = leaves_of(*args)
        for leaf in out:
            unmarked([t for _, t in leaf.var_bindings], leaf)
            named["bindings"] += len(leaf.var_bindings)
        return out

    monkeypatch.setattr(checker, "build_clause_obligations", checked_build)
    monkeypatch.setattr(wf, "clause_leaves", checked_leaves)
    for path in FILES:
        check_module(path.read_text(), config)
    assert named["wildcards"] and named["bindings"], named


# -------------------------------------------------------------- module driver

def test_empty_module_report():
    report = check_module("")
    assert report.ok and report.verdicts == []


def test_loop_isolation():
    src = LIST_BASICS + "\nloop : xs:(List a) -> List a\nloop xs = loop xs\n"
    report = check_module(src)
    assert not report.ok
    bad = {v.decl for v in report.failed()}
    assert bad == {"loop"}
    assert any(v.decl == "append" and v.proved for v in report.verdicts)


def test_users_of_failed_decl_blocked():
    src = LIST_BASICS + """\

loop : xs:(List a) -> List a
loop xs = loop xs

usesLoop : xs:(List a) -> List a
usesLoop xs = loop xs
"""
    report = check_module(src)
    kinds = {v.decl: v.kind for v in report.failed()}
    assert kinds == {"loop": "termination", "usesLoop": "blocked"}


def test_blocked_reasons_follow_the_taint_rounds():
    # each round visits the declarations in source order, and a user names
    # the first of its references that has failed by its turn: `a` names
    # `c`, failed before the rounds begin, not `b`, which `d` blocks in the
    # same round only after `a`'s turn
    src = "".join(f"{name} : x:Int -> Int\n{clause}\n\n" for name, clause in [
        ("a", "a x = b x + c x"), ("b", "b x = d x"), ("c", "c x = c x"),
        ("d", "d 0 = 0"), ("e", "e x = a x"), ("p", "p x = q x"), ("q", "q x = p x"),
        ("u", "u x = q x + 1")])
    cycle = "mutual recursion is not supported; call cycle: p -> q"
    assert [(v.oid, v.kind, v.message) for v in check_module(src).verdicts] == [
        ("a/blocked", "blocked", "not checked: uses 'c', which fails termination checking"),
        ("b/blocked", "blocked", "not checked: uses 'd', which fails totality checking"),
        ("c/term", "termination", "no lexicographic argument ordering shrinks at every "
                                  "recursive call of 'c', and no termination metric applies"),
        ("d/total", "totality", "function is not total; missing patterns: 1"),
        ("e/blocked", "blocked",
         "not checked: uses 'a', which uses 'c', which fails termination checking"),
        ("p/term", "termination", cycle),
        ("q/term", "termination", cycle),
        ("u/blocked", "blocked", "not checked: uses 'q', which fails termination checking"),
    ]


def test_clause_contexts_are_built_once_and_only_when_read(monkeypatch):
    # a declaration's leaves are computed once per clause, when its
    # obligations are built or termination checks a metric, and never for a
    # declaration that fails totality or that a failed callee blocks
    leaves = wf.clause_leaves
    calls: dict[str, int] = {}

    def counting_leaves(fi, clause_index, env):
        calls[fi.name] = calls.get(fi.name, 0) + 1
        return leaves(fi, clause_index, env)

    monkeypatch.setattr(wf, "clause_leaves", counting_leaves)
    seen: dict[str, int] = {}
    for path in FILES:
        calls.clear()
        report = check_module(path.read_text())
        kinds = {v.decl: v.kind for v in report.verdicts
                 if v.kind in ("totality", "termination", "blocked")}
        for decl in report.module.decls:
            if not isinstance(decl, FunDecl):
                continue
            fi, kind = report.env.funs[decl.name], kinds.get(decl.name, "checked")
            read = kind == "checked" or (kind == "termination"
                                         and fi.signature.metric is not None)
            n = calls.get(decl.name, 0)
            assert n == (len(fi.clauses) if read else 0), (path.name, decl.name, kind, n)
            seen[kind] = seen.get(kind, 0) + 1
    assert seen.keys() == {"checked", "totality", "termination", "blocked"}, seen
    assert seen["blocked"] >= 6, seen


def test_fuel_exhausted_verdict():
    src = LIST_BASICS + """\

ple invP
invP : x:a -> {v:Proof | reverse (reverse [x]) == [x]}
invP x = ()
"""
    assert check_module(src).ok
    starved = check_module(src, CheckConfig(ple_fuel=1))
    assert [v.status for v in starved.failed()] == ["fuel-exhausted"]


def test_fuel_zero_reports_fuel_exhausted():
    # fuel 0 is zero rounds of PLE, so every PLE obligation runs out of fuel
    # rather than failing silently; one round proves them all
    statuses = {fuel: Counter(v.status for v in check_module(
        corpus_text("section2_ple.eq"), CheckConfig(ple_fuel=fuel)).verdicts)
        for fuel in (0, 1)}
    assert statuses == {0: {"fuel-exhausted": 4}, 1: {"proved": 4}}


# ------------------------------------------------------------------- coherence

def test_chain_coherence_smoke():
    env = env_of(corpus_text("section2.eq"))
    n = check_chain_coherence(env, env.funs["rightIdP"], size=4)
    assert n > 0
    check_chain_coherence(env, env.funs["singletonP"], size=4)

"""Verification-condition generation and discharge: refined-signature checks
for ordinary functions, step-by-step checks for equational proof chains, and
the whole-module pipeline (parse, sorts, wf, then obligations)."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cache, partial
from typing import TypeVar

from .logic import DEFAULT_PLE_FUEL, SolverState, entails, holds
from .parser import parse_module
from .syntax import (
    FunDecl, PAtom, Pred, SourceModule, Span, Term, UnitLit, allow_deep_recursion,
    apps, pred_terms, pretty, pretty_pred, substitute_pred,
)
from .types import FunInfo, Sort, SortProof, TypeEnv, check_refinement_wf, check_types
from .wf import (
    LeafContext, NonTermination, call_graph_cycles, check_termination, check_totality,
    clause_contexts, missing_pattern_text,
)


@dataclass
class CheckConfig:
    ple_default: bool = False
    strict_hints: bool = False
    ple_fuel: int = DEFAULT_PLE_FUEL
    warn_unused_hints: bool = True


@dataclass
class Obligation:
    oid: str
    decl: str
    kind: str  # clause-vc | chain-step | hint-pre
    span: Span
    facts: tuple[Pred, ...]
    goal: Pred
    body_terms: tuple[Term, ...]
    var_sorts: dict[str, Sort]
    ple: bool
    step_index: int | None = None
    # the key of a run of chain steps that assume one (facts, scope) pair, and
    # so may share one solver state; None for an obligation that builds its own.
    # A clause VC or precondition with a key continues the state of its leaf's
    # last run: its `facts` are that run's facts followed by `extra`, the chain
    # equalities (empty for a chain step)
    hypotheses: object | None = None
    extra: tuple[Pred, ...] = ()


@dataclass
class Verdict:
    oid: str
    decl: str
    kind: str
    span: Span
    status: str  # proved | failed | fuel-exhausted
    goal_text: str = ""
    fact_texts: tuple[str, ...] = ()
    message: str = ""

    @property
    def proved(self) -> bool:
        return self.status == "proved"


@dataclass
class Report:
    file: str | None
    verdicts: list[Verdict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    obligations: list[Obligation] = field(default_factory=list)
    env: TypeEnv | None = None
    module: SourceModule | None = None

    @property
    def ok(self) -> bool:
        return all(v.proved for v in self.verdicts)

    def failed(self) -> list[Verdict]:
        return [v for v in self.verdicts if not v.proved]


# ------------------------------------------------------- obligation building

def build_clause_obligations(inst: LeafContext, n_leaves: int, config: CheckConfig
                             ) -> Iterator[Obligation]:
    """The obligations of one leaf, yielded lazily in a fixed order: the chain
    steps, the clause VC, then the preconditions.  A consumer that stops at
    the first failed obligation builds none of the later ones.  Step k
    equates the terms of links k-1 and k.  All the obligations assume the
    hypotheses of the full scope; only --strict-hints narrows step k's to
    the hints of links 0..k, and then the steps between two hinted steps
    assume the same ones.  Chain steps that assume the same hypotheses get
    one key, `hypotheses`: a step's goal equates two terms of its own scope
    (which holds every link's term), so interning it adds no node and every
    step of the run would build the same state.  The clause VC and the
    preconditions assume the full scope's hypotheses plus the chain
    equalities.  The last run of steps starts at step 1 or at the last hinted
    step, so it sees every hint and assumes the full scope too: they take that
    run's key and carry the chain equalities as `extra`, to be asserted on its
    state after every step of the run is decided.  Without steps they get no
    key."""
    fi = inst.fi
    ple = fi.is_ple or config.ple_default
    base = f"{fi.name}/c{inst.clause_index}"
    if n_leaves > 1:
        base += f"/l{inst.leaf.index}"

    def make(oid: str, kind: str, span: Span, facts: list[Pred], goal: Pred,
             scope: list[Term], hypotheses: object | None = None,
             step_index: int | None = None, extra: tuple[Pred, ...] = ()) -> Obligation:
        return Obligation(
            oid=oid, decl=fi.name, kind=kind, span=span, facts=tuple(facts),
            goal=goal, body_terms=tuple(scope), var_sorts=inst.var_sorts,
            ple=ple, step_index=step_index, hypotheses=hypotheses, extra=extra,
        )

    facts, scope = inst.facts_for(None)
    step_facts, step_scope, step_hypotheses = facts, scope, object()

    # chain steps; under --strict-hints a step sees the hints up to its own,
    # so only a step that brings hints narrows less than the step before it
    chain: list[Pred] = []
    links = inst.body.links
    for k, (prev, step) in enumerate(zip(links, links[1:]), 1):
        if config.strict_hints and (k == 1 or step.hints):
            step_facts, step_scope = inst.facts_for(k)
            step_hypotheses = object()
        goal = PAtom("==", prev.rhs, step.rhs, span=step.span)
        chain.append(goal)
        yield make(f"{base}/step{k}", "chain-step", step.span, step_facts, goal,
                   step_scope, step_hypotheses, step_index=k)

    # the clause VC and the preconditions also assume every chain step, and
    # continue the last run's state, which assumed the full scope
    vc_facts, extra = facts + chain, tuple(chain)
    vc_key = step_hypotheses if chain else None

    # final clause VC: a proof's result is the unit value, any other result
    # is the value of the (renamed) body, which cannot end in QED
    res = fi.signature.result
    is_proof = isinstance(fi.result_sort, SortProof)
    if is_proof or res.refined:
        value = UnitLit() if is_proof else inst.body.value_term()
        goal = substitute_pred(res.pred, {res.binder: value})
        yield make(f"{base}/vc", "clause-vc", inst.clause.span, vc_facts, goal, scope,
                   vc_key, extra=extra)

    # preconditions of calls whose callees have refined arguments
    seen_calls: set[Term] = set()
    pre_n = 0
    for sub in apps(scope):
        if sub in seen_calls:
            continue
        seen_calls.add(sub)
        gi = inst.env.funs[sub.name]
        mapping = {b: a for (b, _), a in zip(gi.signature.params, sub.args)}
        for (_, b), arg in zip(gi.signature.params, sub.args):
            if not b.refined:
                continue
            pre_n += 1
            goal = substitute_pred(b.pred, {**mapping, b.binder: arg})
            yield make(f"{base}/pre{pre_n}", "hint-pre", sub.span, vc_facts, goal, scope,
                       vc_key, extra=extra)


def build_decl_obligations(fi: FunInfo, contexts: list[list[LeafContext]],
                           config: CheckConfig) -> tuple[list[Obligation], list[str]]:
    """The obligations of every leaf of fi, and a warning per shadowed clause."""
    obligations: list[Obligation] = []
    warnings: list[str] = []
    for ci, leaves in enumerate(contexts):
        if not leaves:
            warnings.append(
                f"{fi.name}: clause {ci + 1} is unreachable (shadowed by earlier clauses)")
            continue
        for ctx in leaves:
            obligations.extend(build_clause_obligations(ctx, len(leaves), config))
    return obligations, warnings


# ----------------------------------------------------------------- discharge

States = dict[object, SolverState]
T = TypeVar("T")


def decide(ob: Obligation, env: TypeEnv, config: CheckConfig,
           states: States | None = None) -> str:
    """Decide one obligation and return its status: proved, failed or
    fuel-exhausted.  `states` maps an obligation's `hypotheses` to the state
    saturated for them.  A chain step's goal adds no node to it (see
    `build_clause_obligations`), so it is decided there with `holds`, which
    only reads.  A goal with `extra` facts continues the state with
    `entails`: it interns the goal, asserts the extra facts and saturates
    again.  The key's steps all come first, so no step reads a state that
    holds facts it does not assume.  Otherwise the goal builds its own
    state, kept for the key's later goals when it has a key."""
    st = states.get(ob.hypotheses) if states is not None else None
    if st is not None:
        ok = entails(st, list(ob.extra), ob.goal) if ob.extra else holds(st, ob.goal)
    else:
        st = SolverState(env, var_sorts=ob.var_sorts, ple=ob.ple, ple_fuel=config.ple_fuel)
        for t in ob.body_terms:
            st.intern_term(t, active=True)
        ok = entails(st, list(ob.facts), ob.goal)
        if states is not None and ob.hypotheses is not None:
            states[ob.hypotheses] = st
    if ok:
        return "proved"
    return "fuel-exhausted" if st.fuel_exhausted else "failed"


def discharge(ob: Obligation, env: TypeEnv, config: CheckConfig,
              states: States | None = None) -> Verdict:
    """`decide`'s verdict on one obligation, with the goal, fact and message
    texts of a failure."""
    status = decide(ob, env, config, states)
    if status == "proved":
        return Verdict(ob.oid, ob.decl, ob.kind, ob.span, status)
    goal_text = pretty_pred(ob.goal)
    fact_texts = tuple(pretty_pred(f) for f in ob.facts)
    return Verdict(ob.oid, ob.decl, ob.kind, ob.span, status, goal_text,
                   fact_texts, _failure_message(ob))


def _discharge_each(step: Callable[..., T], obligations: Iterable[Obligation],
                    env: TypeEnv, config: CheckConfig) -> Iterator[T]:
    """`step(ob, env, config, states)` for each obligation in order, where
    `step` is `discharge` or `decide`: one saturated state per key is shared
    among the obligations, and the states go when the iteration does."""
    states: States = {}
    for ob in obligations:
        yield step(ob, env, config, states)


def _failure_message(ob: Obligation) -> str:
    if ob.kind == "chain-step":
        assert isinstance(ob.goal, PAtom)
        return (f"step {ob.step_index}: cannot show "
                f"{pretty(ob.goal.lhs)} == {pretty(ob.goal.rhs)}")
    if ob.kind == "clause-vc":
        return f"cannot show {pretty_pred(ob.goal)}"
    return f"argument precondition not met: {pretty_pred(ob.goal)}"


# ------------------------------------------------------------- module driver

def _decl_references(fi: FunInfo) -> dict[str, None]:
    """The other functions fi calls in its clauses, refinements and metric, in
    first-occurrence order: the order picks the reason a blocked verdict
    gives, so it must not depend on string hashing."""
    sig = fi.signature
    terms = [t for clause in fi.clauses for t in clause.body.terms()]
    for p in [b.pred for _, b in sig.params] + [sig.result.pred]:
        terms.extend(pred_terms(p))
    terms.extend(sig.metric or ())
    names = dict.fromkeys(sub.name for sub in apps(terms))
    names.pop(fi.name, None)
    return names


def check_module(source: str | SourceModule, config: CheckConfig | None = None,
                 file: str | None = None) -> Report:
    """Full pipeline.  Parse and sort errors raise; totality, termination and
    proof failures become failed verdicts in the report."""
    allow_deep_recursion()
    config = config or CheckConfig()
    module = parse_module(source) if isinstance(source, str) else source
    env = check_types(module)
    check_refinement_wf(env)
    report = Report(file=file, env=env, module=module)

    fun_names = [d.name for d in module.decls if isinstance(d, FunDecl)]
    cycles = call_graph_cycles(env)
    in_cycle = {name: comp for comp in cycles for name in comp}

    # a declaration that is not checked: its failed verdict, and why, for the
    # blocked verdicts of its users
    failed: dict[str, Verdict] = {}
    why: dict[str, str] = {}
    # built when termination checks a metric or the VCs are built, so a
    # declaration blocked by a failed callee builds none
    contexts_of = cache(lambda name: clause_contexts(env.funs[name], env))

    for name in fun_names:
        fi = env.funs[name]
        if name in in_cycle:
            verdict = Verdict(
                f"{name}/term", name, "termination", fi.span, "failed",
                message=("mutual recursion is not supported; call cycle: "
                         + " -> ".join(in_cycle[name])))
        elif missing := check_totality(fi, env):
            texts = [missing_pattern_text(r) for r in missing]
            verdict = Verdict(
                f"{name}/total", name, "totality", fi.span, "failed",
                message="function is not total; missing patterns: " + "; ".join(texts))
        elif isinstance(outcome := check_termination(fi, env, partial(contexts_of, name)),
                        NonTermination):
            verdict = Verdict(
                f"{name}/term", name, "termination", outcome.span, "failed",
                message=outcome.reason)
        else:
            continue
        failed[name] = verdict
        why[name] = f"fails {verdict.kind} checking"

    # taint propagates to every (transitive) user of a failed declaration; a
    # user names the first of its references that has failed when its turn
    # in the round comes.  With nothing failed there is nothing to taint, so
    # the references are not gathered.
    if failed:
        references = {name: _decl_references(env.funs[name]) for name in fun_names}
        changed = True
        while changed:
            changed = False
            for name in fun_names:
                if name in failed:
                    continue
                ref = next((ref for ref in references[name] if ref in failed), None)
                if ref is not None:
                    why[name] = f"uses {ref!r}, which {why[ref]}"
                    failed[name] = Verdict(
                        f"{name}/blocked", name, "blocked", env.funs[name].span, "failed",
                        message=f"not checked: {why[name]}")
                    changed = True

    # every "unreachable" warning comes before every "unused" one
    unreachable: list[str] = []
    unused: list[str] = []
    for name in fun_names:
        fi = env.funs[name]
        if name in failed:
            report.verdicts.append(failed[name])
            continue
        leaf_contexts = contexts_of(name)
        obligations, warnings = build_decl_obligations(fi, leaf_contexts, config)
        unreachable.extend(warnings)
        verdicts = list(_discharge_each(discharge, obligations, env, config))
        report.obligations.extend(obligations)
        report.verdicts.extend(verdicts)
        if config.warn_unused_hints and all(v.proved for v in verdicts):
            unused.extend(_unused_hint_warnings(fi, env, leaf_contexts, config))
    report.warnings = unreachable + unused
    return report


def _unused_hint_warnings(fi: FunInfo, env: TypeEnv, contexts: list[list[LeafContext]],
                          config: CheckConfig) -> list[str]:
    """A warning per hint whose removal from its clause leaves every
    obligation of the clause proved.  The obligations are built and decided
    one at a time, so a hint is kept at its clause's first failed obligation
    and nothing after it is built; a failure's texts are never rendered."""
    warnings: list[str] = []
    for ci, (clause, leaves) in enumerate(zip(fi.clauses, contexts)):
        if not leaves:  # an unreachable clause, warned about as such
            continue
        for hint in dict.fromkeys(h for link in clause.body.links for h in link.hints):
            obligations = (ob for ctx in leaves for ob in build_clause_obligations(
                ctx.without_hint(hint), len(leaves), config))
            if all(status == "proved"
                   for status in _discharge_each(decide, obligations, env, config)):
                warnings.append(
                    f"{fi.name}: clause {ci + 1}: hint '? {pretty(hint)}' is unused")
    return warnings

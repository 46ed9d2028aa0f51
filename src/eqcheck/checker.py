"""Verification-condition generation and discharge: refined-signature checks
for ordinary functions, step-by-step checks for equational proof chains, and
the whole-module pipeline (parse, desugar, sorts, wf, then obligations)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .logic import DEFAULT_PLE_FUEL, SolverState, entails
from .parser import parse_module
from .syntax import (
    Chain, FunDecl, FreshNames, PAtom, PCon, PVar, Pattern, PlainTerm, Pred,
    SourceModule, Span, Step, Term, UnitLit, Var, allow_deep_recursion, apps,
    body_terms, desugar, pattern_term, pred_terms, pretty, pretty_pred, substitute,
    substitute_pred,
)
from .types import (
    FunInfo, Sort, SortProof, TypeEnv, check_refinement_wf, check_types, lemma_facts,
)
from .wf import (
    Leaf, NonTermination, call_graph_cycles, check_termination, check_totality,
    clause_leaves, leaf_facts, leaf_var_sorts, missing_pattern_text,
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
    kind: str  # clause-vc | chain-step | hint-pre | totality | termination | blocked
    span: Span
    facts: tuple[Pred, ...]
    goal: Pred
    body_terms: tuple[Term, ...]
    var_sorts: dict[str, Sort]
    ple: bool
    step_index: int | None = None


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


# ------------------------------------------------------ clause instantiation

def _rename_pattern(p: Pattern, renames: dict[str, str]) -> Pattern:
    if isinstance(p, PVar) and p.name in renames:
        return PVar(renames[p.name], span=p.span)
    if isinstance(p, PCon):
        return PCon(p.name, tuple(_rename_pattern(a, renames) for a in p.args), span=p.span)
    return p


class _ClauseInstance:
    """One (clause, leaf) pair with clause variables renamed apart from the
    signature binders, ready to produce facts and goals."""

    def __init__(self, fi: FunInfo, env: TypeEnv, clause_index: int, leaf: Leaf):
        self.fi = fi
        self.env = env
        self.clause_index = clause_index
        self.clause = fi.clauses[clause_index]
        binders = set(fi.signature.binders())
        leaf_sorts = leaf_var_sorts(fi, leaf, env)
        # a variable that is itself the whole pattern for the same-named
        # binder already denotes the argument constant; only clashing
        # variables bound elsewhere need fresh names
        aligned = {
            binder for (binder, _), pat in zip(fi.signature.params, leaf.row)
            if isinstance(pat, PVar) and pat.name == binder
        }
        fresh = FreshNames(binders | set(leaf_sorts))
        renames = {v: fresh.take(v + "'") for v in leaf_sorts
                   if v in binders and v not in aligned}
        rename_terms = {old: Var(new) for old, new in renames.items()}

        self.leaf = Leaf(
            leaf.index,
            tuple(_rename_pattern(p, renames) for p in leaf.row),
            tuple((renames.get(x, x), substitute(t, rename_terms))
                  for x, t in leaf.var_bindings),
            tuple((renames.get(x, x), ks) for x, ks in leaf.excluded_ints),
        )
        self.var_sorts: dict[str, Sort] = {
            renames.get(v, v): s
            for v, s in fi.clause_var_sorts[clause_index].items()
        }
        for v, s in leaf_sorts.items():
            self.var_sorts[renames.get(v, v)] = s
        for (name, _), s in zip(fi.signature.params, fi.param_sorts):
            self.var_sorts[name] = s
        self.rename_terms = rename_terms
        body = self.clause.body
        if isinstance(body, PlainTerm):
            self.head: Term = substitute(body.term, rename_terms)
            self.head_hints: tuple[Term, ...] = ()
            self.steps: tuple[Step, ...] = ()
        else:
            assert isinstance(body, Chain)
            self.head = substitute(body.head, rename_terms)
            self.head_hints = tuple(substitute(h, rename_terms) for h in body.head_hints)
            self.steps = tuple(
                Step(substitute(s.rhs, rename_terms),
                     tuple(substitute(h, rename_terms) for h in s.hints),
                     span=s.span)
                for s in body.steps
            )

    def terms_in_scope(self, upto_step: int | None, drop_hint: Term | None) -> list[Term]:
        """Body terms visible to an obligation: the head, every step, and the
        hints other than `drop_hint` attached at or before step `upto_step`
        (head hints always; every hint when `upto_step` is None)."""
        out = [self.head, *(h for h in self.head_hints if h != drop_hint)]
        for k, s in enumerate(self.steps):
            out.append(s.rhs)
            if upto_step is None or k <= upto_step:
                out.extend(h for h in s.hints if h != drop_hint)
        return out

    def pattern_facts(self) -> list[Pred]:
        facts: list[Pred] = []
        fresh = FreshNames(set(self.var_sorts))
        for (binder, _), pat in zip(self.fi.signature.params, self.leaf.row):
            t = pattern_term(pat, fresh)
            if t == Var(binder):
                continue
            facts.append(PAtom("==", Var(binder), t))
        return facts + leaf_facts(self.leaf)

    def refinement_facts(self) -> list[Pred]:
        facts: list[Pred] = []
        for name, base in self.fi.signature.params:
            if base.refined:
                facts.append(substitute_pred(base.pred, {base.binder: Var(name)}))
        return facts

    def call_facts(self, scope_terms: list[Term]) -> list[Pred]:
        """Instantiated result refinements for every saturated call in scope,
        including recursive ones (the inductive hypothesis)."""
        facts: list[Pred] = []
        seen: set[Pred] = set()
        for sub in apps(scope_terms):
            gi = self.env.funs[sub.name]
            if not gi.signature.result.refined:
                continue
            fact = lemma_facts(gi, sub.args)
            if fact in seen:
                continue
            seen.add(fact)
            facts.append(fact)
        return facts

    def facts_for(self, upto_step: int | None, drop_hint: Term | None
                  ) -> tuple[list[Pred], list[Term]]:
        scope = self.terms_in_scope(upto_step, drop_hint)
        facts = self.pattern_facts() + self.refinement_facts() + self.call_facts(scope)
        return facts, scope


# ------------------------------------------------------- obligation building

def build_clause_obligations(inst: _ClauseInstance, n_leaves: int, config: CheckConfig,
                             drop_hint: Term | None = None) -> list[Obligation]:
    """The obligations of one clause instance, optionally with one of its
    hints (as written in the source) taken out of every scope.  All of them
    share the hypotheses of the full scope; only --strict-hints narrows a
    chain step's."""
    fi = inst.fi
    if drop_hint is not None:
        drop_hint = substitute(drop_hint, inst.rename_terms)
    ple = fi.is_ple or config.ple_default
    base = f"{fi.name}/c{inst.clause_index}"
    if n_leaves > 1:
        base += f"/l{inst.leaf.index}"
    obligations: list[Obligation] = []

    def make(oid: str, kind: str, span: Span, facts: list[Pred], goal: Pred,
             scope: list[Term], step_index: int | None = None) -> Obligation:
        return Obligation(
            oid=oid, decl=fi.name, kind=kind, span=span, facts=tuple(facts),
            goal=goal, body_terms=tuple(scope), var_sorts=dict(inst.var_sorts),
            ple=ple, step_index=step_index,
        )

    facts, scope = inst.facts_for(None, drop_hint)

    # chain steps
    lhs = inst.head
    for k, step in enumerate(inst.steps):
        step_facts, step_scope = (inst.facts_for(k, drop_hint) if config.strict_hints
                                  else (facts, scope))
        goal = PAtom("==", lhs, step.rhs, span=step.span)
        obligations.append(make(f"{base}/step{k + 1}", "chain-step", step.span,
                                step_facts, goal, step_scope, step_index=k + 1))
        lhs = step.rhs

    # the clause VC and the preconditions also assume every chain step
    vc_facts = list(facts)
    prev = inst.head
    for step in inst.steps:
        vc_facts.append(PAtom("==", prev, step.rhs))
        prev = step.rhs

    # final clause VC: a proof's result is the unit value, any other result
    # is the value of the (renamed) body, which cannot end in QED
    res = fi.signature.result
    is_proof = isinstance(fi.result_sort, SortProof)
    if is_proof or res.refined:
        value = (UnitLit() if is_proof
                 else inst.steps[-1].rhs if inst.steps else inst.head)
        goal = substitute_pred(res.pred, {res.binder: value})
        obligations.append(make(f"{base}/vc", "clause-vc", inst.clause.span,
                                vc_facts, goal, scope))

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
            obligations.append(make(
                f"{base}/pre{pre_n}", "hint-pre", sub.span, vc_facts, goal, scope))
    return obligations


def build_decl_obligations(fi: FunInfo, env: TypeEnv, config: CheckConfig
                           ) -> tuple[list[Obligation], list[str]]:
    obligations: list[Obligation] = []
    warnings: list[str] = []
    for ci in range(len(fi.clauses)):
        leaves = clause_leaves(fi, ci, env)
        if not leaves:
            warnings.append(
                f"{fi.name}: clause {ci + 1} is unreachable (shadowed by earlier clauses)")
            continue
        for leaf in leaves:
            obligations.extend(build_clause_obligations(
                _ClauseInstance(fi, env, ci, leaf), len(leaves), config))
    return obligations, warnings


# ----------------------------------------------------------------- discharge

def discharge(ob: Obligation, env: TypeEnv, config: CheckConfig) -> Verdict:
    st = SolverState(env, var_sorts=ob.var_sorts, ple=ob.ple, ple_fuel=config.ple_fuel)
    for t in ob.body_terms:
        st.intern_term(t, active=True)
    ok = entails(st, list(ob.facts), ob.goal)
    if ok:
        return Verdict(ob.oid, ob.decl, ob.kind, ob.span, "proved")
    status = "fuel-exhausted" if st.fuel_exhausted else "failed"
    goal_text = pretty_pred(ob.goal)
    fact_texts = tuple(pretty_pred(f) for f in ob.facts)
    message = _failure_message(ob)
    return Verdict(ob.oid, ob.decl, ob.kind, ob.span, status, goal_text,
                   fact_texts, message)


def _failure_message(ob: Obligation) -> str:
    if ob.kind == "chain-step":
        assert isinstance(ob.goal, PAtom)
        return (f"step {ob.step_index}: cannot show "
                f"{pretty(ob.goal.lhs)} == {pretty(ob.goal.rhs)}")
    if ob.kind == "clause-vc":
        return f"cannot show {pretty_pred(ob.goal)}"
    if ob.kind == "hint-pre":
        return f"argument precondition not met: {pretty_pred(ob.goal)}"
    return pretty_pred(ob.goal)


def check_function(fi: FunInfo, env: TypeEnv, config: CheckConfig | None = None
                   ) -> list[Verdict]:
    """Per-clause verification conditions for a refined (non-proof) function."""
    config = config or CheckConfig()
    obligations, _ = build_decl_obligations(fi, env, config)
    return [discharge(ob, env, config) for ob in obligations]


# ------------------------------------------------------------- module driver

def _decl_references(fi: FunInfo) -> dict[str, None]:
    """The other functions fi calls in its clauses, refinements and metric, in
    first-occurrence order: the order picks the reason a blocked verdict
    gives, so it must not depend on string hashing."""
    sig = fi.signature
    terms = [t for clause in fi.clauses for t in body_terms(clause.body)]
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
    module = desugar(module)
    env = check_types(module)
    check_refinement_wf(env)
    report = Report(file=file, env=env, module=module)

    fun_names = [d.name for d in module.decls if isinstance(d, FunDecl)]
    cycles = call_graph_cycles(env)
    in_cycle = {name: comp for comp in cycles for name in comp}

    tainted: dict[str, str] = {}
    wf_verdicts: dict[str, Verdict] = {}
    for name in fun_names:
        fi = env.funs[name]
        if name in in_cycle:
            wf_verdicts[name] = Verdict(
                f"{name}/term", name, "termination", fi.span, "failed",
                message=("mutual recursion is not supported; call cycle: "
                         + " -> ".join(in_cycle[name])))
            tainted[name] = "fails termination checking"
            continue
        missing = check_totality(fi, env)
        if missing:
            texts = [missing_pattern_text(r) for r in missing]
            wf_verdicts[name] = Verdict(
                f"{name}/total", name, "totality", fi.span, "failed",
                message="function is not total; missing patterns: " + "; ".join(texts))
            tainted[name] = "fails totality checking"
            continue
        outcome = check_termination(fi, env)
        if isinstance(outcome, NonTermination):
            wf_verdicts[name] = Verdict(
                f"{name}/term", name, "termination", outcome.span, "failed",
                message=outcome.reason)
            tainted[name] = "fails termination checking"

    # taint propagates to every (transitive) user of a failed declaration
    changed = True
    blocked: dict[str, str] = {}
    while changed:
        changed = False
        for name in fun_names:
            if name in tainted:
                continue
            for ref in _decl_references(env.funs[name]):
                if ref in tainted:
                    tainted[name] = f"uses {ref!r}, which {tainted[ref]}"
                    blocked[name] = tainted[name]
                    changed = True
                    break

    all_obligations: list[tuple[str, Obligation]] = []
    decl_warnings: list[str] = []
    for name in fun_names:
        if name in tainted:
            continue
        obs, warns = build_decl_obligations(env.funs[name], env, config)
        decl_warnings.extend(warns)
        for ob in obs:
            all_obligations.append((name, ob))
    report.obligations = [ob for _, ob in all_obligations]

    results = [discharge(ob, env, config) for _, ob in all_obligations]

    by_decl: dict[str, list[Verdict]] = {name: [] for name in fun_names}
    for (name, _), verdict in zip(all_obligations, results):
        by_decl[name].append(verdict)

    for name in fun_names:
        fi = env.funs[name]
        if name in wf_verdicts:
            report.verdicts.append(wf_verdicts[name])
        elif name in blocked:
            report.verdicts.append(Verdict(
                f"{name}/blocked", name, "blocked", fi.span, "failed",
                message=f"not checked: {blocked[name]}"))
        else:
            report.verdicts.extend(by_decl[name])

    if config.warn_unused_hints:
        decl_warnings.extend(_unused_hint_warnings(env, fun_names, tainted, by_decl, config))
    report.warnings = decl_warnings
    return report


def _unused_hint_warnings(env: TypeEnv, fun_names: list[str], tainted: dict[str, str],
                          by_decl: dict[str, list[Verdict]], config: CheckConfig
                          ) -> list[str]:
    warnings: list[str] = []
    for name in fun_names:
        if name in tainted:
            continue
        if not all(v.proved for v in by_decl.get(name, [])):
            continue
        fi = env.funs[name]
        for ci, clause in enumerate(fi.clauses):
            body = clause.body
            if not isinstance(body, Chain):
                continue
            hints = list(dict.fromkeys(body.all_hints()))
            if not hints:
                continue
            leaves = clause_leaves(fi, ci, env)
            instances = [_ClauseInstance(fi, env, ci, leaf) for leaf in leaves]
            for hint in hints:
                if all(discharge(ob, env, config).proved
                       for inst in instances
                       for ob in build_clause_obligations(
                           inst, len(leaves), config, drop_hint=hint)):
                    warnings.append(
                        f"{name}: clause {ci + 1}: hint '? {pretty(hint)}' is unused")
    return warnings

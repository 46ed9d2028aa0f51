"""Soundness preconditions: exhaustive patterns (totality) and structural or
metric-based termination for every function.  Also each clause's leaves,
the specialisations first-match semantics lets reach it, and the leaf
contexts: the hypotheses a leaf's obligations and termination checks
assume."""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

from .logic import SolverState, entails
from .syntax import (
    App, BoolLit, Chain, Con, FreshNames, IntLit, PAnd, PAtom, POr, PTrue, Pattern,
    Pred, Span, Step, Term, Var, Wild, apps, pattern_vars, pretty, substitute,
    substitute_chain, substitute_pred,
)
from .types import (
    FunInfo, Sort, SortBool, SortData, SortInt, TypeEnv, ctor_field_sorts, lemma_facts,
)


# ------------------------------------------------------- pattern matrices

@dataclass(frozen=True, slots=True)
class _PIntExcept(Term):
    """Internal: an integer position known to avoid a finite literal set."""
    excluded: tuple[int, ...] = ()


Row = tuple[Pattern, ...]


def _is_wild(p: Pattern) -> bool:
    return isinstance(p, (Var, Wild))


def uncovered(rows: list[Row], sorts: tuple[Sort, ...], env: TypeEnv,
              space: Row) -> list[Row]:
    """The inputs of `space` that no row of the matrix matches, as disjoint
    rows each refining `space`.  `space` is a pattern row over `sorts`: all
    wildcards for the whole input space, or a clause's own row.  A column
    where `space` has a constructor or literal is explored along that
    branch alone; one where every row has a wildcard, or where no row is
    left, keeps `space`'s own pattern.  A row of wildcards alone matches
    every input, so none is left once one appears."""
    if not rows:
        return [space]
    if any(all(map(_is_wild, r)) for r in rows):
        return []
    col = [r[0] for r in rows]
    s0, top, rest_sorts, rest = sorts[0], space[0], sorts[1:], space[1:]
    if all(_is_wild(p) for p in col):
        return [(top, *u) for u in uncovered([r[1:] for r in rows], rest_sorts, env, rest)]

    if isinstance(s0, SortData):
        out: list[Row] = []
        for ci in env.datas[s0.name].ctors:
            if isinstance(top, Con) and top.name != ci.name:
                continue
            fsorts = ctor_field_sorts(ci, s0, env)
            k = len(fsorts)
            wilds = tuple(Wild() for _ in fsorts)
            sub_rows: list[Row] = []
            for r in rows:
                p = r[0]
                if _is_wild(p):
                    sub_rows.append((*wilds, *r[1:]))
                elif isinstance(p, Con) and p.name == ci.name:
                    sub_rows.append((*p.args, *r[1:]))
            fields = top.args if isinstance(top, Con) else wilds
            for u in uncovered(sub_rows, (*fsorts, *rest_sorts), env, (*fields, *rest)):
                out.append((Con(ci.name, u[:k]), *u[k:]))
        return out
    if isinstance(top, (BoolLit, IntLit)):
        heads: list[Pattern] = [top]
    elif isinstance(s0, SortBool):
        heads = [BoolLit(False), BoolLit(True)]
    elif isinstance(s0, SortInt):
        lits = sorted({p.value for p in col if isinstance(p, IntLit)})
        heads = [*map(IntLit, lits), _PIntExcept(tuple(lits))]
    else:  # abstract sorts (type variables, Proof): only wildcards can match
        heads = [top]
    return [(head, *u) for head in heads
            for u in uncovered([r[1:] for r in rows if _is_wild(r[0]) or r[0] == head],
                               rest_sorts, env, rest)]


def _render_pattern(p: Pattern, atom: bool) -> str:
    """`p` spelled out, in parentheses when it is an `atom` position and an
    applied constructor."""
    if isinstance(p, _PIntExcept):
        k = 0
        while k in p.excluded:
            k += 1
        return str(k)
    if not isinstance(p, Con):
        return pretty(p)
    if not p.args:
        return p.name
    s = p.name + " " + " ".join(_render_pattern(a, True) for a in p.args)
    return f"({s})" if atom else s


def missing_pattern_text(row: Row) -> str:
    """Render a witness row plainly (constructors spelled out, no sugar)."""
    return " ".join(_render_pattern(p, len(row) > 1) for p in row)


def check_totality(fi: FunInfo, env: TypeEnv) -> list[Row]:
    """Empty list iff the clause patterns are exhaustive; otherwise a minimal
    set of uncovered witness rows."""
    rows = [c.patterns for c in fi.clauses]
    return uncovered(rows, fi.param_sorts, env, tuple(Wild() for _ in fi.param_sorts))


# ------------------------------------------------------------ clause leaves

@dataclass
class Leaf:
    """One reachable specialisation of a clause under first-match semantics:
    the refined pattern row (every position named: only variables,
    constructors and literals), extra bindings for clause variables the
    refinement constrained, and literal exclusions, each under the name of
    the position it constrains."""
    index: int
    row: Row
    var_bindings: tuple[tuple[str, Term], ...]
    excluded_ints: tuple[tuple[str, tuple[int, ...]], ...]


def _name(p: Pattern, q: Pattern, fresh: FreshNames,
          bindings: list[tuple[str, Pattern]],
          excludes: list[tuple[str, tuple[int, ...]]]) -> Pattern:
    """q, a refinement of clause pattern p, with every wildcard and exclusion
    marker made a variable: p's own where p is one, a fresh `_w…` one
    anywhere else.  A variable of p that q refines is bound to its named
    refinement, and each exclusion is recorded under its variable's name."""
    if isinstance(q, (Var, Wild, _PIntExcept)):
        v = p if isinstance(p, Var) else Var(fresh.take("_w"))
        if isinstance(q, _PIntExcept) and q.excluded:
            excludes.append((v.name, q.excluded))
        return v
    if isinstance(q, Con):
        src = p if isinstance(p, Con) else q
        named: Pattern = Con(q.name, tuple(_name(a, b, fresh, bindings, excludes)
                                           for a, b in zip(src.args, q.args)), span=src.span)
    else:  # a literal
        named = q
    if isinstance(p, Var):
        bindings.append((p.name, named))
    return named


def clause_leaves(fi: FunInfo, clause_index: int, env: TypeEnv) -> list[Leaf]:
    """The reachable specialisations of clause `clause_index`: its own pattern
    row minus everything earlier clauses already match."""
    rows = [c.patterns for c in fi.clauses]
    clause_row = rows[clause_index]
    taken = {v for pat in clause_row for v in pattern_vars(pat)}
    leaves: list[Leaf] = []
    for u in uncovered(rows[:clause_index], fi.param_sorts, env, clause_row):
        fresh = FreshNames(taken)
        bindings: list[tuple[str, Pattern]] = []
        excludes: list[tuple[str, tuple[int, ...]]] = []
        row = tuple(_name(p, q, fresh, bindings, excludes) for p, q in zip(clause_row, u))
        leaves.append(Leaf(
            index=len(leaves),
            row=row,
            var_bindings=tuple(bindings),
            excluded_ints=tuple(excludes),
        ))
    return leaves


def _bind_sorts(p: Pattern, s: Sort, env: TypeEnv, out: dict[str, Sort]) -> None:
    """Record in `out` the sort of each variable that `p`, of sort `s`, binds."""
    if isinstance(p, Var):
        out[p.name] = s
    elif isinstance(p, Con):
        for sub, fs in zip(p.args, ctor_field_sorts(env.ctors[p.name], s, env)):
            _bind_sorts(sub, fs, env, out)


def row_var_sorts(fi: FunInfo, row: Row, env: TypeEnv) -> dict[str, Sort]:
    """Sorts of the variables a pattern row of fi binds, in the order the
    row binds them."""
    out: dict[str, Sort] = {}
    for pat, sort in zip(row, fi.param_sorts):
        _bind_sorts(pat, sort, env, out)
    return out


class LeafContext:
    """One (clause, leaf) pair with clause variables renamed apart from the
    signature binders: the hypotheses that the leaf's obligations and the
    termination-metric checks at its recursive calls assume.

    A clause variable named like a binder keeps its name only when it is the
    whole clause pattern at that binder's own position, where it denotes the
    argument itself; any other gets a fresh primed name, in the facts and in
    `body`, the renamed clause body.  `var_sorts`, read
    from the clause's and the leaf's pattern rows plus the binders' parameter
    sorts, is the only source of variable sorts, and every obligation of the
    leaf shares it.

    The pattern and refinement facts, `base_facts`, do not depend on hints:
    they are built once and shared with every copy `without_hint` makes, and
    may not be mutated by a caller."""

    def __init__(self, fi: FunInfo, env: TypeEnv, clause_index: int, leaf: Leaf):
        self.fi = fi
        self.env = env
        self.clause_index = clause_index
        self.clause = fi.clauses[clause_index]
        self.leaf = leaf
        binders = fi.signature.binders()
        pattern_sorts = (row_var_sorts(fi, self.clause.patterns, env)
                         | row_var_sorts(fi, leaf.row, env))
        aligned = {binder for binder, pat in zip(binders, self.clause.patterns)
                   if isinstance(pat, Var) and pat.name == binder}
        fresh = FreshNames(set(binders) | set(pattern_sorts))
        renames = {v: fresh.take(v + "'") for v in pattern_sorts
                   if v in binders and v not in aligned}
        self.var_sorts: dict[str, Sort] = {
            renames.get(v, v): s for v, s in pattern_sorts.items()}
        self.var_sorts.update(zip(binders, fi.param_sorts))
        self.rename_terms = rename_terms = {old: Var(new) for old, new in renames.items()}
        self.body = substitute_chain(self.clause.body, rename_terms)
        self.base_facts = self.pattern_facts() + self.refinement_facts()

    def without_hint(self, hint: Term) -> LeafContext:
        """A copy in which every occurrence of `hint`, as written in the
        source, is taken out of the chain."""
        dropped = substitute(hint, self.rename_terms)
        out = copy.copy(self)
        out.body = Chain(tuple(Step(s.rhs, tuple(h for h in s.hints if h != dropped), span=s.span)
                               for s in self.body.links), self.body.qed, span=self.body.span)
        return out

    def pattern_facts(self) -> list[Pred]:
        """An equality per argument its pattern constrains, then what the
        leaf adds: an equality per constrained clause variable and a
        disequality per excluded literal."""
        r = self.rename_terms
        facts: list[Pred] = [
            PAtom("==", Var(binder), t)
            for binder, pat in zip(self.fi.signature.binders(), self.leaf.row)
            if (t := substitute(pat, r)) != Var(binder)]
        facts.extend(PAtom("==", substitute(Var(x), r), substitute(t, r))
                     for x, t in self.leaf.var_bindings)
        facts.extend(PAtom("/=", substitute(Var(x), r), IntLit(k))
                     for x, ks in self.leaf.excluded_ints for k in ks)
        return facts

    def refinement_facts(self) -> list[Pred]:
        facts: list[Pred] = []
        for name, base in self.fi.signature.params:
            if base.refined:
                facts.append(substitute_pred(base.pred, {base.binder: Var(name)}))
        return facts

    def call_facts(self, scope_terms: list[Term]) -> list[Pred]:
        """Instantiated result refinements for every saturated call in scope,
        including recursive ones (the inductive hypothesis), each once, in
        the order `apps` meets the calls."""
        return list(dict.fromkeys(
            lemma_facts(gi, sub.args) for sub in apps(scope_terms)
            if (gi := self.env.funs[sub.name]).signature.result.refined))

    def facts_for(self, upto: int | None) -> tuple[list[Pred], list[Term]]:
        """The hypotheses of an obligation that sees the hints of links
        0..`upto` (every hint when `upto` is None), and its scope: those
        hints and every link's term."""
        scope = self.body.terms(upto)
        return self.base_facts + self.call_facts(scope), scope


def clause_contexts(fi: FunInfo, env: TypeEnv) -> list[list[LeafContext]]:
    """One list of leaf contexts per clause, empty when earlier clauses
    shadow the clause entirely."""
    return [[LeafContext(fi, env, ci, leaf) for leaf in clause_leaves(fi, ci, env)]
            for ci in range(len(fi.clauses))]


# ------------------------------------------------------------- termination

@dataclass(frozen=True, slots=True)
class TerminationEvidence:
    kind: str  # 'structural' | 'semantic'
    positions: tuple[int, ...] = ()
    metric: tuple[Term, ...] = ()
    guessed: bool = False


@dataclass(frozen=True, slots=True)
class NonTermination:
    span: Span
    reason: str


def _self_calls(fi: FunInfo) -> list[tuple[int, App]]:
    """(clause index, application) for every recursive call, hints included."""
    return [(ci, sub) for ci, clause in enumerate(fi.clauses)
            for sub in apps(clause.body.terms()) if sub.name == fi.name]


def _structural(fi: FunInfo, calls: list[tuple[int, App]]) -> Optional[tuple[int, ...]]:
    """A lexicographic argument ordering under the sub-pattern order: at each
    call the chosen argument shrinks strictly while every earlier chosen
    argument is passed through unchanged.  Taking any position that shrinks
    at some remaining call, and at every other one shrinks or is passed
    through unchanged, leaves an ordering for the rest whenever one exists;
    so the first such position is taken, and the search never backtracks."""
    STRICT, EQUAL, OTHER = 0, 1, 2

    def status(ci: int, call: App, pos: int) -> int:
        pat = fi.clauses[ci].patterns[pos]
        arg = call.args[pos]
        if isinstance(pat, Con) and isinstance(arg, Var) and arg.name in pattern_vars(pat):
            return STRICT
        # no body term holds a Wild, and term equality keeps true apart from 1
        return EQUAL if pat == arg else OTHER

    positions, used = list(range(fi.arity)), []
    while calls:
        for p in positions:
            stats = [status(ci, call, p) for ci, call in calls]
            if OTHER not in stats and STRICT in stats:
                break
        else:
            return None
        calls = [rc for rc, s in zip(calls, stats) if s == EQUAL]
        positions.remove(p)
        used.append(p)
    return tuple(used)


def _guess_metric(fi: FunInfo, env: TypeEnv) -> list[tuple[Term, ...]]:
    """Candidate metrics for the first Int-or-measurable argument."""
    for (binder, _), sort in zip(fi.signature.params, fi.param_sorts):
        if isinstance(sort, SortInt):
            return [(Var(binder),)]
        if isinstance(sort, SortData):
            measures = env.measures_of.get(sort.name, [])
            if measures:
                return [(App(m, (Var(binder),)),) for m in measures]
    return []


def _check_metric(fi: FunInfo, metric: tuple[Term, ...],
                  contexts: list[list[LeafContext]]) -> Optional[NonTermination]:
    """At every recursive call, the metric at the call's arguments must be
    non-negative and lexicographically below the metric at the binders,
    assuming the leaf's pattern facts and the function's own argument
    refinements (but no inductive hypothesis)."""
    binders = fi.signature.binders()
    for ctx in (ctx for leaves in contexts for ctx in leaves):
        calls = [sub for sub in apps(ctx.body.terms()) if sub.name == fi.name]
        for call in calls:
            callee = [substitute(m, dict(zip(binders, call.args))) for m in metric]
            lemmas = (lemma_facts(ctx.env.funs[sub.name], sub.args)
                      for sub in apps((*metric, *callee)) if sub.name != fi.name)
            facts = ctx.base_facts + [f for f in lemmas if not isinstance(f, PTrue)]
            nonneg = [PAtom("<=", IntLit(0), e) for e in callee]
            decreases: list[Pred] = []
            for k in range(len(metric)):
                parts = [PAtom("==", callee[j], metric[j]) for j in range(k)]
                decreases.append(PAnd((*parts, PAtom("<", callee[k], metric[k]))))
            goal = PAnd((*nonneg, POr(tuple(decreases))))
            st = SolverState(ctx.env, var_sorts=ctx.var_sorts)
            for t in (*metric, *callee):
                st.intern_term(t, active=True)
            if not entails(st, facts, goal):
                return NonTermination(
                    call.span,
                    f"cannot show metric [{', '.join(pretty(m) for m in metric)}] "
                    f"decreases at recursive call in clause {ctx.clause_index + 1}",
                )
    return None


def check_termination(fi: FunInfo, env: TypeEnv,
                      contexts: Callable[[], list[list[LeafContext]]]):
    """Structural check first unless an explicit metric was declared; falls
    back to the guessed first-argument metric before giving up.  A metric
    check assumes the hypotheses of fi's `clause_contexts`, which `contexts`
    returns, called only when a metric is checked."""
    calls = _self_calls(fi)
    if not calls:
        return TerminationEvidence("structural", ())
    metric = fi.signature.metric
    if metric is not None:
        failure = _check_metric(fi, tuple(metric), contexts())
        if failure is None:
            return TerminationEvidence("semantic", metric=tuple(metric))
        return failure
    positions = _structural(fi, calls)
    if positions is not None:
        return TerminationEvidence("structural", positions)
    for guess in _guess_metric(fi, env):
        if _check_metric(fi, guess, contexts()) is None:
            return TerminationEvidence("semantic", metric=guess, guessed=True)
    return NonTermination(
        fi.span,
        f"no lexicographic argument ordering shrinks at every recursive call of "
        f"{fi.name!r}, and no termination metric applies",
    )


def call_graph_cycles(env: TypeEnv) -> list[list[str]]:
    """The call cycles through more than one function, each as its sorted
    names (mutual recursion is out of scope and reported as
    non-termination).  A function is on a cycle when it reaches itself; its
    cycle is every function it reaches that reaches it back."""
    calls = {name: {sub.name for clause in fi.clauses
                    for sub in apps(clause.body.terms())} - {name}
             for name, fi in env.funs.items()}
    reach: dict[str, set[str]] = {}
    for name in calls:
        seen: set[str] = set()
        todo = list(calls[name])
        while todo:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo.extend(calls[callee])
        reach[name] = seen
    cycles = {tuple(sorted(g for g in reach[f] if f in reach[g]))
              for f in calls if f in reach[f]}
    return [list(c) for c in sorted(cycles)]

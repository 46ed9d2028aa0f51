"""Independent oracles for the logic engine: a brute-force congruence
closure over explicit term sets, the LIA solved form built by scanning every
pivot, and a random-model soundness harness that cross-checks entailment
verdicts against evaluation."""

from __future__ import annotations

import random
from math import gcd

from eqcheck.logic import SolverState, _eliminate, _Lia, _substitute, assert_fact, entails
from eqcheck.parser import parse_pred
from eqcheck.semantics import evaluate, value_to_term
from eqcheck.syntax import (
    App, BoolLit, Con, IntLit, PAtom, PrimOp, Term, UnitLit, Var, pred_terms,
    pretty_pred, subterms,
)
from eqcheck.types import INT, SortData, SortVar


# ------------------------------------------------------ state reading

def record_states(m) -> list[SolverState]:
    """A list that every `SolverState` made from now on, under the
    monkeypatch context `m`, joins in the order made."""
    states = []
    init = SolverState.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        states.append(self)

    m.setattr(SolverState, "__init__", recording_init)
    return states


def interned_node(st: SolverState, t: Term) -> int | None:
    """The node of `t` if the state has interned it, else None.  Reads only
    `st.intern_table`, with the keys `SolverState._mk` files nodes under, so
    it creates nothing."""
    if isinstance(t, Var):
        return st.intern_table.get(("var", t.name, ()))
    if isinstance(t, IntLit):
        return st.intern_table.get(("int", t.value, ()))
    if isinstance(t, BoolLit):
        return st.intern_table.get(("bool", t.value, ()))
    if isinstance(t, UnitLit):
        return st.intern_table.get(("unit", "()", ()))
    if isinstance(t, Con):
        kind, head, subs = "con", t.name, t.args
    elif isinstance(t, App):
        kind, head, subs = "app", t.name, t.args
    else:
        assert isinstance(t, PrimOp), t
        kind, head, subs = "prim", t.op, (t.lhs, t.rhs)
    args = tuple(interned_node(st, a) for a in subs)
    if None in args:
        return None
    return st.intern_table.get((kind, head, args))


# ------------------------------------------- solved form by full scan

def scan_reduced(pivots, coeffs, const):
    """`logic._reduced` by a scan of every pivot in pivot order (the dict's
    insertion order), substituting each one whose variable the form still
    mentions."""
    scale = 1
    for _, var, a, ecoeffs, econst in pivots.values():
        if var in coeffs:
            coeffs, const = _substitute(coeffs, const, var, a, ecoeffs, econst)
            scale *= abs(a)
    g = gcd(scale, const, *coeffs.values())
    return (frozenset((v, c // g) for v, c in coeffs.items()), const // g, scale // g)


class ScanLia(_Lia):
    """`_Lia` whose elimination step scans every pivot in order instead of
    looking up the pivots of the row's variables."""

    @staticmethod
    def _solve(pivots, ineqs, atom):
        coeffs, const, rel = atom
        for _, var, a, ecoeffs, econst in pivots.values():
            if var in coeffs:
                coeffs, const = _eliminate(coeffs, const, var, a, ecoeffs, econst, rel)
        if not coeffs:
            return _Lia._ground_holds(const, rel)
        if rel == "<=":
            ineqs.append((coeffs, const))
            return True
        var = min(coeffs, key=lambda v: (abs(coeffs[v]), -v))
        pivots[var] = (len(pivots), var, coeffs[var], coeffs, const)
        rest = []
        for icoeffs, iconst in ineqs:
            if var in icoeffs:
                icoeffs, iconst = _eliminate(icoeffs, iconst, var, coeffs[var], coeffs, const, "<=")
                if not icoeffs:
                    if iconst > 0:
                        return False
                    continue
            rest.append((icoeffs, iconst))
        ineqs[:] = rest
        return True


# ------------------------------------------------- brute-force closure

def naive_classes(terms: list[Term], equations: list[tuple[Term, Term]]):
    """O(n^3) congruence closure by repeated scanning: the partition of the
    given term set (closed under subterms) induced by the equations."""
    universe: list[Term] = []
    seen = set()
    for t in terms:
        for s in subterms(t):
            if s not in seen:
                seen.add(s)
                universe.append(s)
    for a, b in equations:
        for t in (a, b):
            for s in subterms(t):
                if s not in seen:
                    seen.add(s)
                    universe.append(s)

    parent: dict[Term, Term] = {t: t for t in universe}

    def find(t: Term) -> Term:
        while parent[t] != t:
            t = parent[t]
        return t

    def union(a: Term, b: Term) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for a, b in equations:
        union(a, b)
    changed = True
    while changed:
        changed = False
        apps = [t for t in universe if isinstance(t, App)]
        for i, t1 in enumerate(apps):
            for t2 in apps[i + 1:]:
                if t1.name != t2.name or len(t1.args) != len(t2.args):
                    continue
                if find(t1) == find(t2):
                    continue
                if all(find(x) == find(y) for x, y in zip(t1.args, t2.args)):
                    union(t1, t2)
                    changed = True
    return universe, find


UNINTERPRETED_SRC = """\
f : x:(List a) -> List a
f x = x

g : x:(List a) -> y:(List a) -> List a
g x y = x
"""

_CONSTS = ["a", "b", "c", "d", "e"]


def random_graph(rng: random.Random, n_terms: int = 12, n_eqs: int = 6):
    """Random application terms over opaque constants plus random equations."""
    pool: list[Term] = [Var(c) for c in _CONSTS]
    while len(pool) < n_terms:
        pick = rng.random()
        if pick < 0.5:
            pool.append(App("f", (rng.choice(pool),)))
        else:
            pool.append(App("g", (rng.choice(pool), rng.choice(pool))))
    eqs = [(rng.choice(pool), rng.choice(pool)) for _ in range(n_eqs)]
    return pool, eqs


def check_graph_against_oracle(env, rng: random.Random) -> None:
    pool, eqs = random_graph(rng)
    var_sorts = {c: SortData("List", (SortVar("a"),)) for c in _CONSTS}
    st = SolverState(env, var_sorts=var_sorts)
    ids = {}
    universe, find = naive_classes(pool, eqs)
    for t in universe:
        ids[t] = st.intern_term(t)
    for a, b in eqs:
        assert_fact(st, PAtom("==", a, b))
    assert not st.contradiction
    for i, t1 in enumerate(universe):
        for t2 in universe[i + 1:]:
            oracle_eq = find(t1) == find(t2)
            solver_eq = st.find(ids[t1]) == st.find(ids[t2])
            assert oracle_eq == solver_eq, (t1, t2, oracle_eq, solver_eq)


# ------------------------------------------------- random-model soundness

SOUNDNESS_SRC = """\
measure length
length : xs:(List Int) -> {v:Int | 0 <= v}
length [] = 0
length (_:xs) = 1 + length xs

reflect append
append : xs:(List Int) -> ys:(List Int) -> List Int
append [] ys = ys
append (x:xs) ys = x : append xs ys

reflect reverse
reverse : xs:(List Int) -> List Int
reverse [] = []
reverse (x:xs) = append (reverse xs) [x]
"""

_LIST_CONSTS = ["xs", "ys"]
_INT_CONSTS = ["n", "m"]
_RELS = ("==", "/=", "<=", "<", ">=", ">")


def _random_list_value(rng):
    out = ("Nil",)
    for _ in range(rng.randrange(0, 4)):
        out = ("Cons", rng.randrange(0, 3), out)
    return out


def _random_list_term(rng, depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.7:
            return Var(rng.choice(_LIST_CONSTS))
        return value_to_term(_random_list_value(rng))
    if rng.random() < 0.5:
        return App("reverse", (_random_list_term(rng, depth - 1),))
    return App("append", (_random_list_term(rng, depth - 1),
                          _random_list_term(rng, depth - 1)))


def _random_int_term(rng, depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Var(rng.choice(_INT_CONSTS))
        return IntLit(rng.randrange(-3, 4))
    pick = rng.random()
    if pick < 0.4:
        return App("length", (_random_list_term(rng, depth - 1),))
    op = "+" if pick < 0.7 else "-"
    return PrimOp(op, _random_int_term(rng, depth - 1), _random_int_term(rng, depth - 1))


def random_atom(rng) -> PAtom:
    if rng.random() < 0.45:
        rel = rng.choice(("==", "/="))
        return PAtom(rel, _random_list_term(rng, 2), _random_list_term(rng, 2))
    rel = rng.choice(_RELS)
    return PAtom(rel, _random_int_term(rng, 2), _random_int_term(rng, 2))


def random_valuation(rng) -> dict[str, object]:
    val: dict[str, object] = {c: _random_list_value(rng) for c in _LIST_CONSTS}
    for c in _INT_CONSTS:
        val[c] = rng.randrange(-3, 4)
    return val


_REL_FUN = {
    "==": lambda a, b: a == b,
    "/=": lambda a, b: a != b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


def atom_truth(env, atom: PAtom, valuation: dict) -> bool:
    binding = dict(valuation)
    lhs = evaluate(env, atom.lhs, binding=binding)
    rhs = evaluate(env, atom.rhs, binding=binding)
    return _REL_FUN[atom.rel](lhs, rhs)


def _query(env, facts, goal, ple: bool, states: list | None = None) -> bool:
    """Entailment of `goal` by `facts` over the random constants, with every
    fact term written (active); the state is appended to `states`, if given."""
    var_sorts = {c: SortData("List", (INT,)) for c in _LIST_CONSTS}
    var_sorts.update({c: INT for c in _INT_CONSTS})
    st = SolverState(env, var_sorts=var_sorts, ple=ple, ple_fuel=20)
    for f in facts:
        for t in pred_terms(f):
            st.intern_term(t, active=True)
    if states is not None:
        states.append(st)
    return entails(st, facts, goal)


def soundness_trial(env, rng, *, ple: bool = False,
                    states: list | None = None) -> tuple[bool, bool]:
    """One randomized trial: facts true under a random valuation, a random
    goal.  Returns (entailed, goal_true); soundness demands entailed -> true.
    The solver state is appended to `states`, if given."""
    valuation = random_valuation(rng)
    facts = []
    attempts = 0
    while len(facts) < 4 and attempts < 30:
        attempts += 1
        a = random_atom(rng)
        if atom_truth(env, a, valuation):
            facts.append(a)
    goal = random_atom(rng)
    return _query(env, facts, goal, ple, states), atom_truth(env, goal, valuation)


# A compound predicate is a random atom or a tuple ("not", c), ("&&", c, d)
# or ("||", c, d).  Its truth is computed on the tuple, from atom truths, so
# the parser's handling of `not` is checked rather than trusted.

def random_compound(rng, depth: int = 2):
    if depth == 0 or rng.random() < 0.3:
        return random_atom(rng)
    op = rng.choice(("not", "&&", "||"))
    if op == "not":
        return (op, random_compound(rng, depth - 1))
    return (op, random_compound(rng, depth - 1), random_compound(rng, depth - 1))


def compound_truth(env, c, valuation: dict) -> bool:
    if isinstance(c, PAtom):
        return atom_truth(env, c, valuation)
    if c[0] == "not":
        return not compound_truth(env, c[1], valuation)
    parts = [compound_truth(env, d, valuation) for d in c[1:]]
    return all(parts) if c[0] == "&&" else any(parts)


def compound_text(c) -> str:
    if isinstance(c, PAtom):
        return pretty_pred(c)
    if c[0] == "not":
        return f"not ({compound_text(c[1])})"
    return f" {c[0]} ".join(f"({compound_text(d)})" for d in c[1:])


def compound_soundness_trial(env, rng, *, ple: bool = False,
                             states: list | None = None) -> tuple[bool, bool]:
    """`soundness_trial` over compound predicates, passed to the solver as
    parsed text."""
    valuation = random_valuation(rng)
    facts = []
    attempts = 0
    while len(facts) < 4 and attempts < 30:
        attempts += 1
        c = random_compound(rng)
        if compound_truth(env, c, valuation):
            facts.append(parse_pred(compound_text(c)))
    goal = random_compound(rng)
    entailed = _query(env, facts, parse_pred(compound_text(goal)), ple, states)
    return entailed, compound_truth(env, goal, valuation)


# ------------------------------------------------- chain/evaluation coherence

def _enumerable_sort(sort, int_sort):
    from eqcheck.types import SortData, SortVar
    if isinstance(sort, SortVar):
        return int_sort
    if isinstance(sort, SortData):
        return SortData(sort.name, tuple(_enumerable_sort(a, int_sort) for a in sort.args))
    return sort


def leaf_instantiations(env, fi, clause_index, size, ints):
    """Assignments of enumerated values to one clause's variables, restricted
    to inputs that actually reach the clause (its leaves under first-match
    semantics).  Type variables read as Int."""
    import itertools
    from eqcheck.semantics import enumerate_values, evaluate
    from eqcheck.types import INT
    from eqcheck.wf import clause_leaves, row_var_sorts
    for leaf in clause_leaves(fi, clause_index, env):
        lsorts = row_var_sorts(fi, leaf.row, env)
        names = sorted(lsorts)
        domains = [
            enumerate_values(env, _enumerable_sort(lsorts[n], INT), size, ints=ints)
            for n in names
        ]
        for combo in itertools.product(*domains):
            binding = dict(zip(names, combo))
            if any(binding[x] == k for x, ks in leaf.excluded_ints for k in ks):
                continue
            for x, t in leaf.var_bindings:
                binding[x] = evaluate(env, t, binding=dict(binding))
            yield binding


def _row_matches(patterns, args, binding) -> bool:
    from eqcheck.semantics import match_pattern
    return all(match_pattern(p, v, binding) for p, v in zip(patterns, args))


def _named(p) -> bool:
    from eqcheck.syntax import BoolLit, Con, IntLit, Var
    if isinstance(p, Con):
        return all(_named(a) for a in p.args)
    return isinstance(p, (Var, IntLit, BoolLit))


def _input_domains(env, fi, size, ints) -> list[list]:
    """The enumerated values of each of fi's parameters: type variables read
    as Int and a proof argument is the unit value."""
    from eqcheck.semantics import enumerate_values
    from eqcheck.types import SortProof
    return [[None] if isinstance(s, SortProof)
            else enumerate_values(env, _enumerable_sort(s, INT), size, ints=ints)
            for s in fi.param_sorts]


def check_leaves_partition(env, fi, *, size=3, ints=(0, 1, 2)) -> int:
    """Every enumerated input of fi is covered by exactly one clause leaf (its
    row matches and no excluded literal binds), a leaf of the clause that
    first-match semantics selects, and each clause variable the leaf refines
    evaluates to what the clause pattern binds it to.  Every leaf row holds
    only variables, constructors and literals.  Type variables read as Int
    and a proof argument is the unit value.  Returns the number of inputs."""
    import itertools
    from eqcheck.wf import clause_leaves
    leaves = [(ci, leaf) for ci in range(len(fi.clauses))
              for leaf in clause_leaves(fi, ci, env)]
    assert all(_named(p) for _, leaf in leaves for p in leaf.row), fi.name
    n = 0
    for args in itertools.product(*_input_domains(env, fi, size, ints)):
        n += 1
        selected = next((ci for ci, c in enumerate(fi.clauses)
                         if _row_matches(c.patterns, args, {})), None)
        covering = []
        for ci, leaf in leaves:
            binding: dict = {}
            if (_row_matches(leaf.row, args, binding)
                    and not any(binding[x] in ks for x, ks in leaf.excluded_ints)):
                covering.append((ci, leaf, binding))
        assert [ci for ci, _, _ in covering] == ([] if selected is None else [selected]), \
            (fi.name, args)
        if covering:
            _, leaf, binding = covering[0]
            clause_binding: dict = {}
            _row_matches(fi.clauses[selected].patterns, args, clause_binding)
            for x, t in leaf.var_bindings:
                assert evaluate(env, t, binding=dict(binding)) == clause_binding[x], \
                    (fi.name, args, x)
    return n


def _witness_matches(p, value) -> bool:
    """Whether a value lies in a totality witness pattern, which may hold
    integer exclusion markers."""
    from eqcheck.semantics import match_pattern
    from eqcheck.syntax import Con
    from eqcheck.wf import _PIntExcept
    if isinstance(p, Con):
        return value[0] == p.name and all(map(_witness_matches, p.args, value[1:]))
    if isinstance(p, _PIntExcept):
        return value not in p.excluded
    return match_pattern(p, value, {})


def check_totality_witnesses(env, fi, *, size=3, ints=(0, 1, 2)) -> int:
    """An enumerated input of fi raises MatchFailure exactly when some
    `check_totality` witness row matches it.  Returns the number of
    inputs."""
    import itertools
    from eqcheck.semantics import MatchFailure
    from eqcheck.wf import check_totality
    witnesses = check_totality(fi, env)
    n = 0
    for args in itertools.product(*_input_domains(env, fi, size, ints)):
        n += 1
        try:
            evaluate(env, App(fi.name, tuple(map(value_to_term, args))))
            failed = False
        except MatchFailure:
            failed = True
        assert failed == any(all(map(_witness_matches, row, args)) for row in witnesses), \
            (fi.name, args)
    return n


def check_chain_coherence(env, fi, *, size=4, small_size=2, ints=(0, 1)) -> int:
    """Every step's two sides evaluate to the same value, and the whole chain
    evaluates to its last right-hand side, on all enumerated instantiations
    reaching the clause.  Returns the number of instantiations checked."""
    from eqcheck.semantics import evaluate
    from eqcheck.syntax import pattern_vars
    checked = 0
    for ci, clause in enumerate(fi.clauses):
        body = clause.body
        if body.plain:
            continue
        n_vars = len([v for p in clause.patterns for v in pattern_vars(p)])
        use_size = size if n_vars <= 2 else small_size
        terms = [s.rhs for s in body.links]
        for binding in leaf_instantiations(env, fi, ci, use_size, ints):
            vals = [evaluate(env, t, binding=dict(binding)) for t in terms]
            assert all(v == vals[0] for v in vals), (fi.name, ci, binding)
            checked += 1
    return checked


def cleaned_env(module, names):
    """Re-typecheck the module with the named functions' chain bodies replaced
    by their final terms (the classic cleaned definitions)."""
    from eqcheck.syntax import Chain, Clause, FunDecl, SourceModule, Step
    from eqcheck.types import check_types
    decls = []
    for d in module.decls:
        if isinstance(d, FunDecl) and d.name in names:
            clauses = []
            for c in d.clauses:
                body = c.body
                if not body.qed:
                    body = Chain((Step(body.value_term()),))
                clauses.append(Clause(c.name, c.patterns, body, span=c.span))
            decls.append(FunDecl(d.name, d.signature, tuple(clauses), span=d.span))
        else:
            decls.append(d)
    return check_types(SourceModule(tuple(decls), module.annotations, span=module.span))


def check_derivation_matches_cleaned(env, env2, fname, arg_sorts, *, size=5, ints=(0, 1)) -> int:
    """evaluate(f args) agrees between the chain-bodied and cleaned envs."""
    import itertools
    from eqcheck.semantics import enumerate_values, evaluate, value_to_term
    from eqcheck.syntax import App
    from eqcheck.types import INT
    domains = [enumerate_values(env, _enumerable_sort(s, INT), size, ints=ints)
               for s in arg_sorts]
    checked = 0
    for combo in itertools.product(*domains):
        call = App(fname, tuple(value_to_term(v) for v in combo))
        assert evaluate(env, call) == evaluate(env2, call), (fname, combo)
        checked += 1
    return checked


def eval_pred(env, p, binding) -> bool:
    from eqcheck.semantics import evaluate
    from eqcheck.syntax import PAnd, PAtom, PFalse, POr, PTrue
    if isinstance(p, PTrue):
        return True
    if isinstance(p, PFalse):
        return False
    if isinstance(p, PAnd):
        return all(eval_pred(env, q, binding) for q in p.items)
    if isinstance(p, POr):
        return any(eval_pred(env, q, binding) for q in p.items)
    assert isinstance(p, PAtom)
    lhs = evaluate(env, p.lhs, binding=dict(binding))
    rhs = evaluate(env, p.rhs, binding=dict(binding))
    return _REL_FUN[p.rel](lhs, rhs)


def check_statement_spot(env, fi, rng, trials=1000, size=3, ints=(0, 1, 2)) -> None:
    """The accepted goal predicate holds on random enumerated instantiations
    of its binders (the value binder denotes the call's result)."""
    from eqcheck.semantics import enumerate_values, evaluate, value_to_term
    from eqcheck.syntax import App
    from eqcheck.types import INT
    res = fi.signature.result
    pools = []
    for (binder, _), sort in zip(fi.signature.params, fi.param_sorts):
        pools.append((binder, enumerate_values(
            env, _enumerable_sort(sort, INT), size, ints=ints)))
    for _ in range(trials):
        binding = {b: rng.choice(pool) for b, pool in pools}
        call = App(fi.name, tuple(value_to_term(binding[b]) for b, _ in pools))
        binding[res.binder] = evaluate(env, call)
        assert eval_pred(env, res.pred, binding), (fi.name, binding)


# ------------------------------------------------- random pattern matrices

PATTERN_SORTS = ("T", "List Int", "List a", "Bool", "Int")
_PATTERN_VARS = ["x", "y", "z", "xs", "ys", "x1", "x2"]


def _random_pattern(rng, sort: str, depth: int, names: list[str]):
    """A pattern of `sort` (one of PATTERN_SORTS, or "a"): a variable while
    `names` lasts, a wildcard, a literal, or a constructor whose fields
    recurse while `depth` lasts (nullary constructors only at depth 0)."""
    from eqcheck.syntax import BoolLit, Con, IntLit, Var, Wild
    if sort == "a" or rng.random() < 0.35:
        return Var(names.pop()) if names and rng.random() < 0.6 else Wild()
    if sort == "Bool":
        return BoolLit(rng.random() < 0.5)
    if sort == "Int":
        return IntLit(rng.choice((-1, 0, 1, 2)))
    if sort == "T":
        pick = rng.randrange(3) if depth else 0
        if pick == 0:
            return Con("A")
        if pick == 1:
            return Con("C", (_random_pattern(rng, "Int", depth - 1, names),))
        return Con("B", tuple(_random_pattern(rng, "T", depth - 1, names) for _ in "ab"))
    if not depth or rng.random() < 0.4:
        return Con("Nil")
    elem = sort.split()[1]
    return Con("Cons", (_random_pattern(rng, elem, depth - 1, names),
                        _random_pattern(rng, sort, depth - 1, names)))


def random_pattern_module(rng, max_arity: int = 3) -> str:
    """Source of a module declaring `data T = A | B T T | C Int` and one
    function `f` of 1 to `max_arity` arguments, each of a sort drawn from
    PATTERN_SORTS, with 1 to 5 clauses of random patterns: variables,
    wildcards, nested constructors and literals, negative ones included.
    Clause k returns k."""
    from eqcheck.syntax import pretty
    sorts = [rng.choice(PATTERN_SORTS) for _ in range(rng.randint(1, max_arity))]
    params = [f"x{i + 1}:({s})" if " " in s else f"x{i + 1}:{s}"
              for i, s in enumerate(sorts)]
    lines = ["data T = A | B T T | C Int", "", f"f : {' -> '.join(params)} -> Int"]
    for k in range(rng.randint(1, 5)):
        names = list(_PATTERN_VARS)
        rng.shuffle(names)
        pats = [_random_pattern(rng, s, 2, names) for s in sorts]
        lines.append(f"f {' '.join('(' + pretty(p) + ')' for p in pats)} = {k}")
    return "\n".join(lines) + "\n"

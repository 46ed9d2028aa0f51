"""The SMT replacement: ground congruence closure with constructor theory,
linear integer arithmetic over a rational relaxation, and instantiation by
one rule with PLE saturation.

Instantiation is one rule, `_unfold`: an application of a reflected function
or a measure is equated with the body of its first clause whose match is
decided; a measure's clause is read off its argument's constructor.  Each
constructor node is made with the application of every measure of its data
type, whose match is always decided, so saturation visits only
applications: a worklist of those of a reflected function or a measure that
may still unfold, each queued as it is made (`_saturate`).
Outside PLE a reflected application unfolds only where it was written; PLE
also unfolds the applications that earlier unfoldings create.  Saturation
ends at a round that adds no union to the union-find (`stats["merges"]`)
and whose exchange with the arithmetic layer adds none either.

One SolverState serves one hypothesis set: the scope terms and facts that
`entails` saturates it with.  Every goal over that set may be decided on the
saturated state with `holds`, which only reads, provided each of the goal's
terms was interned before the facts were asserted: such a goal would have
built exactly that state on its own.  The checker meets this by
construction, not by a test at run time: it reads a state with `holds` only
for chain steps, whose goals equate two terms of their scope.  A kept state
may also be extended: `entails` on it with further facts interns the new
goal, asserts only those facts and saturates again, so it decides the goal
from the union of the old and the new facts.  Every fact only adds
consequences, so this is sound; it can prove more than a fresh state, since
PLE fuel counts the rounds of each saturation.  The checker continues the
state of a leaf's chain steps this way for its clause VC and preconditions,
after the last step that reads it.

Terms are interned up to congruence (`_mk`), so interning never merges.
A node is a `_Node` tuple made with the facts that never change: its sort,
its tag, a `prim` node's linear form (so `lin` only looks a form up), and a
constructor's measure applications.  `intern_term` is the one way a term
becomes nodes, an unfolded clause body included.
Equalities are decided by union-find with congruence repair; integer atoms
by Gaussian elimination of the equalities, one step per atom as it arrives,
pivoting on the newest variable of least coefficient, so the store is always
in solved form (its pivots indexed by variable, so a step substitutes only
the pivots that its atom mentions, and n chained equalities cost O(n)), then
Fourier-Motzkin elimination per query, with integer sharpening of strict
bounds (sound, incomplete); a query's rows and a disequality branch's row
are solved into copies, never into the store, and no FM runs without a row.
Both combine rows by the one elimination step, `_eliminate`:
Fourier-Motzkin resolution of a lower and an upper bound on a variable is
the same nonnegative combination as substituting an equality.
The two theories exchange equalities: congruence merges of integer classes
feed the arithmetic store as they happen, and the classes the store forces
equal are merged back into the term graph (`_pinch`, which asks the store
by `_Lia.implied_equalities`).  The way back runs once per congruence
fixpoint, as Nelson and Oppen's combination needs (`_saturate`): in a
round whose unfoldings merged nothing, or that used up the PLE fuel,
`checkpoint` checks the facts and `_pinch` merges the forced classes;
saturation goes on while that merges.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd
from typing import Iterable, NamedTuple, Optional

from .syntax import (
    App, BoolLit, Con, IntLit, PAnd, PAtom, PFalse, POr, PTrue, Pred, PrimOp,
    Term, UnitLit, Var, Wild, pred_terms,
)
from .types import Sort, SortInt, TypeEnv

DEFAULT_PLE_FUEL = 100

# --------------------------------------------------------------- LIA store

Lin = tuple[dict[int, int], int]  # sum(coeffs[v] * v) + const, all integers


def _gcd_norm(coeffs: dict[int, int], const: int, rel: str) -> tuple[dict[int, int], int, str]:
    """Divide by the coefficient gcd, taken by one `math.gcd` call (0 for no
    coefficient); floor-tighten <= bounds (sound on integer-valued
    variables), flag impossible equalities."""
    g = gcd(*coeffs.values())
    if g > 1:
        if rel == "<=":
            coeffs = {v: c // g for v, c in coeffs.items()}
            const = -((-const) // g)  # ceil(const / g)
        else:
            if const % g != 0:
                return ({}, 1, "==")  # no integer solutions
            coeffs = {v: c // g for v, c in coeffs.items()}
            const //= g
    return (coeffs, const, rel)


def _combine(lc: dict[int, int], lk: int, rc: dict[int, int], rk: int, sign: int) -> Lin:
    """lhs + sign * rhs, for sign in {1, -1}."""
    coeffs = dict(lc)
    for v, c in rc.items():
        coeffs[v] = coeffs.get(v, 0) + sign * c
    return (coeffs, lk + sign * rk)


def _prim_lin(op: str, lc: dict[int, int], lk: int, rc: dict[int, int], rk: int,
              nid: int) -> Lin:
    """The linear form of the `prim` node `nid`, from its arguments' forms:
    a sum or difference combines them; a product with a constant operand
    (sorts keep `*` linear) scales the other; any other product is opaque, a
    variable of its own."""
    if op in ("+", "-"):
        return _combine(lc, lk, rc, rk, 1 if op == "+" else -1)
    if not lc:
        return ({v: c * lk for v, c in rc.items()}, rk * lk)
    if not rc:
        return ({v: c * rk for v, c in lc.items()}, lk * rk)
    return ({nid: 1}, 0)


def _substitute(coeffs: dict[int, int], const: int, var: int, a: int,
                ecoeffs: dict[int, int], econst: int) -> Lin:
    """Substitute the equality `ecoeffs + econst == 0`, whose coefficient of
    `var` is `a`, into a row that mentions `var`: |a|*row - sign(a)*b*eq,
    which is |a| times the row on the equality's points and keeps an
    inequality's direction."""
    b = coeffs[var]
    scale_r = abs(a)
    scale_e = -b if a > 0 else b
    out: dict[int, int] = {}
    for v, c in coeffs.items():
        out[v] = c * scale_r
    for v, c in ecoeffs.items():
        out[v] = out.get(v, 0) + c * scale_e
    return ({v: c for v, c in out.items() if c != 0}, const * scale_r + econst * scale_e)


def _eliminate(coeffs: dict[int, int], const: int, var: int, a: int,
               ecoeffs: dict[int, int], econst: int, rel: str) -> Lin:
    """`_substitute`, then gcd-normalised as a row of relation `rel`."""
    c2, k2, _ = _gcd_norm(*_substitute(coeffs, const, var, a, ecoeffs, econst), rel)
    return (c2, k2)


# position in pivot order, var, its coefficient a, the equality
Pivot = tuple[int, int, int, dict[int, int], int]


def _first_pivot(pivots: dict[int, Pivot], coeffs: dict[int, int]) -> Optional[Pivot]:
    """The earliest pivot whose variable the row mentions, if any."""
    first = None
    for v in coeffs:
        p = pivots.get(v)
        if p is not None and (first is None or p[0] < first[0]):
            first = p
    return first


def _reduced(pivots: dict[int, Pivot], coeffs: dict[int, int], const: int) -> tuple:
    """A linear form with the pivots substituted in order, exactly: the
    result is free of every pivot variable, since each pivot is free of the
    earlier ones.  Only the pivots whose variable the form mentions are
    looked up, earliest first; a substitution brings in only variables of
    later pivots, so this substitutes what a scan of every pivot in order
    would.  Returned as (coefficients, constant, scale) over their gcd, so
    two forms get the same key iff they agree on every point of the pivots'
    equalities."""
    scale = 1
    while pivots and (p := _first_pivot(pivots, coeffs)):
        _, var, a, ecoeffs, econst = p
        coeffs, const = _substitute(coeffs, const, var, a, ecoeffs, econst)
        scale *= abs(a)
    g = gcd(scale, const, *coeffs.values())
    return (frozenset((v, c // g) for v, c in coeffs.items()), const // g, scale // g)


class _Lia:
    """Conjunction of normalised integer linear atoms `expr REL 0` with REL
    in {'==', '<='}; strict bounds are sharpened to <= at creation.  Decided
    by Gaussian elimination of the equalities followed by Fourier-Motzkin,
    with gcd/floor tightening on every derived row (sound, incomplete).

    The atoms are kept in solved form as they arrive (`_solve`): a pivot
    sequence of equalities, each free of the earlier pivots' variables, kept
    by pivot variable in pivot order with its position, and the inequalities
    with every pivot substituted in.  Every stored atom, query row and
    disequality-branch row goes through that one step, a query's and a
    branch's on copies; a query then runs Fourier-Motzkin on the
    inequalities.  The term graph uses the store only through `add`,
    `add_diseq`, `feasible`, `entails` and `implied_equalities`."""

    ATOM_CAP = 600
    DISEQ_CAP = 5  # disequality branches explored; extras soundly dropped

    def __init__(self) -> None:
        self.has_bound = False  # some stored atom is a `<=`
        self.diseqs: list[Lin] = []  # each meaning expr != 0
        self.pivots: dict[int, Pivot] = {}  # by variable, in pivot order
        self.ineqs: list[Lin] = []
        self.consistent = True  # False once an atom made the solved form false
        self._feasible_cache: Optional[bool] = None

    def add_diseq(self, coeffs: dict[int, int], const: int) -> None:
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if not coeffs:
            if const == 0:
                self.add({}, 1, "<=")  # x != x: impossible; poison the store
            return
        self.diseqs.append((coeffs, const))
        self._feasible_cache = None

    @staticmethod
    def normalise(coeffs: dict[int, int], const: int, rel: str
                  ) -> tuple[dict[int, int], int, str]:
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if rel == "<":
            const += 1
            rel = "<="
        return _gcd_norm(coeffs, const, rel)

    def add(self, coeffs: dict[int, int], const: int, rel: str) -> None:
        atom = self.normalise(coeffs, const, rel)
        if not atom[0] and self._ground_holds(atom[1], atom[2]):
            return
        self.has_bound = self.has_bound or atom[2] == "<="
        self._feasible_cache = None
        self.consistent = self.consistent and self._solve(self.pivots, self.ineqs, atom)

    @staticmethod
    def _ground_holds(const: int, rel: str) -> bool:
        return const == 0 if rel == "==" else const <= 0

    def feasible(self, extra: tuple = ()) -> bool:
        """Whether the store, with the `extra` atoms (expr, const, rel), has
        a model.  The rows of `extra` are solved into copies of the solved
        form, made only when there are such rows; without them the
        disequality branches run on the store's own pivots and rows, which
        they only read.  The verdict with no `extra` is cached until the
        store changes."""
        if not extra and self._feasible_cache is not None:
            return self._feasible_cache
        pivots, ineqs = self.pivots, self.ineqs
        if extra:
            pivots, ineqs = dict(pivots), list(ineqs)
        result = (self.consistent
                  and all(self._solve(pivots, ineqs, self.normalise(coeffs, const, rel))
                          for coeffs, const, rel in extra)
                  and self._feasible_branches(pivots, ineqs, self.diseqs[:self.DISEQ_CAP]))
        if not extra:
            self._feasible_cache = result
        return result

    def _feasible_branches(self, pivots: dict[int, Pivot], ineqs: list[Lin], diseqs) -> bool:
        """Integer disequalities: expr != 0 splits into expr <= -1 or
        expr >= 1; the atoms are feasible if some branch assignment is.  A
        branch's row is a `<=`, so solving it only appends to the branch's
        own copy of `ineqs` and never writes `pivots`; FM never changes the
        rows it is given, and runs on none when none is left."""
        if not diseqs:
            return not ineqs or self._fm(ineqs)
        (coeffs, const), rest = diseqs[0], diseqs[1:]
        for row in (self.normalise(coeffs, const, "<"),
                    self.normalise({v: -c for v, c in coeffs.items()}, -const, "<")):
            branch = list(ineqs)
            if self._solve(pivots, branch, row) and self._feasible_branches(pivots, branch, rest):
                return True
        return False

    def entails(self, coeffs: dict[int, int], const: int, rel: str) -> bool:
        """Store |= expr REL 0, by refuting the negation."""
        neg_coeffs = {v: -c for v, c in coeffs.items()}
        if rel == "<=":
            return not self.feasible(((neg_coeffs, -const, "<"),))
        if rel == "<":
            return not self.feasible(((neg_coeffs, -const, "<="),))
        if rel == "==":
            return (not self.feasible(((coeffs, const, "<"),))
                    and not self.feasible(((neg_coeffs, -const, "<"),)))
        raise AssertionError(rel)

    def implied_equalities(self, forms: Iterable[tuple[object, Lin]]) -> list[list]:
        """The groups, of two keys or more, of the `(key, linear form)` pairs
        whose forms the store forces equal, each in the order given.  The
        store's implicit equalities are its inequality rows `r <= 0` with
        `store |= r >= 0`: one refutation per row.  With those rows solved
        in on a copy of the pivots, two forms are forced equal exactly when
        they reduce to the same key (complete over the rationals; pairs
        forced only by integer sharpening may be missed), so each form is
        reduced once and bucketed.  With no tight row the forms are reduced
        against the store's own pivots, which are not copied.  `forms` is
        read only past the equality-only exit, and with fewer than two
        forms there is no pair, so no row is refuted."""
        if not self.has_bound:
            # Equality-only stores are skipped, though their pivots alone
            # can force two classes equal (x + 1 == y + 1 forces x == y).
            # The exit is not free to remove: without it every
            # representative of the length and PLE scale files is reduced
            # each round, and even with the pivots indexed by variable the
            # scale workload ran about 10% slower (58.7 / 56.6 / 58.2 against
            # 62.7 / 64.9 / 65.9 inputs/s, seed 62, 8 s runs).
            return []
        forms = list(forms)
        if len(forms) < 2:
            return []
        # A row can be tight only if each of its variables is bounded the
        # other way by another row; otherwise moving that variable makes the
        # row strict in an integer model.
        # Without the filter a `solver_trials` pass read 740/745/770 ms, not 703/695/713.
        sides: set[tuple[int, bool]] = set()
        for coeffs, _ in self.ineqs:
            sides.update((v, c > 0) for v, c in coeffs.items())
        tight = [(coeffs, const) for coeffs, const in self.ineqs
                 if all((v, c < 0) in sides for v, c in coeffs.items())
                 and not self.feasible(((coeffs, const, "<"),))]  # store |= r >= 0
        pivots = self.pivots
        if tight:
            pivots = dict(pivots)
            for coeffs, const in tight:
                self._solve(pivots, [], (coeffs, const, "=="))
        buckets: dict[tuple, list] = {}
        for key, (coeffs, const) in forms:
            buckets.setdefault(_reduced(pivots, coeffs, const), []).append(key)
        return [keys for keys in buckets.values() if len(keys) > 1]

    @staticmethod
    def _solve(pivots: dict[int, Pivot], ineqs: list[Lin],
               atom: tuple[dict[int, int], int, str]) -> bool:
        """One Gaussian elimination step (integer-scaled), updating `pivots`
        and `ineqs` in place: the atom has the pivots it mentions substituted
        in order, as in `_reduced`; an equality that still has variables
        becomes the next pivot and is substituted into `ineqs` (rows that
        become true are dropped), an inequality is appended.  False if a row
        becomes false.  The pivot is the newest of the variables with the
        smallest coefficient, whatever the order of the row's keys."""
        coeffs, const, rel = atom
        while pivots and (p := _first_pivot(pivots, coeffs)):
            _, var, a, ecoeffs, econst = p
            coeffs, const = _eliminate(coeffs, const, var, a, ecoeffs, econst, rel)
        if not coeffs:
            return _Lia._ground_holds(const, rel)
        if rel == "<=":
            ineqs.append((coeffs, const))
            return True
        var = min(coeffs, key=lambda v: (abs(coeffs[v]), -v))
        a = coeffs[var]
        pivots[var] = (len(pivots), var, a, coeffs, const)
        rest: list[Lin] = []
        for icoeffs, iconst in ineqs:
            if var in icoeffs:
                icoeffs, iconst = _eliminate(icoeffs, iconst, var, a, coeffs, const, "<=")
                if not icoeffs:
                    if iconst > 0:
                        return False
                    continue
            rest.append((icoeffs, iconst))
        ineqs[:] = rest
        return True

    def _fm(self, ineqs: list[Lin]) -> bool:
        """Fourier-Motzkin elimination over rows `expr <= 0`."""
        while True:
            varset: set[int] = set()
            lo: dict[int, int] = defaultdict(int)  # rows bounding each variable below
            hi: dict[int, int] = defaultdict(int)
            for coeffs, _ in ineqs:
                varset.update(coeffs)
                for var2, c in coeffs.items():
                    (lo if c < 0 else hi)[var2] += 1
            if not varset:
                return True
            # eliminate the variable with the fewest lower*upper combinations
            v = min(varset, key=lambda u: lo[u] * hi[u] - lo[u] - hi[u])
            lowers, uppers, others = [], [], []
            for coeffs, const in ineqs:
                c = coeffs.get(v, 0)
                if c < 0:
                    lowers.append((coeffs, const))
                elif c > 0:
                    uppers.append((coeffs, const, c))
                else:
                    others.append((coeffs, const))
            for lc, lk in lowers:
                for uc, uk, ucv in uppers:
                    # ucv*L - L[v]*U: both multipliers positive, v cancels
                    c2, k2 = _eliminate(lc, lk, v, ucv, uc, uk, "<=")
                    if not c2:
                        if k2 > 0:
                            return False
                        continue
                    others.append((c2, k2))
            ineqs = others
            if len(ineqs) > self.ATOM_CAP:
                return True  # refuse to blow up; "feasible" is the safe answer


# ------------------------------------------------------------- term graph

class _Node(NamedTuple):
    kind: str  # var | int | bool | unit | con | app | prim
    head: object
    args: tuple[int, ...]
    is_int: bool  # the term has sort Int
    form: Optional[Lin]  # a `prim` node's linear form (see `SolverState.lin`)


# a _Node from a plain tuple, without NamedTuple's Python-level __new__
_new_tuple = tuple.__new__

_TAGGED = ("con", "int", "bool", "unit")


class SolverState:
    """Term graph + union-find + constructor tags + LIA store + instantiation
    ledger for one hypothesis set (see the module docstring for when a goal
    may reuse it)."""

    def __init__(self, env: TypeEnv, var_sorts: Optional[dict[str, Sort]] = None,
                 ple: bool = False, ple_fuel: int = DEFAULT_PLE_FUEL):
        self.env = env
        self.var_sorts = var_sorts or {}
        self.ple = ple
        self.ple_fuel = ple_fuel
        self.nodes: list[_Node] = []
        self.intern_table: dict[tuple, int] = {}
        self.term_memo: dict[int, tuple[Term, int, bool]] = {}  # see intern_term
        self.parent: list[int] = []
        self.use: dict[int, list[int]] = {}
        self.sig_table: dict[tuple, int] = {}
        self.tag: dict[int, int] = {}
        self.diseqs: list[tuple[int, int]] = []
        self.lia = _Lia()
        self.active: set[int] = set()
        self.todo: list[int] = []  # see _saturate
        self.reflect_done_keys: set[tuple] = set()
        self.contradiction = False
        self.fuel_exhausted = False
        self.stats = {"reflect": 0, "measure": 0, "merges": 0, "dropped_or": 0}

    # -- union-find -----------------------------------------------------
    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # -- node creation -----------------------------------------------------
    def _mk(self, kind: str, head, args: tuple[int, ...]) -> int:
        """The node of (kind, head, args) up to congruence: the one filed
        under the key or, failing that, under its signature (kind, head and
        argument classes; a leaf's key is its signature).  A node is made
        only if neither exists, as a `_Node` tuple, with its facts: sort Int
        by kind and head, a `prim` node's linear form (`_prim_lin`, from its
        arguments' forms, which exist already), a literal's or constructor's
        tag, and a constructor's measure applications.  It never merges."""
        key = (kind, head, args)
        intern_table = self.intern_table
        nid = intern_table.get(key)
        if nid is not None:
            return nid
        parent = self.parent
        if args:
            roots = []
            for a in args:
                while (p := parent[a]) != a:  # `find`, inline
                    parent[a] = a = parent[p]
                roots.append(a)
            sig = (kind, head, tuple(roots))
            nid = self.sig_table.get(sig)
            if nid is not None:
                intern_table[key] = nid
                return nid
        nid = intern_table[key] = len(self.nodes)
        form = None
        if kind == "var":
            is_int = isinstance(self.var_sorts.get(head), SortInt)
        elif kind == "app":
            fi = self.env.funs[head]
            is_int = isinstance(fi.result_sort, SortInt)
            if fi.is_reflected or fi.is_measure:
                self.todo.append(nid)
        elif kind == "prim":
            is_int = True
            form = _prim_lin(head, *self.lin(args[0]), *self.lin(args[1]), nid)
        else:
            is_int = kind == "int"
        self.nodes.append(_new_tuple(_Node, (kind, head, args, is_int, form)))
        parent.append(nid)
        if kind in _TAGGED:
            self.tag[nid] = nid
        if args:
            self.sig_table[sig] = nid
            use = self.use
            for r in roots:
                users = use.get(r)
                if users is None:
                    use[r] = [nid]
                else:
                    users.append(nid)
        if kind == "con":
            for m in self.env.measures_of.get(self.env.ctors[head].data_name, ()):
                self._mk("app", m, (nid,))
        return nid

    def intern_term(self, t: Term, active: bool = False,
                    subst: Optional[dict[str, int]] = None) -> int:
        """The node of `t`, created with its subterms' nodes if new; with
        `active`, every application in `t` is marked active (written, so
        unfolded outside PLE); `subst` maps variable names to nodes, as
        `_unfold` interns a clause body under its match's binding.

        Without `subst` each term object is walked at most once per active
        flag: `term_memo` keeps, by `id(t)`, the object itself (so its id is
        not reused), its node and whether that walk marked it active; an
        active lookup hits only an active entry.  This is exact, because a
        walk over an interned term only looks its nodes up.  Terms share
        their unchanged subterms (`syntax.substitute`), so lemma facts and
        chain equalities hit on the scope's objects."""
        memo = subst is None
        if memo:
            hit = self.term_memo.get(id(t))
            if hit is not None and (hit[2] or not active):
                return hit[1]
        tp = type(t)
        if tp is App or tp is Con:
            nids = []
            for a in t.args:
                nids.append(self.intern_term(a, active, subst))
            if tp is App:
                nid = self._mk("app", t.name, tuple(nids))
                if active:
                    self.active.add(nid)
            else:
                nid = self._mk("con", t.name, tuple(nids))
        elif tp is Var:
            if not memo and t.name in subst:
                return subst[t.name]
            nid = self._mk("var", t.name, ())
        elif tp is PrimOp:
            args = (self.intern_term(t.lhs, active, subst),
                    self.intern_term(t.rhs, active, subst))
            nid = self._mk("prim", t.op, args)
        elif tp is IntLit:
            nid = self._mk("int", t.value, ())
        elif tp is BoolLit:
            nid = self._mk("bool", t.value, ())
        elif tp is UnitLit:
            nid = self._mk("unit", "()", ())
        else:
            raise AssertionError(f"cannot intern {t!r}")
        if memo:
            self.term_memo[id(t)] = (t, nid, active)
        return nid

    # -- linear view -----------------------------------------------------------
    def lin(self, nid: int) -> Lin:
        """The node's linear form, looked up, never walked: a `prim` node's
        is the form `_mk` stored, a literal's its constant, and any other
        node is a variable of its own, `{nid: 1}`.  A stored form is shared
        by every caller, so none may mutate it."""
        node = self.nodes[nid]
        kind = node.kind
        if kind == "prim":
            return node.form
        if kind == "int":
            return ({}, node.head)
        return ({nid: 1}, 0)

    def _lin_diff(self, a: int, b: int) -> Lin:
        return _combine(*self.lin(a), *self.lin(b), -1)

    # -- merging ---------------------------------------------------------------
    def _merge(self, a: int, b: int) -> None:
        pending = [(a, b)]
        while pending and not self.contradiction:
            x, y = pending.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            if self.nodes[x].is_int or self.nodes[y].is_int:
                coeffs, const = self._lin_diff(x, y)
                self.lia.add(coeffs, const, "==")
            tx, ty = self.tag.get(rx), self.tag.get(ry)
            if tx is not None and ty is not None:
                nx, ny = self.nodes[tx], self.nodes[ty]
                if nx.kind != ny.kind or nx.head != ny.head:
                    self.contradiction = True
                    return
                if nx.kind == "con":
                    pending.extend(zip(nx.args, ny.args))
            # the class with the shorter use list, whose nodes are re-filed,
            # is absorbed (Downey, Sethi & Tarjan)
            if len(self.use.get(rx, ())) < len(self.use.get(ry, ())):
                rx, ry = ry, rx
            absorbed_tag = self.tag.get(ry)
            self.parent[ry] = rx
            self.stats["merges"] += 1
            if absorbed_tag is not None and rx not in self.tag:
                self.tag[rx] = absorbed_tag
            moved = self.use.pop(ry, [])
            if moved:
                self.use.setdefault(rx, []).extend(moved)
            for p in moved:
                # re-file p under its new signature, or merge it with the
                # node already filed there
                node = self.nodes[p]
                sig = (node.kind, node.head, tuple(self.find(a) for a in node.args))
                other = self.sig_table.setdefault(sig, p)
                if self.find(other) != self.find(p):
                    pending.append((p, other))

    # -- contradiction checkpoints ------------------------------------------------
    def checkpoint(self) -> None:
        if self.contradiction:
            return
        for a, b in self.diseqs:
            if self.find(a) == self.find(b):
                self.contradiction = True
                return
        if not self.lia.feasible():
            self.contradiction = True

    def _pinch(self) -> None:
        """Merge the integer classes that the LIA store forces equal, so
        congruence sees arithmetic consequences: each group that
        `_Lia.implied_equalities` finds among the linear forms of the
        classes, with users, of the integer variables and applications (a
        literal's form is a constant and a `prim` node's is made of its
        arguments').  They are found by a scan of every node in id order, a
        generator that runs only past the store's equality-only exit.

        `_saturate` calls it once per congruence fixpoint, after
        `checkpoint`, and once more after each call that merged.  A call on
        a state unchanged since the last one finds its groups already
        merged."""
        if self.contradiction:
            return

        def representatives():
            seen: set[int] = set()
            for nid, node in enumerate(self.nodes):
                if node.is_int and node.kind != "int" and node.kind != "prim":
                    r = self.find(nid)
                    if r not in seen:
                        seen.add(r)
                        if self.use.get(r):
                            yield r, self.lin(r)
        for same in self.lia.implied_equalities(representatives()):
            for r in same[1:]:
                if self.find(same[0]) != self.find(r):
                    self._merge(same[0], r)


# ------------------------------------------------------------ public API

def _oriented(st: SolverState, p: PAtom) -> tuple[int, int, str]:
    """Intern the lhs, then the rhs; `>=` and `>` become `<=` and `<` with
    the sides swapped."""
    a = st.intern_term(p.lhs)
    b = st.intern_term(p.rhs)
    if p.rel == ">=":
        return b, a, "<="
    if p.rel == ">":
        return b, a, "<"
    return a, b, p.rel


def assert_fact(st: SolverState, p: Pred) -> SolverState:
    """Add a hypothesis.  Contradiction is a state, not an error.  A clash of
    tags sets it here; the disequalities and the arithmetic store are checked
    only by `checkpoint`, which the saturation after the facts runs at every
    exit (`_saturate`)."""
    if st.contradiction:
        return st
    if isinstance(p, PTrue):
        return st
    if isinstance(p, PFalse):
        st.contradiction = True
        return st
    if isinstance(p, PAnd):
        for q in p.items:
            assert_fact(st, q)
        return st
    if isinstance(p, POr):
        st.stats["dropped_or"] += 1  # disjunctive facts are soundly ignored
        return st
    assert isinstance(p, PAtom)
    a, b, rel = _oriented(st, p)
    if rel == "==":
        st._merge(a, b)
    elif rel == "/=":
        st.diseqs.append((a, b))
        if st.nodes[a].is_int and st.nodes[b].is_int:
            coeffs, const = st._lin_diff(a, b)
            st.lia.add_diseq(coeffs, const)
    else:
        coeffs, const = st._lin_diff(a, b)
        st.lia.add(coeffs, const, rel)
    return st


def _match(st: SolverState, pat, nid: int, binding: dict[str, int]) -> str:
    """'yes' (filling `binding`), 'no', or 'unknown' when a constructor the
    pattern needs is not yet known for the class of `nid`."""
    if isinstance(pat, Var):
        binding[pat.name] = nid
        return "yes"
    if isinstance(pat, Wild):
        return "yes"
    rep = st.find(nid)
    t = st.tag.get(rep)
    if t is None:
        return "unknown"
    node = st.nodes[t]
    if isinstance(pat, (IntLit, BoolLit)):
        if node.kind != ("int" if isinstance(pat, IntLit) else "bool"):
            return "unknown"
        return "yes" if node.head == pat.value else "no"
    assert isinstance(pat, Con)
    if node.kind != "con":
        return "unknown"
    if node.head != pat.name:
        return "no"
    return _match_row(st, pat.args, node.args, binding)


def _match_row(st: SolverState, pats, nids, binding: dict[str, int]) -> str:
    """Match patterns against nodes pairwise: 'no' if any is 'no', else
    'unknown' if any is 'unknown', else 'yes'."""
    verdict = "yes"
    for pat, nid in zip(pats, nids):
        r = _match(st, pat, nid, binding)
        if r == "no":
            return "no"
        if r == "unknown":
            verdict = "unknown"
    return verdict


def _select_clause(st: SolverState, fi, arg_nids: tuple[int, ...]):
    """Walk clauses in order; select the first whose match is decided, as
    (the clause, its binding).  A clause is skipped only when provably
    non-matching; an undecided match blocks unfolding entirely."""
    for clause in fi.clauses:
        binding: dict[str, int] = {}
        verdict = _match_row(st, clause.patterns, arg_nids, binding)
        if verdict == "yes":
            return clause, binding
        if verdict == "unknown":
            return None
    return None


def _measure_clause(st: SolverState, fi, arg: int):
    """A measure application's clause and binding, read off the constructor
    that tags its argument's class: the measure's clause for that
    constructor (`FunInfo.measure_clauses`), its pattern's variables bound
    to the tag node's arguments, as `_match` binds them.  None while the
    class has no constructor tag, where `_select_clause` finds the match
    undecided."""
    t = st.tag.get(st.find(arg))
    if t is None:
        return None
    tnode = st.nodes[t]
    clause = fi.measure_clauses.get(tnode.head)  # a literal's head names none
    if clause is None:
        return None
    binding = {}
    for pat, a in zip(clause.patterns[0].args, tnode.args):
        if type(pat) is Var:
            binding[pat.name] = a
    return clause, binding


def _unfold(st: SolverState, nid: int) -> bool:
    """The one instantiation rule: equate an application of a reflected
    function or a measure with the body of its first decided clause.  Outside
    PLE a reflected application unfolds only where it was written (active);
    a measure application always does, among them those made with each
    constructor node (`SolverState._mk`).  A measure's clause is found by
    the constructor of its argument (`_measure_clause`), a reflected
    function's by matching its clauses in order (`_select_clause`).  True
    once the node is finished: it unfolded, or its head and argument classes
    did (`reflect_done_keys`), or its body is in its class; False while it
    waits: it is an inactive reflected application outside PLE, or its
    match is undecided."""
    node = st.nodes[nid]
    fi = st.env.funs[node.head]
    if fi.is_measure:
        sel = _measure_clause(st, fi, node.args[0])
    elif st.ple or nid in st.active:
        sel = _select_clause(st, fi, node.args)
    else:
        return False
    if sel is None:
        return False
    key = (node.head, tuple(st.find(a) for a in node.args))
    if key in st.reflect_done_keys:
        return True
    st.reflect_done_keys.add(key)
    clause, binding = sel
    rhs = st.intern_term(clause.body.value_term(), subst=binding)
    if st.find(nid) != st.find(rhs):
        st._merge(nid, rhs)
        st.stats["measure" if fi.is_measure else "reflect"] += 1
    return True


def _saturate(st: SolverState) -> SolverState:
    """Unfold to a fixpoint; under PLE, for at most `st.ple_fuel` rounds (so
    fuel 0 is no round, reported as `fuel_exhausted` on consistent facts).

    A round visits, in id order, the worklist `st.todo` as it stood when the
    round began: the application nodes of a reflected function or a measure
    (`_mk` queues each as it is made) that have not finished.  A
    constructor's measure applications were made with it, so no other node
    can unfold.  The round keeps exactly the nodes that `_unfold` says must
    wait; a node made during a round waits for the next, so fuel counts
    rounds.  A continued state keeps its list.

    A round whose unfoldings add no union (`stats["merges"]`) reached the
    congruence fixpoint: it made no node either, since a new node lies under
    an interned body whose new top node is then merged, and tags and
    arithmetic rows change only by facts and merges, so no waiting match can
    be decided later.  Only then, or in the round that uses up the fuel, is
    the arithmetic layer consulted: `checkpoint` checks the disequalities
    and the store, then `_pinch` merges the classes the store forces equal.
    Saturation ends when that exchange merges nothing too; otherwise the
    rounds go on.  The fuel limit, which fuel 0 meets before any round,
    runs `checkpoint` too, and sets `fuel_exhausted` only on a state it
    found consistent, so every exit leaves a checked state.  A tag clash
    sets `contradiction` before the union is counted; the loop exits on it."""
    rounds = 0
    while not st.contradiction:
        if st.ple and rounds >= st.ple_fuel:
            st.checkpoint()
            st.fuel_exhausted = st.fuel_exhausted or not st.contradiction
            break
        rounds += 1
        merges = st.stats["merges"]
        todo, st.todo = st.todo, []
        waiting = [nid for nid in todo if st.contradiction or not _unfold(st, nid)]
        st.todo = waiting + st.todo
        if st.stats["merges"] == merges or (st.ple and rounds >= st.ple_fuel):
            st.checkpoint()
            st._pinch()
            if st.stats["merges"] == merges:
                break
    return st


def instantiate_axioms(st: SolverState) -> SolverState:
    """Saturate in the state's mode: outside PLE, to a fixpoint with reflected
    applications limited to the written (active) ones."""
    return _saturate(st)


def ple_saturate(st: SolverState) -> SolverState:
    """Saturate in the state's mode: under PLE, reflected applications created
    by earlier unfoldings unfold too, for at most `st.ple_fuel` rounds."""
    return _saturate(st)


def holds(st: SolverState, p: Pred) -> bool:
    """Whether the state, saturated by `entails`, decides the goal true.  When
    every term of `p` has a node up to congruence this only reads the state:
    it creates no node, merges nothing and adds no arithmetic row, so it may
    be asked any number of goals.  It may add entries to `term_memo` and
    `intern_table`, caches that change no answer.  Outside `entails` the
    checker asks it only the goals of chain steps, whose terms their scope
    interned before the facts, and never after `entails` has extended the
    state with facts the step does not assume (see the module docstring)."""
    if st.contradiction:
        return True
    if isinstance(p, PTrue):
        return True
    if isinstance(p, PFalse):
        return False
    if isinstance(p, PAnd):
        return all(holds(st, q) for q in p.items)
    if isinstance(p, POr):
        return any(holds(st, q) for q in p.items)
    assert isinstance(p, PAtom)
    a, b, rel = _oriented(st, p)
    if rel == "==":
        if st.find(a) == st.find(b):
            return True
        if st.nodes[a].is_int and st.nodes[b].is_int:
            coeffs, const = st._lin_diff(a, b)
            return st.lia.entails(coeffs, const, "==")
        return False
    if rel == "/=":
        ta, tb = st.tag.get(st.find(a)), st.tag.get(st.find(b))
        if ta is not None and tb is not None:
            na, nb = st.nodes[ta], st.nodes[tb]
            if na.kind != nb.kind or na.head != nb.head:
                return True
        if st.nodes[a].is_int and st.nodes[b].is_int:
            coeffs, const = st._lin_diff(a, b)
            return not st.lia.feasible(((coeffs, const, "=="),))
        return False
    coeffs, const = st._lin_diff(a, b)
    return st.lia.entails(coeffs, const, rel)


def entails(st: SolverState, facts: list[Pred], goal: Pred) -> bool:
    """True only if the goal holds in every model of the facts (sound; the
    arithmetic fragment is incomplete for integers).  On a state that an
    earlier `entails` saturated, the facts are those of every call so far:
    this asserts only the new ones and saturates again with a fresh PLE
    budget, while `fuel_exhausted` stays set once any saturation ran out.
    Contradiction only grows with the facts and merges, so it is checked
    where the saturation after the last fact ends, not before it."""
    for t in pred_terms(goal):
        st.intern_term(t)
    for f in facts:
        assert_fact(st, f)
    if st.ple:
        ple_saturate(st)
    else:
        instantiate_axioms(st)
    return holds(st, goal)

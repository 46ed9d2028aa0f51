"""Sort checking for parsed modules: builds the global environment used by
every later phase and enforces the measure/annotation rules."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_

from .syntax import (
    App, BoolLit, Clause, Con, DataDecl, FunDecl, IntLit, PAtom, PAnd, PFalse,
    POr, PTrue, Pattern, Pred, PrimOp, PRELUDE_LIST, Signature, SourceModule,
    Span, Term, TypeExpr, UnitLit, Var, Wild, NO_SPAN, apps, pred_terms,
    substitute_pred, subterms,
)


class TypeCheckError(Exception):
    def __init__(self, message: str, span: Span = NO_SPAN):
        self.message = message
        self.span = span
        super().__init__(f"{span}: {message}" if span != NO_SPAN else message)


class MeasureShapeError(TypeCheckError):
    pass


class RefinementWfError(TypeCheckError):
    pass


# ----------------------------------------------------------------- sorts

@dataclass(frozen=True, slots=True)
class Sort:
    pass


@dataclass(frozen=True, slots=True)
class SortInt(Sort):
    def __str__(self) -> str:
        return "Int"


@dataclass(frozen=True, slots=True)
class SortBool(Sort):
    def __str__(self) -> str:
        return "Bool"


@dataclass(frozen=True, slots=True)
class SortProof(Sort):
    def __str__(self) -> str:
        return "Proof"


@dataclass(frozen=True, slots=True)
class SortVar(Sort):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class SortData(Sort):
    name: str
    args: tuple[Sort, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return self.name + " " + " ".join(
            f"({a})" if isinstance(a, SortData) and a.args else str(a) for a in self.args
        )

    def map_args(self, f) -> SortData:
        """This sort with `f` applied to each argument: `self` itself when
        every argument comes back as the same object, so a walk over sorts
        shares whatever it leaves unchanged."""
        args = tuple(f(a) for a in self.args)
        if all(map(is_, args, self.args)):
            return self
        return SortData(self.name, args)


@dataclass(frozen=True, slots=True)
class SortMeta(Sort):
    """Unification variable, only live inside check_types."""
    uid: int

    def __str__(self) -> str:
        return f"?{self.uid}"


INT = SortInt()
BOOL = SortBool()
PROOF = SortProof()


# ----------------------------------------------------------- environment

@dataclass
class CtorInfo:
    name: str
    data_name: str
    fields: tuple[TypeExpr, ...]
    field_sorts: tuple[Sort, ...] = ()  # over the data type's parameters

    @property
    def arity(self) -> int:
        return len(self.fields)


@dataclass
class DataInfo:
    name: str
    params: tuple[str, ...]
    ctors: tuple[CtorInfo, ...]


@dataclass
class FunInfo:
    name: str
    signature: Signature
    param_sorts: tuple[Sort, ...]
    result_sort: Sort
    tyvars: tuple[str, ...]
    clauses: tuple[Clause, ...]
    span: Span
    is_measure: bool = False
    is_reflected: bool = False
    is_ple: bool = False
    # a measure's clause for each constructor of its data type, filled by
    # the measure shape check; `logic` unfolds a measure by its argument's
    # constructor with it
    measure_clauses: dict[str, Clause] = field(default_factory=dict)

    @property
    def arity(self) -> int:
        return len(self.param_sorts)


@dataclass
class TypeEnv:
    datas: dict[str, DataInfo] = field(default_factory=dict)
    ctors: dict[str, CtorInfo] = field(default_factory=dict)
    funs: dict[str, FunInfo] = field(default_factory=dict)
    measures_of: dict[str, list[str]] = field(default_factory=dict)


def sort_of_typeexpr(te: TypeExpr, env: TypeEnv, tyvars: set[str]) -> Sort:
    if te.is_tyvar:
        if te.args:
            raise TypeCheckError(f"type variable {te.name!r} cannot take arguments", te.span)
        if te.name not in tyvars:
            raise TypeCheckError(f"type variable {te.name!r} not in scope", te.span)
        return SortVar(te.name)
    if te.name == "Int":
        base: Sort = INT
    elif te.name == "Bool":
        base = BOOL
    elif te.name == "Proof":
        base = PROOF
    else:
        info = env.datas.get(te.name)
        if info is None:
            raise TypeCheckError(f"unknown type {te.name!r}", te.span)
        if len(te.args) != len(info.params):
            raise TypeCheckError(
                f"type {te.name!r} expects {len(info.params)} argument(s), got {len(te.args)}",
                te.span,
            )
        return SortData(te.name, tuple(sort_of_typeexpr(a, env, tyvars) for a in te.args))
    if te.args:
        raise TypeCheckError(f"type {te.name!r} takes no arguments", te.span)
    return base


def subst_sort(s: Sort, mapping: dict[str, Sort]) -> Sort:
    """Replace the type variables of `s` by their images under `mapping`."""
    if isinstance(s, SortVar):
        return mapping.get(s.name, s)
    if isinstance(s, SortData) and mapping:
        return s.map_args(lambda a: subst_sort(a, mapping))
    return s


def ctor_field_sorts(ci: CtorInfo, at: Sort, env: TypeEnv) -> tuple[Sort, ...]:
    """Field sorts of constructor `ci` building a value of sort `at`; type
    parameters stay abstract unless `at` is an instance of ci's data type."""
    di = env.datas[ci.data_name]
    mapping: dict[str, Sort] = {}
    if isinstance(at, SortData) and at.name == di.name:
        mapping = dict(zip(di.params, at.args))
    return tuple(subst_sort(f, mapping) for f in ci.field_sorts)


def lemma_facts(gi: FunInfo, args: tuple[Term, ...]) -> Pred:
    """The callee's result refinement instantiated at the given arguments;
    for a Proof-sorted callee this is the theorem statement itself."""
    res = gi.signature.result
    mapping = {b: a for (b, _), a in zip(gi.signature.params, args)}
    mapping[res.binder] = App(gi.name, args)
    return substitute_pred(res.pred, mapping)


def typeexpr_tyvars(te: TypeExpr) -> list[str]:
    out: list[str] = []
    if te.is_tyvar:
        out.append(te.name)
    for a in te.args:
        out.extend(typeexpr_tyvars(a))
    return out


def signature_tyvars(sig: Signature) -> tuple[str, ...]:
    seen: list[str] = []
    for _, b in sig.params:
        for v in typeexpr_tyvars(b.ty):
            if v not in seen:
                seen.append(v)
    for v in typeexpr_tyvars(sig.result.ty):
        if v not in seen:
            seen.append(v)
    return tuple(seen)


# ----------------------------------------------------------- unification

class _Unifier:
    """Unification over a triangular substitution: a meta may be bound to a
    sort that mentions other bound metas, so `unify` and `occurs` look one
    level deep at a time with `walk`, and only a caller that needs a whole
    sort (an error message) pays for `resolve`."""

    def __init__(self):
        self.subst: dict[int, Sort] = {}
        self.counter = 0

    def fresh(self) -> SortMeta:
        self.counter += 1
        return SortMeta(self.counter)

    def walk(self, s: Sort) -> Sort:
        """`s` with the chain of bound metas at its top followed: an unbound
        meta or a sort that is not a meta.  A data sort's arguments are left
        as they are, still mentioning whatever metas they mention."""
        while isinstance(s, SortMeta) and s.uid in self.subst:
            s = self.subst[s.uid]
        return s

    def resolve(self, s: Sort) -> Sort:
        """`s` with every bound meta replaced, at every depth."""
        s = self.walk(s)
        if isinstance(s, SortData):
            return s.map_args(self.resolve)
        return s

    def occurs(self, uid: int, s: Sort) -> bool:
        s = self.walk(s)
        if isinstance(s, SortMeta):
            return s.uid == uid
        if isinstance(s, SortData):
            return any(self.occurs(uid, a) for a in s.args)
        return False

    def unify(self, a: Sort, b: Sort, span: Span, what: str = "") -> None:
        a, b = self.walk(a), self.walk(b)
        if isinstance(a, SortMeta):
            if isinstance(b, SortMeta) and b.uid == a.uid:
                return
            if self.occurs(a.uid, b):
                raise TypeCheckError("cannot construct infinite sort", span)
            self.subst[a.uid] = b
            return
        if isinstance(b, SortMeta):
            self.unify(b, a, span, what)
            return
        if isinstance(a, SortData) and isinstance(b, SortData) and a.name == b.name:
            for x, y in zip(a.args, b.args):
                self.unify(x, y, span, what)
            return
        if type(a) is type(b) and not isinstance(a, (SortData, SortVar)):
            return
        if isinstance(a, SortVar) and isinstance(b, SortVar) and a.name == b.name:
            return
        prefix = f"{what}: " if what else ""
        raise TypeCheckError(
            f"{prefix}expected sort {self.resolve(a)}, found {self.resolve(b)}", span)


# -------------------------------------------------------------- checking

class _ModuleChecker:
    def __init__(self, module: SourceModule):
        self.module = module
        self.env = TypeEnv()
        self.uni = _Unifier()

    # -- pass 1: data declarations --------------------------------------
    def collect_datas(self) -> None:
        decls = [PRELUDE_LIST, *self.module.decls]
        for d in decls:
            if not isinstance(d, DataDecl):
                continue
            if d.name in self.env.datas or d.name in ("Int", "Bool", "Proof"):
                raise TypeCheckError(f"type {d.name!r} redeclared", d.span)
            if len(set(d.params)) != len(d.params):
                raise TypeCheckError(f"duplicate type parameter in {d.name!r}", d.span)
            ctors = []
            for c in d.ctors:
                if c.name in self.env.ctors:
                    raise TypeCheckError(f"constructor {c.name!r} redeclared", c.span)
                info = CtorInfo(c.name, d.name, c.fields)
                ctors.append(info)
                self.env.ctors[c.name] = info
            self.env.datas[d.name] = DataInfo(d.name, d.params, tuple(ctors))
        # convert (and so validate) field types once all data names are known
        for di in self.env.datas.values():
            for ci in di.ctors:
                ci.field_sorts = tuple(sort_of_typeexpr(f, self.env, set(di.params))
                                       for f in ci.fields)

    # -- pass 2: signatures ----------------------------------------------
    def collect_signatures(self) -> None:
        for d in self.module.decls:
            if not isinstance(d, FunDecl):
                continue
            if d.name in self.env.funs:
                raise TypeCheckError(f"function {d.name!r} redeclared", d.span)
            sig = d.signature
            if not sig.params:
                raise TypeCheckError(
                    f"{d.name!r}: zero-argument functions are not supported", d.span)
            tyvars = signature_tyvars(sig)
            tvset = set(tyvars)
            param_sorts = tuple(sort_of_typeexpr(b.ty, self.env, tvset) for _, b in sig.params)
            result_sort = sort_of_typeexpr(sig.result.ty, self.env, tvset)
            names = [n for n, _ in sig.params]
            if len(set(names)) != len(names):
                raise TypeCheckError(f"{d.name!r}: duplicate argument binder", d.span)
            self.env.funs[d.name] = FunInfo(
                name=d.name, signature=sig, param_sorts=param_sorts,
                result_sort=result_sort, tyvars=tyvars, clauses=d.clauses, span=d.span,
            )

    # -- pass 3: annotations -----------------------------------------------
    def apply_annotations(self) -> None:
        seen: set[tuple[str, str]] = set()
        for a in self.module.annotations:
            if a.target not in self.env.funs:
                raise TypeCheckError(
                    f"annotation {a.kind!r} names undeclared function {a.target!r}", a.span)
            if (a.kind, a.target) in seen:
                raise TypeCheckError(f"duplicate annotation {a.kind} {a.target}", a.span)
            seen.add((a.kind, a.target))
            fi = self.env.funs[a.target]
            if a.kind == "measure":
                fi.is_measure = True
            elif a.kind == "reflect":
                fi.is_reflected = True
            else:
                fi.is_ple = True
        for fi in self.env.funs.values():
            if fi.is_measure and fi.is_reflected:
                raise TypeCheckError(
                    f"{fi.name!r} cannot be both a measure and reflected", fi.span)

    # -- term / predicate inference -------------------------------------------
    def infer_term(self, t: Term, venv: dict[str, Sort]) -> Sort:
        if isinstance(t, Var):
            s = venv.get(t.name)
            if s is None:
                if t.name in self.env.funs:
                    raise TypeCheckError(
                        f"function {t.name!r} must be fully applied", t.span)
                raise TypeCheckError(f"unbound variable {t.name!r}", t.span)
            return s
        if isinstance(t, IntLit):
            return INT
        if isinstance(t, BoolLit):
            return BOOL
        if isinstance(t, UnitLit):
            return PROOF
        if isinstance(t, Con):
            ci = self.env.ctors.get(t.name)
            if ci is None:
                raise TypeCheckError(f"unknown constructor {t.name!r}", t.span)
            if len(t.args) != ci.arity:
                raise TypeCheckError(
                    f"constructor {t.name!r} expects {ci.arity} argument(s), "
                    f"got {len(t.args)}", t.span)
            di = self.env.datas[ci.data_name]
            at = SortData(di.name, tuple(self.uni.fresh() for _ in di.params))
            for arg, want in zip(t.args, ctor_field_sorts(ci, at, self.env)):
                got = self.infer_term(arg, venv)
                self.uni.unify(want, got, arg.span, f"argument of {t.name}")
            return at
        if isinstance(t, App):
            fi = self.env.funs.get(t.name)
            if fi is None:
                raise TypeCheckError(f"unknown function {t.name!r}", t.span)
            if len(t.args) != fi.arity:
                raise TypeCheckError(
                    f"{t.name!r} expects {fi.arity} argument(s), got {len(t.args)} "
                    "(partial application is not allowed)", t.span)
            mapping = {v: self.uni.fresh() for v in fi.tyvars}
            for arg, want in zip(t.args, fi.param_sorts):
                got = self.infer_term(arg, venv)
                self.uni.unify(subst_sort(want, mapping), got, arg.span,
                               f"argument of {t.name}")
            return subst_sort(fi.result_sort, mapping)
        if isinstance(t, PrimOp):
            if t.op == "*" and not (isinstance(t.lhs, IntLit) or isinstance(t.rhs, IntLit)):
                raise TypeCheckError(
                    "multiplication requires a literal operand (linear arithmetic only)",
                    t.span)
            for side in (t.lhs, t.rhs):
                got = self.infer_term(side, venv)
                self.uni.unify(INT, got, side.span, f"operand of {t.op}")
            return INT
        raise TypeCheckError(f"internal: unexpected term {t!r}", t.span)

    def check_pred(self, p: Pred, venv: dict[str, Sort]) -> None:
        if isinstance(p, (PTrue, PFalse)):
            return
        if isinstance(p, PAtom):
            ls = self.infer_term(p.lhs, venv)
            rs = self.infer_term(p.rhs, venv)
            self.uni.unify(ls, rs, p.span, f"operands of {p.rel}")
            if p.rel in ("<=", "<", ">=", ">"):
                self.uni.unify(INT, ls, p.span, f"operand of {p.rel}")
            return
        if isinstance(p, (PAnd, POr)):
            for q in p.items:
                self.check_pred(q, venv)
            return
        raise TypeCheckError(f"internal: unexpected predicate {p!r}", p.span)

    # -- patterns ------------------------------------------------------------
    def check_pattern(self, pat: Pattern, sort: Sort, venv: dict[str, Sort]) -> None:
        if isinstance(pat, Var):
            venv[pat.name] = sort
            return
        if isinstance(pat, Wild):
            return
        if isinstance(pat, IntLit):
            self.uni.unify(INT, sort, pat.span, "integer pattern")
            return
        if isinstance(pat, BoolLit):
            self.uni.unify(BOOL, sort, pat.span, "boolean pattern")
            return
        assert isinstance(pat, Con)
        ci = self.env.ctors.get(pat.name)
        if ci is None:
            raise TypeCheckError(f"unknown constructor {pat.name!r} in pattern", pat.span)
        if len(pat.args) != ci.arity:
            raise TypeCheckError(
                f"constructor {pat.name!r} expects {ci.arity} sub-pattern(s), "
                f"got {len(pat.args)}", pat.span)
        di = self.env.datas[ci.data_name]
        at = SortData(di.name, tuple(self.uni.fresh() for _ in di.params))
        self.uni.unify(at, sort, pat.span, f"pattern {pat.name}")
        for sub, want in zip(pat.args, ctor_field_sorts(ci, at, self.env)):
            self.check_pattern(sub, want, venv)

    # -- signatures and clauses ------------------------------------------------
    def check_signature(self, fi: FunInfo) -> None:
        sig = fi.signature
        venv: dict[str, Sort] = {}
        for (name, base), sort in zip(sig.params, fi.param_sorts):
            scoped = dict(venv)
            scoped[base.binder] = sort
            self.check_pred(base.pred, scoped)
            venv[name] = sort
        scoped = dict(venv)
        scoped[sig.result.binder] = fi.result_sort
        self.check_pred(sig.result.pred, scoped)
        if sig.metric is not None:
            for m in sig.metric:
                got = self.infer_term(m, venv)
                self.uni.unify(INT, got, m.span, "termination metric")

    def check_clause(self, fi: FunInfo, clause: Clause) -> None:
        if len(clause.patterns) != fi.arity:
            raise TypeCheckError(
                f"clause for {fi.name!r} has {len(clause.patterns)} pattern(s), "
                f"signature has {fi.arity}", clause.span)
        venv: dict[str, Sort] = {}
        for pat, sort in zip(clause.patterns, fi.param_sorts):
            self.check_pattern(pat, sort, venv)
        body = clause.body
        if body.plain:
            head = body.links[0].rhs
            got = self.infer_term(head, venv)
            self.uni.unify(fi.result_sort, got, head.span, f"body of {fi.name}")
        else:
            chain_sort: Sort = self.uni.fresh()
            for link in body.links:
                got = self.infer_term(link.rhs, venv)
                self.uni.unify(chain_sort, got, link.rhs.span, "equational step")
            for h in (h for link in body.links for h in link.hints):
                got = self.infer_term(h, venv)
                self.uni.unify(PROOF, got, h.span, "proof hint")
            if body.qed:
                self.uni.unify(PROOF, fi.result_sort, body.span,
                               f"body of {fi.name} (chains ending in QED are proofs)")
            else:
                self.uni.unify(fi.result_sort, chain_sort, body.span,
                               f"body of {fi.name}")

    # -- measure shape (one ADT argument, one shallow clause per constructor,
    # -- body built from primitives and measures only) -----------------------
    def check_measure_shape(self, fi: FunInfo) -> None:
        def bad(msg: str, span: Span):
            raise MeasureShapeError(f"measure {fi.name!r}: {msg}", span)

        if fi.arity != 1:
            bad(f"takes {fi.arity} arguments, measures take exactly one", fi.span)
        psort = fi.param_sorts[0]
        if not isinstance(psort, SortData):
            bad("argument must be an algebraic data type", fi.span)
        data = self.env.datas[psort.name]
        covered: dict[str, Clause] = {}
        for c in fi.clauses:
            pat = c.patterns[0]
            if not isinstance(pat, Con):
                bad("each clause must match a single constructor", c.span)
            assert isinstance(pat, Con)
            if any(not isinstance(sub, (Var, Wild)) for sub in pat.args):
                bad("constructor patterns must be shallow", c.span)
            if pat.name in covered:
                bad(f"duplicate clause for constructor {pat.name!r}", c.span)
            covered[pat.name] = c
            if not c.body.plain:
                bad("measure bodies must be plain terms", c.span)
            for sub in subterms(c.body.value_term()):
                if isinstance(sub, App) and not self.env.funs[sub.name].is_measure:
                    bad(f"body may call only primitives and measures, not {sub.name!r}",
                        sub.span)
                if isinstance(sub, Con):
                    bad("body may not build constructor values", sub.span)
        for ci in data.ctors:
            if ci.name not in covered:
                bad(f"no clause for constructor {ci.name!r}", fi.span)
        fi.measure_clauses = covered

    def run(self) -> TypeEnv:
        self.collect_datas()
        self.collect_signatures()
        self.apply_annotations()
        for fi in self.env.funs.values():
            self.check_signature(fi)
        for fi in self.env.funs.values():
            for c in fi.clauses:
                self.check_clause(fi, c)
        for fi in self.env.funs.values():
            if fi.is_measure:
                self.check_measure_shape(fi)
                data_name = fi.param_sorts[0].name  # type: ignore[union-attr]
                self.env.measures_of.setdefault(data_name, []).append(fi.name)
            if fi.is_ple and not (
                isinstance(fi.result_sort, SortProof) or fi.signature.result.refined
                or any(b.refined for _, b in fi.signature.params)
            ):
                raise TypeCheckError(
                    f"'ple {fi.name}' has no effect: {fi.name!r} has nothing to check",
                    fi.span)
        return self.env


def check_types(module: SourceModule) -> TypeEnv:
    """Sort-check a parsed module and build the environment."""
    return _ModuleChecker(module).run()


def check_refinement_wf(env: TypeEnv) -> None:
    """Only lifted names (measures and reflected functions) may appear inside
    refinement predicates or termination metrics."""
    for fi in env.funs.values():
        sig = fi.signature
        scopes = [("argument refinement", pred_terms(b.pred)) for _, b in sig.params]
        scopes.append(("refinement", pred_terms(sig.result.pred)))
        scopes.append(("termination metric", sig.metric or ()))
        for where, terms in scopes:
            for sub in apps(terms):
                gi = env.funs[sub.name]
                if not (gi.is_measure or gi.is_reflected):
                    raise RefinementWfError(
                        f"{where} of {fi.name!r} mentions {sub.name!r}, which is neither "
                        "a measure nor reflected", sub.span)

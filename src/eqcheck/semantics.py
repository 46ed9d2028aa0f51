"""Strict reference evaluator and bounded value enumerator.

Values are plain Python data for speed: Python ints and bools, None for the
unit/Proof value, and tuples ("CtorName", v1, ..., vk) for constructor values.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Union

from .syntax import (
    App, BoolLit, Con, IntLit, Pattern, PrimOp, Term, UnitLit, Var, Wild,
    allow_deep_recursion,
)
from .types import (
    Sort, SortBool, SortData, SortInt, SortProof, SortVar, TypeEnv, ctor_field_sorts,
)

Value = Union[int, bool, None, tuple]

DEFAULT_FUEL = 10**6


class EvalError(Exception):
    pass


class FuelExhausted(EvalError):
    def __init__(self):
        super().__init__("evaluation fuel exhausted")


class MatchFailure(EvalError):
    def __init__(self, fname: str, args: tuple[Value, ...]):
        self.fname = fname
        self.args = args
        super().__init__(f"no clause of {fname!r} matches {args!r}")


class UnsupportedSort(EvalError):
    pass


class Fuel:
    """Unfolding budget, decremented once per function application."""

    __slots__ = ("remaining",)

    def __init__(self, steps: int = DEFAULT_FUEL):
        self.remaining = steps


def match_pattern(pat: Pattern, value: Value, binding: dict[str, Value]) -> bool:
    kind = type(pat)
    if kind is Var:
        binding[pat.name] = value
        return True
    if kind is Con:
        if type(value) is not tuple or value[0] != pat.name:
            return False
        i = 1
        for sub in pat.args:
            if not match_pattern(sub, value[i], binding):
                return False
            i += 1
        return True
    if kind is Wild:
        return True
    if kind is IntLit:
        return value == pat.value and not isinstance(value, bool)
    return isinstance(value, bool) and value == pat.value


def evaluate(env: TypeEnv, t: Term, fuel: Fuel | None = None,
             binding: dict[str, Value] | None = None) -> Value:
    """Evaluate a closed, well-sorted term. Strict; first matching clause wins.

    Chain bodies follow the proof-combinator semantics: `a ==. b` evaluates
    both sides and yields b, `x ? p` evaluates both and yields x, and
    `x *** QED` yields the unit value.
    """
    if fuel is None:
        fuel = Fuel()
    if binding is None:
        binding = {}
    allow_deep_recursion()
    try:
        return _eval(env, t, fuel, binding)
    except RecursionError:
        raise EvalError("evaluation nested too deeply") from None


def _eval(env: TypeEnv, t: Term, fuel: Fuel, binding: dict[str, Value]) -> Value:
    kind = type(t)
    if kind is Var:
        try:
            return binding[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r} during evaluation") from None
    if kind is Con:
        out = [t.name]
        for a in t.args:
            out.append(_eval(env, a, fuel, binding))
        return tuple(out)
    if kind is App:
        vals = tuple(_eval(env, a, fuel, binding) for a in t.args)
        return apply_function(env, t.name, vals, fuel)
    if kind is IntLit or kind is BoolLit:
        return t.value
    if kind is PrimOp:
        lhs = _eval(env, t.lhs, fuel, binding)
        rhs = _eval(env, t.rhs, fuel, binding)
        if t.op == "+":
            return lhs + rhs
        if t.op == "-":
            return lhs - rhs
        return lhs * rhs
    if kind is UnitLit:
        return None
    raise EvalError(f"cannot evaluate {t!r}")


def apply_function(env: TypeEnv, fname: str, args: tuple[Value, ...], fuel: Fuel) -> Value:
    fi = env.funs[fname]
    fuel.remaining -= 1
    if fuel.remaining < 0:
        raise FuelExhausted()
    for clause in fi.clauses:
        local: dict[str, Value] = {}
        matched = True
        for p, v in zip(clause.patterns, args):
            if not match_pattern(p, v, local):
                matched = False
                break
        if not matched:
            continue
        body = clause.body
        for link in body.links:
            value = _eval(env, link.rhs, fuel, local)
            for h in link.hints:
                _eval(env, h, fuel, local)
        return None if body.qed else value
    raise MatchFailure(fname, args)


def value_to_term(v: Value) -> Term:
    """Inverse of evaluate on ground constructor/literal values."""
    if isinstance(v, bool):
        return BoolLit(v)
    if isinstance(v, int):
        return IntLit(v)
    if v is None:
        return UnitLit()
    assert isinstance(v, tuple)
    return Con(v[0], tuple(value_to_term(a) for a in v[1:]))


# ------------------------------------------------------------ enumeration

def enumerate_values(env: TypeEnv, sort: Sort, size: int,
                     ints: Iterable[int] = (0, 1)) -> list[Value]:
    """All values of `sort` whose non-nullary constructor count is at most
    `size`, in a fixed order without duplicates.  Int leaves range over
    `ints`; Bool is [false, true]."""
    ints = tuple(ints)
    memo: dict[tuple[str, int], list[Value]] = {}

    def exact(s: Sort, w: int) -> list[Value]:
        if isinstance(s, SortInt):
            return [i for i in ints] if w == 0 else []
        if isinstance(s, SortBool):
            return [False, True] if w == 0 else []
        if isinstance(s, (SortProof, SortVar)):
            raise UnsupportedSort(f"cannot enumerate values of sort {s}")
        assert isinstance(s, SortData)
        k = (str(s), w)
        if k in memo:
            return memo[k]
        out: list[Value] = []
        for ci in env.datas[s.name].ctors:
            field_sorts = ctor_field_sorts(ci, s, env)
            if ci.arity == 0:
                if w == 0:
                    out.append((ci.name,))
                continue
            if w < 1:
                continue
            for split in _compositions(w - 1, ci.arity):
                parts = [exact(fs, wi) for fs, wi in zip(field_sorts, split)]
                if any(not p for p in parts):
                    continue
                out.extend(_products(ci.name, parts))
        memo[k] = out
        return out

    result: list[Value] = []
    for w in range(size + 1):
        result.extend(exact(sort, w))
    return result


def _compositions(total: int, parts: int):
    """All ways to write `total` as an ordered sum of `parts` nonnegative
    ints, first component ascending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _products(cname: str, parts: list[list[Value]]):
    for combo in itertools.product(*parts):
        yield (cname, *combo)

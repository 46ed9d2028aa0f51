import sys

import pytest
from hypothesis import given, strategies as st

from eqcheck.semantics import (
    Fuel, FuelExhausted, MatchFailure, UnsupportedSort, enumerate_values,
    evaluate, value_to_term,
)
from eqcheck.syntax import App
from eqcheck.types import BOOL, INT, PROOF, SortData, SortVar

from conftest import LIST_BASICS, corpus_text, env_of, term


def list_value(*items):
    out = ("Nil",)
    for x in reversed(items):
        out = ("Cons", x, out)
    return out


def test_reverse_on_sample(list_env):
    # oracle: unfolding the definition by hand gives [3,2,1]
    assert evaluate(list_env, term("reverse [1, 2, 3]")) == list_value(3, 2, 1)


def test_reverse_matches_python_reversal(list_env):
    vals = enumerate_values(list_env, SortData("List", (INT,)), 4, ints=(0, 1, 2))
    for v in vals:
        items = []
        w = v
        while w[0] == "Cons":
            items.append(w[1])
            w = w[2]
        got = evaluate(list_env, App("reverse", (value_to_term(v),)))
        assert got == list_value(*reversed(items))


def test_reverse_empty(list_env):
    assert evaluate(list_env, term("reverse []")) == ("Nil",)


def test_compiled_addition():
    env = env_of(corpus_text("section5.eq"))
    got = evaluate(env, term("exec (comp (Add (Val 1) (Val 2))) []"))
    assert got == ("Just", list_value(3))


def test_chain_body_evaluates_to_last_rhs():
    env = env_of(corpus_text("section4.eq"))
    got = evaluate(env, term("reverseApp [1, 2] [9]"))
    assert got == list_value(2, 1, 9)


def test_qed_chain_evaluates_to_unit():
    env = env_of(corpus_text("section2.eq"))
    assert evaluate(env, term("singletonP 5")) is None


def test_evaluate_deterministic(list_env):
    t = term("reverse (append [1, 2] [3])")
    assert evaluate(list_env, t) == evaluate(list_env, t)


def test_fuel_exhaustion():
    env = env_of("spin : x:Int -> Int\nspin x = spin x\n")
    with pytest.raises(FuelExhausted):
        evaluate(env, term("spin 0"), Fuel(1000))


def test_fuel_exhaustion_from_default_recursion_limit():
    """evaluate raises the recursion limit itself: fuel, not depth, still ends
    the run when no check has raised it first."""
    env = env_of("spin : x:Int -> Int\nspin x = spin x\n")
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(FuelExhausted):
            evaluate(env, term("spin 0"), Fuel(1000))
    finally:
        sys.setrecursionlimit(old)


def test_match_failure_on_nontotal():
    env = env_of("hd : xs:(List Int) -> Int\nhd (x:_) = x\n")
    with pytest.raises(MatchFailure):
        evaluate(env, term("hd []"))


def test_enumerate_bools(list_env):
    assert enumerate_values(list_env, BOOL, 7) == [False, True]


def test_enumerate_list_int_size2(list_env):
    got = enumerate_values(list_env, SortData("List", (INT,)), 2, ints=(0, 1))
    assert got == [
        ("Nil",),
        list_value(0), list_value(1),
        list_value(0, 0), list_value(0, 1), list_value(1, 0), list_value(1, 1),
    ]


def test_enumerate_expr_size3():
    env = env_of(corpus_text("section5.eq"))
    got = enumerate_values(env, SortData("Expr", ()), 3, ints=(0,))
    assert got == [("Val", 0), ("Add", ("Val", 0), ("Val", 0))]


def test_enumerate_no_duplicates():
    env = env_of(corpus_text("section5.eq"))
    got = enumerate_values(env, SortData("List", (SortData("Op", ()),)), 4, ints=(0, 1))
    assert len(got) == len(set(got))


@given(st.integers(min_value=0, max_value=6))
def test_enumerate_list_bool_count(n):
    env = env_of(LIST_BASICS)
    vals = enumerate_values(env, SortData("List", (BOOL,)), n)
    assert len(vals) == 2 ** (n + 1) - 1


@pytest.mark.parametrize("sort", [PROOF, SortVar("a")])
def test_enumerate_unsupported(list_env, sort):
    with pytest.raises(UnsupportedSort):
        enumerate_values(list_env, sort, 3)

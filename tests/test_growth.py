"""Growth laws: work counted at a size n and at 2n, never timed, so each law
holds on any host.  One case per input family of the benchmark's `scale`
workload; each checks the family's true instance through `check_module` and
counts the solver states it builds, their nodes and `stats`, the calls of
`logic._unfold` and of `logic._select_clause`, the arithmetic row
substitutions (`logic._substitute` calls), the Fourier-Motzkin runs
(`_Lia._fm` calls), and the `entails` calls and the exchanges with the
arithmetic layer they make (`SolverState.checkpoint` and `_pinch` calls).
Saturation visits only the applications that can still unfold, so `_unfold`
calls stay within a small multiple of the instances made.  The `sum` family
is not one of `scale`'s; its law counts FM runs for ROADMAP item 17.

Run as a script, the file checks the PLE `reverse` laws at n=8 -> 16 and the
`sum` law at n=4 -> 8, or with `--large` at n=30 -> 60 with PLE fuel 400 and
at n=8 -> 16, where superlinear work shows that the small sizes hide; it
prints the ratios and counts and exits 1 if a bound fails:

    PYTHONPATH=src python tests/test_growth.py [--large]
"""

from __future__ import annotations

import argparse
from collections import Counter

import pytest

from eqcheck import checker, logic
from eqcheck.checker import CheckConfig, check_module
from eqcheck.logic import DEFAULT_PLE_FUEL, SolverState

from conftest import LIST_BASICS
from oracles import record_states

# the `length` measure alone, as the literal family declares it
LENGTH = LIST_BASICS.split("\n\nreflect append")[0] + "\n"


def _length_literal(n: int) -> str:
    xs = [i % 10 for i in range(n)]
    return LENGTH + f"\nlenLit : u:Int -> {{v:Proof | length {xs} == {n}}}\nlenLit u = ()\n"


def _ple_reverse(n: int) -> str:
    xs = list(range(n))
    return (LIST_BASICS + "\nple revLit\n"
            f"revLit : u:Int -> {{v:Proof | reverse {xs} == {xs[::-1]}}}\nrevLit u = ()\n")


def _plus_one_chain(n: int) -> str:
    return f"chain : x:Int -> {{v:Int | v == x + {n}}}\nchain x = x" + " + 1" * n + "\n"


def _sum(n: int, bound: int) -> str:
    """The `sum` family: n `Int` arguments with `0 <= x_i` and
    `x_j + x_i <= 10 + i + j`, whose sum is claimed to be at most `bound`.
    The claim is true exactly when `bound >= sum_max(n)`."""
    params = []
    for i in range(n):
        conj = ["0 <= v", *(f"x{j} + v <= {10 + i + j}" for j in range(i))]
        params.append(f"x{i}:{{v:Int | {' && '.join(conj)}}}")
    xs = [f"x{i}" for i in range(n)]
    return (f"f : {' -> '.join(params)} -> {{v:Int | v <= {bound}}}\n"
            f"f {' '.join(xs)} = {' + '.join(xs)}\n")


def sum_max(n: int) -> int:
    """The largest sum: adding every pairwise bound gives it, and
    x_i = 5 + i attains it."""
    return 5 * n + n * (n - 1) // 2


def work(source: str, ple_fuel: int = DEFAULT_PLE_FUEL,
         proved: bool = True) -> tuple[list[SolverState], Counter]:
    """Check the source, with `proved` assert that every obligation is
    proved, and return the solver states built and the calls counted by
    function name; "_pinch merged" counts the `_pinch` calls that merged."""
    calls = Counter()

    def counting(fn):
        def counted(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return counted

    real_pinch = SolverState._pinch

    def pinch(st):
        calls["_pinch"] += 1
        merges = st.stats["merges"]
        real_pinch(st)
        calls["_pinch merged"] += st.stats["merges"] != merges

    with pytest.MonkeyPatch.context() as m:
        states = record_states(m)
        for owner, name in ((logic, "_unfold"), (logic, "_select_clause"),
                            (logic, "_substitute"), (logic._Lia, "_fm"),
                            (checker, "entails"), (SolverState, "checkpoint")):
            m.setattr(owner, name, counting(getattr(owner, name)))
        m.setattr(SolverState, "_pinch", pinch)
        report = check_module(source, CheckConfig(ple_fuel=ple_fuel), file="growth.eq")
    assert report.verdicts
    assert not proved or all(v.proved for v in report.verdicts)
    return states, calls


def assert_unfolds_within_instances(states: list[SolverState], calls: Counter) -> None:
    """At most 2 `_unfold` calls per instance made (`reflect` + `measure`):
    an application is visited again only while its match is undecided.  A
    scan of every application node in every round made this 22x on PLE
    `reverse` at n=16 and 2.01x on the `length` literal."""
    instances = sum(s.stats["reflect"] + s.stats["measure"] for s in states)
    assert calls["_unfold"] <= 2 * instances, (calls["_unfold"], instances)


# PLE `reverse` at n and 2n: (n, PLE fuel, the most `_unfold` calls may grow,
# the most `_substitute` calls may grow).  The family's term count is
# quadratic in n, so instances grow about 4x per doubling, and `_unfold`
# follows them (ROADMAP item 8's gate is 4.5x at the large sizes).  A scan of
# every application node in every round, over about 3n rounds, made it 5.48x
# at n=8 and 6.82x at n=30.  `_substitute` guards the LIA pivot rule:
# pivoting on the first variable in a row's key order, not the newest, made
# it 135 -> 1099 at n=8 (8.1x).
REVERSE_LAWS = {
    # 171 -> 579 `_unfold` calls (3.39x), 134 -> 578 `_substitute` (4.31x)
    "default": (8, DEFAULT_PLE_FUEL, 3.6, 4.5),
    # 1909 -> 7399 `_unfold` calls (3.88x), 2125 -> 8740 `_substitute`
    # (4.11x)
    "large": (30, 400, 4.5, 4.12),
}


def ple_reverse_ratios(law: str) -> tuple[float, float]:
    """The growth of `_unfold` and of `_substitute` calls over the law's
    doubling of PLE `reverse`, each asserted within the law's bound, with
    `_unfold` calls within twice the instances at both sizes."""
    n, fuel, unfold_bound, substitute_bound = REVERSE_LAWS[law]
    small_states, small = work(_ple_reverse(n), fuel)
    large_states, large = work(_ple_reverse(2 * n), fuel)
    assert_unfolds_within_instances(small_states, small)
    assert_unfolds_within_instances(large_states, large)
    unfold = large["_unfold"] / small["_unfold"]
    substitute = large["_substitute"] / small["_substitute"]
    assert unfold <= unfold_bound, (law, unfold)
    assert substitute <= substitute_bound, (law, substitute)
    return unfold, substitute


def ple_reverse_exchanges(law: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """The `_pinch` and `checkpoint` calls of PLE `reverse` at the law's n and
    2n, each asserted at most one per `entails` plus one per `_pinch` call
    that merged: the exchange with the arithmetic layer runs once per
    congruence fixpoint, not once per unfolding round.  Once per round made
    it 32 -> 56 `_pinch` calls at n=8 -> 16 and 98 -> 188 at n=30 -> 60."""
    n, fuel, _, _ = REVERSE_LAWS[law]
    pinches, checkpoints = [], []
    for size in (n, 2 * n):
        _, calls = work(_ple_reverse(size), fuel)
        allowed = calls["entails"] + calls["_pinch merged"]
        assert calls["_pinch"] <= allowed, (law, size, calls["_pinch"], allowed)
        assert calls["checkpoint"] <= allowed, (law, size, calls["checkpoint"], allowed)
        pinches.append(calls["_pinch"])
        checkpoints.append(calls["checkpoint"])
    return (pinches[0], pinches[1]), (checkpoints[0], checkpoints[1])


# `sum` at n and 2n: (n, whether the true instances must prove).  Its one
# obligation runs FM once to check the facts, at the congruence fixpoint,
# once per inequality row in `_pinch`'s test for implied equalities (n(n+1)/2
# rows) and once for the goal, so at most n(n+1)/2 + 2 times: 12 at n=4, 38
# at 8 and 138 at 16.
# Checking the store after each asserted fact made it 21, 73 and 273.  From
# n=9 on the true instance fails, because FM passes `ATOM_CAP`, so the
# `large` law only counts.  ROADMAP item 17's target runs no FM at all: a
# simplex replaces it, and its PR counts pivots here instead.
SUM_LAWS = {"default": (4, True), "large": (8, False)}


def sum_fm_runs(law: str) -> tuple[int, int]:
    """The FM runs of the law's true `sum` instances at n and 2n, each
    asserted within n(n+1)/2 + 2."""
    n, proved = SUM_LAWS[law]
    runs = []
    for size in (n, 2 * n):
        _, calls = work(_sum(size, sum_max(size)), proved=proved)
        assert calls["_fm"] <= size * (size + 1) // 2 + 2, (law, size, calls["_fm"])
        runs.append(calls["_fm"])
    return runs[0], runs[1]


def test_length_literal_work_is_linear():
    # 205 -> 405 `_unfold` calls and 627 -> 1227 nodes
    small, small_calls = work(_length_literal(200))
    large, large_calls = work(_length_literal(400))
    # the literal's state, checked last, unfolds `length` once per constructor
    assert small[-1].stats["measure"] == 201 and large[-1].stats["measure"] == 401
    assert_unfolds_within_instances(small, small_calls)
    assert_unfolds_within_instances(large, large_calls)
    assert large_calls["_unfold"] <= 2.1 * small_calls["_unfold"]
    assert sum(len(s.nodes) for s in large) <= 2.1 * sum(len(s.nodes) for s in small)


def test_length_literal_measures_dispatch_by_constructor():
    # every `length` application unfolds by its argument's constructor, not
    # by matching clauses: matching made 205 -> 405 `_select_clause` calls
    for n, unfolds in ((200, 205), (400, 405)):
        states, calls = work(_length_literal(n))
        assert calls["_select_clause"] == 0
        assert calls["_unfold"] == unfolds
        assert states[-1].stats["measure"] == n + 1


def test_ple_reverse_work():
    ple_reverse_ratios("default")


def test_ple_reverse_exchanges_once_per_fixpoint():
    # 5 `entails`, none of whose `_pinch` calls merges: 5 -> 5 of each
    ple_reverse_exchanges("default")


def test_plus_one_chain_nodes_are_linear():
    # x, v, the literals 1 and n, and one node per `+ 1`: 204 -> 404 nodes
    for n in (200, 400):
        states, _ = work(_plus_one_chain(n))
        assert sum(len(s.nodes) for s in states) == n + 4


def test_sum_fm_runs_are_one_per_row():
    sum_fm_runs("default")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Check the PLE `reverse` and `sum` growth laws.")
    ap.add_argument("--large", action="store_true",
                    help="`reverse` n=30 -> 60 with PLE fuel 400, `sum` n=8 -> 16")
    args = ap.parse_args()
    law = "large" if args.large else "default"
    unfold, substitute = ple_reverse_ratios(law)
    print(f"reverse: _unfold {unfold:.2f}x, _substitute {substitute:.2f}x")
    pinches, checkpoints = ple_reverse_exchanges(law)
    print("reverse: _pinch {} -> {}, checkpoint {} -> {}".format(*pinches, *checkpoints))
    print("sum: _fm {} -> {}".format(*sum_fm_runs(law)))

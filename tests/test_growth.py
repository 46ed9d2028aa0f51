"""Growth laws: work counted at a size n and at 2n, never timed, so each law
holds on any host.  One case per input family of the benchmark's `scale`
workload that the solver's instantiation touches; each checks the family's
true instance through `check_module` and counts the solver states it
builds, their nodes and `stats`, the calls of `logic._unfold`, and the
arithmetic row substitutions (`logic._substitute` calls).
"""

from __future__ import annotations

from collections import Counter

import pytest

from eqcheck import logic
from eqcheck.checker import check_module
from eqcheck.logic import SolverState

from conftest import LIST_BASICS

# the `length` measure alone, as the literal family declares it
LENGTH = LIST_BASICS.split("\n\nreflect append")[0] + "\n"


def _length_literal(n: int) -> str:
    xs = [i % 10 for i in range(n)]
    return LENGTH + f"\nlenLit : u:Int -> {{v:Proof | length {xs} == {n}}}\nlenLit u = ()\n"


def _ple_reverse(n: int) -> str:
    xs = list(range(n))
    return (LIST_BASICS + "\nple revLit\n"
            f"revLit : u:Int -> {{v:Proof | reverse {xs} == {xs[::-1]}}}\nrevLit u = ()\n")


@pytest.fixture
def work(monkeypatch):
    """`work(source)` checks the source, asserts that every obligation is
    proved, and returns the solver states built and the calls counted by
    function name."""
    def measure(source: str) -> tuple[list[SolverState], Counter]:
        states, calls = [], Counter()
        init = SolverState.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            states.append(self)

        def counting(fn):
            def counted(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return counted

        with monkeypatch.context() as m:
            m.setattr(SolverState, "__init__", recording_init)
            for name in ("_unfold", "_substitute"):
                m.setattr(logic, name, counting(getattr(logic, name)))
            report = check_module(source, file="growth.eq")
        assert report.verdicts and all(v.proved for v in report.verdicts)
        return states, calls
    return measure


def test_length_literal_work_is_linear(work):
    # 408 -> 808 `_unfold` calls and 627 -> 1227 nodes
    small, small_calls = work(_length_literal(200))
    large, large_calls = work(_length_literal(400))
    # the literal's state, checked last, unfolds `length` once per constructor
    assert small[-1].stats["measure"] == 201 and large[-1].stats["measure"] == 401
    assert large_calls["_unfold"] <= 2.1 * small_calls["_unfold"]
    assert sum(len(s.nodes) for s in large) <= 2.1 * sum(len(s.nodes) for s in small)


def test_ple_reverse_work(work):
    _, small_calls = work(_ple_reverse(8))
    _, large_calls = work(_ple_reverse(16))
    # 1531 -> 9115 `_unfold` calls (5.95x): every round of saturation visits
    # every application node, and PLE takes about 3n rounds.  ROADMAP item 8's
    # worklist targets at most 4x per doubling.
    assert large_calls["_unfold"] <= 6.5 * small_calls["_unfold"]
    # 170 -> 654 row substitutions (3.85x); pivoting on the newer of two
    # congruent application nodes made it 191 -> 1019 (5.3x)
    assert large_calls["_substitute"] <= 4.5 * small_calls["_substitute"]

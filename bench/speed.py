"""Host-speed probe for timings taken on a shared machine.

On a host shared with other tenants, the same pure-Python work has been
measured to take anywhere from 1x to 1.7x its quiet-host time, with swings
within seconds and drifts over minutes.  Process CPU time swings the same
way, so measuring it does not help.  The benchmark therefore times a fixed reference
loop next to the program and reports each timing scaled to the speed at
which the loop takes REF_SECONDS:

    adjusted = measured * REF_SECONDS / probe()

The loop is the benchmark's own code and calls nothing in eqcheck, so a
change to eqcheck moves the adjusted timings exactly as it moves the
measured ones.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

# One reference_work() call on an otherwise idle 2.1 GHz x86-64 host core
# under CPython 3.11 takes about this long.
REF_SECONDS = 0.0015
PROBE_RUNS = 3


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple = ()


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(f"x{i % 5}")
    return _Node("f" if i % 3 else "g", (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1)))


def reference_work() -> int:
    """Build small frozen-dataclass trees and count their subterms in a dict:
    the allocation, hashing and call mix that eqcheck's checker and solver
    spend their time on."""
    seen: dict = {}
    for r in range(3):
        stack = [_tree(6, r)]
        while stack:
            node = stack.pop()
            seen[node] = seen.get(node, 0) + 1
            stack.extend(node.kids)
    return len(seen)


def probe() -> float:
    """Median seconds of one reference_work() call over PROBE_RUNS calls."""
    clock = time.perf_counter
    times = []
    for _ in range(PROBE_RUNS):
        t0 = clock()
        reference_work()
        times.append(clock() - t0)
    return statistics.median(times)

"""Seeded inputs and known answers for the three benchmark workloads.

Every input is a zero-argument callable into eqcheck's public entry points
plus a judge that decides, from the program's output alone, whether the
verdict agrees with the answer known by construction.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Sizes for `scale`: each family gets SCALE_SIZES grid points spread evenly
# over its range, alternately a true and a false instance, and the seed draws
# each size within SCALE_JITTER of its grid point.  Wider draws, or fewer
# distinct sizes, make a pass's cost and its latency quantiles depend on the
# seed (cost grows faster than linearly in n) more than a regression bound
# allows.
SCALE_FAMILIES = {
    "ple": (8, 16),
    "length": (100, 500),
    "chain": (150, 700),
}
SCALE_SIZES = 24
SCALE_JITTER = 0.02
SOLVER_QUERIES = 4000
PLE_EVERY = 4  # one query in four runs with PLE
FACT_ATTEMPTS = 30  # random atoms tried for up to 4 facts true under the valuation
# A generator that stops producing provable goals is caught by this floor on
# the share of entailed queries.
ENTAILED_FLOOR = 0.03

_FAILED_LINE = re.compile(r"^FAILED  \S+  (\S+) \[([a-z-]+)\]$", re.M)
_EXPECT_FAIL = re.compile(r"^-- expect-fail: (\S+) (\S+)\s*$", re.M)


@dataclass
class Input:
    name: str
    family: str
    call: Callable[[], object]
    judge: Callable[[object], bool]


@dataclass
class Workload:
    inputs: list[Input]
    # problems with a whole pass's outputs (empty when none)
    check_pass: Callable[[list], list[str]] = field(default=lambda outputs: [])


# ------------------------------------------------------------------ files

def _run_cli(path: str):
    from eqcheck.cli import run
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["check", path])
    return code, out.getvalue(), err.getvalue()


def expect_judge(expects: tuple):
    """Judge for a checked file.  With no expectations: exit 0 and nothing
    failed.  Otherwise, as in the mutation headers: exit 1, the first
    (decl, kind) line failed, and every failure matches some line, where a
    decl of `*` matches any declaration."""
    def judge(output) -> bool:
        code, out, err = output
        failed = set(_FAILED_LINE.findall(out))
        if err:
            return False
        if not expects:
            return code == 0 and not failed
        return (code == 1 and expects[0] in failed
                and all(any(d in ("*", decl) and k == kind for d, k in expects)
                        for decl, kind in failed))
    return judge


def file_input(path: Path, family: str, expects: tuple) -> Input:
    return Input(path.name, family, lambda p=str(path): _run_cli(p),
                 expect_judge(expects))


def suite(root: Path, rng: random.Random, tiny: bool = False) -> Workload:
    corpus = root / "corpus"
    files = sorted(corpus.glob("*.eq")) + sorted((corpus / "mutations").glob("*.eq"))
    if not files:
        raise FileNotFoundError(f"no .eq files under {corpus}")
    if tiny:
        files = files[:1] + [f for f in files if f.parent.name == "mutations"][:2]
    rng.shuffle(files)
    inputs = []
    for path in files:
        expects = tuple(_EXPECT_FAIL.findall(path.read_text(encoding="utf-8")))
        if path.parent.name == "mutations" and not expects:
            raise ValueError(f"{path} has no expect-fail header")
        inputs.append(file_input(path, "mutation" if expects else "corpus", expects))
    return Workload(inputs)


# ------------------------------------------------------------------ scale

_LENGTH = """\
measure length
length : xs:(List a) -> {v:Int | 0 <= v}
length [] = 0
length (_:xs) = 1 + length xs
"""

_REVERSE = _LENGTH + """
reflect append
append : xs:(List a) -> ys:(List a) -> {zs:(List a) | length zs == length xs + length ys}
append [] ys = ys
append (x:xs) ys = x : append xs ys

reflect reverse
reverse : xs:(List a) -> List a
reverse [] = []
reverse (x:xs) = append (reverse xs) [x]
"""


def _ple_source(n: int, rng: random.Random, true: bool) -> tuple[str, tuple]:
    base = rng.randrange(0, 50)
    xs = list(range(base, base + n))
    ys = xs[::-1]
    if not true:
        ys[rng.randrange(n)] += n
    src = (_REVERSE + "\nple revLit\n"
           f"revLit : u:Int -> {{v:Proof | reverse {xs} == {ys}}}\n"
           "revLit u = ()\n")
    return src, ("revLit", "clause-vc")


def _length_source(n: int, rng: random.Random, true: bool) -> tuple[str, tuple]:
    xs = [rng.randrange(0, 10) for _ in range(n)]
    claim = n if true else n + rng.choice((-1, 1))
    src = (_LENGTH + "\n"
           f"lenLit : u:Int -> {{v:Proof | length {xs} == {claim}}}\n"
           "lenLit u = ()\n")
    return src, ("lenLit", "clause-vc")


def _chain_source(n: int, rng: random.Random, true: bool) -> tuple[str, tuple]:
    claim = n if true else n + rng.choice((-1, 1))
    src = (f"chain : x:Int -> {{v:Int | v == x + {claim}}}\n"
           "chain x = x" + " + 1" * n + "\n")
    return src, ("chain", "clause-vc")


_SCALE_SOURCES = {"ple": _ple_source, "length": _length_source, "chain": _chain_source}


def scale_sizes(rng: random.Random) -> dict[str, list[int]]:
    sizes = {}
    for family, (lo, hi) in SCALE_FAMILIES.items():
        grid = [lo + (hi - lo) * k / (SCALE_SIZES - 1) for k in range(SCALE_SIZES)]
        sizes[family] = [round(g) + rng.randint(-int(g * SCALE_JITTER), int(g * SCALE_JITTER))
                         for g in grid]
    return sizes


def scale(work: Path, rng: random.Random, tiny: bool = False) -> Workload:
    inputs = []
    for family, sizes in scale_sizes(rng).items():
        if tiny:
            lo = SCALE_FAMILIES[family][0] // 2
            sizes = [lo, lo + 1]
        for k, n in enumerate(sizes):
            true = k % 2 == 0
            src, failing = _SCALE_SOURCES[family](n, rng, true)
            path = work / f"{family}_{n}_{'true' if true else 'false'}.eq"
            path.write_text(src, encoding="utf-8")
            inputs.append(file_input(path, family, () if true else (failing,)))
    rng.shuffle(inputs)
    return Workload(inputs)


# ---------------------------------------------------------- solver trials

_TRIAL_SOURCE = _LENGTH + """
reflect append
append : xs:(List Int) -> ys:(List Int) -> List Int
append [] ys = ys
append (x:xs) ys = x : append xs ys

reflect reverse
reverse : xs:(List Int) -> List Int
reverse [] = []
reverse (x:xs) = append (reverse xs) [x]
"""
_LISTS = ("xs", "ys")
_INTS = ("n", "m")
_RELS = ("==", "/=", "<=", "<", ">=", ">")
_TRUTH = {
    "==": lambda a, b: a == b, "/=": lambda a, b: a != b,
    "<=": lambda a, b: a <= b, "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b, ">": lambda a, b: a > b,
}


class _QueryGen:
    """Random atoms over two list and two integer constants.

    Two random streams: `shape` decides the term structure (which node is
    an application, a variable or a literal, and how long a literal is),
    `leaf` decides everything else (which variable, literal elements,
    relations, the valuation).  The shape stream of each atom is seeded by
    the atom's position alone, so every workload seed checks the same
    population of query shapes with different leaves.  Seeding shapes too
    made the pass's total cost swing by about 10% between seeds: a few
    deep PLE shapes dominate it."""

    def __init__(self, leaf: random.Random):
        from eqcheck import syntax
        self.leaf = leaf
        self.shape = random.Random(0)
        self.s = syntax

    def list_value(self, length: int):
        v = ("Nil",)
        for _ in range(length):
            v = ("Cons", self.leaf.randrange(3), v)
        return v

    def value_term(self, v):
        s = self.s
        if v[0] == "Nil":
            return s.Con("Nil")
        return s.Con("Cons", (s.IntLit(v[1]), self.value_term(v[2])))

    def list_term(self, depth: int):
        shape, s = self.shape, self.s
        if depth <= 0 or shape.random() < 0.4:
            if shape.random() < 0.7:
                return s.Var(self.leaf.choice(_LISTS))
            return self.value_term(self.list_value(shape.randrange(4)))
        if shape.random() < 0.5:
            return s.App("reverse", (self.list_term(depth - 1),))
        return s.App("append", (self.list_term(depth - 1), self.list_term(depth - 1)))

    def int_term(self, depth: int):
        shape, s = self.shape, self.s
        if depth <= 0 or shape.random() < 0.4:
            if shape.random() < 0.5:
                return s.Var(self.leaf.choice(_INTS))
            return s.IntLit(self.leaf.randrange(-3, 4))
        pick = shape.random()
        if pick < 0.4:
            return s.App("length", (self.list_term(depth - 1),))
        op = "+" if pick < 0.7 else "-"
        return s.PrimOp(op, self.int_term(depth - 1), self.int_term(depth - 1))

    def atom(self, position: int):
        self.shape.seed(position)
        s = self.s
        if self.shape.random() < 0.45:
            return s.PAtom(self.leaf.choice(("==", "/=")), self.list_term(2), self.list_term(2))
        return s.PAtom(self.leaf.choice(_RELS), self.int_term(2), self.int_term(2))

    def valuation(self, position: int) -> dict:
        self.shape.seed(position)
        val = {c: self.list_value(self.shape.randrange(4)) for c in _LISTS}
        val.update({c: self.leaf.randrange(-3, 4) for c in _INTS})
        return val


def _truth(env, atom, valuation) -> bool:
    from eqcheck.semantics import evaluate
    lhs = evaluate(env, atom.lhs, binding=dict(valuation))
    rhs = evaluate(env, atom.rhs, binding=dict(valuation))
    return _TRUTH[atom.rel](lhs, rhs)


def _query(env, var_sorts, facts, goal, ple: bool) -> bool:
    from eqcheck.logic import SolverState, entails
    st = SolverState(env, var_sorts=var_sorts, ple=ple)
    for f in facts:
        st.intern_term(f.lhs, active=True)
        st.intern_term(f.rhs, active=True)
    return entails(st, list(facts), goal)


def solver_trials(rng: random.Random, tiny: bool = False) -> Workload:
    """Entailment queries straight into the logic layer.  The goal's truth
    under the valuation is computed here, before any timing, with the
    reference evaluator."""
    from eqcheck.parser import parse_module
    from eqcheck.syntax import desugar
    from eqcheck.types import INT, SortData, check_types
    env = check_types(desugar(parse_module(_TRIAL_SOURCE)))
    var_sorts = {c: SortData("List", (INT,)) for c in _LISTS}
    var_sorts.update({c: INT for c in _INTS})
    gen = _QueryGen(rng)
    inputs = []
    for i in range(200 if tiny else SOLVER_QUERIES):
        base = i * (FACT_ATTEMPTS + 2)
        valuation = gen.valuation(base)
        facts = []
        for k in range(FACT_ATTEMPTS):
            if len(facts) == 4:
                break
            a = gen.atom(base + 1 + k)
            if _truth(env, a, valuation):
                facts.append(a)
        goal = gen.atom(base + 1 + FACT_ATTEMPTS)
        goal_true = _truth(env, goal, valuation)
        ple = i % PLE_EVERY == 0
        inputs.append(Input(
            f"q{i}", "ple" if ple else "plain",
            lambda f=tuple(facts), g=goal, p=ple: _query(env, var_sorts, f, g, p),
            lambda entailed, t=goal_true: t or not entailed))

    def check_pass(outputs: list) -> list[str]:
        share = sum(1 for o in outputs if o is True) / len(outputs)
        if share < ENTAILED_FLOOR:
            return [f"only {share:.1%} of queries entailed (floor {ENTAILED_FLOOR:.0%})"]
        return []
    return Workload(inputs, check_pass)

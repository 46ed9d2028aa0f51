"""Renaming a clause's variables never changes a verdict.

A renaming that is one-to-one on a clause's variables gives the same
function, so every obligation of the module must keep its status.  The test
swaps each variable that an earlier clause refines (one a leaf binds, see
`Leaf.var_bindings`) with the binder name of every other position.  Run as a
script, it sweeps every clause with seeded permutations of its binder and
clause-variable names, checks each renamed module once with shared solver
states and once with every obligation discharged on a state of its own, and
exits 1 if any verdict changes or the two checks differ in a verdict or a
warning.  `--strict-hints` runs the sweep with each chain step assuming only
the hints up to its own, and `--ple-default` with proof by logical
evaluation applied to every obligation:

    PYTHONPATH=src python tests/test_renaming.py [rounds] [seed] [--strict-hints]
        [--ple-default]
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys

from eqcheck import checker
from eqcheck.checker import CheckConfig, Report, check_module
from eqcheck.parser import parse_module
from eqcheck.syntax import (
    Clause, FunDecl, SourceModule, Var, pattern_vars, substitute, substitute_chain,
)
from eqcheck.types import check_types
from eqcheck.wf import clause_leaves

from conftest import FILES, discharge_unshared

CONFIG = CheckConfig(warn_unused_hints=False)

Renaming = tuple[str, int, dict[str, str]]  # declaration, clause index, names


def _rename_clause(clause: Clause, names: dict[str, str]) -> Clause:
    """The clause with its patterns, body and hints renamed."""
    subst = {old: Var(new) for old, new in names.items()}
    return dataclasses.replace(
        clause, patterns=tuple(substitute(p, subst) for p in clause.patterns),
        body=substitute_chain(clause.body, subst))


def renamed(module: SourceModule, renaming: Renaming) -> SourceModule:
    name, ci, names = renaming
    decls = tuple(
        dataclasses.replace(d, clauses=(*d.clauses[:ci], _rename_clause(d.clauses[ci], names),
                                        *d.clauses[ci + 1:]))
        if isinstance(d, FunDecl) and d.name == name else d
        for d in module.decls)
    return dataclasses.replace(module, decls=decls)


def statuses(report: Report) -> dict[str, str]:
    return {v.oid: v.status for v in report.verdicts}


def unshared_report(module: SourceModule, config: CheckConfig = CONFIG) -> Report:
    """The report with every obligation discharged on a state of its own."""
    shared, checker._discharge_each = checker._discharge_each, discharge_unshared
    try:
        return check_module(module, config)
    finally:
        checker._discharge_each = shared


def binder_swaps(module: SourceModule) -> list[Renaming]:
    """Each variable an earlier clause refines, swapped with the binder name
    of every other position (and with the clause variable of that name)."""
    env = check_types(module)
    out: list[Renaming] = []
    for fi in env.funs.values():
        binders = fi.signature.binders()
        for ci, clause in enumerate(fi.clauses):
            refined = {x for leaf in clause_leaves(fi, ci, env) for x, _ in leaf.var_bindings}
            for pos, pat in enumerate(clause.patterns):
                others = (*binders[:pos], *binders[pos + 1:])
                out.extend((fi.name, ci, {x: b, b: x})
                           for x in pattern_vars(pat) if x in refined
                           for b in others if b != x)
    return out


def permuted_names(module: SourceModule, rounds: int, rng: random.Random) -> list[Renaming]:
    """`rounds` random permutations of the binder and clause-variable names
    of every clause that binds a variable."""
    env = check_types(module)
    out: list[Renaming] = []
    for fi in env.funs.values():
        for ci, clause in enumerate(fi.clauses):
            clause_vars = [v for p in clause.patterns for v in pattern_vars(p)]
            if not clause_vars:
                continue
            names = sorted({*fi.signature.binders(), *clause_vars})
            out.extend((fi.name, ci, dict(zip(names, rng.sample(names, len(names)))))
                       for _ in range(rounds))
    return out


def changed_verdicts(module: SourceModule, renamings: list[Renaming],
                     unshared: bool = False, config: CheckConfig = CONFIG) -> list[str]:
    """A line per renaming that changes some obligation's status and, with
    `unshared`, per renamed module whose verdicts or warnings differ when no
    solver state is shared."""
    expected = statuses(check_module(module, config))
    out = []
    for renaming in renamings:
        module2 = renamed(module, renaming)
        report = check_module(module2, config)
        got = statuses(report)
        if got != expected:
            diff = sorted(oid for oid in expected.keys() | got.keys()
                          if expected.get(oid) != got.get(oid))
            out.append(f"{renaming}: {diff}")
        if unshared:
            fresh = unshared_report(module2, config)
            if (fresh.verdicts, fresh.warnings) != (report.verdicts, report.warnings):
                out.append(f"{renaming}: shared and unshared solver states differ")
    return out


def test_swapping_a_refined_variable_with_a_binder_keeps_every_verdict():
    changed: list[str] = []
    n_swaps = 0
    for path in FILES:
        module = parse_module(path.read_text())
        swaps = binder_swaps(module)
        n_swaps += len(swaps)
        changed.extend(f"{path.name}: {line}" for line in changed_verdicts(module, swaps))
    assert n_swaps > 0
    assert changed == []


def main(rounds: int = 4, seed: int = 0, strict_hints: bool = False,
         ple_default: bool = False) -> int:
    config = dataclasses.replace(CONFIG, strict_hints=strict_hints, ple_default=ple_default)
    rng = random.Random(seed)
    total = 0
    changed: list[str] = []
    for path in FILES:
        module = parse_module(path.read_text())
        renamings = permuted_names(module, rounds, rng)
        total += len(renamings)
        changed.extend(f"{path.name}: {line}"
                       for line in changed_verdicts(module, renamings, unshared=True,
                                                    config=config))
    for line in changed:
        print(line)
    mode = "".join(f", {flag}" for flag, on in (("--strict-hints", strict_hints),
                                               ("--ple-default", ple_default)) if on)
    print(f"{total} renamings of {len(FILES)} files{mode}, each checked with and "
          f"without shared solver states: {len(changed)} differences")
    return 1 if changed else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Sweep seeded clause-variable renamings.")
    ap.add_argument("rounds", type=int, nargs="?", default=4)
    ap.add_argument("seed", type=int, nargs="?", default=0)
    ap.add_argument("--strict-hints", action="store_true")
    ap.add_argument("--ple-default", action="store_true")
    args = ap.parse_args()
    sys.exit(main(args.rounds, args.seed, args.strict_hints, args.ple_default))

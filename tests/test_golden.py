"""Golden verdicts: the human rendering and the verdict JSON of every corpus
and mutation file stay byte-identical unless a change says why they differ.
The verdict JSON under `--strict-hints` is pinned too, since that mode gives
chain steps a narrower hypothesis scope than the default, and so is the one
under `--ple-default`, where goal terms unfold under PLE.

The solver's own answers are pinned as well: one digest over the entailment
bits of 3000 seeded random queries (`tests/oracles`), with the count of
entailed answers beside it, so a moved answer shows as a number.  The work
the solver did on the same queries is pinned beside them: one digest over
each query's answer, node count, merges, `reflect` and `measure` unfoldings
and exhausted fuel, with the total nodes and merges beside it, so a change
meant to make the solver cheaper shows if it makes a node or a merge more or
fewer.

So are the pattern-matrix answers: one digest over every clause leaf (its
row, bindings and exclusions, in order) and every totality witness of 2000
seeded random modules (`tests/oracles`), with the module, leaf and witness
counts beside it.

So are the parser's outcomes: one digest over the AST, printed with every
span, or the exact `ParseError` of each corpus and mutation file, of 25
seeded token-level mutations of each, and of a few term and predicate
fragments, with the input and error counts beside it.

After a deliberate, explained change, rewrite the goldens it touches with
`PYTHONPATH=src python tests/test_golden.py [name ...]`, naming any of
`outputs` (human text and the three JSON digests), `solver_answers`,
`solver_work`, `clause_leaves` and `parse_outcomes`; with no name it rewrites
them all.
"""

import functools
import hashlib
import json
import pathlib
import random
import sys

import pytest

from eqcheck.checker import CheckConfig, check_module
from eqcheck.cli import render_human, report_to_json
from eqcheck.parser import ParseError, parse_module, parse_pred, parse_term, tokenize
from eqcheck.syntax import Span, pretty
from eqcheck.wf import check_totality, clause_leaves, missing_pattern_text

from conftest import FILES, env_of
from oracles import (
    SOUNDNESS_SRC, compound_soundness_trial, random_pattern_module, soundness_trial,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "json.sha256"
STRICT_DIGESTS = GOLDEN / "json_strict.sha256"
PLE_DIGESTS = GOLDEN / "json_ple.sha256"
SOLVER_ANSWERS = GOLDEN / "solver_answers.sha256"
SOLVER_WORK = GOLDEN / "solver_work.sha256"
PARSE_OUTCOMES = GOLDEN / "parse_outcomes.sha256"
CLAUSE_LEAVES = GOLDEN / "clause_leaves.sha256"
STRICT = CheckConfig(strict_hints=True)
PLE = CheckConfig(ple_default=True)


def renderings(path: pathlib.Path, config: CheckConfig | None = None
               ) -> tuple[str, str]:
    """(human text, sha256 of the JSON text) for one checked file."""
    report = check_module(path.read_text(), config, file=path.name)
    human = render_human([report], False) + "\n"
    text = json.dumps(report_to_json([report]), indent=2)
    return human, hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def solver_runs() -> tuple[tuple[str, int], tuple[str, int, int]]:
    """One pass over 1500 atomic and 1500 compound soundness queries, 1 in 4
    with PLE: (sha256 of the answer bits, count entailed) and (sha256 of the
    work records, total nodes, total merges).  A query's work record is its
    answer, its state's node count, `merges`, `reflect` and `measure` and
    whether its fuel ran out."""
    env = env_of(SOUNDNESS_SRC)
    rng = random.Random(2018)
    bits, work = [], []
    nodes = merges = 0
    for trial in (soundness_trial, compound_soundness_trial):
        for i in range(1500):
            states = []
            entailed, _ = trial(env, rng, ple=(i % 4 == 0), states=states)
            [st] = states
            bits.append("1" if entailed else "0")
            work.append(f"{int(entailed)} {len(st.nodes)} {st.stats['merges']}"
                        f" {st.stats['reflect']} {st.stats['measure']}"
                        f" {int(st.fuel_exhausted)}")
            nodes += len(st.nodes)
            merges += st.stats["merges"]
    answers = hashlib.sha256("".join(bits).encode()).hexdigest(), bits.count("1")
    return answers, (hashlib.sha256("\n".join(work).encode()).hexdigest(), nodes, merges)


def solver_answers() -> tuple[str, int]:
    return solver_runs()[0]


def solver_work() -> tuple[str, int, int]:
    return solver_runs()[1]


def clause_leaves_record(modules: int = 2000) -> tuple[str, int, int, int]:
    """(sha256, modules, leaves, witnesses) over `modules` seeded random
    modules: one line per clause leaf, with its row, bindings and
    exclusions, in `clause_leaves` order, then one per totality witness."""
    rng = random.Random(2007)
    lines = []
    leaves = witnesses = 0
    for m in range(modules):
        env = env_of(random_pattern_module(rng))
        fi = env.funs["f"]
        for ci in range(len(fi.clauses)):
            for leaf in clause_leaves(fi, ci, env):
                leaves += 1
                bindings = ", ".join(f"{x} = {pretty(t)}" for x, t in leaf.var_bindings)
                excluded = ", ".join(f"{x} /= {ks}" for x, ks in leaf.excluded_ints)
                lines.append(f"{m}/c{ci}/{leaf.index}: {missing_pattern_text(leaf.row)}"
                             f" | {bindings} | {excluded}")
        for row in check_totality(fi, env):
            witnesses += 1
            lines.append(f"{m}/missing: {missing_pattern_text(row)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest, modules, leaves, witnesses


def dump(x) -> str:
    """A syntax tree printed with every field, spans included (the dataclass
    repr leaves spans out)."""
    if isinstance(x, tuple) and not isinstance(x, Span):
        return "(" + ", ".join(map(dump, x)) + ")"
    fields = getattr(x, "__dataclass_fields__", None)
    if fields is None:
        return repr(x)
    return type(x).__name__ + "(" + ", ".join(
        f"{name}={dump(getattr(x, name))}" for name in fields) + ")"


def parse_outcome(parse, source: str) -> str:
    try:
        return dump(parse(source))
    except ParseError as e:
        return f"ParseError({str(e)!r}, {e.line}, {e.col}, {e.expected!r})"


# what a mutation inserts or puts in place of a token
FILLERS = ["(", ")", "[", "]", ",", ":", "=", "==", "==.", "->", "-", "+", "*",
           "&&", "||", "/", "?", "_", "{", "}", "|", "<", "***", "x", "f", "Cons",
           "Int", "3", "true", "false", "not", "data", "measure", "QED"]
FRAGMENTS = [
    "f x (g y) [1, z] : zs", "(-3)", "a + b * 2 - c", "()", "[]", "x : y : []",
    "f (", "x +", "[1,", "f x ]", "(- x)", "x == y", "(x) == y", "((x + 1)) <= 2",
    "not (x < y) && true || false", "true == b", "true", "false && x /= y",
    "(x == y || y >= z) && f x > 0", "x ==", "x y z ) ", "C (D 1) true",
]


def token_mutants(source: str, rng: random.Random, count: int) -> list[str]:
    """`count` copies of `source`, each with one token deleted, or one of
    FILLERS inserted before it or put in its place."""
    starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    toks = [t for t in tokenize(source) if t.kind != "eof"]
    out = []
    for _ in range(count):
        t = rng.choice(toks)
        at = starts[t.line - 1] + t.col - 1
        action, filler = rng.choice(["delete", "insert", "replace"]), rng.choice(FILLERS)
        if action == "delete":
            out.append(source[:at] + source[at + len(t.text):])
        elif action == "insert":
            out.append(source[:at] + filler + " " + source[at:])
        else:
            out.append(source[:at] + filler + source[at + len(t.text):])
    return out


def parse_outcomes() -> tuple[str, int, int]:
    """(sha256 of every outcome, input count, error count) over the corpus
    and mutation files, 25 seeded mutants of each, and FRAGMENTS read both
    as a term and as a predicate."""
    inputs = []
    for path in FILES:
        source = path.read_text()
        inputs.append((parse_module, source))
        rng = random.Random(path.name)
        inputs.extend((parse_module, m) for m in token_mutants(source, rng, 25))
    for fragment in FRAGMENTS:
        inputs += [(parse_term, fragment), (parse_pred, fragment)]
    outcomes = [parse_outcome(parse, source) for parse, source in inputs]
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    return digest, len(outcomes), sum(o.startswith("ParseError(") for o in outcomes)


def recorded_digests(digest_file: pathlib.Path = DIGESTS) -> dict[str, str]:
    digests = {}
    for line in digest_file.read_text().splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


def test_every_file_has_a_golden():
    assert len(FILES) == 32
    assert sorted(recorded_digests()) == sorted(p.name for p in FILES)
    assert sorted(recorded_digests(STRICT_DIGESTS)) == sorted(p.name for p in FILES)
    assert sorted(recorded_digests(PLE_DIGESTS)) == sorted(p.name for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_output_matches_golden(path):
    human, digest = renderings(path)
    assert human == (GOLDEN / f"{path.stem}.txt").read_text()
    assert digest == recorded_digests()[path.name]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_strict_hints_output_matches_golden(path):
    _, digest = renderings(path, STRICT)
    assert digest == recorded_digests(STRICT_DIGESTS)[path.name]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_ple_default_output_matches_golden(path):
    _, digest = renderings(path, PLE)
    assert digest == recorded_digests(PLE_DIGESTS)[path.name]


def test_solver_answers_match_golden():
    digest, entailed = SOLVER_ANSWERS.read_text().split()
    assert solver_answers() == (digest, int(entailed))


def test_solver_work_matches_golden():
    digest, nodes, merges = SOLVER_WORK.read_text().split()
    assert solver_work() == (digest, int(nodes), int(merges))


def test_clause_leaves_match_golden():
    digest, modules, leaves, witnesses = CLAUSE_LEAVES.read_text().split()
    assert clause_leaves_record() == (digest, int(modules), int(leaves), int(witnesses))


def test_parse_outcomes_match_golden():
    digest, inputs, errors = PARSE_OUTCOMES.read_text().split()
    assert parse_outcomes() == (digest, int(inputs), int(errors))


def repin_outputs() -> None:
    GOLDEN.mkdir(exist_ok=True)
    lines, strict_lines, ple_lines = [], [], []
    for path in FILES:
        human, digest = renderings(path)
        (GOLDEN / f"{path.stem}.txt").write_text(human)
        lines.append(f"{digest}  {path.name}\n")
        strict_lines.append(f"{renderings(path, STRICT)[1]}  {path.name}\n")
        ple_lines.append(f"{renderings(path, PLE)[1]}  {path.name}\n")
    DIGESTS.write_text("".join(lines))
    STRICT_DIGESTS.write_text("".join(strict_lines))
    PLE_DIGESTS.write_text("".join(ple_lines))


def repin_solver_answers() -> None:
    digest, entailed = solver_answers()
    SOLVER_ANSWERS.write_text(f"{digest}  {entailed}\n")


def repin_solver_work() -> None:
    digest, nodes, merges = solver_work()
    SOLVER_WORK.write_text(f"{digest}  {nodes} {merges}\n")


def repin_clause_leaves() -> None:
    digest, modules, leaves, witnesses = clause_leaves_record()
    CLAUSE_LEAVES.write_text(f"{digest}  {modules} {leaves} {witnesses}\n")


def repin_parse_outcomes() -> None:
    digest, inputs, errors = parse_outcomes()
    PARSE_OUTCOMES.write_text(f"{digest}  {inputs} {errors}\n")


REPIN = {"outputs": repin_outputs, "solver_answers": repin_solver_answers,
         "solver_work": repin_solver_work, "clause_leaves": repin_clause_leaves,
         "parse_outcomes": repin_parse_outcomes}


if __name__ == "__main__":
    names = sys.argv[1:] or list(REPIN)
    if unknown := [n for n in names if n not in REPIN]:
        sys.exit(f"unknown golden {', '.join(unknown)}; choose from {', '.join(REPIN)}")
    for name in names:
        REPIN[name]()

"""Acceptance gate: every numbered criterion below prints one PASS line and
fails loudly otherwise.  Tolerances and domains are fixed here, not tuned."""

import json
import random
import time

from eqcheck.checker import CheckConfig, check_module
from eqcheck.cli import run
from eqcheck.semantics import enumerate_values, evaluate, value_to_term
from eqcheck.syntax import App, Con, FunDecl
from eqcheck.types import INT, SortData
from eqcheck.wf import TerminationEvidence, check_termination, clause_contexts

from conftest import CORPUS, corpus_text, env_of
from oracles import (
    SOUNDNESS_SRC, UNINTERPRETED_SRC, check_chain_coherence,
    check_derivation_matches_cleaned, check_graph_against_oracle,
    check_statement_spot, cleaned_env, soundness_trial,
)

CORPUS_FILES = ["section2.eq", "section2_ple.eq", "section4.eq", "section5.eq"]

PAPER_PROOFS = {
    "section2.eq": {"singletonP", "involutionP", "distributivityP", "rightIdP",
                    "assocP"},
    "section2_ple.eq": {"rightIdP", "assocP"},
    "section4.eq": {"reverseApp", "reverse'", "flatten", "flattenApp", "flatten'"},
    "section5.eq": {"sequenceP", "generalizedCorrectnessP", "correctnessP",
                    "compApp", "comp'", "equivalenceP",
                    "generalizedCorrectnessP'", "correctnessP'"},
}


def test_criterion_1_corpus_accepted(capsys):
    t0 = time.time()
    paths = [str(CORPUS / f) for f in CORPUS_FILES]
    code = run(["check", *paths])
    elapsed = time.time() - t0
    capsys.readouterr()
    assert code == 0, "corpus must check with exit 0"
    for fname, wanted in PAPER_PROOFS.items():
        report = check_module(corpus_text(fname), file=fname)
        decls = {d.name for d in report.module.decls if isinstance(d, FunDecl)}
        missing = wanted - decls
        assert not missing, f"{fname} lacks {missing}"
        assert report.ok
    elapsed = max(elapsed, time.time() - t0)
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s, budget is 60s"
    print(f"\nACCEPTANCE 1: PASS - 4 corpus files, exit 0, all paper proofs "
          f"present, {elapsed:.1f}s < 60s")


def test_criterion_2_mutation_suite(capsys):
    files = sorted((CORPUS / "mutations").glob("*.eq"))
    assert len(files) >= 20, f"need >= 20 mutation files, have {len(files)}"
    for path in files:
        text = path.read_text()
        expects = [tuple(line.split()[2:4]) for line in text.splitlines()
                   if line.startswith("-- expect-fail:")]
        assert expects, f"{path.name} lacks an expectation header"
        code = run(["check", str(path), "--json"])
        out = capsys.readouterr().out
        assert code == 1, f"{path.name}: expected exit 1, got {code}"
        failed = [r for r in json.loads(out) if r["status"] != "proved"]
        assert failed, f"{path.name}: false acceptance"
        prim_decl, prim_kind = expects[0]
        assert any(r["decl"] == prim_decl and r["kind"] == prim_kind for r in failed), \
            f"{path.name}: edited obligation not pinpointed: " \
            f"{[(r['decl'], r['kind']) for r in failed]}"
        for r in failed:
            assert any((d == "*" or r["decl"] == d) and r["kind"] == k
                       for d, k in expects), \
                f"{path.name}: unexpected failure {r['decl']}/{r['kind']}"
    print(f"\nACCEPTANCE 2: PASS - {len(files)} mutation files, each exits 1 "
          "at the edited obligation, zero false acceptances")


def test_criterion_3_totality():
    report = check_module(
        (CORPUS / "mutations/involutionP_nontotal.eq").read_text())
    bad = [v for v in report.failed() if v.decl == "involutionP"]
    assert len(bad) == 1 and bad[0].kind == "totality"
    assert "Cons _ _" in bad[0].message
    env5 = env_of(corpus_text("section5.eq"))
    from eqcheck.wf import check_totality
    assert check_totality(env5.funs["exec"], env5) == []
    assert check_module(corpus_text("section5.eq")).ok
    print("\nACCEPTANCE 3: PASS - single-clause involutionP rejected with "
          "missing pattern 'Cons _ _'; total exec accepted")


def test_criterion_4_termination():
    env2 = env_of(corpus_text("section2.eq"))
    env5 = env_of(corpus_text("section5.eq"))
    length, exec_ = env2.funs["length"], env5.funs["exec"]
    length_ev = check_termination(length, env2, lambda: clause_contexts(length, env2))
    exec_ev = check_termination(exec_, env5, lambda: clause_contexts(exec_, env5))
    assert isinstance(length_ev, TerminationEvidence) and length_ev.kind == "structural"
    assert isinstance(exec_ev, TerminationEvidence) and exec_ev.kind == "structural"
    inv = env2.funs["involutionP"]
    inv_ev = check_termination(inv, env2, lambda: clause_contexts(inv, env2))
    assert isinstance(inv_ev, TerminationEvidence)
    assert inv_ev.kind == "semantic" and not inv_ev.guessed
    loop_report = check_module(
        "loop : xs:(List a) -> List a\nloop xs = loop xs\n")
    assert [v.kind for v in loop_report.failed()] == ["termination"]
    print("\nACCEPTANCE 4: PASS - length/exec structural; involutionP "
          "semantic via its declared metric; loop rejected")


def test_criterion_5_ple_parity():
    assert check_module(corpus_text("section2_ple.eq")).ok
    stripped = "\n".join(line for line in corpus_text("section2_ple.eq").splitlines()
                         if not line.startswith("ple "))
    report = check_module(stripped)
    failed_decls = {v.decl for v in report.failed()}
    assert failed_decls == {"rightIdP", "assocP"}
    assert all(v.kind in ("clause-vc", "chain-step") for v in report.failed())
    assert check_module(stripped, CheckConfig(ple_default=True)).ok
    print("\nACCEPTANCE 5: PASS - concise rightIdP/assocP check only under "
          "ple; without it both fail with unproved goals")


LEAVES = tuple(range(-3, 4))


def _exprs_upto_depth(depth: int):
    out = [("Val", n) for n in LEAVES]
    for _ in range(depth - 1):
        prev = list(out)
        out = [("Val", n) for n in LEAVES]
        out.extend(("Add", x, y) for x in prev for y in prev)
    return out


def _random_expr(rng: random.Random, depth: int):
    if depth <= 1 or rng.random() < 0.25:
        return ("Val", rng.choice(LEAVES))
    return ("Add", _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _eval_int(e) -> int:
    return e[1] if e[0] == "Val" else _eval_int(e[1]) + _eval_int(e[2])


def test_criterion_6_compiler_differential():
    env = env_of(corpus_text("section5.eq"))
    rng = random.Random(2026)
    pool = _exprs_upto_depth(3)
    pool.extend(_random_expr(rng, 4) for _ in range(500))
    checked = 0
    for e in pool:
        te = value_to_term(e)
        expected = ("Just", ("Cons", _eval_int(e), ("Nil",)))
        assert evaluate(env, App("exec", (App("comp", (te,)), Con("Nil")))) == expected
        assert evaluate(env, App("comp'", (te,))) == evaluate(env, App("comp", (te,)))
        checked += 1
    print(f"\nACCEPTANCE 6: PASS - exec (comp e) [] == Just [eval e] and "
          f"comp' e == comp e on {checked} expressions "
          "(exhaustive depth <= 3, seeded sample at depth 4), 100% agreement")


def test_criterion_7_list_laws():
    env = env_of(corpus_text("section2.eq"))
    lists = enumerate_values(env, SortData("List", (INT,)), 5, ints=(0, 1, 2))
    assert len(lists) == 364
    terms = [value_to_term(v) for v in lists]
    for v, t in zip(lists, terms):
        assert evaluate(env, App("reverse", (App("reverse", (t,)),))) == v
    revs = [value_to_term(evaluate(env, App("reverse", (t,)))) for t in terms]
    pairs = 0
    for i, tx in enumerate(terms):
        for j, ty in enumerate(terms):
            lhs = evaluate(env, App("reverse", (App("append", (tx, ty)),)))
            rhs = evaluate(env, App("append", (revs[j], revs[i])))
            assert lhs == rhs
            pairs += 1
    print(f"\nACCEPTANCE 7: PASS - reverse involution on {len(lists)} lists and "
          f"distributivity on {pairs} pairs (length <= 5 over {{0,1,2}})")


def test_criterion_8_logic_soundness():
    env = env_of(SOUNDNESS_SRC)
    rng = random.Random(20260810)
    unsound = entailed_count = 0
    for i in range(10_000):
        entailed, true = soundness_trial(env, rng, ple=(i % 4 == 0))
        entailed_count += entailed
        if entailed and not true:
            unsound += 1
    assert unsound == 0, f"{unsound} unsound entailments"
    assert entailed_count > 100, "trial generator degenerate"
    cc_env = env_of(UNINTERPRETED_SRC)
    cc_rng = random.Random(4242)
    for _ in range(1_000):
        check_graph_against_oracle(cc_env, cc_rng)
    print(f"\nACCEPTANCE 8: PASS - 10,000 soundness trials with 0 unsound "
          f"entailments ({entailed_count} entailed); congruence closure matches "
          "the naive oracle on 1,000 random term graphs")


def test_criterion_9_derivations_as_programs():
    LI = SortData("List", (INT,))
    env4 = env_of(corpus_text("section4.eq"))
    m4 = check_module(corpus_text("section4.eq")).module
    clean4 = cleaned_env(m4, {"reverseApp", "flattenApp"})
    n = check_derivation_matches_cleaned(env4, clean4, "reverseApp", (LI, LI), size=5)
    n += check_derivation_matches_cleaned(
        env4, clean4, "flattenApp", (SortData("Tree", ()), LI), size=5)
    env5 = env_of(corpus_text("section5.eq"))
    m5 = check_module(corpus_text("section5.eq")).module
    clean5 = cleaned_env(m5, {"compApp"})
    n += check_derivation_matches_cleaned(
        env5, clean5, "compApp",
        (SortData("Expr", ()), SortData("List", (SortData("Op", ()),))), size=5)
    print(f"\nACCEPTANCE 9: PASS - reverseApp/flattenApp/compApp chain bodies "
          f"match their cleaned definitions on {n} enumerated inputs (size <= 5)")


def test_supporting_accepted_goals_hold_on_random_inputs():
    # checker-module spot property: accepted statements evaluate true
    rng = random.Random(99)
    checked = []
    for fname in ["section2.eq", "section5.eq"]:
        report = check_module(corpus_text(fname))
        assert report.ok
        env = report.env
        for decl in report.module.decls:
            if not isinstance(decl, FunDecl):
                continue
            fi = env.funs[decl.name]
            if fi.signature.result.refined:
                check_statement_spot(env, fi, rng, trials=1000)
                checked.append(decl.name)
    assert "sequenceP" in checked and "generalizedCorrectnessP'" in checked
    print(f"\nSUPPORTING: {len(checked)} accepted statements hold on 1000 "
          "random instantiations each")


def test_supporting_chain_evaluation_coherence():
    # checker-module invariant: accepted chains are pointwise equalities
    total = 0
    for fname in ["section2.eq", "section4.eq", "section5.eq"]:
        report = check_module(corpus_text(fname))
        assert report.ok
        env = report.env
        for decl in report.module.decls:
            if isinstance(decl, FunDecl):
                total += check_chain_coherence(env, env.funs[decl.name], size=4)
    assert total > 1000
    print(f"\nSUPPORTING: chain/evaluation coherence on {total} instantiations")

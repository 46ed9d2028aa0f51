import gc
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

from eqcheck import checker, logic, types
from eqcheck.cli import _span_json, run
from eqcheck.syntax import Span

from conftest import CORPUS, FILES, ROOT, UNUSED_HINT_MODULE


def run_cli(args, capsys):
    code = run(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus_file(name: str) -> str:
    return str(CORPUS / name)


def test_corpus_exits_zero(capsys):
    code, out, _ = run_cli(["check", corpus_file("section2.eq")], capsys)
    assert code == 0
    assert "OK" in out


def test_mutation_exits_one_with_json_record(capsys):
    code, out, _ = run_cli(
        ["check", corpus_file("mutations/singletonP_wrong_step.eq"), "--json"], capsys)
    assert code == 1
    records = json.loads(out)
    failed = [r for r in records if r["status"] != "proved"]
    assert len(failed) == 1
    rec = failed[0]
    assert rec["decl"] == "singletonP" and rec["kind"] == "chain-step"
    assert rec["goal"] and rec["facts"]
    assert set(rec) == {"file", "decl", "id", "kind", "span", "status",
                        "goal", "facts", "message"}
    assert set(rec["span"]) == {"line", "col", "end_line", "end_col"}


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(["check", "does-not-exist.eq"], capsys)
    assert code == 2
    assert "cannot read" in err


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.eq"
    bad.write_text("f : Int ->\n")
    code, _, err = run_cli(["check", str(bad)], capsys)
    assert code == 2


def test_type_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.eq"
    bad.write_text("f : x:Int -> List Int\nf x = Cons 1 2\n")
    code, _, err = run_cli(["check", str(bad)], capsys)
    assert code == 2


def test_non_ascii_digits_exit_two(tmp_path, capsys):
    # '²' is no digit int() accepts, and '٣' would otherwise read as 3
    for digit in ("\u00b2", "\u0663"):
        path = tmp_path / "digit.eq"
        path.write_text(f"f : x:Int -> Int\nf x = x + {digit}\n", encoding="utf-8")
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert "2:11: unexpected character" in err and "Traceback" not in err


def test_invalid_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.eq"
    path.write_bytes("f : x:Int -> Int\nf x = x -- caf\u00e9\n".encode("latin-1"))
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert err.startswith(f"eqcheck: cannot read {path}: not valid UTF-8")


def test_overlong_integer_literal_exits_two(tmp_path, capsys):
    digits = "9" * 4301
    path = tmp_path / "long.eq"
    for clause, where in ((f"f x = x + {digits}", "2:11"), (f"f {digits} = 0", "2:3")):
        path.write_text(f"f : x:Int -> Int\n{clause}\nf _ = 1\n")
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert f"{where}: integer literal too long" in err


def test_literal_over_lowered_digit_limit_exits_two(tmp_path):
    # int() converts at most PYTHONINTMAXSTRDIGITS digits, here fewer than 1000
    path = tmp_path / "long.eq"
    path.write_text(f"f : x:Int -> Int\nf x = x + {'9' * 1000}\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONINTMAXSTRDIGITS": "640"}
    proc = subprocess.run([sys.executable, "-m", "eqcheck.cli", "check", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert f"{path}: 2:11: integer literal too long" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_flags_exit_two(capsys):
    code, _, _ = run_cli(["check", corpus_file("section2.eq"), "--ple-fuel", "0"], capsys)
    assert code == 2


def test_human_output_shows_failing_step_sides(tmp_path, capsys):
    code, out, _ = run_cli(
        ["check", corpus_file("mutations/singletonP_wrong_step.eq")], capsys)
    assert code == 1
    assert "append [] (x : [])" in out and "x : x : []" in out


def test_ple_default_flag(tmp_path, capsys):
    src = (CORPUS / "mutations/rightIdP_no_ple.eq").read_text()
    f = tmp_path / "noply.eq"
    f.write_text(src)
    code1, _, _ = run_cli(["check", str(f)], capsys)
    code2, _, _ = run_cli(["check", str(f), "--ple-default"], capsys)
    assert code1 == 1 and code2 == 0


def test_no_unused_hint_warnings_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EQCHECK_COLOR", "never")
    path = tmp_path / "triv.eq"
    path.write_text(UNUSED_HINT_MODULE)
    warning = "warning: triv.eq: trivP: clause 1: hint '? singleLemma x' is unused"
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0 and warning in out.splitlines()
    code, out, _ = run_cli(["check", str(path), "--no-unused-hint-warnings"], capsys)
    assert code == 0 and "unused" not in out


def test_machine_output_skips_unused_hint_pass(tmp_path, capsys, monkeypatch):
    # neither JSON nor --dump-facts shows warnings, so neither pays for them
    path = tmp_path / "triv.eq"
    path.write_text(UNUSED_HINT_MODULE)
    _, expected, _ = run_cli(
        ["check", str(path), "--json", "--no-unused-hint-warnings"], capsys)

    def unexpected(*args):
        raise AssertionError("unused-hint pass ran")

    monkeypatch.setattr(checker, "_unused_hint_warnings", unexpected)
    code, out, _ = run_cli(["check", str(path), "--json"], capsys)
    assert code == 0 and out == expected
    code, out, _ = run_cli(["check", str(path), "--dump-facts", "trivP/c0/step1"], capsys)
    assert code == 0 and out.startswith("obligation trivP/c0/step1 [chain-step]")


def test_json_byte_identical_across_runs(capsys):
    args = ["check", corpus_file("section5.eq"), "--json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_check_leaves_no_reference_cycle(path, capsys):
    # a cycle keeps the checked module's AST and TypeEnv alive until the
    # cyclic collector runs; a check should free them when it returns.  The
    # first run builds what the process keeps, the argument parser
    run(["check", str(path)])
    gc.collect()
    gc.disable()
    try:
        run(["check", str(path)])
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_deeply_nested_input_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.eq"
    depth = 30000
    deep.write_text("f : x:Int -> Int\nf x = " + "(" * depth + "x" + ")" * depth + "\n")
    code, _, err = run_cli(["check", str(deep)], capsys)
    assert code == 2
    assert f"eqcheck: {deep}: input nested too deeply" in err
    assert "Traceback" not in err


def test_long_literal_checks_in_fresh_interpreter(tmp_path):
    """A 500-element literal needs a raised recursion limit; check_module
    raises it itself, without help from any module imported on the way."""
    lit = tmp_path / "lit.eq"
    lit.write_text(
        "measure length\n"
        "length : xs:(List a) -> {v:Int | 0 <= v}\n"
        "length [] = 0\n"
        "length (_:xs) = 1 + length xs\n\n"
        f"lenLit : u:Int -> {{v:Proof | length {[1] * 500} == 500}}\n"
        "lenLit u = ()\n")
    script = ("import contextlib, io, sys, eqcheck.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = eqcheck.cli.run(['check', sys.argv[1]])\n"
              "print(code, 'eqcheck.semantics' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script, str(lit)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_dump_facts(capsys):
    code, out, _ = run_cli(
        ["check", corpus_file("section2.eq"), "--dump-facts", "singletonP/c0/step1"],
        capsys)
    assert code == 0
    assert out.startswith("obligation singletonP/c0/step1")
    assert "facts:" in out and "goal:" in out
    assert "reverse (x : []) == append (reverse []) (x : [])" in out


def test_dump_facts_of_a_clause_vc_ends_with_the_chain(capsys):
    code, out, _ = run_cli(
        ["check", corpus_file("section2.eq"), "--dump-facts", "singletonP/c0/vc"],
        capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "obligation singletonP/c0/vc [clause-vc]"
    assert lines[-1] == "goal: reverse (x : []) == x : []"
    assert lines[-4:-1] == [
        "  reverse (x : []) == append (reverse []) (x : [])",
        "  append (reverse []) (x : []) == append [] (x : [])",
        "  append [] (x : []) == x : []",
    ]


def test_dump_facts_unknown_id_is_usage_error(capsys):
    code, out, err = run_cli(
        ["check", corpus_file("section2.eq"), "--dump-facts", "noSuch/c0"], capsys)
    assert code == 2 and out == ""
    assert err == "eqcheck: no obligation named 'noSuch/c0'\n"


def test_color_env_var_never(capsys, monkeypatch):
    monkeypatch.setenv("EQCHECK_COLOR", "never")
    _, out, _ = run_cli(["check", corpus_file("section2.eq")], capsys)
    assert "\x1b[" not in out


def test_color_env_var_always(capsys, monkeypatch):
    monkeypatch.setenv("EQCHECK_COLOR", "always")
    _, out, _ = run_cli(["check", corpus_file("section2.eq")], capsys)
    assert "\x1b[32m" in out


def test_console_script_installed(monkeypatch, capsys):
    # read as text: tomllib is not in Python 3.10
    entry = re.search(r'^eqcheck = "([\w.]+):(\w+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert entry, "no eqcheck console script in pyproject.toml"
    main = getattr(importlib.import_module(entry[1]), entry[2])
    monkeypatch.setattr(sys, "argv", ["eqcheck"])
    # argparse usage error: missing subcommand
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2
    assert "usage: eqcheck" in capsys.readouterr().err


def test_span_json_has_the_four_keys():
    assert _span_json(Span(3, 4, 5, 9)) == {"line": 3, "col": 4, "end_line": 5, "end_col": 9}


# Work per pass of corpus/*.eq, counted rather than timed so that it holds on
# any host: solver node lookups (`SolverState._mk`) and sort constructions.
# Sharing unchanged terms and sorts, and interning each term object once per
# state, took them from 12278 and 5453 to 5443 and 1927; unifying sorts one
# level at a time, without resolving them whole, took the sorts to 1252.
# Deciding each clause VC on the state its chain steps saturated, instead of
# building a state of its own, took the lookups from 5403 to 3944.
CORPUS_MK_CALLS = 3944
CORPUS_SORTDATA = 1252


def test_corpus_work_counts_stay_near_recorded(capsys, monkeypatch):
    counts = {"mk": 0, "sortdata": 0}
    mk, init = logic.SolverState._mk, types.SortData.__init__

    def counting_mk(self, *args):
        counts["mk"] += 1
        return mk(self, *args)

    def counting_init(self, *args, **kwargs):
        counts["sortdata"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(logic.SolverState, "_mk", counting_mk)
    monkeypatch.setattr(types.SortData, "__init__", counting_init)
    for path in sorted(CORPUS.glob("*.eq")):
        assert run(["check", str(path)]) == 0
    capsys.readouterr()
    # about 10% either way: more is lost work; less is a gain to record here
    assert 0.9 * CORPUS_MK_CALLS <= counts["mk"] <= 1.1 * CORPUS_MK_CALLS, counts
    assert 0.9 * CORPUS_SORTDATA <= counts["sortdata"] <= 1.1 * CORPUS_SORTDATA, counts

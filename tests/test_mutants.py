"""Malformed input never ends in a traceback.

Each corpus and mutation file gives seeded token-level mutants
(`test_golden.token_mutants`, seeded by the file name plus "sweep"), and
each mutant goes through the whole pipeline, `cli.run(["check", path])`,
once in default mode and once with `--strict-hints --ple-default`.  The exit
code must be 0, 1 or 2, and an exit 2 must come with one line on stderr,
`eqcheck: <path>: <line>:<col>: ...`.  The parse golden pins only the
parser; this sweep also drives sort checking, the wf checks and the VCs
with malformed input.  Run as a script, it sweeps N mutants per file and
exits 1 if any of them goes wrong:

    PYTHONPATH=src python tests/test_mutants.py [--mutants N]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import pathlib
import random
import re
import sys
import tempfile
import traceback
from collections import Counter

import pytest

from eqcheck import cli

from conftest import FILES
from test_golden import token_mutants

MODES = ([], ["--strict-hints", "--ple-default"])


def run_mutant(source: str, where: pathlib.Path, flags: list[str]) -> tuple[int | None, str]:
    """(exit code, fault) of checking `source`, written to `where`.  The fault
    is empty unless the run raised, exited with a code other than 0, 1 or 2,
    or exited 2 without one located error line."""
    where.write_text(source)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(["check", str(where), *flags])
    except Exception as e:
        frame = traceback.extract_tb(e.__traceback__)[-1]
        return None, f"{type(e).__name__}: {e} (at {frame.name}, line {frame.lineno})"
    if code not in (0, 1, 2):
        return code, f"exit code {code}"
    located = rf"eqcheck: {re.escape(str(where))}: \d+:\d+: [^\n]+\n"
    if code == 2 and not re.fullmatch(located, err.getvalue()):
        return code, f"unlocated error {err.getvalue()!r}"
    return code, ""


def sweep(path: pathlib.Path, count: int, where: pathlib.Path) -> tuple[Counter, list[str]]:
    """The exit codes of `count` mutants of `path` in every mode, and a line
    per mutant that went wrong."""
    codes: Counter = Counter()
    faults: list[str] = []
    mutants = token_mutants(path.read_text(), random.Random(path.name + "sweep"), count)
    for i, source in enumerate(mutants):
        for flags in MODES:
            code, fault = run_mutant(source, where / path.name, flags)
            codes[code] += 1
            if fault:
                mode = " ".join(flags) or "default"
                faults.append(f"{path.name} mutant {i} ({mode}): {fault}")
    return codes, faults


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_malformed_input_exits_with_a_verdict_or_a_located_error(path, tmp_path):
    _, faults = sweep(path, 10, tmp_path)
    assert faults == []


def main(mutants: int = 100) -> int:
    codes: Counter = Counter()
    faults: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for path in FILES:
            file_codes, file_faults = sweep(path, mutants, pathlib.Path(tmp))
            codes.update(file_codes)
            faults.extend(file_faults)
    for line in faults:
        print(line)
    print(f"{mutants} mutants of each of {len(FILES)} files, {len(MODES)} modes: exit "
          + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items(), key=str))
          + f"; {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Sweep seeded token mutants through the CLI.")
    ap.add_argument("--mutants", type=int, default=100, metavar="N",
                    help="mutants per file (default %(default)s)")
    sys.exit(main(ap.parse_args().mutants))

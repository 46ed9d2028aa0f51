"""Golden verdicts: the human rendering and the verdict JSON of every corpus
and mutation file stay byte-identical unless a change says why they differ.
The verdict JSON under `--strict-hints` is pinned too, since that mode gives
chain steps a narrower hypothesis scope than the default, and so is the one
under `--ple-default`, where goal terms unfold under PLE.

The solver's own answers are pinned as well: one digest over the entailment
bits of 3000 seeded random queries (`tests/oracles`), with the count of
entailed answers beside it, so a moved answer shows as a number.

After a deliberate, explained verdict change, rewrite the goldens with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import pathlib
import random

import pytest

from eqcheck.checker import CheckConfig, check_module
from eqcheck.cli import _Paint, render_human, report_to_json

from conftest import FILES, env_of
from oracles import SOUNDNESS_SRC, compound_soundness_trial, soundness_trial

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "json.sha256"
STRICT_DIGESTS = GOLDEN / "json_strict.sha256"
PLE_DIGESTS = GOLDEN / "json_ple.sha256"
SOLVER_ANSWERS = GOLDEN / "solver_answers.sha256"
STRICT = CheckConfig(strict_hints=True)
PLE = CheckConfig(ple_default=True)


def renderings(path: pathlib.Path, config: CheckConfig | None = None
               ) -> tuple[str, str]:
    """(human text, sha256 of the JSON text) for one checked file."""
    report = check_module(path.read_text(), config, file=path.name)
    human = render_human([report], _Paint(False)) + "\n"
    text = json.dumps(report_to_json([report]), indent=2)
    return human, hashlib.sha256(text.encode()).hexdigest()


def solver_answers() -> tuple[str, int]:
    """(sha256 of the answer bits, count entailed) over 1500 atomic and 1500
    compound soundness queries, 1 in 4 with PLE."""
    env = env_of(SOUNDNESS_SRC)
    rng = random.Random(2018)
    bits = []
    for trial in (soundness_trial, compound_soundness_trial):
        for i in range(1500):
            entailed, _ = trial(env, rng, ple=(i % 4 == 0))
            bits.append("1" if entailed else "0")
    return hashlib.sha256("".join(bits).encode()).hexdigest(), bits.count("1")


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


if __name__ == "__main__":
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
    digest, entailed = solver_answers()
    SOLVER_ANSWERS.write_text(f"{digest}  {entailed}\n")

from __future__ import annotations

import pathlib

import pytest

from eqcheck.checker import check_module
from eqcheck.parser import parse_module, parse_pred, parse_term
from eqcheck.types import check_types

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
# the corpus and mutation files, in the order the goldens list them
FILES = sorted(CORPUS.glob("*.eq")) + sorted((CORPUS / "mutations").glob("*.eq"))

LIST_BASICS = """\
measure length
length : xs:(List a) -> {v:Int | 0 <= v}
length [] = 0
length (_:xs) = 1 + length xs

reflect append
append : xs:(List a) -> ys:(List a) -> {zs:(List a) | length zs == length xs + length ys}
append [] ys = ys
append (x:xs) ys = x : append xs ys

reflect reverse
reverse : xs:(List a) -> List a
reverse [] = []
reverse (x:xs) = append (reverse xs) [x]
"""

# trivP's hint is not needed: its goal holds by reflexivity
UNUSED_HINT_MODULE = LIST_BASICS + """\

trivP : x:a -> {v:Proof | [x] == [x]}
trivP x
  =   [x]
  ==. [x]
      ? singleLemma x
  *** QED

singleLemma : x:a -> {v:Proof | reverse [x] == [x]}
singleLemma x
  =   reverse [x]
  ==. append (reverse []) [x]
  ==. append [] [x]
  ==. [x]
  *** QED
"""


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text()


def env_of(source: str):
    return check_types(parse_module(source))


term = parse_term
pred = parse_pred


def discharge_unshared(step, obligations, env, config):
    """`checker._discharge_each` with no state shared: every obligation is
    discharged (or decided) on a state of its own."""
    return (step(ob, env, config) for ob in obligations)


@pytest.fixture(scope="session")
def list_env():
    return env_of(LIST_BASICS)


@pytest.fixture(scope="session")
def section2_report():
    return check_module(corpus_text("section2.eq"), file="section2.eq")


@pytest.fixture(scope="session")
def section4_report():
    return check_module(corpus_text("section4.eq"), file="section4.eq")


@pytest.fixture(scope="session")
def section5_report():
    return check_module(corpus_text("section5.eq"), file="section5.eq")


@pytest.fixture(scope="session")
def section2_ple_report():
    return check_module(corpus_text("section2_ple.eq"), file="section2_ple.eq")

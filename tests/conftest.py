from __future__ import annotations

import os
from pathlib import Path

import pytest

import regcheck
from regcheck.cli import _ENV_KEYS
from regcheck.corpus import parse_document
from regcheck.llm import API_KEY_ENV, StubBackend

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent.parent / "src" / "regcheck" / "data"


def pytest_sessionstart(session):
    """Under `tests/mutants.py`, which names its edited copy of `src/` in `MUTANT_SRC`,
    stop unless that copy is the one imported: tests of another copy would pass whatever
    the edit, and the mutant would read as a survivor."""
    expected = os.environ.get("MUTANT_SRC")
    if expected and not Path(regcheck.__file__).resolve().is_relative_to(Path(expected).resolve()):
        raise pytest.UsageError(f"the tests import {regcheck.__file__}, not the copy in {expected}")


@pytest.fixture(autouse=True)
def _no_regcheck_environment(monkeypatch):
    """Every test starts without the REGCHECK_* settings of the shell that runs
    it: an exported model or endpoint would change what the CLI runs."""
    for name in (*_ENV_KEYS.values(), API_KEY_ENV):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def stub_calls(monkeypatch) -> list:
    """Every request the stub backend answers behind the cache."""
    seen: list = []
    complete = StubBackend.complete

    def counted(self, messages):
        seen.append(messages)
        return complete(self, messages)

    monkeypatch.setattr(StubBackend, "complete", counted)
    return seen


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def gold_doc():
    raw = (FIXTURES / "sfcr_gold_corpus.txt").read_text(encoding="utf-8")
    return parse_document(raw, "structured", doc_id="gold")


@pytest.fixture(scope="session")
def dpa_doc():
    raw = (FIXTURES / "dpa_demo.txt").read_text(encoding="utf-8")
    return parse_document(raw, "structured", doc_id="dpa_demo")

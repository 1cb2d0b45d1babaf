from __future__ import annotations

from pathlib import Path

import pytest

from regcheck.cli import _ENV_KEYS
from regcheck.corpus import parse_document
from regcheck.llm import API_KEY_ENV

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent.parent / "src" / "regcheck" / "data"


@pytest.fixture(autouse=True)
def _no_regcheck_environment(monkeypatch):
    """Every test starts without the REGCHECK_* settings of the shell that runs
    it: an exported model or endpoint would change what the CLI runs."""
    for name in (*_ENV_KEYS.values(), API_KEY_ENV):
        monkeypatch.delenv(name, raising=False)


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

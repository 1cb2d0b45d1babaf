from __future__ import annotations

import os
import threading
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


class PoolTasks:
    """The tasks of the pool that `pipeline._ordered_map` runs units on, by the key that
    `key` gives each task's item (the item itself by default). A task waits for each event
    in `gates[key]` before it runs the unit, and `done(key)` is set once it has run, whether
    the unit made a call or not. `timeline` lists `("start", key)` as a task starts to run
    its unit and `("done", key)` once it has run it."""

    def __init__(self):
        self.key = lambda item: item
        self.gates: dict = {}
        self.finished: dict = {}
        self.timeline: list[tuple[str, object]] = []

    def done(self, key) -> threading.Event:
        return self.finished.setdefault(key, threading.Event())


@pytest.fixture
def pool_tasks(monkeypatch) -> PoolTasks:
    import concurrent.futures

    tasks = PoolTasks()

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, item):
            key = tasks.key(item)

            def gated(item):
                for gate in tasks.gates.get(key, ()):
                    if not gate.wait(10):
                        raise TimeoutError(f"the task of {key!r} waited 10 s for its gate")
                tasks.timeline.append(("start", key))
                return fn(item)

            def ran(_):
                tasks.timeline.append(("done", key))
                tasks.done(key).set()

            future = super().submit(gated, item)
            future.add_done_callback(ran)
            return future

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    return tasks


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

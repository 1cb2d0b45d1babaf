"""The output and cache laws of `check` and `classify`, over their configuration grids.

Output law: the report, findings and labels bytes of a run depend on its
inputs alone. `--parallelism`, the response cache (none, cold or warm), the
backend (the stub, or an http endpoint that serves the same script) and
`--runs` change none of them.

Cache law: the cache changes only cost and latency. A cold cache makes one
request per unit, a warm one makes none, and repeated runs bypass it.

Tier-1 runs a pairwise cover of each grid: every pair of factor values occurs
in at least one case (Cohen et al., "The AETG System", IEEE TSE 1997). The
other cases are marked `full_grid` and deselected by default; run them with
`pytest -m full_grid tests/test_laws.py`.
"""

from __future__ import annotations

import contextlib
import json
from itertools import combinations, product
from pathlib import Path

import pytest

from regcheck.cli import main
from regcheck.llm import StubBackend
from test_llm import _ScriptedHandler, scripted_server

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent.parent / "src" / "regcheck" / "data"

CHECK_GRID = {
    "granularity": ("sentence", "paragraph"),
    "context": ("on", "off"),
    "parallelism": (1, 8),
    "cache": ("none", "cold", "warm"),
    "backend": ("stub", "http"),
    "runs": (1, 2),
}
CLASSIFY_GRID = {
    "parallelism": (1, 8),
    "stem": ("off", "on"),
    "cache": ("none", "cold", "warm"),
    "backend": ("stub", "http"),
}
# Each granularity is checked with the script written for its units.
CHECK_SCRIPTS = {
    "sentence": FIXTURES / "stub_sentence_blind.jsonl",
    "paragraph": FIXTURES / "stub_paragraph_aware.jsonl",
}
CLASSIFY_SCRIPT = FIXTURES / "stub_classify.jsonl"
REPORT_FILES = ("report.json", "report.md", "findings.jsonl")
# The ledger fields that may differ between equal runs.
VOLATILE = ("latency_s", "cached", "monetary_cost")


def pairwise_cover(grid: dict[str, tuple]) -> list[tuple]:
    """A greedy pairwise cover of the grid's cases: each step takes the first
    case that covers the most pairs not covered yet."""
    cases = list(product(*grid.values()))

    def pairs(case: tuple) -> set:
        return set(combinations(enumerate(case), 2))

    uncovered = set().union(*map(pairs, cases))
    cover = []
    while uncovered:
        best = max(cases, key=lambda case: len(pairs(case) & uncovered))
        cover.append(best)
        uncovered -= pairs(best)
    return cover


def grid_cases(grid: dict[str, tuple]) -> list:
    """Every case of the grid; those outside the pairwise cover are `full_grid`."""
    cover = pairwise_cover(grid)
    return [
        pytest.param(
            *case,
            id="-".join(f"{k}={v}" for k, v in zip(grid, case)),
            marks=() if case in cover else pytest.mark.full_grid,
        )
        for case in product(*grid.values())
    ]


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


@contextlib.contextmanager
def backend_flags(backend: str, script: Path):
    """The flags that select `backend` answering by `script`."""
    if backend == "stub":
        yield ["--stub-script", str(script)]
        return
    with scripted_server(script) as url:
        yield ["--endpoint", url]


def cache_entries(directory: Path) -> int:
    return len(list(directory.glob("*.json"))) if directory.exists() else 0


def read_outputs(directory: Path, names) -> dict[str, bytes]:
    return {name: (directory / name).read_bytes() for name in names}


def ledger_rows(directory: Path) -> list[dict]:
    rows = [json.loads(line) for line in (directory / "costs.jsonl").read_text().splitlines()]
    return [{k: v for k, v in row.items() if k not in VOLATILE} for row in rows]


def check_argv(granularity, context, flags, out: Path) -> list[str]:
    return [
        "check",
        "--artifact", str(FIXTURES / "dpa_demo.txt"),
        "--format", "structured",
        "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
        "--granularity", granularity,
        "--context", context,
        "--out-dir", str(out),
        *flags,
    ]


def classify_argv(stem, flags, out: Path) -> list[str]:
    return [
        "classify",
        "--input", str(FIXTURES / "food_corpus.txt"),
        "--format", "structured",
        "--concepts", str(DATA / "food_safety_concepts.jsonl"),
        "--out", str(out),
        *(["--stem"] if stem == "on" else []),
        *flags,
    ]


@pytest.fixture(scope="module")
def check_reference(tmp_path_factory):
    """Per (granularity, context): the outputs and ledger rows of the plainest
    run (stub, parallelism 1, no cache, one run)."""
    references = {}

    def reference(granularity: str, context: str):
        if (granularity, context) not in references:
            out = tmp_path_factory.mktemp("check-reference")
            flags = ["--stub-script", str(CHECK_SCRIPTS[granularity])]
            assert main(check_argv(granularity, context, flags, out)) == 0
            references[granularity, context] = (
                read_outputs(out, REPORT_FILES),
                ledger_rows(out),
            )
        return references[granularity, context]

    return reference


@pytest.fixture(scope="module")
def stem_reference(tmp_path_factory) -> bytes:
    """The labels of the plainest `classify --stem` run."""
    out = tmp_path_factory.mktemp("classify-reference") / "labels.jsonl"
    assert main(classify_argv("on", ["--stub-script", str(CLASSIFY_SCRIPT)], out)) == 0
    return out.read_bytes()


def test_check_reference_is_the_golden_report(check_reference):
    outputs, _ = check_reference("paragraph", "off")
    for name in ("report.json", "report.md"):
        assert outputs[name] == (FIXTURES / f"golden_{name}").read_bytes(), name


@pytest.mark.parametrize(list(CHECK_GRID), grid_cases(CHECK_GRID))
def test_check_law(
    tmp_path, stub_calls, check_reference, granularity, context, parallelism, cache, backend, runs
):
    want_outputs, want_ledger = check_reference(granularity, context)
    units = len(want_ledger)
    cache_dir = tmp_path / "cache"
    shared = ["--parallelism", str(parallelism)]
    if cache != "none":
        shared += ["--cache-dir", str(cache_dir)]
    with backend_flags(backend, CHECK_SCRIPTS[granularity]) as flags:
        if cache == "warm":  # one run fills the cache
            assert main(check_argv(granularity, context, [*flags, *shared], tmp_path / "fill")) == 0
        entries = cache_entries(cache_dir)
        stub_calls.clear()
        _ScriptedHandler.requests_seen = []
        argv = check_argv(granularity, context, [*flags, *shared, "--runs", str(runs)], tmp_path / "out")
        assert main(argv) == 0
        made = len(_ScriptedHandler.requests_seen if backend == "http" else stub_calls)

    targets = [tmp_path / "out"] if runs == 1 else [tmp_path / "out" / f"run_{n:02d}" for n in (1, 2)]
    for target in targets:
        assert read_outputs(target, REPORT_FILES) == want_outputs, target
        assert ledger_rows(target) == want_ledger, target
        summary = json.loads((target / "costs_summary.json").read_text())
        warm_hit = cache == "warm" and runs == 1
        assert summary["calls"] == units
        assert summary["cache_hits"] == (units if warm_hit else 0)

    if cache == "warm" and runs == 1:
        assert made == 0
    else:  # cold, none, or repeated runs that bypass the cache
        assert made == runs * units
    filled = cache == "cold" and runs == 1
    assert cache_entries(cache_dir) == (units if filled else entries)


@pytest.mark.parametrize(list(CLASSIFY_GRID), grid_cases(CLASSIFY_GRID))
def test_classify_law(tmp_path, stub_calls, stem_reference, parallelism, stem, cache, backend):
    want = stem_reference if stem == "on" else (FIXTURES / "golden_labels.jsonl").read_bytes()
    provisions = want.count(b"\n")
    cache_dir = tmp_path / "cache"
    shared = ["--parallelism", str(parallelism)]
    if cache != "none":
        shared += ["--cache-dir", str(cache_dir)]
    with backend_flags(backend, CLASSIFY_SCRIPT) as flags:
        if cache == "warm":
            assert main(classify_argv(stem, [*flags, *shared], tmp_path / "fill.jsonl")) == 0
        entries = cache_entries(cache_dir)
        stub_calls.clear()
        _ScriptedHandler.requests_seen = []
        assert main(classify_argv(stem, [*flags, *shared], tmp_path / "labels.jsonl")) == 0
        made = len(_ScriptedHandler.requests_seen if backend == "http" else stub_calls)

    assert (tmp_path / "labels.jsonl").read_bytes() == want
    assert made == (0 if cache == "warm" else provisions)
    assert cache_entries(cache_dir) == (provisions if cache == "cold" else entries)

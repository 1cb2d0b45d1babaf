"""The output and cache laws of `check` and `classify`, over their configuration grids.

Output law: the report, findings and labels bytes of a run depend on its
inputs alone. `--parallelism`, the response cache (none, cold or warm), the
backend (the stub, or an http endpoint that serves the same script) and
`--runs` change none of them.

Cache law: the cache changes only cost and latency. A cold cache makes one
request per unit, a warm one makes none, and repeated `check` runs bypass it;
`classify` ignores `runs`.

Out-dir law: the files of every `check` run agree with each other (`audit`).

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
from regcheck.storage import write_json
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


def jsonl_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def ledger_rows(directory: Path) -> list[dict]:
    rows = jsonl_records(directory / "costs.jsonl")
    return [{k: v for k, v in row.items() if k not in VOLATILE} for row in rows]


def audit(out_dir: Path) -> None:
    """Assert that the files of one `check` run agree with each other:
    - `costs_summary.json` is the fold of `costs.jsonl`, its floats summed in row order;
    - `report.json`'s `totals` and `per_rule` are a recount of its own findings;
    - `findings.jsonl` is `report.json`'s findings, projected, in the same order;
    - the ledger has one row per finding that has a usage, in finding order, and a
      cached row costs nothing and takes no time."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    findings = report["findings"]
    rows = jsonl_records(out_dir / "costs.jsonl")

    fold = {
        "calls": len(rows),
        "cache_hits": sum(1 for row in rows if row["cached"]),
        "prompt_tokens": sum(row["prompt_tokens"] for row in rows),
        "completion_tokens": sum(row["completion_tokens"] for row in rows),
        "monetary_cost": sum(row["monetary_cost"] for row in rows),
        "latency_s": sum(row["latency_s"] for row in rows),
    }
    summary = json.loads((out_dir / "costs_summary.json").read_text(encoding="utf-8"))
    assert list(summary.items()) == list(fold.items())

    parsed = [f for f in findings if f["parse_error"] is None]
    per_rule: dict[str, list[str]] = {}
    for finding in parsed:
        for rule_id in finding["rule_ids"]:
            per_rule.setdefault(rule_id, []).append(finding["passage"])
    assert report["per_rule"] == per_rule
    assert not set(per_rule) & set(report["uncovered_rules"])
    assert report["totals"] == {
        "passages": len(findings),
        "applicable": sum(1 for f in parsed if f["rule_ids"]),
        "not_applicable": sum(1 for f in parsed if not f["rule_ids"]),
        "parse_failures": len(findings) - len(parsed),
        "rules_covered": len(per_rule),
        "rules_uncovered": len(report["uncovered_rules"]),
    }

    assert jsonl_records(out_dir / "findings.jsonl") == [
        {
            "unit_ref": f["passage"],
            "labels": sorted(f["rule_ids"]),
            "rationale": f["rationale"],
            "parse_error": f["parse_error"],
        }
        for f in findings
    ]

    paid = [f for f in findings if f["prompt_tokens"] is not None]
    tokens = [(f["prompt_tokens"], f["completion_tokens"]) for f in paid]
    assert [(row["prompt_tokens"], row["completion_tokens"]) for row in rows] == tokens
    for row in rows:
        if row["cached"]:
            assert (row["monetary_cost"], row["latency_s"]) == (0, 0), row


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
        audit(target)
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


def test_classify_ignores_runs(tmp_path, stub_calls):
    # `runs` is a `check` setting: classify neither repeats nor bypasses the cache for it.
    write_json(tmp_path / "config.json", {"runs": 2})
    want = (FIXTURES / "golden_labels.jsonl").read_bytes()
    flags = ["--stub-script", str(CLASSIFY_SCRIPT), "--cache-dir", str(tmp_path / "cache")]
    for name in ("cold.jsonl", "warm.jsonl"):
        stub_calls.clear()
        argv = ["--config", str(tmp_path / "config.json"), *classify_argv("off", flags, tmp_path / name)]
        assert main(argv) == 0
        assert (tmp_path / name).read_bytes() == want
    assert stub_calls == []
    assert cache_entries(tmp_path / "cache") == want.count(b"\n")

"""The output and cache laws of `check` and `classify`, over their configuration grids.

Output law: the report, findings and labels bytes of a run depend on its
inputs alone. `--parallelism`, the response cache (none, cold or warm), the
backend (the stub, or an http endpoint that serves the same script) and
`--runs` change none of them.

Cache law: the cache changes only cost and latency. A cold cache makes one
request per unit, a warm one makes none, and repeated `check` runs bypass it;
`classify` ignores `runs`.

Out-dir law: the files of every `check` run agree with each other (`audit`).

Unit law: `segment` lists the units that `check` runs, in the same order.

Input law: how a document's lines end does not reach the outputs. CRLF line endings, a
missing final newline and trailing blank lines give the bytes of the LF original.

Rules-order law: the order of a ruleset's lines reaches only the order of `per_rule` and
`uncovered_rules`, in `report.json` and `report.md`, which follows the file.

Hash-seed law: `PYTHONHASHSEED`, which orders the iteration of each set and frozenset,
reaches no output of `classify` or `check`.

Tier-1 runs a pairwise cover of each grid: every pair of factor values occurs
in at least one case (Cohen et al., "The AETG System", IEEE TSE 1997). The
other cases are marked `full_grid` and deselected by default; run them with
`pytest -m full_grid tests/test_laws.py`.
"""

from __future__ import annotations

import contextlib
import json
import re
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

from regcheck.cli import main
from regcheck.storage import write_json, write_jsonl
from test_llm import _child_env, _ScriptedHandler, scripted_server

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


@pytest.mark.parametrize("granularity", ["sentence", "paragraph"])
@pytest.mark.parametrize("fmt", ["plain", "structured"])
def test_segment_and_check_see_the_same_units(tmp_path, fmt, granularity):
    # Both read the artifact through the one reader; a catch-all script answers every unit.
    script = tmp_path / "catch_all.jsonl"
    write_jsonl(script, [{"match": "", "response": "R99."}])
    flags = ["--format", fmt, "--granularity", granularity]
    parsed = 0
    for artifact in sorted(FIXTURES.glob("*.txt")):
        units, out = tmp_path / f"{artifact.stem}.jsonl", tmp_path / artifact.stem
        segment = main(["segment", "--input", str(artifact), *flags, "--out", str(units)])
        check = main([
            "check", "--artifact", str(artifact), *flags,
            "--rules", str(DATA / "gdpr_art28_demo.jsonl"), "--stub-script", str(script),
            "--out-dir", str(out),
        ])
        assert (segment, check) in ((0, 0), (2, 2)), artifact.name
        if segment == 0:
            want = [r["unit_ref"] for r in jsonl_records(units)]
            assert [r["unit_ref"] for r in jsonl_records(out / "findings.jsonl")] == want
            parsed += 1
    assert parsed >= 4


# Each variant of a document's text that must give the original's outputs.
INPUT_VARIANTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no-final-newline": lambda text: text.removesuffix("\n"),
    "trailing-blank-lines": lambda text: text + "\n\n\n",
}
# Per document, its format and a script that answers each of its check units.
INPUT_DOCUMENTS = {
    "dpa_demo.txt": ("structured", None),
    "food_corpus_plain.txt": (
        "plain",
        [
            {"match": "salmonella", "response": "R3. A pathogen test is a security measure."},
            {"match": "tracing records", "response": "R5, R7. Records are kept and returned."},
            {"match": "licence holder", "response": "R1. The holder acts on instructions."},
            {"match": "", "response": "R99. Not a processing obligation."},
        ],
    ),
}


def _input_law_outputs(artifact: Path, fmt: str, script: Path, out: Path) -> dict[str, bytes]:
    """The bytes of `segment` at each granularity and of every `check` file at each, with
    context, for the document at `artifact`."""
    outputs = {}
    for granularity in ("sentence", "paragraph"):
        flags = ["--format", fmt, "--granularity", granularity]
        units = out / f"segment-{granularity}.jsonl"
        assert main(["segment", "--input", str(artifact), *flags, "--out", str(units)]) == 0
        outputs[units.name] = units.read_bytes()
        run_dir = out / f"check-{granularity}"
        assert main([
            "check", "--artifact", str(artifact), *flags, "--context", "on",
            "--rules", str(DATA / "gdpr_art28_demo.jsonl"), "--stub-script", str(script),
            "--out-dir", str(run_dir),
        ]) == 0
        for path in sorted(run_dir.iterdir()):
            outputs[f"{run_dir.name}/{path.name}"] = path.read_bytes()
    return outputs


@pytest.mark.parametrize("variant", list(INPUT_VARIANTS))
@pytest.mark.parametrize("name", list(INPUT_DOCUMENTS))
def test_input_law_line_endings_do_not_reach_the_outputs(tmp_path, name, variant):
    fmt, entries = INPUT_DOCUMENTS[name]
    script = tmp_path / "script.jsonl"
    if entries is None:
        script = CHECK_SCRIPTS["paragraph"]
    else:
        write_jsonl(script, entries)
    text = (FIXTURES / name).read_bytes().decode("utf-8")
    assert text.endswith("\n") and "\r" not in text
    changed = tmp_path / variant / name  # the same file name: the same unit refs
    changed.parent.mkdir()
    changed.write_bytes(INPUT_VARIANTS[variant](text).encode("utf-8"))
    want = _input_law_outputs(FIXTURES / name, fmt, script, tmp_path / "original")
    got = _input_law_outputs(changed, fmt, script, tmp_path / "changed")
    assert len(want) == 12 and b"\"R1\"" in want["check-sentence/findings.jsonl"]
    assert got == want


# A rule's line in `report.md`'s "Areas of compliance" or "non-compliance" section.
_RULE_LINE = re.compile(r"- \*\*(R\d+)\*\*")


def _in_file_order(rule_ids, rules: Path) -> list[str]:
    order = [record["rule_id"] for record in jsonl_records(rules)]
    return sorted(rule_ids, key=order.index)


@pytest.mark.parametrize("granularity", ["sentence", "paragraph"])
def test_rules_order_law_reorders_only_the_per_rule_sections(tmp_path, granularity):
    rules = DATA / "gdpr_art28_demo.jsonl"
    reversed_rules = tmp_path / "reversed" / rules.name  # the same name: the same ruleset
    reversed_rules.parent.mkdir()
    reversed_rules.write_bytes(b"".join(reversed(rules.read_bytes().splitlines(keepends=True))))
    outputs = {}
    for ruleset in (rules, reversed_rules):
        out = tmp_path / ruleset.parent.name
        assert main([
            "check", "--artifact", str(FIXTURES / "dpa_demo.txt"), "--format", "structured",
            "--granularity", granularity, "--rules", str(ruleset),
            "--stub-script", str(CHECK_SCRIPTS[granularity]), "--out-dir", str(out / "run"),
        ]) == 0
        names = [*REPORT_FILES, "costs.jsonl", "costs_summary.json"]
        outputs[ruleset] = read_outputs(out / "run", names)
    want, got = outputs[rules], outputs[reversed_rules]
    for name in ("findings.jsonl", "costs.jsonl", "costs_summary.json"):
        assert got[name] == want[name], name

    for ruleset, files in outputs.items():  # each report's sections follow its own file
        report = json.loads(files["report.json"])
        assert len(report["per_rule"]) > 1 and report["uncovered_rules"], ruleset
        assert list(report["per_rule"]) == _in_file_order(report["per_rule"], ruleset)
        assert report["uncovered_rules"] == _in_file_order(report["uncovered_rules"], ruleset)
        lines = files["report.md"].decode().splitlines()
        listed = [m[1] for m in map(_RULE_LINE.match, lines) if m]
        assert listed == [*report["per_rule"], *report["uncovered_rules"]], ruleset
    # Put back in the original's order, the reordered report gives the original's bytes.
    report, original = json.loads(got["report.json"]), json.loads(want["report.json"])
    report["per_rule"] = {rid: report["per_rule"][rid] for rid in original["per_rule"]}
    report["uncovered_rules"] = _in_file_order(report["uncovered_rules"], rules)
    assert (json.dumps(report, ensure_ascii=False, indent=2) + "\n").encode() == want["report.json"]
    lines = got["report.md"].decode().splitlines(keepends=True)
    slots = [i for i, line in enumerate(lines) if _RULE_LINE.match(line)]
    by_rule = {_RULE_LINE.match(lines[i])[1]: lines[i] for i in slots}
    for i, rid in zip(slots, [*original["per_rule"], *original["uncovered_rules"]]):
        lines[i] = by_rule[rid]
    assert "".join(lines).encode() == want["report.md"]


def test_hash_seed_law(tmp_path, stem_reference, check_reference):
    names = [*REPORT_FILES, "costs.jsonl", "costs_summary.json"]
    outputs = {}
    for seed in ("0", "1", "2"):
        out = tmp_path / f"seed{seed}"
        for argv in (
            classify_argv("on", ["--stub-script", str(CLASSIFY_SCRIPT)], out / "labels.jsonl"),
            check_argv("paragraph", "off", ["--stub-script", str(CHECK_SCRIPTS["paragraph"])], out),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "regcheck.cli", *argv],
                env={**_child_env(), "PYTHONHASHSEED": seed}, capture_output=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
        outputs[seed] = {"labels.jsonl": (out / "labels.jsonl").read_bytes(), **read_outputs(out, names)}
    assert outputs["0"]["labels.jsonl"] == stem_reference
    assert {name: outputs["0"][name] for name in REPORT_FILES} == check_reference("paragraph", "off")[0]
    assert outputs["1"] == outputs["0"] == outputs["2"]

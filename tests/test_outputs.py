"""`check`'s output files: each streamed encoder gives the bytes of its one-shot
reference, the writer gives them in one pass over a run's findings, and writing a run
takes no more memory for more findings."""

from __future__ import annotations

import json
import random
import re
import tracemalloc
from dataclasses import replace

import pytest

import regcheck.cli as cli
from regcheck.cli import write_check_outputs
from regcheck.compliance import (
    ComplianceReport,
    Finding,
    assemble_report,
    json_finding,
    json_head,
    json_tail,
    report_markdown_chunks,
    report_to_dict,
    report_to_markdown,
)
from regcheck.llm import ModelPrice, Usage, cost_row
from regcheck.taxonomy import RuleSpec, Ruleset

PRICES = {"m": ModelPrice(0.5, 1.5), "ü-model": ModelPrice(0.001, 0.002)}
RULES = [f"R{i}" for i in range(1, 13)] + ["X-1", "Règle"]
_PIECES = (
    "R5", "The processor shall assist.", "Données", "§28", "„Auftrag“", "个人数据", "é",
    "\x00", "\x1f", "\x7f", " ", "\t", "\n", "\r", " ", "  ", '"', "\\", "/", "*", "|",
)


def _ref_sort_key(rule_id):
    m = re.fullmatch(r"R(\d+)", rule_id)
    return (int(m.group(1)), "") if m else (10**9, rule_id)


def _ref_markdown(report):
    """The Markdown report as one list of lines, as it was built before it was streamed."""
    lines = [
        f"# Compliance report: {report.artifact_ref}",
        "",
        f"Ruleset: **{report.ruleset_name}**",
        "",
        "| total | value |",
        "|---|---|",
    ]
    for key, value in report.totals.items():
        lines.append(f"| {key} | {value} |")
    lines += ["", "## Areas of compliance", ""]
    if report.per_rule:
        for rid, passages in report.per_rule.items():
            lines.append(f"- **{rid}** satisfied by: {', '.join(passages)}")
    else:
        lines.append("- none")
    lines += ["", "## Areas of non-compliance (rules with no supporting passage)", ""]
    if report.uncovered_rules:
        for rid in report.uncovered_rules:
            lines.append(f"- **{rid}**")
    else:
        lines.append("- none")
    lines += ["", "## Findings", ""]
    for f in report.findings:
        if f.parse_error is not None:
            lines.append(f"### {f.passage_ref}: unparseable response")
            lines.append("")
            lines.append(f"Parse error: {f.parse_error}")
        else:
            verdict = (
                ", ".join(sorted(f.rule_ids, key=_ref_sort_key))
                if f.rule_ids
                else "not applicable"
            )
            lines.append(f"### {f.passage_ref}: {verdict}")
            lines.append("")
            if f.rationale:
                lines.append(f.rationale)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _ref_summary(rows):
    """`costs_summary.json` as it was summed over a list of ledger rows."""
    return {
        "calls": len(rows),
        "cache_hits": sum(1 for r in rows if r["cached"]),
        "prompt_tokens": sum(r["prompt_tokens"] for r in rows),
        "completion_tokens": sum(r["completion_tokens"] for r in rows),
        "monetary_cost": sum(r["monetary_cost"] for r in rows),
        "latency_s": sum(r["latency_s"] for r in rows),
    }


def _text(rng, most=12):
    return "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, most)))


def _usage(rng):
    if rng.random() < 0.3:
        return None
    latency = rng.choice([rng.random() * 3, rng.randint(0, 4), 0.0])
    return Usage(rng.choice(list(PRICES)), rng.randint(0, 900), rng.randint(0, 90),
                 latency, rng.random() < 0.2)


def _finding(rng, i):
    ref = f"art{_text(rng, 2)}:p{i}"
    if rng.random() < 0.2:
        return Finding(ref, frozenset(), "", _text(rng), _usage(rng), f"unparseable {_text(rng)}")
    ids = frozenset(rng.sample(RULES, rng.randint(0, 4)))
    return Finding(ref, ids, _text(rng).strip(), _text(rng), _usage(rng))


def _random_report(rng):
    findings = [_finding(rng, i) for i in range(rng.choice([0, 1, rng.randint(2, 30)]))]
    refs = [f.passage_ref for f in findings] or ["art:p0"]
    covered = rng.sample(RULES, rng.randint(0, 4))
    return ComplianceReport(
        artifact_ref=_text(rng, 4),
        ruleset_name=_text(rng, 4),
        per_rule={rid: rng.sample(refs, rng.randint(1, len(refs))) for rid in covered},
        uncovered_rules=rng.sample([r for r in RULES if r not in covered], rng.randint(0, 3)),
        findings=findings,
        totals={k: rng.randint(0, 99) for k in rng.sample(["passages", "é"], rng.randint(0, 2))},
    )


def _with_last(report, **fields):
    """`report` with fields of its last finding replaced."""
    *head, last = report.findings
    return replace(report, findings=[*head, replace(last, **fields)])


def _reports():
    rng = random.Random(83)
    reports = [_random_report(rng) for _ in range(300)]
    a, b, c = [r for r in reports if r.findings and r.findings[-1].parse_error is None][:3]
    failed = [f for r in reports for f in r.findings if f.parse_error is not None][:7]
    return reports + [
        ComplianceReport("art", "rules", {}, [], [], {}),
        ComplianceReport("art", "rules", {}, [], failed, {}),  # every answer failed to parse
        # Trailing whitespace of the last finding is trimmed from the Markdown.
        _with_last(a, rationale=a.findings[-1].rationale + " \t\n "),
        _with_last(b, rule_ids=frozenset(), rationale="", parse_error="unparseable\n  "),
        _with_last(c, rule_ids=frozenset(), rationale=" \n"),
    ]


REPORTS = _reports()


def test_reports_cover_the_corner_cases():
    findings = [f for r in REPORTS for f in r.findings]
    assert any(not r.findings and not r.per_rule and not r.uncovered_rules for r in REPORTS)
    assert any(f.usage is None for f in findings) and any(f.usage for f in findings)
    assert any(f.parse_error is not None for f in findings)
    assert any(re.search(r"[\x00-\x1f]", f.raw_response) for f in findings)
    assert any(re.search(r"[^\x00-\x7f]", f.rationale) for f in findings)
    last = [r.findings[-1] for r in REPORTS if r.findings]
    assert any(f.rationale != f.rationale.rstrip() and f.parse_error is None for f in last)
    assert any(f.parse_error and f.parse_error != f.parse_error.rstrip() for f in last)
    assert any(r.findings and all(f.parse_error is not None for f in r.findings) for r in REPORTS)


def test_streamed_reports_give_the_one_shot_bytes():
    for case, report in enumerate(REPORTS):
        one_shot = json.dumps(report_to_dict(report), ensure_ascii=False, indent=2) + "\n"
        pieces = [*json_head(report)]  # as the writer writes a report, one finding at a time
        pieces += [json_finding(f, first=i == 0) for i, f in enumerate(report.findings)]
        assert "".join([*pieces, json_tail(len(report.findings))]) == one_shot, case
        markdown = "".join(report_markdown_chunks(report))
        assert markdown == report_to_markdown(report) == _ref_markdown(report), case


def _lines(records) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


def _ruleset(name):
    """Rules of every id `_finding` draws, in an order that is not the sorted one."""
    return Ruleset(tuple(RuleSpec(rid, f"rule {rid}") for rid in [*RULES[6:], *RULES[:6]]), name)


# Every 15th random report, and each corner case appended after them.
@pytest.mark.parametrize("case", [*range(0, 300, 15), *range(300, len(REPORTS))])
def test_written_run_gives_the_one_shot_bytes(monkeypatch, tmp_path, case):
    findings, rules = REPORTS[case].findings, _ruleset(REPORTS[case].ruleset_name)
    report = assemble_report(findings, rules, REPORTS[case].artifact_ref)
    built = []  # the usage of each ledger row the writer builds
    monkeypatch.setattr(cli, "cost_row", lambda prices, u: built.append(u) or cost_row(prices, u))
    # A one-shot iterator: a writer that read the findings twice would see none the second time.
    totals = write_check_outputs(tmp_path, iter(findings), rules, report.artifact_ref, PRICES)
    assert totals == report.totals
    assert built == [f.usage for f in findings if f.usage is not None]  # once each
    rows = [cost_row(PRICES, f.usage) for f in findings if f.usage is not None]
    expected = {
        "report.json": json.dumps(report_to_dict(report), ensure_ascii=False, indent=2) + "\n",
        "report.md": _ref_markdown(report),
        "costs_summary.json": json.dumps(_ref_summary(rows), ensure_ascii=False, indent=2) + "\n",
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name
    assert (tmp_path / "costs.jsonl").read_bytes() == _lines(rows)
    assert (tmp_path / "findings.jsonl").read_bytes() == _lines(
        {"unit_ref": f.passage_ref, "labels": sorted(f.rule_ids), "rationale": f.rationale,
         "parse_error": f.parse_error}
        for f in findings
    )
    written = sorted(p.name for p in tmp_path.iterdir())  # no temp or spool file is left
    assert written == sorted([*expected, "costs.jsonl", "findings.jsonl"])


SIZED_RULES = Ruleset(tuple(RuleSpec(f"R{i}", f"rule {i}") for i in range(1, 13)), "rules")


def _sized_findings(n):
    """`n` findings with short raw responses. Only the first 32 cite rules, so the report's
    per-rule lists of refs, which its head must hold whole, are the same at any `n`."""
    return [
        Finding(
            f"dpa:p{i}",
            frozenset({"R1", f"R{2 + i % 9}"}) if i % 4 and i < 32 else frozenset(),
            f"Processing follows the controller's documented instructions {i}. " * 3,
            "R1.",
            Usage("m", 300 + i % 50, 40, 0.25 + i * 1e-6),
        )
        for i in range(n)
    ]


def _write_peak(target, findings) -> int:
    """The peak traced allocation while the run of `findings` is written, past what was
    already held."""
    tracemalloc.start()
    try:
        write_check_outputs(target, iter(findings), SIZED_RULES, "dpa", PRICES)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_a_run_does_not_grow_with_the_finding_count(tmp_path):
    small, large = _sized_findings(1_000), _sized_findings(4_000)
    small_peak = _write_peak(tmp_path / "small", small)
    large_peak = _write_peak(tmp_path / "large", large)
    # 1,024 lines of costs.jsonl, the file with the shortest lines: any whole copy
    # of 3,000 more findings, report rows or ledger rows is larger.
    line_bytes = (tmp_path / "large" / "costs.jsonl").stat().st_size / len(large)
    slack = 1024 * line_bytes
    assert large_peak - small_peak < slack, (small_peak, large_peak, slack)

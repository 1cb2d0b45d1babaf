"""Compliance checking of regulatory artifacts against textual rules.

Renders the prompt from template + rules + passage, sends it to a chat
backend, parses the rule determinations with their rationale, and assembles
per-rule coverage into a compliance report. Uncovered rules constitute the
non-compliance areas.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .corpus import Passage, sentence_spans
from .errors import ParseError, TemplateError
from .llm import Backend, ChatMessage, Usage
from .storage import read_text_or_bundled
from .taxonomy import NOT_APPLICABLE, Ruleset, render_rules

log = logging.getLogger(__name__)

PLACEHOLDERS = ("{rules}", "{text}", "{context}")

_RULE_TOKEN = re.compile(r"\bR(\d+)\b")
# Leading identifier clause: one or more rule tokens with separators, then
# optional terminating punctuation.
_LEADING_IDS = re.compile(r"^\s*(?:R\d+\b[\s,;]*(?:and\s+)?)+[.:–-]?\s*")


@dataclass(frozen=True)
class PromptBundle:
    """Ordered chat messages for one passage check."""

    messages: tuple[ChatMessage, ...]
    passage_ref: str
    ruleset_ref: str

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        roles = [m.role for m in self.messages]
        if roles.count("system") != 1 or roles[0] != "system":
            raise ValueError("bundle needs exactly one system message, first in order")
        if "user" not in roles:
            raise ValueError("bundle needs at least one user message")


@dataclass(frozen=True)
class Finding:
    """Rule determination for one passage; empty rule_ids means not applicable."""

    passage_ref: str
    rule_ids: frozenset[str]
    rationale: str
    raw_response: str
    usage: Usage | None = None
    parse_error: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "rule_ids", frozenset(self.rule_ids))
        if NOT_APPLICABLE in self.rule_ids:
            raise ValueError("the sentinel is normalized to an empty rule set")


@dataclass
class ComplianceReport:
    artifact_ref: str
    ruleset_name: str
    per_rule: dict[str, list[str]]
    uncovered_rules: list[str]
    findings: list[Finding]
    totals: dict[str, int] = field(default_factory=dict)


def load_template(path: str | Path | None = None) -> str:
    """The compliance prompt template at `path`, or the bundled one."""
    return read_text_or_bundled(path, "compliance_prompt.txt")


def default_template() -> str:
    """The bundled compliance prompt template."""
    return load_template()


def build_prompt(
    passage: Passage,
    rules: Ruleset,
    template: str | None = None,
    context: str | None = None,
) -> PromptBundle:
    """Render the prompt bundle for one passage.

    The system message is the template with {rules} replaced by the canonical
    rule listing; substitution is pure text replacement, byte-exact. The user
    message carries the passage text and, when given, its surrounding
    context.
    """
    return prompt_builder(rules, template)(passage, context)


def prompt_builder(
    rules: Ruleset, template: str | None = None
) -> Callable[[Passage, str | None], PromptBundle]:
    """`build_prompt` for one ruleset and template, with the template loaded
    and checked and the rule listing rendered once."""
    if template is None:
        template = default_template()
    for placeholder in PLACEHOLDERS:
        if placeholder not in template:
            raise TemplateError(f"template is missing placeholder {placeholder}")
    system = ChatMessage("system", template.replace("{rules}", render_rules(rules)))

    def build(passage: Passage, context: str | None = None) -> PromptBundle:
        user = f"Text:\n{passage.text}"
        if context:
            user += f"\n\nContext:\n{context}"
        return PromptBundle(
            messages=(system, ChatMessage("user", user)),
            passage_ref=passage.unit_ref,
            ruleset_ref=rules.name,
        )

    return build


def parse_response(raw: str, rules: Ruleset) -> tuple[frozenset[str], str]:
    """Extract (rule ids, rationale) from a model response.

    Grammar: rule tokens ``R<digits>`` must appear before or in the first
    sentence (later repeats are fine, later new ids are prose); the sentinel
    R99 anywhere yields the empty set and overrides any other id; ids not in
    the ruleset are a parse error. The rationale is the raw text minus the
    leading identifier clause.
    """
    tokens = [(m.start(), f"R{m.group(1)}") for m in _RULE_TOKEN.finditer(raw)]
    if not tokens:
        raise ParseError("no rule identifier token in response", raw=raw)

    if any(tok == NOT_APPLICABLE for _, tok in tokens):
        others = sorted({tok for _, tok in tokens if tok != NOT_APPLICABLE})
        if others:
            log.warning(
                "%s is exclusive; ignoring co-listed ids %s", NOT_APPLICABLE, others
            )
        ids: frozenset[str] = frozenset()
    else:
        spans = sentence_spans(raw)
        first_end = spans[0][1] if spans else len(raw)
        leading = {tok for pos, tok in tokens if pos < first_end}
        if not leading:
            raise ParseError(
                "response does not lead with a rule identifier", raw=raw
            )
        unknown = sorted(leading - rules.ids())
        if unknown:
            raise ParseError(f"unknown rule id(s) {unknown}", raw=raw)
        ids = frozenset(leading)

    rationale = _LEADING_IDS.sub("", raw, count=1).strip()
    return ids, rationale


def check_passage(bundle: PromptBundle, rules: Ruleset, backend: Backend) -> Finding:
    """Send one bundle and parse the determination.

    A response the grammar rejects becomes a finding with `parse_error` set
    and the raw response kept for audit; its usage is still recorded, since a
    failed parse was still a paid call. Backend failures propagate.
    """
    response, usage = backend.complete(bundle.messages)
    error = None
    try:
        rule_ids, rationale = parse_response(response, rules)
    except ParseError as exc:
        rule_ids, rationale, error = frozenset(), "", str(exc)
    return Finding(
        passage_ref=bundle.passage_ref,
        rule_ids=rule_ids,
        rationale=rationale,
        raw_response=response,
        usage=usage,
        parse_error=error,
    )


def assemble_report(
    findings: list[Finding], rules: Ruleset, artifact: str
) -> ComplianceReport:
    """Fold findings into per-rule coverage.

    A rule is covered iff at least one successfully parsed finding references
    it; rules with zero supporting passages are the non-compliance areas.
    Parse-failure findings are excluded from coverage but counted.
    """
    per_rule: dict[str, list[str]] = {}
    parsed = [f for f in findings if f.parse_error is None]
    for finding in parsed:
        for rid in finding.rule_ids:
            per_rule.setdefault(rid, []).append(finding.passage_ref)
    ordered = {rid: per_rule[rid] for rid in rules.ordered_ids() if rid in per_rule}
    uncovered = [rid for rid in rules.ordered_ids() if rid not in per_rule]
    totals = {
        "passages": len(findings),
        "applicable": sum(1 for f in parsed if f.rule_ids),
        "not_applicable": sum(1 for f in parsed if not f.rule_ids),
        "parse_failures": sum(1 for f in findings if f.parse_error is not None),
        "rules_covered": len(ordered),
        "rules_uncovered": len(uncovered),
    }
    return ComplianceReport(
        artifact_ref=artifact,
        ruleset_name=rules.name,
        per_rule=ordered,
        uncovered_rules=uncovered,
        findings=findings,
        totals=totals,
    )


# --------------------------------------------------------------------------
# Report emitters
# --------------------------------------------------------------------------


def report_to_dict(report: ComplianceReport) -> dict:
    """JSON-compatible report; deterministic field order, no volatile fields."""
    return {
        "artifact": report.artifact_ref,
        "ruleset": report.ruleset_name,
        "totals": report.totals,
        "per_rule": report.per_rule,
        "uncovered_rules": report.uncovered_rules,
        "findings": [
            {
                "passage": f.passage_ref,
                "rule_ids": sorted(f.rule_ids, key=_rule_sort_key),
                "rationale": f.rationale,
                "raw_response": f.raw_response,
                "parse_error": f.parse_error,
                "prompt_tokens": f.usage.prompt_tokens if f.usage else None,
                "completion_tokens": f.usage.completion_tokens if f.usage else None,
            }
            for f in report.findings
        ],
    }


def report_to_markdown(report: ComplianceReport) -> str:
    """Human-readable compliance report."""
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
                ", ".join(sorted(f.rule_ids, key=_rule_sort_key))
                if f.rule_ids
                else "not applicable"
            )
            lines.append(f"### {f.passage_ref}: {verdict}")
            lines.append("")
            if f.rationale:
                lines.append(f.rationale)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _rule_sort_key(rule_id: str) -> tuple[int, str]:
    m = re.fullmatch(r"R(\d+)", rule_id)
    return (int(m.group(1)), "") if m else (10**9, rule_id)

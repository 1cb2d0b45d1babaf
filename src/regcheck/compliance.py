"""Compliance checking of regulatory artifacts against textual rules.

Renders the prompt from template + rules + passage, parses the model's rule
determinations with their rationale, and assembles per-rule coverage into a
compliance report. Uncovered rules constitute the non-compliance areas. The
model call itself is made in `pipeline`; `write_check_outputs` writes `check`'s out-dir.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, islice
from json.encoder import encode_basestring as _encode_str  # the C encoder of ensure_ascii=False
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .corpus import Unit, first_sentence_end
from .errors import BackendError, ParseError, TemplateError
from .llm import ChatMessage, CostTotals, Usage, cost_row
from .storage import atomic_files, json_chunks, jsonl_line, read_text_or_bundled, spool, spooled
from .taxonomy import NOT_APPLICABLE, Ruleset, render_rules

PLACEHOLDERS = ("{rules}", "{text}", "{context}")

_RULE_TOKEN = re.compile(r"R(?<!\wR)(\d+)\b")  # opens on "R" (see corpus._BOUNDARY)
# Leading identifier clause: one or more rule tokens with separators, then
# optional terminating punctuation.
_LEADING_IDS = re.compile(r"^\s*(?:R\d+\b[\s,;]*(?:and\s+)?)+[.:–-]?\s*")

_WRITE_BATCH = 128  # findings `write_check_outputs` takes from the model stage at a time
# The files of a `check` run's out-dir, in the order `write_check_outputs` opens them.
CHECK_FILES = (
    "findings.jsonl", "errors.jsonl", "costs.jsonl", "costs_summary.json", "report.json", "report.md"
)
# The error of a unit that no call was made for: a call of its run had failed.
NOT_SENT = "not sent: a call of this run failed"


@dataclass(frozen=True)
class PromptBundle:
    """Ordered chat messages for one passage check."""

    messages: tuple[ChatMessage, ...]
    passage_ref: str
    ruleset_ref: str


@dataclass(frozen=True, slots=True)
class Finding:
    """Rule determination for one passage; empty rule_ids means not applicable."""

    passage_ref: str
    rule_ids: frozenset[str]
    rationale: str
    raw_response: str
    usage: Usage | None = None
    parse_error: str | None = None
    error: str | None = None  # the backend error of a passage left unanswered

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
    passage: Unit,
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
) -> Callable[[Unit, str | None], PromptBundle]:
    """`build_prompt` for one ruleset and template, with the template loaded
    and checked and the rule listing rendered once."""
    if template is None:
        template = default_template()
    for placeholder in PLACEHOLDERS:
        if placeholder not in template:
            raise TemplateError(f"template is missing placeholder {placeholder}")
    system = ChatMessage("system", template.replace("{rules}", render_rules(rules)))

    def build(passage: Unit, context: str | None = None) -> PromptBundle:
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
    """Extract (rule ids, rationale) from a model response; equal id sets are one object
    (`Ruleset.id_set`).

    Grammar: rule tokens ``R<digits>`` must appear before or in the first
    sentence (later repeats are fine, later new ids are prose); the sentinel
    R99 anywhere yields the empty set and overrides any other id; ids not in
    the ruleset are a parse error. The rationale is the raw text minus the
    leading identifier clause.
    """
    tokens = [(m.start(), f"R{m.group(1)}") for m in _RULE_TOKEN.finditer(raw)]
    if not tokens:
        raise ParseError("no rule identifier token in response")

    if any(tok == NOT_APPLICABLE for _, tok in tokens):
        others = sorted({tok for _, tok in tokens if tok != NOT_APPLICABLE})
        if others:
            import logging  # imported here: a warning path only
            logging.getLogger(__name__).warning(
                "%s is exclusive; ignoring co-listed ids %s", NOT_APPLICABLE, others
            )
        leading: set[str] = set()
    else:
        end = first_sentence_end(raw)
        leading = {tok for pos, tok in tokens if pos < end}
        if not leading:
            raise ParseError("response does not lead with a rule identifier")
        unknown = sorted(leading - rules.ids())
        if unknown:
            raise ParseError(f"unknown rule id(s) {unknown}")

    rationale = _LEADING_IDS.sub("", raw, count=1).strip()
    return rules.id_set(leading), rationale


def assemble_report(
    findings: list[Finding], rules: Ruleset, artifact: str
) -> ComplianceReport:
    """Fold findings into per-rule coverage (see `_ReportTally`)."""
    tally = _ReportTally(rules)
    for finding in findings:
        tally.add(finding)
    return tally.report(artifact, findings)


class _ReportTally:
    """A run's totals and per-rule coverage, counted one finding at a time.

    A rule is covered iff at least one successfully parsed finding references
    it; rules with zero supporting passages are the non-compliance areas.
    Parse-failure findings are excluded from coverage but counted. Of each
    finding only its passage ref is kept, once per rule it supports.
    """

    def __init__(self, rules: Ruleset):
        self.rules = rules
        self.per_rule: dict[str, list[str]] = {}
        counted = ("passages", "applicable", "not_applicable", "parse_failures")
        self.counts = dict.fromkeys(counted, 0)

    def add(self, finding: Finding) -> None:
        self.counts["passages"] += 1
        if finding.parse_error is not None:
            self.counts["parse_failures"] += 1
            return
        self.counts["applicable" if finding.rule_ids else "not_applicable"] += 1
        for rid in finding.rule_ids:
            self.per_rule.setdefault(rid, []).append(finding.passage_ref)

    def report(self, artifact: str, findings: list[Finding]) -> ComplianceReport:
        """The report of the findings added so far, holding `findings` as its findings."""
        order = self.rules.ordered_ids()
        ordered = {rid: self.per_rule[rid] for rid in order if rid in self.per_rule}
        uncovered = [rid for rid in order if rid not in self.per_rule]
        totals = {**self.counts, "rules_covered": len(ordered), "rules_uncovered": len(uncovered)}
        return ComplianceReport(artifact, self.rules.name, ordered, uncovered, findings, totals)


# --------------------------------------------------------------------------
# Report emitters
# --------------------------------------------------------------------------


def _finding_fields(f: Finding) -> dict:
    """One finding's members in `report.json`."""
    return {
        "passage": f.passage_ref,
        "rule_ids": sorted(f.rule_ids, key=_rule_sort_key),
        "rationale": f.rationale,
        "raw_response": f.raw_response,
        "parse_error": f.parse_error,
        "prompt_tokens": f.usage.prompt_tokens if f.usage else None,
        "completion_tokens": f.usage.completion_tokens if f.usage else None,
    }


def report_to_dict(report: ComplianceReport) -> dict:
    """JSON-compatible report; deterministic field order, no volatile fields."""
    return {
        "artifact": report.artifact_ref,
        "ruleset": report.ruleset_name,
        "totals": report.totals,
        "per_rule": report.per_rule,
        "uncovered_rules": report.uncovered_rules,
        "findings": [_finding_fields(f) for f in report.findings],
    }


def _json_head(report: ComplianceReport) -> Iterator[str]:
    """`report.json` up to its findings array, in pieces: the members before it, which a
    run knows only once its last finding is in. The file is the text of
    `json.dumps(report_to_dict(report), ensure_ascii=False, indent=2)` and a newline: this
    head, then `_json_finding` of each finding, then `_json_tail`."""
    text = json_chunks(report_to_dict(replace(report, findings=[])))
    cut = len("[]\n}\n")  # the empty findings array and the end of the object
    held = ""  # the text's last `cut` characters, once that many are read
    for chunk in text:
        held += chunk
        if len(held) > cut:
            yield held[:-cut]
            held = held[-cut:]


def _json_finding(f: Finding, first: bool) -> str:
    """One finding's item of `report.json`'s findings array, led by the array's opening
    bracket if it is the first, else by a comma: its members as the `indent=2` encoder lays
    them out three levels deep, in `_finding_fields`' order."""
    error, usage = f.parse_error, f.usage
    return (
        f'{"[" if first else ","}\n    {{\n      "passage": {_encode_str(f.passage_ref)},\n'
        f'      "rule_ids": {_rule_id_texts(f.rule_ids)[1]},\n'
        f'      "rationale": {_encode_str(f.rationale)},\n'
        f'      "raw_response": {_encode_str(f.raw_response)},\n'
        f'      "parse_error": {"null" if error is None else _encode_str(error)},\n'
        f'      "prompt_tokens": {"null" if usage is None else int.__repr__(usage.prompt_tokens)},\n'
        f'      "completion_tokens": '
        f'{"null" if usage is None else int.__repr__(usage.completion_tokens)}\n    }}'
    )


def _json_tail(count: int) -> str:
    """The end of `report.json` after its `count` findings."""
    return ("\n  ]" if count else "[]") + "\n}\n"


@lru_cache(maxsize=1024)
def _rule_id_texts(ids: frozenset[str]) -> tuple[tuple[str, ...], str, str]:
    """A finding's rule ids as each output writes them: sorted, for `findings.jsonl`; as
    `report.json`'s array, in report order; and as `report.md`'s verdict. The findings of a
    run share a few id sets (`Ruleset.id_set`), so each set is rendered once."""
    ordered = sorted(ids, key=_rule_sort_key)
    items = ",\n        ".join(map(_encode_str, ordered))
    array = f"[\n        {items}\n      ]" if ordered else "[]"
    return tuple(sorted(ids)), array, ", ".join(ordered) or "not applicable"


def report_to_markdown(report: ComplianceReport) -> str:
    """Human-readable compliance report."""
    return "".join(_trimmed(chain(_markdown_head(report), map(_markdown_finding, report.findings))))


def _trimmed(chunks: Iterable[str]) -> Iterator[str]:
    """The non-empty `chunks`, with the trailing space of the last one replaced by one newline."""
    chunks = filter(None, chunks)
    last = next(chunks)
    for chunk in chunks:
        yield last
        last = chunk
    # The last chunk (a finding or the Findings heading) holds text, so all trailing space is in it.
    yield last.rstrip() + "\n"


def _markdown_head(report: ComplianceReport) -> Iterator[str]:
    """`report.md` up to its findings, in pieces: the sections a run knows only once its last
    finding is in. Each passage ref in the coverage lines is a piece of its own, so the head
    takes no memory that grows with the findings."""
    totals = "".join(f"| {key} | {value} |\n" for key, value in report.totals.items())
    yield (
        f"# Compliance report: {report.artifact_ref}\n\nRuleset: **{report.ruleset_name}**\n\n"
        f"| total | value |\n|---|---|\n{totals}\n## Areas of compliance\n\n"
    )
    for rid, passages in report.per_rule.items():  # each rule here supports a passage
        yield f"- **{rid}** satisfied by: {passages[0]}"
        yield from map(", ".__add__, islice(passages, 1, None))
        yield "\n"
    uncovered = "".join(f"- **{rid}**\n" for rid in report.uncovered_rules)
    yield (
        ("" if report.per_rule else "- none\n")
        + "\n## Areas of non-compliance (rules with no supporting passage)\n\n"
        + (uncovered or "- none\n")
        + "\n## Findings\n\n"
    )


def _markdown_finding(f: Finding) -> str:
    """One finding's section of `report.md`."""
    if f.parse_error is not None:
        return f"### {f.passage_ref}: unparseable response\n\nParse error: {f.parse_error}\n\n"
    rationale = f"{f.rationale}\n" if f.rationale else ""
    return f"### {f.passage_ref}: {_rule_id_texts(f.rule_ids)[2]}\n\n{rationale}\n"


def write_check_outputs(
    target: Path, findings: Iterable[Finding], rules: Ruleset, artifact: str, prices: dict
) -> dict:
    """Write one `check` run into `target` in one pass over `findings`, and return its
    report's totals. Each finding is written as it comes: to `findings.jsonl` and
    `costs.jsonl`, and its text in each report to that report's spool, while a tally counts
    it; a finding with an `error` goes to `errors.jsonl` alone. Then each report is written
    as its head, known only now, followed by its spool, and the six files are renamed into
    place. If `findings` or a write raises, none is. If a unit was left unanswered, a
    `BackendError` naming the first failed call's error is raised once the files are in."""
    tally, costs = _ReportTally(rules), CostTotals()
    unanswered, failure = 0, None
    with (
        atomic_files([target / name for name in CHECK_FILES]) as files,
        spool(target) as json_spool,
        spool(target) as md_spool,
    ):
        records, errors, ledger, summary, rjson, rmd = files
        md_last = ""  # the last finding's Markdown, held back: its trailing space is trimmed
        # Findings are taken _WRITE_BATCH at a time: a model stage and a writer that take
        # turns per finding cost ~10% more CPU than each running over a batch in turn.
        findings = iter(findings)
        for batch in iter(lambda: list(islice(findings, _WRITE_BATCH)), []):
            for f in batch:
                if f.error is not None:  # no answer to record: the reports cover answered units
                    errors.write(jsonl_line({"unit_ref": f.passage_ref, "error": f.error}))
                    unanswered += 1
                    if failure is None and f.error != NOT_SENT:
                        failure = f.error
                    continue
                tally.add(f)
                record = {
                    "unit_ref": f.passage_ref,
                    "labels": _rule_id_texts(f.rule_ids)[0],
                    "rationale": f.rationale,
                    "parse_error": f.parse_error,
                }
                records.write(jsonl_line(record))
                if f.usage is not None:  # each ledger row is built once, totalled as written
                    ledger.write(jsonl_line(costs.add(cost_row(prices, f.usage))))
                json_spool.write(_json_finding(f, first=tally.counts["passages"] == 1))
                md_spool.write(md_last)
                md_last = _markdown_finding(f)
        report = tally.report(artifact, [])
        summary.writelines(json_chunks(costs.summary()))
        tail = _json_tail(report.totals["passages"])
        rjson.writelines(chain(_json_head(report), spooled(json_spool), [tail]))
        rmd.writelines(_trimmed(chain(_markdown_head(report), spooled(md_spool), [md_last])))
    if unanswered:
        total, listed = unanswered + report.totals["passages"], target / "errors.jsonl"
        raise BackendError(f"{failure}; {unanswered} of {total} units unanswered, listed in {listed}")
    return report.totals


def _rule_sort_key(rule_id: str) -> tuple[int, str]:
    m = _RULE_TOKEN.fullmatch(rule_id)
    return (int(m.group(1)), "") if m else (10**9, rule_id)

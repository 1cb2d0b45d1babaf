"""Prompt construction, response grammar, and report assembly."""

from __future__ import annotations

import json
import random

import pytest

from regcheck.compliance import (
    Finding,
    assemble_report,
    load_template,
    parse_response,
    prompt_builder,
    report_to_dict,
    report_to_markdown,
)
from regcheck.corpus import PARAGRAPH_LEVEL, Unit
from regcheck.errors import ParseError, TemplateError
from regcheck.llm import StubBackend, StubEntry
from regcheck.pipeline import CheckUnit, compliance_iter
from regcheck.taxonomy import load_ruleset


@pytest.fixture(scope="module")
def rules(fixtures):
    return load_ruleset(fixtures / "rules_small.jsonl")


@pytest.fixture(scope="module")
def demo_rules(data_dir):
    return load_ruleset(data_dir / "gdpr_art28_demo.jsonl")


def passage(text="The Processor shall delete all personal data.", seq=0):
    return Unit(f"art:p{seq}", text, 0, "passage")


def check_one(rules, backend) -> Finding:
    """The one finding of `compliance_iter` on `passage()` alone."""
    (finding,) = compliance_iter([CheckUnit(passage())], rules, backend, load_template())
    return finding


class TestBuildPrompt:
    def test_missing_text_placeholder(self, rules):
        with pytest.raises(TemplateError):
            prompt_builder(rules, template="{rules} {context} only")

    def test_missing_rules_placeholder(self, rules):
        with pytest.raises(TemplateError):
            prompt_builder(rules, template="{text} {context} only")

    def test_bundle_shape(self, rules):
        bundle = prompt_builder(rules, load_template())(passage())
        roles = [m.role for m in bundle.messages]
        assert roles == ["system", "user"]
        assert bundle.passage_ref == "art:p0"
        assert bundle.ruleset_ref == "rules_small"

    def test_rules_substituted_into_system(self, rules):
        bundle = prompt_builder(rules, load_template())(passage())
        assert "R5: " in bundle.messages[0].content
        assert "R7: " in bundle.messages[0].content
        assert "{rules}" not in bundle.messages[0].content

    def test_context_changes_only_user_message(self, rules):
        build = prompt_builder(rules, load_template())
        plain = build(passage())
        with_ctx = build(passage(), context="The enclosing paragraph.")
        assert plain.messages[0] == with_ctx.messages[0]
        assert plain.messages[1] != with_ctx.messages[1]
        assert "Context:\nThe enclosing paragraph." in with_ctx.messages[1].content

    def test_pure_function(self, rules):
        a = prompt_builder(rules, load_template())(passage(), context="c")
        b = prompt_builder(rules, load_template())(passage(), context="c")
        assert a == b

    def test_golden_bundle(self, fixtures, dpa_doc, rules):
        passages = list(dpa_doc.table(PARAGRAPH_LEVEL, 4096))
        bundle = prompt_builder(rules, load_template())(passages[1])
        golden = json.loads((fixtures / "golden_prompt.json").read_text(encoding="utf-8"))
        assert bundle.passage_ref == golden["passage_ref"]
        assert bundle.ruleset_ref == golden["ruleset_ref"]
        assert [
            {"role": m.role, "content": m.content} for m in bundle.messages
        ] == golden["messages"]


class TestParseResponse:
    def test_multi_rule_with_rationale(self, rules):
        ids, rationale = parse_response("R5, R7. Because both duties appear here.", rules)
        assert ids == {"R5", "R7"}
        assert rationale == "Because both duties appear here."

    def test_sentinel(self, rules, caplog):
        ids, rationale = parse_response("R99. No rule applies here.", rules)
        assert ids == set()
        assert rationale == "No rule applies here."
        assert caplog.records == []

    def test_sentinel_warns_once_of_the_ids_it_overrides(self, rules, caplog):
        ids, _ = parse_response("R99 and R2. Nothing here applies.", rules)
        assert ids == set()
        [record] = caplog.records
        assert (record.name, record.levelname) == ("regcheck.compliance", "WARNING")
        assert "['R2']" in record.getMessage()

    def test_unknown_id(self, rules):
        with pytest.raises(ParseError):
            parse_response("R42. Unknown.", rules)

    def test_prose_without_token(self, rules):
        with pytest.raises(ParseError) as err:
            parse_response("This passage has no direct connection.", rules)
        assert str(err.value) == "no rule identifier token in response"

    def test_a_token_inside_a_word_is_not_a_rule_id(self, rules):
        with pytest.raises(ParseError, match="no rule identifier token"):
            parse_response("XR5. Covered.", rules)
        assert parse_response("R7, XR5 and _R5. Covered.", rules)[0] == {"R7"}


class TestCheckPassage:
    def test_scripted_determination(self, rules):
        backend = StubBackend(
            [
                StubEntry(
                    match="delete",
                    response="R5. The clause obligates the processor to assist the controller.",
                )
            ]
        )
        finding = check_one(rules, backend)
        assert finding.rule_ids == {"R5"}
        assert finding.rationale == "The clause obligates the processor to assist the controller."
        assert finding.usage is not None
        assert finding.usage.prompt_tokens > 0

    def test_sentinel_normalized_to_empty(self, rules):
        backend = StubBackend([StubEntry(match="delete", response="R99")])
        finding = check_one(rules, backend)
        assert finding.rule_ids == set()
        assert finding.rationale == ""

    def test_garbage_becomes_parse_error_finding(self, rules):
        backend = StubBackend([StubEntry(match="delete", response="free prose only")])
        finding = check_one(rules, backend)
        assert finding.parse_error
        assert finding.raw_response == "free prose only"
        assert finding.rule_ids == set()
        assert finding.rationale == ""
        assert finding.usage is not None  # a failed parse was still a paid call

    def test_round_trip(self, rules):
        backend = StubBackend(
            [StubEntry(match="delete", response="R7. Deletion duty is stated.")]
        )
        finding = check_one(rules, backend)
        assert parse_response(finding.raw_response, rules) == (
            finding.rule_ids,
            finding.rationale,
        )

    def test_finding_rejects_sentinel_in_rule_ids(self):
        with pytest.raises(ValueError):
            Finding("art:p0", frozenset({"R99"}), "", "R99")


class TestAssembleReport:
    def test_zero_findings_all_uncovered(self, rules):
        report = assemble_report([], rules, "art")
        assert report.uncovered_rules == ["R5", "R7"]
        assert report.per_rule == {}
        assert report.totals["passages"] == 0

    def test_double_coverage_lists_both_passages(self, rules):
        findings = [
            Finding("art:p0", frozenset({"R5"}), "a", "R5. a"),
            Finding("art:p1", frozenset({"R5"}), "b", "R5. b"),
        ]
        report = assemble_report(findings, rules, "art")
        assert report.per_rule == {"R5": ["art:p0", "art:p1"]}
        assert report.uncovered_rules == ["R7"]

    def test_parse_failures_excluded_but_counted(self, rules):
        findings = [
            Finding("art:p0", frozenset({"R5"}), "ok", "R5. ok"),
            Finding("art:p1", frozenset(), "", "garbage", parse_error="no token"),
        ]
        report = assemble_report(findings, rules, "art")
        assert report.per_rule == {"R5": ["art:p0"]}
        assert report.totals["parse_failures"] == 1
        assert report.totals["applicable"] == 1
        assert report.totals["not_applicable"] == 0

    def test_coverage_partition_random(self, demo_rules):
        # per_rule keys and uncovered_rules always partition the ruleset.
        rng = random.Random(3)
        ids = list(demo_rules.ids())
        for trial in range(100):
            findings = [
                Finding(
                    f"art:p{i}",
                    frozenset(rng.sample(ids, rng.randint(0, 3))),
                    "r",
                    "raw",
                )
                for i in range(rng.randint(0, 12))
            ]
            report = assemble_report(findings, demo_rules, "art")
            covered = set(report.per_rule)
            uncovered = set(report.uncovered_rules)
            assert covered | uncovered == demo_rules.ids()
            assert not covered & uncovered
            for rid, passages in report.per_rule.items():
                assert passages  # covered means at least one supporting passage


class TestEmitters:
    def _report(self, rules):
        findings = [
            Finding("art:p0", frozenset({"R5"}), "Assists data subjects.", "R5. Assists data subjects."),
            Finding("art:p1", frozenset(), "", "R99"),
        ]
        return assemble_report(findings, rules, "art")

    def test_json_shape(self, rules):
        body = report_to_dict(self._report(rules))
        assert body["artifact"] == "art"
        assert body["per_rule"] == {"R5": ["art:p0"]}
        assert body["uncovered_rules"] == ["R7"]
        assert body["findings"][0]["rule_ids"] == ["R5"]
        assert "latency" not in json.dumps(body)

    def test_markdown_sections(self, rules):
        text = report_to_markdown(self._report(rules))
        assert "# Compliance report: art" in text
        assert "## Areas of compliance" in text
        assert "## Areas of non-compliance" in text
        assert "R7" in text
        assert "not applicable" in text

"""Pipeline runners: unit construction per granularity, failure capture."""

from __future__ import annotations

import pytest

from regcheck.classify import default_classification_template
from regcheck.compliance import build_prompt, default_template
from regcheck.corpus import block_text, extract_provisions, parse_document
from regcheck.errors import UnchunkableText
from regcheck.llm import StubBackend, StubEntry, load_stub_script
from regcheck.pipeline import classify_provisions, compliance_units, run_compliance
from regcheck.taxonomy import load_concept_model, load_ruleset


class TestComplianceUnits:
    def test_sentence_units_one_per_provision(self, dpa_doc):
        units = compliance_units(dpa_doc, "sentence", 4096)
        provisions = extract_provisions(dpa_doc)
        assert [u.passage.unit_ref for u in units] == [p.unit_ref for p in provisions]
        assert all(u.context is None for u in units)

    def test_sentence_context_is_enclosing_block(self, dpa_doc):
        units = compliance_units(dpa_doc, "sentence", 4096, context_on=True)
        first = units[0]
        assert first.context == block_text(dpa_doc.blocks[0])
        assert first.passage.text != first.context

    def test_paragraph_units_have_no_redundant_context(self, dpa_doc):
        # An unsplit passage equals its block; attaching it again adds nothing.
        units = compliance_units(dpa_doc, "paragraph", 4096, context_on=True)
        assert all(u.context is None for u in units)

    def test_split_passage_gets_parent_context(self):
        doc = parse_document(
            "The code must identify the supplier of each lot received. "
            "Records of each code must be retained for two years. "
            "Labels must repeat the code verbatim.",
            "plain",
            doc_id="d",
        )
        units = compliance_units(doc, "paragraph", 20, context_on=True)
        assert len(units) >= 2
        for u in units:
            assert u.context == doc.blocks[0].text
            assert u.passage.text in u.context

    def test_sentence_over_budget(self, dpa_doc):
        with pytest.raises(UnchunkableText):
            compliance_units(dpa_doc, "sentence", 5)

    def test_unknown_granularity(self, dpa_doc):
        with pytest.raises(ValueError):
            compliance_units(dpa_doc, "clause", 4096)

    def test_granularity_changes_only_user_message(self, dpa_doc, data_dir):
        # Same template, same parsing; only the user-facing content differs.
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        sent = compliance_units(dpa_doc, "sentence", 4096)
        para = compliance_units(dpa_doc, "paragraph", 4096)
        b_sent = build_prompt(sent[0].passage, rules, default_template(), sent[0].context)
        b_para = build_prompt(para[0].passage, rules, default_template(), para[0].context)
        assert b_sent.messages[0] == b_para.messages[0]
        assert b_sent.messages[1] != b_para.messages[1]


class TestRunCompliance:
    def test_parse_failures_become_findings(self, dpa_doc, data_dir):
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        backend = StubBackend([StubEntry(match="", response="nothing structured")])
        units = compliance_units(dpa_doc, "paragraph", 4096)
        findings = run_compliance(units, rules, backend)
        assert len(findings) == len(units)
        assert all(f.parse_error for f in findings)
        assert all(f.usage is not None for f in findings)  # failed parses still cost
        assert all(f.raw_response == "nothing structured" for f in findings)

    def test_findings_keep_unit_order(self, dpa_doc, data_dir, fixtures):
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        backend = StubBackend(load_stub_script(fixtures / "stub_paragraph_aware.jsonl"))
        units = compliance_units(dpa_doc, "paragraph", 4096)

        def full(findings):
            return [
                (f.passage_ref, sorted(f.rule_ids), f.rationale, f.raw_response)
                for f in findings
            ]

        serial = run_compliance(units, rules, backend, parallelism=1)
        wide = run_compliance(units, rules, backend, parallelism=8)
        assert [f.passage_ref for f in wide] == [u.passage.unit_ref for u in units]
        assert full(wide) == full(serial)


class TestClassifyProvisions:
    def test_parse_error_recorded_not_raised(self, data_dir):
        model = load_concept_model(data_dir / "food_safety_concepts.jsonl")
        doc = parse_document("Unmatched provision text here.", "plain", doc_id="d")
        backend = StubBackend([StubEntry(match="", response="no vocabulary words")])
        (result,) = classify_provisions(
            extract_provisions(doc), model, backend,
            template=default_classification_template(),
        )
        assert result.parse_error
        assert result.labels.labels == set()
        assert result.raw_response == "no vocabulary words"

    def test_keyword_only_skips_backend(self, data_dir):
        model = load_concept_model(data_dir / "food_safety_concepts.jsonl")
        doc = parse_document("Salmonella testing is mandatory.", "plain", doc_id="d")
        (result,) = classify_provisions(extract_provisions(doc), model, backend=None)
        assert result.labels.labels == {"Pathogen"}
        assert result.raw_response == ""
        assert result.usage is None

"""Concept classification: model branch, keyword branch, and label fusion."""

from __future__ import annotations

import random

import pytest

from regcheck.classify import (
    LabelSet,
    build_classification_prompt,
    classify_keywords,
    default_classification_template,
    fuse_labels,
    parse_concept_response,
)
from regcheck.corpus import Provision
from regcheck.errors import ParseError
from regcheck.llm import StubBackend, StubEntry
from regcheck.pipeline import classify_provisions
from regcheck.taxonomy import load_concept_model


@pytest.fixture(scope="module")
def model(data_dir):
    return load_concept_model(data_dir / "food_safety_concepts.jsonl")


def prov(text: str) -> Provision:
    return Provision("t", 0, 0, text, "plain")


class TestClassifyKeywords:
    def test_direct_containment(self, model):
        labels = classify_keywords(prov("Listeria is a pathogen of concern."), model)
        assert labels.labels == {"Pathogen"}
        assert labels.provenance["Pathogen"] == "keyword"

    def test_whole_word_rule(self, model):
        labels = classify_keywords(prov("The empathogenic compound is unrelated."), model)
        assert labels.labels == set()

    def test_multiple_scarce_concepts(self, model):
        labels = classify_keywords(
            prov("Abnormal colour and excess moisture are defects."), model
        )
        assert labels.labels == {"Colour", "WaterContent"}

    def test_case_insensitive(self, model):
        text = "SALMONELLA testing and Water Content limits apply."
        upper = classify_keywords(prov(text.upper()), model)
        lower = classify_keywords(prov(text.lower()), model)
        assert upper.labels == lower.labels == {"Pathogen", "WaterContent"}

    def test_multiword_keyword(self, model):
        labels = classify_keywords(prov("The water activity must not exceed 0.85."), model)
        assert labels.labels == {"WaterContent"}

    def test_outputs_only_scarce_concepts(self, model, gold_doc):
        scarce = {c.concept_id for c in model.scarce_concepts()}
        from regcheck.corpus import extract_provisions

        for p in extract_provisions(gold_doc):
            assert classify_keywords(p, model).labels <= scarce

    def test_stemming_flag(self, model):
        text = prov("Softened flesh indicates decay.")
        assert classify_keywords(text, model).labels == set()
        assert classify_keywords(text, model, stem=True).labels == {"Firmness"}


class TestParseConceptResponse:
    def test_single_id(self, model):
        assert parse_concept_response("Traceability. Lot codes.", model) == {"Traceability"}

    def test_unknown_id_rejected(self, model):
        with pytest.raises(ParseError):
            parse_concept_response("IrrelevantConcept", model)

    def test_none_sentinel(self, model):
        assert parse_concept_response("NONE. Administrative provision.", model) == set()

    def test_none_is_exclusive(self, model):
        assert parse_concept_response("NONE, Traceability.", model) == set()

    def test_scarce_id_is_not_in_vocabulary(self, model):
        # The model branch only covers non-scarce concepts.
        with pytest.raises(ParseError):
            parse_concept_response("Pathogen. Mentions listeria.", model)

    def test_case_insensitive_canonicalized(self, model):
        assert parse_concept_response("traceability, labelling. Reason.", model) == {
            "Traceability",
            "Labelling",
        }

    def test_empty_response(self, model):
        with pytest.raises(ParseError):
            parse_concept_response("   ", model)


class TestClassifyLlm:
    def test_scripted_stub(self, model):
        backend = StubBackend(
            [StubEntry(match="record", response="Traceability. Trace-back duty.")]
        )
        (result,) = classify_provisions([prov("A record-keeping provision.")], model, backend)
        labels = result.labels
        assert labels.labels == {"Traceability"}
        assert labels.provenance == {"Traceability": "llm"}

    def test_prompt_embeds_provision_and_concepts(self, model):
        messages = build_classification_prompt(prov("Keep records."), model)
        assert messages[0].role == "system"
        assert "Traceability: Traceability" in messages[0].content
        assert "Pathogen" not in messages[0].content  # scarce concepts are not offered
        assert "Keep records." in messages[1].content

    def test_default_template_placeholders(self):
        template = default_classification_template()
        assert "{concept_list}" in template.system
        assert "{text}" in template.user

    def test_custom_template_file(self, tmp_path, model):
        import json

        from regcheck.classify import load_classification_template

        path = tmp_path / "template.json"
        path.write_text(
            json.dumps(
                {"system": "Pick from:\n{concept_list}", "user": "Text: {text}"}
            ),
            encoding="utf-8",
        )
        template = load_classification_template(path)
        messages = build_classification_prompt(prov("Keep records."), model, template)
        assert messages[0].content.startswith("Pick from:\n")
        assert messages[1].content == "Text: Keep records."

    def test_template_missing_placeholder_rejected(self):
        from regcheck.classify import ClassificationTemplate
        from regcheck.errors import TemplateError

        with pytest.raises(TemplateError):
            ClassificationTemplate(system="no placeholders", user="{text}")
        with pytest.raises(TemplateError):
            ClassificationTemplate(system="{concept_list}", user="no slot")


class TestFuseLabels:
    def test_empty_union(self):
        assert fuse_labels(LabelSet.empty(), LabelSet.empty()).labels == set()

    def test_disjoint_union(self):
        fused = fuse_labels(
            LabelSet.of({"Traceability"}, "llm"), LabelSet.of({"Pathogen"}, "keyword")
        )
        assert fused.labels == {"Traceability", "Pathogen"}
        assert fused.provenance == {"Traceability": "llm", "Pathogen": "keyword"}

    def test_overlap_becomes_both(self):
        fused = fuse_labels(
            LabelSet.of({"Pathogen"}, "llm"), LabelSet.of({"Pathogen"}, "keyword")
        )
        assert fused.provenance == {"Pathogen": "both"}

    def test_idempotent(self):
        a = LabelSet.of({"Pathogen", "Colour"}, "keyword")
        assert fuse_labels(a, a) == a

    def test_commutative_associative_random(self):
        rng = random.Random(11)
        ids = ["A", "B", "C", "D"]
        sources = ["llm", "keyword"]

        def random_set():
            chosen = [i for i in ids if rng.random() < 0.5]
            return LabelSet(
                frozenset(chosen), {i: rng.choice(sources) for i in chosen}
            )

        for _ in range(200):
            a, b, c = random_set(), random_set(), random_set()
            assert fuse_labels(a, b) == fuse_labels(b, a)
            assert fuse_labels(fuse_labels(a, b), c) == fuse_labels(a, fuse_labels(b, c))

    def test_provenance_keys_must_match_labels(self):
        with pytest.raises(ValueError):
            LabelSet(frozenset({"A"}), {"B": "llm"})

"""Concept model and ruleset loading, validation, and rule rendering."""

from __future__ import annotations

import pytest
from conftest import dump_jsonl

from regcheck.errors import SchemaError
from regcheck.taxonomy import load_concept_model, load_ruleset, render_rules


def _concept_file(tmp_path, records):
    path = tmp_path / "concepts.jsonl"
    dump_jsonl(path, records)
    return path


def _ruleset_file(tmp_path, records):
    path = tmp_path / "rules.jsonl"
    dump_jsonl(path, records)
    return path


class TestLoadConceptModel:
    def test_scarce_without_keywords_rejected(self, tmp_path):
        path = _concept_file(
            tmp_path,
            [
                {"concept_id": "Traceability", "name": "Traceability", "scarce": False},
                {"concept_id": "Pathogen", "name": "Pathogen", "scarce": True, "keywords": []},
            ],
        )
        with pytest.raises(SchemaError) as err:
            load_concept_model(path)
        assert "keywords" in err.value.field_path

    def test_duplicate_concept_id_rejected(self, tmp_path):
        path = _concept_file(
            tmp_path,
            [
                {"concept_id": "Traceability", "name": "A"},
                {"concept_id": "Traceability", "name": "B"},
            ],
        )
        with pytest.raises(SchemaError):
            load_concept_model(path)

    def test_non_scarce_with_keywords_rejected(self, tmp_path):
        path = _concept_file(
            tmp_path,
            [{"concept_id": "Traceability", "name": "T", "keywords": ["trace"]}],
        )
        with pytest.raises(SchemaError):
            load_concept_model(path)

    def test_all_scarce_rejected(self, tmp_path):
        path = _concept_file(
            tmp_path,
            [{"concept_id": "Pathogen", "name": "P", "scarce": True, "keywords": ["x"]}],
        )
        with pytest.raises(SchemaError):
            load_concept_model(path)

    def test_scarce_ids_are_not_held_to_the_answer_grammar(self, tmp_path):
        # Only non-scarce ids are named in model answers; scarce ones come from keywords,
        # so two scarce ids may even be equal ignoring case.
        path = _concept_file(
            tmp_path,
            [
                {"concept_id": "Hazard", "name": "H"},
                {"concept_id": "Food-Contact", "name": "F", "scarce": True, "keywords": ["tray"]},
                {"concept_id": "none", "name": "N", "scarce": True, "keywords": ["nothing"]},
                {"concept_id": "FOOD-CONTACT", "name": "F", "scarce": True, "keywords": ["tin"]},
            ],
        )
        scarce = [c.concept_id for c in load_concept_model(path).scarce_concepts()]
        assert scarce == ["Food-Contact", "none", "FOOD-CONTACT"]

    def test_bundled_fixture_scarce_set(self, data_dir):
        model = load_concept_model(data_dir / "food_safety_concepts.jsonl")
        scarce = {c.concept_id for c in model.scarce_concepts()}
        assert scarce == {"Colour", "Firmness", "Pathogen", "WaterContent"}
        assert len(model.non_scarce_ids()) >= 1
        assert model.version == "demo-1"
        for concept in model.scarce_concepts():
            assert concept.keywords


class TestLoadRuleset:
    def test_r99_reserved(self, tmp_path):
        path = _ruleset_file(
            tmp_path,
            [
                {"rule_id": "R1", "text": "ok"},
                {"rule_id": "R99", "text": "reserved"},
            ],
        )
        with pytest.raises(SchemaError):
            load_ruleset(path)

    def test_order_preserved(self, tmp_path):
        path = _ruleset_file(
            tmp_path,
            [{"rule_id": "R5", "text": "five"}, {"rule_id": "R7", "text": "seven"}],
        )
        rs = load_ruleset(path)
        assert rs.ordered_ids() == ("R5", "R7")

    @pytest.mark.parametrize("bad_id", ["5", "rule5", "R", "R5a", "r5"])
    def test_id_pattern_enforced(self, tmp_path, bad_id):
        path = _ruleset_file(tmp_path, [{"rule_id": bad_id, "text": "x"}])
        with pytest.raises(SchemaError):
            load_ruleset(path)

    def test_duplicate_rule_id(self, tmp_path):
        path = _ruleset_file(
            tmp_path,
            [{"rule_id": "R5", "text": "a"}, {"rule_id": "R5", "text": "b"}],
        )
        with pytest.raises(SchemaError):
            load_ruleset(path)

    def test_empty_rejected(self, tmp_path):
        path = _ruleset_file(tmp_path, [])
        with pytest.raises(SchemaError):
            load_ruleset(path)

    def test_bundled_demo_ruleset(self, data_dir):
        rs = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        assert len(rs.rules) >= 5
        assert all(r.source_ref.startswith("GDPR Art. 28") for r in rs.rules)
        assert "R99" not in rs.ids()


class TestRenderRules:
    def test_single_rule(self, tmp_path):
        path = _ruleset_file(tmp_path, [{"rule_id": "R5", "text": "assist the controller"}])
        assert render_rules(load_ruleset(path)) == "R5: assist the controller"

    def test_two_rules_file_order(self, tmp_path):
        path = _ruleset_file(
            tmp_path,
            [{"rule_id": "R7", "text": "seven"}, {"rule_id": "R5", "text": "five"}],
        )
        assert render_rules(load_ruleset(path)) == "R7: seven\nR5: five"

    def test_golden_rendering(self, fixtures):
        rs = load_ruleset(fixtures / "rules_small.jsonl")
        golden = (fixtures / "golden_rules_small.txt").read_text(encoding="utf-8")
        assert render_rules(rs) == golden

    def test_byte_stable(self, fixtures):
        rs = load_ruleset(fixtures / "rules_small.jsonl")
        assert render_rules(rs) == render_rules(rs)

    def test_injective_on_distinct_rulesets(self, tmp_path):
        import random

        rng = random.Random(19)
        renders = set()
        count = 0
        for trial in range(40):
            ids = rng.sample(range(1, 30), rng.randint(1, 4))
            records = [{"rule_id": f"R{k}", "text": f"duty {trial}.{k}"} for k in ids]
            path = _ruleset_file(tmp_path, records)
            rendered = " ".join(render_rules(load_ruleset(path)).split())
            renders.add(rendered)
            count += 1
        # Collisions would shrink the set; distinct rulesets must render apart.
        assert len(renders) == count

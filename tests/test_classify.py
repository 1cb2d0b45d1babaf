"""Concept classification: model branch, keyword branch, and label fusion."""

from __future__ import annotations

import random
import re
import sys

import pytest

from regcheck.classify import (
    LabelSet,
    _KeywordIndex,
    _stem_token,
    _word_starts,
    build_classification_prompt,
    classify_keywords,
    default_classification_template,
    fuse_labels,
    parse_concept_response,
)
from regcheck.corpus import Unit
from regcheck.errors import ParseError
from regcheck.llm import StubBackend, StubEntry
from regcheck.pipeline import classify_provisions
from regcheck.taxonomy import Concept, ConceptModel, load_concept_model


@pytest.fixture(scope="module")
def model(data_dir):
    return load_concept_model(data_dir / "food_safety_concepts.jsonl")


def prov(text: str) -> Unit:
    return Unit("t:b0:s0", text, 0, "plain")


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


# Reference copy of the earlier keyword matcher: one regex per keyword, and
# under stemming the whole text re-tokenised for every keyword. The compiled
# index must label every text exactly as it does.
def _ref_light_stem(word):
    for suffix in ("ing", "ed", "es", "s"):
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            return word[: -len(suffix)]
    return word


def _ref_matches(text, keyword, stem):
    pattern = r"(?<!\w)" + re.escape(keyword.strip()) + r"(?!\w)"
    if re.search(pattern, text, re.IGNORECASE):
        return True
    if not stem:
        return False
    want = [_ref_light_stem(w.lower()) for w in re.findall(r"\w+", keyword)]
    have = [_ref_light_stem(w.lower()) for w in re.findall(r"\w+", text)]
    n = len(want)
    return n > 0 and any(have[i : i + n] == want for i in range(len(have) - n + 1))


def _ref_classify_keywords(text, model, stem):
    return {
        c.concept_id
        for c in model.scarce_concepts()
        if any(_ref_matches(text, kw, stem) for kw in c.keywords)
    }


class TestKeywordIndexAgainstReference:
    EXTRA = (
        Concept("Processor", "Processor", True, ("sub-processor", "processor's")),
        Concept("Language", "Language", True, ("c++", "C#")),
        Concept("Ampersand", "Ampersand", True, ("&", "R&D")),
        Concept("Unicode", "Unicode", True, ("kelvin scale", "İstanbul", "Straße", " spaced ")),
        Concept("Repeat", "Repeat", True, ("water water", "ing")),
    )
    STEMS = (
        "pathogen", "listeria", "salmonella", "colour", "color", "discoloration",
        "firmness", "texture", "tenderness", "soften", "moisture", "humidity",
        "water", "content", "activity", "processor", "sub", "kelvin", "scale",
        "istanbul", "strasse", "straße", "ssalmonella", "empathogen", "watery",
        "c", "r", "d", "spaced", "ing", "contents",
    )
    SUFFIXES = ("", "", "s", "es", "ed", "ing", "ic", "ly", "'s", "++", "#")
    SEPARATORS = (" ", " ", "  ", "\n", "-", ", ", ". ", "&", "_", "")

    @staticmethod
    def _case(rng, word):
        word = rng.choice([word, word.upper(), word.title(), word.capitalize()])
        word = word.replace("s", rng.choice(["s", "ſ"])).replace("k", rng.choice(["k", "K"]))
        return word.replace("I", rng.choice(["I", "İ"])).replace("i", rng.choice(["i", "İ"]))

    def _text(self, rng):
        parts = []
        for _ in range(rng.randint(1, 12)):
            parts.append(self._case(rng, rng.choice(self.STEMS) + rng.choice(self.SUFFIXES)))
            parts.append(rng.choice(self.SEPARATORS))
        return "".join(parts)

    @pytest.mark.parametrize("stem", [False, True])
    def test_random_texts_match_reference(self, model, stem):
        wide = ConceptModel(model.concepts + self.EXTRA, model.version)
        rng = random.Random(1975 + stem)
        for _ in range(1500):
            text = self._text(rng)
            for m in (model, wide):
                got = classify_keywords(prov(text), m, stem).labels
                assert got == _ref_classify_keywords(text, m, stem), (repr(text), stem)

    @pytest.mark.parametrize("stem", [False, True])
    def test_punctuated_and_folded_keywords(self, model, stem):
        wide = ConceptModel(model.concepts + self.EXTRA, model.version)
        for text in (
            "Each sub-processor is bound.",
            "Code in C++ and c# only.",
            "R&D budgets & costs.",
            "Measured on the \u212aelvin scale in İstanbul.",
            "The STRASSE and the ſalmonella.",
            "Water  content and water\ncontent and water-content.",
            "a spaced word",
        ):
            assert classify_keywords(prov(text), wide, stem).labels == _ref_classify_keywords(
                text, wide, stem
            ), (text, stem)

    # Texts where only a token led by İ, the Kelvin sign or the long s reaches a keyword
    # or its stem: the lower case of each of those letters starts with, or is matched
    # under `re.IGNORECASE` by, an ASCII one.
    FOLDED = (
        "Measured in \u212aelvins.", "\u212aELVIN SCALES apply", "on the \u212aelvin scale",
        "İstanbul", "İSTANBULS", "in İstanbul.", "ſalmonella", "ſALMONELLAS", "(ſalmonella)",
        "ſoftening and \u212aelvins", "İSTANBUL ſALMONELLA \u212aELVIN",
    )

    @pytest.mark.parametrize("stem", [False, True])
    def test_folded_letters_lead_the_only_keyword(self, model, stem):
        ascii_words = Concept("Place", "Place", True, ("kelvin scale", "kelvin", "istanbul"))
        for m in (model, ConceptModel(model.concepts + (ascii_words,), model.version)):
            for text in self.FOLDED:
                got = classify_keywords(prov(text), m, stem).labels
                assert got == _ref_classify_keywords(text, m, stem), (text, stem)

    @pytest.mark.parametrize("stem", [False, True])
    def test_keywords_only_inside_longer_words(self, model, stem):
        # A whole-word "salmonella" lets the text past the combined pattern;
        # every other keyword sits inside a longer word, which its own
        # concept's pattern must still reject.
        for text in (
            "Salmonella and empathogenic discolourationx.",
            "salmonella: watercontent, moisturex, colourful, firmnesses",
            "ſalmonella and xlisteria under a texturex",
        ):
            got = classify_keywords(prov(text), model, stem).labels
            assert got == _ref_classify_keywords(text, model, stem) == {"Pathogen"}, text

    @pytest.mark.parametrize(
        "concepts",
        [
            (Concept("Ampersand", "Ampersand", True, ("&",)),),
            (Concept("Plain", "Plain", False), Concept("Empty", "Empty", True, ())),
            (),
        ],
        ids=["no-word-character", "no-scarce-keywords", "no-concepts"],
    )
    @pytest.mark.parametrize("stem", [False, True])
    def test_degenerate_models(self, concepts, stem):
        degenerate = ConceptModel(concepts)
        rng = random.Random(85)
        texts = ["R & D", "R&D", "&", "a &b", "& water content"]
        texts += [self._text(rng) for _ in range(200)]
        for text in texts:
            got = classify_keywords(prov(text), degenerate, stem).labels
            assert got == _ref_classify_keywords(text, degenerate, stem), (repr(text), stem)

    def test_after_stem_cache_clear(self, model):
        wide = ConceptModel(model.concepts + self.EXTRA, model.version)
        rng = random.Random(1976)
        texts = [self._text(rng) for _ in range(300)]
        for cleared in (False, True):
            if cleared:
                _stem_token.cache_clear()
            for text in texts:
                got = classify_keywords(prov(text), wide, True).labels
                assert got == _ref_classify_keywords(text, wide, True), (repr(text), cleared)
        assert _stem_token.cache_info().currsize > 0


class TestStemmedWalkAgainstTheGatePath:
    """Under `stem`, an ASCII text skips the gate and the per-concept patterns when every
    keyword is ASCII and has a word character; the labels must be those of the gate path."""

    PUNCTUATED = (Concept("Coli", "Coli", True, ("e. coli", "(salmonella)", "kelvin", "istanbul")),)
    PIECES = (
        "e. coli", "E. COLI", "e.coli", "(salmonella)", "salmonella", "(ſalmonella)",
        "ſalmonella", "\u212aelvin", "kelvin", "KELVIN", "İstanbul", "istanbul", "straße",
        "strasse", "water content", "moisture", "colours", "&", "R&D", "§", " ", " ", ", ",
        ". ", "(", ")", "-",
    )

    @pytest.mark.parametrize(
        "extra, skips",
        [
            ((), True),
            ((Concept("Ampersand", "Ampersand", True, ("&", "§")),), False),
            ((Concept("Unicode", "Unicode", True, ("ſalmonella", "\u212aelvin")),), False),
        ],
        ids=["ascii-keywords", "keyword-without-a-word-character", "non-ascii-keywords"],
    )
    def test_labels_equal_the_gate_path(self, model, extra, skips):
        wide = ConceptModel(model.concepts + self.PUNCTUATED + extra, model.version)
        gate_path = _KeywordIndex(wide, True)
        assert gate_path.walk_covers is skips
        gate_path.walk_covers = False
        rng = random.Random(2024)
        for _ in range(1500):
            text = "The " + "".join(rng.choice(self.PIECES) for _ in range(rng.randint(1, 10)))
            got = classify_keywords(prov(text), wide, stem=True).labels
            assert got == gate_path.match(text), repr(text)

    def test_folded_letters_lead_the_only_keyword(self, model):
        wide = ConceptModel(model.concepts + self.PUNCTUATED, model.version)
        gate_path = _KeywordIndex(wide, True)
        gate_path.walk_covers = False
        for text in TestKeywordIndexAgainstReference.FOLDED:
            got = classify_keywords(prov(text), wide, stem=True).labels
            assert got == gate_path.match(text), repr(text)


def test_ignorecase_matches_the_ascii_start_of_each_lower_case():
    # `_word_starts` rests on a law of this Python's Unicode tables: a code point whose
    # `str.lower()` starts with an ASCII character is matched by that character under
    # `re.IGNORECASE`. So each such code point, leading a word, reaches a stem there.
    gates: dict[str, re.Pattern[str]] = {}
    for cp in range(sys.maxunicode + 1):
        first = chr(cp).lower()[0]
        if first.isascii():
            assert re.fullmatch(re.escape(first), chr(cp), re.IGNORECASE), hex(cp)
            if first.isalnum():
                gate = gates.setdefault(first, _word_starts([first + "q"]))
                assert gate.search(f"- {chr(cp)}Q"), hex(cp)


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

    def test_grammar_break_keeps_keyword_labels_answer_and_usage(self, model):
        # A paid answer that breaks the grammar is kept with its usage; the
        # keyword branch still labels the provision on its own.
        backend = StubBackend([StubEntry(match="", response="free prose only")])
        p = prov("Listeria must be absent from ready-to-eat foods.")
        (result,) = classify_provisions([p], model, backend)
        assert result.labels.provenance == {"Pathogen": "keyword"}
        assert result.raw_response == "free prose only"
        assert result.usage == backend.complete(build_classification_prompt(p, model))[1]
        assert result.usage.prompt_tokens > 0
        assert result.parse_error == "no concept id or NONE marker found in response"

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

    @pytest.mark.parametrize(
        "body",
        [
            {"system": 5, "user": "Text: {text}"},
            {"system": "{concept_list}", "user": None},
            {"system": "{concept_list}"},
            [],
            "{concept_list} {text}",
        ],
    )
    def test_template_file_must_be_an_object_of_strings(self, tmp_path, body):
        import json

        from regcheck.classify import load_classification_template
        from regcheck.errors import TemplateError

        path = tmp_path / "template.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        with pytest.raises(TemplateError, match="string 'system' and 'user'"):
            load_classification_template(path)


class TestFuseLabels:
    def test_empty_union(self):
        assert fuse_labels(LabelSet({}), LabelSet({})).labels == set()

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
            return LabelSet({i: rng.choice(sources) for i in chosen})

        for _ in range(200):
            a, b, c = random_set(), random_set(), random_set()
            assert fuse_labels(a, b) == fuse_labels(b, a)
            assert fuse_labels(fuse_labels(a, b), c) == fuse_labels(a, fuse_labels(b, c))

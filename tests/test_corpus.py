"""Segmentation: document parsing, sentence splitting, list expansion, chunking."""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from regcheck.corpus import (
    Block,
    chunk_paragraphs,
    estimate_tokens,
    expand_list_items,
    extract_provisions,
    parse_document,
    sentence_spans,
    split_text,
)
from regcheck.errors import MalformedInput, UnchunkableText


def plain_provisions(doc):
    """Sentence provisions of the paragraph blocks only."""
    return [p for p in extract_provisions(doc) if p.origin == "plain"]


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_eight_chars(self):
        assert estimate_tokens("aardvark") == 2

    def test_rounds_up(self):
        assert estimate_tokens("abc") == 1
        assert estimate_tokens("abcde") == 2

    def test_monotone_under_concatenation(self):
        rng = random.Random(7)
        alphabet = "abcdefg hij"
        for _ in range(100):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            assert estimate_tokens(a + b) >= max(estimate_tokens(a), estimate_tokens(b))


class TestParseDocument:
    def test_empty_document_rejected(self):
        with pytest.raises(MalformedInput):
            parse_document("", "plain")

    def test_whitespace_only_rejected(self):
        with pytest.raises(MalformedInput):
            parse_document("  \n\n  ", "structured")

    def test_plain_single_paragraph(self):
        doc = parse_document(
            "The licence holder must keep records. Records must be retained.", "plain"
        )
        assert len(doc.blocks) == 1
        assert doc.blocks[0].kind == "paragraph"

    def test_sfcr_sample_structured(self, fixtures):
        raw = (fixtures / "sfcr_sample.txt").read_text(encoding="utf-8")
        doc = parse_document(raw, "structured", doc_id="sfcr_sample")
        assert doc.title == "Sale of Meat Products"
        assert len(doc.blocks) == 1
        block = doc.blocks[0]
        assert block.kind == "list"
        assert block.header == "No person shall sell a meat product that:"
        assert block.items == (
            "(a) is spoiled;",
            "(b) is contaminated;",
            "(c) was not inspected under this Part.",
        )

    def test_plain_list_detection(self):
        raw = "No person shall sell:\n(a) spoiled meat;\n(b) contaminated meat."
        doc = parse_document(raw, "plain")
        assert doc.blocks[0].kind == "list"
        assert doc.blocks[0].header == "No person shall sell:"
        assert len(doc.blocks[0].items) == 2

    def test_plain_marker_without_header_stays_paragraph(self):
        raw = "(a) an orphaned item line\n(b) another one"
        doc = parse_document(raw, "plain")
        assert doc.blocks[0].kind == "paragraph"

    def test_structured_empty_list_header(self):
        with pytest.raises(MalformedInput):
            parse_document("* \n- item", "structured")

    def test_structured_list_without_items(self):
        with pytest.raises(MalformedInput):
            parse_document("* A header with no items:", "structured")

    def test_structured_item_outside_list(self):
        with pytest.raises(MalformedInput):
            parse_document("- stray item", "structured")

    def test_structured_text_outside_block(self):
        with pytest.raises(MalformedInput):
            parse_document("stray continuation line", "structured")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_document("text", "pdf")

    def test_determinism(self, fixtures):
        raw = (fixtures / "sfcr_gold_corpus.txt").read_text(encoding="utf-8")
        assert parse_document(raw, "structured") == parse_document(raw, "structured")


class TestSplitSentences:
    def test_two_plain_sentences(self):
        doc = parse_document(
            "The licence holder must keep records. Records must be retained for two years.",
            "plain",
        )
        provisions = plain_provisions(doc)
        assert [p.text for p in provisions] == [
            "The licence holder must keep records.",
            "Records must be retained for two years.",
        ]
        assert all(p.origin == "plain" for p in provisions)

    def test_legal_abbreviation_not_split(self):
        doc = parse_document("See s. 12 of the Act for details.", "plain")
        assert len(plain_provisions(doc)) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "The exemptions in ss. 30 to 34 do not apply.",
            "This applies despite art. 4 of the Agreement.",
            "Form No. 5 must accompany the shipment.",
            "Hazards, e.g. biological hazards, must be listed.",
            "The activities, i.e. the processes used, are described.",
            "Sanitation requirements under para. 7 are not met.",
        ],
    )
    def test_seeded_abbreviations(self, text):
        assert split_text(text) == [text]

    def test_decimal_number_not_split(self):
        assert split_text("The net quantity is 2.5 kg. Labels must say so.") == [
            "The net quantity is 2.5 kg.",
            "Labels must say so.",
        ]

    def test_question_and_exclamation(self):
        assert split_text("Is the food safe? It must be! Inspect it.") == [
            "Is the food safe?",
            "It must be!",
            "Inspect it.",
        ]

    def test_list_only_document_yields_nothing(self):
        doc = parse_document("* Header:\n- (a) one item.", "structured")
        assert plain_provisions(doc) == []
        assert len(expand_list_items(doc.blocks[0], doc.doc_id)) == 1

    def test_partition_preserves_characters(self, gold_doc):
        # Splitting loses nothing: non-whitespace multiset is invariant.
        for block in gold_doc.blocks:
            if block.kind != "paragraph":
                continue
            sentences = split_text(block.text)
            assert Counter("".join(sentences).replace(" ", "")) == Counter(
                block.text.replace(" ", "")
            )


# Reference copy of the earlier splitter, which slices the text before and
# after every boundary candidate (quadratic on long paragraphs). The linear
# splitter must return exactly its spans.
_REF_BOUNDARY = re.compile(r"([.!?]+)([\"'”’)\]]*)(?=\s)")
_REF_OPENERS = "\"'“‘(["


def _ref_sentence_spans(text):
    abbrevs = frozenset(("s.", "ss.", "art.", "no.", "e.g.", "i.e.", "para."))
    breaks = []
    for m in _REF_BOUNDARY.finditer(text):
        terminator = m.group(1)
        rest = text[m.end():].lstrip()
        if not rest:
            continue
        nxt = rest[0]
        if not (nxt.isupper() or nxt.isdigit() or nxt in _REF_OPENERS):
            continue
        if terminator == ".":
            token = text[: m.end(1)].rsplit(None, 1)[-1].lstrip(_REF_OPENERS).lower()
            if token in abbrevs:
                continue
        breaks.append(m.end())
    spans = []
    start = 0
    for brk in breaks + [len(text)]:
        chunk = text[start:brk]
        lead = len(chunk) - len(chunk.lstrip())
        trail = len(chunk) - len(chunk.rstrip())
        if chunk.strip():
            spans.append((start + lead, brk - trail))
        start = brk
    return spans


class TestSentenceSpansAgainstReference:
    PIECES = (
        ".", ".", "!", "?", "...", "?!", "\"", "'", "”", "’", ")", "]",
        "“", "‘", "(", "[", " ", " ", "  ", "\n", "\t", "\u00a0", "\u2003",
        "\u3000", "\x1c", "\u2028", "s.", "ss.", "Art.", "no.", "e.g.", "(i.e.",
        "para.", "R.S.C.", "A", "Z", "É", "Ω", "1", "42", "a", "word", "ß", "x",
    )

    def test_random_strings_match_reference(self):
        rng = random.Random(20240613)
        for _ in range(4000):
            text = "".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 40)))
            assert sentence_spans(text) == _ref_sentence_spans(text), repr(text)

    def test_reference_agrees_on_gold_corpus(self, gold_doc):
        for block in gold_doc.blocks:
            if block.kind == "paragraph":
                assert sentence_spans(block.text) == _ref_sentence_spans(block.text)


class TestSentenceSpansAdversarial:
    """Exact outputs on 100k-character inputs that were quadratic before."""

    N = 100_000

    def test_terminator_run(self):
        assert sentence_spans("." * self.N) == [(0, self.N)]
        assert sentence_spans("!?" * (self.N // 2) + " Next") == [
            (0, self.N),
            (self.N + 1, self.N + 5),
        ]

    def test_closer_run(self):
        assert sentence_spans(")" * self.N) == [(0, self.N)]
        assert sentence_spans("." + ")" * self.N + "x") == [(0, self.N + 2)]

    def test_period_closer_repeated(self):
        assert sentence_spans(".)" * (self.N // 2)) == [(0, self.N)]

    def test_abbreviation_candidates(self):
        text = "Art. 5 " * (self.N // 7)
        assert sentence_spans(text) == [(0, len(text) - 1)]

    def test_twenty_thousand_sentence_paragraph(self):
        sentences = [f"Clause {k} applies." for k in range(20_000)]
        expected, start = [], 0
        for sentence in sentences:
            expected.append((start, start + len(sentence)))
            start += len(sentence) + 1
        assert sentence_spans(" ".join(sentences)) == expected


class TestExpandListItems:
    def test_header_prefix_concatenation(self):
        block = Block(
            "list", 0, header="No person shall sell:", items=("(a) spoiled meat;",)
        )
        (prov,) = expand_list_items(block, "d")
        assert prov.text == "No person shall sell: (a) spoiled meat;"
        assert prov.origin == "list_expanded"

    def test_three_items_share_prefix(self):
        block = Block("list", 2, header="The label must show:", items=("(a) a;", "(b) b;", "(c) c."))
        provisions = expand_list_items(block, "d")
        assert len(provisions) == 3
        assert all(p.text.startswith("The label must show:") for p in provisions)
        assert [p.sentence_index for p in provisions] == [0, 1, 2]

    def test_nested_sub_items_compose_headers(self):
        block = Block(
            "list",
            1,
            header="An operator must ensure that:",
            items=(
                "(b) stored food is protected: (i) during loading; (ii) during freezing;",
            ),
        )
        provisions = expand_list_items(block, "d")
        assert [p.text for p in provisions] == [
            "An operator must ensure that: (b) stored food is protected: (i) during loading;",
            "An operator must ensure that: (b) stored food is protected: (ii) during freezing;",
        ]

    def test_non_roman_parenthetical_is_not_nesting(self):
        block = Block("list", 0, header="H:", items=("(a) cite 12 (c) of the Act;",))
        provisions = expand_list_items(block, "d")
        assert len(provisions) == 1

    def test_rejects_paragraph_block(self):
        with pytest.raises(ValueError):
            expand_list_items(Block("paragraph", 0, text="prose"), "d")

    def test_prefix_law_on_gold_corpus(self, gold_doc):
        for block in gold_doc.blocks:
            if block.kind != "list":
                continue
            for prov in expand_list_items(block, gold_doc.doc_id):
                assert prov.text.startswith(block.header)


class TestChunkParagraphs:
    def test_small_paragraph_unchanged(self):
        doc = parse_document("Water used in processing must be potable.", "plain")
        passages = chunk_paragraphs(doc, budget=4096)
        assert len(passages) == 1
        assert passages[0].text == doc.blocks[0].text
        assert passages[0].token_estimate <= 4096

    def test_oversize_splits_at_sentence_boundary(self):
        # Three ~40-token sentences against a budget of 100: two chunks.
        sentences = [
            "Alpha " + "beta " * 30 + "ends here.",
            "Gamma " + "delta " * 30 + "ends here.",
            "Omega " + "sigma " * 30 + "ends here.",
        ]
        doc = parse_document(" ".join(sentences), "plain")
        per_sentence = [estimate_tokens(s) for s in sentences]
        assert all(35 <= n <= 50 for n in per_sentence)
        passages = chunk_paragraphs(doc, budget=100)
        assert len(passages) == 2
        for p in passages:
            assert estimate_tokens(p.text) <= 100  # re-run the counting oracle
        joined = " ".join(p.text for p in passages)
        assert joined.split() == doc.blocks[0].text.split()

    def test_single_oversize_sentence(self):
        doc = parse_document("word " * 5000, "plain")
        with pytest.raises(UnchunkableText):
            chunk_paragraphs(doc, budget=1000)

    def test_budget_must_be_positive(self, gold_doc):
        with pytest.raises(ValueError):
            chunk_paragraphs(gold_doc, budget=0)

    def test_list_blocks_are_chunked_too(self, gold_doc):
        passages = chunk_paragraphs(gold_doc, budget=4096)
        assert len(passages) == len(gold_doc.blocks)
        assert [p.sequence for p in passages] == list(range(len(passages)))

    def test_bisects_down_to_single_sentences(self):
        # "One. Two." is ~3 tokens, so each sentence (~1-2 tokens) stands alone.
        doc = parse_document("One. Two. Three.", "plain")
        passages = chunk_paragraphs(doc, budget=2)
        assert [p.text for p in passages] == ["One.", "Two.", "Three."]


class TestProvisionIds:
    def test_unit_refs_are_unique_and_ordered(self, gold_doc):
        provisions = extract_provisions(gold_doc)
        refs = [p.unit_ref for p in provisions]
        assert len(set(refs)) == len(refs)
        assert refs[0] == "gold:b0:s0"

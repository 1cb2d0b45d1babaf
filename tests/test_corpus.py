"""Segmentation: document parsing, sentence splitting, list expansion, chunking."""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from regcheck.corpus import (
    LIST,
    PARAGRAPH,
    Block,
    SourceDocument,
    _SUB_MARKER,
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


# Reference copy of the two parsers `parse_document` had before its one line
# loop: a marker loop over `_RefBuilder` for structured text, and a blank-line
# chunker for plain text. `parse_document` must return exactly their document,
# or raise the same error type with the same message.
_REF_ENUM_LINE = re.compile(r"^\s*(?:\((?:[a-z]{1,2}|[ivxl]{1,6}|\d{1,3})\)|\d{1,3}\.)\s+")


class _RefBuilder:
    def __init__(self):
        self.blocks = []
        self.kind = None
        self.parts = []
        self.header = ""
        self.items = []

    def open_paragraph(self, text):
        self.close()
        self.kind = PARAGRAPH
        self.parts = [text.strip()] if text.strip() else []

    def open_list(self, header, lineno):
        self.close()
        if not header.strip():
            raise MalformedInput(f"line {lineno}: empty list header")
        self.kind = LIST
        self.header = header.strip()
        self.items = []

    def add_item(self, text, lineno):
        if self.kind != LIST:
            raise MalformedInput(f"line {lineno}: list item outside a list")
        if not text.strip():
            raise MalformedInput(f"line {lineno}: empty list item")
        self.items.append(text.strip())

    def continuation(self, text, lineno):
        if self.kind == PARAGRAPH:
            self.parts.append(text.strip())
        elif self.kind == LIST:
            if not self.items:
                raise MalformedInput(f"line {lineno}: expected a list item after the header")
            self.items[-1] += " " + text.strip()
        else:
            raise MalformedInput(f"line {lineno}: text outside any block")

    def close(self):
        if self.kind == PARAGRAPH:
            text = " ".join(p for p in self.parts if p)
            if not text:
                raise MalformedInput("empty paragraph block")
            self.blocks.append(Block(PARAGRAPH, len(self.blocks), text=text))
        elif self.kind == LIST:
            if not self.items:
                raise MalformedInput(f"unclosed list: header {self.header!r} has no items")
            self.blocks.append(
                Block(LIST, len(self.blocks), header=self.header, items=tuple(self.items))
            )
        self.kind = None
        self.parts, self.header, self.items = [], "", []


def _ref_parse_structured(raw):
    title = ""
    builder = _RefBuilder()
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            builder.close()
            continue
        if line.startswith("# "):
            if title or builder.blocks or builder.kind is not None:
                raise MalformedInput(f"line {lineno}: unexpected title marker")
            title = line[2:].strip()
        elif line.startswith("¶ "):
            builder.open_paragraph(line[2:])
        elif line.startswith("* "):
            builder.open_list(line[2:], lineno)
        elif line.startswith("- "):
            builder.add_item(line[2:], lineno)
        else:
            builder.continuation(line, lineno)
    builder.close()
    return title, builder.blocks


def _ref_parse_plain(raw):
    blocks = []
    chunk = []
    for line in raw.splitlines() + [""]:
        if line.strip():
            chunk.append(line)
            continue
        if chunk:
            _ref_append_plain_chunk(blocks, chunk)
            chunk = []
    return "", blocks


def _ref_append_plain_chunk(blocks, lines):
    marker_rows = [i for i, line in enumerate(lines) if _REF_ENUM_LINE.match(line)]
    if marker_rows and marker_rows[0] > 0:
        first = marker_rows[0]
        header = " ".join(l.strip() for l in lines[:first])
        bounds = marker_rows + [len(lines)]
        items = [
            " ".join(l.strip() for l in lines[bounds[k] : bounds[k + 1]])
            for k in range(len(marker_rows))
        ]
        blocks.append(Block(LIST, len(blocks), header=header, items=tuple(items)))
    else:
        blocks.append(Block(PARAGRAPH, len(blocks), text=" ".join(l.strip() for l in lines)))


def _ref_parse_document(raw, format="plain", doc_id="doc"):
    if format not in ("plain", "structured"):
        raise ValueError(f"unknown format {format!r}")
    if not raw.strip():
        raise MalformedInput("empty document")
    if format == "structured":
        title, blocks = _ref_parse_structured(raw)
    else:
        title, blocks = _ref_parse_plain(raw)
    if not blocks:
        raise MalformedInput("document contains no blocks")
    return SourceDocument(doc_id=doc_id, title=title, blocks=tuple(blocks))


def _parse_outcome(parse, raw, fmt):
    """The parsed document, or the type and message of the error raised."""
    try:
        return parse(raw, fmt, doc_id="d")
    except Exception as exc:
        return type(exc), str(exc)


class TestParseDocumentAgainstReference:
    MARKERS = ("# ", "¶ ", "* ", "- ")
    ENUMS = ("(a) ", "(iv) ", "1. ", "(a)", "  (b)\t", "12. ")
    # How a stray line starts: every marker, also without its text or its space,
    # the enumeration markers, and nothing (a continuation line).
    STARTS = (*MARKERS, "#", "¶", "*", "-", *ENUMS, "Art. 5 ", "", "")
    # Pieces of a line's text. "\r", "\x0c", "\x1c" and " " end a line for
    # `splitlines` and are whitespace for `strip`.
    PIECES = (
        "word", "The processor shall assist.", "Données", *ENUMS, "Art. 5 ", *MARKERS,
        ":", ";", " ", "\t", " ", "\r", "\x0c", "\x1c", " ",
    )
    WORDS = ("word", "The processor shall assist.", "Données", "Art. 5 applies.", "x")
    BREAKS = ("\n", "\n", "\n", "\n", "\r\n", "\n\n", "\n \n", "\n\t\n", "\r", "\x0c")
    DOCUMENTS = 5000

    def _text(self, rng):
        """Mostly a word, now and then followed by random pieces; rarely empty."""
        if rng.random() < 0.05:
            return ""
        pieces = rng.choices((0, 1, 2), (6, 2, 1))[0]
        return rng.choice(self.WORDS) + "".join(rng.choice(self.PIECES) for _ in range(pieces))

    # Segment shapes and their weights per format: mostly well formed in that format.
    SHAPES = ("title", "paragraph", "marked list", "plain list", "stray")
    WEIGHTS = {"structured": (1, 6, 4, 1, 1), "plain": (1, 4, 1, 4, 1)}

    def _segment(self, rng, fmt):
        """The lines of one block-shaped segment."""
        shape = rng.choices(self.SHAPES, self.WEIGHTS[fmt])[0]
        if shape == "title":
            return [rng.choice(("# ", "#")) + rng.choice(("", *self.WORDS))]
        if shape == "stray":
            return [rng.choice(self.STARTS) + self._text(rng)]
        continued = lambda line: [line] + [self._text(rng) for _ in range(rng.choice((0, 0, 1, 2)))]
        if shape == "paragraph":
            return continued(("¶ " if fmt == "structured" else "") + self._text(rng))
        if shape == "marked list":
            lines = ["* " + self._text(rng)]
            for _ in range(rng.randint(0, 3)):
                lines += continued("- " + self._text(rng))
            return lines
        lines = [self._text(rng) for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(1, 3)):
            lines += continued(rng.choice(self.ENUMS) + self._text(rng))
        return lines

    def _documents(self, fmt, seed):
        rng = random.Random(seed)
        for _ in range(self.DOCUMENTS):
            raw = ""
            for _ in range(rng.randint(0, 5)):
                raw += "\n".join(self._segment(rng, fmt)) + rng.choice(self.BREAKS)
            yield raw if rng.random() < 0.8 else raw.rstrip("\n")

    @pytest.mark.parametrize("fmt,seed", [("structured", 20261018), ("plain", 20261019)])
    def test_random_documents_match_reference(self, fmt, seed):
        outcomes = Counter()
        for raw in self._documents(fmt, seed):
            got = _parse_outcome(parse_document, raw, fmt)
            assert got == _parse_outcome(_ref_parse_document, raw, fmt), repr(raw)
            if isinstance(got, SourceDocument):
                outcomes.update(block.kind for block in got.blocks)
                outcomes["parsed"] += 1
                outcomes["prose opening with a marker"] += any(
                    b.kind == PARAGRAPH and _REF_ENUM_LINE.match(b.text) for b in got.blocks
                )
            else:
                outcomes[re.sub(r"^line \d+: |: header .*", "", got[1])] += 1
        # The inputs reach every outcome of both parsers.
        expected = {"parsed", PARAGRAPH, LIST, "empty document"}
        if fmt == "structured":
            expected |= {
                "document contains no blocks",
                "unexpected title marker",
                "empty list header",
                "list item outside a list",
                "empty list item",
                "expected a list item after the header",
                "text outside any block",
                "empty paragraph block",
                "unclosed list",
            }
        else:
            expected.add("prose opening with a marker")
        assert expected <= {k for k, n in outcomes.items() if n}, outcomes
        assert outcomes["parsed"] >= self.DOCUMENTS // 10, outcomes

    @pytest.mark.parametrize("fmt", ["structured", "plain"])
    def test_fixtures_match_reference(self, fixtures, fmt):
        for path in sorted(fixtures.glob("*.txt")):
            raw = path.read_text(encoding="utf-8")
            assert _parse_outcome(parse_document, raw, fmt) == _parse_outcome(
                _ref_parse_document, raw, fmt
            ), path.name

    @pytest.mark.parametrize(
        "raw,fmt",
        [
            ("", "plain"), ("", "structured"), (" \n\t\r\x0c", "plain"), (" \n\t\r\x0c", "structured"),
            ("# ", "structured"), ("# Title\n\n", "structured"), ("# \n# Title", "structured"),
            ("# ", "plain"), ("(a) x\n(b) y", "plain"), ("head\n(a) \n(b)\tx", "plain"),
            ("text", "pdf"),
        ],
    )
    def test_corner_cases_match_reference(self, raw, fmt):
        assert _parse_outcome(parse_document, raw, fmt) == _parse_outcome(
            _ref_parse_document, raw, fmt
        )


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


# Reference form of the sub-item marker, which opens on its lookbehind.
_REF_SUB_MARKER = re.compile(r"(?<=\s)\(([ivxlcdm]+)\)")


def test_sub_marker_matches_its_reference():
    pieces = ("(", "(", ")", "i", "ii", "v", "x", "m", "a", "(i)", "(iv)", " ", "\n", "\t",
              "\u00a0", "\u3000", "item", "é", "_", "1")
    rng = random.Random(20240614)
    for _ in range(4000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
        found = [(m.start(), m.groups()) for m in _SUB_MARKER.finditer(text)]
        assert found == [(m.start(), m.groups()) for m in _REF_SUB_MARKER.finditer(text)], text


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
        assert [p.unit_ref for p in provisions] == ["d:b2:s0", "d:b2:s1", "d:b2:s2"]

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
        assert estimate_tokens(passages[0].text) <= 4096

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
        assert [p.unit_ref for p in passages] == [f"gold:p{i}" for i in range(len(passages))]

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

    def test_each_block_counts_its_provisions_from_zero(self, gold_doc):
        refs: dict[int, list[str]] = {}
        for p in extract_provisions(gold_doc):
            refs.setdefault(p.block, []).append(p.unit_ref)
        assert len(refs) == len(gold_doc.blocks)
        for block, got in refs.items():
            assert got == [f"gold:b{block}:s{i}" for i in range(len(got))]

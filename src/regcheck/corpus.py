"""Regulatory text ingestion and segmentation.

Produces the two units of analysis used downstream, each a ``Unit``:

- sentence-level provisions (classification pipeline), with list items
  expanded so each inherits its list header as a prefix;
- token-bounded passages (compliance pipeline), one per block, with
  oversize blocks recursively split at sentence boundaries.

A ``UnitTable`` lists a document's units of either kind compactly, for
``segment``, ``classify`` and ``check``; a ``CheckUnit`` carries one unit
with its block as context.

All functions here are pure: identical inputs yield byte-identical outputs,
and nothing is shared between calls.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator

from .errors import MalformedInput, UnchunkableText

# Legal citation forms that end with a period but never end a sentence,
# lower-cased: a token is looked up case-insensitively.
ABBREVIATIONS: frozenset[str] = frozenset(
    {
        "s.",
        "ss.",
        "art.",
        "no.",
        "e.g.",
        "i.e.",
        "para.",
    }
)

PARAGRAPH = "paragraph"
LIST = "list"
# The units of `segment` and `check` (`--granularity`): provisions, or passages of blocks.
SENTENCE = "sentence"
PARAGRAPH_LEVEL = "paragraph"
# A unit's origin: a sentence of a paragraph, an expanded list item, or a passage.
PLAIN = "plain"
LIST_EXPANDED = "list_expanded"
PASSAGE = "passage"


@dataclass(frozen=True, slots=True)
class Block:
    """One source block: a prose paragraph or an enumerated list."""

    kind: str
    index: int
    text: str = ""
    header: str = ""
    items: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == PARAGRAPH:
            if not self.text.strip():
                raise MalformedInput(f"block {self.index}: empty paragraph")
        elif self.kind == LIST:
            if not self.header.strip():
                raise MalformedInput(f"block {self.index}: empty list header")
            if not self.items:
                raise MalformedInput(f"block {self.index}: list without items")
        else:
            raise MalformedInput(f"block {self.index}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class SourceDocument:
    doc_id: str
    title: str
    blocks: tuple[Block, ...]


@dataclass(frozen=True, slots=True)
class Unit:
    """One unit of a document: a sentence-level provision, or a token-bounded passage."""

    unit_ref: str
    text: str
    block: int  # the index of its block
    origin: str  # PLAIN or LIST_EXPANDED for a provision, PASSAGE for a passage


@dataclass(frozen=True, slots=True)
class CheckUnit:
    """One unit submitted for compliance checking, with optional context."""

    passage: Unit
    context: str | None = None


def estimate_tokens(text: str) -> int:
    """Token estimator: ceil(character count / 4).

    Deterministic and monotone non-decreasing under concatenation.
    """
    return math.ceil(len(text) / 4)


# --------------------------------------------------------------------------
# Sentence splitting
# --------------------------------------------------------------------------

# Terminator run plus any closing quotes/brackets, then whitespace and the next
# character, captured. A match starts only at the start of a run: a match ends
# before whitespace, so the next one can only start at a run start, and without
# the lookbehind a long run not followed by whitespace is retried from each of
# its positions. The lookbehind follows the first character because sre scans
# ahead in C only for a pattern that opens on a literal or a set; one that opens
# on a lookbehind is tried at every position.
_BOUNDARY = re.compile(r"([.!?](?<![.!?].)[.!?]*)[\"'”’)\]]*(?=\s+(\S))")

_OPENERS = "\"'“‘(["


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of sentences in `text`, trimmed of surrounding whitespace.

    A boundary is a run of ``.!?`` (plus closing quotes/brackets) followed by
    whitespace and an uppercase letter, digit, or opening quote/bracket. A
    lone period is not a boundary when the preceding token is a known
    abbreviation ("s. 12 of the Act" stays whole).
    """
    spans: list[tuple[int, int]] = []
    start = 0
    for brk in [*_sentence_breaks(text), len(text)]:
        chunk = text[start:brk]
        lead = len(chunk) - len(chunk.lstrip())
        trail = len(chunk) - len(chunk.rstrip())
        if chunk.strip():
            spans.append((start + lead, brk - trail))
        start = brk
    return spans


def first_sentence_end(text: str) -> int:
    """`sentence_spans(text)[0][1]`, or `len(text)` for blank `text`, with no later break found."""
    # A break follows a terminator, so it is never 0 and ends the first sentence.
    return next(_sentence_breaks(text), 0) or len(text.rstrip()) or len(text)


def _sentence_breaks(text: str) -> Iterator[int]:
    """The offsets just past each sentence boundary of `text`, in order (see `sentence_spans`)."""
    for m in _BOUNDARY.finditer(text):
        nxt = m.group(2)
        if not (nxt.isupper() or nxt.isdigit() or nxt in _OPENERS):
            continue
        if m.group(1) == ".":
            start = end = m.end(1)
            while start > 0 and not text[start - 1].isspace():
                start -= 1
            if text[start:end].lstrip(_OPENERS).lower() in ABBREVIATIONS:
                continue
        yield m.end()


def split_text(text: str) -> list[str]:
    """Split `text` into sentence strings (see `sentence_spans`)."""
    return [text[s:e] for s, e in sentence_spans(text)]


# --------------------------------------------------------------------------
# List expansion
# --------------------------------------------------------------------------

# Inline sub-item markers: parenthesized lowercase romans preceded by a space.
_SUB_MARKER = re.compile(r"\((?<=\s\()([ivxlcdm]+)\)")


def expand_list_items(block: Block, doc_id: str = "") -> list[Unit]:
    """One provision per list item, each prefixed with the list header.

    The header keeps its trailing punctuation and is joined to the item with
    a single space. An item that itself enumerates sub-items with "(i)",
    "(ii)", ... is expanded one provision per sub-item, headers composing
    outermost-first.
    """
    if block.kind != LIST:
        raise ValueError(f"expected a list block, got {block.kind!r}")
    return list(UnitTable([block], doc_id, SENTENCE))


def _expand_item(header: str, item: str) -> list[str]:
    markers = list(_SUB_MARKER.finditer(item))
    if markers and markers[0].group(1) == "i" and len(markers) >= 2:
        inner_header = item[: markers[0].start()].strip()
        starts = [m.start() for m in markers] + [len(item)]
        subs = [item[starts[k] : starts[k + 1]].strip() for k in range(len(markers))]
        return [f"{header} {inner_header} {sub}" for sub in subs]
    return [f"{header} {item}"]


def extract_provisions(doc: SourceDocument) -> list[Unit]:
    """All provisions of a document in block order: split paragraphs, expanded lists."""
    return list(UnitTable(doc.blocks, doc.doc_id, SENTENCE))


def block_sentences(block: Block) -> list[str]:
    """The provision texts of one block: its sentences, or its expanded list items."""
    if block.kind == LIST:
        return [text for item in block.items for text in _expand_item(block.header, item)]
    return split_text(block.text)


# --------------------------------------------------------------------------
# Paragraph chunking
# --------------------------------------------------------------------------


def block_text(block: Block) -> str:
    """The checkable text of a block; list blocks render header + items."""
    if block.kind == PARAGRAPH:
        return block.text
    return " ".join([block.header, *block.items])


def chunk_paragraphs(doc: SourceDocument, budget: int) -> list[Unit]:
    """Token-bounded passages, one per block where the block fits the budget.

    Oversize blocks are bisected recursively at sentence boundaries until
    every piece fits. Raises `UnchunkableText` if a single sentence alone
    exceeds the budget.
    """
    return list(UnitTable(doc.blocks, doc.doc_id, PARAGRAPH_LEVEL, budget))


def _fit_sentences(sentences: list[str], budget: int, block: int) -> list[str]:
    joined = " ".join(sentences)
    if estimate_tokens(joined) <= budget:
        return [joined]
    if len(sentences) == 1:
        raise UnchunkableText(
            f"block {block}: a single sentence of ~{estimate_tokens(joined)} tokens exceeds "
            f"the budget of {budget}: {joined[:80]!r}"
        )
    mid = (len(sentences) + 1) // 2
    head, tail = sentences[:mid], sentences[mid:]
    return _fit_sentences(head, budget, block) + _fit_sentences(tail, budget, block)


class UnitTable:
    """The units of `blocks` at `granularity`, listed compactly as the blocks are read, so
    that every input error is raised here. Each iteration yields them afresh, equal field for
    field, each `Unit` made as it is taken: only what cannot be recomputed is kept.

    Sentence granularity gives one provision per sentence of a paragraph and per expanded
    list item; its ref counts the units of its block. Paragraph granularity gives one passage
    per block that fits `budget`, and bisects a block that does not recursively at sentence
    boundaries until every piece fits; its ref is its number. `budget=None` bounds no unit.
    Context, when enabled, is the enclosing block's text, attached by `check_units` only when
    it adds anything beyond the unit text itself. It is built once per block.
    """

    def __init__(
        self,
        blocks: Iterable[Block],
        doc_id: str,
        granularity: str,
        budget: int | None = None,
        context_on: bool = False,
    ):
        from array import array  # here: a shared library that `eval` does not need

        if granularity not in (PARAGRAPH_LEVEL, SENTENCE):
            raise ValueError(f"unknown granularity {granularity!r}")
        if budget is not None and budget <= 0:
            raise ValueError("token budget must be positive")
        self.doc_id = doc_id
        self.passages = granularity == PARAGRAPH_LEVEL
        self.texts: list[str] = []
        self.blocks = array("q")  # each unit's block index
        self.lists: set[int] = set()  # at sentence granularity, the indices of the list blocks
        self.contexts: dict[int, str] = {}  # by unit number: the contexts that are not None
        for block in blocks:
            context = block_text(block) if context_on else None
            for text in self._texts(block, budget):
                if context is not None and context != text:
                    self.contexts[len(self.texts)] = context
                self.texts.append(text)
                self.blocks.append(block.index)

    def _texts(self, block: Block, budget: int | None) -> list[str]:
        """The texts of the units of `block`."""
        if self.passages:
            text = block_text(block)
            if budget is None or estimate_tokens(text) <= budget:
                return [text]
            return _fit_sentences(split_text(text), budget, block.index)
        if block.kind == LIST:
            self.lists.add(block.index)
        texts = block_sentences(block)
        if budget is not None:
            for i, text in enumerate(texts):
                tokens = estimate_tokens(text)
                if tokens > budget:
                    raise UnchunkableText(
                        f"provision {self.doc_id}:b{block.index}:s{i} (~{tokens} tokens) "
                        f"exceeds the budget of {budget}"
                    )
        return texts

    def __iter__(self) -> Iterator[Unit]:
        doc_id = self.doc_id
        if self.passages:
            for n, (text, block) in enumerate(zip(self.texts, self.blocks)):
                yield Unit(f"{doc_id}:p{n}", text, block, PASSAGE)
            return
        i, last = 0, None
        for text, block in zip(self.texts, self.blocks):
            i = i + 1 if block == last else 0
            last = block
            origin = LIST_EXPANDED if block in self.lists else PLAIN
            yield Unit(f"{doc_id}:b{block}:s{i}", text, block, origin)

    def check_units(self) -> Iterator[CheckUnit]:
        """Each unit with its context, or None."""
        return map(CheckUnit, self, map(self.contexts.get, count()))


# --------------------------------------------------------------------------
# Document parsing
# --------------------------------------------------------------------------

TITLE_MARK = "# "
PARAGRAPH_MARK = "¶ "  # "¶ "
HEADER_MARK = "* "
ITEM_MARK = "- "

# Enumeration markers recognized at line starts in plain mode: "(a)", "(iv)", "1."
_ENUM_LINE = re.compile(r"^\s*(?:\((?:[a-z]{1,2}|[ivxl]{1,6}|\d{1,3})\)|\d{1,3}\.)\s+")


def parse_document(
    raw: str,
    format: str = "plain",
    doc_id: str = "doc",
) -> SourceDocument:
    """Parse raw UTF-8 text into a block-structured document, one line at a time.

    A blank line closes the open block. `structured` format uses line-oriented
    markers: ``# `` title, ``¶ `` paragraph start, ``* `` list header, ``- ``
    list item; unmarked lines continue the open paragraph or list item. In
    `plain` format, the first line opening with an enumeration marker ("(a)",
    "(iv)", "1.") makes the block a list: the lines before it are the header,
    and each marker line starts an item. A block whose first line opens with a
    marker has no header, so it stays prose.
    """
    builder = _Builder(format)
    blocks = tuple(builder.blocks(raw.splitlines()))
    return SourceDocument(doc_id=doc_id, title=builder.title or "", blocks=blocks)


class _Builder:
    """Accumulates lines into validated blocks: the one parse loop of both formats."""

    def __init__(self, format: str):
        if format not in ("plain", "structured"):
            raise ValueError(f"unknown format {format!r}")
        self.format = format
        self.count = 0  # the blocks closed so far
        self.closed: Block | None = None  # the block the last line closed, until it is yielded
        self.title: str | None = None
        self.kind: str | None = None
        self.parts: list[str] = []
        self.header = ""
        self.items: list[list[str]] = []  # each list item's lines, joined in `close`
        # Plain format: the open paragraph's first line has an enumeration marker.
        self.prose = False

    def blocks(self, lines: Iterable[str]) -> Iterator[Block]:
        """The blocks of the text whose `splitlines()` are `lines`, each yielded as it closes;
        `title` is set once its line is read."""
        handle = self.structured_line if self.format == "structured" else self.plain_line
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                handle(line, lineno)
            else:
                self.close()
            if self.closed is not None:  # a line closes at most one block
                yield self.closed
                self.closed = None
        self.close()
        if self.closed is not None:
            yield self.closed
        elif not self.count:
            # Without blocks, a title is the only non-blank line a document can have.
            raise MalformedInput(
                "empty document" if self.title is None else "document contains no blocks"
            )

    def structured_line(self, line: str, lineno: int):
        if line.startswith(TITLE_MARK):
            if self.title or self.count or self.kind is not None:
                raise MalformedInput(f"line {lineno}: unexpected title marker")
            self.title = line[len(TITLE_MARK):].strip()
        elif line.startswith(PARAGRAPH_MARK):
            self.open_paragraph(line[len(PARAGRAPH_MARK):])
        elif line.startswith(HEADER_MARK):
            self.open_list(line[len(HEADER_MARK):], lineno)
        elif line.startswith(ITEM_MARK):
            self.add_item(line[len(ITEM_MARK):], lineno)
        else:
            self.continuation(line, lineno)

    def plain_line(self, line: str, lineno: int):
        marker = _ENUM_LINE.match(line) is not None
        if self.kind is None:
            self.open_paragraph(line)
            self.prose = marker
        elif marker and self.kind == LIST:
            self.add_item(line, lineno)
        elif marker and not self.prose:
            # The paragraph's lines were the header of the list this line opens.
            self.kind, self.header, self.parts = LIST, " ".join(self.parts), []
            self.add_item(line, lineno)
        else:
            self.continuation(line, lineno)

    def open_paragraph(self, text: str):
        self.close()
        self.kind = PARAGRAPH
        self.parts = [text.strip()] if text.strip() else []

    def open_list(self, header: str, lineno: int):
        self.close()
        if not header.strip():
            raise MalformedInput(f"line {lineno}: empty list header")
        self.kind = LIST
        self.header = header.strip()
        self.items = []

    def add_item(self, text: str, lineno: int):
        if self.kind != LIST:
            raise MalformedInput(f"line {lineno}: list item outside a list")
        if not text.strip():
            raise MalformedInput(f"line {lineno}: empty list item")
        self.items.append([text.strip()])

    def continuation(self, text: str, lineno: int):
        if self.kind == PARAGRAPH:
            self.parts.append(text.strip())
        elif self.kind == LIST:
            if not self.items:
                raise MalformedInput(
                    f"line {lineno}: expected a list item after the header"
                )
            self.items[-1].append(text.strip())
        elif lineno == 1 and text.startswith("\ufeff"):  # a BOM is text, so no marker follows it
            raise MalformedInput("line 1: text outside any block: a UTF-8 byte-order mark")
        else:
            raise MalformedInput(f"line {lineno}: text outside any block")

    def close(self):
        if self.kind == PARAGRAPH:
            text = " ".join(p for p in self.parts if p)
            if not text:
                raise MalformedInput("empty paragraph block")
            self.closed = Block(PARAGRAPH, self.count, text=text)
        elif self.kind == LIST:
            if not self.items:
                raise MalformedInput(
                    f"unclosed list: header {self.header!r} has no items"
                )
            items = tuple(" ".join(parts) for parts in self.items)
            self.closed = Block(LIST, self.count, header=self.header, items=items)
        else:
            return  # no block is open
        self.count += 1
        self.kind = None
        self.parts, self.header, self.items = [], "", []

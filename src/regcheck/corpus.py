"""Regulatory text ingestion and segmentation.

Produces the two units of analysis used downstream:

- sentence-level ``Provision`` records (classification pipeline), with list
  items expanded so each inherits its list header as a prefix;
- token-bounded ``Passage`` records (compliance pipeline), one per block,
  with oversize blocks recursively split at sentence boundaries.

All functions here are pure: identical inputs yield byte-identical outputs,
and nothing is shared between calls.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import MalformedInput, UnchunkableText

# Legal citation forms that end with a period but never end a sentence.
# Extend via the `abbreviations` parameter of the splitting functions.
DEFAULT_ABBREVIATIONS: tuple[str, ...] = (
    "s.",
    "ss.",
    "art.",
    "no.",
    "e.g.",
    "i.e.",
    "para.",
)

PARAGRAPH = "paragraph"
LIST = "list"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Provision:
    """A single sentence-level legal statement, the classification unit."""

    doc_id: str
    block_index: int
    sentence_index: int
    text: str
    origin: str  # "plain" | "list_expanded"

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("provision text is empty")
        if self.origin not in ("plain", "list_expanded"):
            raise ValueError(f"unknown provision origin {self.origin!r}")

    @property
    def unit_ref(self) -> str:
        return f"{self.doc_id}:b{self.block_index}:s{self.sentence_index}"


@dataclass(frozen=True)
class Passage:
    """A paragraph-level chunk guaranteed to fit the token budget."""

    doc_id: str
    sequence: int
    text: str
    token_estimate: int
    parent_block: tuple[int, int]
    unit_ref: str = field(default="")

    def __post_init__(self):
        if not self.unit_ref:
            object.__setattr__(self, "unit_ref", f"{self.doc_id}:p{self.sequence}")


def estimate_tokens(text: str) -> int:
    """Default token estimator: ceil(character count / 4).

    Deterministic and monotone non-decreasing under concatenation. Any
    callable with the same contract (e.g. an exact tokenizer) can replace it
    wherever a `counter` argument is accepted.
    """
    return math.ceil(len(text) / 4)


# --------------------------------------------------------------------------
# Sentence splitting
# --------------------------------------------------------------------------

# Terminator run plus any closing quotes/brackets, with whitespace following.
# A match starts only at the start of a run: a match ends before whitespace, so
# the next one can only start at a run start, and without the lookbehind a long
# run not followed by whitespace is retried from each of its positions.
_BOUNDARY = re.compile(r"(?<![.!?])([.!?]+)([\"'”’)\]]*)(?=\s)")
_NEXT_CHAR = re.compile(r"\s*(\S)")

_OPENERS = "\"'“‘(["


def _abbrev_set(abbreviations: Sequence[str] | None) -> frozenset[str]:
    if abbreviations is None:
        abbreviations = DEFAULT_ABBREVIATIONS
    return frozenset(a.lower() for a in abbreviations)


def sentence_spans(
    text: str, abbreviations: Sequence[str] | None = None
) -> list[tuple[int, int]]:
    """Character spans of sentences in `text`, trimmed of surrounding whitespace.

    A boundary is a run of ``.!?`` (plus closing quotes/brackets) followed by
    whitespace and an uppercase letter, digit, or opening quote/bracket. A
    lone period is not a boundary when the preceding token is a known
    abbreviation ("s. 12 of the Act" stays whole).
    """
    abbrevs = _abbrev_set(abbreviations)
    breaks: list[int] = []
    for m in _BOUNDARY.finditer(text):
        after = _NEXT_CHAR.match(text, m.end())
        if after is None:
            continue
        nxt = after.group(1)
        if not (nxt.isupper() or nxt.isdigit() or nxt in _OPENERS):
            continue
        if m.group(1) == ".":
            start = end = m.end(1)
            while start > 0 and not text[start - 1].isspace():
                start -= 1
            if text[start:end].lstrip(_OPENERS).lower() in abbrevs:
                continue
        breaks.append(m.end())

    spans: list[tuple[int, int]] = []
    start = 0
    for brk in breaks + [len(text)]:
        chunk = text[start:brk]
        lead = len(chunk) - len(chunk.lstrip())
        trail = len(chunk) - len(chunk.rstrip())
        if chunk.strip():
            spans.append((start + lead, brk - trail))
        start = brk
    return spans


def split_text(text: str, abbreviations: Sequence[str] | None = None) -> list[str]:
    """Split `text` into sentence strings (see `sentence_spans`)."""
    return [text[s:e] for s, e in sentence_spans(text, abbreviations)]


# --------------------------------------------------------------------------
# List expansion
# --------------------------------------------------------------------------

# Inline sub-item markers: parenthesized lowercase romans preceded by a space.
_SUB_MARKER = re.compile(r"(?<=\s)\(([ivxlcdm]+)\)")


def expand_list_items(block: Block, doc_id: str = "") -> list[Provision]:
    """One provision per list item, each prefixed with the list header.

    The header keeps its trailing punctuation and is joined to the item with
    a single space. An item that itself enumerates sub-items with "(i)",
    "(ii)", ... is expanded one provision per sub-item, headers composing
    outermost-first.
    """
    if block.kind != LIST:
        raise ValueError(f"expected a list block, got {block.kind!r}")
    provisions: list[Provision] = []
    index = 0
    for item in block.items:
        for text in _expand_item(block.header, item):
            provisions.append(
                Provision(doc_id, block.index, index, text, "list_expanded")
            )
            index += 1
    return provisions


def _expand_item(header: str, item: str) -> list[str]:
    markers = list(_SUB_MARKER.finditer(item))
    if markers and markers[0].group(1) == "i" and len(markers) >= 2:
        inner_header = item[: markers[0].start()].strip()
        starts = [m.start() for m in markers] + [len(item)]
        subs = [item[starts[k] : starts[k + 1]].strip() for k in range(len(markers))]
        return [f"{header} {inner_header} {sub}" for sub in subs]
    return [f"{header} {item}"]


def extract_provisions(
    doc: SourceDocument, abbreviations: Sequence[str] | None = None
) -> list[Provision]:
    """All provisions of a document in block order: split paragraphs, expanded lists."""
    provisions: list[Provision] = []
    for block in doc.blocks:
        if block.kind == PARAGRAPH:
            for i, sent in enumerate(split_text(block.text, abbreviations)):
                provisions.append(Provision(doc.doc_id, block.index, i, sent, "plain"))
        else:
            provisions.extend(expand_list_items(block, doc.doc_id))
    return provisions


# --------------------------------------------------------------------------
# Paragraph chunking
# --------------------------------------------------------------------------


def block_text(block: Block) -> str:
    """The checkable text of a block; list blocks render header + items."""
    if block.kind == PARAGRAPH:
        return block.text
    return " ".join([block.header, *block.items])


def chunk_paragraphs(
    doc: SourceDocument,
    budget: int,
    counter: Callable[[str], int] = estimate_tokens,
    abbreviations: Sequence[str] | None = None,
) -> list[Passage]:
    """Token-bounded passages, one per block where the block fits the budget.

    Oversize blocks are bisected recursively at sentence boundaries until
    every piece fits. Raises `UnchunkableText` if a single sentence alone
    exceeds the budget.
    """
    if budget <= 0:
        raise ValueError("token budget must be positive")
    passages: list[Passage] = []
    seq = 0
    for block in doc.blocks:
        text = block_text(block)
        for chunk in _fit(text, budget, counter, abbreviations):
            passages.append(
                Passage(
                    doc_id=doc.doc_id,
                    sequence=seq,
                    text=chunk,
                    token_estimate=counter(chunk),
                    parent_block=(block.index, block.index),
                )
            )
            seq += 1
    return passages


def _fit(
    text: str,
    budget: int,
    counter: Callable[[str], int],
    abbreviations: Sequence[str] | None,
) -> list[str]:
    if counter(text) <= budget:
        return [text]
    sentences = split_text(text, abbreviations)
    return _fit_sentences(sentences, budget, counter)


def _fit_sentences(
    sentences: list[str], budget: int, counter: Callable[[str], int]
) -> list[str]:
    joined = " ".join(sentences)
    if counter(joined) <= budget:
        return [joined]
    if len(sentences) == 1:
        raise UnchunkableText(
            f"a single sentence of ~{counter(joined)} tokens exceeds the "
            f"budget of {budget}: {joined[:80]!r}"
        )
    mid = (len(sentences) + 1) // 2
    return _fit_sentences(sentences[:mid], budget, counter) + _fit_sentences(
        sentences[mid:], budget, counter
    )


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
    """Parse raw UTF-8 text into a block-structured document.

    `structured` format uses line-oriented markers: ``# `` title, ``¶ ``
    paragraph start, ``* `` list header, ``- `` list item; unmarked non-blank
    lines continue the open paragraph or list item. `plain` format separates
    blocks on blank lines and detects lists from enumeration markers ("(a)",
    "1.") at line starts under a header line.
    """
    if format not in ("plain", "structured"):
        raise ValueError(f"unknown format {format!r}")
    if not raw.strip():
        raise MalformedInput("empty document")
    if format == "structured":
        title, blocks = _parse_structured(raw)
    else:
        title, blocks = _parse_plain(raw)
    if not blocks:
        raise MalformedInput("document contains no blocks")
    return SourceDocument(doc_id=doc_id, title=title, blocks=tuple(blocks))


class _Builder:
    """Accumulates lines into validated blocks."""

    def __init__(self):
        self.blocks: list[Block] = []
        self.kind: str | None = None
        self.parts: list[str] = []
        self.header = ""
        self.items: list[str] = []

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
        self.items.append(text.strip())

    def continuation(self, text: str, lineno: int):
        if self.kind == PARAGRAPH:
            self.parts.append(text.strip())
        elif self.kind == LIST:
            if not self.items:
                raise MalformedInput(
                    f"line {lineno}: expected a list item after the header"
                )
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
                raise MalformedInput(
                    f"unclosed list: header {self.header!r} has no items"
                )
            self.blocks.append(
                Block(LIST, len(self.blocks), header=self.header, items=tuple(self.items))
            )
        self.kind = None
        self.parts, self.header, self.items = [], "", []


def _parse_structured(raw: str) -> tuple[str, list[Block]]:
    title = ""
    builder = _Builder()
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            builder.close()
            continue
        if line.startswith(TITLE_MARK):
            if title or builder.blocks or builder.kind is not None:
                raise MalformedInput(f"line {lineno}: unexpected title marker")
            title = line[len(TITLE_MARK):].strip()
        elif line.startswith(PARAGRAPH_MARK):
            builder.open_paragraph(line[len(PARAGRAPH_MARK):])
        elif line.startswith(HEADER_MARK):
            builder.open_list(line[len(HEADER_MARK):], lineno)
        elif line.startswith(ITEM_MARK):
            builder.add_item(line[len(ITEM_MARK):], lineno)
        else:
            builder.continuation(line, lineno)
    builder.close()
    return title, builder.blocks


def _parse_plain(raw: str) -> tuple[str, list[Block]]:
    blocks: list[Block] = []
    chunk: list[str] = []
    for line in raw.splitlines() + [""]:
        if line.strip():
            chunk.append(line)
            continue
        if chunk:
            _append_plain_chunk(blocks, chunk)
            chunk = []
    return "", blocks


def _append_plain_chunk(blocks: list[Block], lines: list[str]):
    marker_rows = [i for i, line in enumerate(lines) if _ENUM_LINE.match(line)]
    # Lists need a non-empty header, so a chunk opening with a marker stays prose.
    if marker_rows and marker_rows[0] > 0:
        first = marker_rows[0]
        header = " ".join(l.strip() for l in lines[:first])
        items = []
        bounds = marker_rows + [len(lines)]
        for k in range(len(marker_rows)):
            items.append(" ".join(l.strip() for l in lines[bounds[k] : bounds[k + 1]]))
        blocks.append(Block(LIST, len(blocks), header=header, items=tuple(items)))
    else:
        blocks.append(Block(PARAGRAPH, len(blocks), text=" ".join(l.strip() for l in lines)))

"""Regulatory text ingestion and segmentation.

Produces the two units of analysis used downstream:

- sentence-level ``Provision`` records (classification pipeline), with list
  items expanded so each inherits its list header as a prefix;
- token-bounded ``Passage`` records (compliance pipeline), one per block,
  with oversize blocks recursively split at sentence boundaries; a
  ``CheckUnit`` carries one, or one provision, with its block as context,
  and a ``UnitTable`` lists a document's units compactly.

All functions here are pure: identical inputs yield byte-identical outputs,
and nothing is shared between calls.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import count, repeat
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CheckUnit:
    """One unit submitted for compliance checking, with optional context."""

    passage: Passage
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


def extract_provisions(doc: SourceDocument) -> list[Provision]:
    """All provisions of a document in block order: split paragraphs, expanded lists."""
    return list(iter_provisions(doc.blocks, doc.doc_id))


def iter_provisions(blocks: Iterable[Block], doc_id: str) -> Iterator[Provision]:
    """The provisions of each block in turn, each made as it is taken."""
    return (p for block in blocks for p in block_provisions(block, doc_id))


def block_provisions(block: Block, doc_id: str) -> Iterable[Provision]:
    """The provisions of one block: its sentences, or its expanded list items."""
    if block.kind == LIST:
        return expand_list_items(block, doc_id)
    return (  # made as they are taken: a caller that lists them builds the one list
        Provision(doc_id, block.index, i, sent, "plain")
        for i, sent in enumerate(split_text(block.text))
    )


# --------------------------------------------------------------------------
# Paragraph chunking
# --------------------------------------------------------------------------


def block_text(block: Block) -> str:
    """The checkable text of a block; list blocks render header + items."""
    if block.kind == PARAGRAPH:
        return block.text
    return " ".join([block.header, *block.items])


def chunk_paragraphs(doc: SourceDocument, budget: int) -> list[Passage]:
    """Token-bounded passages, one per block where the block fits the budget.

    Oversize blocks are bisected recursively at sentence boundaries until
    every piece fits. Raises `UnchunkableText` if a single sentence alone
    exceeds the budget.
    """
    return [u.passage for u in block_units(doc.blocks, doc.doc_id, PARAGRAPH_LEVEL, budget)]


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


def block_units(
    blocks: Iterable[Block],
    doc_id: str,
    granularity: str,
    budget: int,
    context_on: bool = False,
) -> Iterator[CheckUnit]:
    """Build check units at the requested granularity, each block's as the block is read.

    Paragraph granularity chunks blocks to the token budget: a block that does not fit is
    bisected recursively at sentence boundaries until every piece fits. Sentence
    granularity uses one provision per unit. Context, when enabled, is the
    enclosing block's text and is attached only when it adds anything beyond
    the unit text itself. It is built once per block.
    """
    return _check_units(doc_id, _unit_rows(blocks, doc_id, granularity, budget, context_on))


def _unit_rows(
    blocks: Iterable[Block], doc_id: str, granularity: str, budget: int, context_on: bool
) -> Iterator[tuple[str, int, str, str | None]]:
    """`(text, block index, ref, context)` of each unit of `block_units`, in order. A
    passage's ref is "": `Passage` makes it from the passage's number."""
    if granularity not in (PARAGRAPH_LEVEL, SENTENCE):
        raise ValueError(f"unknown granularity {granularity!r}")
    if budget <= 0:
        raise ValueError("token budget must be positive")
    for block in blocks:
        if granularity == PARAGRAPH_LEVEL:
            text = block_text(block)
            fits = estimate_tokens(text) <= budget
            chunks = [text] if fits else _fit_sentences(split_text(text), budget, block.index)
            rows = [(chunk, "") for chunk in chunks]
        else:
            rows = []
            for prov in block_provisions(block, doc_id):
                tokens = estimate_tokens(prov.text)
                if tokens > budget:
                    raise UnchunkableText(
                        f"provision {prov.unit_ref} (~{tokens} tokens) exceeds the "
                        f"budget of {budget}"
                    )
                rows.append((prov.text, prov.unit_ref))
        context = block_text(block) if context_on else None
        for text, ref in rows:
            yield text, block.index, ref, None if context == text else context


def _check_units(doc_id: str, rows: Iterable[tuple]) -> Iterator[CheckUnit]:
    """A `CheckUnit` for each `(text, block index, ref, context)` row, numbered in order."""
    for seq, (text, block, ref, context) in enumerate(rows):
        passage = Passage(doc_id, seq, text, estimate_tokens(text), (block, block), ref)
        yield CheckUnit(passage, context)


class UnitTable:
    """The units of `block_units(blocks, ...)`, listed compactly as the blocks are read, so
    that every input error is raised here. Each iteration yields them afresh, equal field for
    field, each `CheckUnit` made as it is taken: only what cannot be recomputed is kept."""

    def __init__(
        self,
        blocks: Iterable[Block],
        doc_id: str,
        granularity: str,
        budget: int,
        context_on: bool = False,
    ):
        from array import array  # here: a shared library that only `check` needs

        self.doc_id = doc_id
        self.texts: list[str] = []
        self.blocks = array("q")  # each unit's block index
        self.refs: list[str] = []  # each unit's ref at sentence granularity
        self.contexts: dict[int, str] = {}  # by unit number: the contexts that are not None
        rows = _unit_rows(blocks, doc_id, granularity, budget, context_on)
        for text, block, ref, context in rows:
            if context is not None:
                self.contexts[len(self.texts)] = context
            self.texts.append(text)
            self.blocks.append(block)
            if ref:
                self.refs.append(ref)

    def __iter__(self) -> Iterator[CheckUnit]:
        refs = self.refs or repeat("")
        rows = zip(self.texts, self.blocks, refs, map(self.contexts.get, count()))
        return _check_units(self.doc_id, rows)


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

"""Regulatory text ingestion and segmentation.

Produces the two units of analysis used downstream, each a ``Unit``:

- sentence-level provisions (classification pipeline), with list items
  expanded so each inherits its list header as a prefix;
- token-bounded passages (compliance pipeline), one per block, with
  oversize blocks recursively split at sentence boundaries.

A document's lines are cut into runs, and each run is read as at most one
block (see ``parse_document``), so reading holds one run's lines at a time.
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
from itertools import chain, count, repeat
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
_LEADING_SPACE = re.compile(r"\s*")  # `\s` is what `str.isspace` and `str.strip` take


def first_sentence_end(text: str) -> int:
    """Where the first sentence of `text` ends (see `split_text`), or `len(text)` for blank
    `text`, with no later break found."""
    return next(_spans(text), (0, len(text)))[1]


def _spans(text: str) -> Iterator[tuple[int, int]]:
    """The character spans of the sentences of `split_text(text)`, each found as it is asked
    for, with no slice of `text`. A boundary ends its sentence just past its closers, which
    are not whitespace, and the next sentence starts at the character its lookahead captured."""
    start = _LEADING_SPACE.match(text).end()
    for m in _BOUNDARY.finditer(text):
        nxt = m.group(2)
        if not (nxt.isupper() or nxt.isdigit() or nxt in _OPENERS):
            continue
        if m.group(1) == ".":
            word = end = m.end(1)
            while word > 0 and not text[word - 1].isspace():
                word -= 1
            if text[word:end].lstrip(_OPENERS).lower() in ABBREVIATIONS:
                continue
        yield start, m.end()
        start = m.start(2)
    end = len(text)
    while end > start and text[end - 1].isspace():
        end -= 1
    if end > start:
        yield start, end


def split_text(text: str) -> list[str]:
    """The sentences of `text`, each trimmed of surrounding whitespace.

    A boundary is a run of ``.!?`` (plus closing quotes/brackets) followed by
    whitespace and an uppercase letter, digit, or opening quote/bracket. A
    lone period is not a boundary when the preceding token is a known
    abbreviation ("s. 12 of the Act" stays whole).
    """
    return [text[s:e] for s, e in _spans(text)]


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
        return self._units(self.texts)

    def _units(self, texts: Iterable[str]) -> Iterator[Unit]:
        """The units, with `texts` for their texts in order."""
        doc_id = self.doc_id
        if self.passages:
            for n, (text, block) in enumerate(zip(texts, self.blocks)):
                yield Unit(f"{doc_id}:p{n}", text, block, PASSAGE)
            return
        i, last = 0, None
        for text, block in zip(texts, self.blocks):
            i = i + 1 if block == last else 0
            last = block
            origin = LIST_EXPANDED if block in self.lists else PLAIN
            yield Unit(f"{doc_id}:b{block}:s{i}", text, block, origin)

    def check_units(self, release: bool = False) -> Iterator[CheckUnit]:
        """Each unit with its context, or None. With `release`, the table drops its own
        reference to each unit's text and context as it hands them out, so that each is
        freed once its taker is done with it; the table then has no units left to give."""
        if not release:
            return map(CheckUnit, self, map(self.contexts.get, count()))
        contexts = map(self.contexts.pop, count(), repeat(None))
        return map(CheckUnit, self._units(self._released()), contexts)

    def _released(self) -> Iterator[str]:
        """Each unit's text, in order, each dropped from the table as it is taken."""
        texts = self.texts
        for n, text in enumerate(texts):
            texts[n] = None
            yield text


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
    """Parse raw UTF-8 text into a block-structured document, one run of lines at a time.

    A run is the non-blank lines between blank lines; in `structured` format a
    ``¶ `` or ``* `` line also starts a new run. Each run is read as at most
    one block. `structured` format uses line-oriented markers: ``# `` title,
    ``¶ `` paragraph start, ``* `` list header, ``- `` list item; unmarked
    lines continue the open paragraph or list item. In `plain` format, a run
    is a list when a line after the first opens with an enumeration marker
    ("(a)", "(iv)", "1.") and the first line does not: the lines before that
    marker line are the header, and each marker line starts an item. Any
    other run is a paragraph.
    """
    builder = _Builder(format)
    blocks = tuple(builder.blocks(raw.splitlines()))
    return SourceDocument(doc_id=doc_id, title=builder.title or "", blocks=blocks)


class _Builder:
    """Cuts lines into runs and reads each run with its format's reader: the one parse loop
    of both formats. Only the title and the block count are kept from one run to the next."""

    def __init__(self, format: str):
        if format not in ("plain", "structured"):
            raise ValueError(f"unknown format {format!r}")
        structured = format == "structured"
        self.read = self.structured_run if structured else self.plain_run
        # Besides a blank line, the line starts that end a run: each opens a block. Plain
        # format has none.
        self.cuts = (PARAGRAPH_MARK, HEADER_MARK) if structured else ()
        self.count = 0  # the blocks read so far
        self.title: str | None = None

    def blocks(self, lines: Iterable[str]) -> Iterator[Block]:
        """The blocks of the text whose `splitlines()` are `lines`, each yielded when its run
        ends; `title` is set once its run is read."""
        read, cuts, run = self.read, self.cuts, []
        for lineno, line in enumerate(chain(lines, ("",)), start=1):  # "" ends the last run
            blank = not line.strip()
            if run and (blank or cuts and line.startswith(cuts)):
                block = read(run, lineno - len(run))
                run = []
                if block is not None:
                    self.count += 1
                    yield block
            if not blank:
                run.append(line)
        if not self.count:
            # Without blocks, a title is the only non-blank line a document can have.
            raise MalformedInput(
                "empty document" if self.title is None else "document contains no blocks"
            )

    def plain_run(self, run: list[str], first: int) -> Block:
        """A list when a line after the first opens with an enumeration marker and the first
        line does not; else a paragraph. No plain run is malformed, so `first` is unused."""
        starts = [i for i, line in enumerate(run) if _ENUM_LINE.match(line)]
        parts = [line.strip() for line in run]
        if not starts or starts[0] == 0:
            return Block(PARAGRAPH, self.count, text=" ".join(parts))
        ends = [*starts[1:], len(run)]
        items = tuple(" ".join(parts[a:b]) for a, b in zip(starts, ends))
        return Block(LIST, self.count, header=" ".join(parts[: starts[0]]), items=items)

    def structured_run(self, run: list[str], first: int) -> Block | None:
        """The block that the run's first line opens, if any; `first` is its line number."""
        kind, parts, header, items = None, [], "", []
        for lineno, line in enumerate(run, start=first):
            if line.startswith(TITLE_MARK):
                if self.title or self.count or kind is not None:
                    raise MalformedInput(f"line {lineno}: unexpected title marker")
                self.title = line[len(TITLE_MARK):].strip()
            elif line.startswith(PARAGRAPH_MARK):  # the run's first line
                text = line[len(PARAGRAPH_MARK):].strip()
                kind, parts = PARAGRAPH, [text] if text else []
            elif line.startswith(HEADER_MARK):  # the run's first line
                header = line[len(HEADER_MARK):].strip()
                if not header:
                    raise MalformedInput(f"line {lineno}: empty list header")
                kind = LIST
            elif line.startswith(ITEM_MARK):
                if kind != LIST:
                    raise MalformedInput(f"line {lineno}: list item outside a list")
                item = line[len(ITEM_MARK):].strip()
                if not item:
                    raise MalformedInput(f"line {lineno}: empty list item")
                items.append([item])
            elif kind == PARAGRAPH:
                parts.append(line.strip())
            elif kind == LIST:
                if not items:
                    raise MalformedInput(f"line {lineno}: expected a list item after the header")
                items[-1].append(line.strip())  # each item's lines are joined once, below
            elif lineno == 1 and line.startswith("\ufeff"):  # a BOM is text, so no marker follows it
                raise MalformedInput("line 1: text outside any block: a UTF-8 byte-order mark")
            else:
                raise MalformedInput(f"line {lineno}: text outside any block")
        if kind == PARAGRAPH:
            if not parts:
                raise MalformedInput("empty paragraph block")
            return Block(PARAGRAPH, self.count, text=" ".join(parts))
        if kind == LIST:
            if not items:
                raise MalformedInput(f"unclosed list: header {header!r} has no items")
            return Block(LIST, self.count, header=header, items=tuple(map(" ".join, items)))
        return None  # a title

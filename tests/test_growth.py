"""Growth laws: a layer's CPU time grows at most linearly with its input.

Each timed law times one input at 1x and at 16x and bounds the ratio. A linear
layer reads about 16; the bound of 48 leaves room for timer noise and allocator
effects, while a quadratic layer reads in the hundreds at these sizes. These
tests time code, so they run only when asked for: `pytest -m growth`.

A clock-free law counts the Python lines a layer runs instead (`line_events`), at
1x and at 4x, and bounds the ratio at 5. A count does not spread with the host's
load, so it runs with the other tests; it sees no work done inside C code, such as
the regex engine's, which the timed laws cover.
"""

from __future__ import annotations

import sys
import time

import pytest

from regcheck.classify import _keyword_index, parse_concept_response
from regcheck.compliance import Finding, _json_finding, _rule_id_texts, parse_response
from regcheck.corpus import (
    LIST, PARAGRAPH, Block, UnitTable, _Builder, block_sentences, split_text,
)
from regcheck.llm import Usage
from regcheck.taxonomy import Concept, ConceptModel, RuleSpec, Ruleset

BASE = 2000
FACTOR = 16
MAX_RATIO = 48


def best_time(fn, arg, repeats: int = 5, calls: int = 1) -> float:
    """Least CPU time per call of `fn(arg)`, over `repeats` samples of `calls` calls each."""
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        for _ in range(calls):
            fn(arg)
        best = min(best, (time.process_time() - start) / calls)
    return best


def line_events(fn) -> int:
    """The `sys.settrace` line events of `fn()`: the Python lines it runs, counted."""
    events = 0

    def trace(frame, event, arg):
        nonlocal events
        events += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return events


def wrapped_item(fmt: str, n: int) -> str:
    """One list item followed by `n` continuation lines, in document format `fmt`."""
    head = "* The processor shall:\n- (a) keep records" if fmt == "structured" else (
        "The processor shall:\n(a) keep records"
    )
    return head + "\nof each processing activity" * n + "\n"


@pytest.mark.growth
@pytest.mark.parametrize("fmt", ["structured", "plain"])
def test_reader_is_linear_in_a_wrapped_list_item(fmt):
    def parse(raw: str) -> tuple[Block, ...]:
        return tuple(_Builder(fmt).blocks(raw.splitlines()))

    small, large = wrapped_item(fmt, BASE), wrapped_item(fmt, BASE * FACTOR)
    (block,) = parse(large)
    assert len(block.items) == 1
    ratio = best_time(parse, large) / best_time(parse, small)
    assert ratio <= MAX_RATIO, f"{FACTOR}x input took {ratio:.0f}x the time"


# Each shape with its 1x size. A terminator run that no whitespace follows is
# the shape that a boundary pattern without its lookbehind retries from each
# of the run's positions: quadratic, with a ratio in the hundreds here.
SPLIT_SHAPES = {
    "sentences": (lambda n: "The operator shall keep records. " * n, 1000),
    "art-5": (lambda n: "Art. 5 " * n, 1000),
    "e-g": (lambda n: "e.g. " * n, 1000),
    "dots": (lambda n: "a" + "." * n + "x", 500),
}
# A 1x call can take well under a millisecond, so a 1x sample makes this many
# calls and a 16x sample one.
CALLS = FACTOR


@pytest.mark.growth
@pytest.mark.parametrize("shape", list(SPLIT_SHAPES))
def test_split_text_is_linear(shape):
    make, n = SPLIT_SHAPES[shape]
    small, large = make(n), make(n * FACTOR)
    ratio = best_time(split_text, large) / best_time(split_text, small, calls=CALLS)
    assert ratio <= MAX_RATIO, f"{FACTOR}x input took {ratio:.0f}x the time"


# Each shape of a finding with its 1x size: a long rationale and raw response, or many
# rule ids (numbered past the sentinel R99). Its ids are rendered once per distinct set
# (`_rule_id_texts`), so each timed call clears that memo and renders them again.
TEXT = 'Der „Auftragsverarbeiter“ "prüft" jede Weisung.\n'
FINDING_SHAPES = {
    "long-text": (
        lambda n: Finding(
            "dpa:p1", frozenset({"R1", "R5"}), TEXT * n, "R1, R5. " + TEXT * n, Usage("m", n, n)
        ),
        250,
    ),
    "many-rule-ids": (
        lambda n: Finding(
            "dpa:p1", frozenset(f"R{i}" for i in range(100, n + 100)), "Covered.", "R100. Covered."
        ),
        1000,
    ),
}


def render_finding(f: Finding) -> str:
    _rule_id_texts.cache_clear()
    return _json_finding(f, first=False)


@pytest.mark.growth
@pytest.mark.parametrize("shape", list(FINDING_SHAPES))
def test_json_finding_is_linear(shape):
    make, n = FINDING_SHAPES[shape]
    small, large = make(n), make(n * FACTOR)
    ratio = best_time(render_finding, large) / best_time(render_finding, small, calls=CALLS)
    assert ratio <= MAX_RATIO, f"{FACTOR}x input took {ratio:.0f}x the time"


# Each response parser, giving the ids it finds, with the ids it knows; and each shape of
# a model answer with its 1x size: the ids repeated before the first sentence end and
# again after it, or the ids and a long rationale. A parser that looked for the sentence
# end once per id it found would be quadratic in the first shape.
RULES = Ruleset(tuple(RuleSpec(f"R{i}", f"rule {i}") for i in range(1, 9)), "rules")
CONCEPT_IDS = ["Traceability", "Labelling", "Inspection"]
CONCEPTS = ConceptModel(tuple(Concept(c, c) for c in CONCEPT_IDS))
PARSERS = {
    "parse_response": (lambda raw: parse_response(raw, RULES)[0], ["R1", "R5", "R8"]),
    "parse_concept_response": (lambda raw: parse_concept_response(raw, CONCEPTS), CONCEPT_IDS),
}
ANSWER_SHAPES = {
    "many-ids": (lambda ids, n: f"{', '.join(ids * n)}. Later {' '.join(ids * n)} apply.", 20),
    "long-rationale": (lambda ids, n: f"{', '.join(ids)}. " + TEXT * n, 250),
}


@pytest.mark.growth
@pytest.mark.parametrize("shape", list(ANSWER_SHAPES))
@pytest.mark.parametrize("parser", list(PARSERS))
def test_response_parser_is_linear(parser, shape):
    parse, ids = PARSERS[parser]
    make, n = ANSWER_SHAPES[shape]
    small, large = make(ids, n), make(ids, n * FACTOR)
    assert parse(large) == parse(small) == frozenset(ids)  # the same ids, only a longer answer
    ratio = best_time(parse, large) / best_time(parse, small, calls=CALLS)
    assert ratio <= MAX_RATIO, f"{FACTOR}x input took {ratio:.0f}x the time"


# Each shape of a document's blocks with its 1x size: one block of many sentences, a list
# or a paragraph, that no budget fits whole, or many one-sentence blocks. Context is on, so
# a layer that built a list's text once per unit would be quadratic in a long list; the
# list's 1x size keeps that mutant's 16x run short.
SENTENCE_TEXT = "The operator shall keep record {} of each lot."
UNIT_SHAPES = {
    "long-list": (
        lambda n: [
            Block(LIST, 0, header="The operator shall:", items=tuple(
                SENTENCE_TEXT.format(i) for i in range(n)
            ))
        ],
        500,
    ),
    "long-paragraph": (
        lambda n: [Block(PARAGRAPH, 0, text=" ".join(map(SENTENCE_TEXT.format, range(n))))],
        2000,
    ),
    "short-blocks": (
        lambda n: [Block(PARAGRAPH, i, text=SENTENCE_TEXT.format(i)) for i in range(n)], 2000
    ),
}


def table_units(blocks: list[Block], granularity: str) -> int:
    """The units of a table of `blocks`, built and then taken with their context."""
    return sum(1 for _ in UnitTable(blocks, "d", granularity, 40, context_on=True).check_units())


@pytest.mark.growth
@pytest.mark.parametrize("shape", list(UNIT_SHAPES))
@pytest.mark.parametrize("granularity", ["paragraph", "sentence"])
def test_unit_table_is_linear(granularity, shape):
    def units(blocks: list[Block]) -> int:
        return table_units(blocks, granularity)

    make, n = UNIT_SHAPES[shape]
    small, large = make(n), make(n * FACTOR)
    assert units(large) >= n * FACTOR // 4  # long blocks are split into many units
    ratio = best_time(units, large) / best_time(units, small, calls=CALLS)
    assert ratio <= MAX_RATIO, f"{FACTOR}x input took {ratio:.0f}x the time"


# The clock-free law's input factor and its bound on the ratio of line events.
LINE_FACTOR = 4
MAX_LINE_RATIO = 5


@pytest.mark.parametrize("shape", list(UNIT_SHAPES))
@pytest.mark.parametrize("granularity", ["paragraph", "sentence"])
def test_unit_table_runs_python_lines_linear_in_its_input(granularity, shape):
    def lines(blocks: list[Block]) -> int:
        return line_events(lambda: table_units(blocks, granularity))

    make, n = UNIT_SHAPES[shape]
    ratio = lines(make(n)) / lines(make(n // LINE_FACTOR))
    assert ratio <= MAX_LINE_RATIO, f"{LINE_FACTOR}x input ran {ratio:.1f}x the lines"


# Each shape of a document, in each format, as the lines of `n` units: one paragraph of `n`
# lines, one list of `n` items of two lines each, or `n` one-line paragraphs between blank
# lines. A reader that rejoined a block's text once per line, or rescanned a list's lines
# once per item, would be quadratic in the first two.
READER_SHAPES = {
    "long-paragraph": lambda para, header, item, n: [
        f"{para}The operator shall keep records", *["of each lot"] * n
    ],
    "wrapped-list": lambda para, header, item, n: [
        f"{header}The operator shall:",
        *[line for i in range(n) for line in (f"{item}keep record {i}", "of each lot;")],
    ],
    "many-blocks": lambda para, header, item, n: [
        line for i in range(n) for line in (f"{para}Keep record {i}.", "")
    ],
}
# Each format's paragraph, list header and list item markers.
READER_MARKS = {"structured": ("¶ ", "* ", "- "), "plain": ("", "", "(a) ")}


@pytest.mark.parametrize("shape", list(READER_SHAPES))
@pytest.mark.parametrize("fmt", list(READER_MARKS))
def test_reader_runs_python_lines_linear_in_its_input(fmt, shape):
    def lines(n: int) -> int:
        document = READER_SHAPES[shape](*READER_MARKS[fmt], n)
        return line_events(lambda: sum(1 for _ in _Builder(fmt).blocks(document)))

    n = 2000
    ratio = lines(n) / lines(n // LINE_FACTOR)
    assert ratio <= MAX_LINE_RATIO, f"{LINE_FACTOR}x input ran {ratio:.1f}x the lines"


# Each shape of a block with its 1x size: a list of many items, one item of many "(i)" sub-items,
# or a paragraph of many sentences. A layer that copied the provisions made so far once per
# item, or the rest of an item once per sub-item, would be quadratic in the first two.
PROVISION_SHAPES = {
    "long-list": (
        lambda n: Block(LIST, 0, header="The operator shall:", items=tuple(
            SENTENCE_TEXT.format(i) for i in range(n)
        )),
        1000,
    ),
    "many-sub-items": (
        lambda n: Block(LIST, 0, header="The operator shall:", items=(
            "keep records of" + "".join(f" (i) lot {i};" for i in range(n)),
        )),
        1000,
    ),
    "long-paragraph": (
        lambda n: Block(PARAGRAPH, 0, text=" ".join(map(SENTENCE_TEXT.format, range(n)))), 1000
    ),
}


@pytest.mark.growth
@pytest.mark.parametrize("shape", list(PROVISION_SHAPES))
def test_block_sentences_is_linear(shape):
    def provisions(block: Block) -> int:
        return len(block_sentences(block))

    make, n = PROVISION_SHAPES[shape]
    small, large = make(n), make(n * FACTOR)
    assert provisions(large) == n * FACTOR
    ratio = best_time(provisions, large) / best_time(provisions, small, calls=CALLS)
    assert ratio <= MAX_RATIO, f"{FACTOR}x input took {ratio:.0f}x the time"


# Each shape of a provision's text with its 1x size in words, and whether `--stem` matches it.
# Stemmed, the text repeats the first word of the keywords "water content" and "water
# activity" and never completes either, so every word starts a candidate n-gram. Unstemmed,
# it holds only near misses, which the gate rejects, or one keyword at its end, which every
# concept's pattern then scans for.
KEYWORD_MODEL = ConceptModel((
    Concept("Traceability", "Traceability"),
    Concept("Pathogen", "Pathogen", True, ("pathogen", "listeria", "salmonella")),
    Concept("WaterContent", "Water Content", True, ("water content", "water activity")),
))
KEYWORD_SHAPES = {
    "first-words": (lambda n: "water " * n, True, 200),
    "near-misses": (lambda n: "salmonellas waterx " * (n // 2), False, 200),
    "keyword-at-end": (lambda n: "salmonellas waterx " * (n // 2) + "listeria", False, 200),
}


@pytest.mark.growth
@pytest.mark.parametrize("shape", list(KEYWORD_SHAPES))
def test_keyword_match_is_linear(shape):
    make, stem, n = KEYWORD_SHAPES[shape]
    labels = _keyword_index(KEYWORD_MODEL, stem).match

    small, large = make(n), make(n * FACTOR)
    assert labels(large) == labels(small) == ({"Pathogen"} if "listeria" in small else set())
    ratio = best_time(labels, large) / best_time(labels, small, calls=CALLS)
    assert ratio <= MAX_RATIO, f"{FACTOR}x input took {ratio:.0f}x the time"

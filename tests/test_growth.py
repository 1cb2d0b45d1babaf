"""Growth laws: a layer's CPU time grows at most linearly with its input.

Each law times one input at 1x and at 16x and bounds the ratio. A linear layer
reads about 16; the bound of 48 leaves room for timer noise and allocator
effects, while a quadratic layer reads in the hundreds at these sizes. These
tests time code, so they run only when asked for: `pytest -m growth`.
"""

from __future__ import annotations

import time

import pytest

from regcheck.corpus import parse_document, split_text

pytestmark = pytest.mark.growth

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


def wrapped_item(fmt: str, n: int) -> str:
    """One list item followed by `n` continuation lines, in document format `fmt`."""
    head = "* The processor shall:\n- (a) keep records" if fmt == "structured" else (
        "The processor shall:\n(a) keep records"
    )
    return head + "\nof each processing activity" * n + "\n"


@pytest.mark.parametrize("fmt", ["structured", "plain"])
def test_parse_document_is_linear_in_a_wrapped_list_item(fmt):
    def parse(raw: str):
        return parse_document(raw, fmt, doc_id="d")

    small, large = wrapped_item(fmt, BASE), wrapped_item(fmt, BASE * FACTOR)
    (block,) = parse(large).blocks
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


@pytest.mark.parametrize("shape", list(SPLIT_SHAPES))
def test_split_text_is_linear(shape):
    make, n = SPLIT_SHAPES[shape]
    small, large = make(n), make(n * FACTOR)
    ratio = best_time(split_text, large) / best_time(split_text, small, calls=CALLS)
    assert ratio <= MAX_RATIO, f"{FACTOR}x input took {ratio:.0f}x the time"

"""Growth laws: a layer's CPU time grows at most linearly with its input.

Each law times one input at 1x and at 16x and bounds the ratio. A linear layer
reads about 16; the bound of 48 leaves room for timer noise and allocator
effects, while a quadratic layer reads in the hundreds at these sizes. These
tests time code, so they run only when asked for: `pytest -m growth`.
"""

from __future__ import annotations

import time

import pytest

from regcheck.corpus import parse_document

pytestmark = pytest.mark.growth

BASE = 2000
FACTOR = 16
MAX_RATIO = 48


def best_time(fn, arg, repeats: int = 5) -> float:
    """Least CPU time of `repeats` calls of `fn(arg)`."""
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        fn(arg)
        best = min(best, time.process_time() - start)
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

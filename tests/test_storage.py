"""Streamed atomic writes: the one-shot encoders' bytes, nothing partial on failure, bounded
memory; the lazy JSONL reader; and the codec laws: a JSONL line is `json.dumps(record,
ensure_ascii=False)`, and the reader accepts and rejects what `json.loads` does."""

from __future__ import annotations

import json
import math
import random
import tracemalloc

import pytest

import regcheck.storage as storage
from regcheck.storage import (
    atomic_write_chunks,
    json_chunks,
    jsonl_line,
    numbered_jsonl,
)

VALUES = [
    {},
    [],
    "",
    0,
    None,
    {"empty": {}, "none": [], "nested": [{}, [[]], {"a": []}]},
    {"text": "Données à caractère personnel — §28 „Auftrag“ 个人数据  ", "n": [1, 2.5, True, None]},
    ["ünïcödé", {"clé": "valeur"}],
]

# A count of chunks or records far past what one write of the file object's buffer holds.
MANY = 1024


def _report(findings: int) -> dict:
    """A report-shaped object: many small findings with non-ASCII rationales."""
    return {
        "doc_id": "dpa",
        "findings": [
            {
                "passage_ref": f"dpa:p{i}",
                "rule_ids": ["R1", "R5"] if i % 3 else [],
                "rationale": f"Verarbeitung nach Weisung, Absatz {i} — geprüft.",
                "parse_error": None,
            }
            for i in range(findings)
        ],
        "totals": {"passages": findings, "parse_failures": 0},
    }


def _one_shot(obj) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def _lines(records) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


@pytest.mark.parametrize("obj", VALUES, ids=repr)
def test_write_json_gives_the_one_shot_bytes(tmp_path, obj):
    atomic_write_chunks(tmp_path / "o.json", json_chunks(obj))
    assert (tmp_path / "o.json").read_bytes() == _one_shot(obj)


def test_write_json_across_many_batches(tmp_path):
    obj = _report(2000)
    assert sum(1 for _ in json_chunks(obj)) > 3 * MANY
    atomic_write_chunks(tmp_path / "report.json", json_chunks(obj))
    assert (tmp_path / "report.json").read_bytes() == _one_shot(obj)


@pytest.mark.parametrize("count", [0, 1, MANY, 3 * MANY + 1])
def test_write_jsonl_gives_the_per_line_bytes(tmp_path, count):
    records = [VALUES[6], {}, {"unit_ref": "ü", "labels": []}] * count
    # A generator: the writer must not need a list.
    atomic_write_chunks(tmp_path / "r.jsonl", map(jsonl_line, (r for r in records)))
    assert (tmp_path / "r.jsonl").read_bytes() == _lines(records)


def _failing_records():
    for i in range(3 * MANY):
        yield {"unit_ref": f"u{i}", "labels": []}
    raise RuntimeError("stream broke")


def _unserializable_report():
    """`iterencode` raises on the last finding, after thousands of chunks were written."""
    report = _report(1000)
    report["findings"][-1]["rationale"] = {"deep": [object()]}
    return report


@pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["absent", "present"])
@pytest.mark.parametrize(
    "write,error",
    [
        (lambda path: atomic_write_chunks(path, map(jsonl_line, _failing_records())), RuntimeError),
        (lambda path: atomic_write_chunks(path, json_chunks(_unserializable_report())), TypeError),
    ],
    ids=["raising-generator", "unserializable-value"],
)
def test_failed_stream_leaves_target_and_no_temp_file(tmp_path, old, write, error):
    target = tmp_path / "out.json"
    if old is not None:
        target.write_bytes(old)
    with pytest.raises(error):
        write(target)
    if old is None:
        assert not target.exists()
    else:
        assert target.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["out.json"])


def _traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_json_memory_is_a_fraction_of_the_file(tmp_path):
    report = _report(22_000)
    target = tmp_path / "report.json"
    peak = _traced_peak(lambda: atomic_write_chunks(target, json_chunks(report)))
    size = target.stat().st_size
    assert size >= 4_000_000
    assert peak < size / 8, (peak, size)


def test_write_jsonl_memory_does_not_grow_with_the_record_count(tmp_path):
    small, large = (_report(n)["findings"] for n in (8_000, 32_000))
    assert len(small) > 4 * MANY
    write = lambda name, records: atomic_write_chunks(tmp_path / name, map(jsonl_line, records))
    small_peak = _traced_peak(lambda: write("small.jsonl", small))
    large_peak = _traced_peak(lambda: write("large.jsonl", large))
    assert (tmp_path / "large.jsonl").stat().st_size >= 4_000_000
    assert large_peak < 1.5 * small_peak, (small_peak, large_peak)


def test_atomic_write_chunks_memory_is_one_chunk_not_a_batch(tmp_path):
    # 2,000 chunks of 4,000 characters outside Latin-1: 8 MB as text, 24 MB as UTF-8. Each
    # chunk goes to the file object as it comes, so the peak is about one encoded chunk
    # (12 kB); joining chunks into batches of up to 256k characters peaked at 1.3 MB.
    chunks = ["€" * 4_000] * 2_000
    target = tmp_path / "big.txt"
    peak = _traced_peak(lambda: atomic_write_chunks(target, chunks))
    assert target.stat().st_size == 3 * 4_000 * 2_000
    assert peak < 100_000, peak


def test_numbered_jsonl_yields_each_record_before_reading_on(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"a": 1}\n{"b": "ü"}\nnot json\n\n{"c": 3}\n', encoding="utf-8")
    records = numbered_jsonl(path)
    assert next(records) == (1, {"a": 1})
    assert next(records) == (2, {"b": "ü"})
    with pytest.raises(ValueError, match=r"r\.jsonl:3: invalid JSON record"):
        next(records)


# --------------------------------------------------------------------------
# Codec laws
# --------------------------------------------------------------------------

# Text that each escape rule of the encoder meets: non-ASCII, astral and lone-surrogate
# code points, quotes, backslashes and control characters.
CHARS = (
    "a", "Z", " ", "é", "€", "个", "😀", "\ud800", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f"
)
NUMBERS = (
    0, -1, 7, 2**63, -(2**63) - 1, 10**30, 0.0, -0.0, 1e-7, 2.5, 1e300, -1e-300,
    math.nan, math.inf, -math.inf,
)


def _text(rng: random.Random) -> str:
    return "".join(rng.choices(CHARS, k=rng.randint(0, 12)))


def _value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7 if depth < 3 else 4)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice(NUMBERS)
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.getrandbits(rng.choice((8, 64, 100))) - (1 << 7)
    if kind == 4:
        return [_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return _record(rng, depth + 1)


def _record(rng: random.Random, depth: int = 0) -> dict:
    return {_text(rng): _value(rng, depth) for _ in range(rng.randint(0, 5))}


@pytest.mark.parametrize("encoder", ["c", "pure-python"])
def test_codec_law_a_jsonl_line_is_json_dumps(monkeypatch, encoder):
    if encoder == "pure-python":  # the path taken where Python has no `_json`
        monkeypatch.setattr(storage, "_ENCODE", None)
    rng = random.Random(20261020)
    for _ in range(3000):
        record = _record(rng)
        assert jsonl_line(record) == json.dumps(record, ensure_ascii=False) + "\n", repr(record)


def _reference_numbered_jsonl(path):
    """The reader as it was before its one-call fast path: `json.loads` of each line."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON record: {exc}") from exc
                if not isinstance(record, dict):
                    raise ValueError(f"{path}:{lineno}: expected a JSON object")
                yield lineno, record
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


# Lines the reader must reject as `json.loads` does: two values, trailing garbage, a
# byte-order mark, a bad escape, a raw control character, a truncated record, values
# that are not objects; and lines that are blank, or JSON whitespace around a record.
MALFORMED = (
    '{"a": 1} {"b": 2}', '{"a": 1}{}', '{"a": 1}x', '{"a": 1},', "\ufeff{}", '{"a": "\\q"}',
    '{"a": "\t"}', '{"a": ', "{", "}", "[1, 2]", '"x"', "7", "null", "NaN", "tru",
)
SPACING = ("", " ", "\t", "\r", "\x0c", "\u00a0", "\u2003", "  \t ")


def _line(rng: random.Random) -> str:
    if rng.random() < 0.08:
        return rng.choice(MALFORMED)
    if rng.random() < 0.05:
        return rng.choice(SPACING)  # a blank line: skipped, but counted
    record = _record(rng)
    text = json.dumps(record, ensure_ascii=False)
    if rng.random() < 0.5 or "\ud800" in text:  # a lone surrogate has no UTF-8: escape it
        text = json.dumps(record)
    if rng.random() < 0.2:  # other JSON whitespace between members
        text = text.replace(", ", rng.choice((",", " ,\t", ",  ")))
    return rng.choice(SPACING) + text + rng.choice(SPACING)


def _read(reader, path):
    """The `(line, record)` pairs `reader` yields, and the error that ends them, if any; as
    reprs, so that NaN equals NaN and -0.0 differs from 0.0."""
    pairs = []
    try:
        for pair in reader(path):
            pairs.append(repr(pair))
    except ValueError as exc:
        return pairs, str(exc)
    return pairs, None


def test_codec_law_the_reader_reads_as_json_loads(tmp_path):
    rng = random.Random(20261021)
    path, rejected = tmp_path / "records.jsonl", set()
    for _ in range(600):
        lines = [_line(rng) for _ in range(rng.randint(1, 12))]
        path.write_text("\n".join(lines) + rng.choice(("", "\n")), encoding="utf-8")
        got, want = _read(numbered_jsonl, path), _read(_reference_numbered_jsonl, path)
        assert got == want, lines
        if want[1] is not None:  # the kind of error: its message without place or position
            rejected.add(want[1].split(": ", 1)[1].split(": line ")[0])
    assert len(rejected) >= 7, rejected  # the files reach many kinds of error


@pytest.mark.parametrize("line", MALFORMED)
def test_codec_law_each_malformed_line_gives_the_json_loads_error(tmp_path, line):
    path = tmp_path / "r.jsonl"
    path.write_text('{"ok": 1}\n\n' + line + "\n", encoding="utf-8")
    got, want = _read(numbered_jsonl, path), _read(_reference_numbered_jsonl, path)
    assert got == want
    assert got[1] is not None and got[1].startswith(f"{path}:3: ")

"""Streamed atomic writes: the one-shot encoders' bytes, nothing partial on failure, bounded
memory; and the lazy JSONL reader."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from regcheck.storage import (
    atomic_write_chunks,
    json_chunks,
    numbered_jsonl,
    write_json,
    write_jsonl,
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
    write_json(tmp_path / "o.json", obj)
    assert (tmp_path / "o.json").read_bytes() == _one_shot(obj)


def test_write_json_across_many_batches(tmp_path):
    obj = _report(2000)
    assert sum(1 for _ in json_chunks(obj)) > 3 * MANY
    write_json(tmp_path / "report.json", obj)
    assert (tmp_path / "report.json").read_bytes() == _one_shot(obj)


@pytest.mark.parametrize("count", [0, 1, MANY, 3 * MANY + 1])
def test_write_jsonl_gives_the_per_line_bytes(tmp_path, count):
    records = [VALUES[6], {}, {"unit_ref": "ü", "labels": []}] * count
    # A generator: the writer must not need a list.
    write_jsonl(tmp_path / "r.jsonl", (r for r in records))
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
        (lambda path: write_jsonl(path, _failing_records()), RuntimeError),
        (lambda path: write_json(path, _unserializable_report()), TypeError),
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
    peak = _traced_peak(lambda: write_json(target, report))
    size = target.stat().st_size
    assert size >= 4_000_000
    assert peak < size / 8, (peak, size)


def test_write_jsonl_memory_does_not_grow_with_the_record_count(tmp_path):
    small, large = (_report(n)["findings"] for n in (8_000, 32_000))
    assert len(small) > 4 * MANY
    small_peak = _traced_peak(lambda: write_jsonl(tmp_path / "small.jsonl", small))
    large_peak = _traced_peak(lambda: write_jsonl(tmp_path / "large.jsonl", large))
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

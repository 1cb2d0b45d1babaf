"""Small file helpers: bundled data, line-delimited JSON records and atomic streamed file writes."""

from __future__ import annotations

import json
import os
import tempfile
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO


def read_text_or_bundled(path: str | Path | None, bundled: str) -> str:
    """Text of `path`, or of the named file bundled in regcheck/data when no path is given."""
    source = Path(path) if path else resources.files("regcheck.data").joinpath(bundled)
    return source.read_text(encoding="utf-8")


def numbered_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """`(line number, record)` for each non-blank line of `path`, which must hold one
    JSON object; the loaders name a record they reject by `path` and that line."""
    records = []
    with open(path, encoding="utf-8") as fh:
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
            records.append((lineno, record))
    return records


# One encoder of each kind: json.dumps with a non-default option builds a new one per call.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)
_INDENT_ENCODER = json.JSONEncoder(ensure_ascii=False, indent=2)
# A write joins at most `_BATCH` chunks and about `_BATCH_CHARS` characters. An indented-JSON
# chunk is a few characters, so the count keeps its batch's string objects few; a report
# finding or a model response can be kilobytes, so the characters bound a batch of those.
_BATCH = 1024
_BATCH_CHARS = 1 << 18


def jsonl_line(record: dict) -> str:
    return _LINE_ENCODER.encode(record) + "\n"


def json_chunks(obj: Any) -> Iterator[str]:
    """The text of `json.dumps(obj, ensure_ascii=False, indent=2)` and a newline, in pieces."""
    return chain(_INDENT_ENCODER.iterencode(obj), ("\n",))


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    atomic_write_chunks(path, map(jsonl_line, records))


def write_json(path: str | Path, obj: Any) -> None:
    atomic_write_chunks(path, json_chunks(obj))


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_chunks(path, (text,))


def write_chunks(fh: TextIO, chunks: Iterable[str]) -> None:
    """Write `chunks` to `fh`, joined into batches (see `_BATCH` and `_BATCH_CHARS`)."""
    batch: list[str] = []
    size = 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= _BATCH_CHARS or len(batch) == _BATCH:
            fh.write("".join(batch))
            batch, size = [], 0
    fh.write("".join(batch))


def atomic_write_chunks(path: str | Path, chunks: Iterable[str]) -> None:
    """Stream `chunks` into a temp file and rename it over `path`, so readers never
    see a partial file; if `chunks` raises, `path` is left as it was."""
    path = Path(path)
    if path.is_dir():  # before the temp file, so the error names `path`, not the temp file
        raise IsADirectoryError(f"{path} is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write_chunks(fh, chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

"""Small file helpers: bundled data, line-delimited JSON records and atomic whole-file writes."""

from __future__ import annotations

import json
import os
import tempfile
from importlib import resources
from pathlib import Path
from typing import Any, Iterable


def read_text_or_bundled(path: str | Path | None, bundled: str) -> str:
    """Text of `path`, or of the named file bundled in regcheck/data when no path is given."""
    source = Path(path) if path else resources.files("regcheck.data").joinpath(bundled)
    return source.read_text(encoding="utf-8")


def read_jsonl(path: str | Path) -> list[dict]:
    """Read one JSON object per non-blank line."""
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
            records.append(record)
    return records


# One encoder for every line: json.dumps with a non-default option builds a new one per call.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)


def dump_jsonl(records: Iterable[dict]) -> str:
    return "".join(_LINE_ENCODER.encode(r) + "\n" for r in records)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    atomic_write_text(path, dump_jsonl(records))


def dump_json(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


def write_json(path: str | Path, obj: Any) -> None:
    atomic_write_text(path, dump_json(obj))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write the whole file via a temp file and rename, so readers never see a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

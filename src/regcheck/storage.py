"""Small file helpers: bundled data, line-delimited JSON records and atomic streamed file writes."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from functools import partial
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TextIO


def read_text_or_bundled(path: str | Path | None, bundled: str) -> str:
    """Text of `path`, or of the named file bundled in regcheck/data when no path is given."""
    source = Path(path) if path else resources.files("regcheck.data").joinpath(bundled)
    return source.read_text(encoding="utf-8")


def numbered_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """`(line number, record)` for each non-blank line of `path`, which must hold one
    JSON object; the loaders name a record they reject by `path` and that line. Lazy: a
    line is read when its record is asked for, so the first problem in file order is raised."""
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
        except UnicodeDecodeError as exc:  # decoded a buffer ahead of the lines: no line to name
            raise ValueError(f"{path}: {exc}") from exc


# One encoder of each kind: json.dumps with a non-default option builds a new one per call.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)
_INDENT_ENCODER = json.JSONEncoder(ensure_ascii=False, indent=2)


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


def atomic_write_chunks(path: str | Path, chunks: Iterable[str]) -> None:
    """Stream `chunks` into a temp file and rename it over `path`, so readers never
    see a partial file; if `chunks` raises, `path` is left as it was. The file object's
    own buffer is the only batching, so memory does not grow with the chunk count."""
    with atomic_files([Path(path)]) as (fh,):
        fh.writelines(chunks)


@contextmanager
def atomic_files(paths: Sequence[Path]) -> Iterator[list[TextIO]]:
    """A text file open for writing per path, each a temp file beside it. On a clean exit
    they are renamed over their paths, in order; if the block raises, they are all deleted
    and no path is touched."""
    for path in paths:  # before any temp file, so the error names `path`, not a temp file
        if path.is_dir():
            raise IsADirectoryError(f"{path} is a directory")
    temps, files = [], []
    try:
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
            temps.append(tmp)
            files.append(os.fdopen(fd, "w", encoding="utf-8"))
        yield files
        for fh in files:
            fh.close()
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for fh in files:
            fh.close()
        for tmp in temps:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def spool(directory: Path) -> TextIO:
    """An unnamed temp file in `directory`, for text to be copied on (`spooled`): it has no
    name to leave behind, whatever way the process ends."""
    return tempfile.TemporaryFile("w+", encoding="utf-8", newline="", dir=directory)


def spooled(fh: TextIO) -> Iterator[str]:
    """The text written to the spool `fh`, in pieces of at most 8K characters, so that
    copying it on adds little to a run's peak memory."""
    fh.seek(0)
    return iter(partial(fh.read, 1 << 13), "")

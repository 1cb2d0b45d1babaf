"""File helpers: each input reader (bundled data, JSON, document lines, JSONL) and atomic writes."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from functools import partial
from importlib import resources
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TextIO


def read_text_or_bundled(path: str | Path | None, bundled: str) -> str:
    """Text of `path`, or of the named file bundled in regcheck/data when no path is given.
    Bytes that are not UTF-8 raise `ValueError` naming the file."""
    source = Path(path) if path else resources.files("regcheck.data").joinpath(bundled)
    try:
        return source.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path or bundled}: {exc}") from exc


def read_json(path: str | Path | None, bundled: str = "") -> Any:
    """The JSON value at `path`, or in bundled data file `bundled` if no path is given. Bytes
    that are not UTF-8, or text that is not JSON, raise `ValueError` naming the file."""
    try:
        return json.loads(read_text_or_bundled(path, bundled))
    except json.JSONDecodeError as exc:  # `read_text_or_bundled` names the file itself
        raise ValueError(f"{path or bundled}: {exc}") from exc


def text_lines(path: str) -> Iterator[str]:
    """`Path(path).read_text(encoding="utf-8").splitlines()`, a batch of lines at a time. A
    byte that is not UTF-8 raises `ValueError` naming `path` and its line."""
    # A binary line ends at "\n", so no separator of `str.splitlines` ("\r\n" included)
    # spans two of them, and no multi-byte UTF-8 sequence holds a "\n" byte: a batch of
    # lines decodes as a whole iff each of its lines does.
    with open(path, "rb") as fh:
        read = 0  # lines before the batch
        while batch := fh.readlines(1 << 14):
            try:
                text = b"".join(batch).decode("utf-8")
            except UnicodeDecodeError:
                for lineno, line in enumerate(batch, start=read + 1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from exc
                raise
            read += len(batch)
            yield from text.splitlines()


# One codec of each kind, built once: `json.dumps` with a non-default option builds a new
# encoder per call, and `json.loads` sets its decoder up per call.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)
_INDENT_ENCODER = json.JSONEncoder(ensure_ascii=False, indent=2)
# The C encoder that `_LINE_ENCODER.encode` builds on each call, with its arguments (markers,
# default, string encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan)
# but no `markers` dict: built once. None where Python has no `_json`.
_ENCODE = c_make_encoder and c_make_encoder(
    None, _LINE_ENCODER.default, encode_basestring, None, ": ", ", ", False, False, True
)
# `json.loads`'s scanner, which parses one value from an index: in C where `_json` is.
_scan_once = json.JSONDecoder().scan_once


def numbered_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """`(line number, record)` for each non-blank line of `path`, which must hold one
    JSON object; the loaders name a record they reject by `path` and that line. A line is
    accepted, and rejected with the same message, as `json.loads` would. Lazy: a line is read
    when its record is asked for, so the first problem in file order is raised."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    try:  # one C call: `json.loads` without its per-call set-up
                        record, end = _scan_once(line, 0)
                    except StopIteration:
                        end = -1
                    if end != len(line):  # not one whole value: `json.loads` raises its error
                        record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON record: {exc}") from exc
                if not isinstance(record, dict):
                    raise ValueError(f"{path}:{lineno}: expected a JSON object")
                yield lineno, record
        except UnicodeDecodeError as exc:  # decoded a buffer ahead of the lines: no line to name
            raise ValueError(f"{path}: {exc}") from exc


def jsonl_line(record: dict) -> str:
    """`json.dumps(record, ensure_ascii=False)` and a newline, in one C call. With no
    `markers`, a record that holds itself raises `RecursionError`, not `ValueError`."""
    if _ENCODE is None:
        return _LINE_ENCODER.encode(record) + "\n"
    return "".join(_ENCODE(record, 0)) + "\n"  # its chunks' container depends on the version


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

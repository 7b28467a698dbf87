"""The three exceptions of the exit-code contract, and the text-file
readers and the file writer whose failures they name.

Every fault raises one of ``ConfigError`` (exit 2), ``DataError`` (exit 3)
or ``InternalError`` (exit 4); no module subclasses them. The message says
what went wrong and where: the file, the line and the reason.
"""

import itertools
import json
import math
import re
from collections.abc import Iterable, Iterator
from pathlib import Path


class EmrkgError(Exception):
    """Base class for all package errors."""


class ConfigError(EmrkgError):
    """Invalid or unresolvable configuration."""


class DataError(EmrkgError):
    """Malformed or inconsistent input data."""


class InternalError(EmrkgError):
    """Invariant violation that should be unreachable."""


def is_real(value) -> bool:
    """A finite int or float, not a bool: a JSON number where a config wants a real."""
    return type(value) in (int, float) and math.isfinite(value)


_LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")


def find_lone_surrogate(text: str, value) -> str | None:
    """The first string or key of the JSON value decoded from ``text`` that
    holds a lone surrogate (U+D800..U+DFFF), which no write can encode as
    UTF-8, or None. Only a ``\\u`` escape decodes to one (a paired escape
    decodes to a single character), so text without a backslash is not
    walked; testing for the one character costs a third of testing for
    the two on lines of CJK text."""
    if "\\" not in text:
        return None
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            if _LONE_SURROGATE.search(item):
                return item
        elif isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
    return None


def require_utf8_name(path: Path, error: type[EmrkgError] = DataError) -> None:
    """Raise ``error`` if ``path`` does not encode as UTF-8, as when a
    command-line argument or a directory entry holds a byte that is not
    UTF-8: no output file could record it."""
    try:
        str(path).encode("utf-8")
    except UnicodeEncodeError:
        raise error(f"{path}: file name is not UTF-8") from None


def read_text(path: str | Path) -> str:
    """The contents of a UTF-8 text file. A file that cannot be read or is
    not UTF-8 is a data error that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_lines(path: str | Path) -> Iterator[str]:
    r"""The lines of a UTF-8 text file, read one at a time and split at line
    ends only ("\n", and "\r\n" or "\r", which the file reads as "\n").
    ``str.splitlines`` would also split inside names holding U+2028, U+0085
    and the like, which machine-written files keep raw. A file that cannot
    be read or is not UTF-8 raises ``DataError``, naming it."""
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                yield line.rstrip("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def write_file(path: str | Path, chunks: Iterable[str] | Iterable[bytes],
               binary: bool = False) -> None:
    """Write ``chunks``, consumed as they are written: str as UTF-8, line
    ends as given (so CSV rows keep their CRLF), or bytes with ``binary``.
    Every output file goes through here: a file that cannot be written, or
    text that does not encode as UTF-8 (a lone surrogate), raises
    ``DataError`` naming the file."""
    try:
        with (open(path, "wb") if binary
              else open(path, "w", encoding="utf-8", newline="")) as handle:
            handle.writelines(chunks)
    except (OSError, UnicodeEncodeError) as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


# -- versioned JSON-lines files (kb/1, graph/1, entities/1) -----------------
#
# A header line {"schema": TAG}, then one JSON object per line. Records are
# written with json.dumps(..., ensure_ascii=False, sort_keys=True), built once,
# and read with a decoder that skips json.loads' whitespace scans.

encode_record = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
_raw_decode = json.JSONDecoder().raw_decode


def write_lines(path: str | Path, schema: str, lines: Iterable[str]) -> None:
    """Write the header ``{"schema": schema}``, then ``lines``, each one
    record ending in a line feed."""
    write_file(path, itertools.chain([encode_record({"schema": schema}) + "\n"], lines))


def write_records(path: str | Path, schema: str, records: Iterable[dict]) -> None:
    """Write the header, then each record on its own line."""
    write_lines(path, schema, (encode_record(record) + "\n" for record in records))


# About 64 KiB of text per block: large enough that a block's lines cost
# one regex scan (see ``graph._graph_triples``), small enough that a load
# holds only its records and one block.
_BLOCK_CHARS = 1 << 16


def read_blocks(path: str | Path, schema: str) -> Iterator[tuple[int, list[str]]]:
    r"""Yield ``(line number of the first line, lines)`` for each block of
    about ``_BLOCK_CHARS`` characters after the header ``{"schema": schema}``.
    Each line keeps its "\n" (a last line may have none), and lines end
    where ``read_lines`` ends them. The header is required, so a zero-byte
    file is an error. A missing or wrong header raises ``DataError`` at
    once; a file that cannot be read or is not UTF-8 raises it when the
    block holding the fault is read. Each message names the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            first = handle.readline()
            try:
                header = json.loads(first) if first else None
            except (ValueError, RecursionError):  # see decode_record
                header = None
            if not isinstance(header, dict) or header.get("schema") != schema:
                found = repr(first.rstrip("\n")[:80]) if first else "an empty file"
                raise DataError(
                    f"{path}: line 1: expected the header {encode_record({'schema': schema})}, "
                    f"got {found}"
                )
            lineno = 2
            while lines := handle.readlines(_BLOCK_CHARS):
                yield lineno, lines
                lineno += len(lines)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def parse_object(text: str) -> dict | None:
    """The dict ``json.loads`` gives for ``text`` if ``text`` is exactly one
    JSON object, with no surrounding whitespace, holding no lone
    surrogate; otherwise None. ``{}`` gives a new dict each time."""
    if text == "{}":
        return {}
    try:
        obj, end = _raw_decode(text)
    except (ValueError, RecursionError):
        return None
    if end != len(text) or type(obj) is not dict or find_lone_surrogate(text, obj) is not None:
        return None
    return obj


def decode_record(path: str | Path, lineno: int, line: str) -> dict | None:
    """The JSON object on line ``lineno`` of ``path``, or None for a blank
    line. A line ``parse_object`` rejects is decoded again: one that is
    not one JSON object, or that holds a lone surrogate, raises
    ``DataError`` naming the file and the line. ``ValueError`` covers ``JSONDecodeError`` and an integer longer than
    Python converts (4,300 digits by default)."""
    line = line.rstrip("\n")
    if not line.strip():
        return None
    obj = parse_object(line)
    if obj is not None:
        return obj
    # surrounding whitespace, or a fault whose reason the message names
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        reason = ("nested too deeply" if isinstance(exc, RecursionError)
                  else getattr(exc, "msg", str(exc)))
        raise DataError(f"{path}: line {lineno}: truncated or invalid record: {reason}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: line {lineno}: record is not a JSON object")
    bad = find_lone_surrogate(line, obj)
    if bad is not None:
        raise DataError(f"{path}: line {lineno}: lone surrogate in the string {bad[:40]!r}")
    return obj


def read_records(path: str | Path, schema: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each record of a file that
    ``read_blocks`` reads, skipping blank lines; ``decode_record`` decodes
    and checks each line."""
    for first, lines in read_blocks(path, schema):
        for lineno, line in enumerate(lines, start=first):
            obj = decode_record(path, lineno, line)
            if obj is not None:
                yield lineno, obj

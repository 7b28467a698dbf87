"""Shared exception hierarchy, and the text-file readers and the record
writer whose failures it names.

Module-specific exceptions subclass one of the three bases so the CLI can
map any failure onto its exit-code contract (config=2, data=3, internal=4).
"""

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


def read_text(path: str | Path) -> str:
    """The contents of a UTF-8 text file. A file that cannot be read or is
    not UTF-8 is a data error that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_lines(path: str | Path, error: type[DataError] = DataError) -> Iterator[str]:
    r"""The lines of a UTF-8 text file, read one at a time and split at line
    ends only ("\n", and "\r\n" or "\r", which the file reads as "\n").
    ``str.splitlines`` would also split inside names holding U+2028, U+0085
    and the like, which machine-written files keep raw. A file that cannot
    be read or is not UTF-8 raises ``error``, naming it."""
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                yield line.rstrip("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


# -- versioned JSON-lines files (kb/1, graph/1, entities/1) -----------------
#
# A header line {"schema": TAG}, then one JSON object per line. Records are
# written with json.dumps(..., ensure_ascii=False, sort_keys=True), built once,
# and read with a decoder that skips json.loads' whitespace scans.

_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
_raw_decode = json.JSONDecoder().raw_decode


def write_records(path: str | Path, schema: str, records: Iterable[dict]) -> None:
    """Write the header ``{"schema": schema}``, then each record on its own
    line; ``records`` is consumed as it is written."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_encode({"schema": schema}) + "\n")
            handle.writelines(_encode(record) + "\n" for record in records)
    except (OSError, UnicodeEncodeError) as exc:  # a string holding a lone surrogate
        raise DataError(f"cannot write {path}: {exc}") from exc


def read_records(path: str | Path, schema: str, error: type[DataError] = DataError,
                 header_error: type[DataError] | None = None) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each record after the header
    ``{"schema": schema}``, reading the file line by line and skipping blank
    lines. The header is required, so a zero-byte file is an error. A
    missing or wrong header raises ``header_error`` (default ``error``); an
    unreadable file or a line that is not one JSON object raises ``error``.
    Each message names the file, and each record error the line."""
    lines = read_lines(path, error)
    first = next(lines, None)
    try:
        header = json.loads(first) if first is not None else None
    except (json.JSONDecodeError, RecursionError):
        header = None
    if not isinstance(header, dict) or header.get("schema") != schema:
        found = "an empty file" if first is None else repr(first[:80])
        raise (header_error or error)(
            f"{path}: line 1: expected the header {_encode({'schema': schema})}, got {found}"
        )
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            obj, end = _raw_decode(line)
        except (json.JSONDecodeError, RecursionError):
            end = -1
        if end != len(line):  # surrounding whitespace, or not one JSON value
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                reason = getattr(exc, "msg", "nested too deeply")
                raise error(f"{path}: line {lineno}: truncated or invalid record: {reason}") from exc
        if not isinstance(obj, dict):
            raise error(f"{path}: line {lineno}: record is not a JSON object")
        bad = find_lone_surrogate(line, obj)
        if bad is not None:
            raise error(f"{path}: line {lineno}: lone surrogate in the string {bad[:40]!r}")
        yield lineno, obj

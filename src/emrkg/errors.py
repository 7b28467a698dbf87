"""Shared exception hierarchy.

Module-specific exceptions subclass one of the three bases so the CLI can
map any failure onto its exit-code contract (config=2, data=3, internal=4).
"""

import math
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


def read_text(path: str | Path) -> str:
    """The contents of a UTF-8 text file. A file that cannot be read or is
    not UTF-8 is a data error that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_lines(path: str | Path) -> list[str]:
    r"""The lines of a UTF-8 text file, split at line ends only ("\n", and
    "\r\n" or "\r", which :func:`read_text` reads as "\n").
    ``str.splitlines`` would also split inside names holding U+2028, U+0085
    and the like, which machine-written files keep raw."""
    lines = read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines

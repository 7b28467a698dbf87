"""``scripts/make_fixtures.py``, which regenerates the committed ``fixtures/``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def _files(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_make_fixtures_writes_the_committed_fixtures_byte_for_byte(
    tmp_path, fixtures_dir, monkeypatch
):
    spec = importlib.util.spec_from_file_location("make_fixtures", _SCRIPT)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    make_fixtures.main()
    written, committed = _files(tmp_path), _files(fixtures_dir)
    assert sorted(written) == sorted(committed)
    assert [name for name in committed if written[name] != committed[name]] == []

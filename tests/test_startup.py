"""Start-up: which subcommands load numpy, run in fresh interpreters.

``emrkg._np`` hands out numpy as a lazy module, so a subcommand loads it
only at its first array operation. Each child puts ``src`` first on its
path, as ``perfbench/run.py``'s ``SETUP_CODE`` does, runs one subcommand
and prints its exit code and the numpy submodules it loaded.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from emrkg.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = (
    "import json, sys\n"
    "sys.path[:0] = sys.argv[1].split('\\n')\n"
    "import emrkg.cli\n"
    "code = emrkg.cli.main(sys.argv[2:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('numpy.'))]))\n"
)

ENTITIES = (
    '{"schema": "entities/1"}\n'
    '{"doc_id": "p1", "entities": [["Disease", "原发性肝细胞"], ["Symptom", "腹痛"]]}\n'
    '{"doc_id": "p2", "entities": [["Disease", "肝癌"], ["Treatment", "手术"]]}\n'
)


def run_child(argv: list[str], *path: Path) -> tuple[int, list[str]]:
    """Exit code and loaded numpy submodules of ``emrkg argv`` in a fresh
    interpreter with ``path`` (default: ``src``) first on ``sys.path``."""
    search = "\n".join(str(p) for p in path or (SRC,))
    done = subprocess.run([sys.executable, "-c", CHILD, search, *argv],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    return code, loaded


@pytest.fixture(scope="module")
def args(tmp_path_factory, corpus_dir, kb_file) -> list[str]:
    out = tmp_path_factory.mktemp("startup") / "out"
    return ["--seed", "5", "--corpus-dir", str(corpus_dir), "--kb-file", str(kb_file),
            "--output-dir", str(out)]


def test_the_stages_that_make_no_array_never_load_numpy(args, tmp_path):
    out = Path(args[-1])
    assert run_child(["convert"] + args) == (0, [])
    assert run_child(["kb-load"] + args) == (0, [])
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["versions"]["numpy"] == np.__version__  # from its install metadata
    entities = out / "entities.jsonl"
    entities.write_text(ENTITIES, encoding="utf-8")
    assert main(["align", "--entities", str(entities)] + args) == 0
    assert run_child(["fuse", "--entities", str(entities)] + args) == (0, [])
    assert run_child(["export"] + args) == (0, [])
    answer = tmp_path / "answer.txt"
    query = ["query", "--label", "Disease", "--name", "原发性肝细胞癌",
             "--relation", "RecommendedFood", "--out", str(answer)]
    assert run_child(query + args) == (0, [])
    assert answer.read_text(encoding="utf-8")  # the head is in the graph, with its foods

    # the control: split shuffles with numpy, and loads it, to the same split
    code, loaded = run_child(["split"] + args)
    assert code == 0 and "numpy.random" in loaded
    in_process = tmp_path / "in-process"
    assert main(["split", "--bio", str(out / "corpus.bio")]
                + args[:-1] + [str(in_process)]) == 0
    assert (out / "train.bio").read_bytes() == (in_process / "train.bio").read_bytes()


def test_a_broken_numpy_fails_at_its_first_use_with_exit_4(args, tmp_path):
    """numpy that fails to import stops the first subcommand that makes an
    array, as an internal error; the others run without it."""
    broken = tmp_path / "broken"
    (broken / "numpy").mkdir(parents=True)
    (broken / "numpy" / "__init__.py").write_text(
        "raise ImportError('numpy install is broken')\n", encoding="utf-8")
    assert run_child(["convert"] + args, broken, SRC) == (0, [])
    assert run_child(["split"] + args, broken, SRC) == (4, [])

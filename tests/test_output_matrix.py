"""The byte contract of `tests/output_matrix.py`, on its quick slice: the
manifest is the same twice in one process and once in a fresh process,
so no output depends on what an earlier command in the process loaded,
cached or left behind."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import rankmetrics

MATRIX = Path(__file__).resolve().parent / "output_matrix.py"


def load_matrix():
    spec = importlib.util.spec_from_file_location("output_matrix", MATRIX)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_slice_gives_one_manifest_in_process_and_in_a_fresh_process(tmp_path):
    matrix = load_matrix()
    first = matrix.manifest("quick", tmp_path / "first")
    second = matrix.manifest("quick", tmp_path / "second")
    env = dict(os.environ)
    src = str(Path(rankmetrics.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "fresh.json"
    subprocess.run([sys.executable, str(MATRIX), "--slice", "quick", "--out", str(out),
                    "--work", str(tmp_path / "fresh")], env=env, check=True)
    assert first == second == json.loads(out.read_text())
    assert [entry["argv"][0] for entry in first] == [argv[0] for argv in matrix.quick()]
    # the slice writes files, prints tables and refuses inputs
    assert {entry["exit"] for entry in first} == {0, 1}
    assert sum(bool(entry["files"]) for entry in first) == 2

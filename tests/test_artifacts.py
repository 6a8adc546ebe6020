"""The pinned bytes: ``train`` and ``predict`` for each model kind, on the
seeded inputs of ``tools/artifact_hashes.py``, write the files whose
hashes ``tools/artifact_hashes.txt`` holds."""

import sys
from pathlib import Path

import pytest

from memesent.cli import main

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import artifact_hashes  # noqa: E402


def _pinned(path):
    """The ``# name value`` environment lines and the hash lines of a file
    the tool printed."""
    env, lines = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            name, _, value = line[2:].partition(" ")
            env[name] = value
        else:
            lines.append(line)
    return env, lines


def test_train_and_predict_write_the_pinned_bytes(tmp_path, monkeypatch):
    env, pinned = _pinned(TOOLS / "artifact_hashes.txt")
    here = artifact_hashes.environment()
    differs = [f"{name} is {value!r} here, {env.get(name)!r} in the file"
               for name, value in here.items() if value != env.get(name)]
    if differs:  # another CPU's BLAS kernels may round otherwise
        pytest.skip("hashes pinned in another environment: " + "; ".join(differs))
    inputs = tmp_path / "inputs"
    artifact_hashes.write_inputs(inputs)
    monkeypatch.chdir(inputs)
    ok, lines = artifact_hashes.kind_lines(
        tmp_path, lambda *argv: main([*argv, "--config", "run.ini"]) == 0)
    assert ok
    assert lines == pinned[:len(lines)]

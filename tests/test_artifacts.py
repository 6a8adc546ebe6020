"""The pinned bytes: ``train`` and ``predict`` for each model kind, the
two ``stability`` studies, and ``prepare``, ``evaluate`` and ``compare``,
on the seeded inputs of
``tools/artifact_hashes.py``, write the files whose hashes
``tools/artifact_hashes.txt`` holds."""

import sys

import pytest

from _util import TOOLS, pinned_environment_differences, pinned_hashes
from memesent.cli import main

sys.path.insert(0, str(TOOLS))
import artifact_hashes  # noqa: E402


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """The file's hash lines and the directory holding the tool's inputs;
    skips when this environment is not the file's."""
    differs = pinned_environment_differences()
    if differs:
        pytest.skip("hashes pinned in another environment: " + "; ".join(differs))
    _, lines = pinned_hashes()
    out_dir = tmp_path_factory.mktemp("artifacts")
    artifact_hashes.write_inputs(out_dir / "inputs")
    return lines, out_dir


def _run(*argv):
    return main([*argv, "--config", "run.ini"]) == 0


def test_train_and_predict_write_the_pinned_bytes(pinned, monkeypatch):
    lines_pinned, out_dir = pinned
    monkeypatch.chdir(out_dir / "inputs")
    ok, lines = artifact_hashes.kind_lines(out_dir, _run)
    assert ok
    assert lines == lines_pinned[:len(lines)]


@pytest.mark.parametrize("out", sorted(artifact_hashes.STUDIES))
def test_stability_studies_write_the_pinned_bytes(pinned, monkeypatch, out):
    lines_pinned, out_dir = pinned
    monkeypatch.chdir(out_dir / "inputs")
    ok, lines = artifact_hashes.study_lines(out_dir, _run, out)
    assert ok
    assert len(lines) == 2 and all(line in lines_pinned for line in lines)


def test_prepare_evaluate_and_compare_write_the_pinned_bytes(pinned, monkeypatch):
    lines_pinned, out_dir = pinned
    monkeypatch.chdir(out_dir / "inputs")
    ok, lines = artifact_hashes.report_lines(out_dir, _run)
    assert ok
    assert lines == lines_pinned[-len(lines):]

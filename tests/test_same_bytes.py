"""tools/same_bytes.py's verdicts, with the fgseg command list stubbed out."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
_SPEC = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bytes)


@pytest.fixture
def trees(tmp_path):
    (tmp_path / "work").mkdir()
    return tmp_path / "parent", tmp_path / "tree", tmp_path / "work"


def stub(monkeypatch, files_of):
    """run_list writes files_of(tree) below its work directory and prints
    one line."""
    def run_list(tree, work):
        for name, data in files_of(tree).items():
            (work / name).parent.mkdir(parents=True, exist_ok=True)
            (work / name).write_bytes(data)
        return None, {"stdout/00-train": b"train: frames=8\n"}
    monkeypatch.setattr(same_bytes, "run_list", run_list)


def test_identical_trees_count_every_file(trees, monkeypatch):
    stub(monkeypatch, lambda tree: {"a/w.fgw": b"w", "b.csv": b"1,2\n"})
    assert same_bytes.compare(*trees) == (0, "same bytes: 3 files")


def test_a_differing_file_is_named(trees, monkeypatch):
    parent, tree, _ = trees
    stub(monkeypatch, lambda t: {"a/w.fgw": b"w", "b.csv": t.name.encode()})
    short = {t: hashlib.sha256(t.name.encode()).hexdigest()[:12] for t in (parent, tree)}
    assert same_bytes.compare(*trees) == (1, f"differs: b.csv (sha256 {short[parent]} in "
                                             f"{parent}, {short[tree]} in {tree})")


def test_a_file_of_one_tree_only_is_named(trees, monkeypatch):
    parent, tree, _ = trees
    stub(monkeypatch, lambda t: {"a/w.fgw": b"w", **({"c.pgm": b"P5"} if t == tree else {})})
    assert same_bytes.compare(*trees) == (1, f"differs: c.pgm written only in {tree}")


def test_a_failed_command_is_reported(trees, monkeypatch):
    parent, _, _ = trees
    monkeypatch.setattr(same_bytes, "run_list", lambda tree, work: ("fgseg train exited 1", None))
    assert same_bytes.compare(*trees) == (1, f"{parent}: fgseg train exited 1")

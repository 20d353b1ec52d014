"""The comparison of tools/contract.py, on directories written here (no CLI run)."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "contract", Path(__file__).resolve().parent.parent / "tools" / "contract.py")
contract = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(contract)


@pytest.fixture
def trees(tmp_path):
    """A base and a head directory holding the same two files."""
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "relax.csv").write_bytes(b"s,trial\n1,0\n")
        (tmp_path / side / "certify-idft.json").write_bytes(b'{"mu_h": 0.125}\n')
    return tmp_path / "base", tmp_path / "head"


def test_identical_files_pass(trees):
    assert contract.compare(*trees) == (2, [])


def test_one_differing_byte_names_the_file(trees):
    base, head = trees
    (head / "relax.csv").write_bytes(b"s,trial\n1,1\n")
    count, problems = contract.compare(base, head)
    assert count == 2 and len(problems) == 1 and problems[0].startswith("relax.csv: ")


@pytest.mark.parametrize("side", ["base", "head"])
def test_file_of_one_tree_only_is_named(trees, side):
    base, head = trees
    (dict(base=base, head=head)[side] / "extra.json").write_bytes(b"{}\n")
    count, problems = contract.compare(base, head)
    assert count == 3 and problems == [f"extra.json: written by the {side} only"]

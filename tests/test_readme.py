"""README's "Library use" block runs as it is printed."""

import pathlib

import pytest

from hopf_dde import DomainError

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_use_lines():
    section = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].rstrip().split("\n")


def test_library_use_block_runs():
    *body, last = _library_use_lines()
    assert last.endswith("# raises DomainError")
    ns = {}
    exec("\n".join(body), ns)
    assert len(ns["y1"]) == len(ns["traj"].t)
    with pytest.raises(DomainError):
        exec(last, ns)

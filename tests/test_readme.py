"""README's "Library use" block runs as it is printed, and its
"Configuration files" table lists the keys a config file may set."""

import pathlib
import re

import pytest

from hopf_dde import DomainError, config

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


def test_configuration_table_lists_every_key():
    section = README.read_text(encoding="utf-8").split("### Configuration files\n", 1)[1]
    rows = section.split("| --- | --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    keys = [k for row in rows.split("\n")
            for k in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert keys == list(config._KEYS)

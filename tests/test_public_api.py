"""The public names: every __all__ entry resolves, and README's code runs."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import hankelcensus

MODULES = ["gf", "hankel", "ranklaw", "witness", "census", "cli"]

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_module_all_entry_resolves(name):
    module = importlib.import_module(f"hankelcensus.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_all_resolves_and_star_import_binds_it():
    missing = [entry for entry in hankelcensus.__all__ if not hasattr(hankelcensus, entry)]
    assert missing == []
    namespace: dict = {}
    exec("from hankelcensus import *", namespace)
    assert set(hankelcensus.__all__) <= namespace.keys()
    # each package name is the object its home module exports
    homes = [importlib.import_module(f"hankelcensus.{name}") for name in MODULES]
    for entry in hankelcensus.__all__:
        assert any(getattr(m, entry, None) is namespace[entry] for m in homes), entry


def test_removed_spellings_stay_removed():
    gf, hankel, census = (importlib.import_module(f"hankelcensus.{n}") for n in ("gf", "hankel", "census"))
    for name in ("ff_add", "ff_sub", "ff_neg", "ff_mul", "ff_inv", "ff_elements"):
        assert not hasattr(gf, name) and not hasattr(hankelcensus, name)
    assert not hasattr(hankel, "prefix") and not hasattr(hankelcensus, "prefix")
    for name in ("zeros", "identity", "from_rows", "transpose", "reverse_rows"):
        assert not hasattr(hankel.DenseMatrix, name)
    assert not hasattr(census.RankDistribution, "count_le")
    assert "mode" not in census.CensusReport.__dataclass_fields__


def test_readme_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert block, "README has no Library quick start block"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    # the values its comments state
    assert namespace["count_rank_le_formula"](namespace["query"]) == 16
    assert namespace["brute_count_rank_le"](namespace["query"]) == 16

"""Guards on the public surface: exported names exist, traced names resolve."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

MODULES = ("arith", "conic", "enumeration", "lattice", "optimizer", "triples")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"hexwr.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_benchmark_tracer_finds_every_traced_name(monkeypatch):
    # the traced benchmark looks its functions up by name; deleting one
    # breaks `perfbench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    originals = {(owner, attr): getattr(owner, attr) for owner, attr in tracer.SPANS + tracer.LEAVES}
    tracer.Tracer()
    # construction only prepares the wrappers; begin() installs them
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in originals.items())

"""The benchmark in ``perfbench/`` wraps program functions by name; every
name it lists must exist, so renaming or deleting one fails here rather
than in a traced benchmark run."""

import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for module, attr, _ in spans.TARGETS:
        fn = getattr(importlib.import_module(f"fuchs2.{module}"), attr, None)
        assert callable(fn), f"fuchs2.{module}.{attr}"
    for module, attr, _ in spans.GENERATORS:
        fn = getattr(importlib.import_module(f"fuchs2.{module}"), attr, None)
        assert inspect.isgeneratorfunction(fn), f"fuchs2.{module}.{attr}"

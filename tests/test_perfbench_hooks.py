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


def test_search_closures_stay_traced(monkeypatch):
    # the traced closure count and distinct-ideal count measure the search
    # only while it calls gring.ideal_closure by that name and
    # enumerate_candidates stays a generator function
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    search = importlib.import_module("fuchs2.search")
    gring = importlib.import_module("fuchs2.gring")
    assert ("gring", "ideal_closure") in [t[:2] for t in spans.TARGETS]
    assert ("search", "enumerate_candidates") in \
        [g[:2] for g in spans.GENERATORS]
    assert search.ideal_closure is gring.ideal_closure
    assert inspect.isgeneratorfunction(search.enumerate_candidates)


def test_benchmark_smoke_run():
    # one round of every workload, untraced: the benchmark's own output
    # checks pass, and the one failed operation is the CLS4_128 open case
    import json
    import subprocess
    import sys
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seconds", "0", "--trace", "0"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 1

"""Locating and importing the program from the checkout's ``src/``."""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("errors", "kernels", "groups", "parsing", "gring", "star",
           "screeners", "search")


def program_present():
    return (SRC / "fuchs2" / "__init__.py").is_file()


def fresh_import():
    """Drop every loaded fuchs2 module and import the package again, so that
    each set-up pays the import and starts with no state left by an earlier
    round.  Returns a namespace with the package and its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules
                 if k == "fuchs2" or k.startswith("fuchs2.")]:
        del sys.modules[name]
    pkg = importlib.import_module("fuchs2")
    fx = SimpleNamespace(pkg=pkg)
    for name in MODULES:
        setattr(fx, name, importlib.import_module(f"fuchs2.{name}"))
    return fx


def describe(fx):
    """What a figure depends on besides the code: compare figures only
    between runs that agree on all of these."""
    return {
        "kernels_backend": fx.kernels.BACKEND,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "machine": platform.machine(),
    }

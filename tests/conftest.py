"""Make the source tree importable in the interpreters some tests start,
as the ``pythonpath`` setting in pyproject.toml does for pytest itself."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

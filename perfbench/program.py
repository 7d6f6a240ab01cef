"""Locate and import the hapdock sources of the checkout the benchmark sits in."""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("config", "devices", "docking", "frames", "harness", "capability")


class MissingProgram(Exception):
    """The checkout holds no hapdock sources to benchmark."""


def load() -> types.SimpleNamespace:
    """Import hapdock from the checkout's `src/`; one attribute per module."""
    if not (SRC / "hapdock" / "__init__.py").is_file():
        raise MissingProgram(f"no hapdock package under {SRC}")
    sys.path.insert(0, str(SRC))
    hd = types.SimpleNamespace(
        **{m: importlib.import_module(f"hapdock.{m}") for m in MODULES})
    origin = Path(hd.harness.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"hapdock was imported from {origin}, not from {SRC}")
    return hd

"""Every function the benchmark's tracer wraps still exists in quboreduce.

``perfbench/spans.py`` is imported read-only; a deletion under ``src/`` that
would break its ``Tracer.install`` fails here first.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in spans.TARGETS], ids=lambda x: x)
def test_target_resolves(module, attr):
    owner = importlib.import_module(f"quboreduce.{module}")
    *cls_name, name = attr.split(".")
    if cls_name:
        # The tracer patches the class's own attribute, not an inherited one.
        owner = getattr(owner, cls_name[0])
        assert name in vars(owner)
    assert callable(getattr(owner, name))

"""The benchmark still runs against this quboreduce.

Every function the benchmark's tracer wraps still exists: ``perfbench/spans.py``
is imported read-only, so a deletion under ``src/`` that would break its
``Tracer.install`` fails here first.  The benchmark's own self-tests pass too.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

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


def test_benchmark_self_tests_pass():
    # perfbench/README.md's self-test command, without a cache; it must leave
    # no file behind under perfbench/.
    before = sorted((ROOT / "perfbench").rglob("*"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    assert sorted((ROOT / "perfbench").rglob("*")) == before

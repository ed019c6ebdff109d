"""The benchmark still runs against this quboreduce.

Every function the benchmark's tracer wraps still exists: ``perfbench/spans.py``
is imported read-only, so a deletion under ``src/`` that would break its
``Tracer.install`` fails here first.  The factoring loop's first search goes
through the wrapped module functions, once per trajectory; later steps read
the search it carries.  ``factor_out`` replays the report through the
module's ``enhance``, once per step, so the benchmark's step count measures
the loop.  The ``sweep`` pass runs the loop alone, so it calls no
``enhance``.  The benchmark's own self-tests pass too.
"""

import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from quboreduce import factoring
from quboreduce.experiments import ProblemSetting, build_problem_qubo

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


@pytest.mark.parametrize("setting, budget, steps", [
    (ProblemSetting("graph_coloring", 10, 31, k=3), 29, 9),
    (ProblemSetting("max_clique", 30, 87), 29, 15),
    (ProblemSetting("max_clique", 30, 87), 5, 5),
], ids=["stops-on-too-few-syms", "stops-on-empty-conflict-list", "budget-spent"])
def test_factoring_loop_calls_the_traced_functions(monkeypatch, setting, budget, steps):
    # factoring.conflict_pairs, .steps and .eligible_ratio (steps over pair
    # searches) come from spans around these three module attributes.  The
    # searches run once per trajectory, on the base matrix's block.
    calls = Counter()
    for name in ("get_conflict_list", "get_most_sym_qubits", "enhance"):
        def shim(*args, _name=name, _fn=getattr(factoring, name)):
            calls[_name, len(args[0]) if _name != "enhance" else None] += 1
            return _fn(*args)

        monkeypatch.setattr(factoring, name, shim)
    q = build_problem_qubo(setting)
    _, report = factoring.factor_out(q, budget, factoring.default_z(q))
    assert len(report.steps) == steps
    assert calls == {("get_conflict_list", q.n): 1, ("get_most_sym_qubits", q.n): 1, ("enhance", None): steps}


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

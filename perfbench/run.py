"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,factor,exhaustive} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  A run first times the set-up in several fresh interpreters
(import the program, build the inputs from the seed) and reports the median.
It then builds the inputs itself, warms up, and makes rounds until the next
round would end after ``--seconds`` (at least two rounds untraced, one
traced).  A round is one pass over all operations; with ``--trace 1`` it is
an untraced pass followed by a traced one.  Each operation's time is the
fewest seconds it took in any round, and a pass time is the sum of these
over the pass's operations.  On a shared machine whose speed drops by up to
half for seconds at a time, this best-of-rounds figure moves far less than
a single pass does.

With ``--trace 0`` the metrics are the end-to-end ones, timed untraced;
with ``--trace 1`` they are the per-layer ones from the spans.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (provenance, output digests,
set-up, pass and operation times, failures) and the spans go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_ROUNDS = {0: 2, 1: 1}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_cal": "cal",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "couplings": "count",
    "cnots": "count",
    "depth": "count",
}

SELF_TIMED = (
    "factoring.get_most_sym_qubits",
    "factoring.get_conflict_list",
    "factoring.enhance",
    "factoring.factor_out",
    "factoring.factoring_trajectory",
    "factoring.default_z",
    "factoring.verify_equivalence",
    "qubo.all_energies",
    "qubo.spectrum",
    "qubo.loads",
    "qubo.dumps",
    "circuits.build_circuit",
    "circuits.qubo_to_ising",
    "circuits.depth",
    "circuits.cnot_count",
    "circuits.format_gate_list",
    "experiments.run_sweep",
    "experiments.build_problem_qubo",
    "experiments.format_records_csv",
    "encoders.encode",
    "graphs.sample_graph",
)
CALL_COUNTED = (
    "factoring.get_most_sym_qubits",
    "factoring.get_conflict_list",
    "factoring.verify_equivalence",
    "qubo.all_energies",
    "circuits.build_circuit",
    "experiments.run_sweep",
    "encoders.encode",
    "graphs.sample_graph",
)
# metric -> (span name whose summed work it is, unit)
WORK_COUNTED = {
    "factoring.conflict_pairs": ("factoring.get_conflict_list", "count"),
    "factoring.steps": ("factoring.enhance", "count"),
    "qubo.all_energies.assignments": ("qubo.all_energies", "count"),
    "qubo.spectrum.entries": ("qubo.spectrum", "count"),
    "circuits.gates": ("circuits.build_circuit", "count"),
    "circuits.gate_list.bytes": ("circuits.format_gate_list", "bytes"),
    "experiments.csv.bytes": ("experiments.format_records_csv", "bytes"),
}


def import_program():
    """Import quboreduce from this checkout's ``src/`` (never another copy)."""
    sys.path.insert(0, str(SRC))
    import quboreduce

    found = Path(quboreduce.__file__).resolve().parent
    if found != SRC / "quboreduce":
        raise ImportError(f"quboreduce imported from {found}, not from {SRC}")
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    return workloads, spans


def commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_layer_metrics(totals, tallies, wall_s, traced_wall_s, overhead_share) -> dict:
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    out = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
    for metric, (name, unit) in WORK_COUNTED.items():
        out[metric] = (get(name, "work"), unit)
    searches = get("factoring.get_most_sym_qubits", "calls")
    steps = get("factoring.enhance", "work")
    out["factoring.eligible_ratio"] = (steps / searches if searches else 0.0, "ratio")
    out["qubo.json.bytes"] = (get("qubo.loads", "work") + get("qubo.dumps", "work"), "bytes")
    out["experiments.depth_monotone_groups"] = (tallies.get("depth_monotone_groups", 0), "count")
    out["pass.wall_s"] = (wall_s, "s")
    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.overhead_share"] = (overhead_share, "ratio")
    return out


def best_pass_s(passes) -> float:
    """Sum over the operations of the fewest seconds each took in any pass."""
    return sum(min(p.op_seconds[op] for p in passes) for op in passes[0].op_seconds)


def calibrated_pass(passes) -> float:
    """One pass in calibration loops: per operation, its seconds over all
    passes divided by the calibration seconds measured around it, summed."""
    ops = passes[0].op_seconds
    return sum(
        sum(p.op_seconds[op] for p in passes) / sum(p.calibration_seconds[op] for p in passes) for op in ops
    )


def best_layers(fixed: dict, rounds: list[dict]) -> dict:
    """Layer totals of the spans recorded once (set-up, warm-up) plus, per
    span name, the fewest self seconds of any traced round.  Calls and work
    are the same in every round; those of the first are added."""
    zero = {"self_s": 0.0, "calls": 0, "work": 0}
    out = {}
    for name in set(fixed).union(*rounds):
        per = [r.get(name, zero) for r in rounds]
        base = fixed.get(name, zero)
        out[name] = {
            "self_s": base["self_s"] + min(t["self_s"] for t in per),
            "calls": base["calls"] + per[0]["calls"],
            "work": base["work"] + per[0]["work"],
        }
    return out


def warm_up(workloads, tracer):
    """One tiny seed-fixed pass of every workload, so that lazy set-up is
    done before timing and every layer appears in a traced run."""
    recs = []
    for name, (setup, run_pass) in workloads.WORKLOADS.items():
        rec = workloads.PassRecorder(tracer, f"warmup-{name}")
        inputs = rec.run("setup", setup, 0, True)
        if inputs is not None:
            run_pass(inputs, rec)
        recs.append(rec)
    return recs


def probe_setup(args) -> float:
    """Seconds to import the program and build the inputs, in this process."""
    start = time.perf_counter()
    workloads, _ = import_program()
    workloads.WORKLOADS[args.workload][0](args.seed)
    return time.perf_counter() - start


def run_probe(args) -> float:
    """``probe_setup`` in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {done.returncode}: {done.stderr.strip()[-2000:]}")
    return float(done.stdout.splitlines()[-1])


def measure(args, start: float) -> dict:
    """Set up, warm up and make the rounds; return what the summary needs."""
    workloads, spans = import_program()
    tracer = spans.Tracer() if args.trace else None
    setup, run_pass = workloads.WORKLOADS[args.workload]
    with tracer if tracer is not None else contextlib.nullcontext():
        with tracer.record("setup") if tracer is not None else contextlib.nullcontext():
            inputs = setup(args.seed)
        warm = warm_up(workloads, tracer)
    plain, traced = [], []
    while True:
        began = time.perf_counter()
        # Traced rounds alternate which pass goes first, so that the order
        # does not bias trace.overhead_share.
        sides = (False,) if tracer is None else (False, True) if len(plain) % 2 == 0 else (True, False)
        for side in sides:
            if side:
                traced.append(workloads.PassRecorder(tracer, f"traced{len(traced)}"))
                with tracer:
                    run_pass(inputs, traced[-1])
            else:
                plain.append(workloads.PassRecorder(None, f"pass{len(plain)}"))
                run_pass(inputs, plain[-1])
        now = time.perf_counter()
        if len(plain) >= MIN_ROUNDS[args.trace] and now - start + (now - began) > args.seconds:
            break

    import numpy

    passes = plain + traced
    out = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": sum(r.attempted for r in warm + passes),
        "failures": {f"{r.label}:{op}": msgs for r in warm + passes for op, msgs in r.failed.items()},
        "setup_digest": hashlib.sha256("".join(inputs.emitted).encode()).hexdigest(),
        "pass_digests": [r.digest for r in passes],
        "tallies": [r.tallies for r in passes],
        "counts": {k: inputs.tallies.get(k, 0) + plain[0].tallies.get(k, 0) for k in ("couplings", "cnots", "depth")},
        "wall_s": best_pass_s(plain),
        "wall_cal": calibrated_pass(plain),
        "pass_s": [r.seconds for r in passes],
        "op_s": [r.op_seconds for r in passes],
        "calibration_s": [r.calibration_seconds for r in passes],
        "instances": inputs.instances,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if tracer is not None:
        # The untraced passes ran with the wrappers removed, so every span
        # belongs to the set-up, the warm-up or a traced pass.
        once = [s for s in tracer.spans if not s.op.startswith("traced")]
        rounds = [[s for s in tracer.spans if s.op.startswith(f"{r.label}:")] for r in traced]
        out["layers"] = best_layers(spans.layer_totals(once), [spans.layer_totals(r) for r in rounds])
        out["traced_wall_s"] = best_pass_s(traced)
        out["traced_wall_cal"] = calibrated_pass(traced)
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        path.write_text(json.dumps([s.__dict__ for s in tracer.spans]))
        out["spans_file"] = str(path.relative_to(ROOT))
    return out


# -- the run


def summarize(args, setup_s: list[float], result: dict) -> tuple[dict, dict]:
    """(record, final line) from the set-up probes and the measured rounds."""
    attempted = result["attempted"]
    failures = dict(result["failures"])
    tallies = result["tallies"]
    if len(set(result["pass_digests"])) != 1 or any(t != tallies[0] for t in tallies):
        failures["passes"] = ["passes emitted different outputs"]
    failed = len(failures)
    if args.trace:
        overhead = result["traced_wall_cal"] / result["wall_cal"] - 1
        layer = per_layer_metrics(result["layers"], tallies[-1], result["wall_s"], result["traced_wall_s"], overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_cal": result["wall_cal"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_share": (attempted - failed) / attempted,
            **result["counts"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record = {
        "provenance": {
            "commit": commit(),
            **result["versions"],
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "instances": result["instances"],
        },
        "digests": [result["setup_digest"], *sorted(set(result["pass_digests"]))],
        "setup_s": setup_s,
        "pass_s": result["pass_s"],
        "op_s": result["op_s"],
        "calibration_s": result["calibration_s"],
        "spans_file": result.get("spans_file"),
        "failures": failures,
        "metrics": metrics,
    }
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "factor", "exhaustive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        print(probe_setup(args))
        return 0
    if not (SRC / "quboreduce" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'quboreduce'} is missing", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        setup_s = [run_probe(args) for _ in range(SETUP_PROBES)]
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record, final = summarize(args, setup_s, measure(args, start))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("provenance " + json.dumps(record["provenance"]))
    print("digests " + " ".join(record["digests"]))
    for op, msgs in record["failures"].items():
        print(f"FAILED {op}: {msgs[0]}")
    for name, m in final["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

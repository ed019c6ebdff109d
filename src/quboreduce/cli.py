"""Command-line interface.

File formats: edge-list text for graphs, JSON for QUBO matrices and factoring
reports, line-oriented text for gate lists, flat CSV for sweeps.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .circuits import (
    COUPLING_ORDERS,
    DEFAULT_ANGLE,
    DEFAULT_ORDER,
    QaoaParams,
    build_circuit,
    cnot_count,
    depth,
    format_gate_list,
)
from .encoders import PROBLEMS, encode
from .experiments import (
    DEFAULT_MAX_ANCILLAS,
    DEFAULT_P_VALUES,
    DEFAULT_PENALTY,
    DEFAULT_SEEDS,
    builtin_settings,
    format_records_csv,
    parse_records_csv,
    reduction_table,
    run_sweep,
    sweep_circuit,
)
from .factoring import FactoringReport, factor_out, verify_equivalence
from .graphs import parse_edge_list
from .qubo import CapacityError, ParameterError, QuboMatrix, coupling_count, spectrum


# Errors that end a command with exit code 2.
_INPUT_ERRORS = (ParameterError, CapacityError, OSError, json.JSONDecodeError, UnicodeDecodeError)


def _read(option: str, path: str, parse):
    """``parse`` of the text of ``path``; an error names the option and the file."""
    try:
        return parse(Path(path).read_text())
    except _INPUT_ERRORS as exc:
        raise ParameterError(f"{option} {path}: {exc}") from exc


def int_or_float(text: str) -> int | float:
    # An integer literal stays an int, so an integer QUBO factors to integers.
    try:
        return int(text)
    except ValueError:
        return float(text)


@contextlib.contextmanager
def _output(path: str | None):
    """The text stream a command writes to: ``path``, or stdout for none or ``-``."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as f:
            yield f


def _write(path: str | None, text: str) -> None:
    with _output(path) as out:
        out.write(text)


def _cmd_encode(args) -> int:
    g = _read("--graph", args.graph, parse_edge_list)
    g2 = None if args.graph2 is None else _read("--graph2", args.graph2, parse_edge_list)
    q = encode(args.problem, g, args.penalty, args.k, g2)
    _write(args.out, q.dumps() + "\n")
    return 0


def _cmd_factor(args) -> int:
    q = _read("--qubo", args.qubo, QuboMatrix.loads)
    q_mod, report = factor_out(q, args.max_ancillas, args.z)
    _write(args.out, q_mod.dumps() + "\n")
    if args.report is not None:
        _write(args.report, report.dumps() + "\n")
    print(
        f"ancillas={report.num_ancillas} couplings={coupling_count(q)}->{coupling_count(q_mod)}",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    q = _read("--qubo", args.qubo, QuboMatrix.loads)
    q_mod = _read("--modified", args.modified, QuboMatrix.loads)
    report = _read("--report", args.report, FactoringReport.loads)
    verdict = verify_equivalence(q, q_mod, report)
    print(json.dumps(dataclasses.asdict(verdict)))
    return 0 if verdict.all_ok else 1


def _cmd_spectrum(args) -> int:
    spec = spectrum(_read("--qubo", args.qubo, QuboMatrix.loads))
    with _output(args.out) as out:
        for bits, energies in spec.chunks():
            # Each row of ASCII digits viewed as one n-byte string.
            digits = (bits + ord("0")).astype(np.uint8).view(f"S{spec.n}").ravel().astype(str).tolist()
            out.write("".join([f"{b} {e}\n" for b, e in zip(digits, energies)]))
    return 0


def _select_settings(problem, setting_index, seeds, penalty) -> list:
    settings = [
        s
        for s in builtin_settings(penalty=penalty, seeds=seeds)
        if problem in (None, s.problem) and setting_index in (None, s.setting)
    ]
    if not settings:
        raise ParameterError("no settings selected")
    return settings


# Options that pick a builtin sweep instance for `circuit --problem`.
_INSTANCE_OPTIONS = ("setting_index", "seed", "ancillas")


def _cmd_circuit(args) -> int:
    params = QaoaParams.constant(args.p, args.gamma, args.beta)
    if args.qubo is not None:
        for name in _INSTANCE_OPTIONS:
            if getattr(args, name) is not None:
                raise ParameterError(f"--{name.replace('_', '-')} needs --problem, not --qubo")
        c = build_circuit(_read("--qubo", args.qubo, QuboMatrix.loads), params, order=args.order)
    else:
        [setting] = _select_settings(args.problem, args.setting_index or 0, [args.seed or 0], DEFAULT_PENALTY)
        c = sweep_circuit(setting, args.ancillas or 0, params, args.order)
    _write(args.out, format_gate_list(c))
    print(f"cnots={cnot_count(c)} depth={depth(c)}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    settings = _select_settings(args.problem, args.setting_index, args.seeds, args.penalty)
    records = []
    for setting in settings:
        records.extend(run_sweep(setting, args.max_ancillas, args.p, args.z))
    records.sort(key=lambda r: (r.problem, r.setting, r.seed, r.num_ancillas, r.p))
    _write(args.out, format_records_csv(records))
    return 0


def _cmd_table(args) -> int:
    rows = reduction_table(_read("--csv", args.csv, parse_records_csv))
    lines = [f"{'problem':<20} {'setting':>7} {'couplings':>10} {'depth':>7}"]
    lines += [f"{problem:<20} {setting:>7} {c:>9.1f}% {d:>6.1f}%" for problem, setting, c, d in rows]
    lines.append(f"{'paper, up to':<28} {49:>9.1f}% {41:>6.1f}%")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quboreduce")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a graph problem as a QUBO")
    p.add_argument("--problem", required=True, choices=PROBLEMS)
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--graph2", help="second edge-list file (graph_isomorphism)")
    p.add_argument("--k", type=int, help="color count (graph_coloring)")
    p.add_argument("--penalty", type=int, default=DEFAULT_PENALTY)
    p.add_argument("--out", help="output QUBO JSON (default stdout)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("factor", help="factor shared structure into ancilla qubits")
    p.add_argument("--qubo", required=True, help="input QUBO JSON")
    p.add_argument("--max-ancillas", type=int, default=DEFAULT_MAX_ANCILLAS)
    p.add_argument("--z", type=int_or_float, help="penalty weight (default: coefficient-sum bound)")
    p.add_argument("--out", help="output QUBO JSON (default stdout)")
    p.add_argument("--report", help="output factoring report JSON")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("verify", help="exhaustively verify energy-landscape preservation")
    p.add_argument("--qubo", required=True)
    p.add_argument("--modified", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="print the full sorted energy spectrum")
    p.add_argument("--qubo", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("circuit", help="emit the QAOA gate list for a QUBO or a builtin sweep instance")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--qubo", help="input QUBO JSON")
    source.add_argument("--problem", choices=PROBLEMS, help="builtin sweep instance of this problem")
    p.add_argument("--setting-index", type=int, help="builtin setting (default 0)")
    p.add_argument("--seed", type=int, help="builtin seed (default 0)")
    p.add_argument("--ancillas", type=int, help="ancilla budget, as a sweep row's num_ancillas (default 0)")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--gamma", type=float, default=DEFAULT_ANGLE)
    p.add_argument("--beta", type=float, default=DEFAULT_ANGLE)
    p.add_argument("--order", choices=tuple(COUPLING_ORDERS), default=DEFAULT_ORDER)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_circuit)

    p = sub.add_parser("sweep", help="run coupling/depth sweeps over the builtin settings")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--setting-index", type=int)
    p.add_argument("--seeds", type=int, nargs="+", default=DEFAULT_SEEDS)
    p.add_argument("--max-ancillas", type=int, default=DEFAULT_MAX_ANCILLAS)
    p.add_argument("--p", type=int, nargs="+", default=DEFAULT_P_VALUES)
    p.add_argument("--z", type=int_or_float, help="explicit penalty weight")
    p.add_argument("--penalty", type=int, default=DEFAULT_PENALTY)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table", help="coupling and depth reductions of a sweep CSV, beside the paper's")
    p.add_argument("--csv", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_table)

    return parser


# Options that take a float.  argparse reads a value such as -1e-3 or -inf as
# an option, so main passes a float value to these, or to any abbreviation of
# them, as --opt=VALUE; argparse then resolves the abbreviation, or rejects an
# ambiguous one, as it does without a value.
_FLOAT_OPTIONS = ("--gamma", "--beta", "--z")


def _is_float_option(arg: str) -> bool:
    return len(arg) > 2 and any(name.startswith(arg) for name in _FLOAT_OPTIONS)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    joined: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and _is_float_option(joined[-1]) and _is_float(arg):
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    args = build_parser().parse_args(joined)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

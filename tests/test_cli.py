import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quboreduce import (
    Graph,
    QaoaParams,
    QuboMatrix,
    build_circuit,
    depth,
    factor_out,
    graph_isomorphism_qubo,
    vertex_cover_qubo,
)
from quboreduce.circuits import format_gate_list
from quboreduce.cli import main
from quboreduce.experiments import (
    build_problem_qubo,
    builtin_settings,
    format_records_csv,
    parse_records_csv,
    reduction_table,
    run_sweep,
)
from quboreduce.graphs import permute_vertices
from quboreduce.qubo import ENUMERATION_GUARD

from conftest import DEMO_EDGES, format_edge_list, random_float_qubo, random_qubo, reference_spectrum

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def _src_env() -> dict:
    # The environment of a `python -m quboreduce` run from a checkout, with src/ on the path.
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def demo_graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(format_edge_list(Graph(6, frozenset(DEMO_EDGES))))
    return path


def test_encode_max_clique(tmp_path, demo_graph_file, demo_qubo):
    out = tmp_path / "q.json"
    rc = main(["encode", "--problem", "max_clique", "--graph", str(demo_graph_file), "--out", str(out)])
    assert rc == 0
    assert QuboMatrix.loads(out.read_text()) == demo_qubo


def test_encode_requires_k_for_coloring(demo_graph_file, capsys):
    rc = main(["encode", "--problem", "graph_coloring", "--graph", str(demo_graph_file)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_factor_verify_pipeline(tmp_path, demo_graph_file, demo_factored):
    q_path = tmp_path / "q.json"
    mod_path = tmp_path / "mod.json"
    report_path = tmp_path / "report.json"
    assert main(["encode", "--problem", "max_clique", "--graph", str(demo_graph_file), "--out", str(q_path)]) == 0
    rc = main([
        "factor", "--qubo", str(q_path), "--max-ancillas", "1", "--z", "3",
        "--out", str(mod_path), "--report", str(report_path),
    ])
    assert rc == 0
    assert mod_path.read_text() == demo_factored.dumps() + "\n"
    report = json.loads(report_path.read_text())
    assert report["base_n"] == 6 and report["final_n"] == 7

    # weak penalty: invalid energies may improve, so the verdict is nonzero
    assert main(["verify", "--qubo", str(q_path), "--modified", str(mod_path), "--report", str(report_path)]) == 1

    # strong penalty passes verification
    assert main([
        "factor", "--qubo", str(q_path), "--max-ancillas", "1", "--z", "9",
        "--out", str(mod_path), "--report", str(report_path),
    ]) == 0
    assert main(["verify", "--qubo", str(q_path), "--modified", str(mod_path), "--report", str(report_path)]) == 0


@pytest.mark.parametrize("z", ["3", "2.5"])
def test_factor_writes_the_library_bytes_for_z(tmp_path, demo_qubo, z):
    # An integer --z stays an int, so an integer QUBO factors to integers.
    q_path, mod_path, report_path = tmp_path / "q.json", tmp_path / "mod.json", tmp_path / "report.json"
    q_path.write_text(demo_qubo.dumps())
    assert main([
        "factor", "--qubo", str(q_path), "--max-ancillas", "4", "--z", z,
        "--out", str(mod_path), "--report", str(report_path),
    ]) == 0
    q_mod, report = factor_out(demo_qubo, 4, json.loads(z))
    assert mod_path.read_text() == q_mod.dumps() + "\n"
    assert report_path.read_text() == report.dumps() + "\n"
    assert repr(json.loads(report_path.read_text())["z"]) == z


def test_sweep_with_integer_z_writes_the_float_z_csv(tmp_path):
    # Coupling counts, CNOTs and depth do not depend on whether z is 40 or 40.0.
    csv_path = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--problem", "max_clique", "--setting-index", "1", "--seeds", "0",
        "--max-ancillas", "29", "--z", "40", "--out", str(csv_path),
    ]) == 0
    [setting] = [s for s in builtin_settings(seeds=(0,)) if (s.problem, s.setting) == ("max_clique", 1)]
    assert csv_path.read_bytes() == format_records_csv(run_sweep(setting, 29, z=40.0)).encode()


def test_spectrum_command(tmp_path, demo_qubo):
    q_path = tmp_path / "q.json"
    q_path.write_text(demo_qubo.dumps())
    out = tmp_path / "spectrum.txt"
    assert main(["spectrum", "--qubo", str(q_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 64
    bits, e = lines[0].split()
    assert e == "-3" and bits == "101001"


@pytest.mark.parametrize("floats", [False, True], ids=["integer", "float"])
def test_spectrum_command_writes_the_joined_lines_text(tmp_path, capsys, floats):
    # The text the command wrote when it joined one line per entry of the
    # eager spectrum; 2**12 entries span more than one chunk.
    rng = random.Random(8)
    q = random_float_qubo(rng, 12) if floats else random_qubo(rng, 12)
    lines = [f"{''.join(str(b) for b in e.bits)} {e.energy}" for e in reference_spectrum(q)]
    expected = ("\n".join(lines) + "\n").encode()
    q_path, out = tmp_path / "q.json", tmp_path / "spectrum.txt"
    q_path.write_text(q.dumps())
    assert main(["spectrum", "--qubo", str(q_path), "--out", str(out)]) == 0
    assert out.read_bytes() == expected
    capsys.readouterr()
    assert main(["spectrum", "--qubo", str(q_path)]) == 0
    assert capsys.readouterr().out.encode() == expected
    assert ("e+" in expected.decode()) == floats


def test_circuit_command(tmp_path, demo_qubo, capsys):
    q_path = tmp_path / "q.json"
    q_path.write_text(demo_qubo.dumps())
    out = tmp_path / "circuit.txt"
    assert main(["circuit", "--qubo", str(q_path), "--p", "3", "--out", str(out)]) == 0
    assert out.read_text().startswith("qubits 6\n")
    assert "cnots=54" in capsys.readouterr().err


def test_circuit_with_zero_gamma_prints_no_negative_zero(tmp_path, demo_qubo):
    # Every cost-layer angle is 2 * 0 * h; the negative h used to print as -0.
    q_path = tmp_path / "q.json"
    q_path.write_text(demo_qubo.dumps())
    out = tmp_path / "circuit.txt"
    assert main(["circuit", "--qubo", str(q_path), "--gamma", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rz = [line for line in lines if line.startswith("RZ ")]
    assert rz and all(line.endswith(" 0") for line in rz)
    assert not any(line.endswith(" -0") for line in lines)


@pytest.mark.parametrize("flags", [["--gamma", "nan"], ["--beta", "inf"], ["--gamma=-inf"]])
def test_circuit_rejects_non_finite_angles(tmp_path, demo_qubo, capsys, flags):
    q_path = tmp_path / "q.json"
    q_path.write_text(demo_qubo.dumps())
    out = tmp_path / "circuit.txt"
    assert main(["circuit", "--qubo", str(q_path), *flags, "--out", str(out)]) == 2
    assert "error: QAOA angles must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--gamma", "1e308"], "error: RZ angle must be finite, got -inf"),
    (["--beta", "1e308"], "error: RX angle must be finite, got inf"),
])
def test_circuit_rejects_finite_angles_that_overflow(tmp_path, demo_qubo, capsys, flags, message):
    # 2 * gamma * h and 2 * beta overflow although gamma and beta are finite.
    q_path = tmp_path / "q.json"
    q_path.write_text(demo_qubo.dumps())
    out = tmp_path / "circuit.txt"
    assert main(["circuit", "--qubo", str(q_path), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("command, value, expected", [
    (["circuit", "--gamma"], "-1e-3", "cnots=18"),
    (["circuit", "--beta"], "-2.5E-1", "cnots=18"),
    (["circuit", "--gamma"], "-inf", "error: QAOA angles must be finite"),
    (["circuit", "--beta"], "-inf", "error: QAOA angles must be finite"),
    (["factor", "--z"], "-1e-3", "error: penalty z must be positive and finite, got -0.001"),
    (["factor", "--z"], "-2.5E-1", "error: penalty z must be positive and finite, got -0.25"),
    (["factor", "--z"], "-inf", "error: penalty z must be positive and finite, got -inf"),
])
def test_float_options_take_negative_values_in_exponent_form(tmp_path, demo_qubo, capsys, command, value, expected):
    q_path, out = tmp_path / "q.json", tmp_path / "out"
    q_path.write_text(demo_qubo.dumps())
    rc = main([command[0], "--qubo", str(q_path), command[1], value, "--out", str(out)])
    assert capsys.readouterr().err.startswith(expected)
    assert rc == (0 if expected.startswith("cnots") else 2)
    if rc == 0:
        gamma, beta = (float(value), 0.5) if command[1] == "--gamma" else (0.5, float(value))
        assert out.read_text() == format_gate_list(build_circuit(demo_qubo, QaoaParams.constant(1, gamma, beta)))
    else:
        assert not out.exists()


@pytest.mark.parametrize("option, value, gamma, beta", [
    ("--gam", "-1e-3", -1e-3, 0.5),
    ("--g", "-1e-3", -1e-3, 0.5),
    ("--bet", "-2.5E-1", 0.5, -0.25),
    ("--b", "-inf", None, None),
])
def test_abbreviated_float_options_take_negative_values(tmp_path, demo_qubo, capsys, option, value, gamma, beta):
    # argparse resolves a unique prefix of an option name; the value must
    # reach the option it resolves to.
    q_path, out = tmp_path / "q.json", tmp_path / "out"
    q_path.write_text(demo_qubo.dumps())
    rc = main(["circuit", "--qubo", str(q_path), option, value, "--out", str(out)])
    err = capsys.readouterr().err
    if gamma is None:
        assert (rc, err.startswith("error: QAOA angles must be finite")) == (2, True)
        assert not out.exists()
    else:
        assert (rc, err.startswith("cnots=18")) == (0, True)
        assert out.read_text() == format_gate_list(build_circuit(demo_qubo, QaoaParams.constant(1, gamma, beta)))


@pytest.mark.parametrize("command, option", [
    (["encode", "--problem", "max_clique", "--graph", "g.txt"], "--g"),  # --graph or --graph2
    (["circuit", "--qubo", "q.json"], "--s"),  # --setting-index or --seed
])
def test_ambiguous_option_prefix_exits_2(tmp_path, demo_qubo, capsys, command, option):
    (tmp_path / "q.json").write_text(demo_qubo.dumps())
    (tmp_path / "g.txt").write_text(format_edge_list(Graph(6, frozenset(DEMO_EDGES))))
    command = [str(tmp_path / a) if a in ("q.json", "g.txt") else a for a in command]
    with pytest.raises(SystemExit) as exc:
        main([*command, option, "-1e-3", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "ambiguous option" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("z", ["inf", "-inf", "nan", "Infinity"])
@pytest.mark.parametrize("factors", [False, True], ids=["vertex-cover", "demo"])
def test_factor_rejects_non_finite_z(tmp_path, demo_qubo, capsys, z, factors):
    q = demo_qubo if factors else vertex_cover_qubo(Graph(4, frozenset({(0, 1), (1, 2), (2, 3)})), 3)
    q_path, out = tmp_path / "q.json", tmp_path / "out.json"
    q_path.write_text(q.dumps())
    assert main(["factor", "--qubo", str(q_path), "--z", z, "--out", str(out), "--report", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith("error: penalty z must be positive and finite")
    assert not out.exists()


def test_factor_without_z_on_a_qubo_with_no_coefficients_asks_for_one(tmp_path, capsys):
    # default_z is then 0, which no factoring takes; a given z works.
    q_path, out = tmp_path / "q.json", tmp_path / "out.json"
    q_path.write_text('{"n": 3, "offset": 5, "entries": []}')
    assert main(["factor", "--qubo", str(q_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: the default z of a QUBO with no coefficients is 0, so a z must be given\n"
    assert not out.exists()
    assert main(["factor", "--qubo", str(q_path), "--z", "1", "--out", str(out)]) == 0
    assert out.read_text() == '{"n": 3, "offset": 5, "entries": []}\n'


@pytest.mark.parametrize("n", [5 * 10**8, 4 * 10**9], ids=["memory-error", "array-too-big"])
def test_factor_whose_mirror_cannot_be_allocated_exits_2(tmp_path, capsys, n):
    # Qubits 0..5 are all coupled, so the loop needs the (n + 2)-square
    # mirror, which no address space holds.
    q_path, out = tmp_path / "q.json", tmp_path / "out.json"
    q_path.write_text(QuboMatrix(n, {(i, k): 2 for i in range(6) for k in range(i + 1, 6)}).dumps())
    assert main(["factor", "--qubo", str(q_path), "--max-ancillas", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: the dense mirror of {n + 2} qubits cannot be allocated: ")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["spectrum", "--qubo", "a.json", "--out", "out.txt"],
    ["verify", "--qubo", "a.json", "--modified", "b.json", "--report", "r.json"],
], ids=["spectrum", "verify"])
def test_float_energy_that_overflows_exits_2(tmp_path, capsys, monkeypatch, command):
    # E(11) is 3e308 for a and 3.7e308 for b: both overflow float64, and
    # inf - inf would compare false with every bound.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text('{"n": 2, "offset": 0, "entries": [[0,0,1e308],[0,1,1e308],[1,1,1e308]]}')
    (tmp_path / "b.json").write_text('{"n": 2, "offset": 0, "entries": [[0,0,1e308],[0,1,1.7e308],[1,1,1e308]]}')
    (tmp_path / "r.json").write_text('{"base_n": 2, "final_n": 2, "z": 1, "steps": []}')
    assert main(command) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: an energy of this QUBO overflows float64\n")
    assert not (tmp_path / "out.txt").exists()


def test_verify_of_energies_whose_difference_overflows(tmp_path):
    # E(1) is 1.5e308 and -1.5e308, both finite; the difference is -inf, a
    # false verdict, and numpy prints no overflow warning.
    (tmp_path / "a.json").write_text('{"n": 1, "offset": 0, "entries": [[0, 0, 1.5e308]]}')
    (tmp_path / "b.json").write_text('{"n": 1, "offset": 0, "entries": [[0, 0, -1.5e308]]}')
    (tmp_path / "r.json").write_text('{"base_n": 1, "final_n": 1, "z": 1, "steps": []}')
    done = subprocess.run([sys.executable, "-m", "quboreduce", "verify", "--qubo", "a.json", "--modified", "b.json",
                           "--report", "r.json"], cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 1
    assert done.stdout == ('{"valid_energies_preserved": false, "invalid_energies_nondecreasing": true, '
                           '"minimum_preserved": false}\n')
    assert done.stderr == ""


def test_python_dash_m_runs_the_cli(tmp_path, demo_qubo):
    # `python -m quboreduce` from a checkout with src/ on the path, exit
    # codes included.
    q_path = tmp_path / "q.json"
    q_path.write_text(demo_qubo.dumps())

    def run(*args):
        return subprocess.run([sys.executable, "-m", "quboreduce", "circuit", "--qubo", str(q_path), *args],
                              env=_src_env(), capture_output=True, text=True, timeout=120)

    done = run("--p", "2")
    assert done.returncode == 0
    assert done.stdout == format_gate_list(build_circuit(demo_qubo, QaoaParams.constant(2)))
    assert done.stderr == "cnots=36 depth=%d\n" % depth(build_circuit(demo_qubo, QaoaParams.constant(2)))
    done = run("--gamma", "nan")
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")


def test_sweep_and_table_commands(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--problem", "hamilton_cycles", "--setting-index", "0",
        "--seeds", "0", "--max-ancillas", "3", "--p", "1", "--out", str(csv_path),
    ])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "problem,setting,seed,num_ancillas,p,qubits,couplings,cnots,depth"
    assert len(lines) == 1 + 4  # budgets 0..3

    table_path = tmp_path / "table.txt"
    assert main(["table", "--csv", str(csv_path), "--out", str(table_path)]) == 0
    [(_, _, couplings, depth_fall)] = reduction_table(parse_records_csv(csv_path.read_text()))
    assert couplings > 0
    assert table_path.read_text() == (
        "problem              setting  couplings   depth\n"
        f"hamilton_cycles            0 {couplings:>9.1f}% {depth_fall:>6.1f}%\n"
        "paper, up to                      49.0%   41.0%\n"
    )


def test_table_of_a_header_only_csv_has_no_rows(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text(format_records_csv([]))
    assert main(["table", "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "problem              setting  couplings   depth",
        "paper, up to                      49.0%   41.0%",
    ]


def test_pareto_is_an_unknown_command(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text(format_records_csv([]))
    with pytest.raises(SystemExit) as exc:
        main(["pareto", "--csv", str(csv_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'pareto'" in capsys.readouterr().err


def test_help_lists_the_readme_commands():
    block = README.read_text().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("quboreduce ")}
    done = subprocess.run([sys.executable, "-m", "quboreduce", "--help"], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    choices = re.search(r"\{([^}]*)\}", done.stdout).group(1).split(",")
    assert len(set(choices)) == len(choices)
    assert set(choices) == documented


def test_circuit_of_builtin_instance_is_the_sweep_row(tmp_path, capsys):
    instance = ["--problem", "hamilton_cycles", "--setting-index", "0", "--seed", "1"]
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", *instance[:4], "--seeds", "1", "--max-ancillas", "3", "--p", "2",
                 "--out", str(csv_path)]) == 0
    row = csv_path.read_text().splitlines()[-1].split(",")
    assert row[:5] == ["hamilton_cycles", "0", "1", "3", "2"]
    out = tmp_path / "circuit.txt"
    assert main(["circuit", *instance, "--ancillas", "3", "--p", "2", "--out", str(out)]) == 0
    assert out.read_text().startswith(f"qubits {row[5]}\n")
    assert capsys.readouterr().err == f"cnots={row[7]} depth={row[8]}\n"


@pytest.mark.parametrize("flags", [
    ["--qubo", "q.json", "--seed", "1"],
    ["--qubo", "q.json", "--ancillas", "0"],
    ["--problem", "max_clique", "--setting-index", "3"],
    ["--problem", "max_clique", "--ancillas", "-1"],
    ["--problem", "max_clique", "--p", "0"],
])
def test_circuit_rejects_bad_instance(tmp_path, capsys, flags):
    (tmp_path / "q.json").write_text(json.dumps(_GOOD_QUBO))
    flags = [str(tmp_path / f) if f == "q.json" else f for f in flags]
    out = tmp_path / "circuit.txt"
    assert main(["circuit", *flags, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p", [str(sys.maxsize + 1), "100000000000000000000"])
def test_circuit_rejects_p_past_maxsize(tmp_path, demo_qubo, capsys, p):
    # Larger than any tuple, so the angles are never allocated.
    q_path, out = tmp_path / "q.json", tmp_path / "circuit.txt"
    q_path.write_text(demo_qubo.dumps())
    assert main(["circuit", "--qubo", str(q_path), "--p", p, "--out", str(out)]) == 2
    assert f"error: layer count must be at most {sys.maxsize}, got {p}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--p", "0"], ["--p", "-2"], ["--p", "2", "2"], ["--seeds", "0", "0"]])
def test_sweep_rejects_bad_p_or_seeds(tmp_path, capsys, flags):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--problem", "max_clique", "--max-ancillas", "1", "--out", str(out), *flags])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row", [
    "max_clique,0,0,0,1,30,87,174,x",
    "max_clique,0,0,0,1,30,87,174",
    "max_clique,0,0,0,1,30,87,174,5,6",
])
def test_table_rejects_malformed_csv_row(tmp_path, capsys, row):
    csv_path = tmp_path / "sweep.csv"
    out = tmp_path / "table.txt"
    csv_path.write_text("problem,setting,seed,num_ancillas,p,qubits,couplings,cnots,depth\n" + row + "\n")
    assert main(["table", "--csv", str(csv_path), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows, message", [
    # Rows that once printed "not_a_problem 0 200.0% 0.0%".
    (["not_a_problem,0,0,0,1,30,-87,174,5", "not_a_problem,0,0,1,1,30,87,174,5"],
     "CSV line 2: unknown problem 'not_a_problem'"),
    (["max_clique,0,0,0,1,30,-87,174,5"], "CSV line 2: couplings must be at least 0, got -87"),
    (["max_clique,0,0,0,1,30,87,174,5", "max_clique,0,0,1,1,30,87,173,5"],
     "CSV line 3: cnots 173 != 2 * couplings * p = 174"),
], ids=["unknown-problem", "negative-couplings", "cnot-law"])
def test_table_rejects_rows_no_sweep_writes(tmp_path, capsys, rows, message):
    csv_path = tmp_path / "sweep.csv"
    out = tmp_path / "table.txt"
    csv_path.write_text("\n".join(["problem,setting,seed,num_ancillas,p,qubits,couplings,cnots,depth", *rows, ""]))
    assert main(["table", "--csv", str(csv_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --csv {csv_path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "factor"])
def test_z_that_overflows_a_cell_exits_2(tmp_path, capsys, command):
    # -2z is -inf at the first ancilla, 30, of the pair (12, k).
    out = tmp_path / "out"
    if command == "sweep":
        args = ["sweep", "--problem", "max_clique", "--setting-index", "0", "--seeds", "0",
                "--max-ancillas", "3", "--p", "1"]
    else:
        setting = builtin_settings(seeds=[0])[0]  # max_clique setting 0, as the sweep
        q_path = tmp_path / "q.json"
        q_path.write_text(build_problem_qubo(setting).dumps())
        args = ["factor", "--qubo", str(q_path), "--max-ancillas", "3", "--report", str(tmp_path / "r")]
    assert main([*args, "--z", "1e308", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: non-finite coefficient at (12, 30)\n"
    assert not out.exists()


def test_z_whose_row_sums_overflow_writes_only_the_summary(tmp_path):
    # At 5e307 every cell is finite but a row sum is -inf.  A separate
    # interpreter keeps Python's default warning filter, which prints.
    setting = builtin_settings(seeds=[0])[0]  # max_clique setting 0
    q = build_problem_qubo(setting)
    q_path, out = tmp_path / "q.json", tmp_path / "out.json"
    q_path.write_text(q.dumps())
    done = subprocess.run([sys.executable, "-m", "quboreduce", "factor", "--qubo", str(q_path), "--z", "5e307",
                           "--max-ancillas", "3", "--out", str(out)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == "ancillas=3 couplings=348->291\n"
    assert out.read_text() == factor_out(q, 3, 5e307)[0].dumps() + "\n"


def test_spectrum_does_not_depend_on_write_order(tmp_path, capsys):
    # Equal matrices whose entries were written in two orders.
    texts = []
    for entries in ([[0, 0, 0.2], [0, 1, 0.1], [1, 1, 0.3]], [[0, 0, 0.2], [1, 1, 0.3], [0, 1, 0.1]]):
        q_path = tmp_path / "q.json"
        q_path.write_text(json.dumps({"n": 2, "offset": 0, "entries": entries}))
        assert main(["spectrum", "--qubo", str(q_path)]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].splitlines() == ["00 0.0", "10 0.2", "01 0.3", "11 0.6000000000000001"]


def test_missing_file_reports_error(capsys):
    rc = main(["spectrum", "--qubo", "/nonexistent/q.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_encode_graph_isomorphism_with_second_graph(tmp_path, demo_graph, demo_graph_file):
    g2 = permute_vertices(demo_graph, [3, 0, 5, 1, 4, 2])
    g2_file = tmp_path / "graph2.txt"
    g2_file.write_text(format_edge_list(g2))
    out = tmp_path / "q.json"
    rc = main([
        "encode", "--problem", "graph_isomorphism", "--graph", str(demo_graph_file),
        "--graph2", str(g2_file), "--penalty", "4", "--out", str(out),
    ])
    assert rc == 0
    assert QuboMatrix.loads(out.read_text()) == graph_isomorphism_qubo(demo_graph, g2, 4)


def test_encode_rejects_repeated_edge_line(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text("3 2\n0 1\n0 1\n")
    assert main(["encode", "--problem", "max_clique", "--graph", str(path)]) == 2
    assert "edge (0, 1) is repeated" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["encode", "--problem", "max_clique", "--graph", "BAD"],
    ["factor", "--qubo", "BAD"],
    ["spectrum", "--qubo", "BAD"],
    ["circuit", "--qubo", "BAD"],
    ["verify", "--qubo", "BAD", "--modified", "MOD", "--report", "REPORT"],
    ["verify", "--qubo", "Q", "--modified", "BAD", "--report", "REPORT"],
    ["verify", "--qubo", "Q", "--modified", "MOD", "--report", "BAD"],
    ["table", "--csv", "BAD"],
], ids=["encode-graph", "factor-qubo", "spectrum-qubo", "circuit-qubo", "verify-qubo", "verify-modified",
        "verify-report", "table-csv"])
def test_undecodable_input_file_exits_2(demo_report_files, capsys, command):
    q_path, mod_path, report_path = demo_report_files
    bad = q_path.parent / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    files = {"BAD": bad, "Q": q_path, "MOD": mod_path, "REPORT": report_path}
    assert main([str(files.get(a, a)) for a in command]) == 2
    option = command[command.index("BAD") - 1]
    assert capsys.readouterr().err.startswith(f"error: {option} {bad}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("option", ["--qubo", "--modified", "--report"])
def test_verify_input_error_names_the_option_and_file(demo_report_files, capsys, option):
    files = dict(zip(("--qubo", "--modified", "--report"), demo_report_files))
    files[option].write_text("")
    assert main(["verify", *(arg for pair in files.items() for arg in map(str, pair))]) == 2
    assert capsys.readouterr().err == f"error: {option} {files[option]}: Expecting value: line 1 column 1 (char 0)\n"


def test_encode_rejects_edge_line_with_three_fields(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text("3 1\n0 1 2\n")
    assert main(["encode", "--problem", "max_clique", "--graph", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", "empty edge-list input"),
    ("\n  \n", "empty edge-list input"),
    ("3 1\n0 x\n", "malformed edge list: invalid literal for int() with base 10: 'x'"),
    ("3 1\n0 1.0\n", "malformed edge list: invalid literal for int() with base 10: '1.0'"),
    ("3.0 1\n0 1\n", "malformed edge list: invalid literal for int() with base 10: '3.0'"),
], ids=["empty", "blank-lines", "letter", "float-field", "float-header"])
def test_malformed_edge_list_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    assert main(["encode", "--problem", "max_clique", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == f"error: --graph {path}: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--problem", "max_clique", "--penalty", "0"], "penalty weight must be positive, got 0"),
    (["--problem", "vertex_cover", "--penalty", "-3"], "penalty weight must be positive, got -3"),
    (["--problem", "graph_coloring", "--k", "0"], "color count must be positive, got 0"),
])
def test_encode_rejects_bad_penalty_or_color_count(demo_graph_file, capsys, flags, message):
    assert main(["encode", "--graph", str(demo_graph_file), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_rejects_nonpositive_z(capsys):
    rc = main([
        "sweep", "--problem", "vertex_cover", "--setting-index", "0", "--seeds", "0",
        "--max-ancillas", "2", "--p", "1", "--z", "-1",
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


_GOOD_QUBO = {"n": 2, "offset": 0, "entries": [[0, 0, -1], [0, 1, 2]]}


@pytest.mark.parametrize("command", ["spectrum", "circuit", "factor"])
@pytest.mark.parametrize("field, value", [
    ("n", 2.5),
    ("n", True),
    ("n", "2"),
    ("offset", "0"),
    ("offset", False),
    ("index", 0.0),
    ("index", True),
    ("coefficient", "2"),
    ("coefficient", True),
    ("coefficient", None),
])
def test_malformed_qubo_json_exits_2(tmp_path, capsys, command, field, value):
    data = json.loads(json.dumps(_GOOD_QUBO))
    if field == "index":
        data["entries"][1][0] = value
    elif field == "coefficient":
        data["entries"][1][2] = value
    else:
        data[field] = value
    q_path = tmp_path / "q.json"
    q_path.write_text(json.dumps(data))
    assert main([command, "--qubo", str(q_path), "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "circuit", "factor"])
@pytest.mark.parametrize("doc", [
    "[2, 0, []]",
    '"n"',
    '{"n": 2, "offset": 0, "entries": {"0": [0, 0, -1]}}',
    '{"n": 2, "offset": 0, "entries": [[0, 0]]}',
    '{"n": 2, "offset": 0, "entries": [[0, 0, -1, 1]]}',
    '{"n": 2, "offset": 0, "entries": [7]}',
], ids=["top-level-list", "top-level-string", "entries-object", "entry-of-2", "entry-of-4", "entry-number"])
def test_malformed_qubo_json_structure_exits_2(tmp_path, capsys, command, doc):
    q_path = tmp_path / "q.json"
    q_path.write_text(doc)
    assert main([command, "--qubo", str(q_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: --qubo {q_path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["spectrum", "circuit", "factor"])
@pytest.mark.parametrize("doc, key", [
    ('{"n": 2, "offset": 0, "entries": [[0, 1, 1]], "n": 3}', "n"),
    ('{"n": 2, "offset": 0, "offset": 1, "entries": [[0, 1, 1]]}', "offset"),
    ('{"entries": [], "n": 2, "offset": 0, "entries": [[0, 1, 1]]}', "entries"),
], ids=["n", "offset", "entries"])
def test_qubo_json_with_a_repeated_key_exits_2(tmp_path, capsys, command, doc, key):
    # json.loads alone would keep the last value and carry on.
    q_path = tmp_path / "q.json"
    q_path.write_text(doc)
    assert main([command, "--qubo", str(q_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f'error: --qubo {q_path}: duplicate key "{key}"\n'
    assert not (tmp_path / "out").exists()


def _verify(paths):
    q_path, mod_path, report_path = paths
    return main(["verify", "--qubo", str(q_path), "--modified", str(mod_path), "--report", str(report_path)])


@pytest.fixture
def demo_report_files(tmp_path, demo_qubo):
    """The demo QUBO factored by one ancilla at z=9, which verifies all-ok."""
    paths = tmp_path / "q.json", tmp_path / "mod.json", tmp_path / "report.json"
    paths[0].write_text(demo_qubo.dumps())
    assert main([
        "factor", "--qubo", str(paths[0]), "--max-ancillas", "1", "--z", "9",
        "--out", str(paths[1]), "--report", str(paths[2]),
    ]) == 0
    assert json.loads(paths[2].read_text())["steps"] == [{"ancilla": 6, "i": 1, "j": 4, "syms": [0, 2, 5]}]
    assert _verify(paths) == 0
    return paths


@pytest.mark.parametrize("path, value", [
    ("base_n", 6.0),
    ("base_n", "6"),
    ("final_n", True),
    ("z", "9"),
    ("z", None),
    ("steps", {}),
    ("steps", [5]),
    ("steps", []),
    ("steps.0.ancilla", "6"),
    ("steps.0.ancilla", 7),
    ("steps.0.i", "0"),
    ("steps.0.i", True),
    ("steps.0.i", 1.0),
    ("steps.0.i", 9),
    ("steps.0.i", -1),
    ("steps.0.j", 6),
    ("steps.0.j", 1),
    ("steps.0.syms", 5),
    ("steps.0.syms.0", "0"),
    ("steps.0.syms.0", False),
    # The demo step factors (1, 4) onto ancilla 6.
    ("steps.0.syms", [0, 7, 7]),
    ("steps.0.syms", [1, 2, 5]),
    ("steps.0.syms", [0, 2, 4]),
    ("steps.0.syms", [0, 2, 6]),
    ("steps.0.syms", [-1, 2, 5]),
    ("steps.0.syms", [0, 2, 2, 5]),
    ("steps.0.syms", [0, 2]),
    ("steps.0.syms", []),
    ("z", float("inf")),
    ("z", float("-inf")),
    ("z", float("nan")),
    ("z", 0),
    ("z", -9),
])
def test_malformed_report_json_exits_2(demo_report_files, capsys, path, value):
    report_path = demo_report_files[2]
    data = json.loads(report_path.read_text())
    *parents, last = (int(key) if key.isdigit() else key for key in path.split("."))
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    report_path.write_text(json.dumps(data))
    assert _verify(demo_report_files) == 2
    assert capsys.readouterr().err.startswith(f"error: --report {report_path}: ")


@pytest.mark.parametrize("edit, key", [
    (lambda text: text.replace('"z": 9', '"z": 9, "z": 3'), "z"),
    (lambda text: text.replace('"base_n": 6', '"base_n": 6, "base_n": 7'), "base_n"),
    (lambda text: text.replace('"i": 1', '"i": 1, "i": 0'), "i"),
], ids=["z", "base_n", "step-i"])
def test_report_json_with_a_repeated_key_exits_2(demo_report_files, capsys, edit, key):
    report_path = demo_report_files[2]
    text = edit(report_path.read_text())
    assert text.count(f'"{key}"') == 2
    report_path.write_text(text)
    assert _verify(demo_report_files) == 2
    assert capsys.readouterr().err == f'error: --report {report_path}: duplicate key "{key}"\n'


def test_spectrum_above_guard_exits_2(tmp_path, capsys):
    q_path = tmp_path / "q.json"
    q_path.write_text(QuboMatrix(ENUMERATION_GUARD + 1).dumps())
    assert main(["spectrum", "--qubo", str(q_path)]) == 2
    assert "error:" in capsys.readouterr().err


_HUGE = "1" + "0" * 400  # an integer with no float value


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("doc", [
    '{"n": 2, "offset": 0, "entries": [[0, 1, %s]]}' % _HUGE,
    '{"n": 2, "offset": -%s, "entries": []}' % _HUGE,
    json.dumps({"n": 2, "offset": 0, "entries": [[0, 0, 2**62], [0, 1, 1], [1, 1, 2**62]]}),
    json.dumps({"n": 2, "offset": 0, "entries": [[0, 0, 10**29]]}),
], ids=["no-float-coefficient", "no-float-offset", "sum-above-2**62", "1e29"])
def test_out_of_range_integer_coefficients_exit_2(tmp_path, capsys, command, doc):
    q_path = tmp_path / "q.json"
    q_path.write_text(doc)
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps({"base_n": 2, "final_n": 2, "z": 1, "steps": []}))
    if command == "spectrum":
        rc = main(["spectrum", "--qubo", str(q_path), "--out", str(tmp_path / "out")])
    else:
        rc = _verify((q_path, q_path, report_path))
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_above_guard_exits_2(tmp_path, capsys):
    n = ENUMERATION_GUARD + 1
    q_path = tmp_path / "q.json"
    q_path.write_text(QuboMatrix(n).dumps())
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps({"base_n": n, "final_n": n, "z": 1, "steps": []}))
    rc = main(["verify", "--qubo", str(q_path), "--modified", str(q_path), "--report", str(report_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

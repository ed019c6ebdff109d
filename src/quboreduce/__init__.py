"""Coupling reduction for QAOA circuits by factoring shared QUBO structure
into ancilla qubits."""

from .circuits import (
    Gate,
    GateList,
    IsingForm,
    QaoaCircuit,
    QaoaParams,
    basis_phase,
    build_circuit,
    build_cost_layer,
    cnot_count,
    depth,
    qubo_to_ising,
)
from .encoders import (
    graph_coloring_qubo,
    graph_isomorphism_qubo,
    hamilton_cycle_qubo,
    max_clique_qubo,
    vertex_cover_qubo,
)
from .experiments import (
    ProblemSetting,
    SweepRecord,
    builtin_settings,
    reduction_table,
    run_sweep,
)
from .factoring import (
    FactoringReport,
    FactoringStep,
    default_z,
    dense_mirror,
    enhance,
    factor_out,
    get_conflict_list,
    get_most_sym_qubits,
    verify_equivalence,
)
from .graphs import Graph, complement, sample_graph
from .qubo import (
    CapacityError,
    DimensionError,
    ParameterError,
    QuboMatrix,
    Spectrum,
    SpectrumEntry,
    coupling_count,
    energy,
    spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""QUBO modeling, QAOA parameter search and chain-targeted circuit compilation."""

from .circuits import Gate, LogicalCircuit, QaoaParams, build_qaoa_circuit
from .compiler import (
    ExeRTable,
    PhysicalCircuit,
    ScheduledCircuit,
    Template,
    build_exer_table,
    build_template,
    compile_graph,
    decompose_gates,
    layout_document,
    optimize_circuit,
    schedule,
    search_initial_mapping,
)
from .engine import (
    LightCone,
    OptimizationResult,
    decompose,
    energy_table,
    expectation_decomposed,
    expectation_full,
    interp_initialize,
    optimize,
    random_params,
)
from .errors import (
    CapacityError,
    ConfigError,
    ModelError,
    ParseError,
    QuchainError,
    ResultUnavailableError,
    TaskNotFoundError,
)
from .graph import WeightGraph, dumps_graph, loads_graph, read_graph, write_graph
from .hardware import (
    ChipModel,
    Coupler,
    Qubit,
    SubchainLibrary,
    build_subchain_library,
    load_calibration,
    loads_calibration,
    refresh,
    select_subchain,
)
from .problems import (
    QuboMatrix,
    qubo_from_graph_coloring,
    qubo_from_maxcut,
    qubo_from_number_partition,
    qubo_from_set_packing,
    weight_graph_from_qubo,
)
from .qasm import emit, parse
from .simulator import (
    QUBIT_LIMIT,
    permute_qubits,
    probabilities,
    sample_counts,
    simulate,
    simulate_gates,
    states_equal_up_to_phase,
)
from .tasks import (
    LocalSampler,
    RankedSolutions,
    SolutionRow,
    TaskRecord,
    TaskService,
    process_results,
)

__version__ = "0.1.0"

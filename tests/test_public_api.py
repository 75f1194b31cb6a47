"""The package's public surface: the names it exports and the README's library example."""

import re
import types
from pathlib import Path

import quchain

README = Path(__file__).resolve().parents[1] / "README.md"

# Adding a name here is a decision: references that only tests call belong in
# tests/oracles.py, not in the package.
PUBLIC_NAMES = {
    "CapacityError", "ChipModel", "ConfigError", "Coupler", "Gate",
    "LightCone", "LocalSampler", "LogicalCircuit", "ModelError", "OptimizationResult",
    "ParseError", "PhysicalCircuit", "QUBIT_LIMIT", "QaoaParams", "Qubit", "QuboMatrix",
    "QuchainError", "RankedSolutions", "ResultUnavailableError", "ScheduledCircuit",
    "SolutionRow", "SubchainLibrary", "TaskNotFoundError", "TaskRecord", "TaskService",
    "Template", "WeightGraph", "build_qaoa_circuit", "build_subchain_library",
    "build_template", "compile_graph", "decompose",
    "decompose_gates", "dumps_graph", "emit", "energy_table", "expectation_decomposed",
    "interp_initialize", "layout_document", "load_calibration", "loads_calibration",
    "loads_graph", "optimize", "optimize_circuit", "parse", "probabilities",
    "process_results", "qubo_from_graph_coloring", "qubo_from_maxcut",
    "qubo_from_number_partition", "qubo_from_set_packing", "read_graph",
    "refresh", "schedule", "search_initial_mapping", "select_subchain",
    "simulate", "simulate_gates", "weight_graph_from_qubo", "write_graph",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(quchain).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "SolutionRow" in capsys.readouterr().out

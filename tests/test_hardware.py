"""Calibration ingestion and the fidelity-sorted subchain library."""

import importlib.resources
import json

import networkx as nx
import numpy as np
import pytest

from quchain import (
    CapacityError,
    ChipModel,
    ConfigError,
    Coupler,
    ParseError,
    Qubit,
    build_subchain_library,
    loads_calibration,
    refresh,
    select_subchain,
)

from oracles import exhaustive_library_entries
from test_selection_golden import perturbed_grid136


def fixture_text(name: str) -> str:
    return (importlib.resources.files("quchain") / "data" / name).read_text()


def make_chip(n, couplers):
    return ChipModel(
        qubits=tuple(Qubit(i, 30.0, 3.0, 0.999) for i in range(n)),
        couplers=tuple(Coupler(a, b, f) for a, b, f in couplers),
    )


def nx_best_path(chip, k):
    """Independent oracle: best k-qubit simple path via networkx enumeration."""
    g = nx.Graph()
    g.add_nodes_from(q.id for q in chip.qubits)
    for c in chip.couplers:
        g.add_edge(c.a, c.b, f=c.f2q)
    best = None
    for s in g.nodes:
        for t in g.nodes:
            if s >= t:
                continue
            for path in nx.all_simple_paths(g, s, t, cutoff=k - 1):
                if len(path) != k:
                    continue
                f = 1.0
                for a, b in zip(path, path[1:]):
                    f *= g.edges[a, b]["f"]
                if best is None or f > best:
                    best = f
    return best


class TestCalibration:
    def test_ten_qubit_line_fixture(self):
        chip = loads_calibration(fixture_text("chain10.json"))
        assert chip.n == 10
        assert all(c.f2q == 0.959 for c in chip.couplers)
        assert chip.qubits[0].t1_us == 30.878

    def test_eighteen_qubit_line_fixture(self):
        chip = loads_calibration(fixture_text("chain18.json"))
        assert chip.n == 18
        assert all(c.f2q == 0.957 for c in chip.couplers)

    def test_grid_fixture(self):
        chip = loads_calibration(fixture_text("grid136.json"))
        assert chip.n == 136
        assert all(c.f2q == 0.924 for c in chip.couplers)

    def test_fidelity_out_of_range(self):
        doc = {
            "qubits": [{"id": 0, "t1_us": 1, "t2_us": 1, "f1q": 1.2}],
            "couplers": [],
        }
        with pytest.raises(ParseError) as err:
            loads_calibration(json.dumps(doc))
        assert "f1q" in str(err.value)

    def test_dangling_coupler(self):
        doc = {
            "qubits": [{"id": i, "t1_us": 1, "t2_us": 1, "f1q": 0.99} for i in range(10)],
            "couplers": [{"a": 0, "b": 99, "f2q": 0.9}],
        }
        with pytest.raises(ParseError) as err:
            loads_calibration(json.dumps(doc))
        assert "couplers[0]" in str(err.value)

    def test_missing_field_path(self):
        with pytest.raises(ParseError) as err:
            loads_calibration('{"qubits": [{"id": 0, "t1_us": 1, "f1q": 0.9, "t2_us": 1}], "couplers": [{"a": 0, "f2q": 1}]}')
        assert "couplers[0]" in str(err.value)


    def test_non_integer_ids_rejected(self):
        qubits = [{"id": i, "t1_us": 1, "t2_us": 1, "f1q": 0.99} for i in range(2)]
        couplers = [{"a": 0, "b": 1, "f2q": 0.9}]
        for section, k, key in [("qubits", 1, "id"), ("couplers", 0, "a"), ("couplers", 0, "b")]:
            doc = json.loads(json.dumps({"qubits": qubits, "couplers": couplers}))
            doc[section][k][key] = 1.7
            with pytest.raises(ParseError) as err:
                loads_calibration(json.dumps(doc))
            assert f"{section}[{k}].{key}" in str(err.value)

    @pytest.mark.parametrize("couplers", [5, {}, ""])
    def test_couplers_must_be_a_list(self, couplers):
        doc = {
            "qubits": [{"id": i, "t1_us": 1, "t2_us": 1, "f1q": 0.99} for i in range(2)],
            "couplers": couplers,
        }
        with pytest.raises(ParseError) as err:
            loads_calibration(json.dumps(doc))
        assert err.value.location == "couplers"

    def test_extra_keys_accepted(self):
        doc = {
            "chip": "test",
            "qubits": [{"id": i, "t1_us": 1, "t2_us": 1, "f1q": 0.99, "note": ""} for i in range(2)],
            "couplers": [{"a": 0, "b": 1, "f2q": 0.9, "gate": "cz"}],
        }
        assert loads_calibration(json.dumps(doc)).n == 2


class TestLibrary:
    def test_four_qubit_line_example(self):
        chip = make_chip(4, [(0, 1, 0.9), (1, 2, 0.99), (2, 3, 0.95)])
        lib = build_subchain_library(chip)
        assert lib.entries[3][0] == (1, 2, 3)
        assert lib.fidelity((1, 2, 3)) == pytest.approx(0.99 * 0.95)

    def test_uniform_fidelity_ties_sorted(self):
        chip = make_chip(4, [(0, 1, 0.95), (1, 2, 0.95), (2, 3, 0.95)])
        lib = build_subchain_library(chip)
        pairs = lib.entries[2]
        assert pairs == [(0, 1), (1, 2), (2, 3)]  # tie-broken by path order

    def test_star_has_no_long_chain(self):
        chip = make_chip(4, [(0, 1, 0.95), (0, 2, 0.95), (0, 3, 0.95)])
        lib = build_subchain_library(chip)
        assert lib.entries[4] == []
        assert lib.entries[3]  # 3-chains exist through the hub

    def test_descending_within_key(self):
        rng = np.random.default_rng(8)
        chips = [
            make_chip(
                6,
                [(a, b, float(rng.uniform(0.8, 0.99))) for a in range(6) for b in range(a + 1, 6) if rng.random() < 0.6],
            ),
            loads_calibration(fixture_text("grid136.json")),
            loads_calibration(perturbed_grid136(0)),
        ]
        for chip in chips:
            lib = build_subchain_library(chip)
            for paths in lib.entries.values():
                fids = [lib.fidelity(p) for p in paths]
                assert fids == sorted(fids, reverse=True)

    @pytest.mark.parametrize("calibration", ["grid136", "grid136_seed7"])
    def test_one_path_per_vertex_set_and_ends(self, calibration):
        text = fixture_text("grid136.json") if calibration == "grid136" else perturbed_grid136(7)
        lib = build_subchain_library(loads_calibration(text))
        for k, paths in lib.entries.items():
            states = {(frozenset(p), p[0], p[-1]) for p in paths}
            assert len(states) == len(paths), f"k={k} holds two paths of one state"

    def test_max_len_validation(self):
        chip = make_chip(3, [(0, 1, 0.9), (1, 2, 0.9)])
        with pytest.raises(ConfigError):
            build_subchain_library(chip, max_len=5)

    @pytest.mark.parametrize("beam_width", [0, -3])
    def test_beam_width_below_one_rejected(self, beam_width):
        chip = loads_calibration(fixture_text("chain18.json"))
        with pytest.raises(ConfigError, match="beam_width"):
            build_subchain_library(chip, beam_width=beam_width)


class TestSelection:
    def test_exact_key_head(self):
        chip = make_chip(4, [(0, 1, 0.9), (1, 2, 0.99), (2, 3, 0.95)])
        lib = build_subchain_library(chip)
        assert select_subchain(lib, 3) == (1, 2, 3)

    def test_capacity_error(self):
        chip = make_chip(3, [(0, 1, 0.9), (1, 2, 0.9)])
        lib = build_subchain_library(chip)
        with pytest.raises(CapacityError):
            select_subchain(lib, 7)

    def test_monotone_selection(self):
        rng = np.random.default_rng(12)
        chip = make_chip(
            7,
            [(a, b, float(rng.uniform(0.8, 0.99))) for a in range(7) for b in range(a + 1, 7) if rng.random() < 0.5],
        )
        lib = build_subchain_library(chip)
        for k, paths in lib.entries.items():
            if paths:
                chosen = select_subchain(lib, k)
                assert lib.fidelity(chosen) >= max(lib.fidelity(p) for p in paths) - 1e-15


class TestRefresh:
    def test_recalibration_reorders(self):
        chip = make_chip(4, [(0, 1, 0.9), (1, 2, 0.99), (2, 3, 0.95)])
        lib = build_subchain_library(chip)
        assert lib.entries[2][0] == (1, 2)
        better = make_chip(4, [(0, 1, 0.999), (1, 2, 0.99), (2, 3, 0.95)])
        lib2 = refresh(lib, better)
        assert lib2.entries[2][0] == (0, 1)
        assert lib.entries[2][0] == (1, 2)  # original untouched

    def test_identical_calibration_identical_bytes(self):
        chip = loads_calibration(fixture_text("chain10.json"))
        a = build_subchain_library(chip)
        b = refresh(a, chip)
        assert a.entries == b.entries

    def test_removed_coupler_splits_paths(self):
        chip = make_chip(4, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)])
        lib = build_subchain_library(chip)
        assert lib.entries[4]
        split = make_chip(4, [(0, 1, 0.9), (2, 3, 0.9)])
        lib2 = refresh(lib, split)
        assert lib2.entries[4] == [] and lib2.entries[3] == []
        assert len(lib2.entries[2]) == 2


class TestBeamRoute:
    def test_large_line_chip_uses_beam_and_finds_the_chain(self):
        chip = loads_calibration(fixture_text("chain18.json"))
        lib = build_subchain_library(chip)
        assert lib.entries[18] == [tuple(range(18))]
        assert lib.entries[6][0] == tuple(range(6))

    def test_beam_grid_chains_are_valid_paths(self):
        chip = loads_calibration(fixture_text("grid136.json"))
        lib = build_subchain_library(chip, max_len=20)
        adj = chip.adjacency()
        for k, paths in lib.entries.items():
            assert paths, f"grid should offer {k}-chains"
            for p in paths[:3]:
                assert len(set(p)) == len(p) == k
                assert all(b in adj[a] for a, b in zip(p, p[1:]))

    def test_cut_sweep_head_on_ten_qubits_never_beats_exact_search(self, monkeypatch):
        # cut the sweep to its harvest on a chip small enough to cross-check
        # against the exhaustive sweep
        from quchain import hardware

        rng = np.random.default_rng(41)
        for _ in range(10):
            couplers = [
                (a, b, float(rng.uniform(0.85, 0.999)))
                for a in range(10)
                for b in range(a + 1, 10)
                if rng.random() < 0.3
            ]
            if not couplers:
                continue
            chip = make_chip(10, couplers)
            exact = hardware._collect(chip, 10, 256)
            with monkeypatch.context() as m:
                m.setattr(hardware, "EXACT_SEARCH_LIMIT", 0)
                beam = hardware._collect(chip, 10, 256)
            for k in exact:
                if exact[k]:
                    want = max(
                        (path_fidelity_of(chip, p) for p in exact[k]),
                    )
                    if beam[k]:
                        got = path_fidelity_of(chip, beam[k][0])
                        assert got <= want + 1e-12


def path_fidelity_of(chip, path):
    from quchain.hardware import path_fidelity

    return path_fidelity(chip, path)


class TestOracle:
    def test_beam_matches_exhaustive_heads(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(50):
            n = int(rng.integers(4, 11))
            couplers = [
                (a, b, float(rng.uniform(0.8, 0.999)))
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.35
            ]
            if not couplers:
                continue
            chip = make_chip(n, couplers)
            beam = build_subchain_library(chip)
            exact = exhaustive_library_entries(chip)
            for k in beam.entries:
                assert bool(beam.entries[k]) == bool(exact[k])
                if beam.entries[k]:
                    assert beam.fidelity(beam.entries[k][0]) == pytest.approx(
                        path_fidelity_of(chip, exact[k][0]), abs=1e-12
                    )
            checked += 1
        assert checked >= 40

    def test_exhaustive_matches_networkx(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            couplers = [
                (a, b, float(rng.uniform(0.8, 0.999)))
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.4
            ]
            if not couplers:
                continue
            chip = make_chip(n, couplers)
            entries = exhaustive_library_entries(chip)
            for k in entries:
                want = nx_best_path(chip, k)
                if entries[k]:
                    assert path_fidelity_of(chip, entries[k][0]) == pytest.approx(want, abs=1e-12)
                else:
                    assert want is None

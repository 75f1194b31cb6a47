"""Golden ``select_subchain`` results on the shipped chips, pinned by digest.

For each case the library's longest reachable length and a SHA-256 over the
chain selected for every k from 2 to that length must match exactly.  The
refreshed cases rebuild the shipped grid136 library against its calibration
with every two-qubit fidelity perturbed by N(0, 0.003), as a routine
re-calibration would.
"""

import hashlib
import importlib.resources
import json

import numpy as np
import pytest

from quchain import build_subchain_library, loads_calibration, refresh, select_subchain

# case -> (longest reachable length, digest of the selections)
GOLDEN = {
    "chain10": (10, "591a0cb7c3624911"),
    "chain18": (18, "a71551b3328c307b"),
    "grid136": (136, "54e280479908f179"),
    "grid136_refresh_seed0": (91, "c29b07d85c36289f"),
    "grid136_refresh_seed1": (85, "02af6c3d74fd30a9"),
    "grid136_refresh_seed2": (77, "cf5dd183d3c2863b"),
    "grid136_refresh_seed3": (93, "281e36ad082de0f0"),
    "grid136_refresh_seed4": (97, "7acb60abb2a44d66"),
    "grid136_refresh_seed5": (86, "31c196ed4815a9b9"),
    "grid136_refresh_seed6": (90, "a62fff0739af5c02"),
    "grid136_refresh_seed7": (90, "665e184396efe3fc"),
    "grid136_refresh_seed8": (94, "43f57dffd3e016ca"),
    "grid136_refresh_seed9": (85, "84d265041c00fe97"),
}


def _text(name: str) -> str:
    return (importlib.resources.files("quchain") / "data" / name).read_text()


def perturbed_grid136(seed: int) -> str:
    """grid136 calibration with each f2q moved by N(0, 0.003), kept in [0.5, 1]."""
    rng = np.random.default_rng(seed)
    doc = json.loads(_text("grid136.json"))
    for c in doc["couplers"]:
        c["f2q"] = round(min(1.0, max(0.5, c["f2q"] + rng.normal(0.0, 0.003))), 6)
    return json.dumps(doc)


def selection_digest(lib) -> tuple[int, str]:
    reach = max((k for k, paths in lib.entries.items() if paths), default=0)
    h = hashlib.sha256()
    for k in range(2, reach + 1):
        h.update(",".join(map(str, select_subchain(lib, k))).encode() + b"\n")
    return reach, h.hexdigest()[:16]


@pytest.fixture(scope="module")
def libraries():
    libs = {
        name: build_subchain_library(loads_calibration(_text(name + ".json")))
        for name in ("chain10", "chain18", "grid136")
    }
    for seed in range(10):
        chip = loads_calibration(perturbed_grid136(seed))
        libs[f"grid136_refresh_seed{seed}"] = refresh(libs["grid136"], chip)
    return libs


@pytest.mark.parametrize("case", list(GOLDEN))
def test_selection_matches_golden(libraries, case):
    assert selection_digest(libraries[case]) == GOLDEN[case]

"""Golden values of the light-cone route, pinned bit for bit.

The values were recorded from the per-term decomposition with sign-vector
observables that the cone-only engine replaced; every expectation and the
optimizer trace must be reproduced exactly.  Cases whose cones cost more
than the whole register (Σ 2**|cone| > 2**n) now evaluate one whole-graph
cone and were re-recorded, each within 2e-15 of the old value.  The
optimizer trace was re-recorded when the p=1 grid became exact beta lines.
"""

import numpy as np
import pytest

from quchain import WeightGraph, expectation_decomposed, optimize

from conftest import random_graph, random_qaoa_params
from test_optimize_golden import _digest


def _k10() -> WeightGraph:
    """Weighted complete graph with fields: every term has the whole graph as its cone."""
    rng = np.random.default_rng(10)
    return WeightGraph(
        nodes=[(i, float(rng.normal())) for i in range(10)],
        edges=[(u, v, float(rng.normal())) for u in range(10) for v in range(u + 1, 10)],
    )


def _ring12() -> WeightGraph:
    """Sparse graph with fields: many distinct cones, summed in cone order."""
    return WeightGraph(
        nodes=[(i, 0.25 * (i % 3) - 0.3) for i in range(12)],
        edges=[(i, (i + 1) % 12, 1.0 - 0.07 * i) for i in range(12)],
    )


def _cases() -> dict:
    """name -> (graph, params): seeded random graphs with fields at p = 1..3,
    a dense K10 and a sparse 12-ring."""
    rng = np.random.default_rng(2024)
    cases = {}
    for k in range(6):
        g = random_graph(rng, 4, 9)
        for p in (1, 2, 3):
            cases[f"random{k}_p{p}"] = g, random_qaoa_params(rng, p)
    for name, g in (("k10", _k10()), ("ring12", _ring12())):
        for p in (1, 2):
            cases[f"{name}_p{p}"] = g, random_qaoa_params(rng, p)
    return cases


CASES = _cases()


# name -> expectation_decomposed as float.hex
EXPECTATIONS = {
    'random0_p1': '-0x1.37cd7e4552265p+0',
    'random0_p2': '-0x1.34dd5a2becde0p-3',
    'random0_p3': '-0x1.18b1341366efep-1',
    'random1_p1': '0x1.f568bbbf37a6dp-2',
    'random1_p2': '0x1.852ebc758ddc9p-1',
    'random1_p3': '-0x1.47a9b01ea31fap-1',
    'random2_p1': '-0x1.c05b201e4ec7ap-1',
    'random2_p2': '0x1.e9cf0492dcff4p-2',
    'random2_p3': '-0x1.580775372adfap-2',
    'random3_p1': '0x1.412949602baf7p-4',
    'random3_p2': '-0x1.fba03f289a34cp-1',
    'random3_p3': '0x1.1e36ab3d99a39p-1',
    'random4_p1': '0x1.9113e0feba6c3p-1',
    'random4_p2': '0x1.45eba9ccedf00p+0',
    'random4_p3': '0x1.81be3646b8b62p-1',
    'random5_p1': '0x1.8ad5e2b6c4b05p-2',
    'random5_p2': '0x1.d1cc5412c20f8p-4',
    'random5_p3': '0x1.e8a6d8aea4239p-4',
    'k10_p1': '0x1.3020bcfb7fe00p-4',
    'k10_p2': '-0x1.f9d46759793c0p-5',
    'ring12_p1': '-0x1.2f1617d5531cep-4',
    'ring12_p2': '0x1.8a795fd983897p-3',
}

# optimize(demo6, p=2, grid_size=8): evaluations,
# energy as float.hex, trace digest.
OPTIMIZE_DEMO6_P2 = (410, '-0x1.e23de4152c68ap+0', '2c9e263982527138')


@pytest.mark.parametrize("name", list(CASES))
def test_expectation_matches_golden(name):
    g, params = CASES[name]
    assert float(expectation_decomposed(g, params)).hex() == EXPECTATIONS[name]


def test_optimize_trace_matches_golden(demo6_graph):
    r = optimize(demo6_graph, p=2, grid_size=8)
    assert (r.evaluations, float(r.energy).hex(), _digest(r)) == OPTIMIZE_DEMO6_P2

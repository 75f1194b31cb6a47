"""Golden ``compile_graph`` output, pinned by the digest of its QASM text.

Every cell of the ``run_bench`` grid (n in {10, 20, 30, 40, 100}, d from 0.2
to 1.0, p in {1, 2, 3}, rep 0, seed 0) is compiled on the identity chain,
and six seeded weighted graphs with node fields on a shuffled chain of
non-contiguous qubit ids.  The SHA-256 of ``emit(pc)`` covers every gate,
angle, cycle order, the register size and the measurement layout, so a
change to how ``compile_graph`` builds its circuit must reproduce the
emitted text byte for byte.
"""

import hashlib

import numpy as np
import pytest

from quchain import QaoaParams, compile_graph, emit
from quchain.bench import random_weight_graph

from conftest import random_graph, random_qaoa_params

SIZES = (10, 20, 30, 40, 100)
DENSITIES = (0.2, 0.4, 0.6, 0.8, 1.0)
DEPTHS = (1, 2, 3)

# (n, d, p) -> digest of the emitted QASM, run_bench's graph and angles
GRID = {
    (10, 0.2, 1): '4b55ce0fa2c9bc0b',
    (10, 0.2, 2): '0092f12e883e2bd6',
    (10, 0.2, 3): '7a5feb3424e70d6b',
    (10, 0.4, 1): '8888812363da218b',
    (10, 0.4, 2): '099435210c806966',
    (10, 0.4, 3): 'adaf5a6b301967ab',
    (10, 0.6, 1): '1b57eb0efc1a0af8',
    (10, 0.6, 2): '43c3d4f1c0a0f0d4',
    (10, 0.6, 3): '0868f657fd4c31db',
    (10, 0.8, 1): 'ad22997b3f625c38',
    (10, 0.8, 2): '7c9562615331d685',
    (10, 0.8, 3): '7f3b60af89f9d92e',
    (10, 1.0, 1): '4099b7a15a31a626',
    (10, 1.0, 2): '66a1008d92607aea',
    (10, 1.0, 3): '2670afa94e6d39bc',
    (20, 0.2, 1): '3ec9c343f8a97b02',
    (20, 0.2, 2): '8084263c311f7aa1',
    (20, 0.2, 3): '3506c07f99699a68',
    (20, 0.4, 1): '659023203b1d112c',
    (20, 0.4, 2): 'ae1c7283f4a3f9e1',
    (20, 0.4, 3): 'de37e75bb26f4bd6',
    (20, 0.6, 1): 'a725a528b35d3e21',
    (20, 0.6, 2): 'b02c80b73a41f0b2',
    (20, 0.6, 3): '8842c2a8d16850ce',
    (20, 0.8, 1): '192d3f315b2be660',
    (20, 0.8, 2): 'bcc9025c71b64fb4',
    (20, 0.8, 3): 'a79c61824b677fb3',
    (20, 1.0, 1): '770329b1587d7ff2',
    (20, 1.0, 2): 'ad5829874c096de2',
    (20, 1.0, 3): '8c0d0715ca4e0de9',
    (30, 0.2, 1): '1c2396f79d99f562',
    (30, 0.2, 2): '79f69dbf2fcb4cf6',
    (30, 0.2, 3): 'd4a74841c21bd2aa',
    (30, 0.4, 1): '700bee9c4cfdb46a',
    (30, 0.4, 2): '6234c3eb24a9f479',
    (30, 0.4, 3): '6bc6674eb4b6c0b1',
    (30, 0.6, 1): 'abddbc901d3288f7',
    (30, 0.6, 2): '2fbe12e3ffb5476e',
    (30, 0.6, 3): 'e4ad7ae92f5fb794',
    (30, 0.8, 1): '171d21573923952a',
    (30, 0.8, 2): 'da70af4c3a0593e5',
    (30, 0.8, 3): 'b512812dc501f0bf',
    (30, 1.0, 1): '4b8ea087628a37c9',
    (30, 1.0, 2): '21e8adbfcc2fd2a6',
    (30, 1.0, 3): 'f6363db56e180763',
    (40, 0.2, 1): 'a57ea840559d3fe8',
    (40, 0.2, 2): 'e2451458fcc3df3a',
    (40, 0.2, 3): '147a94ab90627fae',
    (40, 0.4, 1): '43253bd27eeeffeb',
    (40, 0.4, 2): 'fba6fd943fb403bf',
    (40, 0.4, 3): 'd69250a2c0565463',
    (40, 0.6, 1): '8526a98a038afccf',
    (40, 0.6, 2): '7ccd54c990bf5aeb',
    (40, 0.6, 3): '8a618b0f390b97e4',
    (40, 0.8, 1): '13f16121e87e0980',
    (40, 0.8, 2): 'f4fc6ce2e978eafd',
    (40, 0.8, 3): 'a08f0369becc6517',
    (40, 1.0, 1): 'b0656b7fbd2053ed',
    (40, 1.0, 2): '0baddb13efe9a431',
    (40, 1.0, 3): '49bc11fa12e280ec',
    (100, 0.2, 1): '7abc2d6f366f89c2',
    (100, 0.2, 2): 'd777b1b7e999d65f',
    (100, 0.2, 3): '5dea91382d3475ad',
    (100, 0.4, 1): '4ab652ee889d75e3',
    (100, 0.4, 2): '04cb4abeba48a5ae',
    (100, 0.4, 3): '5724266fdc751620',
    (100, 0.6, 1): '64edd7c5b4bc0680',
    (100, 0.6, 2): '719da0015b05ef01',
    (100, 0.6, 3): 'ca834d2d3781621b',
    (100, 0.8, 1): 'fce7b8f55c41204f',
    (100, 0.8, 2): '018dc1a5b8fa6a55',
    (100, 0.8, 3): '1021f1bc631ca6fc',
    (100, 1.0, 1): '76de35ac4e6a71d6',
    (100, 1.0, 2): '345925c1f1d9ec1c',
    (100, 1.0, 3): 'f85d43648b51c352',
}

# seed -> digest of the emitted QASM of a seeded graph with fields
FIELDS = {
    0: 'bd1b1a8ec33c2d84',
    1: '307f73695ab9900d',
    2: '26f854939dacd6e1',
    3: '07fd15be4e3f9658',
    4: '31d6e1c80492fc92',
    5: 'db452e92b0252530',
}


def digest(pc) -> str:
    return hashlib.sha256(emit(pc).encode()).hexdigest()[:16]


def grid_case(n: int, d: float, p: int):
    """The graph and angles ``run_bench(seed=0)`` compiles for rep 0."""
    g = random_weight_graph(n, d, [0, n, int(round(d * 1000)), p, 0])
    return g, QaoaParams(gamma=(0.5,) * p, beta=(0.3,) * p)


def fields_case(seed: int):
    """A weighted graph with node fields, its angles and a shuffled chain."""
    rng = np.random.default_rng([8, seed])
    g = random_graph(rng, 5, 30)
    params = random_qaoa_params(rng, int(rng.integers(1, 4)))
    chain = tuple(int(q) for q in rng.choice(3 * g.n, size=g.n, replace=False))
    return g, params, chain


@pytest.mark.parametrize("cell", list(GRID), ids=lambda c: "n{}-d{}-p{}".format(*c))
def test_grid_cell_matches_golden(cell):
    g, params = grid_case(*cell)
    assert digest(compile_graph(g, params)) == GRID[cell]


@pytest.mark.parametrize("seed", list(FIELDS))
def test_fields_on_shuffled_chain_match_golden(seed):
    g, params, chain = fields_case(seed)
    assert digest(compile_graph(g, params, chain=chain)) == FIELDS[seed]

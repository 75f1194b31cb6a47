"""Golden results of ``optimize`` on demo6, pinned bit for bit.

The values were recorded from the recursive optimizer that the flat stage
list replaced; every run must reproduce its evaluation count, convergence
flag, parameters, energy and trace exactly.  ``evaluator="full"`` keeps these
runs fast; the stage sequencing under test does not depend on the route.
"""

import hashlib

import pytest

from quchain import optimize

# (method, init, p, max_evals) -> (evaluations, converged, params as float.hex,
# energy as float.hex, trace length, trace digest), or ("ValueError", message).
GOLDEN = {
    ('grid', None, 1, 20000): (64, True, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a2p+0', 64, 'a48aff40d576abff'),
    ('grid', None, 2, 20000): (65, True, ('0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0'), '-0x1.4d92760d57b68p+0', 65, 'be488a5c1ed9574d'),
    ('grid', None, 3, 20000): (66, True, ('0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0'), '-0x1.79f1ccb2f5c14p+0', 66, '9d36371be5760497'),
    ('grid', 'interp', 1, 20000): (64, True, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a2p+0', 64, 'a48aff40d576abff'),
    ('grid', 'interp', 2, 20000): (65, True, ('0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0'), '-0x1.4d92760d57b68p+0', 65, 'be488a5c1ed9574d'),
    ('grid', 'interp', 3, 20000): (66, True, ('0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0'), '-0x1.79f1ccb2f5c14p+0', 66, '9d36371be5760497'),
    ('grid', 'random', 1, 20000): (65, True, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a2p+0', 65, 'd2a46808acb230c3'),
    ('grid', 'random', 2, 20000): (1, True, ('0x1.138857c684f2bp-2', '0x1.7ce89b4ca8012p-1', '0x1.42362a2559ae4p+0', '0x1.d433d65ec200ap-1'), '-0x1.5c99f9b43e4edp-3', 1, '1e649ca4d75bec86'),
    ('grid', 'random', 3, 20000): (1, True, ('0x1.138857c684f2bp-2', '0x1.7ce89b4ca8012p-1', '0x1.42362a2559ae4p+1', '0x1.d433d65ec200ap-1', '0x1.2ecf9c9b4cf96p-3', '0x1.5c5762f7747aap-1'), '0x1.db0e6e85f111cp-4', 1, 'fe3dbc2c15f747d8'),
    ('simplex', None, 1, 20000): (129, True, ('-0x1.4c6a329cf87ebp-1', '0x1.6f7fb92a656c4p-2'), '-0x1.4e58d4eb8b504p+0', 129, '1f14370648b0e581'),
    ('simplex', None, 2, 20000): (446, True, ('-0x1.2ea538c171c37p-1', '-0x1.0663708cf52edp+0', '0x1.03eb244af9953p-1', '0x1.325b5442371cep-2'), '-0x1.e23de4152c683p+0', 446, '9b5df3916b15cf29'),
    ('simplex', None, 3, 20000): (924, True, ('-0x1.f4f16b98b4e78p-2', '-0x1.f079213c84b15p-1', '-0x1.0a18ccd09339dp+0', '0x1.0f797f26fcbecp-1', '0x1.a3576fda5aec2p-2', '0x1.e103f0746aedap-3'), '-0x1.1bbb8a6140fb5p+1', 924, '6a98585265d8960d'),
    ('simplex', 'interp', 1, 20000): (129, True, ('-0x1.4c6a329cf87ebp-1', '0x1.6f7fb92a656c4p-2'), '-0x1.4e58d4eb8b504p+0', 129, '1f14370648b0e581'),
    ('simplex', 'interp', 2, 20000): (446, True, ('-0x1.2ea538c171c37p-1', '-0x1.0663708cf52edp+0', '0x1.03eb244af9953p-1', '0x1.325b5442371cep-2'), '-0x1.e23de4152c683p+0', 446, '9b5df3916b15cf29'),
    ('simplex', 'interp', 3, 20000): (924, True, ('-0x1.f4f16b98b4e78p-2', '-0x1.f079213c84b15p-1', '-0x1.0a18ccd09339dp+0', '0x1.0f797f26fcbecp-1', '0x1.a3576fda5aec2p-2', '0x1.e103f0746aedap-3'), '-0x1.1bbb8a6140fb5p+1', 924, '6a98585265d8960d'),
    ('simplex', 'random', 1, 20000): (130, True, ('-0x1.4c6a329cf87ebp-1', '0x1.6f7fb92a656c4p-2'), '-0x1.4e58d4eb8b504p+0', 130, '51b59aefee430c72'),
    ('simplex', 'random', 2, 20000): (337, True, ('0x1.2ea538ce6519dp-1', '0x1.0663707367396p+0', '0x1.102a230f77ab2p+0', '0x1.4588e03c9ec0cp+0'), '-0x1.e23de4152c684p+0', 337, '2b240d91be3c9c0f'),
    ('simplex', 'random', 3, 20000): (1302, True, ('0x1.a9710901c3ad2p-1', '-0x1.7a42b6e0707e2p-2', '0x1.64d5e637ac19fp+0', '0x1.d7cc60eebdf8ep-2', '0x1.35f8bcf3a7e38p-1', '-0x1.186fc76dbe6efp-2'), '-0x1.0d441fac03230p+1', 1302, '8f668223cc719856'),
    ('grid+simplex', None, 1, 20000): (175, True, ('0x1.4c6a32ccfa285p-1', '0x1.363fc6f834242p+0'), '-0x1.4e58d4eb8b506p+0', 175, 'f3058804e8d95416'),
    ('grid+simplex', None, 2, 20000): (475, True, ('0x1.2ea538ef7ae87p-1', '0x1.0663708e5de68p+0', '0x1.102a23197dec0p+0', '0x1.4588e03530b4fp+0'), '-0x1.e23de4152c684p+0', 475, 'c542fd63d21925a2'),
    ('grid+simplex', None, 3, 20000): (1006, True, ('0x1.f4f16ae9ebb7dp-2', '0x1.f079213ab68f4p-1', '0x1.0a18ccd275661p+0', '0x1.0a62f5b94a88dp+0', '0x1.2949d93cfa25dp+0', '0x1.55ff37331adb2p+0'), '-0x1.1bbb8a6140fb5p+1', 1006, 'c96397ad705008c9'),
    ('grid+simplex', 'interp', 1, 20000): (175, True, ('0x1.4c6a32ccfa285p-1', '0x1.363fc6f834242p+0'), '-0x1.4e58d4eb8b506p+0', 175, 'f3058804e8d95416'),
    ('grid+simplex', 'interp', 2, 20000): (475, True, ('0x1.2ea538ef7ae87p-1', '0x1.0663708e5de68p+0', '0x1.102a23197dec0p+0', '0x1.4588e03530b4fp+0'), '-0x1.e23de4152c684p+0', 475, 'c542fd63d21925a2'),
    ('grid+simplex', 'interp', 3, 20000): (1006, True, ('0x1.f4f16ae9ebb7dp-2', '0x1.f079213ab68f4p-1', '0x1.0a18ccd275661p+0', '0x1.0a62f5b94a88dp+0', '0x1.2949d93cfa25dp+0', '0x1.55ff37331adb2p+0'), '-0x1.1bbb8a6140fb5p+1', 1006, 'c96397ad705008c9'),
    ('grid+simplex', 'random', 1, 20000): (176, True, ('0x1.4c6a32ccfa285p-1', '0x1.363fc6f834242p+0'), '-0x1.4e58d4eb8b506p+0', 176, '882e05c0f3c8e9b3'),
    ('grid+simplex', 'random', 2, 20000): (337, True, ('0x1.2ea538ce6519dp-1', '0x1.0663707367396p+0', '0x1.102a230f77ab2p+0', '0x1.4588e03c9ec0cp+0'), '-0x1.e23de4152c684p+0', 337, '2b240d91be3c9c0f'),
    ('grid+simplex', 'random', 3, 20000): (1302, True, ('0x1.a9710901c3ad2p-1', '-0x1.7a42b6e0707e2p-2', '0x1.64d5e637ac19fp+0', '0x1.d7cc60eebdf8ep-2', '0x1.35f8bcf3a7e38p-1', '-0x1.186fc76dbe6efp-2'), '-0x1.0d441fac03230p+1', 1302, '8f668223cc719856'),
    ('grid+simplex', None, 1, 50): (50, False, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a2p+0', 50, '1d528f6c55a2ae5f'),
    ('grid+simplex', 'interp', 2, 300): (300, False, ('0x1.2e68ad8252971p-1', '0x1.06519681e63f6p+0', '0x1.100b252310b56p+0', '0x1.459a725ce2236p+0'), '-0x1.e23d9e81581eap+0', 300, 'ac488e05028928ab'),
    ('grid+simplex', 'interp', 3, 800): (800, False, ('0x1.f4f34d61c2e2ap-2', '0x1.f07a866e77decp-1', '0x1.0a17e158e98d4p+0', '0x1.0a62f7b5d4481p+0', '0x1.2949ca097395ep+0', '0x1.55ff163fa0f1ep+0'), '-0x1.1bbb8a5f04b2cp+1', 800, '49bf08b12389a7c7'),
    ('grid', None, 1, 64): (64, True, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a2p+0', 64, 'a48aff40d576abff'),
    ('grid', None, 2, 64): ('ValueError', 'optimizer made no depth-p evaluations; increase max_evals'),
    ('grid+simplex', 'interp', 3, 150): ('ValueError', 'optimizer made no depth-p evaluations; increase max_evals'),
}


def _digest(result) -> str:
    h = hashlib.sha256()
    for params, e in result.trace:
        h.update(" ".join(float(x).hex() for x in (*params.flat(), e)).encode() + b"\n")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN, key=repr), ids=repr)
def test_optimize_matches_golden(demo6_graph, case):
    method, init, p, max_evals = case
    want = GOLDEN[case]
    kwargs = dict(
        p=p, method=method, init=init, seed=3, grid_size=8,
        max_evals=max_evals, evaluator="full",
    )
    if want[0] == "ValueError":
        with pytest.raises(ValueError, match=want[1]):
            optimize(demo6_graph, **kwargs)
        return
    r = optimize(demo6_graph, **kwargs)
    got = (
        r.evaluations,
        r.converged,
        tuple(float(x).hex() for x in r.params.flat()),
        float(r.energy).hex(),
        len(r.trace),
        _digest(r),
    )
    assert got == want

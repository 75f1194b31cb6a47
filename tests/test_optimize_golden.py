"""Golden results of ``optimize`` on demo6, pinned bit for bit.

Every run must reproduce its evaluation count, convergence flag,
parameters, energy and trace exactly.  The values were recorded on the
light-cone route, the one ``optimize`` evaluates with; the stage sequencing
under test does not depend on how each expectation is computed.  demo6's
cones cost more than its whole register at p=1 and p=2, so those depths
evaluate one whole-graph cone; the cases that moved when ``decompose``
gained that rule were re-recorded, every energy within 1e-10 of the old.
"""

import hashlib

import pytest

from quchain import optimize

# (method, init, p, max_evals) -> (evaluations, converged, params as float.hex,
# energy as float.hex, trace length, trace digest), or ("ValueError", message).
GOLDEN = {
    ('grid', None, 1, 20000): (64, True, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a2p+0', 64, 'e287d411563f3002'),
    ('grid', None, 2, 20000): (65, True, ('0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0'), '-0x1.4d92760d57b67p+0', 65, '95ebcc8ce672e456'),
    ('grid', None, 3, 20000): (66, True, ('0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0'), '-0x1.79f1ccb2f5c18p+0', 66, '0b896716bced2147'),
    ('grid', 'random', 1, 20000): (65, True, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a2p+0', 65, 'da32620a1e1e824c'),
    ('grid', 'random', 2, 20000): (1, True, ('0x1.138857c684f2bp-2', '0x1.7ce89b4ca8012p-1', '0x1.42362a2559ae4p+0', '0x1.d433d65ec200ap-1'), '-0x1.5c99f9b43e4e5p-3', 1, '0b3f03c51dba4f13'),
    ('grid', 'random', 3, 20000): (1, True, ('0x1.138857c684f2bp-2', '0x1.7ce89b4ca8012p-1', '0x1.42362a2559ae4p+1', '0x1.d433d65ec200ap-1', '0x1.2ecf9c9b4cf96p-3', '0x1.5c5762f7747aap-1'), '0x1.db0e6e85f111dp-4', 1, '80f9764f5c8361ec'),
    ('simplex', None, 1, 20000): (134, True, ('-0x1.4c6a329cf87ebp-1', '0x1.6f7fb92a656c4p-2'), '-0x1.4e58d4eb8b508p+0', 134, '7cea84441330046c'),
    ('simplex', None, 2, 20000): (458, True, ('-0x1.2ea53885fda9ap-1', '-0x1.066370973952fp+0', '0x1.03eb249493b27p-1', '0x1.325b547d309c0p-2'), '-0x1.e23de4152c687p+0', 458, '458e8f4b0300473c'),
    ('simplex', None, 3, 20000): (942, True, ('-0x1.f4f16a8ac49ccp-2', '-0x1.f079217a44db6p-1', '-0x1.0a18cccbe5c71p+0', '0x1.0f797f4c50cc1p-1', '0x1.a35770603163ap-2', '0x1.e103f0f4d43c5p-3'), '-0x1.1bbb8a6140fb7p+1', 942, '2b6a881a8e5d54b4'),
    ('simplex', 'random', 1, 20000): (135, True, ('-0x1.4c6a329cf87ebp-1', '0x1.6f7fb92a656c4p-2'), '-0x1.4e58d4eb8b508p+0', 135, '166771786a260008'),
    ('simplex', 'random', 2, 20000): (322, True, ('0x1.2ea5394577f76p-1', '0x1.066370818a8d7p+0', '0x1.102a22d3479cap+0', '0x1.4588e04079751p+0'), '-0x1.e23de4152c67cp+0', 322, '624e43d371447a04'),
    ('simplex', 'random', 3, 20000): (1279, True, ('0x1.a9710789e02fcp-1', '-0x1.7a42b6f6ce430p-2', '0x1.64d5e64e1ad6dp+0', '0x1.d7cc633070b22p-2', '0x1.35f8bbdcd311ep-1', '-0x1.186fc7575d9fdp-2'), '-0x1.0d441fac03229p+1', 1279, '678e576ee925bb4b'),
    ('grid+simplex', None, 1, 20000): (173, True, ('0x1.4c6a3305f8770p-1', '0x1.363fc6cd25346p+0'), '-0x1.4e58d4eb8b506p+0', 173, 'c32d088da67b4c18'),
    ('grid+simplex', None, 2, 20000): (466, True, ('0x1.2ea538f95232cp-1', '0x1.0663706f39e4fp+0', '0x1.102a231829152p+0', '0x1.4588e0422c63ap+0'), '-0x1.e23de4152c687p+0', 466, '8f78b3a2bdad3769'),
    ('grid+simplex', None, 3, 20000): (984, True, ('0x1.f4f16bbfb7e48p-2', '0x1.f079213c2ec2ap-1', '0x1.0a18cceb750a0p+0', '0x1.0a62f5bc5954cp+0', '0x1.2949d95759154p+0', '0x1.55ff375436224p+0'), '-0x1.1bbb8a6140fb6p+1', 984, 'e70f4a3d92310b23'),
    ('grid+simplex', 'random', 1, 20000): (174, True, ('0x1.4c6a3305f8770p-1', '0x1.363fc6cd25346p+0'), '-0x1.4e58d4eb8b506p+0', 174, '4b81f0dee91eea5b'),
    ('grid+simplex', 'random', 2, 20000): (322, True, ('0x1.2ea5394577f76p-1', '0x1.066370818a8d7p+0', '0x1.102a22d3479cap+0', '0x1.4588e04079751p+0'), '-0x1.e23de4152c67cp+0', 322, '624e43d371447a04'),
    ('grid+simplex', 'random', 3, 20000): (1279, True, ('0x1.a9710789e02fcp-1', '-0x1.7a42b6f6ce430p-2', '0x1.64d5e64e1ad6dp+0', '0x1.d7cc633070b22p-2', '0x1.35f8bbdcd311ep-1', '-0x1.186fc7575d9fdp-2'), '-0x1.0d441fac03229p+1', 1279, '678e576ee925bb4b'),
    ('grid+simplex', None, 1, 50): (50, False, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a2p+0', 50, '6d8905f8469cee42'),
    ('grid+simplex', None, 2, 300): (300, False, ('0x1.2e68adb62bdfdp-1', '0x1.065196aedfe98p+0', '0x1.100b24fd4f2fcp+0', '0x1.459a722fb1aafp+0'), '-0x1.e23d9e8168490p+0', 300, '2fce000fe595fb9f'),
    ('grid+simplex', None, 3, 800): (800, False, ('0x1.f4f071d3e830ep-2', '0x1.f078cdd2db372p-1', '0x1.0a181c21c39ecp+0', '0x1.0a62bcf3842eep+0', '0x1.2949ab461ce1ep+0', '0x1.55ff4adaa1261p+0'), '-0x1.1bbb8a602fe23p+1', 800, '6a792f9c70f97eec'),
    ('grid', None, 1, 64): (64, True, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a2p+0', 64, 'e287d411563f3002'),
    ('grid', None, 2, 64): ('ValueError', 'optimizer made no depth-p evaluations; increase max_evals'),
    ('grid+simplex', None, 3, 150): ('ValueError', 'optimizer made no depth-p evaluations; increase max_evals'),
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
        max_evals=max_evals,
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

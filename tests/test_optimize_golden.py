"""Golden results of ``optimize`` on demo6, pinned bit for bit.

Every run must reproduce its evaluation count, convergence flag,
parameters, energy and trace exactly.  The values were recorded on the
light-cone route, the one ``optimize`` evaluates with; the stage sequencing
under test does not depend on how each expectation is computed.
"""

import hashlib

import pytest

from quchain import optimize

# (method, init, p, max_evals) -> (evaluations, converged, params as float.hex,
# energy as float.hex, trace length, trace digest), or ("ValueError", message).
GOLDEN = {
    ('grid', None, 1, 20000): (64, True, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a4p+0', 64, 'a4b37eaa760513bf'),
    ('grid', None, 2, 20000): (65, True, ('0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0'), '-0x1.4d92760d57b68p+0', 65, '0d02725bc5aae5a7'),
    ('grid', None, 3, 20000): (66, True, ('0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0'), '-0x1.79f1ccb2f5c18p+0', 66, '501b4086decedd84'),
    ('grid', 'interp', 1, 20000): (64, True, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a4p+0', 64, 'a4b37eaa760513bf'),
    ('grid', 'interp', 2, 20000): (65, True, ('0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0'), '-0x1.4d92760d57b68p+0', 65, '0d02725bc5aae5a7'),
    ('grid', 'interp', 3, 20000): (66, True, ('0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0', '0x1.2d97c7f3321d2p+0'), '-0x1.79f1ccb2f5c18p+0', 66, '501b4086decedd84'),
    ('grid', 'random', 1, 20000): (65, True, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a4p+0', 65, '197665ea8eb44b3d'),
    ('grid', 'random', 2, 20000): (1, True, ('0x1.138857c684f2bp-2', '0x1.7ce89b4ca8012p-1', '0x1.42362a2559ae4p+0', '0x1.d433d65ec200ap-1'), '-0x1.5c99f9b43e4e6p-3', 1, 'f0485778c67b4c2a'),
    ('grid', 'random', 3, 20000): (1, True, ('0x1.138857c684f2bp-2', '0x1.7ce89b4ca8012p-1', '0x1.42362a2559ae4p+1', '0x1.d433d65ec200ap-1', '0x1.2ecf9c9b4cf96p-3', '0x1.5c5762f7747aap-1'), '0x1.db0e6e85f111dp-4', 1, '80f9764f5c8361ec'),
    ('simplex', None, 1, 20000): (130, True, ('-0x1.4c6a32f05615ap-1', '0x1.6f7fb9c80e67ap-2'), '-0x1.4e58d4eb8b508p+0', 130, 'cfd9160584236c33'),
    ('simplex', None, 2, 20000): (445, True, ('-0x1.2ea538ed18e58p-1', '-0x1.0663708633560p+0', '0x1.03eb24758fe54p-1', '0x1.325b5440c6244p-2'), '-0x1.e23de4152c68bp+0', 445, 'b5ca804de96bafee'),
    ('simplex', None, 3, 20000): (915, True, ('-0x1.f4f16ca46a8cep-2', '-0x1.f0792202c8de2p-1', '-0x1.0a18ccb80ab3ap+0', '0x1.0f797ed776049p-1', '0x1.a3576f6b6f8b9p-2', '0x1.e103ef407d0bfp-3'), '-0x1.1bbb8a6140fb2p+1', 915, '85b8f803f008299e'),
    ('simplex', 'interp', 1, 20000): (130, True, ('-0x1.4c6a32f05615ap-1', '0x1.6f7fb9c80e67ap-2'), '-0x1.4e58d4eb8b508p+0', 130, 'cfd9160584236c33'),
    ('simplex', 'interp', 2, 20000): (445, True, ('-0x1.2ea538ed18e58p-1', '-0x1.0663708633560p+0', '0x1.03eb24758fe54p-1', '0x1.325b5440c6244p-2'), '-0x1.e23de4152c68bp+0', 445, 'b5ca804de96bafee'),
    ('simplex', 'interp', 3, 20000): (915, True, ('-0x1.f4f16ca46a8cep-2', '-0x1.f0792202c8de2p-1', '-0x1.0a18ccb80ab3ap+0', '0x1.0f797ed776049p-1', '0x1.a3576f6b6f8b9p-2', '0x1.e103ef407d0bfp-3'), '-0x1.1bbb8a6140fb2p+1', 915, '85b8f803f008299e'),
    ('simplex', 'random', 1, 20000): (131, True, ('-0x1.4c6a32f05615ap-1', '0x1.6f7fb9c80e67ap-2'), '-0x1.4e58d4eb8b508p+0', 131, '505a8e5b36072b66'),
    ('simplex', 'random', 2, 20000): (322, True, ('0x1.2ea539ca20971p-1', '0x1.0663707d75feap+0', '0x1.102a22f8a39cap+0', '0x1.4588e02b678e8p+0'), '-0x1.e23de4152c67ap+0', 322, '6d8af81ebb47906e'),
    ('simplex', 'random', 3, 20000): (1279, True, ('0x1.a9710789e02fcp-1', '-0x1.7a42b6f6ce430p-2', '0x1.64d5e64e1ad6dp+0', '0x1.d7cc633070b22p-2', '0x1.35f8bbdcd311ep-1', '-0x1.186fc7575d9fdp-2'), '-0x1.0d441fac03229p+1', 1279, '678e576ee925bb4b'),
    ('grid+simplex', None, 1, 20000): (173, True, ('0x1.4c6a3305f8770p-1', '0x1.363fc6cd25346p+0'), '-0x1.4e58d4eb8b506p+0', 173, '21683bbc0c7da6f8'),
    ('grid+simplex', None, 2, 20000): (472, True, ('0x1.2ea5391dc97bep-1', '0x1.0663707fb556cp+0', '0x1.102a2332e329ep+0', '0x1.4588e05c0a9abp+0'), '-0x1.e23de4152c688p+0', 472, 'ee54bf0c11f721a5'),
    ('grid+simplex', None, 3, 20000): (998, True, ('0x1.f4f16a094a712p-2', '0x1.f0792098f4a27p-1', '0x1.0a18cca0a0ad0p+0', '0x1.0a62f5bd41b4cp+0', '0x1.2949d9465dc7cp+0', '0x1.55ff37528a660p+0'), '-0x1.1bbb8a6140fb7p+1', 998, '3f46f267d5623aac'),
    ('grid+simplex', 'interp', 1, 20000): (173, True, ('0x1.4c6a3305f8770p-1', '0x1.363fc6cd25346p+0'), '-0x1.4e58d4eb8b506p+0', 173, '21683bbc0c7da6f8'),
    ('grid+simplex', 'interp', 2, 20000): (472, True, ('0x1.2ea5391dc97bep-1', '0x1.0663707fb556cp+0', '0x1.102a2332e329ep+0', '0x1.4588e05c0a9abp+0'), '-0x1.e23de4152c688p+0', 472, 'ee54bf0c11f721a5'),
    ('grid+simplex', 'interp', 3, 20000): (998, True, ('0x1.f4f16a094a712p-2', '0x1.f0792098f4a27p-1', '0x1.0a18cca0a0ad0p+0', '0x1.0a62f5bd41b4cp+0', '0x1.2949d9465dc7cp+0', '0x1.55ff37528a660p+0'), '-0x1.1bbb8a6140fb7p+1', 998, '3f46f267d5623aac'),
    ('grid+simplex', 'random', 1, 20000): (174, True, ('0x1.4c6a3305f8770p-1', '0x1.363fc6cd25346p+0'), '-0x1.4e58d4eb8b506p+0', 174, '07d0f60c1efb0492'),
    ('grid+simplex', 'random', 2, 20000): (322, True, ('0x1.2ea539ca20971p-1', '0x1.0663707d75feap+0', '0x1.102a22f8a39cap+0', '0x1.4588e02b678e8p+0'), '-0x1.e23de4152c67ap+0', 322, '6d8af81ebb47906e'),
    ('grid+simplex', 'random', 3, 20000): (1279, True, ('0x1.a9710789e02fcp-1', '-0x1.7a42b6f6ce430p-2', '0x1.64d5e64e1ad6dp+0', '0x1.d7cc633070b22p-2', '0x1.35f8bbdcd311ep-1', '-0x1.186fc7575d9fdp-2'), '-0x1.0d441fac03229p+1', 1279, '678e576ee925bb4b'),
    ('grid+simplex', None, 1, 50): (50, False, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a4p+0', 50, 'e272cf55d5fbd0e2'),
    ('grid+simplex', 'interp', 2, 300): (300, False, ('0x1.2e68adb62bdfdp-1', '0x1.065196aedfe98p+0', '0x1.100b24fd4f2fcp+0', '0x1.459a722fb1aafp+0'), '-0x1.e23d9e816848ep+0', 300, '759c923299866f45'),
    ('grid+simplex', 'interp', 3, 800): (800, False, ('0x1.f4efc7d885b7cp-2', '0x1.f0779bdd1599dp-1', '0x1.0a18a4e2d62f8p+0', '0x1.0a62ff46a084bp+0', '0x1.2949d70762efap+0', '0x1.55fed976397ebp+0'), '-0x1.1bbb8a6004a5ap+1', 800, 'e7e9433889d04a7b'),
    ('grid', None, 1, 64): (64, True, ('0x1.921fb54442d18p-1', '0x1.2d97c7f3321d2p+0'), '-0x1.3ba5919a791a4p+0', 64, 'a4b37eaa760513bf'),
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

"""Golden results of ``optimize`` on demo6, pinned bit for bit.

Every run must reproduce its evaluation count, convergence flag,
parameters, energy and trace exactly.  The values were recorded on the
light-cone route, the one ``optimize`` evaluates with; the stage sequencing
under test does not depend on how each expectation is computed.  demo6's
cones cost more than its whole register at p=1 and p=2, so those depths
evaluate one whole-graph cone; the cases that moved when ``decompose``
gained that rule were re-recorded, every energy within 1e-10 of the old.
The ``grid+simplex`` cases were re-recorded again when the p=1 grid became
exact beta lines.  ``grid+simplex`` is the one route ``optimize`` has; the
``grid`` (scan only) and ``simplex`` (Nelder-Mead from a random point) routes
were removed, as no caller ran them.  Their recorded results went with them,
and each of their former cases now pins that the method is rejected.
"""

import hashlib

import pytest

from quchain import optimize

# (method, init, p, max_evals) -> (evaluations, converged, params as float.hex,
# energy as float.hex, trace length, trace digest), or ("ValueError", message).
GOLDEN = {
    ('grid+simplex', None, 1, 20000): (108, True, ('0x1.4c6a32a6a24f9p-1', '0x1.363fc6ea308aap+0'), '-0x1.4e58d4eb8b503p+0', 108, 'e255b9fac8e8fbaa'),
    ('grid+simplex', None, 2, 20000): (410, True, ('0x1.2ea538f4f59dcp-1', '0x1.06637081f8c5cp+0', '0x1.102a232a19b46p+0', '0x1.4588e052fc286p+0'), '-0x1.e23de4152c68ap+0', 410, '2c9e263982527138'),
    ('grid+simplex', None, 3, 20000): (937, True, ('0x1.f4f16b6724568p-2', '0x1.f07921379bcd4p-1', '0x1.0a18cd4489d2cp+0', '0x1.0a62f593495f2p+0', '0x1.2949d9331e44fp+0', '0x1.55ff375e8c5f9p+0'), '-0x1.1bbb8a6140fb8p+1', 937, 'c42a7ccd05cf253c'),
    ('grid+simplex', 'random', 1, 20000): (109, True, ('0x1.4c6a32a6a24f9p-1', '0x1.363fc6ea308aap+0'), '-0x1.4e58d4eb8b503p+0', 109, '6c8423cbbbc13ce2'),
    ('grid+simplex', 'random', 2, 20000): (322, True, ('0x1.2ea5394577f76p-1', '0x1.066370818a8d7p+0', '0x1.102a22d3479cap+0', '0x1.4588e04079751p+0'), '-0x1.e23de4152c67cp+0', 322, '624e43d371447a04'),
    ('grid+simplex', 'random', 3, 20000): (1279, True, ('0x1.a9710789e02fcp-1', '-0x1.7a42b6f6ce430p-2', '0x1.64d5e64e1ad6dp+0', '0x1.d7cc633070b22p-2', '0x1.35f8bbdcd311ep-1', '-0x1.186fc7575d9fdp-2'), '-0x1.0d441fac03229p+1', 1279, '678e576ee925bb4b'),
    ('grid+simplex', None, 1, 50): (50, False, ('0x1.4c6a32a6a24f9p-1', '0x1.363fc6ea308aap+0'), '-0x1.4e58d4eb8b503p+0', 50, '3502327b6403a59f'),
    ('grid+simplex', None, 2, 300): (300, False, ('0x1.2ea5026056cafp-1', '0x1.06626df3ee3f8p+0', '0x1.1029cf61f6af6p+0', '0x1.4588910c79bacp+0'), '-0x1.e23de4116747ap+0', 300, 'aba1a607c47c1f09'),
    ('grid+simplex', None, 3, 800): (800, False, ('0x1.f4f18e9dda80cp-2', '0x1.f0792d05cee18p-1', '0x1.0a18cbed8d930p+0', '0x1.0a62f1c32b67cp+0', '0x1.2949dfc3bd750p+0', '0x1.55ff41c2776aep+0'), '-0x1.1bbb8a613e415p+1', 800, 'dc3475c19e4b36cd'),
    ('grid+simplex', None, 3, 150): ('ValueError', 'optimizer made no depth-p evaluations; increase max_evals'),
}
REMOVED = [(method, init, p, 20000) for method in ("grid", "simplex")
           for init in (None, "random") for p in (1, 2, 3)]
REMOVED += [("grid", None, 1, 64), ("grid", None, 2, 64), ("grid", None, 2, 25)]
GOLDEN.update({case: ("ValueError", f"unknown method '{case[0]}'") for case in REMOVED})


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

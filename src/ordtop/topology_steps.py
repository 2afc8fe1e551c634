"""The topology theorem steps: topology-coincidence and alexandrov-antitone.

Each step decides the instances of one preorder held in an
:class:`~ordtop.inputs._Inputs` and answers with its counts and its
violations; the table of :mod:`ordtop.checkers` names it.
"""

from __future__ import annotations

from ordtop import instances
from ordtop.errors import GroundMismatchError, RefinementViolatedError
from ordtop.inputs import _Answer, _Inputs, _violation
from ordtop.topologies import is_finer


def _topology_coincidence(inputs: _Inputs) -> _Answer:
    """Step of topology-coincidence on its one instance, ``p``."""
    p, ts, tu, ta = inputs.p, inputs.scott(), inputs.tu, inputs.ta
    violations = []
    if not is_finer(ts, tu).ok:
        violations.append(_violation("topology-coincidence", p, detail="upper not within scott"))
    if not is_finer(ta, ts).ok:
        violations.append(_violation("topology-coincidence", p, detail="scott not within alexandrov"))
    # Equal rows mean equal open families: the Scott family came through the
    # validating constructor, so its rows describe it exactly.
    if not (tu.rows == ts.rows == ta.rows):
        violations.append(
            _violation("topology-coincidence", p,
                       detail="generators disagree at finite scale")
        )
    return 1, 1, violations


def _alexandrov_antitone(inputs: _Inputs) -> _Answer:
    """Step of alexandrov-antitone on its one instance, ``p`` and ``fine``."""
    p_coarse, p_fine = inputs.p, inputs.fine
    if p_coarse.elements != p_fine.elements:
        raise GroundMismatchError(p_coarse.n, p_fine.n)
    for i in range(p_coarse.n):
        escaped = p_coarse.rows[i] & ~p_fine.rows[i]
        if escaped:
            j = (escaped & -escaped).bit_length() - 1
            raise RefinementViolatedError((p_coarse.elements[i], p_coarse.elements[j]))
    fin = is_finer(inputs.ta, inputs.ta_fine)
    if fin.ok:
        return 1, 1, []
    coarse_relation = instances.make_document(p_coarse).relation
    return 1, 1, [
        _violation(
            "alexandrov-antitone", p_fine,
            params={"coarse_relation": [list(ab) for ab in coarse_relation]},
            detail=f"fine Alexandrov open {fin.missing_open:#x} missing from the coarse one",
        )
    ]

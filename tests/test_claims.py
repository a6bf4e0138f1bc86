"""The claim table behind ``spinlab verify``: each record on its own, and its order."""

import pytest

from spinlab import claims


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda c: c.name)
def test_claim_holds(claim):
    passed, detail = claim.check(claims.Run())
    assert passed, detail


def test_table_order():
    # pinned: no claim dropped, renamed or reordered between levels
    names = [c.name for c in claims.CLAIMS]
    fast = claims.at_level("fast")
    assert len(set(names)) == len(names)
    assert [c.level for c in claims.CLAIMS] == ["fast"] * 47 + ["full"] * 54
    assert list(claims.CLAIMS[:47]) == fast and claims.at_level("full") == list(claims.CLAIMS)
    assert names[0] == "fidelity_closed_n1"
    assert fast[-1].name == "overlap_mid_zero_at_third"
    assert names[-1] == "asymptotic_limit"

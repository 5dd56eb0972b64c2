"""The bound gaps that ``scripts/find_gaps.py`` finds, pinned as a corpus.

The paper's two bounds meet when no two senders share a message, and need
not meet otherwise.  These instances are the ones where they do not: the
exhaustive lower bound sits one below the linear optimum (lower-gap), or
the connecting-tree upper bound one above it (upper-gap).  An off-by-one
in either bound shows here first.  The instances are stored, not searched
for again; ``source`` in the fixture is the command that printed them.
"""

import json
from itertools import combinations
from pathlib import Path

import pytest

from msindex import DecodeCertificate, analyze, parse_instance, rank_decodable

from decode_closure import verify_exhaustive

FIXTURE = json.loads(
    (Path(__file__).resolve().parent / "gap_instances.json").read_text())
GAPS = FIXTURE["gaps"]


def test_fixture_holds_both_kinds_of_gap():
    kinds = [gap["kind"] for gap in GAPS]
    assert 10 <= len(GAPS) <= 20
    assert {"lower-gap", "upper-gap"} <= set(kinds)
    assert all(gap["instance"]["num_messages"] <= 8 for gap in GAPS)


@pytest.mark.parametrize("gap", GAPS, ids=[f"gap{k}" for k in range(len(GAPS))])
def test_gap_bounds_oracle_and_certificates(gap):
    a = analyze(parse_instance(gap["instance"]), exhaustive=True)
    length, witness = a.oracle
    assert (a.lower_bound, length, a.upper_bound) == (
        gap["lower_bound"], gap["oracle"], gap["upper_bound"])
    assert gap["kind"] == ("lower-gap" if a.lower_bound < length else "upper-gap")
    assert not a.trace.fell_back

    assert isinstance(rank_decodable(a.planned, a.simple), DecodeCertificate)
    assert witness.length == length
    assert verify_exhaustive(witness, a.simple)

    # the partition theorem forbids a gap when the senders are disjoint
    assert any(s & t for s, t in combinations(a.simple.senders, 2))

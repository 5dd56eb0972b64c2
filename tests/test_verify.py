import pytest
from hypothesis import given, settings

from msindex.code import CodeRow, LinearIndexCode, assign_senders, \
    find_connecting_trees, mask_of, plan_code
from msindex.model import simplify
from msindex.verify import (DecodeCertificate, DecodeFailure, GuardError,
                            check_decode_closure, oracle_min_linear,
                            rank_decodable, verify_exhaustive)

from conftest import make_instance, simplified_graphs
from strategies import instance_and_code, instances


def per_sender_xor(inst):
    """One row per sender XORing everything it owns."""
    rows = tuple(CodeRow(s, mask_of(ms))
                 for s, ms in enumerate(inst.senders, start=1) if ms)
    return LinearIndexCode(inst.num_messages, rows)


def test_four_sender_xors_decode(three_pairs):
    simple, _ = simplify(three_pairs)
    code = per_sender_xor(simple)
    assert code.length == 4
    result = rank_decodable(code, simple)
    assert isinstance(result, DecodeCertificate)
    assert len(result.entries) == 6


def test_certificates_recombine_to_unit_vectors(three_pairs):
    simple, _ = simplify(three_pairs)
    code = per_sender_xor(simple)
    cert = rank_decodable(code, simple)
    for entry in cert.entries:
        acc = 0
        for k in entry.row_indices:
            acc ^= code.rows[k].coeffs
        if entry.uses_prior:
            acc ^= mask_of((entry.receiver,))
        assert acc == mask_of((entry.wanted,))


def test_planned_code_decodes(three_pairs):
    simple, g = simplified_graphs(three_pairs)
    code = assign_senders(simple, plan_code(g, find_connecting_trees(g)))
    assert isinstance(rank_decodable(code, simple), DecodeCertificate)


def test_failure_past_decodable_receivers(three_pairs):
    # uncoded x1, x2 serve the first cycle; receiver 3 is the first failure
    simple, _ = simplify(three_pairs)
    code = LinearIndexCode(6, (CodeRow(1, mask_of((1,))),
                               CodeRow(2, mask_of((2,)))))
    result = rank_decodable(code, simple)
    assert result == DecodeFailure(receiver=3, wanted=4)


def test_prior_usage_is_recorded(triangle):
    simple, _ = simplify(triangle)
    code = LinearIndexCode(3, (CodeRow(1, mask_of((1, 2))),
                               CodeRow(1, mask_of((2, 3)))))
    cert = rank_decodable(code, simple)
    assert isinstance(cert, DecodeCertificate)
    # receiver 1 reaches x3 only through both rows and its own x1
    entry = cert.entry(1, 3)
    assert entry.uses_prior
    assert entry.row_indices == (0, 1)


def test_rank_decodable_rejects_bad_support(two_way):
    simple, _ = simplify(two_way)
    with pytest.raises(ValueError):
        rank_decodable(LinearIndexCode(2, (CodeRow(1, mask_of((1, 2))),)),
                       simple)


def test_exhaustive_four_sender_xors(three_pairs):
    simple, _ = simplify(three_pairs)
    assert verify_exhaustive(per_sender_xor(simple), simple)


def test_exhaustive_rejects_partial_code(two_way):
    simple, _ = simplify(two_way)
    code = LinearIndexCode(2, (CodeRow(1, mask_of((1,))),))
    assert not verify_exhaustive(code, simple)


def test_exhaustive_empty_code_empty_wants():
    inst = make_instance(2, senders=[{1, 2}], wants=[{}, {}])
    simple, _ = simplify(inst)
    assert verify_exhaustive(LinearIndexCode(2, ()), simple)


def test_exhaustive_guard():
    inst = make_instance(21, senders=[set(range(1, 22))],
                         wants=[{(r % 21) + 1} for r in range(1, 22)])
    with pytest.raises(GuardError):
        verify_exhaustive(LinearIndexCode(21, ()), inst)


def test_oracle_three_pairs_is_four(three_pairs):
    simple, _ = simplify(three_pairs)
    length, code = oracle_min_linear(simple)
    assert length == 4
    assert isinstance(rank_decodable(code, simple), DecodeCertificate)
    assert verify_exhaustive(code, simple)


def test_oracle_triangle_and_two_way(triangle, two_way):
    assert oracle_min_linear(simplify(triangle)[0])[0] == 2
    assert oracle_min_linear(simplify(two_way)[0])[0] == 2


def test_oracle_exhausted_is_reported(three_pairs):
    simple, _ = simplify(three_pairs)
    assert oracle_min_linear(simple, max_len=3) is None


def test_oracle_guard():
    inst = make_instance(9, senders=[set(range(1, 10))],
                         wants=[{(r % 9) + 1} for r in range(1, 10)])
    with pytest.raises(GuardError):
        oracle_min_linear(inst)


@settings(max_examples=15, deadline=None)
@given(instances(max_m=5))
def test_oracle_parallel_matches_serial(inst):
    simple, _ = simplify(inst)
    serial = oracle_min_linear(simple)
    parallel = oracle_min_linear(simple, jobs=2)
    assert serial == parallel


def _span_decodes(span: frozenset[int],
                  reqs: list[tuple[int | None, list[int]]]) -> bool:
    for prior, wanted in reqs:
        for target in wanted:
            if target in span:
                continue
            if prior is None or (target ^ prior) not in span:
                return False
    return True


def _reference_search_at_length(masks: list[int], length: int,
                                reqs: list[tuple[int | None, list[int]]],
                                first_index: int | None = None
                                ) -> tuple[int, ...] | None:
    """The oracle search with every span held as an explicit set of
    vectors, the implementation the echelon-basis search replaced."""
    if length == 0:
        return () if _span_decodes(frozenset((0,)), reqs) else None
    failed: set[frozenset[int]] = set()

    def dfs(start: int, chosen: tuple[int, ...],
            span: frozenset[int]) -> tuple[int, ...] | None:
        remaining = length - len(chosen)
        if remaining == 0:
            return chosen if _span_decodes(span, reqs) else None
        for idx in range(start, len(masks) - remaining + 1):
            x = masks[idx]
            if x in span:
                continue
            grown = span | {v ^ x for v in span}
            if grown in failed:
                continue
            hit = dfs(idx + 1, chosen + (idx,), grown)
            if hit is not None:
                return hit
            failed.add(grown)
        return None

    base = frozenset((0,))
    if first_index is not None:
        x = masks[first_index]
        return dfs(first_index + 1, (first_index,),
                   base | {v ^ x for v in base})
    return dfs(0, (), base)


@settings(max_examples=25, deadline=None)
@given(instances(max_m=6))
def test_search_matches_frozenset_reference(inst):
    # every length up to the optimum, failures included, and every
    # first-row split that the parallel scan submits
    from msindex.verify import (_candidate_rows, _requirements,
                                _search_at_length)

    simple, _ = simplify(inst)
    masks = [row.coeffs for row in _candidate_rows(simple)]
    reqs = _requirements(simple)
    optimum = oracle_min_linear(simple)[0]
    for length in range(optimum + 1):
        expected = _reference_search_at_length(masks, length, reqs)
        assert _search_at_length(masks, length, reqs) == expected
        assert (expected is None) == (length < optimum)
        for first in range(len(masks) - length + 1 if length else 0):
            assert (_search_at_length(masks, length, reqs, first)
                    == _reference_search_at_length(masks, length, reqs, first))


def test_closure_two_way_optimal_code(two_way):
    simple, _ = simplify(two_way)
    _, code = oracle_min_linear(simple)
    assert check_decode_closure(code, simple).ok


def test_closure_path_instance():
    inst = make_instance(2, senders=[{1}, {2}], wants=[{}, {1}])
    simple, _ = simplify(inst)
    code = LinearIndexCode(2, (CodeRow(1, mask_of((1,))),))
    assert isinstance(rank_decodable(code, simple), DecodeCertificate)
    assert check_decode_closure(code, simple).ok


def test_closure_four_sender_xors(three_pairs):
    simple, _ = simplify(three_pairs)
    assert check_decode_closure(per_sender_xor(simple), simple).ok


@settings(max_examples=150, deadline=None)
@given(instance_and_code())
def test_rank_agrees_with_exhaustive(pair):
    inst, code = pair
    linear_ok = isinstance(rank_decodable(code, inst), DecodeCertificate)
    assert linear_ok == verify_exhaustive(code, inst)


@settings(max_examples=30, deadline=None)
@given(instances(max_m=5))
def test_closure_holds_for_oracle_and_planned_codes(inst):
    simple, g = simplified_graphs(inst)
    _, oracle_code = oracle_min_linear(simple)
    assert check_decode_closure(oracle_code, simple).ok
    planned = assign_senders(simple, plan_code(g, find_connecting_trees(g)))
    assert check_decode_closure(planned, simple).ok


@settings(max_examples=60, deadline=None)
@given(instances(max_m=4))
def test_oracle_matches_plain_subset_scan(inst):
    # reference search: raw lexicographic combinations, no pruning
    from itertools import combinations

    from msindex.verify import _candidate_rows

    simple, _ = simplify(inst)
    candidates = _candidate_rows(simple)
    reference = None
    for length in range(len(simple.carried) + 1):
        for chosen in combinations(range(len(candidates)), length):
            code = LinearIndexCode(simple.num_messages,
                                   tuple(candidates[k] for k in chosen))
            if isinstance(rank_decodable(code, simple), DecodeCertificate):
                reference = (length, code)
                break
        if reference:
            break
    assert reference is not None
    assert oracle_min_linear(simple) == reference


@settings(max_examples=25, deadline=None)
@given(instances(max_m=5))
def test_oracle_monotone_under_sender_merging(inst):
    simple, _ = simplify(inst)
    base = oracle_min_linear(simple)[0]
    if simple.num_senders < 2:
        return
    merged_first = simple.senders[0] | simple.senders[1]
    merged = type(simple)(num_messages=simple.num_messages,
                          senders=(merged_first,) + simple.senders[2:],
                          wants=simple.wants, simplified=True)
    assert oracle_min_linear(merged)[0] <= base

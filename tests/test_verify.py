import random
import sys
import warnings
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from msindex import generate, graphs, verify
from msindex.code import CodeRow, LinearIndexCode, assign_senders, \
    find_connecting_trees, plan_code
from msindex.model import (InstanceError, adjacent, bits, build_graphs,
                           mask_of, simplify)
from msindex.verify import (CertEntry, DecodeCertificate, DecodeFailure,
                            GuardError, _allowed_set, _insert,
                            _optimal_duals, _Packing, _unit_reductions,
                            _validate_supports, min_linear_length,
                            oracle_min_linear, rank_decodable)

from conftest import make_instance, simplified_graphs
from decode_closure import (ClosureReport, ClosureViolation,
                            check_decode_closure, verify_exhaustive)
from strategies import codes_for, instance_and_code, instances

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from find_gaps import random_pairing_instance  # noqa: E402


# The reduced echelon tuple basis, the reference for the pivot-indexed
# basis of `msindex.verify` and the key form of `_Packing.levels`.

def _reduce(basis: tuple[int, ...], x: int) -> int:
    """``x`` with every pivot of the reduced echelon ``basis`` cleared: the
    canonical representative of the coset ``x + span(basis)``, and 0
    exactly when ``x`` lies in the span.  Each pivot (lowest set bit of its
    row) occurs in no other row, so one pass in any order suffices."""
    for b in basis:
        if x & b & -b:
            x ^= b
    return x


def _extend(basis: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The reduced echelon basis of ``span(basis) + r`` for a nonzero
    ``r = _reduce(basis, r)``: its pivot is cleared from the other rows.
    Rows are kept in pivot order, so equal spans have equal bases.  No
    other row's pivot changes (r has no bit below its own pivot), so r is
    inserted after the rows with a bit below its pivot, which come first,
    and nothing is re-sorted."""
    pivot = r & -r
    below = pivot - 1
    rows = [b ^ r if b & pivot else b for b in basis]
    at = 0
    for b in rows:
        if not b & below:
            break
        at += 1
    rows.insert(at, r)
    return tuple(rows)


def _reference_unit_reductions(rows, m):
    """`_unit_reductions` on the tuple basis: every code row reduced
    against the whole basis, and a unit vector reduced by the row it is
    the pivot of."""
    offset = max([m] + [row.coeffs.bit_length() for row in rows])
    messages = (1 << offset) - 1
    basis: tuple[int, ...] = ()
    for k, row in enumerate(rows):
        r = _reduce(basis, row.coeffs | 1 << (offset + k))
        if r & messages:
            basis = _extend(basis, r)
    row_of = {b & -b: b for b in basis}.get
    return [0] + [u ^ row_of(u, 0) for u in (1 << j for j in range(m))], offset


def _null_vectors(basis, owned):
    """A basis of the annihilator inside V_S of the ``basis`` rows, for the
    sender set S = ``owned``.  The rows restricted to S go into an echelon
    basis R (`_insert`), which is back-substituted once, highest pivot
    first, so that each pivot occurs in its own row alone.  Every bit j of
    S that is no pivot of R then gives one null vector: e_j plus the pivot
    of each row of R that holds j (every row meets it in 0 or 2 bits), so
    there are |S| - rank(R) of them."""
    rows: dict[int, int] = {}
    for b in basis:
        _insert(rows, b & owned)
    pivots = 0
    for p in rows:
        pivots |= 1 << (p - 1)
    for p in sorted(rows, reverse=True):
        r = rows[p]
        for q in bits(r & (r - 1) & pivots):
            r ^= rows[q]
        rows[p] = r
    free = owned & ~pivots
    while free:
        j = free & -free
        free ^= j
        x = j
        for p, r in rows.items():
            if r & j:
                x |= 1 << (p - 1)
        yield x


def _sender_feasible(basis, senders, dim_c):
    """Whether C, the annihilator of ``span(basis)`` inside the carried
    coordinates (``dim_c`` its dimension), is spanned by its vectors that
    lie inside one sender's set: whether the senders' null spaces
    (`_null_vectors`) sum to rank ``dim_c`` on the pivot-indexed basis.
    The reference for the closure test of `_Packing.feasible`."""
    spanned: dict[int, int] = {}
    for owned in senders:
        for x in _null_vectors(basis, owned):
            if _insert(spanned, x) and len(spanned) == dim_c:
                return True
    return len(spanned) == dim_c


def _reference_sender_feasible(basis, senders, dim_c):
    """`_sender_feasible` on the tuple basis."""
    spanned: tuple[int, ...] = ()
    for owned in senders:
        rows: tuple[int, ...] = ()
        for b in basis:
            r = _reduce(rows, b & owned)
            if r:
                rows = _extend(rows, r)
        free = owned
        for r in rows:
            free &= ~(r & -r)
        while free:
            j = free & -free
            free ^= j
            x = j
            for r in rows:
                if r & j:
                    x |= r & -r
            x = _reduce(spanned, x)
            if x:
                spanned = _extend(spanned, x)
                if len(spanned) == dim_c:
                    return True
    return len(spanned) == dim_c


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
    [entry] = [e for e in cert.entries if (e.receiver, e.wanted) == (1, 3)]
    assert entry.uses_prior
    assert entry.row_indices == (0, 1)


def test_rank_decodable_rejects_bad_support(two_way):
    simple, _ = simplify(two_way)
    with pytest.raises(ValueError):
        rank_decodable(LinearIndexCode(2, (CodeRow(1, mask_of((1, 2))),)),
                       simple)


@settings(max_examples=100, deadline=None)
@given(instances(max_m=6), st.data())
def test_support_check_matches_the_subset_test(inst, data):
    # rows with any sender (some unknown) and any coefficients
    rows = data.draw(st.lists(st.builds(
        CodeRow, st.integers(0, inst.num_senders + 1),
        st.integers(0, (1 << inst.num_messages) - 1)), max_size=4))
    expected = None
    for k, row in enumerate(rows):
        if (not 1 <= row.sender <= inst.num_senders
                or not row.support() <= inst.senders[row.sender - 1]):
            expected = f"rows[{k}]"
            break
    try:
        _validate_supports(LinearIndexCode(inst.num_messages, tuple(rows)), inst)
        got = None
    except InstanceError as exc:
        got = exc.path
    assert got == expected


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


def _candidate_rows(inst):
    """Every nonzero sender-feasible row, deduplicated with smallest-sender
    attribution, sorted by coefficient mask: the 2^|S| rows of each
    sender set S, which the reference searches scan."""
    best_sender: dict[int, int] = {}
    for s, ms in enumerate(inst.senders, start=1):
        owned = sorted(ms)
        for r in range(1, len(owned) + 1):
            for combo in combinations(owned, r):
                best_sender.setdefault(mask_of(combo), s)
    return [CodeRow(best_sender[mask], mask)
            for mask in sorted(best_sender)]


def _reference_witness(inst):
    """The oracle witness as the greedy over `_candidate_rows`: for each
    optimal dual basis, every candidate with even parity against each
    dual row that is independent of the rows taken so far, in mask order,
    up to the optimal length; the smallest tuple of candidate indices."""
    length, duals, _ = _optimal_duals(inst)
    candidates = _candidate_rows(inst)

    def greedy(dual):
        chosen, basis = [], {}
        for idx, row in enumerate(candidates):
            if any((row.coeffs & y).bit_count() & 1 for y in dual):
                continue
            if _insert(basis, row.coeffs):
                chosen.append(idx)
                if len(chosen) == length:
                    break
        return tuple(chosen)

    hit = min(greedy(dual) for dual in duals)
    return length, LinearIndexCode(inst.num_messages,
                                   tuple(candidates[k] for k in hit))


@settings(max_examples=150, deadline=None)
@given(instances(max_m=8))
def test_bitset_witness_matches_the_candidate_greedy(inst):
    # raw and simplified: length, sender and mask of every row
    for case in (inst, simplify(inst)[0]):
        length, code = oracle_min_linear(case)
        ref_length, ref_code = _reference_witness(case)
        assert length == ref_length == len(code.rows)
        assert ([(row.sender, row.coeffs) for row in code.rows]
                == [(row.sender, row.coeffs) for row in ref_code.rows])


def test_sixteen_message_sender_witness_lists_no_candidates(monkeypatch):
    # one sender owns all 16 messages and receiver r wants r + 1 (mod 16):
    # the only allowed dual vector is the all-ones one, so C is the even
    # vectors and the witness is e1 + e_j for j = 2..16; a candidate list
    # would hold 2^16 - 1 rows
    m = 16
    inst = make_instance(m, senders=[set(range(1, m + 1))],
                         wants=[{r % m + 1} for r in range(1, m + 1)])
    built = []

    def counted(*args):
        built.append(args)
        return CodeRow(*args)

    monkeypatch.setattr(verify, "ORACLE_LIMIT", m)
    monkeypatch.setattr(verify, "CodeRow", counted)
    length, code = oracle_min_linear(inst)
    assert length == len(code.rows) == 15
    assert [row.coeffs for row in code.rows[:4]] == [3, 5, 9, 17]
    assert code.rows == tuple(CodeRow(1, 1 | 1 << j) for j in range(1, m))
    assert len(built) <= len(code.rows)


def _requirements(inst) -> list[tuple[int, int | None, list[int]]]:
    """Per receiver with nonempty wants: (receiver, prior mask or None,
    wanted masks in increasing order)."""
    carried = frozenset().union(*inst.senders)
    reqs = []
    for r in range(1, inst.num_messages + 1):
        wants = sorted(inst.wants[r - 1])
        if not wants:
            continue
        prior = mask_of((r,)) if r in carried else None
        reqs.append((r, prior, [mask_of((j,)) for j in wants]))
    return reqs


def _span_decodes(span: frozenset[int],
                  reqs: list[tuple[int, int | None, list[int]]]) -> bool:
    for _, prior, wanted in reqs:
        for target in wanted:
            if target in span:
                continue
            if prior is None or (target ^ prior) not in span:
                return False
    return True


def _reference_search_at_length(masks: list[int], length: int,
                                reqs: list[tuple[int, int | None, list[int]]]
                                ) -> tuple[int, ...] | None:
    """The primal subset search with every span held as an explicit set
    of vectors: the first (lexicographically by index) ``length``-subset
    of ``masks`` that decodes, or None.  Dependent extensions and spans
    whose completions already failed are skipped, which leaves the answer
    unchanged at the optimum and below it."""
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

    return dfs(0, (), frozenset((0,)))


def test_no_code_below_the_dual_length(three_pairs):
    simple, _ = simplify(three_pairs)
    assert min_linear_length(three_pairs) == min_linear_length(simple) == 4
    masks = [row.coeffs for row in _candidate_rows(simple)]
    reqs = _requirements(simple)
    assert all(_reference_search_at_length(masks, length, reqs) is None
               for length in range(4))


def _reference_oracle(inst):
    """The oracle as a primal scan from length 0 with explicit spans: the
    first length with a witness is the optimum, with the
    lexicographically smallest witness."""
    candidates = _candidate_rows(inst)
    masks = [row.coeffs for row in candidates]
    reqs = _requirements(inst)
    for length in range(inst.carried_mask.bit_count() + 1):
        hit = _reference_search_at_length(masks, length, reqs)
        if hit is not None:
            rows = tuple(candidates[k] for k in hit)
            return length, LinearIndexCode(inst.num_messages, rows)
    return None


@settings(max_examples=80, deadline=None)
@given(instances(max_m=6))
def test_dual_length_and_witness_match_the_primal_scan(inst):
    # raw instances too: a message nobody wants keeps its prior there
    for case in (inst, simplify(inst)[0]):
        reference = _reference_oracle(case)
        assert min_linear_length(case) == reference[0]
        assert oracle_min_linear(case) == reference


def _allowed_vectors(inst):
    """The nonzero submasks y of the carried messages whose support is
    closed under "t in it and r wants t ⇒ r in it", by a scan over every
    submask: the reference for `_allowed_set`."""
    carried = inst.carried_mask
    wanters = [0] * (inst.num_messages + 1)
    for r, wanted in enumerate(inst.wants, start=1):
        for t in wanted:
            wanters[t] |= 1 << (r - 1)
    allowed = set()
    y = carried
    while y:
        if not adjacent(wanters, y) & ~y:
            allowed.add(y)
        y = (y - 1) & carried
    return allowed


def _members(bitset):
    """The vectors of a bitset over the vectors, in increasing order."""
    return [y for y in range(bitset.bit_length()) if bitset >> y & 1]


def _packing(inst):
    """The packing of an instance over all its nonempty sender sets."""
    return _Packing(inst.num_messages, inst.carried_mask,
                    [owned for owned in inst.sender_masks if owned])


@settings(max_examples=150, deadline=None)
@given(instances(max_m=8))
def test_allowed_set_matches_the_submask_scan(inst):
    for case in (inst, simplify(inst)[0]):
        assert _members(_allowed_set(case)) == sorted(_allowed_vectors(case))


@pytest.mark.parametrize("family", ["plain", "cycle", "partitioned", "pairing"])
def test_allowed_set_matches_the_submask_scan_on_draws(family):
    draw = {"plain": generate.random_instance,
            "cycle": generate.random_cycle_instance,
            "partitioned": generate.random_partitioned_instance,
            "pairing": random_pairing_instance}[family]
    rng = random.Random(f"allowed/{family}")
    for m in range(4, 9):
        for _ in range(10):
            inst = draw(rng, m)
            for case in (inst, simplify(inst)[0]):
                assert (_members(_allowed_set(case))
                        == sorted(_allowed_vectors(case)))


def _reference_levels(allowed):
    """The subspace levels built from every hyperplane of each subspace:
    every basis is extended by every reduced vector of its ``ext``."""
    levels = [{(): frozenset(allowed)}]
    while levels[-1]:
        grown = {}
        for basis, ext in levels[-1].items():
            for v in ext:
                if _reduce(basis, v) != v:
                    continue
                key = _extend(basis, v)
                if key not in grown:
                    grown[key] = frozenset(w for w in ext if w ^ v in ext)
        levels.append(grown)
    return levels


@settings(max_examples=80, deadline=None)
@given(instances(max_m=6))
def test_subspace_levels_match_the_hyperplane_loop(inst):
    # the same keys at every level, each with the same ext
    for case in (inst, simplify(inst)[0]):
        packing = _packing(case)
        levels = [{basis: frozenset(_members(x & packing.ext))
                   for basis, x in level.items()}
                  for level in packing.levels(_allowed_set(case))]
        assert levels == _reference_levels(_allowed_vectors(case))


def test_pairing_m8_builds_each_subspace_once(monkeypatch):
    # the third pairing m = 8 draw from the seed "x/pairing", the draw CI
    # runs: its allowed vectors are the 15 unions of its four 2-cycles, so
    # the levels are the 67 subspaces of F_2^4, each grown once
    rng = random.Random("x/pairing")
    inst = [random_pairing_instance(rng, 8) for _ in range(3)][2]
    grown = []
    grow = _Packing.grow

    def counted(self, x, v):
        grown.append(v)
        return grow(self, x, v)

    monkeypatch.setattr(_Packing, "grow", counted)
    simple, _ = simplify(inst)
    levels = _packing(simple).levels(_allowed_set(simple))
    assert len(_members(_allowed_set(simple))) == 15
    assert [len(level) for level in levels] == [1, 15, 35, 15, 1, 0]
    assert len(grown) == 66
    assert len({_span_of(basis) for level in levels for basis in level}) == 67
    assert min_linear_length(simple) == 6


def test_dual_tests_each_sender_on_its_own():
    # the wants form the cycle 1 -> 3 -> 4 -> 1; one sender owning all
    # three sends it in 2 rows (x1 + x3, x3 + x4), but here message 1
    # shares no sender with the others, so it takes 3
    inst = make_instance(4, senders=[{1}, {3, 4}, {2}],
                         wants=[{4}, {}, {1}, {3}])
    assert min_linear_length(inst) == 3
    assert _reference_oracle(simplify(inst)[0])[0] == 3
    merged = make_instance(4, senders=[{1, 2, 3, 4}],
                           wants=[{4}, {}, {1}, {3}])
    assert min_linear_length(merged) == 2


def test_dual_bars_wants_of_receivers_without_a_prior():
    # nobody wants message 1, so receiver 1 holds no carried prior; a
    # closure test read inside K would pass e2 + e3 and answer 1 (the row
    # x2 + x3), which receiver 1 cannot decode
    inst = make_instance(3, senders=[{1, 2, 3}], wants=[{2}, {3}, {2}])
    simple, removed = simplify(inst)
    assert removed == {1}
    assert min_linear_length(simple) == min_linear_length(inst) == 2
    assert _reference_oracle(simple)[0] == 2


def test_oracle_guard():
    inst = make_instance(9, senders=[set(range(1, 10))],
                         wants=[{(r % 9) + 1} for r in range(1, 10)])
    with pytest.raises(GuardError):
        oracle_min_linear(inst)


def _basis_of(vectors) -> tuple[int, ...]:
    basis: tuple[int, ...] = ()
    for x in vectors:
        r = _reduce(basis, x)
        if r:
            basis = _extend(basis, r)
    return basis


def _span_of(vectors) -> frozenset[int]:
    span = {0}
    for x in vectors:
        span |= {v ^ x for v in span}
    return frozenset(span)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(
    st.integers(1, (1 << m) - 1), max_size=m + 2)), st.randoms())
def test_extend_keys_equal_spans_equally(vectors, rng):
    # rows in pivot order, whatever order the vectors come in
    basis = _basis_of(vectors)
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    assert _basis_of(shuffled) == basis
    pivots = [b & -b for b in basis]
    assert pivots == sorted(set(pivots))
    assert all(not b & p for b in basis for p in pivots if p != b & -b)
    assert _span_of(basis) == _span_of(vectors)


@st.composite
def _row_lists(draw):
    """Code rows at m <= 8 (some reaching past m), with zero, repeated and
    dependent rows mixed in; most random rows have three or more bits."""
    m = draw(st.integers(1, 8))
    width = m + draw(st.integers(0, 1))
    masks = draw(st.lists(st.integers(1, (1 << width) - 1), max_size=m + 2))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "sum")),
                              max_size=4)):
        if kind == "zero":
            new = 0
        elif not masks:
            continue
        elif kind == "repeat":
            new = draw(st.sampled_from(masks))
        else:
            picked = draw(st.lists(st.sampled_from(masks), min_size=2,
                                   max_size=3))
            new = 0
            for x in picked:
                new ^= x
        masks.insert(draw(st.integers(0, len(masks))), new)
    return m, tuple(CodeRow(1, x) for x in masks)


@settings(max_examples=300, deadline=None)
@given(_row_lists())
def test_unit_reductions_match_the_tuple_basis(case):
    m, rows = case
    assert _unit_reductions(rows, m) == _reference_unit_reductions(rows, m)


@settings(max_examples=60, deadline=None)
@given(instances(max_m=6))
def test_sender_feasible_matches_the_tuple_basis(inst):
    for case in (inst, simplify(inst)[0]):
        senders = [owned for owned in case.sender_masks if owned]
        k = case.carried_mask.bit_count()
        packing = _packing(case)
        for d, level in enumerate(packing.levels(_allowed_set(case))):
            for basis, x in level.items():
                expected = _reference_sender_feasible(basis, senders, k - d)
                assert packing.feasible(x, d) == expected
                assert _sender_feasible(basis, senders, k - d) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.lists(st.integers(1, (1 << m) - 1), max_size=m + 1),
    st.integers(1, (1 << m) - 1))))
def test_null_vectors_span_the_annihilator_inside_the_sender(case):
    vectors, owned = case
    basis = _basis_of(vectors)
    null = list(_null_vectors(basis, owned))
    assert all(not x & ~owned for x in null)
    assert all(not (x & b).bit_count() & 1 for x in null for b in basis)
    # independent, and as many as the annihilator's dimension in V_S
    assert len(_basis_of(null)) == len(null)
    restricted = _basis_of(b & owned for b in basis)
    assert len(null) == owned.bit_count() - len(restricted)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda m: st.tuples(
    st.integers(1, (1 << m) - 1),
    st.lists(st.integers(1, (1 << m) - 1), max_size=4),
    st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=4))))
def test_sender_feasible_matches_the_tuple_basis_on_any_span(case):
    # any span inside the carried coordinates K, any sender sets in K
    carried, vectors, owned = case
    basis = _basis_of(v & carried for v in vectors)
    senders = [s & carried for s in owned if s & carried]
    dim_c = carried.bit_count() - len(basis)
    expected = _reference_sender_feasible(basis, senders, dim_c)
    packing = _Packing(carried.bit_length(), carried, senders)
    x = packing.root
    for v in basis:
        x = packing.grow(x, v)
    assert packing.feasible(x, len(basis)) == expected
    assert _sender_feasible(basis, senders, dim_c) == expected


def _all_wants(m):
    """One sender owns every message; every receiver wants all others."""
    everything = set(range(1, m + 1))
    return simplify(make_instance(m, senders=[everything],
                                  wants=[everything - {r}
                                         for r in range(1, m + 1)]))[0]


def test_all_wants_oracle_witness():
    length, code = oracle_min_linear(_all_wants(8))
    assert length == 7
    assert code.rows == tuple(CodeRow(1, mask_of((1, j))) for j in range(2, 9))
    assert [row.coeffs for row in code.rows] == [3, 5, 9, 17, 33, 65, 129]


def test_plain_m8_oracle_witness():
    # the third plain m = 8 draw from the seed "x/plain", the draw CI
    # runs; length and rows as the primal subset search found them
    rng = random.Random("x/plain")
    inst = [generate.random_instance(rng, 8) for _ in range(3)][2]
    for case in (inst, simplify(inst)[0]):
        length, code = oracle_min_linear(case)
        assert length == 7
        assert [(row.sender, row.coeffs) for row in code.rows] == [
            (3, 3), (3, 5), (2, 9), (6, 17), (3, 33), (2, 65), (3, 129)]


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


def test_closure_lists_every_violation_of_a_truncated_code():
    # {1, 2} is a message-disconnected leaf SCC; receiver 4 wants x3, and
    # nobody wants x4, so simplify drops it and receiver 4 has no prior
    inst = make_instance(4, senders=[{1}, {2}, {3}, {4}],
                         wants=[{2}, {1}, set(), {3}])
    simple, _ = simplify(inst)
    full = LinearIndexCode(4, tuple(CodeRow(j, mask_of((j,)))
                                    for j in (1, 2, 3)))
    assert check_decode_closure(full, simple).ok
    truncated = LinearIndexCode(4, full.rows[:1])
    assert check_decode_closure(truncated, simple).violations == (
        ClosureViolation("disconnected-scc", None, 2),
        ClosureViolation("leaf-predecessor", None, 3),
        ClosureViolation("predecessor", 1, 2),
        ClosureViolation("predecessor", 4, 3),
    )


class _Gf2Solver:
    """Incremental GF(2) basis that remembers how each pivot was formed.

    Vectors are inserted in a fixed order; pivots are the lowest set bit.
    Combos are bitmasks over the insertion order, so extracted solutions
    are reproducible.
    """

    def __init__(self, vectors=()):
        self.pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> (vec, combo)
        self.count = 0
        for vec in vectors:
            self.add(vec)

    def extended(self, vec: int) -> "_Gf2Solver":
        """A copy with ``vec`` inserted last; this basis is unchanged."""
        out = _Gf2Solver()
        out.pivots = dict(self.pivots)
        out.count = self.count
        out.add(vec)
        return out

    def add(self, vec: int) -> None:
        combo = 1 << self.count
        self.count += 1
        vec, combo = self._reduce(vec, combo)
        if vec:
            self.pivots[vec & -vec] = (vec, combo)

    def _reduce(self, vec: int, combo: int) -> tuple[int, int]:
        while vec:
            low = vec & -vec
            hit = self.pivots.get(low)
            if hit is None:
                return vec, combo
            vec ^= hit[0]
            combo ^= hit[1]
        return vec, combo

    def solve(self, target: int) -> int | None:
        """Combo expressing target in the span, or None."""
        vec, combo = self._reduce(target, 0)
        return None if vec else combo


def _reference_rank_decodable(code, inst):
    """The rank check on the incremental solver with a basis copy per
    receiver, the implementation the tagged echelon basis replaced."""
    _validate_supports(code, inst)
    carried = frozenset().union(*inst.senders)
    base = _Gf2Solver(row.coeffs for row in code.rows)
    prior_bit = 1 << base.count
    entries = []
    for r in range(1, inst.num_messages + 1):
        wants = sorted(inst.wants[r - 1])
        if not wants:
            continue
        solver = base.extended(mask_of((r,))) if r in carried else base
        for j in wants:
            combo = solver.solve(mask_of((j,)))
            if combo is None:
                return DecodeFailure(receiver=r, wanted=j)
            rows_used = tuple(k - 1 for k in bits(combo & (prior_bit - 1)))
            entries.append(CertEntry(r, j, rows_used, bool(combo & prior_bit)))
    return DecodeCertificate(tuple(entries))


def _reference_check_decode_closure(code, inst):
    """The closure check on the incremental solver, as replaced."""
    simple, _ = simplify(inst)
    g = build_graphs(simple)
    violations = []

    base = _Gf2Solver(row.coeffs for row in code.rows)

    report = graphs.classify_all(g)
    plain_targets: set[tuple[str, int]] = set()
    for v in bits(graphs.leaf_vertices(g)):
        for j in bits(g.ancestors(1 << (v - 1))):
            plain_targets.add(("leaf-predecessor", j))
    for k in report.leaf_sccs:
        if report.classes[k] is graphs.LeafClass.MESSAGE_DISCONNECTED:
            for j in bits(report.sccs[k]):
                plain_targets.add(("disconnected-scc", j))
    for rule, j in sorted(plain_targets):
        if base.solve(mask_of((j,))) is None:
            violations.append(ClosureViolation(rule, None, j))

    carried = frozenset().union(*simple.senders)
    for r in range(1, g.n + 1):
        preds = g.ancestors(1 << (r - 1))
        if not preds:
            continue
        solver = base.extended(mask_of((r,))) if r in carried else base
        for j in bits(preds):
            if j not in carried:
                continue
            if solver.solve(mask_of((j,))) is None:
                violations.append(ClosureViolation("predecessor", r, j))
    return ClosureReport(tuple(violations))


def _assert_rank_checks_match(code, simple):
    assert rank_decodable(code, simple) == _reference_rank_decodable(code, simple)
    assert (check_decode_closure(code, simple)
            == _reference_check_decode_closure(code, simple))


def _planned(simple, g):
    return assign_senders(simple, plan_code(g, find_connecting_trees(g)))


@st.composite
def _rank_check_cases(draw):
    """A simplified instance with a planned code, an oracle witness or
    random sender-feasible rows (plus zero, duplicate and dependent rows),
    each maybe shuffled and maybe truncated."""
    simple, g = simplified_graphs(draw(instances(max_m=6)))
    source = draw(st.sampled_from(("planned", "oracle", "random")))
    if source == "planned":
        rows = list(_planned(simple, g).rows)
    elif source == "oracle":
        rows = list(oracle_min_linear(simple)[1].rows)
    else:
        rows = list(draw(codes_for(simple)).rows)
        for kind in draw(st.lists(st.sampled_from(
                ("zero", "duplicate", "dependent")), max_size=3)):
            if kind == "zero":
                new = CodeRow(draw(st.integers(1, simple.num_senders)), 0)
            elif len(rows) < 2:
                continue
            elif kind == "duplicate":
                new = draw(st.sampled_from(rows))
            else:
                a, b = draw(st.lists(st.sampled_from(rows), min_size=2,
                                     max_size=2))
                mask = a.coeffs ^ b.coeffs
                owners = [s for s, ms in enumerate(simple.senders, start=1)
                          if not mask & ~mask_of(ms)]
                new = CodeRow(owners[0], mask) if owners else a
            rows.insert(draw(st.integers(0, len(rows))), new)
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows = rows[:draw(st.integers(0, len(rows)))]
    return simple, LinearIndexCode(simple.num_messages, tuple(rows))


@settings(max_examples=200, deadline=None)
@given(_rank_check_cases())
def test_rank_checks_match_gf2_solver_reference(case):
    simple, code = case
    _assert_rank_checks_match(code, simple)


@pytest.mark.parametrize("family", ["plain", "cycle", "partitioned"])
def test_rank_checks_match_reference_at_m64(family):
    # with 64 messages every row tag lies beyond a 64-bit word
    draw = {"plain": generate.random_instance,
            "cycle": generate.random_cycle_instance,
            "partitioned": generate.random_partitioned_instance}[family]
    rng = random.Random(f"rank-check/{family}")
    for _ in range(2):
        simple, g = simplified_graphs(draw(rng, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the tree search warns above 16 vertices
            code = _planned(simple, g)
        assert isinstance(rank_decodable(code, simple), DecodeCertificate)
        rows = list(code.rows)
        rng.shuffle(rows)
        for variant in (code.rows, tuple(rows), code.rows[1:], code.rows[:-1]):
            _assert_rank_checks_match(LinearIndexCode(64, variant), simple)


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
    simple, _ = simplify(inst)
    candidates = _candidate_rows(simple)
    reference = None
    for length in range(simple.carried_mask.bit_count() + 1):
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

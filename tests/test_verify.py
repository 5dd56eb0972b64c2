import random
import warnings
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from msindex import generate, graphs
from msindex.code import CodeRow, LinearIndexCode, assign_senders, \
    find_connecting_trees, mask_of, plan_code
from msindex.model import bits, build_graphs, simplify
from msindex.verify import (CertEntry, ClosureReport, ClosureViolation,
                            DecodeCertificate, DecodeFailure, GuardError,
                            _candidate_rows, _extend, _needs_more_than,
                            _open_options, _reduce, _requirements,
                            _search_at_length, _validate_supports,
                            check_decode_closure, oracle_min_linear,
                            rank_decodable, verify_exhaustive)

from conftest import make_instance, simplified_graphs
from strategies import codes_for, instance_and_code, instances


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

    return dfs(0, (), frozenset((0,)))


@settings(max_examples=25, deadline=None)
@given(instances(max_m=6))
def test_search_matches_frozenset_reference(inst):
    # every length up to the optimum, failures included
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
def _open_requirement_cases(draw):
    """At m <= 4: a number k of new rows, a span S that k rows cannot
    fill the space from, and (prior or None, wanted unit vector)
    requirements."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, min(3, m - 1)))
    basis = _basis_of(draw(st.lists(st.integers(1, (1 << m) - 1),
                                    max_size=m - k - 1)))
    unit = st.integers(1, m).map(lambda j: 1 << (j - 1))
    wants = draw(st.lists(st.tuples(st.one_of(st.none(), unit), unit),
                          max_size=10))
    return m, basis, [(prior, t) for prior, t in wants if prior != t], k


@settings(max_examples=300, deadline=None)
@given(_open_requirement_cases())
def test_cut_is_sound_against_every_k_set(case):
    m, basis, wants, k = case
    options = _open_options(basis, wants)
    if not _needs_more_than(options, k):
        return
    for rows in combinations(range(1, 1 << m), k):
        span = _span_of(basis + rows)
        assert not all(t in span or (prior is not None and t ^ prior in span)
                       for prior, t in wants)


def _all_wants(m):
    """One sender owns every message; every receiver wants all others."""
    everything = set(range(1, m + 1))
    return simplify(make_instance(m, senders=[everything],
                                  wants=[everything - {r}
                                         for r in range(1, m + 1)]))[0]


def test_all_wants_root_is_cut_below_the_optimum():
    # a pure call, so a cut that stops firing fails here at once
    reqs = _requirements(_all_wants(8))
    options = _open_options((), [(prior, t) for _, prior, wanted in reqs
                                 for t in wanted])
    assert len(options) == 56
    for k in range(2, 7):
        assert _needs_more_than(options, k)
    assert not _needs_more_than(options, 7)


def test_all_wants_oracle_witness():
    simple = _all_wants(8)
    masks = [row.coeffs for row in _candidate_rows(simple)]
    assert (_search_at_length(masks, 7, _requirements(simple))
            == (2, 4, 8, 16, 32, 64, 128))
    length, code = oracle_min_linear(simple)
    assert length == 7
    assert code.rows == tuple(CodeRow(1, mask_of((1, j))) for j in range(2, 9))
    assert [row.coeffs for row in code.rows] == [3, 5, 9, 17, 33, 65, 129]


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
    carried = inst.carried
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
    for v in sorted(graphs.leaf_vertices(g)):
        for j in sorted(graphs.predecessors(g, v)):
            plain_targets.add(("leaf-predecessor", j))
    for k in report.leaf_sccs:
        if report.classes[k] is graphs.LeafClass.MESSAGE_DISCONNECTED:
            for j in sorted(report.sccs[k]):
                plain_targets.add(("disconnected-scc", j))
    for rule, j in sorted(plain_targets):
        if base.solve(mask_of((j,))) is None:
            violations.append(ClosureViolation(rule, None, j))

    carried = simple.carried
    for r in range(1, g.n + 1):
        preds = graphs.predecessors(g, r)
        if not preds:
            continue
        solver = base.extended(mask_of((r,))) if r in carried else base
        for j in sorted(preds):
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
            warnings.simplefilter("ignore")  # greedy trees above 16 vertices
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

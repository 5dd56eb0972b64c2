"""Connecting trees, the code plan and the sender assignment.

The tree search builds its candidates from the condensation.  The subset
search and the greedy search it replaced are kept below verbatim as
references: up to ``EXACT_LIMIT`` vertices the candidates and the chosen
trees must equal the subset search's, and above it the family must be
valid and never smaller than the greedy one.
"""

import inspect
import json
import random
import sys
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from msindex import analyze, generate, graphs
from msindex.code import (EXACT_LIMIT, CodeBlueprint, CodeRow, LinearIndexCode,
                          Tree, _max_packing,
                          _tree_candidates, assign_senders,
                          find_connecting_trees, plan_code, upper_bound)
from msindex.model import GraphPair, adjacent, bits, closure, mask_of, simplify
from msindex.verify import DecodeCertificate, rank_decodable

from conftest import gp, simplified_graphs
from strategies import codes_for, graph_pairs, instances

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from find_gaps import random_pairing_instance  # noqa: E402


# --- the subset search and the greedy search, kept as references -------------

def _reference_candidates(g: GraphPair, excluded: frozenset[int]) -> list[frozenset[int]]:
    """All valid connecting-tree vertex sets, sorted lexicographically."""
    eligible = [1 << (v - 1) for v in
                bits(g.vertex_mask & ~g.leaf_mask & ~mask_of(excluded))]
    found = []
    for r in range(2, len(eligible) + 1):
        for combo in combinations(eligible, r):
            vs = sum(combo)
            if not adjacent(g.succ, vs) & ~vs and len(g.components(vs)) == 1:
                found.append(frozenset(bits(vs)))
    found.sort(key=sorted)
    return found


def _reference_packing(candidates: list[frozenset[int]]) -> list[frozenset[int]]:
    """Exact maximum set packing, lexicographically smallest family."""
    universe = frozenset().union(*candidates) if candidates else frozenset()
    memo: dict[frozenset[int], int] = {}

    def best(remaining: frozenset[int]) -> int:
        if remaining in memo:
            return memo[remaining]
        usable = [c for c in candidates if c <= remaining]
        if not usable:
            memo[remaining] = 0
            return 0
        v = min(frozenset().union(*usable))
        score = best(remaining - {v})
        for c in usable:
            if v in c:
                score = max(score, 1 + best(remaining - c))
        memo[remaining] = score
        return score

    chosen: list[frozenset[int]] = []
    remaining = universe
    while best(remaining) > 0:
        target = best(remaining)
        for c in candidates:
            if c <= remaining and 1 + best(remaining - c) == target:
                chosen.append(c)
                remaining = remaining - c
                break
    return chosen


def _greedy_trees(g: GraphPair, excluded: frozenset[int]) -> list[frozenset[int]]:
    """Per vertex in order, its reachability closure when that is a fresh
    non-leaf, message-connected set of two or more vertices."""
    blocked = g.leaf_mask | mask_of(excluded)
    out = []
    for v in g.vertices():
        low = 1 << (v - 1)
        if low & blocked:
            continue
        vs = low | closure(g.succ, low)
        if vs & blocked or vs == low or len(g.components(vs)) != 1:
            continue
        out.append(frozenset(bits(vs)))
        blocked |= vs
    return out


# ------------------------------------------------------------------------------

def _excluded(g):
    return frozenset(bits(sum(graphs.leaf_sccs_of_class(
        g, graphs.LeafClass.MESSAGE_CONNECTED))))


def _draw_graphs(family, m, count):
    rng = random.Random(f"trees/{family}/{m}")
    for _ in range(count):
        if family == "pairing":
            inst = random_pairing_instance(rng, m)
        elif family == "cycle":
            inst = generate.random_cycle_instance(rng, m, sender_size=rng.randint(2, 3))
        elif family == "plain":
            inst = generate.random_instance(rng, m)
        else:
            inst = generate.random_partitioned_instance(rng, m)
        yield simplified_graphs(inst)[1]


def _matches_the_subset_search(g) -> bool:
    """Assert the candidates and the trees equal the subset search's; true
    when there are candidates."""
    expected = _reference_candidates(g, _excluded(g))
    assert [frozenset(bits(vs)) for vs in _tree_candidates(g)] == expected
    assert ([frozenset(bits(t.vertices)) for t in find_connecting_trees(g)]
            == _reference_packing(expected))
    return bool(expected)


def tree_family_is_valid(g, trees):
    report = graphs.classify_all(g)
    connected_sccs = [frozenset(bits(scc)) for scc in report.leaf_sccs
                      if report.classes[scc] is graphs.LeafClass.MESSAGE_CONNECTED]
    taken = set()
    for t in trees:
        vs = frozenset(bits(t.vertices))
        assert len(vs) >= 2
        assert not vs & taken, "trees overlap"
        taken |= vs
        assert not vs & frozenset(bits(graphs.leaf_vertices(g))), "leaf vertex in tree"
        assert all(j in vs for (i, j) in g.arcs if i in vs), "arc escapes tree"
        assert all(not vs & scc for scc in connected_sccs), \
            "tree touches a message-connected leaf SCC"
        assert len(t.edges) == len(vs) - 1
        assert all(e in g.edges for e in t.edges)
        seen = {min(vs)}
        frontier = [min(vs)]
        while frontier:
            u = frontier.pop()
            for a, b in t.edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in seen:
                        seen.add(y)
                        frontier.append(y)
        assert seen == vs, "tree edges do not span its vertices"


def test_trees_three_pairs_exact(three_pairs):
    _, g = simplified_graphs(three_pairs)
    trees = find_connecting_trees(g)
    assert len(trees) == 1
    tree_family_is_valid(g, trees)


def test_trees_two_way_none(two_way):
    _, g = simplified_graphs(two_way)
    assert find_connecting_trees(g) == []


def test_trees_triangle_excluded_by_connected_scc(triangle):
    _, g = simplified_graphs(triangle)
    assert find_connecting_trees(g) == []


def test_plan_three_pairs_lengths(three_pairs):
    _, g = simplified_graphs(three_pairs)
    trees = find_connecting_trees(g)
    bp = plan_code(g, trees)
    assert sum(len(t.edges) for t in bp.connecting_trees) == 3
    assert bp.scc_spanning_trees == ()
    assert len(bp.uncoded) == 2
    assert bp.length == 5


def test_plan_triangle_spanning_tree(triangle):
    _, g = simplified_graphs(triangle)
    bp = plan_code(g, [])
    assert len(bp.scc_spanning_trees) == 1
    assert len(bp.scc_spanning_trees[0].edges) == 2
    assert bp.uncoded == ()
    assert bp.length == 2


def test_plan_two_way_uncoded(two_way):
    _, g = simplified_graphs(two_way)
    bp = plan_code(g, [])
    assert bp.uncoded == (1, 2)
    assert bp.length == 2


def test_assign_senders_picks_smallest_owner(three_pairs):
    simple, g = simplified_graphs(three_pairs)
    bp = CodeBlueprint(
        connecting_trees=(Tree(mask_of({3, 4, 5, 6}),
                               ((3, 5), (4, 5), (4, 6))),),
        scc_spanning_trees=(),
        uncoded=(1, 2))
    c = assign_senders(simple, bp)
    by_mask = {row.coeffs: row for row in c.rows}
    assert by_mask[mask_of((3, 5))].sender == 1
    assert by_mask[mask_of((4, 5))].sender == 3
    assert by_mask[mask_of((4, 6))].sender == 4
    assert by_mask[mask_of((1,))].sender == 1
    assert by_mask[mask_of((2,))].sender == 2
    assert {row.kind for row in c.rows} == {"tree-xor", "uncoded"}
    for row in c.rows:
        assert row.support() <= simple.senders[row.sender - 1]


def test_assign_senders_rejects_non_edge(two_way):
    simple, g = simplified_graphs(two_way)
    bp = CodeBlueprint(
        connecting_trees=(Tree(mask_of({1, 2}), ((1, 2),)),),
        scc_spanning_trees=(), uncoded=())
    with pytest.raises(ValueError):
        assign_senders(simple, bp)


def _reference_assign_senders(inst, blueprint):
    """The sender scan that the owner lists replaced: every bit tests
    every sender in index order."""
    def owner_of_pair(i, j):
        for s, ms in enumerate(inst.senders, start=1):
            if i in ms and j in ms:
                return s
        raise ValueError(f"no sender owns both messages {i} and {j}")

    def owner_of(i):
        for s, ms in enumerate(inst.senders, start=1):
            if i in ms:
                return s
        raise ValueError(f"no sender owns message {i}")

    rows = []
    for tree in blueprint.connecting_trees:
        for i, j in tree.edges:
            rows.append(CodeRow(owner_of_pair(i, j), mask_of((i, j)), "tree-xor"))
    for tree in blueprint.scc_spanning_trees:
        for i, j in tree.edges:
            rows.append(CodeRow(owner_of_pair(i, j), mask_of((i, j)), "scc-xor"))
    for i in blueprint.uncoded:
        rows.append(CodeRow(owner_of(i), mask_of((i,)), "uncoded"))
    return LinearIndexCode(inst.num_messages, tuple(rows))


def _assign_outcome(assign, inst, blueprint):
    try:
        return assign(inst, blueprint)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(instances(max_m=6), st.data())
def test_assign_senders_matches_the_sender_scan(inst, data):
    # any pairs and messages, owned or not, and messages outside 1..m
    m = inst.num_messages
    pairs = st.tuples(st.integers(1, m), st.integers(1, m)).filter(
        lambda e: e[0] < e[1])
    trees = st.lists(pairs, max_size=3).map(
        lambda edges: Tree(0, tuple(edges)))
    blueprint = CodeBlueprint(
        tuple(data.draw(st.lists(trees, max_size=2) if m > 1 else st.just([]))),
        tuple(data.draw(st.lists(trees, max_size=2) if m > 1 else st.just([]))),
        tuple(data.draw(st.lists(st.integers(0, m + 1), max_size=4))))
    for case in (inst, simplify(inst)[0]):
        assert (_assign_outcome(assign_senders, case, blueprint)
                == _assign_outcome(_reference_assign_senders, case, blueprint))


def test_upper_bounds(three_pairs, triangle, two_way):
    for inst, expected in ((three_pairs, 5), (triangle, 2), (two_way, 2)):
        _, g = simplified_graphs(inst)
        trees = find_connecting_trees(g)
        assert upper_bound(g, trees) == expected


@settings(max_examples=60, deadline=None)
@given(instances(max_m=6))
def test_exact_trees_valid_and_planned_code_decodes(inst):
    simple, g = simplified_graphs(inst)
    trees = find_connecting_trees(g)
    tree_family_is_valid(g, trees)
    bp = plan_code(g, trees)
    c = assign_senders(simple, bp)
    assert c.length == upper_bound(g, trees)
    assert isinstance(rank_decodable(c, simple), DecodeCertificate)


# draws per family and m in 4..16: pairing draws often have candidates, the
# others rarely, and the subset search over them costs up to 0.1 s each
DRAWS = {"pairing": 20, "cycle": 4, "plain": 1, "partitioned": 1}


def test_condensation_search_matches_the_subset_search_on_family_draws():
    with_candidates = 0
    for family, count in DRAWS.items():
        for m in range(4, EXACT_LIMIT + 1):
            for g in _draw_graphs(family, m, count):
                assert g.n <= EXACT_LIMIT
                with_candidates += _matches_the_subset_search(g)
    assert with_candidates >= 40


@settings(max_examples=200, deadline=None)
@given(graph_pairs(max_n=7))
def test_condensation_search_matches_the_subset_search_on_graph_pairs(g):
    _matches_the_subset_search(g)


def _pad(g, n=EXACT_LIMIT + 1):
    """g with isolated vertices added up to n vertices."""
    return GraphPair(max(n, g.n), g.arcs, g.edges)


def _disjoint_union(parts):
    n, arcs, edges = 0, set(), set()
    for g in parts:
        arcs |= {(i + n, j + n) for i, j in g.arcs}
        edges |= {(i + n, j + n) for i, j in g.edges}
        n += g.n
    return GraphPair(n, frozenset(arcs), frozenset(edges))


# two 2-cycles, each message-disconnected inside, whose union is connected
TWO_HALVES = gp(4, arcs=[(1, 2), (2, 1), (3, 4), (4, 3)],
                edges=[(1, 3), (2, 3), (2, 4)])
# vertex 1 reaches both semi leaf SCCs {4,5} and {6,7}; 2 and 3 reach one each
BLOCKER = gp(7, arcs=[(1, 4), (1, 6), (2, 4), (3, 6), (4, 5), (5, 4), (6, 7), (7, 6)],
             edges=[(1, 4), (1, 5), (1, 6), (1, 7), (2, 4), (2, 5), (3, 6), (3, 7)])


def test_unions_are_candidates_up_to_the_limit_only():
    assert [t.vertices for t in find_connecting_trees(TWO_HALVES)] == [mask_of({1, 2, 3, 4})]
    with pytest.warns(UserWarning, match="greedy"):
        assert find_connecting_trees(_pad(TWO_HALVES)) == []


def test_packing_above_the_limit_beats_a_blocking_greedy_choice():
    g = _pad(BLOCKER)
    assert _greedy_trees(g, _excluded(g)) == [{1, 4, 5, 6, 7}]
    with pytest.warns(UserWarning, match="greedy"):
        trees = find_connecting_trees(g)
    assert [t.vertices for t in trees] == [mask_of({2, 4, 5}), mask_of({3, 6, 7})]


def _triples(k):
    """k disjoint copies of a vertex reaching a semi leaf SCC of two."""
    arcs, edges = [], []
    for a in range(1, 3 * k, 3):
        arcs += [(a, a + 1), (a + 1, a + 2), (a + 2, a + 1)]
        edges += [(a, a + 1), (a, a + 2)]
    return gp(3 * k, arcs, edges)


def _graphs_above_the_limit():
    """Seeded draws at m 20-64, disjoint unions of small pairing draws that
    have trees (unions of down-sets, so none survive above the limit), and
    gadgets whose principal down-sets are trees."""
    for family in DRAWS:
        for m in (20, 32, 64):
            yield from _draw_graphs(family, m, 2)
    small = [g for m in (8, 10, 12) for g in _draw_graphs("pairing", m, 20)
             if find_connecting_trees(g)]
    for start in range(0, len(small) - 2, 3):
        yield _disjoint_union(small[start:start + 3])
    yield _disjoint_union([BLOCKER, BLOCKER, BLOCKER])
    yield _triples(6)


def test_trees_above_the_limit_are_valid_and_never_fewer_than_greedy():
    with_trees = 0
    for g in _graphs_above_the_limit():
        if g.n <= EXACT_LIMIT:
            continue
        with pytest.warns(UserWarning, match="greedy"):
            trees = find_connecting_trees(g)
        tree_family_is_valid(g, trees)
        assert len(trees) >= len(_greedy_trees(g, _excluded(g)))
        with_trees += bool(trees)
    assert with_trees >= 2


def test_packing_needs_no_interpreter_recursion():
    """300 disjoint candidates are scored under a recursion limit of 50
    frames beyond the caller's."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        chosen = _max_packing([0b111 << 3 * k for k in range(300)])
    finally:
        sys.setrecursionlimit(limit)
    assert chosen == [0b111 << 3 * k for k in range(300)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 200).flatmap(lambda m: st.tuples(
    st.just(m),
    st.one_of(st.just(0), st.just((1 << m) - 1), st.just(1 << m >> 1),
              st.integers(0, (1 << m) - 1)))))
def test_code_document_coeffs_match_the_bit_loop(case):
    """m mostly not a multiple of 8, the zero row, the all-ones row and
    the row with only the top bit set among the drawn ones."""
    m, coeffs = case
    [row] = LinearIndexCode(m, (CodeRow(1, coeffs),)).to_document()["rows"]
    assert row["coeffs"] == [(coeffs >> i) & 1 for i in range(m)]


@settings(max_examples=200, deadline=None)
@given(instances(max_m=6).flatmap(lambda inst: st.tuples(st.just(inst), codes_for(inst))))
def test_code_document_reads_back(case):
    """A drawn code, and the planned code with its row kinds, read back
    from their documents as JSON text."""
    inst, drawn = case
    for c in (drawn, analyze(inst).planned):
        doc = json.loads(json.dumps(c.to_document()))
        back = LinearIndexCode.from_document(doc, "c")
        assert back == c and hash(back) == hash(c)
    with pytest.raises(AttributeError):
        back.rows = ()

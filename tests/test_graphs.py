from itertools import chain, combinations, islice

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from msindex import bound, graphs
from msindex.bound import GroundingTrace
from msindex.graphs import (DegeneracyWitness, LeafClass, classify_all,
                            classify_leaf_scc, check_degeneracy_witness,
                            grounded_set, is_grounded_digraph, leaf_vertices,
                            num_out_vertices, scc_decompose, to_dot)
from msindex.model import (GraphPair, adjacent, bits, build_graphs, edge_key,
                           mask_of, simplify)

from conftest import gp, simplified_graphs
from strategies import graph_pairs, instances


# --- independent oracles -------------------------------------------------

def closure(g, pairs=None):
    """Reachability by nonempty paths along ``pairs`` (default: the arcs),
    via repeated relaxation."""
    pairs = g.arcs if pairs is None else pairs
    reach = {v: {j for (i, j) in pairs if i == v} for v in g.vertices()}
    changed = True
    while changed:
        changed = False
        for v in g.vertices():
            extra = set()
            for w in reach[v]:
                extra |= reach[w]
            if not extra <= reach[v]:
                reach[v] |= extra
                changed = True
    return reach


def brute_sccs(g):
    reach = closure(g)
    comps = []
    seen = set()
    for v in g.vertices():
        if v in seen:
            continue
        comp = {v} | {w for w in reach[v] if v in reach[w]}
        comps.append(frozenset(comp))
        seen |= comp
    return sorted(comps, key=min)


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r)
                               for r in range(len(items) + 1))


def brute_degenerated(g, scc):
    """Exhaustive search over all bipartitions and all cover subsets."""
    reach = closure(g)
    leaves = frozenset(bits(leaf_vertices(g)))
    outside = sorted(set(g.vertices()) - scc)
    for part_t in powerset(sorted(scc)):
        part = frozenset(part_t)
        if not part or part == scc:
            continue
        rest = scc - part
        if any((i in part and j in rest) or (j in part and i in rest)
               for i, j in g.edges):
            continue
        nbrs = {j for e in g.edges for i, j in (e, e[::-1])
                if i in part and j not in part}
        for cover_t in powerset(outside):
            cover = frozenset(cover_t)
            if len(cover - leaves) > 1:
                continue
            if all(u in cover or any(z in reach[u] for z in cover)
                   for u in nbrs):
                return True
    return False


# --- scc decomposition ---------------------------------------------------

def test_scc_three_pairs(three_pairs):
    _, g = simplified_graphs(three_pairs)
    report = scc_decompose(g)
    assert report.sccs == [mask_of({1, 2}), mask_of({3, 4}), mask_of({5, 6})]
    assert report.leaf_sccs == [0, 1, 2]


def test_scc_triangle(triangle):
    _, g = simplified_graphs(triangle)
    report = scc_decompose(g)
    assert [report.sccs[k] for k in report.leaf_sccs] == [mask_of({1, 2, 3})]


def test_scc_path_has_no_leaf_scc():
    report = scc_decompose(gp(3, arcs=[(1, 2), (2, 3)]))
    assert len(report.sccs) == 3
    assert report.leaf_sccs == []


@given(graph_pairs(max_n=7))
def test_scc_matches_brute_force(g):
    assert scc_decompose(g).sccs == list(map(mask_of, brute_sccs(g)))


@given(graph_pairs(max_n=7))
def test_leaf_sccs_contain_no_leaf_vertex(g):
    report = scc_decompose(g)
    leaves = leaf_vertices(g)
    for k in report.leaf_sccs:
        assert not report.sccs[k] & leaves


# --- predecessors and groundedness ---------------------------------------

def test_predecessors_path():
    assert gp(3, arcs=[(1, 2), (2, 3)]).ancestors(mask_of({3})) == mask_of({1, 2})


def test_predecessors_cycle_includes_self(three_pairs):
    _, g = simplified_graphs(three_pairs)
    assert g.ancestors(mask_of({2})) == mask_of({1, 2})


def test_predecessors_isolated():
    assert gp(2, arcs=[]).ancestors(mask_of({1})) == 0


@given(graph_pairs(max_n=6))
def test_predecessors_match_closure(g):
    reach = closure(g)
    for v in g.vertices():
        assert g.ancestors(mask_of({v})) == mask_of(
            u for u in g.vertices() if v in reach[u])


def test_grounded_path_fully():
    assert grounded_set(gp(3, arcs=[(1, 2), (2, 3)])) == mask_of({1, 2, 3})


def test_grounded_three_pairs_empty(three_pairs):
    _, g = simplified_graphs(three_pairs)
    assert grounded_set(g) == 0
    assert not is_grounded_digraph(g)


def test_grounded_after_removing_one_arc(three_pairs):
    _, g = simplified_graphs(three_pairs)
    cut = gp(6, arcs=set(g.arcs) - {(1, 2)}, edges=g.edges)
    assert grounded_set(cut) == mask_of({1, 2})


def test_grounded_empty_arcs():
    assert is_grounded_digraph(gp(4))


@given(graph_pairs(max_n=7))
def test_groundedness_criteria_agree(g):
    no_leaf_scc = not scc_decompose(g).leaf_sccs
    assert is_grounded_digraph(g) == no_leaf_scc
    assert (grounded_set(g) == mask_of(g.vertices())) == no_leaf_scc


# --- m-neighbors ----------------------------------------------------------

def test_m_neighbors_examples(three_pairs):
    _, g = simplified_graphs(three_pairs)

    def m_neighbors(vs):
        return adjacent(g.adj, vs) & ~vs

    assert m_neighbors(mask_of({1})) == mask_of({3, 5})
    assert m_neighbors(mask_of({2})) == mask_of({3, 4, 5, 6})
    assert m_neighbors(g.vertex_mask) == 0


# --- classification -------------------------------------------------------

def test_classify_three_pairs_all_semi(three_pairs):
    _, g = simplified_graphs(three_pairs)
    report = classify_all(g)
    assert [report.classes[k] for k in report.leaf_sccs] == \
        [LeafClass.SEMI_NON_DEGENERATED] * 3


def test_classify_triangle_connected(triangle):
    _, g = simplified_graphs(triangle)
    cls, witness = classify_leaf_scc(g, mask_of({1, 2, 3}))
    assert cls is LeafClass.MESSAGE_CONNECTED
    assert witness is None


def test_classify_two_way_disconnected(two_way):
    _, g = simplified_graphs(two_way)
    cls, _ = classify_leaf_scc(g, mask_of({1, 2}))
    assert cls is LeafClass.MESSAGE_DISCONNECTED


def test_classify_rejects_non_leaf_scc(three_pairs):
    _, g = simplified_graphs(three_pairs)
    with pytest.raises(ValueError):
        classify_leaf_scc(g, mask_of({1, 3}))


def test_degeneracy_rejected_on_three_pairs(three_pairs):
    _, g = simplified_graphs(three_pairs)
    cls, witness = classify_leaf_scc(g, mask_of({1, 2}))
    assert cls is LeafClass.SEMI_NON_DEGENERATED and witness is None


def test_degeneracy_after_prune(three_pairs):
    # removing vertex 1's outgoing arcs makes {3,4} degenerated
    _, g = simplified_graphs(three_pairs)
    cut = gp(6, arcs=set(g.arcs) - {(1, 2)}, edges=g.edges)
    cls, witness = classify_leaf_scc(cut, mask_of({3, 4}))
    assert cls is LeafClass.SEMI_DEGENERATED
    assert witness.part == mask_of({3})
    assert witness.cover == mask_of({1, 5})
    assert not witness.vacuous


def test_degeneracy_single_leaf_cover():
    g = gp(3, arcs=[(1, 2), (2, 1)], edges=[(1, 3), (2, 3)])
    cls, witness = classify_leaf_scc(g, mask_of({1, 2}))
    assert cls is LeafClass.SEMI_DEGENERATED
    assert witness.part == mask_of({1})
    assert witness.cover == mask_of({3})


def test_is_degenerated_rejects_connected(triangle):
    _, g = simplified_graphs(triangle)
    assert classify_leaf_scc(g, mask_of({1, 2, 3})) == (LeafClass.MESSAGE_CONNECTED, None)


@settings(max_examples=60, deadline=None)
@given(graph_pairs(max_n=6))
def test_degeneracy_matches_brute_force(g):
    report = scc_decompose(g)
    for k in report.leaf_sccs:
        scc = report.sccs[k]
        if graphs.classify_without_degeneracy(g, scc) is not None:
            continue
        cls, witness = classify_leaf_scc(g, scc)
        degen = cls is LeafClass.SEMI_DEGENERATED
        assert degen == brute_degenerated(g, frozenset(bits(scc)))
        if degen:
            assert witness.vacuous or check_degeneracy_witness(g, scc, witness)


@settings(max_examples=40, deadline=None)
@given(graph_pairs(max_n=6))
def test_degeneracy_witness_monotone_in_leaves(g):
    report = scc_decompose(g)
    leaves = leaf_vertices(g)
    for k in report.leaf_sccs:
        scc = report.sccs[k]
        if graphs.classify_without_degeneracy(g, scc) is not None:
            continue
        cls, witness = classify_leaf_scc(g, scc)
        if cls is not LeafClass.SEMI_DEGENERATED or witness.vacuous:
            continue
        grown = DegeneracyWitness(witness.part, witness.cover | (leaves & ~scc))
        assert check_degeneracy_witness(g, scc, grown)


@given(instances(max_m=6))
def test_single_sender_leaf_sccs_all_connected(inst):
    merged = frozenset().union(*inst.senders)
    single = type(inst)(num_messages=inst.num_messages,
                        senders=(merged,), wants=inst.wants)
    simple, _ = simplify(single)
    g = build_graphs(simple)
    report = classify_all(g)
    for k in report.leaf_sccs:
        assert report.classes[k] is LeafClass.MESSAGE_CONNECTED


@given(instances(max_m=6))
def test_partitioned_senders_never_semi(inst):
    # rebuild the senders as a partition: each message to its first owner
    owner = {}
    for s, ms in enumerate(inst.senders):
        for msg in ms:
            owner.setdefault(msg, s)
    parts = [set() for _ in inst.senders]
    for msg, s in owner.items():
        parts[s].add(msg)
    split = type(inst)(num_messages=inst.num_messages,
                       senders=tuple(frozenset(p) for p in parts),
                       wants=inst.wants)
    simple, _ = simplify(split)
    report = classify_all(build_graphs(simple))
    for k in report.leaf_sccs:
        assert report.classes[k] in (LeafClass.MESSAGE_CONNECTED,
                                     LeafClass.MESSAGE_DISCONNECTED)


# --- kernel caches under grounding steps -----------------------------------

def kernel_queries(g):
    report = classify_all(g)
    return {
        "sccs": report.sccs,
        "leaf_sccs": [report.sccs[k] for k in report.leaf_sccs],
        "classes": [report.classes[k] for k in report.leaf_sccs],
        "witnesses": [report.witnesses.get(k) for k in report.leaf_sccs],
        "is_leaf_scc": [graphs.is_leaf_scc(g, c) for c in report.sccs],
        "leaves": leaf_vertices(g),
        "v_out": num_out_vertices(g),
        "predecessors": [g.ancestors(1 << (v - 1)) for v in g.vertices()],
        "grounded": grounded_set(g),
        "linked": [[a == b or bool(g.u_comp[a] >> (b - 1) & 1) for b in g.vertices()]
                   for a in g.vertices()],
        "m_neighbors": [adjacent(g.adj, c) & ~c for c in report.sccs],
        "u_components": [graphs.u_components(g, c) for c in report.sccs],
    }


def brute_queries(g):
    """The structural queries from g.arcs and g.edges alone."""
    reach = closure(g)
    both_ways = g.edges | {(j, i) for (i, j) in g.edges}
    linked = closure(g, both_ways)
    sccs = brute_sccs(g)
    leaf_sccs = [c for c in sccs
                 if len(c) > 1 and all(j in c for (i, j) in g.arcs if i in c)]
    leaves = frozenset(v for v in g.vertices() if not reach[v])

    def components(vs):
        inner = closure(g, {(i, j) for (i, j) in both_ways if i in vs and j in vs})
        return sorted({frozenset({v} | inner[v]) for v in vs}, key=min)

    return {
        "sccs": list(map(mask_of, sccs)),
        "leaf_sccs": list(map(mask_of, leaf_sccs)),
        "is_leaf_scc": [c in leaf_sccs for c in sccs],
        "leaves": mask_of(leaves),
        "v_out": g.n - len(leaves),
        "predecessors": [mask_of(u for u in g.vertices() if v in reach[u])
                         for v in g.vertices()],
        "grounded": mask_of(leaves | {u for u in g.vertices() if reach[u] & leaves}),
        "linked": [[a == b or b in linked[a] for b in g.vertices()]
                   for a in g.vertices()],
        "m_neighbors": [mask_of(j for (i, j) in both_ways if i in c and j not in c)
                        for c in sccs],
        "u_components": [list(map(mask_of, components(c))) for c in sccs],
    }


@st.composite
def pairing_graphs(draw):
    """Disjoint 2-cycles of wants and senders owning two or three messages:
    the regime where semi and degenerated leaf SCCs are common."""
    m = 2 * draw(st.integers(2, 5))
    order = draw(st.permutations(range(1, m + 1)))
    arcs = {(a, b) for x, y in zip(order[0::2], order[1::2])
            for a, b in ((x, y), (y, x))}
    owned = st.lists(st.sampled_from(range(1, m + 1)),
                     min_size=2, max_size=3, unique=True)
    edges = {edge_key(i, j)
             for sender in draw(st.lists(owned, min_size=2, max_size=m))
             for i, j in combinations(sender, 2)}
    return GraphPair(m, frozenset(arcs), frozenset(edges))


def _reference_witnesses(g, scc):
    """The degeneracy witnesses of a leaf SCC by testing every candidate
    cover in turn: the leaves outside the SCC alone, then with each
    non-leaf vertex w outside it, in increasing w."""
    scc_m = mask_of(scc)
    comps = g.components(scc_m)
    leaves = g.leaf_mask & ~scc_m
    covers = [leaves] + [leaves | 1 << (w - 1)
                         for w in bits(g.vertex_mask & ~scc_m & ~leaves)]
    found = []
    for r in range(1, len(comps)):
        for chosen in combinations(comps, r):
            part_m = sum(chosen)
            neighbors = adjacent(g.adj, part_m) & ~part_m
            if not neighbors:
                found.append(DegeneracyWitness(part_m, leaves, vacuous=True))
                continue
            for cover in covers:
                if not graphs._covered(g, neighbors, cover):
                    continue
                witness = DegeneracyWitness(part_m, cover)
                if check_degeneracy_witness(g, scc_m, witness):
                    found.append(witness)
    return found


def assert_witnesses_match(g):
    for k in g.leaf_sccs:
        scc = g.scc_masks[k]
        assert list(graphs.iter_degeneracy_witnesses(g, scc)) == \
            _reference_witnesses(g, frozenset(bits(scc)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(graph_pairs(max_n=7), pairing_graphs()))
def test_cover_search_matches_the_cover_loop(g):
    assert_witnesses_match(g)


CARRIED = ("leaf_mask", "scc_masks", "leaf_sccs", "leaf_scc_masks", "u_comp")


def assert_leaf_test_matches_the_scan(g):
    """`is_leaf_scc` on the leaf-SCC mask set agrees with a scan of the
    leaf SCCs, on every SCC, every single vertex, the unions of adjacent
    SCCs, the empty mask and the whole vertex set."""
    sccs = g.scc_masks
    probes = [*sccs, *(1 << (v - 1) for v in g.vertices()),
              *(a | b for a, b in zip(sccs, sccs[1:])), 0, g.vertex_mask]
    assert [graphs.is_leaf_scc(g, mask) for mask in probes] == \
        [any(sccs[k] == mask for k in g.leaf_sccs) for mask in probes]


def assert_caches_fresh(state):
    """The state equals the same graphs built from their pairs, and every
    cache and memo entry it holds equals the fresh answer."""
    fresh = GraphPair(state.n, state.arcs, state.edges)
    assert state == fresh and hash(state) == hash(fresh)
    held = [name for name in CARRIED if name in vars(state)]
    assert [vars(state)[name] for name in held] == \
        [getattr(fresh, name) for name in held]
    assert all(fresh.ancestors(mask) == found
               for mask, found in state._ancestors.items())
    assert all(fresh.descendants(mask) == found
               for mask, found in state._descendants.items())
    assert all(graphs.classify_without_degeneracy(fresh, mask) is cls
               for mask, cls in state.leaf_classes.items())


def assert_carried_caches_fresh(state):
    """A step from a state with every cache filled carried them all."""
    assert set(CARRIED) <= vars(state).keys()
    assert_caches_fresh(state)


@settings(max_examples=150, deadline=None)
@given(st.one_of(graph_pairs(max_n=6), pairing_graphs()), st.data())
def test_cached_queries_follow_grounding_steps(g, data):
    """Random prune, dummy, witness-arc and edge steps; after each, the
    state equals a freshly built GraphPair with every carried cache equal
    to the fresh one's, every cached query equals the same query on the
    fresh object and the brute-force oracles, the cover search matches
    the cover loop, and a clone taken before the step keeps the state it
    shared."""
    trace = GroundingTrace.from_graphs(g)
    for _ in range(8):
        state = trace.graphs
        if state is not g:
            assert_carried_caches_fresh(state)
        assert_leaf_test_matches_the_scan(state)
        cached = kernel_queries(state)
        assert kernel_queries(GraphPair(state.n, state.arcs, state.edges)) == cached
        brute = brute_queries(state)
        assert {key: cached[key] for key in brute} == brute
        assert_witnesses_match(state)
        if not cached["leaf_sccs"]:
            break
        k = data.draw(st.integers(0, len(cached["leaf_sccs"]) - 1))
        scc, cls, witness = (cached[key][k]
                             for key in ("leaf_sccs", "classes", "witnesses"))
        steps = ["prune"]
        if cls is LeafClass.MESSAGE_DISCONNECTED:
            steps.append("dummy")
        if cls in (LeafClass.SEMI_DEGENERATED, LeafClass.SEMI_NON_DEGENERATED):
            steps.append("edges")
        if witness is not None and witness.cover:
            steps.append("witness")
        step = data.draw(st.sampled_from(steps))
        before = trace.clone()
        if step == "prune":
            bound._apply_prune(trace, scc,
                               data.draw(st.sampled_from(list(bits(scc)))))
        elif step == "dummy":
            bound._apply_dummy(trace, scc, next(bits(scc)))
        elif step == "edges":
            bound._apply_edges(trace, scc,
                               next(bound._all_edge_options(trace, scc)))
        else:
            tag, targets = bound._witness_action(state, witness)
            bound._apply_degenerate_arc(trace, scc, witness,
                                        next(bits(witness.part)), targets[0], tag)
        assert trace.graphs != state
        assert before.graphs is state and kernel_queries(state) == cached


@settings(max_examples=200, deadline=None)
@given(st.one_of(graph_pairs(max_n=7), pairing_graphs()), st.data())
def test_engine_choices_carry_fresh_caches(g, data):
    """Random choices of the grounding engine itself: any option at a
    sweep's choice points (so witness arcs from every source to every
    target), then a phase-2 iteration, pruning one message-connected
    leaf SCC or connecting any semi one by any edge set; after each step
    the carried caches and the cover search are checked."""
    trace = GroundingTrace.from_graphs(g)
    stage, once = bound._PRUNE, False
    for _ in range(16):
        kernel_queries(trace.graphs)
        point = bound._choice_point(trace, once, stage)
        if point is not None:
            stage, options = point
            stage = bound._take(trace, once, stage,
                                data.draw(st.sampled_from(list(islice(options, 40)))))
        elif not trace.graphs.leaf_sccs:
            break
        else:
            opening = None
            if not graphs.leaf_sccs_of_class(trace.graphs,
                                             LeafClass.MESSAGE_CONNECTED):
                state = trace.graphs
                scc = data.draw(st.sampled_from([state.scc_masks[k]
                                                 for k in state.leaf_sccs]))
                opening = scc, data.draw(st.sampled_from(list(
                    islice(bound._all_edge_options(trace, scc), 20))))
            stage, once = bound._PRUNE, bound._open(trace, opening)
        assert_carried_caches_fresh(trace.graphs)
        assert_leaf_test_matches_the_scan(trace.graphs)
        assert_witnesses_match(trace.graphs)


def _children(trace):
    """A clone of ``trace`` after each step it admits: a prune at every
    vertex and a dummy from every vertex of each leaf SCC that allows
    them, connecting edges for each semi one, and the first witness arcs."""
    children = []

    def child(step, *args):
        twin = trace.clone()
        step(twin, *args)
        children.append(twin)

    g = trace.graphs
    for scc in (g.scc_masks[k] for k in g.leaf_sccs):
        cls = graphs.classify_without_degeneracy(trace.graphs, scc)
        for v in bits(scc):
            child(bound._apply_prune, scc, v)
            if cls is LeafClass.MESSAGE_DISCONNECTED:
                child(bound._apply_dummy, scc, v)
        if cls is None:
            child(bound._apply_edges, scc,
                  next(bound._all_edge_options(trace, scc)))
    for option in islice(bound._degenerated_options(trace), 20):
        child(bound._apply_degenerate_arc, *option)
    return children


@settings(max_examples=100, deadline=None)
@given(st.one_of(graph_pairs(max_n=6), pairing_graphs()))
def test_sibling_states_hold_fresh_caches(g):
    """Two levels of every step from g.  Siblings and cousins share the
    memos a step carries, so all are filled before any is checked."""
    states = level = [GroundingTrace.from_graphs(g)]
    for _ in range(2):
        level = [c for trace in level for c in _children(trace)][:40]
        states = states + level
    for trace in states:
        kernel_queries(trace.graphs)
    for trace in states:
        assert_caches_fresh(trace.graphs)


# --- dot export ------------------------------------------------------------

def test_dot_counts_three_pairs(three_pairs):
    _, g = simplified_graphs(three_pairs)
    dot = to_dot(g)
    lines = dot.splitlines()
    arcs = [l for l in lines if "->" in l and "color=red" not in l]
    reds = [l for l in lines if "color=red" in l]
    assert len(arcs) == 6
    assert len(reds) == 9
    assert dot.count("subgraph cluster_") == 3
    assert "SemiNonDegenerated" in dot


def test_dot_counts_two_way(two_way):
    _, g = simplified_graphs(two_way)
    dot = to_dot(g)
    lines = dot.splitlines()
    assert len([l for l in lines if "->" in l and "color=red" not in l]) == 2
    assert len([l for l in lines if "color=red" in l]) == 0


def test_dot_marks_dummies_dashed():
    g = gp(3, arcs=[(1, 2), (1, 3)])
    dot = to_dot(g, dummies=mask_of({3}))
    assert "3 [style=dashed];" in dot

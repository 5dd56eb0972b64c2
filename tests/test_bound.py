import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from msindex import graphs
from msindex.bound import (GroundingTrace, _all_edge_options,
                           _apply_degenerate_arc, _apply_dummy, _apply_edges,
                           _apply_prune, _degenerated_options, _witness_action,
                           break_leaf_sccs, lower_bound, run_grounding)
from msindex.graphs import (LeafClass, classify_leaf_scc, grounded_set,
                            is_grounded_digraph, num_out_vertices, scc_decompose)

from msindex.model import GraphPair, bits, build_graphs, edge_key, mask_of, simplify

from conftest import gp, make_instance, simplified_graphs
from strategies import graph_pairs, instances

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from find_gaps import random_pairing_instance  # noqa: E402


def leaf_scc_sets(g):
    return scc_decompose(g).leaf_sccs


def witness_arc(trace, scc, witness):
    """The engine's first arc for a witness: from the smallest part
    vertex to the first target `_witness_action` names."""
    tag, targets = _witness_action(trace.graphs, witness)
    _apply_degenerate_arc(trace, scc, witness, next(bits(witness.part)),
                          targets[0], tag)


def chain_edges(trace, scc):
    """The engine's first edge set connecting a semi leaf SCC, applied."""
    edges = next(_all_edge_options(trace, scc))
    _apply_edges(trace, scc, edges)
    return edges


# --- individual steps ------------------------------------------------------

def test_each_step_runs_post_init_once(monkeypatch, three_pairs):
    """Every construction, built or stepped, runs the shape check once:
    the benchmark counts constructions through it."""
    runs = []
    check = GraphPair.__post_init__
    monkeypatch.setattr(GraphPair, "__post_init__",
                        lambda g: runs.append(g) or check(g))
    _, g = simplified_graphs(three_pairs)
    assert len(runs) == 1
    trace = GroundingTrace.from_graphs(g)
    scc = mask_of({1, 2})
    leaf_scc_sets(g)
    steps = [lambda: _apply_edges(trace, scc, ((1, 2),)),
             lambda: _apply_dummy(trace, scc, 1),
             lambda: _apply_degenerate_arc(
                 trace, mask_of({3, 4}),
                 graphs.DegeneracyWitness(mask_of({3}), mask_of({1})),
                 3, 1, "iii-a"),
             lambda: _apply_prune(trace, mask_of({5, 6}), 5)]
    for step in steps:
        before = len(runs)
        step()
        assert runs[before:] == [trace.graphs]



def test_prune_triangle_grounds_everything(triangle):
    _, g = simplified_graphs(triangle)
    trace = GroundingTrace.from_graphs(g)
    _apply_prune(trace, mask_of({1, 2, 3}), 1)
    assert grounded_set(trace.graphs) == mask_of({1, 2, 3})
    assert trace.log == [{"step": "i", "scc": [1, 2, 3], "vertex": 1,
                          "removed_arcs": [[1, 2]]}]


def test_prune_drops_leaf_scc_count(three_pairs):
    _, g = simplified_graphs(three_pairs)
    trace = GroundingTrace.from_graphs(g)
    assert len(leaf_scc_sets(trace.graphs)) == 3
    _apply_prune(trace, mask_of({1, 2}), 1)
    assert len(leaf_scc_sets(trace.graphs)) == 2


def test_prune_two_cycle_removes_one_out_vertex(two_way):
    _, g = simplified_graphs(two_way)
    trace = GroundingTrace.from_graphs(g)
    before = num_out_vertices(trace.graphs)
    _apply_prune(trace, mask_of({1, 2}), 2)
    assert num_out_vertices(trace.graphs) == before - 1


def test_append_dummy_two_way(two_way):
    _, g = simplified_graphs(two_way)
    trace = GroundingTrace.from_graphs(g)
    dummy = _apply_dummy(trace, mask_of({1, 2}), 1)
    assert dummy == 3
    assert (1, 3) in trace.graphs.arcs
    assert leaf_scc_sets(trace.graphs) == []
    assert trace.dummies == mask_of({3})


def test_append_dummy_twice_keeps_v_out():
    inst = make_instance(4, senders=[{1}, {2}, {3}, {4}],
                         wants=[{2}, {1}, {4}, {3}])
    _, g = simplified_graphs(inst)
    trace = GroundingTrace.from_graphs(g)
    _apply_dummy(trace, mask_of({1, 2}), 1)
    _apply_dummy(trace, mask_of({3, 4}), 3)
    assert trace.dummy_count == 2
    assert num_out_vertices(trace.graphs, exclude=trace.dummies) == 4


def test_degenerate_arcs_merge_three_pairs(three_pairs):
    # drive the documented middle part of the run by hand
    _, g = simplified_graphs(three_pairs)
    trace = GroundingTrace.from_graphs(g)
    assert chain_edges(trace, mask_of({1, 2})) == ((1, 2),)
    _apply_prune(trace, mask_of({1, 2}), 1)

    cls, witness = classify_leaf_scc(trace.graphs, mask_of({3, 4}))
    assert cls is LeafClass.SEMI_DEGENERATED
    assert witness.part == mask_of({3}) and witness.cover == mask_of({1, 5})
    witness_arc(trace, mask_of({3, 4}), witness)
    assert (3, 5) in trace.graphs.arcs
    assert mask_of({3, 4}) not in leaf_scc_sets(trace.graphs)

    cls, witness = classify_leaf_scc(trace.graphs, mask_of({5, 6}))
    assert cls is LeafClass.SEMI_DEGENERATED
    assert witness.part == mask_of({5}) and witness.cover == mask_of({1, 3})
    witness_arc(trace, mask_of({5, 6}), witness)
    assert (5, 3) in trace.graphs.arcs
    assert leaf_scc_sets(trace.graphs) == [mask_of({3, 4, 5, 6})]


def test_degenerate_arc_to_all_leaf_cover_grounds():
    g = gp(3, arcs=[(1, 2), (2, 1)], edges=[(1, 3), (2, 3)])
    trace = GroundingTrace.from_graphs(g)
    cls, witness = classify_leaf_scc(g, mask_of({1, 2}))
    assert cls is LeafClass.SEMI_DEGENERATED and witness.cover == mask_of({3})
    witness_arc(trace, mask_of({1, 2}), witness)
    assert (1, 3) in trace.graphs.arcs
    assert trace.log[-1]["step"] == "iii-b"
    assert leaf_scc_sets(trace.graphs) == []


def test_make_message_connected_two_singletons(three_pairs):
    _, g = simplified_graphs(three_pairs)
    trace = GroundingTrace.from_graphs(g)
    added = chain_edges(trace, mask_of({1, 2}))
    assert added == ((1, 2),)
    assert graphs.classify_without_degeneracy(trace.graphs, mask_of({1, 2})) \
        is graphs.LeafClass.MESSAGE_CONNECTED


def test_make_message_connected_three_components():
    g = gp(4, arcs=[(1, 2), (2, 3), (3, 1)],
           edges=[(1, 4), (2, 4), (3, 4)])
    trace = GroundingTrace.from_graphs(g)
    added = chain_edges(trace, mask_of({1, 2, 3}))
    assert added == ((1, 2), (2, 3))


# --- sweeps ----------------------------------------------------------------

def test_sweep_triangle_single_prune(triangle):
    _, g = simplified_graphs(triangle)
    trace = GroundingTrace.from_graphs(g)
    break_leaf_sccs(trace)
    assert [s["step"] for s in trace.log] == ["i"]
    assert is_grounded_digraph(trace.graphs)


def test_sweep_three_pairs_is_noop(three_pairs):
    _, g = simplified_graphs(three_pairs)
    trace = GroundingTrace.from_graphs(g)
    break_leaf_sccs(trace)
    assert trace.log == []
    assert len(leaf_scc_sets(trace.graphs)) == 3


def test_sweep_two_way_appends_one_dummy(two_way):
    _, g = simplified_graphs(two_way)
    trace = GroundingTrace.from_graphs(g)
    break_leaf_sccs(trace)
    assert [s["step"] for s in trace.log] == ["ii"]
    assert trace.dummy_count == 1


def test_sweep_returns_to_dummies_after_a_witness_arc():
    # the witness arc 1 -> 3 closes the cycle 1 -> 3 -> 4 -> 1, which
    # merges {1, 2} into the leaf SCC {1, 2, 3, 4}; vertex 4 has no message
    # edge, so the merged SCC is message-disconnected and needs a dummy
    _, g = simplified_graphs(make_instance(
        4, senders=[{1, 3}, {2, 3}, {4}], wants=[{2, 4}, {1}, set(), {3}]))
    trace = GroundingTrace.from_graphs(g)
    break_leaf_sccs(trace)
    assert trace.log == [
        {"step": "iii-a", "scc": [1, 2], "part": [1], "cover": [3],
         "source": 1, "target": 3},
        {"step": "ii", "scc": [1, 2, 3, 4], "source": 1, "dummy": 5}]
    assert is_grounded_digraph(trace.graphs)
    assert_matches_reference(g)


# --- full runs ---------------------------------------------------------------

def test_run_three_pairs_counters(three_pairs):
    _, g = simplified_graphs(three_pairs)
    trace = run_grounding(g)
    assert (trace.n_connected, trace.n_remaining, trace.n_iv) == (0, 3, 2)
    tags = [s["step"] for s in trace.log]
    assert tags == ["iv-a", "iv-b", "iv-c", "i", "iii-a", "iii-a", "iv-0", "i"]
    assert {"step": "iii-a", "scc": [3, 4], "part": [3], "cover": [1, 5],
            "source": 3, "target": 5} in trace.log
    assert {"step": "iii-a", "scc": [5, 6], "part": [5], "cover": [1, 3],
            "source": 5, "target": 3} in trace.log
    assert lower_bound(trace) == 4


def test_run_triangle_counters(triangle):
    _, g = simplified_graphs(triangle)
    trace = run_grounding(g)
    assert (trace.n_connected, trace.n_remaining, trace.n_iv) == (1, 0, 0)
    assert lower_bound(trace) == 2


def test_run_two_way_counters(two_way):
    _, g = simplified_graphs(two_way)
    trace = run_grounding(g)
    assert (trace.n_connected, trace.n_remaining, trace.n_iv) == (0, 0, 0)
    assert trace.dummy_count == 1
    assert lower_bound(trace) == 2


def test_lower_bound_requires_completed_trace(three_pairs):
    _, g = simplified_graphs(three_pairs)
    with pytest.raises(ValueError):
        lower_bound(GroundingTrace.from_graphs(g))


def test_exhaustive_budget_fallback(three_pairs):
    _, g = simplified_graphs(three_pairs)
    with pytest.warns(UserWarning, match="falling back"):
        trace = run_grounding(g, "exhaustive", state_budget=1)
    assert trace.fell_back
    assert lower_bound(trace) == 4


def test_run_rejects_unknown_mode(two_way):
    _, g = simplified_graphs(two_way)
    with pytest.raises(ValueError):
        run_grounding(g, "fast")


def test_exhaustive_strictly_beats_deterministic_sometimes():
    # three 2-cycles whose message graph rewards connecting {3,4} first;
    # the smallest-index rule starts at {1,2} and needs an extra round
    inst = make_instance(
        6,
        senders=[{1, 4}, {1, 6}, {2, 3}, {2, 5}, {2, 6}, {3, 5}, {3, 6},
                 {4, 6}],
        wants=[{2}, {1}, {4}, {3}, {6}, {5}])
    _, g = simplified_graphs(inst)
    det = run_grounding(g, "deterministic")
    exh = run_grounding(g, "exhaustive")
    assert det.n_iv == 2 and lower_bound(det) == 4
    assert exh.n_iv == 1 and lower_bound(exh) == 5


# --- the earlier deterministic run, kept as the reference ---------------------
#
# A sweep paused on a (stage, pruned, acted) triple and ended after a round
# that did nothing.  Phase 2 either logged iv-0 and swept with a prune
# limit of 1, or listed every semi leaf SCC with its chain edges and
# connected the first.  The engine's deterministic run must log the same
# steps and reach the same state.

_PRUNE, _DUMMY, _DEGENERATE = range(3)
_CAP = 10_000


def _reference_sweep(trace, prune_limit):
    stage, pruned, acted = _PRUNE, 0, False
    for _ in range(_CAP):
        g = trace.graphs
        if stage == _PRUNE:
            connected = graphs.leaf_sccs_of_class(g, LeafClass.MESSAGE_CONNECTED)
            if connected and (prune_limit is None or pruned < prune_limit):
                _apply_prune(trace, connected[0], min(bits(connected[0])))
                pruned += 1
                continue
            stage = _DUMMY
        elif stage == _DUMMY:
            disconnected = graphs.leaf_sccs_of_class(
                g, LeafClass.MESSAGE_DISCONNECTED)
            if disconnected:
                _apply_dummy(trace, disconnected[0], min(bits(disconnected[0])))
                acted = True
                continue
            stage = _DEGENERATE
        else:
            option = next(_degenerated_options(trace), None)
            if option is not None:
                _apply_degenerate_arc(trace, *option)
                acted = True
                continue
            if not acted:
                return
            stage, acted = _DUMMY, False
    raise AssertionError("sweep failed to terminate")


def _phase2_branch_options(trace):
    """Every semi leaf SCC with the edges chaining its message components
    through their smallest members."""
    options = []
    for scc in leaf_scc_sets(trace.graphs):
        cls = graphs.classify_without_degeneracy(trace.graphs, scc)
        if cls is not None:
            raise AssertionError(f"unexpected {cls} leaf SCC at iteration start")
        reps = [min(bits(c)) for c in graphs.u_components(trace.graphs, scc)]
        options.append((tuple(bits(scc)),
                        tuple(map(edge_key, reps, reps[1:]))))
    return options


def reference_deterministic(g):
    trace = GroundingTrace.from_graphs(g)
    _reference_sweep(trace, None)
    trace.n_connected = sum(1 for step in trace.log if step["step"] == "i")
    trace.n_remaining = len(leaf_scc_sets(trace.graphs))
    for _ in range(_CAP):
        if not leaf_scc_sets(trace.graphs):
            return trace
        if graphs.leaf_sccs_of_class(trace.graphs, LeafClass.MESSAGE_CONNECTED):
            trace.log.append({"step": "iv-0"})
            _reference_sweep(trace, 1)
        else:
            scc_t, edges = _phase2_branch_options(trace)[0]
            trace.log.append({"step": "iv-a", "scc": list(scc_t)})
            _apply_edges(trace, mask_of(scc_t), edges)
            trace.log.append({"step": "iv-c"})
            _reference_sweep(trace, None)
        trace.n_iv += 1
    raise AssertionError("phase 2 failed to terminate")


def assert_matches_reference(g):
    new, ref = run_grounding(g), reference_deterministic(g)
    assert new.log == ref.log
    assert ((new.n_connected, new.n_remaining, new.n_iv)
            == (ref.n_connected, ref.n_remaining, ref.n_iv))
    assert (new.graphs, new.dummies) == (ref.graphs, ref.dummies)


@settings(max_examples=150, deadline=None)
@given(graph_pairs(max_n=7))
def test_deterministic_run_matches_the_reference(g):
    assert_matches_reference(g)


@pytest.mark.parametrize("m", [4, 6, 8, 16, 32])
def test_deterministic_run_matches_the_reference_on_pairing_draws(m):
    rng = random.Random(f"det-reference/{m}")
    for _ in range(12):
        assert_matches_reference(
            build_graphs(simplify(random_pairing_instance(rng, m))[0]))


def test_deterministic_run_matches_the_reference_on_gadgets():
    k = 20
    senders, wants = [], []
    for a in range(1, 3 * k, 3):
        senders += [{a, a + 1}, {a, a + 2}]
        wants += [set(), {a, a + 2}, {a + 1}]
    _, g = simplified_graphs(make_instance(3 * k, senders, wants))
    assert_matches_reference(g)
    assert [s["step"] for s in run_grounding(g).log] == ["iii-a"] * k + ["iv-0", "i"] * k


# --- structural properties ---------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(graph_pairs(max_n=7))
def test_run_terminates_grounded_with_identity(g):
    trace = run_grounding(g)
    assert trace.complete
    assert not leaf_scc_sets(trace.graphs)
    assert is_grounded_digraph(trace.graphs)
    assert trace.n_iv <= trace.n_remaining
    # the lower_bound call itself asserts the counting identity
    assert lower_bound(trace) == (num_out_vertices(g)
                                  - trace.n_connected - trace.n_iv)


@settings(max_examples=80, deadline=None)
@given(graph_pairs(max_n=7))
def test_n_connected_matches_original_classes(g):
    trace = run_grounding(g)
    report = graphs.classify_all(g)
    n_connected = sum(
        1 for scc in report.leaf_sccs
        if report.classes[scc] is graphs.LeafClass.MESSAGE_CONNECTED)
    assert trace.n_connected == n_connected
    # each report has dicts of its own
    fresh = scc_decompose(g)
    assert (fresh.classes, fresh.witnesses) == ({}, {})


@settings(max_examples=40, deadline=None)
@given(graph_pairs(max_n=5))
def test_exhaustive_never_worse(g):
    det = run_grounding(g, "deterministic")
    exh = run_grounding(g, "exhaustive")
    assert not exh.fell_back
    assert exh.n_iv <= det.n_iv
    assert lower_bound(exh) >= lower_bound(det)


@settings(max_examples=50, deadline=None)
@given(instances(max_m=6))
def test_instance_runs_are_deterministic(inst):
    _, g = simplified_graphs(inst)
    a = run_grounding(g)
    b = run_grounding(g)
    assert a.log == b.log
    assert lower_bound(a) == lower_bound(b)


def test_sandwich_in_the_cycle_heavy_regime():
    # permutation wants with tiny senders produce the semi leaf SCCs that
    # force phase-2 iterations; small candidate sets keep the oracle fast
    import random

    from msindex.code import find_connecting_trees, upper_bound
    from msindex.generate import random_cycle_instance
    from msindex.model import build_graphs, simplify
    from msindex.verify import oracle_min_linear

    rng = random.Random(15)
    phase2_runs = 0
    for _ in range(40):
        inst = random_cycle_instance(rng, rng.randint(6, 7),
                                     sender_size=rng.randint(2, 3))
        simple, _ = simplify(inst)
        g = build_graphs(simple)
        trace = run_grounding(g, "exhaustive")
        trees = find_connecting_trees(g)
        lb = lower_bound(trace)
        ub = upper_bound(g, trees)
        length, _ = oracle_min_linear(simple)
        assert lb <= length <= ub
        assert trace.n_iv >= len(trees)
        phase2_runs += bool(trace.n_iv)
    assert phase2_runs > 0


def test_disjoint_gadgets_take_one_iteration_each():
    # k copies of: messages a, b, c; b wants a and c; c wants b; senders
    # {a, b} and {a, c}.  Each leaf SCC {b, c} is degenerated, its witness
    # arc b -> a makes {a, b, c} message-connected, and phase 2 prunes it
    from msindex import analyze

    k = 100
    senders, wants = [], []
    for a in range(1, 3 * k, 3):
        senders += [{a, a + 1}, {a, a + 2}]
        wants += [set(), {a, a + 2}, {a + 1}]
    result = analyze(make_instance(3 * k, senders, wants))
    with pytest.warns(UserWarning, match="greedy connecting-tree search"):
        assert (result.lower_bound, result.upper_bound) == (200, 200)
    assert (result.trace.n_iv, result.trace.n_connected) == (100, 0)

"""Exhaustive grounding: the lazy search against the replay search it replaced.

The reference below is the replay search verbatim: each sweep is re-run
from its base state under a script of choice indices, a missing choice is
signalled by an exception, every phase-1 and phase-2 outcome is scored,
and the selected trace is rebuilt by replaying scripts.  The search in
``msindex.bound`` must select the same trace wherever the reference
finishes within its budget.
"""

import random
import sys
import warnings
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msindex import bound, graphs
from msindex.bound import (_apply_degenerate_arc, _apply_dummy, _apply_edges,
                           _apply_prune, _all_edge_options,
                           _degenerated_options, _finish,
                           GroundingTrace, lower_bound, run_grounding)
from msindex.model import GraphPair, bits, build_graphs, edge_key, mask_of, simplify

from strategies import graph_pairs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from find_gaps import random_pairing_instance  # noqa: E402


# --- the replay search, kept as the reference ---------------------------------

class _NeedChoice(Exception):
    def __init__(self, n_options: int):
        self.n_options = n_options


class _BudgetExceeded(Exception):
    pass


class _ScriptChooser:
    """Replays a fixed prefix of choice indices; asks for more by raising."""

    def __init__(self, script: tuple[int, ...]):
        self.script = script
        self.pos = 0

    def pick(self, options):
        options = list(options)
        if not options:
            return None
        if self.pos < len(self.script):
            idx = self.script[self.pos]
            self.pos += 1
            return options[idx]
        raise _NeedChoice(len(options))


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise _BudgetExceeded


_LOOP_CAP = 1000


def _leaf_scc_sets(trace: GroundingTrace) -> list[int]:
    g = trace.graphs
    return [g.scc_masks[k] for k in g.leaf_sccs]


def _phase2_branch_options(trace: GroundingTrace) -> list[tuple]:
    options = []
    for scc in _leaf_scc_sets(trace):
        cls = graphs.classify_without_degeneracy(trace.graphs, scc)
        if cls is not None:
            raise AssertionError(
                f"unexpected {cls} leaf SCC {list(bits(scc))} at iteration start")
        reps = [min(bits(c)) for c in graphs.u_components(trace.graphs, scc)]
        options.append((tuple(bits(scc)),
                        tuple(edge_key(reps[k], reps[k + 1])
                              for k in range(len(reps) - 1))))
    return options


def _run_sweep(trace: GroundingTrace, prune_limit: int | None, chooser) -> None:
    pruned = 0
    for _ in range(_LOOP_CAP):
        connected = graphs.leaf_sccs_of_class(
            trace.graphs, graphs.LeafClass.MESSAGE_CONNECTED)
        if not connected or (prune_limit is not None and pruned >= prune_limit):
            break
        if prune_limit == 1:
            options = [(tuple(bits(scc)), v)
                       for scc in connected for v in bits(scc)]
            scc_t, v = chooser.pick(options)
            _apply_prune(trace, mask_of(scc_t), v)
        else:
            scc = connected[0]
            v = chooser.pick(bits(scc))
            _apply_prune(trace, scc, v)
        pruned += 1
    else:
        raise AssertionError("prune loop failed to terminate")

    for _ in range(_LOOP_CAP):
        acted = False
        for _ in range(_LOOP_CAP):
            disconnected = graphs.leaf_sccs_of_class(
                trace.graphs, graphs.LeafClass.MESSAGE_DISCONNECTED)
            if not disconnected:
                break
            scc = disconnected[0]
            source = chooser.pick(bits(scc))
            _apply_dummy(trace, scc, source)
            acted = True
        else:
            raise AssertionError("dummy loop failed to terminate")
        for _ in range(_LOOP_CAP):
            option = chooser.pick(_degenerated_options(trace))
            if option is None:
                break
            scc, witness, source, target, tag = option
            _apply_degenerate_arc(trace, scc, witness, source, target, tag)
            acted = True
        else:
            raise AssertionError("degenerated loop failed to terminate")
        if not acted:
            break
    else:
        raise AssertionError("sweep failed to terminate")


def _enumerate_sweeps(trace: GroundingTrace, prune_limit: int | None,
                      budget: _Budget) -> list[tuple[tuple[int, ...], GroundingTrace]]:
    """All completed-sweep outcomes by choice script, shortlex order,
    deduplicated by canonical state."""
    outcomes: dict[tuple, tuple[tuple[int, ...], GroundingTrace]] = {}
    queue: deque[tuple[int, ...]] = deque([()])
    while queue:
        script = queue.popleft()
        budget.spend()
        work = trace.clone()
        try:
            _run_sweep(work, prune_limit, _ScriptChooser(script))
        except _NeedChoice as need:
            for k in range(need.n_options):
                queue.append(script + (k,))
        else:
            outcomes.setdefault(work.canonical_key(), (script, work))
    return list(outcomes.values())


def _iteration_outcomes(trace: GroundingTrace, budget: _Budget
                        ) -> list[tuple[tuple, GroundingTrace]]:
    """All distinct states one phase-2 iteration can reach, with the
    recipe needed to replay each."""
    results: dict[tuple, tuple[tuple, GroundingTrace]] = {}
    if graphs.leaf_sccs_of_class(trace.graphs, graphs.LeafClass.MESSAGE_CONNECTED):
        for script, work in _enumerate_sweeps(trace, 1, budget):
            results.setdefault(work.canonical_key(), (("iv-0", script), work))
        return list(results.values())
    for scc_t, _ in _phase2_branch_options(trace):
        scc = mask_of(scc_t)
        for edges in _all_edge_options(trace, scc):
            staged = trace.clone()
            staged.log.append({"step": "iv-a", "scc": list(scc_t)})
            _apply_edges(staged, scc, edges)
            staged.log.append({"step": "iv-c"})
            for script, work in _enumerate_sweeps(staged, None, budget):
                recipe = ("iv-abc", scc_t, edges, script)
                results.setdefault(work.canonical_key(), (recipe, work))
    return list(results.values())


def _run_exhaustive(g, budget: _Budget) -> GroundingTrace:
    base = GroundingTrace.from_graphs(g)
    base.mode = "exhaustive"
    memo: dict[tuple, int] = {}
    visiting: set[tuple] = set()

    def min_iv(state: GroundingTrace) -> int:
        key = state.canonical_key()
        if key in memo:
            return memo[key]
        if key in visiting:
            raise AssertionError("phase-2 state revisited without progress")
        if not _leaf_scc_sets(state):
            memo[key] = 0
            return 0
        visiting.add(key)
        best = min(1 + min_iv(nxt) for _, nxt in _iteration_outcomes(state, budget))
        visiting.discard(key)
        memo[key] = best
        return best

    phase1 = _enumerate_sweeps(base, None, budget)
    best_idx, best_iv = 0, None
    for idx, (_, outcome) in enumerate(phase1):
        iv = min_iv(outcome)
        if best_iv is None or iv < best_iv:
            best_idx, best_iv = idx, iv

    script, _ = phase1[best_idx]
    trace = base
    _run_sweep(trace, None, _ScriptChooser(script))
    trace.n_connected = sum(1 for step in trace.log if step["step"] == "i")
    trace.n_remaining = len(_leaf_scc_sets(trace))

    while _leaf_scc_sets(trace):
        target = min_iv(trace) - 1
        for recipe, outcome in _iteration_outcomes(trace, budget):
            if min_iv(outcome) != target:
                continue
            if recipe[0] == "iv-0":
                trace.log.append({"step": "iv-0"})
                _run_sweep(trace, 1, _ScriptChooser(recipe[1]))
            else:
                _, scc_t, edges, sweep_script = recipe
                trace.log.append({"step": "iv-a", "scc": list(scc_t)})
                _apply_edges(trace, mask_of(scc_t), edges)
                trace.log.append({"step": "iv-c"})
                _run_sweep(trace, None, _ScriptChooser(sweep_script))
            trace.n_iv += 1
            break
        else:
            raise AssertionError("no iteration outcome matched the memoized optimum")
    return _finish(trace)


def reference(g, state_budget: int):
    """(trace, states spent); the trace is None when the budget ran out."""
    budget = _Budget(state_budget)
    try:
        return _run_exhaustive(g, budget), budget.spent
    except _BudgetExceeded:
        return None, budget.spent


# --- the lazy search -----------------------------------------------------------

BUDGET = 2000


def _pairing_graphs(seed: str, m: int):
    inst = random_pairing_instance(random.Random(seed), m)
    return build_graphs(simplify(inst)[0])


@st.composite
def disjoint_cycles(draw):
    """Short disjoint cycles with few message edges: many semi leaf SCCs,
    so phase 2 runs and ties between its outcomes are common."""
    order = draw(st.permutations(range(1, 7)))
    sizes = draw(st.sampled_from([(2, 2, 2), (2, 2), (3, 3), (2, 3), (2, 2, 1)]))
    arcs, start = set(), 0
    for size in sizes:
        cycle = order[start:start + size]
        if size > 1:
            arcs.update(zip(cycle, cycle[1:] + cycle[:1]))
        start += size
    pairs = sorted(edge_key(i, j) for i in range(1, 7) for j in range(i + 1, 7))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    return GraphPair(6, frozenset(arcs), frozenset(edges))


@st.composite
def small_graphs(draw):
    family = draw(st.sampled_from(["graph", "pairing", "cycles"]))
    if family == "graph":
        return draw(graph_pairs(max_n=6))
    if family == "pairing":
        return _pairing_graphs(f"lazy/{draw(st.integers(0, 10**6))}",
                               draw(st.integers(4, 6)))
    return draw(disjoint_cycles())


def _same_selection(g) -> bool:
    """Whether the reference finished; if it did, the lazy search must
    select the same trace with no more budget."""
    ref, spent = reference(g, BUDGET)
    if ref is None:
        return False
    new = run_grounding(g, "exhaustive", state_budget=BUDGET)
    assert not new.fell_back
    assert new.states_explored <= spent
    assert new.log == ref.log
    assert ((new.n_iv, new.n_connected, new.n_remaining)
            == (ref.n_iv, ref.n_connected, ref.n_remaining))
    assert (new.arcs, new.edges, new.dummies) == (ref.arcs, ref.edges, ref.dummies)
    assert lower_bound(new) == lower_bound(ref)
    return True


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_lazy_search_selects_the_replay_trace(g):
    _same_selection(g)


# Random draws at m <= 6 almost never need two phase-2 iterations, and only
# then do ties between iteration outcomes below the phase-1 level matter.
# The states explored are pinned exactly: they count the branches of the
# walk, so a change to its order or to the sweep's choice points shows.
TWO_ITERATIONS = {("twoiter/1762", 6): 442, ("leafless/40", 6): 442,
                  ("twoiter/913", 8): 405, ("twoiter/1603", 8): 605}


@pytest.mark.parametrize("seed, m", TWO_ITERATIONS)
def test_lazy_search_selects_the_replay_trace_over_two_iterations(seed, m):
    g = _pairing_graphs(seed, m)
    trace = run_grounding(g, "exhaustive")
    assert (trace.n_iv, trace.states_explored) == (2, TWO_ITERATIONS[seed, m])
    assert _same_selection(g)


def test_leafless_first_outcome_ends_the_search():
    # the first phase-1 outcome already has no leaf SCC, so n_iv = 0 and
    # no other outcome can beat it; the replay search scored all of them
    g = _pairing_graphs("leafless/0", 6)
    first = next(bound._enumerate_sweeps(GroundingTrace.from_graphs(g), False,
                                         bound._Budget(BUDGET)))
    assert not _leaf_scc_sets(first)
    ref, spent = reference(g, BUDGET)
    new = run_grounding(g, "exhaustive")
    assert spent == 647
    assert new.n_iv == ref.n_iv == 0
    assert new.states_explored == 24
    assert run_grounding(g, "exhaustive").states_explored == new.states_explored
    assert run_grounding(g).states_explored == 0


def test_budget_fallback_reports_budget_spent(three_pairs):
    g = build_graphs(simplify(three_pairs)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = run_grounding(g, "exhaustive", state_budget=1)
    assert trace.fell_back and trace.mode == "exhaustive"
    assert trace.states_explored == 1
    assert trace.log == run_grounding(g).log


def test_search_finishes_where_replay_fell_back():
    # the replay search spends its 20 000 states on this draw and falls
    # back to the deterministic bound 6; the lazy search finishes with 7
    g = _pairing_graphs("fallback/18", 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_grounding(g, "exhaustive")
    assert not trace.fell_back and trace.states_explored == 672
    assert lower_bound(trace) >= lower_bound(run_grounding(g)) == 6

"""Exhaustive grounding: the lazy search against the replay search it replaced.

The reference below is the replay search: each sweep is re-run from its
base state under a script of choice indices, a missing choice is signalled
by an exception, every phase-1 and phase-2 outcome is scored, and the
selected trace is rebuilt by replaying scripts.  It walks the scripts
depth first, as the search in ``msindex.bound`` does, which must then
select the same trace wherever the reference finishes within its budget.
Walked breadth first, in the order the search once used, it is the
reference for the bound the ceiling stops must not change.
"""

import json
import os
import random
import subprocess
import sys
import warnings
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msindex import analyze, bound, graphs
from msindex.bound import (_apply_degenerate_arc, _apply_dummy, _apply_edges,
                           _apply_prune, _all_edge_options,
                           _degenerated_options, _finish,
                           GroundingTrace, lower_bound, run_grounding)
from msindex.model import GraphPair, bits, build_graphs, edge_key, mask_of, simplify

from strategies import graph_pairs, instances

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from find_gaps import (random_family_instance,  # noqa: E402
                       random_pairing_instance)


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
                      budget: _Budget, depth_first: bool
                      ) -> list[tuple[tuple[int, ...], GroundingTrace]]:
    """All completed-sweep outcomes by choice script, deduplicated by state
    graphs: in lexicographic order of the scripts when ``depth_first``,
    else in shortlex order."""
    outcomes: dict[GraphPair, tuple[tuple[int, ...], GroundingTrace]] = {}
    pending: deque[tuple[int, ...]] = deque([()])
    while pending:
        script = pending.pop() if depth_first else pending.popleft()
        budget.spend()
        work = trace.clone()
        try:
            _run_sweep(work, prune_limit, _ScriptChooser(script))
        except _NeedChoice as need:
            children = [script + (k,) for k in range(need.n_options)]
            pending.extend(reversed(children) if depth_first else children)
        else:
            outcomes.setdefault(work.graphs, (script, work))
    return list(outcomes.values())


def _iteration_outcomes(trace: GroundingTrace, budget: _Budget,
                        depth_first: bool) -> list[tuple[tuple, GroundingTrace]]:
    """All distinct states one phase-2 iteration can reach, with the
    recipe needed to replay each."""
    results: dict[GraphPair, tuple[tuple, GroundingTrace]] = {}
    if graphs.leaf_sccs_of_class(trace.graphs, graphs.LeafClass.MESSAGE_CONNECTED):
        for script, work in _enumerate_sweeps(trace, 1, budget, depth_first):
            results.setdefault(work.graphs, (("iv-0", script), work))
        return list(results.values())
    for scc_t, _ in _phase2_branch_options(trace):
        scc = mask_of(scc_t)
        for edges in _all_edge_options(trace, scc):
            staged = trace.clone()
            staged.log.append({"step": "iv-a", "scc": list(scc_t)})
            _apply_edges(staged, scc, edges)
            staged.log.append({"step": "iv-c"})
            for script, work in _enumerate_sweeps(staged, None, budget,
                                                  depth_first):
                recipe = ("iv-abc", scc_t, edges, script)
                results.setdefault(work.graphs, (recipe, work))
    return list(results.values())


def _run_exhaustive(g, budget: _Budget, depth_first: bool) -> GroundingTrace:
    base = GroundingTrace.from_graphs(g)
    base.mode = "exhaustive"
    memo: dict[GraphPair, int] = {}
    visiting: set[GraphPair] = set()

    def min_iv(state: GroundingTrace) -> int:
        key = state.graphs
        if key in memo:
            return memo[key]
        if key in visiting:
            raise AssertionError("phase-2 state revisited without progress")
        if not _leaf_scc_sets(state):
            memo[key] = 0
            return 0
        visiting.add(key)
        best = min(1 + min_iv(nxt) for _, nxt
                   in _iteration_outcomes(state, budget, depth_first))
        visiting.discard(key)
        memo[key] = best
        return best

    phase1 = _enumerate_sweeps(base, None, budget, depth_first)
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
        for recipe, outcome in _iteration_outcomes(trace, budget, depth_first):
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


def reference(g, state_budget: int, depth_first: bool = True):
    """(trace, states spent); the trace is None when the budget ran out."""
    budget = _Budget(state_budget)
    try:
        return _run_exhaustive(g, budget, depth_first), budget.spent
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
    assert ((new.graphs.arcs, new.graphs.edges, new.dummies)
            == (ref.graphs.arcs, ref.graphs.edges, ref.dummies))
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
    assert new.states_explored == 4
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
    assert not trace.fell_back and trace.states_explored == 99
    assert lower_bound(trace) >= lower_bound(run_grounding(g)) == 6


# --- the ceiling stops -----------------------------------------------------------

@st.composite
def small_instances(draw):
    """The find_gaps.py traffic mix at m 4-8, or any instance at m <= 6."""
    if draw(st.booleans()):
        return draw(instances(max_m=6))
    rng = random.Random(f"ceiling/{draw(st.integers(0, 10**6))}")
    return random_family_instance(rng, draw(st.integers(4, 8)))


def _check_ceiling(inst) -> GroundingTrace:
    """The search with the ceiling against the search without it and the
    breadth-first reference; returns the run with the ceiling."""
    a = analyze(inst, exhaustive=True)
    capped = run_grounding(a.graphs, "exhaustive", state_budget=BUDGET,
                           ceiling=a.upper_bound)
    free = run_grounding(a.graphs, "exhaustive", state_budget=BUDGET)
    if capped.fell_back:
        return capped
    assert not free.fell_back and capped.states_explored <= free.states_explored
    assert capped.log == free.log and capped.n_iv == free.n_iv
    assert lower_bound(capped) == lower_bound(free) <= a.upper_bound
    ref, _ = reference(a.graphs, BUDGET, depth_first=False)
    if ref is not None:
        assert (capped.n_iv, lower_bound(capped)) == (ref.n_iv, lower_bound(ref))
    return capped


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_ceiling_stops_keep_the_selection(inst):
    _check_ceiling(inst)


@pytest.mark.parametrize("k", [17, 23, 125, 134, 137, 241])
def test_ceiling_stops_keep_the_selection_where_they_fire(k):
    rng = random.Random(f"ceiling/{k}")
    trace = _check_ceiling(random_family_instance(rng, rng.randint(4, 8)))
    assert trace.ceiling_stops > 0 and not trace.fell_back


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_phase1_outcomes_prune_equally_many_sccs(g):
    # the phase-1 ceiling stop compares outcomes by n_iv alone
    try:
        outcomes = _enumerate_sweeps(GroundingTrace.from_graphs(g), None,
                                     _Budget(BUDGET), depth_first=True)
    except _BudgetExceeded:
        return
    assert len({sum(step["step"] == "i" for step in work.log)
                for _, work in outcomes}) == 1


def test_ceiling_closes_draw_67():
    # draw 67 of find_gaps.py --max-m 10 --seed 3 spent its 20 000 states
    # and fell back to lb 8 before the search went depth first
    rng = random.Random(3)
    for _ in range(68):
        inst = random_family_instance(rng, rng.randint(4, 10))
    a = analyze(inst, exhaustive=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = a.trace
    assert (a.lower_bound, a.upper_bound, trace.fell_back) == (9, 9, False)
    assert (trace.states_explored, trace.ceiling_stops) == (17964, 1)
    assert run_grounding(a.graphs).ceiling_stops == 0


def test_exhaustive_report_holds_no_frame_per_iteration(tmp_path):
    # 150 disjoint gadgets (messages a, b, c; b wants a and c; c wants b;
    # senders {a, b} and {a, c}) take 150 phase-2 iterations; with a
    # Python frame per iteration the report raised RecursionError at a
    # recursion limit of 100, which the deterministic report passes
    k = 150
    inst = tmp_path / "gadgets.json"
    inst.write_text(json.dumps({
        "num_messages": 3 * k,
        "senders": [s for a in range(1, 3 * k, 3)
                    for s in ([a, a + 1], [a, a + 2])],
        "wants": [w for a in range(1, 3 * k, 3)
                  for w in ([], [a, a + 2], [a + 1])]}))
    script = ("import sys\nfrom msindex import cli\nsys.setrecursionlimit(100)\n"
              "sys.exit(cli.main(sys.argv[1:]))")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", script, "report", str(inst), "--json",
         "--exhaustive"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert (doc["lower_bound"], doc["upper_bound"]) == (300, 300)

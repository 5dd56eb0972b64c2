"""Lower bound via breaking all leaf SCCs of the information-flow digraph.

The procedure steps a working state (G, U) of the graphs until no leaf
SCC remains, which makes the digraph grounded.  Each mutation is chosen
so the optimal codelength cannot increase, and only pruning removes an
out-vertex, so the final out-vertex count is a valid lower bound.

Phase 1 prunes every message-connected leaf SCC, then appends dummy leaf
vertices to message-disconnected ones and adds arcs out of degenerated
semi ones until neither kind remains.  Phase 2 loops: prune one
message-connected leaf SCC if present, otherwise pick a semi leaf SCC,
add message edges until it is message-connected, and sweep again.  Every
arbitrary choice defaults to the smallest vertex index; exhaustive mode
searches all choices for the fewest phase-2 iterations, since a smaller
iteration count means a larger bound.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import combinations

from . import graphs
from .model import GraphPair, bits, edge_key

DEFAULT_STATE_BUDGET = 20_000

Step = tuple  # ("i", scc, v, removed) etc.; tuples keep the log comparable


class StaleWitnessError(ValueError):
    """The supplied degeneracy witness no longer holds on the current state."""


class _NeedChoice(Exception):
    def __init__(self, n_options: int):
        self.n_options = n_options


class _BudgetExceeded(Exception):
    pass


class _DeterministicChooser:
    """Takes the first option; options may be a lazy iterable.  Both
    choosers return None when there are no options."""

    def pick(self, options):
        return next(iter(options), None)


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


@dataclass
class GroundingTrace:
    """Working state of one grounding run plus its step log.

    ``graphs`` is the current state.  It is immutable and caches every
    query made on it; only the four ``_apply_*`` steps replace it, and a
    clone shares it until one of them runs.
    """

    original: GraphPair
    n_real: int
    graphs: GraphPair
    dummies: frozenset[int] = frozenset()
    log: list[Step] = field(default_factory=list)
    n_connected: int = 0
    n_iv: int = 0
    n_remaining: int = 0
    mode: str = "deterministic"
    complete: bool = False
    fell_back: bool = False

    @classmethod
    def from_graphs(cls, g: GraphPair) -> "GroundingTrace":
        return cls(original=g, n_real=g.n, graphs=g)

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return self.graphs.arcs

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self.graphs.edges

    @property
    def dummy_count(self) -> int:
        return len(self.dummies)

    def clone(self) -> "GroundingTrace":
        return replace(self, log=list(self.log))

    def canonical_key(self):
        """State identity up to renaming of dummy vertices."""
        g = self.graphs
        by_sources = sorted((tuple(bits(g.pred[d])), d) for d in self.dummies)
        relabel = {d: self.n_real + k + 1 for k, (_, d) in enumerate(by_sources)}
        arcs = frozenset((relabel.get(i, i), relabel.get(j, j))
                         for (i, j) in g.arcs) if relabel else g.arcs
        return (self.n_real, len(self.dummies), arcs, g.edges)


def _leaf_scc_sets(trace: GroundingTrace) -> list[frozenset[int]]:
    """The leaf SCCs of the current state, ordered by smallest member."""
    g = trace.graphs
    return [g.sccs[k] for k in g.leaf_sccs]


def _class_of(trace: GroundingTrace, scc: frozenset[int]) -> graphs.LeafClass | None:
    return graphs.classify_without_degeneracy(trace.graphs, scc)


def _sccs_of_class(trace: GroundingTrace, cls: graphs.LeafClass
                   ) -> list[frozenset[int]]:
    return [scc for scc in _leaf_scc_sets(trace) if _class_of(trace, scc) is cls]


# ---------------------------------------------------------------------------
# The individual mutation steps.  Public variants validate their
# preconditions against the current state; the engine applies the same
# internals after making its own (already validated) choices.

def _apply_prune(trace: GroundingTrace, scc: frozenset[int], v: int) -> None:
    g = trace.graphs
    removed = tuple((v, j) for j in bits(g.succ[v]))
    trace.graphs = replace(g, arcs=g.arcs.difference(removed))
    trace.log.append(("i", tuple(sorted(scc)), v, removed))


def prune_scc(trace: GroundingTrace, scc: frozenset[int], v: int) -> None:
    """Remove every outgoing arc of one chosen vertex of a leaf SCC."""
    if v not in scc:
        raise ValueError(f"vertex {v} not in SCC {sorted(scc)}")
    if not graphs.is_leaf_scc(trace.graphs, scc):
        raise ValueError(f"{sorted(scc)} is not a leaf SCC of the current state")
    _apply_prune(trace, scc, v)


def _apply_dummy(trace: GroundingTrace, scc: frozenset[int], source: int) -> int:
    g = trace.graphs
    dummy = g.n + 1
    trace.graphs = replace(g, n=dummy, arcs=g.arcs | {(source, dummy)})
    trace.dummies |= {dummy}
    trace.log.append(("ii", tuple(sorted(scc)), source, dummy))
    return dummy


def append_dummy(trace: GroundingTrace, scc: frozenset[int]) -> int:
    """Ground a message-disconnected leaf SCC by an arc to a fresh leaf.

    The dummy carries no message and no edges, and never counts as an
    out-vertex.  Returns the new vertex index.
    """
    if not graphs.is_leaf_scc(trace.graphs, scc):
        raise ValueError(f"{sorted(scc)} is not a leaf SCC of the current state")
    if _class_of(trace, scc) is not graphs.LeafClass.MESSAGE_DISCONNECTED:
        raise ValueError(f"SCC {sorted(scc)} is not message-disconnected")
    return _apply_dummy(trace, scc, min(scc))


def _apply_degenerate_arc(trace: GroundingTrace, scc: frozenset[int],
                          witness: graphs.DegeneracyWitness,
                          source: int, target: int, tag: str) -> None:
    trace.graphs = replace(trace.graphs, arcs=trace.arcs | {(source, target)})
    trace.log.append((tag, tuple(sorted(scc)), tuple(sorted(witness.part)),
                      tuple(sorted(witness.cover)), source, target))


def _witness_action(g: GraphPair, witness: graphs.DegeneracyWitness
                    ) -> tuple[str, list[int]]:
    """Step tag and valid targets for a witness on state g."""
    non_leaf = sorted(witness.cover - graphs.leaf_vertices(g))
    if len(non_leaf) == 1:
        return "iii-a", non_leaf
    return "iii-b", sorted(witness.cover)


def add_degenerate_arc(trace: GroundingTrace, scc: frozenset[int],
                       witness: graphs.DegeneracyWitness) -> None:
    """Add the arc a degeneracy witness licenses: from the smallest vertex
    of the witness part to the single non-leaf cover vertex if there is
    one, else to the smallest cover vertex.  The witness is re-verified
    against the current state first."""
    g = trace.graphs
    if not graphs.is_leaf_scc(g, scc):
        raise StaleWitnessError(f"{sorted(scc)} is not a leaf SCC anymore")
    if _class_of(trace, scc) is not None:
        raise StaleWitnessError(f"SCC {sorted(scc)} is not semi anymore")
    if not graphs.check_degeneracy_witness(g, scc, witness):
        raise StaleWitnessError("witness conditions no longer hold")
    if not witness.cover:
        raise StaleWitnessError("vacuous witness has no arc target")
    tag, targets = _witness_action(g, witness)
    _apply_degenerate_arc(trace, scc, witness, min(witness.part), targets[0], tag)


def _chain_edges(trace: GroundingTrace, scc: frozenset[int]
                 ) -> tuple[tuple[int, int], ...]:
    comps = graphs.u_components(trace.graphs, scc)
    reps = [min(c) for c in comps]
    return tuple(edge_key(reps[k], reps[k + 1]) for k in range(len(reps) - 1))


def _apply_edges(trace: GroundingTrace, scc: frozenset[int],
                 new_edges: tuple[tuple[int, int], ...]) -> None:
    trace.graphs = replace(trace.graphs, edges=trace.edges.union(new_edges))
    trace.log.append(("iv-b", tuple(sorted(scc)), new_edges))


def make_message_connected(trace: GroundingTrace, scc: frozenset[int]
                           ) -> tuple[tuple[int, int], ...]:
    """Chain the message-graph components of a semi leaf SCC through their
    smallest members; adding edges only relaxes the sender constraints."""
    if not graphs.is_leaf_scc(trace.graphs, scc):
        raise ValueError(f"{sorted(scc)} is not a leaf SCC of the current state")
    if _class_of(trace, scc) is not None:
        raise ValueError(f"SCC {sorted(scc)} is not a semi leaf SCC")
    added = _chain_edges(trace, scc)
    _apply_edges(trace, scc, added)
    return added


# ---------------------------------------------------------------------------
# The sweep procedure shared by phase 1 and phase 2.

_LOOP_CAP = 1000


def _run_sweep(trace: GroundingTrace, prune_limit: int | None, chooser) -> None:
    """One run of the breaking procedure.

    Prunes message-connected leaf SCCs (at most ``prune_limit`` of them),
    then alternates appending dummies to message-disconnected leaf SCCs
    and adding witness arcs for degenerated ones until no SCC of either
    kind remains.  Every arbitrary choice goes through ``chooser``.
    """
    pruned = 0
    for _ in range(_LOOP_CAP):
        connected = _sccs_of_class(trace, graphs.LeafClass.MESSAGE_CONNECTED)
        if not connected or (prune_limit is not None and pruned >= prune_limit):
            break
        if prune_limit == 1:
            options = [(tuple(sorted(scc)), v)
                       for scc in connected for v in sorted(scc)]
            scc_t, v = chooser.pick(options)
            _apply_prune(trace, frozenset(scc_t), v)
        else:
            scc = connected[0]
            v = chooser.pick(sorted(scc))
            _apply_prune(trace, scc, v)
        pruned += 1
    else:
        raise AssertionError("prune loop failed to terminate")

    for _ in range(_LOOP_CAP):
        acted = False
        for _ in range(_LOOP_CAP):
            disconnected = _sccs_of_class(
                trace, graphs.LeafClass.MESSAGE_DISCONNECTED)
            if not disconnected:
                break
            scc = disconnected[0]
            source = chooser.pick(sorted(scc))
            _apply_dummy(trace, scc, source)
            acted = True
        else:
            raise AssertionError("dummy loop failed to terminate")
        for _ in range(_LOOP_CAP):
            option = chooser.pick(_degenerated_options(trace))
            if option is None:
                break
            scc_t, witness, source, target, tag = option
            _apply_degenerate_arc(trace, frozenset(scc_t), witness,
                                  source, target, tag)
            acted = True
        else:
            raise AssertionError("degenerated loop failed to terminate")
        if not acted:
            break
    else:
        raise AssertionError("sweep failed to terminate")


def _degenerated_options(trace: GroundingTrace):
    """Every (scc, witness, source, target, tag) a degenerated semi leaf
    SCC currently admits, in deterministic order, generated lazily."""
    g = trace.graphs
    for scc in _leaf_scc_sets(trace):
        if _class_of(trace, scc) is not None:
            continue
        for witness in graphs.iter_degeneracy_witnesses(g, scc):
            if not witness.cover:
                continue
            tag, targets = _witness_action(g, witness)
            for source in sorted(witness.part):
                for target in targets:
                    yield (tuple(sorted(scc)), witness, source, target, tag)


def break_leaf_sccs(trace: GroundingTrace, prune_limit: int | None = None) -> None:
    """Deterministic sweep: prune message-connected leaf SCCs (all of
    them, or just one when ``prune_limit=1``), then break every
    message-disconnected and degenerated leaf SCC."""
    _run_sweep(trace, prune_limit, _DeterministicChooser())


# ---------------------------------------------------------------------------
# Full runs.

def _phase2_branch_options(trace: GroundingTrace) -> list[tuple]:
    """Choices opening a phase-2 iteration when no message-connected leaf
    SCC exists: which semi leaf SCC to connect, and with which edges."""
    options = []
    for scc in _leaf_scc_sets(trace):
        cls = _class_of(trace, scc)
        if cls is not None:
            raise AssertionError(
                f"unexpected {cls} leaf SCC {sorted(scc)} at iteration start")
        options.append((tuple(sorted(scc)), _chain_edges(trace, scc)))
    return options


def _all_edge_options(trace: GroundingTrace, scc: frozenset[int]
                      ) -> list[tuple[tuple[int, int], ...]]:
    """Every minimal edge set connecting the message components of an SCC
    (spanning trees over components, arbitrary endpoints); the
    deterministic chain comes first."""
    comps = graphs.u_components(trace.graphs, scc)
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    cross = sorted(edge_key(a, b)
                   for ca, cb in combinations(comps, 2)
                   for a in ca for b in cb)
    chain = _chain_edges(trace, scc)
    options = [chain]
    for subset in combinations(cross, len(comps) - 1):
        joined = graphs.spanning_forest(
            ((comp_of[a], comp_of[b]) for a, b in subset), len(comps))
        if len(joined) == len(comps) - 1 and subset != chain:
            options.append(subset)
    return options


def run_grounding(g: GraphPair, mode: str = "deterministic",
                  state_budget: int = DEFAULT_STATE_BUDGET) -> GroundingTrace:
    """Run both phases to completion and return the trace.

    Deterministic mode resolves every arbitrary choice by smallest index.
    Exhaustive mode searches all choices for a trace with the fewest
    phase-2 iterations, memoizing on canonical states; past
    ``state_budget`` explored states it falls back to deterministic with
    a warning.
    """
    if mode not in ("deterministic", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive":
        try:
            return _run_exhaustive(g, _Budget(state_budget))
        except _BudgetExceeded:
            warnings.warn(
                f"exhaustive search exceeded {state_budget} states; "
                "falling back to deterministic choices")
            trace = _run_deterministic(g)
            trace.mode = "exhaustive"
            trace.fell_back = True
            return trace
    return _run_deterministic(g)


def _finish(trace: GroundingTrace) -> GroundingTrace:
    trace.complete = True
    if _leaf_scc_sets(trace):
        raise AssertionError("grounding finished with leaf SCCs left")
    if not graphs.is_grounded_digraph(trace.graphs):
        raise AssertionError("grounding finished with a non-grounded digraph")
    return trace


def _run_deterministic(g: GraphPair) -> GroundingTrace:
    trace = GroundingTrace.from_graphs(g)
    chooser = _DeterministicChooser()
    _run_sweep(trace, None, chooser)
    trace.n_connected = sum(1 for step in trace.log if step[0] == "i")
    trace.n_remaining = len(_leaf_scc_sets(trace))

    for _ in range(_LOOP_CAP):
        if not _leaf_scc_sets(trace):
            break
        if _sccs_of_class(trace, graphs.LeafClass.MESSAGE_CONNECTED):
            trace.log.append(("iv-0",))
            _run_sweep(trace, 1, chooser)
        else:
            scc_t, chain = _phase2_branch_options(trace)[0]
            trace.log.append(("iv-a", scc_t))
            _apply_edges(trace, frozenset(scc_t), chain)
            trace.log.append(("iv-c",))
            _run_sweep(trace, None, chooser)
        trace.n_iv += 1
    else:
        raise AssertionError("phase 2 failed to terminate")
    return _finish(trace)


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
    if _sccs_of_class(trace, graphs.LeafClass.MESSAGE_CONNECTED):
        for script, work in _enumerate_sweeps(trace, 1, budget):
            results.setdefault(work.canonical_key(), (("iv-0", script), work))
        return list(results.values())
    for scc_t, _ in _phase2_branch_options(trace):
        scc = frozenset(scc_t)
        for edges in _all_edge_options(trace, scc):
            staged = trace.clone()
            staged.log.append(("iv-a", scc_t))
            _apply_edges(staged, scc, edges)
            staged.log.append(("iv-c",))
            for script, work in _enumerate_sweeps(staged, None, budget):
                recipe = ("iv-abc", scc_t, edges, script)
                results.setdefault(work.canonical_key(), (recipe, work))
    return list(results.values())


def _run_exhaustive(g: GraphPair, budget: _Budget) -> GroundingTrace:
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
    trace.n_connected = sum(1 for step in trace.log if step[0] == "i")
    trace.n_remaining = len(_leaf_scc_sets(trace))

    while _leaf_scc_sets(trace):
        target = min_iv(trace) - 1
        for recipe, outcome in _iteration_outcomes(trace, budget):
            if min_iv(outcome) != target:
                continue
            if recipe[0] == "iv-0":
                trace.log.append(("iv-0",))
                _run_sweep(trace, 1, _ScriptChooser(recipe[1]))
            else:
                _, scc_t, edges, sweep_script = recipe
                trace.log.append(("iv-a", scc_t))
                _apply_edges(trace, frozenset(scc_t), edges)
                trace.log.append(("iv-c",))
                _run_sweep(trace, None, _ScriptChooser(sweep_script))
            trace.n_iv += 1
            break
        else:
            raise AssertionError("no iteration outcome matched the memoized optimum")
    return _finish(trace)


# ---------------------------------------------------------------------------
# The bounds.

def lower_bound(trace: GroundingTrace) -> int:
    """V_out of the original digraph minus one per prune, cross-checked
    against the out-vertex count of the final state (dummies excluded)."""
    if not trace.complete:
        raise ValueError("trace is not a completed run")
    value = (graphs.num_out_vertices(trace.original)
             - (trace.n_connected + trace.n_iv))
    final = graphs.num_out_vertices(trace.graphs,
                                    exclude=frozenset(trace.dummies))
    if value != final:
        raise AssertionError(
            f"counting identity violated: bound {value} != final V_out {final}")
    return value


def lower_bound_prune_all(g: GraphPair) -> int:
    """The sender-oblivious bound: prune every leaf SCC at its smallest
    vertex and count surviving out-vertices.  Never exceeds the bound from
    a full grounding run."""
    trace = GroundingTrace.from_graphs(g)
    for scc in _leaf_scc_sets(trace):
        _apply_prune(trace, scc, min(scc))
    if _leaf_scc_sets(trace):
        raise AssertionError("pruning every leaf SCC left a leaf SCC behind")
    return graphs.num_out_vertices(trace.graphs)


__all__ = [
    "GroundingTrace", "StaleWitnessError", "prune_scc", "append_dummy",
    "add_degenerate_arc", "make_message_connected", "break_leaf_sccs",
    "run_grounding", "lower_bound", "lower_bound_prune_all",
    "DEFAULT_STATE_BUDGET",
]

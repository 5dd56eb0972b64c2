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
choice is generated lazily with the smallest-index option first;
deterministic mode takes the first option everywhere, and exhaustive mode
searches all of them depth first for the fewest phase-2 iterations, since
a smaller iteration count means a larger bound, which can never pass an
upper bound given as a ceiling.
"""

from __future__ import annotations

import warnings
from itertools import chain, combinations

from . import graphs
from .model import (SCHEMA_VERSION, GraphPair, GuardError, InstanceError, bits,
                    check_schema, edge_key, is_int, mask_of)

DEFAULT_STATE_BUDGET = 20_000
TRACE_VERTEX_LIMIT = 20_000  # a final state's graphs grow as n² / 16 bytes


class _BudgetExceeded(Exception):
    pass


class _Budget:
    """Counts explored sweep states (the one past ``limit`` raises) and
    the scans the ceiling ended."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0
        self.ceiling_stops = 0

    def spend(self) -> None:
        if self.spent >= self.limit:
            raise _BudgetExceeded
        self.spent += 1


class GroundingTrace:
    """Working state of one grounding run plus its step log.

    ``graphs`` is the current state.  It is immutable and caches every
    query made on it; only the four ``_apply_*`` steps replace it, and a
    clone shares it until one of them runs.  ``dummies`` is the mask of
    the appended vertices.  Each step is logged as its trace document,
    e.g. ``{"step": "i", "scc": [1, 2], "vertex": 1, "removed_arcs":
    [[1, 2]]}``.
    """

    def __init__(self, original: GraphPair, graphs: GraphPair):
        self.original, self.graphs = original, graphs
        self.dummies = 0
        self.log: list[dict] = []
        self.n_connected = self.n_iv = self.n_remaining = 0
        self.mode = "deterministic"
        self.complete = self.fell_back = False
        self.states_explored = self.ceiling_stops = 0

    @classmethod
    def from_graphs(cls, g: GraphPair) -> "GroundingTrace":
        return cls(g, g)

    @property
    def dummy_count(self) -> int:
        return self.dummies.bit_count()

    def clone(self) -> "GroundingTrace":
        twin = object.__new__(GroundingTrace)
        twin.__dict__ = {**self.__dict__, "log": list(self.log)}
        return twin

    def to_document(self) -> dict:
        """The step log, the counts and the final state (`final_state`)."""
        g = self.graphs
        return {"schema": SCHEMA_VERSION, "mode": self.mode, "fell_back": self.fell_back,
                "steps": self.log, "n_connected": self.n_connected,
                "n_remaining": self.n_remaining, "n_iv": self.n_iv,
                "dummy_count": self.dummy_count,
                "final": {"n": g.n, "n_real": self.original.n,
                          "arcs": sorted([i, j] for (i, j) in g.arcs),
                          "edges": sorted([i, j] for (i, j) in g.edges),
                          "dummies": list(bits(self.dummies))}}


def final_state(doc: dict, at: str) -> tuple[GraphPair, int]:
    """The final graphs and dummy mask of a trace document, whose fields are
    named ``at`` + field in errors.  Every field is checked here, so no
    vertex index reaches the graph kernel unchecked."""
    check_schema(doc, f"{at}schema")
    where = f"{at}final"
    final = doc.get("final")
    if not isinstance(final, dict):
        raise InstanceError(where, "missing final state")
    for key in ("n", "arcs", "edges", "dummies"):
        if key not in final:
            raise InstanceError(f"{where}.{key}", "missing required field")
    n = final["n"]
    if not is_int(n) or n < 1:
        raise InstanceError(f"{where}.n", "expected a positive integer")
    if n > TRACE_VERTEX_LIMIT:
        raise GuardError(f"{where}.n: {n} vertices exceed the limit {TRACE_VERTEX_LIMIT}")

    def vertices(raw, at: str, pair: bool = False) -> tuple[int, ...]:
        if (not isinstance(raw, list) or (pair and len(raw) != 2)
                or not all(is_int(v) and 1 <= v <= n for v in raw)):
            what = "a pair" if pair else "a list"
            raise InstanceError(at, f"expected {what} of vertices in 1..{n}")
        return tuple(raw)

    def pairs(key: str, ordered: bool) -> frozenset[tuple[int, int]]:
        if not isinstance(final[key], list):
            raise InstanceError(f"{where}.{key}", "expected a list")
        out = set()
        for k, raw in enumerate(final[key]):
            at = f"{where}.{key}[{k}]"
            i, j = vertices(raw, at, pair=True)
            if i == j or (not ordered and i > j):
                raise InstanceError(at, "expected two distinct vertices"
                                    + ("" if ordered else " in increasing order"))
            out.add((i, j))
        return frozenset(out)

    return (GraphPair(n=n, arcs=pairs("arcs", True), edges=pairs("edges", False)),
            mask_of(vertices(final["dummies"], f"{where}.dummies")))


# ---------------------------------------------------------------------------
# The individual mutation steps, applied to choices the engine has
# already validated.  Every vertex set is a mask; the log holds it as a
# sorted list.

def _apply_prune(trace: GroundingTrace, scc: int, v: int) -> None:
    g = trace.graphs
    trace.graphs = g.prune(scc, v)
    trace.log.append({"step": "i", "scc": list(bits(scc)), "vertex": v,
                      "removed_arcs": [[v, j] for j in bits(g.succ[v])]})


def _apply_dummy(trace: GroundingTrace, scc: int, source: int) -> int:
    g = trace.graphs
    dummy = g.n + 1
    trace.graphs = g.add_dummy(scc, source)
    trace.dummies |= 1 << g.n
    trace.log.append({"step": "ii", "scc": list(bits(scc)), "source": source,
                      "dummy": dummy})
    return dummy


def _apply_degenerate_arc(trace: GroundingTrace, scc: int,
                          witness: graphs.DegeneracyWitness,
                          source: int, target: int, tag: str) -> None:
    trace.graphs = trace.graphs.add_arc(scc, source, target)
    trace.log.append({"step": tag, "scc": list(bits(scc)),
                      "part": list(bits(witness.part)),
                      "cover": list(bits(witness.cover)), "source": source,
                      "target": target})


def _witness_action(g: GraphPair, witness: graphs.DegeneracyWitness
                    ) -> tuple[str, list[int]]:
    """Step tag and valid targets for a witness on state g; a witness has
    at most one non-leaf cover vertex."""
    non_leaf = witness.cover & ~g.leaf_mask
    if non_leaf:
        return "iii-a", [non_leaf.bit_length()]
    return "iii-b", list(bits(witness.cover))


def _apply_edges(trace: GroundingTrace, scc: int,
                 new_edges: tuple[tuple[int, int], ...]) -> None:
    trace.graphs = trace.graphs.add_edges(new_edges)
    trace.log.append({"step": "iv-b", "scc": list(bits(scc)),
                      "added_edges": [list(e) for e in new_edges]})


def _all_edge_options(trace: GroundingTrace, scc: int):
    """Every minimal edge set connecting the message components of an SCC
    (spanning trees over components, arbitrary endpoints), lazily; first
    the deterministic chain through the components' smallest members."""
    comps = graphs.u_components(trace.graphs, scc)
    first = tuple(edge_key(next(bits(a)), next(bits(b)))
                  for a, b in zip(comps, comps[1:]))
    yield first
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in bits(comp)}
    cross = sorted(edge_key(a, b)
                   for ca, cb in combinations(comps, 2)
                   for a in bits(ca) for b in bits(cb))
    for subset in combinations(cross, len(comps) - 1):
        joined = graphs.spanning_forest(
            ((comp_of[a], comp_of[b]) for a, b in subset), len(comps))
        if len(joined) == len(comps) - 1 and subset != first:
            yield subset


# ---------------------------------------------------------------------------
# The sweep procedure shared by phase 1 and phase 2.
#
# A sweep prunes message-connected leaf SCCs (all of them at ``_PRUNE``,
# just one at ``_PRUNE_ONE``), then alternates appending dummies to
# message-disconnected leaf SCCs and adding witness arcs for degenerated
# ones until neither kind is left.  A phase-2 iteration opens at ``_OPEN``
# and sweeps on from the stage its opening returns.  Every step is a
# choice among options.  The sweep is a small machine so a search can
# branch at a choice point without replaying the steps before it: its
# control point is its stage, and a paused sweep is a state plus a stage.

_PRUNE, _PRUNE_ONE, _DUMMY, _DEGENERATE, _OPEN = range(5)
_APPLY = (_apply_prune, _apply_prune, _apply_dummy, _apply_degenerate_arc)
_STEP_CAP = 100_000
_DONE = object()


def _choice_point(trace: GroundingTrace, stage: int):
    """Advance from ``stage`` to the next choice point and return its
    stage with its nonempty options in deterministic order, lazily, or
    None once the sweep is done (at ``_OPEN``: once no leaf SCC is left)."""
    g = trace.graphs
    while True:
        if stage == _OPEN:
            return (stage, _openings(trace)) if g.leaf_sccs else None
        if stage in (_PRUNE, _PRUNE_ONE):
            connected = graphs.leaf_sccs_of_class(
                g, graphs.LeafClass.MESSAGE_CONNECTED)
            if connected:
                sccs = connected if stage == _PRUNE_ONE else connected[:1]
                return stage, ((scc, v) for scc in sccs for v in bits(scc))
            stage = _DUMMY
        elif stage == _DUMMY:
            disconnected = graphs.leaf_sccs_of_class(
                g, graphs.LeafClass.MESSAGE_DISCONNECTED)
            if disconnected:
                scc = disconnected[0]
                return stage, ((scc, s) for s in bits(scc))
            stage = _DEGENERATE
        else:
            options = _degenerated_options(trace)
            first = next(options, None)
            if first is not None:
                return stage, chain((first,), options)
            if not graphs.leaf_sccs_of_class(
                    g, graphs.LeafClass.MESSAGE_DISCONNECTED):
                return None
            stage = _DUMMY


def _take(trace: GroundingTrace, stage: int, option: tuple) -> int:
    """Apply one option at a choice point; return the stage to resume at."""
    if stage == _OPEN:
        return _open(trace, *option)
    _APPLY[stage](trace, *option)
    return _DUMMY if stage == _PRUNE_ONE else stage


def _degenerated_options(trace: GroundingTrace):
    """Every (scc, witness, source, target, tag) a degenerated semi leaf
    SCC currently admits, in deterministic order, generated lazily."""
    g = trace.graphs
    for scc in graphs.leaf_sccs_of_class(g, None):
        for witness in graphs.iter_degeneracy_witnesses(g, scc):
            if not witness.cover:
                continue
            tag, targets = _witness_action(g, witness)
            for source in bits(witness.part):
                for target in targets:
                    yield (scc, witness, source, target, tag)


def break_leaf_sccs(trace: GroundingTrace, _stage: int = _PRUNE) -> None:
    """Deterministic sweep, the first option at every choice point: prune
    every message-connected leaf SCC, then break every message-disconnected
    and degenerated leaf SCC.  From ``_OPEN`` it opens a phase-2 iteration
    first."""
    for _ in range(_STEP_CAP):
        point = _choice_point(trace, _stage)
        if point is None:
            return
        _stage = _take(trace, point[0], next(point[1]))
    raise AssertionError("sweep failed to terminate")


# ---------------------------------------------------------------------------
# Phase-2 openings and full runs.

def _openings(trace: GroundingTrace):
    """The ways to open a phase-2 iteration, the options at ``_OPEN``,
    lazily and deterministic first: ``()`` (step iv-0) while a
    message-connected leaf SCC exists, else each semi leaf SCC with each
    edge set connecting it, the chain first."""
    g = trace.graphs
    if graphs.leaf_sccs_of_class(g, graphs.LeafClass.MESSAGE_CONNECTED):
        yield ()
        return
    for scc in g.leaf_sccs:
        cls = graphs.classify_without_degeneracy(g, scc)
        if cls is not None:
            raise AssertionError(
                f"unexpected {cls} leaf SCC {list(bits(scc))} at iteration start")
        for edges in _all_edge_options(trace, scc):
            yield scc, edges


def _open(trace: GroundingTrace, scc: int | None = None, edges: tuple = ()) -> int:
    """Apply an opening from `_openings`; return the stage its sweep
    starts at."""
    trace.n_iv += 1
    if scc is None:
        trace.log.append({"step": "iv-0"})
        return _PRUNE_ONE
    trace.log.append({"step": "iv-a", "scc": list(bits(scc))})
    _apply_edges(trace, scc, edges)
    trace.log.append({"step": "iv-c"})
    return _PRUNE


def run_grounding(g: GraphPair, mode: str = "deterministic",
                  state_budget: int = DEFAULT_STATE_BUDGET,
                  ceiling: int | None = None) -> GroundingTrace:
    """Run both phases to completion and return the trace.

    Deterministic mode resolves every arbitrary choice by smallest index.
    Exhaustive mode searches all choices depth first for a trace with the
    fewest phase-2 iterations, memoizing on states (their graphs); past
    ``state_budget`` explored sweep states it falls back to deterministic
    with a warning.  An upper bound as ``ceiling`` ends scans early.  The
    trace reports ``states_explored`` and ``ceiling_stops``.
    """
    if mode not in ("deterministic", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive":
        budget = _Budget(state_budget)
        try:
            trace = _run_exhaustive(g, budget, ceiling)
        except _BudgetExceeded:
            warnings.warn(
                f"exhaustive search exceeded {state_budget} states; "
                "falling back to deterministic choices")
            trace = _run_deterministic(g)
            trace.mode = "exhaustive"
            trace.fell_back = True
        trace.states_explored = budget.spent
        trace.ceiling_stops = budget.ceiling_stops
        return trace
    return _run_deterministic(g)


def _finish(trace: GroundingTrace) -> GroundingTrace:
    trace.complete = True
    if trace.graphs.leaf_sccs:
        raise AssertionError("grounding finished with leaf SCCs left")
    if not graphs.is_grounded_digraph(trace.graphs):
        raise AssertionError("grounding finished with a non-grounded digraph")
    return trace


def _end_phase1(trace: GroundingTrace) -> None:
    trace.n_connected = sum(1 for step in trace.log if step["step"] == "i")
    trace.n_remaining = len(trace.graphs.leaf_sccs)


def _run_deterministic(g: GraphPair) -> GroundingTrace:
    """The first path of the exhaustive search, taken in place."""
    trace = GroundingTrace.from_graphs(g)
    break_leaf_sccs(trace)
    _end_phase1(trace)
    for _ in range(_STEP_CAP):
        if not trace.graphs.leaf_sccs:
            return _finish(trace)
        break_leaf_sccs(trace, _OPEN)
    raise AssertionError("phase 2 failed to terminate")


def _enumerate_sweeps(trace: GroundingTrace, point, budget: _Budget):
    """Every completed sweep from a choice ``point`` of ``trace``, lazily,
    depth first over choice points: in lexicographic order of the choice
    sequences, so the deterministic sweep comes first.  A stack entry is a
    paused state with its stage and the lazy options of its choice point;
    each branch clones the top entry's state, applies its next option (the
    option None applies nothing) and spends one unit of budget, so an
    option is generated only when its branch is explored."""
    stack = [(trace, *point)]
    while stack:
        parent, stage, options = stack[-1]
        option = next(options, _DONE)
        if option is _DONE:
            stack.pop()
            continue
        budget.spend()
        work = parent.clone()
        if option is not None:
            stage = _take(work, stage, option)
        point = _choice_point(work, stage)
        if point is None:
            yield work
        else:
            stack.append((work, *point))


def _run_exhaustive(g: GraphPair, budget: _Budget, ceiling: int | None
                    ) -> GroundingTrace:
    """Fewest phase-2 iterations; among equal counts the first trace in
    lexicographic choice order.  A scan of a state's children stops at the
    state's floor, a true lower bound, so every score stays exact: 1 with
    leaf SCCs left (0 in phase 1), or V_out − ceiling if larger, as no
    trace's bound V_out − n_iv exceeds ``ceiling``."""
    base = GroundingTrace.from_graphs(g)
    base.mode = "exhaustive"
    # A state is its graphs (vertices past the original's are dummies); an
    # entry is its score, the state and the first child that attains it.
    memo: dict[GraphPair, tuple[int, GroundingTrace, GroundingTrace]] = {}
    visiting: set[GraphPair] = set()

    def at_floor(state: GroundingTrace, iv: int, least: int) -> bool:
        """Whether ``iv`` is the state's floor; counts ceiling stops."""
        if ceiling is not None and iv == graphs.num_out_vertices(
                state.graphs, exclude=state.dummies) - ceiling > least:
            budget.ceiling_stops += 1
            return True
        return iv == least

    def min_iv(state: GroundingTrace):
        """Exact, memoized with the first child that attains it; a repeated
        child is leafless or a memo hit, so it can only tie.  A generator:
        it yields each child and is sent the child's score, so `score`
        runs the recursion on a stack of its own."""
        key = state.graphs
        if not key.leaf_sccs:
            return 0
        if key in memo:
            return memo[key][0]
        if key in visiting:
            raise AssertionError("phase-2 state revisited without progress")
        visiting.add(key)
        best = None
        for child in _enumerate_sweeps(state, _choice_point(state, _OPEN), budget):
            iv = 1 + (yield child)
            if best is None or iv < best[0]:
                best = (iv, state, child)
                if at_floor(state, iv, 1):
                    break
        visiting.discard(key)
        memo[key] = best
        return best[0]

    def score(state: GroundingTrace) -> int:
        """``min_iv(state)``, one phase-2 iteration per stack entry."""
        stack, value = [min_iv(state)], None
        while stack:
            try:
                stack.append(min_iv(stack[-1].send(value)))
                value = None
            except StopIteration as done:
                stack.pop()
                value = done.value
        return value

    trace, best = None, None
    for outcome in _enumerate_sweeps(base, (_PRUNE, iter((None,))), budget):
        _end_phase1(outcome)
        if outcome.n_connected != (trace or outcome).n_connected:
            raise AssertionError(f"phase-1 outcomes prune {trace.n_connected} "
                                 f"and {outcome.n_connected} leaf SCCs")
        iv = score(outcome)
        if best is None or iv < best:
            trace, best = outcome, iv
            if at_floor(outcome, iv, 0):
                break

    # Follow the recorded choices: a memo hit recorded them on another
    # trace of the same graphs, whose iteration steps replay verbatim.
    while trace.graphs.leaf_sccs:
        _, owner, child = memo[trace.graphs]
        nxt = trace.clone()
        nxt.graphs, nxt.dummies = child.graphs, child.dummies
        nxt.log += child.log[len(owner.log):]
        nxt.n_iv += 1
        trace = nxt
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
    final = graphs.num_out_vertices(trace.graphs, exclude=trace.dummies)
    if value != final:
        raise AssertionError(
            f"counting identity violated: bound {value} != final V_out {final}")
    return value


def lower_bound_prune_all(g: GraphPair) -> int:
    """The sender-oblivious bound: prune every leaf SCC at its smallest
    vertex and count surviving out-vertices.  Never exceeds the bound from
    a full grounding run."""
    trace = GroundingTrace.from_graphs(g)
    for scc in g.leaf_sccs:
        _apply_prune(trace, scc, next(bits(scc)))
    if trace.graphs.leaf_sccs:
        raise AssertionError("pruning every leaf SCC left a leaf SCC behind")
    return graphs.num_out_vertices(trace.graphs)


__all__ = [
    "GroundingTrace", "final_state", "break_leaf_sccs", "run_grounding",
    "lower_bound", "lower_bound_prune_all", "DEFAULT_STATE_BUDGET",
    "TRACE_VERTEX_LIMIT",
]

"""Achievability: connecting trees, spanning trees, and XOR code assembly.

The constructive upper bound transmits one XOR per edge of certain trees
in the message graph and sends every remaining non-leaf message uncoded.
A connecting tree is a tree in the message graph whose vertex set
(a) contains only vertices with outgoing arcs, (b) has no arc leaving it,
and (c) avoids message-connected leaf SCCs and other connecting trees.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

from . import graphs
from .model import GraphPair, ProblemInstance, adjacent, bits, closure, mask_of


@dataclass(frozen=True)
class Tree:
    vertices: frozenset[int]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CodeBlueprint:
    connecting_trees: tuple[Tree, ...]
    scc_spanning_trees: tuple[Tree, ...]
    uncoded: tuple[int, ...]

    @property
    def length(self) -> int:
        return (sum(len(t.edges) for t in self.connecting_trees)
                + sum(len(t.edges) for t in self.scc_spanning_trees)
                + len(self.uncoded))


@dataclass(frozen=True)
class CodeRow:
    """One transmitted bit: a GF(2) combination of one sender's messages.

    ``coeffs`` is a bitmask; bit (i-1) set means message i participates.
    """

    sender: int
    coeffs: int
    kind: str | None = None

    def support(self) -> frozenset[int]:
        return frozenset(bits(self.coeffs))

    def coeff_list(self, m: int) -> list[int]:
        return [(self.coeffs >> i) & 1 for i in range(m)]


@dataclass(frozen=True)
class LinearIndexCode:
    num_messages: int
    rows: tuple[CodeRow, ...]

    @property
    def length(self) -> int:
        return len(self.rows)


def _spanning_tree(g: GraphPair, vs: frozenset[int]) -> tuple[tuple[int, int], ...]:
    """Kruskal over lexicographically sorted edges; input must induce a
    connected message subgraph."""
    inside = mask_of(vs)
    # the edges inside vs in lexicographic order: each i with its j > i
    edges = ((i, j) for i in sorted(vs) for j in bits(g.adj[i] & inside >> i << i))
    chosen = graphs.spanning_forest(edges, len(vs))
    if len(chosen) != len(vs) - 1:
        raise ValueError(f"{sorted(vs)} does not induce a connected message subgraph")
    return tuple(chosen)


def _tree_candidates(g: GraphPair, excluded: frozenset[int]) -> list[frozenset[int]]:
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


def _max_packing(candidates: list[frozenset[int]]) -> list[frozenset[int]]:
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


def find_connecting_trees(g: GraphPair, mode: str = "exact",
                          exact_limit: int = 16) -> list[Tree]:
    """Vertex-disjoint connecting trees; exact mode maximizes their number.

    Exact search enumerates every arc-closed, non-leaf, SCC-excluded vertex
    set inducing a connected message subgraph, then solves the max
    set-packing over them.  Above ``exact_limit`` vertices (or in greedy
    mode) the family is grown from per-vertex reachability closures
    instead: maximal within that candidate class, possibly smaller than
    the exact optimum, and always valid for the upper bound.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    excluded = frozenset().union(*graphs.leaf_sccs_of_class(
        g, graphs.LeafClass.MESSAGE_CONNECTED))

    if mode == "exact" and g.n > exact_limit:
        warnings.warn(
            f"instance has {g.n} > {exact_limit} vertices; "
            "falling back to greedy connecting-tree search")
        mode = "greedy"

    if mode == "exact":
        sets = _max_packing(_tree_candidates(g, excluded))
    else:
        sets = _greedy_trees(g, excluded)
    return [Tree(vs, _spanning_tree(g, vs)) for vs in sets]


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


def plan_code(g: GraphPair, trees: list[Tree]) -> CodeBlueprint:
    """Lay out the transmission plan: tree XORs, one spanning tree per
    message-connected leaf SCC, and the leftover non-leaf messages uncoded."""
    scc_trees = []
    covered: set[int] = set()
    for t in trees:
        covered |= t.vertices
    for scc in graphs.leaf_sccs_of_class(g, graphs.LeafClass.MESSAGE_CONNECTED):
        scc_trees.append(Tree(scc, _spanning_tree(g, scc)))
        covered |= scc
    leaves = graphs.leaf_vertices(g)
    leftovers = [v for v in g.vertices()
                 if v not in covered and v not in leaves]
    return CodeBlueprint(connecting_trees=tuple(trees),
                         scc_spanning_trees=tuple(scc_trees),
                         uncoded=tuple(sorted(leftovers)))


def assign_senders(inst: ProblemInstance, blueprint: CodeBlueprint) -> LinearIndexCode:
    """Attach each planned bit to the smallest sender that can produce it."""
    def owner_of_pair(i: int, j: int) -> int:
        for s, ms in enumerate(inst.senders, start=1):
            if i in ms and j in ms:
                return s
        raise ValueError(f"no sender owns both messages {i} and {j}")

    def owner_of(i: int) -> int:
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


def upper_bound(g: GraphPair, trees: list[Tree]) -> int:
    """Achievable codelength: V_out minus one per message-connected leaf SCC
    and one per connecting tree.  ``analyze`` checks it against the length
    of the planned code."""
    n_connected = len(graphs.leaf_sccs_of_class(
        g, graphs.LeafClass.MESSAGE_CONNECTED))
    return graphs.num_out_vertices(g) - (n_connected + len(trees))


__all__ = [
    "Tree", "CodeBlueprint", "CodeRow", "LinearIndexCode", "mask_of",
    "find_connecting_trees", "plan_code", "assign_senders", "upper_bound",
]

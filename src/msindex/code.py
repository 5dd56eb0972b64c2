"""Achievability: connecting trees, spanning trees, and XOR code assembly.

The constructive upper bound transmits one XOR per edge of certain trees
in the message graph and sends every remaining non-leaf message uncoded.
A connecting tree is a tree in the message graph whose vertex set
(a) contains only vertices with outgoing arcs, (b) has no arc leaving it,
and (c) avoids message-connected leaf SCCs and other connecting trees.
"""

from __future__ import annotations

import warnings
from functools import reduce
from operator import or_
from typing import NamedTuple

from . import graphs
from .model import (SCHEMA_VERSION, GraphPair, InstanceError, ProblemInstance, bits,
                    check_schema, closure, is_int)

_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to coefficient bytes
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # coefficient bytes to binary digits

# above this many vertices, unions of principal down-sets are not candidates
EXACT_LIMIT = 16


class Tree(NamedTuple):
    vertices: int  # a vertex mask
    edges: tuple[tuple[int, int], ...]


class CodeBlueprint(NamedTuple):
    connecting_trees: tuple[Tree, ...]
    scc_spanning_trees: tuple[Tree, ...]
    uncoded: tuple[int, ...]

    @property
    def length(self) -> int:
        return (sum(len(t.edges) for t in self.connecting_trees)
                + sum(len(t.edges) for t in self.scc_spanning_trees)
                + len(self.uncoded))


class CodeRow(NamedTuple):
    """One transmitted bit: a GF(2) combination of one sender's messages.

    ``coeffs`` is a bitmask; bit (i-1) set means message i participates.
    """

    sender: int
    coeffs: int
    kind: str | None = None

    def support(self) -> frozenset[int]:
        return frozenset(bits(self.coeffs))


class LinearIndexCode(NamedTuple):
    num_messages: int
    rows: tuple[CodeRow, ...]

    @property
    def length(self) -> int:
        return len(self.rows)

    def to_document(self) -> dict:
        """The code document: each row's ``coeffs`` is its low m binary
        digits, lowest first, as a 0/1 list."""
        m = self.num_messages
        return {"schema": SCHEMA_VERSION, "num_messages": m,
                "rows": [{"sender": row.sender,
                          "coeffs": list(format(row.coeffs, f"0{m}b")[:-m - 1:-1]
                                         .encode().translate(_BITS)),
                          "kind": row.kind}
                         for row in self.rows]}

    @classmethod
    def from_document(cls, doc: dict, path: str) -> "LinearIndexCode":
        """The code of a code document, whose fields are named ``path`` +
        ":" + field in errors; the rank check judges the row supports."""
        for key in ("num_messages", "rows"):
            if key not in doc:
                raise InstanceError(f"{path}:{key}", "missing required field")
        check_schema(doc, f"{path}:schema")
        m = doc["num_messages"]
        if not is_int(m) or m < 1:
            raise InstanceError(f"{path}:num_messages", "expected a positive integer")
        if not isinstance(doc["rows"], list):
            raise InstanceError(f"{path}:rows", "expected a list")
        rows = []
        for k, raw in enumerate(doc["rows"]):
            where = f"{path}:rows[{k}]"
            if not isinstance(raw, dict):
                raise InstanceError(where, "expected an object")
            sender = raw.get("sender")
            coeffs = raw.get("coeffs")
            if not is_int(sender) or sender < 1:
                raise InstanceError(where, "sender must be a positive integer")
            # plain 0/1 ints pass in two whole-list tests; the element loop
            # judges any other list
            if (not isinstance(coeffs, list) or len(coeffs) != m
                    or not (set(map(type, coeffs)) <= {int} and set(coeffs) <= {0, 1}
                            or all(is_int(c) and c in (0, 1) for c in coeffs))):
                raise InstanceError(where, f"coeffs must be a 0/1 list of length {m}")
            mask = int(bytes(reversed(coeffs)).translate(_DIGITS), 2)
            kind = raw.get("kind")
            if kind is not None and not isinstance(kind, str):
                raise InstanceError(where, "kind must be a string if present")
            rows.append(CodeRow(sender, mask, kind))
        return cls(m, tuple(rows))


def _spanning_tree(g: GraphPair, vs: int) -> tuple[tuple[int, int], ...]:
    """Kruskal over lexicographically sorted edges; the vertex mask must
    induce a connected message subgraph."""
    # the edges inside vs in lexicographic order: each i with its j > i
    edges = ((i, j) for i in bits(vs) for j in bits(g.adj[i] & vs >> i << i))
    chosen = graphs.spanning_forest(edges, vs.bit_count())
    if len(chosen) != vs.bit_count() - 1:
        raise ValueError(f"{list(bits(vs))} does not induce a connected message subgraph")
    return tuple(chosen)


def _tree_candidates(g: GraphPair) -> list[int]:
    """Connecting-tree vertex masks, sorted lexicographically as vertex
    lists.

    A set with no arc leaving it is a union of principal down-sets of the
    condensation (an SCC plus everything it reaches).  The eligible ones
    hold no leaf vertex and no vertex of a message-connected leaf SCC.  Up
    to ``EXACT_LIMIT`` vertices every union of them is a candidate, which
    is every valid set; above it only the principal down-sets are.
    """
    blocked = g.leaf_mask | sum(graphs.leaf_sccs_of_class(
        g, graphs.LeafClass.MESSAGE_CONNECTED))
    downs = {comp | closure(g.succ, comp) for comp in g.scc_masks}
    unions = {d for d in downs if not d & blocked}
    if g.n <= EXACT_LIMIT:
        for d in list(unions):
            unions |= {d | u for u in unions}
    return sorted((vs for vs in unions
                   if vs & (vs - 1) and len(g.components(vs)) == 1),
                  key=lambda vs: list(bits(vs)))


def _max_packing(candidates: list[int]) -> list[int]:
    """Exact maximum packing of vertex masks, lexicographically smallest
    family.

    A state is the union of the candidates that fit in what is left:
    vertices that no fitting candidate covers cannot change the packing,
    so they never split the memo.  States are scored on an explicit stack,
    so no family is too deep for the interpreter.
    """
    def without(pool: list[int], gone: int) -> int:
        """The state of the candidates in ``pool`` that avoid ``gone``."""
        return reduce(or_, (c for c in pool if not c & gone), 0)

    def usable(state: int) -> list[int]:
        return [c for c in candidates if not c & ~state]

    memo = {0: 0}

    def best(state: int) -> int:
        stack = [state]
        while stack:
            top = stack.pop()
            if top in memo:
                continue
            pool = usable(top)
            low = top & -top  # drop it, or take a candidate that holds it
            following = [(0, without(pool, low))] + [
                (1, without(pool, c)) for c in pool if c & low]
            todo = [s for _, s in following if s not in memo]
            if todo:
                stack += [top, *todo]
            else:
                memo[top] = max(gain + memo[s] for gain, s in following)
        return memo[state]

    chosen = []
    state = reduce(or_, candidates, 0)
    while best(state):
        target = best(state)
        pool = usable(state)
        chosen.append(next(c for c in pool if 1 + best(without(pool, c)) == target))
        state = without(pool, chosen[-1])
    return chosen


def find_connecting_trees(g: GraphPair) -> list[Tree]:
    """A maximum family of vertex-disjoint connecting trees among the
    candidates, lexicographically smallest.

    Up to ``EXACT_LIMIT`` vertices the candidates are every valid vertex
    set, so the count is the exact optimum.  Above it they are the
    principal down-sets only ("greedy" names this candidate class, and a
    warning says so): the family may then be smaller than the optimum, and
    is always valid for the upper bound.
    """
    if g.n > EXACT_LIMIT:
        warnings.warn(
            f"instance has {g.n} > {EXACT_LIMIT} vertices; "
            "falling back to greedy connecting-tree search")
    return [Tree(vs, _spanning_tree(g, vs)) for vs in _max_packing(_tree_candidates(g))]


def plan_code(g: GraphPair, trees: list[Tree]) -> CodeBlueprint:
    """Lay out the transmission plan: tree XORs, one spanning tree per
    message-connected leaf SCC, and the leftover non-leaf messages uncoded."""
    scc_trees = []
    covered = 0
    for t in trees:
        covered |= t.vertices
    for scc in graphs.leaf_sccs_of_class(g, graphs.LeafClass.MESSAGE_CONNECTED):
        scc_trees.append(Tree(scc, _spanning_tree(g, scc)))
        covered |= scc
    leftovers = g.vertex_mask & ~covered & ~graphs.leaf_vertices(g)
    return CodeBlueprint(connecting_trees=tuple(trees),
                         scc_spanning_trees=tuple(scc_trees),
                         uncoded=tuple(bits(leftovers)))


def assign_senders(inst: ProblemInstance, blueprint: CodeBlueprint) -> LinearIndexCode:
    """Attach each planned bit to the smallest sender that can produce it:
    the lowest of the senders that hold all of its messages."""
    m, holders = inst.num_messages, inst.incidence[1]  # bit s-1 per holder s

    def row(kind: str, i: int, j: int | None = None) -> CodeRow:
        held = holders[i] if 1 <= i <= m else 0
        if j is not None:
            held &= holders[j] if 1 <= j <= m else 0
        if not held:
            raise ValueError(f"no sender owns message {i}" if j is None
                             else f"no sender owns both messages {i} and {j}")
        coeffs = 1 << (i - 1) if j is None else 1 << (i - 1) | 1 << (j - 1)
        return CodeRow((held & -held).bit_length(), coeffs, kind)

    rows = [row("tree-xor", i, j)
            for tree in blueprint.connecting_trees for i, j in tree.edges]
    rows += [row("scc-xor", i, j)
             for tree in blueprint.scc_spanning_trees for i, j in tree.edges]
    rows += [row("uncoded", i) for i in blueprint.uncoded]
    return LinearIndexCode(inst.num_messages, tuple(rows))


def upper_bound(g: GraphPair, trees: list[Tree]) -> int:
    """Achievable codelength: V_out minus one per message-connected leaf SCC
    and one per connecting tree.  ``analyze`` checks it against the length
    of the planned code."""
    n_connected = len(graphs.leaf_sccs_of_class(
        g, graphs.LeafClass.MESSAGE_CONNECTED))
    return graphs.num_out_vertices(g) - (n_connected + len(trees))


__all__ = [
    "Tree", "CodeBlueprint", "CodeRow", "LinearIndexCode",
    "find_connecting_trees", "plan_code", "assign_senders", "upper_bound",
]

"""Leaf-SCC classification against the message graph, on the GraphPair kernel.

A leaf SCC is a strongly connected component with at least two vertices
and no arc leaving it.  Each leaf SCC falls into exactly one of four
classes depending on how the message graph connects its vertices:
message-connected, message-disconnected, or semi (degenerated or not).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain, combinations

from .model import GraphPair, adjacent, bits, mask_of


class LeafClass(enum.Enum):
    MESSAGE_CONNECTED = "MessageConnected"
    MESSAGE_DISCONNECTED = "MessageDisconnected"
    SEMI_DEGENERATED = "SemiDegenerated"
    SEMI_NON_DEGENERATED = "SemiNonDegenerated"


@dataclass(frozen=True)
class DegeneracyWitness:
    """Certificate that a semi leaf SCC is degenerated.

    ``part`` is one side of a no-edge-across bipartition of the SCC;
    ``cover`` is a vertex set outside the SCC with at most one non-leaf
    member such that every m-neighbor of ``part`` is in ``cover`` or is a
    predecessor of some vertex in ``cover``.  ``vacuous`` flags the corner
    case where ``part`` has no m-neighbors at all.
    """

    part: frozenset[int]
    cover: frozenset[int]
    vacuous: bool = False


@dataclass
class SccReport:
    sccs: list[frozenset[int]]
    leaf_sccs: list[int]
    classes: dict[int, LeafClass] = field(default_factory=dict)
    witnesses: dict[int, DegeneracyWitness] = field(default_factory=dict)


def scc_decompose(g: GraphPair) -> SccReport:
    """SCCs sorted by smallest member, with the leaf SCCs flagged; classes
    are left unfilled."""
    return SccReport(sccs=list(g.sccs), leaf_sccs=list(g.leaf_sccs))


def predecessors(g: GraphPair, i: int) -> frozenset[int]:
    """All j with a directed path j -> ... -> i of length >= 1.

    Includes i itself exactly when i lies on a cycle.
    """
    return frozenset(bits(g.ancestors(1 << (i - 1))))


def leaf_vertices(g: GraphPair) -> frozenset[int]:
    """Vertices with no outgoing arc."""
    return frozenset(bits(g.leaf_mask))


def num_out_vertices(g: GraphPair, exclude: frozenset[int] = frozenset()) -> int:
    """Number of vertices with at least one outgoing arc, minus ``exclude``."""
    return (g.vertex_mask & ~g.leaf_mask & ~mask_of(exclude)).bit_count()


def grounded_set(g: GraphPair) -> frozenset[int]:
    """Vertices that are a leaf or a predecessor of some leaf."""
    return frozenset(bits(g.leaf_mask | g.ancestors(g.leaf_mask)))


def is_grounded_digraph(g: GraphPair) -> bool:
    """True iff every vertex is grounded.

    Checked two ways: directly via grounded_set, and via the condensation
    criterion (no leaf SCC with >= 2 vertices).  The two always agree; a
    mismatch means a bug.
    """
    direct = len(grounded_set(g)) == g.n
    via_condensation = len(scc_decompose(g).leaf_sccs) == 0
    if direct != via_condensation:
        raise AssertionError(
            f"groundedness checks disagree: direct={direct} "
            f"condensation={via_condensation}")
    return direct


def m_neighbors(g: GraphPair, vs: frozenset[int] | set[int]) -> frozenset[int]:
    """Vertices outside ``vs`` joined to it by a message-graph edge."""
    mask = mask_of(vs)
    return frozenset(bits(adjacent(g.adj, mask) & ~mask))


def u_components(g: GraphPair, within: frozenset[int] | set[int]
                 ) -> list[frozenset[int]]:
    """Connected components of the message graph restricted to ``within``,
    ordered by smallest member."""
    return [frozenset(bits(c)) for c in g.components(mask_of(within))]


def u_connected_globally(g: GraphPair, a: int, b: int) -> bool:
    """Is there a path between a and b in the whole message graph?"""
    return a == b or bool(g.u_comp[a] >> (b - 1) & 1)


def is_leaf_scc(g: GraphPair, scc: frozenset[int]) -> bool:
    return any(g.sccs[k] == scc for k in g.leaf_sccs)


def _covered(g: GraphPair, targets: int, cover: int) -> bool:
    """Every vertex of ``targets`` is in ``cover`` or has a directed path
    into it.  The ancestors of a cover are those of its leaves plus those
    of its non-leaf members, both memoized per graph."""
    reach = cover | g.ancestors(cover & g.leaf_mask) | g.ancestors(cover & ~g.leaf_mask)
    return not targets & ~reach


def check_degeneracy_witness(g: GraphPair, scc: frozenset[int],
                             witness: DegeneracyWitness) -> bool:
    """Validate a degeneracy witness against the current graphs.

    The conditions: ``part`` is a nonempty proper subset of the SCC with no
    message-graph edge to the rest of the SCC; ``cover`` is a set of
    vertices of g outside the SCC with at most one non-leaf member; and
    every m-neighbor of ``part`` is in ``cover`` or has a directed path to
    some vertex of ``cover``.
    """
    part, cover = witness.part, witness.cover
    if not part or not part < scc:
        return False
    part_m, scc_m, cover_m = mask_of(part), mask_of(scc), mask_of(cover)
    touching = adjacent(g.adj, part_m)
    if touching & scc_m & ~part_m or cover_m & scc_m or cover_m >> g.n:
        return False
    non_leaf = cover_m & ~g.leaf_mask
    if non_leaf & (non_leaf - 1):
        return False
    return _covered(g, touching & ~part_m, cover_m)


def iter_degeneracy_witnesses(g: GraphPair, scc: frozenset[int]):
    """Yield every degeneracy witness of a leaf SCC, deterministically.

    ``part`` ranges over nonempty proper unions of the components of the
    message graph restricted to the SCC (exactly the bipartitions with no
    edge across), ordered by component count then smallest members.  For
    each, the candidate cover is every leaf vertex outside the SCC plus at
    most one non-leaf vertex w, in increasing w after the leaves alone;
    since enlarging a cover with leaves preserves witnesses, no witness
    shape is missed.

    The covers are found by intersection, not tested one by one.  The
    leaves and their ancestors (``base``) cover whatever they hold, so
    such a cover covers the part's m-neighbours exactly when each one
    outside ``base`` is w or an ancestor of w: w lies in ``{x} ∪ desc(x)``
    for every such x.  With none outside ``base`` the leaves alone and
    every w qualify.  Each cover found still passes the full check.
    """
    scc_m = mask_of(scc)
    comps = g.components(scc_m)
    leaves = g.leaf_mask & ~scc_m
    leaf_set = frozenset(bits(leaves))
    base = leaves | g.ancestors(leaves)
    others = g.vertex_mask & ~scc_m & ~leaves
    for r in range(1, len(comps)):
        for chosen in combinations(comps, r):
            part_m = sum(chosen)
            part = frozenset(bits(part_m))
            neighbors = adjacent(g.adj, part_m) & ~part_m
            if not neighbors:
                yield DegeneracyWitness(part, leaf_set, vacuous=True)
                continue
            rest = neighbors & ~base
            ws = others
            for x in bits(rest):
                ws &= 1 << (x - 1) | g.descendants(1 << (x - 1))
            covers = [] if rest else [leaf_set]
            for cover in chain(covers, (leaf_set | {w} for w in bits(ws))):
                witness = DegeneracyWitness(part, cover)
                if check_degeneracy_witness(g, scc, witness):
                    yield witness


def is_degenerated(g: GraphPair, scc: frozenset[int]
                   ) -> tuple[bool, DegeneracyWitness | None]:
    """Decide degeneracy of a semi leaf SCC; returns the first witness."""
    cls, witness = classify_leaf_scc(g, scc)
    if cls not in (LeafClass.SEMI_DEGENERATED, LeafClass.SEMI_NON_DEGENERATED):
        raise ValueError(f"SCC {sorted(scc)} is not a semi leaf SCC")
    return witness is not None, witness


def classify_without_degeneracy(g: GraphPair, scc: frozenset[int]) -> LeafClass | None:
    """Message-connected/disconnected test; None means semi."""
    return _class_of_mask(g, mask_of(scc))


def _class_of_mask(g: GraphPair, mask: int) -> LeafClass | None:
    """`classify_without_degeneracy` of a vertex mask, memoized in
    ``g.leaf_classes``: it reads only the mask and the message graph."""
    memo = g.leaf_classes
    if mask not in memo:
        if len(g.components(mask)) <= 1:
            memo[mask] = LeafClass.MESSAGE_CONNECTED
        elif g.u_comp[(mask & -mask).bit_length()] & mask != mask:
            memo[mask] = LeafClass.MESSAGE_DISCONNECTED
        else:
            memo[mask] = None
    return memo[mask]


def leaf_sccs_of_class(g: GraphPair, cls: LeafClass | None) -> list[frozenset[int]]:
    """The message-connected, the message-disconnected or (for ``None``)
    the semi leaf SCCs of g, ordered by smallest member; the degeneracy
    test never runs."""
    return [g.sccs[k] for k in g.leaf_sccs
            if _class_of_mask(g, g.scc_masks[k]) is cls]


def classify_leaf_scc(g: GraphPair, scc: frozenset[int]
                      ) -> tuple[LeafClass, DegeneracyWitness | None]:
    """Classify one leaf SCC of g; semi SCCs also get the degeneracy test.

    Message-connected means the message graph restricted to the SCC is
    connected; message-disconnected means some pair of SCC vertices has no
    path in the whole message graph.  The two tests deliberately use
    different graphs.
    """
    if not is_leaf_scc(g, scc):
        raise ValueError(f"{sorted(scc)} is not a leaf SCC")
    cls = classify_without_degeneracy(g, scc)
    if cls is not None:
        return cls, None
    witness = next(iter_degeneracy_witnesses(g, scc), None)
    if witness is None:
        return LeafClass.SEMI_NON_DEGENERATED, None
    return LeafClass.SEMI_DEGENERATED, witness


def classify_all(g: GraphPair) -> SccReport:
    """SCC decomposition with every leaf SCC classified."""
    report = scc_decompose(g)
    for k in report.leaf_sccs:
        cls, witness = classify_leaf_scc(g, report.sccs[k])
        report.classes[k] = cls
        if witness is not None:
            report.witnesses[k] = witness
    return report


def spanning_forest(pairs, size: int) -> list[tuple[int, int]]:
    """Kruskal's choice over ``size`` nodes: the pairs, in the given order,
    that join two different components of the pairs chosen before them,
    up to the ``size - 1`` of a spanning tree."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append((a, b))
            if len(chosen) == size - 1:
                break
    return chosen


def to_dot(g: GraphPair, dummies: frozenset[int] = frozenset()) -> str:
    """DOT rendering: arcs black and directed, message edges red and
    undirected, leaf SCCs as clusters labeled with their class, dummy
    vertices dashed."""
    report = classify_all(g)
    lines = ["digraph index_coding {"]
    clustered: set[int] = set()
    for idx, k in enumerate(report.leaf_sccs):
        scc = report.sccs[k]
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f'    label="{report.classes[k].value}";')
        for v in sorted(scc):
            lines.append(f"    {v};")
        lines.append("  }")
        clustered |= scc
    for v in g.vertices():
        if v in clustered:
            continue
        if v in dummies:
            lines.append(f"  {v} [style=dashed];")
        else:
            lines.append(f"  {v};")
    for i, j in sorted(g.arcs):
        lines.append(f"  {i} -> {j};")
    for i, j in sorted(g.edges):
        lines.append(f"  {i} -> {j} [color=red, dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "LeafClass", "DegeneracyWitness", "SccReport",
    "scc_decompose", "predecessors", "leaf_vertices", "num_out_vertices",
    "grounded_set", "is_grounded_digraph", "m_neighbors", "is_leaf_scc",
    "check_degeneracy_witness", "iter_degeneracy_witnesses", "is_degenerated",
    "leaf_sccs_of_class", "classify_leaf_scc", "classify_all",
    "spanning_forest", "to_dot",
]

"""Leaf-SCC classification against the message graph, on the GraphPair kernel.

A leaf SCC is a strongly connected component with at least two vertices
and no arc leaving it.  Each leaf SCC falls into exactly one of four
classes depending on how the message graph connects its vertices:
message-connected, message-disconnected, or semi (degenerated or not).
"""

from __future__ import annotations

import enum
from itertools import chain, combinations
from typing import NamedTuple

from .model import GraphPair, adjacent, bits


class LeafClass(enum.Enum):
    MESSAGE_CONNECTED = "MessageConnected"
    MESSAGE_DISCONNECTED = "MessageDisconnected"
    SEMI_DEGENERATED = "SemiDegenerated"
    SEMI_NON_DEGENERATED = "SemiNonDegenerated"


class DegeneracyWitness(NamedTuple):
    """Certificate that a semi leaf SCC is degenerated.

    ``part`` is one side of a no-edge-across bipartition of the SCC;
    ``cover`` is a vertex set outside the SCC with at most one non-leaf
    member such that every m-neighbor of ``part`` is in ``cover`` or is a
    predecessor of some vertex in ``cover``.  Both are vertex masks.
    ``vacuous`` flags the corner case where ``part`` has no m-neighbors at
    all.
    """

    part: int
    cover: int
    vacuous: bool = False


class SccReport:
    """SCC masks and the leaf SCCs among them; ``classes`` and
    ``witnesses`` are keyed by leaf-SCC mask and start empty."""

    def __init__(self, sccs: list[int], leaf_sccs: list[int]):
        self.sccs, self.leaf_sccs = sccs, leaf_sccs
        self.classes, self.witnesses = {}, {}


def scc_decompose(g: GraphPair) -> SccReport:
    """SCC masks sorted by smallest member, with the leaf SCCs flagged;
    classes are left unfilled."""
    return SccReport(sccs=list(g.scc_masks), leaf_sccs=list(g.leaf_sccs))


def leaf_vertices(g: GraphPair) -> int:
    """Vertices with no outgoing arc."""
    return g.leaf_mask


def num_out_vertices(g: GraphPair, exclude: int = 0) -> int:
    """Number of vertices with at least one outgoing arc, minus ``exclude``."""
    return (g.vertex_mask & ~g.leaf_mask & ~exclude).bit_count()


def grounded_set(g: GraphPair) -> int:
    """Vertices that are a leaf or a predecessor of some leaf."""
    return g.leaf_mask | g.ancestors(g.leaf_mask)


def is_grounded_digraph(g: GraphPair) -> bool:
    """True iff every vertex is grounded.

    Checked two ways: directly via grounded_set, and via the condensation
    criterion (no leaf SCC with >= 2 vertices).  The two always agree; a
    mismatch means a bug.
    """
    direct = grounded_set(g) == g.vertex_mask
    via_condensation = len(scc_decompose(g).leaf_sccs) == 0
    if direct != via_condensation:
        raise AssertionError(
            f"groundedness checks disagree: direct={direct} "
            f"condensation={via_condensation}")
    return direct


def u_components(g: GraphPair, within: int) -> list[int]:
    """Connected components of the message graph restricted to ``within``,
    ordered by smallest member."""
    return g.components(within)


def is_leaf_scc(g: GraphPair, scc: int) -> bool:
    return scc in g.leaf_scc_masks


def _covered(g: GraphPair, targets: int, cover: int) -> bool:
    """Every vertex of ``targets`` is in ``cover`` or has a directed path
    into it.  The ancestors of a cover are those of its leaves plus those
    of its non-leaf members, both memoized per graph."""
    reach = cover | g.ancestors(cover & g.leaf_mask) | g.ancestors(cover & ~g.leaf_mask)
    return not targets & ~reach


def check_degeneracy_witness(g: GraphPair, scc: int,
                             witness: DegeneracyWitness) -> bool:
    """Validate a degeneracy witness against the current graphs.

    The conditions: ``part`` is a nonempty proper subset of the SCC with no
    message-graph edge to the rest of the SCC; ``cover`` is a set of
    vertices of g outside the SCC with at most one non-leaf member; and
    every m-neighbor of ``part`` is in ``cover`` or has a directed path to
    some vertex of ``cover``.
    """
    part, cover = witness.part, witness.cover
    if not part or part & ~scc or part == scc:
        return False
    touching = adjacent(g.adj, part)
    if touching & scc & ~part or cover & scc or cover >> g.n:
        return False
    non_leaf = cover & ~g.leaf_mask
    if non_leaf & (non_leaf - 1):
        return False
    return _covered(g, touching & ~part, cover)


def iter_degeneracy_witnesses(g: GraphPair, scc: int):
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
    comps = g.components(scc)
    leaves = g.leaf_mask & ~scc
    base = leaves | g.ancestors(leaves)
    others = g.vertex_mask & ~scc & ~leaves
    for r in range(1, len(comps)):
        for chosen in combinations(comps, r):
            part = sum(chosen)
            neighbors = adjacent(g.adj, part) & ~part
            if not neighbors:
                yield DegeneracyWitness(part, leaves, vacuous=True)
                continue
            rest = neighbors & ~base
            ws = others
            for x in bits(rest):
                ws &= 1 << (x - 1) | g.descendants(1 << (x - 1))
            covers = [] if rest else [leaves]
            for cover in chain(covers, (leaves | 1 << (w - 1) for w in bits(ws))):
                witness = DegeneracyWitness(part, cover)
                if check_degeneracy_witness(g, scc, witness):
                    yield witness


def classify_without_degeneracy(g: GraphPair, scc: int) -> LeafClass | None:
    """Message-connected/disconnected test; None means semi.  Memoized in
    ``g.leaf_classes``: it reads only the mask and the message graph."""
    memo = g.leaf_classes
    if scc not in memo:
        if len(g.components(scc)) <= 1:
            memo[scc] = LeafClass.MESSAGE_CONNECTED
        elif g.u_comp[(scc & -scc).bit_length()] & scc != scc:
            memo[scc] = LeafClass.MESSAGE_DISCONNECTED
        else:
            memo[scc] = None
    return memo[scc]


def leaf_sccs_of_class(g: GraphPair, cls: LeafClass | None) -> list[int]:
    """The message-connected, the message-disconnected or (for ``None``)
    the semi leaf SCCs of g, ordered by smallest member; the degeneracy
    test never runs."""
    return [scc for scc in g.leaf_sccs if classify_without_degeneracy(g, scc) is cls]


def classify_leaf_scc(g: GraphPair, scc: int
                      ) -> tuple[LeafClass, DegeneracyWitness | None]:
    """Classify one leaf SCC of g; semi SCCs also get the degeneracy test.

    Message-connected means the message graph restricted to the SCC is
    connected; message-disconnected means some pair of SCC vertices has no
    path in the whole message graph.  The two tests deliberately use
    different graphs.
    """
    if not is_leaf_scc(g, scc):
        raise ValueError(f"{list(bits(scc))} is not a leaf SCC")
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
    for scc in report.leaf_sccs:
        cls, witness = classify_leaf_scc(g, scc)
        report.classes[scc] = cls
        if witness is not None:
            report.witnesses[scc] = witness
    return report


def scc_table(g: GraphPair) -> list[dict]:
    """The ``sccs`` table of the classify and report documents: per SCC,
    its vertices, and if it is a leaf SCC its class and any witness."""
    report = classify_all(g)
    table = []
    for scc in report.sccs:
        cls = report.classes.get(scc)
        entry = {"vertices": list(bits(scc)), "leaf": cls is not None,
                 "class": None if cls is None else cls.value}
        witness = report.witnesses.get(scc)
        if witness is not None:
            entry["witness"] = {"part": list(bits(witness.part)),
                                "cover": list(bits(witness.cover)),
                                "vacuous": witness.vacuous}
        table.append(entry)
    return table


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


def to_dot(g: GraphPair, dummies: int = 0) -> str:
    """DOT rendering: arcs black and directed, message edges red and
    undirected, leaf SCCs as clusters labeled with their class, dummy
    vertices (a mask) dashed."""
    report = classify_all(g)
    lines = ["digraph index_coding {"]
    clustered = 0
    for idx, scc in enumerate(report.leaf_sccs):
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f'    label="{report.classes[scc].value}";')
        for v in bits(scc):
            lines.append(f"    {v};")
        lines.append("  }")
        clustered |= scc
    for v in bits(g.vertex_mask & ~clustered):
        if dummies >> (v - 1) & 1:
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
    "scc_decompose", "leaf_vertices", "num_out_vertices",
    "grounded_set", "is_grounded_digraph", "is_leaf_scc",
    "check_degeneracy_witness", "iter_degeneracy_witnesses",
    "leaf_sccs_of_class", "classify_leaf_scc", "classify_all", "scc_table",
    "spanning_forest", "to_dot",
]

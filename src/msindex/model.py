"""Problem instances for multi-sender uniprior multicast index coding.

An instance has m binary messages and m receivers.  Receiver r knows
message r a priori and wants the set W_r of other messages.  Each of the
S senders owns a subset of the messages and may only encode what it owns.

Vertex sets are packed into ints throughout: bit v-1 stands for vertex v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, combinations, repeat
from typing import Any, Mapping

SCHEMA_VERSION = 1


class InstanceError(ValueError):
    """Raised for malformed instance documents; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class ProblemInstance:
    """A multi-sender uniprior multicast problem.

    Receiver indices, message indices, and vertex indices share the space
    1..num_messages.  Receiver r's prior is always {r} and is not stored.
    """

    num_messages: int
    senders: tuple[frozenset[int], ...]
    wants: tuple[frozenset[int], ...]
    simplified: bool = False

    @property
    def num_senders(self) -> int:
        return len(self.senders)

    @property
    def carried(self) -> frozenset[int]:
        """Messages owned by at least one sender (the ones that exist)."""
        out: set[int] = set()
        for ms in self.senders:
            out |= ms
        return frozenset(out)

    @property
    def wanted(self) -> frozenset[int]:
        """Messages required by at least one receiver."""
        out: set[int] = set()
        for wr in self.wants:
            out |= wr
        return frozenset(out)

    def to_document(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "num_messages": self.num_messages,
            "senders": [sorted(ms) for ms in self.senders],
            "wants": [sorted(wr) for wr in self.wants],
        }


def mask_of(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def bits(mask: int):
    """The vertices of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def adjacent(adjacency, mask: int) -> int:
    """Union of ``adjacency[v]`` over the vertices v of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adjacency[low.bit_length()]
        mask ^= low
    return out


def closure(adjacency, start: int, within: int = -1) -> int:
    """Vertices reached from ``start`` by nonempty paths that stay inside
    ``within``."""
    reach = 0
    frontier = start
    while frontier:
        frontier = adjacent(adjacency, frontier) & within & ~reach
        reach |= frontier
    return reach


@dataclass(frozen=True)
class GraphPair:
    """Information-flow digraph and message graph over vertices 1..n.

    Arc (i, j) means receiver j wants message i.  Edge {i, j} (stored as
    the sorted pair) means some sender owns both messages.  The edge set
    deliberately forgets which sender that is.

    A GraphPair is immutable, so it is also the graph kernel: validation
    builds per-vertex successor, predecessor and message-neighbour masks
    (``succ[v]``, ``pred[v]``, ``adj[v]``; index 0 unused), and the
    structural queries below are computed from them on first use and kept
    for the life of the object.  A changed graph is a new GraphPair.
    """

    n: int
    arcs: frozenset[tuple[int, int]]
    edges: frozenset[tuple[int, int]]
    succ: tuple[int, ...] = field(init=False, repr=False, compare=False)
    pred: tuple[int, ...] = field(init=False, repr=False, compare=False)
    adj: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _ancestors: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        succ, pred, adj = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
        for i, j in self.arcs:
            if i == j:
                raise ValueError(f"self-loop arc ({i},{j})")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"arc ({i},{j}) out of range 1..{n}")
            succ[i] |= 1 << (j - 1)
            pred[j] |= 1 << (i - 1)
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop edge ({i},{j})")
            if i > j:
                raise ValueError(f"edge ({i},{j}) not in canonical (min,max) order")
            if not (1 <= i and j <= n):
                raise ValueError(f"edge ({i},{j}) out of range 1..{n}")
            adj[i] |= 1 << (j - 1)
            adj[j] |= 1 << (i - 1)
        for name, value in (("succ", tuple(succ)), ("pred", tuple(pred)),
                            ("adj", tuple(adj)), ("_ancestors", {})):
            object.__setattr__(self, name, value)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def leaf_mask(self) -> int:
        """Vertices with no outgoing arc."""
        return mask_of(v for v in self.vertices() if not self.succ[v])

    def ancestors(self, mask: int) -> int:
        """Vertices with a nonempty directed path into ``mask``, memoized
        per mask."""
        found = self._ancestors.get(mask)
        if found is None:
            found = self._ancestors[mask] = closure(self.pred, mask)
        return found

    @cached_property
    def scc_masks(self) -> tuple[int, ...]:
        """Strongly connected components, ordered by smallest member: the
        component of the smallest unplaced vertex is what it reaches and is
        reached from through unplaced vertices."""
        comps = []
        rest = self.vertex_mask
        while rest:
            low = rest & -rest
            comp = low | (closure(self.succ, low, rest) & closure(self.pred, low, rest))
            comps.append(comp)
            rest &= ~comp
        return tuple(comps)

    @cached_property
    def sccs(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(bits(comp)) for comp in self.scc_masks)

    @cached_property
    def leaf_sccs(self) -> tuple[int, ...]:
        """Indices of the SCCs with two or more vertices and no arc leaving."""
        return tuple(k for k, comp in enumerate(self.scc_masks)
                     if comp & (comp - 1) and not adjacent(self.succ, comp) & ~comp)

    def components(self, within: int) -> list[int]:
        """Connected components of the message graph restricted to
        ``within``, ordered by smallest member."""
        comps = []
        while within:
            low = within & -within
            comp = low | closure(self.adj, low, within)
            comps.append(comp)
            within &= ~comp
        return comps

    @cached_property
    def u_comp(self) -> tuple[int, ...]:
        """Per vertex, its connected component in the whole message graph."""
        comp = [0] * (self.n + 1)
        for members in self.components(self.vertex_mask):
            for v in bits(members):
                comp[v] = members
        return tuple(comp)


def edge_key(i: int, j: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (i, j) if i < j else (j, i)


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise InstanceError(path, message)


def check_schema(document: Mapping[str, Any], path: str) -> None:
    """Reject a ``schema`` field other than the integer SCHEMA_VERSION
    (JSON ``true`` and ``1.0`` compare equal to 1 in Python)."""
    schema = document.get("schema", SCHEMA_VERSION)
    _require(type(schema) is int and schema == SCHEMA_VERSION, path,
             f"unsupported schema version {schema!r}")


def _parse_index_set(raw: Any, path: str, m: int) -> frozenset[int]:
    """The distinct indices 1..m of a JSON list.  A list of plain ints is
    checked whole; any other list goes through the element loop, which
    names the first bad index."""
    _require(isinstance(raw, list), path, f"expected a list, got {type(raw).__name__}")
    if all(type(x) is int for x in raw):
        found = frozenset(raw)
        if len(found) == len(raw) and (not raw or 1 <= min(raw) and max(raw) <= m):
            return found
    seen: set[int] = set()
    for k, x in enumerate(raw):
        _require(isinstance(x, int) and not isinstance(x, bool),
                 f"{path}[{k}]", f"expected an integer, got {x!r}")
        _require(1 <= x <= m, f"{path}[{k}]", f"index {x} out of range 1..{m}")
        _require(x not in seen, f"{path}[{k}]", f"duplicate index {x}")
        seen.add(x)
    return frozenset(seen)


def parse_instance(document: str | Mapping[str, Any]) -> ProblemInstance:
    """Parse and validate an instance document (JSON text or a mapping).

    The document shape is ``{"num_messages": m, "senders": [[...], ...],
    "wants": [[...], ...]}`` with 1-based indices; ``wants[k]`` belongs to
    receiver k+1.  An optional ``"schema": 1`` field is accepted.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise InstanceError("$", f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InstanceError("$", "invalid JSON: nested too deeply") from exc
    _require(isinstance(document, Mapping), "$", "expected a JSON object")

    allowed = {"schema", "num_messages", "senders", "wants"}
    for key in document:
        _require(key in allowed, str(key), "unknown field")
    check_schema(document, "schema")
    for key in ("num_messages", "senders", "wants"):
        _require(key in document, key, "missing required field")

    m = document["num_messages"]
    _require(isinstance(m, int) and not isinstance(m, bool) and m >= 1,
             "num_messages", f"expected a positive integer, got {m!r}")

    raw_senders = document["senders"]
    _require(isinstance(raw_senders, list) and len(raw_senders) >= 1,
             "senders", "expected a non-empty list of sender message sets")
    senders = []
    for s, raw in enumerate(raw_senders):
        ms = _parse_index_set(raw, f"senders[{s}]", m)
        _require(len(ms) > 0, f"senders[{s}]", "empty sender set")
        senders.append(ms)

    raw_wants = document["wants"]
    _require(isinstance(raw_wants, list), "wants", "expected a list")
    _require(len(raw_wants) == m, "wants",
             f"expected one want-set per receiver ({m}), got {len(raw_wants)}")
    wants = []
    for k, raw in enumerate(raw_wants):
        wr = _parse_index_set(raw, f"wants[{k}]", m)
        _require(k + 1 not in wr, f"wants[{k}]",
                 f"receiver {k + 1} wants its own message")
        wants.append(wr)

    covered: set[int] = set()
    for ms in senders:
        covered |= ms
    _require(covered == set(range(1, m + 1)), "senders",
             "every message must be owned by some sender")

    return ProblemInstance(num_messages=m, senders=tuple(senders),
                           wants=tuple(wants))


def simplify(inst: ProblemInstance) -> tuple[ProblemInstance, frozenset[int]]:
    """Drop every message nobody wants from all sender sets.

    Receiver vertices stay in place (their message becomes empty); sender
    slots are kept even if emptied, so sender indices remain stable for
    code attribution.  Returns the simplified instance and the removed
    message indices.  Idempotent.
    """
    wanted = inst.wanted
    removed = inst.carried - wanted
    senders = tuple(ms & wanted for ms in inst.senders)
    return replace(inst, senders=senders, simplified=True), frozenset(removed)


def build_graphs(inst: ProblemInstance) -> GraphPair:
    """Derive the information-flow digraph and message graph of an instance."""
    if not inst.simplified:
        raise ValueError("instance must be simplified before building graphs")
    arcs = frozenset(chain.from_iterable(
        zip(wr, repeat(j)) for j, wr in enumerate(inst.wants, start=1)))
    edges = frozenset(chain.from_iterable(
        combinations(sorted(ms), 2) for ms in inst.senders))
    return GraphPair(n=inst.num_messages, arcs=arcs, edges=edges)

"""Problem instances for multi-sender uniprior multicast index coding.

An instance has m binary messages and m receivers.  Receiver r knows
message r a priori and wants the set W_r of other messages.  Each of the
S senders owns a subset of the messages and may only encode what it owns.

Vertex sets are packed into ints throughout: bit v-1 stands for vertex v.
"""

from __future__ import annotations

import json
from bisect import bisect
from functools import cached_property, partial, reduce
from itertools import chain
from operator import or_
from typing import Any, Mapping

SCHEMA_VERSION = 1


class InstanceError(ValueError):
    """Raised for malformed instance documents; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class GuardError(ValueError):
    """An instance exceeds a hard size guard."""


def is_int(x) -> bool:
    """``x`` is an integer and not a boolean, as JSON tells them apart."""
    return isinstance(x, int) and not isinstance(x, bool)


def _incidence(m: int, senders, sender_masks, wants) -> tuple:
    """The incidence of the sender and want lists, one pass over each:
    ``(wanters, holders, sharers)``, each with an int per message i (index
    0 unused, 0): the receivers that want i, the senders that hold i (bit
    s-1 for sender s), and the messages that share a sender with i, i
    itself included when some sender holds it."""
    wanters, holders, sharers = [0] * (m + 1), [0] * (m + 1), [0] * (m + 1)
    for s, (ms, owned) in enumerate(zip(senders, sender_masks)):
        bit = 1 << s
        for i in ms:
            holders[i] |= bit
            sharers[i] |= owned
    for r, wr in enumerate(wants):
        bit = 1 << r
        for i in wr:
            wanters[i] |= bit
    return tuple(wanters), tuple(holders), tuple(sharers)


class ProblemInstance:
    """A multi-sender uniprior multicast problem.

    Receiver indices, message indices, and vertex indices share the space
    1..num_messages.  Receiver r's prior is always {r} and is not stored.
    An instance is immutable.  It is its masks ``sender_masks``,
    ``want_masks`` and their union ``carried_mask``, and its ``incidence``
    (`_incidence`), which `parse_instance` and `simplify` fill at once and
    a constructed instance derives on first read.  The sets ``senders``
    and ``wants`` are kept when given, and else built from the masks on
    first read.  Equality and hashing are over the masks; repr is over the
    sets.
    """

    def __init__(self, num_messages: int, senders: tuple[frozenset[int], ...],
                 wants: tuple[frozenset[int], ...], simplified: bool = False):
        sender_masks = tuple(map(mask_of, senders))
        vars(self).update(num_messages=num_messages, senders=senders, wants=wants,
                          simplified=simplified, sender_masks=sender_masks,
                          want_masks=tuple(map(mask_of, wants)),
                          carried_mask=reduce(or_, sender_masks, 0))

    def _key(self) -> tuple:
        return self.num_messages, self.sender_masks, self.want_masks, self.simplified

    def __eq__(self, other):
        if not isinstance(other, ProblemInstance):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = self.num_messages, self.senders, self.wants, self.simplified
        return ("ProblemInstance(num_messages={!r}, senders={!r}, wants={!r}, "
                "simplified={!r})".format(*fields))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"ProblemInstance is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @classmethod
    def _of_masks(cls, **fields) -> "ProblemInstance":
        """An instance from its masks and incidence, which the caller
        built to agree; nothing is checked or derived again."""
        inst = object.__new__(cls)
        vars(inst).update(fields)
        return inst

    @cached_property
    def senders(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(bits(owned)) for owned in self.sender_masks)

    @cached_property
    def wants(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(bits(wanted)) for wanted in self.want_masks)

    @cached_property
    def incidence(self) -> tuple:
        return _incidence(self.num_messages, self.senders, self.sender_masks, self.wants)

    @property
    def num_senders(self) -> int:
        return len(self.sender_masks)

    def to_document(self) -> dict[str, Any]:
        """The instance document, written from the sets: a constructed
        instance keeps them, and sorting a set runs in C."""
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


def _decompose(succ, pred, rest: int) -> list[int]:
    """The strongly connected components of the vertices of ``rest``, when
    no arc leaves ``rest``, ordered by smallest member: the component of
    the smallest unplaced vertex is what it reaches and is reached from
    through unplaced vertices."""
    comps = []
    while rest:
        low = rest & -rest
        comp = low | (closure(succ, low, rest) & closure(pred, low, rest))
        comps.append(comp)
        rest &= ~comp
    return comps


class GraphPair:
    """Information-flow digraph and message graph over vertices 1..n.

    Arc (i, j) means receiver j wants message i.  Edge {i, j} (stored as
    the sorted pair) means some sender owns both messages.  The edge set
    deliberately forgets which sender that is.

    The graph is its per-vertex masks: successors ``succ[v]``, predecessors
    ``pred[v]`` and message neighbours ``adj[v]`` (index 0 unused).  The
    pair sets ``arcs`` and ``edges`` are derived from them on first read.
    A GraphPair is immutable, so it is also the graph kernel: the
    structural queries below are computed on first use and kept for the
    life of the object.  A changed graph is a new GraphPair.
    ``GraphPair(n, arcs, edges)`` checks every pair of outside data; the
    four grounding steps (`prune`, `add_dummy`, `add_arc`, `add_edges`)
    build the next state from its parent's masks, check only what they
    add, and carry over every cache the step leaves valid.  Equality and
    hashing are over ``(n, succ, adj)``, which determine the arcs and
    edges.  ``leaf_classes`` is the memo of
    `graphs.classify_without_degeneracy` per vertex mask, which reads only
    the mask and the message graph.
    """

    def __init__(self, n: int, arcs, edges):
        arcs, edges = frozenset(arcs), frozenset(edges)
        succ, pred, adj = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
        for i, j in arcs:
            _check_arc(i, j, n)
            succ[i] |= 1 << (j - 1)
            pred[j] |= 1 << (i - 1)
        for i, j in edges:
            _check_edge(i, j, n)
            adj[i] |= 1 << (j - 1)
            adj[j] |= 1 << (i - 1)
        self._fill(n, tuple(succ), tuple(pred), tuple(adj),
                   {"arcs": arcs, "edges": edges})

    @classmethod
    def _of_masks(cls, n: int, succ, pred, adj, caches: dict) -> "GraphPair":
        g = object.__new__(cls)
        g._fill(n, succ, pred, adj, caches)
        return g

    def _fill(self, n, succ, pred, adj, caches: dict) -> None:
        vars(self).update({"n": n, "succ": succ, "pred": pred, "adj": adj,
                           "_ancestors": {}, "_descendants": {},
                           "leaf_classes": {}, **caches})
        self.__post_init__()

    def __post_init__(self):
        """The constant-time shape check that every construction runs
        once (``perfbench/tracer.py`` counts constructions through it);
        the pairs were checked where they were added."""
        if not len(self.succ) == len(self.pred) == len(self.adj) == self.n + 1:
            raise ValueError(f"masks do not cover vertices 1..{self.n}")

    def __setattr__(self, name, value):
        raise AttributeError(f"GraphPair is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GraphPair is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, GraphPair):
            return NotImplemented
        return (self.n, self.succ, self.adj) == (other.n, other.succ, other.adj)

    def __hash__(self):
        return hash((self.n, self.succ, self.adj))

    def __repr__(self):
        return f"GraphPair(n={self.n!r}, arcs={self.arcs!r}, edges={self.edges!r})"

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i in self.vertices() for j in bits(self.succ[i]))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i in self.vertices()
                         for j in bits(self.adj[i] >> i << i))

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

    def descendants(self, mask: int) -> int:
        """Vertices with a nonempty directed path from ``mask``, memoized
        per mask."""
        found = self._descendants.get(mask)
        if found is None:
            found = self._descendants[mask] = closure(self.succ, mask)
        return found

    @cached_property
    def scc_masks(self) -> tuple[int, ...]:
        """Strongly connected components, ordered by smallest member."""
        return tuple(_decompose(self.succ, self.pred, self.vertex_mask))

    @cached_property
    def leaf_sccs(self) -> tuple[int, ...]:
        """The SCCs with two or more vertices and no arc leaving, ordered
        by smallest member."""
        return tuple(comp for comp in self.scc_masks if _is_leaf(self.succ, comp))

    @cached_property
    def leaf_scc_masks(self) -> frozenset[int]:
        """The leaf SCCs as a set, for membership tests."""
        return frozenset(self.leaf_sccs)

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

    # -- grounding steps ----------------------------------------------------
    #
    # Each step takes the leaf SCC ``scc`` (a mask) it acts on; the caller
    # guarantees that it is a leaf SCC of this graph and that the arc
    # sources lie in it.  A cache is carried only if this graph has it.

    def _kept(self, *names: str) -> dict:
        cached = vars(self)
        return {name: cached[name] for name in names if name in cached}

    def _regrouped(self, succ, gone: list[int], parts: list[int], unleaf: int) -> dict:
        """The SCC caches of a successor whose SCCs are this graph's, less
        the SCCs ``gone``, plus ``parts``.  Every other SCC keeps its leaf
        status, except ``unleaf``, which loses it."""
        if "leaf_sccs" not in vars(self):
            return {}
        masks = list(self.scc_masks)
        leaf = set(self.leaf_scc_masks)
        leaf.difference_update(gone, (unleaf,))
        for comp in gone:
            masks.remove(comp)
        for comp in parts:
            k = bisect(masks, comp & -comp, key=lambda c: c & -c)
            masks.insert(k, comp)
            if _is_leaf(succ, comp):
                leaf.add(comp)
        return {"scc_masks": tuple(masks),
                "leaf_sccs": tuple(filter(leaf.__contains__, masks)),
                "leaf_scc_masks": frozenset(leaf)}

    def prune(self, scc: int, v: int) -> "GraphPair":
        """Remove every outgoing arc of vertex ``v`` of the leaf SCC ``scc``."""
        bit = 1 << (v - 1)
        succ, pred = list(self.succ), list(self.pred)
        for j in bits(succ[v]):
            pred[j] &= ~bit
        succ[v] = 0
        caches = {
            # adj is unchanged, and so are the message-graph caches
            "leaf_classes": self.leaf_classes, **self._kept("u_comp"),
            # no arc leaves scc, so only scc splits, and parts of it may
            # become leaf SCCs
            **self._regrouped(succ, [scc], _decompose(succ, pred, scc), 0)}
        if "leaf_mask" in vars(self):
            caches["leaf_mask"] = self.leaf_mask | bit  # v lost its last arc
        return GraphPair._of_masks(self.n, tuple(succ), tuple(pred), self.adj, caches)

    def add_dummy(self, scc: int, source: int) -> "GraphPair":
        """Append vertex n+1 with no edges and one arc into it from
        ``source`` of the leaf SCC ``scc``."""
        n = self.n + 1
        _check_arc(source, n, n)
        bit = 1 << self.n
        succ = list(self.succ)
        succ[source] |= bit
        caches = {
            # the new vertex has no edge, so the old components stand and
            # it is one of its own
            "leaf_classes": self.leaf_classes,
            # scc now has an arc leaving it, and the new vertex is an SCC
            **self._regrouped(succ, [], [bit], scc)}
        if "u_comp" in vars(self):
            caches["u_comp"] = self.u_comp + (bit,)
        if "leaf_mask" in vars(self):
            caches["leaf_mask"] = self.leaf_mask | bit
        return GraphPair._of_masks(n, tuple(succ) + (0,), self.pred + (1 << (source - 1),),
                                   self.adj + (0,), caches)

    def add_arc(self, scc: int, source: int, target: int) -> "GraphPair":
        """Add the arc from ``source`` of the leaf SCC ``scc`` to a vertex
        ``target`` outside it."""
        _check_arc(source, target, self.n)
        t = 1 << (target - 1)
        succ, pred = list(self.succ), list(self.pred)
        succ[source] |= t
        pred[target] |= 1 << (source - 1)
        caches = {
            # adj is unchanged, and so are the message-graph caches
            "leaf_classes": self.leaf_classes,
            **self._kept("u_comp",
                         # source was no leaf, since scc is a cycle
                         "leaf_mask")}
        if "leaf_sccs" in vars(self):
            if self.ancestors(scc) & t:
                # the new cycles run from target through its descendants
                # back into scc, and merge them with scc
                merged = scc | (t | self.descendants(t)) & self.ancestors(scc)
                gone = [comp for comp in self.scc_masks if comp & merged]
                caches.update(self._regrouped(succ, gone, [merged], scc))
            else:
                # no new cycle: only scc changes, and stops being a leaf
                caches.update(self._regrouped(succ, [], [], scc))
        return GraphPair._of_masks(self.n, tuple(succ), tuple(pred), self.adj, caches)

    def add_edges(self, edges) -> "GraphPair":
        """Add message edges, each a pair i < j."""
        adj = list(self.adj)
        for i, j in edges:
            _check_edge(i, j, self.n)
            adj[i] |= 1 << (j - 1)
            adj[j] |= 1 << (i - 1)
        # the arcs are unchanged, and so are the digraph caches
        caches = self._kept("leaf_mask", "scc_masks", "leaf_sccs", "leaf_scc_masks")
        caches.update(_ancestors=self._ancestors, _descendants=self._descendants)
        if "u_comp" in vars(self) and all(self.u_comp[i] >> (j - 1) & 1 for i, j in edges):
            caches["u_comp"] = self.u_comp  # each edge lies in one component
        return GraphPair._of_masks(self.n, self.succ, self.pred, tuple(adj), caches)


def _is_leaf(succ, comp: int) -> bool:
    """``comp`` has two or more vertices and no arc leaving it."""
    return bool(comp & (comp - 1)) and not adjacent(succ, comp) & ~comp


def _check_arc(i: int, j: int, n: int) -> None:
    if i == j:
        raise ValueError(f"self-loop arc ({i},{j})")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"arc ({i},{j}) out of range 1..{n}")


def _check_edge(i: int, j: int, n: int) -> None:
    if i == j:
        raise ValueError(f"self-loop edge ({i},{j})")
    if i > j:
        raise ValueError(f"edge ({i},{j}) not in canonical (min,max) order")
    if not (1 <= i and j <= n):
        raise ValueError(f"edge ({i},{j}) out of range 1..{n}")


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
    """The distinct indices 1..m of a JSON list, checked element by
    element, so that the first bad index is named."""
    _require(isinstance(raw, list), path, f"expected a list, got {type(raw).__name__}")
    seen: set[int] = set()
    for k, x in enumerate(raw):
        _require(is_int(x), f"{path}[{k}]", f"expected an integer, got {x!r}")
        _require(1 <= x <= m, f"{path}[{k}]", f"index {x} out of range 1..{m}")
        _require(x not in seen, f"{path}[{k}]", f"duplicate index {x}")
        seen.add(x)
    return frozenset(seen)


def _whole_document(m: int, raw_senders: Any, raw_wants: Any) -> ProblemInstance | None:
    """The instance of the sender and want lists when every check holds, or
    None.  Each check is one pass over the whole document that runs in C:
    the entry types, the element types, the masks (an index outside 1..m
    has no unit), the bit counts (a duplicate index carries into another
    bit), the empty senders, the self-wants and the coverage.  The masks
    and the incidence are built here once, and no set is."""
    if not (type(raw_senders) is list and raw_senders
            and type(raw_wants) is list and len(raw_wants) == m):
        return None
    lists = raw_senders + raw_wants
    if not (set(map(type, lists)) <= {list}
            and set(map(type, chain.from_iterable(lists))) <= {int}):
        return None
    unit = dict(zip(range(1, m + 1), map((1).__lshift__, range(m))))
    try:
        masks = list(map(sum, map(partial(map, unit.__getitem__), lists)))
    except KeyError:
        return None
    if list(map(int.bit_count, masks)) != list(map(len, lists)):
        return None
    s = len(raw_senders)
    sender_masks, want_masks = tuple(masks[:s]), tuple(masks[s:])
    carried = reduce(or_, sender_masks)
    if (not all(sender_masks) or any(map(int.__and__, want_masks, unit.values()))
            or carried != (1 << m) - 1):
        return None
    return ProblemInstance._of_masks(
        num_messages=m, simplified=False, sender_masks=sender_masks,
        want_masks=want_masks, carried_mask=carried,
        incidence=_incidence(m, raw_senders, sender_masks, raw_wants))


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
    _require(is_int(m) and m >= 1,
             "num_messages", f"expected a positive integer, got {m!r}")

    raw_senders, raw_wants = document["senders"], document["wants"]
    whole = _whole_document(m, raw_senders, raw_wants)
    if whole is not None:
        return whole

    # some check failed: the checks in document order name the first fault
    _require(isinstance(raw_senders, list) and len(raw_senders) >= 1,
             "senders", "expected a non-empty list of sender message sets")
    senders = []
    for s, raw in enumerate(raw_senders):
        ms = _parse_index_set(raw, f"senders[{s}]", m)
        _require(len(ms) > 0, f"senders[{s}]", "empty sender set")
        senders.append(ms)

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
    message indices.  Idempotent.  The masks and the incidence are the
    original's ANDed with the wanted messages; no set is built.
    """
    keep = reduce(or_, inst.want_masks, 0)
    gone = inst.carried_mask & ~keep
    sender_masks, incidence = inst.sender_masks, inst.incidence
    if gone:  # else every sender set lies inside the wanted messages
        sender_masks = tuple(owned & keep for owned in sender_masks)
        wanters, holders, sharers = incidence
        holders, sharers = list(holders), [a & keep for a in sharers]
        for i in bits(gone):
            holders[i] = sharers[i] = 0
        incidence = wanters, tuple(holders), tuple(sharers)
    simple = ProblemInstance._of_masks(
        num_messages=inst.num_messages, simplified=True, sender_masks=sender_masks,
        want_masks=inst.want_masks, carried_mask=inst.carried_mask & keep,
        incidence=incidence)
    return simple, frozenset(bits(gone))


def build_graphs(inst: ProblemInstance) -> GraphPair:
    """Read the information-flow digraph and message graph off the
    instance's incidence: ``pred[j]`` is the mask of W_j, ``succ[i]`` the
    receivers that want i, and ``adj[v]`` the messages that share a sender
    with v, less v.  No pair is built."""
    if not inst.simplified:
        raise ValueError("instance must be simplified before building graphs")
    n = inst.num_messages
    for j, wanted in enumerate(inst.want_masks, start=1):
        if wanted >> (j - 1) & 1 or wanted >> n:
            raise ValueError(f"receiver {j} wants {list(bits(wanted))} "
                             f"outside 1..{n} less {j}")
    for owned in inst.sender_masks:
        if owned >> n:
            raise ValueError(f"sender set {list(bits(owned))} out of range 1..{n}")
    wanters, _, sharers = inst.incidence
    return GraphPair._of_masks(
        n, wanters, (0,) + inst.want_masks,
        (0,) + tuple(a & ~(1 << k) for k, a in enumerate(sharers[1:])), {})

"""A probe of the core's current speed, for rescaling measured times.

On a shared host the speed of one core swings by up to 2.5x from one
second to the next and from one minute to the next, as neighbouring
tenants come and go.  ``probe()`` times a fixed pure-Python loop that calls
none of msindex, so a change to msindex cannot move it; ``speed_factor``
turns two probes taken around a step into the multiplier that rescales the
step's wall time to the reference core speed.

The loop mixes the kinds of work msindex does: small objects, frozensets
and dict counting (model and grounding states), an iterative Tarjan on a
sparse digraph (graphs), GF(2) elimination on integer bitmasks (verify),
and chained lookups in a table of a few MB.  In a three-minute trial on the
reference machine the times of nine msindex reports, taken over 2-second
windows, followed a mix like this one with an elasticity of 0.74 to 0.99
(R^2 0.5 to 0.75), closer than any of its parts alone; a plain set and dict
loop followed them with 0.2 to 0.5.
"""

from __future__ import annotations

import gc
import random
import time

# probe() at the fastest seen on the reference machine (a 2-vCPU x86-64 VM,
# Python 3.11), so rescaled times read as times on that machine's core at
# its fastest, and speed factors there are at most about 1.
REFERENCE_PROBE_S = 1.8e-3

_rng = random.Random("perfbench-probe")
_GRAPH = {v: sorted(_rng.sample(range(120), 3)) for v in range(120)}
_ROWS = [_rng.getrandbits(48) for _ in range(40)]
_order = list(range(1 << 16))
_rng.shuffle(_order)
_TABLE = dict(enumerate(_order))
del _rng, _order


class _Node:
    __slots__ = ("low", "high", "kids")

    def __init__(self, low: int, high: int):
        self.low, self.high, self.kids = low, high, []


def _mix(x: int, y: int) -> int:
    return (x * 31 ^ y) & 1023


def _objects() -> int:
    counts: dict[frozenset, int] = {}
    nodes = []
    for i in range(600):
        node = _Node(i & 63, _mix(i, i >> 3))
        nodes.append(node)
        key = frozenset((node.low, node.high, i % 5))
        counts[key] = counts.get(key, 0) + 1
        if i % 8 == 0:
            nodes[i // 2].kids.append(node)
    nodes.sort(key=lambda node: (node.high, node.low))
    return len(counts) + sum(len(node.kids) for node in nodes[:50])


def _tarjan(succ: dict[int, list[int]]) -> int:
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[frozenset[int]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    members = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        members.add(w)
                        if w == v:
                            break
                    components.append(frozenset(members))
    return len(components)


def _rank(rows: list[int]) -> int:
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def _lookups() -> int:
    acc, j = 0, 7
    for _ in range(6000):
        j = _TABLE[j]
        acc += j
    return acc


def probe_loop() -> int:
    return (_objects() + _tarjan(_GRAPH) + _tarjan(_GRAPH) + _rank(_ROWS)
            + _rank(_ROWS[::-1]) + _lookups())


def probe() -> float:
    """Seconds of the fastest of three runs of probe_loop(), with the cyclic
    garbage collector paused so that the size of the heap msindex left
    behind does not enter the reading."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            probe_loop()
            best = min(best, time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return best


def speed_factor(before: float, after: float) -> float:
    """Multiplier from wall time to time at the reference core speed for a
    step between two probes."""
    return REFERENCE_PROBE_S / ((before + after) / 2)

"""The decode-closure facts every valid code satisfies, checked as rank
facts on the unit reductions of `msindex.verify`.  The acceptance suite
checks them on oracle codes, and `test_verify.py` on oracle and planned
codes and against a solver-based reference."""

from __future__ import annotations

from dataclasses import dataclass

from msindex import graphs
from msindex.code import LinearIndexCode
from msindex.model import ProblemInstance, build_graphs, simplify
from msindex.verify import _unit_reductions


@dataclass(frozen=True)
class ClosureViolation:
    rule: str
    receiver: int | None
    message: int


@dataclass(frozen=True)
class ClosureReport:
    violations: tuple[ClosureViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_decode_closure(code: LinearIndexCode, inst: ProblemInstance) -> ClosureReport:
    """Structural facts every valid code must satisfy, checked as rank facts.

    predecessor: each receiver can decode every predecessor's message.
    leaf-predecessor: predecessors of leaf vertices decode from the rows
    alone.  disconnected-scc: messages of message-disconnected leaf SCCs
    decode from the rows alone.
    """
    simple, _ = simplify(inst)
    g = build_graphs(simple)
    violations = []
    red, offset = _unit_reductions(code.rows, simple.num_messages)
    messages = (1 << offset) - 1

    plain_targets: set[tuple[str, int]] = set()
    for v in sorted(graphs.leaf_vertices(g)):
        for j in sorted(graphs.predecessors(g, v)):
            plain_targets.add(("leaf-predecessor", j))
    for scc in graphs.leaf_sccs_of_class(
            g, graphs.LeafClass.MESSAGE_DISCONNECTED):
        for j in sorted(scc):
            plain_targets.add(("disconnected-scc", j))
    for rule, j in sorted(plain_targets):
        if red[j] & messages:
            violations.append(ClosureViolation(rule, None, j))

    carried = simple.carried
    for r in range(1, g.n + 1):
        for j in sorted(graphs.predecessors(g, r) & carried):
            if red[j] & messages and (r not in carried
                                      or (red[j] ^ red[r]) & messages):
                violations.append(ClosureViolation("predecessor", r, j))
    return ClosureReport(tuple(violations))

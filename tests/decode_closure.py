"""Test-only references for decoding.

The decode-closure facts every valid code satisfies, checked as rank
facts on the unit reductions of `msindex.verify`.  The acceptance suite
checks them on oracle codes, and `test_verify.py` on oracle and planned
codes and against a solver-based reference.

`verify_exhaustive` decodes by simulating every message vector; it is the
reference that the rank test of `msindex.verify` must agree with."""

from __future__ import annotations

from dataclasses import dataclass

from msindex import graphs
from msindex.code import LinearIndexCode
from msindex.model import ProblemInstance, bits, build_graphs, simplify
from msindex.verify import GuardError, _unit_reductions, _validate_supports

EXHAUSTIVE_LIMIT = 20


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
    for v in bits(graphs.leaf_vertices(g)):
        for j in bits(g.ancestors(1 << (v - 1))):
            plain_targets.add(("leaf-predecessor", j))
    for scc in graphs.leaf_sccs_of_class(
            g, graphs.LeafClass.MESSAGE_DISCONNECTED):
        for j in bits(scc):
            plain_targets.add(("disconnected-scc", j))
    for rule, j in sorted(plain_targets):
        if red[j] & messages:
            violations.append(ClosureViolation(rule, None, j))

    carried = frozenset().union(*simple.senders)
    for r in range(1, g.n + 1):
        for j in bits(g.ancestors(1 << (r - 1)) & simple.carried_mask):
            if red[j] & messages and (r not in carried
                                      or (red[j] ^ red[r]) & messages):
                violations.append(ClosureViolation("predecessor", r, j))
    return ClosureReport(tuple(violations))


def verify_exhaustive(code: LinearIndexCode, inst: ProblemInstance) -> bool:
    """Independent decodability check by simulating every message vector.

    For each receiver, assignments are grouped by what the receiver
    observes (all codewords plus its own bit); the code works iff the
    receiver's wanted bits are constant on every group.
    """
    if inst.num_messages > EXHAUSTIVE_LIMIT:
        raise GuardError(
            f"m={inst.num_messages} exceeds exhaustive limit {EXHAUSTIVE_LIMIT}")
    _validate_supports(code, inst)
    carried_set = frozenset().union(*inst.senders)
    carried = sorted(carried_set)
    receivers = [r for r in range(1, inst.num_messages + 1) if inst.wants[r - 1]]
    want_masks = {r: inst.want_masks[r - 1] for r in receivers}
    seen: dict[int, dict[tuple, int]] = {r: {} for r in receivers}

    for assignment in range(1 << len(carried)):
        x = 0
        for pos, msg in enumerate(carried):
            if (assignment >> pos) & 1:
                x |= 1 << (msg - 1)
        codeword = tuple((row.coeffs & x).bit_count() & 1 for row in code.rows)
        for r in receivers:
            own = (x >> (r - 1)) & 1 if r in carried_set else None
            obs = (codeword, own)
            wanted_bits = x & want_masks[r]
            prev = seen[r].setdefault(obs, wanted_bits)
            if prev != wanted_bits:
                return False
    return True

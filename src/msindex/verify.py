"""Decodability certification and the brute-force minimum-codelength oracle.

GF(2) vectors are packed into ints: bit (i-1) stands for message i.
The oracle is exact for linear codes only; nonlinear codes can in
principle do better in other index-coding settings, so its result is an
upper bound on the true optimum that becomes a certificate exactly when
it meets the structural lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from . import graphs
from .code import CodeRow, LinearIndexCode
from .model import (InstanceError, ProblemInstance, adjacent, bits,
                    build_graphs, mask_of, simplify)

EXHAUSTIVE_LIMIT = 20
ORACLE_LIMIT = 8


class GuardError(ValueError):
    """An instance exceeds a hard size guard."""


@dataclass(frozen=True)
class CertEntry:
    receiver: int
    wanted: int
    row_indices: tuple[int, ...]
    uses_prior: bool


class DecodeCertificate:
    """One entry per (receiver, wanted) pair, in index order: the rows the
    receiver XORs, and whether it adds its own message.  ``entries`` may be
    any iterable of entries; it is read into a tuple on first use, so a
    certificate nobody reads costs nothing.  Certificates with equal
    entries are equal."""

    def __init__(self, entries: Iterable[CertEntry]):
        self._source = entries

    @cached_property
    def entries(self) -> tuple[CertEntry, ...]:
        return tuple(self._source)

    def entry(self, receiver: int, wanted: int) -> CertEntry:
        for e in self.entries:
            if e.receiver == receiver and e.wanted == wanted:
                return e
        raise KeyError((receiver, wanted))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DecodeCertificate):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"DecodeCertificate(entries={self.entries!r})"


@dataclass(frozen=True)
class DecodeFailure:
    receiver: int
    wanted: int


def _validate_supports(code: LinearIndexCode, inst: ProblemInstance) -> None:
    owned = [mask_of(ms) for ms in inst.senders]
    for k, row in enumerate(code.rows):
        if not (1 <= row.sender <= inst.num_senders):
            raise InstanceError(f"rows[{k}]", f"unknown sender {row.sender}")
        if row.coeffs & ~owned[row.sender - 1]:
            raise InstanceError(
                f"rows[{k}]", f"support {sorted(row.support())} not owned by "
                f"sender {row.sender}")


def _reduce(basis: tuple[int, ...], x: int) -> int:
    """``x`` with every pivot of the reduced echelon ``basis`` cleared: the
    canonical representative of the coset ``x + span(basis)``, and 0
    exactly when ``x`` lies in the span.  Each pivot (lowest set bit of its
    row) occurs in no other row, so one pass in any order suffices."""
    for b in basis:
        if x & b & -b:
            x ^= b
    return x


def _extend(basis: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The reduced echelon basis of ``span(basis) + r`` for a nonzero
    ``r = _reduce(basis, r)``: its pivot is cleared from the other rows.
    Rows are kept in pivot order, so equal spans have equal bases.  No
    other row's pivot changes (r has no bit below its own pivot), so r is
    inserted after the rows with a bit below its pivot, which come first,
    and nothing is re-sorted."""
    pivot = r & -r
    below = pivot - 1
    rows = [b ^ r if b & pivot else b for b in basis]
    at = 0
    for b in rows:
        if not b & below:
            break
        at += 1
    rows.insert(at, r)
    return tuple(rows)


def _unit_reductions(rows: tuple[CodeRow, ...], m: int) -> tuple[list[int], int]:
    """``red(e_j)`` for every message j (index 0 unused) modulo the code
    rows' reduced echelon basis, and the offset of the row tags.

    Row k carries tag bit ``offset + k``, above every message bit, so the
    tag bits of a reduction name the rows a decoder XORs.  A row whose
    message bits reduce to 0 depends on earlier rows and is left out, so
    the basis holds the first independent subset of the rows, over which
    the rows that give a vector are unique.  A unit vector reduces by at
    most the row it is the pivot of, so each ``red(e_j)`` is one lookup.
    Receiver r decodes message j by the rows alone when ``red(e_j)`` has
    no message bits, and with its prior e_r when ``red(e_j) ^ red(e_r)``
    has none; reduction is linear."""
    offset = max([m] + [row.coeffs.bit_length() for row in rows])
    messages = (1 << offset) - 1
    basis: tuple[int, ...] = ()
    for k, row in enumerate(rows):
        r = _reduce(basis, row.coeffs | 1 << (offset + k))
        if r & messages:
            basis = _extend(basis, r)
    row_of = {b & -b: b for b in basis}.get
    return [0] + [u ^ row_of(u, 0) for u in (1 << j for j in range(m))], offset


def _certificate_entries(inst: ProblemInstance, red: list[int],
                         offset: int) -> Iterator[CertEntry]:
    """The certificate entries in (receiver, wanted) index order, for a
    code every receiver decodes."""
    messages = (1 << offset) - 1
    for r, wanted in enumerate(inst.wants, start=1):
        for j in sorted(wanted):
            t = red[j]
            uses_prior = bool(t & messages)
            if uses_prior:
                t ^= red[r]
            yield CertEntry(r, j, tuple(k - 1 for k in bits(t >> offset)),
                            uses_prior)


def rank_decodable(code: LinearIndexCode, inst: ProblemInstance
                   ) -> DecodeCertificate | DecodeFailure:
    """Check that every receiver can reconstruct its wanted messages.

    Receiver r may combine the code rows with its prior e_r (when its own
    message exists); success means each wanted unit vector lies in that
    span.  Returns certificates, or the first failing (receiver, wanted)
    pair in index order.

    The messages are grouped by the message bits of their reductions
    (`_unit_reductions`): receiver r decodes exactly the group of key 0,
    and, when its own message exists, the group of its own key, so one
    mask test per receiver checks all its wants.  The certificate's
    entries are built when first read.
    """
    _validate_supports(code, inst)
    m = inst.num_messages
    red, offset = _unit_reductions(code.rows, m)
    messages = (1 << offset) - 1
    group: dict[int, int] = {}
    for j in range(1, m + 1):
        key = red[j] & messages
        group[key] = group.get(key, 0) | 1 << (j - 1)
    alone = group.get(0, 0)
    carried = mask_of(inst.carried)
    for r, wanted in enumerate(inst.wants, start=1):
        missed = mask_of(wanted) & ~alone
        if missed and carried >> (r - 1) & 1:
            missed &= ~group[red[r] & messages]
        if missed:
            return DecodeFailure(receiver=r, wanted=(missed & -missed).bit_length())
    return DecodeCertificate(_certificate_entries(inst, red, offset))


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
    carried_set = inst.carried
    carried = sorted(carried_set)
    receivers = [r for r in range(1, inst.num_messages + 1) if inst.wants[r - 1]]
    want_masks = {r: mask_of(inst.wants[r - 1]) for r in receivers}
    seen: dict[int, dict[tuple, int]] = {r: {} for r in receivers}

    for bits in range(1 << len(carried)):
        x = 0
        for pos, msg in enumerate(carried):
            if (bits >> pos) & 1:
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


def _candidate_rows(inst: ProblemInstance) -> list[CodeRow]:
    """Every nonzero sender-feasible row, deduplicated with smallest-sender
    attribution, sorted by coefficient mask."""
    best_sender: dict[int, int] = {}
    for s, ms in enumerate(inst.senders, start=1):
        owned = sorted(ms)
        for r in range(1, len(owned) + 1):
            for combo in combinations(owned, r):
                best_sender.setdefault(mask_of(combo), s)
    return [CodeRow(best_sender[mask], mask)
            for mask in sorted(best_sender)]


def _sender_feasible(basis: tuple[int, ...], senders: list[int],
                     dim_c: int) -> bool:
    """Whether C, the annihilator of ``span(basis)`` inside the carried
    coordinates (``dim_c`` its dimension), is spanned by its vectors that
    lie inside one sender's set.

    For each sender set S, C ∩ V_S is the annihilator inside V_S of the
    basis rows restricted to S.  With R the reduced echelon basis of
    those restrictions, every bit j of S that is no pivot of R gives one
    null vector: e_j plus the pivot of each row of R that holds j (a
    pivot occurs in no other row, so every row meets the vector in 0 or
    2 bits).  These |S| - rank(R) vectors span C ∩ V_S, and their sum
    over the senders is C exactly when its rank reaches ``dim_c``."""
    spanned: tuple[int, ...] = ()
    for owned in senders:
        rows: tuple[int, ...] = ()
        for b in basis:
            r = _reduce(rows, b & owned)
            if r:
                rows = _extend(rows, r)
        free = owned
        for r in rows:
            free &= ~(r & -r)
        while free:
            j = free & -free
            free ^= j
            x = j
            for r in rows:
                if r & j:
                    x |= r & -r
            x = _reduce(spanned, x)
            if x:
                spanned = _extend(spanned, x)
                if len(spanned) == dim_c:
                    return True
    return len(spanned) == dim_c


def _optimal_duals(inst: ProblemInstance) -> tuple[int, list[tuple[int, ...]]]:
    """The minimum linear length and the reduced echelon bases of every
    feasible allowed D at that length: the one search behind
    `min_linear_length` and `oracle_min_linear`."""
    if inst.num_messages > ORACLE_LIMIT:
        raise GuardError(
            f"m={inst.num_messages} exceeds oracle limit {ORACLE_LIMIT}")
    carried = mask_of(inst.carried)
    wanters = [0] * (inst.num_messages + 1)
    for r, wanted in enumerate(inst.wants, start=1):
        for t in wanted:
            wanters[t] |= 1 << (r - 1)
    allowed = set()
    y = carried
    while y:
        if not adjacent(wanters, y) & ~y:
            allowed.add(y)
        y = (y - 1) & carried
    owned = {mask_of(ms) for ms in inst.senders if ms}
    senders = [s for s in owned if not any(s != o and s & o == s for o in owned)]

    levels = [{(): frozenset(allowed)}]
    while levels[-1]:
        grown: dict[tuple[int, ...], frozenset[int]] = {}
        for basis, ext in levels[-1].items():
            for v in ext:
                if _reduce(basis, v) != v:
                    continue
                key = _extend(basis, v)
                if key not in grown:
                    grown[key] = frozenset(w for w in ext if w ^ v in ext)
        levels.append(grown)
    k = carried.bit_count()
    for d in range(len(levels) - 2, 0, -1):
        feasible = [basis for basis in levels[d]
                    if _sender_feasible(basis, senders, k - d)]
        if feasible:
            return k - d, feasible
    return k, [()]


def min_linear_length(inst: ProblemInstance) -> int:
    """The minimum length of a sender-feasible linear code that every
    receiver decodes, computed in the dual space.  No bound is used.

    K is the set of carried messages, C the row space of a code inside
    V_K, and D = C^⊥ its annihilator there; dim C = |K| - dim D.

    Decoding.  A receiver r wanting t decodes when e_t ∈ C + ⟨e_r⟩ if r
    is carried, or e_t ∈ C if not.  As (C + ⟨e_r⟩)^⊥ = D ∩ e_r^⊥, this
    holds exactly when every y ∈ D with y_t = 1 has y_r = 1; for r
    outside K no vector of V_K has y_r = 1, so then y_t = 0.  So C
    decodes exactly when every nonzero y ∈ D is *allowed*: its support
    is a subset of K closed under "t in it and r wants t ⇒ r in it".

    Feasibility.  C is the row space of rows inside single senders'
    sets exactly when C = Σ_s (C ∩ V_{S_s}), one null space and one rank
    step per sender (`_sender_feasible`); a sender set inside another
    adds nothing.  Feasibility is not monotone in D, so it is tested on
    each allowed subspace in turn, never inferred from a larger one.

    Search.  The allowed vectors are the submasks of K that pass the
    closure test, at most 256 under the size guard.  A subspace is keyed
    by its reduced echelon basis and carries ``ext``, the vectors w
    whose whole coset w + D is allowed; it grows by the members of
    ``ext`` that its basis leaves unchanged (one per coset), and
    ext(D + ⟨v⟩) = {w ∈ ext(D) : w ^ v ∈ ext(D)}.  The levels are built
    by dimension, then tested from the top: the optimum is |K| minus the
    largest dimension with a feasible subspace.  D = 0 is feasible, as
    every message of K is owned by some sender, so the answer is at
    most |K|.

    The instance is searched as given.  Simplifying it first leaves the
    optimum unchanged: deleting the coordinates of messages nobody wants
    from every row keeps each row inside its sender's set, and a
    receiver that used such a message as its prior decodes without it.
    """
    return _optimal_duals(inst)[0]


def oracle_min_linear(inst: ProblemInstance) -> tuple[int, LinearIndexCode]:
    """Minimum-length linear code: the length and the lexicographically
    smallest witness over the candidate rows, both from the dual search
    of `min_linear_length`.

    Candidate rows are all distinct nonzero sender-feasible vectors in
    mask order (`_candidate_rows`).  A code is read as the tuple of its
    row indices.  For every feasible allowed D of the optimal dimension,
    the witness of C = D^⊥ is its greedy basis: each candidate in C (even
    parity with every row of D's basis) that is independent of the rows
    taken so far.  The oracle returns the smallest of these index tuples.

    This is the lexicographically smallest decoding code of the optimal
    length L.  Its rows are independent, or fewer rows would decode, so
    they are a basis of their span C, and C^⊥ is one of the feasible D:
    every such code is a basis of exactly one feasible C.  Conversely a
    feasible C is spanned by candidates, and every basis of it decodes.
    The candidates in one C form a matroid, whose greedy basis in index
    order is its lexicographically smallest basis (Gale).  So the
    minimum over all feasible D is the smallest code of length L, and it
    does not depend on the order in which the D are visited.
    """
    length, duals = _optimal_duals(inst)
    candidates = _candidate_rows(inst)

    def greedy(dual: tuple[int, ...]) -> tuple[int, ...]:
        chosen: list[int] = []
        basis: tuple[int, ...] = ()
        for idx, row in enumerate(candidates):
            if any((row.coeffs & y).bit_count() & 1 for y in dual):
                continue
            r = _reduce(basis, row.coeffs)
            if r:
                basis = _extend(basis, r)
                chosen.append(idx)
                if len(chosen) == length:
                    break
        return tuple(chosen)

    hit = min(greedy(dual) for dual in duals)
    return length, LinearIndexCode(inst.num_messages,
                                   tuple(candidates[k] for k in hit))


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


__all__ = [
    "GuardError", "CertEntry", "DecodeCertificate", "DecodeFailure",
    "rank_decodable", "verify_exhaustive", "min_linear_length",
    "oracle_min_linear",
    "ClosureViolation", "ClosureReport", "check_decode_closure",
    "EXHAUSTIVE_LIMIT", "ORACLE_LIMIT",
]

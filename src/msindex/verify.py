"""Decodability certification and the brute-force minimum-codelength oracle.

GF(2) vectors are packed into ints: bit (i-1) stands for message i.
The oracle is exact for linear codes only; nonlinear codes can in
principle do better in other index-coding settings, so its result is an
upper bound on the true optimum that becomes a certificate exactly when
it meets the structural lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import graphs
from .code import CodeRow, LinearIndexCode
from .model import (InstanceError, ProblemInstance, bits, build_graphs,
                    mask_of, simplify)

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


@dataclass(frozen=True)
class DecodeCertificate:
    entries: tuple[CertEntry, ...]

    def entry(self, receiver: int, wanted: int) -> CertEntry:
        for e in self.entries:
            if e.receiver == receiver and e.wanted == wanted:
                return e
        raise KeyError((receiver, wanted))


@dataclass(frozen=True)
class DecodeFailure:
    receiver: int
    wanted: int


def _validate_supports(code: LinearIndexCode, inst: ProblemInstance) -> None:
    for k, row in enumerate(code.rows):
        if not (1 <= row.sender <= inst.num_senders):
            raise InstanceError(f"rows[{k}]", f"unknown sender {row.sender}")
        if not row.support() <= inst.senders[row.sender - 1]:
            raise InstanceError(
                f"rows[{k}]", f"support {sorted(row.support())} not owned by "
                f"sender {row.sender}")


def _requirements(inst: ProblemInstance
                  ) -> list[tuple[int, int | None, list[int]]]:
    """Per receiver with nonempty wants: (receiver, prior mask or None,
    wanted masks in increasing order)."""
    carried = inst.carried
    reqs = []
    for r in range(1, inst.num_messages + 1):
        wants = sorted(inst.wants[r - 1])
        if not wants:
            continue
        prior = mask_of((r,)) if r in carried else None
        reqs.append((r, prior, [mask_of((j,)) for j in wants]))
    return reqs


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


def _decode(row_of: dict[int, int], prior: int | None,
            target: int) -> tuple[int, ...]:
    """``red(target)``, and ``red(target ^ prior)`` for a receiver with a
    prior, modulo a reduced echelon basis given as pivot -> row: the
    receiver decodes ``target`` by the rows alone, or with its prior, when
    that reduction has no message bits.  A unit vector reduces by at most
    the row it is the pivot of, and reduction is linear."""
    t = target ^ row_of.get(target, 0)
    if prior is None:
        return (t,)
    return t, t ^ prior ^ row_of.get(prior, 0)


def _row_basis(rows: tuple[CodeRow, ...], m: int) -> tuple[dict[int, int], int]:
    """The code rows' reduced echelon basis as pivot -> row, and the offset
    of the row tags: row k carries tag bit ``offset + k``, above every
    message bit, so the tag bits of a reduction name the rows a decoder
    XORs.  A row whose message bits reduce to 0 depends on earlier rows and
    is left out, so the basis holds the first independent subset of the
    rows, over which the rows that give a vector are unique."""
    offset = max([m] + [row.coeffs.bit_length() for row in rows])
    messages = (1 << offset) - 1
    basis: tuple[int, ...] = ()
    for k, row in enumerate(rows):
        r = _reduce(basis, row.coeffs | 1 << (offset + k))
        if r & messages:
            basis = _extend(basis, r)
    return {b & -b: b for b in basis}, offset


def rank_decodable(code: LinearIndexCode, inst: ProblemInstance
                   ) -> DecodeCertificate | DecodeFailure:
    """Check that every receiver can reconstruct its wanted messages.

    Receiver r may combine the code rows with its prior e_r (when its own
    message exists); success means each wanted unit vector lies in that
    span.  Returns certificates, or the first failing (receiver, wanted)
    pair in index order.
    """
    _validate_supports(code, inst)
    row_of, offset = _row_basis(code.rows, inst.num_messages)
    messages = (1 << offset) - 1
    entries = []
    for r, prior, wanted in _requirements(inst):
        for target in wanted:
            for uses_prior, red in enumerate(_decode(row_of, prior, target)):
                if not red & messages:
                    rows_used = tuple(k - 1 for k in bits(red >> offset))
                    entries.append(CertEntry(r, target.bit_length(), rows_used,
                                             bool(uses_prior)))
                    break
            else:
                return DecodeFailure(receiver=r, wanted=target.bit_length())
    return DecodeCertificate(tuple(entries))


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


def _open_options(basis: tuple[int, ...],
                  wants: list[tuple[int | None, int]]
                  ) -> list[tuple[int, ...]]:
    """The options of every requirement ``span(basis)`` does not serve
    yet, modulo the span: single-option requirements first, then
    two-option ones, each group in the order of ``wants``.

    A requirement is a (prior mask or None, wanted unit vector t).  Its
    options are ``red(t)``, and ``red(t) ^ red(prior)`` when the prior is
    not yet in the span; the span plus new rows X serves it exactly when
    one option lies in ``span(X)`` modulo the span.  A unit vector reduces
    by at most the row it is the pivot of, so each option is one lookup.
    """
    pivot_row = {b & -b: b for b in basis}.get
    single: list[tuple[int, ...]] = []
    double: list[tuple[int, ...]] = []
    for prior, t in wants:
        t ^= pivot_row(t, 0)
        if not t:
            continue
        p = 0 if prior is None else prior ^ pivot_row(prior, 0)
        if not p:
            single.append((t,))
        elif p != t:
            double.append((t, t ^ p))
    return single + double


def _needs_more_than(options: list[tuple[int, ...]], k: int) -> bool:
    """Whether serving every requirement with ``options`` (as given by
    `_open_options`) takes more than ``k`` new rows.  No bound is used.

    The walk keeps a second basis W of options.  A requirement counts when
    every one of its options is nonzero modulo the span plus W, and its
    options then join W.  Counted requirement j is served by some c_j in
    ``span(X)`` modulo the span, one of its options, and c_j lies outside
    the span of the earlier counted c_i, which are in W.  So the c_j are
    independent modulo the span, and X has at least as many rows as
    requirements counted.  The options are reduced modulo the span
    already, so reducing them modulo W alone suffices.  W only grows, and
    each row joins it reduced by the rows before it, so one pass over W
    in insertion order reduces a vector fully.
    """
    if len(options) <= k:
        return False
    w: list[int] = []
    counted = 0
    for opts in options:
        reds = []
        for o in opts:
            o = _reduce(w, o)
            if not o:
                break
            reds.append(o)
        else:
            counted += 1
            if counted > k:
                return True
            for o in reds:
                o = _reduce(w, o)
                if o:
                    w.append(o)
    return False


def _search_at_length(masks: list[int], length: int,
                      reqs: list[tuple[int, int | None, list[int]]]
                      ) -> tuple[int, ...] | None:
    """First (lexicographically by index) length-subset that decodes.

    Decodability depends only on the span of the chosen rows, and when
    lengths are scanned in increasing order any minimal decodable subset
    is linearly independent, so the search may skip dependent extensions
    and prune spans whose completions already failed at this length
    without changing which subset is found first.  A span is keyed by
    its reduced echelon basis.

    Every node lists the options of its open requirements
    (`_open_options`).  With no rows left the span decodes when the list
    is empty.  The last row is not searched: it is the first candidate
    whose reduction is an option of every open requirement.  With k >= 2
    rows left, a node whose requirements need more than k independent
    new rows (`_needs_more_than`) is cut.  The cut trusts no bound: a cut
    node has no completion at all, so the first witness and the memo of
    failed spans are exact.  It counts across receivers, which a
    per-receiver rank test cannot do where every receiver wants one
    message.  On the m = 8 single-sender instance where every receiver
    wants every other message, the root of each length 2-6 is cut at
    once: the scan takes 2 ms there, and about 46 s without the cut (one
    core of a 2-vCPU x86-64 VM, Python 3.11).
    """
    wants = [(prior, t) for _, prior, wanted in reqs for t in wanted]
    failed: set[tuple[int, ...]] = set()

    def dfs(start: int, chosen: tuple[int, ...],
            basis: tuple[int, ...]) -> tuple[int, ...] | None:
        remaining = length - len(chosen)
        options = _open_options(basis, wants)
        if remaining == 0:
            return None if options else chosen
        if remaining == 1:
            allowed = set(options[0]) if options else None
            for opts in options[1:]:
                allowed.intersection_update(opts)
                if not allowed:
                    return None
            for idx in range(start, len(masks)):
                r = _reduce(basis, masks[idx])
                if r and (allowed is None or r in allowed):
                    return chosen + (idx,)
            return None
        if _needs_more_than(options, remaining):
            return None
        tried = {0}  # reductions seen here; each one's span already failed
        for idx in range(start, len(masks) - remaining + 1):
            r = _reduce(basis, masks[idx])
            if r in tried:
                continue
            tried.add(r)
            grown = _extend(basis, r)
            if grown in failed:
                continue
            hit = dfs(idx + 1, chosen + (idx,), grown)
            if hit is not None:
                return hit
            failed.add(grown)
        return None

    return dfs(0, (), ())


def oracle_min_linear(inst: ProblemInstance, max_len: int | None = None
                      ) -> tuple[int, LinearIndexCode] | None:
    """Minimum-length linear code by exhaustive subset search.

    Candidate rows are all distinct nonzero sender-feasible vectors;
    duplicate rows can never help a span, so codes are searched as sets,
    shortest first, returning the lexicographically smallest witness.
    Returns None when ``max_len`` is exhausted without success.
    """
    if inst.num_messages > ORACLE_LIMIT:
        raise GuardError(
            f"m={inst.num_messages} exceeds oracle limit {ORACLE_LIMIT}")
    candidates = _candidate_rows(inst)
    masks = [row.coeffs for row in candidates]
    reqs = _requirements(inst)
    cap = len(inst.carried) if max_len is None else max_len
    for length in range(min(cap, len(masks)) + 1):
        hit = _search_at_length(masks, length, reqs)
        if hit is not None:
            rows = tuple(candidates[k] for k in hit)
            return length, LinearIndexCode(inst.num_messages, rows)
    return None


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
    row_of, offset = _row_basis(code.rows, simple.num_messages)
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
        if _decode(row_of, None, mask_of((j,)))[0] & messages:
            violations.append(ClosureViolation(rule, None, j))

    carried = simple.carried
    for r in range(1, g.n + 1):
        prior = mask_of((r,)) if r in carried else None
        for j in sorted(graphs.predecessors(g, r) & carried):
            if all(red & messages
                   for red in _decode(row_of, prior, mask_of((j,)))):
                violations.append(ClosureViolation("predecessor", r, j))
    return ClosureReport(tuple(violations))


__all__ = [
    "GuardError", "CertEntry", "DecodeCertificate", "DecodeFailure",
    "rank_decodable", "verify_exhaustive", "oracle_min_linear",
    "ClosureViolation", "ClosureReport", "check_decode_closure",
    "EXHAUSTIVE_LIMIT", "ORACLE_LIMIT",
]

"""Decodability certification and the brute-force minimum-codelength oracle.

GF(2) vectors are packed into ints: bit (i-1) stands for message i.
The oracle is exact for linear codes only; nonlinear codes can in
principle do better in other index-coding settings, so its result is an
upper bound on the true optimum that becomes a certificate exactly when
it meets the structural lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator

from .code import CodeRow, LinearIndexCode
from .model import InstanceError, ProblemInstance, bits

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
    owned = inst.sender_masks
    for k, row in enumerate(code.rows):
        if not (1 <= row.sender <= inst.num_senders):
            raise InstanceError(f"rows[{k}]", f"unknown sender {row.sender}")
        if row.coeffs & ~owned[row.sender - 1]:
            raise InstanceError(
                f"rows[{k}]", f"support {sorted(row.support())} not owned by "
                f"sender {row.sender}")


def _insert(basis: dict[int, int], x: int, width: int = -1) -> bool:
    """Add ``x`` to the echelon ``basis``, a dict from each row's pivot
    (the position ``bit_length`` of its lowest set bit) to the row, and
    return whether it was stored.  While the vector's lowest bit is a
    pivot, it XORs in that row, which changes only higher bits; it is
    stored at the first lowest bit that is no pivot, unless it reached 0
    or that bit lies past ``width`` (if ``width`` >= 0): then x lies in
    the span on the bits up to ``width``.  Every echelon basis of a span
    has the same pivots, the lowest bits of its nonzero vectors.

    A stored x then replaces the row of the first pivot it met, which is
    x XOR the later rows met XOR the new row, so pivots and span stay;
    the XORs (1, j) of a star then take two steps each, not one per
    earlier row."""
    first = 0
    y = x
    while y:
        low = (y & -y).bit_length()
        row = basis.get(low)
        if row is None:
            if 0 <= width < low:
                return False
            basis[low] = y
            if first:
                basis[first] = x
            return True
        first = first or low
        y ^= row
    return False


def _unit_reductions(rows: tuple[CodeRow, ...], m: int) -> tuple[list[int], int]:
    """``red(e_j)`` for every message j (index 0 unused), the coset
    representative of e_j with no pivot bit modulo the span of the code
    rows, and the offset of the row tags.

    Row k carries tag bit ``offset + k``, above every message bit, so the
    tag bits of a reduction name the rows a decoder XORs.  A row whose
    message bits reduce to 0 depends on earlier rows and is left out, so
    the basis spans the first independent subset of the rows, over which
    the rows that give a vector are unique.  The representative with no
    pivot bit is unique, so ``red`` does not depend on the basis chosen:
    from j = offset down, ``red(e_j)`` is e_j when j is no pivot, else the
    tag bits of the row of pivot j XOR the ``red`` of its other message
    bits, all of them higher.  Receiver r decodes message j by the rows
    alone when ``red(e_j)`` has no message bits, and with its prior e_r
    when ``red(e_j) ^ red(e_r)`` has none; reduction is linear."""
    offset = max([m] + [row.coeffs.bit_length() for row in rows])
    basis: dict[int, int] = {}
    for k, row in enumerate(rows):
        _insert(basis, row.coeffs | 1 << (offset + k), offset)
    messages = (1 << offset) - 1
    tags = ~messages
    red = [0] * (offset + 1)
    for j in range(offset, 0, -1):
        row = basis.get(j)
        if row is None:
            red[j] = 1 << (j - 1)
            continue
        rest = row & (row - 1)
        t = rest & tags
        for i in bits(rest & messages):
            t ^= red[i]
        red[j] = t
    return red[:m + 1], offset


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
    carried = inst.carried_mask
    for r, wanted in enumerate(inst.want_masks, start=1):
        missed = wanted & ~alone
        if missed and carried >> (r - 1) & 1:
            missed &= ~group[red[r] & messages]
        if missed:
            return DecodeFailure(receiver=r, wanted=(missed & -missed).bit_length())
    return DecodeCertificate(_certificate_entries(inst, red, offset))


def _submasks(mask: int) -> int:
    """The bitset of the submasks of ``mask``: bit y is set for each
    y ⊆ mask.  It is built by doubling: each bit b of the mask adds the
    copy shifted by b, the submasks that hold b."""
    out = 1
    while mask:
        low = mask & -mask
        out |= out << low
        mask ^= low
    return out


def _allowed_set(inst: ProblemInstance) -> int:
    """The bitset of the allowed vectors (`min_linear_length`), the
    nonzero y ⊆ K closed under "t in y and r wants t ⇒ r in y".  For
    each t of K, y lacks t or holds N_t = {t} ∪ wanters(t): the
    submasks of K ∖ N_t shifted by N_t, which fall outside the submasks
    of K, where the AND starts, unless N_t ⊆ K."""
    carried = inst.carried_mask
    wanters = [0] * (inst.num_messages + 1)
    for r, wanted in enumerate(inst.want_masks):
        for t in bits(wanted):
            wanters[t] |= 1 << r
    allowed = _submasks(carried)
    for t in bits(carried):
        closed = 1 << (t - 1) | wanters[t]
        allowed &= (_submasks(carried & ~(1 << (t - 1)))
                    | _submasks(carried & ~closed) << closed)
    return allowed & ~1


class _Packing:
    """The state of a subspace D of the dual search as one int: bitsets
    over the 2^m vectors (bit y stands for vector y), packed as segments
    of ``width`` = 2^m bits.  Segment 0 holds ext(D), and segment j the
    lift L_S = D + V_{K∖S} = {y ⊆ K : y & S ∈ D & S} of the j-th sender
    set S.

    Growing D by v translates the whole int by v, one swap of the bits y
    and y ^ b for each bit b of v: ``((x >> b) & keep[b]) | ((x & keep[b])
    << b)``, where ``keep[b]`` marks the y ⊆ K without b in every
    segment, and ``no_lower[b]`` marks the y ⊆ K with no bit below b
    in segment 0.  A lift L grows to L + ⟨v⟩ = L ∪ (L ^ v), and ext to
    ext ∩ (ext ^ v)."""

    def __init__(self, m: int, carried: int, senders: list[int]):
        self.width = 1 << m
        self.ext = (1 << self.width) - 1
        self.space = _submasks(carried)
        self.lifts = len(senders)
        rep = ((1 << self.width * (1 + self.lifts)) - 1) // self.ext
        self.keep, self.no_lower = {}, {}
        for i in bits(carried):
            b = 1 << (i - 1)
            self.keep[b] = _submasks(carried & ~b) * rep
            self.no_lower[b] = _submasks(carried & -b)
        self.root = 0
        for j, owned in enumerate(senders, start=1):
            self.root |= _submasks(carried & ~owned) << j * self.width

    def translate(self, x: int, v: int) -> int:
        """The packed int ``x`` with each vector y moved to y ^ v, v ⊆ K."""
        while v:
            b = v & -v
            v ^= b
            keep = self.keep[b]
            x = ((x >> b) & keep) | ((x & keep) << b)
        return x

    def grow(self, x: int, v: int) -> int:
        """The packed int of D + ⟨v⟩, from the packed int ``x`` of D."""
        t = self.translate(x, v)
        return (x | t) ^ ((x ^ t) & self.ext)

    def feasible(self, x: int, dim: int) -> bool:
        """Whether C = D^⊥ is the sum of its parts inside the sender sets,
        for the D of dimension ``dim`` packed in ``x``: whether the lifts
        meet in D.  They all contain D, so that holds exactly when their
        intersection has 2^dim vectors."""
        meet = self.space
        for _ in range(self.lifts):
            x >>= self.width
            meet &= x
        return meet.bit_count() == 1 << dim

    def levels(self, allowed: int) -> list[dict[tuple[int, ...], int]]:
        """Every subspace whose nonzero vectors all lie in the bitset
        ``allowed``, by dimension: its reduced echelon basis mapped to its
        packed int.  Each subspace is built once, from its one parent, the
        span of its rows other than the lowest-pivot row ``basis[0]``: a
        basis grows only by a reduced v whose pivot lies below
        ``basis[0]``'s, which puts v first and changes no other row.  So
        the children are the members of ext with no pivot bit (``keep``)
        and a bit below ``basis[0]``'s pivot (outside ``no_lower``)."""
        levels = [{(): allowed | self.root}]
        while levels[-1]:
            grown: dict[tuple[int, ...], int] = {}
            for basis, x in levels[-1].items():
                children = x & self.ext
                if basis:
                    children &= ~self.no_lower[basis[0] & -basis[0]]
                for b in basis:
                    children &= self.keep[b & -b]
                while children:
                    low = children & -children
                    children ^= low
                    v = low.bit_length() - 1
                    grown[(v,) + basis] = self.grow(x, v)
            levels.append(grown)
        return levels


def _optimal_duals(inst: ProblemInstance) -> tuple[int, list[tuple[int, ...]], _Packing]:
    """The minimum linear length, the reduced echelon bases of every
    feasible allowed D at that length, and their packing: the one search
    behind `min_linear_length` and `oracle_min_linear`."""
    if inst.num_messages > ORACLE_LIMIT:
        raise GuardError(
            f"m={inst.num_messages} exceeds oracle limit {ORACLE_LIMIT}")
    owned = set(inst.sender_masks) - {0}
    senders = [s for s in owned if not any(s != o and s & o == s for o in owned)]
    packing = _Packing(inst.num_messages, inst.carried_mask, senders)
    levels = packing.levels(_allowed_set(inst))
    k = inst.carried_mask.bit_count()
    for d in range(len(levels) - 2, 0, -1):
        feasible = [basis for basis, x in levels[d].items()
                    if packing.feasible(x, d)]
        if feasible:
            return k - d, feasible, packing
    return k, [()], packing


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
    sets exactly when C = Σ_S (C ∩ V_S) over the sender sets S; a set
    inside another adds nothing.  The sum lies in C, and its annihilator
    is ∩_S (D + V_{K∖S}), so C is feasible exactly when D equals the
    intersection of its lifts L_S = D + V_{K∖S}, the y ⊆ K with
    y & S ∈ D & S.  Feasibility is not monotone in D, so it is tested on
    each allowed subspace in turn, never inferred from a larger one.

    Search.  Every set of vectors is a bitset over the 2^m vectors, at
    most 256 bits under the size guard (`_Packing`).  The allowed set is
    built by AND over the messages of K (`_allowed_set`).  A subspace is
    keyed by its reduced echelon basis and carries one int, whose
    segments are ``ext``, the vectors w whose whole coset w + D is
    allowed, and each lift L_S.  It grows by the members of ``ext`` that
    its basis leaves unchanged (one per coset); D + ⟨v⟩ costs one
    translation T of that int by v, with ext(D + ⟨v⟩) = ext ∩ T(ext) and
    each lift L ∪ T(L).  The levels are built by dimension, then tested
    from the top: the optimum is |K| minus the largest dimension with a
    feasible subspace.  D = 0 is feasible, as every message of K is owned
    by some sender, so the answer is at most |K|.

    The instance is searched as given.  Simplifying it first leaves the
    optimum unchanged: deleting the coordinates of messages nobody wants
    from every row keeps each row inside its sender's set, and a
    receiver that used such a message as its prior decodes without it.
    """
    return _optimal_duals(inst)[0]


def oracle_min_linear(inst: ProblemInstance) -> tuple[int, LinearIndexCode]:
    """Minimum-length linear code: the length and the lexicographically
    smallest witness, both from the dual search of `min_linear_length`.

    The witness is read from the search's bitsets over the 2^m vectors.
    The feasible rows are the nonzero submasks of the sender sets.  The
    vectors of odd parity with a dual row y are the XOR, over the bits b
    of y, of the vectors holding b (``space & ~keep[b]``), so the rows in
    C = D^⊥ are the feasible rows outside the OR of these sets over D's
    basis.  The witness of C is its greedy basis: the smallest row of C
    outside the span of the rows taken, a bitset that each row grows by
    one translation.  The oracle returns the smallest of these bases,
    compared by row masks, and gives each row the smallest sender whose
    set holds it.

    This is the lexicographically smallest decoding code of the optimal
    length L.  Its rows are independent, or fewer rows would decode, so
    they are a basis of their span C, and C^⊥ is one of the feasible D:
    every such code is a basis of exactly one feasible C.  Conversely a
    feasible C is spanned by its feasible rows, and every basis of it
    decodes.  The feasible rows in one C form a matroid, whose greedy
    basis in mask order is its lexicographically smallest basis (Gale).
    So the minimum over all feasible D is the smallest code of length L,
    and it does not depend on the order in which the D are visited.
    """
    length, duals, packing = _optimal_duals(inst)
    feasible = reduce(or_, map(_submasks, inst.sender_masks), 0) & ~1

    def greedy(dual: tuple[int, ...]) -> tuple[int, ...]:
        odd = 0
        for y in dual:
            parity = 0
            for i in bits(y):
                parity ^= packing.space & ~packing.keep[1 << (i - 1)]
            odd |= parity
        free, span, rows = feasible & ~odd, 1, []
        while len(rows) < length:
            row = (free & -free).bit_length() - 1
            rows.append(row)
            span |= packing.translate(span, row)
            free &= ~span
        return tuple(rows)

    senders = list(enumerate(inst.sender_masks, start=1))
    return length, LinearIndexCode(inst.num_messages, tuple(
        CodeRow(next(s for s, owned in senders if not row & ~owned), row)
        for row in min(map(greedy, duals))))


__all__ = [
    "GuardError", "CertEntry", "DecodeCertificate", "DecodeFailure",
    "rank_decodable", "min_linear_length", "oracle_min_linear",
    "ORACLE_LIMIT",
]

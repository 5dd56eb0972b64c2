"""Seeded random instance generators for experiments and tests."""

from __future__ import annotations

import random

from .model import ProblemInstance

WANT_PROB = 0.35


def own_every_message(rng: random.Random, senders: list[set[int]], m: int
                      ) -> tuple[frozenset[int], ...]:
    """The sender sets, with each message 1..m that none owns given to a
    random sender, in message order."""
    covered = set().union(*senders)
    for msg in range(1, m + 1):
        if msg not in covered:
            senders[rng.randrange(len(senders))].add(msg)
    return tuple(frozenset(s) for s in senders)


def _coin_wants(rng: random.Random, m: int) -> tuple[frozenset[int], ...]:
    """Each receiver wants each other message with probability
    ``WANT_PROB``, independently."""
    return tuple(frozenset(j for j in range(1, m + 1)
                           if j != r and rng.random() < WANT_PROB)
                 for r in range(1, m + 1))


def random_instance(rng: random.Random, num_messages: int) -> ProblemInstance:
    """A random uniprior multicast instance with every message owned
    somewhere.  Wants are independent coin flips; sender sets are random
    nonempty subsets patched to cover all messages."""
    m = num_messages
    wants = _coin_wants(rng, m)
    senders = []
    for _ in range(rng.randint(1, m)):
        size = rng.randint(1, m)
        senders.append(set(rng.sample(range(1, m + 1), size)))
    return ProblemInstance(num_messages=m,
                           senders=own_every_message(rng, senders, m),
                           wants=wants)


def random_cycle_instance(rng: random.Random, num_messages: int,
                          sender_size: int = 2) -> ProblemInstance:
    """Wants drawn from a random permutation (every cycle becomes a leaf
    SCC), senders owning small random sets.  This is the regime where
    leaf-SCC classification actually varies."""
    m = num_messages
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    wants = [set() for _ in range(m)]
    for i, target in zip(range(1, m + 1), perm):
        if target != i:
            wants[target - 1].add(i)

    senders = []
    for _ in range(rng.randint(1, max(1, m))):
        size = min(m, rng.randint(1, max(1, sender_size)))
        senders.append(set(rng.sample(range(1, m + 1), size)))
    return ProblemInstance(num_messages=m,
                           senders=own_every_message(rng, senders, m),
                           wants=tuple(frozenset(w) for w in wants))


def random_partitioned_instance(rng: random.Random, num_messages: int
                                ) -> ProblemInstance:
    """Like random_instance, but sender sets partition the messages (no
    message is owned twice)."""
    m = num_messages
    wants = _coin_wants(rng, m)
    order = list(range(1, m + 1))
    rng.shuffle(order)
    n_senders = rng.randint(1, m)
    cuts = sorted(rng.sample(range(1, m), n_senders - 1)) if n_senders > 1 else []
    senders = []
    last = 0
    for cut in cuts + [m]:
        senders.append(frozenset(order[last:cut]))
        last = cut
    return ProblemInstance(num_messages=m, senders=tuple(senders),
                           wants=wants)


__all__ = ["own_every_message", "random_instance", "random_cycle_instance",
           "random_partitioned_instance"]

#!/usr/bin/env python3
"""Hunt for instances where the bounds disagree with the linear optimum.

Interesting finds are printed as instance JSON:
  lower-gap:  exhaustive lower bound < linear optimum
              (the grounding argument is not tight here)
  upper-gap:  linear optimum < pairwise-tree upper bound
              (pairwise XOR coding is suboptimal here)
"""

import argparse
import json
import random
import sys

from msindex import ProblemInstance, analyze
from msindex.cli import _int_at_least
from msindex.generate import (own_every_message, random_cycle_instance,
                              random_instance)
from msindex.verify import ORACLE_LIMIT


def random_pairing_instance(rng, m):
    """Wants from disjoint 2-cycles, senders owning random pairs/triples;
    the densest source of semi leaf SCCs."""
    m -= m % 2
    order = list(range(1, m + 1))
    rng.shuffle(order)
    wants = [set() for _ in range(m)]
    for a, b in zip(order[0::2], order[1::2]):
        wants[a - 1].add(b)
        wants[b - 1].add(a)
    senders = []
    for _ in range(rng.randint(2, m)):
        size = rng.randint(2, 3)
        senders.append(set(rng.sample(range(1, m + 1), size)))
    return ProblemInstance(num_messages=m,
                           senders=own_every_message(rng, senders, m),
                           wants=tuple(frozenset(w) for w in wants))


def random_family_instance(rng, m):
    """One draw of the traffic mix: 60 % pairing, 25 % cycle, 15 % plain."""
    roll = rng.random()
    if roll < 0.6:
        return random_pairing_instance(rng, m)
    if roll < 0.85:
        return random_cycle_instance(rng, m, sender_size=rng.randint(2, 3))
    return random_instance(rng, m)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=_int_at_least(1), default=2000)
    ap.add_argument("--max-m", type=_int_at_least(4), default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--stop-after", type=_int_at_least(1), default=5,
                    help="stop once this many gaps are printed")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    printed = past_guard = 0
    for k in range(args.count):
        inst = random_family_instance(rng, rng.randint(4, args.max_m))
        a = analyze(inst, exhaustive=True)
        lb, ub = a.lower_bound, a.upper_bound
        if lb == ub:
            continue
        if a.simple.num_messages > ORACLE_LIMIT:
            past_guard += 1
            continue
        # a.oracle checks lb <= opt <= ub, so with lb < ub one gap shows
        opt = a.oracle[0]
        kinds = [kind for kind, gap in (("lower-gap", lb < opt),
                                        ("upper-gap", opt < ub)) if gap]
        printed += 1
        print(f"# {'+'.join(kinds)}: lower={lb} linear-optimal={opt} upper={ub}")
        print(json.dumps(inst.to_document(), sort_keys=True))
        if printed >= args.stop_after:
            break
    tail = f", {past_guard} past the oracle guard (m > {ORACLE_LIMIT})"
    print(f"# scanned {k + 1} instances, printed {printed} gaps"
          f"{tail if past_guard else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

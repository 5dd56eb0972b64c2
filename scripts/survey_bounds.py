#!/usr/bin/env python3
"""Random survey: how often do the bounds pin the optimum?

Draws random instances, runs both grounding modes, the exact connecting
tree search, and (when feasible) the brute-force linear oracle, then
tabulates tightness statistics.
"""

import argparse
import random
import sys

from msindex import analyze, lower_bound_prune_all
from msindex.cli import _int_at_least
from msindex.generate import (random_cycle_instance, random_instance,
                              random_partitioned_instance)
from msindex.verify import ORACLE_LIMIT


def draw(rng, style, max_m):
    m = rng.randint(2, max_m)
    if style == "cycle":
        return random_cycle_instance(rng, m, sender_size=rng.randint(2, 3))
    if style == "partitioned":
        return random_partitioned_instance(rng, m)
    if style == "mixed":
        return draw(rng, rng.choice(["plain", "cycle", "partitioned"]), max_m)
    return random_instance(rng, m)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=_int_at_least(1), default=200)
    ap.add_argument("--max-m", type=_int_at_least(2), default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--style", default="mixed",
                    choices=["plain", "cycle", "partitioned", "mixed"])
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    stats = {"tight": 0, "gap": 0, "det_loose": 0, "prune_all_loose": 0,
             "oracle_at_lower": 0, "oracle_at_upper": 0, "oracle_between": 0}
    for k in range(args.count):
        a = analyze(draw(rng, args.style, args.max_m), exhaustive=True)
        exh, ub = a.lower_bound, a.upper_bound
        stats["det_loose"] += analyze(a.instance).lower_bound < exh
        stats["prune_all_loose"] += lower_bound_prune_all(a.graphs) < exh
        if exh == ub:
            stats["tight"] += 1
            continue
        stats["gap"] += 1
        if a.simple.num_messages <= ORACLE_LIMIT:
            opt = a.oracle[0]
            if opt == exh:
                stats["oracle_at_lower"] += 1
            elif opt == ub:
                stats["oracle_at_upper"] += 1
            else:
                stats["oracle_between"] += 1

    print(f"instances: {args.count} (style={args.style}, m<=2..{args.max_m})")
    print(f"bounds meet outright:        {stats['tight']}")
    print(f"bounds leave a gap:          {stats['gap']}")
    print(f"  linear optimum = lower:    {stats['oracle_at_lower']}")
    print(f"  linear optimum = upper:    {stats['oracle_at_upper']}")
    print(f"  linear optimum in between: {stats['oracle_between']}")
    print(f"deterministic < exhaustive:  {stats['det_loose']}")
    print(f"prune-all < exhaustive:      {stats['prune_all_loose']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

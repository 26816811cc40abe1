#!/usr/bin/env python3
"""Probe how long an evaluation set a field supports under the k-subset
condition, comparing search strategies.

For each n from 2k upward, try to find n points whose k-subsets all avoid
e_r = 0.  Greedy is backtrack-free (cheap, may stall early); random restarts
are seeded; exhaustive only runs while C(q, n) stays under its guard.  A
cell reads `none` only when the exhaustive search finds no set, which proves
that no n points pass; greedy and random print `gave up` when they find
none, which proves nothing.

Usage:
    python scripts/length_probe.py --field 13 --k 3
    python scripts/length_probe.py --field 2,4 --k 3 --r 1 --strategies greedy,random
"""

import argparse
import sys
import time

from mdsforge.conditions import (
    ConditionSpec,
    ExhaustiveSearch,
    GreedySearch,
    RandomSearch,
    search_eval_set,
)
from mdsforge.errors import MdsforgeError, TooLargeError
from mdsforge.field import make_field


def parse_field(text):
    try:
        parts = [int(t) for t in text.split(",")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 2:
        raise ValueError(f"--field wants 'p' or 'p,m', got {text!r}")
    return make_field(*parts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", required=True, help="p or p,m")
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--r", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-attempts", type=int, default=2000)
    ap.add_argument(
        "--strategies", default="greedy,random,exhaustive",
        help="comma-separated subset of greedy,random,exhaustive")
    args = ap.parse_args()

    makers = {
        "greedy": GreedySearch,
        "random": lambda: RandomSearch(seed=args.seed, max_attempts=args.max_attempts),
        "exhaustive": ExhaustiveSearch,
    }
    wanted = args.strategies.split(",")
    try:
        ctx = parse_field(args.field)
        ctx.elements()  # every strategy draws from the whole field
        spec = ConditionSpec(k=args.k, r=args.r)
        unknown = [name for name in wanted if name not in makers]
        if unknown:
            raise ValueError(f"unknown strategy {unknown[0]!r}; choose from {','.join(makers)}")
    except (MdsforgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    strategies = {name: make for name, make in makers.items() if name in wanted}

    print(f"field GF({ctx.p}^{ctx.m}) = GF({ctx.q}), k={args.k}, r={args.r}")
    print(f"{'n':>4} " + " ".join(f"{name:>12}" for name in strategies))

    reached = {name: None for name in strategies}
    alive = set(strategies)
    n = max(2 * args.k, args.k + 1)
    while alive and n <= ctx.q:
        cells = []
        for name in strategies:
            if name not in alive:
                cells.append(f"{'-':>12}")
                continue
            start = time.perf_counter()
            try:
                found = search_eval_set(ctx, n, spec, strategies[name]())
            except TooLargeError:
                cells.append(f"{'guard':>12}")
                alive.discard(name)
                continue
            elapsed = time.perf_counter() - start
            if found is None:
                cells.append(f"{'none' if name == 'exhaustive' else 'gave up':>12}")
                alive.discard(name)
            else:
                reached[name] = n
                cells.append(f"{elapsed:>11.3f}s")
        print(f"{n:>4} " + " ".join(cells))
        n += 1

    print()
    for name, best in reached.items():
        print(f"{name}: longest set found n = {best}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

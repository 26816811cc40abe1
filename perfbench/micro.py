"""Layer micro rows: field operations in ns per op, and the JSON round trip."""

from __future__ import annotations

import json
import random
import statistics
from time import perf_counter

#: (metric suffix, p, m): a prime field, GF(2^6), GF(3^3) and GF(73^3)
FIELDS = [("q101", 101, 1), ("q64", 2, 6), ("q27", 3, 3), ("q389017", 73, 3)]
OPS_PER_LOOP = 4000
REPEATS = 5


def field_ns(make_field, seed: int) -> dict:
    """Median ns per call of FieldContext.mul/add/inv over seeded operand
    pairs.  Each repeat builds a fresh context, so cache warm-up is included."""
    rng = random.Random(f"field-micro:{seed}")
    out = {}
    for suffix, p, m in FIELDS:
        q = p**m
        pairs = [(rng.randrange(q), rng.randrange(1, q)) for _ in range(OPS_PER_LOOP)]
        for op in ("mul", "add", "inv"):
            samples = []
            for _ in range(REPEATS):
                ctx = make_field(p, m)
                operands = [(ctx.from_int(a), ctx.from_int(b)) for a, b in pairs]
                fn = getattr(ctx, op)
                start = perf_counter()
                if op == "inv":
                    for _, b in operands:
                        fn(b)
                else:
                    for a, b in operands:
                        fn(a, b)
                samples.append((perf_counter() - start) / OPS_PER_LOOP * 1e9)
            out[f"field.{op}_ns.{suffix}"] = statistics.median(samples)
    return out


def jsonio_roundtrip_us(jsonio, docs: list[dict]) -> tuple[float, list[str]]:
    """Median µs per code of code_to_obj -> canonical_dumps -> code_from_obj
    over the workload's input codes, and a problem if a code did not survive."""
    codes = [jsonio.code_from_obj(doc)[0] for doc in docs]
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        back = [jsonio.code_from_obj(json.loads(jsonio.canonical_dumps(jsonio.code_to_obj(c))))[0]
                for c in codes]
        samples.append((perf_counter() - start) / len(codes) * 1e6)
    problems = [] if back == codes else ["jsonio round trip changed a code"]
    return statistics.median(samples), problems

#!/usr/bin/env python3
"""Certify a standard batch of family instances and print a summary table.

Usage:
    python scripts/certify_families.py [--min-distance]

With --min-distance, d is counted for every code with at most as many
codewords as the codeword guard allows (2^22, or MDSFORGE_GUARD when set)
and shown as '-' for the others.  MDSFORGE_GUARD also replaces the subset
guard; a row that a guard refuses prints the refusal on its line.
"""

import argparse
import sys
import time

from mdsforge.certify import CODEWORD_GUARD, non_rs_certificate
from mdsforge.conditions import guard_in_force
from mdsforge.errors import FormatError, TooLargeError
from mdsforge.families import cor44, cor62, cor411, lift_parity_columns, thm412, thm415, thm63, thm64
from mdsforge.families import extended_hamming_parity

BATCH = [
    ("cor44(13,3,6)", lambda: cor44(13, 3, 6)),
    ("cor44(29,3,11)", lambda: cor44(29, 3, 11)),
    ("cor62(163,3,2,6)", lambda: cor62(163, 3, 2, 6)),
    ("cor62(1009,4,2,11)", lambda: cor62(1009, 4, 2, 11)),
    ("thm412(3,3,4,9)", lambda: thm412(3, 3, 4, 9)),
    ("thm412(5,3,4,10)", lambda: thm412(5, 3, 4, 10)),
    ("thm415(7,2,3,14)", lambda: thm415(7, 2, 3, 14)),
    ("thm415(11,2,3,34)", lambda: thm415(11, 2, 3, 34)),
    ("thm63(7,3,3,2,6)", lambda: thm63(7, 3, 3, 2, 6)),
    ("thm64(73,3,3,2,10)", lambda: thm64(73, 3, 3, 2, 10)),
    ("lift(H(3,2),3)", lambda: lift_parity_columns(extended_hamming_parity(3, 2), 3)),
    ("cor411(4,5)", lambda: cor411(4, 5)),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-distance", action="store_true", help="also brute-force d")
    args = ap.parse_args()
    try:
        codeword_guard = guard_in_force(CODEWORD_GUARD)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = f"{'instance':<22} {'[n,k]_q':<14} {'mds':<5} {'schur':<6} {'verdict':<14}"
    if args.min_distance:
        header += f" {'d':<4}"
    header += f" {'secs':>7}"
    print(header)
    print("-" * len(header))

    for label, build in BATCH:
        start = time.perf_counter()
        try:
            code = build()
        except Exception as exc:
            print(f"{label:<22} construction failed: {type(exc).__name__}: {exc}")
            continue
        walk = args.min_distance and code.ctx.q**code.k <= codeword_guard
        try:
            cert = non_rs_certificate(code, with_min_distance=walk)
        except TooLargeError as exc:
            print(f"{label:<22} certificate refused: {exc}")
            continue
        elapsed = time.perf_counter() - start
        shape = f"[{cert.n},{cert.k}]_{code.ctx.q}"
        line = f"{label:<22} {shape:<14} {str(cert.is_mds):<5} {cert.schur_dim:<6} {cert.verdict:<14}"
        if args.min_distance:
            line += f" {cert.min_distance if cert.min_distance is not None else '-':<4}"
        line += f" {elapsed:>7.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

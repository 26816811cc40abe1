"""Workload call lists, the seeded input generator and the answer checker.

A workload is a fixed list of ``mdsforge`` CLI calls, each with the exit code
and the parsed stdout fields it must produce.  :func:`build` writes the
workload's input files and returns its calls.  Expected answers come from
facts that do not depend on the program (family theorems, d = n - k + 1 for
MDS codes, Reed-Solomon codes are MDS with Schur dimension 2k - 1) or from
the small oracles below, which use their own modular and XOR arithmetic
rather than ``mdsforge.field``.  Where neither exists (the Schur dimension
of the fixed family instances, and the exhaustive searches that prove a
length impossible) the value is pinned from the seed commit.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field, replace
from math import comb, prod
from typing import Callable, Optional, Sequence

WORKLOADS = ("certify-batch", "certify-general", "min-distance", "search-check")

#: Which per-layer time each workload is predicted to spend most of a pass in.
DOMINANT = {
    "certify-batch": "certify.mds_scan_s",
    "certify-general": "certify.mds_scan_s",
    "min-distance": "certify.min_distance_s",
    "search-check": "conditions.check_esym_s",
}


@dataclass
class Call:
    """One CLI call and the answer it must give."""

    label: str
    argv: list[str]
    exit_code: int
    fields: dict
    #: index of an earlier call whose stdout this one must equal byte for byte
    same_as: Optional[int] = None
    #: extra independent check on the parsed stdout; returns problems found
    validate: Optional[Callable[[dict], list[str]]] = None
    #: part of the reduced call list the self-tests run
    quick: bool = True


@dataclass
class Workload:
    name: str
    calls: list[Call]
    #: JSON documents of the workload's input codes (for the jsonio round trip)
    codes: list[dict] = field(default_factory=list)

    def reduced(self) -> "Workload":
        """The quick calls only; --jobs 2 twins keep pointing at their twin."""
        keep = [i for i, c in enumerate(self.calls) if c.quick]
        new_index = {old: new for new, old in enumerate(keep)}
        calls = [replace(self.calls[i], same_as=new_index.get(self.calls[i].same_as))
                 for i in keep]
        return Workload(self.name, calls, self.codes)


# ---------------------------------------------------------------------------
# Independent oracles (prime fields by integer arithmetic mod p, and r = 1
# over GF(2^m) by XOR of the digit bits).


def digits(v: int, p: int, m: int) -> list[int]:
    """Little-endian base-p digits of the counter value v."""
    out = []
    for _ in range(m):
        out.append(v % p)
        v //= p
    return out


def lex_rank(subset: Sequence[int], n: int) -> int:
    """Number of k-subsets of range(n) that come before `subset` in lex order."""
    k = len(subset)
    rank, prev = 0, -1
    for i, c in enumerate(subset):
        for skipped in range(prev + 1, c):
            rank += comb(n - 1 - skipped, k - 1 - i)
        prev = c
    return rank


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] % p), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        for i in range(rank + 1, len(work)):
            f = work[i][c] * inv % p
            if f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def _monomial_rows(points: Sequence[int], exps: Sequence[int], p: int) -> list[list[int]]:
    # Python's pow(0, 0) is 1, the evaluation-code convention.
    return [[pow(t, e, p) for t in points] for e in exps]


def first_dependent_subset(points, exps, p, limit):
    """Lex-first k-subset of points whose generalized Vandermonde minor is
    singular mod p, or None if none is among the first `limit` subsets."""
    k = len(exps)
    for subset in itertools.islice(itertools.combinations(range(len(points)), k), limit):
        rows = _monomial_rows([points[i] for i in subset], exps, p)
        if _rank_mod_p(rows, p) < k:
            return list(subset)
    return None


def schur_dim_mod_p(points, exps, p) -> int:
    """Rank of the evaluated exponent sumset: the Schur-square dimension."""
    sums = sorted({a + b for a in exps for b in exps})
    return _rank_mod_p(_monomial_rows(points, sums, p), p)


def esym_mod_p(values: Sequence[int], r: int, p: int) -> int:
    return sum(prod(c) for c in itertools.combinations(values, r)) % p


def esym_violation(values: Sequence[int], k: int, r: int, field_spec: tuple[int, int]):
    """Lex-first k-subset (indices) whose e_r is zero, else None.

    Prime fields use integers mod p; GF(2^m) supports r = 1 only, where e_1
    is the XOR of the counter values.
    """
    p, m = field_spec
    for subset in itertools.combinations(range(len(values)), k):
        chosen = [values[i] for i in subset]
        if m == 1:
            zero = esym_mod_p(chosen, r, p) == 0
        elif p == 2 and r == 1:
            acc = 0
            for v in chosen:
                acc ^= v
            zero = acc == 0
        else:
            raise ValueError("oracle covers prime fields, and r = 1 over GF(2^m)")
        if zero:
            return list(subset)
    return None


# ---------------------------------------------------------------------------
# Answer checking


def check_answer(call: Call, rc, stdout: str) -> list[str]:
    """Problems with one call's result; an empty list means it is right."""
    problems = []
    if rc != call.exit_code:
        problems.append(f"exit code {rc}, expected {call.exit_code}")
    try:
        obj = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    if not isinstance(obj, dict):
        return problems + ["stdout is not a JSON object"]
    for key, want in call.fields.items():
        if obj.get(key) != want:
            problems.append(f"{key} = {obj.get(key)!r}, expected {want!r}")
    if call.validate is not None and not problems:
        problems.extend(call.validate(obj))
    return problems


def _verdict(mds: bool, schur: int, n: int, k: int) -> str:
    """The documented verdict rule of the certificate."""
    if 2 * k > n:
        return "indeterminate"
    if mds and schur >= 2 * k:
        return "non_rs"
    if schur == 2 * k - 1:
        return "rs_consistent"
    return "indeterminate"


def _found_set_holds(k: int, r: int, n: int) -> Callable[[dict], list[str]]:
    """Check a `search` result: n distinct points whose k-subsets all pass."""

    def validate(obj: dict) -> list[str]:
        fld = obj.get("field", {})
        p, m = fld.get("p"), fld.get("m")
        pts = obj.get("points", [])
        values = [sum(d * p**i for i, d in enumerate(pt)) for pt in pts]
        problems = []
        if len(set(values)) != n:
            problems.append(f"expected {n} distinct points")
        if obj.get("exponents") != [e for e in range(k + 1) if e != k - r]:
            problems.append("exponents are not {0..k} minus {k-r}")
        if esym_violation(values, k, r, (p, m)) is not None:
            problems.append("returned set violates the condition")
        return problems

    return validate


# ---------------------------------------------------------------------------
# certify-batch and min-distance: fixed family instances built by `construct`

#: The batch of scripts/certify_families.py, as construct arguments, with the
#: Schur dimension pinned from the seed commit.
BATCH = [
    ("cor44(13,3,6)", ["cor44", "--p", "13", "--k", "3", "--n", "6"], 6),
    ("cor44(29,3,11)", ["cor44", "--p", "29", "--k", "3", "--n", "11"], 6),
    ("cor62(163,3,2,6)", ["cor62", "--p", "163", "--k", "3", "--r", "2", "--n", "6"], 6),
    ("cor62(1009,4,2,11)", ["cor62", "--p", "1009", "--k", "4", "--r", "2", "--n", "11"], 9),
    ("thm412(3,3,4,9)", ["thm412", "--p", "3", "--m", "3", "--k", "4", "--n", "9"], 8),
    ("thm412(5,3,4,10)", ["thm412", "--p", "5", "--m", "3", "--k", "4", "--n", "10"], 8),
    ("thm415(7,2,3,14)", ["thm415", "--p", "7", "--m", "2", "--k", "3", "--n", "14"], 6),
    ("thm415(11,2,3,34)", ["thm415", "--p", "11", "--m", "2", "--k", "3", "--n", "34"], 6),
    ("thm63(7,3,3,2,6)", ["thm63", "--p", "7", "--m", "3", "--k", "3", "--r", "2", "--n", "6"], 6),
    ("thm64(73,3,3,2,10)", ["thm64", "--p", "73", "--m", "3", "--k", "3", "--r", "2", "--n", "10"], 6),
    ("lift(H(3,2),3)", ["hamming-lift", "--r", "3", "--base-q", "2", "--k", "3"], 6),
    ("cor411(4,5)", ["cor411", "--r", "4", "--k", "5"], 10),
]

#: verify --min-distance instances: (label, construct args, schur pinned, n, k)
MIN_DISTANCE = [
    ("thm412(3,3,4,9)", ["thm412", "--p", "3", "--m", "3", "--k", "4", "--n", "9"], 8, 9, 4),
    ("cor44(53,3,8)", ["cor44", "--p", "53", "--k", "3", "--n", "8"], 6, 8, 3),
]


def _construct(main, workdir: str, label: str, args: list[str]) -> tuple[str, dict]:
    path = os.path.join(workdir, f"{label}.json")
    rc = main(["construct", *args, "-o", path])
    if rc != 0:
        raise RuntimeError(f"construct {label} exited {rc}")
    with open(path) as fh:
        return path, json.load(fh)


def _certify_batch(workdir, main) -> Workload:
    calls, codes = [], []
    for label, args, schur in BATCH:
        path, obj = _construct(main, workdir, label, args)
        codes.append(obj)
        fields = {"mds": True, "verdict": "non_rs", "witness": None,
                  "min_distance": None, "schur_dim": schur}
        calls.append(Call(f"verify {label}", ["verify", path], 0, fields,
                          quick=label != "cor411(4,5)"))
    return Workload("certify-batch", calls, codes)


def _min_distance(workdir, main) -> Workload:
    calls, codes = [], []
    for label, args, schur, n, k in MIN_DISTANCE:
        path, obj = _construct(main, workdir, label, args)
        codes.append(obj)
        fields = {"mds": True, "verdict": "non_rs", "witness": None,
                  "min_distance": n - k + 1, "schur_dim": schur, "n": n, "k": k}
        calls.append(Call(f"verify --min-distance {label}", ["verify", path, "--min-distance"],
                          0, fields, quick=label.startswith("cor44")))
    return Workload("min-distance", calls, codes)


# ---------------------------------------------------------------------------
# certify-general: seeded codes whose exponent sets are not of the gap form

#: Reed-Solomon codes {0..k-1} on seeded distinct points: (p, m, n, k)
RS_CODES = [(31, 1, 20, 4), (2, 5, 20, 4), (37, 1, 22, 5)]
#: Primes the failing codes (two or more skipped exponents) are drawn over.
FAILING_PRIMES = (31, 37, 41, 43)
FAILING_COUNT = 20


def _code_doc(p: int, m: int, values: Sequence[int], exps: Sequence[int]) -> dict:
    return {"field": {"p": p, "m": m}, "points": [digits(v, p, m) for v in values],
            "exponents": list(exps), "family": "custom", "params": {}}


def _write_code(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _failing_code(rng: random.Random):
    """Draw (p, points, exps, witness) until the oracle finds a dependent
    k-subset early in the scan, so the program's answer is an exit-1 witness."""
    while True:
        p = rng.choice(FAILING_PRIMES)
        k = rng.choice((3, 4))
        n = rng.randint(2 * k + 2, 16)
        exps = sorted(rng.sample(range(k + 3), k))
        if exps[-1] + 1 - k < 2:
            continue  # fewer than two skipped exponents
        points = rng.sample(range(p), n)
        witness = first_dependent_subset(points, exps, p, limit=2000)
        if witness is not None:
            return p, points, exps, witness


def _certify_general(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"certify-general:{seed}")
    calls, codes = [], []
    for p, m, n, k in RS_CODES:
        doc = _code_doc(p, m, rng.sample(range(p**m), n), range(k))
        path = _write_code(workdir, f"rs-{p}-{m}-{n}-{k}", doc)
        codes.append(doc)
        fields = {"mds": True, "verdict": "rs_consistent", "witness": None,
                  "schur_dim": 2 * k - 1, "min_distance": None, "n": n, "k": k}
        label = f"verify RS[{n},{k}] GF({p}^{m})"
        calls.append(Call(label, ["verify", path], 0, fields, quick=n * k < 100))
    largest = len(calls) - 1
    for i in range(FAILING_COUNT):
        p, points, exps, witness = _failing_code(rng)
        doc = _code_doc(p, 1, points, exps)
        path = _write_code(workdir, f"fail-{i}", doc)
        codes.append(doc)
        n, k = len(points), len(exps)
        schur = schur_dim_mod_p(points, exps, p)
        fields = {"mds": False, "witness": witness, "schur_dim": schur,
                  "verdict": _verdict(False, schur, n, k), "min_distance": None}
        calls.append(Call(f"verify fail-{i} [{n},{k}] GF({p}) E={exps}", ["verify", path], 1, fields))
    first_fail = largest + 1
    for twin in (largest, first_fail):
        base = calls[twin]
        calls.append(Call(base.label + " --jobs 2", base.argv + ["--jobs", "2"], base.exit_code,
                          dict(base.fields), same_as=twin, quick=base.quick))
    return Workload("certify-general", calls, codes)


# ---------------------------------------------------------------------------
# search-check: the conditions layer on its own

#: (field, n, k, r, strategy, found) -- found pinned from the seed commit;
#: a `none` from the exhaustive strategy is a proof.
SEARCHES = [
    ("19", 9, 3, 1, "exhaustive", False),
    ("2,4", 10, 3, 1, "exhaustive", False),
    ("19", 8, 3, 1, "exhaustive", True),
    ("2,4", 9, 3, 1, "exhaustive", True),
    ("101", 12, 3, 1, "greedy", True),
    ("2,6", 10, 3, 1, "greedy", True),
    ("31", 10, 4, 2, "greedy", False),
    ("101", 8, 4, 2, "greedy", True),
]
CHECK_COUNT = 200


def _point_arg(v: int, p: int, m: int) -> str:
    return ",".join(str(d) for d in digits(v, p, m))


def _search_check(seed: int) -> Workload:
    calls, codes = [], []
    for fld, n, k, r, strategy, found in SEARCHES:
        argv = ["search", "--field", fld, "--n", str(n), "--k", str(k), "--r", str(r),
                "--strategy", strategy]
        label = f"search {strategy} GF({fld}) n={n} k={k} r={r}"
        quick = not (strategy == "exhaustive" and not found)
        if found:
            calls.append(Call(label, argv, 0, {"family": "search"},
                              validate=_found_set_holds(k, r, n), quick=quick))
        else:
            calls.append(Call(label, argv, 1, {"found": False, "n": n, "k": k, "r": r},
                              quick=quick))
    rng = random.Random(f"search-check:{seed}")
    for i in range(CHECK_COUNT):
        if i % 2 == 0:
            p, m, n, r = 101, 1, rng.randint(9, 14), rng.choice((1, 2))
        else:
            p, m, n, r = 2, 6, rng.randint(8, 12), 1
        k = 3
        values = rng.sample(range(p**m), n)
        witness = esym_violation(values, k, r, (p, m))
        fields = {"holds": witness is None, "k": k, "r": r, "delta": [0] * m,
                  "witness": None if witness is None else {
                      "indices": witness, "points": [digits(values[j], p, m) for j in witness]}}
        fld = str(p) if m == 1 else f"{p},{m}"
        argv = ["check", "--field", fld, "--points", *(_point_arg(v, p, m) for v in values),
                "--k", str(k), "--r", str(r)]
        calls.append(Call(f"check #{i} GF({fld}) n={n} r={r}", argv,
                          0 if witness is None else 1, fields, quick=i < 6))
        codes.append(_code_doc(p, m, values, [e for e in range(k + 1) if e != k - r]))
    return Workload("search-check", calls, codes)


def build(name: str, seed: int, workdir: str, main) -> Workload:
    """Write the inputs of workload `name` into `workdir` and return its calls.

    `main` is ``mdsforge.cli.main``; the fixed-instance workloads call its
    ``construct`` subcommand to write their code files.
    """
    if name == "certify-batch":
        return _certify_batch(workdir, main)
    if name == "certify-general":
        return _certify_general(seed, workdir)
    if name == "min-distance":
        return _min_distance(workdir, main)
    if name == "search-check":
        return _search_check(seed)
    raise ValueError(f"unknown workload {name!r}")

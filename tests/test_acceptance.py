"""End-to-end acceptance checks.

Each test covers one numbered criterion, finishes inside a pinned time
budget, and prints a single ACCEPTANCE line (visible with pytest -s, or in
the captured-output block when something fails).  Frozen expected values
were cross-checked against independent oracles before being pinned here;
see tests/oracles.py for the reference implementations.
"""

import itertools
import random
import time
from math import comb

import pytest

from mdsforge.certify import (
    VERDICT_NON_RS,
    VERDICT_RS_CONSISTENT,
    mds_exhaustive,
    min_distance_bruteforce,
    non_rs_certificate,
    schur_square_dim,
    schur_square_dim_from_exponents,
)
from mdsforge.codec import ERASED, decode_erasures
from mdsforge.conditions import (
    BoundQuery,
    ConditionSpec,
    ExhaustiveSearch,
    check_esym,
    existence_bound,
    search_eval_set,
)
from mdsforge.errors import TooManyErasuresError
from mdsforge.evalcode import (
    EvalCode,
    EvalSet,
    ExponentSet,
    encode,
    generator_matrix,
)
from mdsforge.families import cor44, cor62, cor411, lift_parity_columns, thm412, thm415, thm63
from mdsforge.families import extended_hamming_parity
from mdsforge.field import make_field
from mdsforge.matrix import rank

from oracles import (
    GrsSpec,
    binom_exact,
    dual_code,
    esym_value,
    grs_generator,
    poly_from_roots,
    scalar,
    subset_sum_counts,
)


class Budget:
    """Context manager asserting the wrapped block beats its time limit."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"took {self.elapsed:.2f}s, budget {self.limit}s"
            )
        return False


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_reed_solomon_control():
    with Budget(1.0):
        ctx = make_field(13)
        code = EvalCode(ctx, EvalSet(tuple(range(6))), ExponentSet((0, 1, 2)))
        cert = non_rs_certificate(code)
        assert cert.is_mds
        assert cert.schur_dim == 5 == 2 * code.k - 1
        assert cert.verdict == VERDICT_RS_CONSISTENT
    report(1, "consecutive-exponent control code is MDS, Schur dim 5, rs_consistent")


def test_criterion_02_skipped_exponent_base_case():
    with Budget(1.0):
        code = cor44(13, 3, 6)
        assert comb(code.n, code.k) == 20
        is_mds, witness = mds_exhaustive(generator_matrix(code))
        assert is_mds and witness is None
        d, wd = min_distance_bruteforce(code)
        assert sum(wd) == 13**3 == 2197
        assert d == 4 == code.n - code.k + 1
        cert = non_rs_certificate(code)
        assert cert.schur_dim == 6 >= 2 * code.k
        assert cert.verdict == VERDICT_NON_RS
    report(2, "[6,3] skip-one code over GF(13): 20/20 subsets independent, d=4, non_rs")


def test_criterion_03_unit_digit_family_gf27():
    with Budget(5.0):
        code = thm412(3, 3, 4, 9)
        assert code.ctx.q == 27
        assert comb(code.n, code.k) == 126
        cert = non_rs_certificate(code)
        assert cert.is_mds
        assert cert.schur_dim >= 8  # |I+I| = 8 for exponents {0,1,2,4}
        assert cert.verdict == VERDICT_NON_RS
    report(3, "[9,4] unit-digit family over GF(27): 126/126 subsets, Schur dim >= 8")


def test_criterion_04_cycling_digit_family_gf49():
    with Budget(5.0):
        code = thm415(7, 2, 3, 14)
        assert code.ctx.q == 49
        assert comb(code.n, code.k) == 364
        cert = non_rs_certificate(code)
        assert cert.is_mds
        assert cert.schur_dim >= 6
        assert cert.verdict == VERDICT_NON_RS
    report(4, "[14,3] cycling-digit family over GF(49): 364/364 subsets, non_rs")


def test_criterion_05_order_two_condition_family():
    with Budget(1.0):
        code = cor62(163, 3, 2, 6)
        assert code.exponents.exps == (0, 2, 3)
        ok, witness = check_esym(
            code.ctx, code.points.points, ConditionSpec(k=3, r=2)
        )
        assert ok and witness is None  # 20/20 subsets clear
        cert = non_rs_certificate(code)
        assert cert.is_mds
        assert cert.schur_dim >= 6
    report(5, "[6,3] order-2 condition family over GF(163): e_2 avoids 0 on all 20 subsets")


def test_criterion_06_order_two_extension_family():
    with Budget(5.0):
        code = thm63(7, 3, 3, 2, 6)
        assert code.ctx.q == 343
        cert = non_rs_certificate(code)
        assert cert.is_mds
        assert cert.schur_dim >= 6
        assert cert.verdict == VERDICT_NON_RS
    report(6, "[6,3] order-2 extension family over GF(343): MDS and non_rs")


def test_criterion_07_parity_check_lifts():
    with Budget(30.0):
        # small lift: [8,3] over GF(16)
        small = lift_parity_columns(extended_hamming_parity(3, 2), 3)
        assert (small.n, small.k, small.ctx.q) == (8, 3, 16)
        ok, _ = check_esym(small.ctx, small.points.points, ConditionSpec(k=3))
        assert ok  # all 56 3-subset sums nonzero
        assert comb(8, 3) == 56
        cert_small = non_rs_certificate(small)
        assert cert_small.is_mds
        assert cert_small.schur_dim >= 6
        # large lift: [16,5] over GF(32)
        large = cor411(4, 5)
        assert (large.n, large.k, large.ctx.q) == (16, 5, 32)
        assert comb(16, 5) == 4368
        ok, _ = check_esym(large.ctx, large.points.points, ConditionSpec(k=5))
        assert ok  # all 4368 5-subset sums nonzero
        is_mds, witness = mds_exhaustive(generator_matrix(large))
        assert is_mds and witness is None  # all 4368 maximal minors invertible
        cert_large = non_rs_certificate(large)
        assert cert_large.schur_dim >= 10
        assert cert_large.verdict == VERDICT_NON_RS
    report(7, "parity-check lifts: [8,3]/GF(16) and [16,5]/GF(32) both MDS and non_rs")


def test_criterion_08_exhaustive_search_half_field():
    with Budget(60.0):
        ctx = make_field(2, 4)
        n = ctx.q // 2 + 1  # 9
        found = search_eval_set(ctx, n, ConditionSpec(k=3), ExhaustiveSearch())
        assert found is not None and len(found) == 9
        ok, _ = check_esym(ctx, found, ConditionSpec(k=3))
        assert ok
        code = EvalCode(ctx, EvalSet(found), ExponentSet((0, 1, 3)))
        cert = non_rs_certificate(code)
        assert cert.is_mds
        assert cert.verdict == VERDICT_NON_RS
    report(8, "exhaustive search found a 9-point set in GF(16) giving a non_rs [9,3] code")


FIELD_POOL = [(5, 1), (7, 1), (11, 1), (13, 1), (2, 2), (3, 2), (2, 3)]


def test_criterion_09_oracle_equivalences():
    with Budget(300.0):
        rng = random.Random(20260819)

        # (a) exhaustive column scan vs Singleton defect of the brute-force
        # minimum distance; rank-deficient generators count as non-MDS
        for _ in range(200):
            p, m = FIELD_POOL[rng.randrange(len(FIELD_POOL))]
            ctx = make_field(p, m)
            q = ctx.q
            k = rng.randint(1, 3)
            n = rng.randint(k, min(q, 7))
            pts = tuple(ctx.from_int(v) for v in rng.sample(range(q), n))
            exps = tuple(sorted(rng.sample(range(8), k)))
            code = EvalCode(ctx, EvalSet(pts), ExponentSet(exps))
            g = generator_matrix(code)
            is_mds, _ = mds_exhaustive(g)
            d, _ = min_distance_bruteforce(code)
            assert is_mds == (rank(g) == k and d == n - k + 1), (p, m, pts, exps)

        # (b) incremental subset walk vs counting table
        for _ in range(200):
            p, m = FIELD_POOL[rng.randrange(len(FIELD_POOL))]
            ctx = make_field(p, m)
            q = ctx.q
            n = rng.randint(1, min(q, 6))
            k = rng.randint(1, n)
            pts = tuple(ctx.from_int(v) for v in rng.sample(range(q), n))
            delta = ctx.from_int(rng.randrange(q))
            ok, _ = check_esym(ctx, pts, ConditionSpec(k=k, delta=delta))
            table = subset_sum_counts(ctx, pts, k)
            assert ok == (table[k][delta] == 0)

        # (c) Schur dimension: row products vs exponent sumset
        for _ in range(200):
            p, m = FIELD_POOL[rng.randrange(len(FIELD_POOL))]
            ctx = make_field(p, m)
            q = ctx.q
            k = rng.randint(1, 3)
            n = rng.randint(k, min(q, 7))
            pts = tuple(ctx.from_int(v) for v in rng.sample(range(q), n))
            exps = tuple(sorted(rng.sample(range(8), k)))
            code = EvalCode(ctx, EvalSet(pts), ExponentSet(exps))
            assert schur_square_dim(generator_matrix(code)) == schur_square_dim_from_exponents(code)

        # (d) coefficient/symmetric-function correspondence on split polynomials
        for _ in range(200):
            p, m = FIELD_POOL[rng.randrange(len(FIELD_POOL))]
            ctx = make_field(p, m)
            q = ctx.q
            k = rng.randint(1, min(q, 5))
            roots = [ctx.from_int(v) for v in rng.sample(range(q), k)]
            coeffs = poly_from_roots(ctx, roots)
            for r in range(k + 1):
                sign = 1 if r % 2 == 0 else ctx.neg(1)
                assert coeffs[k - r] == ctx.mul(sign, esym_value(ctx, roots, r))

        # (e) the dual of an MDS code is MDS (random generalized RS codes)
        for _ in range(200):
            p, m = FIELD_POOL[rng.randrange(len(FIELD_POOL))]
            ctx = make_field(p, m)
            q = ctx.q
            if q < 5:
                ctx = make_field(13)
                q = 13
            n = rng.randint(4, min(q - 1, 8))
            k = rng.randint(1, n - 1)
            pts = tuple(ctx.from_int(v) for v in rng.sample(range(q), n))
            mults = tuple(ctx.from_int(rng.randint(1, q - 1)) for _ in range(n))
            g = grs_generator(GrsSpec(ctx, EvalSet(pts), mults, k))
            assert mds_exhaustive(g)[0]
            dual = dual_code(g)
            assert dual.rows == n - k
            if dual.rows:
                assert mds_exhaustive(dual)[0]
    report(9, "five oracle-equivalence suites held on 200 random instances each")


def test_criterion_10_existence_bounds():
    with Budget(10.0):
        holds, lhs, rhs = existence_bound(BoundQuery(q=13, n=6, k=3, max_exp=3))
        assert (holds, lhs, rhs) == (False, 1716, 21960)
        holds, lhs, rhs = existence_bound(BoundQuery(q=67, n=6, k=3, variant="vieta"))
        assert (holds, lhs, rhs) == (True, 99795696, 92119104)
        rng = random.Random(4111)
        for _ in range(50):
            k = rng.randint(3, 6)
            n = rng.randint(2 * k, 2 * k + 5)
            q = rng.randint(n, n + 80)
            max_exp = rng.randint(k - 1, k + 4)
            variant = rng.choice(["general", "vieta"])
            kwargs = {"max_exp": max_exp} if variant == "general" else {}
            holds, lhs, rhs = existence_bound(BoundQuery(q=q, n=n, k=k, variant=variant, **kwargs))
            assert lhs == binom_exact(q, n)
            if variant == "general":
                expected = ((q**k - 1) // (q - 1)) * binom_exact(max_exp, k) * binom_exact(q - k, n - k)
            else:
                expected = binom_exact(q, k - 1) * binom_exact(q - k, n - k)
            assert rhs == expected
            assert holds == (lhs > rhs)
    report(10, "existence bounds match factorial-ratio oracle on 50 random tuples + pins")


def test_criterion_11_erasure_codec():
    with Budget(5.0):
        code = cor44(13, 3, 6)
        ctx = code.ctx
        rng = random.Random(606)
        patterns = list(itertools.combinations(range(6), 3))
        assert len(patterns) == 20
        for positions in patterns:
            for _ in range(100):
                msg = tuple(scalar(ctx, rng.randrange(13)) for _ in range(3))
                word = list(encode(code, msg))
                for pos in positions:
                    word[pos] = ERASED
                assert decode_erasures(code, word) == msg
        word = list(encode(code, (1, 0, 1)))
        for pos in range(4):  # n - k + 1 erasures: unrecoverable
            word[pos] = ERASED
        with pytest.raises(TooManyErasuresError):
            decode_erasures(code, word)
    report(11, "erasure codec recovered 20 patterns x 100 messages; overload raises")

"""Parameterized constructions and parity-check lifting.

Each builder is pinned on one small instance and smoke-certified; the
infeasibility edges get explicit tests because the bounds are exact, not
heuristic.
"""

import random
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from mdsforge import families
from mdsforge.certify import VERDICT_NON_RS, mds_exhaustive, non_rs_certificate
from mdsforge.conditions import ConditionSpec, check_esym
from mdsforge.errors import ConditionViolatedError, InvalidParamsError, TooLargeError
from mdsforge.evalcode import generator_matrix
from mdsforge.field import make_field
from mdsforge.jsonio import canonical_dumps, code_to_obj
from mdsforge.matrix import matrix_from_rows, rank
from mdsforge.families import (
    FAMILIES,
    cor44,
    cor62,
    cor411,
    extended_hamming_parity,
    int_root,
    lift_parity_columns,
    thm412,
    thm415,
    thm63,
    thm64,
)
from oracles import element


def test_registry_names():
    assert set(FAMILIES) == {"cor44", "cor62", "thm412", "thm415", "thm63", "thm64", "cor411"}
    for name, builder in FAMILIES.items():
        assert callable(builder), name


def test_int_root_exact():
    assert int_root(146, 2) == 12
    assert int_root(0, 3) == 0
    assert int_root(1, 5) == 1
    assert int_root(26, 3) == 2
    assert int_root(27, 3) == 3
    with pytest.raises(InvalidParamsError, match="^need x >= 0 and r >= 1$"):
        int_root(-1, 2)
    rng = random.Random(2)
    for _ in range(200):
        x = rng.randrange(10**12)
        r = rng.randint(1, 5)
        root = int_root(x, r)
        assert root**r <= x < (root + 1) ** r


def test_int_root_beyond_float_range():
    # a float seed overflows past ~1e308; the integer iteration does not
    assert int_root(10**399, 3) == 10**133
    root = int_root(10**400, 3)
    assert root**3 <= 10**400 < (root + 1) ** 3


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**500), st.integers(min_value=1, max_value=12))
def test_int_root_brackets_the_root(x, r):
    root = int_root(x, r)
    assert root**r <= x < (root + 1) ** r


# --- prime-field families ----------------------------------------------------


def test_cor44_pinned():
    code = cor44(13, 3, 6)
    assert code.family == "cor44"
    assert code.exponents.exps == (0, 1, 3)
    assert list(code.points.points) == [0, 1, 2, 3, 4, 5]
    assert code.params == {"family": "cor44", "p": 13, "k": 3, "n": 6}


def test_cor44_feasibility_edge():
    cor44(13, 3, 6)  # k*n - k(k+1)/2 = 12 = p - 1: tight
    with pytest.raises(InvalidParamsError, match=r"k\*n - k\(k\+1\)/2 = 15 exceeds p - 1 = 12"):
        cor44(13, 3, 7)
    with pytest.raises(InvalidParamsError):
        cor44(13, 2, 6)
    with pytest.raises(InvalidParamsError):
        cor44(13, 3, 5)
    with pytest.raises(InvalidParamsError, match="^15 is not prime$"):
        cor44(15, 3, 6)
    with pytest.raises(InvalidParamsError):
        cor44(2, 3, 6)  # odd characteristic required


def test_cor62_pinned():
    code = cor62(163, 3, 2, 6)
    assert code.exponents.exps == (0, 2, 3)
    assert code.n == 6 and code.k == 3
    ok, _ = check_esym(code.ctx, code.points.points, ConditionSpec(k=3, r=2))
    assert ok


def test_cor62_feasibility_edge():
    # (n*k)^r <= r! * p: 18^2 = 324 <= 326, but 21^2 > 326
    cor62(163, 3, 2, 6)
    with pytest.raises(InvalidParamsError, match=r"\(n\*k\)\^r = 441 exceeds r!\*p = 326"):
        cor62(163, 3, 2, 7)
    with pytest.raises(InvalidParamsError):
        cor62(163, 3, 1, 6)  # r = 1 belongs to the sum-condition family
    with pytest.raises(InvalidParamsError):
        cor62(163, 3, 3, 6)  # r <= k - 1


# --- extension-field families -------------------------------------------------


def test_thm412_pinned():
    code = thm412(3, 3, 4, 9)
    assert code.ctx.q == 27
    assert code.exponents.exps == (0, 1, 2, 4)
    assert list(code.points.points) == [
        1, 4, 7, 10, 13, 16, 19, 22, 25]
    # constant digit 1 everywhere; tails sweep the z-span in counter order
    assert code.ctx.digits(code.points.points[0]) == (1, 0, 0)
    assert code.ctx.digits(code.points.points[1]) == (1, 1, 0)
    assert code.ctx.digits(code.points.points[2]) == (1, 2, 0)


def test_thm412_validation():
    with pytest.raises(InvalidParamsError, match=r"n = 10 exceeds p\^\(m-1\) = 9"):
        thm412(3, 3, 4, 10)  # n > p^(m-1)
    with pytest.raises(InvalidParamsError):
        thm412(3, 3, 3, 6)  # p divides k
    with pytest.raises(InvalidParamsError):
        thm412(3, 1, 4, 9)  # m >= 2
    with pytest.raises(InvalidParamsError):
        thm412(3, 3, 4, 7)  # 2k > n


def test_field_size_limit_comes_before_the_length_bound():
    # n fails p^(m-1) as well, but GF(3^40) is refused without computing it
    with pytest.raises(TooLargeError, match=r"^field GF\(3\^40\) exceeds the size limit"):
        thm412(3, 40, 4, 3**39 + 1)


def test_thm415_pinned():
    code = thm415(7, 2, 3, 14)
    assert [code.ctx.digits(t) for t in code.points.points] == [
        (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2), (1, 3),
        (2, 3), (1, 4), (2, 4), (1, 5), (2, 5), (1, 6), (2, 6)]


def test_thm415_length_caps():
    # u = floor(p/k); extras live at digit u+1 and are capped so the
    # largest k-subset digit sum stays below p
    with pytest.raises(InvalidParamsError, match=r"n = 15 exceeds u\*p\^\(m-1\) \+ extras = 14 \+ 0"):
        thm415(7, 2, 3, 15)  # 7 = 3*2+1: no room for extras
    code = thm415(11, 2, 3, 34)  # 3*11 main + 1 extra
    assert code.ctx.digits(code.points.points[-1]) == (4, 0)
    with pytest.raises(InvalidParamsError, match=r"n = 35 exceeds u\*p\^\(m-1\) \+ extras = 33 \+ 1"):
        thm415(11, 2, 3, 35)


def test_thm415_prime_field_case():
    # m = 1 collapses to plain bounded residues: u distinct values plus at
    # most one extra when p - k*u - 1 > 0
    code = thm415(29, 1, 3, 8)
    assert list(code.points.points) == [1, 2, 3, 4, 5, 6, 7, 8]
    code = thm415(29, 1, 3, 10)
    assert list(code.points.points) == list(range(1, 11))
    with pytest.raises(InvalidParamsError, match=r"n = 11 exceeds u\*p\^\(m-1\) \+ extras = 9 \+ 1"):
        thm415(29, 1, 3, 11)


def test_thm63_pinned():
    code = thm63(7, 3, 3, 2, 6)
    assert code.ctx.q == 343
    assert code.exponents.exps == (0, 2, 3)
    assert [code.ctx.digits(t) for t in code.points.points] == [
        (1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0), (1, 5, 0)]
    ok, _ = check_esym(code.ctx, code.points.points, ConditionSpec(k=3, r=2))
    assert ok


def test_thm63_validation():
    with pytest.raises(InvalidParamsError, match=r"n = 8 exceeds p\^t = 7"):
        thm63(7, 3, 3, 2, 8)  # n > p^t with t = 1
    with pytest.raises(InvalidParamsError, match=r"characteristic 3 divides C\(3,1\)"):
        thm63(3, 7, 3, 1, 6)  # 3 divides C(3,1)
    with pytest.raises(InvalidParamsError, match=r"floor\(\(m-1\)/r\) = 0 < 1"):
        thm63(7, 2, 3, 2, 6)  # t = floor(1/2) = 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_thm63_divisibility_by_digits_matches_the_binomial(p):
    # m = 1 leaves no z-tail, so a C(k, r) that p does not divide is refused next
    for k in range(3, 80):
        for r in range(1, k):
            with pytest.raises(InvalidParamsError) as exc:
                thm63(p, 1, k, r, 2 * k)
            divides = str(exc.value) == f"characteristic {p} divides C({k},{r})"
            assert divides == (comb(k, r) % p == 0), (k, r)


def test_cor62_refuses_exactly_the_p_below_the_bound(monkeypatch):
    # from r = 23 on the sides are long and p = 3 is refused from its bits;
    # p need not be prime here, and make_field refuses what passes
    monkeypatch.setattr(families, "_require_odd_prime", lambda p: None)
    for r in range(2, 40, 3):
        for k in (r + 1, 2 * r + 5):
            n = 2 * k + 1
            first = -(-(n * k) ** r // factorial(r))  # the smallest p that passes
            for p in (3, first - 1, first):
                try:
                    cor62(p, k, r, n)
                    refused = False
                except (InvalidParamsError, TooLargeError) as exc:
                    refused = "exceeds r!*p" in str(exc)
                assert refused == (p < first), (r, k, p)


def test_thm64_refuses_the_same_codes_with_and_without_the_root():
    # r! < (r/2)^r for r >= 6: below p = 2^r no root is taken
    primes = [p for p in range(3, 400) if all(p % d for d in range(2, p))]
    for r in range(1, 10):
        for p in primes:
            for k in range(r + 1, r + 4):
                refused = int_root(factorial(r) * p, r) // k < 1
                try:
                    thm64(p, 1, k, r, 2 * k)
                except InvalidParamsError as exc:
                    assert ("floor((r!p)^(1/r))/k < 1" in str(exc)) == refused, (p, k, r)
                else:
                    assert not refused, (p, k, r)
    for r in range(6, 60):
        assert int_root(factorial(r) * ((1 << r) - 1), r) < r + 1


def test_thm64_pinned():
    code = thm64(73, 3, 3, 2, 10)
    # w = floor(sqrt(2*73))/3 = 12//3 = 4: constant digits cycle 1..4
    assert [code.ctx.digits(t) for t in code.points.points][:6] == [
        (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (1, 1, 0), (2, 1, 0)]
    ok, _ = check_esym(code.ctx, code.points.points, ConditionSpec(k=3, r=2))
    assert ok


def test_thm64_cap():
    with pytest.raises(InvalidParamsError, match=r"n = 8 exceeds w\*p\^t = 7"):
        thm64(7, 3, 3, 2, 8)  # w = 1, t = 1: at most 7 points


def test_thm64_order_one_matches_thm415_main_block():
    a = thm64(7, 2, 3, 1, 14)
    b = thm415(7, 2, 3, 14)
    assert a.points.points == b.points.points
    assert a.exponents.exps == b.exponents.exps


def test_all_parameterized_families_certify_non_rs():
    instances = [
        cor44(13, 3, 6),
        cor62(163, 3, 2, 6),
        thm412(3, 3, 4, 9),
        thm415(7, 2, 3, 14),
        thm63(7, 3, 3, 2, 6),
        thm64(73, 3, 3, 2, 10),
        cor411(3, 3),
    ]
    for code in instances:
        cert = non_rs_certificate(code)
        assert cert.is_mds, code.family
        assert cert.verdict == VERDICT_NON_RS, code.family


def test_construction_is_deterministic():
    for build in (lambda: cor44(13, 3, 6), lambda: thm415(7, 2, 3, 14), lambda: cor411(4, 5)):
        assert canonical_dumps(code_to_obj(build())) == canonical_dumps(code_to_obj(build()))


# --- parity-check lifting -----------------------------------------------------


def test_extended_hamming_binary():
    h = extended_hamming_parity(3, 2)
    assert (h.rows, h.cols) == (4, 8)
    cols = [tuple(h.entries[i][j] for i in range(4)) for j in range(8)]
    assert cols == [
        (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 1), (0, 0, 1, 1),
        (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1), (0, 0, 0, 1)]
    assert len(set(cols)) == 8
    assert rank(h) == 4


def test_extended_hamming_ternary():
    h = extended_hamming_parity(2, 3)
    assert (h.rows, h.cols) == (3, 5)
    # distinct and pairwise independent columns
    cols = list(zip(*h.entries))
    assert len(set(cols)) == 5
    for a in range(5):
        for b in range(a + 1, 5):
            pair = matrix_from_rows(h.ctx, [cols[a], cols[b]])
            assert rank(pair) == 2


def test_extended_hamming_prime_power_base():
    h = extended_hamming_parity(2, 4)
    assert h.ctx.q == 4
    assert (h.rows, h.cols) == (3, 6)


@pytest.mark.parametrize("q, r", [(2, 3), (3, 2), (4, 2), (2, 5), (5, 3), (7, 2)])
def test_extended_hamming_columns_are_the_normalized_vectors_in_counter_order(q, r):
    # every vector of F_q^r in counter order, kept when its first nonzero
    # coordinate is 1
    digits = [tuple(v // q**i % q for i in range(r)) for v in range(q**r)]
    expected = [d + (1,) for d in digits if next((x for x in d if x), None) == 1]
    h = extended_hamming_parity(r, q)
    assert list(zip(*h.entries)) == expected + [(0,) * r + (1,)]


def test_extended_hamming_validation():
    with pytest.raises(InvalidParamsError):
        extended_hamming_parity(1, 2)
    with pytest.raises(InvalidParamsError):
        extended_hamming_parity(3, 6)  # not a prime power


def test_lift_produces_field_elements_from_columns():
    code = lift_parity_columns(extended_hamming_parity(3, 2), 3)
    assert code.ctx.q == 16
    assert code.n == 8 and code.k == 3
    assert code.family == "hamming-lift"
    # every lifted point carries the final parity digit: counter index >= 8
    assert sorted(code.points.points) == list(range(8, 16))


def test_lift_rejects_duplicate_columns():
    ctx = make_field(2)
    one, zero = element(ctx, (1,)), element(ctx, (0,))
    h = matrix_from_rows(ctx, [[one, one], [zero, zero]])
    with pytest.raises(InvalidParamsError, match="two columns lift to the same field element"):
        lift_parity_columns(h, 1)


def test_lift_rechecks_condition_at_runtime():
    # even k: the extended Hamming code has weight-4 words, i.e. 4 columns
    # of its parity matrix summing to zero
    with pytest.raises(ConditionViolatedError) as exc:
        lift_parity_columns(extended_hamming_parity(3, 2), 4)
    witness = exc.value.witness
    assert witness is not None and len(witness) == 4


def test_cor411_pinned():
    code = cor411(4, 5)
    assert code.family == "cor411"
    assert (code.n, code.k) == (16, 5)
    assert code.ctx.q == 32
    assert code.exponents.exps == (0, 1, 2, 3, 5)
    assert code.params["r"] == 4


def test_cor411_validation():
    with pytest.raises(InvalidParamsError, match="k = 4 must be odd"):
        cor411(4, 4)
    with pytest.raises(InvalidParamsError, match=r"need 3 <= k <= 2\^\(r-1\) = 4"):
        cor411(3, 5)  # k > 2^(r-1)
    with pytest.raises(InvalidParamsError):
        cor411(2, 3)


def test_cor411_range_check_matches_the_power_of_two(monkeypatch):
    class Built(Exception):
        pass

    def hamming_lift(r, base_q, k):
        raise Built

    monkeypatch.setattr(families, "hamming_lift", hamming_lift)
    for r in range(3, 9):
        message = rf"^need 3 <= k <= 2\^\(r-1\) = {2 ** (r - 1)}$"
        for k in range(-3, 2 ** (r - 1) + 5, 2):
            ok = 3 <= k <= 2 ** (r - 1)
            with pytest.raises(Built if ok else InvalidParamsError, match=None if ok else message):
                cor411(r, k)


def test_hamming_column_guard_decides_every_count_exactly(monkeypatch):
    for guard in (1 << 20, 100):
        monkeypatch.setattr(families, "HAMMING_COLUMN_GUARD", guard)
        for base_q in (2, 3, 4, 5, 7, 8, 9, 1 << 20):
            for r in range(2, 30):
                ncols = (base_q**r - 1) // (base_q - 1) + 1
                if ncols <= guard:
                    assert families._hamming_shape(r, base_q)[1] == ncols
                    continue
                with pytest.raises(TooLargeError, match=rf"columns exceeds guard {guard}$"):
                    families._hamming_shape(r, base_q)


def test_cor411_small_is_mds():
    code = cor411(3, 3)
    ok, _ = mds_exhaustive(generator_matrix(code))
    assert ok


def test_family_params_are_pinned():
    # one instance per builder; unused fields (m, r) are absent, not None
    cases = [
        (cor44(13, 3, 6), {"family": "cor44", "p": 13, "k": 3, "n": 6}),
        (cor62(163, 3, 2, 6), {"family": "cor62", "p": 163, "k": 3, "n": 6, "r": 2}),
        (thm412(3, 3, 4, 9), {"family": "thm412", "p": 3, "m": 3, "k": 4, "n": 9}),
        (thm415(7, 2, 3, 14), {"family": "thm415", "p": 7, "m": 2, "k": 3, "n": 14}),
        (thm63(7, 3, 3, 2, 6), {"family": "thm63", "p": 7, "m": 3, "k": 3, "n": 6, "r": 2}),
        (
            thm64(73, 3, 3, 2, 10),
            {"family": "thm64", "p": 73, "m": 3, "k": 3, "n": 10, "r": 2},
        ),
        (cor411(4, 5), {"family": "cor411", "p": 2, "m": 5, "k": 5, "n": 16, "r": 4}),
        (
            lift_parity_columns(extended_hamming_parity(3, 2), 3),
            {"family": "hamming-lift", "p": 2, "m": 4, "k": 3, "n": 8},
        ),
    ]
    assert {code.family for code, _ in cases} == set(FAMILIES) | {"hamming-lift"}
    for code, params in cases:
        assert code.params == params
        assert code.family == params["family"]


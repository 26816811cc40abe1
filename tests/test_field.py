"""Field construction and arithmetic.

Irreducibility of moduli is checked against sympy's ``Poly.is_irreducible``.
"""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, symbols

from mdsforge import field
from mdsforge.errors import InvalidParamsError, TooLargeError
from mdsforge.field import (
    MAX_FIELD_SIZE,
    TABLE_CAP,
    FieldContext,
    _poly_inverse,
    _poly_mul,
    _power,
    is_prime,
    make_field,
    prime_power,
)

X = symbols("x")


def sympy_poly(coeffs, p):
    """The little-endian coefficient vector `coeffs` as a polynomial over Z_p."""
    return Poly(list(reversed(coeffs)), X, modulus=p)


def accepted(p, m, coeffs):
    try:
        FieldContext(p, m, coeffs)
    except ValueError:
        return False
    return True


def test_prime_field_modulus_is_x():
    assert make_field(13).modulus == (0, 1)
    assert make_field(2, 1).modulus == (0, 1)


def test_canonical_moduli_small_extensions():
    # lowest-value irreducible polynomial in base-p counter order; code files
    # embed these, so every field the families and the benchmark use is here
    assert make_field(2, 2).modulus == (1, 1, 1)        # x^2 + x + 1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)        # x^2 + 1
    assert make_field(5, 2).modulus == (2, 0, 1)        # x^2 + 2
    assert make_field(2, 5).modulus == (1, 0, 1, 0, 0, 1)
    assert make_field(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)
    assert make_field(2, 7).modulus == (1, 1, 0, 0, 0, 0, 0, 1)
    assert make_field(3, 3).modulus == (1, 2, 0, 1)
    assert make_field(5, 3).modulus == (1, 1, 0, 1)
    assert make_field(7, 2).modulus == (1, 0, 1)
    assert make_field(7, 3).modulus == (2, 0, 0, 1)
    assert make_field(11, 2).modulus == (1, 0, 1)
    assert make_field(73, 3).modulus == (2, 0, 0, 1)


def test_modulus_minimality_against_scan():
    # every monic polynomial of lower counter value must be reducible
    for p, m in [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]:
        ctx = make_field(p, m)
        chosen = sum(c * p**i for i, c in enumerate(ctx.modulus[:m]))
        for value in range(chosen):
            digits = []
            v = value
            for _ in range(m):
                digits.append(v % p)
                v //= p
            cand = tuple(digits) + (1,)
            assert not sympy_poly(cand, p).is_irreducible, (p, m, cand)
        assert sympy_poly(ctx.modulus, p).is_irreducible


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), m=st.integers(2, 6))
def test_context_accepts_exactly_the_irreducible_moduli(data, p, m):
    coeffs = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))) + (1,)
    assert accepted(p, m, coeffs) == sympy_poly(coeffs, p).is_irreducible


def frobenius_residue(coeffs, p, e):
    """x^(p^e) - x modulo the little-endian polynomial `coeffs` over Z_p."""
    return Poly(X ** (p**e) - X, X, modulus=p).rem(sympy_poly(coeffs, p))


def test_unit_check_rejects_what_the_frobenius_check_passes():
    # x^2 + 2 = (x + 1)(x + 2) over GF(3): z^9 = z, and z^3 - z = 0
    assert frobenius_residue((2, 0, 1), 3, 2).is_zero
    assert frobenius_residue((2, 0, 1), 3, 1).is_zero
    assert not accepted(3, 2, (2, 0, 1))
    # (x + 1)(x^2 + x + 1)(x^3 + x + 1) over GF(2): z^64 = z, and z^8 - z is
    # a nonzero multiple of (x + 1)(x^3 + x + 1), so not a unit
    f = (1, 1, 0, 0, 1, 0, 1)
    assert frobenius_residue(f, 2, 6).is_zero
    eighth = frobenius_residue(f, 2, 3)
    assert not eighth.is_zero and eighth.gcd(sympy_poly(f, 2)).degree() == 4
    assert not accepted(2, 6, f)


def test_malformed_moduli_rejected():
    with pytest.raises(ValueError, match="monic"):
        FieldContext(3, 2, (2, 0, 2))  # leading coefficient 2
    with pytest.raises(ValueError, match="monic"):
        FieldContext(3, 2, (1, 1, 0, 1))  # degree 3 for m = 2
    with pytest.raises(ValueError, match="reducible"):
        FieldContext(2, 3, (0, 1, 0, 1))  # f(0) = 0
    assert FieldContext(2, 3, (1, 1, 0, 1)) == make_field(2, 3)


def test_not_prime_rejected():
    with pytest.raises(InvalidParamsError, match="^4 is not prime$"):
        make_field(4)
    with pytest.raises(InvalidParamsError, match="^1 is not prime$"):
        make_field(1, 2)
    with pytest.raises(InvalidParamsError, match="^91 is not prime$"):
        make_field(91)  # 7 * 13


def test_field_size_limit():
    assert MAX_FIELD_SIZE == 1 << 32
    assert make_field(4294967291).q == 4294967291  # the largest prime below 2^32
    assert make_field(3, 20).q == 3**20
    # each refusal comes before the prime test and the modulus search, and
    # m alone settles a huge m without p^m being computed
    for p, m in [(2, 33), (2, 200), (2, 10**9), (4, 100), (2305843009213693951, 1), (65537, 2)]:
        with pytest.raises(TooLargeError, match="exceeds the size limit"):
            make_field(p, m)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 163}
    for v in range(-2, 170):
        assert is_prime(v) == (v in primes or (v > 13 and v in {
            17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
            83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
            151, 157, 163, 167}))


def test_counter_order_roundtrip():
    ctx = make_field(3, 2)
    seen = []
    for v in range(9):
        e = ctx.from_int(v)
        assert e == v
        seen.append(e)
    assert ctx.digits(seen[0]) == (0, 0)
    assert ctx.digits(seen[1]) == (1, 0)
    assert ctx.digits(seen[3]) == (0, 1)  # z comes after the prime subfield in counter order
    assert len(set(seen)) == 9


def test_enumerate_field():
    ctx = make_field(3, 2)
    elems = ctx.elements()
    assert len(elems) == 9
    assert elems[0] == 0
    assert elems[1] == 1
    assert len(set(elems)) == 9


def test_enumerate_guard_trips():
    ctx = make_field(2, 5)
    with pytest.raises(TooLargeError):
        ctx.elements(guard=16)


def test_pow_conventions():
    ctx = make_field(13)
    e = ctx.element
    assert ctx.pow(e((2,)), 6) == e((12,))
    assert ctx.pow(e((0,)), 0) == e((1,))  # 0^0 = 1 by the evaluation convention
    assert ctx.pow(e((0,)), 5) == e((0,))
    with pytest.raises(ValueError):
        ctx.pow(e((2,)), -1)


def test_pow_is_literal_not_reduced_mod_order():
    # a^q == a (Frobenius composed m times), so exponents are honored as given
    for p, m in [(13, 1), (2, 4), (3, 2)]:
        ctx = make_field(p, m)
        for v in range(ctx.q):
            a = ctx.from_int(v)
            assert ctx.pow(a, ctx.q) == a


@pytest.mark.parametrize("p, m", [(13, 1), (2, 6), (7, 3)])
@pytest.mark.parametrize("e", [1, 2, 3, 6, 7, 8, 13, 64, 255, 1000])
def test_pow_makes_no_product_by_one(monkeypatch, p, m, e):
    # floor(log2 e) squarings, and popcount(e) - 1 products into the
    # accumulator, which starts at the lowest set bit of e
    ctx = make_field(p, m)
    a = ctx.from_int(ctx.q - 2)
    expected = 1
    for _ in range(e):
        expected = ctx.mul(expected, a)
    calls = []
    mul = FieldContext.mul

    def counting(self, x, y):
        calls.append(1)
        return mul(self, x, y)

    monkeypatch.setattr(FieldContext, "mul", counting)
    assert ctx.pow(a, e) == expected
    assert len(calls) == (e.bit_length() - 1) + bin(e).count("1") - 1


def test_nonzero_elements_have_order_dividing_q_minus_1():
    ctx = make_field(2, 4)
    for v in range(1, 16):
        assert ctx.pow(ctx.from_int(v), 15) == 1


CONTEXTS = [make_field(2, 4), make_field(3, 2), make_field(13), make_field(5, 1)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), which=st.integers(0, len(CONTEXTS) - 1))
def test_field_axioms(data, which):
    ctx = CONTEXTS[which]
    pick = st.integers(0, ctx.q - 1)
    a = ctx.from_int(data.draw(pick))
    b = ctx.from_int(data.draw(pick))
    c = ctx.from_int(data.draw(pick))
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, ctx.neg(a)) == 0
    assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
    assert ctx.mul(a, 1) == a
    if a != 0:
        assert ctx.mul(a, ctx.inv(a)) == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_frobenius_is_additive(data):
    # (a + b)^p == a^p + b^p in characteristic p
    ctx = make_field(3, 3)
    a = ctx.from_int(data.draw(st.integers(0, 26)))
    b = ctx.from_int(data.draw(st.integers(0, 26)))
    lhs = ctx.pow(ctx.add(a, b), 3)
    rhs = ctx.add(ctx.pow(a, 3), ctx.pow(b, 3))
    assert lhs == rhs


def test_inverse_matches_power():
    for p, m in [(2, 5), (3, 3), (7, 2), (13, 1)]:
        ctx = make_field(p, m)
        for v in range(1, ctx.q):
            a = ctx.from_int(v)
            assert ctx.inv(a) == ctx.pow(a, ctx.q - 2)
    ctx = make_field(73, 3)
    rng = random.Random(7)
    for _ in range(200):
        a = ctx.from_int(rng.randrange(1, ctx.q))
        assert ctx.inv(a) == ctx.pow(a, ctx.q - 2)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


ORACLE_FIELDS = {pm: make_field(*pm) for pm in [(2, 6), (3, 3), (7, 3), (73, 3)]}


def sympy_digits(poly, p, m):
    """The m little-endian digits in [0, p) of a polynomial over Z_p."""
    digits = [int(c) % p for c in reversed(poly.all_coeffs())]
    return tuple(digits + [0] * (m - len(digits)))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), pm=st.sampled_from(sorted(ORACLE_FIELDS)))
def test_mul_and_inv_match_sympy(data, pm):
    # the product reduced mod f and the inverse, against sympy's Poly over GF(p)
    ctx = ORACLE_FIELDS[pm]
    p, m = pm
    pick = st.integers(0, ctx.q - 1)
    a, b = ctx.from_int(data.draw(pick)), ctx.from_int(data.draw(pick))
    f = sympy_poly(ctx.modulus, p)
    pa, pb = sympy_poly(ctx.digits(a), p), sympy_poly(ctx.digits(b), p)
    assert ctx.digits(ctx.mul(a, b)) == sympy_digits((pa * pb).rem(f), p, m)
    if a:
        assert ctx.digits(ctx.inv(a)) == sympy_digits(pa.invert(f), p, m)


def test_dropped_context_leaves_no_cycles():
    # neither the polynomial path nor the tables may refer back to the
    # context: a cycle would keep every dropped field's tables alive until
    # a gc pass
    gc.collect()
    gc.disable()
    try:
        ctx = FieldContext(73, 3, (2, 0, 0, 1))
        a = ctx.from_int(12345)
        assert ctx.mul(a, ctx.inv(a)) == 1
        del ctx
        assert gc.collect() == 0
        ctx = FieldContext(7, 3, (2, 0, 0, 1))
        a = ctx.from_int(123)
        assert ctx.mul(a, ctx.inv(a)) == 1
        del ctx
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_inverse_of_zero_fails():
    ctx = make_field(7)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_scalar_embedding():
    ctx = make_field(3, 2)
    assert ctx.digits(ctx.scalar(0)) == (0, 0)
    assert ctx.digits(ctx.scalar(4)) == (1, 0)  # reduced mod p
    assert ctx.digits(ctx.scalar(-1)) == (2, 0)


def test_element_validation():
    ctx = make_field(3, 2)
    with pytest.raises(ValueError):
        ctx.element((1,))  # wrong digit count
    assert ctx.digits(ctx.element((3, 0))) == (0, 0)  # digits normalize mod p
    assert ctx.digits(ctx.element((-1, 1))) == (2, 1)


def test_context_equality_and_hash():
    assert make_field(3, 2) == make_field(3, 2)
    assert make_field(3, 2) != make_field(3, 3)
    assert hash(make_field(13)) == hash(make_field(13, 1))


def test_prime_power_decomposition():
    assert [q for q in range(-2, 17) if prime_power(q)] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    assert (prime_power(2**32), prime_power(73**3)) == ((2, 32), (73, 3))
    # a small factor decides at once, however large its cofactor
    assert prime_power(2 * (2**61 - 1)) is None


#: Every table field of these families: GF(2^m) with m <= 8, GF(3^m) with
#: m <= 5 and GF(p^2) with p <= 31.
TABLE_FIELDS = (
    [(2, m) for m in range(2, 9)]
    + [(3, m) for m in range(2, 6)]
    + [(p, 2) for p in range(5, 32) if is_prime(p)]
)


def poly_reference(ctx, a, b, e):
    """(a*b, 1/a or None, a + b, a - b, -a, a^e) by the polynomial path on
    digit lists, with sums taken digit by digit."""
    p, m, mod = ctx.p, ctx.m, ctx.modulus
    da, db = ctx.digits(a), ctx.digits(b)
    inv = _poly_inverse(list(da), mod, p)
    power = 1 if e == 0 else 0 if a == 0 else _power(lambda x, y: _poly_mul(p, mod, x, y), a, e)
    return (
        _poly_mul(p, mod, a, b),
        None if inv is None else ctx.element(inv + [0] * (m - len(inv))),
        ctx.element(x + y for x, y in zip(da, db)),
        ctx.element(x - y for x, y in zip(da, db)),
        ctx.element(-x for x in da),
        power,
    )


def table_ops(ctx, a, b, e):
    return (ctx.mul(a, b), ctx.inv(a) if a else None, ctx.add(a, b), ctx.sub(a, b),
            ctx.neg(a), ctx.pow(a, e))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), pm=st.sampled_from(TABLE_FIELDS))
def test_tables_match_the_polynomial_reference(data, pm):
    ctx = make_field(*pm)
    assert ctx.q <= TABLE_CAP
    pick = st.integers(0, ctx.q - 1)
    a, b, e = data.draw(pick), data.draw(pick), data.draw(st.integers(0, 3 * ctx.q))
    assert table_ops(ctx, a, b, e) == poly_reference(ctx, a, b, e)
    assert ctx.add_multiple([b, a], e % ctx.q, [a, b]) == [
        ctx.add(b, ctx.mul(e % ctx.q, a)), ctx.add(a, ctx.mul(e % ctx.q, b))]


@pytest.mark.parametrize("p, m", [(2, 11), (37, 2)])
def test_tables_just_above_the_cap_match_the_polynomial_path(monkeypatch, p, m):
    poly = make_field(p, m)
    assert poly.q > TABLE_CAP
    monkeypatch.setattr(field, "TABLE_CAP", poly.q)
    tables = FieldContext(p, m, poly.modulus)
    rng = random.Random(p)
    for _ in range(400):
        a, b, c = (rng.randrange(poly.q) for _ in range(3))
        e = rng.randrange(3 * poly.q)
        assert table_ops(tables, a, b, e) == table_ops(poly, a, b, e)
        v, w = [a, b, 0], [b, 0, a]
        assert tables.add_multiple(v, c, w) == poly.add_multiple(v, c, w)


@pytest.mark.parametrize("p, m", [(2, 4), (2, 8), (2, 9), (3, 3), (3, 5), (7, 3), (31, 2)])
def test_primitive_element_is_the_smallest_generator(p, m):
    ctx = make_field(p, m)
    n, mod = ctx.q - 1, ctx.modulus
    g = ctx._exp[1]

    def order(v):
        k, x = 1, v
        while x != 1:
            x, k = _poly_mul(p, mod, x, v), k + 1
        return k

    assert order(g) == n and all(order(v) < n for v in range(1, g))
    # exp is a bijection onto the nonzero elements, and log inverts it
    assert sorted(ctx._exp[:n]) == list(range(1, ctx.q))
    assert all(ctx._log[ctx._exp[i]] == i for i in range(n))
    # a second build of the same field picks the same element and tables
    again = FieldContext(p, m, mod)
    assert (again._exp, again._log, again._zech) == (ctx._exp, ctx._log, ctx._zech)


def test_make_field_builds_each_field_once():
    assert make_field(7, 3) is make_field(7, 3)
    assert make_field(13) is make_field(13, 1)

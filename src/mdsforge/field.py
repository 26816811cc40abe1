"""Exact arithmetic in GF(p^m), built as Z_p[x] modulo a monic irreducible.

Elements are little-endian digit vectors: ``(d0, d1, ..., d_{m-1})`` stands
for ``d0 + d1*z + ... + d_{m-1}*z^(m-1)`` where ``z`` is the residue class
of x.  Two elements are equal exactly when their digit tuples are equal, so
plain tuples double as hashable, canonical element values.  All arithmetic
goes through a :class:`FieldContext`; the tuples themselves carry no
behaviour.

``make_field(p, m)`` picks the modulus deterministically: the candidate
coefficient vectors are read as base-p counters (constant digit least
significant) and the first one that :class:`FieldContext` accepts wins.
Rebuilding a field with the same (p, m) therefore always yields the same
labels for every element.  The context decides irreducibility of its own
modulus f in its own ring Z_p[z]/(f), by Rabin's test (SIAM J. Comput.,
1980): f is irreducible exactly when z^(p^m) = z and z^(p^(m/d)) - z is a
unit for every prime d dividing m.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterable, Iterator, Optional, Sequence

from .errors import NotPrimeError, TooLargeError

FieldElement = tuple[int, ...]

#: make_field refuses any field with more elements than this.  Beyond it
#: the canonical modulus search (m > 32) and the trial-division prime test
#: (p > 2^32) would run for seconds to minutes; the largest field the package
#: uses elsewhere, GF(1000003), is far below it.
MAX_FIELD_SIZE = 1 << 32

#: Full-field enumeration refuses to run past this many elements unless the
#: caller raises the guard explicitly.
ENUMERATION_GUARD = 1 << 24

# Caches of multiplication/inversion results are capped so a long-running
# process over a big field cannot grow them without bound.
_CACHE_CAP = 1 << 20


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# Products and inverses over Z_p on little-endian coefficient vectors.


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_inverse(a: Sequence[int], mod: Sequence[int], p: int) -> Optional[list[int]]:
    """s with a*s = 1 modulo `mod`, by extended Euclid; None if a is no unit.

    Each step cancels the leading term of the longer remainder, keeping
    r_i = s_i * a (mod `mod`).  The remainders end at a nonzero constant c
    exactly when gcd(a, mod) = 1, and then s / c is the inverse; otherwise
    the last nonzero remainder is the gcd and the other one is empty.
    """
    r0, r1 = list(mod), _poly_trim(list(a))
    s0, s1 = [0], [1]
    while len(r1) > 1:
        shift = len(r0) - len(r1)
        if shift < 0:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        c = (r0[-1] * pow(r1[-1], p - 2, p)) % p
        s0 += [0] * (shift + len(s1) - len(s0))
        for src, dst in ((r1, r0), (s1, s0)):
            for j, y in enumerate(src):
                dst[shift + j] = (dst[shift + j] - c * y) % p
            _poly_trim(dst)
    if not r1:
        return None
    inv_c = pow(r1[0], p - 2, p)
    return [(c * inv_c) % p for c in s1]


def _poly_mul(p: int, mod: tuple[int, ...], a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """a*b modulo the monic `mod` of degree m = len(a): the schoolbook
    product, then from the top down, each coefficient c of z^t with t >= m
    cancelled by subtracting c * z^(t-m) * mod."""
    m = len(a)
    conv = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                conv[j] += ai * bj
    for top in range(2 * m - 2, m - 1, -1):
        c = conv[top]
        if c:
            for j, f in enumerate(mod, top - m):
                if f:
                    conv[j] -= c * f
    return tuple(c % p for c in conv[:m])


def _poly_inv(p: int, mod: tuple[int, ...], a: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a modulo the irreducible `mod`, as m digits."""
    res = _poly_inverse(a, mod, p)
    if res is None:
        raise ZeroDivisionError("inverse of zero")
    return tuple(res) + (0,) * (len(mod) - 1 - len(res))


def _prime_divisors(n: int) -> Iterator[int]:
    """The distinct prime divisors of n in increasing order, found lazily."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        yield n


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, m) with q = p^m for a prime p and m >= 1, or None when q is no
    prime power.  Only the smallest prime divisor is searched for, so a q
    with a small factor is decided at once, whatever its cofactor."""
    p = next(_prime_divisors(q), None)
    if p is None:
        return None
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return (p, m) if q == 1 else None


class FieldContext:
    """Immutable handle for one concrete GF(p^m).

    Holds the characteristic, extension degree and modulus.  Extension-field
    products and inverses go through ``functools.lru_cache`` wrappers of the
    module-level reductions, each capped at ``_CACHE_CAP`` entries; a product
    is keyed smaller factor first, so a*b and b*a share one entry.  The
    wrappers hold p and the modulus but not the context, so a dropped
    context leaves no reference cycle.  Instances may be shared freely
    across threads.
    """

    __slots__ = ("p", "m", "q", "modulus", "_mul", "_inv")

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        mod = tuple(int(c) % p for c in modulus[:-1]) + (int(modulus[-1]),)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = mod
        self._mul = lru_cache(maxsize=_CACHE_CAP)(partial(_poly_mul, p, mod))
        self._inv = lru_cache(maxsize=_CACHE_CAP)(partial(_poly_inv, p, mod))
        if m > 1 and not self._modulus_is_irreducible():
            raise ValueError("modulus is reducible")

    def _modulus_is_irreducible(self) -> bool:
        """Rabin's test of the module docstring, on the Frobenius iterates
        z^(p^j), j = 0..m, of z in this ring."""
        p, m, mod = self.p, self.m, self.modulus
        if mod[0] == 0:  # f(0) = 0: x divides f
            return False
        z = (0, 1) + (0,) * (m - 2)
        frob = [z]
        for _ in range(m):
            frob.append(self.pow(frob[-1], p))
        if frob[m] != z:
            return False
        return all(
            _poly_inverse(self.sub(frob[m // d], z), mod, p) is not None
            for d in _prime_divisors(m)
        )

    # -- identities and coercions ------------------------------------------

    def zero(self) -> FieldElement:
        return (0,) * self.m

    def one(self) -> FieldElement:
        return (1,) + (0,) * (self.m - 1)

    def scalar(self, c: int) -> FieldElement:
        """The prime-subfield element c (an integer taken mod p)."""
        return (c % self.p,) + (0,) * (self.m - 1)

    def element(self, digits: Iterable[int]) -> FieldElement:
        d = tuple(int(x) % self.p for x in digits)
        if len(d) != self.m:
            raise ValueError(f"expected {self.m} digits, got {len(d)}")
        return d

    def from_int(self, v: int) -> FieldElement:
        """Inverse of :meth:`to_int`: base-p digits of v, low digit first."""
        if not 0 <= v < self.q:
            raise ValueError(f"counter value {v} outside [0, {self.q})")
        out = []
        for _ in range(self.m):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def to_int(self, a: FieldElement) -> int:
        v = 0
        for d in reversed(a):
            v = v * self.p + d
        return v

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p = self.p
        if self.m == 1:
            return ((a[0] + b[0]) % p,)
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a: FieldElement) -> FieldElement:
        p = self.p
        return tuple((-x) % p for x in a)

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p = self.p
        if self.m == 1:
            return ((a[0] - b[0]) % p,)
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        if self.m == 1:
            return ((a[0] * b[0]) % self.p,)
        return self._mul(a, b) if a <= b else self._mul(b, a)

    def inv(self, a: FieldElement) -> FieldElement:
        if self.m > 1:
            return self._inv(a)
        if a[0] == 0:
            raise ZeroDivisionError("inverse of zero")
        return (pow(a[0], self.p - 2, self.p),)

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        """a**e by literal square-and-multiply; 0**0 is defined as 1."""
        if e < 0:
            raise ValueError("exponent must be >= 0")
        if e == 0:
            return self.one()
        if not any(a):
            return self.zero()
        while not e & 1:  # the accumulator starts at the lowest set bit
            a = self.mul(a, a)
            e >>= 1
        acc = a
        while e > 1:
            e >>= 1
            a = self.mul(a, a)
            if e & 1:
                acc = self.mul(acc, a)
        return acc

    # -- misc ----------------------------------------------------------------

    def elements(self, guard: int = ENUMERATION_GUARD) -> list[FieldElement]:
        if self.q > guard:
            raise TooLargeError(f"field of size {self.q} exceeds enumeration guard {guard}")
        return [self.from_int(v) for v in range(self.q)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, m={self.m}, modulus={list(self.modulus)})"


def make_field(p: int, m: int = 1) -> FieldContext:
    """Build GF(p^m) with the canonical (counter-order smallest) modulus.

    Raises :class:`TooLargeError` when p^m exceeds :data:`MAX_FIELD_SIZE`;
    that is decided before p is tested for primality and, for p >= 2,
    without computing p^m when m alone settles it.
    """
    if p >= 2 and m >= 1 and (m >= MAX_FIELD_SIZE.bit_length() or p**m > MAX_FIELD_SIZE):
        raise TooLargeError(f"field GF({p}^{m}) exceeds the size limit {MAX_FIELD_SIZE}")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    for v in range(p**m):
        try:
            return FieldContext(p, m, tuple(v // p**i % p for i in range(m)) + (1,))
        except ValueError:  # a monic degree-m candidate fails only as reducible
            pass
    raise AssertionError(f"no irreducible degree-{m} polynomial over Z_{p} found")


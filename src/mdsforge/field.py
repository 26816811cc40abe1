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

from typing import Iterable, Optional, Sequence

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
# Inversion over Z_p on little-endian coefficient lists.


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


def _prime_divisors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


class FieldContext:
    """Immutable handle for one concrete GF(p^m).

    Holds the characteristic, extension degree, modulus and everything
    precomputed for fast reduction.  Instances may be shared freely across
    threads; the internal result caches only ever gain entries.
    """

    __slots__ = ("p", "m", "q", "modulus", "_xpow", "_mul_cache", "_inv_cache")

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
        # Reduction rows: digit vector of z^i for i = m .. 2m-2.
        xpow: list[tuple[int, ...]] = []
        if m > 1:
            cur = tuple((-c) % p for c in mod[:m])  # z^m
            xpow.append(cur)
            for _ in range(m - 2):
                shifted = (0,) + cur[: m - 1]
                head = cur[m - 1]
                if head:
                    red = xpow[0]
                    cur = tuple((s + head * r) % p for s, r in zip(shifted, red))
                else:
                    cur = shifted
                xpow.append(cur)
        self._xpow = tuple(xpow)
        self._mul_cache: dict = {}
        self._inv_cache: dict = {}
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
        p = self.p
        m = self.m
        if m == 1:
            return ((a[0] * b[0]) % p,)
        key = (a, b) if a <= b else (b, a)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        out = conv[:m]
        for i in range(m, 2 * m - 1):
            c = conv[i]
            if c:
                red = self._xpow[i - m]
                for j in range(m):
                    out[j] += c * red[j]
        res = tuple(c % p for c in out)
        if len(self._mul_cache) < _CACHE_CAP:
            self._mul_cache[key] = res
        return res

    def inv(self, a: FieldElement) -> FieldElement:
        if self.m == 1:
            if a[0] == 0:
                raise ZeroDivisionError("inverse of zero")
            return (pow(a[0], self.p - 2, self.p),)
        cached = self._inv_cache.get(a)
        if cached is not None:
            return cached
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        res = tuple(_poly_inverse(a, self.modulus, self.p))
        res += (0,) * (self.m - len(res))
        if len(self._inv_cache) < _CACHE_CAP:
            self._inv_cache[a] = res
        return res

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


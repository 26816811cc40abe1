"""Exact arithmetic in GF(p^m), built as Z_p[x] modulo a monic irreducible.

A field element is its counter index: the int d0 + d1*p + ... +
d_{m-1}*p^(m-1) stands for d0 + d1*z + ... + d_{m-1}*z^(m-1), where z is
the residue class of x.  So 0 is zero, 1 is one, the prime-subfield value c
is c itself, and equal elements are equal ints.  Digit tuples appear only
at the boundary: :meth:`FieldContext.element` reads one and
:meth:`FieldContext.digits` writes one.

A :class:`FieldContext` does the arithmetic on indices in one of three ways:

* prime fields (m = 1): the integers mod p.
* m >= 2 and q <= :data:`TABLE_CAP`: exp/log tables of the primitive
  element g, the smallest index whose multiplicative order is q - 1.  A
  product is exp[log a + log b]; log 0 is a sentinel past every sum of two
  logs of nonzero elements, and the exp entries from there on are 0, so a
  zero factor needs no test.  For p = 2 the digits are bits and a sum is
  the XOR of the indices.  For odd p a sum goes through Zech's logarithm
  Z(n) = log(1 + g^n) (Lidl & Niederreiter, Finite Fields):
  a + b = g^(log a + Z(log b - log a)), with Z(n) the sentinel where
  1 + g^n = 0.  The tables are built once, on first use.
* m >= 2 and q > TABLE_CAP: the polynomial path.  A product is the
  schoolbook product of the operands' digits reduced mod f, an inverse is
  found by extended Euclid, and for odd p a sum is taken digit by digit;
  for p = 2 a sum is again an XOR.

In every field, the negation of a is the product of a and p - 1, the
prime-subfield -1, and one square-and-multiply ladder takes powers both for
:meth:`FieldContext.pow`, through :meth:`FieldContext.mul`, and for the
modulus test and the primitive-element search, through the polynomial
product.

``make_field(p, m)`` picks the modulus deterministically: the candidate
coefficient vectors are read as base-p counters (constant digit least
significant) and the first one that :class:`FieldContext` accepts wins.
So every build of a field with the same (p, m) labels its elements alike,
and ``make_field`` keeps the one context it builds per (p, m) for the life
of the process.  The context decides irreducibility of its own modulus f
by Rabin's test (SIAM J. Comput., 1980): f is irreducible exactly when
z^(p^m) = z and z^(p^(m/d)) - z is a unit for every prime d dividing m.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InvalidParamsError, TooLargeError

FieldElement = int

#: make_field refuses any field with more elements than this.  Beyond it
#: the canonical modulus search (m > 32) and the trial-division prime test
#: (p > 2^32) would run for seconds to minutes; the largest field the package
#: uses elsewhere, GF(1000003), is far below it.
MAX_FIELD_SIZE = 1 << 32

#: Full-field enumeration refuses to run past this many elements unless the
#: caller raises the guard explicitly.
ENUMERATION_GUARD = 1 << 24

#: Extension fields with at most this many elements get exp/log tables,
#: about 7q list slots in all.  The build takes one polynomial step per
#: power of g: on 2 shared CPUs with Python 3.11, 0.04 ms for GF(2^4),
#: 1.3 ms for GF(7^3) and 1.6-3.2 ms near the cap, paid once per process.
#: GF(73^3), with 389 017 elements, stays on the polynomial path.
TABLE_CAP = 1 << 10


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for desk-scale moduli."""
    return n >= 2 and next(_prime_divisors(n)) == n


# ---------------------------------------------------------------------------
# The polynomial path: products, powers and inverses in Z_p[z]/(mod).


def _digits(p: int, m: int, a: int) -> list[int]:
    """The m little-endian base-p digits of the counter index a."""
    out = []
    for _ in range(m):
        a, d = divmod(a, p)
        out.append(d)
    return out


def _index(p: int, digits: Sequence[int]) -> int:
    """The counter index of little-endian digits in [0, p)."""
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_inverse(a: Sequence[int], mod: Sequence[int], p: int) -> Optional[list[int]]:
    """s with a*s = 1 modulo `mod`, by extended Euclid; None if a is no unit.

    a and s are coefficient vectors, constant first.  Each step cancels the
    leading term of the longer remainder, keeping r_i = s_i * a (mod `mod`).
    The remainders end at a nonzero constant c exactly when gcd(a, mod) = 1,
    and then s / c is the inverse; otherwise the last nonzero remainder is
    the gcd and the other one is empty.
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


def _poly_mul(p: int, mod: Sequence[int], a: int, b: int) -> int:
    """The product of the counter indices a and b modulo the monic `mod` of
    degree m: the schoolbook product of their nonzero digits, then from the
    top down, each coefficient c of z^t with t >= m cancelled by
    subtracting c * z^(t-m) * mod.  A factor 0 or 1 is its own index."""
    if a < 2 or b < 2:
        return a * b
    m = len(mod) - 1
    conv = [0] * (2 * m - 1)
    terms, j = [], 0
    while b:
        b, y = divmod(b, p)
        if y:
            terms.append((j, y))
        j += 1
    i = 0
    while a:
        a, x = divmod(a, p)
        if x:
            for j, y in terms:
                conv[i + j] += x * y
        i += 1
    for top in range(2 * m - 2, m - 1, -1):
        c = conv[top]
        if c:
            for j, f in enumerate(mod, top - m):
                if f:
                    conv[j] -= c * f
    v = 0
    for c in reversed(conv[:m]):
        v = v * p + c % p
    return v


def _power(mul: Callable[[int, int], int], a: int, e: int) -> int:
    """a**e by square-and-multiply through the product `mul`, e >= 1: the
    accumulator starts at the lowest set bit of e, and a is squared only
    while higher bits remain."""
    acc = None
    while True:
        if e & 1:
            acc = a if acc is None else mul(acc, a)
        e >>= 1
        if not e:
            return acc
        a = mul(a, a)


def _prime_divisors(n: int) -> Iterator[int]:
    """The distinct prime divisors of n >= 1 in increasing order, found
    lazily by trial division by 2 and the odd numbers."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        yield n


def _is_irreducible(p: int, mod: Sequence[int]) -> bool:
    """Rabin's test of the module docstring, on the Frobenius iterates
    z^(p^j), j = 0..m, of z in Z_p[z]/(mod), m >= 2."""
    m = len(mod) - 1
    if mod[0] == 0:  # f(0) = 0: x divides f
        return False
    z = _digits(p, m, p)
    frob = [p]  # z has counter index p
    mul = partial(_poly_mul, p, mod)
    for _ in range(m):
        frob.append(_power(mul, frob[-1], p))
    if frob[m] != p:
        return False
    return all(
        _poly_inverse([(x - y) % p for x, y in zip(_digits(p, m, frob[m // d]), z)], mod, p)
        is not None
        for d in _prime_divisors(m)
    )


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


#: Kinds of arithmetic; see the module docstring.
_PRIME, _TABLE, _POLY = "prime", "table", "poly"


class FieldContext:
    """Handle for one concrete GF(p^m); its elements are counter indices.

    Holds the characteristic, extension degree, modulus and the kind of
    arithmetic of the module docstring.  A table field builds its tables
    (``_exp``, ``_log`` and, for odd p, ``_zech``) on their first use, and
    nothing else in the context changes after construction, so instances
    may be shared freely across threads.
    """

    __slots__ = ("p", "m", "q", "modulus", "_kind", "_exp", "_log", "_zech")

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        if not is_prime(p):
            raise InvalidParamsError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        mod = tuple(int(c) % p for c in modulus[:-1]) + (int(modulus[-1]),)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = mod
        if m == 1:
            self._kind = _PRIME
        elif not _is_irreducible(p, mod):
            raise ValueError("modulus is reducible")
        else:
            self._kind = _TABLE if self.q <= TABLE_CAP else _POLY

    def __getattr__(self, name: str):
        # Only an unset table slot of a table field gets here: build them all.
        if name not in ("_exp", "_log", "_zech") or self._kind != _TABLE:
            raise AttributeError(name)
        self._build_tables()
        return getattr(self, name)

    def _build_tables(self) -> None:
        """exp/log tables of the primitive element (and Zech logs for odd p).

        With N = q - 1, ``_exp`` holds g^i at i and i + N for 0 <= i < N and
        0 from 2N to 4N; ``_log[0]`` is 2N, so exp[log a + log b] is 0 when
        a factor is 0.  ``_zech`` holds Z(n) at n and n + N, so negative
        differences of logs index it from the end.  The powers of g are
        taken on digit lists, each times g by Horner's rule in z, and 1 + a
        is a with its constant digit turned up by one.
        """
        p, m, q, mod = self.p, self.m, self.q, self.modulus
        n, mul = q - 1, partial(_poly_mul, p, mod)
        # indices below p are the prime subfield, whose orders divide p - 1
        g = next(v for v in range(p, q)
                 if all(_power(mul, v, n // d) != 1 for d in _prime_divisors(n)))
        top, *rest = _poly_trim(_digits(p, m, g))[::-1]
        minus_f = [-c % p for c in mod[:m]]
        places = [p**j for j in range(m)]
        exp, power = [0] * n, [1] + [0] * (m - 1)
        for i in range(n):
            exp[i] = sum(map(operator.mul, power, places))
            acc = [top * c for c in power]
            for gi in rest:  # acc*z + gi*power, z^m reduced by f
                t = acc[-1]
                acc = [(s + t * f + gi * c) % p for s, f, c in zip([0] + acc[:-1], minus_f, power)]
            power = acc
        log = [2 * n] * q
        for i, v in enumerate(exp):
            log[v] = i
        if p != 2:
            zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp]
            self._zech = zech + zech
        else:
            self._zech = None
        self._log = log
        self._exp = exp + exp + [0] * (2 * n + 1)

    # -- the boundary: digits and counter indices --------------------------

    def digits(self, a: FieldElement) -> tuple[int, ...]:
        """The m little-endian base-p digits of the element a."""
        return tuple(_digits(self.p, self.m, a))

    def element(self, digits: Iterable[int]) -> FieldElement:
        """The element with these m little-endian digits, each taken mod p."""
        d = [int(x) % self.p for x in digits]
        if len(d) != self.m:
            raise ValueError(f"expected {self.m} digits, got {len(d)}")
        return _index(self.p, d)

    def scalar(self, c: int) -> FieldElement:
        """The prime-subfield element c (an integer taken mod p)."""
        return c % self.p

    def from_int(self, v: int) -> FieldElement:
        """The element with counter index v, which is v itself."""
        if not 0 <= v < self.q:
            raise ValueError(f"counter value {v} outside [0, {self.q})")
        return v

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        kind = self._kind
        if kind is _PRIME:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        if kind is _TABLE:
            log = self._log
            la = log[a]
            return self._exp[la + self._zech[log[b] - la]]
        p, out, place = self.p, 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + y) % p * place
            place *= p
        return out

    def neg(self, a: FieldElement) -> FieldElement:
        return self.mul(a, self.p - 1)

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.add(a, self.neg(b))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        kind = self._kind
        if kind is _TABLE:
            log = self._log
            return self._exp[log[a] + log[b]]
        if kind is _PRIME:
            return a * b % self.p
        return _poly_mul(self.p, self.modulus, a, b)

    def inv(self, a: FieldElement) -> FieldElement:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        kind = self._kind
        if kind is _TABLE:
            return self._exp[self.q - 1 - self._log[a]]
        if kind is _PRIME:
            return pow(a, -1, self.p)
        p = self.p
        return _index(p, _poly_inverse(_digits(p, self.m, a), self.modulus, p))

    def add_multiple(self, v: Sequence[int], c: FieldElement, b: Sequence[int]) -> list[int]:
        """The vector v + c*b, entry by entry, for vectors of equal length.

        The row step of elimination.  In prime and table fields it runs as
        one comprehension over the entries, with log c taken once; in a table
        field of odd p, x + c*y is x * (1 + c*y/x) by one Zech lookup.
        """
        kind, p = self._kind, self.p
        if kind is _PRIME:
            return [(x + c * y) % p for x, y in zip(v, b)]
        if not c:
            return list(v)
        if kind is _POLY:
            add, mul = self.add, self.mul
            return [add(x, mul(c, y)) if y else x for x, y in zip(v, b)]
        exp, log = self._exp, self._log
        lc = log[c]
        if p == 2:
            return [x ^ exp[lc + log[y]] for x, y in zip(v, b)]
        zech = self._zech
        return [
            x if not y else exp[lc + log[y]] if not x
            else exp[log[x] + zech[lc + log[y] - log[x]]]
            for x, y in zip(v, b)
        ]

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        """a**e by the square-and-multiply ladder; 0**0 is defined as 1."""
        if e < 0:
            raise ValueError("exponent must be >= 0")
        if e == 0:
            return 1
        if not a:
            return 0
        return _power(self.mul, a, e)

    # -- misc ----------------------------------------------------------------

    def elements(self, guard: int = ENUMERATION_GUARD) -> range:
        if self.q > guard:
            raise TooLargeError(f"field of size {self.q} exceeds enumeration guard {guard}")
        return range(self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, m={self.m}, modulus={list(self.modulus)})"


#: The one context make_field builds per (p, m).  A context never changes
#: once built (its tables are a function of p and m), so every caller can
#: share it; a process holds one per field it uses.
_FIELDS: dict[tuple[int, int], FieldContext] = {}


def make_field(p: int, m: int = 1) -> FieldContext:
    """GF(p^m) with the canonical (counter-order smallest) modulus, built
    once per (p, m) and shared by every later call.

    Raises :class:`TooLargeError` when p^m exceeds :data:`MAX_FIELD_SIZE`;
    that is decided before p is tested for primality and, for p >= 2,
    without computing p^m when m alone settles it.
    """
    ctx = _FIELDS.get((p, m))
    if ctx is not None:
        return ctx
    if p >= 2 and m >= 1 and (m >= MAX_FIELD_SIZE.bit_length() or p**m > MAX_FIELD_SIZE):
        raise TooLargeError(f"field GF({p}^{m}) exceeds the size limit {MAX_FIELD_SIZE}")
    if not is_prime(p):
        raise InvalidParamsError(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    for v in range(p**m):
        try:
            ctx = FieldContext(p, m, _digits(p, m, v) + [1])
        except ValueError:  # a monic degree-m candidate fails only as reducible
            continue
        return _FIELDS.setdefault((p, m), ctx)
    raise AssertionError(f"no irreducible degree-{m} polynomial over Z_{p} found")

"""Explicit families of evaluation sets whose subset conditions hold by design.

Every builder returns an :class:`EvalCode` over a freshly built canonical
field, with the exponent set {0, ..., k} minus {k - r} (r = 1 unless the
family says otherwise) and a `family` tag naming the recipe.  The point
orderings are fixed once and for all -- base-p counter order on the free
digits, with the lowest free digit cycling fastest -- so identical
parameters always serialize to identical files.

The integer-only feasibility checks mirror how the families work: each one
confines the relevant elementary symmetric value to an integer interval
strictly between multiples of p (or pins a digit pattern that cannot cancel),
which is what makes every k-subset condition hold without any search.
"""

from __future__ import annotations

from dataclasses import replace
from math import comb, factorial, isqrt

from .conditions import ConditionSpec, check_esym
from .errors import (
    BinomialDivisibleError,
    BoundViolatedError,
    ConditionViolatedError,
    DuplicateColumnsError,
    InfeasibleError,
    InvalidParamsError,
    KEvenError,
    NotPrimeError,
)
from .evalcode import EvalCode, EvalSet, gap_exponents
from .field import is_prime, make_field
from .matrix import MatrixFq, matrix_from_rows

HAMMING_COLUMN_GUARD = 1 << 20


def int_root(x: int, r: int) -> int:
    """Exact floor of the r-th root of a non-negative integer."""
    if x < 0 or r < 1:
        raise InvalidParamsError("need x >= 0 and r >= 1")
    if r == 1 or x < 2:
        return x
    # Integer Newton iteration from 2^ceil(bits / r), which is above the
    # root; the iterates fall strictly until they reach the floor.
    guess = 1 << -(-x.bit_length() // r)
    while True:
        nxt = ((r - 1) * guess + x // guess ** (r - 1)) // r
        if nxt >= guess:
            return guess
        guess = nxt


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def _require_odd_prime(p: int) -> None:
    _require_prime(p)
    if p == 2:
        raise InvalidParamsError("this family needs an odd characteristic")


def _counter_tail(index: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(index % p)
        index //= p
    return tuple(out)


# ---------------------------------------------------------------------------
# Prime-field families (r = 1 and general r)


def cor44(p: int, k: int, n: int) -> EvalCode:
    """Consecutive points 0..n-1 over Z_p with one skipped top exponent.

    Feasible whenever k*n - k*(k+1)/2 <= p - 1: every k-subset sum then
    lies strictly between 0 and p, so no sum vanishes and the code is MDS.
    """
    _require_odd_prime(p)
    if not 3 <= k or 2 * k > n:
        raise InvalidParamsError("need 3 <= k <= n/2")
    if k * n - k * (k + 1) // 2 > p - 1:
        raise BoundViolatedError(
            f"k*n - k(k+1)/2 = {k * n - k * (k + 1) // 2} exceeds p - 1 = {p - 1}"
        )
    ctx = make_field(p, 1)
    points = EvalSet(tuple((t,) for t in range(n)))
    return EvalCode(
        ctx, points, gap_exponents(k, 1), "cor44", {"family": "cor44", "p": p, "k": k, "n": n}
    )


def cor62(p: int, k: int, r: int, n: int) -> EvalCode:
    """Consecutive points 0..n-1 over Z_p with the x^(k-r) coefficient pinned.

    Feasible whenever (n*k)^r <= r! * p: every k-subset then has e_r in the
    integer interval (0, p), so the order-r condition holds outright.
    """
    _require_odd_prime(p)
    if not 2 <= r <= k - 1:
        raise InvalidParamsError("need 2 <= r <= k - 1")
    if not 3 <= k or 2 * k > n:
        raise InvalidParamsError("need 3 <= k <= n/2")
    if (n * k) ** r > factorial(r) * p:
        raise BoundViolatedError(f"(n*k)^r = {(n * k) ** r} exceeds r!*p = {factorial(r) * p}")
    ctx = make_field(p, 1)
    points = EvalSet(tuple((t,) for t in range(n)))
    return EvalCode(
        ctx,
        points,
        gap_exponents(k, r),
        "cor62",
        {"family": "cor62", "p": p, "k": k, "n": n, "r": r},
    )


# ---------------------------------------------------------------------------
# Extension-field families: unit constant digit, bounded constant digits


def thm412(p: int, m: int, k: int, n: int) -> EvalCode:
    """Points 1 + (tail in z, ..., z^(m-1)) over GF(p^m), tails in counter order.

    Every k-subset sums to k plus a z-multiple; with p not dividing k the
    constant digit k never cancels, so all subset sums are nonzero.
    """
    _require_prime(p)
    if m < 2:
        raise InvalidParamsError("need extension degree m >= 2")
    if k % p == 0:
        raise InvalidParamsError(f"characteristic {p} must not divide k={k}")
    if not 3 <= k or 2 * k > n:
        raise InvalidParamsError("need 3 <= k <= n/2")
    if n > p ** (m - 1):
        raise BoundViolatedError(f"n = {n} exceeds p^(m-1) = {p ** (m - 1)}")
    ctx = make_field(p, m)
    pts = [(1,) + _counter_tail(i, p, m - 1) for i in range(n)]
    points = EvalSet(tuple(pts))
    return EvalCode(
        ctx,
        points,
        gap_exponents(k, 1),
        "thm412",
        {"family": "thm412", "p": p, "m": m, "k": k, "n": n},
    )


def thm415(p: int, m: int, k: int, n: int) -> EvalCode:
    """Points with constant digit cycling 1..floor(p/k), plus a short run of
    extras at constant digit floor(p/k)+1.

    Any k-subset sum has constant digit in [k, p-1], hence nonzero: the
    number of extras is capped by p - k*floor(p/k) - 1, which is exactly
    what keeps the largest possible digit sum below p.
    """
    _require_odd_prime(p)
    if m < 1:
        raise InvalidParamsError("need m >= 1")
    if not 3 <= k <= p - 1:
        raise InvalidParamsError("need 3 <= k <= p - 1")
    if 2 * k > n:
        raise InvalidParamsError("need 2k <= n")
    u = p // k
    tail_space = p ** (m - 1)
    main_cap = u * tail_space
    extras_cap = min(p - k * u - 1, tail_space)
    if n > main_cap + extras_cap:
        raise BoundViolatedError(
            f"n = {n} exceeds u*p^(m-1) + extras = {main_cap} + {extras_cap}"
        )
    ctx = make_field(p, m)
    pts = []
    for i in range(min(n, main_cap)):
        pts.append((i % u + 1,) + _counter_tail(i // u, p, m - 1))
    for j in range(max(0, n - main_cap)):
        pts.append((u + 1,) + _counter_tail(j, p, m - 1))
    points = EvalSet(tuple(pts))
    return EvalCode(
        ctx,
        points,
        gap_exponents(k, 1),
        "thm415",
        {"family": "thm415", "p": p, "m": m, "k": k, "n": n},
    )


def thm63(p: int, m: int, k: int, r: int, n: int) -> EvalCode:
    """Points 1 + (tail in z..z^t), t = floor((m-1)/r), order-r condition.

    Products of r points keep z-degree at most r*t <= m - 1, so e_r over any
    k-subset has constant digit C(k, r) mod p, which must be nonzero.
    """
    _require_prime(p)
    if not 1 <= r <= k - 1:
        raise InvalidParamsError("need 1 <= r <= k - 1")
    if not 3 <= k or 2 * k > n:
        raise InvalidParamsError("need 3 <= k <= n/2")
    if comb(k, r) % p == 0:
        raise BinomialDivisibleError(f"characteristic {p} divides C({k},{r})")
    t = (m - 1) // r
    if t < 1:
        raise BoundViolatedError(f"floor((m-1)/r) = {t} < 1: extension too small for r={r}")
    if n > p**t:
        raise BoundViolatedError(f"n = {n} exceeds p^t = {p ** t}")
    ctx = make_field(p, m)
    pts = []
    for i in range(n):
        tail = _counter_tail(i, p, t)
        pts.append((1,) + tail + (0,) * (m - 1 - t))
    points = EvalSet(tuple(pts))
    return EvalCode(
        ctx,
        points,
        gap_exponents(k, r),
        "thm63",
        {"family": "thm63", "p": p, "m": m, "k": k, "n": n, "r": r},
    )


def thm64(p: int, m: int, k: int, r: int, n: int) -> EvalCode:
    """Constant digit ranging over 1..w with w = floor(floor((r!p)^(1/r))/k),
    tails (z..z^t) in counter order; order-r condition.

    The integer e_r of the constant digits is confined to (0, p), and the
    z-degree cap keeps the rest from folding back onto the constant digit.
    For r = 1 this reduces to the thm415 point pattern without its extras.
    """
    _require_odd_prime(p)
    if not 1 <= r <= k - 1:
        raise InvalidParamsError("need 1 <= r <= k - 1")
    if not 3 <= k or 2 * k > n:
        raise InvalidParamsError("need 3 <= k <= n/2")
    w = int_root(factorial(r) * p, r) // k
    if w < 1:
        raise BoundViolatedError(f"floor((r!p)^(1/r))/k < 1 for p={p}, k={k}, r={r}")
    t = (m - 1) // r
    if n > w * p**t:
        raise BoundViolatedError(f"n = {n} exceeds w*p^t = {w * p ** t}")
    ctx = make_field(p, m)
    pts = []
    for i in range(n):
        tail = _counter_tail(i // w, p, t)
        pts.append((i % w + 1,) + tail + (0,) * (m - 1 - t))
    points = EvalSet(tuple(pts))
    return EvalCode(
        ctx,
        points,
        gap_exponents(k, r),
        "thm64",
        {"family": "thm64", "p": p, "m": m, "k": k, "n": n, "r": r},
    )


# ---------------------------------------------------------------------------
# Parity-check lifting


def extended_hamming_parity(r: int, base_q: int) -> MatrixFq:
    """Parity-check matrix of the extended Hamming code over F_base_q.

    Columns are the normalized projective representatives of F_q^r (first
    nonzero coordinate 1, counter order) each extended by a final 1, plus
    the single column (0, ..., 0, 1).  Shape: (r+1) x ((q^r-1)/(q-1) + 1).
    """
    if r < 2:
        raise InvalidParamsError("need r >= 2")
    p, mb = _prime_power(base_q)
    ctx = make_field(p, mb)
    q = ctx.q
    ncols = (q**r - 1) // (q - 1) + 1
    if ncols > HAMMING_COLUMN_GUARD:
        raise InfeasibleError(f"{ncols} columns exceeds guard {HAMMING_COLUMN_GUARD}")
    one, zero = ctx.one(), ctx.zero()
    columns = []
    for v in range(q**r):
        vec = []
        t = v
        for _ in range(r):
            vec.append(ctx.from_int(t % q))
            t //= q
        first_nonzero = next((x for x in vec if x != zero), None)
        if first_nonzero == one:
            columns.append(tuple(vec) + (one,))
    columns.append((zero,) * r + (one,))
    rows = [tuple(col[i] for col in columns) for i in range(r + 1)]
    return matrix_from_rows(ctx, rows)


def _prime_power(x: int) -> tuple[int, int]:
    if x < 2:
        raise InvalidParamsError(f"{x} is not a prime power")
    for p in range(2, isqrt(x) + 1):
        if x % p == 0:
            m = 0
            while x % p == 0:
                x //= p
                m += 1
            if x != 1:
                raise InvalidParamsError("not a prime power")
            return (p, m)
    return (x, 1)  # x itself prime


def lift_parity_columns(h: MatrixFq, k: int) -> EvalCode:
    """Read the columns of a parity-check matrix as elements of the extension
    field glued from its rows, and use them as evaluation points.

    With rho rows over F_(p^mb), column (h_1, ..., h_rho) becomes the element
    whose digit vector is the concatenation of the digit vectors of the h_i
    -- an F_p-linear bijection, so k columns sum to zero in the big field
    exactly when they sum to zero columnwise.  The all-k-subset-sums-nonzero
    condition is re-checked at runtime rather than trusted.
    """
    base = h.ctx
    rho, ncols = h.rows, h.cols
    if k < 1 or k > ncols:
        raise InvalidParamsError(f"need 1 <= k <= {ncols}")
    ctx = make_field(base.p, base.m * rho)
    pts = []
    for j in range(ncols):
        digits: list[int] = []
        for i in range(rho):
            digits.extend(h.entries[i][j])
        pts.append(tuple(digits))
    if len(set(pts)) != len(pts):
        raise DuplicateColumnsError("two columns lift to the same field element")
    ok, witness = check_esym(ctx, pts, ConditionSpec(k=k, r=1))
    if not ok:
        raise ConditionViolatedError(
            f"columns {witness} sum to zero; the lifted set fails the k-subset condition",
            witness=witness,
        )
    points = EvalSet(tuple(pts))
    return EvalCode(
        ctx,
        points,
        gap_exponents(k, 1),
        "hamming-lift",
        {"family": "hamming-lift", "p": base.p, "m": base.m * rho, "k": k, "n": ncols},
    )


def cor411(r: int, k: int) -> EvalCode:
    """Lift of the binary extended Hamming parity-check matrix.

    All its codewords have even weight, so for odd k no k columns can sum
    to zero; the runtime check in the lift confirms that.  Produces a
    [2^r, k] code over GF(2^(r+1)) for odd 3 <= k <= 2^(r-1).
    """
    if r < 3:
        raise InvalidParamsError("need r >= 3")
    if k % 2 == 0:
        raise KEvenError(f"k = {k} must be odd")
    if not 3 <= k <= 2 ** (r - 1):
        raise BoundViolatedError(f"need 3 <= k <= 2^(r-1) = {2 ** (r - 1)}")
    code = lift_parity_columns(extended_hamming_parity(r, 2), k)
    params = {"family": "cor411", "p": 2, "m": r + 1, "k": k, "n": 2**r, "r": r}
    return replace(code, family="cor411", params=params)


FAMILIES = {
    "cor44": cor44,
    "cor62": cor62,
    "thm412": thm412,
    "thm415": thm415,
    "thm63": thm63,
    "thm64": thm64,
    "cor411": cor411,
}

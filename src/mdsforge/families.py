"""Explicit families of evaluation sets whose subset conditions hold by design.

Every builder returns an :class:`EvalCode` over a freshly built canonical
field, with the exponent set {0, ..., k} minus {k - r} (r = 1 unless the
family says otherwise), a `family` tag naming the recipe and the builder's
own arguments as its params.  The prime-field families take the points
0..n-1.  The extension-field families share one point pattern: point i has
constant digit first + (i mod w), and on z, ..., z^(m-1) the base-p digits
of floor(i / w), lowest first.  thm412 and thm63 take w = 1 and constant
digit 1, thm64 takes w from its r-th root bound, and thm415 takes
w = floor(p/k) followed by extras at w = 1 with constant digit
floor(p/k) + 1.  Identical parameters therefore always serialize to
identical files.

The integer-only feasibility checks mirror how the families work: each one
confines the relevant elementary symmetric value to an integer interval
strictly between multiples of p (or pins a digit pattern that cannot cancel),
which is what makes every k-subset condition hold without any search.
"""

from __future__ import annotations

from math import factorial

from .conditions import ConditionSpec, check_esym
from .errors import SHOWN_BITS, ConditionViolatedError, InvalidParamsError, TooLargeError, shown
from .evalcode import EvalCode, EvalSet, gap_exponents
from .field import FieldContext, FieldElement, is_prime, make_field, prime_power
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
        raise InvalidParamsError(f"{p} is not prime")


def _require_odd_prime(p: int) -> None:
    _require_prime(p)
    if p == 2:
        raise InvalidParamsError("this family needs an odd characteristic")


def _require_shape(k: int, n: int) -> None:
    if not 3 <= k or 2 * k > n:
        raise InvalidParamsError("need 3 <= k <= n/2")


def _digit_points(ctx: FieldContext, count: int, w: int, first: int = 1) -> list[FieldElement]:
    """The module docstring's point pattern for i = 0..count-1, whose
    counter index is the constant digit plus p * floor(i / w)."""
    return [first + i % w + ctx.p * (i // w) for i in range(count)]


def _gap_code(family: str, ctx: FieldContext, points, order: int, **params) -> EvalCode:
    """The code on `points` with exponents {0..k} minus {k - order}, tagged
    with `family` and the builder's arguments `params` (which hold k)."""
    return EvalCode(
        ctx,
        EvalSet(tuple(points)),
        gap_exponents(params["k"], order),
        family,
        {"family": family, **params},
    )


# ---------------------------------------------------------------------------
# Prime-field families (r = 1 and general r)


def cor44(p: int, k: int, n: int) -> EvalCode:
    """Consecutive points 0..n-1 over Z_p with one skipped top exponent.

    Feasible whenever k*n - k*(k+1)/2 <= p - 1: every k-subset sum then
    lies strictly between 0 and p, so no sum vanishes and the code is MDS.
    """
    _require_odd_prime(p)
    _require_shape(k, n)
    if k * n - k * (k + 1) // 2 > p - 1:
        raise InvalidParamsError(
            f"k*n - k(k+1)/2 = {k * n - k * (k + 1) // 2} exceeds p - 1 = {p - 1}"
        )
    return _gap_code("cor44", make_field(p, 1), range(n), 1, p=p, k=k, n=n)


def cor62(p: int, k: int, r: int, n: int) -> EvalCode:
    """Consecutive points 0..n-1 over Z_p with the x^(k-r) coefficient pinned.

    Feasible whenever (n*k)^r <= r! * p: every k-subset then has e_r in the
    integer interval (0, p), so the order-r condition holds outright.
    """
    _require_odd_prime(p)
    if not 2 <= r <= k - 1:
        raise InvalidParamsError("need 2 <= r <= k - 1")
    _require_shape(k, n)
    # (n*k)^r / r! >= (n*k // r)^r: a p of at most r*(bits(n*k // r) - 1) bits fails unbuilt
    nk = n * k
    built = r * nk.bit_length() <= SHOWN_BITS or p.bit_length() > r * ((nk // r).bit_length() - 1)
    lhs, rhs = (nk**r, factorial(r) * p) if built else (None, None)
    if not built or lhs > rhs:
        raise InvalidParamsError(f"{shown('(n*k)^r', lhs)} exceeds {shown('r!*p', rhs)}")
    return _gap_code("cor62", make_field(p, 1), range(n), r, p=p, k=k, n=n, r=r)


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
    _require_shape(k, n)
    ctx = make_field(p, m)
    if n > p ** (m - 1):
        raise InvalidParamsError(f"n = {n} exceeds p^(m-1) = {p ** (m - 1)}")
    return _gap_code("thm412", ctx, _digit_points(ctx, n, 1), 1, p=p, m=m, k=k, n=n)


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
    ctx = make_field(p, m)
    u = p // k
    tail_space = p ** (m - 1)
    main_cap = u * tail_space
    extras_cap = min(p - k * u - 1, tail_space)
    if n > main_cap + extras_cap:
        raise InvalidParamsError(
            f"n = {n} exceeds u*p^(m-1) + extras = {main_cap} + {extras_cap}"
        )
    extras = _digit_points(ctx, max(0, n - main_cap), 1, first=u + 1)
    pts = _digit_points(ctx, min(n, main_cap), u) + extras
    return _gap_code("thm415", ctx, pts, 1, p=p, m=m, k=k, n=n)


def thm63(p: int, m: int, k: int, r: int, n: int) -> EvalCode:
    """Points 1 + (tail in z..z^t), t = floor((m-1)/r), order-r condition.

    Products of r points keep z-degree at most r*t <= m - 1, so e_r over any
    k-subset has constant digit C(k, r) mod p, which must be nonzero.
    """
    _require_prime(p)
    if not 1 <= r <= k - 1:
        raise InvalidParamsError("need 1 <= r <= k - 1")
    _require_shape(k, n)
    # Lucas: p divides C(k, r) exactly when a base-p digit of r exceeds k's
    if any(r // p**i % p > k // p**i % p for i in range(r.bit_length())):
        raise InvalidParamsError(f"characteristic {p} divides C({k},{r})")
    t = (m - 1) // r
    if t < 1:
        raise InvalidParamsError(f"floor((m-1)/r) = {t} < 1: extension too small for r={r}")
    ctx = make_field(p, m)
    if n > p**t:
        raise InvalidParamsError(f"n = {n} exceeds p^t = {p ** t}")
    return _gap_code("thm63", ctx, _digit_points(ctx, n, 1), r, p=p, m=m, k=k, n=n, r=r)


def thm64(p: int, m: int, k: int, r: int, n: int) -> EvalCode:
    """Constant digit ranging over 1..w with w = floor(floor((r!p)^(1/r))/k),
    tails (z..z^t) in counter order; order-r condition.

    The integer e_r of the constant digits is confined to (0, p), and the
    z-degree cap keeps the rest from folding back onto the constant digit.
    For r = 1 this reduces to the thm415 point pattern without its extras.
    """
    _require_odd_prime(p)
    if m < 1:
        raise InvalidParamsError("need m >= 1")
    if not 1 <= r <= k - 1:
        raise InvalidParamsError("need 1 <= r <= k - 1")
    _require_shape(k, n)
    # r! < (r/2)^r for r >= 6 and k > r, so r!*p < k^r (w = 0) when p < 2^r
    w = 0 if r >= 6 and p.bit_length() <= r else int_root(factorial(r) * p, r) // k
    if w < 1:
        raise InvalidParamsError(f"floor((r!p)^(1/r))/k < 1 for p={p}, k={k}, r={r}")
    t = (m - 1) // r
    ctx = make_field(p, m)
    if n > w * p**t:
        raise InvalidParamsError(f"n = {n} exceeds w*p^t = {w * p ** t}")
    return _gap_code("thm64", ctx, _digit_points(ctx, n, w), r, p=p, m=m, k=k, n=n, r=r)


# ---------------------------------------------------------------------------
# Parity-check lifting


def _hamming_shape(r: int, base_q: int) -> tuple[FieldContext, int]:
    """F_base_q and the column count of its extended Hamming parity-check
    matrix, refusing r < 2, a base_q that is no prime power and a column
    count past HAMMING_COLUMN_GUARD, in that order."""
    if r < 2:
        raise InvalidParamsError("need r >= 2")
    pm = prime_power(base_q)
    if pm is None:
        raise InvalidParamsError(
            f"{base_q} is not a prime power" if base_q < 2 else "not a prime power"
        )
    ctx = make_field(*pm)
    q = ctx.q
    # ncols > q^(r-1) >= 2^((r-1)(bits(q)-1)): a long power is not built
    if (r - 1) * (q.bit_length() - 1) >= HAMMING_COLUMN_GUARD.bit_length():
        raise TooLargeError(f"over {q}^{r - 1} columns exceeds guard {HAMMING_COLUMN_GUARD}")
    ncols = (q**r - 1) // (q - 1) + 1
    if ncols > HAMMING_COLUMN_GUARD:
        raise TooLargeError(f"{ncols} columns exceeds guard {HAMMING_COLUMN_GUARD}")
    return ctx, ncols


def _lift_field(base: FieldContext, rho: int, ncols: int, k: int) -> FieldContext:
    """The field a lift of rho rows over `base` lands in; refuses k outside 1..ncols first."""
    if k < 1 or k > ncols:
        raise InvalidParamsError(f"need 1 <= k <= {ncols}")
    return make_field(base.p, base.m * rho)


def extended_hamming_parity(r: int, base_q: int) -> MatrixFq:
    """Parity-check matrix of the extended Hamming code over F_base_q.

    Columns are the normalized projective representatives of F_q^r (first
    nonzero coordinate 1, counter order) each extended by a final 1, plus
    the single column (0, ..., 0, 1).  Shape: (r+1) x ((q^r-1)/(q-1) + 1).
    """
    ctx, _ = _hamming_shape(r, base_q)
    q = ctx.q
    # the counter values whose lowest nonzero base-q digit, at place i, is 1
    values = sorted(q**i * (1 + q * t) for i in range(r) for t in range(q ** (r - 1 - i)))
    columns = [tuple(v // q**i % q for i in range(r)) + (1,) for v in values]
    columns.append((0,) * r + (1,))
    rows = [tuple(col[i] for col in columns) for i in range(r + 1)]
    return matrix_from_rows(ctx, rows)


def lift_parity_columns(h: MatrixFq, k: int) -> EvalCode:
    """Read the columns of a parity-check matrix as elements of the extension
    field glued from its rows, and use them as evaluation points.

    With rho rows over F_(p^mb), column (h_1, ..., h_rho) becomes the element
    whose digit vector is the concatenation of the digit vectors of the h_i,
    the counter index h_1 + h_2 p^mb + ... + h_rho p^(mb (rho-1))
    -- an F_p-linear bijection, so k columns sum to zero in the big field
    exactly when they sum to zero columnwise.  The all-k-subset-sums-nonzero
    condition is re-checked at runtime, under the subset guard in force,
    rather than trusted.
    """
    base = h.ctx
    ncols = h.cols
    ctx = _lift_field(base, h.rows, ncols, k)
    pts = [sum(row[j] * base.q**i for i, row in enumerate(h.entries)) for j in range(ncols)]
    if len(set(pts)) != len(pts):
        raise InvalidParamsError("two columns lift to the same field element")
    ok, witness = check_esym(ctx, pts, ConditionSpec(k=k, r=1))
    if not ok:
        raise ConditionViolatedError(
            f"columns {witness} sum to zero; the lifted set fails the k-subset condition",
            witness=witness,
        )
    return _gap_code("hamming-lift", ctx, pts, 1, p=base.p, m=ctx.m, k=k, n=ncols)


def hamming_lift(r: int, base_q: int, k: int) -> EvalCode:
    """The lift of extended_hamming_parity(r, base_q) with dimension k.

    A bad k or a lift field past the size limit depends only on the shape,
    so both are refused before any column is built.
    """
    base, ncols = _hamming_shape(r, base_q)
    _lift_field(base, r + 1, ncols, k)
    return lift_parity_columns(extended_hamming_parity(r, base_q), k)


def cor411(r: int, k: int) -> EvalCode:
    """Lift of the binary extended Hamming parity-check matrix.

    All its codewords have even weight, so for odd k no k columns can sum
    to zero; the runtime check in the lift confirms that.  Produces a
    [2^r, k] code over GF(2^(r+1)) for odd 3 <= k <= 2^(r-1).
    """
    if r < 3:
        raise InvalidParamsError("need r >= 3")
    if k % 2 == 0:
        raise InvalidParamsError(f"k = {k} must be odd")
    if k < 3 or (k - 1) >> (r - 1):  # k > 2^(r-1); a power past SHOWN_BITS is not printed
        raise InvalidParamsError(f"need 3 <= k <= {shown('2^(r-1)', 1 << min(r - 1, SHOWN_BITS))}")
    code = hamming_lift(r, 2, k)
    return _gap_code("cor411", code.ctx, code.points.points, 1, p=2, m=r + 1, k=k, n=2**r, r=r)


FAMILIES = {
    "cor44": cor44,
    "cor62": cor62,
    "thm412": thm412,
    "thm415": thm415,
    "thm63": thm63,
    "thm64": thm64,
    "cor411": cor411,
}

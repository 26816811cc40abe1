"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the package's own algorithms: ranks go
through sympy's DomainMatrix, minimum distances through full codeword
enumeration with naive arithmetic, symmetric functions through direct
subset expansion, binomials through factorial ratios.  When a production
routine and its oracle disagree, the oracle wins the argument.

The section "Test fixtures" at the end is the exception: element
constructors, generalized Reed-Solomon generators, duals, dense null spaces,
square solves, the all-products Schur-square rank, e_r by recurrence,
subset-sum counts and the scalar-class codeword walk.  Only tests need
them, and they are built on the package's own arithmetic and elimination,
so they are fixtures, not independent oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import factorial
from operator import getitem
from typing import Optional, Sequence

from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from mdsforge.errors import (
    InvalidParamsError,
    MdsforgeError,
    TooLargeError,
)
from mdsforge.evalcode import EvalCode, EvalSet, generator_matrix
from mdsforge.field import FieldContext, FieldElement
from mdsforge.matrix import MatrixFq, extend_basis, matrix_from_rows, rank


def prime_rank(p: int, rows: list[list[int]]) -> int:
    """Rank of an integer matrix over Z_p via sympy."""
    K = GF(p)
    if not rows or not rows[0]:
        return 0
    dm = DomainMatrix([[K(v) for v in row] for row in rows], (len(rows), len(rows[0])), K)
    return dm.rank()


def _mult_matrix(ctx: FieldContext, a: FieldElement) -> list[list[int]]:
    """m x m matrix over Z_p of multiplication by a, columns = a * z^j."""
    cols = []
    z = element(ctx, [1 if i == 1 else 0 for i in range(ctx.m)]) if ctx.m > 1 else 1
    power = 1
    for _ in range(ctx.m):
        cols.append(ctx.digits(ctx.mul(a, power)))
        power = ctx.mul(power, z)
    return [[cols[j][i] for j in range(ctx.m)] for i in range(ctx.m)]


def ext_rank(mat: MatrixFq) -> int:
    """Rank over GF(p^m), computed by blowing each entry up to its
    multiplication matrix over Z_p: rank_p(blowup) = m * rank_q(mat)."""
    ctx = mat.ctx
    m = ctx.m
    big: list[list[int]] = []
    for i in range(mat.rows):
        blocks = [_mult_matrix(ctx, mat.entries[i][j]) for j in range(mat.cols)]
        for bi in range(m):
            big.append([blocks[j][bi][bj] for j in range(mat.cols) for bj in range(m)])
    r = prime_rank(ctx.p, big)
    assert r % m == 0
    return r // m


def mat_vec(mat: MatrixFq, x: list[FieldElement]) -> tuple[FieldElement, ...]:
    """A x, one row at a time, with plain field arithmetic."""
    ctx = mat.ctx
    assert len(x) == mat.cols
    out = []
    for row in mat.entries:
        acc = 0
        for a, b in zip(row, x):
            acc = ctx.add(acc, ctx.mul(a, b))
        out.append(acc)
    return tuple(out)


def column(mat: MatrixFq, j: int) -> tuple[FieldElement, ...]:
    """Column j of `mat`; an index outside the matrix is refused."""
    if not 0 <= j < mat.cols:
        raise InvalidParamsError(f"column {j} out of range")
    return tuple(r[j] for r in mat.entries)


def brute_weight_distribution(
    ctx: FieldContext, gen_rows: list[list[FieldElement]]
) -> tuple[int, ...]:
    """(A_0, ..., A_n): codewords of each weight, one message at a time."""
    k = len(gen_rows)
    n = len(gen_rows[0])
    dist = [0] * (n + 1)
    for msg_idx in itertools.product(range(ctx.q), repeat=k):
        msg = [ctx.from_int(v) for v in msg_idx]
        weight = 0
        for j in range(n):
            acc = 0
            for i in range(k):
                acc = ctx.add(acc, ctx.mul(msg[i], gen_rows[i][j]))
            if acc != 0:
                weight += 1
        dist[weight] += 1
    return tuple(dist)


def brute_min_distance(ctx: FieldContext, gen_rows: list[list[FieldElement]]) -> int:
    """Minimum weight over all nonzero codewords, computed the slow way."""
    dist = brute_weight_distribution(ctx, gen_rows)
    return next(w for w in range(1, len(dist)) if dist[w])


def esym_direct(ctx: FieldContext, elems: list[FieldElement], r: int) -> FieldElement:
    """e_r by summing products over all r-subsets."""
    if r == 0:
        return 1
    total = 0
    for combo in itertools.combinations(elems, r):
        total = ctx.add(total, reduce(ctx.mul, combo))
    return total


def subset_scan(ctx, points, k: int, r: int, delta=None):
    """First k-subset (index tuple, lex order) with e_r == delta, or None."""
    delta = delta if delta is not None else 0
    for combo in itertools.combinations(range(len(points)), k):
        if esym_direct(ctx, [points[i] for i in combo], r) == delta:
            return combo
    return None


def _colex_combinations(limit: int, size: int):
    """All size-subsets of range(limit), ordered by largest element first."""
    if size == 0:
        yield ()
        return
    for top in range(size - 1, limit):
        for rest in _colex_combinations(top, size - 1):
            yield rest + (top,)


def colex_scan(ctx, n: int, k: int, r: int, delta=None):
    """First n-subset of the field in colex order (largest element first)
    with no k-subset of e_r == delta, as points in ascending counter order;
    None when there is none.  Every candidate set is checked from scratch."""
    for combo in _colex_combinations(ctx.q, n):
        pts = tuple(ctx.from_int(v) for v in combo)
        if subset_scan(ctx, pts, k, r, delta) is None:
            return pts
    return None


def greedy_scan(ctx, n: int, k: int, r: int, delta=None):
    """Greedy set in counter order: take a field element unless some k-subset
    through it and the elements already taken has e_r == delta."""
    delta = delta if delta is not None else 0
    chosen = []
    for v in range(ctx.q):
        cand = ctx.from_int(v)
        if any(
            esym_direct(ctx, list(rest) + [cand], r) == delta
            for rest in itertools.combinations(chosen, k - 1)
        ):
            continue
        chosen.append(cand)
        if len(chosen) == n:
            return tuple(chosen)
    return None


def shift_transform(
    ctx: FieldContext,
    points: list[FieldElement],
    delta: FieldElement,
    k: int,
) -> tuple[FieldElement, ...]:
    """Translate points so k-subset sums hitting delta become sums hitting 0.

    Subtracts delta / k from every point; requires the characteristic not to
    divide k.  Sends {S : sum(S) = delta} bijectively onto {S' : sum(S') = 0},
    so the maximum set sizes for the two problems coincide.
    """
    if k % ctx.p == 0:
        raise ValueError(f"characteristic {ctx.p} divides k={k}")
    shift = ctx.mul(delta, ctx.inv(scalar(ctx, k)))
    return tuple(ctx.sub(t, shift) for t in points)


def is_arithmetic_progression(exps: tuple[int, ...]) -> bool:
    """Whether the exponents form an arithmetic progression.

    Sets of size 1 and 2 count as progressions.  Equivalent to the sumset
    having the minimum possible size 2k - 1.
    """
    if len(exps) <= 2:
        return True
    step = exps[1] - exps[0]
    return all(b - a == step for a, b in zip(exps, exps[1:]))


def binom_exact(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def poly_from_roots(ctx: FieldContext, roots: list[FieldElement]) -> list[FieldElement]:
    """Coefficients (low to high) of prod (x - root), leading coeff 1."""
    coeffs = [1]
    for root in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = ctx.add(nxt[i + 1], c)
            nxt[i] = ctx.sub(nxt[i], ctx.mul(root, c))
        coeffs = nxt
    return coeffs


# ---------------------------------------------------------------------------
# Test fixtures: helpers on the package's own arithmetic, not oracles


def scalar(ctx: FieldContext, c: int) -> FieldElement:
    """The prime-subfield element c (an integer taken mod p)."""
    return c % ctx.p


def element(ctx: FieldContext, digits) -> FieldElement:
    """The element with these m little-endian digits, each taken mod p."""
    d = [int(x) % ctx.p for x in digits]
    if len(d) != ctx.m:
        raise ValueError(f"expected {ctx.m} digits, got {len(d)}")
    return sum(x * ctx.p**i for i, x in enumerate(d))


class ZeroMultiplierError(MdsforgeError):
    """A column multiplier that must be nonzero is zero."""


class RankDeficientError(MdsforgeError):
    """A full-rank matrix was required but not supplied."""


@dataclass(frozen=True)
class GrsSpec:
    """Data of a generalized Reed-Solomon code: points, multipliers, dimension."""

    ctx: FieldContext
    points: EvalSet
    multipliers: tuple[FieldElement, ...]
    k: int

    def __post_init__(self):
        if len(self.multipliers) != self.points.n:
            raise InvalidParamsError("need one multiplier per point")
        if not 1 <= self.k <= self.points.n:
            raise InvalidParamsError("dimension must satisfy 1 <= k <= n")
        for v in self.multipliers:
            if v == 0:
                raise ZeroMultiplierError("column multipliers must be nonzero")


def grs_generator(spec: GrsSpec) -> MatrixFq:
    """Generator matrix with entries v_i * alpha_i^j, j = 0..k-1."""
    ctx = spec.ctx
    rows = []
    for j in range(spec.k):
        rows.append(
            tuple(
                ctx.mul(v, ctx.pow(a, j))
                for a, v in zip(spec.points.points, spec.multipliers)
            )
        )
    return matrix_from_rows(ctx, rows)


def null_vectors(ctx: FieldContext, basis: list, cols: int) -> list[tuple[FieldElement, ...]]:
    """Right null space of an :func:`extend_basis` basis of width `cols`.

    One dense vector per non-pivot column f, in increasing f: 1 at f, 0 at
    the other non-pivot columns, and the pivot entries found by
    back-substitution in reverse insertion order.  The first is the vector
    :func:`matrix.null_vector` lists sparsely.
    """
    mul, sub = ctx.mul, ctx.sub
    pivots = {p for p, _ in basis}
    out = []
    for f in range(cols):
        if f in pivots:
            continue
        x = [0] * cols
        x[f] = 1
        for p, b in reversed(basis):
            # the row is 0 left of p and at earlier pivots, so only f and
            # the pivot entries solved so far contribute
            acc = ctx.neg(b[f])
            for c in pivots:
                if b[c] and x[c]:
                    acc = sub(acc, mul(b[c], x[c]))
            x[p] = acc
        out.append(tuple(x))
    return out


def null_space(mat: MatrixFq) -> MatrixFq:
    """Basis of the right null space, one vector per row (possibly 0 rows).

    Each basis vector has a 1 in "its" free column and 0 in the others,
    giving a deterministic reduced basis.  A full-rank input yields the
    empty matrix, whose column count reads back as 0.
    """
    basis: list = []
    for row in mat.entries:
        basis = extend_basis(mat.ctx, basis, row) or basis
    return MatrixFq(mat.ctx, tuple(null_vectors(mat.ctx, basis, mat.cols)))


def solve_square(a: MatrixFq, b: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """Unique solution x of A x = b for square A; InvalidParamsError otherwise.

    x is the negated null vector of [A | b] at its last column: the system
    is singular when that column is a pivot or A has fewer than n pivots.
    """
    ctx = a.ctx
    n = a.rows
    if a.cols != n:
        raise InvalidParamsError("matrix is not square")
    if len(b) != n:
        raise InvalidParamsError("right-hand side has wrong length")
    basis: list = []
    for row, rhs in zip(a.entries, b):
        basis = extend_basis(ctx, basis, [*row, rhs]) or basis
    if len(basis) < n or any(p == n for p, _ in basis):
        raise InvalidParamsError("coefficient matrix is singular")
    (x,) = null_vectors(ctx, basis, n + 1)
    return tuple(ctx.neg(v) for v in x[:n])


def schur_square_dim_all_products(mat: MatrixFq) -> int:
    """Rank of all k(k+1)/2 component-wise products of row pairs, at full length."""
    ctx = mat.ctx
    rows = mat.entries
    prods = [
        list(map(ctx.mul, rows[i], rows[j])) for i in range(len(rows)) for j in range(i, len(rows))
    ]
    return rank(matrix_from_rows(ctx, prods))


def dual_code(mat: MatrixFq) -> MatrixFq:
    """Generator of the dual code: a basis of the right null space.

    Requires full row rank; the dual of an MDS code is again MDS.
    """
    if rank(mat) != mat.rows:
        raise RankDeficientError("generator matrix must have full row rank")
    return null_space(mat)


def esym_value(ctx: FieldContext, elems: Sequence[FieldElement], r: int) -> FieldElement:
    """e_r of a sequence of field elements (direct product expansion)."""
    if not 0 <= r <= len(elems):
        raise InvalidParamsError("need 0 <= r <= number of elements")
    e = [1] + [0] * r
    top = 0
    for a in elems:
        top = min(top + 1, r)
        for j in range(top, 0, -1):
            e[j] = ctx.add(e[j], ctx.mul(a, e[j - 1]))
    return e[r]


#: subset_sum_counts builds a (k+1) x q table, so refuse huge fields.
DP_FIELD_GUARD = 1 << 16


def subset_sum_counts(
    ctx: FieldContext,
    points: Sequence[FieldElement],
    k: int,
    guard: int = DP_FIELD_GUARD,
) -> list[list[int]]:
    """Table N with N[j][v] = number of j-subsets of the points summing to
    the field element with counter index v.

    Polynomial-size dynamic program; the condition for r = 1 holds for
    target s iff N[k][index(s)] == 0.
    """
    if k < 0:
        raise InvalidParamsError("k must be >= 0")
    q, p, m = ctx.q, ctx.p, ctx.m
    if q > guard:
        raise TooLargeError(f"field of size {q} exceeds DP guard {guard}")
    table = [[0] * q for _ in range(k + 1)]
    table[0][0] = 1
    if m == 1:
        def add_index(x: int, y: int) -> int:
            return (x + y) % p
    else:
        def add_index(x: int, y: int) -> int:
            out, mult = 0, 1
            for _ in range(m):
                out += ((x + y) % p) * mult
                x //= p
                y //= p
                mult *= p
            return out

    processed = 0
    for t in points:
        processed += 1
        for j in range(min(k, processed), 0, -1):
            prev, cur = table[j - 1], table[j]
            for s_idx, cnt in enumerate(prev):
                if cnt:
                    cur[add_index(s_idx, t)] += cnt
    return table


def scalar_class_weight_distribution(code: EvalCode) -> tuple[int, tuple[int, ...]]:
    """Minimum nonzero weight and weight distribution, one partial at a time.

    The codeword walk that ``certify.min_distance_bruteforce`` used before
    it counted a parent's q^2 codewords from crossing lines.  It walks one
    partial codeword per scalar class: a partial c is a combination of the
    first k - 1 generator rows whose first nonzero coefficient is 1, and
    the q codewords c + s*g of the last row g are counted together from the
    histogram of c's entries.  Each partial stands for q - 1 scalar
    multiples, and the zero partial for itself.  Columns are scaled so that
    g is 1 on its nonzero (`hit`) coordinates; c + s*g then vanishes at a
    hit coordinate j for s = -c_j only, and at any other coordinate for
    every s when c_j = 0.  A class led by row j is walked from row j,
    adding every multiple of rows j+1..k-2 through the rows of a lazily
    built addition table.  No codeword guard.
    """
    ctx = code.ctx
    k, n, q = code.k, code.n, ctx.q
    gen = generator_matrix(code)
    elements, mul, add_multiple = ctx.elements(), ctx.mul, ctx.add_multiple
    last = gen.entries[k - 1]
    order = sorted(range(n), key=lambda j: last[j] == 0)
    hit = n - last.count(0)
    scale = [ctx.inv(last[j]) for j in order[:hit]] + [1] * (n - hit)
    rows = [[mul(row[j], c) for j, c in zip(order, scale)] for row in gen.entries[:-1]]
    zero = [0] * n
    multiples = {i: [add_multiple(zero, s, rows[i]) for s in elements] for i in range(1, k - 1)}
    plus: list[Optional[list[int]]] = [None] * q  # plus[a][b] is a + b
    dist = [0] * (n + 1)

    def count(partials: list[list[int]]) -> None:
        for partial in partials:
            base = n - partial[hit:].count(0)
            hits: dict[int, int] = {}
            for v in partial[:hit]:
                hits[v] = hits.get(v, 0) + 1
            dist[base] += q - len(hits)
            for h in hits.values():
                dist[base - h] += 1

    def walk(level: int, partials: list[list[int]]) -> None:
        if level == k - 2:
            count(partials)
            return
        for partial in partials:
            for a in set(partial):
                if plus[a] is None:
                    plus[a] = add_multiple([a] * q, 1, elements)
            sums = [plus[a] for a in partial]
            walk(level + 1, [list(map(getitem, sums, mult)) for mult in multiples[level + 1]])

    for lead in range(k - 1):
        walk(lead, [rows[lead]])
    dist[:] = [(q - 1) * a for a in dist]
    count([zero])
    min_w = next((w for w in range(1, n + 1) if dist[w]), 0)
    return min_w, tuple(dist)

"""Certification of evaluation codes: MDS checks and Schur-square ranks.

The headline operation is :func:`non_rs_certificate`.  It decides whether
every k-subset of generator columns is independent.  On distinct points S
the k x k minor of the exponent set E = {E_1 < ... < E_k} is the
Vandermonde determinant of S times the Schur polynomial s_lambda(S), with
lambda_1 = E_k - (k - 1) the number of exponents skipped below the largest
(Macdonald, Symmetric Functions, ch. I sec. 3).  The route follows
lambda_1, and every route reports the first dependent subset in lex order,
so the witness never depends on the route or on how a walk is split
across workers:

* lambda_1 = 0, E = {0..k-1} (Reed-Solomon): s_lambda = 1, every minor is
  a Vandermonde determinant, and the code is MDS with no scan at all;
* lambda_1 = 1, E = {0..k} minus {k - r} (every family and every search
  result): s_lambda = e_r, so :func:`conditions.check_esym` answers,
  serially, by its e_r walk or, for r = 1, its subset-sum table;
* lambda_1 >= 2: :func:`mds_exhaustive`, the subset walk
  :func:`conditions.first_failing_subset` over the (k-2)-column prefixes
  with the elimination step :func:`matrix.extend_basis`.  Each independent
  prefix decides its last two columns at once: two left null vectors of
  its columns project every later column to GF(q)^2, where a dependent
  pair is a zero or a repeated slope.  It is the only route that ``jobs``
  affects, and it has one loop whatever ``jobs`` says.  The subsets are
  split into blocks by lowest index.  Block 0 is scanned in this process,
  so a witness there starts no pool.  Blocks 1..n-k are then read in order
  through one ``map`` until the first witness.  That ``map`` is a process
  pool's, over min(jobs, CPUs) workers, when there are two or more workers
  and at least :data:`PARALLEL_MIN_PREFIXES` prefixes, and the builtin one
  otherwise; a pool's tasks after the witness are cancelled.  Each task
  carries the field context and the matrix, so no worker rebuilds the
  field.

Every route keeps the subset guard, so a code too long to scan is refused
on all of them.  The subset and codeword guards are read when they are
checked (:func:`conditions.guard_in_force`), so MDSFORGE_GUARD reaches every
call in the process.  A witness is always confirmed by one rank of its k
columns.  On request (``cross_check``) the answer is derived again on any
route by :func:`_mds_by_minors`, which takes every k-subset from
``itertools.combinations`` and ranks its columns from scratch, and any
disagreement is an error.

It then sizes the component-wise (Schur) square of the code.  For an MDS
code of dimension k <= n/2, a Schur-square dimension of at least 2k
certifies that the code is not monomially equivalent to any Reed-Solomon
code, because every generalized Reed-Solomon code of those parameters has
Schur-square dimension exactly 2k - 1.  The square's dimension is proven
by two one-sided bounds from independent inputs, which must meet.  The
sumset side reads only the exponents (and the points): the square is
spanned by the evaluated monomials x^e, e in E+E, since ev(f) * ev(g) =
ev(fg), so its dimension is at most U, the size of E+E when max(E+E) < n,
else the rank of those monomials (:func:`schur_square_dim_from_exponents`).
The product side reads only the generator's entries: it reduces the rows to
the reduced echelon basis of rank rho, whose squares are independent on the
pivots and whose products r_i * r_j (i < j) vanish there, so the dimension
is rho plus the rank of those C(rho, 2) products on the non-pivot columns.
:func:`schur_square_dim` inserts them until rho plus their rank reaches U,
which shows that the dimension is at least U; a product side that ends
short of U is an error.  Under ``cross_check`` it walks every non-pivot
column, and so also shows that the dimension is at most U.

On request (``with_min_distance``) :func:`min_distance_bruteforce` counts
the weights of all q^k codewords.  It walks one message per class of
scalar multiples and, for k >= 3, stops two rows short: the q^2 codewords
of each such parent are counted at once from the points where the lines
on which its coordinates vanish cross.  For an MDS code that weight
distribution is fixed by n, k and q (:func:`mds_weight_distribution`), so
the count is checked against the closed form.  For a code with a witness
and a full-rank generator, the count must show a nonzero codeword of
weight at most n - k.  Any disagreement is an error.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb, isqrt
from typing import Optional

from . import conditions
from .conditions import ConditionSpec, _require_subset_count, guard_in_force
from .errors import SHOWN_BITS, InvalidParamsError, TooLargeError, shown
from .evalcode import EvalCode, gap_order, generator_matrix, sumset
from .field import FieldContext, FieldElement
from .matrix import MatrixFq, extend_basis, matrix_from_rows, null_vector, rank

#: Default ceiling on q^k for full codebook enumeration.
CODEWORD_GUARD = 1 << 22

VERDICT_NON_RS = "non_rs"
VERDICT_RS_CONSISTENT = "rs_consistent"
VERDICT_INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Certificate:
    """Everything the certifier established about one code."""

    n: int
    k: int
    is_mds: bool
    failing_columns: Optional[tuple[int, ...]]
    schur_dim: int
    verdict: str
    min_distance: Optional[int] = None


# ---------------------------------------------------------------------------
# Exhaustive MDS scan


def _first_dependent_subset(
    ctx: FieldContext,
    rows: tuple[tuple[FieldElement, ...], ...],
    cols: list[tuple[FieldElement, ...]],
    first: int,
) -> Optional[tuple[int, ...]]:
    """First dependent k-subset of columns, in lex order, with lowest index `first`.

    `rows` is the k x n matrix and `cols` its transpose.  Returns None when
    every such subset is independent.  This is the subset walk
    :func:`conditions.first_failing_subset` over the (k-2)-prefixes of
    range(n - 2) with an elimination step: the state of a prefix is its
    :func:`matrix.extend_basis` basis, and a dependent prefix is rejected
    with the next two indices as the rest of its witness.  An independent
    (k-2)-prefix is rejected when :func:`_first_closing_pair` finds a pair
    after it, which completes the witness; so a prefix step decides all the
    k-subsets that extend it.  k <= 2 is decided at the root.
    """
    k, n = len(rows), len(cols)
    if k < 2:
        return (first,) if k and not any(cols[first]) else None
    if k == 2:
        return _first_closing_pair(ctx, rows, [], first, first)
    pair: tuple = ()

    def extend(basis, depth: int, j: int):
        nonlocal pair
        basis = extend_basis(ctx, basis, cols[j])
        if basis is None or depth < k - 3:
            return basis
        pair = _first_closing_pair(ctx, rows, basis, j + 1, n - 2) or ()
        return None if pair else basis

    prefix = conditions.first_failing_subset(n - 2, k - 2, [], extend, first)
    if prefix is None:
        return None
    return prefix + (pair or (prefix[-1] + 1, prefix[-1] + 2))


def _first_closing_pair(
    ctx: FieldContext, rows: tuple[tuple[FieldElement, ...], ...], basis: list, lo: int, jmax: int
) -> Optional[tuple[int, int]]:
    """Lex-first (j, c) with lo <= j <= jmax and j < c that closes a dependent k-subset.

    `basis` is the :func:`matrix.extend_basis` basis of k - 2 independent
    columns P.  Their left null space is spanned by y, the
    :func:`matrix.null_vector` of `basis` at its lowest free coordinate f,
    and z, that of `basis` with the unit row at f added.  The projection
    pi(v) = (y.v, z.v) has kernel span(P), so P with columns j and c is
    dependent exactly when pi(j) or pi(c) is zero or the two are
    proportional.  y.v over the columns lo..n-1 is one row combination,
    k - 2 :meth:`FieldContext.add_multiple` calls at most, and so is z.v.
    A right-to-left pass keys each nonzero pi(c) by its slope z.c / y.c
    (-1 when y.c = 0) and keeps the lowest index seen so far of each key
    and of a zero projection: the earliest partner of j is the lower of its
    key's and the zero's, or j + 1 when pi(j) = 0.  The last j with a
    partner is the lowest.
    """
    k, n = len(rows), len(rows[0])
    add_multiple, mul, inv = ctx.add_multiple, ctx.mul, ctx.inv
    f, ys = null_vector(ctx, basis, k)
    g, zs = null_vector(ctx, extend_basis(ctx, basis, [int(i == f) for i in range(k)]), k)
    y, z = rows[f][lo:], rows[g][lo:]
    for p, w in ys:
        y = add_multiple(y, w, rows[p][lo:])
    for p, w in zs:
        z = add_multiple(z, w, rows[p][lo:])
    found = None
    zero = n
    lowest: dict = {}
    for c, a, b in zip(range(n - 1, lo - 1, -1), reversed(y), reversed(z)):
        if a or b:
            key = mul(b, inv(a)) if a else -1
            partner = min(lowest.get(key, n), zero)
            lowest[key] = c
        else:
            partner, zero = c + 1, c
        if partner < n and c <= jmax:
            found = (c, partner)
    return found


#: Below this many (k-2)-prefixes, C(n-2, k-2), the scan runs serially
#: whatever ``jobs`` asks, because starting a process pool costs more than
#: the split saves.  A prefix step costs O(n), so the subset count C(n, k)
#: does not separate the two across k.  Median of seven passing scans over
#: GF(1000003) on a 2-CPU machine, one process against two workers:
#: [390,3] 388 prefixes (9 810 580 subsets) 195 ms against 259 ms; [45,4]
#: 903 prefixes 50 against 51 ms, [50,4] 1 128 prefixes 66 against 63 ms,
#: [60,4] 1 653 prefixes 116 against 95 ms; [22,5] 1 140 prefixes 56
#: against 58 ms, [25,5] 1 771 prefixes 148 against 93 ms.
PARALLEL_MIN_PREFIXES = 1_500


def mds_exhaustive(mat: MatrixFq, jobs: int = 1) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Test every k-subset of columns for independence (k = row count).

    Returns (True, None) when the code generated by `mat` is MDS, otherwise
    (False, w) with w the lexicographically first dependent column subset.
    Works for any matrix; it is the elimination route of the certificate.
    `jobs` only chooses the ``map`` of the block loop described in the
    module docstring, so the answer does not depend on it.
    """
    k, n = mat.rows, mat.cols
    if k > n:
        raise InvalidParamsError(f"k={k} exceeds n={n}")
    _require_subset_count(n, k)
    scan = partial(_first_dependent_subset, mat.ctx, mat.entries, list(zip(*mat.entries)))
    witness = scan(0)
    if witness is not None:  # found before any worker starts
        return (False, witness)
    workers = min(jobs, os.cpu_count() or 1)
    pool = None
    if workers > 1 and k >= 2 and comb(n - 2, k - 2) >= PARALLEL_MIN_PREFIXES:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool

        pool = ProcessPoolExecutor(max_workers=workers)
    with pool or nullcontext():
        for witness in (pool.map if pool else map)(scan, range(1, n - k + 1)):
            if witness is not None:
                if pool:
                    pool.shutdown(cancel_futures=True)
                return (False, witness)
    return (True, None)


# ---------------------------------------------------------------------------
# Schur square


def schur_square_dim(mat: MatrixFq, upper: Optional[int] = None) -> int:
    """Dimension of the span of all component-wise products of row pairs.

    From the reduced echelon basis (see the module docstring): rho plus the
    rank of the vectors (r_i[f] * r_j[f]) over the pairs i < j, one per
    non-pivot column f, inserted until they span all C(rho, 2) coordinates.
    With `upper`, a known upper bound on the dimension, the insertion stops
    once rho plus the rank reaches it: the result then shows only that the
    dimension is at least `upper`.  An `upper` below rho or above
    rho + C(rho, 2) cannot be reached and gets the full walk.
    """
    ctx, mul = mat.ctx, mat.ctx.mul
    basis: list = []
    for row in mat.entries:
        basis = extend_basis(ctx, basis, row) or basis
    # back-substitution: clear from each row the pivots of the rows after it
    reduced: list = []
    for p, b in reversed(basis):
        for c, r in reduced:
            if b[c]:
                b = ctx.add_multiple(b, ctx.neg(b[c]), r)
        reduced.append((p, b))
    pivots = {p for p, _ in reduced}
    pairs = list(combinations([r for _, r in reduced], 2))
    goal = len(pairs) if upper is None else upper - len(reduced)
    off: list = []
    for f in range(mat.cols):
        if len(off) == goal:
            break
        if f not in pivots:
            off = extend_basis(ctx, off, [mul(a[f], b[f]) for a, b in pairs]) or off
    return len(reduced) + len(off)


def schur_square_dim_from_exponents(code: EvalCode) -> int:
    """Same dimension, from the evaluated exponent sumset instead of products.

    When max(E+E) < n the evaluated monomials are distinct rows of the
    invertible Vandermonde matrix of the n points (0^0 = 1): no rank needed.
    """
    sums = sumset(code.exponents)
    if sums.max_exp < code.n:
        return sums.k
    return rank(generator_matrix(EvalCode(code.ctx, code.points, sums)))


# ---------------------------------------------------------------------------
# Brute-force minimum distance


def min_distance_bruteforce(
    code: EvalCode, gen: Optional[MatrixFq] = None
) -> tuple[int, tuple[int, ...]]:
    """Minimum nonzero weight and full weight distribution, by enumeration.

    Exact over all q^k codewords, though it visits few of them.  Scaling a
    message by a nonzero constant changes no weight, so only the messages
    whose first nonzero coefficient is 1 are counted, each for its q - 1
    multiples, and the zero message once.  Scaling a column by a nonzero
    constant changes no weight either, so every column with g_j != 0, g the
    last generator row, is scaled by 1/g_j: g becomes 1 on those `hit`
    coordinates and stays 0 on the rest.  For a partial codeword c, a
    combination of the other rows, c + t*g then vanishes at a hit
    coordinate j for t = -c_j alone, and at any other coordinate for every
    t when c_j = 0, so the histogram of c's hit entries gives the weights
    of all q codewords c + t*g.

    For k >= 3 the walk stops one row earlier, at the parents P: the
    combinations of rows 0..k-3 whose leading coefficient is 1.  With R
    the row k-2, scaled alike, the q^2 codewords P + s*R + t*g are the
    points (s, t) of GF(q)^2, and hit coordinate j vanishes exactly on the
    line t = -(P_j + s*R_j).  A coordinate that is not hit is the point 0,
    where R vanishes too (its exponent is at least 1), so it is zero at
    every (s, t) when P_j = 0 and nowhere otherwise.  A point on m lines
    thus has weight b - m, with b = n less the zeros of P off the hit
    coordinates.  Lines a, b with R_a != R_b cross at one point,
    s = (P_b - P_a)/(R_a - R_b) and P_a + s*R_a = -t, and a point on m >= 2
    lines is reached by m(m-1)/2 such pairs, so one Counter over the
    crossing points gives the number of points on each m >= 2.  Each line
    has q points, which gives the points on one line, and the rest lie on
    none.  Lines with R_a = R_b are parallel unless P_a = P_b, where they
    coincide; a parent with a coinciding pair counts its q children
    P + s*R by their histograms, as the class led by R and the zero
    message always are.  s and P_a + s*R_a are linear in P, so rows 0..k-3
    carry them for every crossing pair after their n entries (one inverse
    per pair), and the walk forms them for each parent:
    (q^(k-2) - 1)/(q - 1) parents of one Counter over at most n(n-1)/2
    keys each, plus two single partials.

    A class whose leading 1 sits at row j <= k-3 is walked from row j
    itself: a partial at row i has the q children partial + s*row(i+1),
    each made by one :meth:`FieldContext.add_multiple` over its entries and
    its crossing entries alike, and the partials at row k-3 are the
    parents.
    The degenerate all-zero code has no nonzero codeword; its distance
    reads as 0.  The walk refuses when q^k exceeds the codeword guard in
    force, before it builds the generator or reads `gen`, one built already.
    """
    ctx = code.ctx
    k, n, q = code.k, code.n, ctx.q
    guard = guard_in_force(CODEWORD_GUARD)
    # q^k >= 2^k: a long power past the guard's bits is not built
    total = q**k if k < guard.bit_length() or k * q.bit_length() <= SHOWN_BITS else None
    if total is None or total > guard:
        raise TooLargeError(f"{shown('q^k', total)} exceeds codeword guard {guard}")
    gen = gen or generator_matrix(code)
    elements, mul, add_multiple = ctx.elements(), ctx.mul, ctx.add_multiple
    # Weights do not depend on column order either: the hit columns go
    # first, so a partial codeword splits by slicing.
    last = gen.entries[k - 1]
    order = sorted(range(n), key=lambda j: last[j] == 0)
    hit = n - last.count(0)
    scale = [ctx.inv(last[j]) for j in order[:hit]] + [1] * (n - hit)
    rows = [[mul(row[j], c) for j, c in zip(order, scale)] for row in gen.entries[:-1]]
    dist = [0] * (n + 1)

    def count(partial: list[int]) -> None:
        base = n - partial[hit:].count(0)
        hits: dict[int, int] = {}
        for v in partial[:hit]:
            hits[v] = hits.get(v, 0) + 1
        dist[base] += q - len(hits)
        for h in hits.values():
            dist[base - h] += 1

    if k >= 2:
        count(rows[k - 2])
    if k >= 3:
        r = rows[k - 2]
        minus_one = ctx.neg(1)
        cross = [(a, b) for a, b in combinations(range(hit), 2) if r[a] != r[b]]
        lo, hi = [a for a, _ in cross], [b for _, b in cross]
        r_lo = [r[a] for a in lo]
        inverse = list(map(ctx.inv, add_multiple(r_lo, minus_one, [r[b] for b in hi])))
        # each row i <= k-3 gains s, then P_a + s*R_a, over the crossing pairs
        for row in rows[: k - 2]:
            p_lo = [row[a] for a in lo]
            s_at = list(map(mul, add_multiple([row[b] for b in hi], minus_one, p_lo), inverse))
            row += s_at
            row += add_multiple(p_lo, 1, list(map(mul, s_at, r_lo)))
        lines, mid = hit * q, n + len(cross)
        parallel = len(cross) < hit * (hit - 1) // 2

        def leaf(parent: list[int]) -> None:
            if parallel and len(set(zip(parent[:hit], r))) < hit:  # a line twice
                head = parent[:n]
                for s in elements:
                    count(add_multiple(head, s, r))
                return
            base = n - parent[hit:n].count(0)
            crossings = zip(parent[n:mid], parent[mid:])
            on_one, on_none = lines, q * q
            for pairs, points in Counter(Counter(crossings).values()).items():
                m = (1 + isqrt(1 + 8 * pairs)) // 2
                dist[base - m] += points
                on_one -= m * points
                on_none -= points
            dist[base - 1] += on_one
            dist[base] += on_none - on_one

    def walk(level: int, partial: list[int]) -> None:
        if level == k - 3:
            return leaf(partial)
        for s in elements:
            walk(level + 1, add_multiple(partial, s, rows[level + 1]))

    for lead in range(k - 2):
        walk(lead, rows[lead])
    dist[:] = [(q - 1) * a for a in dist]
    count([0] * n)
    min_w = next((w for w in range(1, n + 1) if dist[w]), 0)
    return min_w, tuple(dist)


def mds_weight_distribution(n: int, k: int, q: int) -> tuple[int, ...]:
    """Weight distribution (A_0, ..., A_n) of every [n, k] MDS code over GF(q).

    With d = n - k + 1: A_0 = 1, A_w = 0 for 0 < w < d, and for w >= d
    A_w = C(n,w) * sum_{j=0}^{w-d} (-1)^j C(w,j) (q^(w-d+1-j) - 1)
    (MacWilliams & Sloane, The Theory of Error-Correcting Codes, ch. 11,
    Thm 6).
    """
    d = n - k + 1
    dist = [1] + [0] * n
    for w in range(d, n + 1):
        dist[w] = comb(n, w) * sum(
            (-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1) for j in range(w - d + 1)
        )
    return tuple(dist)


# ---------------------------------------------------------------------------
# Certificate assembly


def _mds_by_minors(mat: MatrixFq) -> tuple[bool, Optional[tuple[int, ...]]]:
    """The slow second derivation: rank every k-subset's columns from scratch.

    It shares no walk and no prefix state with either route; only the
    elimination step inside :func:`rank` is common to all three.
    """
    k, n = mat.rows, mat.cols
    _require_subset_count(n, k)
    cols = list(zip(*mat.entries))
    for combo in combinations(range(n), k):
        if rank(matrix_from_rows(mat.ctx, [cols[j] for j in combo])) < k:
            return (False, combo)
    return (True, None)


def _mds_decision(
    code: EvalCode, gen: MatrixFq, jobs: int, cross_check: bool
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """(is_mds, lex-first dependent subset) by the route lambda_1 selects."""
    k, n = code.k, code.n
    if k > n:
        raise InvalidParamsError(f"k={k} exceeds n={n}")
    lambda_1 = code.exponents.max_exp - (k - 1)
    if lambda_1 == 0:
        # every minor is a Vandermonde determinant, and EvalSet keeps the
        # points distinct
        _require_subset_count(n, k)
        answer = (True, None)
    elif lambda_1 == 1:
        spec = ConditionSpec(k, gap_order(code.exponents))
        answer = conditions.check_esym(code.ctx, code.points.points, spec)
    else:
        answer = mds_exhaustive(gen, jobs=jobs)
    witness = answer[1]
    if witness is not None:
        sub = matrix_from_rows(code.ctx, [[row[j] for j in witness] for row in gen.entries])
        if rank(sub) == k:
            raise AssertionError(
                f"internal disagreement: witness {list(witness)} has independent columns"
            )
    if cross_check:
        oracle = _mds_by_minors(gen)
        if oracle != answer:
            raise AssertionError(
                f"internal disagreement: MDS scan {answer} != cross-check {oracle}"
            )
    return answer


def non_rs_certificate(
    code: EvalCode, jobs: int = 1, with_min_distance: bool = False, cross_check: bool = False
) -> Certificate:
    """Run the full certification pipeline on one evaluation code.

    The verdict speaks to Reed-Solomon equivalence and is only decisive for
    MDS codes with k <= n/2: `non_rs` when the Schur square is provably too
    big for a generalized Reed-Solomon code, `rs_consistent` when its
    dimension equals 2k - 1 (what an RS code would show), `indeterminate`
    otherwise (k > n/2, or the code failed the MDS scan).  `jobs` only
    affects the elimination route (lambda_1 >= 2); `cross_check` derives
    the MDS answer a second time and ranks every Schur product, and raises
    AssertionError if two answers differ.
    `with_min_distance` walks all codewords, and the MDS answer is checked
    against their weights, else AssertionError: for an MDS code the weight
    distribution must equal the closed form; for a code with a witness and
    a full-rank generator (A_0 = 1), some nonzero codeword vanishes on the
    witness's k columns, so the minimum distance must be at most n - k.  A
    rank-deficient generator (A_0 > 1) is not checked, since its nonzero
    codewords can all be heavier.
    """
    k, n = code.k, code.n
    gen = generator_matrix(code)
    is_mds, witness = _mds_decision(code, gen, jobs, cross_check)
    schur_alt = schur_square_dim_from_exponents(code)
    schur = schur_square_dim(gen, upper=None if cross_check else schur_alt)
    if schur != schur_alt:
        raise AssertionError(
            f"internal disagreement: product-rank {schur} != sumset-rank {schur_alt}"
        )
    if 2 * k > n:
        verdict = VERDICT_INDETERMINATE
    elif is_mds and schur >= 2 * k:
        verdict = VERDICT_NON_RS
    elif schur == 2 * k - 1:
        verdict = VERDICT_RS_CONSISTENT
    else:
        verdict = VERDICT_INDETERMINATE
    min_d: Optional[int] = None
    if with_min_distance:
        min_d, dist = min_distance_bruteforce(code, gen)
        if is_mds:
            closed = mds_weight_distribution(n, k, code.ctx.q)
            if dist != closed:
                raise AssertionError(
                    f"internal disagreement: codeword walk {dist} != MDS closed form {closed}"
                )
        elif dist[0] == 1 and min_d > n - k:
            # full rank: some nonzero message vanishes on the witness columns
            raise AssertionError(
                f"internal disagreement: codeword walk min distance {min_d} > n - k = {n - k}"
                f" though columns {list(witness)} are dependent"
            )
    return Certificate(
        n=n,
        k=k,
        is_mds=is_mds,
        failing_columns=witness,
        schur_dim=schur,
        verdict=verdict,
        min_distance=min_d,
    )

"""Subset conditions on evaluation sets, existence bounds, search.

The central predicate: a point set T satisfies the order-r condition for
dimension k when every k-subset S of T has elementary symmetric value
e_r(S) different from a fixed target delta (default 0).  For r = 1 this
says all k-subset sums avoid delta.  Together with the exponent set
{0,...,k} minus {k-r}, the predicate is exactly equivalent to the
corresponding evaluation code being MDS: a k-subset with e_r(S) = 0 is the
root set of a monic polynomial whose x^(k-r) coefficient vanishes, i.e. of
a codeword supported off S, and conversely.

Every k-subset scan in the package is :func:`first_failing_subset`: a
lexicographic walk that keeps one state per prefix and asks a step
function to extend it or reject it.  Here the step carries the vector
(e_0, ..., e_r) via the recurrence e_j <- e_j + alpha * e_{j-1}, so each
extension costs O(r) field operations.  The certifier walks generator
columns with an elimination step instead.

Both searches grow a set on one candidate stack (``next_free``, ``push``,
``pop``).  Greedy takes the lowest free candidate in counter order and
never backtracks.  Exhaustive search backtracks through the colex tree of
n-subsets of the field, largest point first, so each k-subset of a full
set is tested once, when its lowest point joins.  The condition is
hereditary (a set fails whenever a subset of it fails), so cutting a
branch at its first conflict loses no passing set: the first full set
reached is the first in colex order, and reaching none proves that no
n-subset passes.

One rule, :func:`_by_sums`, routes :func:`check_esym` and both searches,
for the n points checked or sought: r = 1 goes by subset-sum bitsets over
GF(q) when both SUM_TABLE_RATIO * n*k*m*ceil(q/64) <= C(n, k) and
n*k*q <= SUM_TABLE_MAX_BITS; everything else walks.  The bitsets are one
stack, :func:`_sum_stack`, whose rows hold delta minus the sums that the
subsets of the points pushed reach.  The searches push in colex order and
test a candidate by one bit of the top row; :func:`check_esym` pushes its
points last first and reads the walk's witness from the kept rows.  Off
that route, the stack walks the (k-1)-subsets of the points taken from
each candidate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, inf, log10
from typing import Any, Callable, Optional, Sequence, Union

from .errors import InvalidParamsError, TooLargeError
from .field import FieldContext, FieldElement

SUBSET_GUARD = 10**7

#: :func:`_by_sums` takes the bitsets only when C(n, k) >= SUM_TABLE_RATIO *
#: n*k*m*ceil(q/64), their word operations.  On passing sets (medians of 7,
#: Python 3.11) the table won or tied all 344 cases with k >= 2 and
#: C(n, k)/cost in [0.05, 4] over 20 fields up to GF(4001) and GF(2^12); the
#: walk won near 0.001 (GF(1000003) n=10 k=3: 0.22 against 3.3 ms).  The
#: margin is for failing sets, where the walk stops early.  With k = 1 the
#: walk wins by at most 0.05 ms.
SUM_TABLE_RATIO = 1 / 16

#: The bitsets hold up to n*k*q bits; past this many (32 MiB) the walk runs.
#: 45 points of GF(1000003) with k = 5, 2.3e8 bits, took 0.04 s against
#: 1.2 s by the walk and raised the peak RSS by 29 MB.
SUM_TABLE_MAX_BITS = 1 << 28


@dataclass(frozen=True)
class ConditionSpec:
    """Which subsets to test (size k), which e_r, and the forbidden value.

    ``delta`` is a field element; None means zero.
    """

    k: int
    r: int = 1
    delta: Optional[FieldElement] = None

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParamsError("k must be >= 1")
        if not 1 <= self.r <= self.k:
            raise InvalidParamsError("r must satisfy 1 <= r <= k")


def first_failing_subset(
    n: int,
    k: int,
    root: Any,
    extend: Callable[[Any, int, int], Any],
    first: Optional[int] = None,
) -> Optional[tuple[int, ...]]:
    """First k-subset of range(n) that has a rejected prefix, in lex order.

    The walk keeps one state per prefix: ``states[0]`` is `root`, and
    ``states[d + 1] = extend(states[d], d, combo[d])``.  `extend` returns
    None to reject the prefix ``combo[:d + 1]``; the current combination is
    then the first subset in the rejected subtree that the walk has not
    passed, so it is returned.  Advancing position i recomputes only the
    states above it, and a leaf costs one `extend` call.  Returns None when
    no visited subset has a rejected prefix.  With k = 0 there is only the
    empty subset, which has no prefix to reject.

    `first` restricts the walk to the subsets whose lowest index is
    `first`.  These blocks partition the walk in lex order, so walks over
    first = 0, 1, ..., n - k, read in that order, return what one full walk
    returns; worker processes can take one block each.
    """
    lowest = 0 if first is None else first
    if k == 0 or lowest > n - k:
        return None
    combo = list(range(lowest, lowest + k))
    top = [n - k + i for i in range(k)]  # the largest value of each position
    if first is not None:
        top[0] = first
    states = [root] + [None] * (k - 1)
    last = k - 1
    level = 0
    while True:
        for d in range(level, last):
            states[d + 1] = extend(states[d], d, combo[d])
            if states[d + 1] is None:
                return tuple(combo)
        leaf = states[last]
        for c in range(combo[last], top[last] + 1):
            if extend(leaf, last, c) is None:
                combo[last] = c
                return tuple(combo)
        i = last - 1
        while i >= 0 and combo[i] == top[i]:
            i -= 1
        if i < 0:
            return None
        combo[i] += 1
        for j in range(i + 1, k):
            combo[j] = combo[j - 1] + 1
        level = i


def _esym_step(
    ctx: FieldContext,
    points: Sequence[FieldElement],
    r: int,
    delta: FieldElement,
    leaf: int,
) -> Callable:
    """The e_r step of :func:`first_failing_subset` over `points`.

    A state is the vector (e_0, ..., e_r) of the points chosen so far.  A
    step multiplies in one more point, O(r) field operations, skipping each
    e_j whose e_{j-1} is zero (so the entries past the number of points
    chosen cost nothing), and at depth `leaf` computes only e_r and rejects
    when it equals delta.
    """
    add, mul = ctx.add, ctx.mul

    def extend(e: list, depth: int, i: int) -> Optional[list]:
        a = points[i]
        if depth == leaf:
            return None if add(e[r], mul(a, e[r - 1])) == delta else e
        nxt = list(e)
        for j in range(r, 0, -1):
            if nxt[j - 1]:
                nxt[j] = add(nxt[j], mul(a, nxt[j - 1]))
        return nxt

    return extend


def check_esym(
    ctx: FieldContext,
    points: Sequence[FieldElement],
    spec: ConditionSpec,
    guard: int = SUBSET_GUARD,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Test e_r(S) != delta for every k-subset S of the points.

    Returns (True, None) when the condition holds, else (False, w) where w
    is the lexicographically first violating subset, given as indices into
    the point sequence.  With fewer than k points there is nothing to test
    and the condition holds vacuously.
    """
    n, k, r = len(points), spec.k, spec.r
    _require_subset_count(n, k, guard)
    delta = _target(ctx, spec)
    if _by_sums(ctx, n, spec):
        witness = _first_sum_subset(ctx, points, spec)
    else:
        step = _esym_step(ctx, list(points), r, delta, k - 1)
        witness = first_failing_subset(n, k, [1] + [0] * r, step)
    return (witness is None, witness)


def _by_sums(ctx: FieldContext, n: int, spec: ConditionSpec) -> bool:
    """The module docstring's route rule: True sends n points to the bitsets."""
    k, q = spec.k, ctx.q
    return (spec.r == 1 and n * k * q <= SUM_TABLE_MAX_BITS
            and SUM_TABLE_RATIO * n * k * ctx.m * -(-q // 64) <= comb(n, k))


def _first_sum_subset(
    ctx: FieldContext, points: Sequence[FieldElement], spec: ConditionSpec
) -> Optional[tuple[int, ...]]:
    """Lex-first k-subset of the points that sums to delta, or None.

    The points go onto one :func:`_sum_stack` last first, so row n - 1 - i
    covers ``points[i + 1:]``.  The witness opens at the lowest i whose
    point's bit is set in entry k - 1 of that row, just before the point is
    pushed.  Each later index is the lowest one whose point, added to those
    taken, is set in the entry for the number of points still to take.
    """
    n, add = len(points), ctx.add
    _, push, _, rows = _sum_stack(ctx, spec)
    start = None
    for i in range(n - 1, -1, -1):
        v = points[i]
        if rows[-1][-1] >> v & 1:
            start = i
        push(v)
    if start is None:
        return None
    witness, taken = [start], points[start]
    for j in range(spec.k - 2, -1, -1):
        i = witness[-1] + 1
        while not rows[n - 1 - i][j] >> add(taken, points[i]) & 1:
            i += 1
        witness.append(i)
        taken = add(taken, points[i])
    return tuple(witness)


def _require_subset_count(n: int, k: int, guard: int) -> int:
    """C(n, k), the number of k-subsets a scan visits; refuses past `guard`."""
    total = comb(n, k)
    if total > guard:
        raise TooLargeError(f"C({n},{k}) = {total} exceeds subset guard {guard}")
    return total


def _target(ctx: FieldContext, spec: ConditionSpec) -> FieldElement:
    """The forbidden value delta of `spec` in `ctx` (zero by default)."""
    delta = spec.delta if spec.delta is not None else 0
    if not 0 <= delta < ctx.q:
        raise InvalidParamsError(f"delta {delta} is not an element of GF({ctx.q})")
    return delta


# ---------------------------------------------------------------------------
# Existence bounds


@dataclass(frozen=True)
class BoundQuery:
    """Parameters of a counting bound: field size q, length n, dimension k.

    ``max_exp`` is the largest exponent of the intended exponent set (only
    the general variant uses it).  ``variant`` selects which sufficient
    condition to evaluate.  Whether GF(q) exists is the caller's question.
    """

    q: int
    n: int
    k: int
    max_exp: Optional[int] = None
    variant: str = "general"

    def __post_init__(self):
        if self.variant not in ("general", "vieta"):
            raise InvalidParamsError(f"unknown bound variant {self.variant!r}")
        if self.k < 3 or 2 * self.k > self.n:
            raise InvalidParamsError("bounds require 3 <= k <= n/2")
        if self.n > self.q:
            raise InvalidParamsError("need n <= q")
        if self.variant == "general" and (self.max_exp is None or self.max_exp < self.k - 1):
            raise InvalidParamsError("general variant needs max_exp >= k - 1")


def existence_bound(query: BoundQuery) -> tuple[bool, int, int]:
    """Evaluate a sufficient counting condition for a non-RS MDS code to exist.

    general: C(q, n) > ((q^k - 1)/(q - 1)) * C(max_exp, k) * C(q - k, n - k)
    vieta:   C(q, n) > C(q, k - 1) * C(q - k, n - k)

    Returns (holds, lhs, rhs) with exact integer sides.
    """
    q, n, k = query.q, query.n, query.k
    lhs = comb(q, n)
    if query.variant == "general":  # q^k is not built when C(max_exp, k) = 0
        c = comb(query.max_exp, k)
        rhs = c and ((q**k - 1) // (q - 1)) * c * comb(q - k, n - k)
    else:
        rhs = comb(q, k - 1) * comb(q - k, n - k)
    return (lhs > rhs, lhs, rhs)


def bound_log10(query: BoundQuery) -> float:
    """A lower bound on log10 of the larger side of :func:`existence_bound`,
    from C(a, b) >= (a/c)^c, c = min(b, a - b), and (q^k - 1)/(q - 1) >= q^(k-1).
    Where it is L, no nonzero factor of a side exceeds 10^(2.5 L + 1)."""

    def lcomb(a: int, b: int) -> float:
        c = min(b, a - b)  # C(a, b) is 0 for c < 0 and 1 for c = 0
        return -inf if c < 0 else 0.0 if c == 0 else c * (log10(a) - log10(c))

    q, n, k = query.q, query.n, query.k
    if query.variant == "general":
        rhs = (k - 1) * log10(q) + lcomb(query.max_exp, k)
    else:
        rhs = lcomb(q, k - 1)
    return max(lcomb(q, n), rhs + lcomb(q - k, n - k))


# ---------------------------------------------------------------------------
# Search strategies


@dataclass(frozen=True)
class ExhaustiveSearch:
    """Backtrack through the n-subsets of the field in colex order.

    Returns the first passing set in that order; None is a proof that no
    n-subset of the field passes.  `guard` caps both C(q, n), the sets
    searched, and C(n, k), the subsets of one set.
    """

    guard: int = SUBSET_GUARD


@dataclass(frozen=True)
class RandomSearch:
    """Draw candidate subsets from a dedicated seeded generator."""

    seed: int
    max_attempts: int = 1000

    def __post_init__(self):
        if self.max_attempts < 1:
            raise InvalidParamsError("max_attempts must be >= 1")


@dataclass(frozen=True)
class GreedySearch:
    """Grow a set through the field in counter order, never backtracking."""


SearchStrategy = Union[ExhaustiveSearch, RandomSearch, GreedySearch]


def _candidate_stack(ctx: FieldContext, n: int, spec: ConditionSpec) -> tuple[Callable, ...]:
    """(next_free, push, pop) of a search for n points, by :func:`_by_sums`:
    ``next_free(v, limit)`` is the lowest candidate from v on that closes no
    failing k-subset with the points pushed, or at least limit if none is
    below it; ``push`` and ``pop`` add and drop a point."""
    if _by_sums(ctx, n, spec):
        return _sum_stack(ctx, spec)[:3]
    return _walk_stack(ctx, spec)


def _walk_stack(ctx: FieldContext, spec: ConditionSpec) -> tuple[Callable, ...]:
    """(next_free, push, pop) by one walk per candidate over the
    (k-1)-subsets of the points pushed, from the e-vector of {candidate};
    with k = 1 that walk is empty and {candidate} is the subset."""
    k, r, delta = spec.k, spec.r, _target(ctx, spec)
    chosen: list[FieldElement] = []
    step = _esym_step(ctx, chosen, r, delta, k - 2)

    def conflicts(cand: FieldElement) -> bool:
        root = [1, cand] + [0] * (r - 1)
        if k == 1:
            return root[r] == delta
        return first_failing_subset(len(chosen), k - 1, root, step) is not None

    def next_free(v: int, limit: int) -> int:
        while v < limit and conflicts(v):
            v += 1
        return v

    return next_free, chosen.append, chosen.pop


def _sum_stack(ctx: FieldContext, spec: ConditionSpec) -> tuple[Any, ...]:
    """(next_free, push, pop, rows) for r = 1 on a stack of subset-sum rows.

    Entry j < k of row d is the bitset of delta - s over the sums s of the
    j-subsets of the first d points pushed (bit v is the element with
    counter index v).  A candidate closes a k-subset that sums to delta
    exactly when its bit is set in entry k - 1 of the top row (with k = 1
    that entry is {delta}), so next_free is the lowest clear bit from v on.
    ``push(v)`` moves entry j - 1 by -v into entry j: adding -v turns digit
    i of every index by c = -v_i mod p, so each block of p^(i+1) bits
    rotates up by c * p^i bits.  The mask of a rotation holds the low
    block - c * p^i bits of every block; it is built by doubling, once per
    (block, shift).  The moves of v are kept, since the backtrack pushes
    each value many times; pop drops the top row.
    """
    p, q = ctx.p, ctx.q
    masks: dict[tuple[int, int], int] = {}
    moves: dict[int, list] = {}
    rows = [[1 << _target(ctx, spec)] + [0] * (spec.k - 1)]

    def rotations(v: int) -> list:
        rots, size = [], 1
        while size < q:
            block, c = size * p, (-(v // size) % p) * size
            if c:
                if (block, c) not in masks:
                    low, width = (1 << (block - c)) - 1, block
                    while width < q:
                        low |= low << width
                        width *= 2
                    masks[block, c] = low
                rots.append((block, c, masks[block, c]))
            size = block
        return rots

    def next_free(v: int, limit: int) -> int:
        free = ~rows[-1][-1] >> v
        return v + (free & -free).bit_length() - 1

    def push(v: int) -> None:
        rots = moves.get(v)
        if rots is None:
            rots = moves[v] = rotations(v)
        row = rows[-1]
        new = row[:1]
        for old, bits in zip(row[1:], row):
            for block, c, low in rots:
                lo = bits & low
                bits = (lo << c) | ((bits ^ lo) >> (block - c))
            new.append(old | bits)
        rows.append(new)

    return next_free, push, rows.pop, rows


def search_eval_set(
    ctx: FieldContext,
    n: int,
    spec: ConditionSpec,
    strategy: SearchStrategy,
) -> Optional[tuple[FieldElement, ...]]:
    """Find n distinct field elements satisfying the subset condition.

    Deterministic given the strategy parameters.  Returns None when the
    strategy exhausts its budget without a hit (for the exhaustive strategy
    that is a proof that no such set exists).
    """
    q = ctx.q
    if not 1 <= n <= q:
        raise InvalidParamsError(f"need 1 <= n <= q = {q}")
    ctx.elements()  # refuses a field past the enumeration guard

    if isinstance(strategy, ExhaustiveSearch):
        _require_subset_count(q, n, strategy.guard)  # the sets searched
        _require_subset_count(n, spec.k, strategy.guard)
        next_free, push, pop = _candidate_stack(ctx, n, spec)
        values: list[int] = []  # the colex backtrack of the module docstring
        v = n - 1  # the lowest value that leaves room for the points below it
        while True:
            limit = values[-1] if values else q
            v = next_free(v, limit)
            if v < limit:
                push(v)
                values.append(v)
                if len(values) == n:
                    return tuple(reversed(values))
                v = n - 1 - len(values)
            elif values:
                pop()
                v = values.pop() + 1
            else:
                return None

    if isinstance(strategy, RandomSearch):
        rng = random.Random(strategy.seed)
        for _ in range(strategy.max_attempts):
            pts = tuple(sorted(rng.sample(range(q), n)))
            ok, _ = check_esym(ctx, pts, spec)
            if ok:
                return pts
        return None

    if isinstance(strategy, GreedySearch):
        next_free, push, _ = _candidate_stack(ctx, n, spec)
        values = []
        while len(values) < n:
            values.append(next_free(values[-1] + 1 if values else 0, q))
            if values[-1] >= q:
                return None
            push(values[-1])
        return tuple(values)

    raise InvalidParamsError(f"unknown search strategy {strategy!r}")

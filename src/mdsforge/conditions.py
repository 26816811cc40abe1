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

Both searches grow a set on one candidate stack (``next_free``,
``lowest``, ``push``, ``pop``).  Greedy takes the lowest free candidate in
counter order and never backtracks.  Exhaustive search backtracks through
the colex tree of n-subsets of the field, largest point first, so each
k-subset of a full set is tested once, when its lowest point joins.  The
condition is hereditary (a set fails whenever a subset of it fails), so
cutting a branch at its first conflict loses no passing set.  Nor does
the bound: a point that still needs j points below it starts at
``lowest(limit, j)``, the lowest candidate with j free candidates under
it, since every point that joins later must be free now and the free set
only shrinks as points join.  So the first full set reached is the first
in colex order, and reaching none proves that no n-subset passes.  The
r = 1 stack reads the free set off its top row; the walk keeps none and
its bound is the trivial one, j.

With delta = 0 a second backtrack, :func:`_colex_search` through 1, runs
beside it, one push each in turn: 1 is pushed first and never offered
again, so it walks only the n-sets through 1.  That is enough for `none`:
e_r(aS) = a^r e_r(S), so for any nonzero s of a passing n-set S, S/s is a
passing set through 1.  If it ends empty, no n-set passes; if it finds a
set, it stops and the colex search goes on alone, since only the colex
search names the first set in colex order.  The pair makes at most
twice the pushes of the cheaper search alone, plus one.  With
delta != 0 the scaling moves e_r off delta, so a set through 1 stands for
no other set and the colex search runs alone.

One rule, :func:`_by_sums`, routes :func:`check_esym` and both searches,
for the n points checked or sought: r = 1 goes by subset-sum bitsets over
GF(q) when both SUM_TABLE_RATIO * n*k*m*ceil(q/64) <= C(n, k) and
n*k*q <= SUM_TABLE_MAX_BITS; everything else walks.  The bitsets are one
stack, :func:`_sum_stack`, whose rows hold delta minus the sums that the
subsets of the points pushed reach.  The searches push in colex order and
test a candidate by one bit of the top row; :func:`check_esym` pushes its
points last first and reads the walk's witness from the kept rows.  Off
that route, a search walks block 0 of :func:`check_esym`'s walk over the
candidate followed by the points taken: the k-subsets through it.

Every scan refuses past the subset guard: C(n, k) for the k-subsets of n
points, and C(q, n) for the sets an exhaustive search tries.  Random search
meets it in each :func:`check_esym`; greedy has none.  A guard reads
MDSFORGE_GUARD, through :func:`guard_in_force`, when it is checked.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from math import comb, inf, log10
from typing import Any, Callable, Generator, Optional, Sequence, Union

from .errors import SHOWN_BITS, FormatError, InvalidParamsError, TooLargeError, shown
from .field import TABLE_CAP, FieldContext, FieldElement

SUBSET_GUARD = 10**7


def guard_in_force(default: int) -> int:
    """MDSFORGE_GUARD when it is set, else `default`: the one place the
    package reads the environment, at the moment a guard is checked."""
    raw = os.environ.get("MDSFORGE_GUARD")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise FormatError(f"MDSFORGE_GUARD must be an integer, got {raw!r}")
    if value < 1:
        raise FormatError("MDSFORGE_GUARD must be positive")
    return value


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
    ctx: FieldContext, points: Sequence[FieldElement], spec: ConditionSpec
) -> tuple[list, Callable]:
    """(root, extend) of the e_r walk of :func:`first_failing_subset`.

    A state is the vector (e_0, ..., e_r) of the `points` chosen so far, and
    the root is that of the empty set.  A step multiplies in one more
    point, O(r) field operations, skipping each e_j whose e_{j-1} is zero
    (so the entries past the number of points chosen cost nothing), and at
    the leaf, depth k - 1, computes only e_r and rejects when it equals
    delta.
    """
    add, mul = ctx.add, ctx.mul
    r, leaf, delta = spec.r, spec.k - 1, _target(ctx, spec)

    def extend(e: list, depth: int, i: int) -> Optional[list]:
        a = points[i]
        if depth == leaf:
            return None if add(e[r], mul(a, e[r - 1])) == delta else e
        nxt = list(e)
        for j in range(r, 0, -1):
            if nxt[j - 1]:
                nxt[j] = add(nxt[j], mul(a, nxt[j - 1]))
        return nxt

    return [1] + [0] * r, extend


def check_esym(
    ctx: FieldContext, points: Sequence[FieldElement], spec: ConditionSpec
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Test e_r(S) != delta for every k-subset S of the points.

    Returns (True, None) when the condition holds, else (False, w) where w
    is the lexicographically first violating subset, given as indices into
    the point sequence.  With fewer than k points there is nothing to test
    and the condition holds vacuously.
    """
    n = len(points)
    _require_subset_count(n, spec.k)
    if _by_sums(ctx, n, spec):
        witness = _first_sum_subset(ctx, points, spec)
    else:
        witness = first_failing_subset(n, spec.k, *_esym_step(ctx, points, spec))
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
    _, _, push, _, rows = _sum_stack(ctx, spec)
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


def _require_subset_count(n: int, k: int) -> int:
    """C(n, k), the number of k-subsets a scan visits; refuses past the guard in force."""
    guard = guard_in_force(SUBSET_GUARD)
    j = min(k, n - k)  # C(n, k) >= 2^j: a long count past the guard's bits is not built
    total = comb(n, k) if j < guard.bit_length() or j * n.bit_length() <= SHOWN_BITS else None
    if total is None or total > guard:
        raise TooLargeError(f"{shown(f'C({n},{k})', total)} exceeds subset guard {guard}")
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
    n-subset of the field passes.  With delta = 0 the proof may come from
    the sets through 1 alone, since e_r(S/s) = s^-r e_r(S) maps every
    passing set S onto one through 1; with delta != 0 it may not.  Only the
    colex search names a set.  The subset guard in force caps both C(q, n),
    the sets searched, and C(n, k), the subsets of one set.
    """


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


def _candidate_stack(
    ctx: FieldContext, n: int, spec: ConditionSpec, skip: Optional[int] = None
) -> tuple[Callable, ...]:
    """(next_free, lowest, push, pop) of a search for n points, by
    :func:`_by_sums`: ``next_free(v, limit)`` is the lowest candidate from v
    on that closes no failing k-subset with the points pushed, or at least
    limit if none is below it; no candidate below ``lowest(limit, j)``
    has j free candidates under it; ``push`` and ``pop`` add and drop a
    point.  The value `skip` is never a candidate."""
    if _by_sums(ctx, n, spec):
        return _sum_stack(ctx, spec, skip)[:4]
    return _walk_stack(ctx, spec, skip)


def _walk_stack(
    ctx: FieldContext, spec: ConditionSpec, skip: Optional[int] = None
) -> tuple[Callable, ...]:
    """(next_free, lowest, push, pop) by one e_r walk per candidate.  The
    candidate sits at index 0 of the point list, the points pushed follow
    it, and the k-subsets through the candidate are block 0 of
    :func:`check_esym`'s walk over that list.  No free set is kept, so
    ``lowest(limit, j)`` is j, the lowest candidate with j values below,
    or j + 1 once `skip` is among those values."""
    points: list[FieldElement] = [0]
    root, step = _esym_step(ctx, points, spec)

    def conflicts(cand: FieldElement) -> bool:
        points[0] = cand
        return first_failing_subset(len(points), spec.k, root, step, 0) is not None

    def next_free(v: int, limit: int) -> int:
        while v < limit and (v == skip or conflicts(v)):
            v += 1
        return v

    def lowest(limit: int, j: int) -> int:
        return j if skip is None or j < skip else j + 1

    return next_free, lowest, points.append, points.pop


#: q -> (masks, moves) of :func:`_sum_stack`, for fields of at most TABLE_CAP elements.
_ROTATIONS: dict[int, tuple[dict, dict]] = {}


def _sum_stack(
    ctx: FieldContext, spec: ConditionSpec, skip: Optional[int] = None
) -> tuple[Any, ...]:
    """(next_free, lowest, push, pop, rows) for r = 1 on a stack of
    subset-sum rows.

    Entry j < k of row d is the bitset of delta - s over the sums s of the
    j-subsets of the first d points pushed (bit v is the element with
    counter index v).  A candidate closes a k-subset that sums to delta
    exactly when its bit is set in entry k - 1 of the top row (with k = 1
    that entry is {delta}), so next_free is the lowest clear bit from v on,
    and lowest(limit, j) clears the j lowest clear bits below limit and
    returns the next one.  Entry k - 1 is never moved into another entry,
    so a `skip` bit set in it at the bottom row stays set in every row.
    ``push(v)`` moves entry j - 1 by -v into entry j: adding -v turns digit
    i of every index by c = -v_i mod p, so each block of p^(i+1) bits
    rotates up by c * p^i bits.  The mask of a rotation holds the low
    block - c * p^i bits of every block; it is built by doubling, once per
    (block, shift).  The moves of v are kept, since the backtrack pushes
    each value many times; pop drops the top row.  A rotation depends on
    p, q and v alone, so for q <= TABLE_CAP masks and moves stay in
    :data:`_ROTATIONS` for the life of the process, under 1 MB per field
    (0.55 MB for GF(2^10) with every v pushed); a larger field keeps them
    for one call.
    """
    p, q = ctx.p, ctx.q
    masks, moves = _ROTATIONS.setdefault(q, ({}, {})) if q <= TABLE_CAP else ({}, {})
    rows = [[1 << _target(ctx, spec)] + [0] * (spec.k - 1)]
    if skip is not None:
        rows[0][-1] |= 1 << skip

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

    def lowest(limit: int, j: int) -> int:
        free = ~rows[-1][-1] & ((1 << limit) - 1)
        if free.bit_count() <= j:
            return limit
        for _ in range(j):
            free &= free - 1
        return (free & -free).bit_length() - 1

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

    return next_free, lowest, push, rows.pop, rows


def _colex_search(
    ctx: FieldContext, n: int, spec: ConditionSpec, through: Optional[int] = None
) -> Generator[None, None, Optional[tuple[int, ...]]]:
    """The colex backtrack of the module docstring, one push per step: a
    generator that yields after each push but the last and returns the
    first passing n-set in colex order, or None when no n-set passes.
    With `through`, that point is pushed first, untested, and never offered
    again, so the search covers the n-sets through it alone; it must pass
    on its own, as 1 does when delta = 0."""
    q = ctx.q
    next_free, lowest, push, pop = _candidate_stack(ctx, n, spec, through)
    base = () if through is None else (through,)
    for v in base:
        push(v)
        yield
    need = n - len(base)  # the points the backtrack takes
    if need == 0:
        return base
    values: list[int] = []
    v = lowest(q, need - 1)
    while True:
        limit = values[-1] if values else q
        v = next_free(v, limit)
        if v < limit:
            push(v)
            values.append(v)
            if len(values) == need:
                return tuple(sorted((*base, *values)))
            yield
            v = lowest(v, need - 1 - len(values))
        elif values:
            pop()
            v = values.pop() + 1
        else:
            return None


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
        _require_subset_count(q, n)  # the sets searched
        _require_subset_count(n, spec.k)
        colex, through_1 = _colex_search(ctx, n, spec), None
        if _target(ctx, spec) == 0:  # the sets through 1 settle `none`
            through_1 = _colex_search(ctx, n, spec, through=1)
        while True:  # one push each, in turn
            try:
                next(colex)
            except StopIteration as end:
                return end.value
            if through_1 is not None:
                try:
                    next(through_1)
                except StopIteration as end:
                    if end.value is None:
                        return None
                    through_1 = None  # only the colex search names the set

    if isinstance(strategy, RandomSearch):
        rng = random.Random(strategy.seed)
        for _ in range(strategy.max_attempts):
            pts = tuple(sorted(rng.sample(range(q), n)))
            ok, _ = check_esym(ctx, pts, spec)
            if ok:
                return pts
        return None

    if isinstance(strategy, GreedySearch):
        next_free, _, push, _ = _candidate_stack(ctx, n, spec)
        values = []
        while len(values) < n:
            values.append(next_free(values[-1] + 1 if values else 0, q))
            if values[-1] >= q:
                return None
            push(values[-1])
        return tuple(values)

    raise InvalidParamsError(f"unknown search strategy {strategy!r}")

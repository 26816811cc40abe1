"""Exact dense linear algebra over a FieldContext.

Entries are field elements as the context holds them, counter indices, so
a zero entry is the int 0 and is skipped without a field operation.

Everything here is built on one elimination step, :func:`extend_basis`,
which inserts a row into an echelon basis (its pivot is its first nonzero
entry once reduced), and on :func:`null_vector`, which back-substitutes
that basis for one null vector, listed sparsely.  Rank is the length of
the basis of all rows.  The certifier's subset walk, which takes two left
null vectors of each (k-2)-column prefix, and the erasure decoder use the
same two functions, so there is one elimination routine in the package.
Ranks and null vectors come out identical on every run and under any
worker partitioning upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvalidParamsError
from .field import FieldContext, FieldElement


@dataclass(frozen=True)
class MatrixFq:
    """Immutable row-major matrix over one field.

    ``entries[i][j]`` is the element in row i, column j.  Zero-row matrices
    are allowed (an empty null-space basis is one); zero-column ones are
    not.
    """

    ctx: FieldContext
    entries: tuple[tuple[FieldElement, ...], ...]

    def __post_init__(self):
        if self.entries:
            w = len(self.entries[0])
            if w == 0 or any(len(r) != w for r in self.entries):
                raise InvalidParamsError("rows must be nonempty and equal length")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def matrix_from_rows(ctx: FieldContext, rows: Sequence[Sequence[FieldElement]]) -> MatrixFq:
    return MatrixFq(ctx, tuple(tuple(r) for r in rows))


def extend_basis(
    ctx: FieldContext, basis: list, v: Sequence[FieldElement]
) -> Optional[list]:
    """Echelon basis of span(basis + [v]), or None if v is in the span.

    `basis` is a list of (pivot, row) pairs in insertion order: each row is
    1 at its pivot, 0 at the pivots of earlier rows and 0 left of its pivot.
    Reducing v against the rows in that order therefore clears every pivot,
    and the first nonzero entry left becomes the new pivot.  Earlier rows are
    not reduced against the new one.  `basis` is not modified.
    """
    for p, b in basis:
        f = v[p]
        if f:
            v = ctx.add_multiple(v, ctx.neg(f), b)
    piv = next((i for i, x in enumerate(v) if x), None)
    if piv is None:
        return None
    # the row scaled to 1 at its pivot
    return basis + [(piv, ctx.add_multiple([0] * len(v), ctx.inv(v[piv]), v))]


def null_vector(ctx: FieldContext, basis: list, cols: int) -> tuple[int, list]:
    """One right null vector of an :func:`extend_basis` basis of width `cols`.

    Returns (f, pairs), f the lowest non-pivot column (the basis must leave
    one), for the vector that is 1 at f and 0 at the other non-pivot
    columns; `pairs` lists its nonzero pivot entries as (pivot, value),
    found by back-substitution in reverse insertion order.  That vector is
    unique, so it depends only on the row space, not on the insertion order.
    """
    mul, sub = ctx.mul, ctx.sub
    pivots = {p for p, _ in basis}
    f = next(c for c in range(cols) if c not in pivots)
    pairs: list = []
    for p, b in reversed(basis):
        # the row is 0 left of p and at earlier pivots, so only f and the
        # nonzero pivot entries solved so far contribute
        acc = ctx.neg(b[f])
        for c, xc in pairs:
            if b[c]:
                acc = sub(acc, mul(b[c], xc))
        if acc:
            pairs.append((p, acc))
    return f, pairs


def rank(mat: MatrixFq) -> int:
    basis: list = []
    for row in mat.entries:
        basis = extend_basis(mat.ctx, basis, row) or basis
    return len(basis)

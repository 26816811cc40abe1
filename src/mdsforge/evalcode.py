"""Evaluation codes: monomial spaces evaluated on a set of field points.

A code is determined by a field, an ordered set of distinct evaluation
points and a strictly increasing exponent set E.  Codewords are the
evaluations (f(t) for t in points) of polynomials in span{x^e : e in E}.
Row j of the generator matrix is the monomial x^{E[j]} evaluated across the
points, with the convention 0^0 = 1 so the exponent 0 always contributes
the all-ones row.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Optional, Sequence

from .errors import InvalidParamsError
from .field import FieldContext, FieldElement
from .matrix import MatrixFq, matrix_from_rows


@dataclass(frozen=True)
class ExponentSet:
    """Strictly increasing tuple of non-negative monomial exponents."""

    exps: tuple[int, ...]

    def __post_init__(self):
        e = self.exps
        if not e:
            raise InvalidParamsError("exponent set must be nonempty")
        if e[0] < 0 or any(a >= b for a, b in zip(e, e[1:])):
            raise InvalidParamsError("exponents must be strictly increasing and >= 0")

    @property
    def k(self) -> int:
        return len(self.exps)

    @property
    def max_exp(self) -> int:
        return self.exps[-1]


@dataclass(frozen=True)
class EvalSet:
    """Ordered tuple of pairwise-distinct evaluation points."""

    points: tuple[FieldElement, ...]

    def __post_init__(self):
        if not self.points:
            raise InvalidParamsError("evaluation set must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise InvalidParamsError("evaluation points must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class EvalCode:
    """An evaluation code plus provenance (family id and its parameters)."""

    ctx: FieldContext
    points: EvalSet
    exponents: ExponentSet
    family: str = "custom"
    params: Mapping = dc_field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def k(self) -> int:
        return self.exponents.k


def generator_matrix(code: EvalCode) -> MatrixFq:
    """k x n matrix whose row j evaluates the monomial x^{E[j]}."""
    ctx = code.ctx
    rows = []
    for e in code.exponents.exps:
        rows.append([ctx.pow(t, e) for t in code.points.points])
    return matrix_from_rows(ctx, rows)


def encode(code: EvalCode, message: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """Evaluate the message polynomial sum(m_j * x^{E[j]}) at every point."""
    ctx = code.ctx
    if len(message) != code.k:
        raise InvalidParamsError(f"message must have length {code.k}")
    out = []
    for t in code.points.points:
        acc = 0
        for coeff, e in zip(message, code.exponents.exps):
            acc = ctx.add(acc, ctx.mul(coeff, ctx.pow(t, e)))
        out.append(acc)
    return tuple(out)


def sumset(exponents: ExponentSet) -> ExponentSet:
    """The set {a + b : a, b in E} (a = b allowed), sorted increasing."""
    e = exponents.exps
    return ExponentSet(tuple(sorted({a + b for a in e for b in e})))


def gap_exponents(k: int, r: int) -> ExponentSet:
    """{0, ..., k} with k - r removed: k exponents, max k; inverse of gap_order."""
    return ExponentSet(tuple(e for e in range(k + 1) if e != k - r))


def gap_order(exponents: ExponentSet) -> Optional[int]:
    """r when the exponents are {0..k} minus {k - r} (so 1 <= r <= k), else None.

    For these sets the k x k minor on points S factors as the Vandermonde
    determinant of S times e_r(S), so MDS-ness is the e_r subset condition.
    """
    e = exponents.exps
    k = len(e)
    if e[-1] != k:
        return None
    return k - next(i for i, x in enumerate(e) if x != i)

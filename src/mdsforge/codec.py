"""Erasure-only encoding and decoding for evaluation codes.

A received word is the codeword with some positions replaced by None (the
erasure marker).  Decoding does not assume the code is MDS.  It inserts the
survivors' equations, in position order, into one echelon basis until k of
them are independent.  That basis's null vector (:func:`matrix.null_vector`)
is 1 at the symbol column, and the message is its pivot entries, negated.
An equation that contradicts the ones before it, or fewer than k
independent equations, is reported.  The message is then re-encoded from
the same generator rows and must match every surviving symbol, so symbol
corruption is reported rather than silently absorbed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import InconsistentError, InvalidParamsError, TooManyErasuresError
from .evalcode import EvalCode, combine_rows, generator_matrix
from .field import FieldElement
from .matrix import extend_basis, null_vector

ERASED = None

ReceivedWord = Sequence[Optional[FieldElement]]


def decode_erasures(code: EvalCode, received: ReceivedWord) -> tuple[FieldElement, ...]:
    """Recover the message from a partially erased codeword.

    Raises TooManyErasuresError past n - k erasures or when the survivors'
    columns have rank below k, and InconsistentError when the survivors fit
    no codeword of the code.
    """
    ctx = code.ctx
    n, k = code.n, code.k
    if len(received) != n:
        raise InvalidParamsError(f"received word must have length {n}")
    survivors = [i for i, s in enumerate(received) if s is not None]
    erased = n - len(survivors)
    if erased > n - k:
        raise TooManyErasuresError(f"{erased} erasures exceed correctable limit {n - k}")
    gen = generator_matrix(code).entries
    basis: list = []
    for j in survivors:
        # the equation column_j . message = r_j as the row [column_j | r_j]
        grown = extend_basis(ctx, basis, [row[j] for row in gen] + [received[j]])
        if grown and grown[-1][0] == k:  # reduced to 0 = c with c != 0
            raise InconsistentError(
                f"surviving symbol at position {j} fits no codeword with the symbols before it"
            )
        basis = grown or basis
        if len(basis) == k:
            break
    if len(basis) < k:
        raise TooManyErasuresError(
            f"the surviving symbols have rank {len(basis)} < k = {k}: "
            "the message is not determined"
        )
    # every column of A is a pivot, so the null vector of [A | b] is (x, 1)
    # with A x = -b, and x is 0 off its listed pivot entries
    x = dict(null_vector(ctx, basis, k + 1)[1])
    message = tuple(ctx.neg(x.get(i, 0)) for i in range(k))
    reencoded = combine_rows(ctx, gen, message)
    for i in survivors:
        if reencoded[i] != received[i]:
            raise InconsistentError(
                f"surviving symbol at position {i} disagrees with the decoded codeword"
            )
    return message

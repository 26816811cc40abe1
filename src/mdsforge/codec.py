"""Erasure-only encoding and decoding for evaluation codes.

A received word is the codeword with some positions replaced by None (the
erasure marker).  Decoding solves the k x k system on the first k surviving
coordinates -- any k suffice once the code is MDS -- then re-encodes and
insists the result matches every surviving symbol, so symbol corruption is
reported rather than silently absorbed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import InconsistentError, InvalidParamsError, TooManyErasuresError
from .evalcode import EvalCode, encode, generator_matrix
from .field import FieldElement
from .matrix import matrix_from_rows, solve_square

ERASED = None

ReceivedWord = Sequence[Optional[FieldElement]]


def decode_erasures(code: EvalCode, received: ReceivedWord) -> tuple[FieldElement, ...]:
    """Recover the message from a partially erased codeword.

    Raises TooManyErasuresError past n - k erasures and InconsistentError
    when the survivors fit no codeword of the code.
    """
    ctx = code.ctx
    n, k = code.n, code.k
    if len(received) != n:
        raise InvalidParamsError(f"received word must have length {n}")
    survivors = [i for i, s in enumerate(received) if s is not None]
    erased = n - len(survivors)
    if erased > n - k:
        raise TooManyErasuresError(f"{erased} erasures exceed correctable limit {n - k}")
    gen = generator_matrix(code)
    use = survivors[:k]
    system = matrix_from_rows(ctx, [tuple(gen.entries[i][j] for i in range(k)) for j in use])
    message = solve_square(system, [received[j] for j in use])
    reencoded = encode(code, message)
    for i in survivors:
        if reencoded[i] != received[i]:
            raise InconsistentError(
                f"surviving symbol at position {i} disagrees with the decoded codeword"
            )
    return message

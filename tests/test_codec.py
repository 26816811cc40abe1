import itertools
import random

import pytest

from mdsforge.codec import ERASED, decode_erasures
from mdsforge.errors import (
    InconsistentError,
    InvalidParamsError,
    TooManyErasuresError,
)
from mdsforge.evalcode import EvalCode, EvalSet, ExponentSet, encode
from mdsforge.families import cor44
from mdsforge.field import make_field


def test_roundtrip_no_erasures():
    code = cor44(13, 3, 6)
    ctx = code.ctx
    msg = (ctx.scalar(1), ctx.scalar(0), ctx.scalar(12))
    word = encode(code, msg)
    assert decode_erasures(code, list(word)) == msg


def test_roundtrip_every_erasure_pattern():
    code = cor44(13, 3, 6)
    ctx = code.ctx
    rng = random.Random(77)
    for positions in itertools.combinations(range(6), 3):
        for _ in range(5):
            msg = tuple(ctx.scalar(rng.randrange(13)) for _ in range(3))
            word = list(encode(code, msg))
            for pos in positions:
                word[pos] = ERASED
            assert decode_erasures(code, word) == msg


def test_too_many_erasures():
    code = cor44(13, 3, 6)
    ctx = code.ctx
    word = list(encode(code, (1, 0, 1)))
    for pos in (0, 1, 2, 3):  # n - k + 1 = 4 erasures
        word[pos] = ERASED
    with pytest.raises(TooManyErasuresError):
        decode_erasures(code, word)


def test_corrupted_survivor_detected():
    # corruption outside the k positions used for solving must still be caught
    code = cor44(13, 3, 6)
    ctx = code.ctx
    word = list(encode(code, (1, 0, 1)))
    word[1] = ERASED  # survivors: 0, 2, 3, 4, 5; solver uses 0, 2, 3
    word[5] = ctx.add(word[5], 1)
    with pytest.raises(InconsistentError):
        decode_erasures(code, word)


def test_wrong_received_length():
    code = cor44(13, 3, 6)
    with pytest.raises(InvalidParamsError, match="received word must have length 6"):
        decode_erasures(code, [ERASED] * 5)


def test_decode_uses_any_k_survivors():
    # erase a non-prefix pattern so the first k survivors are scattered
    code = cor44(13, 3, 6)
    ctx = code.ctx
    msg = (ctx.scalar(7), ctx.scalar(2), ctx.scalar(9))
    word = list(encode(code, msg))
    word[0] = ERASED
    word[2] = ERASED
    word[4] = ERASED
    assert decode_erasures(code, word) == msg


def test_extension_field_roundtrip():
    ctx = make_field(2, 4)
    pts = tuple(ctx.from_int(v) for v in (0, 4, 5, 6, 7, 8))
    code = EvalCode(ctx, EvalSet(pts), ExponentSet((0, 1, 3)))
    rng = random.Random(13)
    for _ in range(20):
        msg = tuple(ctx.from_int(rng.randrange(16)) for _ in range(3))
        word = list(encode(code, msg))
        for pos in rng.sample(range(6), 3):
            word[pos] = ERASED
        assert decode_erasures(code, word) == msg

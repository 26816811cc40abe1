import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mdsforge import codec, evalcode
from mdsforge.codec import ERASED, decode_erasures
from mdsforge.errors import (
    InconsistentError,
    InvalidParamsError,
    TooManyErasuresError,
)
from mdsforge.evalcode import EvalCode, EvalSet, ExponentSet, encode
from mdsforge.families import cor44
from mdsforge.field import make_field
from oracles import scalar


def test_roundtrip_no_erasures():
    code = cor44(13, 3, 6)
    ctx = code.ctx
    msg = (scalar(ctx, 1), scalar(ctx, 0), scalar(ctx, 12))
    word = encode(code, msg)
    assert decode_erasures(code, list(word)) == msg


def test_roundtrip_every_erasure_pattern():
    code = cor44(13, 3, 6)
    ctx = code.ctx
    rng = random.Random(77)
    for positions in itertools.combinations(range(6), 3):
        for _ in range(5):
            msg = tuple(scalar(ctx, rng.randrange(13)) for _ in range(3))
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


def test_decode_builds_the_generator_once(monkeypatch):
    # the re-encoding reads the rows the solver built; a corrupted survivor
    # past the solving positions is still reported
    built = []
    build = evalcode.generator_matrix

    def counting(code):
        built.append(code)
        return build(code)

    monkeypatch.setattr(codec, "generator_matrix", counting)
    monkeypatch.setattr(evalcode, "generator_matrix", counting)
    code = cor44(13, 3, 6)
    word = list(encode(code, (1, 0, 1)))
    built.clear()
    assert decode_erasures(code, word) == (1, 0, 1)
    assert len(built) == 1
    word[1] = ERASED
    word[5] = code.ctx.add(word[5], 1)
    with pytest.raises(InconsistentError, match="position 5 disagrees"):
        decode_erasures(code, word)
    assert len(built) == 2


def test_wrong_received_length():
    code = cor44(13, 3, 6)
    with pytest.raises(InvalidParamsError, match="received word must have length 6"):
        decode_erasures(code, [ERASED] * 5)


def test_decode_uses_any_k_survivors():
    # erase a non-prefix pattern so the first k survivors are scattered
    code = cor44(13, 3, 6)
    ctx = code.ctx
    msg = (scalar(ctx, 7), scalar(ctx, 2), scalar(ctx, 9))
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


#: fields for the decode oracle: prime and extension, odd and even characteristic
ORACLE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


@st.composite
def erased_words(draw):
    """(code with any exponent set, received word) with q^k <= 400: random
    erasures, and one corrupted survivor in about 40% of the words."""
    ctx = make_field(*draw(st.sampled_from(ORACLE_FIELDS)))
    q = ctx.q
    k = draw(st.integers(1, min(q, max(e for e in range(1, 9) if q**e <= 400))))
    n = draw(st.integers(k, q))
    points = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n, unique=True))
    exponents = draw(st.lists(st.integers(0, 2 * q), min_size=k, max_size=k, unique=True))
    code = EvalCode(ctx, EvalSet(tuple(points)), ExponentSet(tuple(sorted(exponents))))
    message = draw(st.tuples(*[st.integers(0, q - 1)] * k))
    word = list(encode(code, message))
    for pos in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        word[pos] = ERASED
    survivors = [i for i, s in enumerate(word) if s is not ERASED]
    if survivors and draw(st.integers(0, 9)) < 4:
        pos = draw(st.sampled_from(survivors))
        word[pos] = ctx.add(word[pos], draw(st.integers(1, q - 1)))
    return code, word


@settings(max_examples=300, deadline=None)
@given(erased_words())
def test_decode_agrees_with_every_message(case):
    # the oracle tries all q^k messages: past n - k erasures the word is
    # refused, otherwise one fitting message is returned, none is an
    # inconsistent word and several are too few independent survivors
    code, word = case
    fits = [m for m in itertools.product(range(code.ctx.q), repeat=code.k)
            if all(s is ERASED or s == c for s, c in zip(word, encode(code, m)))]
    if word.count(ERASED) > code.n - code.k or len(fits) > 1:
        with pytest.raises(TooManyErasuresError):
            decode_erasures(code, word)
    elif not fits:
        with pytest.raises(InconsistentError):
            decode_erasures(code, word)
    else:
        assert decode_erasures(code, word) == fits[0]

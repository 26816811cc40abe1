import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mdsforge.errors import InvalidParamsError
from mdsforge.evalcode import (
    EvalCode,
    EvalSet,
    ExponentSet,
    encode,
    gap_exponents,
    gap_order,
    generator_matrix,
    sumset,
)
from mdsforge.field import make_field

from oracles import GrsSpec, ZeroMultiplierError, grs_generator, is_arithmetic_progression


def scalars(ctx, values):
    return tuple(ctx.scalar(v) for v in values)


def make_code(ctx, point_vals, exps):
    return EvalCode(ctx, EvalSet(scalars(ctx, point_vals)), ExponentSet(tuple(exps)))


def test_exponent_set_validation():
    ExponentSet((0, 1, 3))
    with pytest.raises(InvalidParamsError):
        ExponentSet(())
    with pytest.raises(InvalidParamsError):
        ExponentSet((1, 1, 2))
    with pytest.raises(InvalidParamsError):
        ExponentSet((3, 1))
    with pytest.raises(InvalidParamsError):
        ExponentSet((-1, 0))


def test_eval_set_validation():
    ctx = make_field(7)
    EvalSet(scalars(ctx, [0, 1, 2]))
    with pytest.raises(InvalidParamsError):
        EvalSet(())
    with pytest.raises(InvalidParamsError):
        EvalSet(scalars(ctx, [1, 1]))


def test_generator_matrix_rows_are_monomial_evaluations():
    ctx = make_field(13)
    code = make_code(ctx, range(6), (0, 1, 3))
    g = generator_matrix(code)
    assert g.rows == 3 and g.cols == 6
    assert list(g.entries[0]) == [1, 1, 1, 1, 1, 1]
    assert list(g.entries[1]) == [0, 1, 2, 3, 4, 5]
    assert list(g.entries[2]) == [0, 1, 8, 1, 12, 8]


def test_zero_to_the_zero_is_one():
    # the constant monomial evaluates to 1 everywhere, including at 0
    ctx = make_field(5)
    g = generator_matrix(make_code(ctx, [0], (0,)))
    assert g.entries[0][0] == 1


def test_encode_known_value():
    ctx = make_field(13)
    code = make_code(ctx, range(6), (0, 1, 3))
    word = encode(code, scalars(ctx, [1, 0, 12]))
    assert list(word) == [1, 0, 6, 0, 2, 6]


def test_encode_wrong_length():
    ctx = make_field(13)
    code = make_code(ctx, range(6), (0, 1, 3))
    with pytest.raises(InvalidParamsError, match="message must have length 3"):
        encode(code, scalars(ctx, [1, 0]))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_encode_is_linear(data):
    ctx = make_field(13)
    code = make_code(ctx, range(6), (0, 1, 3))
    draw = lambda: scalars(ctx, [data.draw(st.integers(0, 12)) for _ in range(3)])
    u, v = draw(), draw()
    c = ctx.scalar(data.draw(st.integers(0, 12)))
    left = encode(code, tuple(ctx.add(a, ctx.mul(c, b)) for a, b in zip(u, v)))
    right = tuple(
        ctx.add(a, ctx.mul(c, b)) for a, b in zip(encode(code, u), encode(code, v))
    )
    assert left == right


def test_sumset_examples():
    assert sumset(ExponentSet((0, 1, 3))).exps == (0, 1, 2, 3, 4, 6)
    assert sumset(ExponentSet((0, 1, 2))).exps == (0, 1, 2, 3, 4)
    assert sumset(ExponentSet((5,))).exps == (10,)


def test_arithmetic_progression_detection():
    assert is_arithmetic_progression((0, 1, 2))
    assert is_arithmetic_progression((1, 4, 7, 10))
    assert is_arithmetic_progression((2,))
    assert is_arithmetic_progression((3, 9))  # two points: always
    assert not is_arithmetic_progression((0, 1, 3))


def test_gap_order():
    assert gap_order(ExponentSet((0, 1, 3))) == 1
    assert gap_order(ExponentSet((0, 2, 3))) == 2
    assert gap_order(ExponentSet((1, 2, 3))) == 3
    assert gap_order(ExponentSet((1,))) == 1
    assert gap_order(ExponentSet((0, 1, 2))) is None  # Reed-Solomon
    assert gap_order(ExponentSet((0, 2, 4))) is None  # two gaps
    assert gap_order(ExponentSet((0, 1, 2, 5))) is None


def test_gap_order_matches_its_definition():
    for k in range(1, 6):
        for exps in itertools.combinations(range(k + 3), k):
            gaps = [r for r in range(1, k + 1) if set(exps) == set(range(k + 1)) - {k - r}]
            assert gap_order(ExponentSet(exps)) == (gaps[0] if gaps else None)


def test_gap_exponents_inverts_gap_order():
    assert gap_exponents(3, 1) == ExponentSet((0, 1, 3))
    assert gap_exponents(3, 3) == ExponentSet((1, 2, 3))
    for k in range(1, 9):
        for r in range(1, k + 1):
            assert gap_order(gap_exponents(k, r)) == r


def test_sumset_size_characterizes_progressions():
    # |I + I| == 2|I| - 1 exactly when I is an arithmetic progression;
    # checked exhaustively for every nonempty subset of {0, ..., 10}.
    universe = list(range(11))
    for size in range(1, 12):
        for combo in itertools.combinations(universe, size):
            exps = ExponentSet(combo)
            tight = len(sumset(exps).exps) == 2 * size - 1
            assert tight == is_arithmetic_progression(combo), combo


def test_code_properties_and_family_tag():
    ctx = make_field(13)
    code = make_code(ctx, range(6), (0, 1, 3))
    assert code.n == 6
    assert code.k == 3
    assert code.family == "custom"
    assert code.params == {}


def test_nonzero_codeword_weight_lower_bound():
    # a polynomial with exponents bounded by max_exp has at most max_exp roots
    ctx = make_field(7)
    code = make_code(ctx, range(7), (0, 2, 3))
    for msg_idx in itertools.product(range(7), repeat=3):
        if not any(msg_idx):
            continue
        word = encode(code, scalars(ctx, msg_idx))
        weight = sum(1 for v in word if v != 0)
        assert weight >= code.n - code.exponents.max_exp


def test_grs_generator_entries():
    ctx = make_field(13)
    spec = GrsSpec(ctx, EvalSet(scalars(ctx, [1, 2, 3, 4])), scalars(ctx, [1, 1, 2, 3]), 2)
    g = grs_generator(spec)
    assert g.rows == 2 and g.cols == 4
    assert list(g.entries[0]) == [1, 1, 2, 3]
    assert list(g.entries[1]) == [1, 2, 6, 12]


def test_grs_zero_multiplier_rejected():
    ctx = make_field(13)
    with pytest.raises(ZeroMultiplierError):
        GrsSpec(ctx, EvalSet(scalars(ctx, [1, 2])), scalars(ctx, [1, 0]), 2)

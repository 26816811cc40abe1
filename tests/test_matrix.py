"""Exact linear algebra: elimination, rank, null vector, solve, null space.

Ranks are cross-checked against sympy over prime fields and against an
F_p blow-up for extension fields (tests/oracles.py).
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from mdsforge.errors import InvalidParamsError
from mdsforge.field import make_field
from mdsforge.matrix import MatrixFq, extend_basis, matrix_from_rows, null_vector, rank

from oracles import (
    column,
    ext_rank,
    mat_vec,
    null_space,
    null_vectors,
    prime_rank,
    scalar,
    solve_square,
)

# GF(73^3) is past the table cap, on the polynomial path
NULL_VECTOR_FIELDS = [make_field(5), make_field(2, 4), make_field(3, 3), make_field(73, 3)]


def ints(ctx, rows):
    return matrix_from_rows(ctx, [[scalar(ctx, v) for v in row] for row in rows])


def test_vandermonde_rank():
    ctx = make_field(13)
    m = ints(ctx, [[1, 1, 1], [1, 2, 3], [1, 4, 9]])
    assert rank(m) == 3


def test_singular_example():
    ctx = make_field(5)
    m = ints(ctx, [[1, 2], [2, 4]])
    assert rank(m) == 1


def test_zero_row_matrix_allowed():
    ctx = make_field(7)
    m = MatrixFq(ctx, ())
    assert m.rows == 0
    assert rank(m) == 0


def test_empty_columns_rejected():
    ctx = make_field(7)
    with pytest.raises(InvalidParamsError, match="rows must be nonempty and equal length"):
        matrix_from_rows(ctx, [[]])


def test_ragged_rows_rejected():
    ctx = make_field(7)
    with pytest.raises(InvalidParamsError, match="rows must be nonempty and equal length"):
        ints(ctx, [[1, 2], [1]])


def test_row_column_accessors():
    ctx = make_field(5)
    m = ints(ctx, [[1, 2, 3], [4, 0, 1]])
    assert tuple(map(ctx.digits, column(m, 2))) == ((3,), (1,))
    with pytest.raises(InvalidParamsError, match="column -1 out of range"):
        column(m, -1)


def test_solve_square_roundtrip():
    ctx = make_field(13)
    a = ints(ctx, [[1, 1, 1], [1, 2, 3], [1, 4, 9]])
    b = [scalar(ctx, v) for v in (3, 1, 7)]
    x = solve_square(a, b)
    assert mat_vec(a, x) == tuple(b)


def test_solve_singular_raises():
    ctx = make_field(5)
    a = ints(ctx, [[1, 2], [2, 4]])
    with pytest.raises(InvalidParamsError, match="coefficient matrix is singular"):
        solve_square(a, [1, 1])


@pytest.mark.parametrize("rows, b, message", [
    ([[1, 2, 3], [4, 5, 6]], [1, 1], "matrix is not square"),
    ([[1, 2], [3, 4]], [1, 1, 1], "right-hand side has wrong length"),
], ids=["not-square", "wrong-length"])
def test_solve_square_rejects_bad_shapes(rows, b, message):
    ctx = make_field(7)
    with pytest.raises(InvalidParamsError, match=message):
        solve_square(ints(ctx, rows), b)


def test_null_space_of_identity_is_empty():
    ctx = make_field(7)
    eye = ints(ctx, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ns = null_space(eye)
    assert ns.rows == 0
    assert ns.entries == ()


def test_null_space_annihilates():
    ctx = make_field(13)
    m = ints(ctx, [[1, 2, 3, 4], [0, 1, 1, 1]])
    ns = null_space(m)
    assert ns.rows == 2  # rank 2, 4 columns
    for i in range(ns.rows):
        assert all(v == 0 for v in mat_vec(m, ns.entries[i]))
    assert rank(ns) == ns.rows


def test_rank_against_sympy_prime_field():
    rng = random.Random(11)
    ctx = make_field(13)
    for _ in range(40):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        rows = [[rng.randrange(13) for _ in range(c)] for _ in range(r)]
        assert rank(ints(ctx, rows)) == prime_rank(13, rows)


def test_rank_against_blowup_extension_field():
    rng = random.Random(7)
    ctx = make_field(2, 4)
    for _ in range(25):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = matrix_from_rows(
            ctx, [[ctx.from_int(rng.randrange(16)) for _ in range(c)] for _ in range(r)]
        )
        assert rank(m) == ext_rank(m)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_null_vector_is_sparse_and_annihilates_every_row(data):
    ctx = data.draw(st.sampled_from(NULL_VECTOR_FIELDS))
    k = data.draw(st.integers(1, 5))
    # the scan's (k-1) x k prefix, the decoder's k x (k+1) system, and a
    # basis with three free columns
    r, c = data.draw(st.sampled_from([(k - 1, k), (k, k + 1), (k - 1, k + 2)]))
    entry = st.one_of(st.just(0), st.integers(0, ctx.q - 1))
    rows = [[data.draw(entry) for _ in range(c)] for _ in range(r)]
    basis: list = []
    for row in rows:
        basis = extend_basis(ctx, basis, row) or basis
    assume(len(basis) == r)  # full row rank
    f, pairs = null_vector(ctx, basis, c)
    pivots = {p for p, _ in basis}
    assert f == min(set(range(c)) - pivots)
    assert all(v != 0 for _, v in pairs)
    assert len({p for p, _ in pairs}) == len(pairs) and {p for p, _ in pairs} <= pivots
    x = [0] * c
    x[f] = 1
    for p, v in pairs:
        x[p] = v
    for row in rows:
        assert mat_vec(matrix_from_rows(ctx, [row]), x) == (0,)
    assert tuple(x) == null_vectors(ctx, basis, c)[0]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rank_plus_nullity(data):
    ctx = make_field(5)
    r = data.draw(st.integers(1, 4))
    c = data.draw(st.integers(1, 4))
    rows = [
        [scalar(ctx, data.draw(st.integers(0, 4))) for _ in range(c)] for _ in range(r)
    ]
    m = matrix_from_rows(ctx, rows)
    ns = null_space(m)
    assert rank(m) + ns.rows == c
    # column f is free exactly when it lies in the span of the columns left
    # of it; its vector is 1 there and 0 at every other free column
    ints_rows = [[ctx.digits(v)[0] for v in row] for row in rows]
    free = [
        f for f in range(c)
        if prime_rank(5, [row[: f + 1] for row in ints_rows])
        == prime_rank(5, [row[:f] for row in ints_rows])
    ]
    assert ns.rows == len(free)
    for vec, f in zip(ns.entries, free):
        assert [vec[g] for g in free] == [1 if g == f else 0 for g in free]
        assert all(v == 0 for v in mat_vec(m, vec))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_or_singular(data):
    ctx = make_field(7)
    nn = data.draw(st.integers(1, 4))
    rows = [
        [scalar(ctx, data.draw(st.integers(0, 6))) for _ in range(nn)] for _ in range(nn)
    ]
    a = matrix_from_rows(ctx, rows)
    b = [scalar(ctx, data.draw(st.integers(0, 6))) for _ in range(nn)]
    if rank(a) == nn:
        assert mat_vec(a, solve_square(a, b)) == tuple(b)
    else:
        with pytest.raises(InvalidParamsError, match="coefficient matrix is singular"):
            solve_square(a, b)

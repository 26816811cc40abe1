"""MDS scanning, Schur squares, verdicts, duals."""

import concurrent.futures
import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdsforge import certify, conditions
from mdsforge.certify import (
    VERDICT_INDETERMINATE,
    VERDICT_NON_RS,
    VERDICT_RS_CONSISTENT,
    mds_exhaustive,
    mds_weight_distribution,
    min_distance_bruteforce,
    non_rs_certificate,
    schur_square_dim,
    schur_square_dim_from_exponents,
)
from mdsforge.cli import main
from mdsforge.errors import InvalidParamsError, TooLargeError
from mdsforge.evalcode import (
    EvalCode,
    EvalSet,
    ExponentSet,
    gap_order,
    generator_matrix,
    sumset,
)
from mdsforge.families import (
    cor44,
    cor62,
    cor411,
    extended_hamming_parity,
    lift_parity_columns,
    thm412,
    thm415,
)
from mdsforge.field import make_field
from mdsforge.jsonio import canonical_dumps, code_to_obj
from mdsforge.matrix import extend_basis, matrix_from_rows, rank

from oracles import (
    GrsSpec,
    RankDeficientError,
    brute_min_distance,
    brute_weight_distribution,
    dual_code,
    ext_rank,
    grs_generator,
    mat_vec,
    scalar,
    scalar_class_weight_distribution,
    schur_square_dim_all_products,
)


def scalars(ctx, values):
    return tuple(scalar(ctx, v) for v in values)


def make_code(ctx, point_vals, exps):
    return EvalCode(ctx, EvalSet(scalars(ctx, point_vals)), ExponentSet(tuple(exps)))


def test_reed_solomon_control():
    ctx = make_field(13)
    cert = non_rs_certificate(make_code(ctx, range(6), (0, 1, 2)))
    assert cert.is_mds
    assert cert.failing_columns is None
    assert cert.schur_dim == 5  # == 2k - 1
    assert cert.verdict == VERDICT_RS_CONSISTENT


def test_gap_exponents_flip_the_verdict():
    ctx = make_field(13)
    cert = non_rs_certificate(make_code(ctx, range(6), (0, 1, 3)))
    assert cert.is_mds
    assert cert.schur_dim == 6
    assert cert.verdict == VERDICT_NON_RS


def test_known_dependent_columns_witness():
    # 1 + 5 + 7 == 0 in Z_13, so the first three columns fail for exponents
    # {0, 1, 3}: the subset-sum is the x^2 coefficient of the cubic vanishing
    # on those points.
    ctx = make_field(13)
    code = make_code(ctx, [1, 5, 7, 2, 3, 4], (0, 1, 3))
    ok, witness = mds_exhaustive(generator_matrix(code))
    assert not ok
    assert witness == (0, 1, 2)


def test_witness_is_lex_first():
    ctx = make_field(13)
    # two dependent triples; {1,5,7} sits at indices (1, 3, 5), {2,5,6} at (0, 3, 4)
    code = make_code(ctx, [2, 1, 3, 5, 6, 7], (0, 1, 3))
    ok, witness = mds_exhaustive(generator_matrix(code))
    assert not ok
    assert witness == (0, 3, 4)


def test_parallel_scan_matches_serial(monkeypatch):
    monkeypatch.setattr(certify, "PARALLEL_MIN_PREFIXES", 0)
    ctx = make_field(13)
    good = generator_matrix(make_code(ctx, range(6), (0, 1, 3)))
    bad = generator_matrix(make_code(ctx, [1, 5, 7, 2, 3, 4], (0, 1, 3)))
    for mat in (good, bad):
        serial = mds_exhaustive(mat, jobs=1)
        assert mds_exhaustive(mat, jobs=2) == serial
        assert mds_exhaustive(mat, jobs=3) == serial


def test_k_greater_than_n_rejected():
    ctx = make_field(13)
    g = matrix_from_rows(ctx, [[1], [0]])
    with pytest.raises(InvalidParamsError):
        mds_exhaustive(g)


def test_subset_guard_trips(monkeypatch):
    ctx = make_field(13)
    g = generator_matrix(make_code(ctx, range(6), (0, 1, 3)))
    monkeypatch.setenv("MDSFORGE_GUARD", "5")
    with pytest.raises(TooLargeError, match=r"C\(6,3\) = 20 exceeds subset guard 5"):
        mds_exhaustive(g)


def test_codeword_guard_refuses_a_huge_count_without_printing_it():
    # q^k = 1000003^800 has 4 801 digits, past the interpreter's int -> str limit
    code = make_code(make_field(1000003), range(1, 801), tuple(range(800)))
    with pytest.raises(TooLargeError, match=r"^q\^k exceeds codeword guard 4194304$"):
        min_distance_bruteforce(code)


def test_codeword_guard_decides_every_count_exactly(monkeypatch):
    class Walked(Exception):
        pass

    def generator(code):  # the walk starts here, once the guard has passed
        raise Walked

    monkeypatch.setattr(certify, "generator_matrix", generator)
    for guard in (2196, 1 << 22, 1 << 200, 10**100):
        monkeypatch.setenv("MDSFORGE_GUARD", str(guard))
        for q in (2, 3, 13, 1000003):
            for k in range(1, 300, 3):
                code = make_code(make_field(q), [1], range(k))
                with pytest.raises(Walked if q**k <= guard else TooLargeError):
                    min_distance_bruteforce(code)


def test_schur_dim_two_paths_agree():
    ctx = make_field(13)
    for exps in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2, 4)]:
        code = make_code(ctx, range(8), exps)
        assert schur_square_dim(generator_matrix(code)) == schur_square_dim_from_exponents(code)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_schur_closed_form_matches_oracle_rank(data):
    # with max(E+E) < n the sumset dimension is |E+E|, read without a rank
    ctx = make_field(*data.draw(st.sampled_from([(13, 1), (2, 3), (3, 2), (2, 4)])))
    n = data.draw(st.integers(1, min(ctx.q, 12)))
    values = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=n, max_size=n, unique=True))
    exps = data.draw(st.lists(st.integers(0, (n - 1) // 2), min_size=1, unique=True))
    code = counter_code(ctx, values, sorted(exps))
    rows = [[ctx.pow(t, e) for t in code.points.points] for e in sumset(code.exponents).exps]
    assert schur_square_dim_from_exponents(code) == ext_rank(matrix_from_rows(ctx, rows))


#: one field of each arithmetic kind: prime, table p = 2, table odd p, and
#: the polynomial path past TABLE_CAP
FIELD_KINDS = [(13, 1), (2, 4), (3, 2), (2, 11)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_schur_square_dim_matches_all_products(data):
    # few distinct entries, copied, scaled and zero rows and zero columns
    # give rank-deficient matrices; k ranges past n and down to 0 rows
    ctx = make_field(*data.draw(st.sampled_from(FIELD_KINDS)))
    k, n = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 8))
    pool = [0] + data.draw(st.lists(st.integers(1, ctx.q - 1), min_size=1, max_size=4))
    rows = []
    for i in range(k):
        row = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        how = data.draw(st.sampled_from(["own", "copy", "scale", "zero"] if i else ["own"]))
        if how == "zero":
            row = [0] * n
        elif how != "own":
            c = data.draw(st.sampled_from(pool[1:])) if how == "scale" else 1
            row = [ctx.mul(c, x) for x in rows[data.draw(st.integers(0, i - 1))]]
        rows.append(row)
    for j in data.draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[j] = 0
    mat = matrix_from_rows(ctx, rows)
    true = schur_square_dim_all_products(mat)
    assert schur_square_dim(mat) == true
    # a bound the products reach stops the walk there; one they cannot
    # reach, above the true rank or below rho, gets the full walk
    assert schur_square_dim(mat, upper=true) == true
    assert schur_square_dim(mat, upper=true + 1) == true
    assert schur_square_dim(mat, upper=rank(mat) - 1) == true


def test_schur_product_side_stops_at_the_sumset_bound(monkeypatch):
    # RS[20,4] over GF(31): the off-diagonal products only reach rank
    # 3 = k - 1 of C(4,2) = 6, so without a bound the walk inserts all 16
    # non-pivot columns
    k = 4
    code = make_code(make_field(31), range(1, 21), range(k))
    inserted = []

    def spy(ctx, basis, v):
        if len(v) == comb(k, 2):  # an off-diagonal column, not a generator row
            inserted.append(v)
        return extend_basis(ctx, basis, v)

    monkeypatch.setattr(certify, "extend_basis", spy)
    assert non_rs_certificate(code).schur_dim == 2 * k - 1
    assert 0 < len(inserted) <= k - 1
    inserted.clear()
    assert non_rs_certificate(code, cross_check=True).schur_dim == 2 * k - 1
    assert len(inserted) == 20 - k  # the full walk


@pytest.mark.parametrize("p, m", FIELD_KINDS)
def test_schur_square_dim_edge_shapes(p, m):
    ctx = make_field(p, m)
    a, b = ctx.q - 1, ctx.q - 2
    shapes = [
        [],  # no rows
        [[0, 0, 0]],  # rank 0
        [[a, 0, b]],  # rank 1, no pairs
        [[a, 0, b], [ctx.mul(b, a), 0, ctx.mul(b, b)], [0, 0, 0]],  # rank 1 again
        [[1, a], [a, 1], [b, 1], [1, 1]],  # k > n
        [[1, 1, 1, 1, 1], [0, 1, a, b, 1], [0, 1, a, b, 1]],  # a repeated row
    ]
    for rows in shapes:
        mat = matrix_from_rows(ctx, rows)
        assert schur_square_dim(mat) == schur_square_dim_all_products(mat)
    assert schur_square_dim(matrix_from_rows(ctx, [])) == 0
    assert schur_square_dim(matrix_from_rows(ctx, shapes[2])) == 1


def test_schur_dim_bounds():
    # MDS with k <= n/2 forces schur >= 2k - 1; k(k+1)/2 products cap it above
    ctx = make_field(13)
    code = make_code(ctx, range(8), (0, 1, 3))
    s = schur_square_dim(generator_matrix(code))
    assert 2 * 3 - 1 <= s <= min(8, 3 * 4 // 2)


def test_column_scaling_invariance():
    # rescaling columns changes neither MDS status nor the Schur dimension
    rng = random.Random(5)
    ctx = make_field(13)
    code = make_code(ctx, range(6), (0, 1, 3))
    g = generator_matrix(code)
    scales = [scalar(ctx, rng.randint(1, 12)) for _ in range(g.cols)]
    scaled = matrix_from_rows(
        ctx,
        [[ctx.mul(g.entries[i][j], scales[j]) for j in range(g.cols)] for i in range(g.rows)],
    )
    assert mds_exhaustive(scaled)[0] == mds_exhaustive(g)[0]
    assert schur_square_dim(scaled) == schur_square_dim(g)


def test_min_distance_known_code():
    ctx = make_field(13)
    code = make_code(ctx, range(6), (0, 1, 3))
    d, wd = min_distance_bruteforce(code)
    assert d == 4
    assert wd == (1, 0, 0, 0, 180, 648, 1368)
    assert sum(wd) == 13**3


def test_min_distance_constant_code():
    # I = {0}: repetition code, every nonzero codeword has full weight
    ctx = make_field(5)
    code = make_code(ctx, range(4), (0,))
    d, wd = min_distance_bruteforce(code)
    assert d == 4
    assert wd == (1, 0, 0, 0, 4)


def test_min_distance_matches_oracle():
    rng = random.Random(3)
    ctx = make_field(7)
    for _ in range(10):
        pts = rng.sample(range(7), 5)
        exps = tuple(sorted(rng.sample(range(5), 2)))
        code = make_code(ctx, pts, exps)
        d, _ = min_distance_bruteforce(code)
        assert d == brute_min_distance(ctx, [list(r) for r in generator_matrix(code).entries])


WD_FIELDS = [make_field(5), make_field(7), make_field(2, 2), make_field(2, 3), make_field(3, 2)]


#: Ceiling on q^k in `small_codes`, so the oracle's q^k * n * k products stay
#: cheap: k = 3 on every field (one parent) and k = 4 on GF(5) and GF(2^2)
#: (the q parents under row 0 built by add_multiple).
WD_CODEWORDS = 1024


@st.composite
def small_codes(draw):
    ctx = draw(st.sampled_from(WD_FIELDS))
    vals = draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=ctx.q, unique=True))
    max_k = max(k for k in range(1, 5) if ctx.q**k <= WD_CODEWORDS)
    exps = draw(st.lists(st.integers(0, ctx.q + 1), min_size=1, max_size=max_k, unique=True))
    pts = tuple(ctx.from_int(v) for v in vals)
    return EvalCode(ctx, EvalSet(pts), ExponentSet(tuple(sorted(exps))))


def counter_code(ctx, vals, exps):
    return EvalCode(ctx, EvalSet(tuple(ctx.from_int(v) for v in vals)), ExponentSet(exps))


@settings(max_examples=40, deadline=None)
@given(code=small_codes())
# the point 0 under a top exponent > 0: last-row coordinates with g_j = 0
@example(code=counter_code(WD_FIELDS[1], [0, 1, 2, 3, 4], (0, 1, 3)))
# x^7 = 1 on GF(8)*: all seven nonzero coordinates vanish for the same s
@example(code=counter_code(WD_FIELDS[3], range(8), (0, 7)))
# x^2 takes each nonzero square twice in GF(5): pairs vanish together
@example(code=counter_code(WD_FIELDS[0], range(5), (1, 2)))
@example(code=counter_code(WD_FIELDS[4], [0, 4, 8], (2,)))
@example(code=counter_code(WD_FIELDS[2], range(4), (1, 4)))  # x^4 = x: rank 1
# 0^1 = 0: the all-zero code, no hit coordinate at all
@example(code=counter_code(WD_FIELDS[0], [0], (1,)))
# k = 2: the class led by row 0 is one histogram, no walk
@example(code=counter_code(WD_FIELDS[1], [1, 2, 4, 6], (0, 2)))
# k = 4 over GF(2^2) and k = 3 over GF(3^2): parents one and zero steps below a lead
@example(code=counter_code(WD_FIELDS[2], range(4), (0, 1, 2, 5)))
@example(code=counter_code(WD_FIELDS[4], [0, 1, 3, 5, 7, 8], (0, 2, 3)))
# k = 4, so classes lead at rows 0, 1 and 2 and the parents of row 0 are
# built by add_multiple, on
# generators with repeated rows (x^q = x) and a zero column (the point 0):
# x^5 = x and x^6 = x^2 on GF(5), rows 0 = 2 and 1 = 3
@example(code=counter_code(WD_FIELDS[0], range(5), (1, 2, 5, 6)))
# x^4 = x and x^5 = x^2 on GF(2^2)
@example(code=counter_code(WD_FIELDS[2], range(4), (1, 2, 4, 5)))
# rows 1, 2 and 3 equal and zero at the point 0: one hit coordinate
@example(code=counter_code(WD_FIELDS[0], [0, 1], (0, 1, 2, 3)))
# every row zero: each class is the zero partial again
@example(code=counter_code(WD_FIELDS[2], [0], (1, 2, 3, 4)))
# the columns of x and -x agree on x^0 and x^2 over x^4, so their lines
# coincide at the parent x^0, and x^4 misses the point 0
@example(code=counter_code(WD_FIELDS[0], range(5), (0, 1, 2, 4)))
# lines of the parent x^0 that meet three or more at one point
@example(code=counter_code(WD_FIELDS[1], range(6), (0, 1, 3)))
# k = n = 4, all of GF(5)^4: six parents, the point 0, and three lines with
# distinct slopes that some parents send through one point
@example(code=counter_code(WD_FIELDS[0], range(4), (0, 1, 2, 3)))
def test_weight_distribution_matches_oracle(code):
    rows = [list(r) for r in generator_matrix(code).entries]
    assert min_distance_bruteforce(code)[1] == brute_weight_distribution(code.ctx, rows)


#: Fields and the largest q^k of `pm_codes`: GF(5) is the one that reaches
#: k = 6 under the ceiling, GF(2^4) has -x = x.
PM_FIELDS = [make_field(5), make_field(7), make_field(11), make_field(13), make_field(2, 4),
             make_field(3, 2)]
PM_CODEWORDS = 1 << 16


@st.composite
def pm_codes(draw):
    """Codes of k = 3..6 whose points come in pairs x, -x more often than not,
    so that two columns often agree on every row but the odd exponents."""
    ctx = draw(st.sampled_from(PM_FIELDS))
    k = draw(st.integers(3, max(k for k in range(3, 7) if ctx.q**k <= PM_CODEWORDS)))
    base = draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=ctx.q, unique=True))
    pairs = draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
    vals = list(dict.fromkeys(
        v for x, pair in zip(base, pairs) for v in ((x, ctx.neg(x)) if pair else (x,))
    ))
    exps = draw(st.lists(st.integers(0, 2 * ctx.q), min_size=k, max_size=k, unique=True))
    return counter_code(ctx, vals, tuple(sorted(exps)))


@settings(max_examples=60, deadline=None)
@given(code=pm_codes())
# k = 5: the parents sit two add_multiple steps below a lead at row 0
@example(code=counter_code(make_field(17), range(10), (0, 1, 2, 3, 5)))
def test_crossing_line_count_matches_the_scalar_class_walk(code):
    assert min_distance_bruteforce(code) == scalar_class_weight_distribution(code)


@pytest.mark.parametrize(
    "code",
    [cor44(13, 3, 6), cor44(29, 3, 11), thm412(3, 3, 4, 9), thm415(7, 2, 3, 14),
     thm415(11, 2, 3, 34), lift_parity_columns(extended_hamming_parity(3, 2), 3)],
    ids=["cor44-13-3-6", "cor44-29-3-11", "thm412-3-3-4-9", "thm415-7-2-3-14",
         "thm415-11-2-3-34", "lift-h-3-2-3"],
)
def test_weight_distribution_of_every_walked_batch_code_is_the_closed_form(code):
    # the codes of scripts/certify_families.py under the codeword guard
    _, dist = min_distance_bruteforce(code)
    assert dist == mds_weight_distribution(code.n, code.k, code.ctx.q)


def test_weight_distribution_of_the_benchmark_families():
    assert min_distance_bruteforce(thm412(3, 3, 4, 9)) == (
        6, (1, 0, 0, 0, 0, 0, 2184, 19656, 131274, 378326)
    )
    assert min_distance_bruteforce(cor44(53, 3, 8)) == (6, (1, 0, 0, 0, 0, 0, 1456, 19552, 127868))


def test_mds_weight_distribution_closed_form():
    assert mds_weight_distribution(6, 3, 13) == (1, 0, 0, 0, 180, 648, 1368)
    assert mds_weight_distribution(4, 1, 5) == (1, 0, 0, 0, 4)
    for q in (2, 3, 4, 7, 9):
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert sum(mds_weight_distribution(n, k, q)) == q**k


def test_weight_distribution_check_catches_a_moved_codeword(monkeypatch):
    code = make_code(make_field(13), range(6), (0, 1, 3))
    walk = certify.min_distance_bruteforce
    monkeypatch.setenv("MDSFORGE_GUARD", str(certify.CODEWORD_GUARD))

    def moved(code, gen=None):
        d, dist = walk(code, gen)
        return d, dist[:5] + (dist[5] - 1, dist[6] + 1)

    monkeypatch.setattr(certify, "min_distance_bruteforce", moved)
    assert non_rs_certificate(code).is_mds
    with pytest.raises(AssertionError, match="internal disagreement"):
        non_rs_certificate(code, with_min_distance=True)


def test_min_distance_check_catches_a_lost_light_codeword(monkeypatch):
    # not MDS, full rank: columns (0, 1, 2) are dependent, so some nonzero
    # codeword vanishes on them and d <= n - k = 5
    code = make_code(make_field(13), [1, 12, 2, 3, 4, 5, 6, 7], (0, 2, 4))
    n, k = code.n, code.k
    walk = certify.min_distance_bruteforce
    monkeypatch.setenv("MDSFORGE_GUARD", str(certify.CODEWORD_GUARD))

    def heavier(code, gen=None):
        _, dist = walk(code, gen)
        light = sum(dist[1 : n - k + 1])
        dist = (dist[0],) + (0,) * (n - k) + (dist[n - k + 1] + light,) + dist[n - k + 2 :]
        return n - k + 1, dist

    cert = non_rs_certificate(code, with_min_distance=True)
    assert cert.failing_columns == (0, 1, 2)
    assert cert.min_distance <= n - k
    monkeypatch.setattr(certify, "min_distance_bruteforce", heavier)
    with pytest.raises(AssertionError, match="internal disagreement"):
        non_rs_certificate(code, with_min_distance=True)


def test_min_distance_check_reuses_the_certificate_generator(monkeypatch):
    # max(E+E) = 8 < n = 9, so the sumset side builds no generator either
    build, calls = certify.generator_matrix, []

    def counted(code):
        calls.append(code)
        return build(code)

    monkeypatch.setattr(certify, "generator_matrix", counted)
    cert = non_rs_certificate(thm412(3, 3, 4, 9), with_min_distance=True)
    assert cert.min_distance == 6
    assert len(calls) == 1
    # a generator given to the walk does not get it past the codeword guard
    code = make_code(make_field(13), range(6), (0, 1, 3))
    monkeypatch.setenv("MDSFORGE_GUARD", "2196")  # 13^3 = 2197
    with pytest.raises(TooLargeError, match="exceeds codeword guard 2196"):
        min_distance_bruteforce(code, build(code))


def test_weight_distribution_check_skips_codes_that_are_not_mds():
    # x^5 = x on GF(5): the two rows coincide, so the [4, 2] generator has
    # rank 1 and every nonzero codeword has weight 4 > n - k + 1
    code = make_code(make_field(5), [1, 2, 3, 4], (1, 5))
    cert = non_rs_certificate(code, with_min_distance=True)
    assert not cert.is_mds
    assert cert.min_distance == 4


def test_verdict_indeterminate_when_k_large():
    # k > n/2: the Schur square cannot separate, even for an MDS code
    ctx = make_field(13)
    cert = non_rs_certificate(make_code(ctx, range(4), (0, 1, 2)))
    assert cert.is_mds
    assert cert.verdict == VERDICT_INDETERMINATE


def test_verdict_indeterminate_when_not_mds():
    ctx = make_field(13)
    cert = non_rs_certificate(make_code(ctx, [1, 5, 7, 2, 3, 4], (0, 1, 3)))
    assert not cert.is_mds
    assert cert.failing_columns == (0, 1, 2)
    assert cert.verdict == VERDICT_INDETERMINATE


def test_certificate_carries_min_distance_only_on_request():
    ctx = make_field(13)
    code = make_code(ctx, range(6), (0, 1, 3))
    assert non_rs_certificate(code).min_distance is None
    cert = non_rs_certificate(code, with_min_distance=True)
    assert cert.min_distance == 4


def test_grs_schur_dim_is_classical():
    # generalized Reed-Solomon squares to dimension exactly 2k - 1
    rng = random.Random(17)
    ctx = make_field(13)
    for _ in range(10):
        n = rng.randint(5, 9)
        k = rng.randint(2, n // 2)
        pts = scalars(ctx, rng.sample(range(13), n))
        mults = scalars(ctx, [rng.randint(1, 12) for _ in range(n)])
        g = grs_generator(GrsSpec(ctx, EvalSet(pts), mults, k))
        assert schur_square_dim(g) == 2 * k - 1


def test_dual_annihilates_and_is_mds():
    ctx = make_field(13)
    g = generator_matrix(make_code(ctx, range(6), (0, 1, 3)))
    d = dual_code(g)
    assert d.rows == 3
    for i in range(d.rows):
        assert all(v == 0 for v in mat_vec(g, d.entries[i]))
    assert rank(d) == 3
    assert mds_exhaustive(d)[0]


def test_dual_of_full_length_code_is_empty():
    ctx = make_field(5)
    g = matrix_from_rows(ctx, [[1, 0], [0, 1]])
    assert dual_code(g).rows == 0


def test_dual_requires_full_row_rank():
    ctx = make_field(5)
    g = matrix_from_rows(ctx, [scalars(ctx, [1, 2]), scalars(ctx, [2, 4])])
    with pytest.raises(RankDeficientError):
        dual_code(g)


def test_extension_field_certification():
    ctx = make_field(2, 4)
    pts = tuple(ctx.from_int(v) for v in (0, 4, 5, 6, 7, 8))
    code = EvalCode(ctx, EvalSet(pts), ExponentSet((0, 1, 3)))
    cert = non_rs_certificate(code)
    assert cert.is_mds
    assert cert.verdict == VERDICT_NON_RS


# ---------------------------------------------------------------------------
# The two MDS routes against their oracles

FIELDS = [(7, 1), (13, 1), (2, 3), (3, 2), (2, 4)]


@st.composite
def point_sets(draw, min_size=1, max_size=8):
    """A field and an ordered tuple of distinct points in it."""
    p, m = draw(st.sampled_from(FIELDS))
    ctx = make_field(p, m)
    values = draw(
        st.lists(
            st.integers(0, ctx.q - 1),
            min_size=min_size,
            max_size=min(max_size, ctx.q),
            unique=True,
        )
    )
    return ctx, tuple(ctx.from_int(v) for v in values)


def gap_code(ctx, pts, k, r):
    exps = tuple(e for e in range(k + 1) if e != k - r)
    return EvalCode(ctx, EvalSet(pts), ExponentSet(exps))


@settings(max_examples=60, deadline=None)
@given(point_sets(min_size=1), st.integers(1, 5))
@example((make_field(13), scalars(make_field(13), range(6))), 3)  # MDS at r = 1
@example((make_field(13), scalars(make_field(13), [2, 1, 3, 5, 6, 7])), 3)  # fails at r = 1
def test_gap_route_agrees_with_elimination(drawn, k):
    ctx, pts = drawn
    assume(k <= len(pts))
    for r in range(1, k + 1):
        code = gap_code(ctx, pts, k, r)
        assert gap_order(code.exponents) == r
        cert = non_rs_certificate(code)
        oracle = mds_exhaustive(generator_matrix(code))
        assert (cert.is_mds, cert.failing_columns) == oracle


def first_dependent_by_sympy(gen):
    k, n = gen.rows, gen.cols
    for combo in itertools.combinations(range(n), k):
        sub = matrix_from_rows(gen.ctx, [[row[j] for j in combo] for row in gen.entries])
        if ext_rank(sub) < k:
            return combo
    return None


@settings(max_examples=40, deadline=None)
@given(
    point_sets(min_size=2, max_size=6),
    st.lists(st.integers(0, 14), min_size=1, max_size=4, unique=True),
)
@example((make_field(7), scalars(make_field(7), [1, 2, 0, 3])), [0, 6, 12])  # dependent prefix
def test_elimination_route_matches_sympy(drawn, exps):
    ctx, pts = drawn
    exps = ExponentSet(tuple(sorted(exps)))
    assume(exps.k <= len(pts) and gap_order(exps) is None)
    gen = generator_matrix(EvalCode(ctx, EvalSet(pts), exps))
    witness = first_dependent_by_sympy(gen)
    assert mds_exhaustive(gen) == (witness is None, witness)


@st.composite
def arbitrary_matrices(draw):
    """A k x n matrix, k <= 5 and k <= n <= 7, over GF(13), GF(2^4), GF(3^2)
    or GF(2^11) (the polynomial path), whose columns are drawn fresh, zero,
    as nonzero multiples of earlier ones (1 repeats them) or as sums of two
    earlier ones; its last row may be a combination of the first two."""
    p, m = draw(st.sampled_from([(13, 1), (2, 4), (3, 2), (2, 11)]))
    ctx = make_field(p, m)
    k = draw(st.integers(0, 5))
    if k == 0:
        return matrix_from_rows(ctx, [])
    n = draw(st.integers(k, 7))
    element, unit = st.integers(0, ctx.q - 1), st.integers(1, ctx.q - 1)
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(["fresh", "zero", "scaled", "sum"])) if cols else "fresh"
        if kind == "fresh":
            col = draw(st.lists(element, min_size=k, max_size=k))
        elif kind == "zero":
            col = [0] * k
        elif kind == "scaled":
            col = [ctx.mul(draw(unit), x) for x in draw(st.sampled_from(cols))]
        else:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            col = ctx.add_multiple(a, draw(unit), b)
        cols.append(col)
    rows = [list(r) for r in zip(*cols)]
    if k >= 3 and draw(st.booleans()):
        rows[-1] = ctx.add_multiple(rows[0], draw(element), rows[1])
    return matrix_from_rows(ctx, rows)


@settings(max_examples=200, deadline=None)
@given(arbitrary_matrices())
@example(matrix_from_rows(make_field(13), [[1, 1, 0], [1, 2, 0]]))  # a zero projection
@example(matrix_from_rows(make_field(13), [[1, 2, 3], [1, 2, 3]]))  # two partners of 0
@example(matrix_from_rows(make_field(13), [[1, 1, 1, 2], [0, 1, 2, 2]]))  # none in block 0
@example(matrix_from_rows(make_field(13), [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]))  # MDS
def test_elimination_scan_matches_sympy_on_arbitrary_matrices(mat):
    k, n = mat.rows, mat.cols
    if k == 0:
        assert mds_exhaustive(mat) == (True, None)
        return
    dependent = [
        combo
        for combo in itertools.combinations(range(n), k)
        if ext_rank(matrix_from_rows(mat.ctx, [[r[j] for j in combo] for r in mat.entries])) < k
    ]
    witness = dependent[0] if dependent else None
    assert mds_exhaustive(mat) == (witness is None, witness)
    # each block by lowest index on its own, and read in order, the whole walk
    cols = list(zip(*mat.entries))
    blocks = [
        certify._first_dependent_subset(mat.ctx, mat.entries, cols, first)
        for first in range(n - k + 1)
    ]
    assert blocks == [next((c for c in dependent if c[0] == f), None) for f in range(n - k + 1)]
    assert next((b for b in blocks if b is not None), None) == witness


def boundary_matrix(*witness_ranks):
    """[8,3] code over GF(10007), MDS except that each subset of the given
    lex ranks has its last column replaced by a sum of its other two."""
    ctx = make_field(10007)
    gen = generator_matrix(make_code(ctx, range(1, 9), (0, 1, 2)))
    combos = list(itertools.combinations(range(8), 3))
    rows = [list(row) for row in gen.entries]
    for witness_rank in witness_ranks:
        a, b, c = combos[witness_rank]
        for row in rows:
            row[c] = ctx.add(ctx.mul(scalar(ctx, 3), row[a]), ctx.mul(scalar(ctx, 5), row[b]))
    return matrix_from_rows(ctx, rows), combos[witness_ranks[0]]


# C(8,3) = 56 subsets.  The blocks of lowest index 0, 1, 2, 3 hold lex
# ranks 0-20, 21-35, 36-45 and 46-51.
@pytest.mark.parametrize(
    "witness_rank", [18, 19, 20, 21, 27, 28, 29, 35, 36, 37, 38, 39, 45, 46, 55]
)
def test_jobs_split_at_chunk_boundaries(monkeypatch, witness_rank):
    monkeypatch.setattr(certify, "PARALLEL_MIN_PREFIXES", 0)
    mat, target = boundary_matrix(witness_rank)
    serial = mds_exhaustive(mat, jobs=1)
    assert serial == (False, target)
    assert mds_exhaustive(mat, jobs=2) == serial
    assert mds_exhaustive(mat, jobs=3) == serial


@pytest.mark.parametrize("last_of_block", [20, 35, 45])
def test_jobs_report_the_witness_of_the_lowest_block(monkeypatch, last_of_block):
    # witnesses on the last subset of one block and the first of the next
    monkeypatch.setattr(certify, "PARALLEL_MIN_PREFIXES", 0)
    mat, target = boundary_matrix(last_of_block, last_of_block + 1)
    serial = mds_exhaustive(mat, jobs=1)
    assert serial == (False, target)
    assert mds_exhaustive(mat, jobs=2) == serial


def prime_points(p, values):
    ctx = make_field(p)
    return ctx, scalars(ctx, values)


@settings(max_examples=25, deadline=None)
@given(
    point_sets(min_size=2, max_size=7),
    st.lists(st.integers(0, 8), min_size=1, max_size=4, unique=True),
)
@example(prime_points(31, range(1, 21)), [0, 1, 2, 3])  # Reed-Solomon route
@example(prime_points(13, range(6)), [0, 1, 3])  # e_r route
@example(prime_points(1000003, range(1, 11)), [0, 1, 3, 5])  # elimination, MDS
@example(prime_points(13, [1, 12, 2, 3, 4]), [0, 2, 4])  # elimination, a witness
@example(prime_points(5, range(1, 5)), [0, 4])  # rank 1: x^4 = 1 on every point
def test_cross_check_prints_the_same_bytes(drawn, exps):
    ctx, pts = drawn
    exps = tuple(sorted(exps))
    assume(len(exps) <= len(pts))
    code = EvalCode(ctx, EvalSet(pts), ExponentSet(exps))
    outs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "w") as fh:
            fh.write(canonical_dumps(code_to_obj(code)))
        for extra in ([], ["--cross-check"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(["verify", path, *extra])
            outs.append((rc, buf.getvalue()))
    assert outs[0] == outs[1]


def test_cross_check_catches_a_wrong_e_r_answer(monkeypatch):
    ctx = make_field(13)
    code = make_code(ctx, [1, 5, 7, 2, 3, 4], (0, 1, 3))  # not MDS
    monkeypatch.setattr(conditions, "check_esym", lambda *a, **kw: (True, None))
    assert non_rs_certificate(code).is_mds  # the e_r answer alone is trusted
    with pytest.raises(AssertionError, match="internal disagreement"):
        non_rs_certificate(code, cross_check=True)


def test_cross_check_catches_a_wrong_elimination_answer(monkeypatch):
    ctx = make_field(13)
    code = make_code(ctx, [1, 12, 2, 3, 4], (0, 2, 4))  # 1 and -1 share columns
    assert non_rs_certificate(code, cross_check=True).failing_columns == (0, 1, 2)
    monkeypatch.setattr(certify, "mds_exhaustive", lambda *a, **kw: (True, None))
    with pytest.raises(AssertionError, match="internal disagreement"):
        non_rs_certificate(code, cross_check=True)


def test_witness_is_confirmed_by_rank(monkeypatch):
    ctx = make_field(13)
    code = make_code(ctx, range(6), (0, 1, 3))  # MDS
    monkeypatch.setattr(conditions, "check_esym", lambda *a, **kw: (False, (0, 1, 2)))
    with pytest.raises(AssertionError, match="independent columns"):
        non_rs_certificate(code)


# ---------------------------------------------------------------------------
# Routing by lambda_1 = max_exp - (k - 1)


@st.composite
def codes_near_rs(draw):
    """A code whose exponents lie in 0..k+3, so lambda_1 runs from 0 to 4."""
    ctx, pts = draw(point_sets(min_size=1, max_size=7))
    k = draw(st.integers(1, min(4, len(pts))))
    exps = draw(st.lists(st.integers(0, k + 3), min_size=k, max_size=k, unique=True))
    return EvalCode(ctx, EvalSet(pts), ExponentSet(tuple(sorted(exps))))


@settings(max_examples=80, deadline=None)
@given(codes_near_rs())
@example(counter_code(make_field(13), [0, 1, 2, 3, 4], (0, 1, 2)))  # lambda_1 = 0, point 0
@example(counter_code(make_field(2, 3), range(8), (0, 1, 2, 3)))  # lambda_1 = 0, n = q
@example(counter_code(make_field(13), [1, 5, 7, 2], (0, 1, 3)))  # lambda_1 = 1, fails
@example(counter_code(make_field(7), [1, 6, 2, 3], (0, 2, 4)))  # lambda_1 = 2, fails
@example(counter_code(make_field(7), [0, 1, 2], (1, 2, 3)))  # lambda_1 = 1 with r = k
def test_every_route_matches_minors(code):
    gen = generator_matrix(code)
    with pytest.MonkeyPatch.context() as mp:  # hypothesis runs the body many times
        mp.setenv("MDSFORGE_GUARD", str(conditions.SUBSET_GUARD))
        decision = certify._mds_decision(code, gen, 1, False)
        assert decision == certify._mds_by_minors(gen)


def refuse(*args, **kwargs):
    raise AssertionError("the Reed-Solomon route must not scan")


def test_reed_solomon_route_scans_nothing(monkeypatch):
    code = make_code(make_field(37), range(22), range(5))
    for module, name in [
        (certify, "mds_exhaustive"),
        (concurrent.futures, "ProcessPoolExecutor"),
        (conditions, "check_esym"),
        (conditions, "first_failing_subset"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setenv("MDSFORGE_GUARD", str(conditions.SUBSET_GUARD))
    gen = generator_matrix(code)
    assert certify._mds_decision(code, gen, 2, False) == (True, None)
    cert = non_rs_certificate(code, jobs=2)
    assert (cert.is_mds, cert.failing_columns, cert.verdict) == (True, None, VERDICT_RS_CONSISTENT)


def test_reed_solomon_route_keeps_the_subset_guard(capsys, tmp_path, monkeypatch):
    code = make_code(make_field(13), range(12), range(4))  # C(12,4) = 495
    monkeypatch.setenv("MDSFORGE_GUARD", "494")
    with pytest.raises(TooLargeError, match="C\\(12,4\\) = 495"):
        non_rs_certificate(code)
    monkeypatch.setenv("MDSFORGE_GUARD", "495")
    assert non_rs_certificate(code).is_mds
    wide = make_code(make_field(13), range(2), range(3))
    monkeypatch.setenv("MDSFORGE_GUARD", str(conditions.SUBSET_GUARD))
    with pytest.raises(InvalidParamsError):
        certify._mds_decision(wide, generator_matrix(wide), 1, False)
    path = tmp_path / "rs.json"
    path.write_text(canonical_dumps(code_to_obj(code)))
    monkeypatch.setenv("MDSFORGE_GUARD", "494")
    assert main(["verify", str(path)]) == 2
    assert "exceeds subset guard 494" in capsys.readouterr().err


def test_cross_check_runs_on_the_reed_solomon_route(monkeypatch):
    code = make_code(make_field(13), range(6), range(3))
    monkeypatch.setenv("MDSFORGE_GUARD", str(conditions.SUBSET_GUARD))
    seen = []

    def minors(mat):
        seen.append(conditions.guard_in_force(conditions.SUBSET_GUARD))
        return (False, (0, 1, 2))

    monkeypatch.setattr(certify, "_mds_by_minors", minors)
    assert non_rs_certificate(code).is_mds
    assert seen == []
    with pytest.raises(AssertionError, match="internal disagreement"):
        non_rs_certificate(code, cross_check=True)
    assert seen == [conditions.SUBSET_GUARD]


def switched_off(*args, **kwargs):
    raise AssertionError("this route is switched off")


@pytest.mark.parametrize("code", [thm415(11, 2, 3, 34), cor411(5, 5)], ids=["thm415", "cor411"])
def test_r1_codes_are_decided_by_the_sum_table(capsys, tmp_path, monkeypatch, code):
    # cor411(5,5) is [32,5] over GF(64): C(32,5) = 201 376 subsets by the walk
    monkeypatch.setattr(conditions, "first_failing_subset", switched_off)
    path = tmp_path / "code.json"
    path.write_text(canonical_dumps(code_to_obj(code)))
    assert main(["verify", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["mds"], out["witness"], out["verdict"]) == (True, None, VERDICT_NON_RS)


def test_r2_codes_keep_the_walk(monkeypatch):
    walked = []
    walk = conditions.first_failing_subset

    def recording(n, k, *args):
        walked.append((n, k))
        return walk(n, k, *args)

    monkeypatch.setattr(conditions, "first_failing_subset", recording)
    monkeypatch.setattr(conditions, "_sum_stack", switched_off)
    cert = non_rs_certificate(cor62(163, 3, 2, 6))
    assert (cert.is_mds, cert.verdict, walked) == (True, VERDICT_NON_RS, [(6, 3)])


class RecordingPool:
    """Stands in for ProcessPoolExecutor in this process.  It logs
    max_workers, the first index of every task whose result is read (a task
    runs only then) and a cancelling shutdown."""

    log: list = []

    def __init__(self, max_workers):
        self.log.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, firsts):
        for first in firsts:
            self.log.append(first)
            yield fn(first)

    def shutdown(self, wait=True, cancel_futures=False):
        if cancel_futures:
            self.log.append("cancel")


@pytest.mark.parametrize("cpus,workers", [(2, 2), (None, 1), (128, 64)])
def test_jobs_start_at_most_one_worker_per_cpu(monkeypatch, cpus, workers):
    failing, target = boundary_matrix(36)  # the first subset with lowest index 2
    passing = generator_matrix(make_code(make_field(10007), range(1, 9), (0, 1, 2)))
    serial = [mds_exhaustive(failing), mds_exhaustive(passing)]
    assert serial[0] == (False, target)
    monkeypatch.setattr(certify, "PARALLEL_MIN_PREFIXES", 0)
    monkeypatch.setattr(RecordingPool, "log", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(certify.os, "cpu_count", lambda: cpus)
    assert [mds_exhaustive(failing, jobs=64), mds_exhaustive(passing, jobs=64)] == serial
    if workers == 1:
        assert RecordingPool.log == []  # a single worker would only add a fork
    else:
        # first index 0 is scanned before the pool, and no task past the
        # witness's block is read; the pool's first indices run 1..n-k
        assert RecordingPool.log == [workers, 1, 2, "cancel", workers, 1, 2, 3, 4, 5]


def test_jobs_find_a_witness_in_block_0_without_a_pool(monkeypatch):
    # E = {0, 1, 2, 5}: the minor on points S is their Vandermonde determinant
    # times h_2(S), and h_2(0, 1, w, w^2) = 0 for the cube root of unity
    # w = 499501 of GF(1000003), w^2 = 500501, so (0, 1, 2, 3) is the first
    # subset
    code = make_code(make_field(1000003), [0, 1, 499501, 500501, *range(2, 56)], (0, 1, 2, 5))
    gen = generator_matrix(code)
    serial = mds_exhaustive(gen)
    assert serial == (False, (0, 1, 2, 3))
    assert comb(gen.cols - 2, gen.rows - 2) >= certify.PARALLEL_MIN_PREFIXES

    def no_pool(*args, **kwargs):
        raise AssertionError("a witness in block 0 must not start a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(certify.os, "cpu_count", lambda: 2)
    assert mds_exhaustive(gen, jobs=2) == serial


#: Run in a fresh interpreter with the spawn start method, the default on
#: macOS and Windows: a worker inherits nothing from the parent process, so
#: it scans with the field context that each task carries through pickle.
SPAWNED_SCAN = """
import json, multiprocessing, sys
from mdsforge import certify
from mdsforge.evalcode import EvalCode, EvalSet, ExponentSet, generator_matrix
from mdsforge.field import make_field

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    certify.os.cpu_count = lambda: 2
    certify.PARALLEL_MIN_PREFIXES = 0
    out = []
    for (p, m), points in json.loads(sys.argv[1]):
        code = EvalCode(make_field(p, m), EvalSet(tuple(points)), ExponentSet((0, 1, 4)))
        gen = generator_matrix(code)
        out.append([certify.mds_exhaustive(gen, jobs=j) for j in (1, 2)])
    print(json.dumps(out))
"""


def test_jobs_through_a_spawned_pool():
    codes = [
        ((101, 1), list(range(8))),
        ((101, 1), [0, 1, 3, 9, 27, 81, 41, 22]),
        ((3, 3), [8, 23, 7, 18, 3, 10, 0]),
        ((3, 3), [24, 14, 15, 20, 12, 6, 3]),
    ]
    src = os.path.dirname(os.path.dirname(certify.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", SPAWNED_SCAN, json.dumps(codes)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    answers = json.loads(run.stdout)
    assert [serial for serial, _ in answers] == [
        [True, None], [False, [1, 6, 7]], [True, None], [False, [3, 4, 5]]
    ]
    assert all(serial == split for serial, split in answers)

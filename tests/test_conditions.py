"""Subset conditions, counting oracle, bounds, and the three searches."""

import math
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdsforge import conditions
from mdsforge.conditions import (
    BoundQuery,
    ConditionSpec,
    ExhaustiveSearch,
    GreedySearch,
    RandomSearch,
    check_esym,
    existence_bound,
    first_failing_subset,
    search_eval_set,
)
from mdsforge.errors import (
    InvalidParamsError,
    TooLargeError,
)
from mdsforge.field import MAX_FIELD_SIZE, TABLE_CAP, make_field

from oracles import (
    binom_exact,
    colex_scan,
    element,
    esym_direct,
    esym_value,
    greedy_scan,
    poly_from_roots,
    scalar,
    shift_transform,
    subset_scan,
    subset_sum_counts,
)


def scalars(ctx, values):
    return tuple(scalar(ctx, v) for v in values)


def test_spec_validation():
    ConditionSpec(k=3)
    ConditionSpec(k=3, r=3)
    with pytest.raises(InvalidParamsError):
        ConditionSpec(k=0)
    with pytest.raises(InvalidParamsError):
        ConditionSpec(k=3, r=0)
    with pytest.raises(InvalidParamsError):
        ConditionSpec(k=3, r=4)
    with pytest.raises(InvalidParamsError, match="^unknown search strategy 'exhaustive'$"):
        search_eval_set(make_field(7), 3, ConditionSpec(2), "exhaustive")


def test_esym_value_small_cases():
    ctx = make_field(13)
    elems = scalars(ctx, [2, 3, 5])
    assert ctx.digits(esym_value(ctx, elems, 1)) == (10,)
    assert ctx.digits(esym_value(ctx, elems, 2)) == ((6 + 10 + 15) % 13,)
    assert ctx.digits(esym_value(ctx, elems, 3)) == ((30) % 13,)
    assert esym_value(ctx, elems, 0) == 1


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_esym_matches_direct_expansion(data):
    ctx = make_field(13)
    size = data.draw(st.integers(1, 5))
    elems = [scalar(ctx, data.draw(st.integers(0, 12))) for _ in range(size)]
    r = data.draw(st.integers(0, size))
    assert esym_value(ctx, elems, r) == esym_direct(ctx, elems, r)


def test_check_sum_condition_holds():
    # 3-subset sums of {0..5} land in [3, 12]: never 0 mod 13
    ctx = make_field(13)
    ok, witness = check_esym(ctx, scalars(ctx, range(6)), ConditionSpec(k=3))
    assert ok and witness is None


def test_check_sum_condition_first_witness():
    ctx = make_field(13)
    ok, witness = check_esym(ctx, scalars(ctx, range(7)), ConditionSpec(k=3))
    assert not ok
    assert witness == (2, 5, 6)  # 2 + 5 + 6 == 13


def test_check_witness_shifted_window():
    ctx = make_field(13)
    ok, witness = check_esym(ctx, scalars(ctx, range(1, 8)), ConditionSpec(k=3))
    assert not ok
    assert witness == (0, 4, 6)  # points 1, 5, 7


def test_check_order_two():
    ctx = make_field(163)
    ok, _ = check_esym(ctx, scalars(ctx, range(6)), ConditionSpec(k=3, r=2))
    assert ok
    # e_2 over 3-subsets of {0..5} ranges within [2, 47]: far from 0 mod 163
    subs = [(a, b, c) for a in range(6) for b in range(a + 1, 6) for c in range(b + 1, 6)]
    vals = sorted(ctx.digits(esym_value(ctx, scalars(ctx, sub), 2))[0] for sub in subs)
    assert vals[0] == 2 and vals[-1] == 47


def test_check_nonzero_delta():
    ctx = make_field(7)
    spec = ConditionSpec(k=2, delta=element(ctx, (3,)))
    ok, witness = check_esym(ctx, scalars(ctx, [0, 1, 2]), spec)
    assert not ok
    assert witness == (1, 2)  # 1 + 2 == 3


def test_check_vacuous_when_too_few_points():
    ctx = make_field(7)
    ok, witness = check_esym(ctx, scalars(ctx, [0, 1]), ConditionSpec(k=3))
    assert ok and witness is None


def test_check_guard(monkeypatch):
    ctx = make_field(163)
    monkeypatch.setenv("MDSFORGE_GUARD", "10")
    with pytest.raises(TooLargeError, match=r"C\(30,10\) = 30045015 exceeds subset guard 10"):
        check_esym(ctx, scalars(ctx, range(30)), ConditionSpec(k=10))


def test_subset_guard_decides_every_count_exactly(monkeypatch):
    # counts far past the guard are refused from a bit bound, not built
    unbuilt = 0
    for guard in (1, 5, 10**4, 10**7):
        monkeypatch.setenv("MDSFORGE_GUARD", str(guard))
        for n in range(0, 400, 7):
            for k in range(0, n + 1, 3):
                total = comb(n, k)
                if total <= guard:
                    assert conditions._require_subset_count(n, k) == total
                    continue
                with pytest.raises(TooLargeError) as exc:
                    conditions._require_subset_count(n, k)
                tail = f" exceeds subset guard {guard}"
                assert str(exc.value) in (f"C({n},{k}) = {total}{tail}", f"C({n},{k}){tail}")
                unbuilt += "=" not in str(exc.value)
    assert unbuilt


def test_check_matches_brute_scan():
    rng = random.Random(23)
    ctx = make_field(11)
    for _ in range(30):
        n = rng.randint(3, 8)
        k = rng.randint(2, min(4, n))
        r = rng.randint(1, k)
        pts = scalars(ctx, rng.sample(range(11), n))
        ok, witness = check_esym(ctx, pts, ConditionSpec(k=k, r=r))
        expected = subset_scan(ctx, pts, k, r)
        assert ok == (expected is None)
        assert witness == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_walk_matches_itertools(data):
    n = data.draw(st.integers(1, 9))
    k = data.draw(st.integers(1, n))
    first = data.draw(st.none() | st.integers(0, n - 1))
    prefixes = sorted({c[:d] for c in combinations(range(n), k) for d in range(1, k + 1)})
    rejected = set(data.draw(st.lists(st.sampled_from(prefixes), max_size=6)))

    def extend(state, depth, i):
        assert len(state) == depth
        nxt = state + (i,)
        return None if nxt in rejected else nxt

    block = (c for c in combinations(range(n), k) if first is None or c[0] == first)
    expected = next(
        (c for c in block if any(c[:d] in rejected for d in range(1, k + 1))), None
    )
    assert first_failing_subset(n, k, (), extend, first) == expected


def test_walk_over_empty_subsets_never_extends():
    def extend(state, depth, i):
        raise AssertionError("extend called")

    assert first_failing_subset(4, 0, (), extend) is None
    assert first_failing_subset(2, 3, (), extend) is None  # no 3-subsets of 2 points


def test_subset_sum_table_small():
    ctx = make_field(5)
    table = subset_sum_counts(ctx, scalars(ctx, [0, 1, 2]), 2)
    assert table[0] == [1, 0, 0, 0, 0]
    assert table[1] == [1, 1, 1, 0, 0]
    assert table[2] == [0, 1, 1, 1, 0]


def test_subset_sum_table_row_sums_are_binomials():
    ctx = make_field(2, 3)
    pts = tuple(ctx.from_int(v) for v in range(6))
    table = subset_sum_counts(ctx, pts, 4)
    for j in range(5):
        assert sum(table[j]) == comb(6, j)


def test_subset_sum_table_guard():
    ctx = make_field(163)
    with pytest.raises(TooLargeError):
        subset_sum_counts(ctx, scalars(ctx, [1]), 1, guard=100)


def test_table_agrees_with_sum_condition():
    # the r = 1 condition holds for delta exactly when the count at delta is 0
    rng = random.Random(9)
    for p, m in [(11, 1), (2, 3), (3, 2)]:
        ctx = make_field(p, m)
        for _ in range(20):
            n = rng.randint(2, min(6, ctx.q))
            k = rng.randint(1, n)
            pts = tuple(ctx.from_int(v) for v in rng.sample(range(ctx.q), n))
            table = subset_sum_counts(ctx, pts, k)
            for d_idx in range(ctx.q):
                spec = ConditionSpec(k=k, delta=ctx.from_int(d_idx))
                ok, _ = check_esym(ctx, pts, spec)
                assert ok == (table[k][d_idx] == 0)


def refuse(*args, **kwargs):
    raise AssertionError("this route is switched off")


def on_route(route, fn, *args):
    """fn(*args) with the sum-table ratio forcing every r = 1 check and
    search onto `route`; the other route's code refuses to run."""
    with pytest.MonkeyPatch.context() as mp:
        if route == "table":
            mp.setattr(conditions, "SUM_TABLE_RATIO", 0)
            mp.setattr(conditions, "first_failing_subset", refuse)
        else:
            mp.setattr(conditions, "SUM_TABLE_RATIO", math.inf)
            mp.setattr(conditions, "_sum_stack", refuse)
        return fn(*args)


def test_one_sum_stack_serves_check_and_both_searches(monkeypatch):
    # with the stack switched off, the r = 1 table route of the check,
    # exhaustive search and greedy search all refuse to run
    ctx, spec = make_field(2, 4), ConditionSpec(k=3)
    monkeypatch.setattr(conditions, "SUM_TABLE_RATIO", 0)
    monkeypatch.setattr(conditions, "_sum_stack", refuse)
    calls = [
        lambda: check_esym(ctx, tuple(ctx.from_int(v) for v in range(5)), spec),
        lambda: search_eval_set(ctx, 5, spec, ExhaustiveSearch()),
        lambda: search_eval_set(ctx, 5, spec, GreedySearch()),
    ]
    for call in calls:
        with pytest.raises(AssertionError, match="switched off"):
            call()


@st.composite
def sum_cases(draw):
    """(field, point counter values, k, delta value or None): n <= 10 points
    with or without 0, 1 <= k <= n + 1, delta 0 by default or drawn."""
    field = draw(st.sampled_from([(2, 1), (7, 1), (13, 1), (2, 3), (2, 4), (3, 2)]))
    q = field[0] ** field[1]
    n = draw(st.integers(1, min(10, q)))
    zero = n == q or draw(st.booleans())
    values = draw(st.lists(st.integers(1, q - 1), min_size=n - zero, max_size=n - zero, unique=True))
    if zero:
        values.insert(draw(st.integers(0, len(values))), 0)
    k = draw(st.integers(1, n + 1))
    delta = draw(st.none() | st.integers(0, q - 1))
    return field, tuple(values), k, delta


@settings(max_examples=300, deadline=None)
@given(sum_cases())
@example(((13, 1), (3, 0, 5, 12), 1, None))  # k = 1: the point 0 is the witness
@example(((2, 3), (1, 2, 3, 4, 5, 6, 7), 1, 5))  # k = 1 without 0, delta nonzero
@example(((7, 1), (1, 2), 3, None))  # k > n: vacuous
@example(((3, 2), tuple(range(9)), 4, 4))  # the whole of GF(9)
@example(((2, 4), tuple(range(1, 11)), 3, None))  # n = 10 without 0
@example(((13, 1), (1, 2, 3, 4, 5), 3, 12))  # the witness 3 + 4 + 5 opens at index 2
def test_sum_table_matches_walk_and_counts(case):
    (p, m), values, k, delta = case
    ctx = make_field(p, m)
    points = tuple(ctx.from_int(v) for v in values)
    target = ctx.from_int(delta or 0)
    spec = ConditionSpec(k=k, delta=None if delta is None else target)
    walk = on_route("walk", check_esym, ctx, points, spec)
    assert on_route("table", check_esym, ctx, points, spec) == walk
    assert walk[0] == (subset_sum_counts(ctx, points, k)[k][delta or 0] == 0)


def test_route_follows_the_cost_ratio(monkeypatch):
    # r >= 2 and a short set in a large field (C(10,3) = 120 against a
    # table of 10 * 3 * 15626 words) stay on the walk
    monkeypatch.setattr(conditions, "_first_sum_subset", refuse)
    big = make_field(1000003)
    assert check_esym(big, scalars(big, range(1, 11)), ConditionSpec(k=3)) == (True, None)
    ctx = make_field(163)
    assert check_esym(ctx, scalars(ctx, range(6)), ConditionSpec(k=3, r=2)) == (True, None)
    # a long set in a small field takes the table
    monkeypatch.undo()
    monkeypatch.setattr(conditions, "first_failing_subset", refuse)
    ctx = make_field(2, 6)
    points = tuple(ctx.from_int(v) for v in range(1, 33))
    # 1 + 2 + 4 + 8 + 15 = 0 in characteristic 2; every earlier 5-subset
    # has a nonzero XOR
    assert check_esym(ctx, points, ConditionSpec(k=5)) == (False, (0, 1, 3, 7, 14))
    # ... unless the table would outgrow its size cap
    monkeypatch.setattr(conditions, "SUM_TABLE_MAX_BITS", 32 * 5 * 64 - 1)
    with pytest.raises(AssertionError, match="switched off"):
        check_esym(ctx, points, ConditionSpec(k=5))
    # the subset guard comes first on the table route too
    monkeypatch.setattr(conditions, "SUM_TABLE_RATIO", 0)
    monkeypatch.setenv("MDSFORGE_GUARD", "10")
    with pytest.raises(TooLargeError, match="exceeds subset guard 10"):
        check_esym(ctx, points, ConditionSpec(k=5))


def test_shift_transform_example():
    ctx = make_field(7)
    shifted = shift_transform(ctx, scalars(ctx, [0, 1, 2]), element(ctx, (3,)), 3)
    assert tuple(map(ctx.digits, shifted)) == ((6,), (0,), (1,))


def test_shift_transform_moves_target_to_zero():
    rng = random.Random(31)
    ctx = make_field(11)
    for _ in range(20):
        n = rng.randint(3, 7)
        k = rng.randint(1, 3)
        if k % 11 == 0:
            continue
        pts = scalars(ctx, rng.sample(range(11), n))
        delta = scalar(ctx, rng.randrange(11))
        shifted = shift_transform(ctx, pts, delta, k)
        before = subset_sum_counts(ctx, pts, k)[k][delta]
        after = subset_sum_counts(ctx, shifted, k)[k][0]
        assert before == after


def test_shift_transform_characteristic_guard():
    ctx = make_field(3)
    with pytest.raises(ValueError):
        shift_transform(ctx, scalars(ctx, [0, 1]), (1,), 3)


def test_vieta_coefficient_identity():
    # monic polynomial with known roots: coefficient of x^(k-r) is
    # (-1)^r e_r(roots)
    rng = random.Random(41)
    ctx = make_field(13)
    for _ in range(30):
        k = rng.randint(2, 5)
        roots = [scalar(ctx, v) for v in rng.sample(range(13), k)]
        coeffs = poly_from_roots(ctx, roots)
        assert len(coeffs) == k + 1
        for r in range(k + 1):
            sign = 1 if r % 2 == 0 else ctx.neg(1)
            expected = ctx.mul(sign, esym_value(ctx, roots, r))
            assert coeffs[k - r] == expected


# --- bounds -----------------------------------------------------------------


def test_bound_pinned_values():
    holds, lhs, rhs = existence_bound(BoundQuery(q=13, n=6, k=3, max_exp=3))
    assert (holds, lhs, rhs) == (False, 1716, 21960)
    holds, lhs, rhs = existence_bound(BoundQuery(q=67, n=6, k=3, variant="vieta"))
    assert (holds, lhs, rhs) == (True, 99795696, 92119104)


def test_bound_exact_arithmetic_matches_factorials():
    rng = random.Random(53)
    for _ in range(25):
        k = rng.randint(3, 5)
        n = rng.randint(2 * k, 2 * k + 4)
        q = rng.randint(n, n + 60)
        max_exp = rng.randint(k - 1, k + 3)
        holds, lhs, rhs = existence_bound(BoundQuery(q=q, n=n, k=k, max_exp=max_exp))
        assert lhs == binom_exact(q, n)
        assert rhs == ((q**k - 1) // (q - 1)) * binom_exact(max_exp, k) * binom_exact(q - k, n - k)
        assert holds == (lhs > rhs)


def test_bound_validation():
    with pytest.raises(InvalidParamsError):
        existence_bound(BoundQuery(q=13, n=6, k=2, max_exp=3))  # k < 3
    with pytest.raises(InvalidParamsError):
        existence_bound(BoundQuery(q=13, n=5, k=3, max_exp=3))  # 2k > n
    with pytest.raises(InvalidParamsError):
        existence_bound(BoundQuery(q=5, n=6, k=3, max_exp=3))  # n > q
    with pytest.raises(InvalidParamsError):
        existence_bound(BoundQuery(q=13, n=6, k=3))  # general without max_exp
    with pytest.raises(InvalidParamsError):
        existence_bound(BoundQuery(q=13, n=6, k=3, max_exp=1))  # max_exp < k - 1
    with pytest.raises(InvalidParamsError):
        BoundQuery(q=13, n=6, k=3, variant="nope")


def test_bound_log10_bounds_the_larger_side_from_below():
    rng = random.Random(71)
    for _ in range(300):
        k = rng.randint(3, 30)
        n = rng.randint(2 * k, 2 * k + 400)
        q = rng.choice([n, n + rng.randint(0, 50), 2 * n, 4294967291, 2**20])
        variant = rng.choice(["general", "vieta"])
        max_exp = rng.choice([k - 1, k, 2 * k, 10**rng.randint(2, 400)])
        query = BoundQuery(q=q, n=n, k=k, max_exp=max_exp, variant=variant)
        _, lhs, rhs = existence_bound(query)
        exact = max(math.log10(lhs), math.log10(rhs) if rhs else -math.inf)
        estimate = conditions.bound_log10(query)
        assert estimate <= exact + 1e-9
        assert exact <= 2.5 * estimate + 1  # the docstring's upper bound


def test_vieta_variant_needs_no_max_exp():
    holds, lhs, rhs = existence_bound(BoundQuery(q=67, n=6, k=3, variant="vieta"))
    assert isinstance(holds, bool) and lhs > 0 and rhs > 0


# --- searches ---------------------------------------------------------------


def test_exhaustive_search_finds_known_set():
    ctx = make_field(2, 4)
    found = search_eval_set(ctx, 9, ConditionSpec(k=3), ExhaustiveSearch())
    assert list(found) == [0, 4, 5, 6, 7, 8, 9, 10, 11]


def test_exhaustive_search_none_when_impossible():
    # all three elements of Z_3 sum to 0, and that is the only 3-subset
    ctx = make_field(3)
    assert search_eval_set(ctx, 3, ConditionSpec(k=3), ExhaustiveSearch()) is None


def test_exhaustive_search_result_satisfies_condition():
    ctx = make_field(11)
    spec = ConditionSpec(k=3, r=2)
    found = search_eval_set(ctx, 5, spec, ExhaustiveSearch())
    assert found is not None
    ok, _ = check_esym(ctx, found, spec)
    assert ok


def test_exhaustive_guard(monkeypatch):
    ctx = make_field(163)
    monkeypatch.setenv("MDSFORGE_GUARD", "100")
    with pytest.raises(TooLargeError, match=r"C\(163,20\) = \d+ exceeds subset guard 100"):
        search_eval_set(ctx, 20, ConditionSpec(k=3), ExhaustiveSearch())


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(5, 1), (7, 1), (11, 1), (2, 2), (2, 3), (3, 2)]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 10),
    st.integers(1, 11),
)
@example((5, 1), 3, 1, 0, 5)  # no 5-subset of GF(5): {0, 1, 4} sums to 0
@example((7, 1), 4, 2, 3, 2)  # k > n: the first colex set passes vacuously
@example((2, 3), 1, 1, 0, 8)  # k = 1: the whole field contains delta
@example((3, 2), 3, 1, 7, 6)  # r = 1 with a nonzero delta in an extension field
@example((11, 1), 1, 1, 4, 5)  # k = 1 with a nonzero delta below the set
@example((7, 1), 2, 1, 0, 4)  # k = 2: no point may sit next to its negative
@example((2, 3), 4, 1, 0, 5)  # k = 4 in characteristic 2
@example((2, 2), 4, 1, 1, 4)  # n = q: all of GF(4) sums to 0, not to delta
@example((11, 1), 3, 1, 0, 7)  # one past the longest set, six points
@example((7, 1), 1, 1, 2, 6)  # k = 1: the bound counts delta out of the free set
@example((5, 1), 3, 1, 3, 4)  # a nonzero delta: the colex search alone finds {0, 2, 3, 4}
def test_exhaustive_matches_colex_scan(field, k, r, delta, n):
    ctx = make_field(*field)
    assume(r <= k and n <= ctx.q)
    delta = ctx.from_int(delta % ctx.q)
    spec = ConditionSpec(k=k, r=r, delta=delta)
    assert search_eval_set(ctx, n, spec, ExhaustiveSearch()) == colex_scan(ctx, n, k, r, delta)


def test_exhaustive_r1_search_takes_the_sum_stack(monkeypatch):
    # r = 1 tests each candidate by one bit of the subset-sum stack, never
    # by a subset walk
    monkeypatch.setattr(conditions, "first_failing_subset", refuse)
    ctx = make_field(2, 4)
    found = search_eval_set(ctx, 9, ConditionSpec(k=3), ExhaustiveSearch())
    assert list(found) == [0, 4, 5, 6, 7, 8, 9, 10, 11]
    assert search_eval_set(ctx, 10, ConditionSpec(k=3), ExhaustiveSearch()) is None


def count_pushes(monkeypatch):
    """The list of points that the exhaustive searches push, in order."""
    real, pushes = conditions._candidate_stack, []

    def counted(ctx, n, spec):
        next_free, lowest, push, pop = real(ctx, n, spec)

        def counted_push(v):
            pushes.append(v)
            push(v)

        return next_free, lowest, counted_push, pop

    monkeypatch.setattr(conditions, "_candidate_stack", counted)
    return pushes


@pytest.mark.parametrize("field,n,most", [((19, 1), 9, 2700), ((2, 4), 10, 150)])
def test_exhaustive_bound_cuts_pushes(monkeypatch, field, n, most):
    # a branch whose lowest point has too few free candidates under it to
    # finish the set is never entered; without the bound these colex proofs
    # of `none` take 5 870 and 572 pushes
    pushes = count_pushes(monkeypatch)
    assert conditions._colex_search(make_field(*field), n, ConditionSpec(k=3)) is None
    assert 0 < len(pushes) <= most


def test_top_block_proves_gf19_length_9_in_fewer_pushes(monkeypatch):
    # the colex search makes 2 647 pushes and ends on the top block, the
    # sets whose largest point is 18, in its last 855; the top block alone
    # makes those same 855 pushes, and they prove `none`
    pushes = count_pushes(monkeypatch)
    ctx, spec = make_field(19), ConditionSpec(k=3)
    assert conditions._colex_search(ctx, 9, spec) is None
    colex = pushes[:]
    pushes.clear()
    assert conditions._colex_search(ctx, 9, spec, top=True) is None
    assert (len(colex), len(pushes)) == (2647, 855)
    assert pushes == colex[-855:] and pushes[0] == 18
    pushes.clear()
    assert search_eval_set(ctx, 9, spec, ExhaustiveSearch()) is None
    assert len(pushes) == 855


@pytest.mark.parametrize("field,n,found,tests", [
    ((11, 1), 7, (0, 3, 4, 5, 6, 7, 8), 73),
    ((13, 1), 8, None, 563),
])
def test_exhaustive_walk_keeps_the_trivial_bound(monkeypatch, field, n, found, tests):
    # r = 2 keeps no free set, so the colex search tests exactly the
    # candidates it tested before the r = 1 bound existed
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return first_failing_subset(*args, **kwargs)

    monkeypatch.setattr(conditions, "first_failing_subset", counted)
    ctx, spec = make_field(*field), ConditionSpec(k=3, r=2)
    assert conditions._colex_search(ctx, n, spec) == found
    assert len(calls) == tests
    assert search_eval_set(ctx, n, spec, ExhaustiveSearch()) == found


@pytest.mark.parametrize("k,delta,n,starts", [
    (3, 0, 4, [True, False]),  # {1, 2, 3, 4} passes: the colex search names it
    (3, 0, 5, [True]),  # the top block proves `none`
    (1, 4, 4, [False]),  # only {0, 1, 2, 3} passes, and it leaves out 4
], ids=["zero-found", "zero-none", "nonzero"])
def test_top_block_starts_only_for_a_zero_delta(monkeypatch, k, delta, n, starts):
    # e_r(cS) = c^r e_r(S) keeps e_r = 0 and nothing else, so with delta
    # != 0 an empty top block proves nothing: over GF(5) with k = 1 and
    # delta = 4, the one passing 4-set avoids the top point 4
    real, seen = conditions._colex_search, []

    def spy(ctx, n, spec, top=False):
        seen.append(top)
        return real(ctx, n, spec, top)

    monkeypatch.setattr(conditions, "_colex_search", spy)
    ctx, spec = make_field(5), ConditionSpec(k=k, delta=delta)
    found = search_eval_set(ctx, n, spec, ExhaustiveSearch())
    assert seen == starts
    assert found == colex_scan(ctx, n, k, 1, delta)
    if delta:
        assert found == (0, 1, 2, 3)
        assert real(ctx, n, spec, top=True) is None


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(5, 1), (7, 1), (11, 1), (2, 2), (2, 3), (3, 2)]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 11),
)
@example((5, 1), 3, 1, 5)  # no 5-subset of GF(5): the top block ends empty
@example((11, 1), 3, 1, 6)  # the longest r = 1 set: the top block holds one too
@example((11, 1), 3, 1, 7)  # one past it: the top block proves `none`
@example((11, 1), 3, 2, 8)  # r = 2 on the walk stack: `none`
@example((2, 3), 4, 1, 5)  # k = 4 in characteristic 2
@example((3, 2), 2, 2, 5)  # r = k: e_k is the product, so 0 must stay out
@example((7, 1), 1, 1, 6)  # k = 1: every nonzero point
def test_top_block_agrees_with_the_colex_scan(field, k, r, n):
    # delta = 0: the search prints what the colex scan finds, and the top
    # block alone finds a set exactly when one exists
    ctx = make_field(*field)
    assume(r <= k and n <= ctx.q)
    spec = ConditionSpec(k=k, r=r)
    first = colex_scan(ctx, n, k, r)
    assert search_eval_set(ctx, n, spec, ExhaustiveSearch()) == first
    top = conditions._colex_search(ctx, n, spec, top=True)
    assert (top is None) == (first is None)
    if top is not None:
        assert len(set(top)) == n and max(top) == ctx.q - 1
        assert subset_scan(ctx, top, k, r) is None


def test_walk_stays_for_r2_searches(monkeypatch):
    monkeypatch.setattr(conditions, "first_failing_subset", refuse)
    ctx = make_field(11)
    for strategy in (ExhaustiveSearch(), GreedySearch()):
        with pytest.raises(AssertionError, match="switched off"):
            search_eval_set(ctx, 5, ConditionSpec(k=3, r=2), strategy)


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_rotations_kept_across_fields_give_the_oracle_answer(monkeypatch, order):
    # r = 1 checks over four fields in turn, each on the bitsets: every call
    # after a field's first reads that field's rotations from the memo
    monkeypatch.setattr(conditions, "_ROTATIONS", {})
    fields = [make_field(p, m) for p, m in [(2, 6), (3, 4), (101, 1), (2, 4)]][::order]
    rng = random.Random(7)
    for _ in range(6):
        for ctx in fields:
            n, k = rng.randint(4, 10), rng.randint(1, 4)
            points = tuple(rng.sample(range(ctx.q), n))
            delta = rng.randrange(ctx.q)
            spec = ConditionSpec(k=k, delta=delta)
            witness = subset_scan(ctx, points, k, 1, delta)
            assert on_route("table", check_esym, ctx, points, spec) == (witness is None, witness)
    assert sorted(conditions._ROTATIONS) == [16, 64, 81, 101]


def test_rotations_are_kept_only_for_fields_up_to_the_table_cap(monkeypatch):
    monkeypatch.setattr(conditions, "_ROTATIONS", {})
    for p, m in [(2, 10), (2, 11), (1009, 2)]:
        ctx = make_field(p, m)
        points = (1, 2, ctx.q - 1, ctx.q // 3, 5, 7)
        spec = ConditionSpec(k=2)
        witness = subset_scan(ctx, points, 2, 1)
        assert on_route("table", check_esym, ctx, points, spec) == (witness is None, witness)
    assert list(conditions._ROTATIONS) == [TABLE_CAP] == [2**10]


def test_greedy_r1_search_follows_the_route_rule(monkeypatch):
    # ten points of GF(2^6) are under the ratio: one bit test per candidate
    ctx, spec = make_field(2, 6), ConditionSpec(k=3)
    assert conditions._by_sums(ctx, 10, spec)
    monkeypatch.setattr(conditions, "first_failing_subset", refuse)
    found = search_eval_set(ctx, 10, spec, GreedySearch())
    monkeypatch.undo()
    assert found == greedy_scan(ctx, 10, 3, 1)
    # ten points of GF(1000003) are not (C(10,3) = 120 against 10 * 3 *
    # 15626 words), so greedy walks there
    big = make_field(1000003)
    assert not conditions._by_sums(big, 10, spec)
    monkeypatch.setattr(conditions, "_sum_stack", refuse)
    assert search_eval_set(big, 10, spec, GreedySearch()) == greedy_scan(big, 10, 3, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(7, 1), (13, 1), (2, 3), (3, 2), (2, 4)]),
    st.integers(1, 4),
    st.integers(0, 15),
    st.integers(1, 9),
    st.randoms(use_true_random=False),
)
@example((13, 1), 3, 0, 7, random.Random(0))  # greedy and exhaustive find none
@example((2, 3), 1, 5, 7, random.Random(1))  # k = 1: every point but delta
@example((7, 1), 4, 2, 2, random.Random(2))  # k > n: vacuous
def test_routes_agree_on_check_and_both_searches(field, k, delta, n, rng):
    # the ratio moves check_esym, exhaustive and greedy search together
    ctx = make_field(*field)
    assume(n <= ctx.q)
    spec = ConditionSpec(k=k, delta=ctx.from_int(delta % ctx.q))
    points = tuple(ctx.from_int(v) for v in rng.sample(range(ctx.q), n))
    answers = {
        route: (
            on_route(route, check_esym, ctx, points, spec),
            on_route(route, search_eval_set, ctx, n, spec, ExhaustiveSearch()),
            on_route(route, search_eval_set, ctx, n, spec, GreedySearch()),
        )
        for route in ("table", "walk")
    }
    assert answers["table"] == answers["walk"]
    assert answers["table"][2] == greedy_scan(ctx, n, k, 1, spec.delta)


def test_exhaustive_r1_search_past_the_bit_cap_walks(monkeypatch):
    ctx = make_field(13)
    spec = ConditionSpec(k=3, delta=scalar(ctx, 5))
    stacked = search_eval_set(ctx, 6, spec, ExhaustiveSearch())
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return first_failing_subset(*args, **kwargs)

    monkeypatch.setattr(conditions, "first_failing_subset", counted)
    monkeypatch.setattr(conditions, "SUM_TABLE_MAX_BITS", 6 * 3 * 13 - 1)
    assert search_eval_set(ctx, 6, spec, ExhaustiveSearch()) == stacked
    assert stacked is not None and calls


def test_exhaustive_search_proves_gf16_length_10_impossible():
    # the benchmark's second proof: no 10 points of GF(16) avoid a zero 3-sum
    ctx = make_field(2, 4)
    assert search_eval_set(ctx, 10, ConditionSpec(k=3), ExhaustiveSearch()) is None


@pytest.mark.parametrize("m,longest", [(4, (0, *range(4, 12))), (5, (0, *range(8, 24)))])
def test_exhaustive_search_reaches_the_gf2m_frontier(monkeypatch, m, longest):
    # distinct a, b, c with a + b + c = 0 means a + b = c lies in the set, so
    # the set minus 0 is sum-free in F_2^m: it misses its own translate by
    # any of its points, so it has at most 2^(m-1) of them, and 0 can always
    # join (Green and Ruzsa, Israel J. Math. 147, 2005)
    monkeypatch.setenv("MDSFORGE_GUARD", "1000000000")  # C(32,18) ~ 4.7e8 for m = 5
    ctx, spec, n = make_field(2, m), ConditionSpec(k=3), 2 ** (m - 1) + 1
    found = search_eval_set(ctx, n, spec, ExhaustiveSearch())
    assert found == longest
    assert subset_scan(ctx, found, 3, 1) is None
    assert search_eval_set(ctx, n + 1, spec, ExhaustiveSearch()) is None


def test_inputs_over_the_subset_guard_and_under_the_bit_cap_pass_the_ratio_test():
    # r = 1 points under the bit cap have n*k <= SUM_TABLE_MAX_BITS // q.  If
    # the ratio cost of every such input stays below SUBSET_GUARD, then any
    # of them with C(n, k) over the guard takes the sum table; otherwise
    # _by_sums would send it to a walk that refuses it.
    ratio, bits = conditions.SUM_TABLE_RATIO, conditions.SUM_TABLE_MAX_BITS
    guard = conditions.SUBSET_GUARD
    small = 1 << 16
    sieve = bytearray([1]) * small
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(small) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, small, i)))
    worst = 0
    for p in (i for i in range(small) if sieve[i]):
        q, m = p, 1
        while q <= MAX_FIELD_SIZE:
            worst = max(worst, ratio * (bits // q) * m * -(-q // 64))
            q, m = q * p, m + 1
    assert worst < guard
    # every larger prime is a field of its own (m = 1), and there
    # floor(bits/p) * ceil(p/64) <= bits/64 + bits/p
    assert small * small >= MAX_FIELD_SIZE
    assert ratio * (bits / 64 + bits / small) < guard


def test_exhaustive_subset_guard_comes_before_the_search():
    ctx = make_field(41)
    with pytest.raises(TooLargeError, match=r"C\(40,20\) = 137846528820 exceeds subset guard"):
        search_eval_set(ctx, 40, ConditionSpec(k=20), ExhaustiveSearch())


def test_exhaustive_rejects_delta_outside_the_field():
    # delta is a counter index; its digit count is checked where it is read
    ctx = make_field(7)
    for delta in (7, -1):
        message = rf"delta {delta} is not an element of GF\(7\)"
        with pytest.raises(InvalidParamsError, match=message):
            search_eval_set(ctx, 4, ConditionSpec(k=2, delta=delta), ExhaustiveSearch())


def test_random_search_deterministic_and_valid():
    ctx = make_field(13)
    spec = ConditionSpec(k=3)
    a = search_eval_set(ctx, 6, spec, RandomSearch(seed=4))
    b = search_eval_set(ctx, 6, spec, RandomSearch(seed=4))
    assert a == b
    assert a is not None
    ok, _ = check_esym(ctx, a, spec)
    assert ok


def test_random_search_budget_exhaustion():
    ctx = make_field(3)
    spec = ConditionSpec(k=3)
    assert search_eval_set(ctx, 3, spec, RandomSearch(seed=0, max_attempts=8)) is None


def test_greedy_search_valid_and_prefix_stable():
    ctx = make_field(13)
    spec = ConditionSpec(k=3)
    found6 = search_eval_set(ctx, 6, spec, GreedySearch())
    found4 = search_eval_set(ctx, 4, spec, GreedySearch())
    assert found6 is not None
    assert found6[:4] == found4  # greedy never revises its prefix
    ok, _ = check_esym(ctx, found6, spec)
    assert ok


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(7, 1), (13, 1), (2, 3), (3, 2)]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 8),
    st.integers(1, 9),
)
def test_greedy_matches_scan_over_combinations(field, k, r, delta, n):
    ctx = make_field(*field)
    assume(r <= k and n <= ctx.q)
    delta = ctx.from_int(delta % ctx.q)
    spec = ConditionSpec(k=k, r=r, delta=delta)
    assert search_eval_set(ctx, n, spec, GreedySearch()) == greedy_scan(ctx, n, k, r, delta)


def test_single_point_request_is_vacuous():
    ctx = make_field(13)
    spec = ConditionSpec(k=3)
    for strategy in (ExhaustiveSearch(), GreedySearch()):
        found = search_eval_set(ctx, 1, spec, strategy)
        assert found == (0,)
    found = search_eval_set(ctx, 1, spec, RandomSearch(seed=2))
    assert found is not None and len(found) == 1


def test_search_bad_n():
    ctx = make_field(5)
    with pytest.raises(InvalidParamsError):
        search_eval_set(ctx, 0, ConditionSpec(k=2), GreedySearch())
    with pytest.raises(InvalidParamsError):
        search_eval_set(ctx, 6, ConditionSpec(k=2), GreedySearch())

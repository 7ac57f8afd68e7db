"""Packing dynamic program against exhaustive enumeration."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorful_kcenter import dp, fair, solver
from colorful_kcenter.dp import DpProgram, DpResult, dp_solve, find_few_outside
from colorful_kcenter.generators import gen_clumps, gen_random
from colorful_kcenter.model import CenterSet, Instance, ball, mask_points, union_mask


def brute_best(prog):
    """Exhaustive reference: best total weight over feasible picks,
    preferring fewer items, then lexicographically smaller picks."""
    q = prog.num_items
    best = None
    for size in range(min(q, prog.capacity) + 1):
        for picks in itertools.combinations(range(q), size):
            ok = True
            for row, need in zip(prog.rows, prog.demands):
                if sum(row[i] for i in picks) < need:
                    ok = False
                    break
            if not ok:
                continue
            value = sum(prog.weights[i] for i in picks)
            if best is None or value > best[0]:
                best = (value, picks)
    return best


def random_program(rng, weighted):
    q = rng.randint(0, 9)
    t = rng.randint(0, 3)
    rows = tuple(
        tuple(rng.randint(0, 3) for _ in range(q)) for _ in range(t)
    )
    demands = tuple(rng.randint(0, 6) for _ in range(t))
    if weighted:
        weights = tuple(rng.randint(0, 8) for _ in range(q))
    else:
        weights = (0,) * q
    capacity = rng.randint(0, q + 1)
    return DpProgram(weights=weights, rows=rows, demands=demands, capacity=capacity)


def test_unweighted_matches_enumeration():
    rng = random.Random(2)
    hits = misses = 0
    for _ in range(400):
        prog = random_program(rng, weighted=False)
        res = dp_solve(prog)
        want = brute_best(prog)
        if want is None:
            misses += 1
            assert res is None
        else:
            hits += 1
            assert res is not None
            # unweighted: any feasible picks, value zero
            assert res.value == 0
            for row, need in zip(prog.rows, prog.demands):
                assert sum(row[i] for i in res.picks) >= need
            assert len(res.picks) <= prog.capacity
    assert hits > 100 and misses > 50


def test_weighted_matches_enumeration():
    rng = random.Random(4)
    for _ in range(400):
        prog = random_program(rng, weighted=True)
        res = dp_solve(prog)
        want = brute_best(prog)
        if want is None:
            assert res is None
            continue
        assert res is not None
        assert res.value == want[0]
        # claimed picks must earn the claimed value and be feasible
        assert sum(prog.weights[i] for i in res.picks) == res.value
        for row, need in zip(prog.rows, prog.demands):
            assert sum(row[i] for i in res.picks) >= need
        assert len(res.picks) <= prog.capacity


def test_deterministic_picks():
    rng = random.Random(6)
    for _ in range(60):
        prog = random_program(rng, weighted=True)
        a = dp_solve(prog)
        b = dp_solve(prog)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.picks == b.picks and a.value == b.value


def test_zero_capacity_edge():
    prog = DpProgram(
        weights=(1,), rows=((1,),), demands=(1,), capacity=0
    )
    assert dp_solve(prog) is None
    prog = DpProgram(
        weights=(1,), rows=((1,),), demands=(0,), capacity=0
    )
    res = dp_solve(prog)
    assert res is not None and res.picks == ()


def test_demand_above_reach_is_infeasible():
    prog = DpProgram(
        weights=(0, 0),
        rows=((2, 2),),
        demands=(5,),
        capacity=2,
    )
    assert dp_solve(prog) is None


def reference_dp_solve(prog):
    """The plain memoised recursion, without pruning: the implementation
    of record for dp_solve."""
    q = prog.num_items
    rows = prog.rows
    memo = {}

    def best(i, need, budget):
        if i == q or budget == 0:
            return 0 if not any(need) else None
        key = (i, need, budget)
        hit = memo.get(key, memo)
        if hit is not memo:
            return hit
        res = best(i + 1, need, budget)
        nxt = tuple(
            v - rows[l][i] if v > rows[l][i] else 0 for l, v in enumerate(need)
        )
        with_i = best(i + 1, nxt, budget - 1)
        if with_i is not None:
            with_i = with_i + prog.weights[i]
            if res is None or with_i > res:
                res = with_i
        memo[key] = res
        return res

    top = best(0, prog.demands, prog.capacity)
    if top is None:
        return None
    picks = []
    need = prog.demands
    budget = prog.capacity
    value = top
    i = 0
    while any(need) or value > 0:
        skip = best(i + 1, need, budget) if i < q else None
        if skip is not None and skip == value:
            i += 1
            continue
        picks.append(i)
        need = tuple(
            v - rows[l][i] if v > rows[l][i] else 0 for l, v in enumerate(need)
        )
        value = value - prog.weights[i]
        budget -= 1
        i += 1
    return DpResult(top, tuple(picks))


@st.composite
def packing_programs(draw, weighted):
    """Programs shaped like the guess search's: up to 7 rows of sparse
    contributions 0-3, demands up to 8, up to 10 items; most of them
    infeasible."""
    q = draw(st.integers(0, 10))
    t = draw(st.integers(0, 7))
    contribution = st.integers(0, 3) | st.just(0)
    rows = tuple(
        tuple(draw(st.lists(contribution, min_size=q, max_size=q))) for _ in range(t)
    )
    demands = tuple(draw(st.lists(st.integers(0, 8), min_size=t, max_size=t)))
    if weighted:
        # negative weights too: DpProgram allows them
        weight = st.integers(-6, 18) | st.just(0)
        weights = tuple(draw(st.lists(weight, min_size=q, max_size=q)))
    else:
        weights = (0,) * q
    capacity = draw(st.integers(0, q + 1))
    return DpProgram(weights=weights, rows=rows, demands=demands, capacity=capacity)


@settings(max_examples=600, deadline=None)
@given(st.booleans().flatmap(packing_programs))
def test_dp_solve_matches_the_reference(prog):
    assert dp_solve(prog) == reference_dp_solve(prog)


# programs, of the 80 solves below, that reach dp_solve (202 today)
SOLVER_PROGRAMS_FLOOR = 150


def test_dp_solve_matches_the_reference_on_the_solvers_programs(monkeypatch, no_greedy):
    # the benchmark's fair and colorful shapes reach 16 items and demands
    # of 10, past the strategy above, and give weighted programs too
    programs = []
    solve = dp.dp_solve

    def spy(prog):
        programs.append(prog)
        return solve(prog)

    monkeypatch.setattr(dp, "dp_solve", spy)
    for seed in range(1, 41):
        fair.solve_fair(gen_random(seed, 12, 4, 2, demand_density=1, p_density=Fraction(2, 3)))
        solver.solve_colorful(gen_random(seed, 16, 4, 3, demand_density=1))
    assert len(programs) >= SOLVER_PROGRAMS_FLOOR
    assert max(p.num_items for p in programs) > 10
    assert max(m for p in programs for m in p.demands) > 8
    assert any(any(p.weights) for p in programs)
    results = [solve(p) for p in programs]
    assert None in results
    assert results == [reference_dp_solve(p) for p in programs]


@pytest.mark.parametrize(
    "rows, demands, capacity, picks",
    [
        # one row: the demand equals the best two contributions, then one more
        (((3, 1, 2),), (5,), 2, (0, 2)),
        (((3, 1, 2),), (6,), 2, None),
        # capacity above the item count: every item, then one unit short
        (((1, 1, 1),), (3,), 5, (0, 1, 2)),
        (((1, 1, 1),), (4,), 5, None),
        # the same contributions deeper in: the last two items must be
        # picked, and a state that skipped one of them cannot recover
        (((0, 2, 2),), (4,), 2, (1, 2)),
        (((0, 2, 2),), (5,), 3, None),
        # two rows that each fit alone but not within one capacity
        (((2, 2, 0), (0, 0, 2)), (4, 2), 3, (0, 1, 2)),
        (((2, 2, 0), (0, 0, 2)), (4, 1), 2, None),
        (((2, 2, 0), (0, 0, 2)), (4, 3), 3, None),
        # a demand of zero pools nothing
        (((2, 2, 0), (0, 0, 2)), (4, 0), 2, (0, 1)),
        # equal weight everywhere: (1, 2) skips item 0 and must win over
        # (0, 3), which reaches the same state by a later pick
        (((2, 1, 1, 0),), (2,), 2, (1, 2)),
    ],
)
def test_demand_at_and_past_its_reach(rows, demands, capacity, picks):
    prog = DpProgram(
        weights=(0,) * len(rows[0]), rows=rows, demands=demands, capacity=capacity
    )
    want = None if picks is None else DpResult(0, picks)
    assert reference_dp_solve(prog) == want
    assert dp_solve(prog) == want
    # find_few_outside runs the pooled bound before each program reaches
    # dp_solve: it must pass every feasible one
    if picks is not None:
        assert dp._beyond_pooled_reach(rows, demands, capacity) is False


def test_weights_are_summed_exactly():
    # weights past a float's 53 bits: the result is the exact sum, not a
    # rounding
    prog = DpProgram(
        weights=(2**60 + 1, 2**60 + 2, 2**53),
        rows=((1, 1, 1),),
        demands=(2,),
        capacity=2,
    )
    assert dp_solve(prog) == DpResult(2**61 + 3, (0, 1))
    assert reference_dp_solve(prog) == DpResult(2**61 + 3, (0, 1))


def test_a_deep_program_solves():
    # twice Python's default recursion limit of items
    q = 2000
    prog = DpProgram(
        weights=(0,) * q, rows=((0,) * (q - 1) + (1,),), demands=(1,), capacity=1
    )
    assert dp_solve(prog) == DpResult(0, (q - 1,))


def test_find_few_outside_over_a_thousand_inside_centers():
    # every point of a line one apart is an inside center, each ball at
    # r2 = 2/5 holds only its own point, and the one demand is met only
    # by the last: the program has 1,000 items, the last the only pick
    n = 1000
    dist = tuple(tuple(abs(a - b) for b in range(n)) for a in range(n))
    inst = Instance(dist=dist, k=1, colors=(((n - 1,), 1),))
    r2 = Fraction(2, 5)
    assert find_few_outside(inst, r2, range(n), 1) == CenterSet(frozenset({n - 1}), r2)


@pytest.mark.parametrize("weight", [Fraction(1, 2), Fraction(1), 1.0, True])
def test_non_int_weights_are_refused(weight):
    with pytest.raises(ValueError):
        DpProgram(weights=(1, weight), rows=((1, 1),), demands=(1,), capacity=1)


@pytest.mark.parametrize("value", [Fraction(3, 2), Fraction(1), 1.9, 1.0, True])
@pytest.mark.parametrize("field", ["rows", "demands", "capacity"])
def test_non_int_rows_demands_and_capacity_are_refused(field, value):
    # each is refused, not truncated: (3/2,) and 1.9 once read as 1
    fields = {"rows": ((1, value),), "demands": (value,), "capacity": value}
    args = dict(weights=(0, 0), rows=((1, 1),), demands=(1,), capacity=1)
    args[field] = fields[field]
    with pytest.raises(ValueError):
        DpProgram(**args)


def line_instance(coords, k, colors):
    dist = tuple(
        tuple(Fraction(abs(a - b)) for b in coords) for a in coords
    )
    return Instance(dist=dist, k=k, colors=tuple(colors))


def brute_few_outside(inst, r2, centers_s, beta, extra=None):
    """Does any center set with <= beta points outside centers_s meet
    every demand (and the weight threshold) at radius r2?"""
    s_set = set(centers_s)
    outside = [u for u in range(inst.n) if u not in s_set]
    for qsize in range(min(beta, inst.k, len(outside)) + 1):
        for guess in itertools.combinations(outside, qsize):
            for wsize in range(min(len(s_set), inst.k - qsize) + 1):
                for w in itertools.combinations(sorted(s_set), wsize):
                    chosen = set(guess) | set(w)
                    covered = mask_points(union_mask(inst, chosen, r2))
                    if any(
                        len(c.members & covered) < c.demand for c in inst.colors
                    ):
                        continue
                    if extra is not None:
                        weights, goal = extra
                        got = sum(weights[u] for u in covered)
                        if got < goal:
                            continue
                    return True
    return False


def spread_instance(rng):
    """Far-apart anchor points plus satellites, so some spread set can
    serve as inside-centers with disjoint 2r balls."""
    anchors = rng.randint(1, 3)
    coords = []
    for i in range(anchors):
        base = i * 100
        coords.append(base)
        for _ in range(rng.randint(0, 2)):
            coords.append(base + rng.randint(1, 8))
    rng.shuffle(coords)
    n = len(coords)
    gamma = rng.randint(1, 3)
    colors = []
    for _ in range(gamma):
        members = tuple(u for u in range(n) if rng.random() < 0.7) or (0,)
        colors.append((members, rng.randint(0, len(members))))
    k = rng.randint(1, n)
    inst = line_instance(coords, k, colors)
    centers = tuple(u for u, c in enumerate(coords) if c % 100 == 0)
    return inst, centers


# calls, of each 250-call sweep below, in which some outside point is
# dominated, so that the sweep runs the pruning (157 and 146 today)
DOMINATED_FLOOR = 100


def has_dominated(inst, r2, centers):
    """Does some point outside centers have its r2-ball inside the
    r2-ball of a point of centers?"""
    held = [ball(inst, s, r2) for s in centers]
    return any(
        any(ball(inst, u, r2) <= b for b in held)
        for u in range(inst.n) if u not in centers
    )


def test_find_few_outside_matches_brute_existence():
    rng = random.Random(8)
    found_count = none_count = dominated_count = 0
    for _ in range(250):
        inst, centers = spread_instance(rng)
        r2 = Fraction(rng.randint(1, 10))
        beta = rng.randint(0, 2)
        dominated_count += has_dominated(inst, r2, centers)
        exists = brute_few_outside(inst, r2, centers, beta)
        got = find_few_outside(inst, r2, centers, beta)
        assert (got is not None) == exists
        if got is None:
            none_count += 1
            continue
        found_count += 1
        assert len(got.centers) <= inst.k
        assert len(set(got.centers) - set(centers)) <= beta
        covered = mask_points(union_mask(inst, got.centers, r2))
        for c in inst.colors:
            assert len(c.members & covered) >= c.demand
    assert found_count > 60 and none_count > 30
    assert dominated_count > DOMINATED_FLOOR


def test_find_few_outside_weighted_threshold():
    rng = random.Random(10)
    found_count = none_count = dominated_count = 0
    for _ in range(250):
        inst, centers = spread_instance(rng)
        r2 = Fraction(rng.randint(1, 10))
        beta = rng.randint(0, 2)
        dominated_count += has_dominated(inst, r2, centers)
        weights = tuple(rng.randint(0, 4) for _ in range(inst.n))
        threshold = rng.randint(0, 3 * inst.n)
        extra = (weights, threshold)
        exists = brute_few_outside(inst, r2, centers, beta, extra)
        got = find_few_outside(inst, r2, centers, beta, extra)
        assert (got is not None) == exists
        if got is None:
            none_count += 1
            continue
        found_count += 1
        covered = mask_points(union_mask(inst, got.centers, r2))
        assert sum(weights[u] for u in covered) >= threshold
        for c in inst.colors:
            assert len(c.members & covered) >= c.demand
    assert found_count > 50 and none_count > 30
    assert dominated_count > DOMINATED_FLOOR


def test_find_few_outside_rejects_close_centers():
    inst = line_instance([0, 1, 50], 2, [((0, 1, 2), 1)])
    with pytest.raises(ValueError):
        find_few_outside(inst, Fraction(3), (0, 1), 0)


def test_find_few_outside_refuses_negative_weights():
    # dropping dominated guesses is exact only when covering more never
    # loses weight
    inst = line_instance([0, 1, 50], 2, [((0, 1, 2), 1)])
    with pytest.raises(ValueError):
        find_few_outside(inst, Fraction(2), (0,), 1, ((0, -1, 0), 0))


def reference_find_few_outside(inst, r2, centers_s, beta, extra=None):
    """find_few_outside over point sets, one ball union per guess: the
    implementation of record for the bitmask version."""
    r2 = Fraction(r2)
    weights, goal = ((0,) * inst.n, 0) if extra is None else extra
    s_list = sorted(set(centers_s))
    outside = [u for u in range(inst.n) if u not in set(s_list)]
    for size in range(0, min(beta, inst.k, len(outside)) + 1):
        for guess in itertools.combinations(outside, size):
            covered_q = mask_points(union_mask(inst, guess, r2))
            residual_rows = []
            residual_demands = []
            item_balls = [ball(inst, s, r2) - covered_q for s in s_list]
            for c in inst.colors:
                left = c.demand - len(c.members & covered_q)
                if left <= 0:
                    continue
                residual_rows.append(tuple(len(c.members & ib) for ib in item_balls))
                residual_demands.append(left)
            prog = DpProgram(
                weights=tuple(sum(weights[u] for u in ib) for ib in item_balls),
                rows=tuple(residual_rows),
                demands=tuple(residual_demands),
                capacity=inst.k - size,
            )
            res = dp_solve(prog)
            if res is None:
                continue
            base = sum(weights[u] for u in covered_q)
            if base + res.value >= goal:
                chosen = frozenset(guess) | frozenset(s_list[i] for i in res.picks)
                return CenterSet(chosen, r2)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_find_few_outside_matches_the_set_reference(seed, weighted):
    rng = random.Random(seed)
    inst, centers = spread_instance(rng)
    r2 = Fraction(rng.randint(1, 20), rng.choice([1, 2, 3]))
    beta = rng.randint(0, 2)
    extra = None
    if weighted:
        extra = (
            tuple(rng.randint(0, 4) * (12 // rng.choice([1, 3, 4]))
                  for _ in range(inst.n)),
            rng.randint(0, 3 * inst.n) * 3,
        )
    got = find_few_outside(inst, r2, centers, beta, extra)
    assert got == reference_find_few_outside(inst, r2, centers, beta, extra)


def test_dominated_guesses_are_never_built(monkeypatch):
    # every pair's second point lies in the ball of its first, an inside
    # center, at r2 = 2; 9 pairs and k = 8 leave one pair uncovered, so
    # the one guess left, the empty one, fails the pooled bound, as each
    # of the 382 guesses of at most 5 of the 9 outside points would
    calls = []
    pooled = dp._beyond_pooled_reach

    def spy(*args):
        calls.append(args)
        return pooled(*args)

    monkeypatch.setattr(dp, "_beyond_pooled_reach", spy)
    inst = gen_clumps(8, 7)
    assert find_few_outside(inst, 2, range(0, 18, 2), 5) is None
    assert len(calls) == 1


@pytest.mark.parametrize("extra", [None, ((0, 1, 3, 1, 0), 4)])
def test_first_hit_skips_a_dominated_point(extra):
    # inside centers at 0 and 100; the point at 1 is dominated by 0 (both
    # balls are {0, 1} at r2 = 2) and comes first in lex order, but the
    # color {1, 50, 53} needs two members, and only a guess of 50 or 53
    # reaches more than the point at 1
    inst = line_instance([0, 1, 50, 53, 100], 3, [((1, 2, 3), 2)])
    centers = (0, 4)
    assert has_dominated(inst, 2, centers)
    got = find_few_outside(inst, 2, centers, 2, extra)
    assert got == reference_find_few_outside(inst, 2, centers, 2, extra)
    assert got is not None and set(got.centers) - set(centers) == {2}

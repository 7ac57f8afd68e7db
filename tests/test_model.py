"""Core model: rationals, metrics, instances, balls, serialization."""

import copy
import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorful_kcenter import model
from colorful_kcenter.fair import solve_fair
from colorful_kcenter.generators import gen_random
from colorful_kcenter.model import (
    CenterSet,
    ColorClass,
    FairInstance,
    MAX_ROW_BITS,
    Instance,
    InstanceFormatError,
    InstanceSchemaError,
    MetricViolation,
    ball,
    ball_masks,
    candidate_radii,
    check_feasible,
    dumps_instance,
    feasible_sets,
    greedy_balls,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    mask_points,
    rational_from,
    rational_str,
    service_radius,
    union_mask,
    validate_metric,
)
from colorful_kcenter.oracle import enumerate_feasible
from colorful_kcenter.solver import solve_colorful


def line_instance(coords, k, colors):
    dist = tuple(
        tuple(Fraction(abs(a - b)) for b in coords) for a in coords
    )
    return Instance(dist=dist, k=k, colors=tuple(colors))


def test_rational_from_accepts_exact_forms():
    assert rational_from(3) == 3
    assert rational_from("3/4") == Fraction(3, 4)
    assert rational_from(" -2/6 ") == Fraction(-1, 3)
    assert rational_from(Fraction(5, 7)) == Fraction(5, 7)
    assert rational_from("-1.25") == Fraction(-5, 4)


@pytest.mark.parametrize(
    "text, want",
    [
        ("3", Fraction(3)),
        ("+3", Fraction(3)),
        ("-0", Fraction(0)),
        ("3/4", Fraction(3, 4)),
        ("007/010", Fraction(7, 10)),
        ("-2/6", Fraction(-1, 3)),
        (" \t7/2\n", Fraction(7, 2)),
        ("\r\v\f1\f", Fraction(1)),
        ("-1.25", Fraction(-5, 4)),
        ("0.50", Fraction(1, 2)),
        ("+12.0", Fraction(12)),
    ],
)
def test_rational_grammar_accepts(text, want):
    got = rational_from(text)
    assert type(got) is Fraction and got == want


@pytest.mark.parametrize(
    "text",
    [
        "", " ", "+", "-", "/", ".", "+-1", "--1", "1/", "/2", ".5", "1.",
        "1/0", "-1/00", "1/-2", "1/+2", "1/2/3", "1.5/2", "1/2.5", "1.2.3",
        "1_000/3", "1_0", "3 / 4", "3/ 4", "- 3", "0x10", "1e5", "inf", "nan",
        "\u0663/4", "\uff11/2", "\u00b2", "\u00a01/2", "1/2\u2003", "1\x00",
    ],
)
def test_rational_grammar_rejects(text):
    # Fraction() accepts some of these, and which depends on the Python
    # version; the instance format takes none of them
    with pytest.raises(InstanceFormatError, match="bad rational string"):
        rational_from(text)


def test_rational_from_rejects_exponents_at_once():
    # Fraction("1e999999999") would build a 3-billion-bit integer first
    for bad in ("1e999999999", "1E5", " 2.5e-3 ", "1/2e1"):
        start = time.perf_counter()
        with pytest.raises(InstanceFormatError, match="bad rational string"):
            rational_from(bad)
        assert time.perf_counter() - start < 0.1


def test_rational_from_rejects_inexact():
    for bad in (0.5, True, None, [1], "1.5/2x"):
        with pytest.raises(InstanceFormatError):
            rational_from(bad)
    with pytest.raises(InstanceFormatError):
        rational_from("1/0")


def test_rational_str_round_trip():
    rng = random.Random(0)
    for _ in range(200):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert rational_from(rational_str(x)) == x


def test_validate_metric_accepts_line():
    inst = line_instance([0, 1, 5], 1, [((0, 1, 2), 1)])
    assert validate_metric(inst.dist) is None


def test_validate_metric_reports_first_violation():
    f = Fraction
    bad_diag = ((f(1), f(1)), (f(1), f(0)))
    assert validate_metric(bad_diag).kind == "diagonal"
    asym = ((f(0), f(1)), (f(2), f(0)))
    assert validate_metric(asym).kind == "asymmetric"
    neg = ((f(0), f(-1)), (f(-1), f(0)))
    assert validate_metric(neg).kind == "negative"
    tri = (
        (f(0), f(1), f(5)),
        (f(1), f(0), f(1)),
        (f(5), f(1), f(0)),
    )
    assert validate_metric(tri).kind == "triangle"
    ragged = ((f(0), f(1)), (f(1),))
    assert validate_metric(ragged).kind == "shape"


def test_instance_validation():
    with pytest.raises(InstanceFormatError):
        line_instance([0, 1], 0, [((0,), 1)])  # k below 1
    with pytest.raises(InstanceFormatError):
        line_instance([0, 1], 1, [])  # no colors
    with pytest.raises(InstanceFormatError):
        line_instance([0, 1], 1, [((0,), 2)])  # demand above class size
    with pytest.raises(InstanceFormatError):
        line_instance([0, 1], 3, [((0,), 1)])  # k above n
    with pytest.raises(InstanceFormatError):
        line_instance([0, 1], 1, [((0, 5), 1)])  # member out of range


@pytest.mark.parametrize("demand", [-1, -5, 2, 4])
def test_a_demand_outside_its_range_names_the_range(demand):
    """A demand below 0 is out of range as one above the class size is,
    and the message says so, in the form of the k message."""
    with pytest.raises(InstanceFormatError,
                       match=rf"^color 1 demand {demand} outside 0\.\.1$"):
        line_instance([0, 1, 2], 2, [((0, 1), 1), ((2,), demand)])


def test_instance_refuses_numbers_that_are_not_ints():
    """k, every demand and every member must be an int: int() would
    store demand 5/2 as 2 and take 1.5, True or 0.0 as well."""
    for k, colors in (
        (2, [((0, 1, 2), Fraction(5, 2))]),
        (2, [((0, 1, 2), Fraction(2))]),
        (Fraction(3, 2), [((0, 1), 1)]),
        (1.5, [((0, 1), 1)]),
        (True, [((0, 1), 1)]),
        (2, [((0, 1), True)]),
        (2, [((0.0, 1), 1)]),
        (2, [((False, 1), 1)]),
        (2, [ColorClass(frozenset({0, 1}), 1.0)]),
    ):
        with pytest.raises(InstanceFormatError, match="must be ints"):
            line_instance([0, 1, 2], k, colors)
    inst = line_instance([0, 1, 2], 2, [ColorClass(frozenset({0, 1}), 1), ((2,), 1)])
    assert inst.colors == (ColorClass(frozenset({0, 1}), 1), ColorClass(frozenset({2}), 1))


@pytest.mark.parametrize(
    "bad", [((0, 1), 1, 7), ((0, 1),), (5, 1)],
    ids=["third-entry", "no-demand", "members-not-iterable"],
)
def test_instance_refuses_colors_that_are_not_pairs(bad):
    """A color is a ColorClass or a (members, demand) pair: a third
    entry is not dropped, and a missing demand or members that are not
    iterable are a format error naming the color, not a raw one."""
    with pytest.raises(InstanceFormatError, match="color 1 is not a"):
        line_instance([0, 1], 1, [ColorClass(frozenset({0}), 1), bad])
    inst = line_instance([0, 1], 1, [ColorClass(frozenset({0, 1}), 2)])
    assert inst.colors == (ColorClass(frozenset({0, 1}), 2),)


def test_fair_instance_validation():
    inst = line_instance([0, 1], 1, [((0, 1), 1)])
    FairInstance(base=inst, p=(Fraction(1, 2), Fraction(1)))
    with pytest.raises(InstanceFormatError):
        FairInstance(base=inst, p=(Fraction(1, 2),))  # wrong length
    with pytest.raises(InstanceFormatError):
        FairInstance(base=inst, p=(Fraction(3, 2), Fraction(0)))  # above 1
    with pytest.raises(InstanceFormatError):
        FairInstance(base=inst, p=(Fraction(-1, 2), Fraction(0)))  # below 0


def test_balls_and_candidate_radii():
    inst = line_instance([0, 1, 10, 11], 2, [((0, 1, 2, 3), 2)])
    assert ball(inst, 0, 1) == {0, 1}
    assert ball(inst, 0, 0) == {0}
    assert mask_points(union_mask(inst, [0, 2], 1)) == {0, 1, 2, 3}
    radii = candidate_radii(inst)
    assert radii[0] == 0
    assert radii == sorted(set(radii))
    assert Fraction(9) in radii and Fraction(11) in radii


def test_greedy_balls_pick_the_most_uncovered_points_ties_to_the_lowest_index():
    # balls 0, 1 and 2 tie at two points; then 2 alone covers two more
    masks = [0b0011, 0b0011, 0b1100, 0b0100]
    assert greedy_balls(masks, 0b1111, 2) == (0, [0, 2])
    assert greedy_balls(masks, 0b1111, 2, spare=2) == (0b1100, [0])  # stops early
    rng = random.Random(3)
    for _ in range(200):
        n, k, spare = rng.randint(1, 7), rng.randint(0, 4), rng.randint(-1, 3)
        masks = [rng.getrandbits(n) for _ in range(n)]
        start = rng.getrandbits(n)
        left, chosen = start, []
        for _ in range(k):
            if left.bit_count() <= spare:
                break
            v = max(range(n), key=lambda v: ((left & masks[v]).bit_count(), -v))
            left &= ~masks[v]
            chosen.append(v)
        assert greedy_balls(masks, start, k, spare) == (left, chosen)


def test_weighted_greedy_breaks_demand_ties_and_spends_spare_picks_by_new_weight():
    """Color {0, 2} of demand 1 at radius 1, k = 2: balls 0 to 3 each
    hold one member.  With no weights (or all zero) the demand's
    tie goes to ball 0 and its spare pick is not spent; weight on point 3
    sends the tie to ball 2, and weight on point 4 spends the spare pick
    on ball 4."""
    inst = line_instance([0, 1, 10, 11, 20], 2, [((0, 2), 1)])
    assert model.greedy_centers(inst, 1) == frozenset({0})
    assert model.greedy_centers(inst, 1, weights=[0] * 5) == frozenset({0})
    assert model.greedy_centers(inst, 1, weights=[0, 0, 0, 5, 0]) == frozenset({2})
    assert model.greedy_centers(inst, 1, weights=[0, 0, 0, 5, 1]) == frozenset({2, 4})
    assert model.greedy_centers(inst, 1, weights=[3, 0, 0, 0, 1]) == frozenset({0, 4})


def test_service_radius_is_the_least_candidate_radius_meeting_every_demand():
    """service_radius against a brute-force minimum over the candidate
    radii of the radius at which check_feasible's counts meet every
    demand (the budget aside), on integer and on sevenths metrics, with
    None when no radius does (no centers and a positive demand)."""
    inst = line_instance([0, 1, 3, 7], 1, [((0, 1, 2, 3), 3), ((3,), 0)])
    assert service_radius(inst, [0]) == 3  # the third nearest member
    assert service_radius(inst, []) is None
    assert service_radius(line_instance([0, 5], 1, [((0, 1), 0)]), []) == 0
    rng = random.Random(11)
    checked = 0
    for seed in range(1, 41):
        base = gen_random(seed, 3 + seed % 6, 1 + seed % 3, 1 + seed % 3,
                          metric="line" if seed % 2 else "grid-l1")
        for inst in (base, Instance([[d * Fraction(2, 7) for d in row] for row in base.dist],
                                    base.k, base.colors)):
            for _ in range(5):
                centers = rng.sample(range(inst.n), rng.randint(0, inst.n))
                meets = [r for r in candidate_radii(inst) if all(
                    got >= c.demand
                    for got, c in zip(check_feasible(inst, centers, r).counts, inst.colors))]
                assert service_radius(inst, centers) == (meets[0] if meets else None)
                checked += 1
    assert checked == 400


def test_check_feasible_counts():
    inst = line_instance([0, 1, 10], 1, [((0, 1), 2), ((2,), 1)])
    report = check_feasible(inst, [0], 1)
    assert report.counts == (2, 0)
    assert not report.feasible
    report = check_feasible(inst, [0], 10)
    assert report.counts == (2, 1)
    assert report.feasible
    report = check_feasible(inst, [0, 1], 10)
    assert not report.budget_ok  # two centers over k = 1
    assert not report.feasible


def test_serialization_round_trip_byte_stable():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 6)
        coords = [rng.randint(0, 9) for _ in range(n)]
        k = rng.randint(1, n)
        members = tuple(range(n))
        inst = line_instance(coords, k, [(members, rng.randint(0, n))])
        text = dumps_instance(inst)
        again = loads_instance(text)
        assert again == inst
        assert dumps_instance(again) == text  # byte-stable round trip


_json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_docs)
def test_dumps_json_writes_what_json_dumps_writes(doc):
    """Empty and nested containers, escapes, non-ASCII text, bools,
    None and ints all come out as json.dumps(doc, indent=2) writes them."""
    assert model.dumps_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_dumps_json_refuses_what_it_cannot_write():
    with pytest.raises(TypeError):
        model.dumps_json({"x": [1.5]})


def test_serialization_fair_round_trip():
    inst = line_instance([0, 2], 1, [((0, 1), 1)])
    finst = FairInstance(base=inst, p=(Fraction(1, 3), Fraction(0)))
    text = dumps_instance(finst)
    again = loads_instance(text)
    assert isinstance(again, FairInstance)
    assert again == finst
    assert dumps_instance(again) == text


def test_serialization_rejects_floats_and_garbage():
    with pytest.raises(InstanceFormatError):
        loads_instance("{not json")
    with pytest.raises(InstanceFormatError):
        loads_instance(json.dumps({"n": 1, "k": 1}))
    doc = instance_to_dict(line_instance([0, 1], 1, [((0, 1), 1)]))
    doc["dist"][0][1] = 0.5
    with pytest.raises(InstanceFormatError):
        instance_from_dict(doc)


def test_serialization_rejects_non_metric():
    doc = {
        "n": 2,
        "k": 1,
        "dist": [["0/1", "1/1"], ["2/1", "0/1"]],
        "colors": [{"members": [0], "demand": 1}],
    }
    with pytest.raises(InstanceFormatError):
        instance_from_dict(doc)


def test_center_set_and_color_class_are_value_types():
    a = CenterSet(frozenset({1, 2}), Fraction(3))
    b = CenterSet(frozenset({2, 1}), Fraction(3))
    assert a == b
    c = ColorClass(members=frozenset({0}), demand=1)
    assert c.members == {0}


# ---------------------------------------------------------------------------
# the integer and bitmask fast paths against the plain Fraction scans


def reference_validate_metric(dist):
    """Per-triple Fraction scan, the validate_metric of record."""
    n = len(dist)
    for i in range(n):
        if len(dist[i]) != n:
            return MetricViolation("shape", (i,))
    for i in range(n):
        if dist[i][i] != 0:
            return MetricViolation("diagonal", (i,))
        for j in range(n):
            if dist[i][j] < 0:
                return MetricViolation("negative", (i, j))
            if dist[i][j] != dist[j][i]:
                return MetricViolation("asymmetric", (i, j))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for l in range(n):
                if dist[i][l] > dist[i][j] + dist[j][l]:
                    return MetricViolation("triangle", (i, j, l))
    return None


mixed = st.builds(Fraction, st.integers(0, 30), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12]))
deltas = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 8]))


@st.composite
def perturbed_metrics(draw):
    """An L1 metric over rational points in the plane, sometimes with
    one off-diagonal entry (or symmetric pair) moved by a rational
    amount."""
    n = draw(st.integers(1, 7))
    pts = [(draw(mixed), draw(mixed)) for _ in range(n)]
    dist = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts]
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        j = (i + draw(st.integers(1, n - 1))) % n
        dist[i][j] += draw(deltas)
        if draw(st.booleans()):
            dist[j][i] = dist[i][j]
    return tuple(tuple(row) for row in dist)


@st.composite
def line_metrics(draw):
    """A line metric, where every triangle through three distinct points
    is tight, whose coordinates and denominator may push its int rows
    past the 62 bits the packed check keeps, sometimes with one entry
    (or symmetric pair) moved by one unit of the common denominator."""
    n = draw(st.integers(1, 6))
    den = draw(st.sampled_from([1, 6, 2**61 - 1, 3 * (2**89 - 1)]))
    top = draw(st.sampled_from([3, 2**40, 2**100]))
    xs = [Fraction(draw(st.integers(0, top)), den) for _ in range(n)]
    dist = [[abs(a - b) for b in xs] for a in xs]
    if n > 1 and draw(st.booleans()):
        unit = Fraction(1, math.lcm(*(v.denominator for row in dist for v in row)))
        i = draw(st.integers(0, n - 1))
        j = (i + draw(st.integers(1, n - 1))) % n
        dist[i][j] += draw(st.sampled_from([-unit, unit]))
        if draw(st.booleans()):
            dist[j][i] = dist[i][j]
    return tuple(tuple(row) for row in dist)


@settings(max_examples=800, deadline=None)
@given(st.one_of(perturbed_metrics(), line_metrics()))
def test_validate_metric_matches_fraction_scan(dist):
    assert validate_metric(dist) == reference_validate_metric(dist)


@settings(max_examples=100, deadline=None)
@given(perturbed_metrics(), st.data())
def test_instances_are_int_rows_with_an_exact_view(dist, data):
    n = len(dist)
    scale = math.lcm(*(v.denominator for row in dist for v in row))
    if scale == 1 and data.draw(st.booleans()):
        dist = tuple(tuple(map(int, row)) for row in dist)  # as the generators pass them
    inst = Instance(dist=dist, k=data.draw(st.integers(1, n)), colors=((range(n), 1),))
    assert inst.scale == scale
    assert all(type(v) is int for row in inst.rows for v in row)
    assert inst.rows == tuple(tuple(v * scale for v in row) for row in dist)
    if validate_metric(dist) is None:
        # the solve path reads the rows and never builds the view
        solve_colorful(inst)
        solve_fair(FairInstance(base=inst, p=(Fraction(1, 2),) * n))
        assert "dist" not in vars(inst)
        text = dumps_instance(inst)
        again = loads_instance(text)
        assert again == inst
        assert dumps_instance(again) == text  # byte-stable round trip
    assert len(inst.dist) == n
    for got, want in zip(inst.dist, dist):
        assert len(got) == n
        for a, b in zip(got, want):
            assert a == b and isinstance(a, int if scale == 1 else Fraction)


def test_validate_metric_names_the_first_triangle_in_scan_order():
    f = Fraction
    # pair (0, 1) fails at l = 2 and, by more, at l = 3: name l = 2
    dist = (
        (f(0), f(1, 2), f(3, 2), f(5, 2)),
        (f(1, 2), f(0), f(1, 2), f(1)),
        (f(3, 2), f(1, 2), f(0), f(2, 3)),
        (f(5, 2), f(1), f(2, 3), f(0)),
    )
    assert validate_metric(dist) == MetricViolation("triangle", (0, 1, 2))
    assert reference_validate_metric(dist) == validate_metric(dist)
    # d(0,2) at d(0,1) + d(1,2) is a metric; one sixth more, the least
    # step over the common denominator 6, is not
    for d02, want in [(f(5, 6), None), (f(1), MetricViolation("triangle", (0, 1, 2)))]:
        dist = (
            (f(0), f(1, 2), d02),
            (f(1, 2), f(0), f(1, 3)),
            (d02, f(1, 3), f(0)),
        )
        assert validate_metric(dist) == want
    # pair {0, 1} is the first to fail, but only as (1, 0, 2); the ordered
    # scan meets (0, 3, 1) first
    dist = ((0, 1, 1, 0), (1, 0, 3, 0), (1, 3, 0, 1), (0, 0, 1, 0))
    assert validate_metric(dist) == MetricViolation("triangle", (0, 3, 1))
    assert reference_validate_metric(dist) == validate_metric(dist)


def spy_rescans(monkeypatch):
    """The (i, j) pairs that _metric_violation rescans exactly."""
    pairs = []
    real = model._triangle_from

    def spy(rows, i, j):
        pairs.append((i, j))
        return real(rows, i, j)

    monkeypatch.setattr(model, "_triangle_from", spy)
    return pairs


def test_a_metric_is_decided_by_the_packed_check_alone(monkeypatch):
    rescans = spy_rescans(monkeypatch)
    # lines whose entries fill each field width but the two bits it keeps
    # spare, up to the 62 bits kept in full
    for top in (1, 3, 2**6 - 1, 2**7 - 1, 2**14 - 1, 2**15 - 1, 2**31 - 1, 2**62 - 1):
        xs = [0, 1, top // 3, top // 2, top]
        assert validate_metric([[abs(a - b) for b in xs] for a in xs]) is None
    assert validate_metric(((0,),)) is None
    assert validate_metric(((0, 2**70), (2**70, 0))) is None
    # every entry in [1, 2] over an lcm of about 1,900 bits: top bits only
    assert validate_metric(coprime_metric(20)) is None
    assert rescans == []


def wide_line(*nums):
    """Line metric of the points num / (2**89 - 1), a prime, as strings."""
    xs = [Fraction(x, 2**89 - 1) for x in nums]
    return [[rational_str(abs(a - b)) for b in xs] for a in xs]


def test_the_exact_rescan_decides_what_the_margin_cannot_clear(monkeypatch):
    rescans = spy_rescans(monkeypatch)
    # scaled ints 2**100, 2**100 and 2**101 + 1, one unit too long for
    # d(0,2), so 40 bits are dropped; they are all 0 in 2**100, so without
    # the one-unit margin the top bits would sum exactly and clear both
    # pairs that hold the violation
    dist = wide_line(0, 2**100, 2**101 + 1)
    dist[1][2] = dist[2][1] = dist[0][1]
    want = MetricViolation("triangle", (0, 1, 2))
    assert reference_validate_metric([list(map(rational_from, row)) for row in dist]) == want
    assert validate_metric(dist) == want
    assert rescans == [(0, 1)]
    # scaled ints 2**70, 2**70 + 1 and their sum: d(0,1) + d(1,2) = d(0,2)
    # exactly, which the margin on the top bits cannot show, so both pairs
    # with point 1 are rescanned
    rescans.clear()
    assert validate_metric(wide_line(0, 2**70, 2**71 + 1)) is None
    assert rescans == [(0, 1), (1, 2)]


def coprime_metric(n):
    """An n-point metric of "(p+1)/p" strings, a distinct prime p per
    pair (n <= 120): the lcm of its denominators has about as many bits
    as the matrix has digits."""
    sieve = bytearray([1]) * 80_000
    for i in range(2, 283):
        sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
    primes = iter(p for p in range(2, len(sieve)) if sieve[p])
    dist = [["0"] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        p = next(primes)
        dist[i][j] = dist[j][i] = f"{p + 1}/{p}"
    return dist


def test_the_row_bits_limit_holds_before_any_row_is_built():
    # each of the 120 * 120 int row entries would take the lcm's ~10^5
    # bits, about 180 MB in all
    n = 120
    dist = coprime_metric(n)
    for build in (
        lambda: Instance(dist=dist, k=1, colors=((range(n), 1),)),
        lambda: validate_metric(dist),
        lambda: instance_from_dict(
            {"n": n, "k": 1, "dist": dist, "colors": [{"members": [0], "demand": 1}]}
        ),
    ):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(InstanceSchemaError, match=str(MAX_ROW_BITS)):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert peak < 20 * 2**20, peak


BAD_NUMBERS = st.sampled_from(
    [True, False, 0.0, 1.0, 0.5, "x", "", "1e5", "1/0", "1_0", ".5", "\u0663"]
)


@settings(max_examples=200, deadline=None)
@given(perturbed_metrics().filter(lambda d: validate_metric(d) is None), BAD_NUMBERS, st.data())
def test_bad_numbers_are_schema_errors_naming_their_field(dist, bad, data):
    # valid entries as Fractions, ints where integral, or strings: True
    # and 0.0 equal the ints and Fractions 1 and 0 beside them; documents
    # hold the ints and strings, and the Fractions as strings
    n = len(dist)
    form = data.draw(st.sampled_from([Fraction, int, str]))
    dist = [[
        rational_str(v) if form is str else int(v) if form is int and v.denominator == 1 else v
        for v in row
    ] for row in dist]
    p = [data.draw(st.sampled_from([0, 1, Fraction(1, 2), "1/3"])) for _ in range(n)]
    inst = Instance(dist=dist, k=1, colors=((range(n), 0),))

    def as_json(values):
        return [v if type(v) in (int, str) else rational_str(v) for v in values]

    doc = {"n": n, "k": 1, "dist": list(map(as_json, dist)),
           "colors": [{"members": list(range(n)), "demand": 0}], "p": as_json(p)}
    valid_rows = copy.deepcopy(doc["dist"])
    i, j, u = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    dist[i][j] = doc["dist"][i][j] = bad
    p[u] = doc["p"][u] = bad
    with pytest.raises(InstanceSchemaError, match="^each dist row: "):
        Instance(dist=dist, k=1, colors=((range(n), 0),))
    with pytest.raises(InstanceSchemaError, match="^each dist row: "):
        instance_from_dict(doc)
    with pytest.raises(InstanceSchemaError, match="^field p: "):
        FairInstance(base=inst, p=p)
    doc["dist"] = valid_rows
    with pytest.raises(InstanceSchemaError, match="^field p: "):
        instance_from_dict(doc)


@st.composite
def small_instances(draw):
    dist = draw(perturbed_metrics().filter(lambda d: validate_metric(d) is None))
    n = len(dist)
    colors = []
    for _ in range(draw(st.integers(1, 3))):
        members = draw(st.frozensets(st.integers(0, n - 1)))
        colors.append((members, draw(st.integers(0, len(members)))))
    inst = Instance(dist=dist, k=draw(st.integers(1, min(n, 4))), colors=tuple(colors))
    radii = candidate_radii(inst)
    r = draw(st.sampled_from(radii)) + draw(st.sampled_from([0, 0, Fraction(1, 7)]))
    return inst, r, dist


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_feasible_sets_match_check_feasible_and_the_oracle(case):
    inst, r, _ = case
    got = list(feasible_sets(inst, r))
    assert got == plain_scan(inst, r)
    assert got == [frozenset(s) for s in enumerate_feasible(inst, r)]


def plain_scan(inst, r):
    return [
        frozenset(combo)
        for size in range(inst.k + 1)
        for combo in itertools.combinations(range(inst.n), size)
        if check_feasible(inst, combo, r).feasible
    ]


@pytest.mark.parametrize("k", [2, 3])
def test_pick_count_bound_at_its_boundary(monkeypatch, k):
    # at radius 1 the balls are {0, 1} twice, {2, 3} twice, {4, 5} twice
    # and {6}: one ball holds at most two points of the one color, so k
    # balls reach a demand of 2k, which the bound must keep, and no more
    calls = []
    real = model._completions

    def spy(head, start, covered, left, *tables):
        calls.append((start, covered, left))
        return real(head, start, covered, left, *tables)

    monkeypatch.setattr(model, "_completions", spy)
    for demand in range(2 * k + 2):
        inst = line_instance([0, 1, 10, 11, 20, 21, 30], k, [(range(7), demand)])
        calls.clear()
        got = list(feasible_sets(inst, 1))
        assert got == plain_scan(inst, 1)
        assert bool(got) == (demand <= 2 * k)
    # one past it, the balls from index 0 on still reach all 7 points, but
    # the bound prunes each size at its root
    assert calls == [(0, 0, size) for size in range(1, k + 1)]


def scanned_ball(dist, c, r):
    """Ball of radius r around c by comparing the drawn Fractions, entry
    by entry, independently of the instance's int rows."""
    return frozenset(u for u in range(len(dist)) if dist[c][u] <= Fraction(r))


@settings(max_examples=200, deadline=None)
@given(small_instances(), st.data())
def test_ball_tests_match_a_fraction_scan(case, data):
    inst, _, dist = case
    base = data.draw(st.sampled_from(candidate_radii(inst)))
    r = base * data.draw(st.sampled_from([1, 2, 4])) + data.draw(
        st.sampled_from([0, Fraction(1, 7), Fraction(-1, 11)])
    )
    if r.denominator == 1 and data.draw(st.booleans()):
        r = int(r)
    balls = [scanned_ball(dist, c, r) for c in range(inst.n)]
    assert [ball(inst, c, r) for c in range(inst.n)] == balls
    masks = ball_masks(inst, r)
    assert masks == tuple(sum(1 << u for u in b) for b in balls)
    centers = data.draw(st.lists(st.integers(0, inst.n - 1), max_size=inst.n))
    assert [masks[c] for c in centers] == [sum(1 << u for u in balls[c]) for c in centers]
    covered = frozenset().union(*(balls[c] for c in centers))
    assert mask_points(union_mask(inst, centers, r)) == covered


@settings(max_examples=200, deadline=None)
@given(small_instances(), st.data())
def test_check_feasible_counts_match_ball_union(case, data):
    inst, r, dist = case
    centers = data.draw(st.lists(st.integers(0, inst.n - 1), max_size=inst.n + 1))
    report = check_feasible(inst, centers, r)
    covered = frozenset().union(*(scanned_ball(dist, c, r) for c in centers))
    assert report.counts == tuple(len(c.members & covered) for c in inst.colors)
    assert report.budget_ok == (len(set(centers)) <= inst.k)
    assert report.feasible == (
        report.budget_ok and all(len(c.members & covered) >= c.demand for c in inst.colors)
    )

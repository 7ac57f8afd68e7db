"""Greedy clustering around high-x points and its verified properties."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from colorful_kcenter.model import Instance, ball, ball_masks, mask_points, union_mask
from colorful_kcenter.partition import (
    FractionalPoint,
    GoodPartition,
    PartitionViolation,
    good_partition,
    opening_mass,
    verify_partition,
)


def line_instance(coords, k=1):
    dist = tuple(
        tuple(Fraction(abs(a - b)) for b in coords) for a in coords
    )
    return Instance(dist=dist, k=k, colors=(((tuple(range(len(coords)))), 0),))


def random_point(rng, inst, r):
    """Point with x dominated by nearby y mass, as the relaxation's
    coverage rows guarantee; the mass property needs that."""
    n = inst.n
    y = tuple(Fraction(rng.randint(0, 4), 4) for _ in range(n))
    x = []
    for u in range(n):
        cap = min(Fraction(1), sum((y[v] for v in ball(inst, u, r)), Fraction(0)))
        x.append(cap * Fraction(rng.randint(0, 4), 4))
    return FractionalPoint(tuple(x), y)


def test_two_group_line():
    inst = line_instance([0, 1, 10, 11])
    pt = FractionalPoint(
        tuple(Fraction(1, 2) for _ in range(4)),
        tuple(Fraction(1, 2) for _ in range(4)),
    )
    part = good_partition(inst, Fraction(1), pt)
    assert part.centers == (0, 2)
    assert part.clusters == (frozenset({0, 1}), frozenset({2, 3}))
    assert part.size == 2
    assert verify_partition(inst, Fraction(1), pt, part) is None


def test_tie_break_prefers_lowest_index():
    inst = line_instance([0, 20, 40])
    pt = FractionalPoint(
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(1), Fraction(1)),
    )
    part = good_partition(inst, Fraction(1), pt)
    assert part.centers == (0, 1, 2)  # equal x, so scanned in index order


def test_greedy_picks_highest_x_first():
    inst = line_instance([0, 20])
    pt = FractionalPoint(
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1), Fraction(1)),
    )
    part = good_partition(inst, Fraction(1), pt)
    assert part.centers[0] == 1


def test_clusters_partition_all_points():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(1, 9)
        coords = [rng.randint(0, 30) for _ in range(n)]
        inst = line_instance(coords)
        r = Fraction(rng.randint(0, 6))
        pt = random_point(rng, inst, r)
        part = good_partition(inst, r, pt)
        assert verify_partition(inst, r, pt, part) is None
        seen = set()
        for cluster in part.clusters:
            assert not (cluster & seen)
            seen |= cluster
        assert seen == set(range(n))
        # pairwise separation of centers beyond 4r
        for i, a in enumerate(part.centers):
            for b in part.centers[i + 1:]:
                assert inst.dist[a][b] > 4 * r
        # every cluster member within 4r of its center
        for s, cluster in zip(part.centers, part.clusters):
            assert cluster <= ball(inst, s, 4 * r)
        # center x dominates its cluster members
        for s, cluster in zip(part.centers, part.clusters):
            for u in cluster:
                assert pt.x[u] <= pt.x[s]


def max_rescan_partition(inst, r, pt):
    """good_partition as first written: before every pick, rescan all
    unassigned points for the maximum x (ties: lowest index)."""
    n = inst.n
    masks = ball_masks(inst, 4 * Fraction(r))
    unassigned = (1 << n) - 1
    centers = []
    clusters = []
    while unassigned:
        left = [u for u in range(n) if unassigned >> u & 1]
        s = max(left, key=pt.x.__getitem__)
        cluster = masks[s] & unassigned
        centers.append(s)
        clusters.append(frozenset(u for u in left if cluster >> u & 1))
        unassigned &= ~cluster
    return GoodPartition(tuple(centers), tuple(clusters))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 4)), min_size=1, max_size=10),
    st.integers(0, 6),
)
def test_ranked_picks_match_the_max_rescan(points, r):
    # x takes five values, so most draws tie some of them
    inst = line_instance([coord for coord, _ in points])
    x = tuple(Fraction(q, 4) for _, q in points)
    pt = FractionalPoint(x, (Fraction(0),) * len(points))
    assert good_partition(inst, r, pt) == max_rescan_partition(inst, r, pt)


def test_verify_partition_flags_bad_tiling():
    inst = line_instance([0, 1, 10, 11])
    pt = FractionalPoint((Fraction(1, 2),) * 4, (Fraction(1, 2),) * 4)
    cases = [
        # center 2 is not in its own cluster
        ((0, 2), ({0, 1}, {3}), (2,)),
        # point 1 lies in two clusters
        ((0, 2), ({0, 1}, {1, 2, 3}), (1,)),
        # point 3 lies in none
        ((0, 2), ({0, 1}, {2}), (3,)),
    ]
    for centers, clusters, witness in cases:
        bad = GoodPartition(centers, tuple(map(frozenset, clusters)))
        got = verify_partition(inst, Fraction(1), pt, bad)
        assert got == PartitionViolation("partition", witness)


def test_verify_partition_flags_bad_radius():
    inst = line_instance([0, 1, 10, 11])
    pt = FractionalPoint((Fraction(1, 2),) * 4, (Fraction(1, 2),) * 4)
    # centers 0 and 2 are 10 > 4r apart, but point 3 is 11 > 4r from 0
    bad = GoodPartition((0, 2), (frozenset({0, 1, 3}), frozenset({2})))
    got = verify_partition(inst, Fraction(1), pt, bad)
    assert got == PartitionViolation("radius", (0, 3))


def test_verify_partition_flags_bad_mass():
    inst = line_instance([0, 1, 10, 11])
    # the r-ball of center 0 is {0, 1}, with y-mass 1/4 < x[1] = 1/2
    pt = FractionalPoint(
        (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(0), Fraction(1), Fraction(0)),
    )
    bad = GoodPartition((0, 2), (frozenset({0, 1}), frozenset({2, 3})))
    got = verify_partition(inst, Fraction(1), pt, bad)
    assert got == PartitionViolation("mass", (0, 1))


def test_verify_partition_flags_bad_separation():
    inst = line_instance([0, 1, 10, 11])
    pt = FractionalPoint(
        tuple(Fraction(1, 2) for _ in range(4)),
        tuple(Fraction(1, 2) for _ in range(4)),
    )
    bad = GoodPartition(
        centers=(0, 1),
        clusters=(frozenset({0, 2}), frozenset({1, 3})),
    )
    violation = verify_partition(inst, Fraction(1), pt, bad)
    assert violation is not None
    assert violation.prop == "separation"


def test_opening_mass_counts_union_once():
    inst = line_instance([0, 1, 2])
    pt = FractionalPoint(
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
    )
    # balls of radius 1 around 0 and 2 overlap in point 1
    mass = opening_mass(inst, Fraction(1), pt, [0, 2])
    assert mass == Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5)
    assert mask_points(union_mask(inst, [0, 2], 1)) == {0, 1, 2}

"""Cluster covering LPs and sparse vertex rounding."""

import random
from fractions import Fraction

import pytest

from colorful_kcenter import lp
from colorful_kcenter.generators import fixture_adversarial
from colorful_kcenter.model import Instance, check_feasible
from colorful_kcenter.partition import FractionalPoint, good_partition
from colorful_kcenter.rounding import SparseRoundError, build_cluster_system, sparse_round


def line_instance(coords, k, colors):
    dist = tuple(
        tuple(Fraction(abs(a - b)) for b in coords) for a in coords
    )
    return Instance(dist=dist, k=k, colors=tuple(colors))


def covering(rows, rhs):
    """The covering LP build_cluster_system would return for these rows:
    minimize the sum of z in [0,1]^q subject to rows[l] . z >= rhs[l]."""
    q = len(rows[0])
    return lp.LinearProgram(
        q, (1,) * q, lp.MIN, (0,) * q, (1,) * q,
        [(row, lp.GE, b) for row, b in zip(rows, rhs)],
    )


def test_cluster_matrix_of_adversarial_fixture():
    fx = fixture_adversarial(100)
    inst = fx.instance
    pt = FractionalPoint(fx.x, fx.y)
    part = good_partition(inst, Fraction(1), pt)
    program = build_cluster_system(inst, part)
    # two groups of six points each: four of one color and two of the
    # other per cluster, demands three and three
    assert part.size == 2
    assert program == covering(((4, 2), (2, 4)), (3, 3))


def test_extra_weighted_row():
    fx = fixture_adversarial(100)
    inst = fx.instance
    pt = FractionalPoint(fx.x, fx.y)
    part = good_partition(inst, Fraction(1), pt)
    weights = tuple(Fraction(1, 12) for _ in range(12))
    program = build_cluster_system(inst, part, (weights, Fraction(1, 3)))
    assert len(program.constraints) == inst.num_colors + 1
    row = program.constraints[-1]
    # (1/2, 1/2) >= 1/3, held as its ints times 6
    assert (row.coeffs, row.rel, row.rhs) == ((3, 3), lp.GE, 2)


def test_sparse_round_solves_fixture_system():
    fx = fixture_adversarial(100)
    inst = fx.instance
    pt = FractionalPoint(fx.x, fx.y)
    part = good_partition(inst, Fraction(1), pt)
    program = build_cluster_system(inst, part)
    chosen = sparse_round(inst, Fraction(1), part, program, pt)
    assert len(chosen) <= inst.k
    assert check_feasible(inst, chosen, Fraction(4)).feasible


def test_sparse_round_zero_demand_returns_empty():
    inst = line_instance([0, 5], 1, [((0, 1), 0)])
    pt = FractionalPoint((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    part = good_partition(inst, Fraction(1), pt)
    program = build_cluster_system(inst, part)
    assert sparse_round(inst, Fraction(1), part, program, pt) == frozenset()


def test_sparse_round_rejects_unreachable_demand():
    inst = line_instance([0, 10], 2, [((0, 1), 2)])
    pt = FractionalPoint((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
    part = good_partition(inst, Fraction(1), pt)
    program = covering(((1, 1),), (5,))
    with pytest.raises(SparseRoundError, match="demand above the whole ground set"):
        sparse_round(inst, Fraction(1), part, program, pt)


def test_sparse_round_rejects_width_mismatch():
    inst = line_instance([0, 10], 2, [((0, 1), 2)])
    pt = FractionalPoint((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
    part = good_partition(inst, Fraction(1), pt)
    bad = covering(((1,),), (1,))
    with pytest.raises(SparseRoundError, match="width != cluster count"):
        sparse_round(inst, Fraction(1), part, bad, pt)


def random_spread_instance(rng):
    """Clusters far apart so every point is its own candidate center."""
    q = rng.randint(2, 7)
    coords = [i * 100 + rng.randint(0, 5) for i in range(q)]
    gamma = rng.randint(1, 3)
    colors = []
    for _ in range(gamma):
        members = tuple(
            u for u in range(q) if rng.random() < 0.7
        ) or (rng.randrange(q),)
        colors.append((members, 0))
    k = rng.randint(1, q)
    return line_instance(coords, k, colors)


def test_sparse_round_random_systems_stay_sparse():
    """Feeding the rounder exactly the systems it is promised: fractional
    z from a relaxation-like point with opening mass below k - t + 1."""
    rng = random.Random(5)
    fired = 0
    for _ in range(300):
        inst = random_spread_instance(rng)
        n = inst.n
        r = Fraction(1)
        y = tuple(Fraction(rng.randint(0, 4), 4) for _ in range(n))
        x = tuple(
            min(Fraction(1), y[u]) * Fraction(rng.randint(0, 4), 4)
            for u in range(n)
        )
        pt = FractionalPoint(x, y)
        part = good_partition(inst, r, pt)
        rows = []
        rhs = []
        t = rng.randint(1, 3)
        for _ in range(t):
            row = tuple(Fraction(rng.randint(0, 3)) for _ in range(part.size))
            cap = sum(
                (a * min(Fraction(1), y[s]) for a, s in zip(row, part.centers)),
                Fraction(0),
            )
            rows.append(row)
            rhs.append(cap * Fraction(rng.randint(0, 4), 4))
        mass = sum((y[s] for s in part.centers), Fraction(0))
        if mass > inst.k - t + 1:
            continue
        chosen = sparse_round(inst, r, part, covering(rows, rhs), pt)
        fired += 1
        assert len(chosen) <= inst.k
        for row, b in zip(rows, rhs):
            got = sum(
                (a for a, s in zip(row, part.centers) if s in chosen), Fraction(0)
            )
            assert got >= b
    assert fired > 100


def test_sparse_round_on_genuine_relaxation_vertices():
    """Feed the rounder real LP vertices under its promised hypothesis:
    whenever the opening mass stays below the threshold, rounding must
    deliver at most k centers covering every demand at 4r."""
    from colorful_kcenter.partition import opening_mass
    from colorful_kcenter.solver import build_relaxation

    rng = random.Random(9)
    fired = 0
    for _ in range(120):
        n = rng.randint(3, 8)
        coords = sorted(rng.randint(0, 25) for _ in range(n))
        gamma = rng.randint(1, 2)
        colors = []
        for _ in range(gamma):
            members = tuple(u for u in range(n) if rng.random() < 0.8) or (0,)
            colors.append((members, rng.randint(0, len(members))))
        k = rng.randint(1, n)
        inst = line_instance(coords, k, colors)
        r = Fraction(rng.randint(1, 4))
        out = lp.solve(build_relaxation(inst, r))
        if out.status != "optimal":
            continue
        pt = FractionalPoint(out.solution[:n], out.solution[n:])
        part = good_partition(inst, r, pt)
        program = build_cluster_system(inst, part)
        mass = opening_mass(inst, r, pt, part.centers)
        if mass > k - len(program.constraints) + 1:
            continue
        chosen = sparse_round(inst, r, part, program, pt)
        fired += 1
        assert len(chosen) <= k
        assert check_feasible(inst, chosen, 4 * r).feasible
    assert fired > 40

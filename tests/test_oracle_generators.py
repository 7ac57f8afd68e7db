"""Brute-force oracles and instance generators."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from colorful_kcenter import lp
from colorful_kcenter.generators import (
    Graph,
    SetCoverInstance,
    fixture_adversarial,
    gen_clumps,
    gen_from_setcover,
    gen_from_vc3,
    gen_random,
)
from colorful_kcenter.model import (
    FairInstance,
    candidate_radii,
    check_feasible,
    dumps_instance,
    validate_metric,
)
from colorful_kcenter.oracle import (
    OracleCapExceeded,
    brute_force_colorful,
    brute_force_fair,
    enumerate_feasible,
)
from colorful_kcenter.solver import build_relaxation
from cover_families import gen_random_graph, gen_random_setcover


def test_colorful_oracle_self_consistency():
    rng = random.Random(30)
    below_checked = 0
    for trial in range(60):
        n = rng.randint(2, 8)
        k = rng.randint(1, min(3, n))
        gamma = rng.randint(1, 3)
        inst = gen_random(
            seed=7000 + trial, n=n, k=k, gamma=gamma, demand_density=Fraction(1)
        )
        opt = brute_force_colorful(inst)
        assert type(opt.radius) is Fraction
        assert check_feasible(inst, opt.centers, opt.radius).feasible
        radii = candidate_radii(inst)
        assert opt.radius in radii
        idx = radii.index(opt.radius)
        if idx > 0:
            assert enumerate_feasible(inst, radii[idx - 1]) == []
            below_checked += 1
    assert below_checked > 10


def coverage_lottery_exists(finst, r):
    """Independent check: any weights over the radius-r feasible sets
    summing to one and meeting every coverage target."""
    sets = enumerate_feasible(finst.base, r)
    if not sets:
        return False
    m = len(sets)
    program = lp.LinearProgram(
        m,
        tuple(Fraction(0) for _ in range(m)),
        lp.MIN,
        tuple(Fraction(0) for _ in range(m)),
        tuple(None for _ in range(m)),
    )
    program.add(tuple([1] * m), lp.EQ, 1)
    for u in range(finst.n):
        row = tuple(
            Fraction(1) if any(finst.base.dist[u][s] <= r for s in cs) else Fraction(0)
            for cs in sets
        )
        program.add(row, lp.GE, finst.p[u])
    return lp.solve(program).status == "optimal"


def test_fair_oracle_self_consistency():
    rng = random.Random(32)
    below_checked = 0
    for trial in range(40):
        n = rng.randint(2, 7)
        k = rng.randint(1, min(3, n))
        gamma = rng.randint(1, 2)
        finst = gen_random(
            seed=8000 + trial, n=n, k=k, gamma=gamma, p_density=Fraction(3, 4)
        )
        assert isinstance(finst, FairInstance)
        opt = brute_force_fair(finst)
        weights = [lam for _, lam in opt.support]
        assert weights and all(lam > 0 for lam in weights)
        assert sum(weights) == 1
        for cs, _ in opt.support:
            assert check_feasible(finst.base, cs, opt.radius).feasible
        for u in range(finst.n):
            got = sum(
                (lam for cs, lam in opt.support
                 if any(finst.base.dist[u][s] <= opt.radius for s in cs)),
                Fraction(0),
            )
            assert got >= finst.p[u]
        radii = candidate_radii(finst.base)
        idx = radii.index(opt.radius)
        if idx > 0:
            assert not coverage_lottery_exists(finst, radii[idx - 1])
            below_checked += 1
    assert below_checked > 5


def test_oracle_cap():
    inst = gen_random(seed=1, n=10, k=4, gamma=2)
    with pytest.raises(OracleCapExceeded):
        brute_force_colorful(inst, cap=10)


def min_vertex_cover(g):
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            s = set(combo)
            if all(u in s or v in s for u, v in g.edges):
                return size
    raise AssertionError("full vertex set always covers")


def test_vc3_radius_zero_equivalence():
    rng = random.Random(34)
    for trial in range(40):
        n = rng.randint(2, 8)
        g = gen_random_graph(seed=9000 + trial, n=n)
        vc = min_vertex_cover(g)
        for t in sorted({max(1, vc - 1), vc, vc + 1}):
            inst = gen_from_vc3(g, t)
            feas = brute_force_colorful(inst).radius == 0
            assert feas == (t >= vc)


def _built(gen, *args):
    """dumps_instance of gen(*args), or ("error", message)."""
    try:
        return dumps_instance(gen(*args))
    except ValueError as exc:
        return ("error", str(exc))


def test_vc3_is_setcover_on_the_incidence_family():
    rng = random.Random(46)
    with pytest.raises(ValueError, match="graph needs at least one vertex"):
        gen_from_vc3(Graph(n=0, edges=()), 1)
    checked = 0
    for trial in range(300):
        n = rng.randint(1, 7)
        density = rng.choice([0, 0.2, 0.5, 1])
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        g = Graph(n=n, edges=tuple(pairs))
        # set v holds the indices of the edges at v
        incidence = SetCoverInstance(
            universe=len(g.edges),
            sets=tuple(frozenset(i for i, e in enumerate(g.edges) if v in e) for v in range(n)),
        )
        for t in range(-1, n + 3):
            got = _built(gen_from_vc3, g, t)
            if t == 0 and g.edges:
                assert got == ("error", "t=0 with edges present has no center-budget analogue")
            else:
                assert got == _built(gen_from_setcover, incidence, t), (g, t)
                checked += 1
    assert checked > 1500


def min_set_cover(sc):
    m = len(sc.sets)
    full = set(range(sc.universe))
    for size in range(m + 1):
        for combo in itertools.combinations(range(m), size):
            if set().union(*(sc.sets[i] for i in combo)) >= full if combo else not full:
                return size
    return None


def test_setcover_radius_zero_equivalence():
    rng = random.Random(36)
    for trial in range(40):
        universe = rng.randint(0, 7)
        num_sets = rng.randint(1, 6)
        sc = gen_random_setcover(seed=9500 + trial, universe=universe, num_sets=num_sets)
        best = min_set_cover(sc)
        assert best is not None
        for t in sorted({max(1, best - 1), best, best + 1}):
            inst = gen_from_setcover(sc, t)
            feas = brute_force_colorful(inst).radius == 0
            assert feas == (t >= best)


def test_an_uncovered_element_is_found_before_the_universe_is_built():
    sc = SetCoverInstance(universe=10**6, sets=(frozenset({0, 2}),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="element 1 is in no set"):
            gen_from_setcover(sc, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_generator_validation_errors():
    g = Graph(n=3, edges=((0, 1),))
    with pytest.raises(ValueError):
        gen_from_vc3(g, 0)  # edges present
    with pytest.raises(ValueError):
        gen_from_vc3(g, -1)
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 0),))
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 5),))
    with pytest.raises(ValueError):
        gen_from_setcover(SetCoverInstance(universe=2, sets=(frozenset({0}),)), 1)
    with pytest.raises(ValueError):
        SetCoverInstance(universe=1, sets=(frozenset({3}),))
    # numbers that are not ints are refused, not truncated by int()
    for edge in ((Fraction(1, 2), 1), (0.7, 2.2), (0, 2.0), (True, 2)):
        with pytest.raises(ValueError, match="not an int"):
            Graph(n=3, edges=(edge,))
    for element in (2.9, Fraction(5, 2), 1.0, True):
        with pytest.raises(ValueError, match="must be ints"):
            SetCoverInstance(universe=3, sets=(frozenset({0, element}),))
    with pytest.raises(ValueError):
        gen_clumps(3, 1)  # too few colors
    with pytest.raises(ValueError):
        gen_clumps(2, 3)  # more colors than centers
    with pytest.raises(ValueError):
        gen_clumps(3, 2, spread=5)
    with pytest.raises(ValueError):
        gen_random(seed=0, n=3, k=1, gamma=1, metric="l2")
    with pytest.raises(ValueError):
        gen_random(seed=0, n=3, k=4, gamma=1)
    with pytest.raises(ValueError):
        fixture_adversarial(m=8)


def test_gen_random_metrics_are_metrics():
    rng = random.Random(38)
    for trial in range(30):
        n = rng.randint(1, 10)
        metric = rng.choice(["line", "grid-l1"])
        inst = gen_random(seed=300 + trial, n=n, k=1, gamma=1, metric=metric)
        assert validate_metric(inst.dist) is None
        assert inst.n == n


def test_gen_random_fair_targets():
    rng = random.Random(40)
    for trial in range(30):
        finst = gen_random(
            seed=400 + trial,
            n=rng.randint(1, 8),
            k=1,
            gamma=1,
            p_density=Fraction(1, 2),
        )
        assert isinstance(finst, FairInstance)
        for p in finst.p:
            assert 0 <= p <= 1 and p.denominator <= 4


def test_gen_random_determinism():
    a = gen_random(seed=77, n=8, k=2, gamma=2, metric="grid-l1")
    b = gen_random(seed=77, n=8, k=2, gamma=2, metric="grid-l1")
    assert a.dist == b.dist and a.colors == b.colors


def test_fixture_invariants():
    fx = fixture_adversarial()
    inst = fx.instance
    assert inst.n == 12 and inst.k == 2
    assert tuple(c.demand for c in inst.colors) == (3, 3)
    # the two color classes partition the points
    members = [set(c.members) for c in inst.colors]
    assert members[0] | members[1] == set(range(12))
    assert members[0] & members[1] == set()
    opt = brute_force_colorful(inst)
    assert opt.radius == fx.optimal_radius == 1
    for sol in (fx.solution_a, fx.solution_b):
        assert check_feasible(inst, sol, 1).feasible
    assert {fx.solution_a, fx.solution_b} <= set(enumerate_feasible(inst, 1))
    assert enumerate_feasible(inst, Fraction(1, 2)) == []
    # the stored fractional point lies in the radius-1 relaxation
    prog = build_relaxation(inst, 1)
    assert lp.check_point(prog, fx.x + fx.y) is None


def test_gen_clumps_structure_and_optimum():
    for k in range(2, 5):
        for gamma in range(2, k + 1):
            inst = gen_clumps(k, gamma)
            assert inst.n == 2 * (k + 1)
            assert inst.num_colors == gamma
            nmaj = k - gamma + 2
            assert inst.colors[0].demand == 2 * nmaj - 1
            assert len(inst.colors[0].members) == 2 * nmaj
            for c in inst.colors[1:]:
                assert c.demand == 1 and len(c.members) == 2
            # one center per pair cannot be beaten below the gap radius
            assert brute_force_colorful(inst).radius == 9


def test_gen_random_graph_connected_and_capped():
    rng = random.Random(42)
    for trial in range(40):
        n = rng.randint(1, 10)
        g = gen_random_graph(seed=500 + trial, n=n)
        assert all(sum(u in e for e in g.edges) <= 3 for u in range(n))
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for a, b in g.edges:
                for w in (a, b):
                    if u in (a, b) and w not in seen:
                        seen.add(w)
                        frontier.append(w)
        assert seen == set(range(n))


def test_gen_random_setcover_everything_coverable():
    rng = random.Random(44)
    for trial in range(40):
        universe = rng.randint(0, 8)
        num_sets = rng.randint(1, 6)
        sc = gen_random_setcover(seed=600 + trial, universe=universe, num_sets=num_sets)
        assert len(sc.sets) == num_sets
        covered = set().union(*sc.sets) if sc.sets else set()
        assert covered == set(range(universe))

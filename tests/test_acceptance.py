"""End-to-end acceptance suite.

One test per shipped guarantee, in dependency order: the two
approximation sweeps come first and stash every cut they saw, then the
cut audit replays those cuts against full enumeration.  All arithmetic
is exact; no tolerance anywhere.
"""

import json
import random
import time
from dataclasses import replace
from fractions import Fraction

from colorful_kcenter import fair, lp, solver
from colorful_kcenter.cli import main as cli_main
from colorful_kcenter.dp import DpProgram, dp_solve
from colorful_kcenter.fair import DualPoint, solve_fair, weighted_goal
from colorful_kcenter.generators import (
    fixture_adversarial,
    gen_clumps,
    gen_from_setcover,
    gen_from_vc3,
    gen_random,
)
from colorful_kcenter.model import (
    FairInstance,
    Instance,
    check_feasible,
    mask_points,
    union_mask,
    weighted_coverage,
)
from colorful_kcenter.oracle import (
    brute_force_colorful,
    brute_force_fair,
    enumerate_feasible,
)
from colorful_kcenter.rounding import sparse_round as real_sparse_round
from colorful_kcenter.solver import build_relaxation, solve_colorful, solve_fixed_radius
from cover_families import gen_random_graph, gen_random_setcover

# cuts observed by the approximation sweeps, audited later:
# (instance, probe radius, cut) and (fair instance, separation, cut)
COLORFUL_CUTS = []
FAIR_CUTS = []
# every rounding call observed during the colorful sweep:
# (within budget, demands covered at four times the probe radius)
ROUNDING_FIRINGS = []


def _colorful_pool():
    """The colorful sweep: 200 seeded random instances on both metrics
    plus the clump family that forces the cutting plane."""
    rng = random.Random(90)
    pool = []
    for trial in range(200):
        n = rng.randint(4, 14)
        k = rng.randint(1, min(4, n))
        gamma = rng.randint(1, 3)
        metric = "line" if trial % 2 == 0 else "grid-l1"
        density = Fraction(1) if trial % 3 == 0 else Fraction(1, 2)
        pool.append(
            gen_random(
                seed=20_000 + trial,
                n=n,
                k=k,
                gamma=gamma,
                metric=metric,
                demand_density=density,
            )
        )
    for k in range(2, 5):
        for gamma in range(2, min(k, 3) + 1):
            pool.append(gen_clumps(k, gamma))
    return pool


def _rounding_spy(inst, r, part, system, pt):
    """sparse_round, noting on ROUNDING_FIRINGS whether its centers keep
    the budget and meet every demand at 4r."""
    chosen = real_sparse_round(inst, r, part, system, pt)
    report = check_feasible(inst, chosen, 4 * Fraction(r))
    ROUNDING_FIRINGS.append((len(set(chosen)) <= inst.k, report.feasible))
    return chosen


def _no_greedy(inst, radius, targets=0, weights=None):
    """greedy_centers that never answers: every probe takes the LP path,
    and every fair separation separate_or_certify."""
    return None


def test_colorful_radius_within_four_times_optimum(monkeypatch):
    """Each instance is solved as shipped, then with greedy centers that
    never answer, so that the paper's LP path, which the greedy-4r
    probes answer before on most of the pool, is swept as well."""
    start = time.monotonic()
    pool = _colorful_pool()
    monkeypatch.setattr(solver, "sparse_round", _rounding_spy)
    shipped = solver.greedy_centers
    for inst in pool:
        opt = brute_force_colorful(inst)
        for greedy in (shipped, _no_greedy):
            monkeypatch.setattr(solver, "greedy_centers", greedy)
            sol = solve_colorful(inst)
            assert check_feasible(inst, sol.centers.centers, sol.centers.radius).feasible
            assert opt.radius <= sol.centers.radius <= 4 * opt.radius
            for rec in sol.trace.records:
                for cut in rec.cuts:
                    COLORFUL_CUTS.append((inst, rec.radius, cut))
    assert len(pool) >= 200
    assert time.monotonic() - start < 300


def test_fair_radius_and_exact_coverage():
    start = time.monotonic()
    rng = random.Random(92)
    count = 0
    for trial in range(50):
        n = rng.randint(3, 10)
        k = rng.randint(1, min(3, n))
        gamma = rng.randint(1, 2)
        finst = gen_random(
            seed=21_000 + trial,
            n=n,
            k=k,
            gamma=gamma,
            metric="line" if trial % 2 == 0 else "grid-l1",
            p_density=Fraction(2, 3),
        )
        opt = brute_force_fair(finst)
        sol = solve_fair(finst)
        dist = sol.distribution
        assert opt.radius <= dist.radius <= 4 * opt.radius
        weights = [w for _, w in dist.support]
        assert sum(weights) == 1 and all(w > 0 for w in weights)
        for centers, _ in dist.support:
            assert check_feasible(finst.base, centers, dist.radius).feasible
        for u in range(finst.n):
            got = sum(
                (w for centers, w in dist.support
                 if any(finst.base.dist[u][c] <= dist.radius for c in centers)),
                Fraction(0),
            )
            assert got >= finst.p[u]
        for rec in sol.trace.records:
            for sep in rec.separations:
                for cut in sep.cuts:
                    FAIR_CUTS.append((finst, sep, cut))
        count += 1
    assert count >= 50
    assert time.monotonic() - start < 600


def test_every_emitted_cut_survives_enumeration():
    if not COLORFUL_CUTS:
        # standalone run: regenerate the cut-forcing family
        for k in range(2, 5):
            for gamma in range(2, min(k, 3) + 1):
                inst = gen_clumps(k, gamma)
                sol = solve_colorful(inst)
                for rec in sol.trace.records:
                    for cut in rec.cuts:
                        COLORFUL_CUTS.append((inst, rec.radius, cut))
    assert COLORFUL_CUTS
    for inst, r, cut in COLORFUL_CUTS:
        fence = mask_points(union_mask(inst, cut.centers, r))
        for centers in enumerate_feasible(inst, r):
            assert len(centers & fence) <= cut.bound
    for finst, sep, cut in FAIR_CUTS:
        dual = sep.dual
        fence = mask_points(union_mask(finst.base, cut.centers, sep.radius))
        for centers in enumerate_feasible(finst.base, sep.radius):
            if weighted_coverage(finst.base, dual.alpha, centers, sep.radius) <= dual.mu:
                continue
            assert len(centers & fence) <= cut.bound


def _min_vertex_cover(g):
    import itertools

    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            s = set(combo)
            if all(u in s or v in s for u, v in g.edges):
                return size
    raise AssertionError("unreachable")


def _min_set_cover(sc):
    import itertools

    full = set(range(sc.universe))
    for size in range(len(sc.sets) + 1):
        for combo in itertools.combinations(range(len(sc.sets)), size):
            got = set().union(*(sc.sets[i] for i in combo)) if combo else set()
            if got >= full:
                return size
    raise AssertionError("generator restocks every element")


def test_cover_reductions_decide_radius_zero():
    sampled = 0
    for trial in range(500):
        n = 1 + trial % 8
        g = gen_random_graph(seed=22_000 + trial, n=n)
        sampled += 1
        vc = _min_vertex_cover(g)
        budgets = {t for t in (1, vc - 1, vc, vc + 1, n) if 1 <= t <= n}
        for t in sorted(budgets):
            inst = gen_from_vc3(g, t)
            res = solve_fixed_radius(inst, 0)
            assert (res.status == "solved") == (t >= vc)
            if res.status == "solved":
                assert check_feasible(inst, res.centers.centers, 0).feasible
    assert sampled >= 500

    rng = random.Random(94)
    for trial in range(120):
        universe = rng.randint(0, 7)
        num_sets = rng.randint(1, 6)
        sc = gen_random_setcover(seed=23_000 + trial, universe=universe, num_sets=num_sets)
        best = _min_set_cover(sc)
        budgets = {
            t for t in (1, best - 1, best, best + 1, num_sets) if 1 <= t <= num_sets
        }
        for t in sorted(budgets):
            inst = gen_from_setcover(sc, t)
            res = solve_fixed_radius(inst, 0)
            assert (res.status == "solved") == (t >= best)


def test_dp_agrees_with_exhaustive_enumeration():
    rng = random.Random(96)
    infeasible_seen = feasible_seen = 0
    for _ in range(1000):
        q = rng.randint(1, 12)
        t = rng.randint(0, 3)
        bound = rng.randint(0, 6)
        rows = tuple(
            tuple(rng.randint(0, bound) for _ in range(q)) for _ in range(t)
        )
        demands = tuple(rng.randint(0, bound) for _ in range(t))
        weights = tuple(rng.randint(0, 6) * (6 // rng.randint(1, 3)) for _ in range(q))
        capacity = rng.randint(0, q)
        prog = DpProgram(weights=weights, rows=rows, demands=demands, capacity=capacity)

        # exhaustive pass over all subsets via shared-prefix sums
        size = [0] * (1 << q)
        val = [0] * (1 << q)
        sums = [(0,) * t] * (1 << q)
        best = None
        if all(d <= 0 for d in demands):
            best = 0
        for mask in range(1, 1 << q):
            low = mask & -mask
            i = low.bit_length() - 1
            prev = mask ^ low
            size[mask] = size[prev] + 1
            val[mask] = val[prev] + weights[i]
            sums[mask] = tuple(s + row[i] for s, row in zip(sums[prev], rows))
            if size[mask] <= capacity and all(
                s >= d for s, d in zip(sums[mask], demands)
            ):
                if best is None or val[mask] > best:
                    best = val[mask]

        got = dp_solve(prog)
        if best is None:
            infeasible_seen += 1
            assert got is None
        else:
            feasible_seen += 1
            assert got is not None and got.value == best
    assert infeasible_seen > 50 and feasible_seen > 500


def test_rounding_stays_sparse_and_feasible(monkeypatch, no_greedy):
    # every rounding call observed by the colorful sweep kept the budget
    # and covered all demands; run alone, the sweep's instances are
    # solved here, with the greedy off, so that their probes round
    if not ROUNDING_FIRINGS:
        monkeypatch.setattr(solver, "sparse_round", _rounding_spy)
        for inst in _colorful_pool():
            solve_colorful(inst)
    assert ROUNDING_FIRINGS
    assert all(budget and covered for budget, covered in ROUNDING_FIRINGS)

    # extreme points of box-constrained covering programs have at most
    # one fractional coordinate per constraint row
    rng = random.Random(98)
    solved = 0
    for _ in range(500):
        q = rng.randint(1, 8)
        t = rng.randint(0, 4)
        program = lp.LinearProgram(
            q,
            tuple(Fraction(1) for _ in range(q)),
            lp.MIN,
            tuple(Fraction(0) for _ in range(q)),
            tuple(Fraction(1) for _ in range(q)),
        )
        for _ in range(t):
            row = tuple(Fraction(rng.randint(0, 4)) for _ in range(q))
            rhs = Fraction(rng.randint(0, int(sum(row))) if sum(row) > 0 else 0)
            program.add(row, lp.GE, rhs)
        out = lp.solve(program)
        assert out.status == "optimal"
        assert lp.check_point(program, out.solution) is None
        fractional = sum(1 for z in out.solution if 0 < z < 1)
        assert fractional <= t
        solved += 1
    assert solved == 500


def test_two_cluster_fixture_regression():
    fx = fixture_adversarial()
    inst = fx.instance
    assert brute_force_colorful(inst).radius == 1
    program = build_relaxation(inst, 1)
    assert lp.check_point(program, fx.x + fx.y) is None
    sol = solve_colorful(inst)
    assert sol.centers.radius <= 4
    assert check_feasible(inst, sol.centers.centers, sol.centers.radius).feasible


def test_strict_threshold_margin_is_exact():
    rng = random.Random(100)
    for _ in range(1000):
        n = rng.randint(1, 8)
        den = rng.randint(1, 50)
        alpha = tuple(rng.randint(0, 50) for _ in range(n))
        mu = rng.randint(-50, 50)
        dual = DualPoint(alpha=alpha, mu=mu, den=den)
        weights, goal = weighted_goal(dual)
        assert goal >= 0
        assert all(isinstance(w, int) and w == a for w, a in zip(weights, alpha))
        sums = [(Fraction(0), 0)] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            v, w = sums[mask ^ low]
            u = low.bit_length() - 1
            sums[mask] = (v + Fraction(alpha[u], den), w + weights[u])
        for v, w in sums:
            assert (v > Fraction(mu, den)) == (w >= goal)


def test_identical_runs_produce_identical_bytes(tmp_path):
    inst = tmp_path / "inst.json"
    assert cli_main([
        "gen", "random", "--seed", "31", "--n", "10", "--k", "3", "--gamma", "2",
        "--demand-density", "1", "--out", str(inst),
    ]) == 0
    inst2 = tmp_path / "inst2.json"
    assert cli_main([
        "gen", "random", "--seed", "31", "--n", "10", "--k", "3", "--gamma", "2",
        "--demand-density", "1", "--out", str(inst2),
    ]) == 0
    assert inst.read_bytes() == inst2.read_bytes()

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["solve", "--instance", str(inst), "--out", str(a)]) == 0
    assert cli_main(["solve", "--instance", str(inst), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())

    fair = tmp_path / "fair.json"
    assert cli_main([
        "gen", "random", "--seed", "33", "--n", "7", "--k", "2", "--gamma", "1",
        "--p-density", "1/2", "--out", str(fair),
    ]) == 0
    fa, fb = tmp_path / "fa.json", tmp_path / "fb.json"
    argv = ["solve-fair", "--instance", str(fair), "--samples", "6", "--seed", "5"]
    assert cli_main(argv + ["--out", str(fa)]) == 0
    assert cli_main(argv + ["--out", str(fb)]) == 0
    assert fa.read_bytes() == fb.read_bytes()


def _scaled(inst, f):
    """inst with every distance times f, fair targets kept."""
    if isinstance(inst, FairInstance):
        return FairInstance(base=_scaled(inst.base, f), p=inst.p)
    return Instance(dist=[[d * f for d in row] for row in inst.dist], k=inst.k,
                    colors=inst.colors)


def _scaled_record(rec, f):
    """rec and its separations with every radius times f."""
    return replace(rec, radius=rec.radius * f,
                   separations=[_scaled_record(sep, f) for sep in rec.separations])


def _scaling_pool():
    """Full-demand gen_random instances on both metrics, colorful with
    gamma below k (the LP path) and at or above it (enumeration), fair
    with p density 2/3 likewise, and clumps, on which a cut fires; one
    half-demand fair instance whose last probe rounds a column at 4r
    (the greedy point mass answers most full-demand fair probes), one
    full-demand fair instance that certifies radius 0 by column
    generation, and one colorful instance solved at 2r after its greedy
    centers miss at 4r."""
    pool = [gen_clumps(2, 2), gen_clumps(3, 2), gen_clumps(4, 3),
            gen_random(4, 12, 3, 1, "line", Fraction(1, 2), Fraction(1, 2)),
            gen_random(201, 12, 4, 2, "line", Fraction(1), Fraction(2, 3)),
            gen_random(10, 12, 4, 2, "line", Fraction(1))]
    for metric in ("line", "grid-l1"):
        for seed in range(1, 5):
            for n, k, gamma in ((12, 4, 2), (14, 3, 2), (16, 5, 3), (10, 2, 3)):
                pool.append(gen_random(seed, n, k, gamma, metric, Fraction(1)))
            for n, k, gamma in ((9, 3, 2), (12, 4, 2), (12, 3, 1), (8, 2, 2)):
                pool.append(gen_random(seed, n, k, gamma, metric, Fraction(1), Fraction(2, 3)))
    return pool


def test_scaling_every_distance_scales_every_radius_and_nothing_else(monkeypatch):
    """Metamorphic: times 3, and times 2/7, which makes the instance's
    scale 7 and its radius levels sevenths, every radius of the solution
    and its trace scales by the factor, and centers, distributions,
    optimality and every probe and separation record are otherwise
    equal: outcomes, cuts, duals and counts.  Every instance is solved
    as shipped and again with greedy centers that never answer, on
    which the pool still rounds, solves at 2r, fires a cut and prices
    fair columns at 4r."""
    outcomes = set()
    shipped = solver.greedy_centers
    for inst in _scaling_pool():
        is_fair = isinstance(inst, FairInstance)
        solve = solve_fair if is_fair else solve_colorful
        for greedy in (shipped, _no_greedy):
            monkeypatch.setattr(fair if is_fair else solver, "greedy_centers", greedy)
            sol = solve(inst)
            for f in (3, Fraction(2, 7)):
                got = solve(_scaled(inst, f))
                answer, want = ((got.distribution, sol.distribution) if is_fair
                                else (got.centers, sol.centers))
                assert answer == replace(want, radius=want.radius * f)
                assert got.probe_radius == sol.probe_radius * f
                assert got.optimal == sol.optimal
                assert got.trace.records == [_scaled_record(rec, f) for rec in sol.trace.records]
            outcomes.update(r.outcome for p in sol.trace.records for r in (p, *p.separations))
            outcomes.update("cut" for p in sol.trace.records for r in (p, *p.separations)
                            if r.cuts)
    # the pool reaches every branch of both solvers
    assert outcomes == {"rounded-4r", "solved-2r", "infeasible", "enumerated", "cut", "empty",
                        "certified", "distribution", "greedy-4r", "exact", "column-4r",
                        "column-2r", "column-greedy"}

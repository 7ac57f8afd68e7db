"""Coverage-probability distributions: dual responses, separation,
column generation, and end-to-end guarantees."""

import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from colorful_kcenter import fair, lp
from colorful_kcenter.fair import (
    Distribution,
    DualPoint,
    coverage_probability,
    sample,
    separate_or_certify,
    solve_fair,
    solve_restricted,
    weighted_goal,
)
from colorful_kcenter.generators import gen_random
from colorful_kcenter.model import (
    CenterSet,
    FairInstance,
    Instance,
    candidate_radii,
    check_feasible,
    counting_bound,
    feasible_sets,
    greedy_centers,
    mask_points,
    mask_weight,
    service_radius,
    union_mask,
    weighted_coverage,
)
from colorful_kcenter.oracle import _coverage_lp, brute_force_fair, enumerate_feasible
from colorful_kcenter.solver import (
    LiveRelaxation, ProbeRecord, build_relaxation, counting_certificate, target_rows,
)


def fair_line(coords, k, colors, p):
    dist = tuple(
        tuple(Fraction(abs(a - b)) for b in coords) for a in coords
    )
    inst = Instance(dist=dist, k=k, colors=tuple(colors))
    return FairInstance(base=inst, p=tuple(Fraction(v) for v in p))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 60), max_size=8),
    st.integers(-600, 600),
    st.integers(1, 60),
)
@example([1, 3], 3, 4)  # a set weighing mu is not above it, one weighing mu + 1 is
@example([1], -3, 2)  # a goal below zero is clamped
def test_weighted_goal_units(alpha, mu, den):
    """Over the restricted dual's denominator den, a set's alpha-weight
    exceeds mu exactly when its int weights sum to the goal or more:
    the margin is 1 / den, and the clamp changes no answer."""
    dual = DualPoint(alpha=tuple(alpha), mu=mu, den=den)
    weights, goal = weighted_goal(dual)
    assert all(isinstance(w, int) for w in weights) and goal >= 0
    for mask in range(1 << len(alpha)):
        covered = sum(a for i, a in enumerate(alpha) if mask >> i & 1)
        assert (mask_weight(weights, mask) >= goal) == (
            Fraction(covered, den) > Fraction(mu, den)
        )


def test_dual_point_rejects_negative_weight():
    with pytest.raises(ValueError):
        DualPoint(alpha=(-1,), mu=0, den=2)


def test_distribution_validation():
    good = Distribution(
        support=((frozenset({0}), Fraction(1, 3)), (frozenset({1}), Fraction(2, 3))),
        radius=Fraction(0),
    )
    assert sum(w for _, w in good.support) == 1
    with pytest.raises(ValueError):
        Distribution(support=(), radius=Fraction(0))
    with pytest.raises(ValueError):
        Distribution(support=((frozenset({0}), Fraction(0)),), radius=Fraction(0))
    with pytest.raises(ValueError):
        Distribution(
            support=((frozenset({0}), Fraction(1, 2)),), radius=Fraction(0)
        )


def test_single_point_full_target():
    finst = fair_line([0], 1, [((0,), 1)], [1])
    sol = solve_fair(finst)
    assert sol.optimal
    dist = sol.distribution
    assert dist.radius == 0
    assert coverage_probability(finst.base, dist, 0) == 1


def test_pair_forces_doubled_radius():
    # one budget slot, both points demand 3/4: no single-set lottery
    # below the pair distance can serve both
    finst = fair_line([0, 2], 1, [((0, 1), 0)], [Fraction(3, 4), Fraction(3, 4)])
    opt = brute_force_fair(finst)
    assert opt.radius == 2
    sol = solve_fair(finst)
    assert sol.optimal and sol.distribution.radius == 2
    for u in (0, 1):
        assert coverage_probability(finst.base, sol.distribution, u) >= Fraction(3, 4)


def test_zero_targets_trivial():
    finst = fair_line([0, 5], 1, [((0, 1), 0)], [0, 0])
    sol = solve_fair(finst)
    assert sol.distribution.radius == 0


def test_restricted_with_no_columns(monkeypatch):
    """The restricted dual over no columns has its optimum at alpha = 0,
    mu = -1, and column generation prices that point before any
    restricted solve."""
    finst = fair_line(
        [0, 2], 1, [((0, 1), 0)], [Fraction(3, 4), Fraction(1, 4)]
    )
    dual, out = solve_restricted(finst, 0, [])
    assert out.status == "optimal"
    assert isinstance(dual, DualPoint)
    assert Fraction(dual.mu, dual.den) == -1
    assert all(a == 0 for a in dual.alpha)
    calls = _priced_columns(monkeypatch)
    priced = []

    def price(got):
        priced.append((got, len(calls)))
        return None

    assert fair._generate(finst, 0, price, ProbeRecord(radius=Fraction(0))) is None
    assert priced == [(DualPoint(alpha=(0, 0), mu=-1, den=1), 0)] and not calls


def test_restricted_respects_column_constraints():
    finst = fair_line(
        [0, 2], 1, [((0, 1), 0)], [Fraction(3, 4), Fraction(1, 4)]
    )
    dual, out = solve_restricted(finst, 0, [frozenset({0})])
    assert out.status == "optimal"
    assert isinstance(dual, DualPoint)
    alpha = tuple(Fraction(a, dual.den) for a in dual.alpha)
    mu = Fraction(dual.mu, dual.den)
    # mu is the target-weighted mass less one, and the column covers at most mu
    assert sum((p * a for p, a in zip(finst.p, alpha)), Fraction(0)) - mu == 1
    assert weighted_coverage(finst.base, alpha, {0}, 0) <= mu
    assert mu == 0 and alpha == (Fraction(0), Fraction(4))


def test_restricted_dual_point_is_the_lp_point(monkeypatch):
    """Every dual point solve_restricted returns along probing and
    enumerating solve_fair runs is its LP's optimum A over D, one entry
    per targeted point, read as ints over den = L D, L the lcm of the
    targets' denominators: alpha is L A, 0 at an untargeted point, and
    mu is L p.A - L D."""
    checked = collections.Counter()
    solve = fair.solve_restricted

    def spy(finst, radius, columns, start=None):
        got, out = solve(finst, radius, columns, start)
        if out.status == "optimal":
            scale = math.lcm(*(t.denominator for t in finst.p))
            targeted = [u for u, t in enumerate(finst.p) if t]
            point = dict(zip(targeted, out.point))
            assert len(out.point) == len(targeted)
            assert got.den == scale * out.den
            assert got.alpha == tuple(scale * point.get(u, 0) for u in range(finst.n))
            mass = sum(scale * finst.p[u] * a for u, a in point.items())
            assert got.mu == mass - scale * out.den
            checked[out.den > 1] += 1
            checked["untargeted"] += len(targeted) < finst.n
        return got, out

    monkeypatch.setattr(fair, "solve_restricted", spy)
    for seed in range(1, 5):
        for gamma in (1, 2):  # k = 2: gamma = 1 probes, gamma = 2 enumerates
            solve_fair(gen_random(
                seed=12_000 + seed, n=8, k=2, gamma=gamma,
                demand_density=Fraction(1, 2), p_density=Fraction(2, 3),
            ))
    assert checked[True] >= 5 and checked[False] >= 5 and checked["untargeted"] >= 5


@st.composite
def restricted_cases(draw):
    """A random instance with random targets, a radius among its
    candidates, and a list of distinct center sets."""
    n = draw(st.integers(2, 6))
    base = gen_random(draw(st.integers(0, 10**6)), n, 2, 1)
    targets = st.sampled_from([0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 1])
    finst = FairInstance(base=base, p=tuple(draw(targets) for _ in range(n)))
    radius = draw(st.sampled_from(candidate_radii(base)))
    sets = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=2)
    columns = draw(st.lists(sets, min_size=1, max_size=5, unique=True))
    return finst, radius, columns


def test_a_distribution_exactly_when_the_coverage_lp_is_feasible():
    """solve_restricted reads a distribution off the restricted dual's
    certificate exactly when the oracle's primal coverage LP over the
    same columns is feasible, and that distribution meets every target;
    both outcomes are drawn."""
    seen = collections.Counter()

    @settings(max_examples=200, deadline=None)
    @given(restricted_cases())
    def check(case):
        finst, radius, columns = case
        got, out = solve_restricted(finst, radius, columns)
        feasible = lp.solve(_coverage_lp(finst, columns, radius)).status == "optimal"
        assert isinstance(got, Distribution) == feasible
        if feasible:
            assert got.radius == radius
            assert {c for c, _ in got.support} <= set(columns)
            for u, target in enumerate(finst.p):
                assert coverage_probability(finst.base, got, u) >= target
        else:
            assert isinstance(got, DualPoint) and out.status == "optimal"
        seen[feasible] += 1

    check()
    assert seen[True] >= 20 and seen[False] >= 20


def _mu_form(finst, radius, columns):
    """The restricted dual with mu kept: minimize mu over alpha >= 0 and
    mu >= -1 subject to p.alpha - mu == 1 and, per column,
    cov_c.alpha - mu <= 0."""
    n = finst.n
    program = lp.LinearProgram(n + 1, (0,) * n + (1,), lp.MIN, (0,) * n + (-1,))
    program.add(list(finst.p) + [-1], lp.EQ, 1)
    for column in columns:
        cov = union_mask(finst.base, column, radius)
        program.add([cov >> u & 1 for u in range(n)] + [-1], lp.LE, 0)
    return program


def test_the_covering_form_matches_the_mu_form():
    """The covering LP over the targeted points is infeasible exactly
    when the restricted dual with mu is, and otherwise its least p.alpha
    less one is that program's least mu, which the dual point reads as
    mu; an untargeted point's alpha is 0."""
    seen = collections.Counter()

    @settings(max_examples=200, deadline=None)
    @given(restricted_cases())
    def check(case):
        finst, radius, columns = case
        got, out = solve_restricted(finst, radius, columns)
        want = lp.solve(_mu_form(finst, radius, columns))
        assert out.status == want.status
        if want.status == "optimal":
            scale = math.lcm(*(t.denominator for t in finst.p))
            assert out.value / scale - 1 == want.value == Fraction(got.mu, got.den)
            assert all(a == 0 for a, t in zip(got.alpha, finst.p) if not t)
        else:
            for u, target in enumerate(finst.p):
                assert coverage_probability(finst.base, got, u) >= target
        seen[want.status] += 1

    check()
    assert seen["optimal"] >= 20 and seen["infeasible"] >= 20


def test_an_untargeted_point_covered_by_every_column():
    """Point 1 has no target and both columns cover it: it has no alpha,
    its dual point entry is 0, and the distribution the two columns give
    still meets every target."""
    finst = fair_line([0, 1, 2], 1, [((0, 1, 2), 0)], [Fraction(1, 2), 0, Fraction(1, 2)])
    columns = [frozenset({0}), frozenset({2})]
    dual, out = solve_restricted(finst, 1, columns[:1])
    assert len(out.point) == 2
    assert dual == DualPoint(alpha=(0, 0, 4), mu=0, den=2)
    dist, out = solve_restricted(finst, 1, columns, out)
    assert dist.support == ((columns[0], Fraction(1, 2)), (columns[1], Fraction(1, 2)))
    for u, target in enumerate(finst.p):
        assert coverage_probability(finst.base, dist, u) >= target


def test_restricted_distributions_meet_every_target():
    """solve_restricted, given random center sets one at a time and
    re-solved warm, until its restricted dual is infeasible: each
    distribution read off the certificate meets every target.  Column c
    weighs y_c / sum(y), y >= 0 the certificate's multipliers on the
    column rows, and sum_c y_c cov_c(u) >= p(u) sum(y)."""
    rng = random.Random(27)
    targets = [0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1]
    found = 0
    for trial in range(120):
        n = rng.randint(2, 7)
        base = gen_random(27_000 + trial, n, 2, 1)
        finst = FairInstance(base=base, p=tuple(rng.choice(targets) for _ in range(n)))
        radius = rng.choice(candidate_radii(base))
        pool = [frozenset(s) for size in (1, 2) for s in itertools.combinations(range(n), size)]
        rng.shuffle(pool)
        columns, out = [], None
        for column in pool:
            columns.append(column)
            got, out = solve_restricted(finst, radius, columns, out)
            if isinstance(got, Distribution):
                assert {c for c, _ in got.support} <= set(columns)
                for u, target in enumerate(finst.p):
                    assert coverage_probability(base, got, u) >= target
                found += 1
                break
    assert found >= 60


def _priced_columns(monkeypatch, most=None):
    """(radius, number of columns) of every solve_restricted call, each
    checked to be at most most before it is solved."""
    calls = []
    solve = fair.solve_restricted

    def spy(finst, radius, columns, start=None):
        calls.append((radius, len(columns)))
        assert most is None or len(columns) <= most
        return solve(finst, radius, columns, start)

    monkeypatch.setattr(fair, "solve_restricted", spy)
    return calls


def test_enumeration_prices_to_the_brute_force_radius(monkeypatch):
    """With gamma >= k, solve_fair prices columns from the feasible sets
    and returns the radius of the oracle's coverage LP over all of them,
    with a distribution meeting every target; some radii take several
    priced columns."""
    calls = _priced_columns(monkeypatch)
    rng = random.Random(22)
    for trial in range(24):
        n, k = rng.randint(5, 10), rng.randint(1, 3)
        finst = gen_random(
            seed=22_000 + trial, n=n, k=k, gamma=k + trial % 2,
            metric=rng.choice(["line", "grid-l1"]),
            demand_density=rng.choice([Fraction(1, 2), Fraction(1)]),
            p_density=Fraction(2, 3),
        )
        sol = solve_fair(finst)
        assert sol.optimal
        assert sol.distribution.radius == brute_force_fair(finst).radius
        for u, target in enumerate(finst.p):
            assert coverage_probability(finst.base, sol.distribution, u) >= target
    assert max(count for _, count in calls) >= 5


def test_enumeration_keeps_the_restricted_dual_small(monkeypatch):
    """Exact pricing adds a column only while some feasible set beats
    mu, so the restricted dual stays far smaller than the number of
    distinct coverages it prices from, which reaches the thousands
    here; its tableau grows with the square of its rows."""
    finst = gen_random(
        seed=2, n=30, k=3, gamma=3, metric="grid-l1",
        demand_density=Fraction(1, 4), p_density=Fraction(2, 3),
    )
    calls = _priced_columns(monkeypatch, most=finst.n)
    sol = solve_fair(finst)
    assert sol.optimal and sol.distribution.radius == 2
    coverages = {
        r: len({union_mask(finst.base, c, r) for c in feasible_sets(finst.base, r)})
        for r, _ in calls
    }
    assert max(coverages.values()) > 1000


def test_separation_certifies_below_optimum():
    finst = fair_line([0, 2], 1, [((0, 1), 0)], [Fraction(3, 4), Fraction(3, 4)])
    dual = DualPoint(alpha=(2, 2), mu=2, den=1)
    # every radius-0 feasible set covers alpha-mass at most mu, so the
    # dual survives and certifies the radius too small
    for cs in enumerate_feasible(finst.base, 0):
        assert weighted_coverage(finst.base, dual.alpha, cs, 0) <= dual.mu
    assert separate_or_certify(finst, 0, dual) is None


def test_separation_finds_column_at_workable_radius():
    finst = fair_line([0, 2], 1, [((0, 1), 0)], [Fraction(3, 4), Fraction(3, 4)])
    dual = DualPoint(alpha=(2, 2), mu=2, den=1)
    got = separate_or_certify(finst, 2, dual)
    assert isinstance(got, CenterSet)
    assert got.radius in (4, 8)
    weights, goal = weighted_goal(dual)
    assert weighted_coverage(finst.base, weights, got.centers, got.radius) >= goal
    assert weighted_coverage(finst.base, dual.alpha, got.centers, got.radius) > dual.mu
    assert check_feasible(finst.base, got.centers, got.radius).feasible


def fair_cut_is_valid(finst, sep, cut):
    """Among radius-r feasible sets whose alpha coverage exceeds mu,
    none opens more than the bound inside the fence."""
    r = sep.radius
    dual = sep.dual
    fence = mask_points(union_mask(finst.base, cut.centers, r))
    for cs in enumerate_feasible(finst.base, r):
        if weighted_coverage(finst.base, dual.alpha, cs, r) <= dual.mu:
            continue
        if len(cs & fence) > cut.bound:
            return False
    return True


def test_sweep_against_oracle(monkeypatch):
    """30 random instances and the golden fair-* cases, each solved as
    shipped and with the greedy off, against the oracle: within 4 OPT,
    exact when enumerated, feasible support sets, every target met, and
    every fair cut valid.  Only greedy-off runs cut (golden fair-3)."""
    from test_golden_outputs import CASES

    rng = random.Random(50)
    cases = []
    for trial in range(30):
        n = rng.randint(3, 8)
        k = rng.randint(1, min(3, n))
        gamma = rng.randint(1, 2)
        cases.append(gen_random(
            seed=10_000 + trial,
            n=n,
            k=k,
            gamma=gamma,
            metric=rng.choice(["line", "grid-l1"]),
            p_density=Fraction(2, 3),
        ))
    cases += [f for name, f in sorted(CASES.items())
              if name.startswith("fair-") and not name.startswith("fair-enum-")]
    ratios = []
    cut_checked = 0
    for finst, greedy in itertools.product(
            cases, (greedy_centers, lambda inst, radius, targets=0, weights=None: None)):
        monkeypatch.setattr(fair, "greedy_centers", greedy)
        opt = brute_force_fair(finst)
        sol = solve_fair(finst)
        dist = sol.distribution
        assert dist.radius <= 4 * opt.radius
        if sol.optimal:
            assert dist.radius == opt.radius
        if opt.radius == 0:
            # probes at the optimum never fail, and four times zero is zero
            assert dist.radius == 0
        for cs, _ in dist.support:
            assert check_feasible(finst.base, cs, dist.radius).feasible
        for u in range(finst.n):
            assert coverage_probability(finst.base, dist, u) >= finst.p[u]
        if opt.radius > 0:
            ratios.append(dist.radius / opt.radius)
        for rec in sol.trace.records:
            for sep in rec.separations:
                for cut in sep.cuts:
                    assert cut.bound == finst.base.k - finst.base.num_colors
                    assert fair_cut_is_valid(finst, sep, cut)
                    cut_checked += 1
    assert ratios and max(ratios) <= 4
    assert cut_checked >= 1


def _pricing_only(inst, radius, targets=0, weights=None):
    """greedy_centers for the priced columns only: no greedy point mass,
    so every probe the fair relaxation does not reject runs column
    generation, and the weighted greedy prices its dual points."""
    return None if weights is None else greedy_centers(inst, radius, targets, weights)


def _no_pricing(inst, radius, targets=0, weights=None):
    """greedy_centers for the point mass only: every separation runs
    separate_or_certify."""
    return None if weights is not None else greedy_centers(inst, radius, targets)


def _bookkeeping_cases():
    """24 small gen_random instances, the second half demanding whole
    colors, then 46 of 14 points."""
    rng = random.Random(52)
    cases = []
    for trial in range(24):
        n = rng.randint(4, 8)
        k = rng.randint(2, 3)
        density = Fraction(1, 2) if trial < 12 else Fraction(1)
        cases.append(gen_random(
            seed=11_000 + trial, n=n, k=k, gamma=1, demand_density=density,
            p_density=Fraction(1, 2),
        ))
    return cases + [
        gen_random(seed, 14, 4, 2, demand_density=Fraction(1), p_density=Fraction(2, 3))
        for seed in range(1, 47)
    ]


def test_trace_bookkeeping(monkeypatch, no_greedy):
    """Each sweep runs twice: with the greedy off, every separation is
    separate_or_certify's; with only the greedy pricing on (no point
    mass), it answers most of them as "column-greedy", with no LP, DP
    call or cut, and keeps its dual point.  The floors count the first."""
    tried = collections.Counter()
    priced = 0
    # seeds 201 and 396 of the benchmark's fair shape certify radius 0
    certify = [gen_random(seed, 12, 4, 2, demand_density=Fraction(1), p_density=Fraction(2, 3))
               for seed in (201, 396)]
    for finst, pricing in itertools.product(_bookkeeping_cases() + certify, (False, True)):
        with monkeypatch.context() as m:
            if pricing:
                m.setattr(fair, "greedy_centers", _pricing_only)
            sol = solve_fair(finst)
        trace = sol.trace
        assert trace.total_columns() == sum(
            1
            for rec in trace.records
            for sep in rec.separations
            if sep.outcome.startswith("column")
        )
        for rec in trace.records:
            assert rec.outcome in ("distribution", "certified", "empty", "exact", "infeasible")
            # each probe tests the fair relaxation at r: an "empty" probe
            # solved no LP when the counting certificate rejected it, else
            # the cut-free relaxation, cold, and its re-solve with the
            # target rows unless the cut-free one was empty, and nothing
            # else; a probe with a point solved both itself
            if rec.outcome == "empty":
                if fair._counting_empty(finst, rec.radius):
                    lps = 0
                else:
                    cut_free = lp.solve(build_relaxation(finst.base, rec.radius))
                    lps = 1 + (cut_free.status == "optimal")
                assert (rec.lp_solves, rec.separations, rec.restricted_solves) == (lps, [], 0)
            else:
                assert rec.lp_solves == 2
            # a solve after each separation that priced a column; the
            # column-free dual point is priced with no solve
            if rec.outcome == "distribution":
                assert rec.restricted_solves == len(rec.separations)
            elif rec.outcome == "certified":
                assert rec.restricted_solves == len(rec.separations) - 1
                assert rec.separations[-1].outcome == "certified"
            tried[rec.outcome] += not pricing
            for sep in rec.separations:
                if sep.outcome == "column-greedy":
                    assert pricing and sep.dual is not None
                    assert (sep.lp_solves, sep.dp_calls, sep.cuts) == (0, 0, [])
                    priced += 1
                else:
                    assert sep.outcome in ("column-4r", "column-2r", "certified")
        final = [r for r in trace.records if r.radius == sol.probe_radius]
        assert any(r.outcome in ("distribution", "exact") for r in final)
    assert tried["empty"] >= 30 and tried["distribution"] >= 20 and tried["certified"] >= 2
    assert priced >= 100


def test_the_counting_certificate_decides_some_separations(generation_only):
    """With the emptiness test at r off, the whole-color cases of the
    bookkeeping sweep have separations the counting certificate decides
    with no LP: each is certified, and its relaxation with the weighted
    row is infeasible.  (With the test on, a probe whose cut-free
    relaxation is empty is rejected as "empty" before any separation.)"""
    fast = 0
    for finst in _bookkeeping_cases():
        for rec in solve_fair(finst).trace.records:
            for sep in rec.separations:
                if sep.lp_solves == 0:
                    fast += 1
                    assert sep.outcome == "certified"
                    # alpha over den exceeds mu over den: ints reaching mu + 1
                    extra = (sep.dual.alpha, max(0, sep.dual.mu + 1))
                    program = build_relaxation(finst.base, rec.radius, extra_row=extra)
                    assert lp.solve(program).status == "infeasible"
    assert fast >= 3


@pytest.mark.parametrize("gamma", [2, 1], ids=["enumerated", "probed"])
def test_restricted_solves_count_every_solve(monkeypatch, no_greedy, gamma):
    """A probe's restricted_solves is the number of restricted-dual
    solves it ran, whether enumeration or separation priced its
    columns.  Each radius is probed once, at r when enumerating and at
    4r otherwise, so the solves are told apart by their radius."""
    finst = gen_random(
        seed=2, n=9, k=2, gamma=gamma, demand_density=Fraction(1), p_density=Fraction(2, 3)
    )
    calls = collections.Counter()
    real = fair.solve_restricted

    def spy(finst, radius, columns, start=None):
        calls[radius] += 1
        return real(finst, radius, columns, start)

    monkeypatch.setattr(fair, "solve_restricted", spy)
    sol = solve_fair(finst)
    assert sol.optimal == (gamma == 2)
    scale = 1 if sol.optimal else 4
    records = sol.trace.records
    assert [rec.restricted_solves for rec in records] == [
        calls[scale * rec.radius] for rec in records
    ]
    assert sum(calls.values()) == sol.trace.total_lp_solves() - sum(
        rec.lp_solves + sum(sep.lp_solves for sep in rec.separations) for rec in records
    )
    # a probe rejected by its fair relaxation at r runs no column generation
    assert [rec.restricted_solves >= 1 for rec in records] == [
        rec.outcome != "empty" for rec in records
    ]


def _fair_relaxation_empty(finst, r) -> bool:
    """fair._relaxation_empty on a fresh LiveRelaxation."""
    return fair._relaxation_empty(finst, r, LiveRelaxation(), ProbeRecord(radius=r))


def test_empty_fair_relaxations_lie_below_the_optimum():
    """Wherever the fair relaxation is called empty there is no
    distribution, so on small instances every such radius lies below the
    oracle's optimum, and emptiness holds on an initial run of the
    candidate radii; each probe solve_fair rejects as "empty" tested r."""
    rng = random.Random(36)
    empty = 0
    for trial in range(40):
        n = rng.randint(4, 9)
        k = rng.randint(2, 3)
        finst = gen_random(
            seed=36_000 + trial, n=n, k=k, gamma=rng.randint(1, k - 1),
            metric=rng.choice(["line", "grid-l1"]),
            demand_density=rng.choice([Fraction(1, 2), Fraction(1)]),
            p_density=Fraction(2, 3),
        )
        opt = brute_force_fair(finst).radius
        flags = []
        for r in candidate_radii(finst.base):
            flags.append(_fair_relaxation_empty(finst, r))
            assert not flags[-1] or r < opt
        assert flags == sorted(flags, reverse=True)
        empty += sum(flags)
        for rec in solve_fair(finst).trace.records:
            assert rec.outcome != "empty" or rec.radius < opt
    assert empty >= 20


def test_empty_probes_reject_under_column_generation(no_greedy):
    """Every probe rejected as "empty" on the n = 12 shape has a fair
    relaxation at r that a cold LP finds empty, by a Farkas certificate
    that verifies against the whole program, and the oracle's optimum
    lies above r.  (Column generation at such a probe need not end
    certified: its columns cover at 4r, where a distribution may
    exist.)  On this shape the first probe is one of them."""
    rejected = 0
    for seed in range(1, 31):
        finst = gen_random(seed, 12, 4, 2, demand_density=Fraction(1), p_density=Fraction(2, 3))
        records = solve_fair(finst).trace.records
        if seed == 1:
            assert (records[0].outcome, len(records[0].separations),
                    records[0].restricted_solves) == ("empty", 0, 0)
        opt = brute_force_fair(finst).radius
        for rec in records:
            if rec.outcome != "empty":
                continue
            program = build_relaxation(finst.base, rec.radius).extended(target_rows(finst.p))
            out = lp.solve(program)
            assert out.status == "infeasible"
            assert lp.verify_certificate(program, out.certificate)
            assert rec.radius < opt
            rejected += 1
    assert rejected >= 20


def _probe_rows(sol):
    """Everything a solve reports but the probes' own LP counts."""
    rows = [
        (rec.radius, rec.outcome, rec.restricted_solves,
         [(sep.outcome, sep.cuts, sep.lp_solves, sep.dp_calls, sep.dual)
          for sep in rec.separations])
        for rec in sol.trace.records
    ]
    return sol.distribution, sol.probe_radius, sol.optimal, rows


def test_the_counting_emptiness_test_changes_only_lp_solves(monkeypatch):
    """Solved as shipped and with the counting emptiness test off, 80
    instances of the benchmark's fair shape, with the greedy point mass
    on and off, give the same distributions, probe radii, outcomes,
    separations and restricted solves.  A probe's LP count differs only
    on each "empty" probe the counting certificate decided, which
    otherwise solves the cut-free relaxation and, when that has a
    point, re-solves it with the target rows."""
    cases = [gen_random(seed, 12, 4, 2, demand_density=Fraction(1), p_density=Fraction(2, 3))
             for seed in range(1, 81)]
    greedy = fair.greedy_centers
    counted = fell_back = 0
    for greedy_on in (True, False):
        monkeypatch.setattr(fair, "greedy_centers", greedy if greedy_on else (
            lambda inst, radius, targets=0, weights=None: None))
        shipped = [solve_fair(finst) for finst in cases]
        with monkeypatch.context() as off:
            off.setattr(fair, "_counting_empty", lambda finst, radius: False)
            without = [solve_fair(finst) for finst in cases]
        for finst, got, want in zip(cases, shipped, without):
            assert _probe_rows(got) == _probe_rows(want)
            for rec, ref in zip(got.trace.records, want.trace.records):
                decided = rec.outcome == "empty" and rec.lp_solves == 0
                if decided:
                    cut_free = lp.solve(build_relaxation(finst.base, rec.radius))
                    assert ref.lp_solves == 1 + (cut_free.status == "optimal")
                else:
                    assert ref.lp_solves == rec.lp_solves
                counted += decided
                fell_back += rec.outcome == "empty" and rec.lp_solves > 0
    assert counted >= 100 and fell_back >= 2


def test_target_counting_certificates_verify():
    """Wherever the counting bound on the fair relaxation fires, on 200
    small instances at every candidate radius R, its certificate, padded with
    zero multipliers, verifies against the whole fair relaxation program
    (build_relaxation plus the target rows) with gap left - bound; the
    emptiness LP agrees; and the oracle's optimum lies above R.  The
    target rows decide some radii that the colorful bound alone does
    not, with no color and with one."""
    rng = random.Random(46)
    fired = collections.Counter()
    for trial in range(200):
        n = rng.randint(4, 9)
        k = rng.randint(2, 3)
        finst = gen_random(
            seed=46_000 + trial, n=n, k=k, gamma=rng.randint(1, k - 1),
            metric=rng.choice(["line", "grid-l1"]),
            demand_density=rng.choice([Fraction(1, 2), Fraction(1)]),
            p_density=rng.choice([Fraction(1, 2), Fraction(2, 3)]),
        )
        inst = finst.base
        opt = brute_force_fair(finst).radius
        for r in candidate_radii(inst):
            found = counting_bound(inst, r, finst.p)
            if found is None:
                continue
            program = build_relaxation(inst, r).extended(target_rows(finst.p))
            cert = counting_certificate(inst, r, found, targets=finst.p)
            assert lp.verify_certificate(program, cert)
            members = () if found.color is None else inst.colors[found.color].members
            left = sum((finst.p[u] for u in mask_points(found.kept) if u not in members),
                       Fraction(0 if found.color is None else inst.colors[found.color].demand))
            assert cert.gap == left - found.bound > 0
            assert _fair_relaxation_empty(finst, r)
            assert r < opt
            fired[found.color is None, counting_bound(inst, r) is None] += 1
    assert sum(fired.values()) >= 100
    assert fired[True, True] >= 50 and fired[False, True] >= 10


def test_an_empty_probe_the_counting_bound_misses_runs_its_lp():
    """On the benchmark's fair shape the counting certificate rejects
    radius 0 at seed 1 with no LP, misses it at seed 11, where the
    emptiness test's two LPs (the cut-free relaxation, then its re-solve
    with the target rows) reject it, and at seed 135 decides radius 0
    and misses radius 1."""
    shape = dict(demand_density=Fraction(1), p_density=Fraction(2, 3))
    for seed, want in [
        (1, [("empty", 0), ("greedy-4r", 0)]),
        (11, [("empty", 2), ("greedy-4r", 0)]),
        (135, [("empty", 0), ("empty", 2), ("greedy-4r", 0)]),
    ]:
        finst = gen_random(seed, 12, 4, 2, **shape)
        records = solve_fair(finst).trace.records
        assert [(rec.outcome, rec.lp_solves) for rec in records] == want
        assert [fair._counting_empty(finst, rec.radius) for rec in records[:-1]] == [
            lps == 0 for _, lps in want[:-1]]


def test_empty_probes_against_the_oracle(monkeypatch):
    """On 400 small instances (n <= 9), with the greedy point mass on and
    off, every probe rejected as "empty" lies below the oracle's
    optimum, and the certificate that rejected it, the counting one or
    the emptiness LP's Farkas certificate, verifies against the whole
    fair relaxation at its radius r (build_relaxation plus the target
    rows).  Both kinds decide some probes, and some of those probes have
    a fair relaxation with a point at 4r."""
    counting, relaxation_empty, solve = (
        fair.counting_certificate, fair._relaxation_empty, lp.solve)
    fired = []  # (kind, radius, certificate) of each emptiness test that fired
    last = []  # the latest LP outcome inside each running emptiness test

    def spy_counting(inst, r, found, extra=None, targets=None):
        cert = counting(inst, r, found, extra, targets)
        fired.append(("counting", r, cert))
        return cert

    def spy_solve(program, start=None):
        out = solve(program, start)
        if last:
            last[-1] = out
        return out

    def spy_relaxation_empty(finst, r, relaxation, rec):
        last.append(None)
        try:
            empty = relaxation_empty(finst, r, relaxation, rec)
        finally:
            out = last.pop()
        if empty:
            fired.append(("lp", r, out.certificate))
        return empty

    monkeypatch.setattr(fair, "counting_certificate", spy_counting)
    monkeypatch.setattr(fair, "_relaxation_empty", spy_relaxation_empty)
    monkeypatch.setattr(lp, "solve", spy_solve)
    rng = random.Random(47)
    kinds = collections.Counter()
    for trial in range(400):
        n = rng.randint(5, 9)
        k = rng.randint(2, 3)
        finst = gen_random(
            seed=47_000 + trial, n=n, k=k, gamma=rng.randint(1, k - 1),
            metric=rng.choice(["line", "grid-l1"]),
            demand_density=rng.choice([Fraction(1, 2), Fraction(1)]),
            p_density=rng.choice([Fraction(1, 2), Fraction(2, 3)]),
        )
        opt = brute_force_fair(finst).radius
        for greedy in (greedy_centers, lambda inst, radius, targets=0, weights=None: None):
            monkeypatch.setattr(fair, "greedy_centers", greedy)
            fired.clear()
            empty = [rec for rec in solve_fair(finst).trace.records if rec.outcome == "empty"]
            assert len(fired) == len(empty)
            for rec, (kind, r, cert) in zip(empty, fired):
                assert r == rec.radius < opt
                program = build_relaxation(finst.base, r).extended(target_rows(finst.p))
                assert lp.verify_certificate(program, cert)
                kinds[kind] += 1
                kinds["point at 4r"] += not relaxation_empty(
                    finst, 4 * r, LiveRelaxation(), ProbeRecord(radius=4 * r))
    assert kinds["counting"] >= 400 and kinds["lp"] >= 10 and kinds["point at 4r"] >= 100


def test_greedy_point_masses_cover_every_target_at_their_radius():
    """Every "greedy-4r" answer, on 120 small instances with sparse
    targets, is a point mass at a radius of at most 4r that covers each
    targeted point and meets every demand; one candidate radius lower,
    it misses a target or a demand.  On some the farthest targeted point
    sets the radius, above the centers' service radius."""
    above = accepted = 0
    for seed in range(1, 121):
        finst = gen_random(
            seed, 9, 3, 2, metric="grid-l1" if seed % 2 else "line",
            demand_density=Fraction(1, 2), p_density=Fraction(1, 3),
        )
        sol = solve_fair(finst)
        last = sol.trace.records[-1]
        if last.outcome != "greedy-4r":
            continue
        accepted += 1
        dist = sol.distribution
        ((centers, weight),) = dist.support
        assert weight == 1 and dist.radius <= 4 * last.radius

        def serves(radius):
            point_mass = Distribution(((centers, 1),), radius)
            return check_feasible(finst.base, centers, radius).feasible and all(
                coverage_probability(finst.base, point_mass, u) == 1 for u in finst.targeted)

        assert serves(dist.radius)
        lower = [r for r in candidate_radii(finst.base) if r < dist.radius]
        assert not lower or not serves(lower[-1])
        above += dist.radius > service_radius(finst.base, centers)
    assert accepted >= 60 and above >= 10


def test_the_greedy_point_mass_is_a_distribution(monkeypatch):
    """Every greedy point mass, whether a probe of solve_fair built it
    at 4r or it is built at any candidate radius, meets every demand
    and every target at that radius, and a probe that builds one
    returns that point mass as its answer, at a radius no larger."""
    greedy = fair.greedy_centers
    found = []
    built = []  # (instance, its point mass) at each probe that had one

    def spy(inst, radius, targets=0, weights=None):
        got = greedy(inst, radius, targets, weights)
        if got is not None and weights is None:  # not a priced column
            built.append(Distribution(((got, 1),), radius))
            found.append((finst, built[-1]))
        return got

    monkeypatch.setattr(fair, "greedy_centers", spy)
    accepted = 0
    for seed in range(1, 41):
        finst = gen_random(seed, 10, 3, 2, demand_density=Fraction(1), p_density=Fraction(1, 2))
        built.clear()
        sol = solve_fair(finst)
        if sol.trace.records[-1].outcome == "greedy-4r":
            assert sol.distribution.support == built[-1].support
            assert sol.distribution.radius <= built[-1].radius
            accepted += 1
        for r in candidate_radii(finst.base):
            spy(finst.base, r, sum(1 << u for u in finst.targeted))
    assert accepted >= 20 and len(found) >= 200
    for finst, dist in found:
        ((centers, _),) = dist.support
        assert check_feasible(finst.base, centers, dist.radius).feasible
        for u, target in enumerate(finst.p):
            assert coverage_probability(finst.base, dist, u) >= target


def test_greedy_probes_against_the_oracle():
    """A probe whose greedy point mass at 4r is a distribution accepts
    it as the answer, "greedy-4r", at a radius of at most 4r, with no
    LP, separation or restricted solve, ending the scan; every radius
    stays within OPT and 4 OPT of the oracle's optimum, each support set
    meets the demands at it and every target is met."""
    greedy = 0
    for seed in range(1, 61):
        finst = gen_random(
            seed, 8, 3, 2, metric="grid-l1" if seed % 2 else "line",
            demand_density=Fraction(1) if seed % 3 else Fraction(1, 2),
            p_density=Fraction(1, 2) if seed % 4 else Fraction(2, 3),
        )
        opt = brute_force_fair(finst).radius
        sol = solve_fair(finst)
        dist = sol.distribution
        assert opt <= dist.radius <= 4 * opt
        for cs, _ in dist.support:
            assert check_feasible(finst.base, cs, dist.radius).feasible
        for u, target in enumerate(finst.p):
            assert coverage_probability(finst.base, dist, u) >= target
        for i, rec in enumerate(sol.trace.records):
            if rec.outcome == "greedy-4r":
                assert i == len(sol.trace.records) - 1
                assert (rec.lp_solves, rec.separations, rec.restricted_solves) == (0, [], 0)
                assert dist.radius <= 4 * rec.radius and len(dist.support) == 1
                greedy += 1
    assert greedy >= 30


def test_spare_picks_aim_at_the_demands():
    """Point 0, the only target, is covered by the first pick; the one
    pick left must serve color {2, 3}, both of whose points a ball holds
    only from radius 1 on.  The fair relaxation rejects radius 0.  At
    radius 1 the greedy picks ball 2 at 4r = 4, and the point mass is
    reported at radius 1, where ball 2 first holds point 3; spent on
    ball 0 (a gain of 0, ties to the lowest index), that pick would miss
    the demand and the probe would run column generation."""
    finst = fair_line([0, 100, 200, 201], 2, [((2, 3), 2)], [1, 0, 0, 0])
    assert greedy_centers(finst.base, 4, 0b1) == frozenset({0, 2})
    sol = solve_fair(finst)
    assert [(rec.radius, rec.outcome) for rec in sol.trace.records] == [
        (0, "empty"), (1, "greedy-4r")
    ]
    assert sol.distribution == Distribution(((frozenset({0, 2}), 1),), 1)


def test_separations_do_not_depend_on_earlier_ones(monkeypatch, no_greedy):
    """On the golden fair-* cases and forty random ones with gamma = 2,
    each separation of a probe gives the answer, outcome and cuts of the
    same separation run on a fresh LiveRelaxation.  The probe's
    emptiness test solved the cut-free relaxation cold, and counts that
    solve and its re-solve with the target rows on the probe, so each
    separation counts only its re-solve with the weighted row and one
    per cut."""
    from test_golden_outputs import CASES

    cases = [
        gen_random(seed, 8, 3, 2, demand_density=Fraction(1), p_density=Fraction(2, 3))
        for seed in range(1, 41)
    ]
    cases += [f for name, f in sorted(CASES.items())
              if name.startswith("fair-") and not name.startswith("fair-enum-")]

    separate = fair.separate_or_certify
    compared = 0

    def spy(finst, r, dual, record=None, relaxation=None):
        fresh = ProbeRecord(radius=Fraction(r))
        want = separate(finst, r, dual, fresh, LiveRelaxation())
        got = separate(finst, r, dual, record, relaxation)
        assert (got, record.outcome, record.cuts) == (want, fresh.outcome, fresh.cuts)
        nonlocal compared
        compared += 1
        return got

    monkeypatch.setattr(fair, "separate_or_certify", spy)
    traces = [solve_fair(finst).trace for finst in cases]
    assert compared >= 150
    for trace in traces:
        for rec in trace.records:
            assert not rec.separations or rec.lp_solves == 2
            for sep in rec.separations:
                assert sep.lp_solves == 1 + len(sep.cuts)


def test_greedy_priced_columns_against_the_oracle(monkeypatch):
    """On 240 small instances, solved as shipped, with the greedy point
    mass off, and with the emptiness test off as well, every
    distribution is one: each support set meets the demands at its
    radius, every target is met, and OPT <= radius <= 4 OPT.  Every
    "column-greedy" separation priced a column at 4r that meets the
    demands there and beats its dual point's mu, with no LP, DP call or
    cut; every "certified" probe and separation lies below OPT, and only
    separate_or_certify certifies."""
    priced = []
    real = fair._greedy_column

    def spy(finst, radius, dual):
        got = real(finst, radius, dual)
        if got is not None:
            priced.append((finst, radius, dual, got))
        return got

    monkeypatch.setattr(fair, "_greedy_column", spy)
    rng = random.Random(48)
    seen = collections.Counter()
    for trial in range(240):
        n = rng.randint(5, 9)
        k = rng.randint(2, 3)
        finst = gen_random(
            seed=48_000 + trial, n=n, k=k, gamma=rng.randint(1, k - 1),
            metric=rng.choice(["line", "grid-l1"]),
            demand_density=rng.choice([Fraction(1, 2), Fraction(1)]),
            p_density=rng.choice([Fraction(1, 2), Fraction(2, 3)]),
        )
        opt = brute_force_fair(finst).radius
        for mode in ("shipped", "pricing only", "generation only"):
            with monkeypatch.context() as m:
                if mode != "shipped":
                    m.setattr(fair, "greedy_centers", _pricing_only)
                if mode == "generation only":
                    m.setattr(fair, "_counting_empty", lambda finst, radius: False)
                    m.setattr(fair, "_relaxation_empty",
                              lambda finst, radius, relaxation, rec: False)
                priced.clear()
                sol = solve_fair(finst)
            dist = sol.distribution
            assert opt <= dist.radius <= 4 * opt
            for cs, _ in dist.support:
                assert check_feasible(finst.base, cs, dist.radius).feasible
            for u, target in enumerate(finst.p):
                assert coverage_probability(finst.base, dist, u) >= target
            for rec in sol.trace.records:
                if rec.outcome == "certified":
                    assert rec.radius < opt and rec.separations[-1].outcome == "certified"
                    seen["certified"] += 1
                for sep in rec.separations:
                    assert sep.outcome != "certified" or sep.radius < opt
                    if sep.outcome == "column-greedy":
                        assert (sep.lp_solves, sep.dp_calls, sep.cuts) == (0, 0, [])
                        seen["column-greedy"] += 1
            greedy_seps = [sep for rec in sol.trace.records for sep in rec.separations
                           if sep.outcome == "column-greedy"]
            assert [sep.dual for sep in greedy_seps] == [dual for _, _, dual, _ in priced]
            for (_, radius, dual, centers), sep in zip(priced, greedy_seps):
                assert radius == 4 * sep.radius
                assert check_feasible(finst.base, centers, radius).feasible
                assert weighted_coverage(finst.base, dual.alpha, centers, radius) > dual.mu
    assert seen["column-greedy"] >= 1500 and seen["certified"] >= 80


def test_greedy_pricing_keeps_every_radius(monkeypatch):
    """400 instances of the benchmark's fair shape, solved with the
    greedy pricing on and off, give the same radius; with it on, the
    greedy prices most separations (451 of 464)."""
    cases = [gen_random(seed, 12, 4, 2, demand_density=Fraction(1), p_density=Fraction(2, 3))
             for seed in range(1, 401)]
    priced = collections.Counter()
    radii = {}
    for greedy in (greedy_centers, _no_pricing):
        monkeypatch.setattr(fair, "greedy_centers", greedy)
        sols = [solve_fair(finst) for finst in cases]
        radii[greedy] = [sol.distribution.radius for sol in sols]
        priced[greedy] = sum(sep.outcome == "column-greedy" for sol in sols
                             for rec in sol.trace.records for sep in rec.separations)
    assert radii[greedy_centers] == radii[_no_pricing]
    assert priced[greedy_centers] >= 400 and priced[_no_pricing] == 0


def test_sample_deterministic_and_supported():
    dist = Distribution(
        support=(
            (frozenset({0}), Fraction(1, 3)),
            (frozenset({1, 2}), Fraction(2, 3)),
        ),
        radius=Fraction(1),
    )
    draws = [sample(dist, seed) for seed in range(600)]
    assert draws == [sample(dist, seed) for seed in range(600)]
    support_sets = {cs for cs, _ in dist.support}
    assert set(draws) == support_sets
    freq = draws.count(frozenset({0})) / 600
    assert 0.22 < freq < 0.45


def test_sample_point_mass():
    dist = Distribution(
        support=((frozenset({3}), Fraction(1)),), radius=Fraction(0)
    )
    assert all(sample(dist, seed) == frozenset({3}) for seed in range(20))


def test_coverage_probability_partial():
    finst = fair_line([0, 4, 8], 2, [((0, 1, 2), 0)], [1, 1, 0])
    dist = Distribution(
        support=(
            (frozenset({0}), Fraction(1, 2)),
            (frozenset({2}), Fraction(1, 2)),
        ),
        radius=Fraction(4),
    )
    inst = finst.base
    assert coverage_probability(inst, dist, 0) == Fraction(1, 2)
    assert coverage_probability(inst, dist, 1) == 1
    assert coverage_probability(inst, dist, 2) == Fraction(1, 2)

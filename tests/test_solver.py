"""Round-or-cut solver: relaxation shape, fixed-radius probes, end-to-end
approximation ratio, cut validity, and the exact enumeration branch."""

import collections
import itertools
import math
import random
from fractions import Fraction

from colorful_kcenter import fair, lp, solver
from colorful_kcenter.fair import solve_fair
from colorful_kcenter.generators import fixture_adversarial, gen_clumps, gen_random
from colorful_kcenter.model import (
    FairInstance,
    Instance,
    candidate_radii,
    check_feasible,
    counting_bound,
    mask_points,
    service_radius,
    union_mask,
)
from colorful_kcenter.oracle import (
    brute_force_colorful,
    brute_force_fair,
    enumerate_feasible,
)
from colorful_kcenter.solver import (
    Cut,
    ProbeRecord,
    SolveTrace,
    build_relaxation,
    counting_certificate,
    solve_colorful,
    solve_fixed_radius,
    target_rows,
)


def test_relaxation_shape():
    fx = fixture_adversarial()
    inst = fx.instance
    n = inst.n
    cut = Cut(frozenset({0}), 1)
    prog = build_relaxation(inst, 1, cuts=(cut,), extra_row=((Fraction(1),) * n, 2))
    assert prog.num_vars == 2 * n
    # budget + per-point coverage + per-color demand + extra + cut
    assert len(prog.constraints) == 1 + n + inst.num_colors + 1 + 1
    assert prog.lower == tuple(Fraction(0) for _ in range(2 * n))
    assert prog.upper == tuple(Fraction(1) for _ in range(2 * n))
    assert prog.objective[:n] == tuple(Fraction(1) for _ in range(n))
    assert prog.objective[n:] == tuple(Fraction(0) for _ in range(n))
    # the cut row fences opening mass near its centers
    last = prog.constraints[-1]
    assert last.rel == lp.LE and last.rhs == 1
    assert all(coef == 0 for coef in last.coeffs[:n])


def test_fixture_fixed_radius():
    fx = fixture_adversarial()
    inst = fx.instance
    res = solve_fixed_radius(inst, fx.optimal_radius)
    assert res.status == "solved"
    report = check_feasible(inst, res.centers.centers, res.centers.radius)
    assert report.feasible
    assert res.centers.radius <= 4 * fx.optimal_radius

    res0 = solve_fixed_radius(inst, 0)
    assert res0.status == "infeasible"
    prog = build_relaxation(inst, 0)
    assert lp.verify_certificate(prog, res0.certificate)


def test_solve_within_four_times_optimum():
    rng = random.Random(12)
    ratios = []
    for trial in range(120):
        n = rng.randint(3, 10)
        k = rng.randint(1, 3)
        gamma = rng.randint(1, 3)
        metric = rng.choice(["line", "grid-l1"])
        inst = gen_random(seed=1000 + trial, n=n, k=k, gamma=gamma, metric=metric)
        opt = brute_force_colorful(inst)
        sol = solve_colorful(inst)
        report = check_feasible(inst, sol.centers.centers, sol.centers.radius)
        assert report.feasible
        assert sol.centers.radius <= 4 * opt.radius
        if sol.optimal:
            assert sol.centers.radius == opt.radius
        if opt.radius > 0:
            ratios.append(sol.centers.radius / opt.radius)
    assert ratios and max(ratios) <= 4


def test_enumeration_branch_is_exact():
    rng = random.Random(14)
    hits = 0
    for trial in range(60):
        n = rng.randint(3, 9)
        k = rng.randint(1, 2)
        gamma = rng.randint(k, 3)
        inst = gen_random(seed=2000 + trial, n=n, k=k, gamma=gamma)
        assert inst.num_colors >= inst.k
        opt = brute_force_colorful(inst)
        sol = solve_colorful(inst)
        assert sol.optimal
        assert sol.centers.radius == opt.radius
        assert check_feasible(inst, sol.centers.centers, sol.centers.radius).feasible
        hits += 1
    assert hits == 60


def _assert_scanned_from_below(inst, records, probe_radius, optimum, refused):
    """The probes took the candidate radii in order from the smallest,
    every one before the last was refused, by the outcomes in refused in
    their order, and the search stopped at the first accepted radius,
    which is at most the optimum."""
    radii = candidate_radii(inst)
    probed = [rec.radius for rec in records]
    assert probed == radii[: len(probed)]
    kinds = [refused.index(rec.outcome) for rec in records[:-1]]
    assert kinds == sorted(kinds)
    assert records[-1].outcome not in refused
    assert probe_radius == probed[-1] <= optimum


def test_lp_probes_scan_up_from_the_smallest_radius():
    rng = random.Random(16)
    for trial in range(40):
        n = rng.randint(4, 9)
        k = rng.randint(2, 3)
        gamma = rng.randint(1, k - 1)
        inst = gen_random(seed=3000 + trial, n=n, k=k, gamma=gamma)
        opt = brute_force_colorful(inst)
        sol = solve_colorful(inst)
        assert not sol.optimal
        _assert_scanned_from_below(
            inst, sol.trace.records, sol.probe_radius, opt.radius, ("infeasible",)
        )
    for trial in range(15):
        n = rng.randint(4, 7)
        k = rng.randint(2, 3)
        finst = gen_random(
            seed=3100 + trial, n=n, k=k, gamma=1, p_density=Fraction(2, 3)
        )
        opt = brute_force_fair(finst)
        sol = solve_fair(finst)
        assert not sol.optimal
        _assert_scanned_from_below(
            finst.base, sol.trace.records, sol.probe_radius, opt.radius, ("empty", "certified")
        )


def test_enumeration_bisects():
    rng = random.Random(18)
    for trial in range(30):
        k = rng.randint(1, 2)
        fair = trial % 2 == 1
        inst = gen_random(
            seed=3200 + trial, n=rng.randint(4, 8), k=k, gamma=rng.randint(k, 3),
            p_density=Fraction(2, 3) if fair else None,
        )
        sol = solve_fair(inst) if fair else solve_colorful(inst)
        assert sol.optimal
        radii = candidate_radii(inst.base if fair else inst)
        m = len(radii)
        assert len(sol.trace.records) <= math.ceil(math.log2(m)) + 1
        # binary search opens at the middle candidate, a scan at the first
        assert sol.trace.records[0].radius == radii[(m - 1) // 2]


def cut_is_valid(inst, cut, r):
    """No feasible radius-r center set opens more than the bound inside
    the fenced region."""
    fence = mask_points(union_mask(inst, cut.centers, r))
    for centers in enumerate_feasible(inst, r):
        if len(centers & fence) > cut.bound:
            return False
    return True


def test_clump_family_fires_valid_cuts():
    fired = 0
    for k in range(2, 5):
        for gamma in range(2, k + 1):
            inst = gen_clumps(k, gamma)
            sol = solve_colorful(inst)
            assert check_feasible(inst, sol.centers.centers, sol.centers.radius).feasible
            for rec in sol.trace.records:
                for cut in rec.cuts:
                    fired += 1
                    assert cut.bound == inst.k - inst.num_colors + 1
                    assert cut_is_valid(inst, cut, rec.radius)
    assert fired >= 3


def test_clump_end_to_end_ratio():
    inst = gen_clumps(3, 2)
    opt = brute_force_colorful(inst)
    sol = solve_colorful(inst)
    assert sol.centers.radius <= 4 * opt.radius


def test_never_infeasible_when_solution_exists():
    rng = random.Random(18)
    checked = 0
    for trial in range(30):
        n = rng.randint(3, 7)
        k = rng.randint(1, 3)
        gamma = rng.randint(1, 2)
        inst = gen_random(seed=4000 + trial, n=n, k=k, gamma=gamma)
        for r in candidate_radii(inst):
            exists = bool(enumerate_feasible(inst, r))
            res = solve_fixed_radius(inst, r)
            if exists:
                assert res.status == "solved"
                checked += 1
            elif res.status == "infeasible":
                prog = build_relaxation(inst, r)
                assert lp.verify_certificate(prog, res.certificate)
    assert checked > 50


def test_trace_bookkeeping(no_greedy):
    rng = random.Random(20)
    fast = 0
    for trial in range(60):
        n = rng.randint(4, 9)
        k = rng.randint(2, 3)
        gamma = rng.randint(1, k - 1)
        # the second half demands whole colors, where the counting
        # certificate decides some probes without an LP
        density = Fraction(1, 2) if trial < 30 else Fraction(1)
        inst = gen_random(seed=5000 + trial, n=n, k=k, gamma=gamma, demand_density=density)
        sol = solve_colorful(inst)
        trace = sol.trace
        assert trace.total_lp_solves() == sum(r.lp_solves for r in trace.records)
        assert trace.total_cuts() == sum(len(r.cuts) for r in trace.records)
        outcomes = {r.outcome for r in trace.records}
        assert outcomes <= {"rounded-4r", "solved-2r", "infeasible", "enumerated"}
        for rec in trace.records:
            if rec.lp_solves == 0 and rec.outcome != "enumerated":
                # decided by the counting certificate alone
                fast += 1
                assert rec.outcome == "infeasible"
                assert lp.solve(build_relaxation(inst, rec.radius)).status == "infeasible"
        solved = [r for r in trace.records if r.radius == sol.probe_radius]
        assert any(r.outcome in ("rounded-4r", "solved-2r", "enumerated") for r in solved)
        if sol.centers.radius == 4 * sol.probe_radius:
            pass  # rounded support
        elif sol.centers.radius == 2 * sol.probe_radius:
            pass  # dp support
        else:
            assert sol.optimal and sol.centers.radius == sol.probe_radius
    assert fast >= 10


def test_colorful_greedy_probes_against_the_oracle():
    """A probe whose greedy centers meet every demand at 4r accepts them
    as "greedy-4r", at their service radius, with no LP, DP call or cut,
    ending the scan; every radius stays within OPT and 4 OPT of the
    oracle's optimum."""
    greedy = above_zero = 0
    for seed in range(1, 81):
        k = 2 + seed % 2
        inst = gen_random(seed, 8 + seed % 4, k, 1 + seed % (k - 1),
                          metric="grid-l1" if seed % 2 else "line", demand_density=Fraction(1))
        opt = brute_force_colorful(inst).radius
        sol = solve_colorful(inst)
        got = sol.centers
        assert not sol.optimal
        assert check_feasible(inst, got.centers, got.radius).feasible
        assert opt <= got.radius <= 4 * opt
        for i, rec in enumerate(sol.trace.records):
            if rec.outcome == "greedy-4r":
                assert i == len(sol.trace.records) - 1
                assert (rec.lp_solves, rec.dp_calls, rec.cuts) == (0, 0, [])
                assert got.radius == service_radius(inst, got.centers) <= 4 * rec.radius
                greedy += 1
                above_zero += rec.radius > 0
    assert greedy >= 60 and above_zero >= 30


def test_trace_totals_walk_each_probe_and_its_separations():
    """A solve_fair probe keeps its cuts, relaxation solves and columns
    on its separations; the totals add them to the probes' own."""
    cut = Cut(frozenset({0}), 1)
    seps = [
        ProbeRecord(1, "column-4r", [cut], 2),
        ProbeRecord(1, "column-2r", [], 1, 1),
        ProbeRecord(1, "certified", [cut, cut], 3),
    ]
    trace = SolveTrace([
        ProbeRecord(0, "infeasible", [cut], 1),
        ProbeRecord(1, "distribution", separations=seps, restricted_solves=4),
    ])
    assert (trace.total_cuts(), trace.total_lp_solves(), trace.total_columns()) == (4, 11, 2)


def test_counting_certificates_verify():
    """Whenever the counting bound fires, the certificate built from it
    passes the exact check, with and without an extra weighted row, and
    the simplex agrees that the relaxation is empty."""
    rng = random.Random(70)
    hits = 0
    for trial in range(60):
        n = rng.randint(4, 11)
        k = rng.randint(2, 4)
        gamma = rng.randint(1, k - 1)
        inst = gen_random(
            seed=21_000 + trial, n=n, k=k, gamma=gamma,
            metric=rng.choice(["line", "grid-l1"]), demand_density=Fraction(1),
        )
        weights = tuple(Fraction(rng.randint(0, 2), 2) for _ in range(n))
        extra = (weights, Fraction(rng.randint(0, n), 2))
        for r in candidate_radii(inst):
            found = counting_bound(inst, r)
            if found is None:
                continue
            hits += 1
            assert found.bound < inst.colors[found.color].demand
            for extra_row in (None, extra):
                program = build_relaxation(inst, r, extra_row=extra_row)
                cert = counting_certificate(inst, r, found, extra_row)
                assert lp.verify_certificate(program, cert)
                assert cert.gap == inst.colors[found.color].demand - found.bound
                assert lp.solve(program).status == "infeasible"
    assert hits >= 15


def test_counting_bound_depends_only_on_instance_and_radius():
    rng = random.Random(72)
    for trial in range(30):
        n = rng.randint(4, 10)
        k = rng.randint(2, 4)
        inst = gen_random(
            seed=23_000 + trial, n=n, k=k, gamma=rng.randint(1, k - 1),
            demand_density=Fraction(1),
        )
        radii = candidate_radii(inst)
        upward = [counting_bound(inst, r) for r in radii]
        # an equal instance has its own cache; query it in reverse order
        twin = Instance(dist=inst.dist, k=inst.k, colors=inst.colors)
        downward = [counting_bound(twin, r) for r in reversed(radii)]
        assert upward == downward[::-1]


def _colorful_run(inst):
    sol = solve_colorful(inst)
    probes = [(rec.radius, rec.outcome) for rec in sol.trace.records]
    return (sol.centers, sol.probe_radius, probes)


def _fair_run(finst):
    sol = solve_fair(finst)
    probes = [
        (rec.radius, rec.outcome, [sep.outcome for sep in rec.separations])
        for rec in sol.trace.records
    ]
    return (sol.distribution, sol.probe_radius, probes)


def test_counting_bound_changes_no_solution(monkeypatch):
    """Solving with and without the counting certificate gives the same
    centers or distribution, radius, probe radius and probe outcomes."""
    rng = random.Random(73)
    cases = []
    for trial in range(40):
        n = rng.randint(5, 10)
        k = rng.randint(2, 4)
        cases.append(gen_random(
            seed=24_000 + trial, n=n, k=k, gamma=rng.randint(1, k - 1),
            metric=rng.choice(["line", "grid-l1"]), demand_density=Fraction(1),
            p_density=Fraction(2, 3),
        ))
    for k in range(2, 6):
        for gamma in range(2, k + 1):
            clumps = gen_clumps(k, gamma)
            cases.append(FairInstance(base=clumps, p=(Fraction(1, 2),) * clumps.n))
    with_bound = [(_colorful_run(f.base), _fair_run(f)) for f in cases]
    fired = sum(
        rec.lp_solves == 0 and rec.outcome == "infeasible"
        for f in cases
        for rec in solve_colorful(f.base).trace.records
    )
    assert fired >= 15
    monkeypatch.setattr(solver, "counting_bound", lambda inst, r: None)
    without = [(_colorful_run(f.base), _fair_run(f)) for f in cases]
    assert with_bound == without


def _random_fair_cases():
    """120 random fair instances, 9 and 12 points, full and half demand."""
    return {
        f"fair-random-{seed}-{n}-{half}": gen_random(
            seed, n, k, 2, demand_density=Fraction(1, half), p_density=Fraction(2, 3)
        )
        for seed, (n, k), half in itertools.product(range(1, 31), ((9, 3), (12, 4)), (1, 2))
    }


def test_warm_resolves_match_cold_solves(monkeypatch, no_greedy):
    """On the golden fair-* and clumps-* cases and 120 random fair ones,
    every warm re-solve of a probe's LP (lp.solve from an earlier outcome, the latest one or one
    that starts several re-solves) reports the status and optimal value
    of a cold solve of the same program.  The greedy is off, so every
    separation re-solves the probe's cut-free relaxation."""
    from test_golden_outputs import CASES

    seen = collections.Counter()
    starts = {}  # id -> [start, solves from it]
    solve = lp.solve

    def spy_solve(program, start=None):
        out = solve(program, start)
        if start is not None:
            cold = solve(program)
            assert out.status == cold.status
            assert out.value == cold.value
            seen[start.status, out.status] += 1
            starts.setdefault(id(start), [start, 0])[1] += start.status == "optimal"
        return out

    monkeypatch.setattr(lp, "solve", spy_solve)
    for name, inst in sorted({**CASES, **_random_fair_cases()}.items()):
        if name.startswith("clumps-"):
            solve_colorful(inst)
        elif name.startswith("fair-") and not name.startswith("fair-enum-"):
            solve_fair(inst)
    assert seen["optimal", "optimal"] >= 100
    assert seen["optimal", "infeasible"] >= 20
    # optimal starts shared by several re-solves: a probe's cut-free
    # relaxation
    assert sum(n for _, n in starts.values() if n >= 2) >= 100


def _fields(program):
    return (
        program.num_vars, program.objective, program.sense, program.lower, program.upper,
        [(c.coeffs, c.rel, c.rhs) for c in program.constraints],
    )


def test_extended_programs_equal_fresh_builds(monkeypatch, no_greedy):
    """On the golden fair-* and clumps-* cases, seven of which cut, and
    on 120 random fair ones, every program that round_or_cut,
    solve_restricted or the fair probe's emptiness test re-solves warm,
    or whose optimum lp checks, equals, row for row, what
    build_relaxation(inst, r, cuts, extra_row) builds from scratch (with
    the target rows after it, for the emptiness test), or the
    column-free fair._restricted_program(finst) extended by every
    column's row at once, L (p - cov_c) >= L with L the lcm of the
    targets' denominators; rounding's covering LPs are not compared.
    The cut-free relaxation is built once per probe that reaches an LP,
    and the column-free restricted dual once per cold restricted
    solve."""
    from test_golden_outputs import CASES

    build, restricted = solver.build_relaxation, fair._restricted_program
    relaxation_empty = fair._relaxation_empty
    round_or_cut, solve_restricted = solver.round_or_cut, fair.solve_restricted
    solve, first_violation = lp.solve, lp._first_violation
    seen = collections.Counter()
    context = []  # the call whose programs are checked, innermost last

    def compare(program):
        kind, *args = context[-1]
        if kind == "relaxation":
            want = build(*args)
        elif kind == "fair relaxation":
            finst, r = args
            want = build(finst.base, r).extended(target_rows(finst.p))
            args.append(True)
        else:
            finst, r, _, columns = args
            scale = math.lcm(*(t.denominator for t in finst.p))
            rows = []
            for c in columns:
                cov = union_mask(finst.base, c, r)
                rows.append(([scale * (t - (cov >> u & 1)) for u, t in enumerate(finst.p) if t],
                             lp.GE, scale))
            want = restricted(finst).extended(rows)
        if program.num_vars == want.num_vars:  # not rounding's covering LP
            assert _fields(program) == _fields(want)
            seen[kind, bool(args[2])] += 1

    def spy_round_or_cut(inst, r, record, extra=None, relaxation=None):
        context.append(("relaxation", inst, r, record.cuts, extra))
        try:
            return round_or_cut(inst, r, record, extra, relaxation)
        finally:
            context.pop()

    def spy_solve_restricted(finst, r, columns, start=None):
        seen["cold restricted solves"] += start is None
        context.append(("restricted", finst, r, start is not None, list(columns)))
        try:
            return solve_restricted(finst, r, columns, start)
        finally:
            context.pop()

    def spy_relaxation_empty(finst, r, relaxation, rec):
        context.append(("fair relaxation", finst, r))
        try:
            return relaxation_empty(finst, r, relaxation, rec)
        finally:
            context.pop()

    def spy_solve(program, start=None):
        if start is not None:
            compare(program)
        elif context and context[-1][0] in ("relaxation", "fair relaxation"):
            # a cold solve here is of the cut-free relaxation with no extra row
            kind, inst, r = context[-1][:3]
            context.append(("relaxation", getattr(inst, "base", inst), r, (), None))
            try:
                return solve(program)
            finally:
                context.pop()
        return solve(program, start)

    def spy_first_violation(program, point, den):
        # where lp checks every optimum, and check_point the points it is given
        if context:
            compare(program)
        return first_violation(program, point, den)

    def counted(name, f):
        def spy(*args, **kwargs):
            seen[name] += 1
            return f(*args, **kwargs)
        return spy

    monkeypatch.setattr(solver, "round_or_cut", spy_round_or_cut)
    monkeypatch.setattr(fair, "round_or_cut", spy_round_or_cut)
    monkeypatch.setattr(fair, "solve_restricted", spy_solve_restricted)
    monkeypatch.setattr(lp, "solve", spy_solve)
    monkeypatch.setattr(lp, "_first_violation", spy_first_violation)
    monkeypatch.setattr(fair, "_relaxation_empty", spy_relaxation_empty)
    monkeypatch.setattr(solver, "build_relaxation", counted("builds", build))
    monkeypatch.setattr(fair, "build_relaxation", counted("builds", build))
    monkeypatch.setattr(fair, "_restricted_program", counted("restricted builds", restricted))
    cases = {**CASES, **_random_fair_cases()}
    for name, inst in sorted(cases.items()):
        before = seen.copy()
        if name.startswith("clumps-"):
            records = solve_colorful(inst).trace.records
            reached = sum(rec.lp_solves > 0 for rec in records)
        elif name.startswith("fair-") and not name.startswith("fair-enum-"):
            records = solve_fair(inst).trace.records
            reached = sum(rec.lp_solves > 0 or any(sep.lp_solves for sep in rec.separations)
                          for rec in records)
            assert seen["restricted builds"] - before["restricted builds"] == (
                seen["cold restricted solves"] - before["cold restricted solves"])
        else:
            continue
        assert seen["builds"] - before["builds"] == reached
    # programs with cuts, fair relaxations and restricted duals solved warm
    # and cold were compared
    assert seen["relaxation", True] >= 7 and seen["relaxation", False] >= 150
    assert seen["fair relaxation", True] >= 100
    assert seen["restricted", True] >= 100 and seen["restricted", False] >= 50

"""Colorful k-center solver with a factor-4 radius guarantee.

One round-or-cut engine runs over a covering system of t rows: t =
gamma for colorful k-center, t = gamma + 1 when the coverage-probability
variant adds a weighted coverage row.  For a fixed radius r it works
against the relaxation polytope: open-mass variables y and coverage
variables x in [0,1], at most k total opening, ball-mass at least x(u)
around every point, per-color coverage sums meeting the demands, and
the optional weighted row.  A vertex of that polytope (intersected
with the cuts found so far) is clustered; then

  * if the y-mass near the cluster centers is at most k - t + 1, a
    covering LP with t rows rounds the point to at most k centers
    serving everything within 4r;
  * otherwise a dynamic program hunts for an integral solution with at
    most t - 2 centers outside the cluster centers at radius 2r;
  * if both fail, no integral radius-r solution can open more than
    k - t + 1 mass near the centers, which is exactly the inequality
    the current vertex violates: it is added as a cut and the LP is
    re-solved.

Each round either finishes or strictly shrinks the polytope with a cut
no integral solution can violate, so a radius that admits any integral
solution is never declared infeasible.  One radius search then lands
at a radius at most the integral optimum, giving the factor of 4 (or,
with no more centers than colors, enumerates the exact optimum).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import lp
from .dp import WeightedTarget, find_few_outside
from .lp import InternalError
from .model import (
    CenterSet,
    Instance,
    ball,
    candidate_radii,
    check_feasible,
    feasible_sets,
    subset_count,
    weighted_coverage,
)
from .partition import FractionalPoint, good_partition, opening_mass, verify_partition
from .rounding import build_cluster_system, sparse_round

# largest subset count the exact enumeration branch will scan
ENUM_CAP = 10**7


@dataclass(frozen=True)
class Cut:
    """Opening-mass bound y(ball(S, r)) <= bound, valid for every
    integral solution at the radius it was derived for.
    """

    centers: frozenset
    bound: int


@dataclass
class RadiusRecord:
    """What happened while probing one radius."""

    radius: Fraction
    outcome: str = ""  # "rounded-4r" | "solved-2r" | "infeasible"
    cuts: list = field(default_factory=list)
    lp_solves: int = 0
    dp_calls: int = 0


@dataclass
class SolveTrace:
    records: list = field(default_factory=list)

    def total_cuts(self) -> int:
        return sum(len(rec.cuts) for rec in self.records)

    def total_lp_solves(self) -> int:
        return sum(rec.lp_solves for rec in self.records)


@dataclass(frozen=True)
class FixedRadiusResult:
    status: str  # "solved" | "infeasible"
    centers: CenterSet = None
    certificate: lp.FarkasCertificate = None


def build_relaxation(inst: Instance, r, cuts=(), extra_row=None) -> lp.LinearProgram:
    """LP over the relaxation polytope intersected with cuts.

    Variables: x_0..x_{n-1}, then y_0..y_{n-1}, all in [0,1].  Rows in
    order: total opening <= k; one coverage row per point (ball y-mass
    minus x nonnegative); one demand row per color; the optional extra
    weighted coverage row (weights, rhs); one row per cut.  Objective:
    maximize total x.
    """
    n = inst.n
    r = Fraction(r)
    program = lp.LinearProgram(
        2 * n,
        tuple([Fraction(1)] * n + [Fraction(0)] * n),
        lp.MAX,
        tuple(Fraction(0) for _ in range(2 * n)),
        tuple(Fraction(1) for _ in range(2 * n)),
    )
    program.add(tuple([0] * n + [1] * n), lp.LE, inst.k)
    for u in range(n):
        row = [Fraction(0)] * (2 * n)
        row[u] = Fraction(-1)
        for v in ball(inst, u, r):
            row[n + v] = Fraction(1)
        program.add(tuple(row), lp.GE, 0)
    for c in inst.colors:
        row = [Fraction(0)] * (2 * n)
        for u in c.members:
            row[u] = Fraction(1)
        program.add(tuple(row), lp.GE, c.demand)
    if extra_row is not None:
        weights, rhs = extra_row
        row = [Fraction(0)] * (2 * n)
        for u in range(n):
            row[u] = Fraction(weights[u])
        program.add(tuple(row), lp.GE, rhs)
    for cut in cuts:
        row = [Fraction(0)] * (2 * n)
        for v in sorted(set().union(*(ball(inst, s, r) for s in cut.centers))):
            row[n + v] = Fraction(1)
        program.add(tuple(row), lp.LE, cut.bound)
    return program


def round_or_cut(inst: Instance, r, record, extra=None):
    """Round-or-cut loop at radius r over t covering rows.

    t = gamma, plus one when extra = (weights, goal) asks for covered
    weight at least goal as well.  Returns ("4r", centers) or
    ("2r", centers) with a center set meeting every demand (and the
    goal) at that multiple of r, or ("infeasible", certificate) proving
    that no integral radius-r solution exists.  Never reports infeasible
    when one does exist.  Counts LP solves, DP calls and cuts on record.
    """
    r = Fraction(r)
    t = inst.num_colors + (extra is not None)
    threshold = inst.k - t + 1
    extra_rows = () if extra is None else (extra,)
    target = None if extra is None else WeightedTarget(*extra)
    cuts = []
    seen = set()
    while True:
        program = build_relaxation(inst, r, cuts, extra_row=extra)
        out = lp.solve(program)
        record.lp_solves += 1
        if out.status == "infeasible":
            return "infeasible", out.certificate
        if out.status != "optimal":
            raise InternalError("relaxation LP cannot be unbounded")
        if lp.check_point(program, out.solution) is not None:
            raise InternalError("LP returned a point outside its own polytope")
        pt = FractionalPoint(out.solution[: inst.n], out.solution[inst.n :])
        part = good_partition(inst, r, pt)
        bad = verify_partition(inst, r, pt, part)
        if bad is not None:
            raise InternalError(f"clustering violated {bad}")
        if opening_mass(inst, r, pt, part.centers) <= threshold:
            system = build_cluster_system(inst, part, extra_rows=extra_rows)
            chosen = sparse_round(inst, r, part, system, inst.k, pt)
            tag, found = "4r", CenterSet(frozenset(chosen), 4 * r)
        else:
            record.dp_calls += 1
            tag = "2r"
            found = find_few_outside(inst, 2 * r, part.centers, t - 2, target=target)
        if found is not None:
            if not check_feasible(inst, found.centers, found.radius).feasible:
                raise InternalError(f"{tag} result fails raw-ball coverage")
            if extra is not None and weighted_coverage(
                inst, extra[0], found.centers, found.radius
            ) < extra[1]:
                raise InternalError(f"{tag} result misses the weight goal")
            return tag, found
        s = frozenset(part.centers)
        if s in seen:
            raise InternalError("cut centers repeated; loop would not progress")
        seen.add(s)
        cut = Cut(s, threshold)
        cuts.append(cut)
        record.cuts.append(cut)


def solve_fixed_radius(
    inst: Instance, r, record: RadiusRecord = None
) -> FixedRadiusResult:
    """Center set feasible at radius 4r (sometimes 2r), or an
    infeasibility certificate proving no integral radius-r solution
    exists; see round_or_cut.
    """
    if record is None:
        record = RadiusRecord(radius=Fraction(r))
    tag, got = round_or_cut(inst, r, record)
    if tag == "infeasible":
        record.outcome = "infeasible"
        return FixedRadiusResult("infeasible", certificate=got)
    record.outcome = "rounded-4r" if tag == "4r" else "solved-2r"
    return FixedRadiusResult("solved", got)


def radius_search(inst: Instance, exact, probe, linear_scan: bool = False):
    """Smallest candidate radius a test accepts, as (result, radius,
    optimal); a test returns None to reject a radius.

    With at least as many colors as centers and at most ENUM_CAP center
    sets, exact(r) decides each radius by enumeration, which is
    monotone in r, so binary search finds the optimum.  Otherwise
    probe(r) accepts every radius at or above the integral optimum and
    rejects only radii below it, so binary search (or, with
    linear_scan, a scan from below) never settles above the optimum.
    The largest radius is probed only if nothing below it passed.
    """
    radii = candidate_radii(inst)
    optimal = inst.num_colors >= inst.k and subset_count(inst.n, inst.k) <= ENUM_CAP
    test = exact if optimal else probe
    scan = linear_scan and not optimal
    best = None
    lo, hi = 0, len(radii) - 1
    while lo < hi:  # best, once found, is the result at radii[hi]
        mid = lo if scan else (lo + hi) // 2
        got = test(radii[mid])
        if got is None:
            lo = mid + 1
        else:
            best, hi = got, mid
    if best is None:
        best = test(radii[lo])
    if best is None:
        raise InternalError("the largest candidate radius must be accepted")
    return best, radii[lo], optimal


@dataclass(frozen=True)
class ColorfulSolution:
    centers: CenterSet
    probe_radius: Fraction  # the relaxation radius that produced it
    optimal: bool  # True when found by exact enumeration
    trace: SolveTrace


def solve_colorful(inst: Instance, linear_scan: bool = False) -> ColorfulSolution:
    """Minimize the radius guarantee over candidate radii (see
    radius_search): exact when enumeration is affordable, otherwise at
    most four times the optimum.
    """
    trace = SolveTrace()

    def exact(r):
        found = next(feasible_sets(inst, r), None)
        outcome = "infeasible" if found is None else "enumerated"
        trace.records.append(RadiusRecord(radius=r, outcome=outcome))
        return None if found is None else CenterSet(found, r)

    def probe(r):
        rec = RadiusRecord(radius=r)
        trace.records.append(rec)
        return solve_fixed_radius(inst, r, rec).centers

    centers, radius, optimal = radius_search(inst, exact, probe, linear_scan)
    return ColorfulSolution(centers, radius, optimal, trace)


def pseudo_approx_baseline(inst: Instance, r) -> CenterSet:
    """Single-shot rounding without cuts: may open up to gamma - 1
    extra centers beyond the budget, covering all demands within 4r.

    Raises ValueError when the relaxation at r is empty.
    """
    r = Fraction(r)
    program = build_relaxation(inst, r)
    out = lp.solve(program)
    if out.status != "optimal":
        raise ValueError(f"relaxation at radius {r} is {out.status}")
    pt = FractionalPoint(out.solution[: inst.n], out.solution[inst.n :])
    part = good_partition(inst, r, pt)
    system = build_cluster_system(inst, part)
    four_r = 4 * r
    if all(b <= 0 for b in system.rhs):
        return CenterSet(frozenset(), four_r)
    if part.size <= inst.k:
        return CenterSet(frozenset(part.centers), four_r)
    covering = lp.LinearProgram(
        part.size,
        tuple(Fraction(1) for _ in range(part.size)),
        lp.MIN,
        tuple(Fraction(0) for _ in range(part.size)),
        tuple(Fraction(1) for _ in range(part.size)),
        [(row, lp.GE, b) for row, b in zip(system.rows, system.rhs)],
    )
    cov = lp.solve(covering)
    if cov.status != "optimal":
        raise InternalError("covering LP must be solvable from the embedded point")
    chosen = frozenset(
        s for s, z in zip(part.centers, cov.solution) if z > 0
    )
    limit = inst.k + inst.num_colors - 1
    if len(chosen) > limit:
        raise InternalError(f"baseline opened {len(chosen)} > {limit} centers")
    counts = check_feasible(inst, chosen, four_r).counts
    if any(c < col.demand for c, col in zip(counts, inst.colors)):
        raise InternalError("baseline support fails a color demand")
    return CenterSet(chosen, four_r)

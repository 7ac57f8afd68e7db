"""Colorful k-center solver with a factor-4 radius guarantee.

For a fixed radius r the solver works against the relaxation
polytope: open-mass variables y and coverage variables x in [0,1],
at most k total opening, ball-mass at least x(u) around every point,
and per-color coverage sums meeting the demands.  A vertex of that
polytope (intersected with the cuts found so far) is clustered; then

  * if the y-mass near the cluster centers is at most k - gamma + 1,
    a small covering LP rounds the point to at most k centers serving
    everything within 4r;
  * otherwise a dynamic program hunts for an integral solution with at
    most gamma - 2 centers outside the cluster centers at radius 2r;
  * if both fail, no integral radius-r solution can open more than
    k - gamma + 1 mass near the centers, which is exactly the
    inequality the current vertex violates: it is added as a cut and
    the LP is re-solved.

Each round either finishes or strictly shrinks the polytope with a cut
no integral solution can violate, so a radius that admits any integral
solution is never declared infeasible.  Binary search over candidate
radii then lands at a radius at most the integral optimum, giving the
factor of 4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import lp
from .dp import find_few_outside
from .lp import InternalError
from .model import (
    CenterSet,
    Instance,
    ball,
    candidate_radii,
    check_feasible,
)
from .partition import FractionalPoint, good_partition, opening_mass, verify_partition
from .rounding import build_cluster_system, sparse_round


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


def solve_fixed_radius(
    inst: Instance, r, record: RadiusRecord = None
) -> FixedRadiusResult:
    """Round-or-cut loop at radius r.

    Returns a center set feasible at radius 4r (sometimes 2r), or an
    infeasibility certificate proving no integral radius-r solution
    exists.  Never reports infeasible when one does exist.
    """
    r = Fraction(r)
    gamma = inst.num_colors
    threshold = inst.k - gamma + 1
    if record is None:
        record = RadiusRecord(radius=r)
    cuts = []
    seen = set()
    while True:
        program = build_relaxation(inst, r, cuts)
        out = lp.solve(program)
        record.lp_solves += 1
        if out.status == "infeasible":
            record.outcome = "infeasible"
            return FixedRadiusResult("infeasible", certificate=out.certificate)
        if out.status != "optimal":
            raise InternalError("relaxation LP cannot be unbounded")
        if lp.check_point(program, out.solution) is not None:
            raise InternalError("LP returned a point outside its own polytope")
        pt = FractionalPoint(out.solution[: inst.n], out.solution[inst.n :])
        part = good_partition(inst, r, pt)
        bad = verify_partition(inst, r, pt, part)
        if bad is not None:
            raise InternalError(f"clustering violated {bad}")
        mass = opening_mass(inst, r, pt, part.centers)
        if mass <= threshold:
            system = build_cluster_system(inst, part)
            chosen = sparse_round(inst, r, part, system, inst.k, pt)
            four_r = 4 * r
            report = check_feasible(inst, chosen, four_r)
            if not report.feasible:
                raise InternalError("rounded support fails raw-ball coverage")
            record.outcome = "rounded-4r"
            return FixedRadiusResult("solved", CenterSet(frozenset(chosen), four_r))
        record.dp_calls += 1
        found = find_few_outside(inst, 2 * r, part.centers, gamma - 2)
        if found is not None:
            report = check_feasible(inst, found.centers, found.radius)
            if not report.feasible:
                raise InternalError("dp result fails raw-ball coverage")
            record.outcome = "solved-2r"
            return FixedRadiusResult("solved", found)
        s = frozenset(part.centers)
        if s in seen:
            raise InternalError("cut centers repeated; loop would not progress")
        seen.add(s)
        cut = Cut(s, threshold)
        cuts.append(cut)
        record.cuts.append(cut)


@dataclass(frozen=True)
class ColorfulSolution:
    centers: CenterSet
    probe_radius: Fraction  # the relaxation radius that produced it
    optimal: bool  # True when found by exact enumeration
    trace: SolveTrace


def _subset_count(n: int, k: int) -> int:
    return sum(math.comb(n, j) for j in range(k + 1))


def _any_feasible_at(inst: Instance, r) -> frozenset:
    """First feasible center set at radius r in (size, lex) order, or
    None.  Only used at enumeration scale.
    """
    points = range(inst.n)
    for size in range(inst.k + 1):
        for combo in itertools.combinations(points, size):
            if check_feasible(inst, combo, r).feasible:
                return frozenset(combo)
    return None


def solve_colorful(
    inst: Instance, linear_scan: bool = False, enum_cap: int = 10**7
) -> ColorfulSolution:
    """Minimize the radius guarantee over candidate radii.

    With fewer centers than colors the cut machinery is not needed:
    when the subset count fits under enum_cap the exact optimum is
    found by scanning center sets directly.  Otherwise binary search
    (or a linear scan from below) probes radii with the round-or-cut
    solver; every probe at or above the integral optimum succeeds, so
    the search never settles above it and the returned guarantee is at
    most four times the optimum.
    """
    radii = candidate_radii(inst)
    trace = SolveTrace()
    if inst.num_colors >= inst.k and _subset_count(inst.n, inst.k) <= enum_cap:
        # subset feasibility is exactly monotone in r, so plain binary
        # search finds the true optimum
        lo, hi = 0, len(radii) - 1
        witness = None
        witness_idx = None
        while lo < hi:
            mid = (lo + hi) // 2
            rec = RadiusRecord(radius=radii[mid])
            found = _any_feasible_at(inst, radii[mid])
            rec.outcome = "enumerated" if found is not None else "infeasible"
            trace.records.append(rec)
            if found is not None:
                witness, witness_idx = found, mid
                hi = mid
            else:
                lo = mid + 1
        if witness_idx != lo:
            rec = RadiusRecord(radius=radii[lo], outcome="enumerated")
            trace.records.append(rec)
            witness = _any_feasible_at(inst, radii[lo])
        if witness is None:
            raise InternalError("full-radius enumeration found nothing")
        return ColorfulSolution(
            CenterSet(witness, radii[lo]), radii[lo], True, trace
        )

    best = None
    best_idx = None
    if linear_scan:
        for idx, r in enumerate(radii):
            rec = RadiusRecord(radius=r)
            trace.records.append(rec)
            res = solve_fixed_radius(inst, r, rec)
            if res.status == "solved":
                best, best_idx = res, idx
                break
    else:
        # probes at or above the integral optimum always succeed, and
        # failures only happen strictly below it, so lo never passes the
        # optimum's index and the final radius is at most the optimum
        lo, hi = 0, len(radii) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            rec = RadiusRecord(radius=radii[mid])
            trace.records.append(rec)
            res = solve_fixed_radius(inst, radii[mid], rec)
            if res.status == "solved":
                best, best_idx = res, mid
                hi = mid
            else:
                lo = mid + 1
        if best_idx != lo:
            rec = RadiusRecord(radius=radii[lo])
            trace.records.append(rec)
            res = solve_fixed_radius(inst, radii[lo], rec)
            if res.status == "solved":
                best, best_idx = res, lo
    if best is None:
        raise InternalError("largest candidate radius must be solvable")
    return ColorfulSolution(best.centers, radii[best_idx], False, trace)


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

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
solution is never declared infeasible.  Probing radii from below then
stops at one at most the integral optimum, giving the factor of 4 (or,
with no more centers than colors, enumerates the exact optimum).

So a solve_colorful probe at r needs no LP when some center set meets
every demand at 4r: every lower probe was rejected with a certificate,
so OPT >= r, and such a set is within 4r <= 4 OPT.  Each probe first
asks model.greedy_centers for one and, when it finds it, accepts it as
"greedy-4r", reported at its service radius (model.service_radius), the
smallest radius at which it meets every demand, which is at most 4r.
The greedy only accepts; a probe it does not answer runs round_or_cut.

Before the first LP, model.counting_bound tries to show the polytope
empty from one color c alone: for U inside c and a_v the number of
points of U in ball(v, r), every point has

    x(c) <= |c - U| + sum_v a_v y_v <= |c - U| + (sum of the k largest a_v).

When that is below c's demand the radius is rejected with no LP, by
the Farkas certificate of this inequality (counting_certificate: +1 on
c's demand row and on the coverage rows of U, -A on the budget row, A
the k-th largest a_v, and bound multipliers for the rest), checked
exactly by lp.verify_certificate, against just the rows it uses,
before it is returned.

The fair relaxation adds the target rows x_u >= p(u) (target_rows).
Given the targets, the same bound lets U hold targeted points outside
c, and c be no color at all (d_c = 0, c empty):

    d_c + sum_{u in U - c} p(u) <= |c - U| + (sum of the k largest a_v).

When the left side is larger the relaxation is empty, and the
certificate adds 1 / den(p_u) on the target row of each u in U - c.
solve_fair's probes try it at r before their emptiness LP.

A probe builds and solves its cut-free relaxation once, cold (once per
LiveRelaxation when one is shared).  The extra row and each cut extend
the last program (lp.LinearProgram.extended), and lp.solve(program,
start) re-solves it warm from the last outcome (see lp), which it leaves
as it was; so a call's answer does not depend on the calls before it.

Both solvers note each probe on a ProbeRecord (its outcome, cuts, LP
solves and DP calls) and keep them in one SolveTrace, in probe order;
a solve_fair probe also keeps one ProbeRecord per separation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import lp
from .dp import find_few_outside
from .lp import InternalError
from .model import (
    CenterSet,
    Instance,
    ball_masks,
    candidate_radii,
    check_feasible,
    counting_bound,
    feasible_sets,
    greedy_centers,
    service_radius,
    subset_count,
    union_mask,
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
class ProbeRecord:
    """What happened while probing one radius, or while answering one
    dual point of a solve_fair probe (one of its separations).

    outcome: "greedy-4r", "rounded-4r", "solved-2r", "infeasible" or
    "enumerated" for a solve_colorful probe ("greedy-4r": its greedy
    centers at 4r, reported at their service radius, with no counting
    bound, LP or DP); "greedy-4r", "distribution", "certified",
    "empty", "exact" or "infeasible" for a solve_fair probe
    ("greedy-4r": its greedy point mass at 4r, reported at the radius
    at which it meets every demand and covers every targeted point,
    with no LP, separation or restricted solve; "empty": its fair
    relaxation at r is empty, shown by a verified counting certificate
    with no LP, or else by the cut-free relaxation's LP and its warm
    re-solve with the target rows); "column-greedy", "column-4r",
    "column-2r" or "certified" for a separation ("column-greedy": the
    weighted greedy's column at 4r, with no LP or DP call).
    round_or_cut counts its cuts, LP solves and DP calls on the record
    it is given; a solve_fair probe keeps its separations and its
    restricted-dual solves.
    """

    radius: Fraction
    outcome: str = ""
    cuts: list = field(default_factory=list)
    lp_solves: int = 0
    dp_calls: int = 0
    dual: object = None  # the fair.DualPoint a separation answers
    separations: list = field(default_factory=list)
    restricted_solves: int = 0


@dataclass
class SolveTrace:
    """The probes of one solve, in the order the radius search ran them."""

    records: list = field(default_factory=list)

    def _walk(self):
        """Every probe, each followed by its separations."""
        return [rec for probe in self.records for rec in (probe, *probe.separations)]

    def total_cuts(self) -> int:
        return sum(len(rec.cuts) for rec in self._walk())

    def total_lp_solves(self) -> int:
        return sum(rec.lp_solves + rec.restricted_solves for rec in self._walk())

    def total_columns(self) -> int:
        return sum(rec.outcome.startswith("column") for rec in self._walk())


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
    program = _relaxation_frame(inst)
    for u, mask in enumerate(ball_masks(inst, r)):
        program.add(*_coverage_row(n, u, mask))
    for c in inst.colors:
        program.add(*_demand_row(n, c))
    rows = [] if extra_row is None else [_weighted_row(n, extra_row)]
    return program.extended(rows + [_cut_row(inst, r, cut) for cut in cuts])


def _relaxation_frame(inst: Instance) -> lp.LinearProgram:
    """The relaxation's variables, bounds, objective and budget row."""
    n = inst.n
    program = lp.LinearProgram(
        2 * n, (1,) * n + (0,) * n, lp.MAX, (0,) * (2 * n), (1,) * (2 * n)
    )
    program.add([0] * n + [1] * n, lp.LE, inst.k)
    return program


def _y_row(n, mask):
    """Ones on the y variables of the points in mask."""
    return [0] * n + [mask >> v & 1 for v in range(n)]


def _coverage_row(n, u, mask):
    """y(ball(u, r)) - x_u >= 0, mask the points of ball(u, r)."""
    row = _y_row(n, mask)
    row[u] = -1
    return row, lp.GE, 0


def _demand_row(n, color):
    row = [0] * (2 * n)
    for u in color.members:
        row[u] = 1
    return row, lp.GE, color.demand


def _weighted_row(n, extra):
    weights, goal = extra
    return [weights[u] for u in range(n)] + [0] * n, lp.GE, goal


def _cut_row(inst: Instance, r, cut: Cut):
    return _y_row(inst.n, union_mask(inst, cut.centers, r)), lp.LE, cut.bound


def _target_row(n, u, target):
    """x_u >= p(u), as den(p_u) x_u >= num(p_u)."""
    row = [0] * (2 * n)
    row[u] = target.denominator
    return row, lp.GE, target.numerator


def target_rows(targets):
    """The fair relaxation's rows x_u >= p(u) over build_relaxation's
    variables, one per targeted point in ascending order."""
    return [_target_row(len(targets), u, t) for u, t in enumerate(targets) if t]


def counting_certificate(
    inst: Instance, r, found, extra=None, targets=None
) -> lp.FarkasCertificate:
    """The Farkas certificate of a model.CountingBound on the relaxation
    at radius r with no cuts, with one multiplier per row of
    build_relaxation(inst, r, extra_row=extra) and, when targets are
    given (the bound is model.counting_bound(inst, r, targets)), of
    target_rows(targets) after them.

    Row multipliers: +1 on the coverage row of each kept point and on
    the color's demand row (when found has a color), 1 / den(p_u) on the
    target row of each kept point u outside the color, -A on the budget
    row, A the k-th largest a_v.  Bound multipliers: upper 1 on x_u for
    u in the color but not kept, upper (a_v - A)+ and lower (A - a_v)+
    on y_v.  They sum to the zero vector, and the gap is the bound's
    left side minus bound, > 0.  The certificate is checked exactly,
    against a program of just the rows it uses (built by
    build_relaxation's row code), before it is returned; every other
    row has multiplier zero.
    """
    n = inst.n
    color = None if found.color is None else inst.colors[found.color]
    members = frozenset() if color is None else color.members
    masks = ball_masks(inst, Fraction(r))
    kept = [u for u in range(n) if found.kept >> u & 1]
    used = _relaxation_frame(inst)
    for u in kept:
        used.add(*_coverage_row(n, u, masks[u]))
    if color is not None:
        used.add(*_demand_row(n, color))
    by_target = {}  # kept points outside the color: their target row multipliers
    for u in kept:
        if u not in members and targets is not None and targets[u]:
            by_target[u] = Fraction(1, targets[u].denominator)
            used.add(*_target_row(n, u, targets[u]))
    lower = [0] * (2 * n)
    upper = [0] * (2 * n)
    for u in members:
        upper[u] = 1 - (found.kept >> u & 1)
    for v, a in enumerate(found.counts):
        upper[n + v] = max(a - found.kth, 0)
        lower[n + v] = max(found.kth - a, 0)
    left = sum((targets[u] for u in by_target), Fraction(0 if color is None else color.demand))
    cert = lp.FarkasCertificate(
        (-found.kth,) + (1,) * (len(kept) + (color is not None)) + tuple(by_target.values()),
        tuple(lower), tuple(upper), left - found.bound,
    )
    if not lp.verify_certificate(used, cert):
        raise InternalError("counting certificate fails verification")
    rows = [0] * (1 + n + inst.num_colors + (extra is not None))
    rows[0] = -found.kth
    for u in kept:
        rows[1 + u] = 1
    if color is not None:
        rows[1 + n + found.color] = 1
    if targets is not None:
        rows += [by_target.get(u, 0) for u, t in enumerate(targets) if t]
    return replace(cert, row_mults=tuple(rows))


@dataclass
class LiveRelaxation:
    """The lp outcome of the cut-free relaxation of one probe radius with
    no extra row, shared by the probe's round_or_cut calls (and a
    solve_fair probe's emptiness test); None before the first call that
    needs it."""

    base: lp.LpOutcome = None


def round_or_cut(inst: Instance, r, record, extra=None, relaxation=None):
    """Round-or-cut loop at radius r over t covering rows.

    t = gamma, plus one when extra = (weights, goal) asks for covered
    weight at least goal as well.  Returns ("4r", centers) or
    ("2r", centers) with a center set meeting every demand (and the
    goal) at that multiple of r, or ("infeasible", certificate) proving
    that no integral radius-r solution exists.  Never reports infeasible
    when one does exist.  Counts LP solves, DP calls and cuts on record;
    a radius the counting bound rejects runs no LP.

    relaxation (fresh when None) holds the cut-free relaxation's
    outcome, built and solved cold by the first call that reaches an LP,
    and counted there.  The extra row, then each cut, extends the last
    outcome's program, re-solved from that outcome (lp.solve); from an
    empty relaxation that pads its certificate, which counts as no
    solve.  lp checks each optimum against its full program and verifies
    each certificate against it.
    """
    r = Fraction(r)
    t = inst.num_colors + (extra is not None)
    threshold = inst.k - t + 1
    found = counting_bound(inst, r)
    if found is not None:
        return "infeasible", counting_certificate(inst, r, found, extra)
    if relaxation is None:
        relaxation = LiveRelaxation()
    if relaxation.base is None:
        relaxation.base = lp.solve(build_relaxation(inst, r))
        record.lp_solves += 1
    out = relaxation.base
    rows = [] if extra is None else [_weighted_row(inst.n, extra)]
    seen = set()
    while True:
        if rows:
            record.lp_solves += out.status == "optimal"  # not a padded certificate
            out = lp.solve(out.program.extended(rows), out)
        if out.status == "infeasible":
            return "infeasible", out.certificate
        pt = FractionalPoint(out.point[: inst.n], out.point[inst.n :], out.den)
        part = good_partition(inst, r, pt)
        bad = verify_partition(inst, r, pt, part)
        if bad is not None:
            raise InternalError(f"clustering violated {bad}")
        if opening_mass(inst, r, pt, part.centers) <= threshold:
            covering = build_cluster_system(inst, part, extra)
            chosen = sparse_round(inst, r, part, covering, pt)
            tag, found = "4r", CenterSet(frozenset(chosen), 4 * r)
        else:
            record.dp_calls += 1
            tag = "2r"
            found = find_few_outside(inst, 2 * r, part.centers, t - 2, extra)
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
        record.cuts.append(cut)
        rows = [_cut_row(inst, r, cut)]


def solve_fixed_radius(inst: Instance, r, record: ProbeRecord = None) -> FixedRadiusResult:
    """Center set feasible at radius 4r (sometimes 2r), or an
    infeasibility certificate proving no integral radius-r solution
    exists; see round_or_cut.
    """
    if record is None:
        record = ProbeRecord(radius=Fraction(r))
    tag, got = round_or_cut(inst, r, record)
    if tag == "infeasible":
        record.outcome = "infeasible"
        return FixedRadiusResult("infeasible", certificate=got)
    record.outcome = "rounded-4r" if tag == "4r" else "solved-2r"
    return FixedRadiusResult("solved", got)


def radius_search(inst: Instance, exact, probe):
    """Smallest candidate radius a test accepts, as (result, radius,
    optimal, trace).  A test(r, record) returns None to reject r and
    notes what happened on record, a fresh ProbeRecord that the
    SolveTrace keeps in probe order.

    With at least as many colors as centers and at most ENUM_CAP center
    sets, exact(r) decides each radius by enumeration, which is
    monotone in r, so binary search finds the optimum.  A radius with
    no feasible set costs the most; feasible_sets' pick-count bound
    prunes its search near the root far below the optimum, but little
    just below it, where a scan up would pay for each radius.
    Otherwise probe(r) rejects only radii below the integral optimum,
    so the first radius accepted from below is at most the optimum and
    the radius binary search would settle on; accepted probes run more
    LPs the larger the radius, so the candidates are scanned up from
    the smallest.  The largest radius is probed only if nothing below
    it passed.
    """
    radii = candidate_radii(inst)
    optimal = inst.num_colors >= inst.k and subset_count(inst.n, inst.k) <= ENUM_CAP
    trace = SolveTrace()

    def test(r):
        trace.records.append(ProbeRecord(radius=r))
        return (exact if optimal else probe)(r, trace.records[-1])

    best = None
    lo, hi = 0, len(radii) - 1
    while lo < hi:  # best, once found, is the result at radii[hi]
        mid = (lo + hi) // 2 if optimal else lo
        got = test(radii[mid])
        if got is None:
            lo = mid + 1
        else:
            best, hi = got, mid
    if best is None:
        best = test(radii[lo])
    if best is None:
        raise InternalError("the largest candidate radius must be accepted")
    return best, radii[lo], optimal, trace


@dataclass(frozen=True)
class ColorfulSolution:
    centers: CenterSet
    probe_radius: Fraction  # the relaxation radius that produced it
    optimal: bool  # True when found by exact enumeration
    trace: SolveTrace


def solve_colorful(inst: Instance) -> ColorfulSolution:
    """Minimize the radius guarantee over candidate radii (see
    radius_search): exact when enumeration is affordable, otherwise at
    most four times the optimum.  A probe at r accepts
    model.greedy_centers at 4r, at its service radius, before any LP
    when they meet every demand there.
    """

    def exact(r, rec):
        found = next(feasible_sets(inst, r), None)
        rec.outcome = "infeasible" if found is None else "enumerated"
        return None if found is None else CenterSet(found, r)

    def probe(r, rec):
        found = greedy_centers(inst, 4 * r)
        if found is None:
            return solve_fixed_radius(inst, r, rec).centers
        rec.outcome = "greedy-4r"
        return CenterSet(found, service_radius(inst, found))

    return ColorfulSolution(*radius_search(inst, exact, probe))


"""Coverage-probability distributions via dual column generation.

Given per-point coverage targets p, find a distribution over center
sets, each meeting the color demands, whose probability of covering
every point u at the returned radius is at least p(u).  The search
runs in the dual: a candidate (alpha, mu) claiming no such
distribution exists is either refuted by a new center set whose
alpha-weighted coverage beats mu (a new column for the distribution),
or it survives and rejects the radius.  Enumeration prices exactly,
by the feasible set of largest weighted coverage.  A probe prices in
two steps.  First model.greedy_centers, its ties and spare picks
weighted by alpha, looks for a set at 4r that meets every demand and
whose weight reaches the goal (see _greedy_column): a column, traced
"column-greedy", with no LP or DP call.  Only when it finds none does
separate_or_certify run: the solver's round-or-cut engine, with t =
gamma + 1 rows, the extra one (weighted_goal: the restricted dual's
own ints) asking for that weighted coverage, finds a set at 4r (or 2r)
or proves r too small.  It is the only step that certifies, so a
greedy miss rejects nothing.  The radius search and its trace are the
solver's: a probe's solver.ProbeRecord counts its restricted-dual
solves and keeps one ProbeRecord per separation, on which round_or_cut
counts.

A probe at r takes the colorful probe's steps in its order.  When
model.greedy_centers finds centers at 4r that cover every targeted
point and meet every demand, it accepts their point mass as
"greedy-4r", with no LP, separation or restricted solve, at the radius
_mass_radius gives, at most 4r.  This is exact: the probes scan the
radii up and every rejection is certified, so OPT >= r, and a point
mass covering every targeted point meets every target.  The greedy
never rejects a radius.

Otherwise the probe rejects r as "empty" when the fair relaxation at r,
solver.build_relaxation's polytope with x_u >= p(u) on the targeted
points, is empty: a distribution at r gives it a point (y_v = Pr[v
opened], x_u = Pr[u covered]), so OPT > r.  model.counting_bound given
the targets tests it first, with no LP (see _counting_empty); then the
probe's cut-free relaxation, the start of its separations, re-solved
warm with the target rows (see _relaxation_empty).  Only a probe whose
relaxation has a point runs column generation, though at some rejected
radii that would have found a distribution at 4r.

The restricted dual is a covering LP over the points with a target:
least p.alpha over alpha >= 0, with (p - cov_c).alpha >= 1 for every
known column c, and mu = p.alpha - 1.  A distribution over the known
columns exists exactly when it is infeasible (Farkas), and then lp's
verified certificate is that distribution (see solve_restricted).
With no column its optimum is alpha = 0, mu = -1, priced with no solve.

Apart from the cut-free relaxation and the first restricted dual over
some columns, every LP re-solves warm, by lp.solve(program, start) from
an earlier outcome: the restricted dual gains its new columns' rows,
from its last outcome, and the emptiness test's target rows and each
separation's weighted row extend the probe's cut-free relaxation, from
its outcome.  Each program is built once
and extended by its new rows; lp checks every optimum against its full
program and verifies every certificate against it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .model import (
    FairInstance,
    Instance,
    ball_masks,
    counting_bound,
    feasible_sets,
    greedy_centers,
    mask_weight,
    rational_from,
    service_radius,
    union_mask,
    weighted_coverage,
)
from .solver import (
    InternalError, LiveRelaxation, ProbeRecord, SolveTrace, build_relaxation, counting_certificate,
    radius_search, round_or_cut, target_rows,
)

# Not called in this module, but benchmarks/tracing.py patches each of
# these names here, so they stay importable from it.
from .dp import find_few_outside  # noqa: F401
from .model import candidate_radii, check_feasible  # noqa: F401
from .partition import good_partition, opening_mass, verify_partition  # noqa: F401
from .rounding import build_cluster_system, sparse_round  # noqa: F401


@dataclass(frozen=True)
class DualPoint:
    """Candidate witness (alpha, mu) against the coverage targets, as the
    restricted dual's ints: point u weighs alpha[u] / den, and mu / den
    is the coverage to beat."""

    alpha: tuple
    mu: int
    den: int

    def __post_init__(self):
        for u, a in enumerate(self.alpha):
            if a < 0:
                raise ValueError(f"negative weight {a} at point {u}")


def weighted_goal(dual: DualPoint) -> tuple:
    """(weights, goal) = (alpha, max(0, mu + 1)), the ints over den.
    Every subset sum of alpha minus mu is an int, so a set's
    alpha-weighted coverage exceeds mu exactly when its weights sum to
    goal or more; covered weight is never negative, so the clamp changes
    no answer."""
    return dual.alpha, max(0, dual.mu + 1)


@dataclass(frozen=True)
class Distribution:
    """Probability weights over center sets, all at one radius."""

    support: tuple
    radius: Fraction

    def __post_init__(self):
        support = tuple(
            (frozenset(centers), rational_from(weight))
            for centers, weight in self.support
        )
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "radius", rational_from(self.radius))
        if not support:
            raise ValueError("distribution needs at least one center set")
        total = Fraction(0)
        for centers, weight in support:
            if weight <= 0:
                raise ValueError(f"weight {weight} for {set(centers)} not positive")
            total += weight
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")


def coverage_probability(inst: Instance, dist: Distribution, u: int) -> Fraction:
    """Probability that point u lies within the distribution's radius
    of a drawn center set."""
    near = ball_masks(inst, dist.radius)[u]  # bit c: dist[u][c] <= radius
    return sum((w for centers, w in dist.support if any(near >> c & 1 for c in centers)),
               Fraction(0))


def separate_or_certify(
    finst: FairInstance, r, dual: DualPoint, record: ProbeRecord = None, relaxation=None
):
    """Find a center set meeting the color demands at 4r (sometimes 2r)
    whose alpha-weighted coverage strictly exceeds mu, or return None,
    certifying that none exists even at radius r: then no distribution
    at radius r meets the targets, and the radius search moves up.

    This is the round-or-cut engine with the extra row
    weighted_goal(dual), alpha and mu as ints over dual.den, so its
    margin above mu is 1 / dual.den.  One more row drops the rounding
    threshold and cut bound to k - gamma and raises the outside-guess
    budget to gamma - 1.  relaxation, a solver.LiveRelaxation, holds
    the outcome of the probe's cut-free relaxation LP, solved once and
    the start of each separation's LP; the answer is the same with a
    fresh one.
    """
    r = Fraction(r)
    if record is None:
        record = ProbeRecord(radius=r)
    record.dual = dual
    tag, got = round_or_cut(finst.base, r, record, weighted_goal(dual), relaxation)
    if tag == "infeasible":
        record.outcome = "certified"
        return None
    record.outcome = f"column-{tag}"
    return got


def _restricted_program(finst: FairInstance) -> lp.LinearProgram:
    """The restricted dual over no columns, which no radius enters:
    minimize L p.alpha over alpha >= 0, one alpha_u per targeted point,
    so every cost is an int and the slack basis is dual feasible as it
    stands."""
    return lp.LinearProgram(len(finst.targeted),
                            [int(finst.target_lcm * finst.p[u]) for u in finst.targeted])


def solve_restricted(finst: FairInstance, radius, columns, start=None):
    """Best dual response to the given center sets, each covering the
    points within radius of it, and the LP outcome it came from.

    Minimizes p.alpha over alpha >= 0 on the targeted points, subject to
    (p - cov_c).alpha >= 1 for every column c, both sides times L; the
    dual point is alpha with mu = p.alpha - 1, as ints over L times the
    optimum's den.  When that program is infeasible, its verified Farkas
    certificate y >= 0 on the column rows is returned instead, as the
    distribution over the columns at radius weighting c by y_c / sum(y).
    On alpha_u's column the rows' combination is -P_u <= 0, so
    sum_c y_c cov_c(u) >= p(u) sum(y), and sum(y) = gap / L > 0.

    start, when given, is the outcome of this program for a prefix of
    columns (the previous call at the same radius); the rows of the rest
    extend its program, re-solved warm from it.
    """
    inst = finst.base
    targeted, scale = finst.targeted, finst.target_lcm
    program = _restricted_program(finst) if start is None else start.program
    costs = program.objective
    rows = []
    for c in columns[len(program.constraints):]:
        cov = union_mask(inst, c, radius)
        rows.append(([a - scale * (cov >> u & 1) for u, a in zip(targeted, costs)],
                     lp.GE, scale))
    out = lp.solve(program.extended(rows), start)
    if out.status == "optimal":
        point = dict(zip(targeted, out.point))
        alpha = tuple(scale * point.get(u, 0) for u in range(inst.n))
        mu = sum(c * a for c, a in zip(costs, out.point)) - scale * out.den
        return DualPoint(alpha=alpha, mu=mu, den=scale * out.den), out
    y = out.certificate.row_mults
    total = sum(y)
    dist = Distribution(
        support=tuple((c, w / total) for c, w in zip(columns, y) if w),
        radius=radius,
    )
    # verify_certificate checks the sums, not that row c is column c's
    for u, target in enumerate(finst.p):
        if coverage_probability(inst, dist, u) < target:
            raise InternalError(f"the certificate's distribution misses point {u}")
    return dist, out


def _counting_empty(finst: FairInstance, radius) -> bool:
    """Whether model.counting_bound, given the targets, shows the fair
    relaxation at radius empty, with no LP; its Farkas certificate
    (solver.counting_certificate) is verified exactly first, and an
    InternalError raised if it fails."""
    found = counting_bound(finst.base, radius, finst.p)
    if found is None:
        return False
    counting_certificate(finst.base, radius, found, targets=finst.p)
    return True


def _relaxation_empty(finst: FairInstance, radius, relaxation: LiveRelaxation,
                      rec: ProbeRecord) -> bool:
    """Whether the fair relaxation at radius (solver.build_relaxation
    plus solver.target_rows) is empty, by a Farkas certificate lp has
    verified.  Solves the cut-free relaxation cold into relaxation.base,
    where the probe's separations start, and re-solves it warm with the
    target rows; each LP counts on rec (from an empty cut-free
    relaxation the re-solve only pads its certificate)."""
    relaxation.base = base = lp.solve(build_relaxation(finst.base, radius))
    rec.lp_solves += 1 + (base.status == "optimal")
    return lp.solve(base.program.extended(target_rows(finst.p)), base).status == "infeasible"


def _greedy_column(finst: FairInstance, radius, dual: DualPoint):
    """The centers model.greedy_centers picks at radius with alpha as
    its weights when they meet every demand there and their weight
    reaches weighted_goal(dual)'s goal, a column beating mu; else None,
    which says nothing about the radius."""
    weights, goal = weighted_goal(dual)
    centers = greedy_centers(finst.base, radius, weights=weights)
    if centers is None or weighted_coverage(finst.base, weights, centers, radius) < goal:
        return None
    return centers


def _mass_radius(finst: FairInstance, centers) -> Fraction:
    """The smallest radius at which the point mass on centers meets
    every demand (model.service_radius) and covers every targeted point,
    read from the int rows."""
    inst = finst.base
    near = list(map(min, zip(*(inst.rows[s] for s in centers))))
    far = max((near[u] for u in finst.targeted), default=0)
    return max(service_radius(inst, centers), Fraction(far, inst.scale))


@dataclass(frozen=True)
class FairSolution:
    distribution: Distribution
    probe_radius: Fraction  # the relaxation radius that produced it
    optimal: bool  # True when found by exact enumeration
    trace: SolveTrace


def _generate(finst: FairInstance, radius, price, rec: ProbeRecord):
    """Column generation at one radius: alternate best dual responses
    with price(dual), a new column beating it or None, until a
    distribution emerges or a dual point survives, rejecting the radius
    (None).  The column-free dual point alpha = 0, mu = -1 is priced
    first, with no solve; each restricted solve counts on rec.  A
    priced column beats mu, and every column in the restricted dual
    covers at most mu, so pricing never repeats one."""
    columns, out = [], None
    got = DualPoint(alpha=(0,) * finst.base.n, mu=-1, den=1)
    while True:
        col = price(got)
        if col is None:
            return None
        if col in columns:
            raise InternalError("pricing repeated a known column")
        columns.append(col)
        got, out = solve_restricted(finst, radius, columns, out)
        rec.restricted_solves += 1
        if isinstance(got, Distribution):
            return got


def solve_fair(finst: FairInstance) -> FairSolution:
    """Minimize the radius at which some distribution over feasible
    center sets meets every coverage target (see solver.radius_search):
    exact when enumeration is affordable, otherwise at most four times
    the optimum.  Enumeration prices exactly, so its restricted dual
    holds the columns priced in, not every feasible set.  A probe at r
    accepts its greedy point mass, else rejects r when the fair
    relaxation at r is empty, else runs column generation from the
    column-free dual point, its columns covering at 4r, each dual point
    priced by the weighted greedy before separate_or_certify.
    """
    def exact(r, rec):
        # equal coverage gives equal rows: keep the first set of each
        sets = {}
        for centers in feasible_sets(finst.base, r):
            sets.setdefault(union_mask(finst.base, centers, r), centers)

        def price(dual):
            # the first set of largest alpha-weighted coverage, if above mu
            weights, goal = weighted_goal(dual)
            mass = {m: mask_weight(weights, m) for m in sets}
            best = max(mass, key=mass.get, default=None)
            return None if best is None or mass[best] < goal else sets[best]

        dist = _generate(finst, r, price, rec)
        rec.outcome = "infeasible" if dist is None else "exact"
        return dist

    targets = sum(1 << u for u in finst.targeted)

    def probe(r, rec):
        mass = greedy_centers(finst.base, 4 * r, targets)
        if mass is not None:
            rec.outcome = "greedy-4r"
            return Distribution(((mass, 1),), _mass_radius(finst, mass))
        relaxation = LiveRelaxation()  # every separation starts from it
        if _counting_empty(finst, r) or _relaxation_empty(finst, r, relaxation, rec):
            rec.outcome = "empty"
            return None

        def separate(dual):
            sep = ProbeRecord(radius=r, dual=dual)
            rec.separations.append(sep)
            got = _greedy_column(finst, 4 * r, dual)
            if got is not None:
                sep.outcome = "column-greedy"
                return got
            got = separate_or_certify(finst, r, dual, sep, relaxation)
            return None if got is None else frozenset(got.centers)

        dist = _generate(finst, 4 * r, separate, rec)
        rec.outcome = "certified" if dist is None else "distribution"
        return dist

    return FairSolution(*radius_search(finst.base, exact, probe))


def sample(dist: Distribution, seed: int) -> frozenset:
    """Draw one center set; each appears with probability exactly its
    weight, deterministically in the seed."""
    rng = random.Random(seed)
    denom = math.lcm(*(weight.denominator for _, weight in dist.support))
    draw = rng.randrange(denom)
    acc = 0
    for centers, weight in dist.support:
        acc += int(weight * denom)
        if draw < acc:
            return centers
    raise InternalError("weights did not cover the sample space")

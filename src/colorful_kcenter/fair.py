"""Coverage-probability distributions via dual column generation.

Given per-point coverage targets p, find a distribution over center
sets, each meeting the color demands, whose probability of covering
every point u at the returned radius is at least p(u).  The search
runs in the dual: a candidate (alpha, mu) claiming no such
distribution exists is either refuted by a new center set whose
alpha-weighted coverage beats mu (a new column for the distribution),
or confirmed by the solver's round-or-cut engine run with t = gamma + 1
rows, the extra one asking for that weighted coverage, proving the
probe radius too small.  The radius search is the solver's too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import lp
from .model import (
    FairInstance,
    Instance,
    feasible_sets,
    rational_from,
    union_ball,
    weighted_coverage,  # noqa: F401  (part of this module's interface)
)
from .solver import InternalError, radius_search, round_or_cut

# Not called in this module, but benchmarks/tracing.py patches each of
# these names here, so they stay importable from it.
from .dp import find_few_outside  # noqa: F401
from .model import candidate_radii, check_feasible  # noqa: F401
from .partition import good_partition, opening_mass, verify_partition  # noqa: F401
from .rounding import build_cluster_system, sparse_round  # noqa: F401
from .solver import build_relaxation  # noqa: F401


def epsilon_gap(alpha, mu) -> Fraction:
    """Strictness margin for weighted-coverage thresholds.

    Every subset sum of alpha minus mu is a multiple of one over the
    product of all denominators, so "strictly above mu" and "at least
    mu plus the margin" pick out exactly the same center sets.
    """
    prod = rational_from(mu).denominator
    for a in alpha:
        prod *= rational_from(a).denominator
    return Fraction(1, prod)


@dataclass(frozen=True)
class DualPoint:
    """Candidate witness (alpha, mu) against the coverage targets."""

    alpha: tuple
    mu: Fraction

    def __post_init__(self):
        alpha = tuple(rational_from(a) for a in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mu", rational_from(self.mu))
        for u, a in enumerate(alpha):
            if a < 0:
                raise ValueError(f"negative weight {a} at point {u}")


@dataclass(frozen=True)
class InQ:
    """Separation failed: no center set feasible at this radius has
    alpha-weighted coverage above mu, so no distribution at this
    radius meets the targets and the radius search must move up.
    """

    radius: Fraction
    dual: DualPoint


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
    total = Fraction(0)
    for centers, weight in dist.support:
        if any(inst.dist[u][c] <= dist.radius for c in centers):
            total += weight
    return total


@dataclass
class SeparationRecord:
    """What happened while answering one dual point."""

    radius: Fraction
    alpha: tuple = ()
    mu: Fraction = None
    eps: Fraction = None
    outcome: str = ""  # "column-4r" | "column-2r" | "certified"
    cuts: list = field(default_factory=list)
    lp_solves: int = 0
    dp_calls: int = 0


@dataclass
class FairRadiusRecord:
    """What happened while probing one radius."""

    radius: Fraction
    outcome: str = ""  # "distribution" | "certified" | "exact" | "infeasible"
    separations: list = field(default_factory=list)
    restricted_solves: int = 0


@dataclass
class FairTrace:
    records: list = field(default_factory=list)

    def total_cuts(self) -> int:
        return sum(
            len(sep.cuts) for rec in self.records for sep in rec.separations
        )

    def total_columns(self) -> int:
        return sum(
            1
            for rec in self.records
            for sep in rec.separations
            if sep.outcome.startswith("column")
        )


def separate_or_certify(
    finst: FairInstance, r, dual: DualPoint, record: SeparationRecord = None
):
    """Find a center set meeting the color demands at 4r (sometimes 2r)
    whose alpha-weighted coverage strictly exceeds mu, or certify that
    none exists even at radius r.

    This is the round-or-cut engine with the extra row (alpha, goal),
    goal = mu + eps clamped at zero, which changes no answer since
    covered weight is never negative.  One more row drops the rounding
    threshold and cut bound to k - gamma and raises the outside-guess
    budget to gamma - 1.
    """
    r = Fraction(r)
    eps = epsilon_gap(dual.alpha, dual.mu)
    if record is None:
        record = SeparationRecord(radius=r)
    record.alpha, record.mu, record.eps = dual.alpha, dual.mu, eps
    extra = (dual.alpha, max(Fraction(0), dual.mu + eps))
    tag, got = round_or_cut(finst.base, r, record, extra)
    if tag == "infeasible":
        record.outcome = "certified"
        return InQ(radius=r, dual=dual)
    record.outcome = f"column-{tag}"
    return got


def solve_restricted(finst: FairInstance, r, columns):
    """Best dual response to the center sets found so far.

    Minimizes mu over alpha >= 0 and free mu, normalized so the
    target-weighted alpha mass exceeds mu by exactly one, subject to
    every known column's coverage staying at most mu.  When even that
    program is infeasible the known columns already support a
    distribution meeting every target, and it is returned instead.
    """
    inst = finst.base
    n = inst.n
    r4 = 4 * Fraction(r)
    covers = [union_ball(inst, c, r4) for c in columns]
    program = lp.LinearProgram(
        n + 1,
        tuple([Fraction(0)] * n + [Fraction(1)]),
        lp.MIN,
        tuple([Fraction(0)] * n + [None]),
    )
    program.add(tuple(list(finst.p) + [Fraction(-1)]), lp.EQ, 1)
    for cov in covers:
        row = [Fraction(0)] * (n + 1)
        for u in cov:
            row[u] = Fraction(1)
        row[n] = Fraction(-1)
        program.add(tuple(row), lp.LE, 0)
    out = lp.solve(program)
    if out.status == "optimal":
        if lp.check_point(program, out.solution) is not None:
            raise InternalError("LP returned a point outside its own polytope")
        return DualPoint(alpha=out.solution[:n], mu=out.solution[n])
    if out.status != "infeasible":
        # mu >= weighted mass - 1 >= -1 on every feasible point
        raise InternalError("dual response LP cannot be unbounded")
    dist = _distribution_over(finst, columns, r4)
    if dist is None:
        raise InternalError("restricted distribution LP must be solvable")
    return dist


def _distribution_over(finst: FairInstance, columns, radius):
    """Probability weights over the given center sets meeting every
    coverage target at the given radius, or None."""
    if not columns:
        return None
    covers = [union_ball(finst.base, c, radius) for c in columns]
    program = lp.LinearProgram(
        len(columns), tuple(Fraction(0) for _ in columns)
    )
    program.add(tuple(Fraction(1) for _ in columns), lp.EQ, 1)
    for u in range(finst.base.n):
        if finst.p[u] <= 0:
            continue
        program.add(
            tuple(Fraction(int(u in cov)) for cov in covers), lp.GE, finst.p[u]
        )
    out = lp.solve(program)
    if out.status != "optimal":
        return None
    support = tuple(
        (frozenset(c), w) for c, w in zip(columns, out.solution) if w > 0
    )
    return Distribution(support=support, radius=radius)


@dataclass(frozen=True)
class FairSolution:
    distribution: Distribution
    probe_radius: Fraction  # the relaxation radius that produced it
    optimal: bool  # True when found by exact enumeration
    trace: FairTrace


def _probe(finst: FairInstance, r, rec: FairRadiusRecord):
    """Column generation at one radius: alternate best dual responses
    with separation until a distribution emerges or a dual point
    survives, which proves the radius too small."""
    columns = []
    known = set()
    while True:
        rec.restricted_solves += 1
        response = solve_restricted(finst, r, columns)
        if isinstance(response, Distribution):
            rec.outcome = "distribution"
            return response
        sep = SeparationRecord(radius=Fraction(r))
        rec.separations.append(sep)
        got = separate_or_certify(finst, r, response, sep)
        if isinstance(got, InQ):
            rec.outcome = "certified"
            return None
        col = frozenset(got.centers)
        if col in known:
            raise InternalError("separation repeated a known column")
        known.add(col)
        columns.append(col)


def solve_fair(finst: FairInstance) -> FairSolution:
    """Minimize the radius at which some distribution over feasible
    center sets meets every coverage target (see solver.radius_search):
    exact when enumeration is affordable, a distribution over every
    feasible set deciding each radius; otherwise column generation
    decides it and the radius is at most four times the optimum.
    """
    trace = FairTrace()

    def exact(r):
        found = _distribution_over(finst, list(feasible_sets(finst.base, r)), r)
        outcome = "infeasible" if found is None else "exact"
        trace.records.append(FairRadiusRecord(radius=r, outcome=outcome))
        return found

    def probe(r):
        rec = FairRadiusRecord(radius=r)
        trace.records.append(rec)
        return _probe(finst, r, rec)

    dist, radius, optimal = radius_search(finst.base, exact, probe)
    return FairSolution(dist, radius, optimal, trace)


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

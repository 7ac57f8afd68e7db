"""Brute-force reference solvers, deliberately built on different
machinery than the main pipeline.

brute_force_colorful computes, for every center subset, the smallest
radius at which it meets all demands (a per-color order statistic of
distances), and takes the overall minimum.  brute_force_fair walks
candidate radii upward and decides, by exact LP feasibility over the
full list of feasible center sets, whether some distribution over them
meets every point's coverage target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .model import CenterSet, FairInstance, Instance, candidate_radii, subset_count


class OracleCapExceeded(RuntimeError):
    """The subset space is too large for exhaustive search."""


def _check_cap(inst: Instance, cap: int):
    count = subset_count(inst.n, inst.k)
    if count > cap:
        raise OracleCapExceeded(f"{count} subsets exceed cap {cap}")


def _min_radius_of(inst: Instance, centers) -> Fraction:
    """Smallest r at which `centers` meets every color demand, or None
    when some demand is unreachable (only possible for empty centers).
    """
    worst = Fraction(0)
    for c in inst.colors:
        if c.demand == 0:
            continue
        if not centers:
            return None
        dists = sorted(
            min(inst.dist[u][s] for s in centers) for u in c.members
        )
        need = dists[c.demand - 1]
        if need > worst:
            worst = need
    return worst


@dataclass(frozen=True)
class ColorfulOptimum:
    radius: Fraction
    centers: CenterSet


def brute_force_colorful(inst: Instance, cap: int = 10**7) -> ColorfulOptimum:
    """Exact optimum radius and a witness, by exhausting center sets in
    (size, lex) order.  Raises OracleCapExceeded past cap subsets.
    """
    _check_cap(inst, cap)
    best = None
    best_set = None
    for size in range(inst.k + 1):
        for combo in itertools.combinations(range(inst.n), size):
            r = _min_radius_of(inst, combo)
            if r is None:
                continue
            if best is None or r < best:
                best = r
                best_set = combo
    if best is None:
        raise RuntimeError("unreachable: opening all points meets any demand")
    return ColorfulOptimum(best, CenterSet(frozenset(best_set), best))


def enumerate_feasible(inst: Instance, r):
    """All center sets (size <= k) meeting every demand at radius r,
    in (size, lex) order.  Exhaustive; meant for small n.
    """
    out = []
    r = Fraction(r)
    for size in range(inst.k + 1):
        for combo in itertools.combinations(range(inst.n), size):
            mr = _min_radius_of(inst, combo)
            if mr is not None and mr <= r:
                out.append(frozenset(combo))
    return out


@dataclass(frozen=True)
class FairOptimum:
    radius: Fraction
    support: tuple  # ((frozenset, Fraction), ...) with positive weights


def _coverage_lp(finst: FairInstance, sets, r):
    """Feasibility LP for a coverage lottery over `sets` at radius r:
    weights sum to one and every point is covered with probability at
    least its target.
    """
    n = finst.n
    m = len(sets)
    program = lp.LinearProgram(
        m,
        tuple(Fraction(0) for _ in range(m)),
        lp.MIN,
        tuple(Fraction(0) for _ in range(m)),
        tuple(None for _ in range(m)),
    )
    program.add(tuple([1] * m), lp.EQ, 1)
    for u in range(n):
        row = [
            Fraction(1) if any(finst.base.dist[u][s] <= r for s in cs) else Fraction(0)
            for cs in sets
        ]
        program.add(tuple(row), lp.GE, finst.p[u])
    return program


def brute_force_fair(finst: FairInstance, cap: int = 10**7) -> FairOptimum:
    """Smallest candidate radius admitting a coverage lottery, with a
    basic (small-support) distribution as witness.
    """
    inst = finst.base
    _check_cap(inst, cap)
    pairs = []
    for size in range(inst.k + 1):
        for combo in itertools.combinations(range(inst.n), size):
            mr = _min_radius_of(inst, combo)
            if mr is not None:
                pairs.append((frozenset(combo), mr))
    for r in candidate_radii(inst):
        sets = [cs for cs, mr in pairs if mr <= r]
        if not sets:
            continue
        out = lp.solve(_coverage_lp(finst, sets, r))
        if out.status == "optimal":
            support = tuple(
                (cs, lam) for cs, lam in zip(sets, out.solution) if lam > 0
            )
            return FairOptimum(r, support)
    raise RuntimeError("unreachable: the largest radius covers everything")

"""Brute-force reference solvers, deliberately built on different
machinery than the main pipeline.

Both walk every center set of at most k points with the smallest
radius at which it meets all demands (model.service_radius, a per-color
order statistic of distances over the int rows, which the solver also
uses to report a greedy probe's radius).  brute_force_colorful takes
the first set of least radius; brute_force_fair walks candidate radii
upward and decides, by exact LP feasibility over the sets that meet
every demand there, whether some distribution over them meets every
point's coverage target.

brute_force_fair's LP reads `Instance.dist`, a view of the int rows the
ball tests read; test_instances_are_int_rows_with_an_exact_view pins it
to the input.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import lp
from .fair import Distribution
from .model import (
    CenterSet, FairInstance, Instance, candidate_radii, service_radius, subset_count,
)


class OracleCapExceeded(RuntimeError):
    """The subset space is too large for exhaustive search."""


def _check_cap(inst: Instance, cap: int):
    count = subset_count(inst.n, inst.k)
    if count > cap:
        raise OracleCapExceeded(f"{count} subsets exceed cap {cap}")


def _center_sets(inst: Instance):
    """Each center set (size <= k) that meets every demand at some
    radius, with the smallest such radius, in (size, lex) order.
    """
    for size in range(inst.k + 1):
        for combo in itertools.combinations(range(inst.n), size):
            mr = service_radius(inst, combo)
            if mr is not None:
                yield frozenset(combo), mr


def brute_force_colorful(inst: Instance, cap: int = 10**7) -> CenterSet:
    """Exact optimum: the first center set of least radius in (size,
    lex) order.  Raises OracleCapExceeded past cap subsets.
    """
    _check_cap(inst, cap)
    centers, radius = min(_center_sets(inst), key=lambda pair: pair[1])
    return CenterSet(centers, radius)


def enumerate_feasible(inst: Instance, r):
    """All center sets (size <= k) meeting every demand at radius r,
    in (size, lex) order.  Exhaustive; meant for small n.
    """
    r = Fraction(r)
    return [cs for cs, mr in _center_sets(inst) if mr <= r]


def _coverage_lp(finst: FairInstance, sets, r):
    """Feasibility LP for a coverage lottery over `sets` at radius r:
    weights sum to one and every point is covered with probability at
    least its target.
    """
    n = finst.n
    m = len(sets)
    program = lp.LinearProgram(m, (0,) * m)
    program.add([1] * m, lp.EQ, 1)
    for u in range(n):
        row = [int(any(finst.base.dist[u][s] <= r for s in cs)) for cs in sets]
        program.add(row, lp.GE, finst.p[u])
    return program


def brute_force_fair(finst: FairInstance, cap: int = 10**7) -> Distribution:
    """Smallest candidate radius admitting a coverage lottery, with a
    basic (small-support) distribution as witness.
    """
    inst = finst.base
    _check_cap(inst, cap)
    pairs = list(_center_sets(inst))
    for r in candidate_radii(inst):
        sets = [cs for cs, mr in pairs if mr <= r]
        if not sets:
            continue
        out = lp.solve(_coverage_lp(finst, sets, r))
        if out.status == "optimal":
            return Distribution(
                tuple((cs, lam) for cs, lam in zip(sets, out.solution) if lam > 0), r
            )
    raise RuntimeError("unreachable: the largest radius covers everything")

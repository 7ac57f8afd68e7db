"""Rounding a clustered relaxation point through a small covering LP.

The clusters collapse the instance to q aggregated items, and
build_cluster_system returns the covering LP over them: minimize the
opened clusters subject to covering each row's demand.  It has t rows,
one per color plus the optional weighted row (fair's int weights summed
per cluster), so any vertex has at most t fractional coordinates.  When
the optimum is at most k - t + 1, the support therefore has at most k
clusters, and opening every support center covers all demands within
four radii.
"""

from __future__ import annotations

from fractions import Fraction

from . import lp
from .model import Instance
from .partition import FractionalPoint, GoodPartition, opening_mass


class SparseRoundError(lp.InternalError):
    """An invariant of the rounding step failed: an internal error,
    never "instance infeasible".
    """


def build_cluster_system(inst: Instance, part: GoodPartition, extra=None):
    """The clusters' covering LP, as an lp.LinearProgram: minimize the
    sum of z over z in [0,1]^q, q the cluster count, subject to one >=
    row per color class (its members inside each cluster, at least its
    demand) and, when extra = (weights, goal) is given, the per-point
    weights summed per cluster, at least goal.
    """
    q = part.size
    program = lp.LinearProgram(q, (1,) * q, lp.MIN, (0,) * q, (1,) * q)
    for c in inst.colors:
        row = [len(c.members & cluster) for cluster in part.clusters]
        program.add(row, lp.GE, c.demand)
    if extra is not None:
        weights, goal = extra
        row = [sum(weights[u] for u in cluster) for cluster in part.clusters]
        program.add(row, lp.GE, goal)
    return program


def sparse_round(
    inst: Instance,
    r,
    part: GoodPartition,
    program: lp.LinearProgram,
    pt: FractionalPoint,
) -> frozenset:
    """Open at most inst.k cluster centers meeting every row of the
    covering LP program (see build_cluster_system).

    Correct only under the caller-checked hypothesis that the point's
    opening mass around the centers is at most k - t + 1 (t = number of
    rows); under it the covering LP optimum is small enough that a
    vertex's support fits the budget.  Violations of that chain raise
    SparseRoundError.
    """
    q = part.size
    t = len(program.constraints)
    if program.num_vars != q:
        raise SparseRoundError("covering system width != cluster count")
    if all(con.rhs <= 0 for con in program.constraints):
        return frozenset()
    if q <= inst.k:
        if lp.check_point(program, (1,) * q) is not None:
            raise SparseRoundError("demand above the whole ground set")
        return frozenset(part.centers)

    out = lp.solve(program)
    if out.status != "optimal":
        raise SparseRoundError(f"covering LP is {out.status}")
    threshold = Fraction(inst.k - t + 1)
    # the point itself yields a feasible z with objective <= its opening
    # mass, so the optimum can't exceed the checked mass
    z_feas = tuple(
        min(Fraction(1), opening_mass(inst, r, pt, [s])) for s in part.centers
    )
    if lp.check_point(program, z_feas) is not None:
        raise SparseRoundError("relaxation point does not embed into covering LP")
    if out.value > opening_mass(inst, r, pt, part.centers):
        raise SparseRoundError("covering LP optimum above embedded objective")
    if out.value > threshold:
        raise SparseRoundError(
            f"covering optimum {out.value} exceeds threshold {threshold}"
        )
    fractional = sum(1 for z in out.point if 0 < z < out.den)
    if fractional > t:
        raise SparseRoundError("vertex has more fractional entries than rows")
    support = tuple(int(z > 0) for z in out.point)
    chosen = frozenset(s for s, z in zip(part.centers, support) if z)
    if len(chosen) > inst.k:
        raise SparseRoundError(f"support {len(chosen)} exceeds budget {inst.k}")
    if lp.check_point(program, support) is not None:
        raise SparseRoundError("support fails an aggregated demand")
    return chosen

"""Rounding a clustered relaxation point through a small covering LP.

The clusters collapse the instance to q aggregated items; the LP
"minimize opened clusters subject to covering each row's demand" has at
most t rows, so any vertex has at most t fractional coordinates.  When
the optimum is at most k - t + 1, the support therefore has at most k
clusters, and opening every support center covers all demands within
four radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .model import Instance
from .partition import FractionalPoint, GoodPartition, opening_mass


class SparseRoundError(RuntimeError):
    """An invariant of the rounding step failed; callers treat this as
    an internal error, never as "instance infeasible".
    """


@dataclass(frozen=True)
class CoveringSystem:
    """Aggregated demands over clusters: rows[l][i] is how much cluster
    i contributes to row l, rhs[l] the amount required.
    """

    rows: tuple
    rhs: tuple

    def __post_init__(self):
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", tuple(Fraction(v) for v in self.rhs))
        if len(rows) != len(self.rhs):
            raise ValueError("row/rhs count mismatch")
        width = {len(row) for row in rows}
        if len(width) > 1:
            raise ValueError("ragged covering system")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_items(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def build_cluster_system(
    inst: Instance, part: GoodPartition, extra_rows=()
) -> CoveringSystem:
    """One row per color class counting members inside each cluster,
    plus optional weighted rows given as (per-point-weights, rhs).
    """
    rows = []
    rhs = []
    for c in inst.colors:
        rows.append(tuple(len(c.members & cluster) for cluster in part.clusters))
        rhs.append(Fraction(c.demand))
    for weights, bound in extra_rows:
        rows.append(
            tuple(
                sum((weights[u] for u in cluster), Fraction(0))
                for cluster in part.clusters
            )
        )
        rhs.append(Fraction(bound))
    return CoveringSystem(tuple(rows), tuple(rhs))


def sparse_round(
    inst: Instance,
    r,
    part: GoodPartition,
    system: CoveringSystem,
    k: int,
    pt: FractionalPoint = None,
) -> frozenset:
    """Open at most k cluster centers meeting every aggregated demand.

    Correct only under the caller-checked hypothesis that the point's
    opening mass around the centers is at most k - t + 1 (t = number of
    rows); under it the covering LP optimum is small enough that a
    vertex's support fits the budget.  Violations of that chain raise
    SparseRoundError.
    """
    q = part.size
    t = system.num_rows
    if system.num_items != q:
        raise SparseRoundError("covering system width != cluster count")
    if all(b <= 0 for b in system.rhs):
        return frozenset()
    if q <= k:
        for row, b in zip(system.rows, system.rhs):
            if sum(row) < b:
                raise SparseRoundError("demand above the whole ground set")
        return frozenset(part.centers)

    program = lp.LinearProgram(
        q,
        tuple(Fraction(1) for _ in range(q)),
        lp.MIN,
        tuple(Fraction(0) for _ in range(q)),
        tuple(Fraction(1) for _ in range(q)),
        [(row, lp.GE, b) for row, b in zip(system.rows, system.rhs)],
    )
    out = lp.solve(program)
    if out.status != "optimal":
        raise SparseRoundError(f"covering LP is {out.status}")
    threshold = Fraction(k - t + 1)
    if pt is not None:
        # the point itself yields a feasible z with objective <= its
        # opening mass, so the optimum can't exceed the checked mass
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
    fractional = sum(1 for z in out.solution if 0 < z < 1)
    if fractional > t:
        raise SparseRoundError("vertex has more fractional entries than rows")
    chosen = frozenset(s for s, z in zip(part.centers, out.solution) if z > 0)
    if len(chosen) > k:
        raise SparseRoundError(f"support {len(chosen)} exceeds budget {k}")
    for row, b in zip(system.rows, system.rhs):
        got = sum(
            (a for a, s, z in zip(row, part.centers, out.solution) if z > 0),
            Fraction(0),
        )
        if got < b:
            raise SparseRoundError("support fails an aggregated demand")
    return chosen

"""Knapsack-style selection of cluster centers under color demands.

dp_solve maximizes total item weight subject to picking at most kappa
items whose color contributions reach every demand; demands are clamped
at zero as they shrink, which keeps the state space at most the product
of the initial demands plus one in each coordinate.

find_few_outside searches for a small center set of the form
"guessed points outside S, completed by centers inside S": it guesses
every small subset Q outside S, discounts what Q already covers, and
runs the dynamic program over S to cover the rest, maximizing covered
weight and checking it against a threshold (both zero without a
weighted target).  Used with radius r2 = 2r for cluster centers S
that are pairwise > 4r apart, so the r2-balls around S never overlap
and contributions are additive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .lp import InternalError
from .model import CenterSet, Instance, ball, union_ball


@dataclass(frozen=True)
class DpProgram:
    """Items with weights, per-row integer contributions, integer
    demands, and a cardinality cap.
    """

    weights: tuple
    rows: tuple
    demands: tuple
    capacity: int

    def __post_init__(self):
        object.__setattr__(
            self, "weights", tuple(Fraction(w) for w in self.weights)
        )
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "demands", tuple(int(m) for m in self.demands))
        if len(rows) != len(self.demands):
            raise ValueError("row/demand count mismatch")
        q = len(self.weights)
        if any(len(row) != q for row in rows):
            raise ValueError("ragged contribution rows")
        if any(v < 0 for row in rows for v in row):
            raise ValueError("contributions must be nonnegative")
        if any(m < 0 for m in self.demands):
            raise ValueError("demands must be nonnegative")
        if self.capacity < 0:
            raise ValueError("capacity must be nonnegative")

    @property
    def num_items(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class DpResult:
    value: Fraction
    picks: tuple  # item indices, ascending


def dp_solve(prog: DpProgram):
    """Best-weight feasible selection, or None if no selection meets
    the demands within the capacity.

    Deterministic: on equal value the lexicographically smallest pick
    set (scanning items in order, preferring "skip") is returned.
    """
    q = prog.num_items
    rows = prog.rows
    clamp = tuple(prog.demands)

    memo = {}
    zero = Fraction(0)

    def best(i, need, budget):
        # best weight from items i..q-1 covering `need` with <= budget
        # picks; weights are nonnegative, so exhausted demands still
        # allow further picks for their weight
        if i == q or budget == 0:
            return zero if not any(need) else None
        key = (i, need, budget)
        hit = memo.get(key, memo)
        if hit is not memo:
            return hit
        res = best(i + 1, need, budget)
        nxt = tuple(
            v - rows[l][i] if v > rows[l][i] else 0 for l, v in enumerate(need)
        )
        with_i = best(i + 1, nxt, budget - 1)
        if with_i is not None:
            with_i = with_i + prog.weights[i]
            if res is None or with_i > res:
                res = with_i
        memo[key] = res
        return res

    top = best(0, clamp, prog.capacity)
    if top is None:
        return None

    # replay the table, preferring "skip" so ties pick lexicographically
    picks = []
    need = clamp
    budget = prog.capacity
    value = top
    i = 0
    while any(need) or value > 0:
        skip = best(i + 1, need, budget) if i < q else None
        if skip is not None and skip == value:
            i += 1
            continue
        if i == q:
            raise InternalError("replay ran off the table")
        picks.append(i)
        need = tuple(
            v - rows[l][i] if v > rows[l][i] else 0 for l, v in enumerate(need)
        )
        value = value - prog.weights[i]
        budget -= 1
        i += 1
    return DpResult(top, tuple(picks))


@dataclass(frozen=True)
class WeightedTarget:
    """Per-point weights plus a strict coverage threshold: a selection
    qualifies when its covered weight is at least the threshold.
    """

    weights: tuple
    threshold: Fraction


def find_few_outside(
    inst: Instance, r2, centers_s, beta: int, target: WeightedTarget = None
):
    """Search for a feasible center set with at most beta centers
    outside centers_s (and at most inst.k centers in total) at radius
    r2.  Returns the first hit as a CenterSet, or None.

    Guesses Q run over subsets of the complement in (size, lex) order;
    for each Q the dynamic program packs centers from centers_s to
    cover the demands left after discounting Q's coverage.  With a
    target, the covered weight including Q's share must also reach the
    threshold; without one, every weight is zero and so is the
    threshold.
    """
    r2 = Fraction(r2)
    if target is None:
        target = WeightedTarget(weights=(0,) * inst.n, threshold=0)
    s_list = sorted(set(centers_s))
    for a in range(len(s_list)):
        for b in range(a + 1, len(s_list)):
            if inst.dist[s_list[a]][s_list[b]] <= 2 * r2:
                raise ValueError("inside-centers too close: r2-balls must be disjoint")
    outside = [u for u in range(inst.n) if u not in set(s_list)]

    for size in range(0, min(beta, inst.k, len(outside)) + 1):
        for guess in itertools.combinations(outside, size):
            covered_q = union_ball(inst, guess, r2)
            residual_rows = []
            residual_demands = []
            item_balls = [ball(inst, s, r2) - covered_q for s in s_list]
            for c in inst.colors:
                left = c.demand - len(c.members & covered_q)
                if left <= 0:
                    continue
                residual_rows.append(
                    tuple(len(c.members & ib) for ib in item_balls)
                )
                residual_demands.append(left)
            prog = DpProgram(
                weights=tuple(
                    sum(target.weights[u] for u in ib) for ib in item_balls
                ),
                rows=tuple(residual_rows),
                demands=tuple(residual_demands),
                capacity=inst.k - size,
            )
            res = dp_solve(prog)
            if res is None:
                continue
            base = sum(target.weights[u] for u in covered_q)
            if base + res.value >= target.threshold:
                chosen = frozenset(guess) | frozenset(s_list[i] for i in res.picks)
                return CenterSet(chosen, r2)
    return None

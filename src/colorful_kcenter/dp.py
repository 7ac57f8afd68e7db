"""Knapsack-style selection of cluster centers under color demands.

dp_solve maximizes total item weight subject to picking at most kappa
items whose color contributions reach every demand; demands are clamped
at zero as they shrink, which keeps the state space at most the product
of the initial demands plus one in each coordinate.  It is one forward
pass over the items: the layer after items 0..i-1 maps each state
(need, budget) to the best (weight, picks) that reaches it, and item i
carries each state over unchanged (skip) and, with budget left, to the
state its contributions leave (pick).  Only two layers are alive at a
time.  On equal weight a state keeps the picks that skip the first item
where the two differ; both share every completion, so the answer is
the heaviest selection that meets every demand and skips earliest: the
best state of the last layer with no unmet need.

One bound drops programs that provably have no feasible selection, the
pooled bound, which find_few_outside runs once per program before
building it: an item earns min(c, m) / m for each row with contribution
c and demand m > 0, and if the best kappa items earn less than one per
such row in total, no selection meets every demand.  It is a necessary
condition for feasibility, so it drops no program that has an answer.
A per-state bound (a row needing more than the best items left can add)
is not run: building its per-program tables of suffix sums and testing
every state cost more than the states it dropped saved.  Weights are
ints, so every sum is exact.

find_few_outside searches for a small center set of the form
"guessed points outside S, completed by centers inside S": it guesses
every small subset Q outside S, discounts what Q already covers, and
runs the dynamic program over S to cover the rest, maximizing covered
weight, summed by model.mask_weight, and checking it against a goal
(fair's ints, never negative; both zero without one).  Used with
radius r2 = 2r for cluster centers S that are pairwise > 4r apart, so
the r2-balls around S never overlap and contributions are additive.

The search never guesses an outside point u whose r2-ball lies inside
the r2-ball of some s in S, and still returns the same first hit.  Say
a guess Q holds such a u and hits with picks P from S.  Then Q - u with
the picks P + s is no larger in total, covers at least as much, and so
meets every demand and has at least the same (nonnegative) weight.  The
dynamic program for Q - u has capacity k - |Q| + 1 >= |P + s|, and the
balls around S are disjoint, so it finds that selection or one at least
as heavy, and Q - u hits.  Smaller guesses come first, so Q - u is
tried before Q, and the first hit holds no such u.  A point whose ball
lies inside another outside point's ball is kept: swapping one for the
other keeps the guess's size, and lex order may put the first hit on
the contained point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .model import CenterSet, Instance, ball_masks, mask_weight


@dataclass(frozen=True)
class DpProgram:
    """Items with integer weights, per-row integer contributions,
    integer demands, and a cardinality cap.
    """

    weights: tuple
    rows: tuple
    demands: tuple
    capacity: int

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "demands", tuple(self.demands))
        # checked, not converted: int() would truncate 3/2 and 1.9 to 1
        numbers = (*self.weights, *itertools.chain(*rows), *self.demands, self.capacity)
        if any(type(v) is not int for v in numbers):
            raise ValueError("weights, contributions, demands and capacity must be ints")
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
    value: int
    picks: tuple  # item indices, ascending


def dp_solve(prog: DpProgram):
    """Best-weight feasible selection, or None if no selection meets
    the demands within the capacity.

    One forward pass over the items, two layers of states alive at a
    time.  A state holds (weight, -mask), item i at bit q - 1 - i: the
    larger pair is heavier or, on equal weight, skips the first item
    where the two differ, so the lexicographically smallest pick set.
    A pick that spends the last budget with some need left reaches a
    dead state, which no pick can leave, and is dropped; every other
    state is carried to the last layer, whose states with no unmet need
    hold the answer.  The pooled bound runs before, in
    find_few_outside, not here.
    """
    q = prog.num_items
    cols = tuple(zip(*prog.rows)) if prog.rows else ((),) * q
    layer = {(prog.demands, prog.capacity): (0, 0)}
    for i, (w, col) in enumerate(zip(prog.weights, cols)):
        bit = 1 << q - 1 - i
        nxt = dict(layer)
        for (need, budget), (weight, neg) in layer.items():
            if not budget:
                continue
            need = tuple(v - c if v > c else 0 for v, c in zip(need, col))
            if budget == 1 and any(need):
                continue
            key, value = (need, budget - 1), (weight + w, neg - bit)
            if nxt.get(key, value) <= value:
                nxt[key] = value
        layer = nxt
    top = max((v for (need, _), v in layer.items() if not any(need)), default=None)
    if top is None:
        return None
    return DpResult(top[0], tuple(i for i in range(q) if -top[1] >> q - 1 - i & 1))


def _beyond_pooled_reach(rows, demands, capacity) -> bool:
    """True when the demands, pooled into one row, exceed what any
    capacity items can add, which proves that no selection meets them.

    An item counts min(c, m) / m towards each row with demand m > 0; a
    selection meeting every demand collects at least 1 per such row, so
    at least their number in total, and no more than its best items
    collect.  Scaled by the lcm of the demands to stay in integers.
    """
    unit = math.lcm(*(m for m in demands if m))
    pooled = [[min(c, m) * (unit // m) for c in row] for row, m in zip(rows, demands) if m]
    if not pooled:
        return False
    scores = sorted(map(sum, zip(*pooled)), reverse=True)
    return sum(scores[:capacity]) < len(pooled) * unit


def find_few_outside(inst: Instance, r2, centers_s, beta: int, extra=None):
    """Search for a feasible center set with at most beta centers
    outside centers_s (and at most inst.k centers in total) at radius
    r2.  Returns the first hit as a CenterSet, or None.

    Guesses Q run over subsets of the complement in (size, lex) order;
    for each Q the dynamic program packs centers from centers_s to
    cover the demands left after discounting Q's coverage.  extra =
    (weights, goal), per-point int weights and a goal (fair's
    weighted_goal), asks as well that the weight covered,
    Q's share included, is at least goal; without it every weight is
    zero and so is the goal.

    Outside points whose r2-ball lies inside an inside center's r2-ball
    are dropped before the guesses: that center, picked by the dynamic
    program for the guess without them, serves at least as well, and
    that smaller guess comes first (the module docstring has the
    argument).  Containment in an outside point's ball drops nothing,
    since that swap keeps the guess's size and lex order decides.
    """
    r2 = Fraction(r2)
    weights, goal = ((), 0) if extra is None else extra
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    heavy = sum(1 << u for u, w in enumerate(weights) if w)  # the only points summed
    s_list = sorted(set(centers_s))
    inside = sum(1 << s for s in s_list)
    # each inside center's 2*r2-ball may hold no other inside center
    reach = ball_masks(inst, 2 * r2)
    for s in s_list:
        if reach[s] & inside != 1 << s:
            raise ValueError("inside-centers too close: r2-balls must be disjoint")
    masks = ball_masks(inst, r2)
    held = [masks[s] for s in s_list]
    outside = [
        u for u in range(inst.n)
        if not inside >> u & 1 and all(masks[u] | m != m for m in held)
    ]
    for size in range(0, min(beta, inst.k, len(outside)) + 1):
        for guess in itertools.combinations(outside, size):
            covered_q = 0
            for g in guess:
                covered_q |= masks[g]
            item_masks = [masks[s] & ~covered_q for s in s_list]
            residual_rows = []
            residual_demands = []
            for members, demand in inst.color_masks:
                left = demand - (members & covered_q).bit_count()
                if left <= 0:
                    continue
                residual_rows.append(
                    tuple((members & m).bit_count() for m in item_masks)
                )
                residual_demands.append(left)
            # the pooled bound, run once per program, before it is built
            if _beyond_pooled_reach(residual_rows, residual_demands, inst.k - size):
                continue
            prog = DpProgram(
                weights=tuple(mask_weight(weights, m & heavy) for m in item_masks),
                rows=tuple(residual_rows),
                demands=tuple(residual_demands),
                capacity=inst.k - size,
            )
            res = dp_solve(prog)
            if res is None:
                continue
            if mask_weight(weights, covered_q & heavy) + res.value >= goal:
                chosen = frozenset(guess) | frozenset(s_list[i] for i in res.picks)
                return CenterSet(chosen, r2)
    return None


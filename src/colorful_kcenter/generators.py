"""Instance generators: seeded random instances, hardness reductions
from vertex cover and set cover onto line metrics, and the adversarial
fixture on which single-shot rounding overshoots the budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .model import FairInstance, Instance, _is_int


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1 with an edge list."""

    n: int
    edges: tuple

    def __post_init__(self):
        edges = []
        seen = set()
        for e in self.edges:
            u, v = e[0], e[1]
            if not (_is_int(u) and _is_int(v)):
                raise ValueError(f"edge {e} has an endpoint that is not an int")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
        object.__setattr__(self, "edges", tuple(sorted(edges)))


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe 0..universe-1 and a family of subsets."""

    universe: int
    sets: tuple

    def __post_init__(self):
        sets = tuple(map(frozenset, self.sets))
        object.__setattr__(self, "sets", sets)
        for s in sets:
            if not all(map(_is_int, s)):
                raise ValueError("set elements must be ints")
            if any(not (0 <= v < self.universe) for v in s):
                raise ValueError("set element out of range")


def _line_instance(coords, k, colors):
    dist = tuple(tuple(abs(a - b) for b in coords) for a in coords)
    return Instance(dist=dist, k=k, colors=tuple(colors))


def gen_from_vc3(g: Graph, t: int) -> Instance:
    """Vertex cover as set cover on the incidence family, where set v
    holds the edges at v: a radius-0 solution is exactly a vertex cover
    of size at most t.  t = 0 is only meaningful for edgeless graphs.
    """
    if g.n < 1:
        raise ValueError("graph needs at least one vertex")
    if t == 0 and g.edges:
        raise ValueError("t=0 with edges present has no center-budget analogue")
    incidence = [[] for _ in range(g.n)]
    for i, edge in enumerate(g.edges):
        for v in edge:
            incidence[v].append(i)
    return gen_from_setcover(SetCoverInstance(len(g.edges), tuple(incidence)), t)


def gen_from_setcover(sc: SetCoverInstance, t: int) -> Instance:
    """One point per set on a line one apart; each universe element
    becomes a color class (demand 1) whose members are the sets
    containing it.  A radius-0 solution is a cover by at most t sets.

    An empty universe gets a dummy zero-demand color, which keeps the
    instance well formed.  Budgets above m are clamped to m, which
    changes nothing since no cover needs more than m sets.
    """
    m = len(sc.sets)
    if m < 1:
        raise ValueError("need at least one set")
    if t < 0:
        raise ValueError("cover budget must be nonnegative")
    if t == 0 and sc.universe > 0:
        raise ValueError("t=0 with a nonempty universe has no analogue")
    members = {}
    for i, s in enumerate(sc.sets):
        for e in s:
            members.setdefault(e, []).append(i)
    # stops at the first uncovered element, so a huge universe costs no more
    # than the sets given
    for e in range(sc.universe):
        if e not in members:
            raise ValueError(f"element {e} is in no set; never coverable")
    colors = [(tuple(members[e]), 1) for e in range(sc.universe)] or [((), 0)]
    return _line_instance(list(range(m)), max(1, min(t, m)), colors)


@dataclass(frozen=True)
class AdversarialFixture:
    """Two-cluster line instance whose relaxation midpoint defeats
    single-shot rounding.

    Twelve points in two groups of six separated by a wide gap.  Left
    group: lone red points at coordinates 1 and 2, blue at 3, one blue
    and two red stacked at 4.  Right group mirrors it with colors
    swapped: three blue stacked at M+1, red at M+2, blue at M+3, red at
    M+4.  With k = 2 and demand 3 of each color, radius 1 is optimal;
    two natural solutions are centers {1, M+1} (two lone reds plus the
    blue stack and M+2) and centers {4, M+4} (the mixed stack with
    coordinate 3, plus M+3 and M+4).  The stored fractional point
    averages those two, leaving every x at 1/2, and admits clusterings
    whose covering LP cannot be rounded within the budget.
    """

    instance: Instance
    x: tuple
    y: tuple
    solution_a: frozenset
    solution_b: frozenset
    optimal_radius: Fraction


def fixture_adversarial(m: int = 100) -> AdversarialFixture:
    """Build the fixture with gap parameter m (coordinates above use
    M = m; any m >= 9 keeps the groups independent).
    """
    if m < 9:
        raise ValueError("gap parameter must be at least 9")
    coords = [1, 2, 3, 4, 4, 4, m + 1, m + 1, m + 1, m + 2, m + 3, m + 4]
    red = (0, 1, 4, 5, 9, 11)
    blue = (2, 3, 6, 7, 8, 10)
    inst = _line_instance(coords, 2, [(red, 3), (blue, 3)])
    sol_a = frozenset({0, 6})   # coordinates 1 and m+1
    sol_b = frozenset({3, 11})  # coordinates 4 and m+4
    half = Fraction(1, 2)
    x = tuple(half for _ in range(12))
    y = tuple(half if u in (0, 3, 6, 11) else Fraction(0) for u in range(12))
    return AdversarialFixture(
        instance=inst,
        x=x,
        y=y,
        solution_a=sol_a,
        solution_b=sol_b,
        optimal_radius=Fraction(1),
    )


def gen_clumps(k: int, gamma: int, spread: int = 10) -> Instance:
    """Line instance of k + 1 separated pairs that forces the cutting
    plane: the relaxation is feasible at the pair radius 1, but any k
    centers miss one pair, so no small-radius solution exists and the
    fixed-radius solver must reject via a cut.

    Pairs sit at distance 1 with consecutive bases spread apart.  The
    first k - gamma + 2 pairs carry color 0 with demand one short of
    their total; each remaining pair carries one of the other colors
    with demand 1.  Requires 2 <= gamma <= k.
    """
    if not 2 <= gamma <= k:
        raise ValueError("need 2 <= gamma <= k")
    if spread < 6:
        raise ValueError("spread below 6 lets pair balls interact")
    nmaj = k - gamma + 2
    coords = []
    members = [[] for _ in range(gamma)]
    for j in range(nmaj + gamma - 1):
        base = j * spread
        color = 0 if j < nmaj else j - nmaj + 1
        members[color] += [len(coords), len(coords) + 1]
        coords += [base, base + 1]
    colors = [(tuple(members[0]), 2 * nmaj - 1)]
    colors += [(tuple(members[c]), 1) for c in range(1, gamma)]
    return _line_instance(coords, k, colors)


def gen_random(
    seed: int,
    n: int,
    k: int,
    gamma: int,
    metric: str = "line",
    demand_density: Fraction = Fraction(1, 2),
    p_density=None,
):
    """Seeded random instance on a line or an L1 grid.

    Color classes are independent coin-flip subsets; demands are drawn
    up to demand_density times the class size.  With p_density a
    FairInstance is produced whose targets are small-denominator
    rationals, zeroed out with probability 1 - p_density.
    """
    if n < 1 or not 1 <= k <= n or gamma < 1:
        raise ValueError("need n >= 1, 1 <= k <= n, gamma >= 1")
    demand_density = Fraction(demand_density)
    if p_density is not None:
        p_density = Fraction(p_density)
    for name, density in (("demand", demand_density), ("p", p_density)):
        if density is not None and not 0 <= density <= 1:
            raise ValueError(f"{name} density {density} outside [0, 1]")
    rng = random.Random(seed)
    if metric == "line":
        pts = [(rng.randint(0, 3 * n), 0) for _ in range(n)]  # on the x axis
    elif metric == "grid-l1":
        side = max(2, int(round(n ** 0.5)) + 1)
        pts = [(rng.randint(0, side), rng.randint(0, side)) for _ in range(n)]
    else:
        raise ValueError(f"unknown metric {metric!r}")
    dist = tuple(tuple(abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts) for a in pts)
    colors = []
    for _ in range(gamma):
        members = tuple(u for u in range(n) if rng.random() < 0.5)
        cap = int(len(members) * demand_density)
        demand = rng.randint(0, cap) if cap > 0 else 0
        colors.append((members, demand))
    inst = Instance(dist=dist, k=k, colors=tuple(colors))
    if p_density is None:
        return inst
    p = []
    for _ in range(n):
        if rng.random() < p_density:
            den = rng.randint(2, 4)
            p.append(Fraction(rng.randint(0, den), den))
        else:
            p.append(Fraction(0))
    return FairInstance(base=inst, p=tuple(p))

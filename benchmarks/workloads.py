"""The benchmark's workloads: seeded instance sets that each load a
different layer of the solver.

Instance i of a workload has a fixed structure, made by the package's
generators from the workload name and i alone; the run seed renames its
points (and, for `cuts`, picks the spread between clumps).  The solver's
exact simplex pivots by Bland's rule on variable indices, so renaming
points changes its path and the output bytes, but not the optimum.  Each
run therefore solves the same mix of easy and hard instances, and the
spread between runs with different seeds is the spread of the solver,
not of the mix: with independent random instances per seed, the mix
alone moved the median solve time by about 10% and the tail by 15-20%
between seeds at these run sizes.

The solver only ever sees the instance files written from these objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand that solves the instances
    per_second: float  # distinct instances per second of the run's --seconds
    why: str

    def instances(self, seconds: float) -> int:
        """How many distinct instances a run of `seconds` solves."""
        return max(12, round(self.per_second * seconds))


# `per_second` is sized so that two passes over the instances take about
# --seconds on a 2-core x86 VM at the seed code; for `cuts`, so that a
# 16 s run covers every clumps shape four times.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "colorful",
            "solve",
            4.0,
            "random line instances, gamma < k, full demand density: few large "
            "relaxation LPs, so the exact simplex dominates",
        ),
        Workload(
            "fair",
            "solve-fair",
            3.75,
            "coverage-probability instances: many small restricted-dual and "
            "separation LPs, with the packing DP answering most separations",
        ),
        Workload(
            "cuts",
            "solve",
            3.75,
            "relabelled clumps instances: the only family on which the cut "
            "branch fires, after the packing-DP guess search runs dry",
        ),
        Workload(
            "enum",
            "solve",
            3.75,
            "random instances with gamma >= k: exact enumeration and no LP, so "
            "coverage checks in the model layer dominate",
        ),
    )
}

# Every (k, gamma) of the clumps family in turn.  Shapes with k = 9 take
# up to a second each, which would leave too few instances in a run.
CUTS_SHAPES = tuple((k, gamma) for k in range(6, 9) for gamma in range(2, k))


def relabel(inst, rng):
    """The same instance with its points renamed by a random permutation."""
    from colorful_kcenter.model import FairInstance, Instance

    base = inst.base if isinstance(inst, FairInstance) else inst
    perm = list(range(base.n))
    rng.shuffle(perm)
    old = [0] * base.n
    for u, new in enumerate(perm):
        old[new] = u
    renamed = Instance(
        dist=tuple(tuple(base.dist[old[a]][old[b]] for b in range(base.n)) for a in range(base.n)),
        k=base.k,
        colors=tuple((sorted(perm[u] for u in c.members), c.demand) for c in base.colors),
    )
    if isinstance(inst, FairInstance):
        return FairInstance(base=renamed, p=tuple(inst.p[old[a]] for a in range(base.n)))
    return renamed


def make_instance(name: str, seed: int, i: int):
    """Instance i of workload `name` under run seed `seed`."""
    # imported here so that each timed set-up uses the package it just imported
    from colorful_kcenter import generators

    shape = random.Random(f"{name}/{i}").getrandbits(32)
    labels = random.Random(f"{name}/{seed}/{i}")
    if name == "colorful":
        inst = generators.gen_random(shape, 16, 4, 3, demand_density=Fraction(1))
    elif name == "fair":
        inst = generators.gen_random(
            shape, 12, 4, 2, demand_density=Fraction(1), p_density=Fraction(2, 3)
        )
    elif name == "cuts":
        k, gamma = CUTS_SHAPES[i % len(CUTS_SHAPES)]
        inst = generators.gen_clumps(k, gamma, spread=labels.randint(6, 12))
    elif name == "enum":
        inst = generators.gen_random(shape, 14, 4, 4, demand_density=Fraction(1))
    else:
        raise KeyError(name)
    return relabel(inst, labels)

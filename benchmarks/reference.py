"""Exact optimum radii for checking the solver's output, by brute force.

The package's own oracle walks every center set with exact rationals,
which costs an order of magnitude more than the solve it checks.  These
references enumerate the same center sets, vectorised over integer
distances (every rational distance scaled by the common denominator, so
nothing is rounded), and are cached on disk by instance digest.  The
self-tests compare them with `colorful_kcenter.oracle` on small instances.

Only sets of exactly k centers are enumerated: adding a center never
uncovers a point, so some optimal solution uses all k.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from fractions import Fraction

import numpy as np

_CHUNK = 8192


def _scaled(inst):
    """Distance matrix as int64 times a common denominator."""
    den = math.lcm(*(v.denominator for row in inst.dist for v in row))
    top = max(v for row in inst.dist for v in row) * den
    if top >= 2**62:
        raise OverflowError("scaled distances do not fit in int64")
    dist = np.array([[int(v * den) for v in row] for row in inst.dist], dtype=np.int64)
    return dist, den


def _nearest(dist, n, k):
    """Yield, per chunk of k-subsets, each point's distance to its nearest
    center, as an array of shape (subsets, n), with the subsets themselves."""
    combos = itertools.combinations(range(n), k)
    while True:
        chunk = np.array(list(itertools.islice(combos, _CHUNK)), dtype=np.intp)
        if not len(chunk):
            return
        yield chunk, dist[chunk].min(axis=1)


def _service_radius(near, colors):
    """Smallest radius at which each subset meets every color demand."""
    worst = np.zeros(len(near), dtype=np.int64)
    for members, demand in colors:
        cols = near[:, members]
        worst = np.maximum(worst, np.partition(cols, demand - 1, axis=1)[:, demand - 1])
    return worst


def _demanded(inst):
    return [
        (np.array(sorted(c.members), dtype=np.intp), c.demand)
        for c in inst.colors
        if c.demand > 0
    ]


def colorful_optimum(inst) -> Fraction:
    """Minimum over center sets of size k of the radius meeting all demands."""
    dist, den = _scaled(inst)
    colors = _demanded(inst)
    if not colors:
        return Fraction(0)
    best = min(
        int(_service_radius(near, colors).min())
        for _, near in _nearest(dist, inst.n, inst.k)
    )
    return Fraction(best, den)


def _lottery_exists(finst, sets, radius) -> bool:
    """Exact LP: some distribution over `sets` covers every point u within
    `radius` with probability at least p(u)."""
    from colorful_kcenter import lp

    base = finst.base
    program = lp.LinearProgram(len(sets), tuple(Fraction(0) for _ in sets))
    program.add(tuple(Fraction(1) for _ in sets), lp.EQ, 1)
    for u in range(base.n):
        if finst.p[u] > 0:
            row = tuple(
                Fraction(int(any(base.dist[u][c] <= radius for c in s))) for s in sets
            )
            program.add(row, lp.GE, finst.p[u])
    return lp.solve(program).status == "optimal"


def fair_optimum(finst) -> Fraction:
    """Smallest candidate radius at which a distribution over center sets
    that each meet the color demands covers every point u with probability
    at least p(u).

    Feasibility only grows with the radius, so the radius is found by
    binary search.  At each probe only the sets whose coverage of the
    targeted points is maximal go into the exact LP: a set covering a
    subset of another's points can hand its weight to that set.
    """
    inst = finst.base
    dist, den = _scaled(inst)
    colors = _demanded(inst)
    targeted = np.array([u for u in range(inst.n) if finst.p[u] > 0], dtype=np.intp)
    subsets, service, reach = [], [], []
    for chunk, near in _nearest(dist, inst.n, inst.k):
        subsets.append(chunk)
        service.append(_service_radius(near, colors) if colors else np.zeros(len(near), np.int64))
        reach.append(near[:, targeted])
    subsets = np.concatenate(subsets)
    service = np.concatenate(service)
    reach = np.concatenate(reach)
    if not len(targeted):
        return Fraction(int(service.min()), den)
    radii = np.unique(dist)
    radii = radii[radii >= service.min()]

    def feasible(r) -> bool:
        ok = service <= r
        cover, first = np.unique(reach[ok] <= r, axis=0, return_index=True)
        below = (cover[:, None, :] <= cover[None, :, :]).all(axis=2)
        dominated = (below & ~np.eye(len(cover), dtype=bool)).any(axis=1)
        candidates = subsets[ok]
        sets = [candidates[j].tolist() for j in first[~dominated]]
        return _lottery_exists(finst, sets, Fraction(int(r), den))

    lo, hi = 0, len(radii) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(radii[mid]):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(int(radii[lo]), den)


class ReferenceCache:
    """Optimum radii keyed by the sha256 of the canonical instance JSON.

    The cache lives in one JSON file; `new` counts the references computed
    in this process and `seconds` the time they took.
    """

    def __init__(self, path):
        self.path = path
        self.new = 0
        self.hits = 0
        self.seconds = 0.0
        try:
            with open(path, "r", encoding="utf-8") as fh:
                self.table = json.load(fh)
        except FileNotFoundError:
            self.table = {}

    def optimum(self, digest: str, inst) -> Fraction:
        if digest in self.table:
            self.hits += 1
            return Fraction(self.table[digest])
        start = time.perf_counter()
        if hasattr(inst, "base"):
            opt = fair_optimum(inst)
        else:
            opt = colorful_optimum(inst)
        self.seconds += time.perf_counter() - start
        self.new += 1
        self.table[digest] = f"{opt.numerator}/{opt.denominator}"
        return opt

    def save(self):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.table, fh, sort_keys=True)
        os.replace(tmp, self.path)

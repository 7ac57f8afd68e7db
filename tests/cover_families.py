"""Seeded random inputs for the cover reductions: connected graphs
for gen_from_vc3 and coverable families for gen_from_setcover.
"""

import random

from colorful_kcenter.generators import Graph, SetCoverInstance


def gen_random_graph(seed: int, n: int, max_degree: int = 3) -> Graph:
    """Connected random graph (a degree-capped random tree plus a few
    extra edges) for exercising the vertex cover reduction.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    edges = []
    deg = [0] * n
    for v in range(1, n):
        options = [u for u in range(v) if deg[u] < max_degree]
        if not options:
            options = [v - 1]
        u = rng.choice(options)
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    extra = rng.randint(0, n)
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and deg[u] < max_degree and deg[v] < max_degree:
            key = (min(u, v), max(u, v))
            if key not in edges:
                edges.append(key)
                deg[u] += 1
                deg[v] += 1
    return Graph(n=n, edges=tuple(edges))


def gen_random_setcover(seed: int, universe: int, num_sets: int) -> SetCoverInstance:
    """Random covering family; every element is restocked into some set
    so full coverage always exists.
    """
    if universe < 0 or num_sets < 1:
        raise ValueError("need a nonnegative universe and at least one set")
    rng = random.Random(seed)
    sets = [set() for _ in range(num_sets)]
    for e in range(universe):
        hits = [i for i in range(num_sets) if rng.random() < 0.4]
        if not hits:
            hits = [rng.randrange(num_sets)]
        for i in hits:
            sets[i].add(e)
    return SetCoverInstance(universe=universe, sets=tuple(frozenset(s) for s in sets))

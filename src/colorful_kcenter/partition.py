"""Greedy clustering of a fractional relaxation point.

Centers are picked by descending opening-mass x, each grabbing every
unassigned point within four radii.  The resulting clusters are pairwise
far apart (centers > 4r), so radius-r balls, and even radius-2r balls,
around distinct centers never overlap; and because the center maximizes
x within its cluster, the y-mass inside its radius-r ball dominates the
x of every point it absorbed.

A point is ints over one denominator, as an LP optimum hands it over,
so clustering and its checks compare ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import Instance, ball_masks, mask_points, mask_weight, weighted_coverage


@dataclass(frozen=True)
class FractionalPoint:
    """Coverage values x[u] / den and opening values y[u] / den."""

    x: tuple
    y: tuple
    den: int = 1

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")


@dataclass(frozen=True)
class GoodPartition:
    """Cluster centers in pick order and the clusters they absorbed.

    clusters[i] is the set of points assigned to centers[i]; together
    the clusters partition all points.
    """

    centers: tuple
    clusters: tuple

    @property
    def size(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class PartitionViolation:
    """First failed clustering property.

    prop is "partition" (clusters must tile all points and contain
    their center), "separation" (centers pairwise > 4r), "radius"
    (cluster inside the 4r ball of its center), or "mass" (y-mass of
    the center's r-ball must dominate x of every cluster member).
    """

    prop: str
    witness: tuple


def good_partition(inst: Instance, r, pt: FractionalPoint) -> GoodPartition:
    """Cluster all points greedily by descending x.

    Repeatedly takes the unassigned point with maximum x (ties: lowest
    index) as a center and assigns it everything unassigned within 4r.
    The points are ranked once, by a stable sort on x, and the centers
    are the points still unassigned when their rank comes up.
    """
    if len(pt.x) != inst.n:
        raise ValueError("point size != instance size")
    n = inst.n
    masks = ball_masks(inst, 4 * Fraction(r))
    unassigned = (1 << n) - 1
    centers = []
    clusters = []
    for s in sorted(range(n), key=pt.x.__getitem__, reverse=True):
        if unassigned >> s & 1:
            cluster = masks[s] & unassigned
            centers.append(s)
            clusters.append(mask_points(cluster))
            unassigned &= ~cluster
    return GoodPartition(tuple(centers), tuple(clusters))


def verify_partition(inst: Instance, r, pt: FractionalPoint, part: GoodPartition):
    """Check all clustering properties exactly.

    Returns None if everything holds, else the first violation in the
    order partition, separation, radius, mass.
    """
    r = Fraction(r)
    four_r = 4 * r
    seen = set()
    for s, cluster in zip(part.centers, part.clusters):
        if s not in cluster:
            return PartitionViolation("partition", (s,))
        if cluster & seen:
            return PartitionViolation("partition", tuple(sorted(cluster & seen)))
        seen |= cluster
    if seen != set(range(inst.n)):
        missing = sorted(set(range(inst.n)) - seen)
        return PartitionViolation("partition", tuple(missing))
    # the instance's cached 4r balls: rows <= floor(4r * scale) as ints
    far = ball_masks(inst, four_r)
    for i, s in enumerate(part.centers):
        for t in part.centers[i + 1 :]:
            if far[s] >> t & 1:
                return PartitionViolation("separation", (s, t))
    for s, cluster in zip(part.centers, part.clusters):
        outside = [u for u in cluster if not far[s] >> u & 1]
        if outside:
            return PartitionViolation("radius", (s, min(outside)))
    near = ball_masks(inst, r)
    for s, cluster in zip(part.centers, part.clusters):
        mass = mask_weight(pt.y, near[s])
        for u in sorted(cluster):
            if mass < pt.x[u]:
                return PartitionViolation("mass", (s, u))
    return None


def opening_mass(inst: Instance, r, pt: FractionalPoint, centers) -> Fraction:
    """Total y-mass inside the union of radius-r balls around centers."""
    return Fraction(weighted_coverage(inst, pt.y, centers, r), pt.den)

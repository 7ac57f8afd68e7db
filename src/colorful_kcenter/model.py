"""Instance model: finite metrics over exact rationals, color classes,
balls, candidate radii, and coverage checks.

Every number that touches a distance, radius, or probability is a
`fractions.Fraction`.  Points are identified by their 0-based index into
the distance matrix, both in memory and in files.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction


class InstanceFormatError(ValueError):
    """An instance file or dict violates the schema or its invariants."""


class InstanceSchemaError(InstanceFormatError):
    """An instance document is not JSON of the documented shape and
    types, as opposed to a well-formed document whose values break an
    instance invariant."""


def rational_from(value) -> Fraction:
    """Parse an int, "p/q" string, or Fraction into an exact rational.

    Floats are rejected: they have no place in exact instance data.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise InstanceFormatError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"bad rational string: {value!r}") from exc
    raise InstanceFormatError(f"not an exact rational: {value!r}")


def rational_str(x: Fraction) -> str:
    """Canonical "numerator/denominator" form, e.g. 3/4, 5/1, -2/3."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class ColorClass:
    """A subset of point indices together with its coverage demand."""

    members: frozenset
    demand: int


@dataclass(frozen=True)
class MetricViolation:
    """First reason a matrix fails to be a finite metric.

    kind is one of "shape", "diagonal", "negative", "asymmetric",
    "triangle"; indices names the offending entry or triple.
    """

    kind: str
    indices: tuple


def validate_metric(dist):
    """Check symmetry, zero diagonal, nonnegativity and the triangle
    inequality exactly.  Returns None if the matrix is a metric,
    otherwise the first violation in deterministic scan order.

    Zero distance between distinct points is allowed; the points stay
    distinct as indices.
    """
    n = len(dist)
    for i in range(n):
        if len(dist[i]) != n:
            return MetricViolation("shape", (i,))
    for i in range(n):
        if dist[i][i] != 0:
            return MetricViolation("diagonal", (i,))
        for j in range(n):
            if dist[i][j] < 0:
                return MetricViolation("negative", (i, j))
            if dist[i][j] != dist[j][i]:
                return MetricViolation("asymmetric", (i, j))
    for i in range(n):
        di = dist[i]
        for j in range(n):
            if j == i:
                continue
            dj = dist[j]
            dij = di[j]
            for l in range(n):
                # d(i,l) <= d(i,j) + d(j,l) must hold for every triple
                if di[l] > dij + dj[l]:
                    return MetricViolation("triangle", (i, j, l))
    return None


@dataclass(frozen=True)
class Instance:
    """Colorful k-center instance: metric, center budget, color demands."""

    dist: tuple
    k: int
    colors: tuple

    def __post_init__(self):
        dist = tuple(tuple(rational_from(v) for v in row) for row in self.dist)
        object.__setattr__(self, "dist", dist)
        colors = tuple(
            ColorClass(frozenset(c.members), int(c.demand)) if isinstance(c, ColorClass)
            else ColorClass(frozenset(c[0]), int(c[1]))
            for c in self.colors
        )
        object.__setattr__(self, "colors", colors)
        n = len(dist)
        if n < 1:
            raise InstanceFormatError("instance needs at least one point")
        for row in dist:
            if len(row) != n:
                raise InstanceFormatError("distance matrix is not square")
        if not 1 <= self.k <= n:
            raise InstanceFormatError(f"center budget k={self.k} outside 1..{n}")
        if not colors:
            raise InstanceFormatError("need at least one color class")
        for idx, c in enumerate(colors):
            if any(not (0 <= u < n) for u in c.members):
                raise InstanceFormatError(f"color {idx} has out-of-range members")
            if not 0 <= c.demand <= len(c.members):
                raise InstanceFormatError(
                    f"color {idx} demand {c.demand} exceeds class size {len(c.members)}"
                )

    @property
    def n(self) -> int:
        return len(self.dist)

    @property
    def num_colors(self) -> int:
        return len(self.colors)


@dataclass(frozen=True)
class FairInstance:
    """Colorful k-center plus per-point coverage probability targets."""

    base: Instance
    p: tuple

    def __post_init__(self):
        p = tuple(rational_from(v) for v in self.p)
        object.__setattr__(self, "p", p)
        if len(p) != self.base.n:
            raise InstanceFormatError("probability vector length != n")
        for u, pu in enumerate(p):
            if not 0 <= pu <= 1:
                raise InstanceFormatError(f"p[{u}]={pu} outside [0,1]")

    @property
    def n(self) -> int:
        return self.base.n


@dataclass(frozen=True)
class CenterSet:
    """A set of opened centers with the radius they are claimed to serve."""

    centers: frozenset
    radius: Fraction


@dataclass(frozen=True)
class CoverageReport:
    """Per-color coverage counts for a center set at a radius.

    feasible is true iff the budget holds and every demand is met;
    counts are reported either way.
    """

    feasible: bool
    budget_ok: bool
    counts: tuple


def ball(inst: Instance, c: int, r) -> frozenset:
    """All points within distance r of point c (closed ball)."""
    row = inst.dist[c]
    return frozenset(u for u in range(inst.n) if row[u] <= r)


def union_ball(inst: Instance, centers, r) -> frozenset:
    """Union of closed balls of radius r around each center."""
    covered = set()
    for c in centers:
        row = inst.dist[c]
        covered.update(u for u in range(inst.n) if row[u] <= r)
    return frozenset(covered)


def candidate_radii(inst: Instance):
    """Sorted distinct pairwise distances, always including 0.

    The optimal radius of any instance is one of these values, since
    feasibility only changes when a ball gains or loses a point.
    """
    vals = {Fraction(0)}
    for i in range(inst.n):
        row = inst.dist[i]
        for j in range(i + 1, inst.n):
            vals.add(row[j])
    return sorted(vals)


def weighted_coverage(inst: Instance, weights, centers, r) -> Fraction:
    """Total weight of the points within distance r of centers."""
    return sum((weights[u] for u in union_ball(inst, centers, r)), Fraction(0))


def check_feasible(inst: Instance, centers, r) -> CoverageReport:
    """Count how many members of each color class lie within distance r
    of the center set, and compare against demands and the budget k.
    """
    covered = union_ball(inst, centers, r)
    counts = tuple(len(c.members & covered) for c in inst.colors)
    budget_ok = len(set(centers)) <= inst.k
    met = all(cnt >= c.demand for cnt, c in zip(counts, inst.colors))
    return CoverageReport(feasible=budget_ok and met, budget_ok=budget_ok, counts=counts)


def subset_count(n: int, k: int) -> int:
    """Number of center sets of size at most k over n points."""
    return sum(math.comb(n, j) for j in range(k + 1))


def feasible_sets(inst: Instance, r):
    """Every center set meeting the budget and all demands at radius r,
    in (size, lex) order.  Exhaustive; meant for enumeration scale."""
    for size in range(inst.k + 1):
        for combo in itertools.combinations(range(inst.n), size):
            if check_feasible(inst, combo, r).feasible:
                yield frozenset(combo)


# ---------------------------------------------------------------------------
# serialization
#
# {
#   "n": 4,
#   "k": 2,
#   "dist": [["0/1", "1/1", ...], ...],
#   "colors": [{"members": [0, 1], "demand": 1}, ...],
#   "p": ["1/2", ...]          # only for fair instances
# }


def instance_to_dict(inst) -> dict:
    if isinstance(inst, FairInstance):
        d = instance_to_dict(inst.base)
        d["p"] = [rational_str(v) for v in inst.p]
        return d
    return {
        "n": inst.n,
        "k": inst.k,
        "dist": [[rational_str(v) for v in row] for row in inst.dist],
        "colors": [
            {"members": sorted(c.members), "demand": c.demand} for c in inst.colors
        ],
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _rationals(values, what: str, length: int) -> tuple:
    if not isinstance(values, list) or len(values) != length:
        raise InstanceSchemaError(f"{what} must be a list of {length} rationals")
    try:
        return tuple(rational_from(v) for v in values)
    except InstanceFormatError as exc:
        raise InstanceSchemaError(f"{what}: {exc}") from exc


def instance_from_dict(d: dict):
    """Instance (or FairInstance when "p" is present) from a parsed
    document.  Wrong JSON types and shapes raise InstanceSchemaError;
    values that break an instance invariant raise InstanceFormatError.
    """
    if not isinstance(d, dict):
        raise InstanceSchemaError("instance document must be a JSON object")
    for key in ("n", "k", "dist", "colors"):
        if key not in d:
            raise InstanceSchemaError(f"missing field {key!r}")
    n = d["n"]
    if not (_is_int(n) and _is_int(d["k"]) and isinstance(d["colors"], list)):
        raise InstanceSchemaError("n and k must be integers and colors a list")
    if not isinstance(d["dist"], list) or len(d["dist"]) != n:
        raise InstanceSchemaError("field dist must be a list of n rows")
    dist = tuple(_rationals(row, "each dist row", n) for row in d["dist"])
    colors = []
    for c in d["colors"]:
        if not (
            isinstance(c, dict)
            and isinstance(c.get("members"), list)
            and all(map(_is_int, c["members"]))
            and _is_int(c.get("demand"))
        ):
            raise InstanceSchemaError(
                "color entries need a members list of point indices and an "
                "integer demand"
            )
        colors.append((c["members"], c["demand"]))
    inst = Instance(dist=dist, k=d["k"], colors=tuple(colors))
    bad = validate_metric(inst.dist)
    if bad is not None:
        raise InstanceFormatError(f"distance matrix is not a metric: {bad}")
    if "p" in d:
        return FairInstance(base=inst, p=_rationals(d["p"], "field p", n))
    return inst


def dumps_instance(inst) -> str:
    """Canonical JSON text; byte-stable for equal instances."""
    return json.dumps(instance_to_dict(inst), indent=2) + "\n"


def loads_instance(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceSchemaError(f"invalid JSON: {exc}") from exc
    return instance_from_dict(doc)


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())


def save_instance(inst, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))

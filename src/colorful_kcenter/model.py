"""Instance model: finite metrics over exact rationals, color classes,
balls, candidate radii, and coverage checks.

Every distance, radius and probability is an exact rational, and files
hold "p/q", integer or decimal strings (see rational_from).  Numbers
enter an instance only through its constructors, which parse each
distinct entry once; instance_from_dict checks only JSON shapes.  An
instance is its int rows: every distance times `scale`, the lcm of their
denominators, so "dist[c][u] <= r" is an int comparison with
floor(r * scale).  `dist` is a read-only view for I/O and the oracle:
the rows themselves when scale is 1, `Fraction`s otherwise.  An
instance builds each table derived from it once and shares it
read-only: its color masks when it is constructed, and per radius level
the balls of every point as a tuple of bitmasks and counting_bound's
answer, a color whose demand the relaxation cannot meet, shown by
counting (see CountingBound).  Points are identified by their 0-based
index, in memory and in files.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction


class InstanceFormatError(ValueError):
    """An instance file or dict violates the schema or its invariants."""


class InstanceSchemaError(InstanceFormatError):
    """An instance document is not JSON of the documented shape and
    types, or its int rows would exceed MAX_ROW_BITS, as opposed to a
    well-formed document whose values break an instance invariant."""


# most bits the int rows of a loaded instance may take: n * n entries,
# each scaled to the lcm of the distances' denominators, which pairwise
# coprime denominators make about as long as the file (2-core x86 VM: just
# under the limit, n = 94 with a distinct prime denominator per pair
# solves in 3.3-4.1 s and 85 MB; at 2**30, n = 111 took 8.2 s and 155 MB)
MAX_ROW_BITS = 2**29


# The number grammar of instance and solution files: optional
# surrounding ASCII whitespace, an optional sign, ASCII digits, then
# optionally "/" and digits of nonzero value, or "." and digits.
# Fraction() also takes underscores, non-ASCII digits and inner spaces,
# and which of them depends on the Python version.
_RATIONAL = re.compile(r"[ \t\n\r\v\f]*([+-]?[0-9]+)(?:/([0-9]+)|\.([0-9]+))?[ \t\n\r\v\f]*")


def rational_from(value) -> Fraction:
    """Parse an int, a "p/q", integer or decimal string (see _RATIONAL),
    or a Fraction into an exact rational.

    Floats are rejected: they have no place in exact instance data.  So
    is exponent notation, whose value can take memory exponential in the
    length of the string ("1e999999999" is a 3-billion-bit integer).
    """
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _ratio(value) -> tuple:
    """rational_from(value) as (numerator, denominator) ints in lowest
    terms, with no Fraction built."""
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        try:
            if match is not None:
                num, den, decimals = match.groups()
                if decimals is not None:
                    num, den = num + decimals, 10 ** len(decimals)
                num, den = int(num), int(den or 1)
                if den:
                    g = math.gcd(num, den)
                    return num // g, den // g
        except ValueError:  # more digits than int() converts
            pass
        raise InstanceFormatError(f"bad rational string: {value!r}")
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if _is_int(value):
        return value, 1
    raise InstanceFormatError(f"not an exact rational: {value!r}")


class NumberTooLongError(ValueError):
    """A rational has more digits than Python writes out in decimal."""


def rational_str(x: Fraction) -> str:
    """Canonical "numerator/denominator" form, e.g. 3/4, 5/1, -2/3."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # more digits than int -> str converts
        limit = sys.get_int_max_str_digits()
        raise NumberTooLongError(f"a number of over {limit} digits is too long to write") from exc


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


def _scaled_rows(dist):
    """(scale, rows): the lcm of all denominators, and every entry times
    it as an int, each row a tuple.  An all-int matrix is its own rows;
    otherwise each distinct entry is parsed and scaled once, and a bad
    entry or an lcm over MAX_ROW_BITS raises InstanceSchemaError first."""
    rows = tuple(map(tuple, dist))
    entries = itertools.chain.from_iterable
    types = set(map(type, entries(rows)))
    if types <= {int}:
        return 1, rows
    try:
        if not types <= {str, int, Fraction}:  # True == 1.0 == 1, and lists are unhashable
            list(map(_ratio, entries(rows)))  # so name the first bad entry in order
        values = {v: _ratio(v) for v in dict.fromkeys(entries(rows))}
    except InstanceFormatError as exc:
        raise InstanceSchemaError(f"each dist row: {exc}") from exc
    scale = 1
    for _, den in values.values():
        scale = math.lcm(scale, den)
        if len(rows) ** 2 * scale.bit_length() > MAX_ROW_BITS:
            raise InstanceSchemaError(f"field dist: {len(rows)} x {len(rows)} distances over a "
                                      f"common denominator of {scale.bit_length()}+ bits "
                                      f"exceed the limit of {MAX_ROW_BITS} row bits")
    scaled = {v: num * (scale // den) for v, (num, den) in values.items()}
    return scale, tuple(tuple(map(scaled.__getitem__, row)) for row in rows)


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
    return _metric_violation(_scaled_rows(dist)[1])


def _metric_violation(rows):
    """validate_metric on a square matrix scaled to ints by one positive
    factor, which keeps every sign, equality and triangle inequality."""
    n = len(rows)
    # diagonal, sign and symmetry at once; the ordered scan runs only to
    # name the first failure
    if (
        any(rows[i][i] for i in range(n))
        or min(map(min, rows), default=0) < 0
        or rows != tuple(zip(*rows))
    ):
        for i in range(n):
            if rows[i][i] != 0:
                return MetricViolation("diagonal", (i,))
            for j in range(n):
                if rows[i][j] < 0:
                    return MetricViolation("negative", (i, j))
                if rows[i][j] != rows[j][i]:
                    return MetricViolation("asymmetric", (i, j))
    # d(i,l) <= d(i,j) + d(j,l) for every l iff max_l d(i,l) - d(j,l) is
    # at most d(i,j), so pair (i, j) holds both ways iff max_l |.| is too.
    # Row i is packed into one int P_i, a field of w = 8, 16, 32 or 64 bits
    # per point holding e' = e >> s, the entry's top 62 bits.  Field l of
    # (G - m + d'(i,j)) * ones +- (P_j - P_i) is then G - m + d'(i,j) +-
    # (d'(j,l) - d'(i,l)), in [0, 2G) as G = 2**(w-1) > 2 * max e', so no
    # field carries, and its bit G is set iff d'(i,j) +- (...) >= m.
    # Truncation costs under one unit per term, so m = 1 when s > 0 makes
    # that prove the exact sum >= 0.  Field i of P_i holds m, not 0, so
    # fields i and j pass if d'(i,j) >= m; only the pairs this leaves
    # unproven are rescanned exactly.
    bits = max(map(max, rows), default=0).bit_length()
    s = max(0, bits - 62)
    m, shift = int(s > 0), itertools.repeat(s)
    code, w = next((c, 8 * b) for c, b in zip("BHIQ", (1, 2, 4, 8)) if 8 * b >= bits - s + 2)
    guard, ones, fmt = 1 << w - 1, int("1".zfill(w) * n, 2), f"<{n}{code}"
    need = guard * ones
    packed = [int.from_bytes(struct.pack(fmt, *(map(operator.rshift, row, shift) if s else row)),
                             "little") + (m << w * i) for i, row in enumerate(rows)]
    for i in range(n):
        pi = packed[i]
        for j in range(i + 1, n):
            diff = packed[j] - pi
            base = (guard - m + (rows[i][j] >> s)) * ones
            if (base + diff) & (base - diff) & need != need and (
                    found := _triangle_from(rows, i, j)) is not None:
                return found
    return None


def _triangle_from(rows, i, j):
    """None if pair (i, j) holds the triangle inequality both ways, else
    the first violation in (a, b, l) order; once every pair before (i, j)
    holds, no violation has a below i."""
    if max(map(abs, map(operator.sub, rows[i], rows[j]))) <= rows[i][j]:
        return None
    n = len(rows)
    return next(
        MetricViolation("triangle", (a, b, l))
        for a in range(i, n) for b in range(n)
        if max(map(operator.sub, rows[a], rows[b])) > rows[a][b]
        for l in range(n) if rows[a][l] > rows[a][b] + rows[b][l]
    )


@dataclass(frozen=True, init=False)
class Instance:
    """Colorful k-center instance: metric, center budget, color demands.

    Built from a matrix `dist` of ints, Fractions or rational strings;
    rows[c][u] is dist[c][u] times scale, the lcm of all denominators.
    Not fields, so equality ignores them: `color_masks`, (members as an
    int bitmask, demand) per color, and per radius level the balls of
    every point (_masks) and counting_bound's answer (_bounds).
    """

    rows: tuple
    scale: int
    k: int
    colors: tuple

    def __init__(self, dist, k, colors):
        scale, rows = _scaled_rows(dist)
        pairs = []
        for idx, c in enumerate(colors):
            try:
                m, d = (c.members, c.demand) if isinstance(c, ColorClass) else c
                pairs.append((tuple(m), d))
            except (TypeError, ValueError):
                raise InstanceFormatError(f"color {idx} is not a (members, demand) pair") from None
        # checked, not converted: int() would truncate 5/2 to 2 and take 0.0
        if not (_is_int(k) and all(_is_int(d) and all(map(_is_int, m)) for m, d in pairs)):
            raise InstanceFormatError("k, color members and demands must be ints")
        colors = tuple(ColorClass(frozenset(m), d) for m, d in pairs)
        n = len(rows)
        if n < 1:
            raise InstanceFormatError("instance needs at least one point")
        for row in rows:
            if len(row) != n:
                raise InstanceFormatError("distance matrix is not square")
        if not 1 <= k <= n:
            raise InstanceFormatError(f"center budget k={k} outside 1..{n}")
        if not colors:
            raise InstanceFormatError("need at least one color class")
        for idx, c in enumerate(colors):
            if any(not (0 <= u < n) for u in c.members):
                raise InstanceFormatError(f"color {idx} has out-of-range members")
            if not 0 <= c.demand <= len(c.members):
                raise InstanceFormatError(
                    f"color {idx} demand {c.demand} outside 0..{len(c.members)}"
                )
        self.__dict__.update(rows=rows, scale=scale, k=k, colors=colors, _masks={}, _bounds={},
                             color_masks=tuple((sum(1 << u for u in c.members), c.demand)
                                               for c in colors))

    @functools.cached_property
    def dist(self) -> tuple:
        """The distance matrix, built on first access: the rows
        themselves when scale is 1, Fractions otherwise."""
        if self.scale == 1:
            return self.rows
        return tuple(tuple(Fraction(v, self.scale) for v in row) for row in self.rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def num_colors(self) -> int:
        return len(self.colors)

    def _level(self, r) -> int:
        """floor(r * scale), r an int or a Fraction: the level of r."""
        return r.numerator * self.scale // r.denominator

    def _balls(self, r) -> tuple:
        """Bit u of entry c is set iff dist[c][u] <= r, that is iff
        rows[c][u] <= the level of r."""
        level = self._level(r)
        got = self._masks.get(level)
        if got is None:
            got = tuple(sum(1 << u for u, d in enumerate(row) if d <= level) for row in self.rows)
            self._masks[level] = got
        return got


@dataclass(frozen=True)
class FairInstance:
    """Colorful k-center plus per-point coverage probability targets, and,
    not fields, `targeted`, the points u with p(u) > 0 in ascending order,
    and `target_lcm`, L, the lcm of the targets' denominators."""

    base: Instance
    p: tuple

    def __post_init__(self):
        try:
            p = tuple(map(rational_from, self.p))
        except InstanceFormatError as exc:
            raise InstanceSchemaError(f"field p: {exc}") from exc
        object.__setattr__(self, "p", p)
        if len(p) != self.base.n:
            raise InstanceFormatError("probability vector length != n")
        for u, pu in enumerate(p):
            if not 0 <= pu <= 1:
                raise InstanceFormatError(f"p[{u}]={pu} outside [0,1]")
        self.__dict__.update(targeted=tuple(u for u, t in enumerate(p) if t),
                             target_lcm=math.lcm(*(t.denominator for t in p)))

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


def mask_points(mask) -> frozenset:
    """The set bits of mask as point indices."""
    return frozenset(u for u in range(mask.bit_length()) if mask >> u & 1)


def ball(inst: Instance, c: int, r) -> frozenset:
    """All points within distance r of point c (closed ball)."""
    return mask_points(inst._balls(r)[c])


def union_mask(inst: Instance, centers, r) -> int:
    """Bitmask of the points within distance r of some center."""
    masks = inst._balls(r)
    covered = 0
    for c in centers:
        covered |= masks[c]
    return covered


def candidate_radii(inst: Instance):
    """Sorted distinct pairwise distances, always including 0.

    The optimal radius of any instance is one of these values, since
    feasibility only changes when a ball gains or loses a point.
    """
    vals = {0}
    for i, row in enumerate(inst.rows):
        vals.update(row[i + 1 :])
    return [Fraction(v, inst.scale) for v in sorted(vals)]


def mask_weight(weights, mask):
    """Exact total of weights[u] over the set bits u of mask."""
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def weighted_coverage(inst: Instance, weights, centers, r):
    """Total weight of the points within distance r of centers."""
    return mask_weight(weights, union_mask(inst, centers, r))


def ball_masks(inst: Instance, r) -> tuple:
    """Closed balls of radius r as int bitmasks, one per point: bit u of
    entry c is set iff dist[c][u] <= r.  The instance's own table."""
    return inst._balls(r)


def check_feasible(inst: Instance, centers, r) -> CoverageReport:
    """Count how many members of each color class lie within distance r
    of the center set, and compare against demands and the budget k.
    """
    distinct = set(centers)
    covered = union_mask(inst, distinct, r)
    counts = tuple((covered & m).bit_count() for m, _ in inst.color_masks)
    budget_ok = len(distinct) <= inst.k
    met = all(cnt >= c.demand for cnt, c in zip(counts, inst.colors))
    return CoverageReport(feasible=budget_ok and met, budget_ok=budget_ok, counts=counts)


@dataclass(frozen=True)
class CountingBound:
    """A color's demand, or the coverage targets, are out of reach of the
    relaxation at a radius.

    With U the points of `kept` and a_v the number of points of U in
    ball(v, r) (`counts`), every point of the relaxation has

        x(c) <= |c - U| + sum_{u in U} y(ball(u, r))
             = |c - U| + sum_v a_v y_v
             <= |c - U| + (sum of the k largest a_v) = bound,

    for U a subset of the color c, from x <= 1 outside U, the coverage
    rows of U, y in [0, 1] and the budget sum_v y_v <= k; bound <
    demand.  kth is the k-th largest a_v.

    On the fair relaxation, which also has x_u >= p(u), U may hold
    targeted points outside c, and c may be no color at all (color
    None: no members, demand 0).  Then every point has

        d_c + sum_{u in U - c} p(u) <= x(c & U) + |c - U| + sum_{u in U - c} x_u
                                   <= |c - U| + sum_v a_v y_v <= bound,

    and the left side exceeds bound.
    """

    color: int  # or None
    kept: int
    counts: tuple
    kth: int
    bound: int


def counting_bound(inst: Instance, r, targets=None):
    """A CountingBound for the first color whose demand the relaxation
    at radius r cannot meet by counting (see _color_bound), or None.
    Cached per radius level, so it depends only on the instance and r.

    targets, per-point coverage targets p(u) (a FairInstance's p), asks
    for a bound on the fair relaxation instead: no color first, then
    each color in turn, with U starting from the color's members and
    every targeted point.  Not cached.
    """
    level = inst._level(r)
    if targets is None and level in inst._bounds:
        return inst._bounds[level]
    masks = inst._balls(r)
    found, scale, weights = None, 1, None
    choices = list(enumerate(inst.color_masks))
    if targets is not None:
        scale = math.lcm(*(t.denominator for t in targets))
        weights = [t.numerator * scale // t.denominator for t in targets]
        choices.insert(0, (None, (0, 0)))
    for color, (members, demand) in choices:
        found = _color_bound(masks, members, demand, inst.k, color, weights, scale)
        if found is not None:
            break
    if targets is None:
        inst._bounds[level] = found
    return found


def greedy_balls(masks, left, k, spare=-1):
    """Up to k balls picked greedily, each covering the most points of
    left not yet covered (ties to the lowest index), as (the points of
    left they leave uncovered, their centers in pick order).  The picks
    stop once at most spare points of left are uncovered; by default
    all k are picked."""
    chosen = []
    for _ in range(k):
        if left.bit_count() <= spare:
            break
        gains = list(map(int.bit_count, map(left.__and__, masks)))
        chosen.append(gains.index(max(gains)))
        left &= ~masks[chosen[-1]]
    return left, chosen


def greedy_centers(inst: Instance, radius, targets=0, weights=None):
    """Up to k centers picked greedily at radius that cover every point
    of the mask targets and meet every demand there, or None.
    greedy_balls picks until targets is covered; each pick left then
    takes the ball with the most still-needed demand, the sum over
    colors c of min(need_c, new members of c), ties to the lowest index,
    until every demand is met.  check_feasible decides.  Never more than
    k picks, so a None says nothing about the radius.

    weights, one int per point, break those ties to the ball of most
    new weight (the weights of the points it adds), and after every
    demand is met the picks left each take the ball of most new weight
    while one adds any.  With no weights the picks stop once every
    demand is met."""
    masks = inst._balls(radius)
    left, chosen = greedy_balls(masks, targets, inst.k, 0)
    covered = union_mask(inst, chosen, radius)
    for _ in range(inst.k - len(chosen)):
        gains = None
        for members, demand in inst.color_masks:
            need = demand - (members & covered).bit_count()
            if need > 0:
                fresh = map(int.bit_count, map((members & ~covered).__and__, masks))
                got = map(min, fresh, itertools.repeat(need))
                gains = list(got) if gains is None else list(map(operator.add, gains, got))
        if weights is not None:
            new = [mask_weight(weights, m & ~covered) for m in masks]
            if gains is not None:
                gains = list(zip(gains, new))
            elif any(new):
                gains = new
        if gains is None:
            break
        pick = gains.index(max(gains))
        chosen.append(pick)
        covered |= masks[pick]
    if left or not check_feasible(inst, chosen, radius).feasible:
        return None
    return frozenset(chosen)


def service_radius(inst: Instance, centers):
    """Smallest radius at which centers meets every color demand, or None
    when some demand is unreachable (only possible with no centers): the
    largest over colors of the demand-th smallest distance from a member
    to its nearest center, read from the int rows."""
    near = list(map(min, zip(*(inst.rows[s] for s in centers))))
    worst = 0
    for c in inst.colors:
        if c.demand == 0:
            continue
        if not near:
            return None
        worst = max(worst, sorted(near[u] for u in c.members)[c.demand - 1])
    return Fraction(worst, inst.scale)


def _color_bound(masks, members, demand, k, color, weights=None, scale=1):
    """Greedy search for U: start from U = members, plus the points of
    positive weight when weights are given, and drop the kept point u of
    largest scale * h_u - w_u while that is positive (ties to the lowest
    index), h_u the number of the k currently largest balls (by a_v,
    ties to the lowest index) holding u, and w_u = scale for a member,
    weights[u] otherwise; its drop takes w_u / scale from the left side
    and one from each a_v of a ball holding it.  With no weights, w_u = 1
    and scale 1: drop while some kept point lies in two of those balls.
    Returns the bound of largest left - bound seen if that is positive.

    With no weights, skipped when k balls picked greedily already reach
    the demand: that is an integral point of the rows the bound uses, so
    no U can give a bound below demand.
    """
    spare = members.bit_count() - demand  # members that may stay uncovered
    if weights is None:
        left, _ = greedy_balls(masks, members, k, spare)
        if left.bit_count() <= spare:
            return None
    n = len(masks)
    w = [scale if members >> u & 1 else weights[u] if weights else 0 for u in range(n)]
    kept = [u for u in range(n) if w[u]]
    kept_mask = sum(1 << u for u in kept)
    counts = list(map(int.bit_count, map(kept_mask.__and__, masks)))
    total = sum(w)  # w summed over U
    best, best_gap = None, 0
    while True:
        top = sorted(range(n), key=counts.__getitem__, reverse=True)[:k]
        largest = sum(map(counts.__getitem__, top))
        gap = total - scale * (spare + largest)  # scale times left - bound
        if gap > best_gap:
            kept_mask = sum(1 << u for u in kept)
            bound = members.bit_count() - (members & kept_mask).bit_count() + largest
            best = CountingBound(color, kept_mask, tuple(counts), counts[top[-1]], bound)
            best_gap = gap
        chosen = sum(1 << v for v in top)
        gains = [scale * (masks[u] & chosen).bit_count() - w[u] for u in kept]
        most = max(gains, default=0)
        if most <= 0:
            return best
        u = kept.pop(gains.index(most))
        total -= w[u]
        for v in mask_points(masks[u]):
            counts[v] -= 1


def subset_count(n: int, k: int) -> int:
    """Number of center sets of size at most k over n points."""
    return sum(math.comb(n, j) for j in range(k + 1))


def feasible_sets(inst: Instance, r):
    """Every center set meeting the budget and all demands at radius r,
    in (size, lex) order.  Exhaustive; meant for enumeration scale.

    The combinations of each size are walked depth first, carrying the
    OR of the balls picked so far.  A prefix has no feasible completion,
    and is skipped whole, if its OR with every ball from its next index
    on still misses a demand, or if a color's count in its OR plus left
    times top, the most members of it that one of those balls holds, is
    below its demand: each of the left balls still to pick adds at most
    top.  So the sets that come out, and their order, are the plain scan's.
    """
    masks = inst._balls(r)
    reach = [*itertools.accumulate(masks[::-1], operator.or_)][::-1] + [0]  # OR of balls i..n-1
    # each color's members, demand and top: top[i] is the most members
    # of it that one of the balls of points i..n-1 holds
    needs = [(m, d, [*itertools.accumulate([(b & m).bit_count() for b in masks[::-1]], max)][::-1]
              + [0]) for m, d in inst.color_masks]
    if not any(demand for _, demand, _ in needs):
        yield frozenset()
    for size in range(1, inst.k + 1):
        for combo in _completions((), 0, 0, size, masks, reach, needs):
            yield frozenset(combo)


def _completions(head, start, covered, left, masks, reach, needs):
    """head plus `left` more points from start on that meet every
    demand in needs, in lex order; covered is the OR of head's balls."""
    best = covered | reach[start]
    pending = []  # the demands head leaves open: those it meets stay met
    for members, demand, top in needs:
        got = (covered & members).bit_count()
        if got + left * top[start] < demand or (best & members).bit_count() < demand:
            return
        if got < demand:
            pending.append((members, demand, top))
    n = len(masks)
    if left == 1:
        for c in range(start, n):
            last = covered | masks[c]
            for members, demand, _ in pending:
                if (last & members).bit_count() < demand:
                    break
            else:
                yield head + (c,)
        return
    for c in range(start, n - left + 1):
        yield from _completions(
            head + (c,), c + 1, covered | masks[c], left - 1, masks, reach, pending
        )


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
    for row in d["dist"]:
        if not isinstance(row, list) or len(row) != n:
            raise InstanceSchemaError(f"each dist row must be a list of {n} rationals")
    for c in d["colors"]:
        if not (isinstance(c, dict) and isinstance(c.get("members"), list)
                and all(map(_is_int, c["members"])) and _is_int(c.get("demand"))):
            raise InstanceSchemaError("color entries need a members list of point indices "
                                      "and an integer demand")
    colors = tuple((c["members"], c["demand"]) for c in d["colors"])
    inst = Instance(dist=d["dist"], k=d["k"], colors=colors)
    bad = _metric_violation(inst.rows)
    if bad is not None:
        raise InstanceFormatError(f"distance matrix is not a metric: {bad}")
    if "p" in d:
        if not isinstance(d["p"], list) or len(d["p"]) != n:
            raise InstanceSchemaError(f"field p must be a list of {n} rationals")
        return FairInstance(base=inst, p=d["p"])
    return inst


_json_str = json.encoder.encode_basestring_ascii


def dumps_json(doc) -> str:
    """The text json.dumps(doc, indent=2) writes, and a newline, for
    dicts with str keys, lists, tuples, str, int, bool and None; built
    on json's C string encoder, without its pure-Python indenting
    encoder."""
    return _json_text(doc, "\n") + "\n"


def _json_text(value, newline) -> str:
    if isinstance(value, str):
        return _json_str(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{_json_str(key)}: {_json_text(item, inner)}" for key, item in value.items()]
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        ends = "[]"
    elif value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")
    if not items:
        return ends
    return f"{ends[0]}{inner}{f',{inner}'.join(items)}{newline}{ends[1]}"


def dumps_instance(inst) -> str:
    """Canonical JSON text; byte-stable for equal instances."""
    return dumps_json(instance_to_dict(inst))


def loads_instance(text: str):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InstanceSchemaError(f"invalid JSON: {exc}") from exc
    return instance_from_dict(doc)


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())


def save_instance(inst, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))

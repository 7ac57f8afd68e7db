"""Exact rational linear programming.

Bounded-variable primal simplex over exact rationals, two phases, Bland's
pivoting rule.  Returns basic optimal solutions (vertices of the feasible
region), a dual solution whose objective matches the primal exactly, and
on infeasible programs a Farkas certificate: a signed combination of
constraints and variable bounds that sums to "0 >= positive".

The tableau is fraction-free (Edmonds 1967, Bareiss 1968): Python ints
over one positive common denominator, updated by exact integer division,
so no pivot allocates a rational.  Basic values and the ratio test stay
exact fractions.Fraction, as do all inputs and outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

LE = "<="
GE = ">="
EQ = "=="

MIN = "min"
MAX = "max"


class InternalError(RuntimeError):
    """A solver invariant failed; never means "instance infeasible"."""


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


@dataclass
class Constraint:
    coeffs: tuple
    rel: str
    rhs: Fraction


@dataclass
class LinearProgram:
    """min or max c.x subject to row constraints and box bounds.

    lower/upper entries may be None for an unbounded side; lower defaults
    to all zero, upper to all None.
    """

    num_vars: int
    objective: tuple
    sense: str = MIN
    lower: tuple = None
    upper: tuple = None
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        n = self.num_vars
        self.objective = tuple(_frac(c) for c in self.objective)
        if len(self.objective) != n:
            raise ValueError("objective length != num_vars")
        if self.sense not in (MIN, MAX):
            raise ValueError(f"sense must be {MIN!r} or {MAX!r}")
        if self.lower is None:
            self.lower = tuple(Fraction(0) for _ in range(n))
        else:
            self.lower = tuple(None if v is None else _frac(v) for v in self.lower)
        if self.upper is None:
            self.upper = tuple(None for _ in range(n))
        else:
            self.upper = tuple(None if v is None else _frac(v) for v in self.upper)
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound vector length != num_vars")
        for lo, up in zip(self.lower, self.upper):
            if lo is not None and up is not None and lo > up:
                raise ValueError(f"empty bound interval [{lo}, {up}]")
        norm = []
        for con in self.constraints:
            if not isinstance(con, Constraint):
                con = Constraint(tuple(con[0]), con[1], con[2])
            norm.append(con)
        self.constraints = []
        for con in norm:
            self.add(con.coeffs, con.rel, con.rhs)

    def add(self, coeffs, rel, rhs):
        coeffs = tuple(_frac(c) for c in coeffs)
        if len(coeffs) != self.num_vars:
            raise ValueError("constraint length != num_vars")
        if rel not in (LE, GE, EQ):
            raise ValueError(f"bad relation {rel!r}")
        self.constraints.append(Constraint(coeffs, rel, _frac(rhs)))


@dataclass(frozen=True)
class ViolatedConstraint:
    """Separating hyperplane witness returned by check_point.

    kind is "lower", "upper", or "row"; index is the variable or
    constraint index; amount is by how much the point misses it.
    """

    kind: str
    index: int
    amount: Fraction


def check_point(lp: LinearProgram, point):
    """Exact membership test.  Returns None if point satisfies every
    bound and constraint of lp, else the first violation in order
    (bounds by variable index, then rows in constraint order).
    """
    point = [_frac(v) for v in point]
    if len(point) != lp.num_vars:
        raise ValueError("point length != num_vars")
    for i, (lo, up) in enumerate(zip(lp.lower, lp.upper)):
        if lo is not None and point[i] < lo:
            return ViolatedConstraint("lower", i, lo - point[i])
        if up is not None and point[i] > up:
            return ViolatedConstraint("upper", i, point[i] - up)
    nonzero = [(i, v) for i, v in enumerate(point) if v]
    for j, con in enumerate(lp.constraints):
        lhs = sum((con.coeffs[i] * v for i, v in nonzero if con.coeffs[i]), Fraction(0))
        if con.rel == LE and lhs > con.rhs:
            return ViolatedConstraint("row", j, lhs - con.rhs)
        if con.rel == GE and lhs < con.rhs:
            return ViolatedConstraint("row", j, con.rhs - lhs)
        if con.rel == EQ and lhs != con.rhs:
            return ViolatedConstraint("row", j, abs(lhs - con.rhs))
    return None


@dataclass(frozen=True)
class DualInfo:
    """Dual solution for the user's program.

    objective equals sum(row_duals . rhs) + sum(lower_duals . lower)
    - sum(upper_duals . upper) and matches the primal optimum exactly.
    For min programs row_duals are >= 0 on >= rows and <= 0 on <= rows
    and the bound duals are >= 0; for max programs all signs flip.
    """

    row_duals: tuple
    lower_duals: tuple
    upper_duals: tuple
    objective: Fraction


@dataclass(frozen=True)
class FarkasCertificate:
    """Infeasibility witness.

    With y = row_mults (>= 0 on >= rows, <= 0 on <= rows, free on ==),
    p = lower_mults >= 0 and q = upper_mults >= 0, the combination
    sum_j y_j a_j + p - q is the zero vector while gap =
    sum_j y_j b_j + p.lower - q.upper is strictly positive.  Any point
    inside all rows and bounds would give 0 >= gap > 0, so none exists.
    """

    row_mults: tuple
    lower_mults: tuple
    upper_mults: tuple
    gap: Fraction


def verify_certificate(lp: LinearProgram, cert: FarkasCertificate) -> bool:
    """Exact validity check of a Farkas certificate against lp."""
    n = lp.num_vars
    y = cert.row_mults
    p = cert.lower_mults
    q = cert.upper_mults
    if len(y) != len(lp.constraints) or len(p) != n or len(q) != n:
        return False
    for yj, con in zip(y, lp.constraints):
        if con.rel == GE and yj < 0:
            return False
        if con.rel == LE and yj > 0:
            return False
    for i in range(n):
        if p[i] < 0 or q[i] < 0:
            return False
        if p[i] > 0 and lp.lower[i] is None:
            return False
        if q[i] > 0 and lp.upper[i] is None:
            return False
    combo = [Fraction(0)] * n
    for yj, con in zip(y, lp.constraints):
        if yj:
            for i, c in enumerate(con.coeffs):
                if c:
                    combo[i] += yj * c
    for i in range(n):
        combo[i] += p[i] - q[i]
        if combo[i] != 0:
            return False
    gap = _combined_rhs(lp, y, p, q)
    return gap > 0 and gap == cert.gap


def _combined_rhs(lp: LinearProgram, y, low, upp) -> Fraction:
    """y.b + low.lower - upp.upper: the value of a dual solution, or
    the gap of a Farkas certificate."""
    total = sum((yj * con.rhs for yj, con in zip(y, lp.constraints) if yj), Fraction(0))
    total += sum(low[i] * lp.lower[i] for i in range(lp.num_vars) if low[i])
    total -= sum(upp[i] * lp.upper[i] for i in range(lp.num_vars) if upp[i])
    return total


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    solution: tuple = None
    value: Fraction = None
    dual: DualInfo = None
    certificate: FarkasCertificate = None


_AT_LOWER = 0
_AT_UPPER = 1
_AT_FREE = 2
_BASIC = 3

_ZERO = Fraction(0)
_SLACK_BOUNDS = {LE: (_ZERO, None), GE: (None, _ZERO), EQ: (_ZERO, _ZERO)}


class _Simplex:
    """State for one solve.

    Columns: structural variables, then one slack per row, then
    artificials for rows whose slack start is infeasible.  Constraint
    "a.x rel b" is held as "a.x + s = b" with the slack bounded by
    [0, inf) for <=, (-inf, 0] for >=, and [0, 0] for ==.

    The true tableau is T / D, T int rows and D > 0.  With A' the rows
    scaled by the lcm of their own denominators and B' its basis columns,
    D = |det B'| (initially the product of the row scales) and
    T = D * B'^-1 A' = +-adj(B') A' is integral.  A pivot on p = T[r][e]
    is the Bareiss step T'[i][j] = (T[i][j]*p - T[i][e]*T[r][j]) // D,
    exact since T' is again integral, with D' = |p| and all rows negated
    when p < 0.  Reduced costs d are ints over lc*D (lc: lcm of the
    phase's cost denominators) moved by the same step.  Basic values
    beta and ratio-test steps stay exact Fractions.

    T / D carries the identity on the current basis, so the slack
    columns hold the basis inverse; in particular the row duals are the
    negated reduced costs of the slack columns, a fact used for both
    the dual solution and the Farkas certificate.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.n = lp.num_vars
        self.m = len(lp.constraints)
        self.minimize = lp.sense == MIN
        self.cost = list(lp.objective) if self.minimize else [-c for c in lp.objective]

        self.lo = list(lp.lower)
        self.up = list(lp.upper)
        for con in lp.constraints:
            lo, up = _SLACK_BOUNDS[con.rel]
            self.lo.append(lo)
            self.up.append(up)
        self.ncols = self.n + self.m
        # never entering: fixed variables, and artificials after phase 1
        self.frozen = {
            j
            for j, (lo, up) in enumerate(zip(self.lo, self.up))
            if lo is not None and lo == up
        }
        self.state = [
            _AT_LOWER if lo is not None else _AT_UPPER if up is not None else _AT_FREE
            for lo, up in zip(self.lo, self.up)
        ]
        self.D = math.prod(
            math.lcm(*(c.denominator for c in con.coeffs)) for con in lp.constraints
        )
        self.T = []
        for i, con in enumerate(lp.constraints):
            row = [c.numerator * (self.D // c.denominator) for c in con.coeffs]
            row += [0] * self.m
            row[self.n + i] = self.D
            self.T.append(row)
        self.basis = [None] * self.m
        self.beta = [_ZERO] * self.m
        self.artificial = []

    def bound_value(self, j):
        st = self.state[j]
        if st == _AT_LOWER:
            return self.lo[j]
        if st == _AT_UPPER:
            return self.up[j]
        return _ZERO

    def total_cols(self):
        return self.ncols + len(self.artificial)

    def solve(self) -> LpOutcome:
        if self._start_basis():
            if self._iterate() != "optimal":
                raise InternalError("phase 1 is bounded below by zero")
            # artificials stay >= 0, so any positive one means infeasible
            if any(self.basis[i] >= self.ncols and self.beta[i] for i in range(self.m)):
                return self._infeasible_outcome()
            self._drive_out_artificials()
            self.frozen.update(self.artificial)
        self._reduced_costs(self.cost + [0] * (self.total_cols() - self.n))
        status = self._iterate()
        if status == "unbounded":
            return LpOutcome(status="unbounded")
        return self._optimal_outcome()

    # -- setup ------------------------------------------------------------

    def _start_basis(self) -> bool:
        """Slack basis where the start point allows it, artificials
        elsewhere.  Returns True if a feasibility phase is needed.
        """
        start = [(j, v) for j in range(self.n) if (v := self.bound_value(j))]
        need = []
        for i, con in enumerate(self.lp.constraints):
            rho = con.rhs
            for j, v in start:
                c = con.coeffs[j]
                if c:
                    rho -= c * v
            s = self.n + i
            if (self.lo[s] is None or rho >= self.lo[s]) and (
                self.up[s] is None or rho <= self.up[s]
            ):
                self.basis[i] = s
                self.state[s] = _BASIC
                self.beta[i] = rho
            else:
                need.append((i, rho))
        if not need:
            return False
        for i, rho in need:
            if rho < 0:
                # flip the row so the artificial starts basic at +|rho|
                self.T[i] = [-v for v in self.T[i]]
                rho = -rho
            col = self.total_cols()
            for r in range(self.m):
                self.T[r].append(self.D if r == i else 0)
            self.lo.append(_ZERO)
            self.up.append(None)
            self.state.append(_BASIC)
            self.basis[i] = col
            self.beta[i] = rho
            self.artificial.append(col)
        phase_cost = [0] * self.total_cols()
        for j in self.artificial:
            phase_cost[j] = 1
        self._reduced_costs(phase_cost)
        return True

    def _reduced_costs(self, cost):
        """d = c - c_B . T/D as the ints lc*D*d, fresh at each phase start."""
        self.lc = math.lcm(*(c.denominator for c in cost))
        cost = [c.numerator * (self.lc // c.denominator) for c in cost]
        d = [c * self.D for c in cost]
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb:
                for j, v in enumerate(self.T[i]):
                    if v:
                        d[j] -= cb * v
        self.d = d

    # -- core loop --------------------------------------------------------

    def _iterate(self):
        while True:
            enter, direction = self._pick_entering()
            if enter is None:
                return "optimal"
            step, leave_row, leave_state = self._ratio_test(enter, direction)
            if step is None:
                return "unbounded"
            self._apply(enter, direction, step, leave_row, leave_state)

    def _pick_entering(self):
        """Bland: lowest-index nonbasic column whose reduced cost can
        improve the objective in its feasible move direction.
        """
        d = self.d
        state = self.state
        for j in range(len(d)):
            st = state[j]
            if st == _BASIC or j in self.frozen:
                continue
            if d[j] < 0 and st != _AT_UPPER:
                return j, 1
            if d[j] > 0 and st != _AT_LOWER:
                return j, -1
        return None, 0

    def _ratio_test(self, enter, direction):
        """Largest step t >= 0 when column `enter` moves by direction*t.

        Candidates: each basic variable hitting one of its bounds, and
        the entering variable hitting its own opposite bound.  Ties are
        broken on the smallest variable index (Bland), the entering
        variable counting with its own index.
        """
        # steps are int pairs (num, den > 0), compared by cross-multiplying
        best_num = best_var = best_state = None
        best_den = 1
        best_row = -1
        lo_e, up_e = self.lo[enter], self.up[enter]
        if lo_e is not None and up_e is not None:
            best_num, best_den = (up_e - lo_e).as_integer_ratio()
            best_var = enter
            best_state = _AT_UPPER if direction > 0 else _AT_LOWER
        for i, row in enumerate(self.T):
            coef = row[enter]
            if not coef:
                continue
            b = self.basis[i]
            if (coef > 0) == (direction > 0):
                bound = self.lo[b]
                sign = 1
                new_state = _AT_LOWER
            else:
                bound = self.up[b]
                sign = -1
                new_state = _AT_UPPER
            if bound is None:
                continue
            # the true column entry is coef / D: t = |beta - bound| * D / |coef|
            beta = self.beta[i]
            num = sign * self.D * (
                beta.numerator * bound.denominator - bound.numerator * beta.denominator
            )
            den = beta.denominator * bound.denominator * abs(coef)
            if best_num is not None:
                lhs, rhs = num * best_den, best_num * den
                if lhs > rhs or (lhs == rhs and b > best_var):
                    continue
            best_num, best_den = num, den
            best_var = b
            best_row = i
            best_state = new_state
        if best_num is None:
            return None, None, None
        return Fraction(best_num, best_den), best_row, best_state

    def _apply(self, enter, direction, step, leave_row, leave_state):
        T = self.T
        D = self.D
        if step:
            # beta[i] -= move * T[i][e] / D, normalised once per entry
            move = step if direction > 0 else -step
            mn, md = move.numerator, move.denominator * D
            for i, ti in enumerate(T):
                coef = ti[enter]
                if coef:
                    b = self.beta[i]
                    bd = b.denominator
                    self.beta[i] = Fraction(b.numerator * md - mn * coef * bd, bd * md)
        if leave_row < 0:
            # entering variable hit its own far bound: flip, no pivot
            self.state[enter] = leave_state
            return
        enter_val = self.bound_value(enter) + (step if direction > 0 else -step)
        leaving = self.basis[leave_row]
        row = T[leave_row]
        p = row[enter]
        sign = 1 if p > 0 else -1
        others = [ti for i, ti in enumerate(T) if i != leave_row]
        if p * sign == D:
            # the Bareiss step reduces to T[i][j] - sign*T[i][e]*T[r][j] // D,
            # which changes nothing where row r is zero
            nz = [(j, v) for j, v in enumerate(row) if v]
            for ti in others + [self.d]:
                g = sign * ti[enter]
                if g:
                    for j, v in nz:
                        ti[j] -= g * v // D
        else:
            a = p * sign
            for ti in others + [self.d]:
                g = sign * ti[enter]
                if g:
                    ti[:] = [(v * a - g * w) // D for v, w in zip(ti, row)]
                else:
                    ti[:] = [v * a // D if v else 0 for v in ti]
            self.D = a
        if sign < 0:
            T[leave_row] = [-v for v in row]
        self.basis[leave_row] = enter
        self.beta[leave_row] = enter_val
        self.state[enter] = _BASIC
        self.state[leaving] = leave_state

    def _drive_out_artificials(self):
        """After a feasible phase 1, pivot basic artificials (all at
        value 0) onto a nonbasic real column.  One always exists: row i
        of the invertible slack block is nonzero somewhere, and never at
        another basic column, so a redundant row keeps a fixed slack.
        """
        for i in range(self.m):
            if self.basis[i] < self.ncols:
                continue
            row = self.T[i]
            target = next(
                (j for j in range(self.ncols) if self.state[j] != _BASIC and row[j]),
                None,
            )
            if target is None:
                raise InternalError(f"row {i} has no column to replace its artificial")
            self._apply(target, 1, _ZERO, i, _AT_LOWER)

    # -- outcomes ---------------------------------------------------------

    def _reduced_cost(self, j):
        return Fraction(self.d[j], self.lc * self.D)

    def _structural_values(self):
        vals = [self.bound_value(j) for j in range(self.n)]
        for i in range(self.m):
            if self.basis[i] < self.n:
                vals[self.basis[i]] = self.beta[i]
        return vals

    def _bound_multipliers(self):
        """Nonnegative multipliers on finite bounds read off the
        structural reduced costs (min convention).
        """
        low = [_ZERO] * self.n
        upp = [_ZERO] * self.n
        for j in range(self.n):
            if self.state[j] == _BASIC:
                continue
            dj = self._reduced_cost(j)
            if dj > 0:
                if self.lp.lower[j] is None:
                    raise InternalError(f"multiplier on missing lower bound {j}")
                low[j] = dj
            elif dj < 0:
                if self.lp.upper[j] is None:
                    raise InternalError(f"multiplier on missing upper bound {j}")
                upp[j] = -dj
        return low, upp

    def _row_duals(self):
        return [-self._reduced_cost(self.n + i) for i in range(self.m)]

    def _optimal_outcome(self):
        x = self._structural_values()
        value = sum(
            (c * v for c, v in zip(self.lp.objective, x) if c), Fraction(0)
        )
        y = self._row_duals()
        low, upp = self._bound_multipliers()
        if not self.minimize:
            y = [-v for v in y]
            low = [-v for v in low]
            upp = [-v for v in upp]
        dual_obj = _combined_rhs(self.lp, y, low, upp)
        if dual_obj != value:
            raise InternalError("strong duality failed, simplex bug")
        dual = DualInfo(tuple(y), tuple(low), tuple(upp), dual_obj)
        return LpOutcome(status="optimal", solution=tuple(x), value=value, dual=dual)

    def _infeasible_outcome(self):
        y = self._row_duals()
        low, upp = self._bound_multipliers()
        gap = _combined_rhs(self.lp, y, low, upp)
        cert = FarkasCertificate(tuple(y), tuple(low), tuple(upp), gap)
        if not verify_certificate(self.lp, cert):
            raise InternalError("phase 1 built a bad certificate")
        return LpOutcome(status="infeasible", certificate=cert)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve lp exactly.

    "optimal" comes with a basic solution (a vertex whenever the
    feasible region is pointed), its value, and a dual of equal value;
    "infeasible" with a verified Farkas certificate.  Identical input
    always takes the identical pivot path, so results are deterministic.
    """
    return _Simplex(lp).solve()

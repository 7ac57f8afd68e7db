"""Exact rational linear programming.

A bounded-variable dual simplex (Lemke 1954) over exact rationals, under
Bland's rule for the dual.  Returns basic optimal solutions (vertices of
the feasible region), a dual solution whose objective matches the primal
exactly, and on infeasible programs a Farkas certificate: a signed
combination of constraints and variable bounds that sums to
"0 >= positive".

Costs and bounds are ints; an integral Fraction becomes one, and any
other Fraction is refused with ValueError.  Row coefficients and rhs are
ints or Fractions, and a row given with Fractions is held as its ints:
each number times the lcm of the row's denominators.  Its duals and
certificate multipliers are those of that held row.  Inside a solve
everything is a Python int over one denominator D: the tableau is
fraction-free (Edmonds 1967, Bareiss 1968) and updated by exact integer
division, and the reduced costs, basic values, steps, duals and every
check share D.  An optimum is handed over as ints too, the point over
den = D, with the Fractions solution and dual built on first access; a
certificate is Fractions.  Every optimum is checked on ints before it
is returned: its point against every bound and row of its program, and
its value against the dual's.  Every certificate is verified against
its program.

Every solve runs one pivot loop from a dual feasible basis.  A cold
solve starts from the slack basis: each structural column at the bound
its cost prefers, and every row entered with its slack basic.  That
basis is dual feasible because a cold solve takes only programs whose
every cost, in min form, points to a finite bound of its column (lower
for a positive cost, upper for a negative one), as Koberstein ("The
dual simplex method", 2005) notes for boxed programs; any other program
is refused with ValueError.  Such a program is never unbounded, so
every outcome is "optimal" or "infeasible".

solve(program, start) re-solves warm: start is an earlier optimal or
infeasible outcome of a program that program extends by more rows
(LinearProgram.extended builds it on the shorter one's rows).  From an
optimum the new rows enter a copy of its tableau the same way, and the
dual simplex re-solves from its basis; from "infeasible" the
certificate gains zero multipliers on the new rows.  No solve changes
its start, and warm outcomes keep every check of a cold one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

LE = "<="
GE = ">="
EQ = "=="

MIN = "min"
MAX = "max"


class InternalError(RuntimeError):
    """A solver invariant failed; never means "instance infeasible"."""


def _exact(v):
    """v as an int or a Fraction; bools and inexact numbers are refused."""
    if type(v) is int or isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return int(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


def _over_lcm(values):
    """(ints, M) with values[i] == ints[i] / M, M the lcm of the
    denominators of the ints and Fractions in values."""
    m = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (m // v.denominator) for v in values], m


def _ints(values, what):
    """values as a tuple of ints, Nones kept: an integral Fraction
    becomes its int, any other Fraction is refused with ValueError
    naming it, and bools and inexact numbers with TypeError."""
    values = tuple(values)
    if set(map(type, values)) <= {int, type(None)}:
        return values  # the programs the solvers build
    values = tuple(None if v is None else _exact(v) for v in values)
    for j, v in enumerate(values):
        if v is not None and v.denominator != 1:
            raise ValueError(f"{what} {v} of column {j} is not an integer")
    return tuple(None if v is None else v.numerator for v in values)


@dataclass
class Constraint:
    """coeffs . x rel rhs, coeffs and rhs ints."""

    coeffs: tuple
    rel: str
    rhs: int


@dataclass
class LinearProgram:
    """min or max c.x subject to row constraints and box bounds, c and
    the bounds ints.

    lower/upper entries may be None for an unbounded side; lower defaults
    to all zero, upper to all None.  A row given with Fractions is held
    as its ints, each number times the lcm of the row's denominators.
    """

    num_vars: int
    objective: tuple
    sense: str = MIN
    lower: tuple = None
    upper: tuple = None
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        n = self.num_vars
        self.objective = _ints(self.objective, "cost")
        if None in self.objective:
            raise TypeError("expected int or Fraction, got NoneType")
        if len(self.objective) != n:
            raise ValueError("objective length != num_vars")
        if self.sense not in (MIN, MAX):
            raise ValueError(f"sense must be {MIN!r} or {MAX!r}")
        self.lower = (0,) * n if self.lower is None else _ints(self.lower, "lower bound")
        self.upper = (None,) * n if self.upper is None else _ints(self.upper, "upper bound")
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound vector length != num_vars")
        for lo, up in zip(self.lower, self.upper):
            if lo is not None and up is not None and lo > up:
                raise ValueError(f"empty bound interval [{lo}, {up}]")
        given = self.constraints
        self.constraints = []
        for con in given:
            if isinstance(con, Constraint):
                con = (con.coeffs, con.rel, con.rhs)
            self.add(con[0], con[1], con[2])

    def add(self, coeffs, rel, rhs):
        coeffs = tuple(coeffs)
        if len(coeffs) != self.num_vars:
            raise ValueError("constraint length != num_vars")
        if rel not in (LE, GE, EQ):
            raise ValueError(f"bad relation {rel!r}")
        if type(rhs) is not int or not set(map(type, coeffs)) <= {int}:
            # a row given with Fractions is held as its ints
            (*ints, b), _ = _over_lcm((*map(_exact, coeffs), _exact(rhs)))
            coeffs, rhs = tuple(ints), b
        self.constraints.append(Constraint(coeffs, rel, rhs))

    def extended(self, rows):
        """A new program sharing this one's variables, bounds, objective
        and checked rows, with each (coeffs, rel, rhs) of rows added; this
        program is left unchanged."""
        program = object.__new__(type(self))
        program.__dict__.update(self.__dict__)
        program.constraints = self.constraints[:]
        for row in rows:
            program.add(*row)
        return program


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
    point = tuple(map(_exact, point))
    if len(point) != lp.num_vars:
        raise ValueError("point length != num_vars")
    return _first_violation(lp, *_over_lcm(point))


def _first_violation(lp: LinearProgram, P, m):
    """check_point for the point P / m, P ints and m > 0: every
    comparison is one of ints."""
    for i, (lo, up) in enumerate(zip(lp.lower, lp.upper)):
        if lo is not None and P[i] < lo * m:
            return ViolatedConstraint("lower", i, lo - Fraction(P[i], m))
        if up is not None and P[i] > up * m:
            return ViolatedConstraint("upper", i, Fraction(P[i], m) - up)
    nonzero = [(i, v) for i, v in enumerate(P) if v]
    for j, con in enumerate(lp.constraints):
        row = con.coeffs
        diff = sum(row[i] * v for i, v in nonzero) - con.rhs * m  # (lhs - rhs) * m
        if diff > 0 and con.rel != GE or diff < 0 and con.rel != LE:
            return ViolatedConstraint("row", j, Fraction(abs(diff), m))
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
    y, p, q = cert.row_mults, cert.lower_mults, cert.upper_mults
    if len(y) != len(lp.constraints) or len(p) != n or len(q) != n:
        return False
    # every multiplier as an int over m
    mults, m = _over_lcm((*y, *p, *q))
    Y, P, Q = mults[: len(y)], mults[len(y) : len(y) + n], mults[len(y) + n :]
    for yj, con in zip(Y, lp.constraints):
        if con.rel == GE and yj < 0:
            return False
        if con.rel == LE and yj > 0:
            return False
    for i in range(n):
        if P[i] < 0 or Q[i] < 0:
            return False
        if P[i] and lp.lower[i] is None:
            return False
        if Q[i] and lp.upper[i] is None:
            return False
    combo = [P[i] - Q[i] for i in range(n)]
    gap = 0
    for yj, con in zip(Y, lp.constraints):
        if yj:
            for i, c in enumerate(con.coeffs):
                if c:
                    combo[i] += yj * c
            gap += yj * con.rhs
    if any(combo):
        return False
    gap += sum(P[i] * lp.lower[i] for i in range(n) if P[i])
    gap -= sum(Q[i] * lp.upper[i] for i in range(n) if Q[i])
    return gap > 0 and Fraction(gap, m) == cert.gap


class LpOutcome:
    """What a solve of program found: status "optimal" or "infeasible".

    An optimum carries point, its structural values as ints over den
    (D of the solved tableau), value, and two views built on first
    access: solution, the point as Fractions, and dual, a DualInfo.
    "infeasible" carries a certificate verified against program.  Either
    can start a solve of a longer program (see solve); an optimum keeps
    its solved tableau for that, which no solve changes.
    """

    __slots__ = (
        "status", "point", "den", "value", "certificate", "program",
        "_solution", "_dual", "_simplex",
    )

    def __init__(
        self, status, point=None, den=1, value=None, dual=None, certificate=None,
        program=None, simplex=None,
    ):
        self.status = status
        self.point = point
        self.den = den
        self.value = value
        self.certificate = certificate
        self.program = program
        self._solution = None
        self._dual = dual  # a DualInfo, or a function building it
        self._simplex = simplex

    @property
    def solution(self):
        if self._solution is None and self.point is not None:
            self._solution = _fractions(self.point, self.den)
        return self._solution

    @property
    def dual(self):
        if callable(self._dual):
            self._dual = self._dual()
        return self._dual

    def _fields(self):
        return (self.status, self.solution, self.value, self.dual, self.certificate)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        names = ("status", "solution", "value", "dual", "certificate")
        return "LpOutcome(" + ", ".join(
            f"{k}={v!r}" for k, v in zip(names, self._fields())) + ")"


_AT_LOWER = 0
_AT_UPPER = 1
_AT_FREE = 2
_BASIC = 3

_ZERO = Fraction(0)
_SLACK_BOUNDS = {LE: (0, None), GE: (None, 0), EQ: (0, 0)}


def _placed(lo, up, d):
    """The bound a nonbasic column with reduced cost d sits at: its
    upper one when d < 0 or it has no lower one, else its lower one,
    and free at zero with neither."""
    if up is not None and (d < 0 or lo is None):
        return _AT_UPPER
    return _AT_FREE if lo is None else _AT_LOWER


class _Simplex:
    """State for one solve: a bounded-variable dual simplex.

    Columns: structural variables, then one slack per row, so row i's
    slack is column n + i.  Constraint "a.x rel b", a and b ints, is
    held as "a.x + s = b", the slack bounded by [0, inf) for <=,
    (-inf, 0] for >=, and [0, 0] for ==.  A fixed column never enters
    the basis.

    The true tableau is T / D = B^-1 [A | I], T int rows and D > 0:
    with B the basis columns of the integral [A | I], D = |det B| and
    T = +-adj(B) [A | I] is integral.  A pivot on p = T[r][e] is the
    Bareiss step T'[i][j] = (T[i][j]*p - T[i][e]*T[r][j]) // D, exact
    since T' is again integral, with D' = |p| and all rows negated when
    p < 0.  Reduced costs d are ints over D moved by the same step; at
    the slack basis, D = 1 and d is the cost.  The basic values are the
    ints B[i] = beta_i * D, integral because D * beta = +-adj(B) times
    an integral vector; a pivot moves them by the same Bareiss step, and
    every division is checked exact.

    T / D carries the identity on the current basis, so the slack
    columns hold the basis inverse: the basic values are
    T_slack . rhs - T_N . x_N over D (_basic_values), and the row duals
    are the negated reduced costs of the slack columns (_multipliers).

    Rows enter one way, through _append, each with its slack basic: a
    cold solve appends every row to the structural columns alone
    (D = 1), a re-solve a longer program's new rows to a copy of an
    optimal simplex (resolved).  Both then run _loop.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.n = self.ncols = lp.num_vars
        self.m = 0
        self.minimize = lp.sense == MIN
        self.cost = [c if self.minimize else -c for c in lp.objective]
        for j, (lo, up, c) in enumerate(zip(lp.lower, lp.upper, self.cost)):
            if c > 0 and lo is None or c < 0 and up is None:
                side = "lower" if c > 0 else "upper"
                raise ValueError(
                    f"column {j} has no {side} bound, but its cost moves it that way"
                )
        self.d = self.cost[:]  # the slack basis's reduced costs
        self.lo, self.up = list(lp.lower), list(lp.upper)
        self.state = [_placed(lo, up, c) for lo, up, c in zip(self.lo, self.up, self.d)]
        self.D = 1
        self.T, self.B, self.basis, self.rhs = [], [], [], []
        self._append(lp.constraints)

    def bound_value(self, j):
        """The value of nonbasic column j."""
        st = self.state[j]
        return self.lo[j] if st == _AT_LOWER else self.up[j] if st == _AT_UPPER else 0

    def _append(self, constraints):
        """Enter constraints as rows of the tableau, each with its slack
        basic.

        Row a eliminated against the basis is, over D,
        a * D - sum_i a[b_i] * T[i], so D does not grow, and
        _basic_values gives the new rows' values.
        """
        n, D, T = self.n, self.D, self.T
        k, first = len(constraints), self.ncols
        zeros = [0] * k
        for ti in T:
            ti += zeros
        pad = [0] * (first + k - n)
        for col, con in enumerate(constraints, first):
            a = con.coeffs
            row = [*a, *pad] if D == 1 else [c * D for c in a] + pad
            for i, b in enumerate(self.basis):
                if b < n and a[b]:
                    f = a[b]
                    row = [v - f * w if w else v for v, w in zip(row, T[i])]
            row[col] = D
            T.append(row)
            self.rhs.append(con.rhs)
            lo, up = _SLACK_BOUNDS[con.rel]
            self.lo.append(lo)
            self.up.append(up)
        self.state += [_BASIC] * k
        self.basis += range(first, first + k)
        self.d += zeros
        self.ncols += k
        self.m += k
        self.B += self._basic_values(T[first - n :])

    def resolved(self, lp: LinearProgram) -> LpOutcome:
        """Re-solve a copy of this optimal simplex for lp, its program
        with rows appended (solve checks that); self is left as it was.

        The further rows enter the copy through _append, which keeps the
        basis dual feasible, and the dual simplex restores primal
        feasibility from there.
        """
        warm = object.__new__(_Simplex)
        warm.__dict__.update(self.__dict__)
        warm.T = [row[:] for row in self.T]
        for name in ("B", "d", "lo", "up", "state", "basis", "rhs"):
            setattr(warm, name, getattr(self, name)[:])
        warm.lp = lp
        warm._append(lp.constraints[warm.m :])
        return warm._run()

    def _basic_values(self, rows):
        """The basic values of the tableau rows `rows` over D: each
        row's T_slack . rhs - T_N . x_N, x_N the nonbasic values."""
        n = self.n
        x = [-self.bound_value(j) for j in range(self.ncols)]  # 0 where basic
        for i, b in enumerate(self.rhs):
            x[n + i] += b
        nz = [(j, v) for j, v in enumerate(x) if v]
        return [sum(row[j] * v for j, v in nz) for row in rows]

    # -- the dual simplex -----------------------------------------------------

    def _run(self) -> LpOutcome:
        """The outcome the dual simplex reaches: "optimal", or
        "infeasible" with the certificate read off the blocking row,
        verified against the program."""
        blocked = self._loop()
        if blocked is None:
            return self._optimal_outcome()
        r, sigma = blocked
        y, low, upp, gap = self._multipliers(self.T[r], sigma)
        D = self.D
        return _certified(self.lp, FarkasCertificate(
            _fractions(y, D), _fractions(low, D), _fractions(upp, D), Fraction(gap, D)
        ))

    def _loop(self):
        """Run the dual simplex (Lemke 1954) from a dual feasible basis
        to a primal feasible one, which is then optimal, and return None;
        or return (row, sigma) for the row whose basic variable no column
        can move back inside its bounds (see _multipliers).

        Bland's rule for the dual: the leaving row is the one whose basic
        variable has the lowest index among those outside their bounds,
        and the entering column has the least ratio |d_j| / |T[r][j]|,
        ties to the lowest index.
        """
        while True:
            r, leave_state, bound = self._pick_leaving()
            if r is None:
                return None
            sigma = 1 if leave_state == _AT_LOWER else -1
            enter, direction = self._pick_entering_dual(r, leave_state)
            if enter is None:
                return r, sigma
            self._apply(enter, direction, abs(self.B[r] - self.D * bound), r, leave_state)

    def _pick_leaving(self):
        """(row, state it leaves to, that bound) for the basic variable
        of lowest index outside its bounds, or Nones when none is."""
        D = self.D
        best = best_b = leave_state = bound = None
        for i, b in enumerate(self.basis):
            if best_b is not None and b > best_b:
                continue
            lo, up = self.lo[b], self.up[b]
            if lo is not None and self.B[i] < lo * D:
                best, best_b, leave_state, bound = i, b, _AT_LOWER, lo
            elif up is not None and self.B[i] > up * D:
                best, best_b, leave_state, bound = i, b, _AT_UPPER, up
        return best, leave_state, bound

    def _pick_entering_dual(self, r, leave_state):
        """(column, direction) of the dual ratio test on row r, or
        (None, 0) when no column can move its basic variable back.

        With sigma = +1 when that variable must rise to its lower bound
        and -1 when it must fall to its upper one, column j qualifies
        when sigma * T[r][j] < 0 and j can increase, or > 0 and j can
        decrease; its ratio |d_j| / |T[r][j]| bounds the dual step.
        """
        row, d, state, lo, up = self.T[r], self.d, self.state, self.lo, self.up
        rising = leave_state == _AT_LOWER
        best, best_num, best_den, direction = None, 0, 1, 0
        for j, a in enumerate(row):
            # fixed columns (== slacks among them) never enter
            if not a or state[j] == _BASIC or lo[j] is not None and lo[j] == up[j]:
                continue
            move = 1 if (a < 0) == rising else -1
            if state[j] == (_AT_UPPER if move > 0 else _AT_LOWER):
                continue
            num = d[j] if d[j] > 0 else -d[j]
            den = a if a > 0 else -a
            if best is None or num * best_den < best_num * den:
                best, best_num, best_den, direction = j, num, den, move
        return best, direction

    def _apply(self, enter, direction, num, leave_row, leave_state):
        """Pivot column `enter` into row leave_row, moving it by
        direction * num / |p|, which takes the leaving variable to
        its bound leave_state."""
        T, D, B = self.T, self.D, self.B
        move = num if direction > 0 else -num
        leaving = self.basis[leave_row]
        row = T[leave_row]
        p = row[enter]
        sign = 1 if p > 0 else -1
        a = p * sign
        col = [ti[enter] for ti in T]
        col[leave_row] = 0
        # B[i] = beta_i*D moves to (beta_i - move_t*T[i][e]/D)*|p|,
        # which is (B[i]*|p| - move*T[i][e]) / D since t*|p| = num
        for i, coef in enumerate(col):
            if a != D and i != leave_row:
                q, rem = divmod(B[i] * a - move * coef, D)
            elif coef and move:
                q, rem = divmod(move * coef, D)
                q = B[i] - q
            else:
                continue
            if rem:
                raise InternalError("basic value update is not exact")
            B[i] = q
        B[leave_row] = self.bound_value(enter) * a + move
        rows = T + [self.d]
        col.append(self.d[enter])
        if a == D:
            # the Bareiss step reduces to T[i][j] - sign*T[i][e]*T[r][j] // D,
            # which changes nothing where row r is zero
            nz = [(j, v) for j, v in enumerate(row) if v]
            for ti, g in zip(rows, col):
                if g:
                    g *= sign
                    for j, v in nz:
                        ti[j] -= g * v // D
        else:
            for i, (ti, g) in enumerate(zip(rows, col)):
                if i == leave_row:
                    continue
                if g:
                    g *= sign
                    ti[:] = [(v * a - g * w) // D for v, w in zip(ti, row)]
                else:
                    ti[:] = [v * a // D if v else 0 for v in ti]
            self.D = a
        if sign < 0:
            T[leave_row] = [-v for v in row]
        self.basis[leave_row] = enter
        self.state[enter] = _BASIC
        self.state[leaving] = leave_state

    # -- outcomes ---------------------------------------------------------

    def _multipliers(self, vec, sigma):
        """Row multipliers y, bound multipliers low and upp, and the
        combined rhs y.b + low.lower - upp.upper, read off vec (a tableau
        row or the reduced costs) as ints over its denominator D.

        Row i gets -sigma * vec[n+i], which the combined rhs sums;
        column j puts sigma * vec[j] on its lower bound where positive,
        its upper one where negative.  The reduced costs with sigma = 1,
        zero on basic columns, give the duals (min convention).  The row
        blocking the dual simplex, sigma = 1 when its basic variable
        lies below its lower bound and -1 above its upper one, gives a
        certificate: every entry sits where its column cannot move that
        variable back, so the rhs is how far it lies outside its bound.
        """
        n = self.n
        y = [-sigma * vec[n + i] for i in range(self.m)]
        total = sum(v * b for v, b in zip(y, self.rhs) if v)
        low = [0] * n
        upp = [0] * n
        for j in range(n):
            v = sigma * vec[j]
            if not v:
                continue
            bound = self.lo[j] if v > 0 else self.up[j]
            if bound is None:
                raise InternalError(f"multiplier on the missing bound of {j}")
            if v > 0:
                low[j] = v
            else:
                upp[j] = -v
            total += v * bound
        return y, low, upp, total

    def _optimal_outcome(self):
        # structural values as ints over D, checked with the dual on ints
        D = self.D
        x = [self.bound_value(j) * D for j in range(self.n)]
        for i in range(self.m):
            if self.basis[i] < self.n:
                x[self.basis[i]] = self.B[i]
        cost = self.cost
        primal = sum(cost[j] * v for j, v in enumerate(x) if cost[j] and v)
        y, low, upp, dual = self._multipliers(self.d, 1)
        if dual != primal:
            raise InternalError("strong duality failed, simplex bug")
        if _first_violation(self.lp, x, D) is not None:
            raise InternalError("the optimum lies outside its program, simplex bug")
        # a max program was solved as the min of its negation
        sign = 1 if self.minimize else -1
        value = Fraction(sign * primal, D)

        def dual_info():
            return DualInfo(
                _fractions(y, D, sign), _fractions(low, D, sign), _fractions(upp, D, sign),
                value,
            )

        return LpOutcome(
            "optimal", tuple(x), D, value, dual=dual_info, program=self.lp, simplex=self
        )


def _certified(lp: LinearProgram, cert: FarkasCertificate) -> LpOutcome:
    if not verify_certificate(lp, cert):
        raise InternalError("a Farkas certificate fails verification")
    return LpOutcome(status="infeasible", certificate=cert, program=lp)


def _fractions(values, den, sign=1):
    return tuple(Fraction(sign * v, den) if v else _ZERO for v in values)


def solve(lp: LinearProgram, start: LpOutcome = None) -> LpOutcome:
    """Solve lp exactly: cold, or warm from start.

    "optimal" comes with a basic solution (a vertex whenever the
    feasible region is pointed) checked against lp, its value, and a
    dual of equal value; "infeasible" with a verified Farkas certificate.
    Cold, the dual simplex starts from the slack basis, which needs
    every cost, in min form, to point to a finite bound of its column;
    otherwise ValueError names the first column whose cost does not.

    start, when given, is an optimal or infeasible outcome of a program
    that lp extends: lp has its variables, bounds, objective and sense,
    and lp's rows begin with its rows, in order (shared, as
    LinearProgram.extended does, or equal); otherwise ValueError.  From
    an optimum, the new rows enter a copy of its tableau and the same
    dual simplex re-solves from its basis (_Simplex.resolved).  From
    "infeasible", start's certificate with zero multipliers on the new
    rows is verified against lp and returned, with no simplex run.
    start is never changed.  Identical input and identical starts always
    take the identical pivot path, so results are deterministic.
    """
    if start is None:
        return _Simplex(lp)._run()
    base = start.program
    if (
        (lp.num_vars, lp.sense, lp.objective, lp.lower, lp.upper)
        != (base.num_vars, base.sense, base.objective, base.lower, base.upper)
        or len(lp.constraints) < len(base.constraints)
        or any(a is not b and a != b for a, b in zip(lp.constraints, base.constraints))
    ):
        raise ValueError("lp does not extend the program of start")
    if start.status == "optimal":
        return start._simplex.resolved(lp)
    cert = start.certificate
    pad = (0,) * (len(lp.constraints) - len(base.constraints))
    return _certified(lp, replace(cert, row_mults=cert.row_mults + pad))

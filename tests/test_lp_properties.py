"""Property tests of the exact simplex on small random rational programs.

Every outcome is checked exactly (membership, strong duality, Farkas
certificate) and against scipy's HiGHS in floating point.  The float
comparison lives only here; the solver path stays exact.

Every drawn program is one lp.solve takes: costs and bounds are ints,
drawn some as ints and some as integral Fractions, rows rational, and
each cost, in min form, points to a finite bound of its column, so no
program is unbounded.
HiGHS may still call an infeasible program "unbounded or infeasible",
so feasibility is asked of it with a zero objective and the optimum
separately.
"""

import copy
import dataclasses
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
scipy_opt = pytest.importorskip("scipy.optimize")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from colorful_kcenter import lp  # noqa: E402

denominators = st.sampled_from([1, 1, 2, 3, 4, 5, 7])
rationals = st.builds(Fraction, st.integers(-6, 6), denominators)
# costs and bounds: ints, as ints or as integral Fractions
wholes = st.integers(-6, 6) | st.builds(Fraction, st.integers(-6, 6))
widths = st.integers(0, 8) | st.builds(Fraction, st.integers(0, 8))


def min_form(objective, sense):
    return objective if sense == lp.MIN else [-c for c in objective]


@st.composite
def bounds(draw, cost):
    """A column's (lower, upper), each side drawn finite or open, but
    finite on the side cost, in min form, points to: lower when cost is
    positive, upper when it is negative."""
    lower = draw(wholes if cost > 0 else st.none() | wholes)
    if lower is None:
        return None, draw(wholes if cost < 0 else st.none() | wholes)
    width = draw(widths if cost < 0 else st.none() | widths)
    return lower, None if width is None else lower + width


@st.composite
def programs(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    objective = tuple(draw(wholes) for _ in range(n))
    sense = draw(st.sampled_from([lp.MIN, lp.MAX]))
    lower, upper = zip(*(draw(bounds(c)) for c in min_form(objective, sense)))
    program = lp.LinearProgram(n, objective, sense, lower, upper)
    for _ in range(m):
        program.add(
            tuple(draw(rationals) for _ in range(n)),
            draw(st.sampled_from([lp.LE, lp.GE, lp.EQ])),
            draw(rationals),
        )
    return program


def highs(program, objective=True):
    """scipy's status code and optimal value for the same program, or
    for it with a zero objective."""
    sign = -1 if program.sense == lp.MAX else 1
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in program.constraints:
        row = [float(v) for v in con.coeffs]
        if con.rel == lp.EQ:
            a_eq.append(row)
            b_eq.append(float(con.rhs))
        else:
            flip = 1 if con.rel == lp.LE else -1
            a_ub.append([flip * v for v in row])
            b_ub.append(flip * float(con.rhs))
    ref = scipy_opt.linprog(
        [sign * float(v) if objective else 0.0 for v in program.objective],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[
            (None if lo is None else float(lo), None if up is None else float(up))
            for lo, up in zip(program.lower, program.upper)
        ],
        method="highs",
    )
    return ref.status, sign * ref.fun if ref.status == 0 else None


@settings(max_examples=300, deadline=None)
@given(programs())
def test_outcomes_are_exact_and_agree_with_highs(program):
    out = lp.solve(program)
    if out.status == "optimal":
        assert lp.check_point(program, out.solution) is None
        d = out.dual
        dual_value = sum(
            (y * con.rhs for y, con in zip(d.row_duals, program.constraints)),
            Fraction(0),
        )
        for i in range(program.num_vars):
            if d.lower_duals[i]:
                dual_value += d.lower_duals[i] * program.lower[i]
            if d.upper_duals[i]:
                dual_value -= d.upper_duals[i] * program.upper[i]
        assert dual_value == d.objective == out.value
    elif out.status == "infeasible":
        assert lp.verify_certificate(program, out.certificate)
    feasible, _ = highs(program, objective=False)
    assert feasible in (0, 2)
    assert (out.status == "infeasible") == (feasible == 2)
    status, value = highs(program)
    if status == 0:
        assert out.status == "optimal"
        assert abs(float(out.value) - value) < 1e-7
    assert status != 3
    if out.status == "optimal":
        assert status == 0


# -- the Fraction simplex of record -----------------------------------------
#
# lp.solve keeps its tableau, basic values and checks as ints over one
# denominator.  _ReferenceSimplex is the same bounded-variable dual
# simplex over a plain Fraction tableau B^-1 [A | I] of the program's
# rows as held: the same start placement and Bland choices.  lp.solve
# must return exactly its outcomes.


def reference_verify_certificate(program, cert):
    """Farkas certificate check in Fraction arithmetic."""
    n = program.num_vars
    y, p, q = cert.row_mults, cert.lower_mults, cert.upper_mults
    if len(y) != len(program.constraints) or len(p) != n or len(q) != n:
        return False
    for yj, con in zip(y, program.constraints):
        if con.rel == lp.GE and yj < 0 or con.rel == lp.LE and yj > 0:
            return False
    for i in range(n):
        if p[i] < 0 or q[i] < 0:
            return False
        if p[i] > 0 and program.lower[i] is None:
            return False
        if q[i] > 0 and program.upper[i] is None:
            return False
    combo = [Fraction(0)] * n
    for yj, con in zip(y, program.constraints):
        for i, c in enumerate(con.coeffs):
            combo[i] += yj * c
    if any(combo[i] + p[i] - q[i] for i in range(n)):
        return False
    gap = _reference_combined_rhs(program, y, p, q)
    return gap > 0 and gap == cert.gap


def _reference_combined_rhs(program, y, low, upp):
    total = sum((yj * con.rhs for yj, con in zip(y, program.constraints)), Fraction(0))
    total += sum(low[i] * program.lower[i] for i in range(program.num_vars) if low[i])
    total -= sum(upp[i] * program.upper[i] for i in range(program.num_vars) if upp[i])
    return total


_LOWER, _UPPER, _FREE, _BASIC = range(4)
_SLACK = {lp.LE: (Fraction(0), None), lp.GE: (None, Fraction(0)), lp.EQ: (Fraction(0),) * 2}


class _ReferenceSimplex:
    def __init__(self, program):
        self.lp = program
        self.n = n = program.num_vars
        self.m = m = len(program.constraints)
        self.minimize = program.sense == lp.MIN
        self.cost = [Fraction(c if self.minimize else -c) for c in program.objective]
        self.lo = list(program.lower) + [_SLACK[con.rel][0] for con in program.constraints]
        self.up = list(program.upper) + [_SLACK[con.rel][1] for con in program.constraints]
        self.rhs = [Fraction(con.rhs) for con in program.constraints]
        self.T = [
            list(map(Fraction, con.coeffs)) + [Fraction(int(k == i)) for k in range(m)]
            for i, con in enumerate(program.constraints)
        ]
        self.basis = [n + i for i in range(m)]
        self.state = [None] * n + [_BASIC] * m  # structural ones placed by rebase
        self.d = self.cost + [Fraction(0)] * m  # the slack basis: d = c

    def frozen(self, j):
        return self.lo[j] is not None and self.lo[j] == self.up[j]

    def value(self, j):
        st = self.state[j]
        return self.lo[j] if st == _LOWER else self.up[j] if st == _UPPER else Fraction(0)

    def rebase(self):
        """Each nonbasic column at the bound its reduced cost asks for,
        and the basic values B^-1 (b - N x_N)."""
        for j, st in enumerate(self.state):
            if st == _BASIC:
                continue
            lo, up = self.lo[j], self.up[j]
            if up is not None and (self.d[j] < 0 or lo is None):
                self.state[j] = _UPPER
            else:
                self.state[j] = _FREE if lo is None else _LOWER
        x_n = [(j, self.value(j)) for j, st in enumerate(self.state) if st != _BASIC]
        self.beta = [
            sum(row[self.n + k] * b for k, b in enumerate(self.rhs))
            - sum(row[j] * v for j, v in x_n)
            for row in self.T
        ]

    def solve(self):
        self.rebase()
        return self.outcome()

    def loop(self):
        """Bland's dual simplex; None when primal feasible, else the
        blocking (row, sigma)."""
        while True:
            outside = [
                (b, i) for i, b in enumerate(self.basis)
                if self.lo[b] is not None and self.beta[i] < self.lo[b]
                or self.up[b] is not None and self.beta[i] > self.up[b]
            ]
            if not outside:
                return None
            b, r = min(outside)
            sigma = 1 if self.lo[b] is not None and self.beta[r] < self.lo[b] else -1
            enter = best = None
            for j, a in enumerate(self.T[r]):
                if not a or self.state[j] == _BASIC or self.frozen(j):
                    continue
                # raising x_j moves x_b by -a: towards its bound when sigma * a < 0
                if self.state[j] == (_UPPER if sigma * a < 0 else _LOWER):
                    continue
                ratio = abs(self.d[j] / a)
                if best is None or ratio < best:
                    enter, best = j, ratio
            if enter is None:
                return r, sigma
            self.pivot(r, enter, self.lo[b] if sigma > 0 else self.up[b])
            self.state[b] = _LOWER if sigma > 0 else _UPPER

    def pivot(self, r, e, bound):
        T = self.T
        p = T[r][e]
        delta = (self.beta[r] - bound) / p
        for i, row in enumerate(T):
            self.beta[i] -= row[e] * delta
        self.beta[r] = self.value(e) + delta
        T[r] = [v / p for v in T[r]]
        for i, row in enumerate(T):
            if i != r and row[e]:
                f = row[e]
                T[i] = [v - f * w for v, w in zip(row, T[r])]
        f = self.d[e]
        self.d = [v - f * w for v, w in zip(self.d, T[r])]
        self.basis[r] = e
        self.state[e] = _BASIC

    def outcome(self):
        blocked = self.loop()
        if blocked is not None:
            return self._infeasible_outcome(*blocked)
        return self._optimal_outcome()

    def _bound_multipliers(self, vec, sigma):
        low = [Fraction(0)] * self.n
        upp = [Fraction(0)] * self.n
        for j in range(self.n):
            v = sigma * vec[j]
            if v > 0:
                if self.lp.lower[j] is None:
                    raise lp.InternalError(f"multiplier on missing lower bound {j}")
                low[j] = v
            elif v < 0:
                if self.lp.upper[j] is None:
                    raise lp.InternalError(f"multiplier on missing upper bound {j}")
                upp[j] = -v
        return low, upp

    def _optimal_outcome(self):
        x = [self.value(j) for j in range(self.n)]
        for i, b in enumerate(self.basis):
            if b < self.n:
                x[b] = self.beta[i]
        value = sum((c * v for c, v in zip(self.cost, x)), Fraction(0))
        y = [-self.d[self.n + i] for i in range(self.m)]
        low, upp = self._bound_multipliers(self.d, 1)
        if not self.minimize:
            value = -value
            y, low, upp = [-v for v in y], [-v for v in low], [-v for v in upp]
        dual_obj = _reference_combined_rhs(self.lp, y, low, upp)
        if dual_obj != value:
            raise lp.InternalError("strong duality failed, simplex bug")
        dual = lp.DualInfo(tuple(y), tuple(low), tuple(upp), dual_obj)
        return lp.LpOutcome(status="optimal", point=tuple(x), value=value, dual=dual)

    def _infeasible_outcome(self, r, sigma):
        row = self.T[r]
        y = [-sigma * row[self.n + i] for i in range(self.m)]
        low, upp = self._bound_multipliers(row, sigma)
        gap = _reference_combined_rhs(self.lp, y, low, upp)
        cert = lp.FarkasCertificate(tuple(y), tuple(low), tuple(upp), gap)
        if not reference_verify_certificate(self.lp, cert):
            raise lp.InternalError("the blocking row gave a bad certificate")
        return lp.LpOutcome(status="infeasible", certificate=cert)


def reference_solve(program):
    """The Fraction simplex of record for lp.solve."""
    return _ReferenceSimplex(program).solve()


def numbers(outcome):
    """Every exact number an outcome carries."""
    out = list(outcome.solution or ())
    if outcome.value is not None:
        out.append(outcome.value)
    for info in (outcome.dual, outcome.certificate):
        if info is not None:
            for part in dataclasses.astuple(info):
                out.extend(part if isinstance(part, tuple) else (part,))
    return out


small_ints = st.integers(-6, 6)
# ints, and Fractions with denominators 1 to 7
mixed = small_ints | st.builds(Fraction, small_ints, st.integers(1, 7))
# ints, as ints or as integral Fractions: costs and bounds
mixed_wholes = small_ints | st.builds(Fraction, small_ints)


@st.composite
def mixed_bounds(draw, cost):
    """A column's bounds of a drawn kind, among the kinds with a finite
    bound on the side cost, in min form, points to."""
    kinds = ["free", "lower", "upper", "boxed", "boxed", "fixed"]
    if cost:
        # drop the kinds open on that side
        kinds = [k for k in kinds if k not in ("free", "upper" if cost > 0 else "lower")]
    kind = draw(st.sampled_from(kinds))
    lo = draw(mixed_wholes)
    if kind == "free":
        return None, None
    if kind == "lower":
        return lo, None
    if kind == "upper":
        return None, lo
    if kind == "fixed":
        return lo, lo
    return lo, lo + draw(st.integers(1, 8) | st.builds(Fraction, st.integers(1, 8)))


@st.composite
def mixed_programs(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 5))
    objective = tuple(draw(mixed_wholes) for _ in range(n))
    sense = draw(st.sampled_from([lp.MIN, lp.MAX]))
    lower, upper = zip(*(draw(mixed_bounds(c)) for c in min_form(objective, sense)))
    program = lp.LinearProgram(n, objective, sense, lower, upper)
    for _ in range(m):
        program.add(
            [draw(mixed) for _ in range(n)],
            draw(st.sampled_from([lp.LE, lp.GE, lp.EQ])),
            draw(mixed),
        )
    return program


@settings(max_examples=400, deadline=None)
@given(mixed_programs())
def test_solve_equals_the_fraction_reference(program):
    out = lp.solve(program)
    assert out == reference_solve(program)
    assert all(type(v) is Fraction for v in numbers(out))
    if out.status == "infeasible":
        cert = out.certificate
        assert reference_verify_certificate(program, cert)
        # a wrong gap, or lower multipliers moved with the gap to match,
        # is judged alike by both checks
        moved = tuple(
            v if lo is None else v + 1 for v, lo in zip(cert.lower_mults, program.lower)
        )
        moved_gap = _reference_combined_rhs(program, cert.row_mults, moved, cert.upper_mults)
        for bad in (
            dataclasses.replace(cert, gap=cert.gap + 1),
            dataclasses.replace(cert, lower_mults=moved, gap=moved_gap),
        ):
            assert lp.verify_certificate(program, bad) == reference_verify_certificate(
                program, bad
            )


@st.composite
def degenerate_programs(draw):
    """mixed_programs with ties in the dual ratio test: some columns
    are copies of others (coefficients and cost times 1 or 2, the same
    bounds), so their ratios |d_j| / |T[r][j]| stay equal on every
    tableau, and the columns are shuffled."""
    base = draw(mixed_programs())
    n = base.num_vars
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([1, 2])),
                           min_size=1, max_size=3))
    cols = [(j, 1) for j in range(n)] + copies
    order = draw(st.permutations(range(len(cols))))
    cols = [cols[i] for i in order]
    return lp.LinearProgram(
        len(cols),
        tuple(f * base.objective[j] for j, f in cols),
        base.sense,
        tuple(base.lower[j] for j, _ in cols),
        tuple(base.upper[j] for j, _ in cols),
        [([f * con.coeffs[j] for j, f in cols], con.rel, con.rhs)
         for con in base.constraints],
    )


@settings(max_examples=200, deadline=None)
@given(degenerate_programs())
def test_ties_in_the_ratio_test_go_to_the_lowest_index(program):
    assert lp.solve(program) == reference_solve(program)


@st.composite
def scaled_rows(draw):
    """(program, scaled, i, factor): scaled is program with row i's
    coefficients and rhs times a drawn rational > 0 or an int 1 to 3.
    Each row is held as its ints, each number times the lcm of the row's
    denominators, so scaled holds program's row i times factor, the
    drawn number times that lcm."""
    program = draw(st.one_of(programs(), mixed_programs(), degenerate_programs()))
    assume(program.constraints)
    rows = [(con.coeffs, con.rel, con.rhs) for con in program.constraints]
    i = draw(st.integers(0, len(rows) - 1))
    coeffs, rel, rhs = rows[i]
    if draw(st.booleans()):
        drawn = draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 7)))
    else:
        drawn = draw(st.integers(1, 3))
    rows[i] = ([drawn * v for v in coeffs], rel, drawn * rhs)
    factor = drawn * math.lcm(*(Fraction(v).denominator for v in rows[i][0] + [rows[i][2]]))
    scaled = lp.LinearProgram(
        program.num_vars, program.objective, program.sense, program.lower, program.upper, rows
    )
    return program, scaled, i, factor


@settings(max_examples=400, deadline=None)
@given(scaled_rows())
def test_scaling_a_row_changes_no_choice(case):
    """A positive factor on one row changes no sign or ratio the dual
    simplex compares, so every Bland choice is the same: the same status,
    point and value, row i's dual divided by the factor, and a
    certificate that is a positive multiple of the old one with row i's
    multiplier divided by the factor."""
    program, scaled, i, factor = case
    held, row = program.constraints[i], scaled.constraints[i]
    assert (row.coeffs, row.rhs) == (tuple(factor * v for v in held.coeffs), factor * held.rhs)
    out, got = lp.solve(program), lp.solve(scaled)
    assert got.status == out.status
    assert got.solution == out.solution and got.value == out.value
    if out.status == "optimal":
        duals = list(out.dual.row_duals)
        duals[i] /= factor
        assert got.dual.row_duals == tuple(duals)
    if out.status == "infeasible":
        assert lp.verify_certificate(scaled, got.certificate)
        assert reference_verify_certificate(scaled, got.certificate)
        cert = out.certificate
        mults = list(cert.row_mults)
        mults[i] /= factor
        t = got.certificate.gap / cert.gap
        assert t > 0
        assert got.certificate == lp.FarkasCertificate(
            *(tuple(t * v for v in part) for part in (mults, cert.lower_mults, cert.upper_mults)),
            t * cert.gap,
        )


# -- the optimum as ints -----------------------------------------------------
#
# An optimum hands over its point as ints over den, and solution is the
# Fraction view of it; lp checks every optimum's point against its program.


@settings(max_examples=300, deadline=None)
@given(st.one_of(programs(), mixed_programs()))
def test_solution_is_the_point_over_den(program):
    out = lp.solve(program)
    if out.status == "optimal":
        assert all(type(v) is int for v in out.point) and type(out.den) is int
        assert out.den > 0
        assert out.solution == tuple(Fraction(v, out.den) for v in out.point)
    else:
        assert out.point is None and out.solution is None


def test_an_optimum_outside_its_program_is_refused():
    """A zero-cost basic variable pushed past its upper bound keeps
    strong duality, and the point check inside lp refuses it."""
    program = lp.LinearProgram(
        2, (1, 0), lp.MIN, (0, 0), (1, 1), [((-1, 1), lp.EQ, Fraction(1, 2))]
    )
    out = lp.solve(program)
    assert out.solution == (0, Fraction(1, 2))
    simplex = copy.deepcopy(out._simplex)
    assert simplex._optimal_outcome() == out
    i = simplex.basis.index(1)
    assert simplex.cost[1] == 0
    simplex.B[i] = 2 * simplex.D  # x1 = 2, above its bound 1
    with pytest.raises(lp.InternalError, match="outside its program"):
        simplex._optimal_outcome()


# -- one row-entry path, one pivot loop ---------------------------------------
#
# A cold solve enters its rows through the same _Simplex._append as a warm
# re-solve enters its new ones, so where the rows are split between the
# two must not matter; and both then run the same dual simplex.


def tableau(simplex):
    """Everything the tableau holds before a pivot."""
    return tuple(
        getattr(simplex, name)
        for name in ("T", "D", "B", "rhs", "lo", "up", "basis", "state")
    )


@settings(max_examples=300, deadline=None)
@given(mixed_programs())
def test_rows_appended_to_a_prefix_build_the_same_tableau(program):
    whole = tableau(lp._Simplex(program))
    rows = program.constraints
    for k in range(len(rows) + 1):
        prefix = lp.LinearProgram(
            program.num_vars, program.objective, program.sense,
            program.lower, program.upper, rows[:k],
        )
        split = lp._Simplex(prefix)
        split._append(rows[k:])
        assert tableau(split) == whole, k


@settings(max_examples=400, deadline=None)
@given(st.one_of(programs(), mixed_programs()))
def test_a_cold_solve_is_a_warm_solve_from_the_rowless_program(program):
    """Cold and warm solves run one pivot loop: the program without rows
    is optimal at its slack basis, as every cost points to a finite
    bound, and a cold solve takes the path of a re-solve from that
    optimum, and ends with the same outcome."""
    rowless = lp.LinearProgram(
        program.num_vars, program.objective, program.sense, program.lower, program.upper
    )
    start = lp.solve(rowless)
    assert start.status == "optimal"
    assert lp.solve(program) == lp.solve(program, start)


# -- warm re-solves -----------------------------------------------------------
#
# lp.solve(program, start) re-solves a program that extends start's from
# start, an earlier optimal outcome (dual simplex) or infeasible one (its
# certificate padded with zeros).  Each warm outcome must say what a cold
# solve of the same program says, with its own exact checks passing, and
# must leave its start as it was.


def mixed_rows(n):
    return st.tuples(
        st.lists(mixed, min_size=n, max_size=n),
        st.sampled_from([lp.LE, lp.GE, lp.EQ]),
        mixed,
    )


def built_with(program, rows):
    """program with rows appended, as a new program built from scratch."""
    added = lp.LinearProgram(program.num_vars, program.objective, constraints=rows)
    return lp.LinearProgram(
        program.num_vars, program.objective, program.sense,
        program.lower, program.upper, program.constraints + added.constraints,
    )


@st.composite
def warm_sequences(draw):
    """A program, then a list of steps (back, rows): one or two rows
    added to the program of the outcome back steps before the last
    (0: the last one), solved from that outcome."""
    program = draw(mixed_programs())
    n = program.num_vars
    steps = [
        (draw(st.integers(0, 2)), draw(st.lists(mixed_rows(n), min_size=1, max_size=2)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return program, steps


def assert_same_as_cold(program, warm):
    cold = lp.solve(program)
    assert warm.status == cold.status
    if warm.status == "optimal":
        assert warm.value == cold.value
        assert lp.check_point(program, warm.solution) is None
        d = warm.dual
        assert len(d.row_duals) == len(program.constraints)
        assert _reference_combined_rhs(
            program, d.row_duals, d.lower_duals, d.upper_duals
        ) == d.objective == warm.value
    elif warm.status == "infeasible":
        assert lp.verify_certificate(program, warm.certificate)
        assert reference_verify_certificate(program, warm.certificate)


@settings(max_examples=400, deadline=None)
@given(warm_sequences())
def test_warm_resolves_agree_with_cold_solves(case):
    program, steps = case
    outcomes = [lp.solve(program)]
    for back, rows in steps:
        start = outcomes[max(len(outcomes) - 1 - back, 0)]
        program = built_with(start.program, rows)
        out = lp.solve(program, start)
        assert out.program is program
        assert_same_as_cold(program, out)
        outcomes.append(out)


def contradicting(program, rows):
    """program with rows and a pair of rows no point meets."""
    coeffs = (1,) * program.num_vars
    return built_with(program, [*rows, (coeffs, lp.LE, 0), (coeffs, lp.GE, 1)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_start_is_left_as_it_was(data):
    """Solves from one start, optimal or infeasible, are alike and leave
    it as it was: its solution, value and dual stay those of a cold
    solve.  From "infeasible" the certificate is the start's with zeros
    appended.  A program that does not extend the start's is refused."""
    program = data.draw(mixed_programs())
    rows = st.lists(mixed_rows(program.num_vars), min_size=1, max_size=2)
    for start_program in (program, contradicting(program, data.draw(rows))):
        start = lp.solve(start_program)
        before = (start.status, start.solution, start.value, start.certificate)
        longer = built_with(start_program, data.draw(rows))
        got = lp.solve(longer, start)
        assert_same_as_cold(longer, got)
        assert lp.solve(longer, start) == got
        assert lp.solve(start_program, start) == start
        if start.status == "infeasible":
            cert = start.certificate
            pad = (0,) * (len(longer.constraints) - len(start_program.constraints))
            assert got.certificate == dataclasses.replace(
                cert, row_mults=cert.row_mults + pad
            )
        elif got.status == "optimal":
            again = built_with(longer, data.draw(rows))
            assert_same_as_cold(again, lp.solve(again, got))
        assert (start.status, start.solution, start.value, start.certificate) == before
        assert start == lp.solve(start_program)  # the dual too, built only now
        for other in not_extending(start_program):
            with pytest.raises(ValueError):
                lp.solve(other, start)


def not_extending(program):
    """Programs whose rows do not begin with program's, or with other
    variables, objective or sense."""
    n, rows = program.num_vars, list(program.constraints)
    frame = (program.objective, program.sense, program.lower, program.upper)
    other_sense = lp.MAX if program.sense == lp.MIN else lp.MIN
    got = [
        lp.LinearProgram(n, (program.objective[0] + 1, *program.objective[1:]),
                         *frame[1:], rows),
        lp.LinearProgram(n, program.objective, other_sense, *frame[2:], rows),
        lp.LinearProgram(n + 1, program.objective + (0,), program.sense,
                         program.lower + (0,), program.upper + (None,)),
    ]
    if rows:
        first = rows[0]
        changed = (first.coeffs, first.rel, first.rhs + 1)
        got.append(lp.LinearProgram(n, *frame, [changed, *rows[1:]]))
        got.append(lp.LinearProgram(n, *frame, rows[:-1]))
    return got


def fields(program):
    """Everything a program holds, each row as its ints."""
    return (
        program.num_vars, program.objective, program.sense, program.lower, program.upper,
        [(c.coeffs, c.rel, c.rhs) for c in program.constraints],
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_extended_equals_a_program_built_from_scratch(data):
    """program.extended(rows) holds what a program built from scratch
    with the same rows holds, and leaves program as it was, also after
    the result is extended again."""
    program = data.draw(mixed_programs())
    before = fields(program)
    rows = st.lists(mixed_rows(program.num_vars), max_size=3)
    first, more = data.draw(rows), data.draw(rows)
    got = program.extended(first)
    assert fields(got) == fields(built_with(program, first))
    again = got.extended(more)
    assert fields(again) == fields(built_with(program, first + more))
    assert fields(got) == fields(built_with(program, first))
    assert fields(program) == before

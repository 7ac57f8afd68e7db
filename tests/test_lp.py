"""Exact simplex engine against an independent vertex-enumeration oracle."""

import ast
import dataclasses
import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import colorful_kcenter
from colorful_kcenter import lp


def gauss_solve(rows, rhs):
    """Solve a square rational system by elimination; None if singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def oracle_optimum(program):
    """Best objective over all vertices of a bounded-region program.

    Enumerates every choice of n tight conditions (rows as equalities
    or variables at a finite bound), solves the square system, keeps
    feasible points.  Only valid when the region is bounded, so the
    optimum is attained at some vertex.
    """
    n = program.num_vars
    conditions = []
    for j, con in enumerate(program.constraints):
        conditions.append((con.coeffs, con.rhs))
    for i in range(n):
        unit = tuple(Fraction(int(i == j)) for j in range(n))
        if program.lower[i] is not None:
            conditions.append((unit, program.lower[i]))
        if program.upper[i] is not None:
            conditions.append((unit, program.upper[i]))
    best = None
    feasible = False
    for combo in itertools.combinations(range(len(conditions)), n):
        point = gauss_solve(
            [conditions[i][0] for i in combo], [conditions[i][1] for i in combo]
        )
        if point is None:
            continue
        if lp.check_point(program, point) is not None:
            continue
        feasible = True
        value = sum(
            (c * v for c, v in zip(program.objective, point)), Fraction(0)
        )
        if best is None:
            best = value
        elif program.sense == lp.MIN:
            best = min(best, value)
        else:
            best = max(best, value)
    return best if feasible else None


def random_box_program(rng):
    n = rng.randint(1, 4)
    m = rng.randint(0, 4)
    objective = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
    lower = tuple(Fraction(rng.randint(-3, 0)) for _ in range(n))
    upper = tuple(lo + rng.randint(0, 5) for lo in lower)
    program = lp.LinearProgram(
        n,
        objective,
        rng.choice([lp.MIN, lp.MAX]),
        lower,
        upper,
    )
    for _ in range(m):
        coeffs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        rel = rng.choice([lp.LE, lp.GE, lp.EQ])
        program.add(coeffs, rel, Fraction(rng.randint(-6, 6)))
    return program


def test_hand_cases():
    # max x + y inside a triangle, whose rows imply x, y <= 2
    program = lp.LinearProgram(
        2,
        (Fraction(1), Fraction(1)),
        lp.MAX,
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(2)),
        [((Fraction(1), Fraction(2)), lp.LE, Fraction(4)),
         ((Fraction(2), Fraction(1)), lp.LE, Fraction(4))],
    )
    out = lp.solve(program)
    assert out.status == "optimal"
    assert out.value == Fraction(8, 3)

    # equality pins the solution
    program = lp.LinearProgram(
        2,
        (Fraction(3), Fraction(-1)),
        lp.MIN,
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(2)),
        [((Fraction(1), Fraction(1)), lp.EQ, Fraction(2))],
    )
    out = lp.solve(program)
    assert out.status == "optimal"
    assert out.value == -2
    assert out.solution == (Fraction(0), Fraction(2))


def test_restricted_dual_seed_case():
    # an equality row and a -1 lower bound: min mu with
    # sum(p.alpha) - mu == 1, mu >= -1 and no other rows, optimal at
    # alpha = 0 with no pivot
    program = lp.LinearProgram(
        3,
        (Fraction(0), Fraction(0), Fraction(1)),
        lp.MIN,
        (Fraction(0), Fraction(0), Fraction(-1)),
    )
    program.add((Fraction(1, 2), Fraction(1, 3), Fraction(-1)), lp.EQ, 1)
    out = lp.solve(program)
    assert out.status == "optimal"
    assert out.value == -1
    assert out.solution == (Fraction(0), Fraction(0), Fraction(-1))


def test_infeasible_has_verified_certificate():
    program = lp.LinearProgram(
        2,
        (Fraction(0), Fraction(0)),
        lp.MIN,
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)),
        [((Fraction(1), Fraction(1)), lp.GE, Fraction(3))],
    )
    out = lp.solve(program)
    assert out.status == "infeasible"
    assert lp.verify_certificate(program, out.certificate)


@pytest.mark.parametrize("sense, cost, lower, upper, side", [
    (lp.MIN, 1, None, 5, "lower"),
    (lp.MAX, -1, None, 5, "lower"),
    (lp.MIN, -1, 0, None, "upper"),
    (lp.MAX, 1, 0, None, "upper"),
], ids=["min-lower", "max-lower", "min-upper", "max-upper"])
def test_a_cost_past_an_open_side_is_refused(sense, cost, lower, upper, side):
    """A cold solve needs the slack basis dual feasible: every cost, in
    min form, pointing to a finite bound of its column.  The error names
    the first column whose cost does not."""
    program = lp.LinearProgram(
        3, (0, cost, cost), sense, (None, lower, lower), (None, upper, upper),
        [((1, 1, 1), lp.LE, 4)],
    )
    with pytest.raises(ValueError, match=f"column 1 has no {side} bound"):
        lp.solve(program)


def test_a_zero_cost_free_column_solves():
    # x free at zero cost, y >= 0 at cost 1: x + y >= 2 puts x at 2
    program = lp.LinearProgram(
        2, (0, 1), lp.MIN, (None, 0), (None, None), [((1, 1), lp.GE, 2)]
    )
    out = lp.solve(program)
    assert out.status == "optimal"
    assert out.value == 0 and out.solution == (2, 0)


def test_matches_vertex_oracle_on_random_boxes():
    rng = random.Random(7)
    optimal = infeasible = 0
    for _ in range(250):
        program = random_box_program(rng)
        out = lp.solve(program)
        want = oracle_optimum(program)
        if want is None:
            infeasible += 1
            assert out.status == "infeasible"
            assert lp.verify_certificate(program, out.certificate)
        else:
            optimal += 1
            assert out.status == "optimal"
            assert out.value == want
            assert lp.check_point(program, out.solution) is None
    assert optimal > 50 and infeasible > 50  # both branches well fed


def test_dual_objective_identity():
    rng = random.Random(11)
    for _ in range(150):
        program = random_box_program(rng)
        out = lp.solve(program)
        if out.status != "optimal":
            continue
        d = out.dual
        value = sum(
            (y * con.rhs for y, con in zip(d.row_duals, program.constraints)),
            Fraction(0),
        )
        for i in range(program.num_vars):
            if d.lower_duals[i]:
                value += d.lower_duals[i] * program.lower[i]
            if d.upper_duals[i]:
                value -= d.upper_duals[i] * program.upper[i]
        assert value == out.value
        assert d.objective == out.value


def test_dual_sign_conventions():
    rng = random.Random(13)
    for _ in range(150):
        program = random_box_program(rng)
        out = lp.solve(program)
        if out.status != "optimal":
            continue
        flip = 1 if program.sense == lp.MIN else -1
        for y, con in zip(out.dual.row_duals, program.constraints):
            if con.rel == lp.GE:
                assert flip * y >= 0
            elif con.rel == lp.LE:
                assert flip * y <= 0
        for pd in out.dual.lower_duals:
            assert flip * pd >= 0
        for qd in out.dual.upper_duals:
            assert flip * qd >= 0


def test_value_invariant_under_row_permutation():
    rng = random.Random(17)
    for _ in range(80):
        program = random_box_program(rng)
        out = lp.solve(program)
        order = list(range(len(program.constraints)))
        rng.shuffle(order)
        permuted = lp.LinearProgram(
            program.num_vars,
            program.objective,
            program.sense,
            program.lower,
            program.upper,
            [
                (program.constraints[i].coeffs,
                 program.constraints[i].rel,
                 program.constraints[i].rhs)
                for i in order
            ],
        )
        out2 = lp.solve(permuted)
        assert out.status == out2.status
        if out.status == "optimal":
            assert out.value == out2.value


def test_deterministic_repeat():
    rng = random.Random(19)
    for _ in range(40):
        program = random_box_program(rng)
        a = lp.solve(program)
        b = lp.solve(program)
        assert a.status == b.status
        assert a.solution == b.solution
        assert a.value == b.value


def test_basic_solutions_have_few_fractionals():
    # vertex of a covering program in the unit box: at most one
    # fractional coordinate per row
    rng = random.Random(23)
    for _ in range(150):
        q = rng.randint(2, 8)
        t = rng.randint(1, 3)
        rows = [
            tuple(Fraction(rng.randint(0, 4)) for _ in range(q)) for _ in range(t)
        ]
        rhs = [
            Fraction(rng.randint(0, int(sum(row)))) if sum(row) else Fraction(0)
            for row in rows
        ]
        program = lp.LinearProgram(
            q,
            tuple(Fraction(1) for _ in range(q)),
            lp.MIN,
            tuple(Fraction(0) for _ in range(q)),
            tuple(Fraction(1) for _ in range(q)),
            [(row, lp.GE, b) for row, b in zip(rows, rhs)],
        )
        out = lp.solve(program)
        assert out.status == "optimal"
        fractional = sum(1 for v in out.solution if 0 < v < 1)
        assert fractional <= t


def test_scipy_cross_check():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(29)
    agreed = 0
    for _ in range(120):
        program = random_box_program(rng)
        out = lp.solve(program)
        c = [float(v) for v in program.objective]
        if program.sense == lp.MAX:
            c = [-v for v in c]
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for con in program.constraints:
            row = [float(v) for v in con.coeffs]
            if con.rel == lp.LE:
                a_ub.append(row)
                b_ub.append(float(con.rhs))
            elif con.rel == lp.GE:
                a_ub.append([-v for v in row])
                b_ub.append(-float(con.rhs))
            else:
                a_eq.append(row)
                b_eq.append(float(con.rhs))
        bounds = [
            (None if lo is None else float(lo), None if up is None else float(up))
            for lo, up in zip(program.lower, program.upper)
        ]
        ref = scipy_opt.linprog(
            c,
            A_ub=a_ub or None,
            b_ub=b_ub or None,
            A_eq=a_eq or None,
            b_eq=b_eq or None,
            bounds=bounds,
            method="highs",
        )
        if ref.status == 0:
            assert out.status == "optimal"
            want = -ref.fun if program.sense == lp.MAX else ref.fun
            assert abs(float(out.value) - want) < 1e-7
            agreed += 1
        elif ref.status == 2:
            assert out.status == "infeasible"
    assert agreed > 40


# -- golden outcomes ---------------------------------------------------------
#
# Exact outcomes of small programs, equal to those of the Fraction dual
# simplex in test_lp_properties.py.  Bland's rule reads only signs and exact
# ratios, so any exact tableau must take the same pivot path and reproduce
# every vertex, dual and certificate here byte for byte.  A cold solve
# takes only programs whose costs point to finite bounds, so its slack
# basis is dual feasible; where a cost needs a bound that the rows
# already imply, the program states one that cuts off no feasible point.
# A program with a cost pointing past an open side is refused, and its
# line is the error, which names the first such column.


def golden_program(n, objective, sense, lower, upper, rows):
    def frac(values):
        if values is None:
            return None
        return tuple(None if v is None else Fraction(v) for v in values)

    return lp.LinearProgram(
        n,
        frac(objective),
        sense,
        frac(lower),
        frac(upper),
        [(frac(coeffs), rel, Fraction(rhs)) for coeffs, rel, rhs in rows],
    )


GOLDEN_PROGRAMS = {
    # rows with coefficient denominators 6 and 5 are held as their ints
    # 3x + 2y <= 6 and 4x + 10y <= 15, which imply the upper bounds
    "mixed_denominators": golden_program(
        2, ("1", "1"), lp.MAX, None, ("2", "2"),
        [(("1/2", "1/3"), lp.LE, "1"), (("2/5", "1"), lp.LE, "3/2")],
    ),
    # pivots on negative entries, both at |p| == D and, with D > 1, at |p| != D
    "negative_pivots": golden_program(
        3, ("2", "-2", "2"), lp.MAX, ("0", "-1", "-1"), ("4", None, "2"),
        [(("-1", "-3", "2"), lp.GE, "1"), (("1", "0", "-1"), lp.EQ, "1"),
         (("2", "2", "2"), lp.LE, "0")],
    ),
    # equality rows the slack start does not meet: both fixed slacks leave
    "equality_artificials": golden_program(
        3, ("1", "2", "3"), lp.MIN, None, None,
        [(("1", "1", "1"), lp.EQ, "4"), (("1", "-1", "0"), lp.EQ, "1")],
    ),
    # the second row is twice the first: its fixed slack stays basic at 0
    "redundant_equality": golden_program(
        2, ("1", "-1"), lp.MIN, None, (None, "3"),
        [(("1", "1"), lp.EQ, "2"), (("2", "2"), lp.EQ, "4")],
    ),
    # boxed variables start at the bound their cost prefers: optimal with
    # no pivot
    "bound_flips": golden_program(
        2, ("2", "1"), lp.MAX, ("0", "0"), ("1", "3"),
        [(("1", "1"), lp.LE, "10")],
    ),
    "infeasible_rational_rows": golden_program(
        2, ("0", "0"), lp.MIN, ("0", "0"), ("1", "1"),
        [(("1/2", "1/3"), lp.GE, "2"), (("1", "-1"), lp.LE, "1/2")],
    ),
    # x/2 <= -1/3 is held as 3x <= -2, and the certificate is that row's
    "infeasible_scaled_slack": golden_program(
        2, ("1", "0"), lp.MIN, ("0", "0"), None,
        [(("1/2", "0"), lp.LE, "-1/3")],
    ),
    "infeasible_equalities": golden_program(
        2, ("1", "0"), lp.MAX, None, ("3", None),
        [(("1", "1"), lp.EQ, "1"), (("2", "2"), lp.EQ, "3")],
    ),
    # an equality row and a -1 lower bound: min mu >= -1 with
    # p.alpha - mu == 1 and each column's cover <= mu
    "restricted_optimal": golden_program(
        4, ("0", "0", "0", "1"), lp.MIN, ("0", "0", "0", "-1"), None,
        [(("1/2", "2/3", "1/3", "-1"), lp.EQ, "1"),
         (("1", "1", "0", "-1"), lp.LE, "0"),
         (("0", "1", "0", "-1"), lp.LE, "0")],
    ),
    "restricted_infeasible": golden_program(
        4, ("0", "0", "0", "1"), lp.MIN, ("0", "0", "0", "-1"), None,
        [(("1/2", "2/3", "1/3", "-1"), lp.EQ, "1"),
         (("1", "1", "1", "-1"), lp.LE, "0")],
    ),
    # refused: a ray of negative cost
    "unbounded": golden_program(
        2, ("1", "1"), lp.MAX, None, None,
        [(("1", "-1"), lp.LE, "1")],
    ),
    # refused: a ray of negative cost, and no feasible point either
    "primal_and_dual_infeasible": golden_program(
        2, ("-1", "-1"), lp.MIN, ("0", "0"), None,
        [(("1", "-1"), lp.GE, "1"), (("-1", "1"), lp.GE, "1")],
    ),
    # refused: its free second column has a cost; the others have none
    "free_column_with_cost": golden_program(
        3, ("0", "1", "0"), lp.MAX, ("1", None, None), ("2", None, "0"),
        [(("0", "2/3", "-1"), lp.GE, "0"), (("1", "0", "-2"), lp.LE, "0")],
    ),
    # refused: the equality-row program above with mu free, its cost
    # pointing to a missing lower bound
    "restricted_free_mu": golden_program(
        4, ("0", "0", "0", "1"), lp.MIN, ("0", "0", "0", None), None,
        [(("1/2", "2/3", "1/3", "-1"), lp.EQ, "1")],
    ),
}


def golden_line(out):
    """One line with every exact number of an outcome."""
    parts = [out.status]

    def vec(tag, values):
        assert all(isinstance(v, Fraction) for v in values)
        parts.append(tag + " " + " ".join(str(v) for v in values))

    if out.status == "optimal":
        vec("x", out.solution)
        vec("v", (out.value,))
        vec("y", out.dual.row_duals)
        vec("lo", out.dual.lower_duals)
        vec("up", out.dual.upper_duals)
    elif out.status == "infeasible":
        c = out.certificate
        vec("y", c.row_mults)
        vec("lo", c.lower_mults)
        vec("up", c.upper_mults)
        vec("gap", (c.gap,))
    return " | ".join(parts)


GOLDEN_LINES = {
    "mixed_denominators": "optimal | x 15/11 21/22 | v 51/22 | y 3/11 1/22 | lo 0 0 | up 0 0",
    "negative_pivots": "optimal | x 1 -1 0 | v 4 | y 0 0 1 | lo 0 -4 0 | up 0 0 0",
    "equality_artificials": "optimal | x 5/2 3/2 0 | v 11/2 | y 3/2 -1/2 | lo 0 0 3/2 | up 0 0 0",
    "redundant_equality": "optimal | x 0 2 | v -2 | y -1 0 | lo 2 0 | up 0 0",
    "bound_flips": "optimal | x 1 3 | v 5 | y 0 | lo 0 0 | up -2 -1",
    "infeasible_rational_rows": "infeasible | y 1/2 0 | lo 0 0 | up 3/2 1 | gap 7/2",
    "infeasible_scaled_slack": "infeasible | y -1 | lo 3 0 | up 0 0 | gap 2",
    "infeasible_equalities": "infeasible | y -2 1 | lo 0 0 | up 0 0 | gap 1",
    "restricted_optimal": "optimal | x 0 0 3 0 | v 0 | y 0 -1 0 | lo 1 1 0 0 | up 0 0 0 0",
    "restricted_infeasible": "infeasible | y 1 -6 | lo 3 2 4 0 | up 0 0 0 0 | gap 6",
    "unbounded": "refused | column 0 has no upper bound, but its cost moves it that way",
    "primal_and_dual_infeasible":
        "refused | column 0 has no upper bound, but its cost moves it that way",
    "free_column_with_cost":
        "refused | column 1 has no upper bound, but its cost moves it that way",
    "restricted_free_mu":
        "refused | column 3 has no lower bound, but its cost moves it that way",
}


def _outcome_numbers(out):
    nums = list(out.solution or ()) + ([out.value] if out.value is not None else [])
    for info in (out.dual, out.certificate):
        if info is not None:
            for part in dataclasses.astuple(info):
                nums += part if isinstance(part, tuple) else (part,)
    return nums


def test_int_programs_give_fraction_outcomes():
    # ints in, Fractions out: solution, value, duals and certificate
    optimal = lp.LinearProgram(
        2, (3, 2), lp.MAX, (0, -1), (4, 2),
        [((1, 1), lp.LE, 4), ((1, 3), lp.LE, 6), ((2, -1), lp.GE, -5)],
    )
    infeasible = lp.LinearProgram(
        2, (1, 0), lp.MIN, None, (1, 1), [((1, 1), lp.GE, 3)]
    )
    outs = [lp.solve(optimal), lp.solve(infeasible)]
    assert [out.status for out in outs] == ["optimal", "infeasible"]
    assert outs[0].solution == (4, 0) and outs[0].value == 12
    assert outs[1].certificate.gap == 1
    for out in outs:
        nums = _outcome_numbers(out)
        assert nums and all(type(v) is Fraction for v in nums)


def test_bools_are_refused():
    for build in (
        lambda: lp.LinearProgram(1, (True,)),
        lambda: lp.LinearProgram(1, (0,), lp.MIN, (False,)),
        lambda: lp.LinearProgram(1, (0,), lp.MIN, None, (True,)),
        lambda: lp.LinearProgram(1, (0,), constraints=[((True,), lp.LE, 1)]),
        lambda: lp.LinearProgram(1, (0,), constraints=[((1,), lp.LE, True)]),
        lambda: lp.LinearProgram(1, (0,)).add([1], lp.GE, False),
        lambda: lp.LinearProgram(2, (0, 0)).add([1, False], lp.GE, 0),
        lambda: lp.LinearProgram(1, (0,)).add([0.5], lp.GE, 0),
    ):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(TypeError):
        lp.check_point(lp.LinearProgram(1, (0,)), (True,))


def test_malformed_programs_are_refused():
    square = lp.LinearProgram(2, (1, 1), lp.MIN, (0, 0), (1, 1), [((1, 1), lp.GE, 1)])
    for build, message in (
        (lambda: lp.LinearProgram(2, (1,)), "objective length"),
        (lambda: lp.LinearProgram(1, (1,), "maximize"), "sense must be"),
        (lambda: lp.LinearProgram(2, (1, 1), lp.MIN, (0,)), "bound vector length"),
        (lambda: lp.LinearProgram(2, (1, 1), lp.MIN, None, (1, 1, 1)),
         "bound vector length"),
        (lambda: lp.LinearProgram(1, (1,), lp.MIN, (1,), (0,)), "empty bound interval"),
        (lambda: lp.LinearProgram(1, (1,), lp.MIN, (Fraction(4, 2),), (Fraction(3, 3),)),
         "empty bound interval"),
        (lambda: lp.LinearProgram(2, (1, Fraction(1, 2))),
         "cost 1/2 of column 1 is not an integer"),
        (lambda: lp.LinearProgram(2, (1, 1), lp.MIN, (0, Fraction(-3, 2))),
         "lower bound -3/2 of column 1 is not an integer"),
        (lambda: lp.LinearProgram(2, (1, 1), lp.MIN, None, (Fraction(1, 3), None)),
         "upper bound 1/3 of column 0 is not an integer"),
        (lambda: lp.LinearProgram(1, (1,), constraints=[((1,), "<", 1)]), "bad relation"),
        (lambda: lp.LinearProgram(2, (1, 1)).add([1], lp.GE, 0), "constraint length"),
        (lambda: lp.LinearProgram(2, (1, 1)).add([1, 2, 3], lp.LE, 0),
         "constraint length"),
        (lambda: square.extended([((1, 1), lp.LE, 2), ((1,), lp.GE, 0)]),
         "constraint length"),
        (lambda: square.extended([((Fraction(1, 2),), lp.GE, 0)]), "constraint length"),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    # a refused row leaves the program it would have extended as it was
    assert len(square.constraints) == 1


def test_a_program_is_held_as_ints():
    """Integral Fraction costs and bounds become ints, and a row given
    with Fractions is held as its ints: each number times the lcm of the
    row's denominators."""
    program = lp.LinearProgram(
        2, (Fraction(3), -1), lp.MIN, (Fraction(-2), 0), (None, Fraction(4, 2)),
        [((Fraction(1, 2), Fraction(2, 3)), lp.LE, Fraction(5, 4)), ((2, 3), lp.GE, 1)],
    )
    assert (program.objective, program.lower, program.upper) == ((3, -1), (-2, 0), (None, 2))
    rows = [(c.coeffs, c.rel, c.rhs) for c in program.constraints]
    assert rows == [((6, 8), lp.LE, 15), ((2, 3), lp.GE, 1)]
    numbers = [*program.objective, *program.lower, program.upper[1]]
    numbers += [v for coeffs, _, rhs in rows for v in (*coeffs, rhs)]
    assert all(type(v) is int for v in numbers)


def test_int_and_fraction_rows_solve_alike():
    rng = random.Random(11)
    statuses = set()
    for _ in range(80):
        n = rng.randint(1, 4)
        sense = rng.choice([lp.MIN, lp.MAX])
        objective = [rng.randint(-5, 5) for _ in range(n)]
        lower = [rng.randint(-3, 0) for _ in range(n)]
        # a cost that asks its column to rise gets an upper bound
        rising = [c > 0 if sense == lp.MAX else c < 0 for c in objective]
        upper = [
            lo + rng.randint(0, 5) if rng.random() < 0.7 or up else None
            for lo, up in zip(lower, rising)
        ]
        rows = [
            ([rng.randint(-4, 4) for _ in range(n)], rng.choice([lp.LE, lp.GE, lp.EQ]),
             rng.randint(-6, 6))
            for _ in range(rng.randint(0, 4))
        ]

        def whole(v):
            return None if v is None else Fraction(v, 1)

        out = lp.solve(lp.LinearProgram(n, objective, sense, lower, upper, rows))
        assert out == lp.solve(lp.LinearProgram(
            n, [whole(v) for v in objective], sense,
            [whole(v) for v in lower], [whole(v) for v in upper],
            [([whole(v) for v in row], rel, whole(b)) for row, rel, b in rows],
        ))
        statuses.add(out.status)
    assert statuses == {"optimal", "infeasible"}


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_golden_outcomes(name):
    try:
        line = golden_line(lp.solve(GOLDEN_PROGRAMS[name]))
    except ValueError as refused:
        line = f"refused | {refused}"
    assert line == GOLDEN_LINES[name]


def test_invariant_checks_survive_optimize_flag():
    # under python -O a failed certificate check must still raise
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from colorful_kcenter import lp
        assert False, "python -O must strip this"
        lp.verify_certificate = lambda program, cert: False
        program = lp.LinearProgram(
            1, (Fraction(0),), lp.MIN, (Fraction(0),), (Fraction(1),),
            [((Fraction(1),), lp.GE, Fraction(2))],
        )
        try:
            lp.solve(program)
        except lp.InternalError:
            sys.exit(0)
        sys.exit(5)
        """
    )
    env = dict(os.environ)
    # the directory holding the package this process imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(colorful_kcenter.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()


def test_a_forged_certificate_cannot_start_a_solve():
    """A solve from an infeasible start pads its certificate and
    verifies it against the longer program, so a forged one raises
    instead of proving the program infeasible."""
    program = lp.LinearProgram(2, (0, 0), lp.MIN, (0, 0), (1, 1), [([1, 1], lp.GE, 3)])
    out = lp.solve(program)
    assert out.status == "infeasible"
    rows = [([1, 0], lp.LE, Fraction(1, 2))]
    padded = lp.solve(program.extended(rows), out)
    assert padded.certificate.row_mults == out.certificate.row_mults + (0,)
    cert = out.certificate
    for forged in (
        dataclasses.replace(cert, gap=cert.gap + 1),
        dataclasses.replace(cert, row_mults=tuple(-y for y in cert.row_mults)),
        dataclasses.replace(cert, lower_mults=(1, 0)),
    ):
        assert not lp.verify_certificate(program, forged)
        start = lp.LpOutcome("infeasible", certificate=forged, program=program)
        with pytest.raises(lp.InternalError, match="fails verification"):
            lp.solve(program.extended(rows), start)


def test_package_has_no_assert_statements():
    # invariant checks must raise; python -O strips every assert
    package = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src", "colorful_kcenter",
    )
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [
                f"{name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Assert)
            ]
    assert found == []


def test_internal_error_is_one_class():
    from colorful_kcenter import InternalError, solver

    assert InternalError is solver.InternalError is lp.InternalError


def test_solve_refuses_a_start_whose_program_it_does_not_extend():
    program = lp.LinearProgram(2, (1, 1), lp.MAX, (0, 0), (1, 1))
    program.add([1, 1], lp.LE, 1)
    program.add([1, -1], lp.GE, 0)
    out = lp.solve(program)
    assert out.status == "optimal"
    empty = program.extended([([1, 1], lp.GE, 2)])
    empty_out = lp.solve(empty)
    assert empty_out.status == "infeasible"
    new = ([1, 0], lp.LE, Fraction(1, 3))
    rows = program.constraints

    def built(num_vars=2, objective=(1, 1), sense=lp.MAX, bounds=((0, 0), (1, 1)),
              rows=(rows[0], rows[1])):
        return lp.LinearProgram(num_vars, objective, sense, *bounds, [*rows, new])

    for bad in (
        built(rows=(rows[0], ([1, -1], lp.GE, 1))),  # one row changed
        built(rows=(rows[1], rows[0])),
        built(rows=(rows[0],)),
        built(objective=(1, 2)),
        built(sense=lp.MIN),
        built(bounds=((0, 0), (1, 2))),
        built(bounds=((0, -1), (1, 1))),
        lp.LinearProgram(3, (1, 1, 0), lp.MAX, (0, 0, 0), (1, 1, 1)),
    ):
        for start in (out, empty_out):
            with pytest.raises(ValueError):
                lp.solve(bad, start)
    # the start's own rows and equal rows built anew both extend it
    shared = lp.solve(program.extended([new]), out)
    assert shared == lp.solve(built(), out) == lp.solve(built())
    assert shared.value == Fraction(2, 3)
    padded = lp.solve(empty.extended([new]), empty_out)
    assert padded.certificate.row_mults == empty_out.certificate.row_mults + (0,)
    with pytest.raises(ValueError):
        lp.solve(built(), empty_out)  # the start's third row is missing

"""Exact simplex engine against an independent vertex-enumeration oracle."""

import ast
import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

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
    # max x + y inside a triangle
    program = lp.LinearProgram(
        2,
        (Fraction(1), Fraction(1)),
        lp.MAX,
        (Fraction(0), Fraction(0)),
        (None, None),
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


def test_free_variable_seed_case():
    # min mu with sum(p.alpha) - mu == 1 and no other rows: alpha = 0
    program = lp.LinearProgram(
        3,
        (Fraction(0), Fraction(0), Fraction(1)),
        lp.MIN,
        (Fraction(0), Fraction(0), None),
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


def test_unbounded_detected():
    program = lp.LinearProgram(
        1,
        (Fraction(1),),
        lp.MAX,
        (Fraction(0),),
        (None,),
    )
    out = lp.solve(program)
    assert out.status == "unbounded"


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
        elif ref.status == 3:
            assert out.status == "unbounded"
    assert agreed > 40


# -- golden outcomes ---------------------------------------------------------
#
# Exact outcomes of small programs, recorded from a simplex that held its
# tableau as Fractions.  Bland's rule reads only signs and exact ratios, so
# any exact tableau must take the same pivot path and reproduce every
# vertex, dual and certificate here byte for byte.


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
    # rows with denominators 6 and 5: the integer tableau starts at D = 30
    "mixed_denominators": golden_program(
        2, ("1", "1"), lp.MAX, None, None,
        [(("1/2", "1/3"), lp.LE, "1"), (("2/5", "1"), lp.LE, "3/2")],
    ),
    # pivots on negative entries, both at |p| == D and, with D > 1, at |p| != D
    "negative_pivots": golden_program(
        3, ("2", "-2", "2"), lp.MAX, ("0", "-1", "-1"), ("4", None, "2"),
        [(("-1", "-3", "2"), lp.GE, "1"), (("1", "0", "-1"), lp.EQ, "1"),
         (("2", "2", "2"), lp.LE, "0")],
    ),
    # equality rows the slack start cannot meet: phase 1 with artificials
    "equality_artificials": golden_program(
        3, ("1", "2", "3"), lp.MIN, None, None,
        [(("1", "1", "1"), lp.EQ, "4"), (("1", "-1", "0"), lp.EQ, "1")],
    ),
    # the second row is twice the first: phase 1 drives its artificial out
    # onto a fixed slack, which stays basic at 0
    "redundant_equality": golden_program(
        2, ("1", "-1"), lp.MIN, None, None,
        [(("1", "1"), lp.EQ, "2"), (("2", "2"), lp.EQ, "4")],
    ),
    # boxed variables reach their own far bound first: flips, no pivot
    "bound_flips": golden_program(
        2, ("2", "1"), lp.MAX, ("0", "0"), ("1", "3"),
        [(("1", "1"), lp.LE, "10")],
    ),
    "unbounded": golden_program(
        2, ("1", "1"), lp.MAX, None, None,
        [(("1", "-1"), lp.LE, "1")],
    ),
    "infeasible_rational_rows": golden_program(
        2, ("0", "0"), lp.MIN, ("0", "0"), ("1", "1"),
        [(("1/2", "1/3"), lp.GE, "2"), (("1", "-1"), lp.LE, "1/2")],
    ),
    "infeasible_equalities": golden_program(
        2, ("1", "0"), lp.MAX, None, ("3", None),
        [(("1", "1"), lp.EQ, "1"), (("2", "2"), lp.EQ, "3")],
    ),
    # solve_restricted: min mu, p.alpha - mu == 1, each column's cover <= mu
    "restricted_optimal": golden_program(
        4, ("0", "0", "0", "1"), lp.MIN, ("0", "0", "0", None), None,
        [(("1/2", "2/3", "1/3", "-1"), lp.EQ, "1"),
         (("1", "1", "0", "-1"), lp.LE, "0"),
         (("0", "1", "0", "-1"), lp.LE, "0")],
    ),
    "restricted_infeasible": golden_program(
        4, ("0", "0", "0", "1"), lp.MIN, ("0", "0", "0", None), None,
        [(("1/2", "2/3", "1/3", "-1"), lp.EQ, "1"),
         (("1", "1", "1", "-1"), lp.LE, "0")],
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
    "mixed_denominators": "optimal | x 15/11 21/22 | v 51/22 | y 18/11 5/11 | lo 0 0 | up 0 0",
    "negative_pivots": "optimal | x 1 -1 0 | v 4 | y 0 0 1 | lo 0 -4 0 | up 0 0 0",
    "equality_artificials": "optimal | x 5/2 3/2 0 | v 11/2 | y 3/2 -1/2 | lo 0 0 3/2 | up 0 0 0",
    "redundant_equality": "optimal | x 0 2 | v -2 | y 0 -1/2 | lo 2 0 | up 0 0",
    "bound_flips": "optimal | x 1 3 | v 5 | y 0 | lo 0 0 | up -2 -1",
    "unbounded": "unbounded",
    "infeasible_rational_rows": "infeasible | y 1 0 | lo 0 0 | up 1/2 1/3 | gap 7/6",
    "infeasible_equalities": "infeasible | y -2 1 | lo 0 0 | up 0 0 | gap 1",
    "restricted_optimal": "optimal | x 0 0 3 0 | v 0 | y 0 -1 0 | lo 1 1 0 0 | up 0 0 0 0",
    "restricted_infeasible": "infeasible | y 1 -1 | lo 1/2 1/3 2/3 0 | up 0 0 0 0 | gap 1",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_golden_outcomes(name):
    assert golden_line(lp.solve(GOLDEN_PROGRAMS[name])) == GOLDEN_LINES[name]


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
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()


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

"""Property tests of the exact simplex on small random rational programs.

Every outcome is checked exactly (membership, strong duality, Farkas
certificate) and against scipy's HiGHS in floating point.  The float
comparison lives only here; the solver path stays exact.

HiGHS sometimes reports an unbounded program as infeasible (with
presolve) or as unknown (without), so feasibility is asked of it with a
zero objective, where neither can happen, and the optimum separately.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
scipy_opt = pytest.importorskip("scipy.optimize")

from hypothesis import given, settings, strategies as st  # noqa: E402

from colorful_kcenter import lp  # noqa: E402

denominators = st.sampled_from([1, 1, 2, 3, 4, 5, 7])
rationals = st.builds(Fraction, st.integers(-6, 6), denominators)
widths = st.builds(Fraction, st.integers(0, 8), st.sampled_from([1, 2, 3]))


@st.composite
def bounds(draw):
    lower = draw(st.none() | rationals)
    if lower is None:
        return None, draw(st.none() | rationals)
    width = draw(st.none() | widths)
    return lower, None if width is None else lower + width


@st.composite
def programs(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    lower, upper = zip(*(draw(bounds()) for _ in range(n)))
    program = lp.LinearProgram(
        n,
        tuple(draw(rationals) for _ in range(n)),
        draw(st.sampled_from([lp.MIN, lp.MAX])),
        lower,
        upper,
    )
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
    elif status == 3:
        assert out.status == "unbounded"
    if out.status == "optimal":
        assert status == 0

"""Shared fixtures."""

import pytest

from colorful_kcenter import fair, solver


@pytest.fixture
def no_greedy(monkeypatch):
    """solve_colorful and solve_fair with greedy centers that never
    answer, so every colorful probe runs round_or_cut and every fair
    probe its emptiness test and column generation: the tests that pin
    the paper's path (the LP, rounding, the DP, separations, the pool,
    the restricted dual) keep reaching it on instances the greedy would
    decide at 4r."""
    for module in (fair, solver):
        monkeypatch.setattr(module, "greedy_centers", lambda inst, radius, targets=0: None)

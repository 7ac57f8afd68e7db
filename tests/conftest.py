"""Shared fixtures."""

import pytest

from colorful_kcenter import fair, solver


@pytest.fixture
def no_greedy(monkeypatch):
    """solve_colorful and solve_fair with greedy centers that never
    answer, so every colorful probe runs round_or_cut, every fair probe
    its emptiness test and column generation, and every separation
    separate_or_certify, not the weighted greedy: the tests that pin the
    paper's path (the LP, rounding, the DP, exact separations and the
    restricted dual) keep reaching it on instances the greedy would
    decide at 4r."""
    for module in (fair, solver):
        monkeypatch.setattr(module, "greedy_centers",
                            lambda inst, radius, targets=0, weights=None: None)


@pytest.fixture
def generation_only(monkeypatch, no_greedy):
    """solve_fair with no greedy point mass and no emptiness test at r,
    so every probe runs column generation from its first radius: the
    tests that pin separations (round-or-cut's LP and its counting
    certificate, rounding at 4r, the DP at 2r and its cuts) keep
    reaching them on probes the fair relaxation would reject."""
    monkeypatch.setattr(fair, "_counting_empty", lambda finst, radius: False)
    monkeypatch.setattr(fair, "_relaxation_empty",
                        lambda finst, radius, relaxation, rec: False)

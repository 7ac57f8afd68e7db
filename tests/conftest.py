"""Shared fixtures."""

import pytest

from colorful_kcenter import fair


@pytest.fixture
def no_greedy(monkeypatch):
    """solve_fair with a greedy point mass that never answers, so every
    probe runs its emptiness test and column generation: the tests that
    pin the paper's path (separations, the pool, the restricted dual)
    keep reaching it on instances the greedy would decide at 4r."""
    monkeypatch.setattr(fair, "_greedy_point_mass", lambda finst, radius: None)

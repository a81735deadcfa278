import math

import numpy as np
import pytest

from diracspec import finite_rank
from diracspec.core import ContractError, Grid, SingularSystemError

GRID = Grid(0.0, 1.0, 512)
X = GRID.nodes


def _columns():
    return np.stack([
        np.stack([np.sin(2.0 * X + 0.3), -np.cos(2.0 * X + 0.3)]),
        np.stack([np.cos(5.0 * X), np.sin(3.0 * X) - 1.0]),
    ])


def test_one_shot_matches_recurrent():
    psi, gamma = _columns(), np.array([0.7, -0.4])
    G, dp, dq = finite_rank.solve(psi, gamma, GRID)
    moved = finite_rank.transform(G, psi, psi, GRID)
    rp, rq, carried = finite_rank.recurrent(psi, gamma, GRID, carry=psi)
    # both routes are exact in the continuum; the trapezoid prefixes leave O(h^2)
    assert max(np.max(np.abs(dp - rp)), np.max(np.abs(dq - rq))) < 1e-5
    assert np.max(np.abs(moved - carried)) < 1e-5


def test_removal_of_square_integrable_column():
    # removing (0, e^{-x^2/2}) with a = sqrt(pi)/2 moves q by
    # -e^{-x^2} / int_x^inf e^{-s^2} ds, which the backward tail keeps accurate
    grid = Grid(0.0, 8.0, 4096)
    xs = grid.nodes
    psi = np.stack([np.zeros_like(xs), np.exp(-0.5 * xs * xs)])[None]
    a = math.sqrt(math.pi) / 2.0
    eig, norm = np.array([0.0]), np.array([a])
    _, dp, dq = finite_rank.solve(psi, np.array([-1.0 / a]), grid, eig, norm)
    exact = -np.exp(-xs * xs) / (0.5 * math.sqrt(math.pi) * np.array([math.erfc(x) for x in xs]))
    inner = xs <= 5.0
    assert np.max(np.abs(dp)) == 0.0
    # the trapezoid tail leaves a relative error of O(h^2), about 3e-5 here
    assert np.max(np.abs(dq / exact - 1.0)[inner]) < 1e-4
    rp, rq, _ = finite_rank.recurrent(psi, np.array([-1.0 / a]), grid, eig, norm)
    assert np.max(np.abs(rq - dq)) < 1e-12


def test_guard_rejects_degenerate_systems():
    psi = _columns()[:1]
    # 1 + gamma int_0^x |psi|^2 crosses zero inside the grid
    with pytest.raises(ContractError):
        finite_rank.solve(psi, np.array([-2.0]), GRID)
    with pytest.raises(ContractError):
        finite_rank.recurrent(psi, np.array([-2.0]), GRID)
    # the same point twice: the determinant collapses against the diagonal
    with pytest.raises(SingularSystemError):
        finite_rank.solve(np.concatenate([psi, psi]), np.array([1e13, 1e13]), GRID)

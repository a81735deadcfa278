import math

import numpy as np
import pytest

from diracspec import finite_rank
from diracspec.cauchy import initial_state, propagate
from diracspec.core import ContractError, Grid, PotentialMatrix, SingularSystemError
from diracspec.halfaxis import ModelSpectrum

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


# --- the scalar solve and the once-formed prefixes against the routes they replaced


def _prefix_forward_then_tails(psi, eig, a, v, v_eig, grid):
    """Forward prefix of every pair, then the both-square-integrable pairs overwritten."""
    f = np.einsum("kax,nax->knx", psi, v)
    var = grid.cumulative(f)
    both = np.isfinite(eig)[:, None] & np.isfinite(v_eig)[None, :]
    if np.any(both):
        fb = f[both]
        tail = grid.cumulative(fb[:, ::-1])[:, ::-1]
        var[both] = -(tail + fb[:, -1:] / (2.0 * grid.b))
    limit = np.where(eig[:, None] == v_eig[None, :], a[:, None], 0.0)
    return limit, var


def _check_by_slogdet(A, xs):
    """The guard for every K: diagonal, then the determinant against the diagonal product."""
    diag = np.einsum("xkk->xk", A)
    if np.any(diag <= 0.0):
        j = int(np.argmax(np.any(diag <= 0.0, axis=1)))
        raise ContractError(f"nonpositive diagonal entry at x = {xs[j]:.6g}")
    sign, logdet = np.linalg.slogdet(A)
    bad = (sign == 0) | (logdet - np.sum(np.log(diag), axis=1) < math.log(1e-12))
    if np.any(bad):
        raise SingularSystemError("singular")
    if np.any(sign < 0):
        raise ContractError("negative determinant")


def _lapack_G(psi, gamma, grid, eig, a):
    """G of the guarded per-node system by LAPACK on the power-of-two-scaled rows."""
    _, V = _prefix_forward_then_tails(psi, eig, a, psi, eig, grid)
    c = np.where(np.isfinite(eig), a * (gamma + 1.0 / a), 1.0)
    A = np.diag(c)[None] + (V * gamma[:, None, None]).transpose(2, 0, 1)
    _check_by_slogdet(A, grid.nodes)
    rhs = -(gamma[None, :, None] * psi.transpose(2, 0, 1))
    _, e = np.frexp(np.einsum("xkk->xk", A))
    return np.linalg.solve(np.ldexp(A, -e[..., None]), np.ldexp(rhs, -e[..., None])).transpose(1, 2, 0)


BASE = ModelSpectrum.make("half_bc0", 8)
MU, C = 0.9, 1.3  # an added eigenvalue away from the model's, and its norming constant


def _model_columns(m):
    """Removal of lambda_0, rescaling of lambda_1 by 1.7, addition at MU: (psi, gamma, eig, a)."""
    grid = Grid(0.0, 12.0, m)
    eigf = BASE.eigenfunctions([0, 1], grid.nodes)
    added = propagate(PotentialMatrix(None, lambda x: x, grid), grid, [MU], initial_state(0.0), store=True)
    psi = np.concatenate([eigf, added.transpose(1, 0, 2)])
    a0, a1 = BASE.norming[0], BASE.norming[1]
    gamma = np.array([-1.0 / a0, 1.0 / (1.7 * a1) - 1.0 / a1, 1.0 / C])
    eig = np.array([BASE.lams[0], BASE.lams[1], np.nan])
    a = np.array([a0, a1, np.nan])
    return grid, psi, gamma, eig, a


def _within_one_ulp(x, y):
    return bool(np.all(np.abs(x - y) <= np.spacing(np.maximum(np.abs(x), np.abs(y)))))


@pytest.mark.parametrize("m", [256, 2048])
@pytest.mark.parametrize("cols", [[0], [1], [2], [0, 2], [1, 2]],
                         ids=["removal", "rescaling", "addition", "removal+addition", "rescaling+addition"])
def test_solve_matches_lapack_route(m, cols):
    grid, psi, gamma, eig, a = _model_columns(m)
    psi, gamma, eig, a = psi[cols], gamma[cols], eig[cols], a[cols]
    G, dp, dq = finite_rank.solve(psi, gamma, grid, eig, a)
    want = _lapack_G(psi, gamma, grid, eig, a)
    assert G.shape == want.shape and _within_one_ulp(G, want)
    M = np.einsum("kax,kbx->abx", G, psi)
    assert np.array_equal(dp, -(M[0, 1] + M[1, 0])) and np.array_equal(dq, M[0, 0] - M[1, 1])


@pytest.mark.parametrize("m", [256, 2048])
@pytest.mark.parametrize("v_eig", [[-2.0, np.nan, 2.0, np.nan], [np.nan] * 4, [-2.0, -1.0, 1.0, 2.0]],
                         ids=["mixed", "none_square_integrable", "all_square_integrable"])
def test_prefix_formed_once_matches_forward_then_tails(m, v_eig):
    grid, psi, _, eig, a = _model_columns(m)
    v_eig = np.array(v_eig)
    v = BASE.eigenfunctions([-4, -1, 1, 4], grid.nodes)
    for rows in ([0, 1, 2], [0, 1], [2]):
        got = finite_rank._prefix(psi[rows], eig[rows], a[rows], v, v_eig, grid)
        want = _prefix_forward_then_tails(psi[rows], eig[rows], a[rows], v, v_eig, grid)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_scalar_guard_raises_as_the_full_guard():
    psi = _columns()[:1]
    gamma = np.array([-2.0])
    eig = a = np.array([np.nan])
    with pytest.raises(ContractError) as want:
        _lapack_G(psi, gamma, GRID, eig, a)
    with pytest.raises(ContractError) as got:
        finite_rank.solve(psi, gamma, GRID)
    assert str(got.value) == str(want.value)
    assert "nonpositive diagonal entry" in str(got.value)

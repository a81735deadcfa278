import math

import numpy as np
import pytest

from diracspec.core import Grid, PotentialMatrix, Trajectory2, cumtrapz0
from diracspec.cauchy import (
    SolverConfig,
    fundamental_matrix,
    initial_state,
    propagate,
    solve_cauchy,
    solve_terminal,
    wronskian,
)

B = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _const_exponential(lam, q0, x):
    """exp(x M) (sin a, -cos a) for the constant system y' = M y, M = ((q0, -lam), (lam, -q0)).

    Trace-free 2x2: exp(xM) = cosh(sx) E + sinh(sx)/s M with s^2 = q0^2 - lam^2.
    """
    s2 = q0 * q0 - lam * lam
    s = np.sqrt(complex(s2))
    x = np.asarray(x, dtype=float)
    if abs(s) < 1e-30:
        c, r = np.ones_like(x), x
    else:
        c, r = np.cosh(s * x), np.sinh(s * x) / s
    y0 = np.array([0.0, -1.0])
    M = np.array([[q0, -lam], [lam, -q0]])
    My0 = M @ y0
    return np.real(np.stack([c * y0[0] + r * My0[0], c * y0[1] + r * My0[1]]))


def test_zero_potential_closed_form():
    g = Grid(0.0, math.pi, 512)
    lam, al = 1.7, 0.4
    tr = solve_cauchy(PotentialMatrix.zero(g), lam, al)
    x = g.nodes
    assert np.max(np.abs(tr.y1 - np.sin(lam * x + al))) < 1e-10
    assert np.max(np.abs(tr.y2 + np.cos(lam * x + al))) < 1e-10


def test_zero_potential_constant_solution():
    g = Grid(0.0, math.pi, 128)
    tr = solve_cauchy(PotentialMatrix.zero(g), 0.0, 0.0)
    assert np.max(np.abs(tr.y1)) == 0.0
    assert np.max(np.abs(tr.y2 + 1.0)) == 0.0


def test_constant_potential_matrix_exponential():
    q0, lam = 0.8, 1.3
    g = Grid(0.0, math.pi, 1024)
    pot = PotentialMatrix(None, lambda x: np.full_like(x, q0), g)
    tr = solve_cauchy(pot, lam, 0.0)
    ex = _const_exponential(lam, q0, g.nodes)
    assert np.max(np.abs(tr.y1 - ex[0])) < 1e-9
    assert np.max(np.abs(tr.y2 - ex[1])) < 1e-9


def test_terminal_zero_potential():
    g = Grid(0.0, math.pi, 512)
    lam, be = 0.9, 0.25
    tr = solve_terminal(PotentialMatrix.zero(g), lam, be)
    x = g.nodes
    assert np.max(np.abs(tr.y1 - np.sin(lam * (x - math.pi) + be))) < 1e-10
    assert np.max(np.abs(tr.y2 + np.cos(lam * (x - math.pi) + be))) < 1e-10


def test_terminal_forward_roundtrip():
    g = Grid(0.0, math.pi, 1024)
    pot = PotentialMatrix(None, lambda x: np.sin(x), g)
    psi = solve_terminal(pot, 1.1, 0.3)
    y0 = np.array([psi.y1[0], psi.y2[0]])
    Y = propagate(pot, g, np.array([1.1]), y0)
    assert abs(Y[0, 0] - psi.y1[-1]) < 1e-9
    assert abs(Y[1, 0] - psi.y2[-1]) < 1e-9


def test_fundamental_matrix_zero_potential():
    g = Grid(0.0, math.pi, 256)
    lam = 0.7
    F = fundamental_matrix(PotentialMatrix.zero(g), lam)
    x = g.nodes
    expect = (
        np.eye(2)[None] * np.cos(lam * x)[:, None, None]
        - B[None] * np.sin(lam * x)[:, None, None]
    )
    assert np.max(np.abs(F.entries - expect)) < 1e-10


def test_fundamental_matrix_identity_at_origin():
    g = Grid(0.0, math.pi, 64)
    F = fundamental_matrix(PotentialMatrix.zero(g), 2.2)
    assert np.allclose(F.entries[0], np.eye(2))


def test_fundamental_matrix_unit_determinant():
    g = Grid(0.0, math.pi, 2048)
    pot = PotentialMatrix(None, lambda x: np.sin(x), g)
    F = fundamental_matrix(pot, 1.3)
    det = np.linalg.det(F.entries)
    assert abs(det[-1] - 1.0) < 1e-8


def test_wronskian_zero_potential_value():
    g = Grid(0.0, math.pi, 512)
    zero = PotentialMatrix.zero(g)
    lam, al, be = 1.4, 0.3, 0.1
    w, dev = wronskian(solve_cauchy(zero, lam, al), solve_terminal(zero, lam, be))
    assert dev < 1e-9
    assert w[0] == pytest.approx(-math.sin(lam * math.pi + al - be), abs=1e-9)


def test_wronskian_self_zero():
    g = Grid(0.0, math.pi, 256)
    tr = solve_cauchy(PotentialMatrix.zero(g), 1.0, 0.5)
    w, _ = wronskian(tr, tr)
    assert np.max(np.abs(w)) == 0.0


def test_wronskian_constancy():
    g = Grid(0.0, math.pi, 2048)
    pot = PotentialMatrix(lambda x: 0.3 * np.cos(x), lambda x: np.sin(x), g)
    _, dev = wronskian(solve_cauchy(pot, 2.1, 0.0), solve_terminal(pot, 2.1, 0.7))
    assert dev < 1e-8


def test_fourth_order_convergence():
    lam = 1.2

    def endpoint(m):
        g = Grid(0.0, math.pi, m)
        pot = PotentialMatrix(None, lambda x: np.sin(x), g)
        tr = solve_cauchy(pot, lam, 0.0)
        return np.array([tr.y1[-1], tr.y2[-1]])

    ref = endpoint(8192)
    e1 = np.max(np.abs(endpoint(128) - ref))
    e2 = np.max(np.abs(endpoint(256) - ref))
    assert e1 / e2 == pytest.approx(16.0, rel=0.5)


def test_picard_iteration_oracle():
    """Successive approximations of the integral form on a coarse grid."""
    g = Grid(0.0, 1.0, 400)
    lam, al = 0.9, 0.2
    pot = PotentialMatrix(None, lambda x: np.sin(x), g)
    x = g.nodes
    q = np.sin(x)
    y = np.stack([np.full_like(x, math.sin(al)), np.full_like(x, -math.cos(al))])
    Binv = np.linalg.inv(B)
    for _ in range(40):
        rhs = np.stack([q * y[1], q * y[0]])
        integrand = Binv @ (lam * y - rhs)
        y = np.stack(
            [
                math.sin(al) + cumtrapz0(integrand[0], g.h),
                -math.cos(al) + cumtrapz0(integrand[1], g.h),
            ]
        )
    tr = solve_cauchy(pot, lam, al)
    assert np.max(np.abs(tr.y1 - y[0])) < 1e-5
    assert np.max(np.abs(tr.y2 - y[1])) < 1e-5


def test_complex_lambda_matches_real():
    g = Grid(0.0, math.pi, 512)
    pot = PotentialMatrix(None, lambda x: np.sin(x), g)
    tr_r = solve_cauchy(pot, 1.5, 0.0)
    tr_c = solve_cauchy(pot, 1.5 + 0j, 0.0)
    assert np.max(np.abs(tr_r.y1 - np.real(tr_c.y1))) < 1e-12
    assert np.max(np.abs(np.imag(np.asarray(tr_c.y1)))) < 1e-12


def _sin_pot(m):
    g = Grid(0.0, math.pi, m)
    return g, PotentialMatrix(lambda x: 0.3 * np.cos(x), lambda x: 2.0 * np.sin(3.0 * x), g)


@pytest.mark.parametrize("K", [1, 7])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("cplx", [False, True])
def test_endpoint_matches_stored_sweep(K, direction, cplx):
    g, pot = _sin_pot(1000)
    lam = np.linspace(-6.0, 9.0, K) + (0.7j if cplx else 0.0)
    y0 = np.array([0.3, -0.9])
    end = propagate(pot, g, lam, y0, direction=direction)
    Y = propagate(pot, g, lam, y0, direction=direction, store=True)
    last = Y[:, :, -1] if direction > 0 else Y[:, :, 0]
    assert np.max(np.abs(end - last)) <= 1e-13 * np.max(np.abs(last))


@pytest.mark.parametrize("direction", [1, -1])
def test_stored_sweep_matches_stepwise_reference(direction):
    """Node history against a plain loop over the same step exponentials."""
    from diracspec.cauchy import _expm_tracefree, _step_coeffs

    g, pot = _sin_pot(300)
    lam = np.array([-4.0, 0.5, 11.0])
    y = np.array([[0.3] * 3, [-0.9] * 3])
    Y = propagate(pot, g, lam, y[:, 0], direction=direction, store=True)
    P, Q = _step_coeffs(pot, g)
    ref = np.empty_like(Y)
    steps = range(g.m) if direction > 0 else range(g.m - 1, -1, -1)
    ref[:, :, 0 if direction > 0 else g.m] = y
    for i in steps:
        a, b, c = direction * (P[:, i, None] + Q[:, i, None] * lam)
        e00, e01, e10, e11 = _expm_tracefree(a, b, c)
        y = np.array([e00 * y[0] + e01 * y[1], e10 * y[0] + e11 * y[1]])
        ref[:, :, i + 1 if direction > 0 else i] = y
    assert np.max(np.abs(Y - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_renorm_keeps_ratio():
    g, pot = _sin_pot(1024)
    lam = np.array([-3.0, 0.4, 2.5, 7.0 + 0.5j])
    v = np.array([1.0, 0.2])
    for direction in (1, -1):
        plain = propagate(pot, g, lam, v, direction=direction)
        ren = propagate(pot, g, lam, v, direction=direction, renorm=True)
        np.testing.assert_allclose(ren[0] / ren[1], plain[0] / plain[1], rtol=1e-12)


def test_renorm_backward_sweep_stays_finite():
    # q = x on [0, 30]: the backward solution grows like exp(450) unscaled
    g = Grid(0.0, 30.0, 2048)
    pot = PotentialMatrix(None, lambda x: x, g)
    u = propagate(pot, g, np.array([0.5]), np.array([0.0, 1.0]), direction=-1, renorm=True)
    assert np.all(np.isfinite(u))
    assert 0.0 < np.max(np.abs(u)) <= 1e100


def test_renorm_working_set_is_bounded():
    import tracemalloc

    g = Grid(0.0, 14.0, 1024)
    pot = PotentialMatrix(None, lambda x: x, g)
    lam = np.linspace(-3.0, 3.0, 241)
    propagate(pot, g, lam[:1], np.array([0.0, 1.0]), direction=-1, renorm=True)
    tracemalloc.start()
    try:
        propagate(pot, g, lam, np.array([0.0, 1.0]), direction=-1, renorm=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_removed_options_rejected():
    from diracspec.core import DiracError

    g, pot = _sin_pot(64)
    with pytest.raises(DiracError):
        SolverConfig(method="rk4")
    with pytest.raises(DiracError):
        propagate(pot, g, np.array([1.0]), np.array([0.0, -1.0]), method="rk4")
    with pytest.raises(DiracError):
        propagate(pot, g, np.array([1.0]), np.array([0.0, -1.0]), store=True, renorm=True)

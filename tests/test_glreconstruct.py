import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diracspec import cli, glreconstruct
from diracspec.core import BoundaryAngles, ContractError, Grid, SingularSystemError
from diracspec.eigen import SpectralData, SpectralDatum
from diracspec.glreconstruct import (
    BLOCK,
    GLSeriesKernel,
    recover_potential,
    reconstruct,
    solve_gl,
    transformed_solutions,
)
from diracspec.isospectral import omega_l1_distance, zero_family


def _lattice_data(alpha, beta, N, a=math.pi):
    delta = (beta - alpha) / math.pi
    items = {n: SpectralDatum(n, n + delta, a=a) for n in range(-N, N + 1)}
    return SpectralData(BoundaryAngles.make(alpha, beta), items)


def _rank_one_data(N, m, t):
    # shift a_m of the zero-potential data: a_m = pi e^{-t}
    items = {
        n: SpectralDatum(n, float(n), a=math.pi * (math.exp(-t) if n == m else 1.0))
        for n in range(-N, N + 1)
    }
    return SpectralData(BoundaryAngles.make(0.0, 0.0), items)


def _perturbed_data(alpha, beta, N, eps=0.05):
    delta = (beta - alpha) / math.pi
    items = {
        n: SpectralDatum(
            n, n + delta + eps / (1 + n * n), a=math.pi * (1 + 2 * eps / (1 + n * n))
        )
        for n in range(-N, N + 1)
    }
    return SpectralData(BoundaryAngles.make(alpha, beta), items)


def build_F(series, x, t):
    """F(x, t) as a 2x2 real matrix summed term by term; F(x, t) = F(t, x)^T."""
    alpha = series.target.angles.alpha
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((2, 2) + np.broadcast_shapes(xa.shape, ta.shape))

    def phi0(lam, s):
        return np.stack([np.sin(lam * s + alpha), -np.cos(lam * s + alpha)])

    for n in series.ordered_indices():
        for d, sign in ((series.target.items[n], 1.0), (series.reference.items[n], -1.0)):
            out += sign * np.einsum("a...,b...->ab...", phi0(d.lam, xa), phi0(d.lam, ta)) / d.a
    if np.ndim(x) == 0 and np.ndim(t) == 0:
        return out[..., 0]
    return out


def _quadrature_solutions(series, kernel):
    """Reference eigenfunctions: phi0 + trapezoid int_0^x K(x, s) phi0(s) ds
    with the dense kernel."""
    grid = kernel.grid
    xs = grid.nodes
    nx = xs.size
    # triangle weights: for row x_j only s <= j contribute, endpoint halved
    Kw = kernel.K * grid.trapezoid_weights()[None, :, None, None]
    inner = np.arange(1, nx - 1)
    Kw[inner, inner] *= 0.5
    Kw[0, 0] = 0.0
    ns = series.ordered_indices()
    lams = np.array([series.target.items[n].lam for n in ns])
    ph = lams[:, None] * xs[None, :] + series.target.angles.alpha
    u = np.stack([np.sin(ph), -np.cos(ph)])  # (2, len(ns), nx)
    Kmat = Kw.transpose(0, 2, 1, 3).reshape(2 * nx, 2 * nx)  # rows (j, a), columns (s, b)
    add = Kmat @ u.transpose(2, 0, 1).reshape(2 * nx, len(ns))  # rows (j, a), columns k
    phi = u.transpose(1, 0, 2) + add.reshape(nx, 2, len(ns)).transpose(2, 1, 0)
    return {n: phi[k] for k, n in enumerate(ns)}


def _dense_solve_gl(series, grid):
    """Reference collocation: one dense 2(j+1) system per node x_j.

    K(x_j, .) (I + W F) = -F(x_j, .) with W the trapezoid weights on
    [0, x_j], F sampled on all node pairs through build_F.
    """
    xs = grid.nodes
    F = build_F(series, xs[:, None], xs[None, :]).transpose(2, 3, 0, 1)
    nx = xs.size
    K = np.zeros_like(F)
    for j in range(nx):
        ni = j + 1
        w = np.full(ni, grid.h)
        w[0] = w[-1] = 0.5 * grid.h
        if ni == 1:
            w[0] = 0.0
        M = (w[:, None, None, None] * F[:ni, :ni]).transpose(0, 2, 1, 3).reshape(2 * ni, 2 * ni)
        M += np.eye(2 * ni)
        rhs = F[j, :ni].transpose(1, 0, 2).reshape(2, 2 * ni)
        sol = np.linalg.solve(M.T, -rhs.T).T
        K[j, :ni] = sol.reshape(2, ni, 2).transpose(1, 0, 2)
    return K


def _per_node_solve_gl(series, grid):
    """Reference rank-R collocation: one R x R system per node x_j.

    Builds every node's A_j = I + C V_j from the running trapezoid Gram and
    solves the nodes of a block in one batched call.  Returns K and the
    condition number of the last node's system.
    """
    ns = series.ordered_indices()
    lams = np.ravel([[series.target.items[n].lam, series.reference.items[n].lam] for n in ns])
    c = np.ravel([[1.0 / series.target.items[n].a, -1.0 / np.pi] for n in ns])
    ph = lams * grid.nodes[:, None] + series.target.angles.alpha
    UT = np.stack([np.sin(ph), -np.cos(ph)], axis=2)  # U(x_j)^T, (nx, R, 2)
    CUT = c[:, None] * UT
    R, nx, blk = c.size, grid.m + 1, 8
    carry = np.eye(R) - 0.5 * grid.h * (CUT[0] @ UT[0].T)
    # row 0 sums a block with weight h; row 1 + j is node j's trapezoid row
    W = grid.h * np.vstack([np.ones(blk), np.tri(blk) - 0.5 * np.eye(blk)])
    G = np.empty((nx, 2, R))
    for j0 in range(0, nx, blk):
        b = min(blk, nx - j0)
        P = CUT[j0 : j0 + b] @ UT[j0 : j0 + b].transpose(0, 2, 1)
        S = (W[: b + 1, :b] @ P.reshape(b, R * R)).reshape(b + 1, R, R)
        A = S[1:] + carry
        carry += S[0]
        G[j0 : j0 + b] = np.linalg.solve(A, -CUT[j0 : j0 + b]).transpose(0, 2, 1)
    K = (G.reshape(2 * nx, R) @ UT.transpose(1, 0, 2).reshape(R, 2 * nx)).reshape(nx, 2, nx, 2)
    K *= np.tri(nx)[:, None, :, None]
    return K.transpose(0, 2, 1, 3), np.linalg.cond(A[-1])


def _eager_solve_gl(series, grid):
    """Reference: solve_gl's block loop with the diagnostics computed inline
    after each block's solve, carrying A_j = I + C V_j beside H_j^{-1}.
    Returns G, the largest collocation residual over the triangle and the
    condition number of the last node's system."""
    ns = series.ordered_indices()
    tgt, ref = series.target.items, series.reference.items
    lams = np.ravel([[tgt[n].lam, ref[n].lam] for n in ns])
    c = np.ravel([[1.0 / tgt[n].a, -1.0 / ref[n].a] for n in ns])
    ph = lams * grid.nodes[:, None] + series.target.angles.alpha
    UT = np.stack([np.sin(ph), -np.cos(ph)], axis=2)  # U(x_j)^T, (nx, R, 2)
    CUT = c[:, None] * UT
    Ut = UT.transpose(1, 0, 2).reshape(c.size, -1)
    R, nx, h = c.size, grid.m + 1, grid.h
    e = np.eye(BLOCK + 1)
    tw = h * np.repeat(np.tri(BLOCK + 1) - 0.5 * (e + e[0]), 2, axis=1)
    A, Hinv = np.eye(R), np.diag(c)
    G = np.empty((nx, 2, R))
    residual = 0.0
    for j0 in range(0, nx, BLOCK):
        b = min(BLOCK, nx - j0)
        r = min(b, nx - 1 - j0)
        n2 = 2 * b
        M = CUT[j0 : j0 + r + 1].transpose(1, 0, 2).reshape(R, -1)
        U = UT[j0 : j0 + r + 1].transpose(0, 2, 1).reshape(-1, R)
        Y = Hinv @ U.T
        G[j0] = -Y[:, :2].T
        if r > 0:
            om = 1.0 / tw[r, : 2 * r + 2]
            T = U @ Y
            T.flat[:: 2 * r + 3] += om
            Li = np.linalg.inv(np.linalg.cholesky(T).T).T
            Q = Li @ Y.T
            for k in range(1, b):
                B = Li[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
                p, q, s = B[0, 0], B[1, 0], B[1, 1]
                sig = 2.0 / h - om[2 * k]
                sp2, ss2 = sig * p * p, sig * s * s
                w = (2.0 / h) / (1.0 + sig * q * q + sp2 + ss2 + sp2 * ss2)
                F = np.array([[w * p * (1.0 + ss2), w * q], [-sig * w * p * q * s, w * s * (1.0 + sp2)]])
                G[j0 + k] = -(F @ Q[2 * k : 2 * k + 2])
            if r == b:
                Hinv -= Q.T @ Q
        Gc = np.ascontiguousarray(G[j0 : j0 + b].reshape(n2, R).T)
        Ec = A @ Gc + M[:, :n2] @ (np.repeat(tw[:b, :n2], 2, axis=0).T * (U[:n2] @ Gc) + np.eye(n2))
        residual = max(residual, glreconstruct._triangle_max(Ec.T.reshape(b, 2, R), Ut, j0))
        A = A + (M * tw[r, : 2 * r + 2]) @ U
    return G, residual, float(np.linalg.cond(A))


_ORACLE_CASES = [
    (_perturbed_data(0.3, 0.1, 20), 20, 256),
    (_rank_one_data(26, 2, -0.7), 26, 256),
    (_perturbed_data(0.0, 0.0, 60), 60, 512),
]
_ORACLE_IDS = ["N20_m256", "N26_m256", "N60_m512"]


@pytest.mark.parametrize(
    "data, N, m",
    [
        (_lattice_data(0.3, 0.1, 10), 10, 128),
        (_rank_one_data(10, 1, 0.5), 10, 128),
        (_perturbed_data(0.3, 0.1, 12), 12, 128),
        (_perturbed_data(0.0, 0.0, 32), 32, 256),
    ],
    ids=["lattice", "rank_one", "perturbed_alpha", "N32_m256"],
)
def test_solve_gl_matches_dense_collocation(data, N, m):
    grid = Grid(0.0, math.pi, m)
    series = GLSeriesKernel.make(data, N)
    kernel = solve_gl(series, grid)
    K_ref = _dense_solve_gl(series, grid)
    scale = np.max(np.abs(K_ref)) or 1.0  # lattice data: F = 0 exactly, so K = 0
    assert np.max(np.abs(kernel.K - K_ref)) <= 1e-12 * scale
    assert kernel.residual < 1e-12


@pytest.mark.parametrize("data, N, m", _ORACLE_CASES, ids=_ORACLE_IDS)
def test_solve_gl_matches_per_node_solve(data, N, m):
    """The block updates against one R x R solve per node.  A wrong update
    weight leaves the self-consistent residual at rounding level, so K is
    checked against the oracle, not against the residual."""
    grid = Grid(0.0, math.pi, m)
    series = GLSeriesKernel.make(data, N)
    kernel = solve_gl(series, grid)
    K_ref, cond_ref = _per_node_solve_gl(series, grid)
    assert np.max(np.abs(kernel.K - K_ref)) <= 1e-12 * np.max(np.abs(K_ref))
    assert kernel.residual < 1e-12
    assert abs(kernel.condition - cond_ref) <= 1e-10 * cond_ref


@pytest.mark.parametrize("data, N, m", _ORACLE_CASES, ids=_ORACLE_IDS)
def test_diagnostics_equal_the_eager_loop(data, N, m):
    """The replay on first read gives the floats the eager loop gave."""
    series = GLSeriesKernel.make(data, N)
    grid = Grid(0.0, math.pi, m)
    kernel = solve_gl(series, grid)
    G, residual, condition = _eager_solve_gl(series, grid)
    assert np.array_equal(kernel.G, G)
    assert kernel.residual == residual
    assert kernel.condition == condition


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    N=st.integers(4, 12),
    shift=st.integers(-4, 4),
    t=st.floats(0.1, 8.0),
    sign=st.sampled_from([-1.0, 1.0]),
    eps=st.floats(0.0, 0.2),
    phase=st.floats(0.0, 2 * math.pi),
    alpha=st.floats(-math.pi / 2, math.pi / 2),
)
def test_solve_gl_matches_per_node_solve_property(N, shift, t, sign, eps, phase, alpha):
    """The carried inverse against one R x R solve per node, for a rank-one
    shift a_shift = pi e^{-t} of perturbed data: |t| up to 8 puts the
    condition number of the systems near 1e4.  The residual is absolute,
    E_j = A_j G_j^T + C U(x_j)^T, so it is bounded relative to max|K|,
    which reaches about 1e3 at |t| = 8."""
    items = {
        n: SpectralDatum(
            n, n + eps * math.sin(3 * n + phase) / (1 + abs(n)),
            a=math.pi * math.exp(-sign * t if n == shift else 0.0),
        )
        for n in range(-N, N + 1)
    }
    data = SpectralData(BoundaryAngles.make(alpha, 0.0), items)
    grid = Grid(0.0, math.pi, 128)
    series = GLSeriesKernel.make(data, N)
    kernel = solve_gl(series, grid)
    K_ref, _ = _per_node_solve_gl(series, grid)
    scale = np.max(np.abs(K_ref))
    assert np.max(np.abs(kernel.K - K_ref)) <= 1e-12 * scale
    assert kernel.residual < 1e-12 * max(1.0, scale)


def test_reconstruct_rank_one_on_a_long_grid():
    """65 blocks of carried inverse: rank-one lattice data give the closed-form
    family, which the collocation reproduces up to rounding."""
    m_shift, t = 2, 0.7
    grid = Grid(0.0, math.pi, 1024)
    pot, _ = reconstruct(_rank_one_data(24, m_shift, t), grid, 24)
    exact = zero_family(m_shift, t, grid)
    assert np.max(np.abs(pot.p - exact.p)) < 1e-10
    assert np.max(np.abs(pot.q - exact.q)) < 1e-10


def _raise(*args, **kwargs):
    raise AssertionError("diagnostic computed")


def test_reconstruct_never_computes_the_diagnostics(monkeypatch, tmp_path):
    monkeypatch.setattr(glreconstruct, "_triangle_max", _raise)
    monkeypatch.setattr(np.linalg, "cond", _raise)
    data = _perturbed_data(0.0, 0.0, 8)
    grid = Grid(0.0, math.pi, 128)
    kernel = solve_gl(GLSeriesKernel.make(data, 8), grid)
    with pytest.raises(AssertionError, match="diagnostic computed"):
        kernel.residual
    reconstruct(data, grid, 8)
    spec, out = tmp_path / "spec.json", tmp_path / "pot.csv"
    data.save(spec)
    argv = ["reconstruct", "--spec", spec, "--trunc", 8, "--grid", 128, "--out", out]
    assert cli.main([str(a) for a in argv]) == 0
    assert out.exists()


def test_second_read_does_not_replay(monkeypatch):
    calls = []
    triangle_max = glreconstruct._triangle_max

    def counted(E, Ut, j0):
        calls.append(j0)
        return triangle_max(E, Ut, j0)

    monkeypatch.setattr(glreconstruct, "_triangle_max", counted)
    grid = Grid(0.0, math.pi, 200)
    kernel = solve_gl(GLSeriesKernel.make(_rank_one_data(12, 1, 0.5), 12), grid)
    starts = list(range(0, grid.m + 1, BLOCK))
    assert calls == []
    first = (kernel.residual, kernel.condition)
    assert calls == starts
    monkeypatch.setattr(np.linalg, "cond", _raise)
    assert (kernel.residual, kernel.condition) == first
    assert calls == starts


def test_solve_gl_factors_no_R_by_R_system(monkeypatch):
    """Every np.linalg call of the solve is recorded with its operand shapes:
    one Cholesky per block of at most 2(BLOCK + 1) rows and the inverse of
    its triangular factor, and nothing of size R."""
    N, m = 32, 256
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, tuple(np.shape(a) for a in args)))
            return fn(*args, **kwargs)

        return wrapped

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, recording(name, fn))
    solve_gl(GLSeriesKernel.make(_perturbed_data(0.0, 0.0, N), N), Grid(0.0, math.pi, m))
    blocks = -(-(m + 1) // BLOCK)
    cholesky = [shapes for name, shapes in calls if name == "cholesky"]
    assert 0 < len(cholesky) <= blocks
    assert all(shapes[0][0] <= 2 * (BLOCK + 1) for shapes in cholesky)
    # the rest is each factor's triangular inverse, taken as inv(L^T)
    assert [(n, s) for n, s in calls if n != "cholesky"] == [("inv", s) for s in cholesky]


def test_solve_gl_memory_is_blocked():
    grid = Grid(0.0, math.pi, 512)
    series = GLSeriesKernel.make(_perturbed_data(0.0, 0.0, 60), 60)
    tracemalloc.start()
    try:
        solve_gl(series, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense loop peaked near 40 MB; an unblocked stack of Grams needs ~240 MB
    assert peak < 48e6


def _second_cholesky(monkeypatch, spoil):
    """Let np.linalg.cholesky see spoil(T) in place of the second block's T."""
    cholesky, calls = np.linalg.cholesky, []

    def spoiled(a):
        calls.append(a.shape)
        return cholesky(spoil(a.copy()) if len(calls) == 2 else a)

    monkeypatch.setattr(np.linalg, "cholesky", spoiled)


def test_solve_gl_singular_batch(monkeypatch):
    def zero(a):
        a[:] = 0.0
        return a

    _second_cholesky(monkeypatch, zero)
    grid = Grid(0.0, math.pi, 128)
    series = GLSeriesKernel.make(_perturbed_data(0.0, 0.0, 8), 8)
    with pytest.raises(SingularSystemError, match=rf"in {BLOCK}\.\.{2 * BLOCK - 1}\b"):
        solve_gl(series, grid)


def test_solve_gl_singular_capacitance(monkeypatch):
    def indefinite(a):
        a[-1, -1] = -a[-1, -1]
        return a

    _second_cholesky(monkeypatch, indefinite)
    grid = Grid(0.0, math.pi, 128)
    series = GLSeriesKernel.make(_perturbed_data(0.0, 0.0, 8), 8)
    with pytest.raises(SingularSystemError, match=rf"in {BLOCK}\.\.{2 * BLOCK - 1}\b"):
        solve_gl(series, grid)


def test_F_vanishes_for_reference_data():
    series = GLSeriesKernel.make(_lattice_data(0.3, 0.1, 12), 12)
    for x, t in ((0.0, 0.0), (1.0, 0.5), (math.pi, 2.0)):
        assert np.max(np.abs(build_F(series, x, t))) < 1e-13


def test_reference_norming_constants_are_read():
    """Target and reference both the lattice with a_n = 2 pi: F and K vanish."""
    data = _lattice_data(0.3, 0.1, 8, a=2.0 * math.pi)
    series = GLSeriesKernel(data, data, 8)
    xs = np.linspace(0.0, math.pi, 9)
    assert np.max(np.abs(build_F(series, xs[:, None], xs[None, :]))) < 1e-13
    assert np.max(np.abs(solve_gl(series, Grid(0.0, math.pi, 128)).K)) < 1e-12
    bare = _lattice_data(0.3, 0.1, 8, a=None)
    with pytest.raises(ContractError, match="reference a_"):
        GLSeriesKernel(data, bare, 8)


def test_F_rank_one_closed_form():
    m, t0 = 0, 0.8
    series = GLSeriesKernel.make(_rank_one_data(10, m, t0), 10)
    # only the n = m term survives: (e^{t0} - 1)/pi * phi0 phi0^T at lam = 0
    c = math.expm1(t0) / math.pi
    for x, t in ((0.2, 0.1), (2.0, 1.5)):
        u = np.array([math.sin(0.0), -math.cos(0.0)])
        expect = c * np.outer(u, u)
        assert np.max(np.abs(build_F(series, x, t) - expect)) < 1e-13


def test_F_transpose_symmetry():
    data = _lattice_data(0.2, 0.0, 8)
    for n in data.items:
        data.items[n] = SpectralDatum(
            n, data.items[n].lam + 0.05 / (1 + n * n), a=math.pi * (1 + 0.1 / (1 + n * n))
        )
    series = GLSeriesKernel(data, GLSeriesKernel.make(_lattice_data(0.2, 0.0, 8), 8).reference, 8)
    x, t = 1.3, 0.4
    A = build_F(series, x, t)
    B = build_F(series, t, x)
    assert np.max(np.abs(A - B.T)) < 1e-12


def test_solve_gl_zero_kernel():
    grid = Grid(0.0, math.pi, 256)
    series = GLSeriesKernel.make(_lattice_data(0.0, 0.0, 10), 10)
    kernel = solve_gl(series, grid)
    assert np.max(np.abs(kernel.K)) < 1e-12
    pot = recover_potential(kernel)
    assert np.max(np.abs(pot.p)) < 1e-12
    assert np.max(np.abs(pot.q)) < 1e-12


def test_solve_gl_residual_small():
    grid = Grid(0.0, math.pi, 256)
    series = GLSeriesKernel.make(_rank_one_data(10, 1, 0.5), 10)
    kernel = solve_gl(series, grid)
    assert kernel.residual < 1e-9


def test_truncation_grid_guard():
    grid = Grid(0.0, math.pi, 64)
    series = GLSeriesKernel.make(_lattice_data(0.0, 0.0, 20), 20)
    with pytest.raises(ContractError):
        solve_gl(series, grid)


def test_solve_gl_refuses_a_grid_off_zero_pi():
    """The reference lattice and the Cholesky's positivity assume [0, pi]; past
    pi the collocation system of a_1 = pi e^2 turns singular near x = 3.63."""
    data = _rank_one_data(10, 1, -2.0)
    for grid in (Grid(0.0, 4.0, 128), Grid(0.5, math.pi, 128)):
        with pytest.raises(ContractError, match=r"\[0, pi\]"):
            solve_gl(GLSeriesKernel.make(data, 10), grid)
        with pytest.raises(ContractError, match=r"\[0, pi\]"):
            reconstruct(data, grid, 10)


def test_rank_one_recovers_family_member():
    m, t0 = 1, 0.5
    grid = Grid(0.0, math.pi, 512)
    series = GLSeriesKernel.make(_rank_one_data(40, m, t0), 40)
    pot = recover_potential(solve_gl(series, grid))
    assert omega_l1_distance(pot, zero_family(m, t0, grid)) < 5e-3


def test_reconstruct_lattice_is_zero():
    grid = Grid(0.0, math.pi, 512)
    pot, _ = reconstruct(_lattice_data(0.0, 0.0, 40), grid, 40)
    assert np.max(np.abs(pot.p)) < 1e-6
    assert np.max(np.abs(pot.q)) < 1e-6


def test_reconstruct_round_trip_sin(sin_gl_data):
    grid = Grid(0.0, math.pi, 512)
    pot, phis = reconstruct(sin_gl_data, grid, 60)
    xs = grid.nodes
    inner = (xs > 0.1 * math.pi) & (xs < 0.9 * math.pi)
    err = np.abs(pot.q[inner] - np.sin(xs[inner]))
    assert np.quantile(err, 0.9) < 5e-2
    assert np.quantile(np.abs(pot.p[inner]), 0.9) < 5e-2


def test_window_with_a_gap_names_the_missing_index():
    """Items -3, -1, 0, 1, 3 span [-3, 3] but miss n = -2: a ContractError, not a KeyError."""
    full = _lattice_data(0.0, 0.0, 3)
    data = SpectralData(full.angles, {n: full.items[n] for n in (-3, -1, 0, 1, 3)})
    with pytest.raises(ContractError, match="target window .* n = -2$"):
        GLSeriesKernel.make(data, 3)


def test_reconstruct_rejects_missing_norming():
    data = _lattice_data(0.0, 0.0, 10)
    data.items[3] = SpectralDatum(3, 3.0, a=None)
    grid = Grid(0.0, math.pi, 256)
    with pytest.raises(ContractError):
        reconstruct(data, grid, 10)


def test_transformed_solutions_match_zero_pot():
    grid = Grid(0.0, math.pi, 256)
    series = GLSeriesKernel.make(_lattice_data(0.0, 0.0, 10), 10)
    kernel = solve_gl(series, grid)
    phis = transformed_solutions(series, kernel)
    assert np.max(np.abs(phis[2].y1 - np.sin(2 * grid.nodes))) < 1e-10
    assert np.max(np.abs(phis[2].y2 + np.cos(2 * grid.nodes))) < 1e-10


@pytest.mark.parametrize(
    "data, N, m",
    [
        (_lattice_data(0.3, 0.1, 10), 10, 128),
        (_rank_one_data(12, 2, -0.7), 12, 128),
        (_perturbed_data(0.3, 0.1, 20), 20, 256),
        (_perturbed_data(0.0, 0.0, 32), 32, 256),
    ],
    ids=["lattice", "rank_one", "perturbed_alpha", "N32_m256"],
)
def test_transformed_solutions_match_quadrature(data, N, m):
    """-a_n G_j e_n against the trapezoid integral of the dense kernel."""
    series = GLSeriesKernel.make(data, N)
    kernel = solve_gl(series, Grid(0.0, math.pi, m))
    phis = transformed_solutions(series, kernel)
    ref = _quadrature_solutions(series, kernel)
    assert phis.keys() == ref.keys()
    for n, r in ref.items():
        got = np.stack([phis[n].y1, phis[n].y2])
        assert np.max(np.abs(got - r)) <= 1e-12 * np.max(np.abs(r))


def test_residual_is_the_dense_triangle_maximum(monkeypatch):
    """The blockwise residual equals max |E_j U(t_i)^T| over the whole
    triangle t_i <= x_j, formed densely from the same E_j."""
    blocks = []
    triangle_max = glreconstruct._triangle_max

    def recording(E, Ut, j0):
        blocks.append(E)
        return triangle_max(E, Ut, j0)

    monkeypatch.setattr(glreconstruct, "_triangle_max", recording)
    grid = Grid(0.0, math.pi, 200)  # a last block of 9 nodes
    series = GLSeriesKernel.make(_rank_one_data(12, 1, 0.5), 12)
    kernel = solve_gl(series, grid)
    residual = kernel.residual  # the replay on this first read records the blocks
    E = np.concatenate(blocks)
    nx = grid.m + 1
    assert E.shape == (nx, 2, 50)
    Ut = kernel.UT.transpose(1, 0, 2).reshape(50, 2 * nx)
    dense = (E.reshape(2 * nx, 50) @ Ut).reshape(nx, 2, nx, 2) * np.tri(nx)[:, None, :, None]
    assert residual == np.max(np.abs(dense))
    assert 0.0 < residual < 1e-12


def test_reconstruct_memory_stays_below_one_dense_kernel():
    N, m = 16, 1024
    grid = Grid(0.0, math.pi, m)
    data = _perturbed_data(0.0, 0.0, N)
    tracemalloc.start()
    try:
        reconstruct(data, grid, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense (m+1)^2 x 2 x 2 kernel alone is 33.6 MB; the factors need ~1 MB each
    assert peak < 32 * 2**20

"""Constructive inverse problem: potential recovery from spectral data.

From target data {lambda_n, a_n} and the unperturbed reference lattice
(lambda_n^0 = n + (beta - alpha)/pi, a_n^0 = pi) one forms the series
kernel

    F(x, t) = sum_{|n| <= N} [ phi0(x, lambda_n) phi0^T(t, lambda_n)/a_n
                             - phi0(x, lambda_n^0) phi0^T(t, lambda_n^0)/a_n^0 ],

phi0(x, lambda) = (sin(lambda x + alpha), -cos(lambda x + alpha)) being the
zero-potential Cauchy solutions.  The transformation kernel K solves

    K(x, t) + F(x, t) + int_0^x K(x, s) F(s, t) ds = 0,   0 <= t <= x,

F(x, t) = U(x) C U(t)^T has rank R = 2(2N + 1), so trapezoid collocation
reduces at every x node to an R x R system for the coefficients G(x) of
K(x, t) = G(x) U(t)^T; neighbouring nodes' systems differ by a rank-2 Gram
step, so one LU serves a block of nodes through Woodbury updates (Hager
1989).  The kernel stays in this factored form.  Its diagnostics, the
largest collocation residual over the nodes of the triangle t_i <= x_j
and the condition number of the last node's system, are computed on
first read by one replay of the block loop with forward products only,
so a solve whose caller never reads them does not pay for them.  The
potential is read off the diagonal G(x) U(x)^T: with K_A the
B-anticommuting (symmetric trace-free) part of K(x, x),

    Omega(x) = K_A(x, x) B - B K_A(x, x),

i.e. p = -(K12 + K21), q = K11 - K22.  The eigenfunctions need no
quadrature either: with e_n the target column of n,

    phi(x, lambda_n) = phi0(x, lambda_n) + int_0^x K(x, s) phi0(s, lambda_n) ds
                     = -a_n G(x) e_n,

because the collocated integral is the one in the system for G (Levitan &
Sargsjan 1991).  The final step substitutes them back and checks
orthogonality and the boundary condition, which stands in for the
completeness facts the theory guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    ContractError,
    Grid,
    InconsistentDataError,
    PotentialMatrix,
    SingularSystemError,
    Trajectory2,
)
from .eigen import SpectralData, SpectralDatum

# relative tolerance of the closing orthogonality and boundary checks
CHECK_TOL = 5e-2
# collocation nodes per block of solve_gl, which factors one R x R system each
BLOCK = 16


def _phi0(lam, alpha: float, x: np.ndarray) -> np.ndarray:
    """Zero-potential Cauchy solution, shape (2,) + broadcast(lam, x) shape."""
    ph = lam * x + alpha
    return np.stack([np.sin(ph), -np.cos(ph)])


@dataclass(frozen=True)
class GLSeriesKernel:
    """Truncated series data for F(x, t): target vs reference lattice."""

    target: SpectralData
    reference: SpectralData
    trunc: int

    def __post_init__(self):
        if self.trunc <= 0:
            raise ContractError("truncation must be positive")
        for spec, name in ((self.target, "target"), (self.reference, "reference")):
            ns = spec.ns()
            if not ns or ns[0] > -self.trunc or ns[-1] < self.trunc:
                raise ContractError(f"{name} window does not cover [-N, N]")
            for n in range(-self.trunc, self.trunc + 1):
                if spec.items[n].a is None or spec.items[n].a <= 0:
                    raise ContractError(f"{name} a_{n} missing or nonpositive")

    @staticmethod
    def make(target: SpectralData, trunc: int) -> "GLSeriesKernel":
        """Attach the unperturbed reference lattice for the target's angles."""
        ang = target.angles
        delta = (ang.beta - ang.alpha) / np.pi
        items = {
            n: SpectralDatum(n, n + delta, a=np.pi)
            for n in range(-trunc, trunc + 1)
        }
        return GLSeriesKernel(target, SpectralData(ang, items), trunc)

    def ordered_indices(self) -> list[int]:
        # fixed summation order, ascending |n|, to pair each target term
        # with its reference and keep the cancellation deterministic
        return sorted(range(-self.trunc, self.trunc + 1), key=lambda n: (abs(n), -n))


@dataclass
class GLKernel:
    """Transformation kernel K(x_j, t) = G_j U(t)^T on the triangle t <= x_j.

    G (nx, 2, R) holds each node's coefficients, UT (nx, R, 2) the columns
    U(x_j)^T, target and reference pairs in ordered_indices order (target
    lambda_n in column 2k for the k-th index), and c the diagonal of C
    (solve_gl).  residual, the largest collocation residual over
    t_i <= x_j, and condition, the 2-norm condition number of the last
    node's R x R system, are computed together on first read by one replay
    of solve_gl's block loop, which repeats its forward products in the
    same order and solves nothing, and are kept from then on.
    """

    grid: Grid
    G: np.ndarray
    UT: np.ndarray
    c: np.ndarray

    @property
    def K(self) -> np.ndarray:
        """Dense kernel (nx, nx, 2, 2), row x, column t, zero above t = x;
        built anew on every access."""
        nx = self.grid.m + 1
        K = (self.G.reshape(2 * nx, -1) @ _columns(self.UT)).reshape(nx, 2, nx, 2)
        K *= np.tri(nx)[:, None, :, None]
        return K.transpose(0, 2, 1, 3)

    @property
    def residual(self) -> float:
        return self._diagnostics[0]

    @property
    def condition(self) -> float:
        return self._diagnostics[1]

    @cached_property
    def _diagnostics(self) -> tuple[float, float]:
        # E_j = A_j G_j^T + C U(x_j)^T by forward products, not through the inverse
        Ut = _columns(self.UT)
        residual = 0.0
        for j0, A, M, U, W, A_next in _blocks(self.c, self.UT, self.grid.h):
            b = W.shape[0]
            n2 = 2 * b
            # C-ordered like solve_gl's Gc, so the products below round alike
            Gc = np.ascontiguousarray(self.G[j0 : j0 + b].reshape(n2, -1).T)
            Ec = A @ Gc + M[:, :n2] @ (np.repeat(W, 2, axis=0).T * (U[:n2] @ Gc) + np.eye(n2))
            residual = max(residual, _triangle_max(Ec.T.reshape(b, 2, -1), Ut, j0))
        return residual, float(np.linalg.cond(A_next))


def _columns(UT: np.ndarray) -> np.ndarray:
    """U(t_i)^T side by side, (R, 2 nx)."""
    return UT.transpose(1, 0, 2).reshape(UT.shape[1], -1)


def _triangle_max(E: np.ndarray, Ut: np.ndarray, j0: int) -> float:
    """max |E_j U(t_i)^T| over t_i <= x_j for the block's nodes j = j0 + k,
    E (b, 2, R) and Ut the columns of the nodes up to the block's last."""
    b = E.shape[0]
    ER = (E.reshape(2 * b, -1) @ Ut[:, : 2 * (j0 + b)]).reshape(b, 2, j0 + b, 2)
    return float(np.max(np.abs(ER) * np.tri(b, j0 + b, j0)[:, None, :, None]))


def _blocks(c: np.ndarray, UT: np.ndarray, h: float):
    """The collocation blocks of BLOCK nodes in order, as (j0, A, M, U, W, A_next).

    A = I + C V_j0 at the block start j0; M = C U_B^T and U = U_B over the
    block's nodes and, if any, the next block start; W the block's
    trapezoid rows, A_j = A + M Om U_B with Om = diag(W[j - j0]); A_next
    the system at the next block start, or at the last node after the
    last block.
    """
    CUT = c[:, None] * UT  # C U(x_j)^T, (nx, R, 2)
    nx, R = UT.shape[:2]
    # row k: trapezoid weights on [x_j0, x_j0+k], one per column of C U_B^T
    e = np.eye(BLOCK + 1)
    tw = h * np.repeat(np.tri(BLOCK + 1) - 0.5 * (e + e[0]), 2, axis=1)
    A = np.eye(R)
    for j0 in range(0, nx, BLOCK):
        b = min(BLOCK, nx - j0)
        M = CUT[j0 : j0 + b + 1].transpose(1, 0, 2).reshape(R, -1)
        U = UT[j0 : j0 + b + 1].transpose(0, 2, 1).reshape(-1, R)
        r = min(b, nx - 1 - j0)  # node j0 + r: the next block start, or the last node
        A_next = A + (M * tw[r, : 2 * r + 2]) @ U
        yield j0, A, M, U, tw[:b, : 2 * b], A_next
        A = A_next


def solve_gl(series: GLSeriesKernel, grid: Grid) -> GLKernel:
    """Solve the kernel equation by trapezoid collocation in rank-R form.

    F(x, t) = U(x) C U(t)^T with R = 2(2N + 1) columns phi0(., lambda_n),
    C = diag(1/a_n, -1/a_n^0) over target and reference pairs, so the
    collocated row is K(x_j, t_i) = G_j U(t_i)^T, i <= j, where
        G_j (I + V_j C) = -U(x_j) C,   V_j = sum_i w_i U(x_i)^T U(x_i),
    w the trapezoid weights on [0, x_j] (h/2 at both ends, zero at j = 0).
    By Sylvester's determinant identity this is the dense 2(j + 1) system
    of node j reduced to size R.  Within a block of BLOCK nodes starting at
    j0, A_j = I + C V_j differs from A_j0 by the rank-2b trapezoid step
    C U_B^T Om_j U_B (U_B stacks the block's U(x_i)), so A_j0 is factored
    once and each node's solve is a 2b x 2b Woodbury capacitance system,
    all of a block's in one batched call.
    """
    if series.trunc * 8 > grid.m:
        raise ContractError("truncation too large for the grid: need N <= m/8")
    ns = series.ordered_indices()
    tgt, ref = series.target.items, series.reference.items
    lams = np.ravel([[tgt[n].lam, ref[n].lam] for n in ns])
    c = np.ravel([[1.0 / tgt[n].a, -1.0 / ref[n].a] for n in ns])
    UT = _phi0(lams, series.target.angles.alpha, grid.nodes[:, None]).transpose(1, 2, 0)
    G = np.empty((grid.m + 1, 2, c.size))
    for j0, A, M, U, W, _ in _blocks(c, UT, grid.h):
        b = W.shape[0]
        n2, k = 2 * b, np.arange(b)
        try:
            # Woodbury: A_j^{-1} M = Y - Y (I + Om Z)^{-1} Om Z, Y = A^{-1} M, Z = U_B Y
            Y = np.linalg.solve(A, M[:, :n2])
            OZ = W[:, :, None] * (U[:n2] @ Y)
            S = np.linalg.solve(np.eye(n2) + OZ, OZ.reshape(b, n2, b, 2)[k, :, k])
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"kernel system singular at an x index in {j0}..{j0 + b - 1}"
            ) from exc
        Gc = Y @ (S.transpose(1, 0, 2).reshape(n2, n2) - np.eye(n2))  # columns G_j^T
        G[j0 : j0 + b] = Gc.T.reshape(b, 2, -1)
    return GLKernel(grid, G, UT, c)


def recover_potential(kernel: GLKernel) -> PotentialMatrix:
    """Omega from the kernel diagonal K(x_j, x_j) = G_j U(x_j)^T:
    p = -(K12+K21), q = K11-K22."""
    d = kernel.G @ kernel.UT
    p = -(d[:, 0, 1] + d[:, 1, 0])
    q = d[:, 0, 0] - d[:, 1, 1]
    return PotentialMatrix.from_samples(p, q, kernel.grid)


def transformed_solutions(
    series: GLSeriesKernel, kernel: GLKernel
) -> dict[int, Trajectory2]:
    """phi(x, lambda_n) = phi0 + int_0^x K(x, s) phi0(s, lambda_n) ds.

    With the collocated trapezoid integral this is -a_n G_j e_n exactly,
    e_n the target column of n: multiply G_j (I + V_j C) = -U(x_j) C by e_n.
    """
    ns = series.ordered_indices()
    a = np.array([series.target.items[n].a for n in ns])
    phi = -a[:, None, None] * kernel.G[:, :, ::2].transpose(2, 1, 0)  # (len(ns), 2, nx)
    return {n: Trajectory2(kernel.grid, phi[k, 0], phi[k, 1]) for k, n in enumerate(ns)}


def reconstruct(
    data: SpectralData,
    grid: Grid,
    N: int,
) -> tuple[PotentialMatrix, dict[int, Trajectory2]]:
    """Full recovery pipeline with the closing consistency checks.

    Builds the series kernel, solves for K, recovers Omega, rebuilds the
    eigenfunction family, and verifies (phi_n, phi_m) = a_n delta_nm and
    the terminal boundary condition, both within CHECK_TOL relative scale.
    """
    delta = (data.angles.beta - data.angles.alpha) / np.pi
    for n in range(-N, N + 1):
        d = data.items.get(n)
        if d is None or d.a is None or d.a <= 0:
            raise ContractError(f"reconstruction needs lambda and a for n = {n}")
        if abs(d.lam - n - delta) > 2.0:
            raise InconsistentDataError(f"lambda_{n} too far from the lattice")
    series = GLSeriesKernel.make(data, N)
    kernel = solve_gl(series, grid)
    pot = recover_potential(kernel)
    phis = transformed_solutions(series, kernel)

    w = grid.trapezoid_weights()  # the rule solve_gl collocates with, not Grid.integrate
    beta = data.angles.beta
    check = sorted(range(-N, N + 1), key=abs)[: min(2 * N + 1, 21)]
    Y = np.stack([np.concatenate([phis[n].y1, phis[n].y2]) for n in check])
    gram = (Y * np.tile(w, 2)) @ Y.T
    for i, n in enumerate(check):
        fn = phis[n]
        bres = fn.y1[-1] * np.cos(beta) + fn.y2[-1] * np.sin(beta)
        if abs(bres) > CHECK_TOL * max(1.0, np.max(np.abs(fn.y2))):
            raise InconsistentDataError(f"boundary check fails at n = {n}")
        gram[i, i] -= data.items[n].a
        bad = np.flatnonzero(np.abs(gram[i]) > CHECK_TOL * np.pi)
        if bad.size:
            raise InconsistentDataError(
                f"orthogonality check fails at (n, m) = ({n}, {check[bad[0]]})"
            )
    return pot, phis

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
K(x, t) = G(x) U(t)^T.  Written symmetrically, G(x_j) H_j = -U(x_j) with
H_j = C^{-1} + V_j, V_j the trapezoid Gram of U on [0, x_j].  The solve
carries H^{-1} from block start to block start by Woodbury updates (Hager
1989); within a block of nodes, whose systems differ from the block
start's by trapezoid Gram steps, one Cholesky of the small Woodbury
capacitance matrix gives every node's G.  That matrix is a Schur
complement of the dense collocation matrix, which is positive
semidefinite on [0, pi]: the trapezoid rule integrates the reference
cross terms exactly, so the discrete Bessel inequality holds on every
prefix.  The kernel stays in this factored form.  Its diagnostics, the
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
# collocation nodes per block of solve_gl, which takes one Cholesky each
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
            spec.require_window(self.trunc, name)
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
    (solve_gl).  residual, the largest absolute collocation residual over
    t_i <= x_j, and condition, the 2-norm condition number of the last
    node's R x R system A = I + C V, are computed together on first read by
    one replay of solve_gl's blocks, which carries A by forward products
    and solves nothing, and are kept from then on.
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
        """max |(A_j G_j^T + C U(x_j)^T) U(t_i)^T| over t_i <= x_j.

        The residual is absolute, not scaled by max|K| or by C, so it grows
        with the size of the data and is compared only across solves of
        data of like scale.
        """
        return self._diagnostics[0]

    @property
    def condition(self) -> float:
        return self._diagnostics[1]

    @cached_property
    def _diagnostics(self) -> tuple[float, float]:
        # E_j = A_j G_j^T + C U(x_j)^T by forward products, not through the
        # inverse: A = I + C V_j0 at the block start, A_j = A + M Om_j U_B
        Ut = _columns(self.UT)
        tw = self.grid.h * _TW
        residual, A = 0.0, np.eye(self.c.size)
        for j0, b, r, U in _blocks(self.UT):
            n2 = 2 * b
            M = np.ascontiguousarray(self.c[:, None] * U.T)  # C U_B^T; its layout fixes how A rounds
            Gc = np.ascontiguousarray(self.G[j0 : j0 + b].reshape(n2, -1).T)  # columns G_j^T
            Om = np.repeat(tw[:b, :n2], 2, axis=0).T
            Ec = A @ Gc + M[:, :n2] @ (Om * (U[:n2] @ Gc) + np.eye(n2))
            residual = max(residual, _triangle_max(Ec.T.reshape(b, 2, -1), Ut, j0))
            A = A + (M * tw[r, : 2 * r + 2]) @ U
        return residual, float(np.linalg.cond(A))


def _columns(UT: np.ndarray) -> np.ndarray:
    """U(t_i)^T side by side, (R, 2 nx)."""
    return UT.transpose(1, 0, 2).reshape(UT.shape[1], -1)


def _triangle_max(E: np.ndarray, Ut: np.ndarray, j0: int) -> float:
    """max |E_j U(t_i)^T| over t_i <= x_j for the block's nodes j = j0 + k,
    E (b, 2, R) and Ut the columns of the nodes up to the block's last."""
    b = E.shape[0]
    ER = (E.reshape(2 * b, -1) @ Ut[:, : 2 * (j0 + b)]).reshape(b, 2, j0 + b, 2)
    return float(np.max(np.abs(ER) * np.tri(b, j0 + b, j0)[:, None, :, None]))


# row k: trapezoid weights on [x_j0, x_j0+k] in units of h, one per row of U_B
_TW = np.repeat(
    np.tri(BLOCK + 1) - 0.5 * (np.eye(BLOCK + 1) + np.eye(BLOCK + 1)[0]), 2, axis=1
)


def _blocks(UT: np.ndarray):
    """The collocation blocks of BLOCK nodes in order, as (j0, b, r, U).

    The block solves nodes j0 .. j0 + b - 1; node j0 + r is the next block
    start, or the last node after the last block; U = U_B stacks the rows
    U(x_i) for i = j0 .. j0 + r, (2(r + 1), R).
    """
    nx, R = UT.shape[:2]
    for j0 in range(0, nx, BLOCK):
        b = min(BLOCK, nx - j0)
        r = min(b, nx - 1 - j0)
        yield j0, b, r, UT[j0 : j0 + r + 1].transpose(0, 2, 1).reshape(-1, R)


def solve_gl(series: GLSeriesKernel, grid: Grid) -> GLKernel:
    """Solve the kernel equation by trapezoid collocation in rank-R form.

    F(x, t) = U(x) C U(t)^T with R = 2(2N + 1) columns phi0(., lambda_n),
    C = diag(1/a_n, -1/a_n^0) over target and reference pairs, so the
    collocated row is K(x_j, t_i) = G_j U(t_i)^T, i <= j, where
        G_j H_j = -U(x_j),   H_j = C^{-1} + V_j,   V_j = sum_i w_i U(x_i)^T U(x_i),
    w the trapezoid weights on [0, x_j] (h/2 at both ends, zero at j = 0).
    H_j = C^{-1} (I + C V_j) is node j's system made symmetric; by
    Sylvester's determinant identity it is the dense 2(j + 1) system of
    node j reduced to size R.

    The solve carries H^{-1} from block start to block start, from
    H_0^{-1} = C.  A block of BLOCK nodes starts at j0 with H = H_j0 and
    U_B stacking the rows U(x_i) of its nodes and of the next block start.
    H_j differs from H by the trapezoid step U_B^T Om_j U_B, so with
    Y = H^{-1} U_B^T Woodbury (Hager 1989) gives G_j0^T = -Y e_0 and
        G_j^T = -(2/h) Y T_k^{-1} E_k,   k = j - j0 >= 1,
    where T = Om^{-1} + U_B Y is the capacitance matrix of the whole block
    (Om its trapezoid weights), T_k is its leading 2k + 2 rows and columns
    with the diagonal of pair k raised to 2/h, and E_k selects pair k.

    T is a Schur complement of W^{-1} + U C U^T, the dense collocation
    matrix of [0, x_j0+r] (W its trapezoid weights) with node j0 split
    into a row of the prefix [0, x_j0] and a row of the block, weight h/2
    each.  On a grid over [0, pi] that matrix is positive semidefinite:
    the trapezoid rule integrates the reference cross terms cos((n - k) x)
    exactly, so the discrete Bessel inequality bounds the reference part
    by W^{-1} on every prefix.  So one Cholesky T = L L^T serves the block,
    and a failed one means a singular system.  T_k is L_k L_k^T (L_k the
    leading part of L) plus sigma_k = 2/h - Om_k^{-1} on pair k, so with
    Q = L^{-1} Y^T and B_k the 2 x 2 diagonal block of L^{-1} on pair k,
        G_j = -(2/h) (I + sigma_k B_k^T B_k)^{-1} B_k^T Q_k,
    Q_k the rows of pair k of Q, and the next block start has
    H^{-1} - Q^T Q.  No R x R system is factored.

    The reference lattice and the Bessel argument both need the grid to
    span [0, pi]; any other grid is refused.
    """
    if abs(grid.a) > 1e-12 or abs(grid.b - np.pi) > 1e-12:
        raise ContractError(f"the GL solve needs a grid on [0, pi], got [{grid.a}, {grid.b}]")
    if series.trunc * 8 > grid.m:
        raise ContractError("truncation too large for the grid: need N <= m/8")
    ns = series.ordered_indices()
    tgt, ref = series.target.items, series.reference.items
    lams = np.ravel([[tgt[n].lam, ref[n].lam] for n in ns])
    c = np.ravel([[1.0 / tgt[n].a, -1.0 / ref[n].a] for n in ns])
    UT = _phi0(lams, series.target.angles.alpha, grid.nodes[:, None]).transpose(1, 2, 0)
    h = grid.h
    Hinv = np.diag(c)
    G = np.empty((grid.m + 1, 2, c.size))
    for j0, b, r, U in _blocks(UT):
        Y = Hinv @ U.T
        G[j0] = -Y[:, :2].T
        if r == 0:  # a last block of one node
            break
        om = 1.0 / (h * _TW[r, : 2 * r + 2])  # Om^{-1}: 2/h at both ends, 1/h between
        T = U @ Y
        T.flat[:: 2 * r + 3] += om
        try:
            L = np.linalg.cholesky(T)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"kernel system singular at an x index in {j0}..{j0 + b - 1}"
            ) from exc
        Li = np.linalg.inv(L.T).T  # L^T is upper triangular, so its LU does not pivot
        Q = Li @ Y.T
        # (2/h) (I + sigma B^T B)^{-1} B^T in closed form for B = ((p, 0), (q, s)),
        # pairs k = 1 .. b - 1 at once
        d = np.diagonal(Li)
        p, s, q = d[2 : 2 * b : 2], d[3 : 2 * b : 2], np.diagonal(Li, -1)[2 : 2 * b : 2]
        sig = 2.0 / h - om[2 : 2 * b : 2]
        sp2, ss2 = sig * p * p, sig * s * s
        w = (2.0 / h) / (1.0 + sig * q * q + sp2 + ss2 + sp2 * ss2)
        F = np.stack([w * p * (1.0 + ss2), w * q, -sig * w * p * q * s, w * s * (1.0 + sp2)], axis=1)
        G[j0 + 1 : j0 + b] = -(F.reshape(-1, 2, 2) @ Q[2 : 2 * b].reshape(b - 1, 2, -1))
        if r == b:  # node j0 + r starts the next block
            Hinv -= Q.T @ Q
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

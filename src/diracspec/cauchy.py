"""Direct solvers for the Dirac Cauchy problems.

The system B y' + Omega y = lambda y is propagated in first-order form
y' = A(x, lambda) y with

    A = ((q, -lambda - p), (lambda - p, -q)) = C(x) + lambda * D,

C = B*Omega, D = -B.  A is trace free, so every transition matrix has unit
determinant and the Wronskian of two solutions at one lambda is constant.

There is one integrator, a fourth-order exponential (Magnus) scheme built on
two-point Gauss-Legendre sampling: the step matrix is the exact exponential of

    h*(A1 + A2)/2 + (sqrt(3) h^2 / 12) [A2, A1],

evaluated in closed form for trace-free 2x2 matrices.  It is exact for
constant coefficients (in particular for the zero potential at every
lambda), which a plain Runge-Kutta step is not; that exactness is what lets
eigenvalues of simple references be resolved to 1e-10 and beyond.

Both coefficient matrices of a step are affine in lambda, so the lambda-free
parts are precomputed once per (potential, grid) and every sweep is
vectorized over a whole batch of lambda values.  The grid is walked in
blocks of about 4096 lambda-steps, which bounds the working set at any batch
size.  The step exponentials of a block are built at once and, the step
product being associative, combined without a per-step loop:

* an endpoint sweep collapses each block by pairwise (tree) products and
  applies the block product to the running state;
* a renormalised sweep does the same, but divides every product of every
  tree level, and the state after every block, by its largest entry once
  that exceeds 1e100.  The factor is positive, so signs and ratios -- all a
  caller of a stiff half-axis sweep reads -- survive without overflow;
* a stored sweep takes the inclusive prefix products of each block
  (Hillis-Steele rounds) and applies them to the state, giving every node.

An endpoint sweep, renormalised or not, can also lift the angle Theta of
y = r(sin Theta, -cos Theta).
A step exp(M), M = ((a, b), (c, -a)), turns every ray by mu = (c - b)/2 within
+-|S| = hypot(a, (b + c)/2); for M = P + lambda*Q, mu is mu(P) + lambda*h and
|S| <= |S(P)| + |lambda| |S(Q)|.  With blocks cut so these bounds sum to at
most pi/2, one arctan2 per block and lambda fixes the block's whole turn.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    DiracError,
    Grid,
    GridMismatchError,
    PotentialMatrix,
    Trajectory2,
)

_SQRT3 = np.sqrt(3.0)
# lambda-steps per block of a sweep
_BLOCK = 4096
# renormalisation threshold; a product of two factors below it cannot overflow
_HUGE = 1e100


@dataclass(frozen=True)
class FundamentalMatrix:
    """Phi(x, lambda) per node; Phi(a) = identity, det Phi = 1 throughout."""

    grid: Grid
    entries: np.ndarray  # shape (m+1, 2, 2)

    def det(self) -> np.ndarray:
        e = self.entries
        return e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]


def _c_matrix(pot: PotentialMatrix, x: np.ndarray) -> np.ndarray:
    """C(x) = B*Omega(x) = ((q, -p), (-p, -q)), stacked over x."""
    p = pot.sample_p(x)
    q = pot.sample_q(x)
    out = np.empty(x.shape + (2, 2))
    out[..., 0, 0] = q
    out[..., 0, 1] = -p
    out[..., 1, 0] = -p
    out[..., 1, 1] = -q
    return out


# D = -B; [X, D] for 2x2 X computed explicitly where needed
_D = np.array([[0.0, -1.0], [1.0, 0.0]])


def _magnus_coeffs(pot: PotentialMatrix, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Step exponents M = P + lambda*Q as planar entries (a, b, c), shape (3, m).

    M is trace free, so M = ((a, b), (c, -a)).
    """
    h = grid.h
    x0 = grid.nodes[:-1]
    g1 = x0 + h * (0.5 - _SQRT3 / 6.0)
    g2 = x0 + h * (0.5 + _SQRT3 / 6.0)
    c1 = _c_matrix(pot, g1)
    c2 = _c_matrix(pot, g2)
    comm_cc = c2 @ c1 - c1 @ c2
    dc = c2 - c1
    comm_cd = dc @ _D - _D @ dc
    w = _SQRT3 * h * h / 12.0
    P = 0.5 * h * (c1 + c2) + w * comm_cc
    Q = h * _D + w * comm_cd
    return (
        np.stack([P[:, 0, 0], P[:, 0, 1], P[:, 1, 0]]),
        np.stack([Q[:, 0, 0], Q[:, 0, 1], Q[:, 1, 0]]),
    )


def _step_coeffs(pot: PotentialMatrix, grid: Grid):
    """_magnus_coeffs per grid, kept in the potential's __dict__ (no field)."""
    tables = pot.__dict__.setdefault("_step_tables", {})
    if grid not in tables:
        tables[grid] = _magnus_coeffs(pot, grid)
    return tables[grid]


def _turn_data(P, Q):
    """Per-step rotation rates mu(P), mu(Q) and turn bounds |mu(P)| + |S(P)|, |S(Q)|."""
    mu_p = 0.5 * (P[2] - P[1])
    mu_q = 0.5 * (Q[2] - Q[1])
    d_p = np.abs(mu_p) + np.hypot(P[0], 0.5 * (P[1] + P[2]))
    d_q = np.hypot(Q[0], 0.5 * (Q[1] + Q[2]))
    return mu_p, mu_q, d_p, d_q


def turn_bound(pot: PotentialMatrix, grid: Grid) -> tuple[float, float]:
    """(W0, W1) with |Theta(b) - Theta(a) - lambda*(b - a)| <= W0 + |lambda| W1 at real lambda."""
    mu_p, mu_q, d_p, d_q = _turn_data(*_step_coeffs(pot, grid))
    return float(np.sum(d_p)), float(np.sum(d_q) + abs(np.sum(mu_q) - (grid.b - grid.a)))


def _expm_tracefree(a, b, c):
    """Entries of exp(((a, b), (c, -a))) via cosh/sinhc of s, s^2 = a^2 + bc."""
    z = a * a + b * c
    small = np.abs(z) < 1e-12
    if np.iscomplexobj(z):
        s = np.sqrt(z)
        ch = np.cosh(s)
        sh = np.sinh(s) / np.where(small, 1.0, s)
    else:
        # each entry evaluates only its branch: cosh/sinh for z >= 0, else cos/sin
        r = np.sqrt(np.abs(z))
        pos = z >= 0.0
        neg = ~pos
        ch = np.cosh(r, where=pos, out=np.empty_like(r))
        np.cos(r, where=neg, out=ch)
        sh = np.sinh(r, where=pos, out=np.empty_like(r))
        np.sin(r, where=neg, out=sh)
        sh /= np.where(small, 1.0, r)
    sh = np.where(small, 1.0 + z / 6.0 + z * z / 120.0, sh)
    return ch + sh * a, sh * b, sh * c, ch - sh * a


def _mul(x, y):
    """Planar 2x2 products x @ y; each operand is a sequence (00, 01, 10, 11) of stacks."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (
        x00 * y00 + x01 * y10,
        x00 * y01 + x01 * y11,
        x10 * y00 + x11 * y10,
        x10 * y01 + x11 * y11,
    )


def _apply(T, y):
    """Planar 2x2 stacks T applied to the state y = (y1, y2)."""
    return T[0] * y[0] + T[1] * y[1], T[2] * y[0] + T[3] * y[1]


def _rescale(x):
    """Divide the stacked entries x by their largest modulus where that exceeds _HUGE."""
    big = functools.reduce(np.maximum, [np.abs(e) for e in x])
    mask = big > _HUGE
    if not np.any(mask):
        return x
    scale = np.where(mask, big, 1.0)
    return tuple(e / scale for e in x)


def _tree_product(E, renorm: bool):
    """Ordered product E[n-1] ... E[1] E[0] of planar stacks along the leading axis.

    Pairwise rounds halve the stack log2(n) times; an odd last factor moves
    to the next round unchanged.
    """
    while E[0].shape[0] > 1:
        n = E[0].shape[0]
        n2 = n - n % 2
        P = _mul([e[1:n2:2] for e in E], [e[0:n2:2] for e in E])
        if renorm:
            P = _rescale(P)
        if n2 < n:
            P = tuple(np.concatenate([p, e[n2:]]) for p, e in zip(P, E))
        E = P
    return tuple(e[0] for e in E)


def _prefix_products(E):
    """Inclusive prefix products E[k] ... E[0] along the leading axis, in place.

    Hillis-Steele scan: after the round with offset d, entry k holds the
    product of factors max(0, k - 2d + 1) .. k.
    """
    n = E[0].shape[0]
    d = 1
    while d < n:
        P = _mul([e[d:] for e in E], [e[:-d] for e in E])
        for e, p in zip(E, P):
            e[d:] = p
        d *= 2
    return E


def propagate(
    pot: PotentialMatrix,
    grid: Grid,
    lam,
    y0,
    *,
    direction: int = +1,
    store: bool = False,
    renorm: bool = False,
    angle: bool = False,
):
    """Propagate y' = A(x, lambda) y across the grid for a batch of lambdas.

    lam has shape (K,); y0 has shape (2,) or (2, K).  The mode switches are
    keyword-only.  direction=+1 runs from grid.a to grid.b, -1 the other way
    (starting from y(b) = y0).  With store=True the full node history of
    shape (2, K, m+1) is returned, otherwise the endpoint of shape (2, K).
    renorm (endpoint sweeps only) rescales products and state by positive
    factors whenever they grow past 1e100 (only ratios survive; used for
    stiff half-axis sweeps).  angle (real endpoint sweeps only, renormalised
    or not: a positive rescale moves no angle) also returns the lifted angle
    Theta of y = r(sin Theta, -cos Theta), shape (K,), continuous along the
    sweep from the principal value of y0's angle.
    """
    if store and renorm:
        raise DiracError("renorm applies to endpoint sweeps only")
    lam = np.atleast_1d(np.asarray(lam))
    K = lam.shape[0]
    cplx = np.iscomplexobj(lam) or np.iscomplexobj(np.asarray(y0))
    if angle and (store or cplx):
        raise DiracError("the angle lift needs an endpoint sweep at real lambda")
    dtype = complex if cplx else float
    y0 = np.asarray(y0, dtype=dtype)
    if y0.ndim == 1:
        y0 = np.repeat(y0[:, None], K, axis=1)
    y = (y0[0], y0[1])
    m = grid.m
    P, Q = _step_coeffs(pot, grid)
    sign = 1.0 if direction > 0 else -1.0
    block = max(8, _BLOCK // max(K, 1))
    if angle:
        mu_p, mu_q, d_p, d_q = _turn_data(P, Q)
        blocks = _turn_blocks(d_p + np.max(np.abs(lam), initial=0.0) * d_q, block)
        theta, turns = np.arctan2(y[0], -y[1]), np.zeros(K)
    else:
        blocks = [(s, min(s + block, m)) for s in range(0, m, block)]
    if direction < 0:
        blocks = blocks[::-1]
    if store:
        Y = np.empty((2, K, m + 1), dtype=dtype)
        node0 = 0 if direction > 0 else m
        Y[0, :, node0], Y[1, :, node0] = y

    for s, e in blocks:
        a, b, c = sign * (P[:, s:e, None] + Q[:, s:e, None] * lam)
        E = _expm_tracefree(a, b, c)
        if direction < 0:
            E = tuple(x[::-1] for x in E)
        if not store:
            # an angle block's steps have 2-norms at most e^|S|, the |S| sum
            # to at most pi/2, so no partial product reaches 1e100 there
            y = _apply(_tree_product(E, renorm and not angle), y)
            if renorm:
                y = _rescale(y)
            if angle:
                # the block turns every ray by rot within +-pi/2: lift exactly
                rot = sign * (np.sum(mu_p[s:e]) + lam * np.sum(mu_q[s:e]))
                new = np.arctan2(y[0], -y[1])
                turns += np.round((rot - (new - theta)) / (2.0 * np.pi))
                theta = new
            continue
        y1, y2 = _apply(_prefix_products(E), y)
        if direction > 0:
            Y[0, :, s + 1 : e + 1], Y[1, :, s + 1 : e + 1] = y1.T, y2.T
        else:
            Y[0, :, s:e], Y[1, :, s:e] = y1[::-1].T, y2[::-1].T
        y = (y1[-1], y2[-1])

    if store:
        return Y
    if angle:
        return np.stack(y), theta + 2.0 * np.pi * turns
    return np.stack(y)


def _turn_blocks(d, block):
    """Blocks of at most `block` steps whose turn bounds d sum to at most pi/2."""
    cum = np.concatenate([[0.0], np.cumsum(d)])
    ends = np.searchsorted(cum, cum + 0.5 * np.pi, side="right") - 1
    blocks, s = [], 0
    while s < d.size:
        e = min(s + block, int(ends[s]))
        if e <= s:
            raise DiracError("one step turns rays by more than pi/2; refine the grid")
        blocks.append((s, e))
        s = e
    return blocks


def initial_state(alpha: float) -> np.ndarray:
    """Cauchy data phi(0) = (sin alpha, -cos alpha)."""
    return np.array([np.sin(alpha), -np.cos(alpha)])


def solve_cauchy(pot: PotentialMatrix, lam, alpha: float) -> Trajectory2:
    """phi(x, lambda, alpha): solution with phi(a) = (sin alpha, -cos alpha)."""
    grid = pot.domain
    Y = propagate(pot, grid, lam, initial_state(alpha), store=True)
    return Trajectory2(grid, Y[0, 0], Y[1, 0])


def solve_terminal(pot: PotentialMatrix, lam, beta: float) -> Trajectory2:
    """psi(x, lambda, beta): solution with psi(b) = (sin beta, -cos beta)."""
    grid = pot.domain
    Y = propagate(pot, grid, lam, initial_state(beta), direction=-1, store=True)
    return Trajectory2(grid, Y[0, 0], Y[1, 0])


def fundamental_matrix(pot: PotentialMatrix, lam) -> FundamentalMatrix:
    """Phi(x, lambda) with Phi(a) = E; columns are Cauchy solutions for e1, e2."""
    grid = pot.domain
    lam2 = np.array([lam, lam])
    Y = propagate(pot, grid, lam2, np.array([[1.0, 0.0], [0.0, 1.0]]), store=True)
    ent = np.empty((grid.m + 1, 2, 2), dtype=Y.dtype)
    ent[:, 0, 0] = Y[0, 0]
    ent[:, 1, 0] = Y[1, 0]
    ent[:, 0, 1] = Y[0, 1]
    ent[:, 1, 1] = Y[1, 1]
    return FundamentalMatrix(grid, ent)


def wronskian(phi: Trajectory2, u: Trajectory2):
    """omega(x) = phi1*u2 - phi2*u1 per node, plus max deviation from its mean."""
    if phi.grid != u.grid:
        raise GridMismatchError("wronskian needs a shared grid")
    w = phi.y1 * u.y2 - phi.y2 * u.y1
    dev = float(np.max(np.abs(w - np.mean(w))))
    return w, dev

"""Direct solvers for the Dirac Cauchy problems.

The system B y' + Omega y = lambda y is propagated in first-order form
y' = A(x, lambda) y with

    A = ((q, -lambda - p), (lambda - p, -q)) = C(x) + lambda * D,

C = B*Omega, D = -B.  A is trace free, so every transition matrix has unit
determinant and the Wronskian of two solutions at one lambda is constant.

There is one integrator, a fourth-order exponential (Magnus) scheme built on
two-point Gauss-Legendre sampling: the step matrix is the exact exponential of

    h*(A1 + A2)/2 + (sqrt(3) h^2 / 12) [A2, A1],

evaluated, for that exponent M, as ch*I + sh*M with ch and sh power series in
z = -det M, summed with scaling and squaring.  It is exact for
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
y = r(sin Theta, -cos Theta).  A step exp(M), M = ((a, b), (c, -a)), turns
every ray by mu = (c - b)/2 within +-|S| = hypot(a, (b + c)/2); for
M = P + lambda*Q, mu is mu(P) + lambda*h and |S| <= |S(P)| + |lambda| |S(Q)|.
Its trees stop at segments whose bounds sum to at most pi/2; a prefix scan
gives the state at every segment end, where one arctan2 per lambda fixes the
segment's whole turn.
"""

from __future__ import annotations

import functools
import math
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
# |z| above which _expm_tracefree scales and squares; a step that turns rays by
# at most pi/2 (|mu| + |S| <= pi/2) has |z| = ||S|^2 - mu^2| <= (pi/2)^2
_ZMAX = (0.5 * np.pi) ** 2
# Taylor coefficients of ch and sh in z, 1/(2k)! and 1/(2k+1)!
_CH = [1.0 / math.factorial(2 * k) for k in range(20)]
_SH = [1.0 / math.factorial(2 * k + 1) for k in range(20)]
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


def _magnus_coeffs(pot: PotentialMatrix, grid: Grid) -> np.ndarray:
    """Step exponents M = P + lambda*Q as planar entries (a, b, c) of (P, Q), shape (2, 3, m).

    M is trace free, so M = ((a, b), (c, -a)).  With C = ((q, -p), (-p, -q))
    and D = ((0, -1), (1, 0)) both commutators are planar in closed form:
    [C2, C1] = 2(p2 q1 - q2 p1) ((0, 1), (-1, 0)) and
    [C2 - C1, D] = -2(q2 - q1) ((0, 1), (1, 0)) - 2(p2 - p1) diag(1, -1).
    """
    h = grid.h
    x0 = grid.nodes[:-1]
    g1 = x0 + h * (0.5 - _SQRT3 / 6.0)
    g2 = x0 + h * (0.5 + _SQRT3 / 6.0)
    p1, q1 = pot.sample_p(g1), pot.sample_q(g1)
    p2, q2 = pot.sample_p(g2), pot.sample_q(g2)
    w2 = _SQRT3 * h * h / 6.0  # twice the commutator weight sqrt(3) h^2 / 12
    ps = -0.5 * h * (p1 + p2)
    cc = w2 * (p2 * q1 - q2 * p1)
    dq = w2 * (q2 - q1)
    return np.stack([
        [0.5 * h * (q1 + q2), ps + cc, ps - cc],
        [-w2 * (p2 - p1), -h - dq, h - dq],
    ])


def _step_coeffs(pot: PotentialMatrix, grid: Grid):
    """_magnus_coeffs per grid, kept in the potential's __dict__ (no field)."""
    tables = pot.__dict__.setdefault("_step_tables", {})
    if grid not in tables:
        tables[grid] = _magnus_coeffs(pot, grid)
    return tables[grid]


def _turn_data(coeffs):
    """Per-step rotation rates (mu(P), mu(Q)) and turn bounds |mu(P)| + |S(P)|, |S(Q)|."""
    a, b, c = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    mu = 0.5 * (c - b)
    s = np.hypot(a, 0.5 * (b + c))
    return mu, np.abs(mu[0]) + s[0], s[1]


def turn_bound(pot: PotentialMatrix, grid: Grid) -> tuple[float, float]:
    """(W0, W1) with |Theta(b) - Theta(a) - lambda*(b - a)| <= W0 + |lambda| W1 at real lambda."""
    mu, d_p, d_q = _turn_data(_step_coeffs(pot, grid))
    return float(np.sum(d_p)), float(np.sum(d_q) + abs(np.sum(mu[1]) - (grid.b - grid.a)))


def _expm_tracefree(a, b, c):
    """Entries of exp(M), M = ((a, b), (c, -a)), as ch*I + sh*M.

    M^2 = z*I with z = a^2 + bc, so ch = sum z^k/(2k)! and sh = sum z^k/(2k+1)!
    are entire in z: one Horner sum serves real and complex z.  Past _ZMAX, z
    is scaled by 4^-s and squared back.  s and the degree come from max|z|
    over finite z only, so a non-finite z flows through as inf or nan.
    """
    z = a * a + b * c
    az = np.abs(z)
    zmax = float(np.max(az, initial=0.0))
    if not math.isfinite(zmax):
        zmax = float(np.max(az, where=np.isfinite(az), initial=0.0))
    s = math.ceil(0.5 * math.log2(zmax / _ZMAX)) if zmax > _ZMAX else 0
    zs, zmax = z * 0.25**s, zmax * 0.25**s
    # n terms: the first dropped term of ch is below 1e-17, and n >= 2 lets a
    # non-finite z reach the entries
    n = next(k for k in range(2, len(_CH)) if zmax**k * _CH[k] < 1e-17)
    ch = np.full_like(z, _CH[n - 1])
    sh = np.full_like(z, _SH[n - 1])
    for k in range(n - 2, -1, -1):
        ch *= zs
        ch += _CH[k]
        sh *= zs
        sh += _SH[k]
    for _ in range(s):  # exp(2M) = exp(M)^2
        ch, sh, zs = ch * ch + zs * sh * sh, ch * sh, 4.0 * zs
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


def _tree_product(E, renorm: bool, rounds: int):
    """Pairwise products of planar stacks E along the leading axis, `rounds` times.

    Each round halves the stack and an odd last factor moves to the next round
    unchanged, so after r rounds entry i is the ordered product of factors
    [i 2^r, (i+1) 2^r); enough rounds leave the whole product E[n-1] ... E[0].
    """
    for _ in range(rounds):
        n = E[0].shape[0]
        if n == 1:
            break
        n2 = n - n % 2
        P = _mul([e[1:n2:2] for e in E], [e[0:n2:2] for e in E])
        if renorm:
            P = _rescale(P)
        if n2 < n:
            P = tuple(np.concatenate([p, e[n2:]]) for p, e in zip(P, E))
        E = P
    return E


def _prefix_products(E, renorm: bool):
    """Inclusive prefix products E[k] ... E[0] along the leading axis, in place.

    Hillis-Steele scan: after the round with offset d, entry k holds the
    product of factors max(0, k - 2d + 1) .. k, rescaled by _rescale if renorm.
    """
    n = E[0].shape[0]
    d = 1
    while d < n:
        P = _mul([e[d:] for e in E], [e[:-d] for e in E])
        if renorm:
            P = _rescale(P)
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
    sweep from the principal value of y0's angle, at about the cost of the
    plain sweep (see the module docstring).
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
    coeffs = _step_coeffs(pot, grid)
    P, Q = coeffs
    step = 1 if direction > 0 else -1
    block = max(8, _BLOCK // max(K, 1))
    blocks = [(s, min(s + block, m)) for s in range(0, m, block)][::step]
    # tree rounds per block: none keeps every step, m leaves the block product
    rounds = 0 if store else m
    if angle:
        mu, d_p, d_q = _turn_data(coeffs)
        rounds = _lift_rounds(d_p + np.max(np.abs(lam), initial=0.0) * d_q)
        mu = step * mu
        theta, turns = np.arctan2(y[0], -y[1]), np.zeros(K)
    if store:
        Y = np.empty((2, K, m + 1), dtype=dtype)
        node0 = 0 if direction > 0 else m
        Y[0, :, node0], Y[1, :, node0] = y

    for s, e in blocks:
        a, b, c = step * (P[:, s:e, None] + Q[:, s:e, None] * lam)
        E = tuple(x[::step] for x in _expm_tracefree(a, b, c))
        # the state at every segment end, scaled by positive factors if renorm
        ys = _apply(_prefix_products(_tree_product(E, renorm, rounds), renorm), y)
        if renorm:
            ys = _rescale(ys)
        if angle:
            # each segment turns every ray by rot within +-pi/2: lift exactly
            seg = np.arange(0, e - s, 2**rounds)
            mp, mq = np.add.reduceat(mu[:, s:e][:, ::step], seg, axis=1)[..., None]
            new = np.arctan2(ys[0], -ys[1])
            # rot minus each segment's principal difference, end minus start
            slip = mp + mq * lam - new
            slip[0] += theta
            slip[1:] += new[:-1]
            turns += np.round(slip / (2.0 * np.pi)).sum(axis=0)
            theta = new[-1]
        if store:
            if direction > 0:
                Y[0, :, s + 1 : e + 1], Y[1, :, s + 1 : e + 1] = ys[0].T, ys[1].T
            else:
                Y[0, :, s:e], Y[1, :, s:e] = ys[0][::-1].T, ys[1][::-1].T
        y = (ys[0][-1], ys[1][-1])

    if store:
        return Y
    if angle:
        return np.stack(y), theta + 2.0 * np.pi * turns
    return np.stack(y)


def _lift_rounds(d):
    """Largest r with every window of 2^r steps turning rays by at most pi/2 in all.

    d holds the steps' turn bounds; windows longer than the grid are the grid.
    """
    top = np.max(d)
    if top > 0.5 * np.pi:
        raise DiracError("one step turns rays by more than pi/2; refine the grid")
    cum = np.concatenate([[0.0], np.cumsum(d)])
    # a window of 2^r steps is bounded by 2^r top, so start from that r
    with np.errstate(divide="ignore", over="ignore"):
        r = int(min(np.log2(0.5 * np.pi / top), d.size.bit_length()))
    while 2**r < d.size:
        w = min(2 ** (r + 1), d.size)
        if np.max(cum[w:] - cum[:-w]) > 0.5 * np.pi:
            break
        r += 1
    return r


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

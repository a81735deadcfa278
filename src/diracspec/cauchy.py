"""Direct solvers for the Dirac Cauchy problems.

The system B y' + Omega y = lambda y is propagated in first-order form
y' = A(x, lambda) y with

    A = ((q, -lambda - p), (lambda - p, -q)) = C(x) + lambda * D,

C = B*Omega, D = -B.  A is trace free, so every transition matrix has unit
determinant and the Wronskian of two solutions at one lambda is constant.

There is one integrator, a fourth-order exponential (Magnus) scheme built on
two-point Gauss-Legendre sampling: the step matrix is the exact exponential of

    h*(A1 + A2)/2 + (sqrt(3) h^2 / 12) [A2, A1],

evaluated, for that exponent M, as ch*I + sh*M: sh is a power series in
z = -det M, and ch follows from det exp(M) = ch^2 - z sh^2 = 1 (the constant
Wronskian) as sqrt(1 + z sh^2), with scaling and squaring past |z| = 1.  It
is exact for constant coefficients (in particular for the zero potential at
every lambda), which a plain Runge-Kutta step is not; that exactness is what
lets eigenvalues of simple references be resolved to 1e-10 and beyond.

Both coefficient matrices of a step are affine in lambda, so the lambda-free
parts are precomputed once per (potential, grid), as one (3, m, 2) table of
[Q P] rows, and every sweep is vectorized over a whole batch of lambda
values: a block's exponents are one BLAS product of its rows with the (2, K)
rows [lambda; 1], negated (exactly) for a backward sweep.  The grid is
walked in blocks of about 16384 lambda-steps, under 2 MB of live
temporaries, which bounds the working set at any batch size.  The step
exponentials of a block are built at once as one (2, 2, steps, K) stack
and, the step product being associative, combined without a per-step loop
(real 2x2 products are one einsum pass each):

* pairwise (tree) rounds multiply neighbouring factors, halving the stack;
* an odd-even scan then gives the state after every remaining factor: pair
  products halve the stack, the recursion gives the state after every pair,
  and one more factor each the states in between, about n products and n
  applications for n factors.  An endpoint sweep scans its block product
  alone, a stored sweep every step; either scans node-major into a
  contiguous (2, 1, n+1, K) buffer for the block's n factors, which a
  stored sweep copies once into its (2, K, m+1) history;
* a renormalised sweep divides every pair product and every state by its
  largest entry once that exceeds 1e100: a positive factor, so signs and
  ratios -- all a caller of a stiff half-axis sweep reads -- survive.

An endpoint sweep, renormalised or not, can also lift the angle Theta of
y = r(sin Theta, -cos Theta).  A step exp(M), M = ((a, b), (c, -a)), turns
every ray by mu = (c - b)/2 within +-|S| = hypot(a, (b + c)/2); for
M = P + lambda*Q, mu is mu(P) + lambda*h and |S| <= |S(P)| + |lambda| |S(Q)|.
Its trees stop at segments whose bounds sum to at most pi/2; the scan gives
the state at every segment end, where one arctan2 per lambda fixes the
segment's whole turn.
"""

from __future__ import annotations

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
# |z| above which _expm_tracefree scales and squares; below it ch = sqrt(1 + z sh^2)
# is cosh of a root of z of modulus at most 1, safely away from 0
_ZMAX = 1.0
# Taylor coefficients 1/(2k+1)! of sh in z, one per degree k
_SH = np.array([1.0 / math.factorial(2 * k + 1) for k in range(20)])
# lambda-steps per block of a sweep: under 2 MB of live temporaries, about one L2 cache
_BLOCK = 16384
# renormalisation threshold; a product of two factors below it cannot overflow
_HUGE = 1e100


@dataclass(frozen=True)
class FundamentalMatrix:
    """Phi(x, lambda) per node; Phi(a) = identity, det Phi = 1 throughout."""

    grid: Grid
    entries: np.ndarray  # shape (m+1, 2, 2)


def _magnus_coeffs(pot: PotentialMatrix, grid: Grid) -> np.ndarray:
    """Step exponents M = P + lambda*Q as planar entries (a, b, c) of (P, Q), shape (2, 3, m).

    M is trace free, so M = ((a, b), (c, -a)).  With C = ((q, -p), (-p, -q))
    and D = ((0, -1), (1, 0)) both commutators are planar in closed form:
    [C2, C1] = 2(p2 q1 - q2 p1) ((0, 1), (-1, 0)) and
    [C2 - C1, D] = -2(q2 - q1) ((0, 1), (1, 0)) - 2(p2 - p1) diag(1, -1).
    The result is a view of one C-contiguous (3, m, 2) table of [Q P] rows,
    which propagate multiplies by the (2, K) rows [lambda; 1].
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
    QP = np.empty((3, grid.m, 2))
    QP[..., 0] = [-w2 * (p2 - p1), -h - dq, h - dq]
    QP[..., 1] = [0.5 * h * (q1 + q2), ps + cc, ps - cc]
    return QP.transpose(2, 0, 1)[::-1]


def _step_coeffs(pot: PotentialMatrix, grid: Grid):
    """_magnus_coeffs per grid, kept in the potential's __dict__ (no field)."""
    tables = pot.__dict__.setdefault("_step_tables", {})
    if grid not in tables:
        tables[grid] = _magnus_coeffs(pot, grid)
    return tables[grid]


def _turn_data(pot: PotentialMatrix, grid: Grid):
    """Per-step rotation rates (mu(P), mu(Q)) and turn bounds, kept like _step_coeffs."""
    tables = pot.__dict__.setdefault("_turn_tables", {})
    if grid not in tables:
        a, b, c = _step_coeffs(pot, grid).swapaxes(0, 1)
        mu = 0.5 * (c - b)
        s = np.hypot(a, 0.5 * (b + c))
        tables[grid] = mu, np.abs(mu[0]) + s[0], s[1]
    return tables[grid]


def turn_bound(pot: PotentialMatrix, grid: Grid) -> tuple[float, float]:
    """(W0, W1) with |Theta(b) - Theta(a) - lambda*(b - a)| <= W0 + |lambda| W1 at real lambda."""
    mu, d_p, d_q = _turn_data(pot, grid)
    return float(np.sum(d_p)), float(np.sum(d_q) + abs(np.sum(mu[1]) - (grid.b - grid.a)))


def _expm_tracefree(a, b, c):
    """exp(M) = ch*I + sh*M, M = ((a, b), (c, -a)), as one (4, ...) array: 00, 01, 10, 11.

    M^2 = z*I with z = a^2 + bc, so sh = sum z^k/(2k+1)! is entire in z: one
    Horner sum serves real and complex z.  ch follows from det exp(M) =
    ch^2 - z sh^2 = 1; for |z| <= _ZMAX = 1 it is cosh of a root of z, so ch
    >= cos 1 (real z) or Re ch > 0 (complex z), and the principal square root
    neither cancels nor takes the wrong branch.  Past _ZMAX, each z is scaled
    by its own exact 4^-s and squared back s times; a non-finite z keeps s = 0
    and flows through as inf or nan.  The degree comes from the largest
    finite scaled |z|.
    """
    z = a * a
    z += b * c
    az = np.abs(z)
    zmax = float(np.max(az, initial=0.0))
    if not math.isfinite(zmax):
        az = np.where(np.isfinite(az), az, 0.0)
        zmax = float(np.max(az, initial=0.0))
    s = smax = 0
    if zmax > _ZMAX:
        s = np.ceil(0.5 * np.log2(np.maximum(az, _ZMAX) / _ZMAX)).astype(int)
        scale, smax = np.ldexp(1.0, -2 * s), int(np.max(s))
        z, zmax = z * scale, float(np.max(az * scale))
    del az  # one array fewer alive: sh and ch are formed in place, in E[1] and E[3]
    # n terms: the first dropped term of sh is below 1e-17, and n >= 2 lets a
    # non-finite z reach the entries
    n = next(k for k in range(2, len(_SH)) if zmax**k * _SH[k] < 1e-17)
    E = np.empty((4,) + z.shape, dtype=z.dtype)
    ch, sh = E[3], E[1]
    np.multiply(z, _SH[n - 1], out=sh)
    sh += _SH[n - 2]
    for k in range(n - 3, -1, -1):
        sh *= z
        sh += _SH[k]
    np.multiply(sh, sh, out=ch)
    ch *= z
    ch += 1.0
    if ch.dtype.kind == "c":
        # the principal root of w = 1 + z sh^2 by real parts, several times faster
        # than numpy's complex sqrt: Re ch = sqrt((|w| + Re w)/2) >= cos 1 and
        # Im ch = Im w/(2 Re ch)
        re = np.abs(ch)
        re += ch.real
        re *= 0.5
        np.sqrt(re, out=re)
        ch.imag /= re
        ch.imag *= 0.5
        ch.real = re
    else:
        np.sqrt(ch, out=ch)
    for k in range(smax):  # exp(2M) = exp(M)^2 where s > k
        sq = s > k
        ch[...], sh[...] = np.where(sq, ch * ch + z * sh * sh, ch), np.where(sq, ch * sh, sh)
        z = np.where(sq, 4.0 * z, z)
    sa = sh * a
    np.add(ch, sa, out=E[0])
    np.multiply(sh, c, out=E[2])
    np.subtract(ch, sa, out=ch)
    np.multiply(sh, b, out=sh)
    return E


def _mul(x, y, out=None):
    """Stacked 2x2 products x @ y of (2, 2, ...) arrays; y may be a (2, 1, ...) column.

    Real stacks take one einsum pass; complex ones two calls, which keep the
    planar formulas' rounding (einsum's complex sum differs by an ulp).
    """
    if x.dtype.kind == y.dtype.kind == "f":
        return np.einsum("ilnk,ljnk->ijnk", x, y, out=out)
    out = np.multiply(x[:, 0, None], y[0], out=out)
    out += x[:, 1, None] * y[1]
    return out


def _rescale(x):
    """Divide the stacked 2x2 entries x by their largest modulus where that exceeds _HUGE."""
    big = np.abs(x).max(axis=(0, 1))
    mask = big > _HUGE
    return x / np.where(mask, big, 1.0) if mask.any() else x


def _tree_product(E, renorm: bool, rounds: int):
    """Pairwise products of the (2, 2, n, K) stack E along axis 2, `rounds` times.

    Each round halves the stack and an odd last factor moves to the next round
    unchanged, so after r rounds entry i is the ordered product of factors
    [i 2^r, (i+1) 2^r); enough rounds leave the whole product E[n-1] ... E[0].
    """
    for _ in range(rounds):
        n = E.shape[2]
        if n == 1:
            break
        P = _mul(E[:, :, 1::2], E[:, :, 0 : n - 1 : 2])
        if renorm:
            P = _rescale(P)
        E = np.concatenate([P, E[:, :, n - 1 :]], axis=2) if n % 2 else P
    return E


def _scan(E, Y, renorm: bool):
    """Fill the (2, 1, n+1, K) states Y[:, :, k+1] = E[k] ... E[0] Y[:, :, 0] in place.

    Odd-even scan: the pair products E[2j+1] E[2j] halve the stack, the
    recursion fills the state after every pair (the even slots), and one more
    factor each gives the odd slots: about n products and n applications.
    Under renorm the pair products and the new states are rescaled.
    """
    n = E.shape[2]
    if n > 1:
        P = _mul(E[:, :, 1::2], E[:, :, 0 : n - 1 : 2])
        _scan(_rescale(P) if renorm else P, Y[:, :, ::2], renorm)
    if renorm:
        Y[:, :, 1::2] = _rescale(_mul(E[:, :, ::2], Y[:, :, 0:n:2]))
    else:
        _mul(E[:, :, ::2], Y[:, :, 0:n:2], out=Y[:, :, 1::2])


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
    y0 = np.broadcast_to(np.asarray(y0, dtype=dtype).reshape(2, -1), (2, K))
    m = grid.m
    step = 1 if direction > 0 else -1
    # the (3, m, 2) table of [Q P] rows behind the (P, Q) view; a block's exponents
    # (a, b, c) are its rows times L = [lambda; 1], one real BLAS product (complex
    # L as interleaved real columns), and -L (exact) gives exp(-M)
    QP = _step_coeffs(pot, grid)[::-1].transpose(1, 2, 0)
    L = np.empty((2, K), dtype=np.result_type(lam, float))
    L[0], L[1] = step * lam, step
    Lr = L.view(float)
    block = max(8, _BLOCK // max(K, 1))
    blocks = [(s, min(s + block, m)) for s in range(0, m, block)][::step]
    # tree rounds per block: none keeps every step, m leaves the block product
    rounds = 0 if store else m
    if angle:
        mu, d_p, d_q = _turn_data(pot, grid)
        rounds = _lift_rounds(d_p + np.max(np.abs(lam), initial=0.0) * d_q)
        mu = step * mu
        theta, turns = np.arctan2(y0[0], -y0[1]), np.zeros(K)
    # states are (2, 1, nodes, K) columns, scanned block by block node-major; a
    # stored sweep copies each block's states into its history once
    y = y0[:, None, None]
    if store:
        Y = np.empty((2, K, m + 1), dtype=dtype)
        Y[:, :, 0 if step > 0 else m] = y0

    for s, e in blocks:
        E = _expm_tracefree(*(QP[:, s:e] @ Lr).view(L.dtype))
        T = _tree_product(E[:, ::step].reshape(2, 2, e - s, K), renorm, rounds)
        ys = np.empty((2, 1, T.shape[2] + 1, K), dtype=dtype)
        ys[:, :, :1] = y
        # the state at every segment end, scaled by positive factors if renorm
        _scan(T, ys, renorm)
        if store:
            lo = s + (step > 0)  # the nodes of ys[:, :, 1:] in sweep order
            Y[:, :, lo : lo + e - s] = ys[:, 0, 1:][:, ::step].swapaxes(1, 2)
        if angle:
            # each segment turns every ray by rot within +-pi/2: lift exactly
            seg = np.arange(0, e - s, 2**rounds)
            mp, mq = np.add.reduceat(mu[:, s:e][:, ::step], seg, axis=1)[..., None]
            new = np.arctan2(ys[0, 0, 1:], -ys[1, 0, 1:])
            # rot minus each segment's principal difference, end minus start
            slip = mp + mq * lam - new
            slip[0] += theta
            slip[1:] += new[:-1]
            turns += np.round(slip / (2.0 * np.pi)).sum(axis=0)
            theta = new[-1]
        y = ys[:, :, -1:]

    if store:
        return Y
    y = y[:, 0, 0].copy()
    return (y, theta + 2.0 * np.pi * turns) if angle else y


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
    # entry (i, j) at node x is component i of the solution from e_j
    return FundamentalMatrix(grid, np.ascontiguousarray(Y.transpose(2, 0, 1)))


def wronskian(phi: Trajectory2, u: Trajectory2):
    """omega(x) = phi1*u2 - phi2*u1 per node, plus max deviation from its mean."""
    if phi.grid != u.grid:
        raise GridMismatchError("wronskian needs a shared grid")
    w = phi.y1 * u.y2 - phi.y2 * u.y1
    dev = float(np.max(np.abs(w - np.mean(w))))
    return w, dev

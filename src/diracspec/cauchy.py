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
rows [lambda; 1], negated (exactly) for a backward sweep, and _expm_tracefree
takes them to step exponentials in about 25 elementwise passes.

Since M = P + lambda*Q, z = a^2 + bc is quadratic in lambda, so sh and ch,
each cut after n terms of its series in z, are polynomials of degree 2n - 2
in lambda, and every entry of exp(M) is one of degree 2n - 1 (the Taylor
route of Moler and Van Loan, SIAM Review 45, 2003).  _exp_table keeps these
coefficients per (grid, n), and a batch of K >= 2n^2 lambdas whose |z| bound
(||P||_F + |lambda| ||Q||_F)^2 / 2, from each block's peak norms, is at most
_ZMAX takes each block's exponentials as one BLAS product of its table rows
with [lambda^(2n-1), ..., lambda, 1].  n is the fewest terms whose first
dropped term of ch, z^n/(2n)! (larger than sh's), is below 1e-17 at that
bound.  A backward sweep takes exp(-M) = ch I - sh M, the adjugate of
exp(M), from the same rows.  Building the table takes about as long as
the product saves on 2n^2 lambdas (measured for n = 3 to 10; both scale
with m), so from K = 2n^2 on a sweep repays its table by itself, and which
route a call takes, like its bits, never depends on what earlier calls left
cached.
The product is issued in row chunks that OpenBLAS keeps on the calling
thread (_serial_matmul): a threaded GEMM splits its output differently, so
its bits would depend on the thread count.
_expm_tracefree stays for every other sweep: below 2n^2 lambdas the table
costs more than it saves, past |z| = 1 it scales and squares each exponent
by its own power of two (a polynomial of fixed degree in lambda cannot), and
a non-finite lambda leaves no finite bound.  A sweep of K < 8 lambdas
neither forms the bound nor builds a table.

The grid is walked in blocks of a power of two lambda-steps, near 16384 in
all and under 2 MB of live temporaries at any batch size, the rest in blocks
of its binary digits.  A block's rows are kept in bit-reversed step order
(Cooley and Tukey), so its step exponentials form one flat (2, 2, steps*K)
stack whose first half holds the even steps and second half the odd ones;
the step product being associative, they combine without a per-step loop,
each product taking two contiguous halves (real 2x2 products: one einsum
pass):

* tree rounds multiply the second half by the first, which gives the pair
  products, again bit-reversed, up to the block product;
* the scan comes back down the tree: the states before a level's even
  factors are those before the level above, and those factors applied to
  them give the states before the odd ones -- about n products and n
  applications for n factors, written into halves of one buffer, which a
  stored sweep takes back to node order once into its (2, K, m+1) history;
* a summing sweep (weights=) scans down to the same states and adds
  sum_j w_j |y_j|^2 per lambda from the buffer, gathering the weights in its
  bit-reversed order: the norming constants a_n = integral of |phi_n|^2 need
  only these sums, and the history would be the largest allocation of a
  spectrum's pass (4.2 MB at K = 257, m = 1024, plus its squares);
* a renormalised sweep divides every pair product and every state by its
  largest entry once that exceeds 1e100 (a positive factor, so signs and
  ratios -- all a caller of a stiff half-axis sweep reads -- survive); it
  skips each check that ||exp(M)||_2 <= exp(||M||_F) shows cannot fire.

An endpoint sweep, renormalised or not, can also lift the angle Theta of
y = r(sin Theta, -cos Theta).  A step exp(M), M = ((a, b), (c, -a)), turns
every ray by mu = (c - b)/2 within +-|S| = hypot(a, (b + c)/2); for
M = P + lambda*Q, mu is mu(P) + lambda*h and |S| <= |S(P)| + |lambda| |S(Q)|.
Its scans stop at segments whose bounds sum to at most pi/2 and give
the state at every segment end, where one arctan2 per lambda fixes the
segment's whole turn.  _turn_data keeps, per potential and grid, the rates
mu(P) and mu(Q), the bounds, the largest |lambda| each segment length
allows (negated, for a bisection) and turn_bound's two sums, so that a lift
does no work over the grid per call but its segment sums of the rates.  A
backward sweep steps by exp(-M), which turns rays by -mu: it sums the
stored rates over each segment and negates the two sums, which is exact
(rounding is symmetric in sign), instead of negating both rate rows over
the whole grid on every call.
"""

from __future__ import annotations

import bisect
import functools
import itertools
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
# Taylor coefficients 1/(2k+1)! of sh and 1/(2k)! of ch in z, one per degree k
_SH = [1.0 / math.factorial(2 * k + 1) for k in range(20)]
_CH = [1.0 / math.factorial(2 * k) for k in range(20)]
# lambda-steps per block of a sweep: under 2 MB of live temporaries, about one L2 cache
_BLOCK = 16384
# renormalisation threshold; a product of two factors below it cannot overflow
_HUGE = 1e100
_LOG_SAFE = math.log(_HUGE) - 1.0  # log(_HUGE/e): a norm bound below it leaves e for rounding
# exp(-M) = ch I - sh M is the adjugate of exp(M): its entry planes in exp(M)'s, column-broadcast
_ADJ = np.array([3, 1, 2, 0])[:, None]
# OpenBLAS runs a GEMM of M*N*K <= 65536 * GEMM_MULTITHREAD_THRESHOLD (4 by default) on the
# calling thread: a threaded product splits the output differently, and its bits then depend on
# the thread count, besides waking threads for a few microseconds of work
_GEMM_SERIAL = 65536 * 4
try:  # what np.einsum runs unoptimised, without its Python wrapper: about 1 us less per call
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum


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
    """Per-step rotation rates (mu(P), mu(Q)), turn bounds d_P, d_Q, negated lift limits and turn_bound.

    Limit r is the largest |lambda| at which every window of 2^r steps (at
    most the grid) turns rays by W_P + |lambda| W_Q <= pi/2 in all, W the
    window's sums of the bounds; a window with W_Q = 0 or one so small that
    the quotient overflows has the limit inf.  The limits are kept negated,
    as a list that _lift_rounds bisects, and turn_bound's pair as floats, so
    that neither does work over the grid per call.  Kept like _step_coeffs.
    """
    tables = pot.__dict__.setdefault("_turn_tables", {})
    if grid not in tables:
        a, b, c = _step_coeffs(pot, grid).swapaxes(0, 1)
        mu = 0.5 * (c - b)
        s = np.hypot(a, 0.5 * (b + c))
        d_p, d_q = np.abs(mu[0]) + s[0], s[1]
        cp, cq = (np.concatenate([[0.0], np.cumsum(d)]) for d in (d_p, d_q))
        ws = [min(2**r, grid.m) for r in range((grid.m - 1).bit_length() + 1)]
        # fmin skips 0/0: pi/2 at any lambda
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lim = [np.fmin.reduce((0.5 * np.pi - (cp[w:] - cp[:-w])) / (cq[w:] - cq[:-w])) for w in ws]
        neg = -np.minimum.accumulate(lim)
        # a nan limit sorts last, as np.searchsorted would sort it: past every |lambda|
        neg = np.where(np.isnan(neg), np.inf, neg).tolist()
        bound = float(np.sum(d_p)), float(np.sum(d_q) + abs(np.sum(mu[1]) - (grid.b - grid.a)))
        tables[grid] = mu, d_p, d_q, neg, bound
    return tables[grid]


def turn_bound(pot: PotentialMatrix, grid: Grid) -> tuple[float, float]:
    """(W0, W1) with |Theta(b) - Theta(a) - lambda*(b - a)| <= W0 + |lambda| W1 at real lambda."""
    return _turn_data(pot, grid)[4]


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
    zmax = float(az.max(initial=0.0))
    if not math.isfinite(zmax):
        az = np.where(np.isfinite(az), az, 0.0)
        zmax = float(az.max(initial=0.0))
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


def _exp_table(pot: PotentialMatrix, grid: Grid, n: int) -> np.ndarray:
    """Lambda-coefficients of exp(P_j + lambda Q_j) per step, shape (4, m, 2n): 00, 01, 10, 11.

    z = a^2 + bc is z0 + z1 lambda + z2 lambda^2 per step, so sh and ch, each
    cut after n terms of its series in z, are polynomials of degree 2n - 2 in
    lambda, formed by Horner in z on coefficient rows; the entries ch +- sh*a,
    sh*b and sh*c reach degree 2n - 1.  Each row holds the degrees highest
    first, so that a product with [lambda^(2n-1), ..., lambda, 1] adds the
    smallest terms first.  Kept like _step_coeffs, per (grid, n).
    """
    tables = pot.__dict__.setdefault("_exp_tables", {})
    key = grid, n
    if key not in tables:
        (a0, b0, c0), (a1, b1, c1) = _step_coeffs(pot, grid)
        z0, z1, z2 = a0 * a0 + b0 * c0, 2.0 * a0 * a1 + b0 * c1 + b1 * c0, a1 * a1 + b1 * c1
        # rows [ch; sh] by ascending degree in lambda, one (m,) row per degree
        S = np.zeros((2, 2 * n - 1, grid.m))
        S[:, 0] = [[_CH[n - 1]], [_SH[n - 1]]]
        for d in range(0, 2 * n - 2, 2):  # times z, plus the next coefficient; degree d -> d + 2
            T = S[:, : d + 1].copy()
            S[:, : d + 1] *= z0
            S[:, 1 : d + 2] += T * z1
            S[:, 2 : d + 3] += T * z2
            k = n - 2 - d // 2
            S[:, 0] += [[_CH[k]], [_SH[k]]]
        ch, sh = S
        table = np.empty((4, grid.m, 2 * n))
        E = table[..., ::-1].transpose(0, 2, 1)  # the same entries by ascending degree, (4, 2n, m)
        for e, (u0, u1) in zip(E, [(a0, a1), (b0, b1), (c0, c1), (-a0, -a1)]):
            np.multiply(sh, u0, out=e[:-1])
            e[-1] = 0.0
            e[1:] += sh * u1
        E[0, :-1] += ch
        E[3, :-1] += ch
        tables[key] = table
    return tables[key]


def _mul(x, y, out=None):
    """Stacked 2x2 products x @ y of flat (2, 2, n) stacks; y may be a (2, 1, n) column.

    Real stacks take one einsum pass; complex ones two calls, which keep the
    planar formulas' rounding (einsum's complex sum differs by an ulp).
    """
    if x.dtype.kind == y.dtype.kind == "f":  # einsum takes no out=None
        return _einsum("ilx,ljx->ijx", x, y) if out is None else _einsum("ilx,ljx->ijx", x, y, out=out)
    out = np.multiply(x[:, 0, None], y[0], out=out)
    out += x[:, 1, None] * y[1]
    return out


def _serial_matmul(R, V):
    """R @ V as GEMMs of at most _GEMM_SERIAL multiply-adds each, none of which OpenBLAS threads."""
    k, n = V.shape
    cols = max(1, min(n, _GEMM_SERIAL // k))
    rows = max(1, _GEMM_SERIAL // (k * cols))
    out = np.empty((R.shape[0], n))
    for j in range(0, n, cols):
        for i in range(0, R.shape[0], rows):
            np.matmul(R[i : i + rows], V[:, j : j + cols], out=out[i : i + rows, j : j + cols])
    return out


def _weighted_squares(S, w):
    """sum_j w_j |S[:, j]|^2 per column of the (2, n, K) states S, shape (K,).

    Each column's terms are laid out contiguously, so numpy sums them pairwise
    (no BLAS call, whose bits could depend on its thread count).
    """
    R = S.view(float) if S.dtype.kind == "c" else S
    sq = R[0] * R[0]
    sq += R[1] * R[1]
    if S.dtype.kind == "c":
        sq = sq[:, 0::2] + sq[:, 1::2]
    return np.multiply(sq.T, w, order="C").sum(axis=1)


def _rescale(x):
    """Divide the stacked 2x2 entries x by their largest modulus where that exceeds _HUGE."""
    big = np.abs(x).max(axis=(0, 1))
    mask = big > _HUGE
    return x / np.where(mask, big, 1.0) if mask.any() else x


@functools.lru_cache(maxsize=16)
def _bitrev(n: int) -> np.ndarray:
    """0 .. n-1 in bit-reversed order, n a power of two (read-only)."""
    br = np.zeros(1, dtype=np.intp)
    while br.size < n:
        br = np.concatenate([2 * br, 2 * br + 1])
    br.flags.writeable = False
    return br


@functools.lru_cache(maxsize=64)
def _segments(n: int, c: int):
    """For c segments of an n-step block: the steps they start at, and _block_states' slots in
    sweep order, each segment's start and then the end (both read-only)."""
    starts, slots = np.arange(0, n, n // c), np.append(_bitrev(c), c)
    starts.flags.writeable = slots.flags.writeable = False
    return starts, slots


def _sweep_table(pot: PotentialMatrix, grid: Grid, B: int):
    """The (3, m, 2) [Q P] table, each sweep block bit-reversed, and the blocks (lo, hi, g, peak).

    Blocks hold B steps, then the binary digits of the rest, largest first: powers of two, none
    padded.  g and peak are the sum and the largest of ||Q_j||_F and of ||P_j||_F over the
    block's steps, each a (Q, P) pair.  Kept per (grid, B) beside _step_coeffs.
    """
    tables = pot.__dict__.setdefault("_step_tables", {})
    if (grid, B) not in tables:
        m = grid.m
        sizes = [B] * (m // B) + [1 << i for i in range(B.bit_length() - 1, -1, -1) if m % B >> i & 1]
        bounds = [0, *itertools.accumulate(sizes)]
        perm = np.concatenate([lo + _bitrev(n) for lo, n in zip(bounds, sizes)])
        QP = _step_coeffs(pot, grid)[::-1].transpose(1, 2, 0)
        # ||M||_F^2 = 2a^2 + b^2 + c^2 for M = ((a, b), (c, -a)), per step of Q and of P
        frob = np.sqrt(2.0 * QP[0] ** 2 + QP[1] ** 2 + QP[2] ** 2)
        g, peak = (f.reduceat(frob, bounds[:-1], axis=0).tolist() for f in (np.add, np.maximum))
        blocks = list(zip(bounds, bounds[1:], g, peak))
        tables[grid, B] = np.take(QP, perm, axis=1), blocks
    return tables[grid, B]


def _block_states(E, y, keep: int, rate):
    """States along a sweep block from the (2, 1, K) states y, as one (2, c+1, K) buffer.

    E holds the block's n = 2^j factors at bit-reversed positions, shape (2, 2, n, K); the tree
    and the scan see it as one flat (2, 2, nK) stack (see the module docstring).  The tree goes
    up to the block product and the scan back down to level min(keep, j), whose c factors span
    2^keep steps each: the buffer holds the states before them, bit-reversed, then the end
    state.  Unless rate is None every new state is rescaled, and so is every product of 2^r
    steps unless its norm bound exp(2^r rate), rate bounding each step's log norm, stays below
    _HUGE/e.
    """
    n, K = E.shape[2:]
    j = n.bit_length() - 1
    levels = [E.reshape(2, 2, -1)]
    for r in range(1, j + 1):
        h = (n >> r) * K
        P = _mul(levels[-1][:, :, h:], levels[-1][:, :, :h])
        # level r - 1 stays only if the scan reads it
        levels = levels[r <= keep :] + [P if rate is None or 2**r * rate < _LOG_SAFE else _rescale(P)]
    c = n >> min(keep, j)
    X = np.empty((2, c + 1, K), dtype=y.dtype)
    X[:, :1] = y
    flat = X.reshape(2, 1, -1)
    # (factors, first slot written): the block product for the end state, then
    # each level's even factors, top down
    evens = [(G[:, :, : G.shape[2] // 2], G.shape[2] // 2) for G in levels[-2::-1]]
    for G, at in [(levels[-1], c * K)] + evens:
        h = G.shape[2]
        if rate is None:
            _mul(G, flat[:, :, :h], out=flat[:, :, at : at + h])
        else:
            flat[:, :, at : at + h] = _rescale(_mul(G, flat[:, :, :h]))
    return X


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
    weights=None,
):
    """Propagate y' = A(x, lambda) y across the grid for a batch of lambdas.

    lam has shape (K,); y0 has shape (2,) or (2, K).  The mode switches are
    keyword-only.  direction=+1 runs from grid.a to grid.b, -1 the other way
    (starting from y(b) = y0).  With store=True the full node history of
    shape (2, K, m+1) is returned, otherwise the endpoint of shape (2, K).
    weights, shape (m+1,), also returns sum_j weights_j |y(x_j)|^2 per lambda,
    shape (K,), from the states a stored sweep would write, without the
    history: (endpoint, sums).
    renorm (endpoint sweeps only) rescales products and state by positive
    factors whenever they grow past 1e100 (only ratios survive; used for
    stiff half-axis sweeps).  angle (real endpoint sweeps only, renormalised
    or not: a positive rescale moves no angle) also returns the lifted angle
    Theta of y = r(sin Theta, -cos Theta), shape (K,), continuous along the
    sweep from the principal value of y0's angle, at about the cost of the
    plain sweep (see the module docstring).
    """
    weighted = weights is not None
    if (store or weighted) and renorm:
        raise DiracError("renorm applies to endpoint sweeps only")
    if store and weighted:
        raise DiracError("weights sum the states instead of storing them; pass one of store and weights")
    lam = np.atleast_1d(np.asarray(lam))
    K = lam.shape[0]
    y0 = np.asarray(y0)
    cplx = "c" in (lam.dtype.kind, y0.dtype.kind)
    if angle and (store or weighted or cplx):
        raise DiracError("the angle lift needs an endpoint sweep at real lambda")
    dtype = complex if cplx else float
    # (2, 1) or (2, K): every use broadcasts it over the batch
    y0 = y0.astype(dtype, copy=False).reshape(2, -1)
    m = grid.m
    step = 1 if direction > 0 else -1
    # a block's exponents (a, b, c) are its [Q P] rows times L = [lambda; 1], one
    # real BLAS product (complex L as interleaved real columns), and -L (exact)
    # gives exp(-M)
    L = np.empty((2, K), dtype=np.result_type(lam, float))
    L[0], L[1] = step * lam, step
    Lr = L.view(float)
    # blocks of a power of two steps, nearest in log scale to _BLOCK // K
    B = min(1 << round(math.log2(max(8, _BLOCK // max(K, 1)))), 1 << (m.bit_length() - 1))
    QP, blocks = _sweep_table(pot, grid, B)
    # the tree level whose states the scan gives: every step stored or summed, else the block product
    keep = 0 if store or weighted else m
    lam_top = float(np.abs(lam).max(initial=0.0)) if renorm or angle or K >= 8 else 0.0
    V = None  # the powers of lambda when the batch takes the polynomial table
    if K >= 8:  # n >= 2, so no smaller batch takes the table
        # |z| <= ||M||_F^2 / 2 <= (||P||_F + |lambda| ||Q||_F)^2 / 2 at every step; inf or nan fails
        f = max(p + lam_top * q for _, _, _, (q, p) in blocks)
        zb = 0.5 * f * f
        if zb <= _ZMAX:
            n_ex = next(k for k in range(2, len(_CH)) if zb**k * _CH[k] < 1e-17)
            if K >= 2 * n_ex * n_ex:  # the sweep repays building the table (module docstring)
                T = _exp_table(pot, grid, n_ex)
                # [lambda^(2n-1), ..., lambda, 1], matching the table's columns, in L's float or
                # complex dtype (an integer lambda's powers would wrap); complex as real pairs
                V = np.ones((2 * n_ex, K), dtype=L.dtype)
                V[-2::-1] = np.cumprod(np.broadcast_to(lam.astype(L.dtype), (2 * n_ex - 1, K)), axis=0)
                V = V.view(float)
    if angle:
        mu, _, _, neg_lim, _ = _turn_data(pot, grid)
        keep = _lift_rounds(neg_lim, lam_top)
        theta, turns = np.arctan2(y0[0], -y0[1]), np.zeros(K)
    y = y0[:, None]
    if store:
        Y = np.empty((2, K, m + 1), dtype=dtype)
    if weighted:
        w = np.asarray(weights, dtype=float)
        if w.shape != (m + 1,):
            raise GridMismatchError(f"weights of shape {w.shape} for {m + 1} nodes")
        sums = np.zeros(K)

    for lo, hi, (g_q, g_p), (peak_q, peak_p) in blocks[::step]:
        n = hi - lo
        # backward, bitrev(n-1-i) = n-1-bitrev(i): the block's rows reversed (16-byte copies)
        if V is None:
            rows = QP[:, lo:hi] if step > 0 else QP[:, lo:hi].view(complex)[:, ::-1].copy().view(float)
            E = _expm_tracefree(*(rows @ Lr).view(L.dtype)).reshape(2, 2, n, K)
        else:
            if step > 0:
                rows = np.take(T, lo + _bitrev(n), axis=1)
            else:
                # exp(-M) = adj exp(M): planes 11, 01, 10, 00, the off-diagonals negated (exact)
                rows = T[_ADJ, lo + _bitrev(n)[::-1]]
                rows[1:3] *= -1.0
            E = _serial_matmul(rows.reshape(-1, 2 * n_ex), V).view(L.dtype).reshape(2, 2, n, K)
        # ||exp(M)||_2 <= exp(||M||_F) and ||M||_F <= ||P||_F + |lambda| ||Q||_F bound the
        # block's products, times 1 + sqrt(2) max|y| its states: below _HUGE/e (e for
        # rounding) no rescale fires, else each tree level's own bound decides
        y_big = math.log1p(math.sqrt(2.0) * float(np.max(np.abs(y), initial=0.0))) if renorm else 0.0
        rescale = renorm and not g_p + lam_top * g_q + y_big < _LOG_SAFE
        X = _block_states(E, y, keep, peak_p + lam_top * peak_q if rescale else None)
        c = X.shape[1] - 1  # states before each of c segments, then the end
        if store:  # X's slots in sweep order are the block's nodes
            Y[:, :, lo : hi + 1] = np.take(X, _segments(n, n)[1][::step], axis=1).swapaxes(1, 2)
        if weighted:  # the states before each step, at the block's nodes in X's order
            sums += _weighted_squares(X[:, :n], w[lo + _bitrev(n) if step > 0 else hi - _bitrev(n)])
        if angle:
            # each segment turns every ray by rot within +-pi/2: lift exactly
            starts, slots = _segments(n, c)
            mp, mq = np.add.reduceat(mu[:, lo:hi][:, ::step], starts, axis=1)[..., None]
            if step < 0:  # the rates of a backward sweep are negated, and so (exactly) are their sums
                mp, mq = -mp, -mq
            ends = np.take(X, slots[1:], axis=1)
            new = np.arctan2(ends[0], -ends[1])
            # rot minus each segment's principal difference, end minus start
            slip = mp + mq * lam - new
            slip[0] += theta
            slip[1:] += new[:-1]
            turns += np.round(slip / (2.0 * np.pi)).sum(axis=0)
            theta = new[-1]
        y = X[:, c:]

    if store:
        return Y
    y = y[:, 0].copy()
    if weighted:
        sums += _weighted_squares(y[:, None], w[-1:] if step > 0 else w[:1])
        return y, sums
    return (y, theta + 2.0 * np.pi * turns) if angle else y


def _lift_rounds(neg_lim, lam) -> int:
    """Largest r with every window of 2^r steps turning rays at |lambda| <= lam by at most pi/2.

    neg_lim is _turn_data's list of negated limits, non-decreasing.
    """
    r = bisect.bisect_right(neg_lim, -lam) - 1
    if r < 0:
        raise DiracError("one step turns rays by more than pi/2; refine the grid")
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

"""Finite-rank changes of a spectral function, in one shot or one rank at a time.

Moving the spectral function by jumps gamma_k at K points, with psi_k the
solutions there (sampled as Psi, shape (K, 2, nx)), makes the transformation
kernel degenerate, and its equation reduces to one K x K system per node

    (A0 + diag(gamma) V(x)) G(x) = -diag(gamma) Psi(x),
    V_kl(x) = int_0^x psi_k . psi_l.

The potential then moves by p += -(M12 + M21), q += M11 - M22 with
M = sum_k g_k psi_k^T, and any solution maps as v -> v + G int_0^x Psi v.
Applying the columns one at a time is the rank-1 recurrence (Freiling &
Yurko 2001): each step solves the 1 x 1 system of its column as transformed
by the steps before it.  Isospectral shifts and half-axis surgery are both
such changes; their callers sample the columns, this module does the algebra.

A column is square-integrable when it carries a finite eigenvalue label
eig[k]; a[k] is then its norming constant int_0^inf |psi_k|^2.  The prefix
of two such columns tends to a_k delta_kl, so it is formed as that limit
minus the backward tail, which keeps full relative accuracy down to the
Gaussian floor where a forward prefix would be pure cancellation noise.
The limit enters A0 exactly: A0 = diag(1 + gamma_k a_k) over those columns
and 1 elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ContractError, Grid, SingularSystemError

_BLOCK = 2**13


def _labels(values, n: int) -> np.ndarray:
    return np.full(n, np.nan) if values is None else np.asarray(values, dtype=float)


def _prefix(psi, eig, a, v, v_eig, grid: Grid):
    """int_0^x psi_k . v_n as (limit (K, N), variable part (K, N, nx))."""
    f = np.einsum("kax,nax->knx", psi, v)
    both = np.isfinite(eig)[:, None] & np.isfinite(v_eig)[None, :]
    if not np.any(both):
        var = grid.cumulative(f)
    else:
        # each pair's prefix is formed once: forward, or as limit minus tail
        var = np.empty_like(f)
        if not np.all(both):
            var[~both] = grid.cumulative(f[~both])
        fb = f[both]
        tail = grid.cumulative(fb[:, ::-1])[:, ::-1]
        # one-term asymptotic for the piece beyond the grid, ~ f/(2x)
        var[both] = -(tail + fb[:, -1:] / (2.0 * grid.b))
    limit = np.where(eig[:, None] == v_eig[None, :], a[:, None], 0.0)
    return limit, var


def _check(A: np.ndarray, xs: np.ndarray) -> None:
    """Reject a per-node system (nx, K, K) that is degenerate somewhere.

    Every diagonal entry is positive for valid data: removal rows carry the
    positive tail of the removed state, rescalings tend to a/b, and other
    columns to 1 + gamma ||psi||^2.  The determinant legitimately decays
    with those tails, so degeneracy is judged relative to the diagonal
    product, not on an absolute scale.  A 1 x 1 system is its own
    determinant, so the diagonal check is all of it.
    """
    diag = np.einsum("xkk->xk", A)
    if np.any(diag <= 0.0):
        j = int(np.argmax(np.any(diag <= 0.0, axis=1)))
        raise ContractError(f"nonpositive diagonal entry at x = {xs[j]:.6g}")
    if A.shape[-1] == 1:
        return
    sign, logdet = np.linalg.slogdet(A)
    bad = (sign == 0) | (logdet - np.sum(np.log(diag), axis=1) < math.log(1e-12))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SingularSystemError(f"kernel system singular near x = {xs[j]:.6g}")
    if np.any(sign < 0):
        j = int(np.argmax(sign < 0))
        raise ContractError(f"negative determinant at x = {xs[j]:.6g}")


def solve(psi, gamma, grid: Grid, eig=None, a=None):
    """G (K, 2, nx) of the checked per-node system, and the potential shift.

    The shift is read off M = sum_k g_k psi_k^T: p += -(M12 + M21) and
    q += M11 - M22, returned as (G, dp, dq).
    """
    gamma = np.asarray(gamma, dtype=float)
    K = gamma.size
    eig, a = _labels(eig, K), _labels(a, K)
    _, V = _prefix(psi, eig, a, psi, eig, grid)
    # 1 + gamma a written as a (gamma + 1/a), so that a removal
    # (gamma = -1/a) cancels to exactly 0
    c = np.where(np.isfinite(eig), a * (gamma + 1.0 / a), 1.0)
    A = np.diag(c)[None] + (V * gamma[:, None, None]).transpose(2, 0, 1)
    _check(A, grid.nodes)
    rhs = -(gamma[None, :, None] * psi.transpose(2, 0, 1))
    # scale each row by the exact power of two that brings its diagonal into
    # [0.5, 1), so partial pivoting does not pick a row for its growth alone
    _, e = np.frexp(np.einsum("xkk->xk", A))
    A, rhs = np.ldexp(A, -e[..., None]), np.ldexp(rhs, -e[..., None])
    # a scalar system is LAPACK's own 1 x 1 arithmetic with two right-hand
    # sides, b (1/a), without its fixed cost per node
    G = rhs * (1.0 / A) if K == 1 else np.linalg.solve(A, rhs)
    G = G.transpose(1, 2, 0)
    m = np.einsum("kax,kbx->abx", G, psi)
    return G, -(m[0, 1] + m[1, 0]), m[0, 0] - m[1, 1]


def transform(G, psi, v, grid: Grid, eig=None, a=None, v_eig=None) -> np.ndarray:
    """Map a stack of solutions v (N, 2, nx) to v + G int_0^x Psi v.

    Solutions go in blocks that keep each (K, block, nx) prefix temporary
    near _BLOCK entries.
    """
    K, N = len(psi), len(v)
    eig, a, v_eig = _labels(eig, K), _labels(a, K), _labels(v_eig, N)
    block = max(1, _BLOCK // (K * v.shape[-1]))
    out = np.empty_like(v)
    for s in range(0, N, block):
        sl = slice(s, s + block)
        limit, var = _prefix(psi, eig, a, v[sl], v_eig[sl], grid)
        out[sl] = v[sl] + np.einsum("kax,knx->nax", G, limit[..., None] + var)
    return out


def recurrent(psi, gamma, grid: Grid, eig=None, a=None, carry=None):
    """The same change one column at a time: (dp, dq, carry transformed).

    Step k solves the 1 x 1 system of column k as transformed by the steps
    before it, then transforms the columns still to come and the carried
    solutions (which are treated as not square-integrable).
    """
    gamma = np.asarray(gamma, dtype=float)
    K = gamma.size
    eig, a = _labels(eig, K), _labels(a, K)
    psi = np.array(psi, dtype=float)
    dp = np.zeros(psi.shape[-1])
    dq = np.zeros(psi.shape[-1])
    for k in range(K):
        one = slice(k, k + 1)
        col, lab, nrm = psi[one], eig[one], a[one]
        G, p, q = solve(col, gamma[one], grid, lab, nrm)
        dp += p
        dq += q
        if carry is not None:
            carry = transform(G, col, carry, grid, lab, nrm)
        psi[k + 1:] = transform(G, col, psi[k + 1:], grid, lab, nrm, eig[k + 1:])
    return dp, dq, carry

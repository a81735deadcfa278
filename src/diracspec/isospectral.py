"""Isospectral flows: move norming constants while freezing the spectrum.

Fixing beta = 0, changing the single norming constant a_m to a_m e^{-t}
while keeping every eigenvalue and every other norming constant produces
the explicit deformation

    Omega(x, t) = Omega(x) + (e^t - 1)/theta_m(x, t)
                  * (B h_m h_m^T - h_m h_m^T B),

    theta_m(x, t) = 1 + (e^t - 1) * int_0^x |h_m|^2,

with h_m the normalized eigenfunction.  Finite collections of shifts are
realized two ways: recurrently (one shift at a time, carrying the
transformed eigenfunctions along) and explicitly (a rank-k linear system
per grid node).  Both routes are algebra on the same eigendata, so they
agree to roundoff, which is itself a strong self-check of the formulas.

The matrix modulus used for L1 statements is the spectral norm; for the
symmetric trace-free differences that occur here it equals
sqrt(dp^2 + dq^2) pointwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ContractError,
    DiracError,
    DomainError,
    Grid,
    PotentialMatrix,
    SingularSystemError,
    Trajectory2,
    cumtrapz0,
)
from .cauchy import SolverConfig
from .eigen import _normed_trajectories, find_eigenvalues

DEFAULT_WINDOW = 10


@dataclass(frozen=True)
class TSequence:
    """Finite map n -> t_n of norming-constant shifts."""

    entries: dict

    def __post_init__(self):
        object.__setattr__(
            self, "entries", {int(n): float(t) for n, t in sorted(self.entries.items())}
        )

    def support(self) -> list[int]:
        return [n for n, t in self.entries.items() if t != 0.0]

    def interleaved(self) -> list[int]:
        """Support sorted in the order 0, 1, -1, 2, -2, ..."""
        return sorted(self.support(), key=lambda n: (abs(n), -np.sign(n)))

    def to_dict(self) -> dict:
        return {"entries": [{"n": n, "t": t} for n, t in self.entries.items()]}

    @staticmethod
    def from_dict(obj: dict) -> "TSequence":
        return TSequence({int(e["n"]): float(e["t"]) for e in obj["entries"]})

    def save(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "TSequence":
        with open(path) as fh:
            return TSequence.from_dict(json.load(fh))


@dataclass
class IsoResult:
    """Deformed potential with its transformed normalized eigenfunctions."""

    omega_t: PotentialMatrix
    eigenfunctions: dict[int, Trajectory2] = field(default_factory=dict)
    ell: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for n, h in self.eigenfunctions.items():
            nrm = h.norm_sq()
            if abs(nrm - 1.0) > 1e-4:
                raise ContractError(f"eigenfunction {n} has norm^2 = {nrm}")


def theta(h_m: Trajectory2, t: float, x: float) -> float:
    """theta_m(x, t) = 1 + (e^t - 1) int_0^x |h_m|^2; theta(0)=1, theta(pi)=e^t."""
    nrm = h_m.norm_sq()
    if abs(nrm - 1.0) > 1e-4:
        raise ContractError("theta needs a normalized eigenfunction")
    g = h_m.grid
    if not (g.a <= x <= g.b):
        raise DomainError(f"x = {x} outside [{g.a}, {g.b}]")
    dens = np.abs(h_m.y1) ** 2 + np.abs(h_m.y2) ** 2
    pref = cumtrapz0(dens, g.h)
    return float(1.0 + np.expm1(t) * np.interp(x, g.nodes, pref))


def _eigendata(pot, alpha, indices, tol, cfg):
    """lambda_n, a_n and arrays h_n = phi_n/sqrt(a_n), all from one stored sweep."""
    lo, hi = min(indices), max(indices)
    data = find_eigenvalues(pot, alpha, 0.0, lo, hi, tol=tol, cfg=cfg)
    data, Y = _normed_trajectories(pot, alpha, data, cfg)
    hs = {n: Y[:, i] / np.sqrt(d.a) for i, (n, d) in enumerate(data.items.items())}
    return data, hs


def _one_step(grid: Grid, hs: dict[int, np.ndarray], m: int, t: float):
    """Apply one norming shift to sampled (dp, dq) increments and eigendata."""
    h = hs[m]
    emt = np.expm1(t)
    dens = h[0] ** 2 + h[1] ** 2
    th = 1.0 + emt * cumtrapz0(dens, grid.h)
    dp = emt / th * (2.0 * h[0] * h[1])
    dq = emt / th * (h[1] ** 2 - h[0] ** 2)
    new_hs = {}
    for n, hn in hs.items():
        if n == m:
            new_hs[n] = np.exp(0.5 * t) / th * hn
        else:
            cross = cumtrapz0(h[0] * hn[0] + h[1] * hn[1], grid.h)
            new_hs[n] = hn - (emt * cross / th) * h
    return dp, dq, new_hs


def _package(pot, grid, dp, dq, hs) -> IsoResult:
    p_new = pot.sample_p(grid.nodes) + dp
    q_new = pot.sample_q(grid.nodes) + dq
    omega_t = PotentialMatrix.from_samples(p_new, q_new, grid)
    eig = {n: Trajectory2(grid, h[0], h[1]) for n, h in hs.items()}
    ell = {n: _ell_of(h, n) for n, h in hs.items()}
    return IsoResult(omega_t, eig, ell)


def _ell_of(h: np.ndarray, n: int) -> float:
    """ell_n = ln(|h_n(pi)| / |h_n(0)|), normalization invariant.

    At an eigenvalue with beta = 0 the first component vanishes at pi, so
    |h(pi)| = |h_2(pi)| and this equals ln of the unit-initial Cauchy
    solution's second endpoint component.
    """
    tail = abs(h[1, -1])
    head = float(np.hypot(h[0, 0], h[1, 0]))
    if tail < 1e-14 or head < 1e-14:
        raise DiracError(f"endpoint value vanishes for n = {n}")
    return float(np.log(tail / head))


def shift_one(
    pot: PotentialMatrix,
    alpha: float,
    m: int,
    t: float,
    window: int = DEFAULT_WINDOW,
    tol: float = 1e-10,
    cfg: SolverConfig | None = None,
) -> IsoResult:
    """Shift one norming constant: a_m -> a_m e^{-t}, spectrum frozen (beta = 0)."""
    grid = pot.domain
    idx = range(min(-window, m), max(window, m) + 1)
    _, hs = _eigendata(pot, alpha, idx, tol, cfg)
    dp, dq, hs = _one_step(grid, hs, m, t)
    return _package(pot, grid, dp, dq, hs)


def shift_finite_recurrent(
    pot: PotentialMatrix,
    alpha: float,
    T: TSequence,
    window: int = DEFAULT_WINDOW,
    tol: float = 1e-10,
    cfg: SolverConfig | None = None,
) -> IsoResult:
    """Finite shift set applied one entry at a time in interleaved order."""
    grid = pot.domain
    sup = T.support()
    reach = max([window] + [abs(n) for n in sup])
    _, hs = _eigendata(pot, alpha, range(-reach, reach + 1), tol, cfg)
    dp = np.zeros(grid.m + 1)
    dq = np.zeros(grid.m + 1)
    for m in T.interleaved():
        step_p, step_q, hs = _one_step(grid, hs, m, T.entries[m])
        dp += step_p
        dq += step_q
    return _package(pot, grid, dp, dq, hs)


def shift_finite_explicit(
    pot: PotentialMatrix,
    alpha: float,
    T: TSequence,
    window: int = DEFAULT_WINDOW,
    tol: float = 1e-10,
    cfg: SolverConfig | None = None,
) -> IsoResult:
    """Finite shift set in one shot via the rank-k linear system per node.

    Row j of the system reads
        sum_k [delta_jk + (e^{t_j}-1) V_kj(x)] g_k(x) = -(e^{t_j}-1) h_j(x),
    V_kj(x) = int_0^x h_k^T h_j; then
        Omega_T = Omega + G B - B G,  G(x) = sum_k g_k(x) h_k(x)^T.
    """
    grid = pot.domain
    sup = T.interleaved()
    if not sup:
        reach = window
        _, hs = _eigendata(pot, alpha, range(-reach, reach + 1), tol, cfg)
        return _package(pot, grid, np.zeros(grid.m + 1), np.zeros(grid.m + 1), hs)
    reach = max([window] + [abs(n) for n in sup])
    _, hs = _eigendata(pot, alpha, range(-reach, reach + 1), tol, cfg)

    K = len(sup)
    nodes = grid.m + 1
    H = np.stack([hs[n] for n in sup])  # (K, 2, nodes)
    emt = np.array([np.expm1(T.entries[n]) for n in sup])
    # V[k, j, x] = int_0^x h_k . h_j
    V = np.empty((K, K, nodes))
    for i in range(K):
        for j in range(K):
            V[i, j] = cumtrapz0(
                H[i, 0] * H[j, 0] + H[i, 1] * H[j, 1], grid.h
            )
    A = np.eye(K)[None, :, :] + np.transpose(V, (2, 1, 0)) * emt[None, :, None]
    dets = np.linalg.det(A)
    if np.any(np.abs(dets) < 1e-12):
        xbad = grid.nodes[int(np.argmin(np.abs(dets)))]
        raise SingularSystemError(f"shift system singular near x = {xbad:.6g}")
    rhs = -(emt[None, :, None] * np.transpose(H, (2, 0, 1)))  # (nodes, K, 2)
    g = np.linalg.solve(A, rhs)  # (nodes, K, 2)
    g = np.transpose(g, (1, 2, 0))  # (K, 2, nodes)

    dp = -np.sum(g[:, 0] * H[:, 1] + g[:, 1] * H[:, 0], axis=0)
    dq = np.sum(g[:, 0] * H[:, 0] - g[:, 1] * H[:, 1], axis=0)

    new_hs = {}
    for n, hn in hs.items():
        cross = np.stack(
            [cumtrapz0(H[k, 0] * hn[0] + H[k, 1] * hn[1], grid.h) for k in range(K)]
        )
        hnew = hn + np.einsum("kcx,kx->cx", g, cross)
        if n in T.entries:
            hnew = hnew * np.exp(0.5 * T.entries[n])
        new_hs[n] = hnew
    return _package(pot, grid, dp, dq, new_hs)


def ell_sequence(
    pot: PotentialMatrix,
    alpha: float,
    window: int = DEFAULT_WINDOW,
    tol: float = 1e-10,
    cfg: SolverConfig | None = None,
) -> dict[int, float]:
    """ell_n = ln(|h_n(pi)| / |h_n(0)|) over |n| <= window."""
    _, hs = _eigendata(pot, alpha, range(-window, window + 1), tol, cfg)
    return {n: _ell_of(h, n) for n, h in sorted(hs.items())}


def zero_family(m: int, t: float, grid: Grid) -> PotentialMatrix:
    """Closed-form deformation of the zero potential by one shift at index m.

    Omega_{m,t}(x) = (e^t - 1)/(pi + (e^t - 1) x)
                     * ((-sin 2mx, cos 2mx), (cos 2mx, sin 2mx)).
    """
    x = grid.nodes
    c = np.expm1(t) / (np.pi + np.expm1(t) * x)
    return PotentialMatrix.from_samples(-c * np.sin(2 * m * x), c * np.cos(2 * m * x), grid)


def omega_l1_distance(pa: PotentialMatrix, pb: PotentialMatrix) -> float:
    """int |Omega_a - Omega_b| dx with the pointwise spectral matrix norm."""
    if pa.domain != pb.domain:
        raise DomainError("potentials live on different grids")
    g = pa.domain
    x = g.nodes
    dp = pa.sample_p(x) - pb.sample_p(x)
    dq = pa.sample_q(x) - pb.sample_q(x)
    return float(g.trapezoid_weights() @ np.sqrt(dp * dp + dq * dq))

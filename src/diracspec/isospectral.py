"""Isospectral flows: move norming constants while freezing the spectrum.

Fixing beta = 0, changing the single norming constant a_m to a_m e^{-t}
while keeping every eigenvalue and every other norming constant produces
the explicit deformation

    Omega(x, t) = Omega(x) + (e^t - 1)/theta_m(x, t)
                  * (B h_m h_m^T - h_m h_m^T B),

    theta_m(x, t) = 1 + (e^t - 1) * int_0^x |h_m|^2,

with h_m the normalized eigenfunction.  A set of shifts is a finite-rank
change of the spectral function with jumps e^{t_n} - 1 at the eigenvalues,
so both of its routes are the ones of ``finite_rank``: recurrently (its
rank-1 recurrence, one shift at a time, carrying the transformed
eigenfunctions along) and explicitly (its one-shot rank-k system per grid
node).  Both routes are algebra on the same eigendata; they differ by the
O(h^2) error of the grid quadrature in their prefix integrals (2.4e-6 in
|Omega| at m = 256 for three shifts), a strong self-check of the formulas.

The matrix modulus used for L1 statements is the spectral norm; for the
symmetric trace-free differences that occur here it equals
sqrt(dp^2 + dq^2) pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ContractError,
    DiracError,
    DomainError,
    Grid,
    PotentialMatrix,
    Trajectory2,
    read_json,
    write_json,
)
from . import finite_rank
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
        write_json(self.to_dict(), path)

    @staticmethod
    def load(path) -> "TSequence":
        return TSequence.from_dict(read_json(path))


@dataclass
class IsoResult:
    """Deformed potential with its transformed normalized eigenfunctions."""

    omega_t: PotentialMatrix
    eigenfunctions: dict[int, Trajectory2] = field(default_factory=dict)

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
    pref = g.cumulative(np.abs(h_m.y1) ** 2 + np.abs(h_m.y2) ** 2)
    return float(1.0 + np.expm1(t) * np.interp(x, g.nodes, pref))


def _eigendata(pot, alpha, indices, tol):
    """lambda_n, a_n and arrays h_n = phi_n/sqrt(a_n), all from one stored sweep."""
    lo, hi = min(indices), max(indices)
    data = find_eigenvalues(pot, alpha, 0.0, lo, hi, tol=tol)
    data, Y = _normed_trajectories(pot, alpha, data)
    hs = {n: Y[:, i] / np.sqrt(d.a) for i, (n, d) in enumerate(data.items.items())}
    return data, hs


def _package(pot, dp, dq, hs, Y, shifts) -> IsoResult:
    """Shifted potential and the transformed h_n (rows of Y) scaled by e^{t_n/2}."""
    grid = pot.domain
    p_new = pot.sample_p(grid.nodes) + dp
    q_new = pot.sample_q(grid.nodes) + dq
    omega_t = PotentialMatrix.from_samples(p_new, q_new, grid)
    hs = {n: y * np.exp(0.5 * shifts[n]) if n in shifts else y for n, y in zip(hs, Y)}
    eig = {n: Trajectory2(grid, h[0], h[1]) for n, h in hs.items()}
    return IsoResult(omega_t, eig)


def _recurrent(pot, alpha, indices, shifts, order, tol) -> IsoResult:
    """Apply the shifts {n: t_n} one at a time in the given order."""
    grid = pot.domain
    _, hs = _eigendata(pot, alpha, indices, tol)
    H = np.stack([hs[n] for n in order]) if order else np.empty((0, 2, grid.m + 1))
    emt = np.expm1([shifts[n] for n in order])
    dp, dq, Y = finite_rank.recurrent(H, emt, grid, carry=np.stack(list(hs.values())))
    return _package(pot, dp, dq, hs, Y, shifts)


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
) -> IsoResult:
    """Shift one norming constant: a_m -> a_m e^{-t}, spectrum frozen (beta = 0)."""
    idx = range(min(-window, m), max(window, m) + 1)
    return _recurrent(pot, alpha, idx, {m: t}, [m], tol)


def shift_finite_recurrent(
    pot: PotentialMatrix,
    alpha: float,
    T: TSequence,
    window: int = DEFAULT_WINDOW,
    tol: float = 1e-10,
) -> IsoResult:
    """Finite shift set applied one entry at a time in interleaved order."""
    reach = max([window] + [abs(n) for n in T.support()])
    return _recurrent(pot, alpha, range(-reach, reach + 1), T.entries, T.interleaved(), tol)


def shift_finite_explicit(
    pot: PotentialMatrix,
    alpha: float,
    T: TSequence,
    window: int = DEFAULT_WINDOW,
    tol: float = 1e-10,
) -> IsoResult:
    """Finite shift set in one shot via the rank-k linear system per node.

    With gamma_k = e^{t_k} - 1 and columns h_k this is the one-shot solve
    of finite_rank: row j reads
        sum_k [delta_jk + gamma_j V_jk(x)] g_k(x) = -gamma_j h_j(x),
    V_jk(x) = int_0^x h_j^T h_k; then
        Omega_T = Omega + G B - B G,  G(x) = sum_k g_k(x) h_k(x)^T.
    """
    grid = pot.domain
    sup = T.interleaved()
    reach = max([window] + [abs(n) for n in sup])
    _, hs = _eigendata(pot, alpha, range(-reach, reach + 1), tol)
    Y = np.stack(list(hs.values()))
    if not sup:
        return _package(pot, np.zeros(grid.m + 1), np.zeros(grid.m + 1), hs, Y, {})
    H = np.stack([hs[n] for n in sup])
    G, dp, dq = finite_rank.solve(H, np.expm1([T.entries[n] for n in sup]), grid)
    return _package(pot, dp, dq, hs, finite_rank.transform(G, H, Y, grid), T.entries)


def ell_sequence(
    pot: PotentialMatrix,
    alpha: float,
    window: int = DEFAULT_WINDOW,
    tol: float = 1e-10,
) -> dict[int, float]:
    """ell_n = ln(|h_n(pi)| / |h_n(0)|) over |n| <= window."""
    _, hs = _eigendata(pot, alpha, range(-window, window + 1), tol)
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
    return float(g.integrate(np.sqrt(dp * dp + dq * dq)))

"""Regular boundary-value problem on [0, pi]: spectrum and derived data.

For boundary angles (alpha, beta) the eigenvalues are the real zeros of

    chi(lambda) = phi_1(pi, lambda, alpha) cos(beta)
                + phi_2(pi, lambda, alpha) sin(beta),

where phi is the Cauchy solution with phi(0) = (sin alpha, -cos alpha).
Zeros are simple and the n-th one lies near the lattice point
n + (beta - alpha)/pi, which drives the bracketing strategy below.  All
lambda sweeps are evaluated in one vectorized propagation per iteration,
so refining the whole index window costs the same number of ODE passes
as refining one root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    BoundaryAngles,
    BracketFailure,
    ContractError,
    DiracError,
    GridFunction,
    GridMismatchError,
    InterlacingError,
    PotentialMatrix,
    Trajectory2,
    inner_product,
)
from .cauchy import initial_state, propagate

BRACKET_HALFWIDTH = 0.45
REFINE_WIDTH = 1e-12


@dataclass(frozen=True)
class SpectralDatum:
    """One spectral line: index n, eigenvalue, and optional norming data.

    a is the norming constant ||phi_n||^2, b the squared norm ||u_n||^2 of
    the terminal solution, c the similarity coefficient with u_n = c phi_n;
    whenever all are present, c^2 * a = b.
    """

    n: int
    lam: float
    a: float | None = None
    b: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.a is not None and self.a <= 0:
            raise ContractError(f"norming constant a_{self.n} = {self.a} <= 0")
        if self.a is not None and self.b is not None and self.c is not None:
            if abs(self.c**2 * self.a - self.b) > 1e-6 * (1.0 + abs(self.b)):
                raise ContractError(f"c^2 a != b at n = {self.n}")


@dataclass
class SpectralData:
    """Ordered eigenvalue list for one pair of boundary angles."""

    angles: BoundaryAngles
    items: dict[int, SpectralDatum] = field(default_factory=dict)

    def __post_init__(self):
        self.items = dict(sorted(self.items.items()))
        lams = [d.lam for d in self.items.values()]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise InterlacingError("eigenvalues not strictly increasing in n")

    def ns(self) -> list[int]:
        return list(self.items.keys())

    def lams(self) -> np.ndarray:
        return np.array([d.lam for d in self.items.values()])

    def to_dict(self) -> dict:
        items = []
        for n in sorted(self.items):
            d = self.items[n]
            rec = {"n": n, "lambda": d.lam}
            for k in ("a", "b", "c"):
                v = getattr(d, k)
                if v is not None:
                    rec[k] = v
            items.append(rec)
        return {"alpha": self.angles.alpha, "beta": self.angles.beta, "items": items}

    @staticmethod
    def from_dict(obj: dict) -> "SpectralData":
        angles = BoundaryAngles.make(float(obj["alpha"]), float(obj["beta"]))
        items = {}
        for rec in obj["items"]:
            n = int(rec["n"])
            items[n] = SpectralDatum(
                n,
                float(rec["lambda"]),
                a=rec.get("a"),
                b=rec.get("b"),
                c=rec.get("c"),
            )
        return SpectralData(angles, items)

    def save(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "SpectralData":
        with open(path) as fh:
            return SpectralData.from_dict(json.load(fh))


def _chi_batch(pot, grid, lams, alpha, beta):
    end = propagate(pot, grid, lams, initial_state(alpha))
    return end[0] * np.cos(beta) + end[1] * np.sin(beta)


def char_function(pot: PotentialMatrix, alpha, beta, lam):
    """chi(lambda) = phi_1(pi)cos(beta) + phi_2(pi)sin(beta); vectorized in lambda."""
    grid = pot.domain
    scalar = np.ndim(lam) == 0
    vals = _chi_batch(pot, grid, np.atleast_1d(lam), alpha, beta)
    return vals[0] if scalar else vals


def find_eigenvalues(
    pot: PotentialMatrix,
    alpha: float,
    beta: float,
    n_min: int,
    n_max: int,
    tol: float = 1e-10,
) -> SpectralData:
    """Eigenvalues lambda_n for n_min <= n <= n_max.

    Each root is bracketed in [n + (beta-alpha)/pi +- 0.45]; if chi does not
    change sign there, the full inter-lattice gap is scanned on a fine mesh
    before giving up.  Refinement is inverse quadratic interpolation with a
    bisection safeguard, stopping once every bracket is narrower than
    min(tol, 1e-12).  All brackets are refined simultaneously in one batch.
    """
    if n_min > n_max:
        raise ContractError("n_min > n_max")
    if tol <= 0:
        raise ContractError("tol must be positive")
    grid = pot.domain
    target = min(tol, REFINE_WIDTH)

    ns = np.arange(n_min, n_max + 1)
    centers = ns + (beta - alpha) / np.pi
    lo = centers - BRACKET_HALFWIDTH
    hi = centers + BRACKET_HALFWIDTH
    ends = _chi_batch(pot, grid, np.concatenate([lo, hi]), alpha, beta)
    K = len(ns)
    flo, fhi = ends[:K].copy(), ends[K:].copy()

    bad = np.nonzero(np.sign(flo) == np.sign(fhi))[0]
    if bad.size:
        # fallback: scan the whole gap between neighboring lattice points
        nscan = 65
        offs = np.linspace(-0.5, 0.5, nscan)
        mesh = (centers[bad, None] + offs[None, :]).ravel()
        fv = _chi_batch(pot, grid, mesh, alpha, beta).reshape(bad.size, nscan)
        for row, j in enumerate(bad):
            sc = np.nonzero(np.sign(fv[row, :-1]) != np.sign(fv[row, 1:]))[0]
            o, vals = offs, fv[row]
            if sc.size == 0:
                # widen once to the full neighboring gaps
                o = np.linspace(-1.0, 1.0, 257)
                vals = _chi_batch(pot, grid, centers[j] + o, alpha, beta)
                sc = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
            if sc.size == 0:
                raise BracketFailure(int(ns[j]), float(lo[j]), float(hi[j]))
            # take the sign change closest to the lattice point
            k = sc[np.argmin(np.abs(o[sc] + 0.5 * (o[1] - o[0])))]
            lo[j] = centers[j] + o[k]
            hi[j] = centers[j] + o[k + 1]
            flo[j] = vals[k]
            fhi[j] = vals[k + 1]

    # phase 1: a few bisections to localize each root well inside its bracket
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        fm = _chi_batch(pot, grid, mid, alpha, beta)
        left = np.sign(fm) == np.sign(flo)
        lo, flo = np.where(left, mid, lo), np.where(left, fm, flo)
        hi, fhi = np.where(left, hi, mid), np.where(left, fhi, fm)

    # phase 2: Pegasus-type modified regula falsi (superlinear, bracketing);
    # converged roots drop out of the evaluation batch
    x1, f1 = lo.copy(), flo.copy()
    x2, f2 = hi.copy(), fhi.copy()
    last_step = np.full(K, np.inf)
    for it in range(60):
        act = (np.abs(x2 - x1) >= target) & (last_step >= target)
        if not np.any(act):
            break
        i = np.nonzero(act)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            x3 = x2[i] - f2[i] * (x2[i] - x1[i]) / (f2[i] - f1[i])
        gmin = np.minimum(x1[i], x2[i])
        gmax = np.maximum(x1[i], x2[i])
        bad = ~np.isfinite(x3) | (x3 <= gmin) | (x3 >= gmax)
        if it % 6 == 5:
            bad |= np.ones_like(bad)
        x3 = np.where(bad, 0.5 * (gmin + gmax), x3)
        f3 = _chi_batch(pot, grid, x3, alpha, beta)
        crossed = np.sign(f3) != np.sign(f2[i])
        denom = f2[i] + f3
        with np.errstate(divide="ignore", invalid="ignore"):
            shrunk = np.where(denom != 0.0, f1[i] * f2[i] / denom, 0.5 * f1[i])
        x1[i] = np.where(crossed, x2[i], x1[i])
        f1[i] = np.where(crossed, f2[i], shrunk)
        last_step[i] = np.abs(x3 - x2[i])
        x2[i], f2[i] = x3, f3
    else:
        if np.any((np.abs(x2 - x1) >= tol) & (last_step >= tol)):
            raise DiracError("eigenvalue refinement did not reach target width")

    roots = np.where(np.abs(f1) <= np.abs(f2), x1, x2)
    items = {int(n): SpectralDatum(int(n), float(r)) for n, r in zip(ns, roots)}
    return SpectralData(BoundaryAngles.make(alpha, beta), items)


def _trajectories(pot, lams, angle, direction=+1):
    """Solutions at lambda_n for a batch, shape (2, K, m+1).

    direction=+1 gives the Cauchy solutions phi(., lambda_n, angle) from
    x = 0, direction=-1 the terminal ones u with u(pi) = (sin angle, -cos angle).
    """
    return propagate(
        pot, pot.domain, np.asarray(lams, dtype=float), initial_state(angle),
        direction=direction, store=True,
    )


def norming_constants(pot: PotentialMatrix, alpha: float, data: SpectralData) -> SpectralData:
    """Attach a_n = integral of |phi(., lambda_n, alpha)|^2 over [0, pi]."""
    return _normed_trajectories(pot, alpha, data)[0]


def _normed_trajectories(pot, alpha, data):
    """norming_constants(...) and the swept phi(., lambda_n), shape (2, K, m+1)."""
    Y = _trajectories(pot, data.lams(), alpha)
    w = pot.domain.trapezoid_weights()
    a = (np.abs(Y[0]) ** 2 + np.abs(Y[1]) ** 2) @ w
    if np.any(a <= 0):
        raise ContractError("nonpositive norming constant from quadrature")
    items = {
        n: replace(d, a=float(a[i]))
        for i, (n, d) in enumerate(sorted(data.items.items()))
    }
    return SpectralData(data.angles, items), Y


def normalized_eigenfunction(
    pot: PotentialMatrix, alpha: float, lam: float, a: float
) -> Trajectory2:
    """h_n = phi(., lambda_n, alpha) / sqrt(a_n), unit L2 norm."""
    if a <= 0:
        raise ContractError("norming constant must be positive")
    Y = _trajectories(pot, [lam], alpha)
    s = 1.0 / np.sqrt(a)
    return Trajectory2(pot.domain, s * Y[0, 0], s * Y[1, 0])


def similarity_coefficients(
    pot: PotentialMatrix,
    alpha: float,
    beta: float,
    data: SpectralData,
) -> SpectralData:
    """Attach c_n (with u_n = c_n phi_n) and b_n = ||u_n||^2.

    phi_n and u_n come from one forward and one backward stored sweep over
    the whole batch.  c_n is read off at the node where |phi_n| is largest,
    which stays away from zeros of either component.
    """
    lams = data.lams()
    phi = _trajectories(pot, lams, alpha)
    u = _trajectories(pot, lams, beta, direction=-1)
    w = pot.domain.trapezoid_weights()
    mag = phi[0] ** 2 + phi[1] ** 2
    rows = np.arange(lams.size)
    k = np.argmax(mag, axis=1)
    peak = mag[rows, k]
    null = np.flatnonzero(peak < 1e-16)
    if null.size:
        raise ContractError(f"eigenfunction numerically null at n = {data.ns()[null[0]]}")
    c = (u[0, rows, k] * phi[0, rows, k] + u[1, rows, k] * phi[1, rows, k]) / peak
    b = (np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2) @ w
    a = (np.abs(phi[0]) ** 2 + np.abs(phi[1]) ** 2) @ w
    out = {
        n: replace(d, a=float(a[i]) if d.a is None else d.a, b=float(b[i]), c=float(c[i]))
        for i, (n, d) in enumerate(data.items.items())
    }
    return SpectralData(data.angles, out)


def eigen_gradient(
    pot: PotentialMatrix,
    alpha: float,
    beta: float,
    n: int,
    tol: float = 1e-10,
):
    """Gradient of lambda_n with respect to (alpha, beta, p, q).

    Returns (d_alpha, d_beta, d_p, d_q) where d_alpha = -|h_n(0)|^2,
    d_beta = |h_n(pi)|^2, d_p = h1^2 - h2^2 and d_q = 2 h1 h2 as
    GridFunctions of the normalized eigenfunction h_n.
    """
    data = find_eigenvalues(pot, alpha, beta, n, n, tol=tol)
    data, Y = _normed_trajectories(pot, alpha, data)
    h1, h2 = (1.0 / np.sqrt(data.items[n].a)) * Y[:, 0]
    d_alpha = -float(h1[0] ** 2 + h2[0] ** 2)
    d_beta = float(h1[-1] ** 2 + h2[-1] ** 2)
    g = pot.domain
    d_p = GridFunction(g, h1**2 - h2**2)
    d_q = GridFunction(g, 2.0 * h1 * h2)
    return d_alpha, d_beta, d_p, d_q


@dataclass(frozen=True)
class EvfSample:
    """One sample of the eigenvalue function: lambda at gamma = alpha - pi*m."""

    gamma: float
    value: float
    alpha: float
    m: int


def evf(
    pot: PotentialMatrix,
    gamma: float,
    beta: float = 0.0,
    tol: float = 1e-10,
) -> EvfSample:
    """Eigenvalue function gamma -> lambda_m(alpha), gamma = alpha - pi*m.

    The decomposition takes alpha in (-pi/2, pi/2]; the function is strictly
    decreasing in gamma and its derivative is -1/a_m(alpha).
    """
    alpha, m = BoundaryAngles.reduce(gamma)
    data = find_eigenvalues(pot, alpha, beta, m, m, tol=tol)
    return EvfSample(gamma=gamma, value=data.items[m].lam, alpha=alpha, m=m)


def expand(f: Trajectory2, basis: dict[int, Trajectory2]) -> dict[int, float]:
    """Expansion coefficients c_n = (f, h_n) against normalized eigenfunctions."""
    out = {}
    for n, h in sorted(basis.items()):
        if h.grid != f.grid:
            raise GridMismatchError("expansion basis on a different grid")
        out[n] = float(np.real_if_close(inner_product(f, h)))
    return out


def parseval_defect(f: Trajectory2, basis: dict[int, Trajectory2], N: int) -> float:
    """| ||f||^2 - sum_{|n| <= N} |(f, h_n)|^2 | over the given basis."""
    coeffs = expand(f, {n: h for n, h in basis.items() if abs(n) <= N})
    total = sum(abs(c) ** 2 for c in coeffs.values())
    return float(abs(f.norm_sq() - total))

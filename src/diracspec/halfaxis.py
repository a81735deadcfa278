"""Half-axis model operator, spectral-data surgery, and Weyl asymptotics.

The model operator has p = 0 and q(x) = x.  On the whole axis its
eigenvalues are sign(n) sqrt(2|n|) with Hermite-function eigenvectors; on
the half axis with the boundary condition y1(0) = 0 the eigenvalues are
2 sign(k) sqrt(|k|), with closed-form norming constants.  Starting from
this model one can remove, add, or rescale finitely many spectral-data
entries; each perturbation is a degenerate-kernel problem, so the new
potential and eigenfunctions come out in closed form up to Cramer-type
linear solves.  The module also evaluates the Weyl function m0 by
renormalized backward shooting, recovers half-axis norming constants from
two spectra via principal-value products, and checks the half-axis
eigenvalue-function derivative -1/a_m.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cauchy import SolverConfig, initial_state, propagate
from .core import (
    ContractError,
    DomainError,
    Grid,
    InterlacingError,
    PotentialMatrix,
    SingularSystemError,
    Trajectory2,
    cumtrapz0,
)

SQRT_PI = math.sqrt(math.pi)


def linear_potential(x_max: float, m: int = 4096) -> PotentialMatrix:
    """The model potential p = 0, q(x) = x on [0, x_max]."""
    return PotentialMatrix(None, lambda x: x, Grid(0.0, x_max, m))


def suggest_x_max(lam_max: float) -> float:
    """Truncation point: past the classical turning point plus a margin."""
    return max(12.0, math.sqrt(2.0 * abs(lam_max)) + 6.0)


def hermite_phi(n: int, x) -> np.ndarray:
    """Orthonormal Hermite function, stable normalized recurrence.

    phi_{n+1} = x sqrt(2/(n+1)) phi_n - sqrt(n/(n+1)) phi_{n-1}; values stay
    bounded, so there is no overflow even for n in the hundreds.
    """
    if n < 0:
        raise ContractError("Hermite index must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    for k in range(n):
        prev, cur = cur, x * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(
            k / (k + 1)
        ) * prev
    return cur


def _whole_axis_eigvec(n: int, x: np.ndarray) -> np.ndarray:
    """Whole-axis eigenvector for index n, shape (2, len(x))."""
    if n == 0:
        return np.stack([np.zeros_like(x), hermite_phi(0, x)])
    k = abs(n)
    top = hermite_phi(k - 1, x)
    return np.stack([math.copysign(1.0, n) * top, hermite_phi(k, x)])


def half_bc0_norming(k: int) -> float:
    """Exact norming constant of the half-axis (y1(0)=0) model."""
    k = abs(k)
    if k == 0:
        return SQRT_PI / 2.0
    # 4^k (k!)^2 sqrt(pi) / (2k)!  evaluated in log space
    lg = k * math.log(4.0) + 2.0 * math.lgamma(k + 1) - math.lgamma(2 * k + 1)
    return math.exp(lg) * SQRT_PI


@dataclass(frozen=True)
class ModelSpectrum:
    """Closed-form spectral data of the model operator."""

    flavor: str  # whole | half_bc0 | half_bc_pi2
    window: int
    lams: dict[int, float]
    norming: dict[int, float] | None

    @staticmethod
    def make(flavor: str, window: int) -> "ModelSpectrum":
        if window < 0:
            raise ContractError("window must be nonnegative")
        rng = range(-window, window + 1)
        if flavor == "whole":
            lams = {n: math.copysign(math.sqrt(2.0 * abs(n)), n) if n else 0.0
                    for n in rng}
            return ModelSpectrum(flavor, window, lams, None)
        if flavor == "half_bc0":
            lams = {n: 2.0 * math.copysign(math.sqrt(abs(n)), n) if n else 0.0
                    for n in rng}
            a = {n: half_bc0_norming(n) for n in rng}
            return ModelSpectrum(flavor, window, lams, a)
        if flavor == "half_bc_pi2":
            # enumerated so that lambda_0 <= 0 < lambda_1
            lams = {
                n: math.copysign(math.sqrt(2.0 * abs(2 * n - 1)), 2 * n - 1)
                for n in rng
            }
            return ModelSpectrum(flavor, window, lams, None)
        raise ContractError(f"unknown flavor {flavor!r}")

    def eigenfunction(self, n: int, x) -> np.ndarray:
        """Eigenvector samples, shape (2, len(x))."""
        x = np.asarray(x, dtype=float)
        if self.flavor == "whole":
            return _whole_axis_eigvec(n, x)
        if self.flavor == "half_bc0":
            u = _whole_axis_eigvec(2 * n, x)
            phi0 = hermite_phi(2 * abs(n), np.array([0.0]))[0]
            return -u / phi0
        u = _whole_axis_eigvec(2 * n - 1, x)
        return u / np.max(np.abs(u))

    def to_dict(self) -> dict:
        items = []
        for n in sorted(self.lams):
            it = {"n": n, "lambda": self.lams[n]}
            if self.norming is not None:
                it["a"] = self.norming[n]
            items.append(it)
        return {"flavor": self.flavor, "window": self.window, "items": items}


@dataclass(frozen=True)
class SurgeryPlan:
    """Finite edit of the model spectral data."""

    removals: frozenset = frozenset()
    additions: tuple = ()  # of (mu, c)
    rescalings: tuple = ()  # of (n, b)

    def __post_init__(self):
        mus = [mu for mu, _ in self.additions]
        if len(set(mus)) != len(mus):
            raise ContractError("added eigenvalues must be pairwise distinct")
        for mu, c in self.additions:
            if c <= 0:
                raise ContractError(f"norming constant for mu={mu} must be positive")
        for n, b in self.rescalings:
            if b <= 0:
                raise ContractError(f"rescaled norming constant at n={n} must be positive")
            if n in self.removals:
                raise ContractError(f"index {n} both removed and rescaled")
        seen = set()
        for n, _ in self.rescalings:
            if n in seen:
                raise ContractError(f"index {n} rescaled twice")
            seen.add(n)

    def validate_against(self, base: ModelSpectrum) -> None:
        for mu, _ in self.additions:
            for lam in base.lams.values():
                if abs(mu - lam) < 1e-9:
                    raise ContractError(
                        f"added eigenvalue {mu} collides with the base spectrum"
                    )

    def to_dict(self) -> dict:
        return {
            "remove": sorted(self.removals),
            "add": [{"mu": mu, "c": c} for mu, c in self.additions],
            "rescale": [{"n": n, "b": b} for n, b in self.rescalings],
        }

    @staticmethod
    def from_dict(d: dict) -> "SurgeryPlan":
        return SurgeryPlan(
            frozenset(d.get("remove", ())),
            tuple((e["mu"], e["c"]) for e in d.get("add", ())),
            tuple((e["n"], e["b"]) for e in d.get("rescale", ())),
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)

    @staticmethod
    def load(path) -> "SurgeryPlan":
        with open(path) as f:
            return SurgeryPlan.from_dict(json.load(f))


def model_spectrum(flavor: str, n_window: int) -> ModelSpectrum:
    return ModelSpectrum.make(flavor, n_window)


@dataclass
class SurgeryResult:
    potential: PotentialMatrix
    retained: dict[int, Trajectory2]
    added: list[Trajectory2]


def _cauchy_on_model(mu: float, grid: Grid, cfg: SolverConfig | None) -> np.ndarray:
    """psi(x, mu) of the model with y(0) = (0, -1), shape (2, m+1)."""
    cfg = cfg or SolverConfig()
    pot = PotentialMatrix(None, lambda x: x, grid)
    Y = propagate(pot, grid, np.array([mu]), initial_state(0.0),
                  method=cfg.method, store=True)
    return Y[:, 0, :]


def surgery(
    base: ModelSpectrum,
    plan: SurgeryPlan,
    grid: Grid,
    window: int = 8,
    cfg: SolverConfig | None = None,
) -> SurgeryResult:
    """Apply a finite spectral edit to the half-axis model in one shot.

    All edits enter one degenerate kernel sum_k gamma_k psi_k(x) psi_k^T(y)
    with gamma the jump of the spectral function; the kernel equation then
    reduces to a K x K linear system per node.
    """
    if base.flavor != "half_bc0":
        raise ContractError("surgery starts from the half_bc0 model")
    plan.validate_against(base)
    xs = grid.nodes
    h = grid.h
    psis, gammas, eig_idx = [], [], []
    for z in sorted(plan.removals):
        psis.append(base.eigenfunction(z, xs))
        gammas.append(-1.0 / base.norming[z])
        eig_idx.append(z)
    for n, b in plan.rescalings:
        psis.append(base.eigenfunction(n, xs))
        gammas.append(1.0 / b - 1.0 / base.norming[n])
        eig_idx.append(n)
    for mu, c in plan.additions:
        psis.append(_cauchy_on_model(mu, grid, cfg))
        gammas.append(1.0 / c)
        eig_idx.append(None)

    q0 = xs.copy()
    ret_idx = [n for n in range(-window, window + 1)
               if abs(n) <= base.window and n not in plan.removals]
    if not psis:
        pot = PotentialMatrix.from_samples(np.zeros_like(xs), q0, grid)
        retained = {n: Trajectory2(grid, *base.eigenfunction(n, xs)) for n in ret_idx}
        return SurgeryResult(pot, retained, [])

    P = np.stack(psis)  # (K, 2, nx)
    g = np.asarray(gammas)
    K = len(psis)

    def _split_prefix(k: int, other: np.ndarray, other_eig: int | None):
        """int_0^x psi_k . other as (limit, variable part).

        For two L2 eigenfunctions the prefix approaches a_k delta (by
        orthogonality); returning the constant limit separately lets the
        caller cancel it exactly, while the variable part is a backward
        tail sum that keeps full relative accuracy down to the Gaussian
        floor, where a forward prefix would be pure cancellation noise.
        """
        f = np.einsum("ax,ax->x", P[k], other)
        if eig_idx[k] is None or other_eig is None:
            return 0.0, cumtrapz0(f, h)
        limit = base.norming[eig_idx[k]] if eig_idx[k] == other_eig else 0.0
        tail = cumtrapz0(f[::-1], h)[::-1]
        # one-term asymptotic for the piece beyond the grid, ~ f/(2x)
        return limit, -(tail + f[-1] / (2.0 * xs[-1]))

    def _prefix(k: int, other: np.ndarray, other_eig: int | None):
        limit, var = _split_prefix(k, other, other_eig)
        return limit + var

    Vvar = np.empty((K, K, xs.size))
    for k in range(K):
        for l in range(K):
            Vvar[k, l] = _split_prefix(k, P[l], eig_idx[l])[1]
    # constant block formed exactly: removals cancel 1 + gamma*a to 0,
    # rescalings give a/b, additions keep 1; eigenfunction off-diagonals
    # vanish by orthogonality
    diag0 = np.ones(K)
    nrem = len(plan.removals)
    diag0[:nrem] = 0.0
    for i, (n, b) in enumerate(plan.rescalings):
        diag0[nrem + i] = base.norming[n] / b
    A0 = np.diag(diag0)
    # row k of the collocation system carries its own jump gamma_k;
    # V is symmetric, so only multi-entry plans distinguish row from column
    A = A0[None] + (Vvar * g[:, None, None]).transpose(2, 0, 1)  # (nx, K, K)
    sign, logdet = np.linalg.slogdet(A)
    diag = np.einsum("xkk->xk", A)
    # all diagonal entries are positive for a valid plan: removal rows
    # carry the (positive) Gaussian tail, rescalings tend to a/b, and
    # additions to 1 + gamma ||psi||^2.  The determinant legitimately
    # decays with those tails, so degeneracy is judged relative to the
    # diagonal product, not on an absolute scale.
    if np.any(diag <= 0.0):
        j = int(np.argmax(np.any(diag <= 0.0, axis=1)))
        raise ContractError(f"nonpositive diagonal entry at x = {xs[j]:.6g}")
    logdiag = np.sum(np.log(diag), axis=1)
    bad = (sign == 0) | (logdet - logdiag < math.log(1e-12))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SingularSystemError(f"kernel system singular near x = {xs[j]:.6g}")
    if np.any(sign < 0):
        j = int(np.argmax(sign < 0))
        raise ContractError(f"negative determinant at x = {xs[j]:.6g}")
    rhs = -(g[None, :, None] * P.transpose(2, 0, 1))  # (nx, K, 2)
    G = np.linalg.solve(A, rhs)  # (nx, K, 2) rows g_k(x)
    Gp = G.transpose(1, 2, 0)  # (K, 2, nx)
    # G(x,x) = sum_k g_k psi_k^T; potential update p = -(M12+M21), q += M11-M22
    m11 = np.einsum("kx,kx->x", Gp[:, 0], P[:, 0])
    m12 = np.einsum("kx,kx->x", Gp[:, 0], P[:, 1])
    m21 = np.einsum("kx,kx->x", Gp[:, 1], P[:, 0])
    m22 = np.einsum("kx,kx->x", Gp[:, 1], P[:, 1])
    pot = PotentialMatrix.from_samples(-(m12 + m21), q0 + m11 - m22, grid)

    def _transform(v: np.ndarray, v_eig: int | None) -> Trajectory2:
        inner = np.stack([_prefix(k, v, v_eig) for k in range(K)])
        out = v + np.einsum("kax,kx->ax", Gp, inner)
        return Trajectory2(grid, out[0], out[1])

    retained = {n: _transform(base.eigenfunction(n, xs), n) for n in ret_idx}
    added = [_transform(_cauchy_on_model(mu, grid, cfg), None)
             for mu, _ in plan.additions]
    return SurgeryResult(pot, retained, added)


def plan_steps(base: ModelSpectrum, plan: SurgeryPlan) -> list[tuple[float, float, bool]]:
    """(nu, gamma, vanishing) triples for the recurrent route.

    gamma is the jump of the spectral function at nu; vanishing marks the
    removal steps, where 1 + gamma g(x) tends to zero at infinity and must
    be evaluated from the decaying tail to keep precision.
    """
    steps = []
    for mu, c in plan.additions:
        steps.append((mu, 1.0 / c, False))
    for z in sorted(plan.removals):
        steps.append((base.lams[z], -1.0 / base.norming[z], True))
    for n, b in plan.rescalings:
        steps.append((base.lams[n], 1.0 / b - 1.0 / base.norming[n], False))
    return steps


def general_finite_perturbation(
    pot: PotentialMatrix,
    alpha: float,
    steps: list[tuple[float, float, bool]],
    cfg: SolverConfig | None = None,
) -> PotentialMatrix:
    """Recurrent rank-1 route for an arbitrary base operator.

    Each step (nu, gamma, vanishing) adds gamma/(1+gamma g) times the
    commutator update built from the current-stage Cauchy solution at nu,
    then updates the remaining solutions by the same rank-1 transformation.
    For vanishing steps (removals of square-integrable states) the
    denominator limit is exactly zero, so 1 + gamma g is formed from the
    backward tail of the decaying solution instead of the cancelling
    forward prefix.
    """
    grid = pot.domain
    h = grid.h
    xs = grid.nodes
    if not steps:
        return pot
    nus = np.asarray([s[0] for s in steps])
    Y = propagate(pot, grid, nus, initial_state(alpha),
                  method=(cfg or SolverConfig()).method, store=True)
    phis = [Y[:, k, :].copy() for k in range(len(steps))]
    dp = np.zeros_like(xs)
    dq = np.zeros_like(xs)
    for k, step in enumerate(steps):
        nu, gamma = step[0], step[1]
        vanishing = bool(step[2]) if len(step) > 2 else False
        v = phis[k]
        if gamma == 0.0:
            continue
        f = v[0] ** 2 + v[1] ** 2
        if vanishing:
            tail = cumtrapz0(f[::-1], h)[::-1] + f[-1] / (2.0 * xs[-1])
            denom = gamma * -tail
        else:
            denom = 1.0 + gamma * cumtrapz0(f, h)
        if np.any(denom <= 0.0):
            j = int(np.argmax(denom <= 0.0))
            raise ContractError(f"perturbation denominator vanishes at x = {xs[j]:.6g}")
        dp += gamma / denom * 2.0 * v[0] * v[1]
        dq += gamma / denom * (v[1] ** 2 - v[0] ** 2)
        for j in range(k + 1, len(steps)):
            inner = cumtrapz0(v[0] * phis[j][0] + v[1] * phis[j][1], h)
            phis[j] = phis[j] - (gamma / denom * inner) * v
    p0 = pot.sample_p(xs)
    q0 = pot.sample_q(xs)
    return PotentialMatrix.from_samples(p0 + dp, q0 + dq, grid)


def weyl_m0(
    pot: PotentialMatrix,
    nu: float,
    mu: float,
    x_max: float | None = None,
    m: int = 4096,
    cfg: SolverConfig | None = None,
) -> complex:
    """m0(nu + i mu) = u1(0)/u2(0) for the decaying half-axis solution.

    u is obtained by integrating backward from x_max starting in the
    decaying direction of the frozen-coefficient system, with positive
    renormalization against overflow (only the ratio survives).
    """
    if mu == 0:
        raise ContractError("the asymptotic direction needs a nonzero imaginary part")
    lam = complex(nu, mu)
    if x_max is None:
        x_max = suggest_x_max(abs(lam))
    grid = Grid(0.0, x_max, m)
    pe = float(pot.sample_p(np.array([x_max]))[0])
    qe = float(pot.sample_q(np.array([x_max]))[0])
    s = np.sqrt(complex(pe * pe + qe * qe) - lam * lam)
    if s.real < 0:
        s = -s
    # two equivalent null-vector forms; pick the one that stays away from
    # cancellation depending on the sign of q at the cut
    if qe >= 0:
        v = np.array([[lam + pe], [qe + s]], dtype=complex)
    else:
        v = np.array([[s - qe], [pe - lam]], dtype=complex)
    v /= np.max(np.abs(v))
    method = (cfg or SolverConfig()).method
    u = propagate(pot, grid, np.array([lam]), v, method=method,
                  direction=-1, renorm=True)
    # the renormalised state carries an arbitrary positive scale, so judge u2
    # against |u|; the negated test also rejects a zero or non-finite state
    if not abs(u[1, 0]) > 1e-15 * max(abs(u[0, 0]), abs(u[1, 0])):
        raise DomainError("backward solution lost accuracy; increase x_max")
    return complex(u[0, 0] / u[1, 0])


def weyl_m(pot, alpha: float, beta: float, nu: float, mu: float, **kw) -> complex:
    """m(lambda) built from m0 and the two boundary angles."""
    m0 = weyl_m0(pot, nu, mu, **kw)
    den = m0 * math.cos(beta) + math.sin(beta)
    if abs(den) < 1e-14:
        raise DomainError("terminal-angle combination degenerates")
    return (m0 * math.cos(alpha) + math.sin(alpha)) / den


def _chi_half(pot, alpha, lams, grid, method="magnus4"):
    """Boundary defect of the decaying solution at x = 0, batched over lams."""
    lams = np.asarray(lams, dtype=float)
    xe = grid.b
    pe = float(pot.sample_p(np.array([xe]))[0])
    qe = float(pot.sample_q(np.array([xe]))[0])
    s2 = pe * pe + qe * qe - lams * lams
    if np.any(s2 <= 0):
        raise DomainError("x_max below the classical turning point")
    s = np.sqrt(s2)
    if qe >= 0:
        v = np.stack([lams + pe, qe + s])
    else:
        v = np.stack([s - qe, pe - lams])
    v /= np.max(np.abs(v), axis=0)
    u = propagate(pot, grid, lams, v, method=method, direction=-1, renorm=True)
    return u[0] * math.cos(alpha) + u[1] * math.sin(alpha)


def halfaxis_eigenvalues(
    pot: PotentialMatrix,
    alpha: float,
    lam_lo: float,
    lam_hi: float,
    x_max: float | None = None,
    m: int = 4096,
    mesh: int = 240,
    tol: float = 1e-10,
) -> list[float]:
    """All truncated-domain eigenvalues in [lam_lo, lam_hi], ascending.

    Scans the boundary defect on a fine mesh and bisects each sign change;
    the truncation replaces the integrability condition by the decaying
    right boundary direction.
    """
    if x_max is None:
        x_max = suggest_x_max(max(abs(lam_lo), abs(lam_hi)))
    grid = Grid(0.0, x_max, m)
    xs = np.linspace(lam_lo, lam_hi, mesh + 1)
    vals = _chi_half(pot, alpha, xs, grid)
    exact = [float(x) for x in xs[vals == 0.0]]
    sc = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    lo = xs[sc].copy()
    hi = xs[sc + 1].copy()
    flo = vals[sc].copy()
    while np.any(hi - lo > tol):
        mid = 0.5 * (lo + hi)
        fm = _chi_half(pot, alpha, mid, grid)
        left = np.sign(fm) == np.sign(flo)
        lo = np.where(left, mid, lo)
        flo = np.where(left, fm, flo)
        hi = np.where(left, hi, mid)
    return sorted(exact + [float(v) for v in 0.5 * (lo + hi)])


def halfaxis_eigen_data(
    pot: PotentialMatrix,
    alpha: float,
    lam: float,
    x_max: float | None = None,
    m: int = 4096,
) -> tuple[Trajectory2, float]:
    """Eigenfunction (Cauchy-normalized at 0) and truncated norming constant."""
    if x_max is None:
        x_max = suggest_x_max(abs(lam) + 1.0)
    grid = Grid(0.0, x_max, m)
    Y = propagate(pot, grid, np.array([lam]), initial_state(alpha), store=True)
    y1, y2 = Y[0, 0], Y[1, 0]
    f = y1 * y1 + y2 * y2
    # Beyond the classical turning region the forward solution is eventually
    # contaminated by the exponentially growing mode (the eigenvalue is only
    # known to finite precision); cut the norm integral at the trailing
    # minimum of |y|^2, where the neglected true tail is negligible.
    j0 = int(np.searchsorted(grid.nodes, abs(lam) + 1.0))
    cut = grid.m if j0 >= f.size - 1 else j0 + int(np.argmin(f[j0:]))
    w = Grid(grid.a, grid.nodes[cut], cut).trapezoid_weights() if cut < grid.m else grid.trapezoid_weights()
    a = float(w @ f[: cut + 1])
    return Trajectory2(grid, y1, y2), a


def _eigenvalue_by_index(pot, alpha, mdx, x_max, m, tol=1e-10):
    """lambda_m(alpha) on the branch continuous in alpha with lambda_0(0) <= 0.

    For alpha in [0, pi) the anchor lambda_0 is the largest nonpositive
    root; for alpha in (-pi, 0) that branch has already crossed zero and is
    the smallest positive root.
    """
    span = 2.0 * math.sqrt(2.0 * (abs(mdx) + 3.0)) + 4.0
    roots = np.asarray(halfaxis_eigenvalues(pot, alpha, -span, span,
                                            x_max=x_max, m=m, tol=tol))
    if alpha >= 0:
        anchor = roots[roots <= 0]
        if anchor.size == 0:
            raise DomainError("no nonpositive eigenvalue in the scanned window")
        i0 = int(np.nonzero(roots == anchor[-1])[0][0])
    else:
        anchor = roots[roots > 0]
        if anchor.size == 0:
            raise DomainError("no positive eigenvalue in the scanned window")
        i0 = int(np.nonzero(roots == anchor[0])[0][0])
    j = i0 + mdx
    if j < 0 or j >= roots.size:
        raise DomainError("requested index outside the scanned window")
    return float(roots[j])


def evf_halfaxis(
    pot: PotentialMatrix,
    gamma: float,
    x_max: float = 14.0,
    m: int = 4096,
    tol: float = 1e-10,
) -> float:
    """Eigenvalue function lambda(gamma) = lambda_mdx(alpha), gamma = alpha - pi*mdx."""
    k = math.ceil((gamma - math.pi / 2.0) / math.pi)
    alpha = gamma - k * math.pi
    mdx = -k
    return _eigenvalue_by_index(pot, alpha, mdx, x_max, m, tol)


def evf_halfaxis_derivative(
    pot: PotentialMatrix,
    gamma: float,
    delta: float = 1e-3,
    x_max: float = 14.0,
    m: int = 4096,
) -> float:
    """Central difference of the half-axis eigenvalue function at gamma."""
    hi = evf_halfaxis(pot, gamma + delta, x_max=x_max, m=m)
    lo = evf_halfaxis(pot, gamma - delta, x_max=x_max, m=m)
    return (hi - lo) / (2.0 * delta)


def _check_alternating(la: dict[int, float], lb: dict[int, float], N: int) -> None:
    for k in range(-N, N):
        if not (lb[k] < la[k] < lb[k + 1]) and not (la[k] < lb[k] < la[k + 1]):
            raise InterlacingError(f"spectra fail to alternate near index {k}")


def _c_product(la, lb, N, mu):
    """Truncated product whose large-mu limit determines 1/c."""
    out = 1.0
    for k in range(1, N + 1):
        for kk in (k, -k):
            out *= (lb[kk] / la[kk]) * math.hypot(la[kk], mu) / math.hypot(lb[kk], mu)
    return out


def two_spectra_constant(la, lb, N, mu_max: float = 1e3) -> float:
    """The positive constant c, via Richardson in the 1/mu^2 error variable."""
    p1 = _c_product(la, lb, N, mu_max)
    p2 = _c_product(la, lb, N, mu_max / 2.0)
    pinf = (4.0 * p1 - p2) / 3.0
    if pinf <= 0:
        raise ContractError("degenerate normalization product")
    return 1.0 / pinf


def halfaxis_two_spectra_norming(
    spec_a: dict[int, float],
    spec_b: dict[int, float],
    alpha: float,
    beta: float,
    n: int,
    N: int = 400,
    mu_max: float = 1e3,
) -> float:
    """a_n(alpha) from the spectra at angles alpha and beta.

    Both dictionaries must cover |k| <= N in the enumeration with
    lambda_0 <= 0 < lambda_1; products are symmetric principal values.
    """
    for k in range(-N, N + 1):
        if k not in spec_a or k not in spec_b:
            raise ContractError("spectra must cover |k| <= N")
    _check_alternating(spec_a, spec_b, N)
    la, lb = spec_a, spec_b
    c = two_spectra_constant(la, lb, N, mu_max)
    lam_n = la[n]
    if n == 0:
        out = c * math.sin(beta - alpha) / (la[0] - lb[0])
        for k in range(1, N + 1):
            for kk in (k, -k):
                out *= (lb[kk] / la[kk]) * (la[kk] - lam_n) / (lb[kk] - lam_n)
        return out
    out = c * math.sin(beta - alpha) / (lam_n - lb[n])
    out *= (la[0] - lam_n) / (lb[0] - lam_n)
    for k in range(1, N + 1):
        for kk in (k, -k):
            fac = lb[kk] / la[kk]
            if kk != n:
                fac *= (la[kk] - lam_n) / (lb[kk] - lam_n)
            out *= fac
    return out


def one_spectrum_norming_halfaxis(
    spec_a: dict[int, float],
    alpha: float,
    n: int,
    N: int = 400,
    mu_max: float = 1e3,
) -> float:
    """a_n(alpha) from a single spectrum when p = 0.

    Reflection supplies the second spectrum: the set {-lambda_j(alpha)} is
    the spectrum at angle -alpha, and under the indexing convention
    lambda_0 <= 0 < lambda_1 it reads lambda_k(-alpha) = -lambda_{1-k}(alpha).
    This reduces to the two-spectra route with beta = -alpha.
    """
    if not (0.0 < abs(alpha) < math.pi / 2.0):
        raise ContractError("one-spectrum route needs 0 < |alpha| < pi/2")
    spec_b = {1 - k: -spec_a[k] for k in spec_a}
    # the boundary angle is defined mod pi; pick the representative of
    # -alpha that keeps sin(beta - alpha) positive
    beta = (-alpha) % math.pi
    return halfaxis_two_spectra_norming(spec_a, spec_b, alpha, beta, n,
                                        N=N, mu_max=mu_max)

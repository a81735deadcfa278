"""Half-axis model operator, spectral-data surgery, and Weyl asymptotics.

The model operator has p = 0 and q(x) = x, whose whole-axis eigenvalues
sign(n) sqrt(2|n|) carry Hermite-function eigenvectors.  On the half axis
with the boundary condition y1(0) = 0 (flavour half_bc0) the eigenvalues
are 2 sign(k) sqrt(|k|), the eigenvectors are the whole-axis ones of index
2k, all read from one Hermite recurrence, and the norming constants have
closed form; with y2(0) = 0 (half_bc_pi2) only the eigenvalues, those of
odd whole-axis index, are kept, as the second spectrum.  Starting from
this model one can remove, add, or rescale finitely many spectral-data
entries; each edit is a finite-rank change of the spectral function, so
``finite_rank`` gives the new potential and retained eigenfunctions from
sampled solutions, in one shot or one rank at a time.  Square-integrable
solutions are swept back from x_max in the decaying direction.  The module also evaluates
the Weyl function m0 by renormalized backward shooting, recovers half-axis
norming constants from two spectra with the regular problem's
principal-value product (``twospectra.pv_norming``, where an asymptotic
tail for it, ROADMAP item 2, goes), and checks the half-axis
eigenvalue-function derivative -1/a_m.

Eigenvalues solve Theta(0, lambda) = alpha + k pi for the lifted Pruefer
angle of the decaying solution swept back from x_max, which is strictly
decreasing in lambda.  Lifted sweeps bracket them; eigen's secant engine
refines them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import finite_rank
from .cauchy import initial_state, propagate
from .eigen import REFINE_WIDTH, _secant_roots
from .twospectra import _window, pv_norming
from .core import (
    ContractError,
    DomainError,
    Grid,
    InterlacingError,
    PotentialMatrix,
    Trajectory2,
    read_json,
    write_json,
)

SQRT_PI = math.sqrt(math.pi)
# intervals of the lambda mesh on which halfaxis_eigenvalues brackets its roots
SCAN_MESH = 16
# half-step of the central difference in evf_halfaxis_derivative
EVF_DELTA = 1e-3


def linear_potential(x_max: float, m: int = 4096) -> PotentialMatrix:
    """The model potential p = 0, q(x) = x on [0, x_max]."""
    return PotentialMatrix(None, lambda x: x, Grid(0.0, x_max, m))


def suggest_x_max(lam_max: float) -> float:
    """Truncation point: past the classical turning point plus a margin."""
    return max(12.0, math.sqrt(2.0 * abs(lam_max)) + 6.0)


def hermite_phi(n: int, x) -> np.ndarray:
    """Orthonormal Hermite function phi_n, the last row of ``_hermite_table``."""
    return _hermite_table(n, x)[n]


def _hermite_table(kmax: int, x) -> np.ndarray:
    """phi_0 ... phi_kmax at x, shape (kmax + 1, len(x)), from one recurrence.

    phi_{k+1} = x sqrt(2/(k+1)) phi_k - sqrt(k/(k+1)) phi_{k-1} with
    phi_{-1} = 0; values stay bounded, so there is no overflow even for k
    in the hundreds.
    """
    if kmax < 0:
        raise ContractError("Hermite index must be nonnegative")
    x = np.asarray(x, dtype=float)
    phi = np.zeros((kmax + 2,) + x.shape)  # row 0 holds phi_{-1}
    phi[1] = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    for k in range(kmax):
        phi[k + 2] = x * math.sqrt(2.0 / (k + 1)) * phi[k + 1] - math.sqrt(k / (k + 1)) * phi[k]
    return phi[1:]


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

    flavor: str  # half_bc0: y1(0) = 0, full data | half_bc_pi2: y2(0) = 0, eigenvalues only
    window: int
    lams: dict[int, float]
    norming: dict[int, float] | None

    @staticmethod
    def make(flavor: str, window: int) -> "ModelSpectrum":
        if window < 0:
            raise ContractError("window must be nonnegative")
        rng = range(-window, window + 1)
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

    def eigenfunctions(self, ns, x) -> np.ndarray:
        """Eigenvectors at the indices ns, shape (len(ns), 2, len(x)).

        The half_bc0 eigenvector of index n is the whole-axis one of index
        2n, (sign(n) phi_{2|n|-1}, phi_{2|n|}), divided by -phi_{2|n|}(0) so
        that it starts at initial_state(0) = (0, -1).  Every vector and its
        normaliser come from one Hermite table, taken on x and the point 0.
        """
        if self.flavor != "half_bc0":
            raise ContractError("eigenvectors are tabulated for the half_bc0 model only")
        ns = np.asarray(ns, dtype=int)
        ks = 2 * np.abs(ns)
        phi = _hermite_table(int(ks.max(initial=0)), np.append(np.asarray(x, dtype=float), 0.0))
        u = np.zeros((ks.size, 2, phi.shape[1] - 1))  # phi_{-1} = 0 tops index 0
        pos = ks > 0
        u[pos, 0] = np.copysign(1.0, ns[pos])[:, None] * phi[ks[pos] - 1, :-1]
        u[:, 1] = phi[ks, :-1]
        u /= -phi[ks, -1][:, None, None]
        return u


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
    def from_dict(d) -> "SurgeryPlan":
        """The inverse of to_dict, checking the form.

        The form is an object with optional lists remove (integers), add
        (objects with numbers mu and c) and rescale (objects with an integer n
        and a number b), and no other field; numbers are finite, true and
        false are not numbers, and an integer may be written as an integral
        float.  Anything else raises ValueError saying what is wrong; a plan
        of this form that breaks a contract raises SurgeryPlan's ContractError.
        """
        if not isinstance(d, dict):
            raise ValueError(f"a surgery plan must be an object, got {d!r}")
        unknown = sorted(set(d) - {"remove", "add", "rescale"})
        if unknown:  # a misspelt field would leave its edits out of the plan
            raise ValueError(f"unknown field {unknown[0]!r}, expected 'remove', 'add' or 'rescale'")
        return SurgeryPlan(
            frozenset(_plan_list(d, "remove")),
            tuple(_plan_list(d, "add", ("mu", "c"))),
            tuple(_plan_list(d, "rescale", ("n", "b"))),
        )

    def save(self, path) -> None:
        write_json(self.to_dict(), path)

    @staticmethod
    def load(path) -> "SurgeryPlan":
        return SurgeryPlan.from_dict(read_json(path))


def _plan_list(d: dict, key: str, names=None) -> list:
    """Plan field key, a list (empty if absent) of integers, or of objects whose fields names are
    an integer n and finite numbers, as their values or tuples of them; else ValueError."""
    entries = d.get(key, [])
    if not isinstance(entries, list):
        raise ValueError(f"field '{key}' must be a list, got {entries!r}")
    if names is None:
        return [_plan_value(e, f"{key} entry {i}", True) for i, e in enumerate(entries)]
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ValueError(f"{key} entry {i} must be an object, got {e!r}")
    return [tuple(_plan_value(e.get(f), f"{key} entry {i}: field '{f}'", f == "n") for f in names)
            for i, e in enumerate(entries)]


def _plan_value(value, where: str, integer: bool):
    """value as an int (an integer or an integral float) or as a float (a finite number), else
    ValueError naming where it sits in the plan; true and false are neither."""
    if integer:
        ok = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    else:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{where} must be {'an integer' if integer else 'a finite number'}, got {value!r}")
    return int(value) if integer else float(value)


@dataclass
class SurgeryResult:
    potential: PotentialMatrix
    retained: dict[int, Trajectory2]
    added: list[Trajectory2]


def surgery(base: ModelSpectrum, plan: SurgeryPlan, grid: Grid) -> SurgeryResult:
    """Apply a finite spectral edit to the half-axis model in one shot.

    All edits enter one degenerate kernel sum_k gamma_k psi_k(x) psi_k^T(y)
    with gamma the jump of the spectral function; the kernel equation then
    reduces to the K x K system per node of ``finite_rank.solve``.  Its
    columns for removed and rescaled states are the closed-form model
    eigenfunctions, for added ones the model's Cauchy solutions from one
    stored sweep.  The retained eigenfunctions are the model's, transformed;
    the added ones are swept back from x_max in the new potential by
    ``_decaying_solutions``.
    """
    if base.flavor != "half_bc0":
        raise ContractError("surgery starts from the half_bc0 model")
    plan.validate_against(base)
    xs = grid.nodes
    ret_idx = [n for n in range(-base.window, base.window + 1) if n not in plan.removals]
    edited = sorted(plan.removals) + [n for n, _ in plan.rescalings]
    vecs = base.eigenfunctions(edited + ret_idx, xs)
    psi, kept = vecs[:len(edited)], vecs[len(edited):]
    steps = plan_steps(base, plan)
    if not steps:
        pot = PotentialMatrix.from_samples(np.zeros_like(xs), xs.copy(), grid)
        retained = {n: Trajectory2(grid, v[0], v[1]) for n, v in zip(ret_idx, kept)}
        return SurgeryResult(pot, retained, [])

    nus, gamma, a = (np.array(v, dtype=float) for v in zip(*steps))
    eig = np.where(np.isnan(a), np.nan, nus)
    mus = nus[len(edited):]
    if plan.additions:
        model = PotentialMatrix(None, lambda x: x, grid)
        Y = propagate(model, grid, mus, initial_state(0.0), store=True)
        psi = np.concatenate([psi, Y.transpose(1, 0, 2)])
    G, dp, dq = finite_rank.solve(psi, gamma, grid, eig, a)
    pot = PotentialMatrix.from_samples(dp, xs + dq, grid)
    kept = finite_rank.transform(G, psi, kept, grid, eig, a, [base.lams[n] for n in ret_idx])
    retained = {n: Trajectory2(grid, v[0], v[1]) for n, v in zip(ret_idx, kept)}
    added = []
    if plan.additions:
        added = [Trajectory2(grid, v[0], v[1]) for v in _decaying_solutions(pot, 0.0, mus, grid)]
    return SurgeryResult(pot, retained, added)


def plan_steps(base: ModelSpectrum, plan: SurgeryPlan) -> list[tuple[float, float, float]]:
    """(nu, gamma, a) triples: removals, rescalings, then additions.

    gamma is the jump of the spectral function at nu.  a marks the
    eigenvalue steps (removals and rescalings): it is the model's norming
    constant at nu, whose square-integrable eigenfunction the step moves;
    additions carry a = nan.
    """
    steps = [(base.lams[z], -1.0 / base.norming[z], base.norming[z])
             for z in sorted(plan.removals)]
    steps += [(base.lams[n], 1.0 / b - 1.0 / base.norming[n], base.norming[n])
              for n, b in plan.rescalings]
    return steps + [(mu, 1.0 / c, math.nan) for mu, c in plan.additions]


def general_finite_perturbation(
    pot: PotentialMatrix,
    alpha: float,
    steps: list[tuple[float, float, float]],
) -> PotentialMatrix:
    """Recurrent rank-1 route for an arbitrary base operator.

    Steps (nu, gamma, a) come from ``plan_steps`` and are applied one at a
    time by ``finite_rank.recurrent``.  An eigenvalue step (finite a, the
    norming constant at nu) moves the square-integrable solution, taken
    from ``_decaying_solutions``.  Other steps use the forward Cauchy
    solution.
    """
    if not steps:
        return pot
    grid = pot.domain
    xs = grid.nodes
    nus, gamma, a = (np.array(v, dtype=float) for v in zip(*steps))
    eig = np.where(np.isnan(a), np.nan, nus)
    l2 = np.isfinite(eig)
    psi = np.empty((len(steps), 2, xs.size))
    if np.any(l2):
        psi[l2] = _decaying_solutions(pot, alpha, nus[l2], grid)
    if not np.all(l2):
        Y = propagate(pot, grid, nus[~l2], initial_state(alpha), store=True)
        psi[~l2] = Y.transpose(1, 0, 2)
    dp, dq, _ = finite_rank.recurrent(psi, gamma, grid, eig, a)
    return PotentialMatrix.from_samples(pot.sample_p(xs) + dp, pot.sample_q(xs) + dq, grid)


def weyl_m0(
    pot: PotentialMatrix,
    nu: float,
    mu: float,
    x_max: float | None = None,
    m: int = 4096,
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
    lams = np.array([lam])
    u = propagate(pot, grid, lams, _decaying_start(pot, lams, grid),
                  direction=-1, renorm=True)
    # the renormalised state carries an arbitrary positive scale, so judge u2
    # against |u|; the negated test also rejects a zero or non-finite state
    if not abs(u[1, 0]) > 1e-15 * max(abs(u[0, 0]), abs(u[1, 0])):
        raise DomainError("backward solution lost accuracy; increase x_max")
    return complex(u[0, 0] / u[1, 0])


def _decaying_start(pot, lams, grid):
    """Decaying direction of the frozen-coefficient system at x_max, (2, K).

    The decay rate is s = sqrt(p^2 + q^2 - lambda^2) at the cut.  A real
    lambda needs s^2 > 0 (x_max past the classical turning point); for a
    complex lambda the principal root already has Re s >= 0.
    """
    xe = grid.b
    pe = float(pot.sample_p(np.array([xe]))[0])
    qe = float(pot.sample_q(np.array([xe]))[0])
    s2 = pe * pe + qe * qe - lams * lams
    if not np.iscomplexobj(s2) and np.any(s2 <= 0):
        raise DomainError("x_max below the classical turning point")
    s = np.sqrt(s2)
    # two equivalent null-vector forms; pick the one that stays away from
    # cancellation depending on the sign of q at the cut
    if qe >= 0:
        v = np.stack([lams + pe, qe + s])
    else:
        v = np.stack([s - qe, pe - lams])
    return v / np.max(np.abs(v), axis=0)


def _decaying_solutions(pot, alpha, lams, grid):
    """Square-integrable solutions at lams, shape (K, 2, m+1).

    One stored sweep backward from _decaying_start, each column scaled to
    match initial_state(alpha) at 0 in the least-squares sense.  A forward
    Cauchy solution would pick up the growing mode past the turning point.
    """
    Y = propagate(pot, grid, lams, _decaying_start(pot, lams, grid), direction=-1, store=True)
    y0 = Y[:, :, 0]
    scale = (initial_state(alpha) @ y0) / np.sum(y0 * y0, axis=0)
    return (Y * scale[:, None]).transpose(1, 0, 2)


def _decaying_angle(pot, lams, grid):
    """Theta(0, lambda) of the decaying solution, strictly decreasing in lambda.

    One backward renormalised sweep lifts the angle from _decaying_start,
    taken mod 2 pi: for q(x_max) >= 0 that vector crosses the arctan2 cut
    at lambda = -p(x_max), and mod 2 pi keeps it continuous in lambda.
    """
    start = _decaying_start(pot, lams, grid)
    _, theta = propagate(pot, grid, lams, start, direction=-1, renorm=True, angle=True)
    return theta + 2.0 * np.pi * (np.arctan2(start[0], -start[1]) < 0.0)


def _angle_roots(pot, grid, mesh, theta, targets, ks, tol):
    """lambda with Theta(0, lambda) = targets, from Theta on the ascending mesh.

    Each target is bracketed by its mesh interval and refined by secant
    steps on targets - Theta, one lifted sweep per step.
    """
    j = np.clip(np.searchsorted(-theta, -targets, side="right") - 1, 0, mesh.size - 2)
    lo, hi = mesh[j], mesh[j + 1]
    slope = (theta[j] - theta[j + 1]) / (hi - lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(slope > 0.0, lo + (theta[j] - targets) / slope, 0.5 * (lo + hi))
    stop = np.maximum(min(tol, REFINE_WIDTH), 4.0 * np.spacing(np.maximum(abs(lo), abs(hi))))
    return _secant_roots(lambda lams, act: targets[act] - _decaying_angle(pot, lams, grid),
                         lo, hi, x, slope, stop, ks)


def halfaxis_eigenvalues(
    pot: PotentialMatrix,
    alpha: float,
    lam_lo: float,
    lam_hi: float,
    x_max: float | None = None,
    m: int = 4096,
    tol: float = 1e-10,
) -> list[float]:
    """All truncated-domain eigenvalues in [lam_lo, lam_hi], ascending.

    The truncation replaces the integrability condition by the decaying
    right boundary direction: the roots solve Theta(0, lambda) = alpha + k pi.
    One sweep on SCAN_MESH + 1 points counts them exactly, as the k with
    alpha + k pi in [Theta(lam_hi), Theta(lam_lo)], and brackets each one.
    """
    if x_max is None:
        x_max = suggest_x_max(max(abs(lam_lo), abs(lam_hi)))
    grid = Grid(0.0, x_max, m)
    mesh = np.linspace(lam_lo, lam_hi, SCAN_MESH + 1)
    theta = _decaying_angle(pot, mesh, grid)
    ks = np.arange(math.ceil((theta[-1] - alpha) / math.pi),
                   math.floor((theta[0] - alpha) / math.pi) + 1)
    if ks.size == 0:
        return []
    roots = _angle_roots(pot, grid, mesh, theta, alpha + ks * math.pi, ks, tol)
    return sorted(float(r) for r in roots)


def halfaxis_eigen_data(
    pot: PotentialMatrix,
    alpha: float,
    lam: float,
    x_max: float | None = None,
    m: int = 4096,
) -> tuple[Trajectory2, float]:
    """Eigenfunction (Cauchy-normalized at 0) and truncated norming constant.

    The eigenfunction is the decaying solution of ``_decaying_solutions``.
    """
    if x_max is None:
        x_max = suggest_x_max(abs(lam) + 1.0)
    grid = Grid(0.0, x_max, m)
    y1, y2 = _decaying_solutions(pot, alpha, np.array([lam]), grid)[0]
    return Trajectory2(grid, y1, y2), float(grid.integrate(y1 * y1 + y2 * y2))


def evf_halfaxis(
    pot: PotentialMatrix,
    gamma: float,
    x_max: float = 14.0,
    m: int = 4096,
    tol: float = 1e-10,
) -> float:
    """Eigenvalue function lambda(gamma) = lambda_mdx(alpha), gamma = alpha - pi*mdx.

    lambda(gamma) solves Theta(0, lambda) = gamma + k0 pi and is strictly
    decreasing; k0 = ceil(Theta(0, 0)/pi) selects lambda_0(0) <= 0 (for
    p = 0, y1 vanishes at lambda = 0, so Theta(0, 0) = pi exactly).  A root
    outside the swept [-span, span] raises DomainError.
    """
    mdx = -math.ceil((gamma - math.pi / 2.0) / math.pi)
    span = 2.0 * math.sqrt(2.0 * (abs(mdx) + 3.0)) + 4.0
    grid = Grid(0.0, x_max, m)
    mesh = np.array([-span, 0.0, span])
    theta = _decaying_angle(pot, mesh, grid)
    target = gamma + math.ceil(theta[1] / math.pi) * math.pi
    if not theta[2] <= target <= theta[0]:
        raise DomainError("the eigenvalue function leaves the scanned window")
    return float(_angle_roots(pot, grid, mesh, theta, np.array([target]), [mdx], tol)[0])


def evf_halfaxis_derivative(
    pot: PotentialMatrix,
    gamma: float,
    x_max: float = 14.0,
    m: int = 4096,
) -> float:
    """Central difference, half-step EVF_DELTA, of the half-axis eigenvalue function."""
    hi = evf_halfaxis(pot, gamma + EVF_DELTA, x_max=x_max, m=m)
    lo = evf_halfaxis(pot, gamma - EVF_DELTA, x_max=x_max, m=m)
    return (hi - lo) / (2.0 * EVF_DELTA)


def halfaxis_two_spectra_norming(
    spec_a: dict[int, float],
    spec_b: dict[int, float],
    alpha: float,
    beta: float,
    n: int,
    N: int = 400,
) -> float:
    """a_n(alpha) from the spectra at angles alpha and beta.

    Both dictionaries must cover |k| <= N in the enumeration with
    lambda_0 <= 0 < lambda_1 and alternate in one order over the whole
    window; a_n comes from ``twospectra.pv_norming``, the regular problem's
    product.
    """
    a, b = _window(spec_a, N), _window(spec_b, N)
    # one order over the whole window, the one its first pair takes
    lo, hi = (b, a) if b[0] < a[0] else (a, b)
    ok = (lo[:-1] < hi[:-1]) & (hi[:-1] < lo[1:])
    if not np.all(ok):
        raise InterlacingError(f"spectra fail to alternate near index {np.argmin(ok) - N}")
    return pv_norming(spec_a, spec_b, beta - alpha, n, N)


def one_spectrum_norming_halfaxis(
    spec_a: dict[int, float],
    alpha: float,
    n: int,
    N: int = 400,
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
    return halfaxis_two_spectra_norming(spec_a, spec_b, alpha, beta, n, N=N)

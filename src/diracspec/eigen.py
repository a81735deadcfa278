"""Regular boundary-value problem on [0, pi]: spectrum and derived data.

For boundary angles (alpha, beta) the eigenvalues are the real zeros of

    chi(lambda) = phi_1(pi, lambda, alpha) cos(beta)
                + phi_2(pi, lambda, alpha) sin(beta),

where phi is the Cauchy solution with phi(0) = (sin alpha, -cos alpha).
They are found and indexed by the Pruefer angle: with phi = r(sin Theta,
-cos Theta), Theta(0) = alpha, chi = r(pi) sin(Theta(pi) - beta) and
Theta(pi, lambda) is strictly increasing, so lambda_n is the unique root of
f_n = Theta(pi, lambda) - beta - n pi (Levitan & Sargsjan 1991, ch. 7;
Pryce 1993).  On the zero potential Theta(pi) = alpha + lambda pi, so the
root is the lattice point n + (beta - alpha)/pi; cauchy.turn_bound gives a
certified bracket of half-width W/pi around it for every n.  Each iteration
is one lifted endpoint sweep over the batch of unconverged roots.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

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
    read_json,
    write_json,
)
from .cauchy import initial_state, propagate, turn_bound

REFINE_WIDTH = 1e-12
# iteration cap of the root engine: every 8th iteration halves each bracket
MAX_ITER = 200


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

    def require_window(self, N: int, name: str) -> None:
        """Raise ContractError naming the first n in [-N, N] without an item."""
        missing = next((n for n in range(-N, N + 1) if n not in self.items), None)
        if missing is not None:
            raise ContractError(f"{name} window does not cover [-N, N]: no item at n = {missing}")

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
    def from_dict(obj) -> "SpectralData":
        """The inverse of to_dict, checking the form in its one pass over the items.

        The form is an object with numbers alpha and beta and a list of items,
        each an object with an integer n, strictly increasing along the list,
        a number lambda and numbers or nulls a, b and c (numbers are finite,
        and true and false are not numbers).  Anything else raises ValueError
        saying what is wrong; data of this form that breaks a contract raises
        SpectralDatum's ContractError or SpectralData's InterlacingError.
        """
        if not isinstance(obj, dict) or "items" not in obj:
            raise ValueError("missing field 'items'")
        recs = obj["items"]
        if not isinstance(recs, list):
            raise ValueError(f"field 'items' must be a list, got {recs!r}")
        angles = BoundaryAngles.make(*(_number(obj.get(k), k) for k in ("alpha", "beta")))
        items, last = {}, -float("inf")
        for i, rec in enumerate(recs):
            if not isinstance(rec, dict):
                raise ValueError(f"item {i} must be an object, got {rec!r}")
            n = rec.get("n")
            if type(n) is not int:
                n = _index(n, i)
            if n <= last:
                raise ValueError("field 'items' must be strictly sorted by 'n'")
            last = n
            a, b, c = rec.get("a"), rec.get("b"), rec.get("c")
            items[n] = SpectralDatum(
                n,
                _number(rec.get("lambda"), "lambda", n),
                None if a is None else _number(a, "a", n),
                None if b is None else _number(b, "b", n),
                None if c is None else _number(c, "c", n),
            )
        return SpectralData(angles, items)

    def save(self, path) -> None:
        write_json(self.to_dict(), path)

    @staticmethod
    def load(path) -> "SpectralData":
        return SpectralData.from_dict(read_json(path))


_FLOAT_MAX = sys.float_info.max


def _number(value, name: str, n: int | None = None) -> float:
    """A finite JSON number as a float, else ValueError naming the field (and item n).

    Python compares an int with a float exactly, so an integer past the float
    range fails the bound like inf and nan do, without an OverflowError.
    """
    if type(value) is float and -_FLOAT_MAX <= value <= _FLOAT_MAX:  # the common case, first
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _FLOAT_MAX:
        at = "" if n is None else f"item n = {n}: "
        raise ValueError(f"{at}field '{name}' must be a finite number, got {value!r}")
    return float(value)


def _index(value, i: int) -> int:
    """The item index n of item i as an int: an integer or an integral float, not a bool."""
    if value is None:
        raise ValueError("item without field 'n'")
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"item {i}: field 'n' must be an integer, got {value!r}")
    return int(value)


def char_function(pot: PotentialMatrix, alpha, beta, lam):
    """chi(lambda) = phi_1(pi)cos(beta) + phi_2(pi)sin(beta); vectorized in lambda."""
    end = propagate(pot, pot.domain, np.atleast_1d(lam), initial_state(alpha))
    vals = end[0] * np.cos(beta) + end[1] * np.sin(beta)
    return vals[0] if np.ndim(lam) == 0 else vals


def _prufer_residual(pot, grid, lams, alpha, beta, ns):
    """f_n(lambda) = Theta(pi, lambda) - beta - n pi, with Theta(0) = alpha."""
    y0, shift = _start(float(alpha))
    _, theta = propagate(pot, grid, lams, y0, angle=True)
    # the sweep starts Theta at the principal angle of phi(0); shift moves it to alpha
    theta += shift
    return theta - beta - ns * np.pi


@functools.lru_cache(maxsize=64)
def _start(alpha: float):
    """initial_state(alpha) (read-only) and alpha minus its principal angle, kept per alpha."""
    y0 = initial_state(alpha)
    y0.flags.writeable = False
    return y0, alpha - np.arctan2(np.sin(alpha), np.cos(alpha))


def _secant_roots(residual, lo, hi, x, slope, target, labels):
    """Roots x of increasing functions residual(x, act) in brackets [lo, hi].

    Root j starts at x[j] with a step of slope slope[j], then takes secant
    steps; a step that leaves the bracket bisects it, and so does every 8th
    iteration unless the step is already below target[j].  It leaves the
    batch once its step or bracket is below target[j].  act indexes the
    roots still in the batch; their iterates, brackets and targets are kept
    compact, in act's order, and shrink only when a root leaves.
    Updates lo, hi and x in place as roots leave; BracketFailure names labels[j].
    """
    act = np.arange(x.size)
    xi, a, b, t = x.copy(), lo.copy(), hi.copy(), target
    for it in range(MAX_ITER):
        f = residual(xi, act)
        a = np.where(f <= 0.0, xi, a)
        b = np.where(f >= 0.0, xi, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = slope if it == 0 else (f - fp) / (xi - xp)
            new = xi - f / step
        bad = ~np.isfinite(new) | (new < a) | (new > b)
        if it % 8 == 7:
            bad |= np.abs(new - xi) >= t
        new = np.where(bad, 0.5 * (a + b), new)
        go = (np.abs(new - xi) >= t) & (b - a >= t)
        if not go.all():
            done = act[~go]
            x[done], lo[done], hi[done] = new[~go], a[~go], b[~go]
            if not go.any():
                return x
            act, new, a, b, t, f, xi = act[go], new[go], a[go], b[go], t[go], f[go], xi[go]
        xp, fp, xi = xi, f, new
    x[act], lo[act], hi[act] = xi, a, b
    j = act[0]
    raise BracketFailure(int(labels[j]), float(lo[j]), float(hi[j]))


def find_eigenvalues(
    pot: PotentialMatrix,
    alpha: float,
    beta: float,
    n_min: int,
    n_max: int,
    tol: float = 1e-10,
) -> SpectralData:
    """Eigenvalues lambda_n for n_min <= n <= n_max.

    lambda_n is the unique root of the increasing function
    f_n = Theta(pi, lambda) - beta - n pi, which lies within W/pi of the
    lattice point n + (beta - alpha)/pi (see the module docstring).  Each
    root starts at its lattice point with a step of slope pi and is refined
    by _secant_roots to a step or bracket below min(tol, 1e-12).
    """
    if n_min > n_max:
        raise ContractError("n_min > n_max")
    if tol <= 0:
        raise ContractError("tol must be positive")
    grid = pot.domain
    ns = np.arange(n_min, n_max + 1)
    x = ns + (beta - alpha) / np.pi
    # certified bracket x +- W/pi: W bounds |Theta(pi) - alpha - lambda pi| for
    # every |lambda| <= max|x| + W/pi, and turn_bound is affine in that bound
    w0, w1 = turn_bound(pot, grid)
    if w1 >= np.pi:
        raise DiracError("grid too coarse to bound the Pruefer angle")
    half = (w0 + np.max(np.abs(x)) * w1) / (np.pi - w1)
    # no tolerance below the spacing of floating-point numbers near the root
    target = np.maximum(min(tol, REFINE_WIDTH), 4.0 * np.spacing(np.abs(x) + half))
    x = _secant_roots(
        lambda lams, act: _prufer_residual(pot, grid, lams, alpha, beta, ns[act]),
        x - half, x + half, x, np.full_like(x, np.pi), target, ns,
    )
    items = {int(n): SpectralDatum(int(n), float(r)) for n, r in zip(ns, x)}
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
    """Attach a_n = integral of |phi(., lambda_n, alpha)|^2 over [0, pi].

    One forward sweep sums the squares with the grid's node weights as it
    goes, and keeps no node history.
    """
    grid = pot.domain
    _, a = propagate(pot, grid, data.lams(), initial_state(alpha), weights=grid.weights())
    return _with_norming(data, a)


def _normed_trajectories(pot, alpha, data):
    """norming_constants(...) and the swept phi(., lambda_n), shape (2, K, m+1)."""
    Y = _trajectories(pot, data.lams(), alpha)
    return _with_norming(data, pot.domain.integrate(Y[0] ** 2 + Y[1] ** 2)), Y


def _with_norming(data, a):
    """data with the norming constants a attached, one per item in order."""
    if np.any(a <= 0):
        raise ContractError("nonpositive norming constant from quadrature")
    items = {
        n: SpectralDatum(d.n, d.lam, float(a[i]), d.b, d.c)
        for i, (n, d) in enumerate(sorted(data.items.items()))
    }
    return SpectralData(data.angles, items)


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
    mag = phi[0] ** 2 + phi[1] ** 2
    rows = np.arange(lams.size)
    k = np.argmax(mag, axis=1)
    peak = mag[rows, k]
    null = np.flatnonzero(peak < 1e-16)
    if null.size:
        raise ContractError(f"eigenfunction numerically null at n = {data.ns()[null[0]]}")
    c = (u[0, rows, k] * phi[0, rows, k] + u[1, rows, k] * phi[1, rows, k]) / peak
    b = pot.domain.integrate(u[0] ** 2 + u[1] ** 2)
    a = pot.domain.integrate(phi[0] ** 2 + phi[1] ** 2)
    out = {
        n: SpectralDatum(d.n, d.lam, float(a[i]) if d.a is None else d.a, float(b[i]), float(c[i]))
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

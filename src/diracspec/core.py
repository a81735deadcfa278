"""Shared numeric primitives for the canonical one-dimensional Dirac system.

The system under study is B y' + Omega(x) y = lambda y with

    B = ((0, 1), (-1, 0)),   Omega(x) = p(x)*S2 + q(x)*S3,

where S2 = diag(1, -1) and S3 = antidiag(1, 1).  This module holds the
grid/quadrature plumbing, the 2x2 matrix algebra, and the potential
representation used by every other module.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

# the fixed 2x2 matrices of the canonical system
S1 = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
S2 = np.array([[1.0, 0.0], [0.0, -1.0]])
S3 = np.array([[0.0, 1.0], [1.0, 0.0]])
E2 = np.eye(2)
B = np.array([[0.0, 1.0], [-1.0, 0.0]])  # = S1 / i

DEFAULT_M = 2048


class DiracError(Exception):
    """Base class for all library errors."""


class DomainError(DiracError):
    """Argument outside the domain a function is defined on."""


class GridMismatchError(DiracError):
    """Two sampled objects do not share a grid."""


class BracketFailure(DiracError):
    """An eigenvalue was not refined to tolerance inside its certified bracket."""

    def __init__(self, n: int, lo: float, hi: float):
        self.n = n
        super().__init__(f"no certified root for index n={n} in [{lo:.6g}, {hi:.6g}]")


class InterlacingError(DiracError):
    """Input spectra violate the required interlacing."""


class PoleError(DiracError):
    """A function was evaluated within tolerance of one of its poles."""


class SingularSystemError(DiracError):
    """A dense linear system that should be regular came out singular."""


class ContractError(DiracError):
    """A precondition of an operation was violated."""


class InconsistentDataError(DiracError):
    """Spectral data failed its internal consistency verification."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid of m intervals on [a, b]."""

    a: float
    b: float
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ContractError("grid needs at least one interval")
        if not self.b > self.a:
            raise ContractError("grid endpoints must satisfy a < b")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.m

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.m + 1)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.m + 1, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w

    # The library's quadrature rule: every integral over the grid goes
    # through these methods, so changing the rule is an edit here.

    def weights(self) -> np.ndarray:
        """Node weights of the library rule (trapezoid), shape (m+1,)."""
        return self.trapezoid_weights()

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Integral over [a, b] of samples at the nodes, along the last axis."""
        return values @ self.weights()

    def cumulative(self, values: np.ndarray) -> np.ndarray:
        """Integral from a to every node, zero at the first, along the last axis."""
        v = np.asarray(values)
        mids = 0.5 * self.h * (v[..., 1:] + v[..., :-1])
        out = np.zeros(v.shape)
        out[..., 1:] = np.cumsum(mids, axis=-1)
        return out


@dataclass(frozen=True)
class GridFunction:
    """Scalar samples on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.m + 1,):
            raise GridMismatchError(
                f"value count {v.shape} does not match node count {self.grid.m + 1}"
            )
        object.__setattr__(self, "values", v)


ScalarField = Union[Callable[[np.ndarray], np.ndarray], np.ndarray, float, None]


def _sample(f: ScalarField, grid: Grid, x: np.ndarray) -> np.ndarray:
    """Evaluate a closed-form or grid-sampled scalar field at points x."""
    x = np.asarray(x, dtype=float)
    if f is None:
        return np.zeros_like(x)
    if callable(f):
        return np.broadcast_to(np.asarray(f(x), dtype=float), x.shape).copy()
    if np.isscalar(f):
        return np.full_like(x, float(f))
    arr = np.asarray(f, dtype=float)
    # grid samples: linear interpolation between nodes
    return np.interp(x, grid.nodes, arr)


@dataclass(frozen=True)
class PotentialMatrix:
    """The pair (p, q) defining Omega(x) = p*S2 + q*S3 on a domain grid.

    p and q may be callables (sampled lazily, preferred for smooth data),
    plain arrays aligned with the domain nodes, scalars, or None for zero.
    """

    p: ScalarField
    q: ScalarField
    domain: Grid

    def sample_p(self, x: np.ndarray) -> np.ndarray:
        return _sample(self.p, self.domain, x)

    def sample_q(self, x: np.ndarray) -> np.ndarray:
        return _sample(self.q, self.domain, x)

    def check_domain(self, x: float) -> None:
        if x < self.domain.a - 1e-12 or x > self.domain.b + 1e-12:
            raise DomainError(f"x={x} outside [{self.domain.a}, {self.domain.b}]")
        vals = np.concatenate([self.sample_p(np.array([x])), self.sample_q(np.array([x]))])
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"non-finite potential sample at x={x}")

    @staticmethod
    def zero(grid: Grid) -> "PotentialMatrix":
        return PotentialMatrix(None, None, grid)

    @staticmethod
    def from_samples(p: np.ndarray, q: np.ndarray, grid: Grid) -> "PotentialMatrix":
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if p.shape != (grid.m + 1,) or q.shape != (grid.m + 1,):
            raise GridMismatchError("sample counts must match grid node count")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise DomainError("potential samples must be finite")
        return PotentialMatrix(p, q, grid)


@dataclass(frozen=True)
class Trajectory2:
    """Two-component solution samples (y1, y2) on a grid."""

    grid: Grid
    y1: np.ndarray
    y2: np.ndarray

    def __post_init__(self):
        y1 = np.asarray(self.y1)
        y2 = np.asarray(self.y2)
        n = self.grid.m + 1
        if y1.shape != (n,) or y2.shape != (n,):
            raise GridMismatchError("component counts must equal node count")
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y2", y2)

    def norm_sq(self) -> float:
        return float(self.grid.integrate(np.abs(self.y1) ** 2 + np.abs(self.y2) ** 2))


@dataclass(frozen=True)
class BoundaryAngles:
    """Boundary angles reduced modulo pi into (-pi/2, pi/2].

    Only the reduced angles are kept; a caller that needs the count of pi
    taken off (evf's index shift) gets it from reduce.
    """

    alpha: float
    beta: float

    @staticmethod
    def reduce(angle: float) -> tuple[float, int]:
        """Return (reduced, k) with reduced = angle + pi*k in (-pi/2, pi/2]."""
        k = int(np.floor(0.5 - angle / np.pi))
        red = angle + np.pi * k
        if red <= -np.pi / 2:  # guard the half-open edge against rounding
            red += np.pi
            k += 1
        return red, k

    @staticmethod
    def make(alpha: float, beta: float) -> "BoundaryAngles":
        a, _ = BoundaryAngles.reduce(alpha)
        b, _ = BoundaryAngles.reduce(beta)
        return BoundaryAngles(a, b)


def cumulative_c(pot: PotentialMatrix, x: float) -> float:
    """Trapezoid value of the accumulated strength int_0^x (|p| + |q|) ds."""
    pot.check_domain(x)
    g = pot.domain
    nsub = max(2, int(np.ceil((x - g.a) / g.h)))
    xs = np.linspace(g.a, x, nsub + 1)
    f = np.abs(pot.sample_p(xs)) + np.abs(pot.sample_q(xs))
    return float(np.trapezoid(f, xs))


def inner_product(f: Trajectory2, g: Trajectory2) -> complex:
    """Grid quadrature of int (f1 conj(g1) + f2 conj(g2)) dx."""
    if f.grid != g.grid:
        raise GridMismatchError("trajectories live on different grids")
    val = f.grid.integrate(f.y1 * np.conj(g.y1) + f.y2 * np.conj(g.y2))
    return complex(val) if np.iscomplexobj(val) or np.iscomplex(val) else float(val)


def pauli_algebra_selftest() -> bool:
    """Verify the matrix identities the whole construction leans on."""
    mats = [S1, S2, S3]
    ok = all(np.array_equal(s @ s, E2 + 0j) for s in mats)
    for i in range(3):
        for j in range(3):
            if i != j:
                ok = ok and np.array_equal(mats[i] @ mats[j], -mats[j] @ mats[i])
    ok = ok and np.array_equal(B @ B, -E2)
    ok = ok and np.array_equal(S2 @ B, S3 + 0j)
    ok = ok and np.array_equal(S3 @ B, -S2 + 0j)
    ok = ok and np.array_equal(S1 / 1j, B + 0j)
    return bool(ok)


# --- JSON files: sorted keys, one-space indent, trailing newline -------------


def write_json(obj, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=1, sort_keys=True, default=str) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# --- CSV interface: header x,p,q, one row per node ---------------------------


def write_potential_csv(pot: PotentialMatrix, path: str) -> None:
    x = pot.domain.nodes
    flat = np.stack([x, pot.sample_p(x), pot.sample_q(x)], axis=1).ravel().tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write("x,p,q\n" + "%.17g,%.17g,%.17g\n" * len(x) % tuple(flat))


def _plain_rows(text: str):
    """The rows of a CSV text whose every line is three comma-separated fields.

    csv.reader reads such a text as the same fields; any other text (a
    header other than x,p,q, a CR anywhere, blank lines, other field counts,
    fields that are not numbers, quoted ones among them) gives None.
    """
    head, _, body = text.partition("\n")
    if head != "x,p,q" or "\r" in body:
        return None
    body = body.removesuffix("\n")
    # one split with each line end as a field of its own: the lines all hold
    # three fields exactly when those ends sit at every fourth place
    fields = body.replace("\n", ",\n,").split(",")
    n = body.count("\n") + 1
    if len(fields) != 4 * n - 1 or fields[3::4].count("\n") != n - 1:
        return None
    del fields[3::4]
    try:
        return np.array(fields, dtype=float).reshape(n, 3)
    except ValueError:
        return None


def _csv_rows(path: str) -> np.ndarray:
    """The rows of a potential CSV as csv.reader reads it, in one pass.

    Blank rows are skipped and fields past the third ignored; the first
    other row that is not three numbers raises DiracError naming its line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x", "p", "q"]:
            raise DiracError(f"bad CSV header {header!r}, expected ['x', 'p', 'q']")
        flat = []
        for r in reader:
            try:
                if 0 < len(r) < 3:
                    raise ValueError
                flat += map(float, r[:3])  # a blank row adds nothing
            except ValueError:
                text = ",".join(r)
                raise DiracError(f"{path}: line {reader.line_num}: "
                                 f"expected three numbers x,p,q, got {text!r}") from None
    return np.array(flat).reshape(-1, 3)


def read_potential_csv(path: str) -> PotentialMatrix:
    with open(path, newline="") as fh:
        rows = _plain_rows(fh.read())
    if rows is None:
        rows = _csv_rows(path)
    if len(rows) < 2:
        raise DiracError("potential CSV needs at least two rows")
    x = rows[:, 0]
    h = np.diff(x)
    if not np.allclose(h, h[0], rtol=1e-9, atol=1e-12):
        raise DiracError("potential CSV nodes must be uniformly spaced")
    grid = Grid(float(x[0]), float(x[-1]), len(rows) - 1)
    return PotentialMatrix.from_samples(rows[:, 1], rows[:, 2], grid)

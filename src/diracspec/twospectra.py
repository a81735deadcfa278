"""Norming constants from two spectra, and the regular Weyl-type function.

Given the spectra of the same potential under two boundary angles alpha and
eps (shared beta), the norming constants of the alpha problem are recovered
from the ratio formula

    a_n(alpha) = sin(eps - alpha) / (lam_n(alpha) - lam_n(eps))
               * prod_{k != n} (lam_k(alpha) - lam_n(alpha))
                             / (lam_k(eps)   - lam_n(alpha)),

with the infinite product truncated symmetrically and multiplied in the
principal-value pairing (k, -k), which is what makes the truncation error
O(1/N) instead of divergent.  The one-spectrum shortcuts for p = 0 (beta =
0) and q = 0 (beta = pi/4) synthesize the second spectrum from the first
through the reflection identity lam_k(eps) = -lam_{-k}(alpha) and reuse the
same product.  ``pv_norming`` is the one place that forms it, for this
module and for the half-axis problem alike, so an asymptotic tail for the
truncated product (ROADMAP item 2) goes there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryAngles,
    ContractError,
    InconsistentDataError,
    InterlacingError,
    PoleError,
    PotentialMatrix,
)
from .cauchy import propagate, initial_state
from .eigen import SpectralData, SpectralDatum

DEFAULT_TRUNC = 200


@dataclass(frozen=True)
class TwoSpectraInput:
    """Two spectra of one potential at angles alpha and eps, shared beta."""

    spec_a: SpectralData
    spec_e: SpectralData
    trunc: int = DEFAULT_TRUNC

    def __post_init__(self):
        if self.trunc <= 0:
            raise ContractError("truncation must be positive")
        al, ep = self.spec_a.angles.alpha, self.spec_e.angles.alpha
        if abs(al - ep) < 1e-14:
            raise InconsistentDataError("need two distinct boundary angles")
        if abs(self.spec_a.angles.beta - self.spec_e.angles.beta) > 1e-12:
            raise InconsistentDataError("spectra taken with different beta")
        N = self.trunc
        self.spec_a.require_window(N, "alpha-spectrum")
        self.spec_e.require_window(N, "eps-spectrum")
        # lam is decreasing in the angle: for al < ep the eps-eigenvalues
        # interlace from below
        lo, hi = (self.spec_e, self.spec_a) if al < ep else (self.spec_a, self.spec_e)
        for n in range(-N, N):
            if not (lo.items[n].lam < hi.items[n].lam < lo.items[n + 1].lam):
                raise InterlacingError(f"interlacing fails at n = {n}")

    @property
    def alpha(self) -> float:
        return self.spec_a.angles.alpha

    @property
    def eps(self) -> float:
        return self.spec_e.angles.alpha


def _window(spec, N) -> np.ndarray:
    """Eigenvalues of the map spec (k -> lambda) at k = -N..N, ascending in k."""
    try:
        return np.array([spec[k] for k in range(-N, N + 1)])
    except KeyError as e:
        raise ContractError(f"spectra must cover |k| <= {N}: no eigenvalue at k = {e.args[0]}") from None


def pv_norming(spec_a, spec_e, dangle: float, n: int, N: int) -> float:
    """sin(dangle) / (la_n - le_n) * PV prod_{k != n, |k| <= N} (la_k - la_n) / (le_k - la_n).

    spec_a and spec_e map k to the eigenvalues of the two problems; dangle
    is the second angle less the first.  Both the regular and the half-axis
    two-spectra routes take a_n here.  An n within max(10, N // 10) of the
    truncation edge or a window without all |k| <= N raises ContractError,
    a vanishing denominator InconsistentDataError, a product <= 0
    ContractError.
    """
    margin = max(10, N // 10)
    if abs(n) > N - margin:
        raise ContractError(f"index {n} too close to the truncation edge N = {N}")
    la, le = _window(spec_a, N), _window(spec_e, N)
    ks = np.arange(-N, N + 1)
    kn = ks != n
    lam_n = la[n + N]
    num, den = la[kn] - lam_n, le[kn] - lam_n
    bad = np.abs(den) < 1e-14
    if np.any(bad):
        raise InconsistentDataError(f"spectra coincide near k = {ks[kn][np.argmax(bad)]}")
    den0 = lam_n - le[n + N]
    if abs(den0) < 1e-14:
        raise InconsistentDataError("leading denominator vanishes")
    a = np.sin(dangle) / den0 * float(np.prod(num / den))
    if a <= 0:
        raise ContractError(f"two-spectra product gave a_{n} = {a} <= 0")
    return float(a)


def norming_from_two_spectra(inp: TwoSpectraInput, n: int) -> float:
    """a_n(alpha) from the truncated principal-value product; positive."""
    return pv_norming({k: d.lam for k, d in inp.spec_a.items.items()},
                      {k: d.lam for k, d in inp.spec_e.items.items()},
                      inp.eps - inp.alpha, n, inp.trunc)


def weyl_m(
    pot: PotentialMatrix,
    alpha: float,
    eps: float,
    beta: float,
    lam: complex,
) -> complex:
    """m(lambda) = (u1(0)cos a + u2(0)sin a)/(u1(0)cos e + u2(0)sin e).

    u is the terminal solution with u(pi) = (sin beta, -cos beta); zeros of
    m sit at the alpha-spectrum, poles at the eps-spectrum.  A vanishing
    denominator, lambda at an eps-eigenvalue, raises PoleError.
    """
    grid = pot.domain
    u0 = propagate(
        pot, grid, np.array([complex(lam)]), initial_state(beta).astype(complex),
        direction=-1,
    )[:, 0]
    num = u0[0] * np.cos(alpha) + u0[1] * np.sin(alpha)
    den = u0[0] * np.cos(eps) + u0[1] * np.sin(eps)
    if abs(den) < 1e-12 * (abs(num) + abs(u0[0]) + abs(u0[1])):
        raise PoleError(f"lambda = {lam} is within tolerance of a pole of m")
    return complex(num / den)


def _reflected(spec: SpectralData, eps: float) -> SpectralData:
    """Second spectrum synthesized by lam_k(eps) = -lam_{-k}(alpha)."""
    items = {}
    for n in spec.items:
        if -n in spec.items:
            items[n] = SpectralDatum(n, -spec.items[-n].lam)
    return SpectralData(BoundaryAngles.make(eps, spec.angles.beta), items)


def one_spectrum_norming_p0(
    spec: SpectralData, n: int, N: int = DEFAULT_TRUNC
) -> float:
    """a_n for a potential with p = 0, beta = 0, from its single spectrum.

    Uses the reflection symmetry of the p = 0 problem: the spectrum at the
    mirrored angle -alpha is the negated, index-reversed spectrum at alpha.
    Requires 0 < |alpha| < pi/2.
    """
    alpha = spec.angles.alpha
    if abs(spec.angles.beta) > 1e-12:
        raise ContractError("p = 0 shortcut needs beta = 0")
    if abs(alpha) < 1e-12 or abs(abs(alpha) - np.pi / 2) < 1e-12:
        raise ContractError("shortcut undefined for alpha in {0, +-pi/2}")
    inp = TwoSpectraInput(spec, _reflected(spec, -alpha), trunc=N)
    return norming_from_two_spectra(inp, n)


def one_spectrum_norming_q0(
    spec: SpectralData, n: int, N: int = DEFAULT_TRUNC
) -> float:
    """a_n for a potential with q = 0, beta = pi/4, from its single spectrum.

    The mirror angle is pi/2*sign(alpha) - alpha (sign 0 taken as +1), and
    the mirrored spectrum is again the negated, index-reversed one.
    """
    alpha = spec.angles.alpha
    if abs(spec.angles.beta - np.pi / 4) > 1e-12:
        raise ContractError("q = 0 shortcut needs beta = pi/4")
    sgn = 1.0 if alpha >= 0 else -1.0
    eps = sgn * np.pi / 2 - alpha
    if abs(eps - alpha) < 1e-12:
        raise ContractError("shortcut undefined for alpha = pi/4")
    inp = TwoSpectraInput(spec, _reflected(spec, eps), trunc=N)
    return norming_from_two_spectra(inp, n)


def ambarzumyan_residual(spec: SpectralData) -> float:
    """max_n |lam_n - (n + (beta-alpha)/pi)| over the stored window.

    A residual at solver-tolerance level is the hypothesis of the
    Ambarzumyan-type statements: with beta = 0 it forces q = 0, with
    beta = pi/4 it forces p = 0.
    """
    delta = (spec.angles.beta - spec.angles.alpha) / np.pi
    return float(
        max(abs(d.lam - (n + delta)) for n, d in spec.items.items())
    )

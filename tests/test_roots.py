"""Certified eigenvalue windows: regressions and properties of the Pruefer-angle root engine.

A window is certified independently of the engine: chi must change sign
exactly once per index on a fine mesh between the midpoints to the
neighbouring roots n_min - 1 and n_max + 1.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from diracspec import eigen
from diracspec.cauchy import propagate
from diracspec.core import DiracError, Grid, PotentialMatrix
from diracspec.eigen import _prufer_residual, char_function, find_eigenvalues
from diracspec.halfaxis import _decaying_start, halfaxis_eigenvalues


def _chi_sign_changes(pot, alpha, beta, lo, hi, step):
    mesh = np.linspace(lo, hi, int(np.ceil((hi - lo) / step)) + 1)
    chi = char_function(pot, alpha, beta, mesh)
    return int(np.count_nonzero(np.signbit(chi[:-1]) != np.signbit(chi[1:])))


def _certified_window(pot, alpha, beta, n_min, n_max):
    """lambda_{n_min - 1} .. lambda_{n_max + 1}, checked against the chi sign changes."""
    lams = find_eigenvalues(pot, alpha, beta, n_min - 1, n_max + 1).lams()
    gaps = np.diff(lams)
    assert np.all(gaps > 1e-6)
    lo, hi = 0.5 * (lams[0] + lams[1]), 0.5 * (lams[-2] + lams[-1])
    step = min(1.0 / 32.0, 0.25 * gaps.min())
    assert _chi_sign_changes(pot, alpha, beta, lo, hi, step) == n_max - n_min + 1
    return lams


def _terms_potential(terms, m):
    """p and q as sums amp * cos(k x + phase) over terms (component, k, phase, amp)."""
    def field(comp):
        ts = [(k, ph, amp) for c, k, ph, amp in terms if c == comp]
        return lambda x: sum(amp * np.cos(k * x + ph) for k, ph, amp in ts) + 0.0 * x

    return PotentialMatrix(field("p"), field("q"), Grid(0.0, math.pi, m))


@pytest.mark.parametrize(
    "s, c, m, N", [(2, 0, 2048, 48), (1, 1, 1024, 128), (2, 1, 2048, 48), (6, 1, 1024, 48)]
)
def test_strong_offset_potential_window(s, c, m, N):
    """p = s/2 cos 2x, q = s sin x + c s at (0.3, 0.1): the chi-bracket search
    duplicated or lost roots here."""
    pot = PotentialMatrix(
        lambda x: 0.5 * s * np.cos(2 * x), lambda x: s * np.sin(x) + c * s, Grid(0.0, math.pi, m)
    )
    _certified_window(pot, 0.3, 0.1, -N, N)


def test_two_term_potential_keeps_both_low_roots():
    """A constant p and a two-term q on m = 4096: the chi-bracket search returned
    -1.0205 for both n = -1 and n = 0 and missed -1.8293."""
    terms = [
        ("p", 0, 3.1165708765590354, 0.8351831330846885),
        ("q", 0, 5.875468178609104, 0.5711489426101329),
        ("q", 3, 6.076447487245777, 0.43600950788852966),
    ]
    pot = _terms_potential(terms, 4096)
    lams = _certified_window(pot, 1.1570419521097026, 0.009039651621884692, -14, 14)
    assert np.count_nonzero(np.abs(lams + 1.0205) < 1e-3) == 1
    assert np.count_nonzero(np.abs(lams + 1.8293) < 1e-3) == 1


@pytest.mark.parametrize("gamma", [-2.7067512859207605, -2.656662672627523])
def test_converged_secant_step_is_not_bisected(monkeypatch, gamma):
    """A secant step already below the target is kept on the forced-bisection
    iteration (every 8th); bisecting it would cost two more sweeps."""
    terms = [
        ("p", 1, 1.674620641081488, 0.5063183088113389),
        ("p", 0, 0.9474414099501245, 0.5133921377611709),
        ("q", 3, 4.180046115157329, 0.6869783584662726),
    ]
    pot = _terms_potential(terms, 2048)
    sweeps = []

    def counted(*args):
        sweeps.append(1)
        return _prufer_residual(*args)

    monkeypatch.setattr(eigen, "_prufer_residual", counted)
    sample = eigen.evf(pot, gamma, beta=1.1941819496003263)
    assert len(sweeps) == 8
    lams = _certified_window(pot, sample.alpha, 1.1941819496003263, sample.m, sample.m)
    assert abs(lams[1] - sample.value) < 1e-12


@st.composite
def smooth_potentials(draw):
    m = draw(st.sampled_from([512, 1024]))
    strength = draw(st.floats(0.0, 8.0))
    terms = [
        (comp, draw(st.integers(0, 3)), draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(0.2, 1.0)))
        for comp in ("p", "q")
        for _ in range(draw(st.integers(1, 2)))
    ]
    total = sum(t[3] for t in terms)
    return _terms_potential([(c, k, ph, strength * w / total) for c, k, ph, w in terms], m)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    pot=smooth_potentials(),
    alpha=st.floats(-math.pi / 2, math.pi / 2),
    beta=st.floats(-math.pi / 2, math.pi / 2),
    n_min=st.integers(-16, 8),
)
def test_root_engine_properties(pot, alpha, beta, n_min):
    n_max = n_min + 8
    try:
        lams = _certified_window(pot, alpha, beta, n_min, n_max)
        shifted = find_eigenvalues(pot, alpha + 0.7, beta, n_min, n_max).lams()
    except DiracError:
        return  # a refusal must be a library error; anything else fails the test
    ns = np.arange(n_min, n_max + 1)
    inner = lams[1:-1]
    eps = 1e-9 * np.maximum(1.0, np.abs(inner))
    assert np.all(_prufer_residual(pot, pot.domain, inner - eps, alpha, beta, ns) < 0)
    assert np.all(_prufer_residual(pot, pot.domain, inner + eps, alpha, beta, ns) > 0)
    # raising alpha by less than pi moves every root down, but not past its lower neighbour
    assert np.all(lams[:-2] < shifted) and np.all(shifted < inner)


def _decaying_chi(pot, alpha, lams, grid):
    """sin(Theta(0) - alpha) of the decaying solution swept back from x_max."""
    u = propagate(pot, grid, lams, _decaying_start(pot, lams, grid), direction=-1, renorm=True)
    return (u[0] * math.cos(alpha) + u[1] * math.sin(alpha)) / np.hypot(u[0], u[1])


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(
    amp=st.floats(0.0, 0.6),
    k=st.floats(0.3, 3.0),
    phase=st.floats(0.0, 2 * math.pi),
    alpha=st.floats(-math.pi / 2, math.pi / 2),
    lo=st.floats(-5.0, 3.0),
    width=st.floats(0.2, 3.0),
)
def test_halfaxis_roots_match_decaying_chi(amp, k, phase, alpha, lo, width):
    """q = x + amp sin(k x + phase): every mesh interval where the decaying chi
    changes sign holds exactly one root, no other interval holds one, and
    every other root sits on a node where chi vanishes.  A root within
    rounding of a window edge may be reported or not, so windows whose
    edges sit that close to a root are skipped."""
    x_max, m = 12.0, 1024
    grid = Grid(0.0, x_max, m)
    pot = PotentialMatrix(None, lambda x: x + amp * np.sin(k * x + phase), grid)
    hi = lo + width
    assume(np.all(np.abs(_decaying_chi(pot, alpha, np.array([lo, hi]), grid)) > 1e-8))
    try:
        roots = np.array(halfaxis_eigenvalues(pot, alpha, lo, hi, x_max=x_max, m=m))
    except DiracError:
        return  # a refusal must be a library error; anything else fails the test
    assert np.all((lo <= roots) & (roots <= hi)) and np.all(np.diff(roots) > 0)
    step = min(1.0 / 32.0, 0.25 * np.min(np.diff(roots), initial=np.inf))
    mesh = np.linspace(lo, hi, int(np.ceil(width / step)) + 1)
    chi = _decaying_chi(pot, alpha, mesh, grid)
    # a root on a mesh node (lambda = 0 at alpha = 0 for p = 0) zeroes chi there
    zeros = mesh[chi == 0.0]
    changes = np.flatnonzero(np.sign(chi[:-1]) * np.sign(chi[1:]) < 0.0)
    inner = roots[~np.isin(roots, zeros)]
    assert inner.size == changes.size and roots.size == inner.size + zeros.size
    assert np.array_equal(np.searchsorted(mesh, inner) - 1, changes)

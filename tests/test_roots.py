"""Certified eigenvalue windows: regressions and properties of the Pruefer-angle root engine.

A window is certified independently of the engine: chi must change sign
exactly once per index on a fine mesh between the midpoints to the
neighbouring roots n_min - 1 and n_max + 1.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from diracspec import eigen
from diracspec.cauchy import propagate
from diracspec.core import BracketFailure, DiracError, Grid, PotentialMatrix
from diracspec.eigen import MAX_ITER, _prufer_residual, _secant_roots, char_function, find_eigenvalues
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


def _secant_reference(residual, lo, hi, x, slope, target, labels):
    """The secant engine on full-length state, indexed by the active roots every iteration (oracle)."""
    xp, fp = np.zeros_like(x), np.zeros_like(x)
    act = np.arange(x.size)
    for it in range(MAX_ITER):
        xi = x[act]
        f = residual(xi, act)
        lo[act] = np.where(f <= 0.0, xi, lo[act])
        hi[act] = np.where(f >= 0.0, xi, hi[act])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = slope[act] if it == 0 else (f - fp[act]) / (xi - xp[act])
            new = xi - f / step
        a, b, t = lo[act], hi[act], target[act]
        bad = ~np.isfinite(new) | (new < a) | (new > b)
        bad |= (it % 8 == 7) & (np.abs(new - xi) >= t)
        new = np.where(bad, 0.5 * (a + b), new)
        xp[act], fp[act], x[act] = xi, f, new
        act = act[(np.abs(new - xi) >= t) & (b - a >= t)]
        if act.size == 0:
            return x
    j = act[0]
    raise BracketFailure(int(labels[j]), float(lo[j]), float(hi[j]))


def _secant_case(targets):
    """Inputs of _secant_roots for five roots of tanh-shaped residuals that leave at different iterations."""
    roots = np.array([-1.3, 0.2, 0.7, 2.9, 40.0])
    scale = np.array([1.0, 3.0, 0.2, 1.0, 7.0])

    def residual(xs, act):
        return np.tanh(scale[act] * (xs - roots[act])) + 0.01 * (xs - roots[act]) ** 3

    x = roots + np.array([0.1, -0.4, 0.05, 0.9, -2.0])
    return residual, x - 3.0, x + 2.5, x, np.ones(5), np.asarray(targets, dtype=float), np.arange(-2, 3)


def test_secant_roots_match_full_state_reference():
    """Keeping the active roots' state compact changes no iterate: x, lo and hi,
    all updated in place, equal the full-state engine's bit for bit."""
    args = _secant_case([1e-12, 1e-9, 1e-12, 1e-6, 1e-12])
    ref = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    x_in, lo_in, hi_in = args[3], args[1], args[2]
    start = lo_in.copy(), hi_in.copy()
    out = _secant_roots(*args)
    _secant_reference(*ref)
    assert out is x_in
    for got, want in zip((x_in, lo_in, hi_in), (ref[3], ref[1], ref[2])):
        np.testing.assert_array_equal(got, want)
    assert np.all(lo_in > start[0]) and np.all(hi_in < start[1])
    assert np.all((lo_in <= x_in) & (x_in <= hi_in))


def test_secant_roots_failure_names_the_stuck_root():
    """A root that cannot converge (target 0) while the others leave the batch
    raises BracketFailure with its own label and bracket, and the bracket is the
    one written to lo and hi, as the full-state engine writes it."""
    args = _secant_case([1e-12, 1e-12, 1e-12, 0.0, 1e-12])
    ref = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    with pytest.raises(BracketFailure) as got:
        _secant_roots(*args)
    with pytest.raises(BracketFailure) as want:
        _secant_reference(*ref)
    lo, hi = args[1], args[2]
    assert got.value.n == want.value.n == 1
    assert str(got.value) == str(want.value) == f"no certified root for index n=1 in [{lo[3]:.6g}, {hi[3]:.6g}]"
    for got_arr, want_arr in zip(args[1:4], ref[1:4]):
        np.testing.assert_array_equal(got_arr, want_arr)


@pytest.mark.parametrize("amp", [1e-316, 1e-310, 1e-305, 1e-299])
def test_near_zero_potential_roots_raise_no_warning(amp):
    """On a potential so small that a window's turn bound W_Q is subnormal, the
    lift limits overflow to inf, the right limit, without a RuntimeWarning."""
    pot = PotentialMatrix(lambda x: amp * np.sin(2 * x), lambda x: amp * np.cos(x), Grid(0.0, math.pi, 512))
    alpha, beta = 0.2, -0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lams = find_eigenvalues(pot, alpha, beta, -3, 3).lams()
    np.testing.assert_allclose(lams, np.arange(-3, 4) + (beta - alpha) / np.pi, rtol=0.0, atol=1e-12)


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

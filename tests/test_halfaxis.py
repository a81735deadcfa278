import math

import numpy as np
import pytest

from diracspec.core import ContractError, DomainError, Grid, InterlacingError, PotentialMatrix
from diracspec.halfaxis import (
    ModelSpectrum,
    SurgeryPlan,
    evf_halfaxis,
    evf_halfaxis_derivative,
    general_finite_perturbation,
    half_bc0_norming,
    halfaxis_eigen_data,
    halfaxis_eigenvalues,
    halfaxis_two_spectra_norming,
    hermite_phi,
    linear_potential,
    model_spectrum,
    one_spectrum_norming_halfaxis,
    plan_steps,
    surgery,
)

SQRT_PI = math.sqrt(math.pi)
GRID12 = Grid(0.0, 12.0, 4096)


def test_hermite_orthonormal():
    xs = np.linspace(-12.0, 12.0, 6001)
    h = xs[1] - xs[0]
    tbl = np.stack([hermite_phi(n, xs) for n in range(6)])
    gram = tbl @ tbl.T * h
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_model_norming_closed_forms():
    assert half_bc0_norming(0) == pytest.approx(SQRT_PI / 2.0, rel=1e-14)
    assert half_bc0_norming(1) == pytest.approx(2.0 * SQRT_PI, rel=1e-14)
    assert half_bc0_norming(2) == pytest.approx(16.0 * SQRT_PI / 6.0, rel=1e-13)


def test_model_norming_by_quadrature():
    base = model_spectrum("half_bc0", 3)
    xs = GRID12.nodes
    w = GRID12.trapezoid_weights()
    for n in (0, 1, 2):
        u = base.eigenfunction(n, xs)
        a = float(w @ (u[0] ** 2 + u[1] ** 2))
        assert a == pytest.approx(base.norming[n], abs=1e-8)


def test_model_spectrum_by_shooting():
    pot = linear_potential(12.0)
    roots = halfaxis_eigenvalues(pot, 0.0, -0.5, 3.5)
    expect = [0.0, 2.0, 2.0 * math.sqrt(2.0), 2.0 * math.sqrt(3.0)]
    assert len(roots) == 4
    for r, e in zip(roots, expect):
        assert r == pytest.approx(e, abs=1e-6)


def test_surgery_empty_plan_identity():
    base = model_spectrum("half_bc0", 6)
    res = surgery(base, SurgeryPlan(), GRID12)
    assert np.max(np.abs(res.potential.q - GRID12.nodes)) < 1e-12
    assert np.max(np.abs(res.potential.p)) < 1e-12


def test_surgery_remove_ground_state():
    base = model_spectrum("half_bc0", 8)
    res = surgery(base, SurgeryPlan(removals=frozenset({0})), GRID12)
    xs = GRID12.nodes
    # closed form: q(x) = x - e^{-x^2} / (a_0 - int_0^x e^{-s^2} ds),
    # the tail integral written through erfc to avoid cancellation
    den = 0.5 * SQRT_PI * np.array([math.erfc(x) for x in xs])
    expect = xs - np.exp(-xs * xs) / den
    inner = xs <= 6.0
    assert np.max(np.abs(res.potential.q[inner] - expect[inner])) < 2e-3
    assert np.max(np.abs(res.potential.p)) < 1e-10

    roots = halfaxis_eigenvalues(res.potential, 0.0, -3.2, 3.2, x_max=12.0)
    assert all(not (-0.5 < r < 0.5) for r in roots)
    for target in (2.0, -2.0, 2.0 * math.sqrt(2.0), -2.0 * math.sqrt(2.0)):
        assert min(abs(r - target) for r in roots) < 1e-4


def test_surgery_rescale_halves_norming():
    base = model_spectrum("half_bc0", 8)
    b = half_bc0_norming(0) / 2.0
    res = surgery(base, SurgeryPlan(rescalings=((0, b),)), GRID12)
    roots = halfaxis_eigenvalues(res.potential, 0.0, -0.5, 3.0, x_max=12.0)
    assert min(abs(r) for r in roots) < 1e-4
    assert min(abs(r - 2.0) for r in roots) < 1e-4
    lam0 = min(roots, key=abs)
    _, a0 = halfaxis_eigen_data(res.potential, 0.0, lam0, x_max=12.0)
    assert a0 == pytest.approx(b, abs=1e-3)


def test_surgery_addition():
    base = model_spectrum("half_bc0", 8)
    res = surgery(base, SurgeryPlan(additions=((1.1, 1.0),)), GRID12)
    roots = halfaxis_eigenvalues(res.potential, 0.0, 0.5, 1.7, x_max=12.0)
    assert min(abs(r - 1.1) for r in roots) < 1e-4


def test_surgery_matches_recurrent_route():
    base = model_spectrum("half_bc0", 8)
    xs = GRID12.nodes
    inner = xs <= 5.5
    # single-entry plans agree to rounding; multi-entry plans accumulate
    # independent discretization error in each route
    cases = [
        (SurgeryPlan(removals=frozenset({0})), 1e-8),
        (SurgeryPlan(additions=((1.1, 1.0),)), 1e-8),
        (
            SurgeryPlan(
                removals=frozenset({0}),
                rescalings=((1, half_bc0_norming(1) / 2.0),),
            ),
            1e-5,
        ),
        (SurgeryPlan(removals=frozenset({0}), additions=((1.1, 1.0),)), 1e-4),
    ]
    for plan, tol in cases:
        res = surgery(base, plan, GRID12)
        rec = general_finite_perturbation(
            linear_potential(12.0, m=4096), 0.0, plan_steps(base, plan)
        )
        assert np.max(np.abs(res.potential.q[inner] - rec.q[inner])) < tol
        assert np.max(np.abs(res.potential.p[inner] - rec.p[inner])) < tol


def test_plan_validation():
    base = model_spectrum("half_bc0", 4)
    with pytest.raises(ContractError):
        SurgeryPlan(additions=((1.1, 1.0), (1.1, 2.0)))
    with pytest.raises(ContractError):
        SurgeryPlan(additions=((1.1, -1.0),))
    with pytest.raises(ContractError):
        SurgeryPlan(removals=frozenset({1}), rescalings=((1, 2.0),))
    with pytest.raises(ContractError):
        SurgeryPlan(additions=((2.0, 1.0),)).validate_against(base)


def test_weyl_m0_asymptotics():
    from diracspec.halfaxis import weyl_m0

    pot = linear_potential(14.0)
    for sgn in (1.0, -1.0):
        val = weyl_m0(pot, 0.0, sgn * 50.0, x_max=14.0)
        assert abs(val - sgn * 1j) < 0.05
    errs = [abs(weyl_m0(pot, 0.0, mu, x_max=14.0) - 1j) for mu in (40.0, 80.0)]
    assert errs[1] < errs[0]


def test_weyl_m0_rejects_broken_sweep():
    from diracspec.halfaxis import weyl_m0

    pot = PotentialMatrix(None, lambda x: np.where(np.abs(x - 5.0) < 0.1, np.inf, x),
                          Grid(0.0, 14.0, 1024))
    with np.errstate(all="ignore"), pytest.raises(DomainError):
        weyl_m0(pot, 0.0, 50.0, x_max=14.0)


def test_two_spectra_norming_model():
    la = model_spectrum("half_bc0", 420).lams
    lb = model_spectrum("half_bc_pi2", 420).lams
    a0 = halfaxis_two_spectra_norming(la, lb, 0.0, math.pi / 2.0, 0, N=400)
    a1 = halfaxis_two_spectra_norming(la, lb, 0.0, math.pi / 2.0, 1, N=400)
    assert a0 == pytest.approx(SQRT_PI / 2.0, rel=0.05)
    assert a1 == pytest.approx(2.0 * SQRT_PI, rel=0.05)


def test_two_spectra_rejects_non_alternating():
    la = model_spectrum("half_bc0", 12).lams
    lb = {k: v + 5.0 for k, v in la.items()}
    with pytest.raises(InterlacingError):
        halfaxis_two_spectra_norming(la, lb, 0.0, 1.0, 0, N=10)


def test_one_spectrum_needs_interior_angle():
    la = model_spectrum("half_bc0", 12).lams
    with pytest.raises(ContractError):
        one_spectrum_norming_halfaxis(la, 0.0, 0, N=10)


def test_evf_model_values():
    pot = linear_potential(14.0)
    assert evf_halfaxis(pot, 0.0) == pytest.approx(0.0, abs=1e-6)
    # interlacing of the two model flavors along the branch
    assert -math.sqrt(2.0) < evf_halfaxis(pot, 0.4) < 0.0
    lam = evf_halfaxis(pot, -0.4)
    assert 0.0 < lam < math.sqrt(2.0)


def test_evf_derivative_and_monotonicity():
    pot = linear_potential(14.0)
    d = evf_halfaxis_derivative(pot, 0.0)
    assert d == pytest.approx(-2.0 / SQRT_PI, abs=1e-2)
    vals = [evf_halfaxis(pot, g) for g in (-0.3, 0.0, 0.3, 0.6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))

import math

import numpy as np
import pytest

from diracspec.core import Grid, PotentialMatrix, Trajectory2, inner_product
from diracspec.eigen import (
    char_function,
    eigen_gradient,
    evf,
    expand,
    find_eigenvalues,
    normalized_eigenfunction,
    norming_constants,
    parseval_defect,
    similarity_coefficients,
)
from diracspec.isospectral import zero_family


@pytest.fixture(scope="module")
def zero_pot():
    return PotentialMatrix.zero(Grid(0.0, math.pi, 2048))


def test_char_function_zero_potential(zero_pot):
    for lam in (0.3, 1.7, -2.4):
        val = char_function(zero_pot, 0.2, 0.5, lam)
        assert complex(val).real == pytest.approx(math.sin(lam * math.pi + 0.2 - 0.5), abs=1e-9)


def test_char_function_trivial_zero(zero_pot):
    assert abs(char_function(zero_pot, 0.4, 0.4, 0.0)) < 1e-12


def test_char_function_bracket_sign_change(sin_pot):
    for n in (-3, 0, 2, 7):
        lo = char_function(sin_pot, 0.0, 0.0, n - 0.45)
        hi = char_function(sin_pot, 0.0, 0.0, n + 0.45)
        assert np.sign(np.real(lo)) != np.sign(np.real(hi))


def test_zero_potential_lattice(zero_pot):
    data = find_eigenvalues(zero_pot, 0.0, 0.0, -20, 20)
    for n in data.ns():
        assert data.items[n].lam == pytest.approx(n, abs=1e-10)


def test_zero_potential_shifted_lattice(zero_pot):
    data = find_eigenvalues(zero_pot, math.pi / 4, 0.0, -10, 10)
    for n in data.ns():
        assert data.items[n].lam == pytest.approx(n - 0.25, abs=1e-10)


def test_constant_potential_oracle(zero_pot):
    """chi for constant q0 has the closed form sin(pi sqrt(lam^2-q0^2))-type; use
    the matrix exponential directly and bisect it for reference roots."""
    q0 = 1.0
    g = Grid(0.0, math.pi, 2048)
    pot = PotentialMatrix(None, lambda x: np.full_like(x, q0), g)

    def chi_exact(lam):
        s2 = q0 * q0 - lam * lam
        s = complex(s2) ** 0.5
        c = np.cosh(s * math.pi)
        r = math.pi if abs(s) < 1e-30 else np.sinh(s * math.pi) / s
        # phi(pi) = exp(pi M)(0,-1), chi = phi_1(pi) for alpha = beta = 0
        return float(np.real(c * 0.0 + r * (q0 * 0.0 - lam * -1.0)))

    data = find_eigenvalues(pot, 0.0, 0.0, -5, 5)
    for n in data.ns():
        if n == 0:
            continue
        lo, hi = n - 0.45, n + 0.45
        flo = chi_exact(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = chi_exact(mid)
            if np.sign(fm) == np.sign(flo):
                lo, flo = mid, fm
            else:
                hi = mid
        assert data.items[n].lam == pytest.approx(0.5 * (lo + hi), abs=1e-8)


def test_norming_zero_potential(zero_pot):
    data = find_eigenvalues(zero_pot, 0.0, 0.0, -5, 5)
    data = norming_constants(zero_pot, 0.0, data)
    for n in data.ns():
        assert data.items[n].a == pytest.approx(math.pi, abs=1e-10)


def test_norming_isospectral_family_member():
    g = Grid(0.0, math.pi, 2048)
    t = 0.6
    pot = zero_family(0, t, g)
    data = find_eigenvalues(pot, 0.0, 0.0, 0, 0)
    data = norming_constants(pot, 0.0, data)
    assert data.items[0].a == pytest.approx(math.pi * math.exp(-t), rel=1e-6)


def test_norming_trend_sin(sin_data_40):
    for n in sin_data_40.ns():
        if abs(n) >= 20:
            assert abs(sin_data_40.items[n].a - math.pi) < 0.05


def test_normalized_eigenfunction_zero_pot(zero_pot):
    h = normalized_eigenfunction(zero_pot, 0.3, 2.0 - 0.3 / math.pi, math.pi)
    x = zero_pot.domain.nodes
    lam = 2.0 - 0.3 / math.pi
    assert np.max(np.abs(h.y1 - np.sin(lam * x + 0.3) / math.sqrt(math.pi))) < 1e-8
    assert h.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_eigenfunction_initial_value_relation(sin_pot, sin_data_40):
    for n in (0, 3):
        d = sin_data_40.items[n]
        h = normalized_eigenfunction(sin_pot, 0.0, d.lam, d.a)
        assert h.y1[0] ** 2 + h.y2[0] ** 2 == pytest.approx(1.0 / d.a, rel=1e-10)


def test_eigenfunction_orthogonality(sin_pot, sin_data_40):
    basis = {
        n: normalized_eigenfunction(sin_pot, 0.0, sin_data_40.items[n].lam, sin_data_40.items[n].a)
        for n in range(-10, 11)
    }
    for n in (-10, -3, 0, 4):
        for m in (n + 1, n + 5):
            if m in basis:
                assert abs(inner_product(basis[n], basis[m])) < 1e-6
    gram_diag = [abs(inner_product(basis[n], basis[n]) - 1.0) for n in basis]
    assert max(gram_diag) < 1e-6


def test_similarity_zero_potential(zero_pot):
    data = find_eigenvalues(zero_pot, 0.0, 0.0, -4, 4)
    data = norming_constants(zero_pot, 0.0, data)
    out = similarity_coefficients(zero_pot, 0.0, 0.0, data)
    for n in out.ns():
        d = out.items[n]
        assert d.c == pytest.approx((-1.0) ** n, abs=1e-8)
        assert d.c**2 * d.a == pytest.approx(d.b, rel=1e-8)


def test_similarity_sin(sin_pot, sin_data_40):
    from diracspec.eigen import SpectralData

    sub = SpectralData(sin_data_40.angles, {0: sin_data_40.items[0]})
    out = similarity_coefficients(sin_pot, 0.0, 0.0, sub)
    d = out.items[0]
    assert d.c**2 * d.a == pytest.approx(d.b, rel=1e-8)


def test_similarity_on_potential_grid():
    """Every routine runs on pot.domain; the old regridding option is gone."""
    from diracspec.cauchy import SolverConfig

    with pytest.raises(TypeError):
        SolverConfig(m=512)
    pot = PotentialMatrix(None, lambda x: np.sin(x), Grid(0.0, math.pi, 1024))
    data = norming_constants(pot, 0.0, find_eigenvalues(pot, 0.0, 0.0, 0, 0))
    out = similarity_coefficients(pot, 0.0, 0.0, data, cfg=SolverConfig())
    d = out.items[0]
    assert d.c**2 * d.a == pytest.approx(d.b, rel=1e-8)


def test_gradient_zero_potential(zero_pot):
    grad = eigen_gradient(zero_pot, 0.2, 0.0, 1)
    assert grad[0] == pytest.approx(-1.0 / math.pi, rel=1e-8)
    assert grad[1] == pytest.approx(1.0 / math.pi, rel=1e-8)
    x = zero_pot.domain.nodes
    lam = 1.0 - 0.2 / math.pi
    assert np.max(np.abs(grad[3].values - 2.0 * np.sin(lam * x + 0.2) * -np.cos(lam * x + 0.2) / math.pi)) < 1e-8


def test_gradient_vs_finite_differences(sin_pot):
    n = 1
    lam_of = lambda al, be: find_eigenvalues(sin_pot, al, be, n, n).items[n].lam
    grad = eigen_gradient(sin_pot, 0.0, 0.0, n)
    d = 1e-4
    fd_alpha = (lam_of(d, 0.0) - lam_of(-d, 0.0)) / (2 * d)
    fd_beta = (lam_of(0.0, d) - lam_of(0.0, -d)) / (2 * d)
    assert grad[0] == pytest.approx(fd_alpha, rel=1e-5)
    assert grad[1] == pytest.approx(fd_beta, rel=1e-5)
    # bump perturbation of q against the q-gradient field
    g = sin_pot.domain
    bump = lambda x: np.exp(-((x - 1.5) ** 2) / 0.02)
    eps = 1e-4
    pot_p = PotentialMatrix(None, lambda x: np.sin(x) + eps * bump(x), g)
    pot_m = PotentialMatrix(None, lambda x: np.sin(x) - eps * bump(x), g)
    fd_q = (
        find_eigenvalues(pot_p, 0.0, 0.0, n, n).items[n].lam
        - find_eigenvalues(pot_m, 0.0, 0.0, n, n).items[n].lam
    ) / (2 * eps)
    pairing = float(g.trapezoid_weights() @ (grad[3].values * bump(g.nodes)))
    assert pairing == pytest.approx(fd_q, rel=1e-5)


def test_evf_zero_potential(zero_pot):
    for gam in (-1.2, 0.0, 0.7, 2.5):
        s = evf(zero_pot, gam)
        assert s.value == pytest.approx(-gam / math.pi, abs=1e-8)


def test_evf_zero_crossing(zero_pot):
    s = evf(zero_pot, 0.0)
    assert abs(s.value) < 1e-10
    assert -math.pi / 2 < s.alpha <= math.pi / 2


def test_evf_derivative(sin_pot):
    gam = 0.3
    d = 1e-4
    fd = (evf(sin_pot, gam + d).value - evf(sin_pot, gam - d).value) / (2 * d)
    s = evf(sin_pot, gam)
    data = find_eigenvalues(sin_pot, s.alpha, 0.0, s.m, s.m)
    a = norming_constants(sin_pot, s.alpha, data).items[s.m].a
    assert fd == pytest.approx(-1.0 / a, rel=1e-5)


def test_evf_strictly_decreasing(sin_pot):
    gs = np.linspace(-math.pi / 2 + 0.05, math.pi / 2, 14)
    vals = [evf(sin_pot, float(g)).value for g in gs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_interlacing(sin_pot):
    da = find_eigenvalues(sin_pot, 0.1, 0.0, -8, 8)
    db = find_eigenvalues(sin_pot, 0.8, 0.0, -8, 8)
    for n in range(-8, 8):
        assert db.items[n].lam < da.items[n].lam < db.items[n + 1].lam


def test_expand_single_mode(zero_pot):
    g = zero_pot.domain
    x = g.nodes
    data = find_eigenvalues(zero_pot, 0.0, 0.0, -5, 5)
    data = norming_constants(zero_pot, 0.0, data)
    basis = {
        n: normalized_eigenfunction(zero_pot, 0.0, data.items[n].lam, data.items[n].a)
        for n in data.ns()
    }
    f = Trajectory2(g, np.sin(2 * x), -np.cos(2 * x))
    coeffs = expand(f, basis)
    assert coeffs[2] == pytest.approx(math.sqrt(math.pi), abs=1e-8)
    others = [abs(c) for n, c in coeffs.items() if n != 2]
    assert max(others) < 1e-8
    assert parseval_defect(f, basis, 5) < 1e-8


def test_parseval_defect_on_basis_element(sin_pot, sin_data_40):
    basis = {
        n: normalized_eigenfunction(sin_pot, 0.0, sin_data_40.items[n].lam, sin_data_40.items[n].a)
        for n in range(-5, 6)
    }
    assert parseval_defect(basis[1], basis, 5) < 1e-8

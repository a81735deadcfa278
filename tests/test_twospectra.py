import math

import numpy as np
import pytest

from diracspec.core import ContractError, Grid, InconsistentDataError, PoleError, PotentialMatrix
from diracspec.eigen import SpectralData, SpectralDatum, find_eigenvalues
from diracspec.twospectra import (
    TwoSpectraInput,
    ambarzumyan_residual,
    norming_from_two_spectra,
    one_spectrum_norming_p0,
    one_spectrum_norming_q0,
    weyl_m,
)
from diracspec.isospectral import zero_family


def _lattice(alpha, beta, N):
    from diracspec.core import BoundaryAngles

    delta = (beta - alpha) / math.pi
    items = {n: SpectralDatum(n, n + delta, a=math.pi) for n in range(-N, N + 1)}
    return SpectralData(BoundaryAngles.make(alpha, beta), items)


def test_lattice_norming_is_pi():
    eps = math.pi / 4
    inp = TwoSpectraInput(_lattice(0.0, 0.0, 220), _lattice(eps, 0.0, 220), trunc=200)
    assert norming_from_two_spectra(inp, 0) == pytest.approx(math.pi, abs=1e-3)


def test_coincident_angles_rejected():
    with pytest.raises(InconsistentDataError):
        TwoSpectraInput(_lattice(0.3, 0.0, 60), _lattice(0.3, 0.0, 60), trunc=50)


@pytest.mark.parametrize("gapped", ["alpha", "eps"])
def test_window_with_a_gap_names_the_missing_index(gapped):
    """Items -3, -1, 0, 1, 3 span [-3, 3] but miss n = -2: a ContractError, not a KeyError."""
    specs = {"alpha": _lattice(0.0, 0.0, 3), "eps": _lattice(math.pi / 4, 0.0, 3)}
    full = specs[gapped]
    specs[gapped] = SpectralData(full.angles, {n: full.items[n] for n in (-3, -1, 0, 1, 3)})
    with pytest.raises(ContractError, match=f"{gapped}-spectrum window .* n = -2$"):
        TwoSpectraInput(specs["alpha"], specs["eps"], trunc=3)


def test_sin_matches_direct_norming(sin_data_220, sin_spec_eps220):
    inp = TwoSpectraInput(sin_data_220, sin_spec_eps220, trunc=200)
    a0 = norming_from_two_spectra(inp, 0)
    assert a0 == pytest.approx(sin_data_220.items[0].a, abs=1e-3)


def test_truncation_error_halves(sin_data_220, sin_spec_eps220):
    direct = sin_data_220.items[1].a
    errs = []
    for N in (100, 200):
        inp = TwoSpectraInput(sin_data_220, sin_spec_eps220, trunc=N)
        errs.append(abs(norming_from_two_spectra(inp, 1) - direct))
    assert errs[1] < errs[0]


def _loop_norming(inp, n):
    """a_n by the pairwise loop over k = 0, +-1, +-2, ..., the reference for the product."""
    la, le, lam_n = inp.spec_a.items, inp.spec_e.items, inp.spec_a.items[n].lam
    prod = 1.0
    for k in [0] + [s * j for j in range(1, inp.trunc + 1) for s in (1, -1)]:
        if k != n:
            prod *= (la[k].lam - lam_n) / (le[k].lam - lam_n)
    return math.sin(inp.eps - inp.alpha) / (lam_n - le[n].lam) * prod


def test_vectorised_product_matches_loop(sin_data_220, sin_spec_eps220):
    inp = TwoSpectraInput(sin_data_220, sin_spec_eps220, trunc=200)
    for n in (-150, -3, 0, 1, 77):
        # 400 factors reordered: rounding differs by far less than 1e-12
        assert norming_from_two_spectra(inp, n) == pytest.approx(_loop_norming(inp, n), rel=1e-12)


def test_halfaxis_route_is_the_regular_product():
    from diracspec.halfaxis import halfaxis_two_spectra_norming

    eps = math.pi / 4
    inp = TwoSpectraInput(_lattice(0.0, 0.0, 220), _lattice(eps, 0.0, 220), trunc=200)
    la = {n: d.lam for n, d in inp.spec_a.items.items()}
    le = {n: d.lam for n, d in inp.spec_e.items.items()}
    for n in (-7, 0, 3):
        assert halfaxis_two_spectra_norming(la, le, 0.0, eps, n, N=200) == norming_from_two_spectra(inp, n)


def test_positivity(sin_data_220, sin_spec_eps220):
    inp = TwoSpectraInput(sin_data_220, sin_spec_eps220, trunc=200)
    for n in (-5, -1, 0, 2, 8):
        assert norming_from_two_spectra(inp, n) > 0


def test_weyl_zero_at_eigenvalue():
    g = Grid(0.0, math.pi, 1024)
    zero = PotentialMatrix.zero(g)
    # lambda_n(alpha) = n - alpha/pi are zeros of m
    m = weyl_m(zero, 0.3, 0.9, 0.0, 2.0 - 0.3 / math.pi)
    assert abs(m) < 1e-8


def test_weyl_pole_detection():
    g = Grid(0.0, math.pi, 1024)
    zero = PotentialMatrix.zero(g)
    with pytest.raises(PoleError):
        weyl_m(zero, 0.3, 0.9, 0.0, 1.0 - 0.9 / math.pi)


def test_weyl_asymptotic_limit(sin_pot):
    al, ep = 0.2, 1.0
    m = weyl_m(sin_pot, al, ep, 0.0, 40j)
    assert abs(m - np.exp(1j * (ep - al))) < 0.05


def test_weyl_halfplane_mapping(sin_pot):
    for mu in (3.0, 10.0, 25.0):
        assert weyl_m(sin_pot, 0.0, 0.7, 0.0, 1j * mu).imag > 0
        assert weyl_m(sin_pot, 0.0, 0.7, 0.0, -1j * mu).imag < 0


def test_weyl_derivative_at_zero(sin_data_220, sin_pot):
    al, ep = 0.0, math.pi / 4
    n = 1
    lam_n = sin_data_220.items[n].lam
    d = 1e-5
    dm = (
        weyl_m(sin_pot, al, ep, 0.0, lam_n + d)
        - weyl_m(sin_pot, al, ep, 0.0, lam_n - d)
    ) / (2 * d)
    expect = sin_data_220.items[n].a / math.sin(ep - al)
    assert complex(dm).real == pytest.approx(expect, rel=1e-4)


def test_one_spectrum_p0_zero_potential():
    spec = _lattice(math.pi / 4, 0.0, 220)
    val = one_spectrum_norming_p0(spec, 0, N=200)
    assert val == pytest.approx(math.pi, abs=2e-2)


def test_one_spectrum_p0_positivity():
    spec = _lattice(math.pi / 4, 0.0, 220)
    for n in (-2, 0, 3):
        assert one_spectrum_norming_p0(spec, n, N=200) > 0


def test_one_spectrum_q0_zero_potential():
    spec = _lattice(0.0, math.pi / 4, 220)
    val = one_spectrum_norming_q0(spec, 0, N=200)
    assert val == pytest.approx(math.pi, abs=2e-2)


def test_ambarzumyan_lattice_zero():
    assert ambarzumyan_residual(_lattice(0.0, 0.0, 30)) == 0.0


def test_ambarzumyan_sin_positive(sin_data_40):
    assert ambarzumyan_residual(sin_data_40) > 1e-3


def test_ambarzumyan_isospectral_family():
    g = Grid(0.0, math.pi, 2048)
    pot = zero_family(1, 0.5, g)
    data = find_eigenvalues(pot, 0.0, 0.0, -10, 10)
    assert ambarzumyan_residual(data) < 1e-6

import math

import numpy as np
import pytest

from diracspec.core import Grid, PotentialMatrix
from diracspec.eigen import find_eigenvalues, normalized_eigenfunction, norming_constants
from diracspec.isospectral import (
    TSequence,
    _eigendata,
    ell_sequence,
    omega_l1_distance,
    shift_finite_explicit,
    shift_finite_recurrent,
    shift_one,
    theta,
    zero_family,
)

GRID = Grid(0.0, math.pi, 2048)
ZERO = PotentialMatrix.zero(GRID)


def test_theta_endpoints():
    h0 = normalized_eigenfunction(ZERO, 0.0, 0.0, math.pi)
    t = 0.8
    assert theta(h0, t, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert theta(h0, t, math.pi) == pytest.approx(math.exp(t), rel=1e-10)


def test_theta_zero_potential_midpoint():
    # |h_0|^2 = 1/pi uniformly, so theta grows linearly in x
    h0 = normalized_eigenfunction(ZERO, 0.0, 0.0, math.pi)
    t = 1.0
    expect = 1.0 + (math.e - 1.0) / 2.0
    assert theta(h0, t, math.pi / 2) == pytest.approx(expect, rel=1e-10)


def test_eigendata_matches_normalized_eigenfunction():
    g = Grid(0.0, math.pi, 1024)
    pot = PotentialMatrix(lambda x: 0.4 * np.cos(2 * x), lambda x: np.sin(x), g)
    data, hs = _eigendata(pot, 0.3, range(-3, 4), 1e-10)
    assert sorted(hs) == list(range(-3, 4))
    for n, h in hs.items():
        d = data.items[n]
        ref = normalized_eigenfunction(pot, 0.3, d.lam, d.a)
        assert np.max(np.abs(h - np.stack([ref.y1, ref.y2]))) <= 1e-12


def test_zero_family_t0_is_zero():
    pot = zero_family(3, 0.0, GRID)
    assert np.max(np.abs(pot.p)) == 0.0
    assert np.max(np.abs(pot.q)) == 0.0


def test_shift_one_matches_closed_form():
    m, t = 1, 0.5
    res = shift_one(ZERO, 0.0, m, t, window=6)
    assert omega_l1_distance(res.omega_t, zero_family(m, t, GRID)) < 1e-6


def test_shift_one_identity_at_t0(sin_pot):
    res = shift_one(sin_pot, 0.0, 0, 0.0, window=6)
    assert omega_l1_distance(res.omega_t, sin_pot) < 1e-10


def test_shift_one_spectrum_and_norming(sin_pot, sin_data_40):
    m, t = 0, 0.7
    res = shift_one(sin_pot, 0.0, m, t, window=8)
    new = find_eigenvalues(res.omega_t, 0.0, 0.0, -5, 5)
    new = norming_constants(res.omega_t, 0.0, new)
    for n in range(-5, 6):
        assert new.items[n].lam == pytest.approx(sin_data_40.items[n].lam, abs=1e-6)
        expect = sin_data_40.items[n].a * (math.exp(-t) if n == m else 1.0)
        assert new.items[n].a == pytest.approx(expect, abs=1e-5)


def test_shift_one_l1_distance(sin_pot):
    t = 0.7
    res = shift_one(sin_pot, 0.0, 0, t, window=8)
    assert omega_l1_distance(res.omega_t, sin_pot) == pytest.approx(t, abs=1e-6)


def test_recurrent_single_matches_shift_one(sin_pot):
    res1 = shift_one(sin_pot, 0.0, 1, 0.4, window=6)
    res2 = shift_finite_recurrent(sin_pot, 0.0, TSequence({1: 0.4}), window=6)
    assert omega_l1_distance(res1.omega_t, res2.omega_t) < 1e-12


def test_recurrent_order_independent(sin_pot):
    T = {0: 0.3, 2: -0.5, -1: 0.2}
    base = shift_finite_recurrent(sin_pot, 0.0, TSequence(T), window=6)
    # apply the same shifts manually in a different order
    cur = sin_pot
    for m in (2, -1, 0):
        cur = shift_one(cur, 0.0, m, T[m], window=6).omega_t
    assert omega_l1_distance(base.omega_t, cur) < 1e-6


def test_explicit_matches_recurrent(sin_pot):
    T = TSequence({0: 0.3, 1: -0.4})
    ra = shift_finite_recurrent(sin_pot, 0.0, T, window=6)
    rb = shift_finite_explicit(sin_pot, 0.0, T, window=6)
    assert omega_l1_distance(ra.omega_t, rb.omega_t) < 1e-8


def test_explicit_empty_is_identity(sin_pot):
    res = shift_finite_explicit(sin_pot, 0.0, TSequence({}), window=4)
    assert omega_l1_distance(res.omega_t, sin_pot) < 1e-12


def test_explicit_single_entry_reduction():
    res1 = shift_one(ZERO, 0.0, 2, 0.6, window=5)
    res2 = shift_finite_explicit(ZERO, 0.0, TSequence({2: 0.6}), window=5)
    assert omega_l1_distance(res1.omega_t, res2.omega_t) < 1e-10


def test_two_entry_spectrum_preserved():
    T = TSequence({0: 0.5, 1: -0.3})
    res = shift_finite_explicit(ZERO, 0.0, T, window=5)
    data = find_eigenvalues(res.omega_t, 0.0, 0.0, -4, 4)
    for n in range(-4, 5):
        assert data.items[n].lam == pytest.approx(float(n), abs=1e-6)


def test_ell_zero_potential():
    # zero-potential trajectories are pure rotations, so the endpoint
    # magnitude ratio is exactly one
    ells = ell_sequence(ZERO, 0.0, window=4)
    for n, e in ells.items():
        assert e == pytest.approx(0.0, abs=1e-10)


def test_ell_shift_rule(sin_pot):
    m, t = 0, 0.6
    before = ell_sequence(sin_pot, 0.0, window=4)
    res = shift_one(sin_pot, 0.0, m, t, window=8)
    after = ell_sequence(res.omega_t, 0.0, window=4)
    for n in range(-4, 5):
        expect = before[n] - (t if n == m else 0.0)
        assert after[n] == pytest.approx(expect, abs=1e-6)


def test_transformed_eigenfunctions_are_eigenfunctions(sin_pot):
    res = shift_one(sin_pot, 0.0, 0, 0.7, window=6)
    # transformed h_1 should match the directly computed eigenfunction of
    # the deformed potential up to sign
    data = find_eigenvalues(res.omega_t, 0.0, 0.0, 1, 1)
    data = norming_constants(res.omega_t, 0.0, data)
    direct = normalized_eigenfunction(
        res.omega_t, 0.0, data.items[1].lam, data.items[1].a
    )
    got = res.eigenfunctions[1]
    d = min(
        max(np.max(np.abs(got.y1 - s * direct.y1)), np.max(np.abs(got.y2 - s * direct.y2)))
        for s in (1.0, -1.0)
    )
    assert d < 1e-5


def test_tsequence_round_trip(tmp_path):
    T = TSequence({2: 0.25, -1: -0.5})
    path = tmp_path / "t.json"
    T.save(path)
    assert TSequence.load(path).entries == T.entries
    assert T.interleaved() == [-1, 2]

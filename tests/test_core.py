import math

import numpy as np
import pytest

from diracspec.core import (
    BoundaryAngles,
    DomainError,
    Grid,
    GridMismatchError,
    PotentialMatrix,
    Trajectory2,
    cumulative_c,
    inner_product,
    pauli_algebra_selftest,
)


def test_grid_nodes():
    g = Grid(0.0, math.pi, 8)
    assert g.nodes.size == 9
    assert np.all(np.diff(g.nodes) > 0)
    assert np.allclose(np.diff(g.nodes), g.h)


def test_cumulative_c_zero_potential():
    g = Grid(0.0, math.pi, 256)
    assert cumulative_c(PotentialMatrix.zero(g), math.pi) == 0.0


def test_cumulative_c_linear_q():
    pot = PotentialMatrix(None, lambda x: x, Grid(0.0, math.pi, 2048))
    assert cumulative_c(pot, 2.0) == pytest.approx(2.0, abs=1e-6)


def test_cumulative_c_sin_p():
    pot = PotentialMatrix(lambda x: np.sin(x), None, Grid(0.0, math.pi, 2048))
    assert cumulative_c(pot, math.pi) == pytest.approx(2.0, abs=1e-5)


def test_cumulative_c_monotone():
    pot = PotentialMatrix(lambda x: np.sin(3 * x), lambda x: np.cos(x), Grid(0.0, math.pi, 1024))
    vals = [cumulative_c(pot, x) for x in np.linspace(0.1, math.pi, 12)]
    assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


def test_cumulative_c_domain_error():
    pot = PotentialMatrix.zero(Grid(0.0, 1.0, 64))
    with pytest.raises(DomainError):
        cumulative_c(pot, 2.0)


def test_inner_product_unit():
    g = Grid(0.0, math.pi, 1024)
    x = g.nodes
    f = Trajectory2(g, np.sin(x), -np.cos(x))
    assert inner_product(f, f) == pytest.approx(math.pi, abs=1e-12)


def test_inner_product_pointwise_orthogonal():
    g = Grid(0.0, math.pi, 1024)
    x = g.nodes
    f = Trajectory2(g, np.sin(x), -np.cos(x))
    h = Trajectory2(g, np.cos(x), np.sin(x))
    assert abs(inner_product(f, h)) < 1e-14


def test_inner_product_mode_orthogonal():
    g = Grid(0.0, math.pi, 2048)
    x = g.nodes
    f = Trajectory2(g, np.sin(2 * x), -np.cos(2 * x))
    h = Trajectory2(g, np.sin(3 * x), -np.cos(3 * x))
    assert abs(inner_product(f, h)) < 1e-10


def test_inner_product_grid_mismatch():
    f = Trajectory2(Grid(0.0, 1.0, 64), np.zeros(65), np.zeros(65))
    h = Trajectory2(Grid(0.0, 1.0, 128), np.zeros(129), np.zeros(129))
    with pytest.raises(GridMismatchError):
        inner_product(f, h)


def test_inner_product_positivity():
    g = Grid(0.0, 1.0, 128)
    f = Trajectory2(g, np.exp(g.nodes), np.cos(g.nodes))
    assert inner_product(f, f).real > 0


def test_pauli_algebra():
    assert pauli_algebra_selftest()


def test_trapezoid_second_order():
    exact = 1.0 / 3.0
    errs = []
    for m in (500, 1000):
        g = Grid(0.0, 1.0, m)
        errs.append(abs(float(g.trapezoid_weights() @ g.nodes**2) - exact))
    assert errs[1] < 1e-6
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_boundary_angle_reduction():
    ang, k = BoundaryAngles.reduce(2.0)
    assert -math.pi / 2 < ang <= math.pi / 2
    assert ang == pytest.approx(2.0 + math.pi * k)


def _gregory_weights(self):
    """Gregory's end-corrected rule, weights h (3/8, 7/6, 23/24, 1, ..., 1, 23/24, 7/6, 3/8)."""
    w = np.full(self.m + 1, self.h)
    w[:3] *= (3 / 8, 7 / 6, 23 / 24)
    w[-3:] *= (23 / 24, 7 / 6, 3 / 8)
    return w


def _gregory_cumulative(self, values):
    """The running form of the same rule: trapezoid minus the Gregory differences."""
    f = np.asarray(values)
    h = self.h
    out = np.zeros(f.shape)
    out[..., 1:] = np.cumsum(0.5 * h * (f[..., 1:] + f[..., :-1]), axis=-1)
    d0, dd0 = f[..., 1:2] - f[..., :1], f[..., 2:3] - 2 * f[..., 1:2] + f[..., :1]
    back = f[..., 2:] - f[..., 1:-1]
    back2 = f[..., 2:] - 2 * f[..., 1:-1] + f[..., :-2]
    out[..., 2:] -= h / 12 * (back - d0) + h / 24 * (back2 + dd0)
    out[..., 1] = h * (5 * f[..., 0] + 8 * f[..., 1] - f[..., 2]) / 12
    return out


def test_gregory_substitute_rule_is_fourth_order():
    """The substitute rule of the ownership test integrates to O(h^4), in both forms."""
    g = Grid(0.0, 1.0, 64)
    f = np.exp(g.nodes)
    assert abs(f @ _gregory_weights(g) - (math.e - 1.0)) < 1e-8
    assert np.max(np.abs(_gregory_cumulative(g, f) - (f - 1.0))) < 1e-8
    assert _gregory_cumulative(g, f)[-1] == pytest.approx(f @ _gregory_weights(g), rel=1e-14)


def test_grid_owns_the_quadrature(monkeypatch):
    """Every library integral takes its rule from Grid.weights (directly, as the
    norming constants' summing sweep does, or through Grid.integrate) or from
    Grid.cumulative: swapping the rule there moves each of them, while the GL
    collocation keeps its own trapezoid and its G stays bit-identical."""
    from diracspec import finite_rank
    from diracspec.eigen import SpectralData, SpectralDatum, find_eigenvalues, norming_constants
    from diracspec.glreconstruct import GLSeriesKernel, solve_gl
    from diracspec.halfaxis import halfaxis_eigen_data, linear_potential
    from diracspec.isospectral import theta

    g = Grid(0.0, math.pi, 256)
    pot = PotentialMatrix(lambda x: 0.4 * np.cos(2 * x), np.sin, g)
    data = find_eigenvalues(pot, 0.3, 0.1, -3, 3)
    x = g.nodes
    f = Trajectory2(g, np.exp(-x), np.cos(x))
    h0 = Trajectory2(g, np.sin(x) / math.sqrt(math.pi / 2.0), 0.0 * x)
    psi = np.stack([np.stack([np.cos(k * x), np.sin(k * x)]) for k in (1, 2)])
    gl_items = {n: SpectralDatum(n, n + 0.05 / (1 + n * n), a=math.pi) for n in range(-4, 5)}
    series = GLSeriesKernel.make(SpectralData(BoundaryAngles.make(0.0, 0.0), gl_items), 4)

    def outputs():
        return {
            "norming_constants": [d.a for d in norming_constants(pot, 0.3, data).items.values()],
            "inner_product": inner_product(f, h0),
            "norm_sq": f.norm_sq(),
            "theta": theta(h0, 0.7, 1.3),
            "finite_rank.solve": finite_rank.solve(psi, np.array([0.5, -0.2]), g)[1],
            "halfaxis_eigen_data": halfaxis_eigen_data(linear_potential(12.0, 1024), 0.0, 2.0,
                                                       x_max=12.0, m=1024)[1],
            "solve_gl": solve_gl(series, Grid(0.0, math.pi, 64)).G,
        }

    before = outputs()
    monkeypatch.setattr(Grid, "weights", _gregory_weights)
    monkeypatch.setattr(Grid, "cumulative", _gregory_cumulative)
    after = outputs()
    for name in before:
        same = np.array_equal(before[name], after[name])
        assert same == (name == "solve_gl"), name

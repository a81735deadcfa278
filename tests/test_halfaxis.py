import math

import numpy as np
import pytest

from diracspec.cauchy import initial_state
from diracspec.core import (
    ContractError,
    DomainError,
    Grid,
    InterlacingError,
    PotentialMatrix,
    SingularSystemError,
)
from diracspec.halfaxis import (
    ModelSpectrum,
    SurgeryPlan,
    _hermite_table,
    evf_halfaxis,
    evf_halfaxis_derivative,
    general_finite_perturbation,
    half_bc0_norming,
    halfaxis_eigen_data,
    halfaxis_eigenvalues,
    halfaxis_two_spectra_norming,
    hermite_phi,
    linear_potential,
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


def _hermite_from_zero(n, x):
    """One recurrence from index 0 per call, the reference for the table."""
    prev, cur = np.zeros_like(x), np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    for k in range(n):
        prev, cur = cur, x * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1)) * prev
    return cur


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_hermite_table_and_eigenfunctions_bit_for_bit():
    xs = np.linspace(-38.0, 38.0, 153)  # reaches the subnormal tails
    ref = [_hermite_from_zero(k, xs) for k in range(301)]
    table = _hermite_table(300, xs)
    assert table.shape == (301, xs.size)
    for k in range(301):
        assert _bitwise_equal(table[k], ref[k])
        assert _bitwise_equal(hermite_phi(k, xs), ref[k])
    # half_bc0 index n: the whole-axis vector of index 2n over -phi_{2|n|}(0)
    ns = list(range(-150, 151))
    got = ModelSpectrum.make("half_bc0", 150).eigenfunctions(ns, xs)
    assert got.shape == (len(ns), 2, xs.size)
    for n, v in zip(ns, got):
        k = 2 * abs(n)
        top = math.copysign(1.0, n) * ref[k - 1] if k else np.zeros_like(xs)
        want = -np.stack([top, ref[k]]) / _hermite_from_zero(k, np.array([0.0]))[0]
        assert _bitwise_equal(v, want)


def test_eigenfunctions_start_at_the_boundary_state():
    got = ModelSpectrum.make("half_bc0", 40).eigenfunctions(range(-40, 41), np.array([0.0, 1.0]))
    assert np.all(got[:, :, 0] == initial_state(0.0))
    with pytest.raises(ContractError):  # the y2(0) = 0 model keeps eigenvalues only
        ModelSpectrum.make("half_bc_pi2", 2).eigenfunctions([0], np.array([0.0]))


def test_surgery_runs_one_hermite_recurrence(monkeypatch):
    from diracspec import halfaxis

    calls = []

    def counted(kmax, x):
        calls.append(kmax)
        return _hermite_table(kmax, x)

    monkeypatch.setattr(halfaxis, "_hermite_table", counted)
    base = ModelSpectrum.make("half_bc0", 8)
    for plan in (SurgeryPlan(), SurgeryPlan(removals=frozenset({0})),
                 SurgeryPlan(removals=frozenset({2}), additions=((1.1, 1.0),),
                             rescalings=((-1, 1.7 * half_bc0_norming(1)),))):
        calls.clear()
        surgery(base, plan, Grid(0.0, 12.0, 512))
        assert calls == [16]


def test_model_norming_closed_forms():
    assert half_bc0_norming(0) == pytest.approx(SQRT_PI / 2.0, rel=1e-14)
    assert half_bc0_norming(1) == pytest.approx(2.0 * SQRT_PI, rel=1e-14)
    assert half_bc0_norming(2) == pytest.approx(16.0 * SQRT_PI / 6.0, rel=1e-13)


def test_model_norming_by_quadrature():
    base = ModelSpectrum.make("half_bc0", 3)
    xs = GRID12.nodes
    w = GRID12.trapezoid_weights()
    for n, u in zip((0, 1, 2), base.eigenfunctions([0, 1, 2], xs)):
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
    base = ModelSpectrum.make("half_bc0", 6)
    res = surgery(base, SurgeryPlan(), GRID12)
    assert np.max(np.abs(res.potential.q - GRID12.nodes)) < 1e-12
    assert np.max(np.abs(res.potential.p)) < 1e-12


def test_surgery_remove_ground_state():
    base = ModelSpectrum.make("half_bc0", 8)
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
    base = ModelSpectrum.make("half_bc0", 8)
    b = half_bc0_norming(0) / 2.0
    res = surgery(base, SurgeryPlan(rescalings=((0, b),)), GRID12)
    roots = halfaxis_eigenvalues(res.potential, 0.0, -0.5, 3.0, x_max=12.0)
    assert min(abs(r) for r in roots) < 1e-4
    assert min(abs(r - 2.0) for r in roots) < 1e-4
    lam0 = min(roots, key=abs)
    _, a0 = halfaxis_eigen_data(res.potential, 0.0, lam0, x_max=12.0)
    assert a0 == pytest.approx(b, abs=1e-3)


def test_surgery_addition():
    base = ModelSpectrum.make("half_bc0", 8)
    res = surgery(base, SurgeryPlan(additions=((1.1, 1.0),)), GRID12)
    roots = halfaxis_eigenvalues(res.potential, 0.0, 0.5, 1.7, x_max=12.0)
    assert min(abs(r - 1.1) for r in roots) < 1e-4


def test_surgery_matches_recurrent_route():
    base = ModelSpectrum.make("half_bc0", 8)
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
        # excited states: the recurrent route needs decaying columns swept
        # back from x_max, and eigen x eigen prefixes from the backward tail
        (SurgeryPlan(removals=frozenset({1})), 1e-8),
        (SurgeryPlan(rescalings=((-2, 2.0 * half_bc0_norming(2)),)), 1e-8),
        (SurgeryPlan(removals=frozenset({0, 1})), 1e-3),
        (
            SurgeryPlan(
                removals=frozenset({2}),
                additions=((1.1, 1.0),),
                rescalings=((-1, 1.7 * half_bc0_norming(1)),),
            ),
            1e-3,
        ),
    ]
    for plan, tol in cases:
        res = surgery(base, plan, GRID12)
        rec = general_finite_perturbation(
            linear_potential(12.0, m=4096), 0.0, plan_steps(base, plan)
        )
        assert np.max(np.abs(res.potential.q[inner] - rec.q[inner])) < tol
        assert np.max(np.abs(res.potential.p[inner] - rec.p[inner])) < tol


SURGERY_PLANS = {
    "remove": SurgeryPlan(removals=frozenset({0})),
    "rescale": SurgeryPlan(rescalings=((1, 0.5 * half_bc0_norming(1)),)),
    "add": SurgeryPlan(additions=((1.1, 1.0),)),
    "mix": SurgeryPlan(removals=frozenset({2}), additions=((1.1, 1.0),),
                       rescalings=((-1, 1.7 * half_bc0_norming(1)),)),
}


def _surgery_gram(plan, grid):
    """Gram of retained then added eigenfunctions, and their expected norming constants."""
    base = ModelSpectrum.make("half_bc0", 8)
    res = surgery(base, plan, grid)
    target = dict(plan.rescalings)
    fns = [(t, target.get(n, base.norming[n])) for n, t in sorted(res.retained.items())]
    fns += [(t, c) for t, (_, c) in zip(res.added, plan.additions)]
    assert len(res.retained) == 17 - len(plan.removals)
    assert len(res.added) == len(plan.additions)
    Y = np.stack([np.concatenate([t.y1, t.y2]) for t, _ in fns])
    gram = (Y * np.tile(grid.trapezoid_weights(), 2)) @ Y.T
    return gram, np.array([a for _, a in fns])


@pytest.mark.parametrize("name", sorted(SURGERY_PLANS))
def test_surgery_eigenfunctions_normed_and_orthogonal(name):
    """The retained and added eigenfunctions carry the model's or the plan's
    norming constant and are pairwise orthogonal."""
    gram, a = _surgery_gram(SURGERY_PLANS[name], Grid(0.0, 12.0, 2048))
    # O(h^2) from the trapezoid prefix integrals, 3.2e-4 at worst here; a
    # fourth-order grid quadrature should let this tolerance tighten
    assert np.max(np.abs(gram - np.diag(a)) / np.sqrt(np.outer(a, a))) < 1e-3


def test_surgery_rescaled_state_beside_an_addition():
    """The addition's row grows like exp(x^2); row scaling keeps the per-node
    pivot from picking it for that growth alone."""
    plan = SurgeryPlan(rescalings=((1, 0.5 * half_bc0_norming(1)),), additions=((1.1, 1.0),))
    gram, a = _surgery_gram(plan, Grid(0.0, 12.0, 2048))
    assert np.max(np.abs(gram - np.diag(a)) / np.sqrt(np.outer(a, a))) < 1e-3


def test_surgery_plan_round_trip(tmp_path):
    plan = SURGERY_PLANS["mix"]
    path = tmp_path / "plan.json"
    plan.save(path)
    assert SurgeryPlan.load(path) == plan
    assert path.read_bytes().endswith(b"}\n")


def test_plan_validation():
    base = ModelSpectrum.make("half_bc0", 4)
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


def test_weyl_m0_past_turning_point():
    """Complex lambda needs no turning point: nu = 13 lies beyond q(x_max) = 12."""
    from diracspec.halfaxis import weyl_m0

    val = weyl_m0(linear_potential(12.0, 2048), 13.0, 1.0, x_max=12.0, m=2048)
    assert abs(val - (0.000451106406500692 + 1.00291063797197j)) <= 1e-12


def test_two_spectra_norming_model():
    la = ModelSpectrum.make("half_bc0", 420).lams
    lb = ModelSpectrum.make("half_bc_pi2", 420).lams
    a0 = halfaxis_two_spectra_norming(la, lb, 0.0, math.pi / 2.0, 0, N=400)
    a1 = halfaxis_two_spectra_norming(la, lb, 0.0, math.pi / 2.0, 1, N=400)
    assert a0 == pytest.approx(SQRT_PI / 2.0, rel=0.05)
    assert a1 == pytest.approx(2.0 * SQRT_PI, rel=0.05)


def _loop_halfaxis_norming(la, lb, alpha, beta, n, N):
    """a_n by the nested pairwise loops, the reference for the vectorised product."""
    lam_n = la[n]
    out = math.sin(beta - alpha) / (lam_n - lb[n])
    if n != 0:
        out *= (la[0] - lam_n) / (lb[0] - lam_n)
    for k in range(1, N + 1):
        for kk in (k, -k):
            if kk != n:
                out *= (la[kk] - lam_n) / (lb[kk] - lam_n)
    return out


def test_two_spectra_products_match_loops():
    la = ModelSpectrum.make("half_bc0", 420).lams
    lb = {k: v + 0.01 * math.sin(k) for k, v in ModelSpectrum.make("half_bc_pi2", 420).lams.items()}
    for n in (-3, 0, 1, 5):
        want = _loop_halfaxis_norming(la, lb, 0.0, 1.4, n, 400)
        # 800 factors reordered: rounding differs by far less than 1e-12
        assert halfaxis_two_spectra_norming(la, lb, 0.0, 1.4, n, N=400) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [12, 13])
def test_two_spectra_index_at_the_edge_raises(n):
    """n = 12 lies outside the window |k| <= N = 10, n = 13 outside the data too."""
    la = ModelSpectrum.make("half_bc0", 12).lams
    lb = ModelSpectrum.make("half_bc_pi2", 12).lams
    with pytest.raises(ContractError, match="truncation edge"):
        halfaxis_two_spectra_norming(la, lb, 0.0, math.pi / 2.0, n, N=10)


def test_two_spectra_refuses_a_nonpositive_norming_constant():
    """b_5 moved past a_5 leaves a_4 and a_5 both in (b_4, b_5); a_5 comes out negative."""
    la = ModelSpectrum.make("half_bc0", 420).lams
    lb = dict(ModelSpectrum.make("half_bc_pi2", 420).lams)
    lb[5] = (la[5] + la[6]) / 2.0
    with pytest.raises(ContractError, match="<= 0"):
        halfaxis_two_spectra_norming(la, lb, 0.0, math.pi / 2.0, 5, N=400)


def test_reflected_spectrum_for_p0():
    """lambda_k(-alpha) = -lambda_{1-k}(alpha), which one_spectrum_norming_halfaxis uses."""
    pot = linear_potential(12.0)

    def indexed(alpha):  # enumerated so that lambda_0 <= 0 < lambda_1
        lams = halfaxis_eigenvalues(pot, alpha, -4.0, 4.0)
        k0 = sum(lam <= 0.0 for lam in lams) - 1
        return {j - k0: lam for j, lam in enumerate(lams)}

    plus, minus = indexed(0.3), indexed(-0.3)
    assert len(plus) == 8 and sorted(minus) == sorted(1 - k for k in plus)
    for k, lam in minus.items():
        # each root is refined to 1e-10
        assert lam == pytest.approx(-plus[1 - k], abs=1e-9)


def test_two_spectra_rejects_non_alternating():
    la = ModelSpectrum.make("half_bc0", 12).lams
    lb = {k: v + 5.0 for k, v in la.items()}
    with pytest.raises(InterlacingError):
        halfaxis_two_spectra_norming(la, lb, 0.0, 1.0, 0, N=10)


def test_one_spectrum_needs_interior_angle():
    la = ModelSpectrum.make("half_bc0", 12).lams
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


def test_evf_branch_below_zero_ground_state():
    """With the ground state removed, lambda_0(0) = -2 < 0: lambda(gamma) stays on
    that branch on both sides of gamma = 0 and its slope is -1/a = -1/(2 sqrt pi)."""
    base = ModelSpectrum.make("half_bc0", 8)
    pot = surgery(base, SurgeryPlan(removals=frozenset({0})), Grid(0.0, 14.0, 4096)).potential
    vals = [evf_halfaxis(pot, g) for g in (-1e-3, 0.0, 1e-3)]
    assert all(abs(v + 2.0) < 1e-3 for v in vals)
    assert vals[0] > vals[1] > vals[2]
    assert evf_halfaxis_derivative(pot, 0.0) == pytest.approx(-1.0 / (2.0 * SQRT_PI), abs=1e-3)


@pytest.mark.parametrize("x_max", [12.0, 30.0, 40.0])
def test_decaying_angle_strictly_decreasing(x_max):
    """Theta(0, lambda), start angle taken mod 2 pi, has no jump at the arctan2
    cut lambda = -p(x_max) = 0 and decreases on a dense mesh."""
    from diracspec.halfaxis import _decaying_angle

    g = Grid(0.0, x_max, 4096)
    lam = np.linspace(-6.0, 6.0, 1001)
    theta = _decaying_angle(linear_potential(x_max, 4096), lam, g)
    assert np.all(np.isfinite(theta))
    assert np.all(np.diff(theta) < 0.0)
    assert theta[500] == math.pi


def test_evf_root_outside_window_raises():
    """q = x + 10 opens a gap around 0: lambda(gamma) leaves the swept
    [-span, span] between gamma = 0.5 and 1.0, which must be refused."""
    pot = PotentialMatrix(None, lambda x: x + 10.0, Grid(0.0, 14.0, 4096))
    assert -2.0 * math.sqrt(6.0) - 4.0 < evf_halfaxis(pot, 0.5) < 0.0
    with pytest.raises(DomainError):
        evf_halfaxis(pot, 1.0)


def test_angle_roots_split_wide_cells():
    """A one-cell mesh over 12 roots: secant steps on the lifted angle, all
    bracketed by that one cell, give halfaxis_eigenvalues' roots."""
    from diracspec.halfaxis import _angle_roots, _decaying_angle

    pot = linear_potential(12.0, 1024)
    g = Grid(0.0, 12.0, 1024)
    want = halfaxis_eigenvalues(pot, 0.7, -3.0, 6.0, x_max=12.0, m=1024)
    mesh = np.array([-3.0, 6.0])
    theta = _decaying_angle(pot, mesh, g)
    ks = np.arange(math.ceil((theta[-1] - 0.7) / math.pi), math.floor((theta[0] - 0.7) / math.pi) + 1)
    assert ks.size == len(want) == 12
    got = np.sort(_angle_roots(pot, g, mesh, theta, 0.7 + ks * math.pi, ks, 1e-10))
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.xfail(strict=True, raises=SingularSystemError,
                   reason="the kernel system turns singular near x_max when three states are removed")
def test_surgery_removing_three_states():
    """Halfaxis benchmark seed 28's plan1: remove lambda_-1, lambda_0 and lambda_1."""
    base = ModelSpectrum.make("half_bc0", 8)
    plan = SurgeryPlan(removals=frozenset({-1, 0, 1}))
    grid = Grid(0.0, 12.0, 2048)
    pot = surgery(base, plan, grid).potential
    assert np.all(np.isfinite(pot.sample_p(grid.nodes)))
    assert np.all(np.isfinite(pot.sample_q(grid.nodes)))

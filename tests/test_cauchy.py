import itertools
import math

import numpy as np
import pytest

from diracspec.core import Grid, PotentialMatrix, Trajectory2
from diracspec.cauchy import (
    fundamental_matrix,
    initial_state,
    propagate,
    solve_cauchy,
    solve_terminal,
    wronskian,
)

B = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _const_exponential(lam, q0, x):
    """exp(x M) (sin a, -cos a) for the constant system y' = M y, M = ((q0, -lam), (lam, -q0)).

    Trace-free 2x2: exp(xM) = cosh(sx) E + sinh(sx)/s M with s^2 = q0^2 - lam^2.
    """
    s2 = q0 * q0 - lam * lam
    s = np.sqrt(complex(s2))
    x = np.asarray(x, dtype=float)
    if abs(s) < 1e-30:
        c, r = np.ones_like(x), x
    else:
        c, r = np.cosh(s * x), np.sinh(s * x) / s
    y0 = np.array([0.0, -1.0])
    M = np.array([[q0, -lam], [lam, -q0]])
    My0 = M @ y0
    return np.real(np.stack([c * y0[0] + r * My0[0], c * y0[1] + r * My0[1]]))


def _max_abs_z(pot, g, lam):
    """max |a^2 + bc| over the step exponents M = P + lam*Q of a sweep."""
    from diracspec.cauchy import _step_coeffs

    P, Q = _step_coeffs(pot, g)
    a, b, c = P + lam * Q
    return np.max(np.abs(a * a + b * c))


def test_zero_potential_closed_form():
    from diracspec.cauchy import _ZMAX

    al = 0.4
    # the m = 64 case needs scaling and squaring in the step exponential
    for m, lam, squared in ((512, 1.7, False), (64, 150.3, True)):
        g = Grid(0.0, math.pi, m)
        zero = PotentialMatrix.zero(g)
        assert (_max_abs_z(zero, g, lam) > _ZMAX) == squared
        tr = solve_cauchy(zero, lam, al)
        x = g.nodes
        assert np.max(np.abs(tr.y1 - np.sin(lam * x + al))) < 1e-10
        assert np.max(np.abs(tr.y2 + np.cos(lam * x + al))) < 1e-10


def test_zero_potential_constant_solution():
    g = Grid(0.0, math.pi, 128)
    tr = solve_cauchy(PotentialMatrix.zero(g), 0.0, 0.0)
    assert np.max(np.abs(tr.y1)) == 0.0
    assert np.max(np.abs(tr.y2 + 1.0)) == 0.0


def test_constant_potential_matrix_exponential():
    from diracspec.cauchy import _ZMAX

    q0 = 0.8
    # the m = 64 case needs scaling and squaring in the step exponential
    for m, lam, squared in ((1024, 1.3, False), (64, 149.7, True)):
        g = Grid(0.0, math.pi, m)
        pot = PotentialMatrix(None, lambda x: np.full_like(x, q0), g)
        assert (_max_abs_z(pot, g, lam) > _ZMAX) == squared
        tr = solve_cauchy(pot, lam, 0.0)
        ex = _const_exponential(lam, q0, g.nodes)
        assert np.max(np.abs(tr.y1 - ex[0])) < 1e-9
        assert np.max(np.abs(tr.y2 - ex[1])) < 1e-9


def test_terminal_zero_potential():
    g = Grid(0.0, math.pi, 512)
    lam, be = 0.9, 0.25
    tr = solve_terminal(PotentialMatrix.zero(g), lam, be)
    x = g.nodes
    assert np.max(np.abs(tr.y1 - np.sin(lam * (x - math.pi) + be))) < 1e-10
    assert np.max(np.abs(tr.y2 + np.cos(lam * (x - math.pi) + be))) < 1e-10


def test_terminal_forward_roundtrip():
    g = Grid(0.0, math.pi, 1024)
    pot = PotentialMatrix(None, lambda x: np.sin(x), g)
    psi = solve_terminal(pot, 1.1, 0.3)
    y0 = np.array([psi.y1[0], psi.y2[0]])
    Y = propagate(pot, g, np.array([1.1]), y0)
    assert abs(Y[0, 0] - psi.y1[-1]) < 1e-9
    assert abs(Y[1, 0] - psi.y2[-1]) < 1e-9


def test_fundamental_matrix_zero_potential():
    g = Grid(0.0, math.pi, 256)
    lam = 0.7
    F = fundamental_matrix(PotentialMatrix.zero(g), lam)
    x = g.nodes
    expect = (
        np.eye(2)[None] * np.cos(lam * x)[:, None, None]
        - B[None] * np.sin(lam * x)[:, None, None]
    )
    assert np.max(np.abs(F.entries - expect)) < 1e-10


def test_fundamental_matrix_identity_at_origin():
    g = Grid(0.0, math.pi, 64)
    F = fundamental_matrix(PotentialMatrix.zero(g), 2.2)
    assert np.allclose(F.entries[0], np.eye(2))


def test_fundamental_matrix_unit_determinant():
    g = Grid(0.0, math.pi, 2048)
    pot = PotentialMatrix(None, lambda x: np.sin(x), g)
    F = fundamental_matrix(pot, 1.3)
    det = np.linalg.det(F.entries)
    assert abs(det[-1] - 1.0) < 1e-8


def test_wronskian_zero_potential_value():
    g = Grid(0.0, math.pi, 512)
    zero = PotentialMatrix.zero(g)
    lam, al, be = 1.4, 0.3, 0.1
    w, dev = wronskian(solve_cauchy(zero, lam, al), solve_terminal(zero, lam, be))
    assert dev < 1e-9
    assert w[0] == pytest.approx(-math.sin(lam * math.pi + al - be), abs=1e-9)


def test_wronskian_self_zero():
    g = Grid(0.0, math.pi, 256)
    tr = solve_cauchy(PotentialMatrix.zero(g), 1.0, 0.5)
    w, _ = wronskian(tr, tr)
    assert np.max(np.abs(w)) == 0.0


def test_wronskian_constancy():
    g = Grid(0.0, math.pi, 2048)
    pot = PotentialMatrix(lambda x: 0.3 * np.cos(x), lambda x: np.sin(x), g)
    _, dev = wronskian(solve_cauchy(pot, 2.1, 0.0), solve_terminal(pot, 2.1, 0.7))
    assert dev < 1e-8


def test_fourth_order_convergence():
    lam = 1.2

    def endpoint(m):
        g = Grid(0.0, math.pi, m)
        pot = PotentialMatrix(None, lambda x: np.sin(x), g)
        tr = solve_cauchy(pot, lam, 0.0)
        return np.array([tr.y1[-1], tr.y2[-1]])

    ref = endpoint(8192)
    e1 = np.max(np.abs(endpoint(128) - ref))
    e2 = np.max(np.abs(endpoint(256) - ref))
    assert e1 / e2 == pytest.approx(16.0, rel=0.5)


def test_picard_iteration_oracle():
    """Successive approximations of the integral form on a coarse grid."""
    g = Grid(0.0, 1.0, 400)
    lam, al = 0.9, 0.2
    pot = PotentialMatrix(None, lambda x: np.sin(x), g)
    x = g.nodes
    q = np.sin(x)
    y = np.stack([np.full_like(x, math.sin(al)), np.full_like(x, -math.cos(al))])
    Binv = np.linalg.inv(B)

    def cumtrapz(v):  # the oracle's own rule, independent of Grid.cumulative
        return np.concatenate([[0.0], np.cumsum(0.5 * g.h * (v[1:] + v[:-1]))])

    for _ in range(40):
        rhs = np.stack([q * y[1], q * y[0]])
        integrand = Binv @ (lam * y - rhs)
        y = np.stack(
            [
                math.sin(al) + cumtrapz(integrand[0]),
                -math.cos(al) + cumtrapz(integrand[1]),
            ]
        )
    tr = solve_cauchy(pot, lam, al)
    assert np.max(np.abs(tr.y1 - y[0])) < 1e-5
    assert np.max(np.abs(tr.y2 - y[1])) < 1e-5


def test_complex_lambda_matches_real():
    g = Grid(0.0, math.pi, 512)
    pot = PotentialMatrix(None, lambda x: np.sin(x), g)
    tr_r = solve_cauchy(pot, 1.5, 0.0)
    tr_c = solve_cauchy(pot, 1.5 + 0j, 0.0)
    assert np.max(np.abs(tr_r.y1 - np.real(tr_c.y1))) < 1e-12
    assert np.max(np.abs(np.imag(np.asarray(tr_c.y1)))) < 1e-12


def _matrix_magnus_coeffs(pot, grid):
    """Step table from stacked 2x2 matrices and their commutators (oracle)."""
    h = grid.h
    x0 = grid.nodes[:-1]

    def c_matrix(x):  # C = B*Omega = ((q, -p), (-p, -q))
        p, q = pot.sample_p(x), pot.sample_q(x)
        return np.stack([np.stack([q, -p], -1), np.stack([-p, -q], -1)], -2)

    c1 = c_matrix(x0 + h * (0.5 - math.sqrt(3.0) / 6.0))
    c2 = c_matrix(x0 + h * (0.5 + math.sqrt(3.0) / 6.0))
    D = np.array([[0.0, -1.0], [1.0, 0.0]])
    w = math.sqrt(3.0) * h * h / 12.0
    P = 0.5 * h * (c1 + c2) + w * (c2 @ c1 - c1 @ c2)
    Q = h * D + w * ((c2 - c1) @ D - D @ (c2 - c1))
    return np.stack([[M[:, 0, 0], M[:, 0, 1], M[:, 1, 0]] for M in (P, Q)])


def _branch_expm(a, b, c):
    """exp(((a, b), (c, -a))) via cosh/sinhc of s, s^2 = a^2 + bc, by branches (oracle)."""
    z = a * a + b * c
    small = np.abs(z) < 1e-12
    if np.iscomplexobj(z):
        s = np.sqrt(z)
        ch = np.cosh(s)
        sh = np.sinh(s) / np.where(small, 1.0, s)
    else:
        # each entry evaluates only its branch: cosh/sinh for z >= 0, else cos/sin
        r = np.sqrt(np.abs(z))
        pos = z >= 0.0
        neg = ~pos
        ch = np.cosh(r, where=pos, out=np.empty_like(r))
        np.cos(r, where=neg, out=ch)
        sh = np.sinh(r, where=pos, out=np.empty_like(r))
        np.sin(r, where=neg, out=sh)
        sh /= np.where(small, 1.0, r)
    sh = np.where(small, 1.0 + z / 6.0 + z * z / 120.0, sh)
    return ch + sh * a, sh * b, sh * c, ch - sh * a


def test_planar_step_table_matches_matrix_commutators():
    from diracspec.cauchy import _magnus_coeffs

    rng = np.random.default_rng(11)
    g = Grid(0.0, 2.0, 300)
    pot = PotentialMatrix(5.0 * rng.standard_normal(301), 5.0 * rng.standard_normal(301), g)
    got, ref = _magnus_coeffs(pot, g), _matrix_magnus_coeffs(pot, g)
    for k in range(2):  # P and Q, each against its own largest entry
        assert np.max(np.abs(got[k] - ref[k])) <= 1e-14 * np.max(np.abs(ref[k]))


@pytest.mark.parametrize("zmax", [0.9, 4.0, 400.0])
@pytest.mark.parametrize("cplx", [False, True])
def test_series_exponential_matches_branch_closed_form(zmax, cplx):
    """One call mixes |z| up to zmax, both signs (real) or all phases (complex);
    each exponential is checked against its own largest entry."""
    from diracspec.cauchy import _ZMAX, _expm_tracefree

    rng = np.random.default_rng(5)
    n = 4000
    a, b, c = (rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0.0)
               for _ in range(3))
    # scale step i by a common factor so that |z_i| <= a log-uniform bound in [1e-16, zmax]
    bound = np.exp(rng.uniform(math.log(1e-16), math.log(zmax), n))
    f = np.sqrt(bound / np.max(np.abs(a * a + b * c)))
    a, b, c = a * f, b * f, c * f
    got = np.stack(_expm_tracefree(a, b, c))
    ref = np.stack(_branch_expm(a, b, c))
    assert (np.max(np.abs(a * a + b * c)) > _ZMAX) == (zmax > _ZMAX)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.max(np.abs(ref), axis=0))


@pytest.mark.parametrize("cplx", [False, True])
def test_series_exponential_has_unit_determinant(cplx):
    """det exp(M) = ch^2 - z sh^2 = 1 within a few ulp of its two products, for
    |z| on both sides of _ZMAX; the one squaring that |z| <= 4 needs past _ZMAX
    about doubles the defect (ch and sh as two series read up to 11 ulp there)."""
    from diracspec.cauchy import _ZMAX, _expm_tracefree

    rng = np.random.default_rng(8)
    n = 4000
    a, b, c = (rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0.0)
               for _ in range(3))
    f = np.sqrt(np.exp(rng.uniform(math.log(1e-16), math.log(4.0), n)) / np.abs(a * a + b * c))
    a, b, c = a * f, b * f, c * f
    z = np.abs(a * a + b * c)
    assert np.any(z < _ZMAX) and np.any(z > 2.0 * _ZMAX)
    e00, e01, e10, e11 = _expm_tracefree(a, b, c)
    det = e00 * e11 - e01 * e10
    scale = np.abs(e00 * e11) + np.abs(e01 * e10)
    ulps = np.where(z <= _ZMAX, 4.0, 16.0)
    assert np.all(np.abs(det - 1.0) <= ulps * np.finfo(float).eps * scale)


def _block_exponents(monkeypatch, *args, **kwargs):
    """(a, b, c) of every block propagate passes to the step exponential, in call order."""
    from diracspec import cauchy

    seen = []
    expm = cauchy._expm_tracefree
    with monkeypatch.context() as mp:
        mp.setattr(cauchy, "_expm_tracefree", lambda *abc: seen.append(np.stack(abc)) or expm(*abc))
        propagate(*args, **kwargs)
    return seen


def _bitrev(n):
    """0 .. n-1 in bit-reversed order, n a power of two (oracle)."""
    j = n.bit_length() - 1
    return np.array([int(format(k, f"0{j}b")[::-1], 2) if j else 0 for k in range(n)])


def _sweep_order(sizes):
    """Step indices in the order a sweep over blocks of these power-of-two sizes evaluates them."""
    starts = np.cumsum([0] + sizes[:-1])
    return np.concatenate([lo + _bitrev(n) for lo, n in zip(starts, sizes)])


@pytest.mark.parametrize("cplx", [False, True])
def test_block_exponents_are_the_affine_step_table(monkeypatch, cplx):
    """The BLAS product of the [Q P] table with [lambda; 1] is P + lambda*Q
    within one ulp of the larger term, for real and complex lambda.  At
    K = 17, below the 2n^2 of the polynomial table, the 300 steps go in blocks
    of 256, then 32, 8 and 4, each bit-reversed."""
    from diracspec.cauchy import _step_coeffs

    g, pot = _sin_pot(300)
    lam = np.linspace(-40.0, 55.0, 17) + (0.7j if cplx else 0.0)
    got = np.concatenate(_block_exponents(monkeypatch, pot, g, lam, np.array([0.3, -0.9])), axis=1)
    P, Q = _step_coeffs(pot, g)[..., None]
    order = _sweep_order([256, 32, 8, 4])
    ref = (P + Q * lam)[:, order]
    assert got.dtype == ref.dtype and got.shape == ref.shape == (3, 300, 17)
    assert np.all(np.abs(got - ref) <= np.spacing(np.maximum(np.abs(Q * lam), np.abs(P)))[:, order])


@pytest.mark.parametrize("cplx", [False, True])
def test_backward_exponents_negate_the_forward_ones(monkeypatch, cplx):
    """A backward sweep builds exp(-M) from exactly -M: negating [lambda; 1] is
    exact, and each backward block is the forward one in reverse order.
    K = 17 is below the 2n^2 of the polynomial table."""
    g, pot = _sin_pot(300)
    lam = np.linspace(-4.0, 11.0, 17) + (0.7j if cplx else 0.0)
    y0 = np.array([0.3, -0.9])
    fwd = _block_exponents(monkeypatch, pot, g, lam, y0)
    bwd = _block_exponents(monkeypatch, pot, g, lam, y0, direction=-1)
    assert len(fwd) == len(bwd) > 1
    for f, b in zip(fwd, bwd[::-1]):
        np.testing.assert_array_equal(b, -f[:, ::-1])


def test_non_finite_exponents_flow_through():
    """lambda = 1e200 overflows z = a^2 + bc: that column turns non-finite and
    the other column of the batch is the plain sweep's."""
    g, pot = _sin_pot(1000)
    y0 = np.array([0.3, -0.9])
    with np.errstate(over="ignore", invalid="ignore"):
        both = propagate(pot, g, np.array([1e200, 1.0]), y0)
        alone = propagate(pot, g, np.array([1e200]), y0)
    one = propagate(pot, g, np.array([1.0]), y0)
    assert not np.all(np.isfinite(both[:, 0])) and not np.all(np.isfinite(alone))
    np.testing.assert_array_equal(both[:, 1], one[:, 0])


def _sin_pot(m):
    g = Grid(0.0, math.pi, m)
    return g, PotentialMatrix(lambda x: 0.3 * np.cos(x), lambda x: 2.0 * np.sin(3.0 * x), g)


def _exp_degrees(pot):
    """The degrees n of the polynomial step-exponential tables kept for a potential."""
    return {n for _, n in pot.__dict__.get("_exp_tables", {})}


def _block_sizes(m, K):
    """Power-of-two block sizes of a sweep of K lambdas over m steps (oracle of the rule)."""
    B = min(1 << round(math.log2(max(8, 16384 // K))), 1 << (m.bit_length() - 1))
    return [B] * (m // B) + [1 << i for i in range(B.bit_length() - 1, -1, -1) if m % B >> i & 1]


def _sweep_exponentials(monkeypatch, pot, g, lam, direction):
    """Every step exponential a sweep multiplies, (2, 2, m, K) in sweep order."""
    from diracspec import cauchy

    seen = []
    states = cauchy._block_states
    with monkeypatch.context() as mp:
        mp.setattr(cauchy, "_block_states", lambda E, *a: seen.append(E.copy()) or states(E, *a))
        propagate(pot, g, lam, np.array([0.3, -0.9]), direction=direction)
    return np.concatenate(seen, axis=2)


@pytest.mark.parametrize("m", [300, 1025, 1537])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("cplx", [False, True])
def test_table_exponentials_match_the_series_route(monkeypatch, m, direction, cplx):
    """Batches of K >= 2n^2 take each block's exponentials from the polynomial
    table as one BLAS product, backward ones as the adjugate; they agree with
    _expm_tracefree of the same exponents within 4 ulp of each matrix's
    largest entry, and smaller batches keep _expm_tracefree."""
    from diracspec.cauchy import _expm_tracefree, _step_coeffs

    g, pot = _sin_pot(m)
    P, Q = _step_coeffs(pot, g)[..., None]
    eps = np.finfo(float).eps
    for K in (17, 257):
        lam = np.linspace(-40.0, 55.0, K) + (0.7j if cplx else 0.0)
        got = _sweep_exponentials(monkeypatch, pot, g, lam, direction)
        degrees = _exp_degrees(pot)
        assert bool(degrees) == (K == 257) and all(K >= 2 * n * n > 17 for n in degrees), (K, degrees)
        order = _sweep_order(_block_sizes(m, K))[::direction]
        ref = np.stack(_expm_tracefree(*(direction * (P + Q * lam))[:, order])).reshape(2, 2, m, K)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        scale = np.max(np.abs(ref), axis=(0, 1))
        assert np.all(np.abs(got - ref) <= 4.0 * eps * scale), K
        if K == 257:
            det = got[0, 0] * got[1, 1] - got[0, 1] * got[1, 0]
            size = np.abs(got[0, 0] * got[1, 1]) + np.abs(got[0, 1] * got[1, 0])
            assert np.all(np.abs(det - 1.0) <= 4.0 * eps * size)


def test_zero_potential_table_is_an_exact_rotation():
    """With p = q = 0 every tabled step is ((C, -S), (S, C)) coefficient for
    coefficient, C and S the cut series of cos and sin of lambda h, so the
    sweep is the rotation by lambda (b - a) up to rounding."""
    from diracspec.cauchy import _exp_table

    g = Grid(0.0, math.pi, 1024)
    pot = PotentialMatrix(None, None, g)
    lam = np.linspace(-150.0, 150.0, 257)
    y0 = np.array([0.3, -0.9])
    end = propagate(pot, g, lam, y0)
    (n,) = _exp_degrees(pot)
    T = _exp_table(pot, g, n)
    np.testing.assert_array_equal(T[0], T[3])
    np.testing.assert_array_equal(T[1], -T[2])
    V = lam ** np.arange(2 * n - 1, -1, -1)[:, None]
    np.testing.assert_allclose(T[0, :1] @ V, [np.cos(lam * g.h)], rtol=0, atol=4e-16)
    np.testing.assert_allclose(T[2, :1] @ V, [np.sin(lam * g.h)], rtol=0, atol=4e-16)
    c, s = np.cos(lam * math.pi), np.sin(lam * math.pi)
    np.testing.assert_allclose(end, [c * y0[0] - s * y0[1], s * y0[0] + c * y0[1]], rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
def test_non_finite_lambda_in_a_table_batch(bad):
    """A non-finite lambda, or one whose z overflows, sends its batch to
    _expm_tracefree: its column turns non-finite, and every other column is
    its own sweep to rounding."""
    g, pot = _sin_pot(1025)
    y0 = np.array([0.3, -0.9])
    lam = np.linspace(-40.0, 55.0, 257)
    own = propagate(pot, g, lam, y0)
    assert _exp_degrees(pot)
    lam[100] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        got = propagate(pot, g, lam, y0)
    assert not np.any(np.isfinite(got[:, 100]))
    rest = np.arange(257) != 100
    assert np.max(np.abs(got[:, rest] - own[:, rest])) <= 1e-13 * np.max(np.abs(own))


def test_table_sweep_bits_do_not_depend_on_earlier_sweeps():
    """The table's degree comes from the call's own lambdas and its rows only
    from the potential, so the same call gives the same bits on a fresh
    potential and on one that earlier sweeps filled with tables of other degrees."""
    y0 = np.array([0.3, -0.9])
    lam = np.linspace(-20.0, 25.0, 129)
    g, fresh = _sin_pot(1537)
    _, used = _sin_pot(1537)
    for K, top in ((1, 3.0), (7, 9.0), (257, 3.0), (257, 90.0), (64, 40.0)):
        propagate(used, g, np.linspace(-top, top, K), y0)
        propagate(used, g, np.linspace(-top, top, K) + 0.5j, y0, direction=-1, store=True)
    assert len(_exp_degrees(used)) > 1
    for kw in ({}, {"direction": -1}, {"store": True}, {"renorm": True}):
        np.testing.assert_array_equal(propagate(used, g, lam, y0, **kw), propagate(fresh, g, lam, y0, **kw))
    for a, b in zip(propagate(used, g, lam, y0, angle=True), propagate(fresh, g, lam, y0, angle=True)):
        np.testing.assert_array_equal(a, b)


def test_small_batches_build_no_exponential_table(monkeypatch):
    """K < 8 never takes the table route, so a fresh potential gets none."""
    from diracspec import cauchy

    monkeypatch.setattr(cauchy, "_exp_table", lambda *a: pytest.fail("table built"))
    g, pot = _sin_pot(1025)
    y0 = np.array([0.3, -0.9])
    for K in (1, 7):
        lam = np.linspace(-5.0, 5.0, K)
        propagate(pot, g, lam, y0)
        propagate(pot, g, lam, y0, direction=-1, store=True)
        propagate(pot, g, lam, y0, direction=-1, renorm=True, angle=True)
    assert not _exp_degrees(pot)


def test_table_route_starts_at_two_n_squared(monkeypatch):
    """A batch takes the polynomial table of degree n from K = 2n^2 lambdas on,
    n set by the batch's largest |lambda|: one lambda fewer keeps the series
    route and builds no table."""
    g, pot = _sin_pot(1025)
    y0 = np.array([0.3, -0.9])
    propagate(pot, g, np.linspace(-30.0, 30.0, 257), y0)
    (n,) = _exp_degrees(pot)
    g, pot = _sin_pot(1025)
    propagate(pot, g, np.linspace(-30.0, 30.0, 2 * n * n - 1), y0)
    assert not _exp_degrees(pot)
    propagate(pot, g, np.linspace(-30.0, 30.0, 2 * n * n), y0)
    assert _exp_degrees(pot) == {n}


@pytest.mark.parametrize("direction", [1, -1])
def test_table_sweep_bits_do_not_depend_on_the_lambda_dtype(direction):
    """The powers of lambda are taken in the sweep's float dtype: integer and
    float32 lambdas give the bits of the same values as float64, where powers
    of an int64 lambda up to 60^15 would wrap."""
    g = Grid(0.0, math.pi, 1024)
    pot = PotentialMatrix(lambda x: 0.3 * np.cos(x), lambda x: 0.5 * np.sin(x), g)
    lam = np.arange(-60, 61)
    y0 = np.array([0.3, -0.9])
    ref = propagate(pot, g, lam.astype(float), y0, direction=direction)
    (n,) = _exp_degrees(pot)
    assert len(lam) >= 2 * n * n and 60.0 ** (2 * n - 1) > np.iinfo(np.int64).max
    for dt in (np.int64, np.int32, np.float32):
        np.testing.assert_array_equal(propagate(pot, g, lam.astype(dt), y0, direction=direction), ref)


@pytest.mark.parametrize("s", [0.5, 3.0, 6.0])
@pytest.mark.parametrize("c", [0.0, 1.0])
def test_eigenvalues_converge_at_fourth_order(s, c):
    """Observed order log2(|l_m - l_2m| / |l_2m - l_4m|) of every eigenvalue
    with |n| <= 64 on m = 512, 1024, 2048, for p = s cos(2x)/2, q = s sin x + c s.
    The root batches (K = 129) take the polynomial table on every grid."""
    from diracspec.eigen import find_eigenvalues

    ladder = []
    for m in (512, 1024, 2048):
        g = Grid(0.0, math.pi, m)
        pot = PotentialMatrix(lambda x: 0.5 * s * np.cos(2.0 * x), lambda x: s * np.sin(x) + c * s, g)
        data = find_eigenvalues(pot, 0.0, 0.0, -64, 64, tol=1e-13)
        assert _exp_degrees(pot), m
        ladder.append(np.array([data.items[n].lam for n in range(-64, 65)]))
    order = np.log2(np.abs(ladder[0] - ladder[1]) / np.abs(ladder[1] - ladder[2]))
    assert np.all(np.abs(order - 4.0) < 0.1), order


@pytest.mark.parametrize("K", [1, 2, 7, 257])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("cplx", [False, True])
def test_endpoint_matches_stored_sweep(K, direction, cplx):
    """Endpoint and stored sweeps agree, also on grids that end in blocks of
    every power of two below the batch's block length."""
    for m in (300, 1000, 1025, 1537):
        g, pot = _sin_pot(m)
        lam = np.linspace(-6.0, 9.0, K) + (0.7j if cplx else 0.0)
        y0 = np.array([0.3, -0.9])
        end = propagate(pot, g, lam, y0, direction=direction)
        Y = propagate(pot, g, lam, y0, direction=direction, store=True)
        last = Y[:, :, -1] if direction > 0 else Y[:, :, 0]
        assert np.max(np.abs(end - last)) <= 1e-13 * np.max(np.abs(last)), m


@pytest.mark.parametrize("K", [0, 1, 7, 17, 257])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("cplx", [False, True])
def test_weighted_sweep_matches_stored_sweep(K, direction, cplx):
    """weights= sums w_j |y_j|^2 over the states a stored sweep writes: its end
    state is the history's last node bit for bit and its sums are the grid
    integral of the history's |y|^2 to rounding, on grids that end in blocks
    of binary digits, by the series route (K < 257) and the table route."""
    for m in (300, 1025, 1537):
        g, pot = _sin_pot(m)
        lam = np.linspace(-6.0, 9.0, K) + (0.7j if cplx else 0.0)
        y0 = np.array([0.3, -0.9])
        Y = propagate(pot, g, lam, y0, direction=direction, store=True)
        end, sums = propagate(pot, g, lam, y0, direction=direction, weights=g.weights())
        assert bool(_exp_degrees(pot)) == (K == 257), m
        assert np.array_equal(end, Y[:, :, -1] if direction > 0 else Y[:, :, 0]), m
        ref = g.integrate(np.abs(Y[0]) ** 2 + np.abs(Y[1]) ** 2)
        assert sums.shape == (K,) and np.all(np.abs(sums - ref) <= 4e-15 * ref), m


def test_weights_replace_the_stored_history():
    """A weighted sweep keeps no history, renormalises nothing and lifts no
    angle; its weights are one per node."""
    from diracspec.core import DiracError, GridMismatchError

    g, pot = _sin_pot(64)
    lam, y0, w = np.array([1.0]), np.array([0.0, -1.0]), g.weights()
    for kw in ({"store": True}, {"renorm": True}, {"angle": True}):
        with pytest.raises(DiracError):
            propagate(pot, g, lam, y0, weights=w, **kw)
    with pytest.raises(GridMismatchError):
        propagate(pot, g, lam, y0, weights=w[1:])


# a table-route batch: endpoint sweep, stored sweep and norming constants, one digest each
_THREAD_PROBE = """
import hashlib, math
import numpy as np
from diracspec.core import BoundaryAngles, Grid, PotentialMatrix
from diracspec.cauchy import propagate
from diracspec.eigen import SpectralData, SpectralDatum, norming_constants

g = Grid(0.0, math.pi, 1024)
pot = PotentialMatrix(lambda x: 0.3 * np.cos(x), lambda x: 2.0 * np.sin(3.0 * x), g)
lam = np.linspace(-128.3, 128.1, 257)
data = SpectralData(BoundaryAngles.make(0.0, 0.0), {n: SpectralDatum(n, x) for n, x in enumerate(lam)})
outs = [
    propagate(pot, g, lam, [0.0, -1.0]),
    propagate(pot, g, lam, [0.0, -1.0], direction=-1, store=True),
    np.array([d.a for d in norming_constants(pot, 0.0, data).items.values()]),
]
assert pot.__dict__["_exp_tables"], "the batch should take the polynomial step table"
print(*(hashlib.sha256(o.tobytes()).hexdigest() for o in outs))
"""


def test_sweep_bits_do_not_depend_on_the_blas_thread_count():
    """The table route's BLAS products stay on the calling thread, so one and
    two OpenBLAS threads give the same bytes."""
    import os
    import subprocess
    import sys

    import diracspec

    src = os.path.dirname(os.path.dirname(os.path.abspath(diracspec.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("direction", [1, -1])
def test_stored_sweep_matches_stepwise_reference(direction):
    """Node history against a plain loop over the same step exponentials.

    Blocks hold a power of two steps: at K = 257 64 of them, so m = 65 ends
    in a block of 1 step and m = 300 in blocks of 32, 8 and 4; at K = 1 or 2
    m = 1025 goes in blocks of 1024 and 1, m = 1537 in 1024, 512 and 1, and
    m = 3 and 17 in two short blocks each."""
    from diracspec.cauchy import _expm_tracefree, _step_coeffs

    for m in (1, 2, 3, 17, 64, 65, 300, 1000, 1025, 1537):
        g, pot = _sin_pot(m)
        P, Q = _step_coeffs(pot, g)
        for K, cplx in itertools.product((1, 2, 3, 7, 257), (False, True)):
            lam = np.linspace(-4.0, 11.0, K) + (0.7j if cplx else 0.0)
            y = np.array([[0.3] * K, [-0.9] * K], dtype=lam.dtype)
            Y = propagate(pot, g, lam, y[:, 0], direction=direction, store=True)
            ref = np.empty_like(Y)
            steps = range(g.m) if direction > 0 else range(g.m - 1, -1, -1)
            ref[:, :, 0 if direction > 0 else g.m] = y
            for i in steps:
                a, b, c = direction * (P[:, i, None] + Q[:, i, None] * lam)
                e00, e01, e10, e11 = _expm_tracefree(a, b, c)
                y = np.array([e00 * y[0] + e01 * y[1], e10 * y[0] + e11 * y[1]])
                ref[:, :, i + 1 if direction > 0 else i] = y
            assert np.max(np.abs(Y - ref)) <= 1e-12 * np.max(np.abs(ref)), (m, K, cplx)


def _planar_mul(x, y):
    """2x2 products of planar stacks (00, 01, 10, 11), entry by entry (oracle)."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


@pytest.mark.parametrize("cplx", [False, True])
def test_stacked_products_match_planar_bit_for_bit(cplx):
    """The flat (2, 2, n) product and its (2, 1, n) state application make the
    same scalar operations in the same order as the planar formulas."""
    from diracspec.cauchy import _mul

    rng = np.random.default_rng(3)
    draw = lambda *shape: rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if cplx else 0.0)
    x, y, v = draw(2, 2, 45), draw(2, 2, 45), draw(2, 1, 45)
    planar = _planar_mul(x.reshape(4, 45), y.reshape(4, 45))
    np.testing.assert_array_equal(_mul(x, y), np.reshape(planar, (2, 2, 45)))
    applied = _mul(x, v)
    np.testing.assert_array_equal(applied[0, 0], x[0, 0] * v[0, 0] + x[0, 1] * v[1, 0])
    np.testing.assert_array_equal(applied[1, 0], x[1, 0] * v[0, 0] + x[1, 1] * v[1, 0])


def test_sweep_products_take_contiguous_operands(monkeypatch):
    """Every pairwise product and state application of a sweep, in every mode
    and direction, multiplies flat stacks whose entry planes are contiguous."""
    from diracspec import cauchy

    seen = []
    mul = cauchy._mul

    def record(x, y, out=None):
        seen.append(all(v.ndim == 3 and v[i, j].flags.c_contiguous
                        for v in (x, y) for i in range(2) for j in range(v.shape[1])))
        return mul(x, y, out=out)

    monkeypatch.setattr(cauchy, "_mul", record)
    g, pot = _sin_pot(1537)
    y0 = np.array([0.3, -0.9])
    for K, cplx, direction in itertools.product((1, 7, 257), (False, True), (1, -1)):
        lam = np.linspace(-6.0, 9.0, K) + (0.7j if cplx else 0.0)
        propagate(pot, g, lam, y0, direction=direction)
        propagate(pot, g, lam, y0, direction=direction, store=True)
        propagate(pot, g, lam, y0, direction=direction, renorm=True)
        if not cplx:
            propagate(pot, g, lam, y0, direction=direction, angle=True)
    stiff = Grid(0.0, 30.0, 2048)  # rescales fire
    propagate(PotentialMatrix(None, lambda x: x, stiff), stiff, np.array([0.5, 1.5]),
              np.array([0.0, 1.0]), direction=-1, renorm=True, angle=True)
    assert len(seen) > 1000 and all(seen)


@pytest.mark.parametrize("big", [1e3, 1e6, 1e20])
def test_large_lambda_leaves_other_columns_alone(big):
    """Each exponent is scaled and squared on its own: a column of large
    |lambda| h in the batch does not move the lambda = 1 column."""
    g, pot = _sin_pot(1000)
    y0 = np.array([0.3, -0.9])
    one = propagate(pot, g, np.array([1.0]), y0)[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        both = propagate(pot, g, np.array([big, 1.0]), y0)
    assert np.max(np.abs(both[:, 1] - one)) <= 1e-14  # |one| is about 8.5


def test_renorm_keeps_ratio():
    g, pot = _sin_pot(1024)
    lam = np.array([-3.0, 0.4, 2.5, 7.0 + 0.5j])
    v = np.array([1.0, 0.2])
    for direction in (1, -1):
        plain = propagate(pot, g, lam, v, direction=direction)
        ren = propagate(pot, g, lam, v, direction=direction, renorm=True)
        np.testing.assert_allclose(ren[0] / ren[1], plain[0] / plain[1], rtol=1e-12)


def test_renorm_backward_sweep_stays_finite():
    # q = x on [0, 30]: the backward solution grows like exp(450) unscaled
    g = Grid(0.0, 30.0, 2048)
    pot = PotentialMatrix(None, lambda x: x, g)
    u = propagate(pot, g, np.array([0.5]), np.array([0.0, 1.0]), direction=-1, renorm=True)
    assert np.all(np.isfinite(u))
    assert 0.0 < np.max(np.abs(u)) <= 1e100


def test_renorm_skips_rescales_while_the_growth_bound_holds(monkeypatch):
    """Where the bound on a block's growth stays below 1e100/e no rescale is
    tried, and the renormalised sweep is the plain one bit for bit.  Past it,
    each tree level rescales only once its own bound allows overflow, bit for
    bit as rescaling every level does."""
    from diracspec import cauchy

    calls = []
    rescale = cauchy._rescale
    monkeypatch.setattr(cauchy, "_rescale", lambda x: calls.append(1) or rescale(x))
    g, pot = _sin_pot(1537)
    y0 = np.array([0.3, -0.9])
    for K, cplx, direction in itertools.product((1, 7, 257), (False, True), (1, -1)):
        lam = np.linspace(-6.0, 9.0, K) + (0.7j if cplx else 0.0)
        np.testing.assert_array_equal(propagate(pot, g, lam, y0, direction=direction, renorm=True),
                                      propagate(pot, g, lam, y0, direction=direction))
    half = Grid(0.0, 12.0, 1024)
    model = PotentialMatrix(None, lambda x: x, half)
    for lam in (np.array([0.5j]), np.array([5.0j]), np.linspace(-3.0, 3.0, 17)):
        y0 = _decaying(model, half, lam)
        np.testing.assert_array_equal(propagate(model, half, lam, y0, direction=-1, renorm=True),
                                      propagate(model, half, lam, y0, direction=-1))
        if not np.iscomplexobj(lam):
            ren = propagate(model, half, lam, y0, direction=-1, renorm=True, angle=True)
            plain = propagate(model, half, lam, y0, direction=-1, angle=True)
            for a, b in zip(ren, plain):
                np.testing.assert_array_equal(a, b)
    assert not calls
    stiff = Grid(0.0, 30.0, 2048)
    q_x = PotentialMatrix(None, lambda x: x, stiff)
    for lam in (np.array([0.5]), np.array([12.0j]), np.linspace(-3.0, 3.0, 7)):
        y0 = _decaying(q_x, stiff, lam)
        gated = propagate(q_x, stiff, lam, y0, direction=-1, renorm=True)
        gated_calls = len(calls)
        with monkeypatch.context() as mp:
            mp.setattr(cauchy, "_LOG_SAFE", -np.inf)
            every = propagate(q_x, stiff, lam, y0, direction=-1, renorm=True)
        np.testing.assert_array_equal(gated, every)
        assert 0 < gated_calls < len(calls) - gated_calls
        calls.clear()


def test_renorm_working_set_is_bounded():
    import tracemalloc

    g = Grid(0.0, 14.0, 1024)
    pot = PotentialMatrix(None, lambda x: x, g)
    lam = np.linspace(-3.0, 3.0, 241)
    propagate(pot, g, lam[:1], np.array([0.0, 1.0]), direction=-1, renorm=True)
    tracemalloc.start()
    try:
        propagate(pot, g, lam, np.array([0.0, 1.0]), direction=-1, renorm=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_empty_batch_in_every_mode():
    """K = 0 sweeps return empty arrays of the usual shapes in every mode."""
    g = Grid(0.0, 12.0, 300)
    pot = PotentialMatrix(None, lambda x: x, g)
    lam, y0 = np.array([]), np.array([0.0, 1.0])
    assert propagate(pot, g, lam, y0).shape == (2, 0)
    assert propagate(pot, g, lam, y0, direction=-1, store=True).shape == (2, 0, 301)
    assert propagate(pot, g, lam, y0, direction=-1, renorm=True).shape == (2, 0)
    end, theta = propagate(pot, g, lam, y0, direction=-1, renorm=True, angle=True)
    assert end.shape == (2, 0) and theta.shape == (0,)


def test_removed_options_rejected():
    """One integrator and no selector; the mode switches are keyword-only."""
    import diracspec
    from diracspec.core import DiracError

    g, pot = _sin_pot(64)
    assert not hasattr(diracspec, "SolverConfig")
    with pytest.raises(TypeError):
        propagate(pot, g, np.array([1.0]), np.array([0.0, -1.0]), method="rk4")
    with pytest.raises(TypeError):
        propagate(pot, g, np.array([1.0]), np.array([0.0, -1.0]), -1)
    with pytest.raises(DiracError):
        propagate(pot, g, np.array([1.0]), np.array([0.0, -1.0]), store=True, renorm=True)


@pytest.mark.parametrize("m", [256, 300, 1000, 1024, 1025, 1537, 4096])
def test_lifted_angle_matches_unwrapped_stored_sweep(m):
    """Theta of y = r(sin Theta, -cos Theta) at the far end against np.unwrap of
    every node; grids ending in short blocks are swept at several batch sizes."""
    g = Grid(0.0, math.pi, m)
    for K, s in itertools.product((33,) + ((1, 2, 7, 257) if m in (300, 1000, 1025, 1537) else ()),
                                  (0.0, 3.0, 6.0)):
        lam = np.linspace(-m / 8, m / 8, K)
        pot = PotentialMatrix(lambda x: 0.5 * s * np.cos(2 * x), lambda x: s * np.sin(x) + s, g)
        for alpha in (-1.2, 0.3, 1.5):
            for direction in (1, -1):
                y0 = initial_state(alpha)
                end, theta = propagate(pot, g, lam, y0, direction=direction, angle=True)
                Y = propagate(pot, g, lam, y0, direction=direction, store=True)
                nodes = np.arctan2(Y[0], -Y[1])[:, :: direction]
                np.testing.assert_allclose(theta, np.unwrap(nodes, axis=1)[:, -1], rtol=0, atol=1e-10)
                plain = propagate(pot, g, lam, y0, direction=direction)
                assert np.max(np.abs(end - plain)) <= 1e-13 * np.max(np.abs(plain))


def test_angle_lift_only_on_real_endpoint_sweeps():
    from diracspec.core import DiracError

    g, pot = _sin_pot(64)
    y0 = np.array([0.0, -1.0])
    with pytest.raises(DiracError):
        propagate(pot, g, np.array([1.0]), y0, angle=True, store=True)
    with pytest.raises(DiracError):
        propagate(pot, g, np.array([1.0 + 1j]), y0, angle=True)


def _decaying(pot, g, lam):
    from diracspec.halfaxis import _decaying_start

    return _decaying_start(pot, lam, g)


@pytest.mark.parametrize("m", [1024, 4096])
@pytest.mark.parametrize("x_max", [12.0, 14.0])
@pytest.mark.parametrize("perturbed", [False, True])
def test_renorm_angle_matches_unwrapped_stored_sweep(m, x_max, perturbed):
    """Backward half-axis sweeps from the decaying start: the rescaled angle sweep
    lifts Theta as the unwrapped stored sweep does and keeps the plain renorm state."""
    g = Grid(0.0, x_max, m)
    if perturbed:
        pot = PotentialMatrix(lambda x: 0.3 * np.cos(x), lambda x: x + np.sin(2 * x), g)
    else:
        pot = PotentialMatrix(None, lambda x: x, g)
    lam = np.linspace(-4.0, 4.0, 17)
    y0 = _decaying(pot, g, lam)
    end, theta = propagate(pot, g, lam, y0, direction=-1, renorm=True, angle=True)
    Y = propagate(pot, g, lam, y0, direction=-1, store=True)
    nodes = np.arctan2(Y[0], -Y[1])[:, ::-1]
    np.testing.assert_allclose(theta, np.unwrap(nodes, axis=1)[:, -1], rtol=0, atol=1e-10)
    plain = propagate(pot, g, lam, y0, direction=-1, renorm=True)
    # the same state up to a positive scale; a ratio y1/y2 would be ill
    # conditioned at the eigenvalues, where y1(0) vanishes
    unit = lambda y: y / np.hypot(y[0], y[1])
    np.testing.assert_allclose(unit(end), unit(plain), rtol=0, atol=1e-12)


def test_renorm_angle_stays_finite():
    # q = x on [0, 40]: the unscaled backward solution grows like exp(800);
    # one lambda sweeps the grid in one block, so its segment scan must rescale
    g = Grid(0.0, 40.0, 4096)
    pot = PotentialMatrix(None, lambda x: x, g)
    for lam in (np.linspace(-4.0, 4.0, 9), np.array([0.5])):
        end, theta = propagate(pot, g, lam, _decaying(pot, g, lam), direction=-1,
                               renorm=True, angle=True)
        assert np.all(np.isfinite(end)) and np.all(np.isfinite(theta))
        assert np.all(np.max(np.abs(end), axis=0) > 0.0)


def test_lifted_renorm_sweep_builds_each_block_once(monkeypatch):
    """The angle lift runs inside the plain block partition: a lifted backward
    half-axis sweep evaluates as many step-exponential blocks as a plain one."""
    from diracspec import cauchy

    g = Grid(0.0, 12.0, 1024)
    pot = PotentialMatrix(None, lambda x: x, g)
    lam = np.array([0.5])
    y0 = _decaying(pot, g, lam)
    calls = []
    expm = cauchy._expm_tracefree
    monkeypatch.setattr(cauchy, "_expm_tracefree", lambda *abc: calls.append(1) or expm(*abc))
    propagate(pot, g, lam, y0, direction=-1, renorm=True)
    plain = len(calls)
    propagate(pot, g, lam, y0, direction=-1, renorm=True, angle=True)
    assert plain == len(calls) - plain == 1


def test_turn_data_kept_with_the_step_table():
    """A lifted sweep reads its turn bounds from the potential's per-grid tables."""
    from diracspec.cauchy import _turn_data

    g, pot = _sin_pot(64)
    propagate(pot, g, np.array([1.0]), np.array([0.0, -1.0]), angle=True)
    data = _turn_data(pot, g)
    propagate(pot, g, np.array([2.0]), np.array([0.0, -1.0]), angle=True)
    assert _turn_data(pot, g) is data
    assert _turn_data(pot, Grid(0.0, math.pi, 128)) is not data


def _lift_rounds_scan(d):
    """Largest r with every window of 2^r steps bounded by pi/2 in all, by cumulative
    sums of the step bounds d (reference); windows longer than the grid are the grid."""
    from diracspec.core import DiracError

    top = np.max(d)
    if top > 0.5 * np.pi:
        raise DiracError("one step turns rays by more than pi/2")
    cum = np.concatenate([[0.0], np.cumsum(d)])
    with np.errstate(divide="ignore", over="ignore"):
        r = int(min(np.log2(0.5 * np.pi / top), d.size.bit_length()))
    while 2**r < d.size:
        w = min(2 ** (r + 1), d.size)
        if np.max(cum[w:] - cum[:-w]) > 0.5 * np.pi:
            break
        r += 1
    return r


@pytest.mark.parametrize("m", [64, 300, 1024, 1537])
def test_lift_rounds_match_window_scan(m):
    """The cached round limits give the rounds a scan of every window finds,
    up to the first round whose window is the whole grid (later ones change
    nothing), and refuse the same |lambda| at which one step turns past pi/2."""
    from diracspec.cauchy import _lift_rounds, _turn_data
    from diracspec.core import DiracError

    g = Grid(0.0, math.pi, m)
    pots = [_sin_pot(m)[1], PotentialMatrix(None, lambda x: 4.0 * x, g)]
    pots += [PotentialMatrix(lambda x, s=s: 0.5 * s * np.cos(2 * x), lambda x, s=s: s * np.sin(x) + s, g)
             for s in (0.0, 6.0)]
    whole = (m - 1).bit_length()
    for pot in pots:
        _, d_p, d_q, lam_max = _turn_data(pot, g)
        for lam in np.concatenate([[0.0], np.geomspace(1e-3, 4.0 * m, 400)]):
            try:
                want = min(_lift_rounds_scan(d_p + lam * d_q), whole)
            except DiracError:
                with pytest.raises(DiracError):
                    _lift_rounds(lam_max, lam)
                continue
            assert _lift_rounds(lam_max, lam) == want, (lam, pot)


def test_step_tables_die_with_the_potential():
    import gc
    import weakref

    g, pot = _sin_pot(300)
    y0 = np.array([0.0, -1.0])
    for K in (1, 7, 257):
        lam = np.linspace(-5.0, 5.0, K)
        propagate(pot, g, lam, y0)
        propagate(pot, g, lam, y0, direction=-1, store=True)
        propagate(pot, g, lam, y0, direction=-1, renorm=True, angle=True)
    # the step table, one bit-reversed sweep table per block length, the turn data, and the
    # polynomial table of the K = 257 sweeps
    assert {g, (g, 256), (g, 64)} <= set(pot.__dict__["_step_tables"]) and pot.__dict__["_turn_tables"]
    assert _exp_degrees(pot)
    ref = weakref.ref(pot)
    del pot
    gc.collect()
    assert ref() is None

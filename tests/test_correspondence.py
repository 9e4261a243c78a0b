"""Tensor -> Killing field -> metric -> tensor correspondence.

The oracle strategy: chart jets are checked against finite differences of the
ambient formulas, volume ratios against closed forms for the model tensors,
and the reconstruction against the generating tensor itself.
"""

from functools import lru_cache

import numpy as np
import pytest
from numpy.testing import assert_allclose

from equator_forge.correspondence import (
    CurvatureMetric,
    _chart_quadratic,
    _ldl_pivots,
    curv_from_killing,
    killing_constancy_residual,
    killing_from_curv,
    killing_from_metric,
    metric_from_curv,
    round_metric,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from equator_forge.sphere_geom import (
    CHART_RADIUS,
    _tangent_bases,
    chart_at,
    great_circle,
    random_unit,
    tangent_frame,
)
from equator_forge.tensor_core import (
    CurvatureTensor,
    DegenerateInputError,
    KillingField,
    PositivityError,
    SkewMatrix,
    constant_curvature,
    curv_dim,
    fubini_study,
    killing_matrices,
    random_positive,
    sym_product,
    symmetry_residuals,
    tensor_from_basis,
)
from equator_forge.verification import BumpMetric


@pytest.fixture(scope="module")
def random_tensor():
    R, _, _ = random_positive(3, seed=5)
    return R


def test_round_metric_volume_ratio_is_one():
    g = round_metric(3)
    rng = np.random.default_rng(0)
    P = np.array([random_unit(rng, 4) for _ in range(10)])
    assert_allclose(g.D_values(P), np.ones(10), atol=1e-13)
    assert_allclose(g.F_values(P), np.ones(10), atol=1e-13)
    p = P[0]
    assert_allclose(g.ambient_matrix(p), np.eye(4) - np.outer(p, p), atol=1e-13)


@pytest.mark.parametrize("m", [2, 3])
def test_fubini_study_volume_ratio(m):
    g = CurvatureMetric(fubini_study(m))
    rng = np.random.default_rng(1)
    P = np.array([random_unit(rng, 2 * m + 2) for _ in range(10)])
    assert_allclose(g.D_values(P), np.full(10, 4.0 ** (1.0 / m)), rtol=1e-10)
    # F is the reciprocal of D for members of the family
    assert_allclose(g.F_values(P) * g.D_values(P), np.ones(10), rtol=1e-12)


def test_volume_ratio_is_frame_independent(random_tensor):
    k = killing_from_curv(random_tensor)
    rng = np.random.default_rng(2)
    p = random_unit(rng, 4)
    base = CurvatureMetric(random_tensor).D_values(p)[0]
    # recompute the determinant in randomly rotated tangent frames
    E = tangent_frame(p)
    for _ in range(10):
        A = rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(A)
        frame = Q @ E
        M = frame @ k.ambient_matrix(p) @ frame.T
        assert_allclose(np.linalg.det(M), base ** ((random_tensor.n - 1) / 2.0), rtol=1e-12)


def _circle_loop_residual(k, circles, samples, seed):
    """One great circle at a time: the reference for the batched residual."""
    rng = np.random.default_rng(seed)
    t = 2.0 * np.pi * np.arange(samples) / samples
    worst = 0.0
    for _ in range(circles):
        p = random_unit(rng, k.n + 1)
        u = rng.standard_normal(k.n + 1)
        u -= (u @ p) * p
        u /= np.linalg.norm(u)
        vel = -np.sin(t)[:, None] * p + np.cos(t)[:, None] * u
        vals = np.einsum("nij,ni,nj->n", k.ambient_matrices(great_circle(p, u, t)), vel, vel)
        worst = max(worst, float(vals.max() - vals.min()))
    return worst


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_constancy_residual_equals_circle_loop(n):
    rng = np.random.default_rng(n)
    R = CurvatureTensor(constant_curvature(n).coeffs + 0.2 * tensor_from_basis(
        n, rng.standard_normal(curv_dim(n))).coeffs)
    bent = KillingField(n, lambda P: P[:, :1, None] * (np.eye(n + 1) - P[:, :, None] * P[:, None, :]))
    fields = [killing_from_curv(R, override=True),
              killing_from_metric(metric_from_curv(R, override=True)), bent]
    for k in fields:
        for circles, samples in [(0, 10), (1, 7), (13, 40)]:
            expected = _circle_loop_residual(k, circles, samples, seed=n + 11)
            assert killing_constancy_residual(k, circles=circles, samples=samples, seed=n + 11) == expected
    assert killing_constancy_residual(bent, circles=5, samples=20) > 0.1


def test_ambient_matrices_are_killing_matrices_over_D(random_tensor):
    g = CurvatureMetric(random_tensor)
    P = np.array([random_unit(np.random.default_rng(i), 4) for i in range(20)])
    expected = killing_matrices(random_tensor, P) / g.D_values(P)[:, None, None]
    assert np.array_equal(g.ambient_matrices(P), expected)


def test_killing_field_is_constant_along_great_circles(random_tensor):
    k = killing_from_curv(random_tensor)
    res = killing_constancy_residual(k, circles=50, samples=80, seed=3)
    assert res < 1e-12
    # spot check one circle explicitly
    rng = np.random.default_rng(4)
    p = random_unit(rng, 4)
    u = rng.standard_normal(4)
    u -= (u @ p) * p
    u /= np.linalg.norm(u)
    ts = np.linspace(0.0, 2.0 * np.pi, 17)
    vals = []
    for t in ts:
        q = great_circle(p, u, t)
        dq = -np.sin(t) * p + np.cos(t) * u
        vals.append(k.value(q, dq, dq))
    assert np.ptp(vals) < 1e-13


def test_killing_gate_rejects_indefinite_tensors(random_tensor):
    neg = CurvatureTensor(-random_tensor.coeffs)
    with pytest.raises(PositivityError):
        killing_from_curv(neg)
    with pytest.raises(PositivityError):
        metric_from_curv(neg)
    # override skips the probe
    k = killing_from_curv(neg, override=True)
    assert k.n == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chart_jet_matches_finite_differences(n):
    # the exponent -2/(n-1) of the closed form changes with n
    g = CurvatureMetric(random_positive(n, seed=5)[0])
    rng = np.random.default_rng(5)
    chart = chart_at(random_unit(rng, n + 1))
    x0 = np.array([0.4, -0.1, 0.2, -0.2, 0.1])[:n]
    jet = g.chart_jet(chart, x0)
    dg, d2g = jet.grad, jet.hess
    h = 1e-5
    for a in range(n):
        da = np.zeros(n)
        da[a] = h
        plus, minus = g.chart_jet(chart, x0 + da), g.chart_jet(chart, x0 - da)
        assert_allclose(dg[a], (plus.value - minus.value) / (2 * h), atol=1e-8)
        # the Hessian from central differences of the gradient just checked
        # against the values: first differences keep the rounding noise at
        # eps |dg| / h, where second differences of g carry eps |g| / h^2
        assert_allclose(d2g[a], (plus.grad - minus.grad) / (2 * h), atol=5e-5)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chart_jet_agrees_with_ambient_pullback(n):
    g = CurvatureMetric(random_positive(n, seed=5)[0])
    rng = np.random.default_rng(6)
    chart = chart_at(random_unit(rng, n + 1))
    x0 = np.array([-0.3, 0.5, 0.1, 0.2, -0.1])[:n]
    gmat = g.chart_jet(chart, x0).value
    h = 1e-6
    J = np.zeros((n, n + 1))
    for a in range(n):
        da = np.zeros(n)
        da[a] = h
        J[a] = (chart.point(x0 + da) - chart.point(x0 - da)) / (2 * h)
    direct = J @ g.ambient_matrix(chart.point(x0)) @ J.T
    assert_allclose(direct, gmat, atol=1e-9)


def test_metric_killing_tensor_equality(random_tensor):
    # the membership characterization: k_g computed from g equals k_R from R
    g = metric_from_curv(random_tensor)
    k_R = killing_from_curv(random_tensor)
    k_g = killing_from_metric(g)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        p = random_unit(rng, 4)
        v = rng.standard_normal(4)
        v -= (v @ p) * p
        w = rng.standard_normal(4)
        w -= (w @ p) * p
        worst = max(worst, abs(k_R.value(p, v, w) - k_g.value(p, v, w)))
    assert worst < 1e-10


def test_roundtrip_through_killing(random_tensor):
    k = killing_from_curv(random_tensor)
    R2 = curv_from_killing(k, seed=0)
    assert_allclose(R2.coeffs, random_tensor.coeffs, atol=1e-10)


@pytest.mark.parametrize("n", [2, 4])
def test_roundtrip_other_dimensions(n):
    R, _, _ = random_positive(n, seed=40 + n)
    g = metric_from_curv(R)
    k = killing_from_metric(g)
    R2 = curv_from_killing(k, seed=1, check_constancy=False)
    assert_allclose(R2.coeffs, R.coeffs, atol=1e-9)


def test_fubini_study_roundtrip():
    k = killing_from_curv(fubini_study(2))
    R2 = curv_from_killing(k, seed=0)
    assert_allclose(R2.coeffs, fubini_study(2).coeffs, atol=1e-8)


def test_curv_from_killing_rejects_non_killing_input():
    g = BumpMetric()
    k = killing_from_metric(g)
    assert killing_constancy_residual(k, circles=20, samples=60, seed=0) > 1e-3
    with pytest.raises(DegenerateInputError):
        curv_from_killing(k, seed=0, check_constancy=True)


def test_a_nan_constancy_residual_fails_the_pre_check():
    # NaN only where 0.1 < p_0 < 0.5: the polarization points all have p_0 in {0, 1/sqrt 2, 1}
    k = killing_from_curv(random_positive(3, seed=0)[0])
    bad = KillingField(3, lambda P: np.where(((0.1 < P[:, 0]) & (P[:, 0] < 0.5))[:, None, None],
                                             np.nan, k.ambient_matrices(P)))
    assert np.isnan(killing_constancy_residual(bad, circles=20, samples=60, seed=101))
    with pytest.raises(DegenerateInputError, match="not constant along great circles"):
        curv_from_killing(bad)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_polarization_recovers_fields_not_built_from_a_tensor(n):
    # sym_product fields span the Killing tensors, so each one has an exact generator
    rng = np.random.default_rng(60 + n)
    K, L = (SkewMatrix(A - A.T) for A in rng.standard_normal((2, n + 1, n + 1)))
    field = sym_product(K, L)
    R = curv_from_killing(field)
    P = rng.standard_normal((40, n + 1))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    assert_allclose(killing_matrices(R, P), field.ambient_matrices(P), rtol=0, atol=1e-13)


def test_the_roundtrip_residual_sees_a_field_outside_the_family():
    k = killing_from_metric(BumpMetric())
    R = curv_from_killing(k, check_constancy=False)
    assert isinstance(R, CurvatureTensor) and symmetry_residuals(R.coeffs).max < 1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_roundtrip_through_the_metric_is_exact(n, seed):
    # The polarization multiplies the error of k = g / F at its points by at most 32/9, and that
    # error is rounding: F = (det(g + t pp^T) / t)^(2/(n+1)), t = tr(g) / n, keeps the digits of a
    # small g, as on S^2 at random_positive's step cap (max error 2.1e-14 over 600 n = 2 seeds).
    R, _, _ = random_positive(n, seed)
    R2 = curv_from_killing(killing_from_metric(metric_from_curv(R)), check_constancy=False)
    assert np.max(np.abs(R2.coeffs - R.coeffs)) <= 1e-13


def test_F_values_round_and_fubini_study():
    assert_allclose(round_metric(3).F_values(np.eye(4)[1]), [1.0], atol=1e-12)
    g = CurvatureMetric(fubini_study(2))
    rng = np.random.default_rng(8)
    p = random_unit(rng, 6)
    assert_allclose(g.F_values(p), [0.5], rtol=1e-10)


def test_the_metric_volume_ratio_keeps_the_digits_of_a_small_metric():
    # at random_positive's step cap on S^2 the tangent eigenvalues of g are about 1e-4: a unit p p^T term
    # added to them swamps their digits, one scaled to g's trace does not
    R = random_positive(2, 2930678936)[0]
    g = CurvatureMetric(R)
    P = np.random.default_rng(0).standard_normal((2000, 3))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    assert np.max(np.abs(g.F_values(P) * g.D_values(P) - 1.0)) <= 5e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_killing_tensor_of_a_curvature_metric_is_k_R_to_a_few_ulps(n):
    # F D = 1 in exact arithmetic, so k = g / F of g = k_R / D is k_R; the tensor at random_positive's
    # step cap on S^2 has a small g, whose digits an unscaled normal term in F once lost (1,928 ulps)
    P = np.random.default_rng(n).standard_normal((500, n + 1))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    for seed in (3, 2930678936) if n == 2 else (3,):
        R = random_positive(n, seed)[0]
        K = killing_matrices(R, P)
        k = killing_from_metric(metric_from_curv(R, override=True)).ambient_matrices(P)
        assert np.max(np.abs(k - K)) <= 16 * np.finfo(float).eps * np.max(np.abs(K))


def test_volume_ratios_require_positivity():
    g = CurvatureMetric(constant_curvature(3, -1.0))
    with pytest.raises(PositivityError):
        g.D_values(np.eye(4)[:2])
    with pytest.raises(PositivityError):
        g.F_values(np.eye(4)[:2])


def test_volume_ratios_refuse_an_indefinite_tensor_of_positive_determinant():
    # on S^4 the Killing tensor of curvature -1 is minus the round metric: det(k + pp^T) = 1
    g = CurvatureMetric(constant_curvature(4, -1.0))
    P = np.eye(5)[:2]
    for call in (g.D_values, g.F_values, g.ambient_matrices, killing_from_metric(g).ambient_matrices):
        with pytest.raises(PositivityError, match="not positive definite"):
            call(P)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_ldl_pivots_multiply_to_the_determinant(k):
    rng = np.random.default_rng(k)
    A = rng.standard_normal((200, k, k))
    M = A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(k)
    pivots = _ldl_pivots(np.ascontiguousarray(np.moveaxis(M, 0, -1)), "matrix")
    assert_allclose(np.prod(pivots, axis=-1), np.linalg.det(M), rtol=1e-13)
    # each row of the stack is factored as it would be alone
    for i in (0, 7, 199):
        assert np.array_equal(_ldl_pivots(M[i].copy(), "matrix"), pivots[i])


def test_ldl_pivots_refuse_two_negative_eigenvalues():
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
    M = Q @ np.diag([-1.0, -2.0, 3.0, 4.0]) @ Q.T
    assert np.linalg.det(M) > 0.0
    with pytest.raises(PositivityError, match="matrix is not positive definite"):
        _ldl_pivots(0.5 * (M + M.T), "matrix")


@lru_cache(maxsize=None)
def _member(n):
    return CurvatureMetric(random_positive(n, seed=5)[0])


def _charts_and_points(rng, n, count, near=None):
    """Seeded charts (as bases, and as GnomonicCharts) and chart points inside them."""
    P = rng.standard_normal((count, n + 1))
    if near is not None:
        P = near + 0.3 * P
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    bases = _tangent_bases(P)
    charts = [chart_at(p) for p in P]
    X = 0.4 * rng.standard_normal((count, n))
    return bases, charts, X


def _assert_same_jets(batched, pointwise, rel=1e-13):
    for name in ("value", "grad", "hess"):
        b = getattr(batched, name)
        p = np.array([getattr(jet, name) for jet in pointwise])
        assert b.shape == p.shape, name
        assert np.max(np.abs(b - p)) <= rel * np.max(np.abs(p)), name


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_chart_jets_match_pointwise(n):
    rng = np.random.default_rng(40 + n)
    for g in (_member(n), BumpMetric(n, amplitude=0.3, width=0.2)):
        near = g.center if isinstance(g, BumpMetric) else None
        bases, charts, X = _charts_and_points(rng, n, 12, near)
        for x in (np.zeros((12, n)), X):
            batched = g._chart_jets(bases, x)
            _assert_same_jets(batched, [g.chart_jet(c, xi) for c, xi in zip(charts, x)])
        # a single point broadcasts against the whole stack
        _assert_same_jets(g._chart_jets(bases, X[0]), [g.chart_jet(c, X[0]) for c in charts])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_first_order_jets_match_the_second_order_ones(n):
    # the sweeps' 1-jets (R contracted once with the chart point) against the 2-jets
    rng = np.random.default_rng(60 + n)
    for g in (_member(n), BumpMetric(n, amplitude=0.3, width=0.2), round_metric(n)):
        near = g.center if isinstance(g, BumpMetric) else None
        bases, _, X = _charts_and_points(rng, n, 12, near)
        for x in (np.zeros(n), X):
            one, two = g._chart_jets(bases, x, first_order=True), g._chart_jets(bases, x)
            assert one.hess is None
            scale = np.max(np.abs(two.value))
            for name in ("value", "grad"):
                a, b = getattr(one, name), getattr(two, name)
                assert np.max(np.abs(a - b)) <= 1e-14 * max(np.max(np.abs(b)), scale), name


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 5), count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       radius=st.floats(0.0, 1.5))
def test_random_chart_batches_match_one_at_a_time(n, count, seed, radius):
    rng = np.random.default_rng(seed)
    g = _member(n)
    bases, charts, X = _charts_and_points(rng, n, count)
    X *= radius / 0.4
    _assert_same_jets(g._chart_jets(bases, X), [g.chart_jet(c, x) for c, x in zip(charts, X)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chart_jet_on_a_stack_of_points_is_the_pointwise_jets(n):
    # 200 points of norm 0.8 have a stack norm of 11.3: the radius is checked point by point
    rng = np.random.default_rng(90 + n)
    X = rng.standard_normal((200, n))
    X *= 0.8 / np.linalg.norm(X, axis=1, keepdims=True)
    for g in (_member(n), BumpMetric(n, amplitude=0.3, width=0.2)):
        chart = chart_at(g.center if isinstance(g, BumpMetric) else random_unit(rng, n + 1))
        for first_order in (True, False):
            stack = g.chart_jet(chart, X, first_order)
            pointwise = [g.chart_jet(chart, x, first_order) for x in X]
            for name in ("value", "grad", "hess", "inverse"):
                got = getattr(stack, name)
                want = [getattr(jet, name) for jet in pointwise]
                assert (got is None) == (want[0] is None), name
                if got is not None:
                    assert got.tobytes() == np.array(want).tobytes(), name
        far = X[:3].copy()
        far[1] *= CHART_RADIUS / 0.8
        with pytest.raises(DegenerateInputError, match="outside radius"):
            g.chart_jet(chart, far)


def _four_slot_quadratic(R, bases):
    """Q's coefficients read off all of R(B, B, B, B), one einsum: the reference for the 2-vector route."""
    T = np.einsum("ijkl,...ai,...bj,...ck,...dl->...abcd", R, bases, bases, bases, bases)
    Q1 = T[..., 1:, 1:, 0, 1:] + np.swapaxes(T[..., 0, 1:, 1:, 1:], -3, -2)
    C = np.swapaxes(T[..., 1:, 1:, 1:, 1:], -3, -2)
    return T[..., 0, 1:, 0, 1:], Q1, C + np.swapaxes(C, -4, -3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chart_quadratic_matches_the_four_slot_contraction(n):
    R = random_positive(n, seed=20 + n)[0].coeffs
    bases, _, _ = _charts_and_points(np.random.default_rng(70 + n), n, 20)
    for got, want in zip(_chart_quadratic(R, bases), _four_slot_quadratic(R, bases)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chart_quadratic_reads_only_the_pair_antisymmetric_part(n):
    # load_tensor accepts symmetry residuals up to 1e-9: the 2-vector route drops the part of R
    # that is not antisymmetric in each pair, which moves each value R(u, v, w, z) on the unit
    # rows of a chart by about the residual; Q1 and C + C^T add two such values
    rng = np.random.default_rng(80 + n)
    R = random_positive(n, seed=20 + n)[0].coeffs + 1e-10 * rng.uniform(-1.0, 1.0, (n + 1,) * 4)
    residual = symmetry_residuals(R).max
    assert 1e-10 < residual < 1e-9
    bases, _, _ = _charts_and_points(rng, n, 20)
    got = _chart_quadratic(R, bases)
    for coeff, want, values in zip(got, _four_slot_quadratic(R, bases), (1, 2, 2)):
        assert np.max(np.abs(coeff - want)) <= values * residual
    A = 0.5 * (R - R.transpose(1, 0, 2, 3))
    A = 0.5 * (A - A.transpose(0, 1, 3, 2))
    for coeff, want in zip(got, _four_slot_quadratic(A, bases)):
        assert np.max(np.abs(coeff - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_curvature_metric_jet_carries_its_inverse(n):
    # g^-1 = Q^-1 det(Q)^(2/(n-1)) rides on the jet, so the Christoffel symbols invert nothing
    rng = np.random.default_rng(90 + n)
    bases, _, X = _charts_and_points(rng, n, 12)
    for g in (_member(n), round_metric(n)):
        for first_order in (True, False):
            jet = g._chart_jets(bases, X, first_order)
            want = np.linalg.inv(jet.value)
            assert np.max(np.abs(jet.inverse - want)) <= 1e-13 * np.max(np.abs(want))
    bump = BumpMetric(n, amplitude=0.3, width=0.2)  # a sum of jets carries none: it inverts its value
    jet = bump._chart_jets(bases, X)
    assert jet.inv is None and np.array_equal(jet.inverse, np.linalg.inv(jet.value))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_killing_from_metric_makes_one_ambient_pass(n, monkeypatch):
    # k = g / F evaluates nothing when built, then divides the metric's matrices by F of the same matrices
    P = np.random.default_rng(100 + n).standard_normal((40, n + 1))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    for g in (_member(n), round_metric(n), BumpMetric(n, amplitude=0.3, width=0.2)):
        want = g.ambient_matrices(P) / g.F_values(P)[:, None, None]
        calls = []
        original = type(g).ambient_matrices
        monkeypatch.setattr(type(g), "ambient_matrices", lambda self, Y: calls.append(len(Y)) or original(self, Y))
        k = killing_from_metric(g)
        assert calls == []
        got = k.ambient_matrices(P)
        monkeypatch.undo()
        assert calls == [len(P)]
        assert np.array_equal(got, want)

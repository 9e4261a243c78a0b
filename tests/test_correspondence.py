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
    curv_from_killing,
    killing_constancy_residual,
    killing_from_curv,
    killing_from_metric,
    metric_derivatives,
    metric_from_curv,
    round_metric,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from equator_forge.sphere_geom import _tangent_bases, chart_at, great_circle, random_unit, tangent_frame
from equator_forge.tensor_core import (
    CurvatureTensor,
    DegenerateInputError,
    KillingField,
    PositivityError,
    constant_curvature,
    curv_dim,
    fubini_study,
    killing_matrices,
    random_positive,
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
        M = k.matrix_in_frame(p, frame)
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
              killing_from_metric(metric_from_curv(R, override=True), constancy_circles=0), bent]
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
    gmat, dg, d2g = metric_derivatives(g, chart, x0)
    h = 1e-5
    for a in range(n):
        da = np.zeros(n)
        da[a] = h
        gp, dgp, _ = metric_derivatives(g, chart, x0 + da)
        gm, dgm, _ = metric_derivatives(g, chart, x0 - da)
        assert_allclose(dg[a], (gp - gm) / (2 * h), atol=1e-8)
        # the Hessian from central differences of the gradient just checked
        # against the values: first differences keep the rounding noise at
        # eps |dg| / h, where second differences of g carry eps |g| / h^2
        assert_allclose(d2g[a], (dgp - dgm) / (2 * h), atol=5e-5)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chart_jet_agrees_with_ambient_pullback(n):
    g = CurvatureMetric(random_positive(n, seed=5)[0])
    rng = np.random.default_rng(6)
    chart = chart_at(random_unit(rng, n + 1))
    x0 = np.array([-0.3, 0.5, 0.1, 0.2, -0.1])[:n]
    gmat, _, _ = metric_derivatives(g, chart, x0)
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
    k_g = killing_from_metric(g, seed=0)
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
    R2, info = curv_from_killing(k, seed=0, full_output=True)
    assert_allclose(R2.coeffs, random_tensor.coeffs, atol=1e-10)
    assert info["residual"] < 1e-10
    assert info["condition"] < 1e6


@pytest.mark.parametrize("n", [2, 4])
def test_roundtrip_other_dimensions(n):
    R, _, _ = random_positive(n, seed=40 + n)
    g = metric_from_curv(R)
    k = killing_from_metric(g, seed=1)
    R2 = curv_from_killing(k, seed=1, check_constancy=False)
    assert_allclose(R2.coeffs, R.coeffs, atol=1e-9)


def test_fubini_study_roundtrip():
    k = killing_from_curv(fubini_study(2))
    R2 = curv_from_killing(k, seed=0)
    assert_allclose(R2.coeffs, fubini_study(2).coeffs, atol=1e-8)


def test_curv_from_killing_rejects_non_killing_input():
    g = BumpMetric()
    k = killing_from_metric(g, seed=0)
    assert k.constancy_residual > 1e-3
    with pytest.raises(DegenerateInputError):
        curv_from_killing(k, seed=0, check_constancy=True)


def test_F_values_round_and_fubini_study():
    assert_allclose(round_metric(3).F_values(np.eye(4)[1]), [1.0], atol=1e-12)
    g = CurvatureMetric(fubini_study(2))
    rng = np.random.default_rng(8)
    p = random_unit(rng, 6)
    assert_allclose(g.F_values(p), [0.5], rtol=1e-10)


def test_volume_ratios_require_positivity():
    g = CurvatureMetric(constant_curvature(3, -1.0))
    with pytest.raises(PositivityError):
        g.D_values(np.eye(4)[:2])
    with pytest.raises(PositivityError):
        g.F_values(np.eye(4)[:2])


def test_metric_in_frame_positivity_guard():
    g = CurvatureMetric(constant_curvature(3, -1.0))
    rng = np.random.default_rng(9)
    p = random_unit(rng, 4)
    with pytest.raises(PositivityError):
        g.matrix_in_frame(p, tangent_frame(p), check_positive=True)


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


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 5), count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       radius=st.floats(0.0, 1.5))
def test_random_chart_batches_match_one_at_a_time(n, count, seed, radius):
    rng = np.random.default_rng(seed)
    g = _member(n)
    bases, charts, X = _charts_and_points(rng, n, count)
    X *= radius / 0.4
    _assert_same_jets(g._chart_jets(bases, X), [g.chart_jet(c, x) for c, x in zip(charts, X)])

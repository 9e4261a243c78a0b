"""Sphere primitives: frames, charts, the projective action, quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from numpy.polynomial.legendre import leggauss

from equator_forge.sphere_geom import (
    CHART_RADIUS,
    Equator,
    GnomonicChart,
    QuadratureRule,
    chart_at,
    dphi_T,
    equator_image,
    equator_quadrature,
    great_circle,
    jacobian_density,
    phi_T,
    random_equator,
    random_unit,
    sphere_quadrature,
    sphere_volume,
    tangent_frame,
    _equator_rule,
    _gauss_jacobi,
    _on_rows,
    _random_normals,
    _reference_grid,
)
from equator_forge.tensor_core import DegenerateInputError, GroupElement


def test_tangent_frame_is_orthonormal_and_deterministic():
    rng = np.random.default_rng(0)
    for dim in (3, 4, 6):
        for _ in range(10):
            p = random_unit(rng, dim)
            E = tangent_frame(p)
            assert E.shape == (dim - 1, dim)
            assert_allclose(E @ E.T, np.eye(dim - 1), atol=1e-12)
            assert_allclose(E @ p, np.zeros(dim - 1), atol=1e-12)
            assert_allclose(tangent_frame(p), E, atol=0)


def test_equator_normalizes_and_canonicalizes():
    v = Equator(np.array([0.0, -2.0, 0.0, 0.0]))
    assert_allclose(np.linalg.norm(v.normal), 1.0, atol=1e-15)
    # sign canonicalization: -v describes the same equator
    w = Equator(np.array([0.0, 2.0, 0.0, 0.0]))
    assert_allclose(v.normal, w.normal, atol=0)
    assert v.contains(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(DegenerateInputError):
        Equator(np.zeros(4))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=7).filter(lambda v: np.linalg.norm(v) > 1e-6))
def test_equator_canonicalization(v):
    v = np.array(v)
    normal = Equator(v).normal
    assert abs(np.linalg.norm(normal) - 1.0) <= 1e-14
    assert normal[np.abs(normal) > 1e-12][0] > 0.0  # the first coordinate above 1e-12 in size
    assert np.array_equal(Equator(-v).normal, normal)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_random_normals_are_the_random_equator_loop(n):
    for seed, count in [(0, 0), (1, 1), (n, 7), (12, 50), (99, 200)]:
        rng = np.random.default_rng(seed)
        loop = np.array([random_equator(rng, n).normal for _ in range(count)]).reshape(count, n + 1)
        assert np.array_equal(_random_normals(np.random.default_rng(seed), n, count), loop)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_equator_rejects_non_finite_normals(bad):
    with pytest.raises(DegenerateInputError):
        Equator(np.array([bad, 0.0, 0.0, 1.0]))


def test_chart_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = random_unit(rng, 4)
        chart = chart_at(p)
        x = rng.uniform(-2.0, 2.0, size=3)
        q = chart.point(x)
        assert_allclose(np.linalg.norm(q), 1.0, atol=1e-12)
        assert_allclose(chart.coords(q), x, atol=1e-10)
    assert_allclose(chart.point(np.zeros(3)), p, atol=1e-15)


def test_chart_rejects_far_hemisphere_and_radius():
    p = np.eye(4)[0]
    chart = chart_at(p)
    with pytest.raises(DegenerateInputError):
        chart.coords(-p)
    with pytest.raises(DegenerateInputError):
        chart.check_radius(np.full(3, CHART_RADIUS))


def test_phi_T_is_a_projective_action():
    rng = np.random.default_rng(2)
    T = GroupElement(np.eye(4) + 0.4 * rng.standard_normal((4, 4)))
    S = GroupElement(np.eye(4) + 0.4 * rng.standard_normal((4, 4)))
    P = np.array([random_unit(rng, 4) for _ in range(20)])
    # composition
    lhs = phi_T(T, phi_T(S, P))
    rhs = phi_T(GroupElement(T.matrix @ S.matrix), P)
    assert_allclose(lhs, rhs, atol=1e-12)
    # scaling invariance
    assert_allclose(phi_T(GroupElement(3.0 * T.matrix), P), phi_T(T, P), atol=1e-12)
    assert_allclose(np.linalg.norm(phi_T(T, P), axis=1), np.ones(20), atol=1e-12)


def test_dphi_T_matches_finite_differences():
    rng = np.random.default_rng(3)
    T = GroupElement(np.eye(4) + 0.3 * rng.standard_normal((4, 4)))
    h = 1e-6
    for _ in range(10):
        p = random_unit(rng, 4)
        w = rng.standard_normal(4)
        w -= (w @ p) * p
        curve = lambda t: (p * math.cos(t * np.linalg.norm(w))
                           + (w / np.linalg.norm(w)) * math.sin(t * np.linalg.norm(w)))
        fd = (phi_T(T, curve(h)[None, :])[0] - phi_T(T, curve(-h)[None, :])[0]) / (2 * h)
        assert_allclose(dphi_T(T, p, w), fd, atol=1e-8)


def test_jacobian_density_matches_frame_gram():
    rng = np.random.default_rng(4)
    T = GroupElement(np.eye(4) + 0.3 * rng.standard_normal((4, 4)))
    for _ in range(10):
        p = random_unit(rng, 4)
        E = tangent_frame(p)
        D = np.array([dphi_T(T, p, e) for e in E])
        gram = D @ D.T
        assert_allclose(
            jacobian_density(T, p),
            np.linalg.det(gram) ** (2.0 / (T.n + 1)),
            rtol=1e-12,
        )


def test_equator_image_tracks_points():
    rng = np.random.default_rng(5)
    T = GroupElement(np.eye(4) + 0.3 * rng.standard_normal((4, 4)))
    v = random_equator(rng, 3)
    img = equator_image(T, v)
    for _ in range(10):
        p = random_unit(rng, 4)
        p -= (p @ v.normal) * v.normal
        p /= np.linalg.norm(p)
        q = phi_T(T, p[None, :])[0]
        assert abs(q @ img.normal) < 1e-12


def test_great_circle_speed_and_period():
    rng = np.random.default_rng(6)
    p = random_unit(rng, 4)
    u = rng.standard_normal(4)
    u -= (u @ p) * p
    u /= np.linalg.norm(u)
    ts = np.linspace(0.0, 2.0 * math.pi, 9)
    pts = great_circle(p, u, ts)
    assert_allclose(np.linalg.norm(pts, axis=1), np.ones(9), atol=1e-14)
    assert_allclose(pts[0], pts[-1], atol=1e-12)
    h = 1e-6
    vel = (great_circle(p, u, h) - great_circle(p, u, -h)) / (2 * h)
    assert_allclose(vel, u, atol=1e-9)


# ---------------------------------------------------------------------------
# quadrature


def test_equator_quadrature_weights_and_polynomials():
    v = Equator(np.array([0.0, 0.0, 0.0, 1.0]))
    rule = equator_quadrature(v, 16)
    assert not rule.monte_carlo
    assert_allclose(rule.total, 4.0 * math.pi, atol=1e-12)
    # exact low-degree moments on the round 2-sphere x^2 -> 4pi/3
    vals = rule.nodes[:, 0] ** 2
    assert_allclose(rule.integrate(vals), 4.0 * math.pi / 3.0, atol=1e-12)
    vals = rule.nodes[:, 0] ** 2 * rule.nodes[:, 1] ** 2
    assert_allclose(rule.integrate(vals), 4.0 * math.pi / 15.0, atol=1e-12)
    odd = rule.nodes[:, 2]
    assert_allclose(rule.integrate(odd), 0.0, atol=1e-12)


def _fresh_equator_grid(v, order):
    """The S^3 grid built afresh for one equator: the reference for the cached grid."""
    u = v.basis()
    z, wz = leggauss(order)
    nphi = 2 * order
    zz, pp = (a.reshape(-1) for a in np.meshgrid(z, 2.0 * math.pi * np.arange(nphi) / nphi, indexing="ij"))
    st, cp, sp = np.sqrt(1.0 - zz**2), np.cos(pp), np.sin(pp)
    return {
        "basis": u,
        "theta": np.arccos(np.clip(zz, -1.0, 1.0)),
        "phi": pp,
        "nodes": (st * cp)[:, None] * u[0] + (st * sp)[:, None] * u[1] + zz[:, None] * u[2],
        "weights": np.repeat(wz, nphi) * (2.0 * math.pi / nphi),
        "e_theta": (zz * cp)[:, None] * u[0] + (zz * sp)[:, None] * u[1] - st[:, None] * u[2],
        "e_phi": (-sp)[:, None] * u[0] + cp[:, None] * u[1],
    }


def test_cached_equator_grid_is_read_only_and_unchanged():
    rng = np.random.default_rng(7)
    for order in (1, 5, 24):
        for _ in range(3):
            v = random_equator(rng, 3)
            c, weights, f = _equator_rule(3, order, 0)
            nodes, frames = _on_rows(c, v.basis()), _on_rows(f, v.basis())  # as the Jacobi mesh maps them
            theta, phi = _reference_grid(order)[:2]
            fresh = _fresh_equator_grid(v, order)
            grid = {"basis": v.basis(), "theta": theta, "phi": phi, "nodes": nodes, "weights": weights,
                    "e_theta": frames[:, 0], "e_phi": frames[:, 1]}
            assert c.shape == (nodes.shape[0], 3)
            assert f.shape == (nodes.shape[0], 2, 3)
            assert frames.shape == (nodes.shape[0], 2, 4)
            assert grid.keys() == fresh.keys()
            for name in grid:
                assert grid[name].tobytes() == fresh[name].tobytes(), name
        for array in _reference_grid(order):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        for cached, rebuilt in zip(_reference_grid(order), _reference_grid.__wrapped__(order)):
            assert cached.tobytes() == rebuilt.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equator_rule_frames_are_orthonormal_and_tangent(n):
    v = random_equator(np.random.default_rng(n), n)
    c, weights, f = _equator_rule(n, 6, 1)
    assert c.shape == (weights.shape[0], n)
    assert f.shape == (weights.shape[0], n - 1, n)
    nodes, frames = c @ v.basis(), f @ v.basis()
    assert frames.shape == (nodes.shape[0], n - 1, n + 1)
    eye = np.broadcast_to(np.eye(n - 1), (nodes.shape[0], n - 1, n - 1))
    assert_allclose(frames @ frames.transpose(0, 2, 1), eye, rtol=0, atol=1e-13)
    assert_allclose(frames @ v.normal, 0.0, atol=1e-13)
    assert_allclose(np.einsum("mkj,mj->mk", frames, nodes), 0.0, atol=1e-13)
    assert_allclose(nodes @ v.normal, 0.0, atol=1e-13)
    assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, rtol=0, atol=1e-13)
    assert_allclose(weights.sum(), sphere_volume(n - 1), rtol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equator_quadrature_nodes_are_bitwise_the_mapped_rule(n):
    # references: the S^3 grid built afresh, and elsewhere the seeded draw times the basis
    v = random_equator(np.random.default_rng(10 + n), n)
    for order in (1, 4, 9):
        rule = equator_quadrature(v, order, seed=5)
        if n == 3:
            nodes, weights = _fresh_equator_grid(v, order)["nodes"], _fresh_equator_grid(v, order)["weights"]
        else:
            count = max(2 * order * order, 64)
            raw = np.random.default_rng(5).standard_normal((count, n))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            nodes, weights = raw @ v.basis(), np.full(count, sphere_volume(n - 1) / count)
        assert rule.nodes.tobytes() == nodes.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()


def test_equator_quadrature_monte_carlo_fallback():
    rule = equator_quadrature(np.eye(5)[0], 8, seed=3)
    assert rule.monte_carlo
    assert rule.seed == 3
    assert_allclose(rule.total, sphere_volume(3), rtol=1e-12)
    # all nodes on the equator
    assert_allclose(rule.nodes @ np.eye(5)[0], np.zeros(len(rule.weights)), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_quadrature_volume(n):
    rule = sphere_quadrature(n, 10)
    assert_allclose(rule.total, sphere_volume(n), rtol=1e-12)


def test_sphere_quadrature_moments():
    rule = sphere_quadrature(3, 8)
    # second moment of a coordinate on S^3 is vol / 4
    vals = rule.nodes[:, 2] ** 2
    assert_allclose(rule.integrate(vals), sphere_volume(3) / 4.0, rtol=1e-12)
    assert_allclose(rule.integrate(lambda P: P[:, 0] * P[:, 1]), 0.0, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
def test_gauss_jacobi_matches_scipy(alpha):
    # measured: nodes within 7.5e-16, weights within 3.7e-15 of their sum; scipy's
    # weights are the less exact side (1.2e-12 relative at order 36, alpha 0, against mpmath)
    roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
    for order in range(1, 41):
        t, w = _gauss_jacobi(order, alpha)
        t_ref, w_ref = roots_jacobi(order, alpha, alpha)
        assert_allclose(t, t_ref, rtol=0, atol=2e-15)
        assert_allclose(w, w_ref, rtol=0, atol=1e-14 * w_ref.sum())


def test_quadrature_rule_to_csv(tmp_path):
    rule = sphere_quadrature(2, 4)
    path = tmp_path / "rule.csv"
    rule.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == len(rule.weights) + 1
    assert rows[0].startswith("x0")

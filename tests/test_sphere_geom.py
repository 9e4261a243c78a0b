"""Sphere primitives: frames, charts, the projective action, quadrature."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from numpy.polynomial.legendre import leggauss

from equator_forge.analysis import equator_area, equator_mesh
from equator_forge.correspondence import CurvatureMetric, round_metric
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
    _equator_nodes,
    _gauss_jacobi,
    _on_rows,
    _random_normals,
    _reference_grid,
    _tangent_bases,
)
from equator_forge.tensor_core import DegenerateInputError, DimensionError, GroupElement, random_positive


def _frame_points(dim) -> np.ndarray:
    """Unit vectors with ties in |p|, with zero coordinates, and the +-e_j."""
    e = np.eye(dim)
    zeros = 0.6 * e[1] - 0.8 * e[-1]
    ties = [(e[0] + e[1]) / np.sqrt(2), (e[1] - e[-1]) / np.sqrt(2), np.ones(dim) / np.sqrt(dim),
            (np.ones(dim) - 2 * e[0]) / np.sqrt(dim), 0.6 * (e[0] - e[-1]) + np.sqrt(0.28) * e[1]]
    return np.array([*ties, zeros, -zeros, *e, *-e])


def test_tangent_frame_is_orthonormal_and_deterministic():
    rng = np.random.default_rng(0)
    for dim in (3, 4, 6):
        for p in [*(random_unit(rng, dim) for _ in range(10)), *_frame_points(dim)]:
            E = tangent_frame(p)
            assert E.shape == (dim - 1, dim)
            assert_allclose(E @ E.T, np.eye(dim - 1), atol=1e-12)
            assert_allclose(E @ p, np.zeros(dim - 1), atol=1e-12)
            assert_allclose(tangent_frame(p), E, atol=0)
    # a tie in |p| drops the lowest index, so the first row comes from e_1, not e_0
    assert_allclose(tangent_frame(np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2))[0], [-0.5**0.5, 0.5**0.5, 0, 0], atol=1e-15)


@pytest.mark.parametrize("n", range(2, 8))
def test_a_stack_of_frames_is_per_row_and_orthonormal(n):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((25, 20, n + 1))
    X[rng.random(X.shape) < 0.3] = 0.0  # zero coordinates, and some rows of one nonzero entry
    X[np.all(X == 0.0, axis=-1)] = 1.0
    special = _frame_points(n + 1)
    X.reshape(-1, n + 1)[:len(special)] = special
    P = X / np.linalg.norm(X, axis=-1, keepdims=True)
    bases = _tangent_bases(P)
    assert bases.shape == (25, 20, n + 1, n + 1)
    assert np.array_equal(bases, [[_tangent_bases(p) for p in row] for row in P])
    assert np.max(np.abs(bases @ np.swapaxes(bases, -1, -2) - np.eye(n + 1))) <= 1e-15


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_chart_rejects_non_finite_coordinates(bad):
    chart = chart_at(np.eye(4)[0])
    x = np.zeros((3, 3))
    x[1, 2] = bad
    for coords in (x[1], x):  # one point, and a stack with one bad point
        with pytest.raises(DegenerateInputError, match="outside radius"):
            chart.check_radius(coords)
        with pytest.raises(DegenerateInputError, match="outside radius"):
            round_metric(3).chart_jet(chart, coords)


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
    assert_allclose(rule.total, 4.0 * math.pi, atol=1e-12)
    # exact low-degree moments on the round 2-sphere x^2 -> 4pi/3
    vals = rule.nodes[:, 0] ** 2
    assert_allclose(rule.integrate(vals), 4.0 * math.pi / 3.0, atol=1e-12)
    vals = rule.nodes[:, 0] ** 2 * rule.nodes[:, 1] ** 2
    assert_allclose(rule.integrate(vals), 4.0 * math.pi / 15.0, atol=1e-12)
    odd = rule.nodes[:, 2]
    assert_allclose(rule.integrate(odd), 0.0, atol=1e-12)


def _fresh_equator_grid(v, order):
    """The S^3 grid built afresh for one equator from numpy's Gauss-Legendre rule: an independent
    reference for the cached grid, whose latitudes come from the Golub-Welsch rule of sphere_quadrature."""
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
    # measured against leggauss at these orders: 6.8e-15 in the nodes, 6.7e-15 in theta and e_theta,
    # 3.3e-16 in the weights, and phi and e_phi bitwise
    rng = np.random.default_rng(7)
    for order in (1, 5, 24):
        theta, phi, c, weights, f = _reference_grid(order)
        rule = sphere_quadrature(2, order)
        assert c.tobytes() == rule.nodes.tobytes() and weights.tobytes() == rule.weights.tobytes()
        for _ in range(3):
            v = random_equator(rng, 3)
            nodes, frames = _on_rows(c, v.basis()), _on_rows(f, v.basis())  # as the Jacobi mesh maps them
            fresh = _fresh_equator_grid(v, order)
            grid = {"basis": v.basis(), "theta": theta, "phi": phi, "nodes": nodes, "weights": weights,
                    "e_theta": frames[:, 0], "e_phi": frames[:, 1]}
            assert c.shape == (nodes.shape[0], 3)
            assert f.shape == (nodes.shape[0], 2, 3)
            assert frames.shape == (nodes.shape[0], 2, 4)
            assert grid.keys() == fresh.keys()
            for name in grid:
                assert_allclose(grid[name], fresh[name], rtol=0, atol=1e-13, err_msg=name)
        for array in _reference_grid(order):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        for cached, rebuilt in zip(_reference_grid(order), _reference_grid.__wrapped__(order)):
            assert cached.tobytes() == rebuilt.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equator_rule_frames_are_orthonormal_and_tangent(n):
    # the Jacobi mesh's (e_theta, e_phi) on S^3; elsewhere the frames _tangent_bases gives the nodes
    v = random_equator(np.random.default_rng(n), n)
    c, weights = _equator_nodes(n, 6)
    f = _reference_grid(6)[4] if n == 3 else _tangent_bases(c)[:, 1:]
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


def _budget_k(n, order):
    """The largest k with k^(n-1) <= order^2, counted up from 1."""
    k = 1
    while (k + 1) ** (n - 1) <= order**2:
        k += 1
    return k


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equator_quadrature_nodes_are_bitwise_the_mapped_rule(n):
    # reference: sphere_quadrature(n - 1, k) at the node budget, summed over the basis rows of v;
    # on S^3 these are also bitwise the Jacobi mesh's nodes
    v = random_equator(np.random.default_rng(10 + n), n)
    for order in (1, 4, 9):
        rule, k = equator_quadrature(v, order), _budget_k(n, order)
        ref = sphere_quadrature(n - 1, k)
        assert len(rule.weights) == 2 * k ** (n - 1) <= 2 * order**2
        assert rule.nodes.tobytes() == _on_rows(ref.nodes, v.basis()).tobytes()
        assert rule.weights.tobytes() == ref.weights.tobytes()
        if n == 3:
            assert k == order
            assert rule.nodes.tobytes() == equator_mesh(round_metric(3), v, order).nodes.tobytes()


def test_equator_nodes_budget_is_exact_at_integer_roots():
    # the orders include exact roots: k = 4 and 9 at orders 8 and 27 on S^4, k = 2..6 at 4..36 on S^5
    for n in (2, 3, 4, 5, 6):
        for order in range(1, 40):
            assert len(_equator_nodes(n, order)[1]) == 2 * _budget_k(n, order) ** (n - 1)
    with pytest.raises(DegenerateInputError):
        _equator_nodes(3, 0)
    with pytest.raises(DimensionError):
        _equator_nodes(1, 4)


def _monomial_integral(alpha) -> float:
    """Integral of prod x_i^alpha_i over the unit sphere in R^len(alpha), in closed form."""
    if any(a % 2 for a in alpha):
        return 0.0
    return 2.0 * math.prod(math.gamma((a + 1) / 2) for a in alpha) / math.gamma((sum(alpha) + len(alpha)) / 2)


@pytest.mark.parametrize("n, order", [(2, 3), (4, 6), (5, 9)])
def test_equator_quadrature_is_exact_to_degree_2k_minus_1(n, order):
    # on the equator of e_0 the nodes are (0, c): monomials in c of degree up to 2k - 1 are exact,
    # among them x_i^2, x_i^2 x_j^2 and x_i^4 (|S^(n-1)| / n, / (n (n + 2)) and 3 / (n (n + 2)))
    rule, k = equator_quadrature(np.eye(n + 1)[0], order), _budget_k(n, order)
    assert k >= 3 and np.all(rule.nodes[:, 0] == 0.0)
    c = rule.nodes[:, 1:]
    assert_allclose(rule.total, sphere_volume(n - 1), rtol=1e-14)
    for degree in range(2 * k):
        for factors in itertools.combinations_with_replacement(range(n), degree):
            alpha = np.bincount(np.array(factors, dtype=int), minlength=n)
            value = rule.integrate(np.prod(c**alpha, axis=1))
            assert_allclose(value, _monomial_integral(alpha), rtol=0, atol=1e-14 * rule.total, err_msg=alpha)


def test_equator_area_converges_in_k_on_s4():
    # one equator of a random S^4 member, at orders whose budget gives k = 8, 12, ..., 28
    g = CurvatureMetric(random_positive(4, seed=2)[0])
    v = random_equator(np.random.default_rng(0), 4)
    areas = []
    for k in range(8, 29, 4):
        order = math.isqrt(k**3 - 1) + 1  # the least order with k^3 <= order^2
        assert _budget_k(4, order) == k
        areas.append(equator_area(g, v, order))
    steps = np.abs(np.diff(areas))
    assert np.all(steps[1:] < steps[:-1])
    assert steps[-1] < 1e-7 * areas[-1]


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

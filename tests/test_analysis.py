"""Areas, stability spectra, left-invariant examples, and the great-sphere
transform on S^3.

The round sphere supplies exact oracles: equator areas are 4*pi, the Jacobi
spectrum in degree-l harmonics is l(l+1) - 2, and the rotation-generated null
functions are degree-1 harmonics.  The non-round cases are checked against
invariances (equality of areas, index/nullity counts, exact nullity of the
rotation fields) rather than frozen numbers.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from equator_forge.analysis import (
    build_jacobi_galerkin,
    equator_area,
    equator_mesh,
    funk_radon,
    jacobi_apply_field,
    jacobi_spectrum_probe,
    left_invariant_killing,
    left_invariant_metric,
    quaternion_generators,
    second_fundamental_form,
    so4_jacobi_data,
)
from equator_forge.correspondence import (
    CurvatureMetric,
    killing_constancy_residual,
    metric_from_curv,
    round_metric,
)
from equator_forge.harmonics import real_harmonic_basis
from equator_forge.sphere_geom import Equator, equator_quadrature, random_unit, sphere_volume
from equator_forge.tensor_core import (
    DegenerateInputError,
    DimensionError,
    constant_curvature,
    fubini_study,
    random_positive,
)
from equator_forge.verification import BumpMetric, height_derivatives, mean_curvature_equator


E0 = np.eye(4)[0]


@pytest.fixture(scope="module")
def round_galerkin():
    return build_jacobi_galerkin(round_metric(3), E0, L=8)


@pytest.fixture(scope="module")
def berger():
    g, R = left_invariant_metric(1.0, 1.0, 4.0)
    return g, R


@pytest.fixture(scope="module")
def berger_galerkin(berger):
    g, _ = berger
    return build_jacobi_galerkin(g, E0, L=12)


# ---------------------------------------------------------------------------
# areas


def test_round_equator_area_is_4pi():
    assert_allclose(equator_area(round_metric(3), E0), 4.0 * np.pi, atol=1e-10)
    rng = np.random.default_rng(0)
    for _ in range(3):
        v = random_unit(rng, 4)
        assert_allclose(equator_area(round_metric(3), v), 4.0 * np.pi, atol=1e-10)


def test_member_metrics_have_equal_areas(berger):
    g, _ = berger
    rng = np.random.default_rng(1)
    areas = [equator_area(g, random_unit(rng, 4)) for _ in range(6)]
    areas.append(equator_area(g, E0))
    assert np.ptp(areas) < 5e-10
    # quadrature convergence: the common value is already resolved at order 32
    assert abs(equator_area(g, E0, order=48) - areas[-1]) < 1e-9


def test_area_equality_for_random_member():
    R, _, _ = random_positive(3, seed=21)
    g = metric_from_curv(R)
    rng = np.random.default_rng(2)
    areas = [equator_area(g, random_unit(rng, 4)) for _ in range(6)]
    # order-32 quadrature resolves the common value to ~1e-8 for generic members
    assert np.ptp(areas) < 1e-7
    assert np.ptp([equator_area(g, v, order=48) for v in np.eye(4)]) < 1e-9


def test_equator_area_off_s3():
    rng = np.random.default_rng(5)
    v = random_unit(rng, 5)
    assert_allclose(equator_area(round_metric(4), v), sphere_volume(3), atol=1e-10)
    R, _, _ = random_positive(4, seed=7)
    g = CurvatureMetric(R)
    # reference: area densities in tangent frames from an independent QR
    rule = equator_quadrature(Equator(v), 8, seed=0)
    rho = []
    for p in rule.nodes:
        M = rng.standard_normal((5, 3))
        M -= np.outer(v, v @ M) + np.outer(p, p @ M)
        E = np.linalg.qr(M)[0].T
        rho.append(np.sqrt(np.linalg.det(E @ g.ambient_matrix(p) @ E.T)))
    assert_allclose(equator_area(g, v, order=8), rule.weights @ np.array(rho), rtol=1e-12)


def test_mesh_area_matches_quadrature(berger):
    g, _ = berger
    mesh = equator_mesh(g, E0, order=32)
    assert_allclose(mesh.area, equator_area(g, E0, order=32), atol=1e-12)


# ---------------------------------------------------------------------------
# second fundamental form


def test_second_fundamental_form_round():
    rng = np.random.default_rng(3)
    v = random_unit(rng, 4)
    p = rng.standard_normal(4)
    p -= (p @ v) * v
    p /= np.linalg.norm(p)
    sff = second_fundamental_form(round_metric(3), v, p)
    assert_allclose(sff.matrix, 0.0, atol=1e-12)
    assert_allclose(sff.mean_curvature, 0.0, atol=1e-12)
    assert_allclose(sff.norm2, 0.0, atol=1e-12)
    assert_allclose(sff.induced, np.eye(2), atol=1e-12)


def test_second_fundamental_form_member_is_traceless(berger):
    g, _ = berger
    rng = np.random.default_rng(4)
    for _ in range(4):
        v = random_unit(rng, 4)
        p = rng.standard_normal(4)
        p -= (p @ v) * v
        p /= np.linalg.norm(p)
        sff = second_fundamental_form(g, v, p)
        assert abs(sff.mean_curvature) < 1e-11
        assert sff.norm2 >= 0.0
        # the g-trace of A is the mean curvature computed independently
        assert_allclose(sff.mean_curvature, mean_curvature_equator(g, v, p), atol=1e-11)


def test_second_fundamental_form_detects_bump():
    g = BumpMetric()
    v = (np.eye(4)[1] + np.eye(4)[2]) / np.sqrt(2.0)
    u = g.direction - (g.direction @ v) * v
    u /= np.linalg.norm(u)
    p = np.cos(0.3) * g.center + np.sin(0.3) * u
    sff = second_fundamental_form(g, v, p)
    assert abs(sff.mean_curvature) > 1e-2
    assert_allclose(sff.mean_curvature, mean_curvature_equator(g, v, p), atol=1e-11)


def test_second_fundamental_form_requires_equator_point():
    with pytest.raises(DegenerateInputError):
        second_fundamental_form(round_metric(3), E0, E0)


# ---------------------------------------------------------------------------
# meshes and the Jacobi spectrum


def test_round_mesh_fields():
    mesh = equator_mesh(round_metric(3), E0, order=24)
    assert_allclose(mesh.rho, 1.0, atol=1e-13)
    assert_allclose(mesh.potential, 2.0, atol=1e-12)
    assert_allclose(mesh.mean_curv, 0.0, atol=1e-12)
    assert_allclose(mesh.induced, np.broadcast_to(np.eye(2), mesh.induced.shape), atol=1e-13)
    assert_allclose(np.abs(mesh.nodes @ E0), 0.0, atol=1e-13)
    assert_allclose(mesh.area, 4.0 * np.pi, atol=1e-10)


def test_bump_mesh_matches_pointwise_height_data():
    g = BumpMetric()
    v = (np.eye(4)[1] + np.eye(4)[2]) / np.sqrt(2.0)
    mesh = equator_mesh(g, v, order=12)
    for i in np.argsort(-np.abs(mesh.mean_curv))[:4]:
        p = mesh.nodes[i]
        assert abs(mesh.mean_curv[i]) > 1e-2
        assert_allclose(mesh.mean_curv[i], mean_curvature_equator(g, v, p), atol=1e-11)
        assert_allclose(mesh.normal_ambient[i], height_derivatives(g, v, p).normal_ambient, atol=1e-11)


def test_member_mesh_matches_pointwise_height_data():
    g = metric_from_curv(random_positive(3, seed=2)[0])
    v = Equator(np.array([0.3, -0.5, 0.2, 0.9]))
    mesh = equator_mesh(g, v, order=8)
    for i in range(0, mesh.nodes.shape[0], 5):
        p = mesh.nodes[i]
        hd = height_derivatives(g, v.normal, p)
        assert abs(mesh.mean_curv[i]) < 1e-12
        assert_allclose(mesh.mean_curv[i], mean_curvature_equator(g, v.normal, p), atol=1e-12)
        assert_allclose(mesh.normal_ambient[i], hd.normal_ambient, atol=1e-12)


def test_mesh_fields_do_not_depend_on_thread_count(monkeypatch):
    g = metric_from_curv(random_positive(3, seed=2)[0])
    v = np.array([0.3, -0.5, 0.2, 0.9])
    meshes = []
    rotations = []
    for threads in ("1", "2", "3"):  # 128 nodes in one, two and three blocks
        monkeypatch.setenv("EQUATOR_FORGE_THREADS", threads)
        meshes.append(equator_mesh(g, v, order=8))
        rotations.append(so4_jacobi_data(g, meshes[-1])[:2])
    for mesh, rot in zip(meshes[1:], rotations[1:]):
        for name in ("normal_ambient", "mean_curv", "potential", "induced", "induced_inv", "rho"):
            assert np.array_equal(getattr(mesh, name), getattr(meshes[0], name)), name
        for a, b in zip(rot, rotations[0]):
            assert np.array_equal(a, b)


def test_mesh_rejects_other_dimensions():
    with pytest.raises(DimensionError):
        equator_mesh(CurvatureMetric(fubini_study(2)), np.eye(6)[0])


def test_round_spectrum_is_exact(round_galerkin):
    vals = round_galerkin.eigenvalues()
    expected = np.concatenate([np.full(2 * l + 1, l * (l + 1) - 2.0) for l in range(9)])
    assert_allclose(vals, expected, atol=1e-9)
    probe = jacobi_spectrum_probe(round_metric(3), E0, L=8, galerkin=round_galerkin)
    assert probe.n_negative == 1
    assert probe.n_null == 3
    assert_allclose(probe.eigenvalues[0], -2.0, atol=1e-10)


def test_jacobi_apply_scales_harmonics(round_galerkin):
    gal = round_galerkin
    values, _ = gal.basis()
    nb = values.shape[1]
    # constant: J(1) = 2; degree 2: J(Y) = (2 - 6) Y
    for k, l in [(0, 0), (5, 2)]:
        assert gal.degrees[k] == l
        c = np.zeros(nb)
        c[k] = 1.0
        out = gal.apply(c)
        assert_allclose(out, (2.0 - l * (l + 1)) * values[:, k], atol=1e-9)


def _dense_galerkin(mesh, L):
    """The assembly as dense products over all mesh nodes: the reference."""
    values, grads = real_harmonic_basis(L, mesh.theta, mesh.phi)
    m, nb = values.shape
    w = mesh.weights * mesh.rho
    mass = values.T @ (w[:, None] * values)
    W = np.einsum("nab,nkb->nka", mesh.induced_inv, grads)
    X = np.transpose(grads, (1, 0, 2)).reshape(nb, 2 * m)
    Y = np.transpose(w[:, None, None] * W, (1, 0, 2)).reshape(nb, 2 * m)
    stiff = X @ Y.T - values.T @ ((w * mesh.potential)[:, None] * values)
    return 0.5 * (mass + mass.T), 0.5 * (stiff + stiff.T)


@pytest.mark.parametrize("metric", ["round", "berger", "random", "bump"])
def test_sum_factorised_assembly_matches_dense_products(metric, berger):
    g = {
        "round": lambda: round_metric(3),
        "berger": lambda: berger[0],
        "random": lambda: metric_from_curv(random_positive(3, seed=2)[0]),
        "bump": BumpMetric,
    }[metric]()
    v = np.array([0.3, -0.5, 0.2, 0.9])
    mesh = equator_mesh(g, v, order=32)
    for L in (4, 8, 12):
        gal = build_jacobi_galerkin(g, v, L, mesh=mesh)
        mass, stiff = _dense_galerkin(mesh, L)
        assert np.max(np.abs(gal.mass - mass)) <= 1e-13 * np.max(np.abs(mass))
        assert np.max(np.abs(gal.stiffness - stiff)) <= 1e-13 * np.max(np.abs(stiff))
    # the weak pairing of jacobi_apply_field against the four-operand contraction
    values, grads = real_harmonic_basis(L, mesh.theta, mesh.phi)
    etas, etagrads, _ = so4_jacobi_data(g, mesh)
    w = mesh.weights * mesh.rho
    r = np.einsum("n,nka,nab,nb->k", w, grads, mesh.induced_inv, etagrads[0])
    r -= values.T @ (w * mesh.potential * etas[0])
    expected = values @ np.linalg.solve(gal.mass, -r)
    out = jacobi_apply_field(g, None, etas[0], etagrads[0], galerkin=gal)
    assert_allclose(out, expected, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(expected))))


def test_member_spectra_have_index_one_nullity_three(berger_galerkin):
    probe = jacobi_spectrum_probe(None, None, galerkin=berger_galerkin)
    assert probe.n_negative == 1
    assert probe.n_null == 3

    R, _, _ = random_positive(3, seed=33)
    probe2 = jacobi_spectrum_probe(CurvatureMetric(R), np.eye(4)[2], L=12)
    assert probe2.n_negative == 1
    assert probe2.n_null == 3


def test_so4_functions_are_degree_one_on_round(round_galerkin):
    mesh = round_galerkin.mesh
    etas, _, Ks = so4_jacobi_data(round_metric(3), mesh)
    for j in range(3):
        assert_allclose(np.abs(etas[j]), np.abs(mesh.nodes @ mesh.basis[j]), atol=1e-12)
        # exact nullity through the projection route (degree-1 truncation is exact)
        coeffs = round_galerkin.project(etas[j])
        out = round_galerkin.apply(coeffs)
        assert np.max(np.abs(out)) < 1e-10
    assert len(Ks) == 3


def test_rotation_fields_are_jacobi_null(berger, berger_galerkin):
    g, _ = berger
    mesh = berger_galerkin.mesh
    etas, grads, _ = so4_jacobi_data(g, mesh)
    scale = float(np.max(np.abs(etas)))
    for j in range(3):
        out = jacobi_apply_field(g, None, etas[j], grads[j], galerkin=berger_galerkin)
        assert np.max(np.abs(out)) / scale < 1e-9


def test_so4_data_matches_function_values(berger, berger_galerkin):
    g, _ = berger
    mesh = berger_galerkin.mesh
    etas, _, Ks = so4_jacobi_data(g, mesh)
    # reference: g(K p, N) from the ambient metric matrices and the g-unit normal
    G = g.ambient_matrices(mesh.nodes)
    etas_fn = [np.einsum("ni,nij,nj->n", mesh.nodes @ K.matrix.T, G, mesh.normal_ambient) for K in Ks]
    assert_allclose(etas, etas_fn, atol=1e-11)


# ---------------------------------------------------------------------------
# left-invariant metrics


def test_quaternion_generators_algebra():
    Mi, Mj, Mk = (K.matrix for K in quaternion_generators())
    eye = np.eye(4)
    assert_allclose(Mi @ Mi, -eye, atol=0)
    assert_allclose(Mj @ Mj, -eye, atol=0)
    assert_allclose(Mi @ Mj, Mk, atol=0)
    assert_allclose(Mj @ Mk, Mi, atol=0)
    assert_allclose(Mk @ Mi, Mj, atol=0)
    assert_allclose(Mi @ Mj + Mj @ Mi, 0.0, atol=0)
    for M in (Mi, Mj, Mk):
        assert_allclose(M.T, -M, atol=0)
        assert_allclose(M.T @ M, eye, atol=0)


def test_left_invariant_unit_coefficients_are_round():
    _, R = left_invariant_metric(1.0, 1.0, 1.0)
    assert_allclose(R.coeffs, constant_curvature(3, 1.0).coeffs, atol=1e-12)


def test_left_invariant_frame_values():
    a, b, c = 1.0, 2.0, 3.0
    g, _ = left_invariant_metric(a, b, c)
    Mi, Mj, Mk = quaternion_generators()
    rng = np.random.default_rng(5)
    for _ in range(4):
        p = random_unit(rng, 4)
        frame = np.array([Mi.matrix @ p, Mj.matrix @ p, Mk.matrix @ p])
        assert_allclose(g.matrix_in_frame(p, frame), np.diag([a, b, c]), atol=1e-9)


def test_left_invariant_killing_is_constant():
    k = left_invariant_killing(1.0, 2.0, 3.0)
    assert killing_constancy_residual(k, circles=30, samples=60, seed=6) < 1e-12


def test_left_invariant_rejects_nonpositive_coefficients():
    with pytest.raises(DegenerateInputError):
        left_invariant_killing(1.0, -2.0, 3.0)


# ---------------------------------------------------------------------------
# great-sphere transform


def test_funk_radon_round_values():
    g = round_metric(3)
    rng = np.random.default_rng(7)
    v = random_unit(rng, 4)
    # constants integrate to the area
    assert_allclose(funk_radon(g, lambda P: np.ones(P.shape[0]), v), 4.0 * np.pi, atol=1e-10)
    # f maps the node array to one value per node, or the call is refused
    with pytest.raises(DimensionError):
        funk_radon(g, lambda p: 1.0, v)
    # odd functions vanish, and the normal coordinate vanishes on the equator
    w = random_unit(rng, 4)
    assert abs(funk_radon(g, lambda P: P @ w, v)) < 1e-12
    assert abs(funk_radon(g, lambda P: (P @ v) ** 2, v)) < 1e-20


def test_funk_radon_weights_by_metric_area(berger):
    g, _ = berger
    rng = np.random.default_rng(8)
    v = random_unit(rng, 4)
    assert_allclose(funk_radon(g, lambda P: np.ones(P.shape[0]), v), equator_area(g, v), atol=1e-12)

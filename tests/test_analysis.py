"""Areas, stability spectra, left-invariant examples, and the great-sphere
transform on S^3.

The round sphere supplies exact oracles: equator areas are 4*pi, the Jacobi
spectrum in degree-l harmonics is l(l+1) - 2, and the rotation-generated null
functions are degree-1 harmonics.  The non-round cases are checked against
invariances (equality of areas, index/nullity counts, exact nullity of the
rotation fields) rather than frozen numbers.
"""

import copy

import numpy as np
import pytest
from numpy.testing import assert_allclose

from equator_forge import analysis
from equator_forge.analysis import (
    _BLOCK_NODES,
    _area_elements,
    _factor_gram,
    _lower_inverse,
    _pencil_eigenvalues,
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
    MetricField,
    killing_constancy_residual,
    metric_from_curv,
    round_metric,
)
from equator_forge.harmonics import _harmonic_factors, real_harmonic_basis
from equator_forge.sphere_geom import (Equator, _equator_nodes, _tangent_bases, equator_quadrature, random_unit,
                                      sphere_volume)
from equator_forge.tensor_core import (
    DegenerateInputError,
    DimensionError,
    PositivityError,
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
    rule = equator_quadrature(Equator(v), 8)
    rho = []
    for p in rule.nodes:
        M = rng.standard_normal((5, 3))
        M -= np.outer(v, v @ M) + np.outer(p, p @ M)
        E = np.linalg.qr(M)[0].T
        rho.append(np.sqrt(np.linalg.det(E @ g.ambient_matrix(p) @ E.T)))
    assert_allclose(equator_area(g, v, order=8), rule.weights @ np.array(rho), rtol=1e-12)


def _ambient_area(g, v: Equator, order: int) -> float:
    """The reference: density sqrt det(F G F^T) from the ambient metric matrices G
    and ambient round orthonormal frames F of the equator, with the same rule."""
    c, weights = _equator_nodes(v.n, order)
    F = _tangent_bases(c)[:, 1:] @ v.basis()
    return float(weights @ np.sqrt(np.linalg.det(F @ g.ambient_matrices(c @ v.basis()) @ F.transpose(0, 2, 1))))


def _density_metrics(n):
    metrics = {"round": round_metric(n), "random": CurvatureMetric(random_positive(n, seed=n + 20)[0]),
               "bump": BumpMetric(n, amplitude=0.5, width=0.3)}
    if n == 5:
        metrics["fubini-study"] = CurvatureMetric(fubini_study(2))
    return metrics


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equator_area_matches_the_ambient_density(n):
    rng = np.random.default_rng(40 + n)
    for name, g in _density_metrics(n).items():
        for v in [Equator(random_unit(rng, n + 1)) for _ in range(3)] + [Equator(np.eye(n + 1)[0])]:
            assert_allclose(equator_area(g, v, order=8), _ambient_area(g, v, 8), rtol=1e-13, err_msg=name)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_curvature_density_matches_the_ambient_default(n):
    # the bump has no override; a curvature metric's rotated-R density equals the ambient one
    assert BumpMetric._equator_density is MetricField._equator_density
    assert CurvatureMetric._equator_density is not MetricField._equator_density
    v = Equator(random_unit(np.random.default_rng(n), n + 1))
    U = np.vstack([v.basis(), v.normal])
    c, _ = _equator_nodes(n, 6)
    cc = (c.T[:, None] * c.T[None, :]).reshape(n * n, -1)
    for name, g in _density_metrics(n).items():
        assert_allclose(g._equator_density(U, c, cc), MetricField._equator_density(g, U, c, cc), rtol=1e-13,
                        err_msg=name)


def test_funk_radon_of_one_is_the_area():
    rng, stacks = np.random.default_rng(8), np.random.default_rng(9)
    for n in (3, 5):
        for g in _density_metrics(n).values():
            v = random_unit(rng, n + 1)
            assert funk_radon(g, lambda P: np.ones(P.shape[0]), v, order=12) == equator_area(g, v, order=12)
            V = stacks.standard_normal((5, n + 1))
            assert np.array_equal(funk_radon(g, lambda P: np.ones(P.shape[0]), V, order=12),
                                  equator_area(g, V, order=12))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_scans_are_bitwise_the_loop(n):
    # order 32 gives 2,048 nodes per equator for every n (a member evaluates 1,024 of them), so nine
    # equators fill two or three density blocks
    V = np.random.default_rng(60 + n).standard_normal((9, n + 1))
    assert _BLOCK_NODES < 9 * 2048
    f = lambda P: 1.0 + P[:, 0] * P[:, -1]
    for name, g in _density_metrics(n).items():
        areas, transforms = equator_area(g, V, order=32), funk_radon(g, f, V, order=32)
        assert areas.shape == transforms.shape == (9,)
        assert np.array_equal(areas, [equator_area(g, v, order=32) for v in V]), name
        assert np.array_equal(transforms, [funk_radon(g, f, v, order=32) for v in V]), name
        # -v names the same equator
        assert np.array_equal(equator_area(g, -V, order=32), areas), name
        assert np.array_equal(funk_radon(g, f, -V, order=32), transforms), name


@pytest.mark.parametrize("bad", ["nan", "inf", "zero"])
def test_a_degenerate_row_of_a_stack_is_refused(bad):
    g, V = round_metric(3), np.random.default_rng(3).standard_normal((4, 4))
    if bad == "zero":
        V[2] = 0.0
    else:
        V[2, 1] = float(bad)
    for call in (lambda: equator_area(g, V, order=4), lambda: funk_radon(g, lambda P: P[:, 0], V, order=4)):
        with pytest.raises(DegenerateInputError):
            call()


def test_stacked_normals_are_bitwise_the_equators():
    # 1,000 rows over sixteen decades of scale, then the first bad row's own error
    for n in (2, 3, 4, 5):
        rng, g = np.random.default_rng(70 + n), round_metric(n)
        V = rng.standard_normal((1000, n + 1)) * 10.0 ** rng.uniform(-8.0, 8.0, (1000, 1))
        assert np.array_equal(analysis._stack_normals(g, V), [Equator(row).normal for row in V])
        assert np.array_equal(analysis._stack_normals(g, V[7])[0], Equator(V[7]).normal)
        for first, second, message in [("zero", "nan", "nonzero"), ("nan", "zero", "finite")]:
            W = V[:6].copy()
            W[2], W[4] = ({"zero": 0.0, "nan": np.nan}[bad] for bad in (first, second))
            with pytest.raises(DegenerateInputError, match=message):
                analysis._stack_normals(g, W)


def _density_rows(monkeypatch):
    """The nodes of each ``_equator_density`` call, one entry a call."""
    rows, originals = [], {cls: cls._equator_density for cls in (MetricField, CurvatureMetric)}
    for cls, original in originals.items():
        monkeypatch.setattr(cls, "_equator_density",
                            lambda self, U, c, cc, original=original: rows.append(len(c)) or original(self, U, c, cc))
    return rows


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("order", [7, 8, 11])
def test_a_half_node_scan_matches_an_evaluation_at_every_node(n, order, monkeypatch):
    # k = order^2, order, floor(order^(2/3)) or floor(sqrt(order)): odd and even circle halves for each n
    rows = _density_rows(monkeypatch)
    rng, (c, _) = np.random.default_rng(80 + n), _equator_nodes(n, order)
    normals = analysis._stack_normals(round_metric(n), np.vstack([rng.standard_normal((3, n + 1)), np.eye(n + 1)[0]]))
    members = {name: g for name, g in _density_metrics(n).items() if g.even}
    for name, g in members.items():
        whole = copy.copy(g)
        whole.even = False
        half, full = _area_elements(g, normals, order)[3], _area_elements(whole, normals, order)[3]
        assert half.shape == full.shape and np.max(np.abs(half - full) / full) <= 1e-13, name
    assert rows == [len(c) // 2, len(c)] * len(members)


def _full_row_galerkin(mesh, L, gram):
    """Mass and stiffness paired by ``gram`` over every theta row of the mesh: the reference."""
    cols = 2 * mesh.order
    Pv, Pt, Pp, T, dT, index = _harmonic_factors(L, mesh.theta[::cols], mesh.phi[:cols])
    w = (mesh.weights * mesh.rho).reshape(-1, cols)
    Ginv = mesh.induced_inv.reshape(-1, cols, 2, 2)
    mass = gram([(Pv, T, w, Pv, T)], index)
    stiff = gram([
        (Pt, T, w * Ginv[..., 0, 0], Pt, T),
        (Pt, T, w * (Ginv[..., 0, 1] + Ginv[..., 1, 0]), Pp, dT),
        (Pp, dT, w * Ginv[..., 1, 1], Pp, dT),
        (Pv, T, -w * mesh.potential.reshape(-1, cols), Pv, T),
    ], index)
    return mass, stiff


@pytest.mark.parametrize("L, order", [(3, 8), (3, 9), (12, 26), (12, 27)])
def test_a_half_row_assembly_matches_the_full_grid_on_equal_parity_pairs(berger, monkeypatch, L, order):
    rows, original = [], analysis._factor_gram
    monkeypatch.setattr(analysis, "_factor_gram", lambda terms, index, groups: rows.append(len(terms[0][0]))
                        or original(terms, index, groups))
    v = np.array([0.3, -0.5, 0.2, 0.9])
    for g in (berger[0], metric_from_curv(random_positive(3, seed=2)[0])):
        gal = build_jacobi_galerkin(g, v, L, order=order)
        same = (gal.degrees[:, None] - gal.degrees) % 2 == 0
        for got, want in zip((gal.mass, gal.stiffness), _full_row_galerkin(gal.mesh, L, _full_grid_gram)):
            assert np.max(np.abs(got - want)[same]) <= 1e-13 * np.max(np.abs(want))
            assert np.all(got[~same] == 0.0) and np.array_equal(got, got.T)
    assert rows == [(order + 1) // 2] * 4


def _one_group_gram(terms, index):
    """The pairing of one group of every basis column: the whole matrix."""
    return _factor_gram(terms, index, [np.arange(index.size)])[0]


def test_a_bump_scan_and_assembly_are_the_full_paths_bitwise(monkeypatch):
    rows = _density_rows(monkeypatch)
    for n in (2, 3, 4, 5):
        g, V = BumpMetric(n, amplitude=0.5, width=0.3), np.random.default_rng(n).standard_normal((3, n + 1))
        U, c, _, rho = _area_elements(g, analysis._stack_normals(g, V), 11)
        assert rows == [len(c)]
        cc = (c.T[:, None] * c.T).reshape(n * n, -1)
        assert np.array_equal(rho, g._equator_density(U, c, cc))
        rows.clear()
    for L, order in [(3, 9), (12, None)]:
        gal = build_jacobi_galerkin(BumpMetric(), np.array([0.0, 1.0, 1.0, 0.0]), L, order=order)
        for got, want in zip((gal.mass, gal.stiffness), _full_row_galerkin(gal.mesh, L, _one_group_gram)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("entry", ["equator_area", "funk_radon", "equator_mesh", "build_jacobi_galerkin",
                                   "second_fundamental_form"])
def test_a_normal_of_the_wrong_dimension_is_refused(entry):
    g, v = round_metric(3), np.ones(6) / np.sqrt(6.0)
    calls = {
        "equator_area": lambda v: equator_area(g, v, order=4),
        "funk_radon": lambda v: funk_radon(g, lambda P: P[:, 0], v, order=4),
        "equator_mesh": lambda v: equator_mesh(g, v, order=4),
        "build_jacobi_galerkin": lambda v: build_jacobi_galerkin(g, v, L=2, order=4),
        "second_fundamental_form": lambda v: second_fundamental_form(g, v, E0),
    }
    bad = [v, np.eye(3)[0], np.ones((2, 2, 4))]
    if entry in ("equator_area", "funk_radon"):
        bad.append(np.ones((2, 6)))
    else:  # the single-equator entry points take one normal, not a stack
        bad.append(np.eye(4)[:2])
    for normal in bad:
        with pytest.raises(DimensionError, match="entries"):
            calls[entry](normal)


@pytest.mark.parametrize("n", [3, 4])
def test_area_of_an_indefinite_metric_is_refused(n):
    # at n = 4 the Killing tensor of curvature -1 has det > 0 with four negative eigenvalues;
    # the bump's negative rank-one term makes it indefinite through the default path
    v = random_unit(np.random.default_rng(n), n + 1)
    V = np.stack([v, -v, np.eye(n + 1)[0]])
    for g in (CurvatureMetric(constant_curvature(n, -1.0)), BumpMetric(n, amplitude=-5.0, width=10.0)):
        for call in (lambda: equator_area(g, v, order=4), lambda: funk_radon(g, lambda P: P[:, 0], v, order=4),
                     lambda: equator_area(g, V, order=4), lambda: funk_radon(g, lambda P: P[:, 0], V, order=4)):
            with pytest.raises(PositivityError, match="not positive definite"):
                call()


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


MESH_FIELDS = ("normal_ambient", "mean_curv", "potential", "induced", "induced_inv", "rho")


def test_mesh_fields_do_not_depend_on_the_block_size(monkeypatch):
    g = metric_from_curv(random_positive(3, seed=2)[0])
    v = np.array([0.3, -0.5, 0.2, 0.9])
    meshes = []
    rotations = []
    counts = []
    monkeypatch.setattr(analysis, "tmap", lambda fn, items: counts.append(len(items)) or [fn(x) for x in items])
    for block in (64, 32, 22):  # the mesh's 64 evaluated nodes in one, two and three blocks, and all 128 rotations
        monkeypatch.setattr(analysis, "_NODE_BLOCK", block)
        meshes.append(equator_mesh(g, v, order=8))
        rotations.append(so4_jacobi_data(g, meshes[-1])[:2])
    assert counts == [1, 2, 2, 4, 3, 6]
    for mesh, rot in zip(meshes[1:], rotations[1:]):
        for name in MESH_FIELDS:
            assert np.array_equal(getattr(mesh, name), getattr(meshes[0], name)), name
        for a, b in zip(rot, rotations[0]):
            assert np.array_equal(a, b)


def _node_counter(monkeypatch):
    """The nodes each mesh or rotation pass evaluates, one entry a pass."""
    evaluated = []
    monkeypatch.setattr(analysis, "tmap", lambda fn, items: evaluated.append(sum(s.stop - s.start for s in items))
                        or [fn(x) for x in items])
    return evaluated


@pytest.mark.parametrize("order", [8, 13])
@pytest.mark.parametrize("v", [E0, np.array([0.3, -0.5, 0.2, 0.9])])
def test_a_half_mesh_matches_an_evaluation_at_every_node(berger, monkeypatch, order, v):
    # a copy of g that does not state g(-p) = g(p) is meshed at every node: the reference
    evaluated = _node_counter(monkeypatch)
    for g in (metric_from_curv(random_positive(3, seed=2)[0]), berger[0]):
        whole = copy.copy(g)
        whole.even = False
        half, full = equator_mesh(g, v, order), equator_mesh(whole, v, order)
        assert half.even and not full.even and np.array_equal(half.nodes, full.nodes)
        for name in MESH_FIELDS:
            a, b = getattr(half, name), getattr(full, name)
            assert a.flags.c_contiguous and a.shape == b.shape
            scale = 1.0 if name == "mean_curv" else np.max(np.abs(b))
            assert np.max(np.abs(a - b)) <= 1e-13 * scale, name
    assert evaluated == [order**2, 2 * order**2] * 2


def test_a_bump_mesh_is_evaluated_at_every_node_and_solved_whole(monkeypatch):
    evaluated = _node_counter(monkeypatch)
    gal = build_jacobi_galerkin(BumpMetric(), np.array([0.0, 1.0, 1.0, 0.0]), 12)
    assert not gal.mesh.even and evaluated == [gal.mesh.nodes.shape[0]]
    assert np.array_equal(gal.eigenvalues(), _pencil_eigenvalues(gal.stiffness, gal.mass))


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
    values, _ = gal.basis
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


def test_galerkin_refuses_a_mesh_order_below_L_plus_1(monkeypatch):
    # order k integrates cos-theta degree 2k - 1 and longitude degree 2k - 1; degree-L products need 2L
    g = round_metric(3)
    coarse = equator_mesh(g, E0, order=12)
    meshes = []
    monkeypatch.setattr(analysis, "equator_mesh", lambda *a: meshes.append(a) or equator_mesh(*a))
    for L, kwargs in [(12, {"order": 12}), (16, {"order": 16}), (12, {"mesh": coarse}), (3, {"order": 1})]:
        with pytest.raises(DegenerateInputError, match=f"at least {L + 1}"):
            build_jacobi_galerkin(g, E0, L, **kwargs)
    assert meshes == []  # refused before meshing
    assert build_jacobi_galerkin(g, E0, 11, mesh=coarse).mass.shape == (144, 144)


@pytest.fixture(scope="module")
def random_pencils():
    g = metric_from_curv(random_positive(3, seed=7)[0])
    return {L: build_jacobi_galerkin(g, E0, L) for L in (4, 12, 16)}


@pytest.mark.parametrize("L", [12, 16])
def test_parity_split_eigenvalues_match_the_unsplit_solve(random_pencils, L):
    # on an even mesh Y_l(-x) = (-1)^l Y_l(x) leaves the degrees of unequal parity coupled by rounding only
    gal = random_pencils[L]
    odd = gal.degrees % 2 == 1
    for A in (gal.mass, gal.stiffness):
        assert np.max(np.abs(A[np.ix_(odd, ~odd)])) <= 1e-13 * np.max(np.abs(A))
    split, whole = gal.eigenvalues(), _pencil_eigenvalues(gal.stiffness, gal.mass)
    assert gal.mesh.even and np.max(np.abs(split - whole)) <= 1e-13 * np.max(np.abs(whole))


@pytest.mark.parametrize("L", [4, 12, 16])
def test_eigensolve_matches_scipy(random_pencils, L):
    # measured: within 2.2e-15 of max |lambda| at L = 16
    linalg = pytest.importorskip("scipy.linalg")
    gal = random_pencils[L]
    vals = gal.eigenvalues()
    ref = linalg.eigh(gal.stiffness, gal.mass, eigvals_only=True)
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))
    for tol in (1e-3, 1e-6):
        assert (np.sum(vals < -tol), np.sum(np.abs(vals) <= tol)) == (
            np.sum(ref < -tol), np.sum(np.abs(ref) <= tol))


def test_mass_solve_matches_scipy(random_pencils):
    linalg = pytest.importorskip("scipy.linalg")
    gal = random_pencils[16]
    rhs = np.random.default_rng(0).standard_normal((gal.mass.shape[0], 3))
    ref = linalg.solve(gal.mass, rhs, assume_a="pos")
    assert_allclose(gal._mass_solve(rhs), ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("size", [1, 47, 48, 101, 289])
def test_lower_inverse_inverts(size):
    rng = np.random.default_rng(size)
    C = np.tril(rng.standard_normal((size, size))) + size * np.eye(size)
    assert_allclose(_lower_inverse(C) @ C, np.eye(size), rtol=0, atol=1e-14)


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
        assert_allclose(frame @ g.ambient_matrix(p) @ frame.T, np.diag([a, b, c]), atol=1e-9)


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
    for f in (lambda P: P[:, :2], lambda P: np.ones(3), lambda P: 1.0):  # also on a stack of normals
        with pytest.raises(DimensionError, match="f must map the nodes"):
            funk_radon(g, f, np.random.default_rng(0).standard_normal((3, 4)), order=4)
    # odd functions vanish, and the normal coordinate vanishes on the equator
    w = random_unit(rng, 4)
    assert abs(funk_radon(g, lambda P: P @ w, v)) < 1e-12
    assert abs(funk_radon(g, lambda P: (P @ v) ** 2, v)) < 1e-20


def test_funk_radon_weights_by_metric_area(berger):
    g, _ = berger
    rng = np.random.default_rng(8)
    v = random_unit(rng, 4)
    assert_allclose(funk_radon(g, lambda P: np.ones(P.shape[0]), v), equator_area(g, v), atol=1e-12)


def test_mesh_induced_inverse_and_density_are_the_closed_forms(berger):
    # the 2 x 2 adjugate over the determinant, and rho from that determinant
    v = np.array([0.3, -0.5, 0.2, 0.9])
    for g in (berger[0], metric_from_curv(random_positive(3, seed=2)[0]), BumpMetric(amplitude=0.5, width=0.3)):
        mesh = equator_mesh(g, v, order=16)
        assert np.max(np.abs(mesh.induced_inv @ mesh.induced - np.eye(2))) <= 1e-14
        det = np.linalg.det(mesh.induced)
        assert np.max(np.abs(mesh.rho**2 - det) / det) <= 1e-14


def _full_grid_gram(terms, index):
    """Every Legendre x trig pair (l, a) x (k, b), then the basis rows and columns: the reference."""
    S = 0.0
    for U, X, field, V, Y in terms:
        VF = V * ((X.T[:, None, :] * field) @ Y)[:, :, None, :]
        S = S + U.transpose(2, 1, 0) @ VF.reshape(*VF.shape[:2], -1)
    S = S.transpose(1, 0, 2).reshape(S.shape[0] * S.shape[1], -1)[np.ix_(index, index)]
    return 0.5 * (S + S.T)


@pytest.mark.parametrize("L", [0, 3, 12])
def test_galerkin_pairs_only_the_basis_columns(berger, monkeypatch, L):
    import equator_forge.analysis as analysis

    errors, original = [], analysis._factor_gram

    def checked(terms, index, groups):  # each block against the reference's pairings of its columns
        blocks, full = original(terms, index, groups), _full_grid_gram(terms, index)
        pairs = [(got, full[np.ix_(c, c)]) for got, c in zip(blocks, groups) if c.size]
        errors.append(max(np.max(np.abs(got - want)) / np.max(np.abs(want)) for got, want in pairs))
        return blocks

    monkeypatch.setattr(analysis, "_factor_gram", checked)
    build_jacobi_galerkin(berger[0], np.array([0.3, -0.5, 0.2, 0.9]), L)
    assert len(errors) == 2 and max(errors) <= 1e-14


def _fancy_index_gram(terms, index):
    """The pairing with V at the basis columns times a fancy index of the phi sums: the product np.take replaced."""
    S = 0.0
    for U, X, field, V, Y in terms:
        VF = V.reshape(V.shape[0], -1)[:, index] * ((X.T[:, None, :] * field) @ Y)[:, :, index % Y.shape[1]]
        S = S + U.transpose(2, 1, 0) @ VF
    S = S.transpose(1, 0, 2).reshape(-1, S.shape[-1])[index]
    return 0.5 * (S + S.T)


@pytest.mark.parametrize("L", [3, 16])
def test_taken_basis_columns_give_the_fancy_index_pairing_bitwise(berger, monkeypatch, L):
    pairs, original = [], analysis._factor_gram

    def checked(terms, index, groups):  # the blocks, raveled and joined, against the reference's at their columns
        blocks, full = original(terms, index, groups), _fancy_index_gram(terms, index)
        pairs.append(tuple(np.concatenate([A.ravel() for A in parts]) for parts in
                           (blocks, [full[np.ix_(c, c)] for c in groups])))
        return blocks

    monkeypatch.setattr(analysis, "_factor_gram", checked)
    build_jacobi_galerkin(berger[0], np.array([0.3, -0.5, 0.2, 0.9]), L)
    assert len(pairs) == 2 and all(np.array_equal(got, want) for got, want in pairs)


@pytest.fixture(scope="module")
def block_metrics(berger):
    return {"berger": berger[0], "member": metric_from_curv(random_positive(3, seed=2)[0])}


@pytest.mark.parametrize("L", [0, 3, 12, 16])
@pytest.mark.parametrize("order", [None, 27])
@pytest.mark.parametrize("v", [E0, np.array([0.3, -0.5, 0.2, 0.9])], ids=["E0", "tilted"])
def test_an_even_mesh_pairs_parity_blocks_bitwise_as_one_group(block_metrics, monkeypatch, L, order, v):
    # the blocks are the equal-parity pairings of a one-group assembly of the same half rows, bit for bit
    calls, original = [], analysis._factor_gram

    def checked(terms, index, groups):
        calls.append((groups, original(terms, index, groups), original(terms, index, [np.arange(index.size)])[0]))
        return calls[-1][1]

    monkeypatch.setattr(analysis, "_factor_gram", checked)
    for g in block_metrics.values():
        calls.clear()
        gal = build_jacobi_galerkin(g, v, L, order=order)
        odd = gal.degrees % 2
        n_odd = int(np.sum(odd))
        masked = []
        for groups, blocks, one in calls:
            assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(gal.degrees.size))
            assert all(np.unique(odd[c]).size <= 1 for c in groups)
            assert sum(c.size**2 for c in groups) == (gal.degrees.size - n_odd) ** 2 + n_odd**2
            assert all(np.array_equal(B, one[np.ix_(c, c)]) for B, c in zip(blocks, groups))
            masked.append(np.where(odd[:, None] == odd, one, 0.0))
        mass, stiff = masked
        assert gal.mesh.even and np.array_equal(gal.mass, mass) and np.array_equal(gal.stiffness, stiff)
        parity = [np.ix_(c, c) for c in (np.flatnonzero(odd == r) for r in (0, 1)) if c.size]
        want = np.sort(np.concatenate([_pencil_eigenvalues(stiff[b], mass[b]) for b in parity]))
        assert np.array_equal(gal.eigenvalues(), want)


@pytest.mark.parametrize("L", [0, 3, 12])
def test_a_bump_pairs_one_group_of_every_column_bitwise_as_before(monkeypatch, L):
    calls, original = [], analysis._factor_gram

    def checked(terms, index, groups):
        calls.append((groups, original(terms, index, groups), _fancy_index_gram(terms, index)))
        return calls[-1][1]

    monkeypatch.setattr(analysis, "_factor_gram", checked)
    gal = build_jacobi_galerkin(BumpMetric(), np.array([0.0, 1.0, 1.0, 0.0]), L)
    assert not gal.mesh.even and len(calls) == 2
    for (groups, blocks, before), got in zip(calls, (gal.mass, gal.stiffness)):
        assert len(groups) == 1 and np.array_equal(groups[0], np.arange(gal.degrees.size))
        assert np.array_equal(blocks[0], before) and np.array_equal(got, before)

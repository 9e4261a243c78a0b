"""Geometric verification checks, cross-validated against finite differences.

Chart jets are exact, so the FD comparisons here are the independent oracle:
any disagreement beyond FD truncation error would point at the jet algebra or
the Christoffel assembly.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from equator_forge.correspondence import (
    POSITIVITY_MARGIN,
    CurvatureMetric,
    metric_from_curv,
    round_metric,
)
from equator_forge.sphere_geom import _tangent_bases, chart_at, random_equator, random_unit
from equator_forge.tensor_core import (
    CurvatureTensor,
    DegenerateInputError,
    DimensionError,
    GroupElement,
    PositivityError,
    complex_structure,
    constant_curvature,
    curv_dim,
    fubini_study,
    is_positive,
    random_positive,
    tensor_from_basis,
)
from equator_forge.verification import (
    DEFAULT_TOLERANCES,
    BumpMetric,
    _centre_arrays,
    _curvature_arrays,
    _equator_mean_curvatures,
    antipodal_residual,
    christoffels,
    curvature_of_metric,
    cyclic_symmetrization,
    dlog_volume_ratio,
    equivariance_residual,
    fundamental_tensor,
    height_derivatives,
    mean_curvature_equator,
    mean_curvature_sweep,
    metric_equation_residual,
    metric_equation_sweep,
    nabla_bar_g,
    stabilizer_residual,
    verify_metric,
    verify_tensor,
)


@pytest.fixture(scope="module")
def random_metric():
    R, _, _ = random_positive(3, seed=11)
    return R, CurvatureMetric(R)


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature


def test_christoffels_vanish_at_round_chart_center():
    rng = np.random.default_rng(0)
    chart = chart_at(random_unit(rng, 4))
    cd = christoffels(round_metric(3), chart, np.zeros(3))
    assert_allclose(cd.gamma, 0.0, atol=1e-13)
    assert_allclose(cd.gmat, np.eye(3), atol=1e-13)


def test_christoffels_match_finite_differences(random_metric):
    _, g = random_metric
    rng = np.random.default_rng(1)
    chart = chart_at(random_unit(rng, 4))
    x0 = np.array([0.3, -0.2, 0.45])
    cd = christoffels(g, chart, x0)
    assert_allclose(cd.gamma, np.transpose(cd.gamma, (0, 2, 1)), atol=1e-14)

    h = 1e-5
    dg_fd = np.zeros((3, 3, 3))
    for a in range(3):
        da = np.zeros(3)
        da[a] = h
        dg_fd[a] = (g.chart_jet(chart, x0 + da).value - g.chart_jet(chart, x0 - da).value) / (2 * h)
    # the Koszul combination S[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    S = dg_fd + np.transpose(dg_fd, (1, 0, 2)) - np.transpose(dg_fd, (1, 2, 0))
    gamma_fd = 0.5 * np.einsum("kl,ijl->kij", cd.ginv, S)
    assert_allclose(cd.gamma, gamma_fd, atol=1e-7)


@pytest.mark.parametrize("n", [3, 5])
def test_batched_curvature_is_bitwise_the_pointwise_curvature(n):
    # stacked matmuls, gathers and fixed-order sums: a batch rounds as each chart does alone
    g = CurvatureMetric(random_positive(n, seed=13)[0])
    P = np.random.default_rng(90 + n).standard_normal((30, n + 1))
    bases = _tangent_bases(P / np.linalg.norm(P, axis=1, keepdims=True))
    centre = _centre_arrays(g, bases)
    batched = centre + _curvature_arrays(*centre)
    for k, b in enumerate(bases):
        one = _centre_arrays(g, b)
        for got, want in zip(batched, one + _curvature_arrays(*one)):
            assert np.array_equal(got[k], want)
        # and the public pointwise route, through chart_jet
        chart = chart_at(b[0], b[1:])
        cd, dgamma = curvature_of_metric(g, chart, np.zeros(n)), christoffels(g, chart, np.zeros(n)).dgamma
        for got, want in zip(batched, (cd.gmat, cd.ginv, cd.gamma, dgamma, cd.riem, cd.ricci, cd.scalar)):
            assert np.array_equal(got[k], want)


def test_round_curvature_is_constant(random_metric):
    rng = np.random.default_rng(2)
    chart = chart_at(random_unit(rng, 4))
    x = np.array([0.5, 0.2, -0.3])
    cdata = curvature_of_metric(round_metric(3), chart, x)
    assert_allclose(cdata.ricci, 2.0 * cdata.gmat, atol=1e-12)
    assert_allclose(cdata.scalar, 6.0, atol=1e-12)
    # sectional curvature of a random plane is 1
    X = rng.standard_normal(3)
    Y = rng.standard_normal(3)
    num = np.einsum("ijkl,i,j,k,l", cdata.riem, X, Y, X, Y)
    gXX = X @ cdata.gmat @ X
    gYY = Y @ cdata.gmat @ Y
    gXY = X @ cdata.gmat @ Y
    assert_allclose(num / (gXX * gYY - gXY**2), 1.0, atol=1e-12)
    # orientation convention at the center
    center = curvature_of_metric(round_metric(3), chart, np.zeros(3))
    assert_allclose(center.riem[0, 1, 0, 1], 1.0, atol=1e-13)


@pytest.mark.parametrize("m", [2, 3])
def test_fubini_study_scalar_curvature(m):
    # Writing the metric as the canonical variation of the circle-bundle
    # metric over the projective base (fibers scaled by t = 2, then the whole
    # metric by 4^(-1/m)) gives the closed form 4^(1/m) * 4m(m-1): the base
    # contributes 2m(2m+2) and the fiber correction removes 2m t^2.
    expected = 4.0 ** (1.0 / m) * 4.0 * m * (m - 1)
    g = CurvatureMetric(fubini_study(m))
    rng = np.random.default_rng(3)
    vals = []
    for _ in range(4):
        chart = chart_at(random_unit(rng, 2 * m + 2))
        x = 0.4 * random_unit(rng, 2 * m + 1)
        vals.append(curvature_of_metric(g, chart, x).scalar)
    assert_allclose(vals, expected, rtol=1e-9)
    assert np.ptp(vals) < 1e-9


def test_chart_dimension_mismatch_raises():
    chart = chart_at(np.eye(4)[0])
    with pytest.raises(DimensionError):
        CurvatureMetric(fubini_study(2)).chart_jet(chart, np.zeros(3))


# ---------------------------------------------------------------------------
# height functions, Obata identity, mean curvature


def test_round_height_satisfies_obata():
    rng = np.random.default_rng(4)
    g = round_metric(3)
    for _ in range(5):
        p = random_unit(rng, 4)
        v = random_unit(rng, 4)
        h = height_derivatives(g, v, p)
        assert_allclose(h.value, p @ v, atol=1e-14)
        # Hess(height) = -height * g, evaluated at the chart center where g = I
        assert_allclose(h.hess, -(p @ v) * np.eye(3), atol=1e-12)
        assert_allclose(h.laplacian, -3.0 * (p @ v), atol=1e-12)
        assert_allclose(h.grad_norm, np.linalg.norm(v - (p @ v) * p), atol=1e-12)


def test_mean_curvature_vanishes_on_member_metrics(random_metric):
    _, g = random_metric
    assert mean_curvature_sweep(round_metric(3), equators=5, points=6, seed=5) < 1e-12
    assert mean_curvature_sweep(g, equators=10, points=8, seed=5) < 1e-12
    with pytest.raises(DegenerateInputError):
        mean_curvature_equator(g, np.eye(4)[0], np.eye(4)[0])


def test_bump_equators_are_not_minimal():
    g = BumpMetric()
    assert mean_curvature_sweep(g, equators=0, points=0, seed=0, extra_pairs=g.probe_pairs()) > 1e-2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_flat_bumps_chart_jets_are_the_round_metrics(n):
    # amplitude 0 leaves the closed-form round part delta / s - x x^T / s^2 alone
    rng = np.random.default_rng(40 + n)
    bases = _tangent_bases(np.array([random_unit(rng, n + 1) for _ in range(6)]))
    X = 0.7 * rng.standard_normal((6, n))
    for first_order in (True, False):
        got = BumpMetric(n, amplitude=0.0)._chart_jets(bases, X, first_order)
        want = round_metric(n)._chart_jets(bases, X, first_order)
        for name in ("value", "grad") if first_order else ("value", "grad", "hess"):
            assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-14, err_msg=name)


def test_bump_probe_pairs_on_s2_lie_on_their_equator():
    # both tangent vectors at this centre pass the probe's |w . d| < 0.9 filter, yet on S^2 they span one line
    g = BumpMetric(2, 0.1, 0.04, center=[-0.3633046792124539, 0.023497237666401986, -0.9313740332886593],
                   direction=[-0.540420892887301, -0.8196324756084776, 0.19012591474812277])
    pairs = g.probe_pairs()
    assert len(pairs) == 1
    assert np.max(np.abs(pairs[0][1] @ pairs[0][0])) < 1e-12
    assert verify_metric(g).checks["mean_curvature"].residual == pytest.approx(0.203, abs=1e-3)


def test_bump_chart_jet_matches_ambient_pullback():
    g = BumpMetric(amplitude=0.3, width=0.5)
    rng = np.random.default_rng(6)
    chart = chart_at(random_unit(rng, 4))
    x0 = np.array([0.2, -0.4, 0.1])
    jet = g.chart_jet(chart, x0)
    h = 1e-6
    J = np.zeros((3, 4))
    for a in range(3):
        da = np.zeros(3)
        da[a] = h
        J[a] = (chart.point(x0 + da) - chart.point(x0 - da)) / (2 * h)
    direct = J @ g.ambient_matrix(chart.point(x0)) @ J.T
    assert_allclose(direct, jet.value, atol=1e-9)
    # first derivatives against finite differences of the jet values
    h = 1e-5
    for a in range(3):
        da = np.zeros(3)
        da[a] = h
        fd = (g.chart_jet(chart, x0 + da).value - g.chart_jet(chart, x0 - da).value) / (2 * h)
        assert_allclose(jet.grad[a], fd, atol=1e-8)


# ---------------------------------------------------------------------------
# fundamental tensor and the metric equation


def test_fundamental_tensor_properties(random_metric):
    _, g = random_metric
    rng = np.random.default_rng(7)
    chart = chart_at(random_unit(rng, 4))
    x = np.array([0.25, 0.4, -0.15])
    T = fundamental_tensor(g, chart, x)
    cd = christoffels(g, chart, x)

    # symmetric in the first two slots
    assert_allclose(T, np.transpose(T, (1, 0, 2)), atol=1e-12)

    # cyclic symmetrization is half that of the round derivative of g
    nb = nabla_bar_g(g, chart, x)
    assert_allclose(cyclic_symmetrization(T), 0.5 * cyclic_symmetrization(nb), atol=1e-6)
    assert np.max(np.abs(cyclic_symmetrization(T) - 0.5 * cyclic_symmetrization(nb))) < 1e-10

    # trace in the last two slots is the differential of log(psi)
    tr23 = np.einsum("jk,ijk->i", cd.ginv, T)
    assert_allclose(tr23, dlog_volume_ratio(g, chart, x), atol=1e-10)

    # scalar contraction agrees with the array contraction
    X, Y, Z = rng.standard_normal((3, 3))
    assert_allclose(
        fundamental_tensor(g, chart, x, X, Y, Z), np.einsum("ijk,i,j,k", T, X, Y, Z), atol=1e-12
    )
    with pytest.raises(DegenerateInputError):
        fundamental_tensor(g, chart, x, X, Y, None)


def test_fundamental_tensor_height_identities(random_metric):
    _, g = random_metric
    rng = np.random.default_rng(8)
    v = random_unit(rng, 4)
    # a point on the equator of v
    p = rng.standard_normal(4)
    p -= (p @ v) * v
    p /= np.linalg.norm(p)
    h = height_derivatives(g, v, p)
    chart = h.chart
    T = fundamental_tensor(g, chart, np.zeros(3))
    cd = christoffels(g, chart, np.zeros(3))
    grad_vec = h.grad_norm * h.normal

    # basis of the directions tangent to the equator: dV(X) = 0
    _, _, Vt = np.linalg.svd(h.grad[None, :])
    for X in Vt[1:]:
        for Y in Vt[1:]:
            lhs = np.einsum("ijk,i,j,k", T, X, Y, grad_vec)
            rhs = -X @ h.hess @ Y
            assert_allclose(lhs, rhs, atol=1e-11)

    tr12 = np.einsum("ij,ijk->k", cd.ginv, T)
    assert_allclose(tr12 @ grad_vec, -h.laplacian, atol=1e-11)


def test_metric_equation_vanishes_on_members(random_metric):
    _, g = random_metric
    rng = np.random.default_rng(9)
    chart = chart_at(random_unit(rng, 4))
    assert metric_equation_residual(round_metric(3), chart, np.array([0.3, 0.1, -0.2])) < 1e-12
    assert metric_equation_sweep(g, samples=20, seed=9) < 1e-10


def test_metric_equation_fails_on_bump():
    assert metric_equation_sweep(BumpMetric(), samples=30, seed=3) > 1e-6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_metric_equation_sweep_is_the_max_of_pointwise_residuals(n):
    # the batched sweep draws all 30 centres, then their radii, then their directions, as here one chart at a time
    for g in (CurvatureMetric(random_positive(n, seed=0)[0]), BumpMetric(n=n)):
        rng = np.random.default_rng(0)
        P, radii, X = rng.standard_normal((30, n + 1)), 0.8 * rng.uniform(size=30) ** (1 / n), rng.standard_normal((30, n))
        residuals = [metric_equation_residual(g, chart_at(p / np.linalg.norm(p)), r * (x / np.linalg.norm(x)))
                     for p, r, x in zip(P, radii, X)]
        assert abs(metric_equation_sweep(g, samples=30, seed=0) - max(residuals)) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_round_jets_match_closed_form_round_connection(n):
    # the generic jet pipeline on round jets, off the chart centre, against the
    # closed-form round Christoffel symbols and volume form
    rng = np.random.default_rng(n)
    chart = chart_at(random_unit(rng, n + 1))
    x = np.array([0.3, -0.2, 0.1, 0.25, -0.15])[:n]
    g = round_metric(n)
    assert np.max(np.abs(fundamental_tensor(g, chart, x))) < 1e-12
    assert np.max(np.abs(dlog_volume_ratio(g, chart, x))) < 1e-12


# ---------------------------------------------------------------------------
# equivariance, stabilizers, antipodal symmetry


def test_equivariance_under_projective_action(random_metric):
    R, _ = random_metric
    rng = np.random.default_rng(10)
    for _ in range(3):
        M = np.eye(4) + 0.4 * rng.standard_normal((4, 4))
        assert equivariance_residual(R, GroupElement(M), samples=6, seed=10) < 1e-10


def _unitary_real_form(U: np.ndarray) -> np.ndarray:
    """Real (2k x 2k) form of a complex unitary, interleaving re/im coordinates."""
    k = U.shape[0]
    out = np.zeros((2 * k, 2 * k))
    out[0::2, 0::2] = U.real
    out[1::2, 1::2] = U.real
    out[1::2, 0::2] = U.imag
    out[0::2, 1::2] = -U.imag
    return out


def test_fubini_study_stabilizer():
    R = fubini_study(2)
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    U, _ = np.linalg.qr(Z)
    T = _unitary_real_form(U)
    J = complex_structure(2)
    assert_allclose(T @ T.T, np.eye(6), atol=1e-12)
    assert_allclose(T @ J, J @ T, atol=1e-12)
    assert stabilizer_residual(R, GroupElement(T)) < 1e-12

    # an orthogonal map that scrambles the complex pairing moves the tensor
    P = np.eye(6)[[0, 2, 1, 3, 4, 5]]
    assert stabilizer_residual(R, GroupElement(P)) > 1e-2


def test_antipodal_map_is_isometry_of_members(random_metric):
    _, g = random_metric
    assert antipodal_residual(g, samples=30, seed=12) < 1e-12
    assert antipodal_residual(BumpMetric(), samples=40, seed=12) > 1e-12


def _flat_plane_tensor(n):
    """The round tensor less w (x) w for w = e_0 ^ e_1: curvature 0 on that plane, 1 on planes orthogonal to it."""
    w = np.zeros((n + 1, n + 1))
    w[0, 1], w[1, 0] = 1.0, -1.0
    return CurvatureTensor(constant_curvature(n).coeffs - w[:, :, None, None] * w[None, None])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_antipodal_map_is_an_isometry_of_every_curvature_metric_bitwise(n):
    # k_R(p) = R(p, ., p, .) is quadratic in p for any R, so g(-p) = g(p) is an identity of the construction,
    # which the half Jacobi mesh relies on (CurvatureMetric.even), and not a test of membership
    flat = _flat_plane_tensor(n)
    assert not is_positive(flat).positive
    with pytest.raises(PositivityError):
        metric_from_curv(flat)
    for g in (CurvatureMetric(random_positive(n, seed=n)[0]), metric_from_curv(flat, override=True)):
        assert g.even and antipodal_residual(g) == 0.0
    assert not BumpMetric(n).even


# ---------------------------------------------------------------------------
# bundled reports


def test_verify_tensor_report(random_metric):
    R, _ = random_metric
    report = verify_tensor(R, seed=0, equators=6, points=5)
    assert report.passed
    assert set(report.checks) == {
        "symmetry",
        "positivity",
        "roundtrip",
        "killing_constancy",
        "mean_curvature",
        "metric_equation",
        "equivariance",
        "antipodal",
    }
    payload = report.as_dict()
    json.dumps(payload)  # must be serializable
    assert payload["pass"] is True
    assert payload["checks"]["mean_curvature"]["residual"] <= 1e-6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_roundtrip_counts_its_polarization_points(n):
    # R2 is built from k at the (n+1)(n+2)/2 points e_a and (e_a + e_c)/sqrt 2 and at no others
    R, _, _ = random_positive(n, seed=30 + n)
    check = verify_tensor(R, seed=0, equators=2, points=2).checks["roundtrip"]
    assert check.passed
    assert check.samples == (n + 1) * (n + 2) // 2


def test_verify_tensor_short_circuits_on_indefinite_input(random_metric):
    R, _ = random_metric
    report = verify_tensor(CurvatureTensor(-R.coeffs), seed=0)
    assert not report.passed
    assert set(report.checks) == {"symmetry", "positivity"}
    assert not report.checks["positivity"].passed


def test_verify_tensor_stops_on_a_negative_plane_with_is_positives_residual():
    # R0 + 1.05 U / -lower(U): the least sectional curvature is -0.05, and no 4-form on the
    # ascent decides positivity, so the residual comes from is_positive's own certificate
    u = np.random.default_rng(1).standard_normal(curv_dim(5))
    U = tensor_from_basis(5, u / np.linalg.norm(u))
    R = CurvatureTensor(constant_curvature(5).coeffs + 1.05 / -is_positive(U).lower * U.coeffs)
    report = verify_tensor(R, seed=0)
    assert list(report.checks) == ["symmetry", "positivity"]
    assert report.checks["positivity"].residual == POSITIVITY_MARGIN - is_positive(R).lower


def test_verify_metric_flags_bump():
    g = BumpMetric()
    report = verify_metric(g, seed=0, equators=5, points=5)
    assert not report.passed
    assert not report.checks["killing_constancy"].passed
    assert not report.checks["mean_curvature"].passed
    assert not report.checks["metric_equation"].passed
    assert not report.checks["antipodal"].passed


def test_verify_metric_aims_a_bumps_sweep_at_the_bump():
    # 25 seeded points miss the bump; its probe pairs walk equators through it
    report = verify_metric(BumpMetric(), seed=0, equators=5, points=5)
    assert report.checks["mean_curvature"].residual > 1e-2


@pytest.mark.parametrize("tolerances", [{"antipodal": -1e-30}, {"antipodel": 0.0}, {"roundtrip": float("nan")},
                                        {"equivariance": float("inf")}])
def test_a_report_refuses_a_bad_tolerance(random_metric, tolerances):
    # a negative tolerance would fail a member, and a misspelt check would be ignored
    R, g = random_metric
    for run, subject in ((verify_tensor, R), (verify_metric, g)):
        with pytest.raises(ValueError, match=r"^tolerances\['\w+'\] (must be finite and >= 0|names no check)"):
            run(subject, tolerances=tolerances)


def test_equivariance_of_a_stack_is_the_worst_element(random_metric):
    # one stacked pass, each element's residual bitwise its own pass
    R, _ = random_metric
    rng = np.random.default_rng(12)
    Ts = [GroupElement(np.eye(4) + 0.3 * rng.standard_normal((4, 4))) for _ in range(4)]
    assert equivariance_residual(R, Ts, samples=8, seed=3) == max(
        equivariance_residual(R, T, samples=8, seed=3) for T in Ts)


@pytest.mark.parametrize("subject", ["tensor", "metric"])
def test_report_checks_follow_the_tolerance_order(random_metric, subject):
    R, g = random_metric
    report = (verify_tensor(R, seed=3, equators=2, points=2) if subject == "tensor"
              else verify_metric(g, seed=3, equators=2, points=2))
    expected = list(DEFAULT_TOLERANCES) if subject == "tensor" else [
        "killing_constancy", "mean_curvature", "metric_equation", "antipodal"]
    assert list(report.checks) == expected
    assert list(report.as_dict()["checks"]) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equivariance_and_antipodal_samples_are_the_random_unit_draws(n, monkeypatch):
    # one standard_normal draw over its row norms: bitwise a loop of random_unit calls
    import equator_forge.verification as verification

    R = random_positive(n, seed=3)[0]
    T = GroupElement(np.eye(n + 1) + 0.1 * np.random.default_rng(n).standard_normal((n + 1, n + 1)))
    seen = []
    original = verification._tangent_bases
    monkeypatch.setattr(verification, "_tangent_bases", lambda P: seen.append(P) or original(P))
    for seed, samples in [(0, 1), (n, 8), (7, 200)]:
        rng = np.random.default_rng(seed)
        want = np.array([random_unit(rng, n + 1) for _ in range(samples)])
        seen.clear()
        equivariance_residual(R, T, samples=samples, seed=seed)
        antipodal_residual(CurvatureMetric(R), samples=samples, seed=seed)
        assert len(seen) == 2 and all(np.array_equal(P, want) for P in seen)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_residuals_are_the_separate_sweeps_bitwise(n):
    # verify runs both sweeps on one pass of frames and 1-jets, and the antipodal map on one ambient call
    R, seed = random_positive(n, seed=2)[0], 7
    subjects = [(CurvatureMetric(R), verify_tensor(R, seed=seed))]
    subjects += [(g, verify_metric(g, seed=seed)) for g in (BumpMetric(n), BumpMetric(n, width=4.0))]
    rng = np.random.default_rng(seed + 6)
    P = np.array([random_unit(rng, n + 1) for _ in range(40)])
    E = _tangent_bases(P)[:, 1:]
    for g, report in subjects:
        pairs = g.probe_pairs() if isinstance(g, BumpMetric) else ()
        residual = {name: check.residual for name, check in report.checks.items()}
        assert residual["mean_curvature"] == mean_curvature_sweep(g, seed=seed + 2, extra_pairs=pairs)
        assert residual["metric_equation"] == metric_equation_sweep(g, samples=30, seed=seed + 3)
        assert residual["antipodal"] == antipodal_residual(g, samples=40, seed=seed + 6) == np.max(
            np.abs(E @ (g.ambient_matrices(P) - g.ambient_matrices(-P)) @ np.swapaxes(E, 1, 2)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sweep_samples_are_the_per_equator_draws(n, monkeypatch):
    # one draw of normals and one of points: bitwise the random_equator loop and per-normal points
    import equator_forge.verification as verification

    g = CurvatureMetric(random_positive(n, seed=3)[0])
    seen = []
    original = verification._equator_mean_curvatures
    monkeypatch.setattr(verification, "_equator_mean_curvatures",
                        lambda g, V, P: seen.append((V, P)) or original(g, V, P))
    for seed, equators, points in [(0, 1, 1), (n, 5, 7), (11, 20, 10)]:
        rng = np.random.default_rng(seed)
        normals = [random_equator(rng, n).normal for _ in range(equators)]
        V, P = [], []
        for v in normals:
            W = rng.standard_normal((points, n + 1))
            W -= np.outer(W @ v, v)
            V.append(np.broadcast_to(v, W.shape))
            P.append(W / np.linalg.norm(W, axis=1, keepdims=True))
        V, P = np.concatenate(V), np.concatenate(P)
        seen.clear()
        worst = mean_curvature_sweep(g, equators=equators, points=points, seed=seed)
        assert np.array_equal(seen[0][0], V) and np.array_equal(seen[0][1], P)
        assert worst == np.max(np.abs(original(g, V, P)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equator_mean_curvatures_do_not_depend_on_array_layout(n):
    # the sweep's (V, P) in C order and in Fortran order: the same values, so the same bits
    g = CurvatureMetric(random_positive(n, seed=2)[0])
    rng = np.random.default_rng(n)
    V = np.repeat(np.array([random_equator(rng, n).normal for _ in range(6)]), 7, axis=0)
    W = rng.standard_normal(V.shape)
    W -= np.sum(W * V, axis=1, keepdims=True) * V
    P = W / np.linalg.norm(W, axis=1, keepdims=True)
    H = _equator_mean_curvatures(g, V, P)
    assert np.array_equal(_equator_mean_curvatures(g, np.asfortranarray(V), np.asfortranarray(P)), H)
    assert np.array_equal(_equator_mean_curvatures(g, np.asfortranarray(V), P), H)

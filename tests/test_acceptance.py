"""End-to-end acceptance run.

Each test covers one numbered criterion, exercises it at the stated workload
and tolerance, and prints a single ``criterion N: PASS/FAIL`` line (visible in
the -rA summary).  The criteria are asserted after printing, so the line
appears even when a criterion fails.
"""

import time

import numpy as np
import pytest

from equator_forge.analysis import (
    build_jacobi_galerkin,
    equator_area,
    funk_radon,
    jacobi_apply_field,
    left_invariant_metric,
    so4_jacobi_data,
)
from equator_forge.correspondence import (
    CurvatureMetric,
    curv_from_killing,
    killing_constancy_residual,
    killing_from_curv,
    killing_from_metric,
    metric_from_curv,
    round_metric,
)
from equator_forge.sphere_geom import chart_at, random_equator, random_unit, sphere_quadrature
from equator_forge.tensor_core import (
    CurvatureTensor,
    GroupElement,
    constant_curvature,
    curv_basis,
    curv_dim,
    fubini_study,
    random_positive,
)
from equator_forge.verification import (
    BumpMetric,
    antipodal_residual,
    christoffels,
    curvature_of_metric,
    cyclic_symmetrization,
    dlog_volume_ratio,
    equivariance_residual,
    fundamental_tensor,
    height_derivatives,
    mean_curvature_sweep,
    nabla_bar_g,
)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="module")
def random3_battery():
    return [random_positive(3, seed=300 + i)[0] for i in range(10)]


@pytest.fixture(scope="module")
def spectrum_subjects():
    """The two non-round metrics probed at L=12/16, with shared L=12 galerkins."""
    R_rand = random_positive(3, seed=88)[0]
    near = CurvatureTensor(0.7 * constant_curvature(3, 1.0).coeffs + 0.3 * R_rand.coeffs)
    berger_g, _ = left_invariant_metric(1.0, 1.0, 4.0)
    rng = np.random.default_rng(77)
    subjects = {}
    for name, g in [("near-round", CurvatureMetric(near)), ("left-invariant(1,1,4)", berger_g)]:
        v = random_unit(rng, 4)
        subjects[name] = (g, v, build_jacobi_galerkin(g, v, L=12))
    return subjects


def test_criterion_1_curvature_space_dimensions():
    counts = {n: len(curv_basis(n)) for n in (2, 3, 4)}
    ok = counts == {2: 6, 3: 20, 4: 50} and all(
        counts[n] == curv_dim(n) == n * (n + 2) * (n + 1) ** 2 // 12 for n in counts
    )
    assert _report(1, ok, f"basis sizes {counts} match n(n+2)(n+1)^2/12")


def test_criterion_2_roundtrip_through_metric():
    t0 = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4, 5):
        for i in range(20):
            R = random_positive(n, seed=100 * n + i)[0]
            g = metric_from_curv(R, override=True)
            k = killing_from_metric(g)
            R2 = curv_from_killing(k, seed=i, check_constancy=False)
            worst = max(worst, float(np.max(np.abs(R2.coeffs - R.coeffs))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    assert _report(
        2, ok, f"max coefficient error {worst:.2e} over 20 tensors per n in 2..5 ({elapsed:.1f}s)"
    )


def test_criterion_3_minimality_and_negative_control(random3_battery):
    t0 = time.monotonic()

    def sweep(item):
        idx, R = item
        g = metric_from_curv(R, override=True)
        return mean_curvature_sweep(g, equators=50, points=20, seed=idx)

    member_worst = max([sweep(item) for item in enumerate(random3_battery)])
    bump = BumpMetric()
    control = mean_curvature_sweep(
        bump, equators=10, points=10, seed=0, extra_pairs=bump.probe_pairs()
    )
    elapsed = time.monotonic() - t0
    ok = member_worst <= 1e-6 and control > 1e-2 and elapsed < 120.0
    assert _report(
        3,
        ok,
        f"members max |H| {member_worst:.2e} (50 equators x 20 points x 10 tensors), "
        f"bump control {control:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_4_complex_projective_values():
    rng = np.random.default_rng(4)
    details = []
    ok = True

    # volume ratio D = 4^(1/m), exactly 2 at m = 2
    d_worst = 0.0
    for m in (2, 3):
        g = CurvatureMetric(fubini_study(m))
        P = np.array([random_unit(rng, 2 * m + 2) for _ in range(20)])
        d_worst = max(d_worst, float(np.max(np.abs(g.D_values(P) - 4.0 ** (1.0 / m)))))
    ok &= d_worst <= 1e-10
    details.append(f"|D - 4^(1/m)| {d_worst:.1e}")

    # scalar curvature of the generated metric at m = 2: required to vanish
    g2 = CurvatureMetric(fubini_study(2))
    scal2 = [
        curvature_of_metric(g2, chart_at(random_unit(rng, 6)), 0.3 * random_unit(rng, 5)).scalar
        for _ in range(100)
    ]
    scal2_worst = float(np.max(np.abs(scal2)))
    ok &= scal2_worst <= 1e-5
    details.append(f"max |scal| at m=2 {scal2_worst:.6g} (required <= 1e-5)")

    # and bounded away from zero at m = 3
    g3 = CurvatureMetric(fubini_study(3))
    scal3 = [
        curvature_of_metric(g3, chart_at(random_unit(rng, 8)), 0.3 * random_unit(rng, 7)).scalar
        for _ in range(10)
    ]
    scal3_min = float(np.min(np.abs(scal3)))
    ok &= scal3_min > 1e-2
    details.append(f"min |scal| at m=3 {scal3_min:.4g}")

    assert _report(4, ok, "; ".join(details))


def test_criterion_5_equivariance_and_antipodal(random3_battery):
    rng = np.random.default_rng(5)
    eq_worst = 0.0
    for i in range(20):
        R = random_positive(3, seed=500 + i)[0]
        T = GroupElement(np.eye(4) + 0.35 * rng.standard_normal((4, 4)))
        eq_worst = max(eq_worst, equivariance_residual(R, T, samples=10, seed=i))

    battery = [
        round_metric(3),
        CurvatureMetric(fubini_study(2)),
        left_invariant_metric(1.0, 1.0, 4.0)[0],
        left_invariant_metric(1.0, 2.0, 3.0)[0],
    ] + [CurvatureMetric(R) for R in random3_battery[:5]]
    anti_worst = max(antipodal_residual(g, samples=40, seed=i) for i, g in enumerate(battery))

    ok = eq_worst <= 1e-8 and anti_worst <= 1e-12
    assert _report(
        5,
        ok,
        f"equivariance {eq_worst:.2e} over 20 (R, T) pairs; antipodal {anti_worst:.2e} "
        f"over {len(battery)} metrics",
    )


def test_criterion_6_killing_constancy(random3_battery):
    battery = [
        constant_curvature(3, 1.0),
        fubini_study(2),
        left_invariant_metric(1.0, 1.0, 4.0)[1],
        left_invariant_metric(1.0, 2.0, 3.0)[1],
        random_positive(2, seed=62)[0],
        random_positive(4, seed=64)[0],
    ] + random3_battery[:4]

    def residual(item):
        i, R = item
        k = killing_from_curv(R, override=True)
        return killing_constancy_residual(k, circles=100, samples=100, seed=600 + i)

    worst = max([residual(item) for item in enumerate(battery)])
    ok = worst <= 1e-10
    assert _report(6, ok, f"max deviation {worst:.2e} along 100 circles per tensor ({len(battery)} tensors)")


def test_criterion_7_equal_areas(random3_battery):
    metrics = {
        "round": round_metric(3),
        "left-invariant(1,1,4)": left_invariant_metric(1.0, 1.0, 4.0)[0],
        "left-invariant(1,2,3)": left_invariant_metric(1.0, 2.0, 3.0)[0],
    }
    for i in range(3):
        metrics[f"random-{i}"] = CurvatureMetric(random3_battery[i])

    rng = np.random.default_rng(7)
    spreads = {}
    round_err = None
    for name, g in metrics.items():
        normals = np.array([random_equator(rng, 3).normal for _ in range(100)])
        areas = equator_area(g, normals, order=32)
        spreads[name] = float(np.ptp(areas) / areas.mean())
        if name == "round":
            round_err = float(np.max(np.abs(areas - 4.0 * np.pi)))
    worst = max(spreads.values())
    ok = worst <= 1e-5 and round_err <= 1e-8
    assert _report(
        7,
        ok,
        f"relative spread <= {worst:.2e} over 100 equators x {len(metrics)} metrics; "
        f"round |area - 4pi| {round_err:.2e}",
    )


def test_criterion_8_index_and_nullity(spectrum_subjects):
    t0 = time.monotonic()
    ok = True
    details = []

    gal8 = build_jacobi_galerkin(round_metric(3), np.eye(4)[0], L=8)
    vals = gal8.eigenvalues()
    n_neg = int(np.sum(vals < -1e-6))
    n_null = int(np.sum(np.abs(vals) <= 1e-6))
    ok &= n_neg == 1 and abs(vals[0] + 2.0) <= 1e-4 and n_null == 3
    details.append(f"round L=8: lowest {vals[0]:.6f}, counts ({n_neg}, {n_null})")

    for name, (g, v, gal12) in spectrum_subjects.items():
        counts = []
        for gal in (gal12, build_jacobi_galerkin(g, v, L=16)):
            vals = gal.eigenvalues()
            counts.append((int(np.sum(vals < -1e-3)), int(np.sum(np.abs(vals) <= 1e-3))))
        ok &= counts[0] == (1, 3) and counts[1] == (1, 3)
        details.append(f"{name}: L=12 {counts[0]}, L=16 {counts[1]}")

    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    assert _report(8, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_9_rotation_jacobi_functions(spectrum_subjects):
    worst = 0.0
    for name, (g, v, gal12) in spectrum_subjects.items():
        etas, grads, _ = so4_jacobi_data(g, gal12.mesh)
        for j in range(3):
            out = jacobi_apply_field(g, v, etas[j], grads[j], galerkin=gal12)
            worst = max(worst, float(np.max(np.abs(out))))
    ok = worst <= 1e-3
    assert _report(9, ok, f"sup |J eta| {worst:.2e} over 3 rotation fields x 2 metrics at L=12")


def test_criterion_10_radon_average():
    g = round_metric(3)
    rule = sphere_quadrature(3, 24)
    rng_eq = np.random.default_rng(10)
    normals = np.array([random_equator(rng_eq, 3).normal for _ in range(1000)])
    factor = 4.0 * np.pi / (2.0 * np.pi**2)

    worst = 0.0
    for trial in range(5):
        rng = np.random.default_rng(1000 + trial)
        b0 = 1.0 + rng.uniform()
        C = rng.standard_normal((4, 4))
        C = 0.5 * (C + C.T)
        C /= np.linalg.norm(C)

        def f(P, b0=b0, C=C):
            return b0 + np.einsum("ni,ij,nj->n", P, C, P)

        transforms = funk_radon(g, f, normals, order=8)
        expected = factor * rule.integrate(f)
        worst = max(worst, abs(float(np.mean(transforms)) - expected) / abs(expected))
    ok = worst <= 0.01
    assert _report(
        10, ok, f"max relative error {worst:.3%} over 5 functions x 1000 uniform equators"
    )


def test_criterion_11_obata_and_fundamental_tensor():
    rng = np.random.default_rng(11)
    g_round = round_metric(3)
    obata_worst = 0.0
    for _ in range(100):
        p = random_unit(rng, 4)
        v = random_unit(rng, 4)
        h = height_derivatives(g_round, v, p)
        obata_worst = max(obata_worst, float(np.max(np.abs(h.hess + h.value * np.eye(3)))))

    metrics = [metric_from_curv(random_positive(3, seed=1100 + i)[0], override=True) for i in range(2)]
    prop_worst = np.zeros(4)

    def chart_sample(item):
        i, g = item
        local = np.random.default_rng(2000 + i)
        chart = chart_at(random_unit(local, 4))
        x = 0.7 * local.uniform() ** (1 / 3) * random_unit(local, 3)
        T = fundamental_tensor(g, chart, x)
        ginv = christoffels(g, chart, x).ginv
        p1 = float(np.max(np.abs(T - np.transpose(T, (1, 0, 2)))))
        p2 = float(np.max(np.abs(cyclic_symmetrization(T) - 0.5 * cyclic_symmetrization(nabla_bar_g(g, chart, x)))))
        p3 = float(np.max(np.abs(np.einsum("jk,ijk->i", ginv, T) - dlog_volume_ratio(g, chart, x))))
        return p1, p2, p3

    def equator_sample(item):
        i, g = item
        local = np.random.default_rng(3000 + i)
        v = random_unit(local, 4)
        p = local.standard_normal(4)
        p -= (p @ v) * v
        p /= np.linalg.norm(p)
        h = height_derivatives(g, v, p)
        T = fundamental_tensor(g, h.chart, np.zeros(3))
        ginv = christoffels(g, h.chart, np.zeros(3)).ginv
        grad_vec = h.grad_norm * h.normal
        _, _, Vt = np.linalg.svd(h.grad[None, :])
        worst = 0.0
        for X in Vt[1:]:
            for Y in Vt[1:]:
                lhs = np.einsum("ijk,i,j,k", T, X, Y, grad_vec)
                worst = max(worst, abs(lhs + X @ h.hess @ Y))
        tr12 = np.einsum("ij,ijk->k", ginv, T)
        worst = max(worst, abs(tr12 @ grad_vec + h.laplacian))
        return worst

    jobs = [(i, metrics[i % 2]) for i in range(500)]
    for job in jobs:
        prop_worst[:3] = np.maximum(prop_worst[:3], chart_sample(job))
    prop_worst[3] = max([equator_sample(job) for job in jobs])

    ok = (
        obata_worst <= 1e-10
        and prop_worst[0] <= 1e-10
        and prop_worst[1] <= 1e-6
        and prop_worst[2] <= 1e-10
        and prop_worst[3] <= 1e-10
    )
    assert _report(
        11,
        ok,
        f"Obata {obata_worst:.2e} at 100 points; tensor properties 1-4 residuals "
        f"{prop_worst[0]:.1e}/{prop_worst[1]:.1e}/{prop_worst[2]:.1e}/{prop_worst[3]:.1e} "
        "on 1000 samples",
    )

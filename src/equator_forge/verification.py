"""Differential-geometric verification of the minimal-equator property.

Given a metric produced by the correspondence, this module checks the
geometry the construction promises: every equator has vanishing mean
curvature, the normalized tensor is constant along great circles, the metric
satisfies the first-order equation characterizing the family, the assignment
is equivariant under the projective action, and the antipodal map is an
isometry.  All derivatives come from exact chart jets; finite differences are
only used in the test suite as an independent cross-check.

Index conventions: ``gamma[k, i, j]`` is the Christoffel symbol with upper
index k; ``dg[a, i, j]`` is the a-derivative of g_ij; the lowered curvature
``riem[i, j, k, l]`` pairs slot k with the derivative direction i so that the
round sphere has ``riem[0, 1, 0, 1] = +1`` at a chart center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correspondence import (
    CurvatureMetric,
    MetricField,
    curv_from_killing,
    killing_constancy_residual,
    killing_from_curv,
    killing_from_metric,
    metric_derivatives,
    metric_from_curv,
    round_metric,
)
from .jets import MatrixJet, ScalarJet
from .parallel import tmap
from .sphere_geom import (
    GnomonicChart,
    chart_at,
    dphi_T,
    phi_T,
    random_equator,
    random_unit,
    tangent_frame,
)
from .tensor_core import (
    CurvatureTensor,
    DegenerateInputError,
    DimensionError,
    GroupElement,
    act,
    sec_min_estimate,
    symmetry_residuals,
)

__all__ = [
    "ChristoffelData",
    "christoffels",
    "CurvatureData",
    "curvature_of_metric",
    "HeightData",
    "height_derivatives",
    "mean_curvature_equator",
    "fundamental_tensor",
    "cyclic_symmetrization",
    "nabla_bar_g",
    "dlog_volume_ratio",
    "metric_equation_residual",
    "equivariance_residual",
    "stabilizer_residual",
    "antipodal_residual",
    "BumpMetric",
    "mean_curvature_sweep",
    "metric_equation_sweep",
    "CheckResult",
    "VerificationReport",
    "verify_tensor",
    "verify_metric",
]


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature in a chart


@dataclass(frozen=True)
class ChristoffelData:
    """Christoffel symbols of a metric at one chart point, with the metric data."""

    chart: GnomonicChart
    x: np.ndarray
    gmat: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray  # gamma[k, i, j]
    dgamma: np.ndarray  # dgamma[m, k, i, j] = d_m gamma[k, i, j]


def _christoffel_arrays(gmat, dg, d2g):
    ginv = np.linalg.inv(gmat)
    S = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    # S[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    gamma = 0.5 * np.einsum("kl,ijl->kij", ginv, S)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    dS = d2g + np.transpose(d2g, (0, 2, 1, 3)) - np.transpose(d2g, (0, 2, 3, 1))
    # dS[m, i, j, l] = d_m S[i, j, l]
    dgamma = 0.5 * (
        np.einsum("mkl,ijl->mkij", dginv, S) + np.einsum("kl,mijl->mkij", ginv, dS)
    )
    return ginv, gamma, dgamma


def christoffels(g: MetricField, chart: GnomonicChart, x) -> ChristoffelData:
    """Christoffel symbols (and their first derivatives) of g at chart point x."""
    x = np.asarray(x, dtype=float)
    gmat, dg, d2g = metric_derivatives(g, chart, x)
    ginv, gamma, dgamma = _christoffel_arrays(gmat, dg, d2g)
    return ChristoffelData(chart, x, gmat, ginv, gamma, dgamma)


@dataclass(frozen=True)
class CurvatureData:
    """Lowered Riemann tensor, Ricci tensor and scalar curvature at a chart point."""

    chart: GnomonicChart
    x: np.ndarray
    gmat: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray
    riem: np.ndarray  # riem[i, j, k, l]
    ricci: np.ndarray
    scalar: float


def curvature_of_metric(g: MetricField, chart: GnomonicChart, x) -> CurvatureData:
    """Riemann, Ricci and scalar curvature of g at chart coordinates x."""
    cd = christoffels(g, chart, x)
    gamma, dgamma = cd.gamma, cd.dgamma
    A = np.transpose(dgamma, (1, 0, 2, 3))  # A[m, i, j, l] = d_i gamma[m, j, l]
    quad = np.einsum("mis,sjl->mijl", gamma, gamma)
    rup = A - np.transpose(A, (0, 2, 1, 3)) + quad - np.transpose(quad, (0, 2, 1, 3))
    riem = np.einsum("mijl,mk->ijkl", rup, cd.gmat)
    ricci = np.einsum("ik,ijkl->jl", cd.ginv, riem)
    scalar = float(np.einsum("jl,jl", cd.ginv, ricci))
    return CurvatureData(chart, cd.x, cd.gmat, cd.ginv, gamma, riem, ricci, scalar)


# ---------------------------------------------------------------------------
# height functions and mean curvature of equators


@dataclass(frozen=True)
class HeightData:
    """Derivatives at a point of the height function <., v> in the metric g."""

    chart: GnomonicChart
    value: float
    grad: np.ndarray  # coordinate derivatives d_i of the height
    hess: np.ndarray  # covariant Hessian
    laplacian: float
    grad_norm: float
    normal: np.ndarray  # unit g-gradient, chart components
    normal_ambient: np.ndarray


def _height_hessian(cd: ChristoffelData | CurvatureData, v: np.ndarray):
    """Height function <., v> at the centre of the chart of ``cd``.

    Returns ``(c0, c, hess, grad_norm, normal)``: the value, the coordinate
    gradient, the covariant Hessian, |grad h|_g and the unit g-gradient in
    chart components.
    """
    chart = cd.chart
    c0 = float(chart.center @ v)
    c = chart.frame @ v
    # the pulled-back height is (c0 + c.x) / sqrt(1 + |x|^2); at x = 0 its
    # gradient is c and its coordinate Hessian is -c0 * I
    hess = -c0 * np.eye(chart.n) - np.einsum("kij,k->ij", cd.gamma, c)
    grad_vec = cd.ginv @ c
    norm2 = float(c @ grad_vec)
    if norm2 <= 0.0:
        raise DegenerateInputError("height gradient vanishes at p")
    norm = float(np.sqrt(norm2))
    return c0, c, hess, norm, grad_vec / norm


def _mean_curvature(cd: ChristoffelData | CurvatureData, hess, norm: float, normal) -> float:
    """(Delta h - h_NN) / |grad h|_g, the mean curvature of the level set of h."""
    lap = float(np.einsum("ij,ij", cd.ginv, hess))
    return (lap - float(normal @ hess @ normal)) / norm


def height_derivatives(g: MetricField, v, p, chart: GnomonicChart | None = None) -> HeightData:
    """Covariant derivatives of the height function at p (chart-center evaluation)."""
    v = np.asarray(v, dtype=float)
    if chart is None:
        chart = chart_at(p)
    cd = christoffels(g, chart, np.zeros(chart.n))
    c0, c, hess, norm, normal = _height_hessian(cd, v)
    laplacian = float(np.einsum("ij,ij", cd.ginv, hess))
    normal_ambient = normal @ chart.frame
    return HeightData(chart, c0, c, hess, laplacian, norm, normal, normal_ambient)


def mean_curvature_equator(g: MetricField, v, p) -> float:
    """Mean curvature at p of the equator with normal v, measured in g.

    For metrics generated by positive curvature tensors this vanishes
    identically; the value is a residual diagnostic.
    """
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if abs(p @ v) > 1e-10:
        raise DegenerateInputError("p does not lie on the equator of v")
    cd = christoffels(g, chart_at(p), np.zeros(g.n))
    _, _, hess, norm, normal = _height_hessian(cd, v)
    return _mean_curvature(cd, hess, norm, normal)


# ---------------------------------------------------------------------------
# fundamental tensor and the metric equation


def cyclic_symmetrization(T: np.ndarray) -> np.ndarray:
    """Sum of a 3-tensor over cyclic slot permutations."""
    return T + np.transpose(T, (1, 2, 0)) + np.transpose(T, (2, 0, 1))


def _round_gamma(x: np.ndarray) -> np.ndarray:
    """Christoffel symbols of the round metric, the same in every gnomonic chart.

    gamma[k, i, j] = -(x_i delta_jk + x_j delta_ik) / (1 + |x|^2).
    """
    G = -np.einsum("i,jk->kij", x, np.eye(x.shape[0])) / (1.0 + x @ x)
    return G + np.swapaxes(G, 1, 2)


def fundamental_tensor(g: MetricField, chart: GnomonicChart, x, X=None, Y=None, Z=None):
    """Difference tensor g(nabla^g_X Y - nabla-bar_X Y, Z) at chart point x.

    Without vectors, returns the (n, n, n) array T[i, j, k]; with chart-
    coordinate vectors X, Y, Z, returns the scalar contraction.
    """
    cd = christoffels(g, chart, x)
    T = np.einsum("mij,mk->ijk", cd.gamma - _round_gamma(cd.x), cd.gmat)
    if X is None and Y is None and Z is None:
        return T
    if X is None or Y is None or Z is None:
        raise DegenerateInputError("supply all three vectors or none")
    return float(np.einsum("ijk,i,j,k", T, X, Y, Z))


def nabla_bar_g(g: MetricField, chart: GnomonicChart, x) -> np.ndarray:
    """Round covariant derivative of g: out[i, j, k] = (nabla-bar_k g)(e_i, e_j)."""
    x = np.asarray(x, dtype=float)
    gmat, dg, _ = metric_derivatives(g, chart, x)
    gb = _round_gamma(x)
    corr = np.einsum("mki,mj->ijk", gb, gmat) + np.einsum("mkj,im->ijk", gb, gmat)
    return np.transpose(dg, (1, 2, 0)) - corr


def dlog_volume_ratio(g: MetricField, chart: GnomonicChart, x) -> np.ndarray:
    """Coordinate gradient of log psi, where dV_g = psi dV_round.

    The round chart metric has det (1 + |x|^2)^-(n+1), whose half log-det
    gradient is -(n + 1) x / (1 + |x|^2).
    """
    x = np.asarray(x, dtype=float)
    return 0.5 * g.chart_jet(chart, x).logdet().grad + (g.n + 1) * x / (1.0 + x @ x)


def metric_equation_residual(g: MetricField, chart: GnomonicChart, x) -> float:
    """Max-norm residual of the first-order member equation for the family.

    The cyclic symmetrization of ``nabla-bar g - 4/(n+1) dlog(psi) (x) g``
    vanishes exactly on metrics generated by curvature tensors.
    """
    x = np.asarray(x, dtype=float)
    nb = nabla_bar_g(g, chart, x)
    dlp = dlog_volume_ratio(g, chart, x)
    gmat = g.chart_jet(chart, x).value
    W = np.einsum("k,ij->ijk", dlp, gmat)
    e = cyclic_symmetrization(nb - (4.0 / (g.n + 1)) * W)
    return float(np.max(np.abs(e)))


# ---------------------------------------------------------------------------
# equivariance and symmetry of the assignment


def equivariance_residual(
    R: CurvatureTensor,
    T: GroupElement,
    *,
    samples: int = 20,
    seed: int = 0,
) -> float:
    """Residual of pullback(phi_T) g_R = g_{R . T} at seeded sample points."""
    gR = CurvatureMetric(R)
    gRT = CurvatureMetric(act(R, T))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        p = random_unit(rng, R.n + 1)
        E = tangent_frame(p)
        direct = gRT.matrix_in_frame(p, E)
        q = phi_T(T, p)
        dE = np.array([dphi_T(T, p, e) for e in E])
        pulled = dE @ gR.ambient_matrix(q) @ dE.T
        worst = max(worst, float(np.max(np.abs(pulled - direct))))
    return worst


def stabilizer_residual(R: CurvatureTensor, T: GroupElement) -> float:
    """Max-norm difference between R . T and R; zero iff phi_T is a g_R-isometry."""
    return float(np.max(np.abs(act(R, T).coeffs - R.coeffs)))


def antipodal_residual(g: MetricField, *, samples: int = 50, seed: int = 0) -> float:
    """Deviation of the antipodal map from being an isometry of g."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        p = random_unit(rng, g.n + 1)
        E = tangent_frame(p)
        M1 = E @ g.ambient_matrix(p) @ E.T
        M2 = (-E) @ g.ambient_matrix(-p) @ (-E).T
        worst = max(worst, float(np.max(np.abs(M1 - M2))))
    return worst


# ---------------------------------------------------------------------------
# negative control


def _outer_jet(comps: list[ScalarJet]) -> MatrixJet:
    """Matrix jet of u(x) u(x)^T from scalar jets of the components of u."""
    n = comps[0].nvars
    m = len(comps)
    u = np.array([c.value for c in comps])
    du = np.stack([c.grad for c in comps], axis=1)  # du[a, i] = d_a u_i
    ddu = np.stack([c.hess for c in comps], axis=2)  # ddu[a, b, i]
    value = np.outer(u, u)
    grad = np.einsum("ai,j->aij", du, u) + np.einsum("i,aj->aij", u, du)
    hess = (
        np.einsum("abi,j->abij", ddu, u)
        + np.einsum("i,abj->abij", u, ddu)
        + np.einsum("ai,bj->abij", du, du)
        + np.einsum("bi,aj->abij", du, du)
    )
    return MatrixJet(value, grad, hess)


class BumpMetric(MetricField):
    """Round metric plus a localized rank-one perturbation; the negative control.

    g_p(u, w) = <u, w> + amplitude * h(p) <u, w0><w, w0> with a Gaussian bump
    h(p) = exp(-|p - p_center|^2 / width).  Not a member of the minimal-equator
    family: equators through the bump have nonzero mean curvature and g / F is
    not constant along great circles.
    """

    def __init__(self, n: int = 3, amplitude: float = 0.1, width: float = 0.04,
                 center=None, direction=None):
        if n < 2:
            raise DimensionError("bump metrics need n >= 2")
        self.n = n
        self.amplitude = float(amplitude)
        self.width = float(width)
        if not np.isfinite(self.amplitude):
            raise DegenerateInputError("bump amplitude must be finite")
        if not (np.isfinite(self.width) and self.width > 0.0):
            raise DegenerateInputError("bump width must be finite and positive")
        dim = n + 1
        self.center = np.zeros(dim) if center is None else np.asarray(center, float)
        if center is None:
            self.center[0] = 1.0
        self.direction = np.zeros(dim) if direction is None else np.asarray(direction, float)
        if direction is None:
            self.direction[1] = 1.0

    def _h(self, P: np.ndarray) -> np.ndarray:
        d2 = np.sum((P - self.center) ** 2, axis=1)
        return np.exp(-d2 / self.width)

    def ambient_matrices(self, points) -> np.ndarray:
        P = np.atleast_2d(np.asarray(points, dtype=float))
        m = P.shape[0]
        eye = np.eye(self.n + 1)
        base = eye[None, :, :] - np.einsum("ni,nj->nij", P, P)
        wt = self.direction[None, :] - (P @ self.direction)[:, None] * P
        bump = self.amplitude * self._h(P)[:, None, None] * np.einsum("ni,nj->nij", wt, wt)
        return base + bump

    def chart_jet(self, chart: GnomonicChart, x) -> MatrixJet:
        x = chart.check_radius(np.asarray(x, dtype=float))
        n = self.n
        base = round_metric(n).chart_jet(chart, x)
        s = ScalarJet(1.0 + float(x @ x), 2.0 * x, 2.0 * np.eye(n))
        r = s.power(-0.5)
        w0, pb = self.direction, self.center
        c0 = float(chart.center @ w0)
        c = chart.frame @ w0
        beta = ScalarJet(c0 + float(c @ x), c.copy(), np.zeros((n, n)))
        comps = []
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = 1.0
            xi = ScalarJet(float(x[i]), ei, np.zeros((n, n)))
            comps.append((float(c[i]) - xi * beta / s) * r)
        a0 = float(chart.center @ pb)
        ax = chart.frame @ pb
        a = ScalarJet(a0 + float(ax @ x), ax.copy(), np.zeros((n, n)))
        dist2 = 2.0 - 2.0 * (a * r)
        hjet = (dist2 * (-1.0 / self.width)).exp()
        bump = _outer_jet(comps).scaled(hjet * self.amplitude)
        return base + bump


# ---------------------------------------------------------------------------
# sweeps and the verification report


def _equator_points(rng, v, count: int) -> np.ndarray:
    """Seeded points on the equator with normal v."""
    dim = v.shape[0]
    out = np.empty((count, dim))
    for i in range(count):
        w = rng.standard_normal(dim)
        w -= (w @ v) * v
        norm = np.linalg.norm(w)
        while norm < 1e-8:
            w = rng.standard_normal(dim)
            w -= (w @ v) * v
            norm = np.linalg.norm(w)
        out[i] = w / norm
    return out


def mean_curvature_sweep(
    g: MetricField,
    *,
    equators: int = 20,
    points: int = 10,
    seed: int = 0,
    extra_normals=(),
    extra_pairs=(),
) -> float:
    """Max |mean curvature| over seeded equators and points on each.

    ``extra_normals`` adds deterministic equators, and ``extra_pairs`` adds
    explicit ``(normal, points)`` batches; both are used to aim the sweep at a
    localized perturbation when testing negative controls.
    """
    rng = np.random.default_rng(seed)
    normals = [random_equator(rng, g.n).normal for _ in range(equators)]
    normals += [np.asarray(v, float) for v in extra_normals]
    jobs = []
    for v in normals:
        jobs.append((v, _equator_points(rng, v, points)))
    for v, pts in extra_pairs:
        jobs.append((np.asarray(v, float), np.asarray(pts, float)))

    def worst_on_equator(job):
        v, pts = job
        return max(abs(mean_curvature_equator(g, v, p)) for p in pts)

    return float(max(tmap(worst_on_equator, jobs)))


def metric_equation_sweep(g: MetricField, *, samples: int = 50, seed: int = 0) -> float:
    """Max metric-equation residual over seeded charts and chart points."""
    rng = np.random.default_rng(seed)

    def one(_):
        p = random_unit(rng, g.n + 1)
        chart = chart_at(p)
        x = 0.8 * rng.uniform(0.0, 1.0) ** (1.0 / g.n) * random_unit(rng, g.n)
        return metric_equation_residual(g, chart, x)

    # sampling uses the shared rng, so keep this sweep sequential for determinism
    return float(max(one(i) for i in range(samples)))


@dataclass(frozen=True)
class CheckResult:
    """One verification check: pass iff residual <= tolerance."""

    residual: float
    tolerance: float
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "residual": self.residual,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "seed": self.seed,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    """Named check results for one verification run."""

    subject: str
    n: int
    seed: int
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def add(self, name: str, residual: float, tolerance: float, samples: int, seed: int):
        self.checks[name] = CheckResult(float(residual), float(tolerance), samples, seed)

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "n": self.n,
            "seed": self.seed,
            "pass": self.passed,
            "checks": {name: c.as_dict() for name, c in self.checks.items()},
        }


DEFAULT_TOLERANCES = {
    "symmetry": 1e-12,
    "positivity": 0.0,
    "roundtrip": 1e-8,
    "killing_constancy": 1e-10,
    "mean_curvature": 1e-6,
    "metric_equation": 1e-6,
    "equivariance": 1e-8,
    "antipodal": 1e-12,
}


def _add_sweep_checks(report, g, tol, equators, points, eq_samples,
                      extra_normals=(), extra_pairs=()) -> None:
    """The mean-curvature and metric-equation checks, seeded from the report's seed."""
    seed = report.seed
    worst = mean_curvature_sweep(g, equators=equators, points=points, seed=seed + 2,
                                 extra_normals=extra_normals, extra_pairs=extra_pairs)
    report.add("mean_curvature", worst, tol["mean_curvature"], equators * points, seed + 2)
    worst = metric_equation_sweep(g, samples=eq_samples, seed=seed + 3)
    report.add("metric_equation", worst, tol["metric_equation"], eq_samples, seed + 3)


def verify_tensor(
    R: CurvatureTensor,
    *,
    seed: int = 0,
    tolerances: dict | None = None,
    equators: int = 20,
    points: int = 10,
    circles: int = 50,
    eq_samples: int = 30,
    group_elements: int = 5,
    positivity_margin: float = 1e-6,
) -> VerificationReport:
    """Run the full verification suite on a curvature tensor."""
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    report = VerificationReport("tensor", R.n, seed)

    report.add("symmetry", symmetry_residuals(R.coeffs).max, tol["symmetry"], 0, seed)

    probe = sec_min_estimate(R, restarts=8, iters=250, seed=seed)
    report.add(
        "positivity",
        max(0.0, positivity_margin - probe.value),
        tol["positivity"],
        8,
        seed,
    )
    if probe.value <= 0.0:
        return report

    g = metric_from_curv(R, override=True)
    k = killing_from_curv(R, override=True)

    k_back = killing_from_metric(g, seed=seed)
    R2, info = curv_from_killing(k_back, seed=seed, check_constancy=False, full_output=True)
    report.add(
        "roundtrip",
        float(np.max(np.abs(R2.coeffs - R.coeffs))),
        tol["roundtrip"],
        info["samples"],
        seed,
    )

    report.add(
        "killing_constancy",
        killing_constancy_residual(k, circles=circles, samples=100, seed=seed + 1),
        tol["killing_constancy"],
        circles,
        seed + 1,
    )

    _add_sweep_checks(report, g, tol, equators, points, eq_samples)

    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    for _ in range(group_elements):
        M = np.eye(R.n + 1) + 0.35 * rng.standard_normal((R.n + 1, R.n + 1))
        T = GroupElement(M)
        worst = max(worst, equivariance_residual(R, T, samples=8, seed=seed + 5))
    report.add("equivariance", worst, tol["equivariance"], group_elements * 8, seed + 4)

    report.add(
        "antipodal",
        antipodal_residual(g, samples=40, seed=seed + 6),
        tol["antipodal"],
        40,
        seed + 6,
    )
    return report


def verify_metric(
    g: MetricField,
    *,
    seed: int = 0,
    tolerances: dict | None = None,
    equators: int = 20,
    points: int = 10,
    eq_samples: int = 30,
    extra_normals=(),
    extra_pairs=(),
) -> VerificationReport:
    """Run the metric-side membership checks (used for negative controls)."""
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    report = VerificationReport("metric", g.n, seed)

    k = killing_from_metric(g, seed=seed)
    report.add("killing_constancy", k.constancy_residual, tol["killing_constancy"], 20, seed)

    _add_sweep_checks(report, g, tol, equators, points, eq_samples, extra_normals, extra_pairs)

    report.add(
        "antipodal",
        antipodal_residual(g, samples=40, seed=seed + 6),
        tol["antipodal"],
        40,
        seed + 6,
    )
    return report

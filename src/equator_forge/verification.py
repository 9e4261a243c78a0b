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
round sphere has ``riem[0, 1, 0, 1] = +1`` at a chart center; Ricci is R^i_ijl.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .correspondence import (
    POSITIVITY_MARGIN,
    CurvatureMetric,
    MetricField,
    _member_matrices,
    curv_from_killing,
    killing_constancy_residual,
    killing_from_metric,
    metric_from_curv,
)
from .jets import MatrixJet, ScalarJet
from .sphere_geom import (
    Equator,
    GnomonicChart,
    _random_normals,
    _tangent_bases,
    _unit_rows,
    chart_at,
    dphi_T,
    phi_T,
    tangent_frame,
)
from .tensor_core import (
    CurvatureTensor,
    DegenerateInputError,
    DimensionError,
    GroupElement,
    _decide_positive,
    act,
    symmetry_residuals,
)

__all__ = [
    "christoffels",
    "curvature_of_metric",
    "mean_curvature_equator",
    "fundamental_tensor",
    "metric_equation_residual",
    "BumpMetric",
    "mean_curvature_sweep",
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


def _christoffel_arrays(jet: MatrixJet):
    """``(ginv, gamma, dgamma)`` from the metric jet and its inverse, dgamma None for a 1-jet; arrays
    share leading axes.  Stacked matmuls only, so a batch gives exactly the pointwise values."""
    dg, d2g, ginv, n, lead = jet.grad, jet.hess, jet.inverse, jet.value.shape[-1], jet.value.shape[:-2]
    # S[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, then its derivatives d_m S
    S = [np.moveaxis(d, -1, -3) + np.swapaxes(d, -1, -3) - d for d in (dg, d2g) if d is not None]
    gamma = 0.5 * (ginv @ S[0].reshape(*lead, n, n * n))  # gamma[k, (i, j)]
    if d2g is None:
        return ginv, gamma.reshape(*lead, n, n, n), None
    X = 0.5 * S[1].reshape(*lead, n, n, n * n) - dg @ gamma[..., None, :, :]  # d_m gamma = ginv X[m]
    return ginv, gamma.reshape(*lead, n, n, n), (ginv[..., None, :, :] @ X).reshape(*lead, n, n, n, n)


def _centre_arrays(g: MetricField, bases: np.ndarray, first_order: bool = False):
    """``(gmat, ginv, gamma, dgamma)`` at the centres of the charts with rows ``bases``; ``first_order``
    builds only gamma, from 1-jets."""
    if bases.shape[-1] != g.n + 1:
        raise DimensionError("chart and metric dimensions differ")
    jet = g._chart_jets(bases, np.zeros(g.n), first_order)
    return (jet.value, *_christoffel_arrays(jet))


def christoffels(g: MetricField, chart: GnomonicChart, x) -> ChristoffelData:
    """Christoffel symbols (and their first derivatives) of g at chart point x."""
    x = np.asarray(x, dtype=float)
    jet = g.chart_jet(chart, x)
    return ChristoffelData(chart, x, jet.value, *_christoffel_arrays(jet))


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


def _curvature_arrays(gmat, ginv, gamma, dgamma):
    """``(riem, ricci, scalar)`` from the Christoffel data; arrays share leading axes.  Stacked
    matmuls and sums in a fixed order, so a batch gives exactly the pointwise values."""
    n, lead = gmat.shape[-1], gmat.shape[:-2]
    A = np.swapaxes(dgamma, -4, -3)  # A[m, i, j, l] = d_i gamma[m, j, l]
    X = A + (gamma.reshape(*lead, n * n, n) @ gamma.reshape(*lead, n, n * n)).reshape(A.shape)
    rup = X - np.swapaxes(X, -3, -2)  # rup[m, i, j, l] = R^m_{ijl}
    riem = (np.swapaxes(gmat, -1, -2) @ rup.reshape(*lead, n, n**3)).reshape(A.shape)  # riem[k, i, j, l]
    ricci = sum(rup[..., i, i, :, :] for i in range(n))  # the trace R^i_{ijl}
    scalar = (ginv.reshape(*lead, 1, n * n) @ ricci.reshape(*lead, n * n, 1))[..., 0, 0]
    return np.moveaxis(riem, -4, -2), ricci, scalar


def curvature_of_metric(g: MetricField, chart: GnomonicChart, x) -> CurvatureData:
    """Riemann, Ricci and scalar curvature of g at chart coordinates x."""
    cd = christoffels(g, chart, x)
    riem, ricci, scalar = _curvature_arrays(cd.gmat, cd.ginv, cd.gamma, cd.dgamma)
    return CurvatureData(chart, cd.x, cd.gmat, cd.ginv, cd.gamma, riem, ricci, float(scalar))


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


def _height_hessian(bases: np.ndarray, ginv, gamma, v):
    """Height function <., v> at the centres of the charts with rows ``bases``.

    Returns ``(c0, c, hess, grad_norm, normal)``: the value, the coordinate
    gradient, the covariant Hessian, |grad h|_g and the unit g-gradient in
    chart components.  All arrays share the leading axes of ``bases``.
    """
    c0 = np.einsum("...i,...i->...", bases[..., 0, :], v)
    c = np.einsum("...ki,...i->...k", bases[..., 1:, :], v)
    # the pulled-back height is (c0 + c.x) / sqrt(1 + |x|^2); at x = 0 its
    # gradient is c and its coordinate Hessian is -c0 * I
    hess = -c0[..., None, None] * np.eye(c.shape[-1]) - np.einsum("...kij,...k->...ij", gamma, c)
    grad_vec = np.einsum("...ij,...j->...i", ginv, c)
    norm2 = np.sum(c * grad_vec, axis=-1)
    if np.any(norm2 <= 0.0):
        raise DegenerateInputError("height gradient vanishes at p")
    norm = np.sqrt(norm2)
    return c0, c, hess, norm, grad_vec / norm[..., None]


def _mean_curvature(ginv, hess, norm, normal):
    """(Delta h - h_NN) / |grad h|_g, the mean curvature of the level set of h."""
    lap = np.einsum("...ij,...ij->...", ginv, hess)
    return (lap - np.einsum("...i,...ij,...j->...", normal, hess, normal)) / norm


def _sweep_values(g: MetricField, V, P, C, X):
    """Mean curvatures at the points P (N, n+1) of the equators with normals V, and metric-equation residuals at the
    chart points X (M, n) of the charts centred at C (M, n+1), from one pass of frames and 1-jets.  Each row gets the
    bits of a pass of its own, in C order: they would otherwise follow the memory layout of V and P."""
    V, P = np.ascontiguousarray(V), np.ascontiguousarray(P)
    if np.any(np.abs(np.sum(P * V, axis=-1)) > 1e-10):
        raise DegenerateInputError("p does not lie on the equator of v")
    bases = _tangent_bases(np.concatenate([P, C]))
    jet = g._chart_jets(bases, np.concatenate([np.zeros((len(P), g.n)), X]), first_order=True)
    at_p, at_c = (MatrixJet(*(a if a is None else a[s] for a in (jet.value, jet.grad, jet.hess, jet.inv)))
                  for s in (slice(len(P)), slice(len(P), None)))
    ginv, gamma, _ = _christoffel_arrays(at_p)
    _, _, hess, norm, normal = _height_hessian(bases[:len(P)], ginv, gamma, V)
    return _mean_curvature(ginv, hess, norm, normal), _metric_equation_errors(at_c, X)


def _equator_mean_curvatures(g: MetricField, v, p):
    """Mean curvature at points p (N, n+1) of the equators with normals v (N, n+1)."""
    return _sweep_values(g, v, p, np.empty((0, g.n + 1)), np.empty((0, g.n)))[0]


def height_derivatives(g: MetricField, v, p, chart: GnomonicChart | None = None) -> HeightData:
    """Covariant derivatives of the height function at p (chart-center evaluation)."""
    v = np.asarray(v, dtype=float)
    if chart is None:
        chart = chart_at(p)
    bases = np.vstack([chart.center, chart.frame])
    _, ginv, gamma, _ = _centre_arrays(g, bases, first_order=True)
    c0, c, hess, norm, normal = _height_hessian(bases, ginv, gamma, v)
    laplacian = float(np.einsum("ij,ij", ginv, hess))
    normal_ambient = normal @ chart.frame
    return HeightData(chart, float(c0), c, hess, laplacian, float(norm), normal, normal_ambient)


def mean_curvature_equator(g: MetricField, v, p) -> float:
    """Mean curvature at p of the equator with normal v, measured in g.

    For metrics generated by positive curvature tensors this vanishes
    identically; the value is a residual diagnostic.
    """
    return float(_equator_mean_curvatures(g, np.asarray(v, dtype=float)[None], np.asarray(p, dtype=float)[None])[0])


# ---------------------------------------------------------------------------
# fundamental tensor and the metric equation


def cyclic_symmetrization(T: np.ndarray) -> np.ndarray:
    """Sum of a 3-tensor (its last three axes) over cyclic slot permutations."""
    return T + np.moveaxis(T, -3, -1) + np.moveaxis(T, -1, -3)


def fundamental_tensor(g: MetricField, chart: GnomonicChart, x, X=None, Y=None, Z=None):
    """Difference tensor g(nabla^g_X Y - nabla-bar_X Y, Z) at chart point x.

    Both connections are torsion free, so the Koszul formula gives it from the
    first-order jet: T_ijk = (nabla-bar_i g_jk + nabla-bar_j g_ik - nabla-bar_k g_ij) / 2.
    Without vectors, returns the (n, n, n) array T[i, j, k]; with chart-
    coordinate vectors X, Y, Z, returns the scalar contraction.
    """
    nb = nabla_bar_g(g, chart, x)  # nb[i, j, k] = nabla-bar_k g_ij
    T = 0.5 * (np.einsum("jki->ijk", nb) + np.einsum("ikj->ijk", nb) - nb)
    if X is None and Y is None and Z is None:
        return T
    if X is None or Y is None or Z is None:
        raise DegenerateInputError("supply all three vectors or none")
    return float(np.einsum("ijk,i,j,k", T, X, Y, Z))


def _nabla_bar(jet: MatrixJet, x: np.ndarray) -> np.ndarray:
    """nabla-bar_k g_ij = d_k g_ij + (2 x_k g_ij + x_i g_kj + x_j g_ik) / (1 + |x|^2).

    The round connection term in closed form, with no sums, so a batch of
    points gives exactly the pointwise values.
    """
    g = jet.value
    xi, xj, xk = x[..., :, None, None], x[..., None, :, None], x[..., None, None, :]
    corr = 2.0 * xk * g[..., :, :, None] + xi * np.swapaxes(g, -1, -2)[..., None, :, :]
    corr += xj * g[..., :, None, :]
    return np.moveaxis(jet.grad, -3, -1) + corr / (1.0 + np.sum(x * x, -1))[..., None, None, None]


def _dlog_volume(jet: MatrixJet, x: np.ndarray) -> np.ndarray:
    return 0.5 * jet.logdet().grad + (x.shape[-1] + 1) * x / (1.0 + np.sum(x * x, -1))[..., None]


def _metric_equation_errors(jet: MatrixJet, x: np.ndarray) -> np.ndarray:
    """Max-norm member-equation residuals at chart points x, batched over leading axes."""
    W = np.einsum("...k,...ij->...ijk", _dlog_volume(jet, x), jet.value)
    e = cyclic_symmetrization(_nabla_bar(jet, x) - (4.0 / (x.shape[-1] + 1)) * W)
    return np.max(np.abs(e), axis=(-3, -2, -1))


def nabla_bar_g(g: MetricField, chart: GnomonicChart, x) -> np.ndarray:
    """Round covariant derivative of g: out[i, j, k] = (nabla-bar_k g)(e_i, e_j)."""
    x = np.asarray(x, dtype=float)
    return _nabla_bar(g.chart_jet(chart, x, first_order=True), x)


def dlog_volume_ratio(g: MetricField, chart: GnomonicChart, x) -> np.ndarray:
    """Coordinate gradient of log psi, where dV_g = psi dV_round.

    The round chart metric has det (1 + |x|^2)^-(n+1), whose half log-det
    gradient is -(n + 1) x / (1 + |x|^2).
    """
    x = np.asarray(x, dtype=float)
    return _dlog_volume(g.chart_jet(chart, x, first_order=True), x)


def metric_equation_residual(g: MetricField, chart: GnomonicChart, x) -> float:
    """Max-norm residual of the first-order member equation for the family.

    The cyclic symmetrization of ``nabla-bar g - 4/(n+1) dlog(psi) (x) g``
    vanishes exactly on metrics generated by curvature tensors.
    """
    x = np.asarray(x, dtype=float)
    return float(_metric_equation_errors(g.chart_jet(chart, x, first_order=True), x))


# ---------------------------------------------------------------------------
# equivariance and symmetry of the assignment


def equivariance_residual(
    R: CurvatureTensor,
    T: GroupElement | Sequence[GroupElement],
    *,
    samples: int = 20,
    seed: int = 0,
) -> float:
    """Residual of pullback(phi_T) g_R = g_{R . T} at seeded points: the largest over T, or over a stack of them."""
    Ts = [T] if isinstance(T, GroupElement) else T
    P = _unit_rows(np.random.default_rng(seed).standard_normal((samples, R.n + 1)))
    E = _tangent_bases(P)[:, 1:]
    direct = E @ _member_matrices(np.stack([act(R, t).coeffs for t in Ts]), P) @ np.swapaxes(E, 1, 2)
    dE = dphi_T(Ts, P[:, None, :], E)
    pulled = dE @ CurvatureMetric(R).ambient_matrices(phi_T(Ts, P)) @ np.swapaxes(dE, -1, -2)
    return float(np.max(np.abs(pulled - direct)))


def stabilizer_residual(R: CurvatureTensor, T: GroupElement) -> float:
    """Max-norm difference between R . T and R; zero iff phi_T is a g_R-isometry."""
    return float(np.max(np.abs(act(R, T).coeffs - R.coeffs)))


def antipodal_residual(g: MetricField, *, samples: int = 50, seed: int = 0) -> float:
    """Deviation of the antipodal map from being an isometry of g."""
    P = _unit_rows(np.random.default_rng(seed).standard_normal((samples, g.n + 1)))
    E = _tangent_bases(P)[:, 1:]
    # the differential of p -> -p maps the frame E to -E, and the signs cancel
    A = g.ambient_matrices(np.concatenate([P, -P]))
    M = E @ (A[:samples] - A[samples:]) @ np.swapaxes(E, 1, 2)
    return float(np.max(np.abs(M)))


# ---------------------------------------------------------------------------
# negative control


def _outer_jet(comps: list[ScalarJet]) -> MatrixJet:
    """Matrix jet of u(x) u(x)^T from scalar jets of the components of u."""
    u = np.stack([c.value for c in comps], axis=-1)
    du = np.stack([c.grad for c in comps], axis=-1)  # du[a, i] = d_a u_i
    value = np.einsum("...i,...j->...ij", u, u)
    grad = np.einsum("...ai,...j->...aij", du, u) + np.einsum("...i,...aj->...aij", u, du)
    if any(c.hess is None for c in comps):
        return MatrixJet(value, grad, None)
    ddu = np.stack([c.hess for c in comps], axis=-1)  # ddu[a, b, i]
    hess = (
        np.einsum("...abi,...j->...abij", ddu, u)
        + np.einsum("...i,...abj->...abij", u, ddu)
        + np.einsum("...ai,...bj->...abij", du, du)
        + np.einsum("...bi,...aj->...abij", du, du)
    )
    return MatrixJet(value, grad, hess)


class BumpMetric(MetricField):
    """Round metric plus a localized rank-one perturbation; the negative control.

    g_p(u, w) = <u, w> + amplitude * h(p) <u, w0><w, w0> with a Gaussian bump
    h(p) = exp(-|p - p_center|^2 / width).  Not a member of the minimal-equator
    family: equators through the bump have nonzero mean curvature and g / F is
    not constant along great circles.  In a gnomonic chart the round part is
    delta / s - x x^T / s^2 with s = 1 + |x|^2, whatever the chart.
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
        self.center = np.eye(dim)[0] if center is None else np.asarray(center, float)
        self.direction = np.eye(dim)[1] if direction is None else np.asarray(direction, float)
        for name, vec in (("center", self.center), ("direction", self.direction)):
            if vec.shape != (dim,):
                raise DimensionError(f"bump {name} must have shape ({dim},), got {vec.shape}")
            if not np.all(np.isfinite(vec)):
                raise DegenerateInputError(f"bump {name} must be finite")
        sv = np.linalg.svd(np.stack([self.center, self.direction]), compute_uv=False)
        if sv[1] <= 1e-8 * sv[0]:
            raise DegenerateInputError("bump center and direction must be nonzero and not parallel")

    def _h(self, P: np.ndarray) -> np.ndarray:
        d2 = np.sum((P - self.center) ** 2, axis=1)
        return np.exp(-d2 / self.width)

    def ambient_matrices(self, points) -> np.ndarray:
        P = np.atleast_2d(np.asarray(points, dtype=float))
        eye = np.eye(self.n + 1)
        base = eye[None, :, :] - np.einsum("ni,nj->nij", P, P)
        wt = self.direction[None, :] - (P @ self.direction)[:, None] * P
        bump = self.amplitude * self._h(P)[:, None, None] * np.einsum("ni,nj->nij", wt, wt)
        return base + bump

    def _chart_jets(self, bases: np.ndarray, x, first_order: bool = False) -> MatrixJet:
        n = self.n
        x = np.broadcast_to(x, bases.shape[:-2] + (n,))
        zero = np.zeros(x.shape + (n,))
        hzero = None if first_order else zero  # the Hessian of a linear function; 1-jets carry none
        s = ScalarJet(1.0 + np.sum(x * x, axis=-1), 2.0 * x,
                      None if first_order else zero + 2.0 * np.eye(n))
        r = s.power(-0.5)
        xs = [ScalarJet(x[..., i], zero[..., i, :] + np.eye(n)[i], hzero) for i in range(n)]
        ident = MatrixJet(np.broadcast_to(np.eye(n), zero.shape), np.zeros(x.shape + (n, n)),
                          None if first_order else np.zeros(x.shape + (n, n, n)))
        base = ident.scaled(s.power(-1.0)) + _outer_jet(xs).scaled(-s.power(-2.0))
        c = bases @ self.direction
        # <q, w> along q = center + x @ frame is linear in x
        beta, a = (ScalarJet(cw[..., 0] + np.sum(cw[..., 1:] * x, axis=-1), cw[..., 1:], hzero)
                   for cw in (c, bases @ self.center))
        comps = [(c[..., 1 + i] - xi * beta / s) * r for i, xi in enumerate(xs)]
        # |p - center|^2 = 1 + |center|^2 - 2 <p, center> at the unit point p
        dist2 = (1.0 + self.center @ self.center) - 2.0 * (a * r)
        hjet = (dist2 * (-1.0 / self.width)).exp()
        bump = _outer_jet(comps).scaled(hjet * self.amplitude)
        return base + bump

    def probe_pairs(self) -> list:
        """``(normal, points)`` batches for the mean-curvature sweep: equators through the bump center, 12 points
        on each walking into the bump.  The normals mix the direction with its orthogonal complement: an equator
        whose normal is parallel or perpendicular to it is fixed by a reflection that preserves the metric, so its
        mean curvature vanishes identically and it cannot witness the perturbation."""
        center = self.center / np.linalg.norm(self.center)
        d = self.direction - (self.direction @ center) * center
        d /= np.linalg.norm(d)
        comp = [w - (w @ d) * d for w in tangent_frame(center) if abs(w @ d) < 0.9]
        a = comp[0] / np.linalg.norm(comp[0])
        normals = [d + a]
        if self.n > 2:  # on S^2 the complement of d in the tangent plane is one line
            b = comp[1] - (comp[1] @ a) * a
            b /= np.linalg.norm(b)
            normals += [d + b, d + a + b]
        ts = np.linspace(0.05, 0.6, 12)
        pairs = []
        for v in normals:
            eq = Equator(v)
            u = d - (d @ eq.normal) * eq.normal
            u /= np.linalg.norm(u)
            pairs.append((eq.normal, np.cos(ts)[:, None] * center + np.sin(ts)[:, None] * u))
        return pairs


# ---------------------------------------------------------------------------
# sweeps and the verification report


def _equator_points(rng, V, count: int) -> np.ndarray:
    """Seeded points (E, count, n+1) on the equators with normals V (E, n+1): the per-normal draws' bits."""
    W = rng.standard_normal((V.shape[0], count, V.shape[1]))
    W -= (W @ V[..., None]) * V[:, None]
    return W / np.linalg.norm(W, axis=2, keepdims=True)


def _equator_draws(g: MetricField, equators: int, points: int, seed: int, extra_pairs=()):
    """The mean-curvature sweep's normals and points (N, n+1): ``points`` on each of ``equators`` seeded normals."""
    rng = np.random.default_rng(seed)
    normals = _random_normals(rng, g.n, equators)
    drawn = _equator_points(rng, normals, points).reshape(-1, g.n + 1)
    extra = [(np.asarray(v, float), np.asarray(pts, float)) for v, pts in extra_pairs]
    V = np.concatenate([np.repeat(normals, points, axis=0)] + [np.broadcast_to(v, pts.shape) for v, pts in extra])
    return V, np.concatenate([drawn] + [pts for _, pts in extra])


def _chart_draws(g: MetricField, samples: int, seed: int):
    """The metric-equation sweep's chart centres and points: all centres, then all radii, then all directions."""
    rng = np.random.default_rng(seed)
    P = _unit_rows(rng.standard_normal((samples, g.n + 1)))
    radii = 0.8 * rng.uniform(size=(samples, 1)) ** (1 / g.n)
    return P, radii * _unit_rows(rng.standard_normal((samples, g.n)))


def mean_curvature_sweep(
    g: MetricField,
    *,
    equators: int = 20,
    points: int = 10,
    seed: int = 0,
    extra_pairs=(),
) -> float:
    """Max |mean curvature| over seeded equators and points on each.

    ``extra_pairs`` adds explicit ``(normal, points)`` batches, used to aim the
    sweep at a localized perturbation when testing negative controls.  All
    points are evaluated in one batched pass.
    """
    return float(np.max(np.abs(_equator_mean_curvatures(g, *_equator_draws(g, equators, points, seed, extra_pairs)))))


def metric_equation_sweep(g: MetricField, *, samples: int = 50, seed: int = 0) -> float:
    """Max metric-equation residual over seeded charts and chart points, evaluated in one batched pass."""
    return float(np.max(_sweep_values(g, np.empty((0, g.n + 1)), np.empty((0, g.n + 1)),
                                      *_chart_draws(g, samples, seed))[1]))


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
        return {**asdict(self), "pass": self.passed}


GROUP_COND_MAX = 20.0  # condition-number bound of the equivariance check's group elements

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


def _checked_tolerances(overrides: dict | None = None, flag=lambda name: f"tolerances[{name!r}]") -> dict:
    """``DEFAULT_TOLERANCES`` with ``overrides``, each for a check there and finite and >= 0, else a ValueError that
    calls the override ``flag(name)``: a negative tolerance fails its check whatever the subject."""
    for name, value in (overrides or {}).items():
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(f"{flag(name)} names no check of DEFAULT_TOLERANCES")
        if not 0 <= value < np.inf:
            raise ValueError(f"{flag(name)} must be finite and >= 0, got {value}")
    return {**DEFAULT_TOLERANCES, **(overrides or {})}


@dataclass
class VerificationReport:
    """Named check results for one verification run, in ``DEFAULT_TOLERANCES`` order, and its tolerances: those
    defaults with the run's overrides, as :func:`_checked_tolerances` admits them."""

    subject: str
    n: int
    seed: int
    tolerances: dict | None = None
    checks: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tolerances = _checked_tolerances(self.tolerances)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def add(self, name: str, residual: float, samples: int, seed: int):
        self.checks[name] = CheckResult(float(residual), float(self.tolerances[name]), samples, seed)
        self.checks = {k: self.checks[k] for k in self.tolerances if k in self.checks}

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "n": self.n,
            "seed": self.seed,
            "pass": self.passed,
            "checks": {name: c.as_dict() for name, c in self.checks.items()},
        }


def _metric_checks(report: VerificationReport, g: MetricField, equators: int, points: int,
                   circles: int, circle_seed: int) -> None:
    """The checks a metric takes by itself: k = g / F constant along ``circles`` great circles seeded by
    ``circle_seed``, then, seeded from the report's seed, the two sweeps (a bump's also on its probe pairs) on one
    pass of frames and 1-jets, and the antipodal map."""
    seed = report.seed
    constancy = killing_constancy_residual(killing_from_metric(g), circles=circles, samples=60, seed=circle_seed)
    report.add("killing_constancy", constancy, circles, circle_seed)
    pairs = g.probe_pairs() if isinstance(g, BumpMetric) else ()
    H, errors = _sweep_values(g, *_equator_draws(g, equators, points, seed + 2, pairs), *_chart_draws(g, 30, seed + 3))
    report.add("mean_curvature", np.max(np.abs(H)), equators * points, seed + 2)
    report.add("metric_equation", np.max(errors), 30, seed + 3)
    report.add("antipodal", antipodal_residual(g, samples=40, seed=seed + 6), 40, seed + 6)


def verify_tensor(
    R: CurvatureTensor,
    *,
    seed: int = 0,
    tolerances: dict | None = None,
    equators: int = 20,
    points: int = 10,
) -> VerificationReport:
    """Run the full verification suite; it stops after positivity unless the certified bound is > 0.

    Positivity is decided at ``POSITIVITY_MARGIN`` by the first 4-form whose certificate clears
    it, so its residual, max(0, margin - lower), is 0 exactly when is_positive's would be.
    """
    report = VerificationReport("tensor", R.n, seed, tolerances)
    report.add("symmetry", symmetry_residuals(R.coeffs).max, 0, seed)
    lower = _decide_positive(R, POSITIVITY_MARGIN).lower
    report.add("positivity", max(0.0, POSITIVITY_MARGIN - lower), 0, seed)
    if lower <= 0.0:
        return report

    g = metric_from_curv(R, override=True)
    R2 = curv_from_killing(killing_from_metric(g), check_constancy=False)
    m = R.n + 1
    report.add("roundtrip", np.max(np.abs(R2.coeffs - R.coeffs)), m * (m + 1) // 2, seed)  # the polarization points
    _metric_checks(report, g, equators, points, 50, seed + 1)

    rng = np.random.default_rng(seed + 4)
    draws = [np.eye(m) + 0.35 * rng.standard_normal((m, m)) for _ in range(5)]
    for i in range(5):  # rounding grows with cond(M); redraws come after all first draws, so those ignore the bound
        while np.linalg.cond(draws[i]) > GROUP_COND_MAX:
            draws[i] = np.eye(m) + 0.35 * rng.standard_normal((m, m))
    worst = equivariance_residual(R, [GroupElement(M) for M in draws], samples=8, seed=seed + 5)
    report.add("equivariance", worst, 5 * 8, seed + 4)
    return report


def verify_metric(
    g: MetricField,
    *,
    seed: int = 0,
    tolerances: dict | None = None,
    equators: int = 20,
    points: int = 10,
) -> VerificationReport:
    """Run the metric-side membership checks (used for negative controls); a bump's sweep is aimed at the bump."""
    report = VerificationReport("metric", g.n, seed, tolerances)
    _metric_checks(report, g, equators, points, 20, seed)
    return report

"""The correspondence between curvature tensors and metrics with minimal equators.

A curvature tensor R with positive sectional curvature generates the field of
symmetric 2-tensors k_p = R(p, ., p, .), which is constant along great circles.
Dividing by the volume-ratio normalization D (the determinant of k in an
orthonormal tangent frame, raised to 2/(n-1)) yields a metric g_R = k_R / D_R
on the sphere for which every equator is a minimal hypersurface.  The reverse
direction divides a metric by its own volume ratio F (determinant to the power
2/(n+1)) to recover a Killing tensor, and reconstructs the generating
curvature tensor from samples of k_p(v, v) by least squares.  The two
directions are mutually inverse, and F_{g} * D vanishes into the identity
F * D = 1 along the way.

All derivative information is produced in gnomonic charts as exact 2-jets.
Write q = c + x E for the unnormalized chart point (centre c, frame rows e_i)
and Q_ij(x) = R(q, e_i, q, e_j), a quadratic polynomial in x.  With
s = 1 + |x|^2 the pulled-back Killing tensor is k = Q / s^2, and the round
chart metric has determinant s^-(n+1), so D = det(Q)^(2/(n-1)) / s^2.  The
powers of s cancel in

    g_R = k / D = Q * det(Q)^(-2/(n-1)),

whose jet follows from that of Q by Jacobi's formula, so no numerical
differentiation is involved.
"""

from __future__ import annotations

import numpy as np

from .jets import MatrixJet, quadratic_matrix_jet
from .sphere_geom import GnomonicChart, great_circle, random_unit
from .tensor_core import (
    CurvatureTensor,
    DegenerateInputError,
    DimensionError,
    KillingField,
    PositivityError,
    basis_matrix,
    constant_curvature,
    is_positive,
    killing_matrices,
    tensor_from_basis,
)

__all__ = [
    "SamplingError",
    "MetricField",
    "CurvatureMetric",
    "killing_from_curv",
    "killing_constancy_residual",
    "metric_from_curv",
    "round_metric",
    "killing_from_metric",
    "curv_from_killing",
    "metric_derivatives",
]


class SamplingError(RuntimeError):
    """Least-squares sampling stayed rank deficient after retries."""


# ---------------------------------------------------------------------------
# metric fields


class MetricField:
    """Riemannian metric on S^n evaluated through ambient matrices and chart jets.

    Subclasses provide ``ambient_matrices`` (batched symmetric matrices that
    annihilate the base point and restrict to the metric on the tangent space)
    and ``chart_jet`` (the exact 2-jet of the pulled-back metric in a gnomonic
    chart).
    """

    n: int

    def ambient_matrices(self, points) -> np.ndarray:
        raise NotImplementedError

    def chart_jet(self, chart: GnomonicChart, x) -> MatrixJet:
        raise NotImplementedError

    def ambient_matrix(self, p) -> np.ndarray:
        return self.ambient_matrices(np.asarray(p, float)[None, :])[0]

    def value(self, p, u, v) -> float:
        M = self.ambient_matrix(p)
        return float(np.asarray(u, float) @ M @ np.asarray(v, float))

    def matrix_in_frame(self, p, frame, *, check_positive: bool = False) -> np.ndarray:
        E = np.asarray(frame, float)
        M = E @ self.ambient_matrix(p) @ E.T
        if check_positive and np.min(np.linalg.eigvalsh(M)) <= 0.0:
            raise PositivityError("metric is not positive definite at the queried point")
        return M

    def F_values(self, points) -> np.ndarray:
        """Volume ratio against the round metric, det^(2/(n+1)) in a tangent frame."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        A = self.ambient_matrices(P) + np.einsum("ni,nj->nij", P, P)
        dets = np.linalg.det(A)
        if np.any(dets <= 0.0):
            raise PositivityError("metric determinant must be positive")
        return dets ** (2.0 / (self.n + 1))


def _chart_quadratic(R: np.ndarray, chart: GnomonicChart):
    """Quadratic coefficients of Q_ij(x) = R(q, e_i, q, e_j) along q = center + x @ frame."""
    T = R
    basis = np.vstack([chart.center, chart.frame])
    for _ in range(4):  # each contraction moves its axis to the end
        T = np.tensordot(T, basis, axes=(0, 1))
    Q0 = T[0, 1:, 0, 1:]
    Q1 = T[1:, 1:, 0, 1:] + np.transpose(T[0, 1:, 1:, 1:], (1, 0, 2))
    C = np.transpose(T[1:, 1:, 1:, 1:], (0, 2, 1, 3))
    return Q0, Q1, C + np.swapaxes(C, 0, 1)


class CurvatureMetric(MetricField):
    """Metric g_R = k_R / D_R generated by a positive curvature tensor."""

    def __init__(self, R: CurvatureTensor):
        self.generator = R
        self.n = R.n

    def D_values(self, points) -> np.ndarray:
        """Volume ratio of the Killing tensor, det^(2/(n-1)) in a tangent frame."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        A = killing_matrices(self.generator, P) + np.einsum("ni,nj->nij", P, P)
        dets = np.linalg.det(A)
        if np.any(dets <= 0.0):
            raise PositivityError("Killing tensor is not positive definite at a queried point")
        return dets ** (2.0 / (self.n - 1))

    def ambient_matrices(self, points) -> np.ndarray:
        P = np.atleast_2d(np.asarray(points, dtype=float))
        K = killing_matrices(self.generator, P)
        return K / self.D_values(P)[:, None, None]

    def chart_jet(self, chart: GnomonicChart, x) -> MatrixJet:
        x = chart.check_radius(np.asarray(x, dtype=float))
        Q = quadratic_matrix_jet(*_chart_quadratic(self.generator.coeffs, chart), x)
        return Q.scaled(Q.det().power(-2.0 / (self.n - 1.0)))


def round_metric(n: int) -> CurvatureMetric:
    """The round metric, realized through the constant-curvature tensor."""
    return CurvatureMetric(constant_curvature(n, 1.0))


# ---------------------------------------------------------------------------
# curvature tensor -> Killing tensor -> metric

# depth and seed of the positivity probe that gates the generators
PROBE_RESTARTS = 6
PROBE_ITERS = 200
PROBE_SEED = 0


def _require_positive(R: CurvatureTensor, margin: float) -> None:
    """Refuse R when the positivity probe finds a sectional curvature <= margin."""
    cert = is_positive(R, margin=margin, restarts=PROBE_RESTARTS, iters=PROBE_ITERS, seed=PROBE_SEED)
    if not cert.positive:
        raise PositivityError(
            f"positivity probe reports min sectional {cert.min_estimate:.3g} <= {margin:g}"
        )


def killing_from_curv(
    R: CurvatureTensor,
    *,
    margin: float = 1e-6,
    override: bool = False,
) -> KillingField:
    """Killing tensor field k_p(v, w) = R(p, v, p, w) of a positive tensor.

    Runs the positivity probe first and refuses generators whose estimated
    minimum sectional curvature is below ``margin`` (pass ``override=True`` to
    skip the gate, e.g. for negative controls).
    """
    if not override:
        _require_positive(R, margin)
    return KillingField(R.n, lambda P: killing_matrices(R, P), source=R)


def killing_constancy_residual(
    k: KillingField,
    *,
    circles: int = 100,
    samples: int = 100,
    seed: int = 0,
) -> float:
    """Largest variation of k(gamma', gamma') along seeded random great circles."""
    rng = np.random.default_rng(seed)
    dim = k.n + 1
    t = 2.0 * np.pi * np.arange(samples) / samples
    worst = 0.0
    for _ in range(circles):
        p = random_unit(rng, dim)
        u = rng.standard_normal(dim)
        u -= (u @ p) * p
        u /= np.linalg.norm(u)
        pts = great_circle(p, u, t)
        vel = -np.sin(t)[:, None] * p + np.cos(t)[:, None] * u
        vals = np.einsum("nij,ni,nj->n", k.ambient_matrices(pts), vel, vel)
        worst = max(worst, float(vals.max() - vals.min()))
    return worst


def metric_from_curv(
    R: CurvatureTensor,
    *,
    margin: float = 1e-6,
    override: bool = False,
) -> CurvatureMetric:
    """Metric with all equators minimal, generated by a positive curvature tensor."""
    if not override:
        _require_positive(R, margin)
    return CurvatureMetric(R)


# ---------------------------------------------------------------------------
# metric -> Killing tensor -> curvature tensor


def killing_from_metric(
    g: MetricField,
    *,
    constancy_circles: int = 20,
    constancy_samples: int = 60,
    seed: int = 0,
) -> KillingField:
    """Candidate Killing tensor k_g = g / F_g of a metric.

    The construction never fails; the attached ``constancy_residual`` tells
    the caller whether k_g actually is constant along great circles (it is
    exactly when g belongs to the minimal-equator family).
    """

    def batch(P):
        return g.ambient_matrices(P) / g.F_values(P)[:, None, None]

    k = KillingField(g.n, batch)
    k.constancy_residual = killing_constancy_residual(
        k, circles=constancy_circles, samples=constancy_samples, seed=seed
    )
    return k


def curv_from_killing(
    k: KillingField,
    *,
    samples: int | None = None,
    seed: int = 0,
    check_constancy: bool = True,
    constancy_tol: float = 1e-8,
    full_output: bool = False,
):
    """Reconstruct the curvature tensor generating a Killing tensor field.

    Solves the seeded least-squares problem matching R(p, v, p, v) to k_p(v, v)
    over random point/direction samples, expressed in the orthonormal basis of
    curvature-tensor space.  With ``full_output=True`` also returns a dict with
    the max solve residual, the condition number of the normal system, and the
    sample count.

    Raises
    ------
    DegenerateInputError
        If the field fails the great-circle constancy pre-check.
    SamplingError
        If the normal system stays ill conditioned (> 1e10) after retries.
    """
    n = k.n
    B = basis_matrix(n)
    N = B.shape[0]
    count = samples if samples is not None else 3 * N

    if check_constancy:
        resid = killing_constancy_residual(k, circles=20, samples=60, seed=seed + 101)
        if resid > constancy_tol:
            raise DegenerateInputError(
                f"field is not constant along great circles (residual {resid:.3g} > {constancy_tol:g})"
            )

    attempt_seed = seed
    for attempt in range(3):
        rng = np.random.default_rng(attempt_seed)
        P = rng.standard_normal((count, n + 1))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        V = rng.standard_normal((count, n + 1))
        V -= np.einsum("ni,ni->n", V, P)[:, None] * P
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        W = np.einsum("na,nb,nc,nd->nabcd", P, V, P, V).reshape(count, -1)
        A = W @ B.T
        bvec = np.einsum("nij,ni,nj->n", k.ambient_matrices(P), V, V)
        sv = np.linalg.svd(A, compute_uv=False)
        cond = float((sv[0] / sv[-1]) ** 2) if sv[-1] > 0 else np.inf
        if cond <= 1e10:
            coeffs, *_ = np.linalg.lstsq(A, bvec, rcond=None)
            residual = float(np.max(np.abs(A @ coeffs - bvec)))
            R = tensor_from_basis(n, coeffs)
            if full_output:
                info = {"condition": cond, "residual": residual, "samples": count, "seed": attempt_seed}
                return R, info
            return R
        count *= 2
        attempt_seed += 1000
    raise SamplingError(f"normal system condition stayed above 1e10 after {attempt + 1} attempts")


def metric_derivatives(g: MetricField, chart: GnomonicChart, x):
    """Chart metric with first and second derivatives at chart coordinates x.

    Returns ``(gmat, dg, d2g)`` with ``dg[a, i, j] = d_a g_ij`` and
    ``d2g[a, b, i, j] = d_a d_b g_ij``.
    """
    if chart.n != g.n:
        raise DimensionError("chart and metric dimensions differ")
    jet = g.chart_jet(chart, chart.check_radius(np.asarray(x, dtype=float)))
    return jet.value, jet.grad, jet.hess

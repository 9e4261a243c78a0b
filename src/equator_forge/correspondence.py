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
from .sphere_geom import GnomonicChart, random_unit
from .tensor_core import (
    AmbientField,
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


class MetricField(AmbientField):
    """Riemannian metric on S^n evaluated through ambient matrices and chart jets.

    Subclasses provide ``ambient_matrices`` (see :class:`AmbientField`) and
    ``_chart_jets`` (the exact 2-jets of the pulled-back metric in a stack of
    gnomonic charts, given by their bases: rows centre, then frame).
    """

    def _chart_jets(self, bases: np.ndarray, x) -> MatrixJet:
        """Batched chart jets: ``bases`` (..., n+1, n+1) and ``x`` (..., n) share leading axes."""
        raise NotImplementedError

    def chart_jet(self, chart: GnomonicChart, x) -> MatrixJet:
        """Exact 2-jet of the metric in ``chart`` at chart coordinates ``x``."""
        if chart.n != self.n:
            raise DimensionError("chart and metric dimensions differ")
        x = chart.check_radius(np.asarray(x, dtype=float))
        # a batch of one: numpy's sums can round differently without a batch axis
        jet = self._chart_jets(np.vstack([chart.center, chart.frame])[None], x[None])
        return MatrixJet(jet.value[0], jet.grad[0], jet.hess[0])

    def F_values(self, points) -> np.ndarray:
        """Volume ratio against the round metric, det^(2/(n+1)) in a tangent frame."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        return _volume_ratio(self.ambient_matrices(P), P, 2.0 / (self.n + 1), "metric")


def _volume_ratio(M: np.ndarray, P: np.ndarray, power: float, what: str) -> np.ndarray:
    """det(M + p p^T)^power at the rows p of P: M's determinant in a tangent frame."""
    dets = np.linalg.det(M + np.einsum("ni,nj->nij", P, P))
    if np.any(dets <= 0.0):
        raise PositivityError(f"{what} is not positive definite at a queried point")
    return dets ** power


def _chart_quadratic(R: np.ndarray, bases: np.ndarray):
    """Quadratic coefficients of Q_ij(x) = R(q, e_i, q, e_j) along q = center + x @ frame.

    ``bases`` (..., n+1, n+1) holds the rows (center, frame) of each chart.
    """
    m = R.shape[0]
    lead = bases.shape[:-2]
    T = bases @ R.reshape(m, -1)
    for k in range(1, 4):  # each step contracts the next slot of R with the basis
        T = bases[..., None, :, :] @ T.reshape(*lead, m**k, m, -1)
    T = T.reshape(*lead, m, m, m, m)
    Q0 = T[..., 0, 1:, 0, 1:]
    Q1 = T[..., 1:, 1:, 0, 1:] + np.swapaxes(T[..., 0, 1:, 1:, 1:], -3, -2)
    C = np.swapaxes(T[..., 1:, 1:, 1:, 1:], -3, -2)
    return Q0, Q1, C + np.swapaxes(C, -4, -3)


class CurvatureMetric(MetricField):
    """Metric g_R = k_R / D_R generated by a positive curvature tensor."""

    def __init__(self, R: CurvatureTensor):
        self.generator = R
        self.n = R.n

    def D_values(self, points) -> np.ndarray:
        """Volume ratio of the Killing tensor, det^(2/(n-1)) in a tangent frame."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        return _volume_ratio(killing_matrices(self.generator, P), P, 2.0 / (self.n - 1), "Killing tensor")

    def ambient_matrices(self, points) -> np.ndarray:
        P = np.atleast_2d(np.asarray(points, dtype=float))
        K = killing_matrices(self.generator, P)
        return K / _volume_ratio(K, P, 2.0 / (self.n - 1), "Killing tensor")[:, None, None]

    def _chart_jets(self, bases: np.ndarray, x) -> MatrixJet:
        Q = quadratic_matrix_jet(*_chart_quadratic(self.generator.coeffs, bases), x)
        return Q.scaled(Q.det().power(-2.0 / (self.n - 1.0)))


def round_metric(n: int) -> CurvatureMetric:
    """The round metric, realized through the constant-curvature tensor."""
    return CurvatureMetric(constant_curvature(n, 1.0))


# ---------------------------------------------------------------------------
# curvature tensor -> Killing tensor -> metric

# the generators and verify_tensor need a certified bound above this
POSITIVITY_MARGIN = 1e-6


def _require_positive(R: CurvatureTensor) -> None:
    cert = is_positive(R, margin=POSITIVITY_MARGIN)
    if not cert.positive:
        raise PositivityError(f"certified curvature bound {cert.lower:.3g} <= {POSITIVITY_MARGIN:g}")


def killing_from_curv(
    R: CurvatureTensor,
    *,
    override: bool = False,
) -> KillingField:
    """Killing tensor field k_p(v, w) = R(p, v, p, w) of a positive tensor.

    Refuses generators whose certified lower bound on the sectional curvature
    (:func:`is_positive`) is not above ``POSITIVITY_MARGIN``; pass
    ``override=True`` to skip the gate, e.g. for negative controls.
    """
    if not override:
        _require_positive(R)
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
    if circles <= 0:
        return 0.0
    frames = []
    for _ in range(circles):  # the draws of one circle after another
        p = random_unit(rng, dim)
        u = rng.standard_normal(dim)
        u -= (u @ p) * p
        frames.append((p, u / np.linalg.norm(u)))
    p, u = (np.array(f)[:, None, :] for f in zip(*frames))
    t = 2.0 * np.pi * np.arange(samples) / samples
    c, s = np.cos(t)[:, None], np.sin(t)[:, None]
    pts, vel = (c * p + s * u).reshape(-1, dim), (-s * p + c * u).reshape(-1, dim)
    # 1024 points a call: killing_matrices holds (n+1)^3 numbers per point, 8.6 MB for 5000 at n = 5
    vals = np.concatenate([np.einsum("nij,ni,nj->n", k.ambient_matrices(pts[b]), vel[b], vel[b])
                           for b in (slice(i, i + 1024) for i in range(0, pts.shape[0], 1024))])
    return float(np.max(np.ptp(vals.reshape(circles, samples), axis=1)))


def metric_from_curv(
    R: CurvatureTensor,
    *,
    override: bool = False,
) -> CurvatureMetric:
    """Metric with all equators minimal, generated by a positive curvature tensor."""
    if not override:
        _require_positive(R)
    return CurvatureMetric(R)


# ---------------------------------------------------------------------------
# metric -> Killing tensor -> curvature tensor


def killing_from_metric(
    g: MetricField,
    *,
    constancy_circles: int = 20,
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
    k.constancy_residual = killing_constancy_residual(k, circles=constancy_circles, samples=60, seed=seed)
    return k


def curv_from_killing(
    k: KillingField,
    *,
    samples: int | None = None,
    seed: int = 0,
    check_constancy: bool = True,
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
        if resid > 1e-8:
            raise DegenerateInputError(
                f"field is not constant along great circles (residual {resid:.3g} > 1e-8)"
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
    jet = g.chart_jet(chart, x)
    return jet.value, jet.grad, jet.hess

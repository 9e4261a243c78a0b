"""The correspondence between curvature tensors and metrics with minimal equators.

A curvature tensor R with positive sectional curvature generates the field of
symmetric 2-tensors k_p = R(p, ., p, .), which is constant along great circles.
Dividing by the volume-ratio normalization D (the determinant of k in an
orthonormal tangent frame, raised to 2/(n-1)) yields a metric g_R = k_R / D_R
on the sphere for which every equator is a minimal hypersurface.  The reverse
direction divides a metric by its own volume ratio F (determinant to the power
2/(n+1)) to recover a Killing tensor, and reconstructs the generating
curvature tensor in closed form, by polarization of the quadratic p -> k_p.
The two directions are mutually inverse, and F_{g} * D vanishes into the
identity F * D = 1 along the way.

All derivative information is produced in gnomonic charts as exact jets
(1-jets where only first derivatives are read).
Write q = c + x E for the unnormalized chart point (centre c, frame rows e_i)
and Q_ij(x) = R(q, e_i, q, e_j), a quadratic polynomial in x whose 2-jet comes
from R as a form on 2-vectors, evaluated on the wedges of c and the e_i.  With
s = 1 + |x|^2 the pulled-back Killing tensor is k = Q / s^2, and the round
chart metric has determinant s^-(n+1), so D = det(Q)^(2/(n-1)) / s^2.  The
powers of s cancel in

    g_R = k / D = Q * det(Q)^(-2/(n-1)),

whose jet follows from that of Q by Jacobi's formula, so no numerical
differentiation is involved.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .jets import MatrixJet, quadratic_matrix_jet
from .sphere_geom import GnomonicChart, _unit_rows
from .tensor_core import (
    AmbientField,
    CurvatureTensor,
    DegenerateInputError,
    DimensionError,
    KillingField,
    PositivityError,
    _decide_positive,
    constant_curvature,
    curv_dim,
    curvature_projection,
    killing_matrices,
)

__all__ = [
    "MetricField",
    "CurvatureMetric",
    "killing_from_curv",
    "killing_constancy_residual",
    "metric_from_curv",
    "round_metric",
    "killing_from_metric",
    "curv_from_killing",
]


# ---------------------------------------------------------------------------
# metric fields


class MetricField(AmbientField):
    """Riemannian metric on S^n evaluated through ambient matrices and chart jets.

    Subclasses provide ``ambient_matrices`` (see :class:`AmbientField`) and
    ``_chart_jets`` (the exact jets of the pulled-back metric in a stack of
    gnomonic charts, given by their bases: rows centre, then frame).
    """

    def _chart_jets(self, bases: np.ndarray, x, first_order: bool = False) -> MatrixJet:
        """Batched chart jets (1-jets if ``first_order``): ``bases`` (..., n+1, n+1) and ``x`` (..., n)
        share leading axes."""
        raise NotImplementedError

    def chart_jet(self, chart: GnomonicChart, x, first_order: bool = False) -> MatrixJet:
        """Exact 2-jet (or 1-jet) of the metric in ``chart`` at chart coordinates ``x``."""
        if chart.n != self.n:
            raise DimensionError("chart and metric dimensions differ")
        x = chart.check_radius(np.asarray(x, dtype=float))
        return self._chart_jets(np.vstack([chart.center, chart.frame]), x, first_order)

    def F_values(self, points) -> np.ndarray:
        """Volume ratio against the round metric, det^(2/(n+1)) in a tangent frame."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        return _volume_ratio(self.ambient_matrices(P), P, 2.0 / (self.n + 1), "metric")

    def _equator_density(self, U: np.ndarray, c: np.ndarray, cc: np.ndarray) -> np.ndarray:
        """Area densities (..., m) at c @ u of the equators of U (..., n+1, n+1) = (u, v): see README, Areas.
        ``cc`` (n^2, m) holds the node products c_i c_k, built once per scan for the overrides that read them."""
        P = c @ U[..., :-1, :]
        A = self.ambient_matrices(P.reshape(-1, P.shape[-1])).reshape(*P.shape, -1)
        G = U[..., None, :, :] @ (A + P[..., :, None] * P[..., None, :]) @ np.swapaxes(U, -1, -2)[..., None, :, :]
        return np.prod(_cholesky_diagonal(np.moveaxis(G, (-2, -1), (0, 1)), "metric")[..., :-1], axis=-1)


def _cholesky_diagonal(M: np.ndarray, what: str) -> np.ndarray:
    """Cholesky diagonals (..., k) of M (k, k, ...), factored in place, one pass per column: the positivity gate."""
    for j in range(M.shape[0]):
        col = M[j:, j] - np.sum(M[j:, :j] * M[j, :j], axis=1)
        if not np.all(col[0] > 0.0):
            raise PositivityError(f"{what} is not positive definite at a queried point")
        M[j:, j] = col / np.sqrt(col[0])
    return np.diagonal(M, axis1=0, axis2=1)


def _volume_ratio(M: np.ndarray, P: np.ndarray, power: float, what: str) -> np.ndarray:
    """det(M + p p^T)^power at the rows p of P: M's determinant in a tangent frame."""
    dets = np.linalg.det(M + np.einsum("ni,nj->nij", P, P))
    if np.any(dets <= 0.0):
        raise PositivityError(f"{what} is not positive definite at a queried point")
    return dets ** power


@lru_cache(maxsize=None)
def _chart_table(m: int) -> np.ndarray:
    """The map from P (flattened) to (Q0, Q1, C + C^T) of :func:`_chart_quadratic` (flattened)."""
    a, b = np.triu_indices(m, 1)
    I = np.eye(m)
    X = I[a][:, :, None] * I[b][:, None, :] - I[b][:, :, None] * I[a][:, None, :]  # X[(a, b)] = e_a ^ e_b
    # T[abcd] = (e_a ^ e_b) P (e_c ^ e_d)^T = R(b_a, b_b, b_c, b_d), as a linear function of P
    T = (X[:, None, :, :, None, None] * X[None, :, None, None]).reshape(-1, m, m, m, m)
    Q1 = T[..., 1:, 1:, 0, 1:] + np.swapaxes(T[..., 0, 1:, 1:, 1:], -3, -2)
    C = np.swapaxes(T[..., 1:, 1:, 1:, 1:], -3, -2)
    parts = (T[..., 0, 1:, 0, 1:], Q1, C + np.swapaxes(C, -4, -3))
    table = np.concatenate([Y.reshape(len(T), -1) for Y in parts], axis=1)
    table.flags.writeable = False
    return table


def _chart_quadratic(R: np.ndarray, bases: np.ndarray):
    """Quadratic coefficients of Q_ij(x) = R(q, e_i, q, e_j) along q = center + x @ frame.

    ``bases`` (..., n+1, n+1) holds the rows (center, frame) of each chart.  R acts as a form R^ on
    2-vectors, so only its part antisymmetric in each pair is read (``load_tensor`` accepts other
    parts up to 1e-9).  P = W R^ W^T, for the 2-vectors W = b_a ^ b_b (a < b) of the rows; each
    coefficient sums at most two signed entries of P, so a batch gives exactly the pointwise values.
    """
    m, lead = R.shape[0], bases.shape[:-2]
    a, b = np.triu_indices(m, 1)
    half = 0.5 * (R[a, b] - R[b, a])  # antisymmetric in the first pair, then in the second
    Ba, Bb = bases[..., a, :], bases[..., b, :]
    W = Ba[..., a] * Bb[..., b] - Ba[..., b] * Bb[..., a]
    P = W @ (0.5 * (half[:, a, b] - half[:, b, a])) @ np.swapaxes(W, -1, -2)
    Q0, Q1, Q2 = np.split(P.reshape(*lead, -1) @ _chart_table(m), [(m - 1) ** 2, m * (m - 1) ** 2], axis=-1)
    return Q0.reshape(*lead, m - 1, m - 1), Q1.reshape(*lead, *[m - 1] * 3), Q2.reshape(*lead, *[m - 1] * 4)


def _chart_linear(R: np.ndarray, bases: np.ndarray, x) -> MatrixJet:
    """1-jet of Q at x: Q_ij = R(q, e_i, q, e_j) and d_k Q_ij = R(e_k, e_i, q, e_j) + (i <-> j).

    R's third slot is contracted with q once, then the others with (q; E) and E.  Only
    stacked matmuls, one product per chart, so a batch gives exactly the pointwise values.
    """
    m = R.shape[0]
    E = bases[..., 1:, :]
    q = bases[..., :1, :] + np.asarray(x)[..., None, :] @ E  # (..., 1, m)
    Rq = (q @ np.moveaxis(R, 2, 0).reshape(m, -1)).reshape(*q.shape[:-2], m, m * m)
    T = np.concatenate([q, E], axis=-2) @ Rq  # T[k, (b, d)]: slot 1 with q or e_k
    T = E[..., None, :, :] @ T.reshape(*T.shape[:-1], m, m) @ np.swapaxes(E, -1, -2)[..., None, :, :]
    return MatrixJet(T[..., 0, :, :], T[..., 1:, :, :] + np.swapaxes(T[..., 1:, :, :], -1, -2), None)


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

    def _equator_density(self, U: np.ndarray, c: np.ndarray, cc: np.ndarray) -> np.ndarray:
        # g = k / D with D = det(k + pp^T)^(2/(n-1)): with l the Cholesky diagonal of k + pp^T in U,
        # the density is sqrt det(k on the equator) / det(k + pp^T) = 1 / (prod_{k<n} l_k l_n^2)
        n, R, Ut = self.n, self.generator.coeffs.reshape(self.n + 1, -1), np.swapaxes(U, -1, -2)
        for _ in range(4):  # R'(a, b, c, d) = R(U_a, U_b, U_c, U_d), in which the point is (c, 0)
            R = (np.swapaxes(R, -1, -2) @ Ut).reshape(*U.shape[:-1], -1)
        R = R.reshape(*U.shape, n + 1, n + 1)[..., :n, :, :n, :]
        K = (np.moveaxis(R, (-3, -1), (0, 1)).reshape(-1, n * n) @ cc).reshape(n + 1, n + 1, *U.shape[:-2], -1)
        K[:n, :n] += cc.reshape(n, n, *[1] * (U.ndim - 2), -1)
        l = _cholesky_diagonal(K, "Killing tensor")  # l_n^2 by array pow (SIMD), not a scalar 2's exact square
        return 1.0 / (np.prod(l[..., :n], axis=-1) * l[..., n] ** np.full(l.shape[:-1], 2.0))

    def _chart_jets(self, bases: np.ndarray, x, first_order: bool = False) -> MatrixJet:
        R = self.generator.coeffs
        Q = (_chart_linear(R, bases, x) if first_order
             else quadratic_matrix_jet(*_chart_quadratic(R, bases), x))
        Q = MatrixJet(Q.value, Q.grad, Q.hess, np.linalg.inv(Q.value))  # det and g^-1 = Q^-1 / s read it
        return Q.scaled(Q.det().power(-2.0 / (self.n - 1.0)))


def round_metric(n: int) -> CurvatureMetric:
    """The round metric, realized through the constant-curvature tensor."""
    return CurvatureMetric(constant_curvature(n, 1.0))


# ---------------------------------------------------------------------------
# curvature tensor -> Killing tensor -> metric

# the generators and verify_tensor need a certified bound above this
POSITIVITY_MARGIN = 1e-6


def _require_positive(R: CurvatureTensor) -> None:
    cert = _decide_positive(R, POSITIVITY_MARGIN)
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
    dim = k.n + 1
    if circles <= 0:
        return 0.0
    X = np.random.default_rng(seed).standard_normal((circles, 2, dim))  # p, then u, circle by circle
    p = _unit_rows(X[:, :1])
    u = _unit_rows(X[:, 1:] - np.vecdot(X[:, 1:], p)[..., None] * p)
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

    def batch(P):  # F of the same matrices: one ambient pass
        A = g.ambient_matrices(P)
        return A / _volume_ratio(A, P, 2.0 / (g.n + 1), "metric")[:, None, None]

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
    """Reconstruct the curvature tensor generating a Killing tensor field, in closed form.

    k_p = R(p, ., p, .) is quadratic in p.  With K(x) the tangent part of k at a unit x,
    S_ac = 2K((e_a + e_c)/sqrt 2) - K(e_a) - K(e_c) and S_aa = 2K(e_a) polarize it to
    S[a, c, b, d] = R_abcd + R_cbad, and the first Bianchi identity gives R_abcd =
    (S[a, c, b, d] - S[b, c, a, d]) / 3, projected because a field outside the family need
    not satisfy Bianchi.  ``full_output=True`` adds a dict: ``residual``, the max
    |k_p(v, v) - R(p, v, p, v)| over ``samples`` (default 3 curv_dim(n)) seeded unit pairs
    v orthogonal to p, ``samples`` and ``seed``.

    Raises
    ------
    DegenerateInputError
        If ``samples`` is below 1 or the field fails the great-circle constancy pre-check.
    """
    m = k.n + 1
    count = samples if samples is not None else 3 * curv_dim(k.n)
    if count < 1:
        raise DegenerateInputError(f"samples must be at least 1, got {count}")
    if check_constancy:
        resid = killing_constancy_residual(k, circles=20, samples=60, seed=seed + 101)
        if not resid <= 1e-8:  # a NaN residual fails too
            raise DegenerateInputError(f"field is not constant along great circles (residual {resid:.3g} > 1e-8)")

    I, (a, c) = np.eye(m), np.triu_indices(m, 1)
    X = np.vstack([I, (I[a] + I[c]) / np.sqrt(2.0)])  # the (n+1)(n+2)/2 polarization points
    Pi = I - X[:, :, None] * X[:, None, :]
    K = Pi @ k.ambient_matrices(X) @ Pi
    S = np.empty((m, m, m, m))
    S[np.arange(m), np.arange(m)] = 2.0 * K[:m]
    S[a, c] = S[c, a] = 2.0 * K[m:] - K[a] - K[c]
    S = S.transpose(0, 2, 1, 3)  # S[a, b, c, d] = R_abcd + R_cbad
    R = CurvatureTensor(curvature_projection((S - S.transpose(1, 0, 2, 3)) / 3.0))
    if not full_output:
        return R

    P, V = np.random.default_rng(seed).standard_normal((2, count, m))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    V -= np.einsum("ni,ni->n", V, P)[:, None] * P
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    diff = np.einsum("nij,ni,nj->n", k.ambient_matrices(P) - killing_matrices(R, P), V, V)
    return R, {"residual": float(np.max(np.abs(diff))), "samples": count, "seed": seed}


def metric_derivatives(g: MetricField, chart: GnomonicChart, x):
    """Chart metric with first and second derivatives at chart coordinates x.

    Returns ``(gmat, dg, d2g)`` with ``dg[a, i, j] = d_a g_ij`` and
    ``d2g[a, b, i, j] = d_a d_b g_ij``.
    """
    jet = g.chart_jet(chart, x)
    return jet.value, jet.grad, jet.hess

"""Round-sphere primitives: frames, equators, gnomonic charts, the projective
action on points, and quadrature rules.

Points on S^n are plain unit vectors in R^(n+1).  An equator is the great
hypersphere cut out by a unit normal v; its canonical representative has the
first nonzero coordinate of v positive, so v and -v name the same equator.
The gnomonic chart at p parameterizes the open hemisphere around p by the
tangent space, sending straight lines through the origin of the chart to great
circles; all metric differentiation elsewhere in the package happens in these
charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .tensor_core import DegenerateInputError, DimensionError, GroupElement

__all__ = [
    "tangent_frame",
    "Equator",
    "great_circle",
    "GnomonicChart",
    "chart_at",
    "phi_T",
    "dphi_T",
    "jacobian_density",
    "equator_image",
    "QuadratureRule",
    "equator_quadrature",
    "sphere_quadrature",
    "sphere_volume",
    "random_unit",
    "random_equator",
]

CHART_RADIUS = 10.0


def check_unit(p, tol: float = 1e-10) -> np.ndarray:
    """``p`` as a float array whose vectors along the last axis are unit, or raise."""
    p = np.asarray(p, dtype=float)
    norm2 = np.ravel(np.sum(p * p, axis=-1))
    worst = int(np.argmax(np.abs(norm2 - 1.0)))
    if abs(norm2[worst] - 1.0) > tol:
        raise DegenerateInputError(f"vector has |p|^2 = {norm2[worst]:.12g}, not unit")
    return p


def random_unit(rng, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm


def _unit_rows(X) -> np.ndarray:  # rows over their norms: random_unit's bits when X holds its draws
    return X / np.sqrt(np.vecdot(X, X))[..., None]


def _gram_schmidt(A) -> np.ndarray:
    """Gram-Schmidt of the rows of A, batched over its leading axes."""
    rows = []
    for a in np.moveaxis(np.asarray(A, dtype=float), -2, 0):
        for u in rows:
            a = a - np.sum(a * u, axis=-1, keepdims=True) * u
        norm = np.linalg.norm(a, axis=-1, keepdims=True)
        if np.any(norm < 1e-12):
            raise DegenerateInputError("frame construction degenerated")
        rows.append(a / norm)
    return np.stack(rows, axis=-2)


def _tangent_bases(points) -> np.ndarray:
    """Rows ``(p, tangent_frame(p))`` for each unit vector p along the last axis."""
    P = check_unit(points)
    j = np.arange(P.shape[-1] - 1)
    drop = np.argmax(np.abs(P), axis=-1)[..., None]
    others = np.eye(P.shape[-1])[j + (j >= drop)]
    bases = _gram_schmidt(np.concatenate([P[..., None, :], others], axis=-2))
    bases[..., 0, :] = P
    return bases


def tangent_frame(p) -> np.ndarray:
    """Deterministic orthonormal basis of the tangent space at p, as rows.

    Gram-Schmidt applied to the standard basis with the coordinate most
    aligned with p dropped (ties broken by lowest index).
    """
    return _tangent_bases(p)[1:]


def _canonical(V) -> np.ndarray:
    """Unit normals V along the last axis, each negated where its first entry above 1e-12 in size is negative."""
    first = np.argmax(np.abs(V) > 1e-12, axis=-1)[..., None]
    return np.where(np.take_along_axis(V, first, -1) < 0, -V, V)


@dataclass(frozen=True)
class Equator:
    """Great hypersphere of S^n, stored through its canonical unit normal."""

    normal: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.normal, dtype=float)
        if not np.all(np.isfinite(v)):
            raise DegenerateInputError("equator normal must be finite")
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise DegenerateInputError("equator normal must be nonzero")
        v = _canonical(v / norm)
        v.flags.writeable = False
        object.__setattr__(self, "normal", v)

    @property
    def n(self) -> int:
        return self.normal.shape[0] - 1

    def basis(self) -> np.ndarray:
        """Orthonormal basis of the hyperplane of the equator, as rows."""
        return tangent_frame(self.normal)

    def contains(self, p, tol: float = 1e-10) -> bool:
        return abs(float(np.asarray(p, float) @ self.normal)) <= tol


def random_equator(rng, n: int) -> Equator:
    return Equator(random_unit(rng, n + 1))


def _random_normals(rng, n: int, count: int) -> np.ndarray:
    """``count`` seeded equator normals from one draw: the random_equator loop's bits, row by row."""
    V = _unit_rows(_unit_rows(rng.standard_normal((count, n + 1))))  # random_unit's scaling, then Equator's
    return _canonical(V)


def great_circle(p, u, t):
    """Arc-length great circle cos(t) p + sin(t) u; u must be unit and tangent at p."""
    p = check_unit(p)
    u = np.asarray(u, dtype=float)
    if abs(u @ u - 1.0) > 1e-10 or abs(p @ u) > 1e-10:
        raise DegenerateInputError("direction must be a unit vector orthogonal to p")
    t = np.asarray(t, dtype=float)
    return np.cos(t)[..., None] * p + np.sin(t)[..., None] * u


@dataclass(frozen=True)
class GnomonicChart:
    """Gnomonic chart centered at a point, with an orthonormal tangent frame.

    ``point(x) = (center + x @ frame) / |center + x @ frame|`` maps chart
    coordinates to the open hemisphere around the center; the chart pushes
    straight lines to great circles.  ``frame`` has the n frame vectors as
    rows.
    """

    center: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        c = check_unit(self.center)
        E = np.asarray(self.frame, dtype=float)
        n = c.shape[0] - 1
        if E.shape != (n, n + 1):
            raise DimensionError(f"frame must be ({n}, {n + 1}), got {E.shape}")
        gram = E @ E.T
        if np.max(np.abs(gram - np.eye(n))) > 1e-10 or np.max(np.abs(E @ c)) > 1e-10:
            raise DegenerateInputError("frame must be orthonormal and tangent at the center")
        c = c.copy()
        E = E.copy()
        c.flags.writeable = False
        E.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "frame", E)

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    def point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        q = self.center + x @ self.frame
        return q / np.linalg.norm(q, axis=-1, keepdims=True) if q.ndim > 1 else q / np.linalg.norm(q)

    def coords(self, p) -> np.ndarray:
        p = check_unit(p)
        t = float(p @ self.center)
        if t <= 1e-12:
            raise DegenerateInputError("point is outside the chart hemisphere")
        return (self.frame @ p) / t

    def check_radius(self, x) -> np.ndarray:
        """``x`` as a float array whose chart points (along the last axis) are all finite and inside the radius."""
        x = np.asarray(x, dtype=float)
        worst = np.max(np.linalg.norm(x, axis=-1), initial=0.0)
        if not worst < CHART_RADIUS:  # NaN compares false
            raise DegenerateInputError(f"chart coordinates |x| = {worst:.3g} outside radius {CHART_RADIUS}")
        return x


def chart_at(p, frame=None) -> GnomonicChart:
    """Gnomonic chart at p with the deterministic tangent frame unless given."""
    p = check_unit(p)
    if frame is None:
        frame = tangent_frame(p)
    return GnomonicChart(p, frame)


# ---------------------------------------------------------------------------
# projective action on points


def _transposes(T, ndim: int) -> np.ndarray:
    """T^T, or for a sequence of G elements their transposes (G, 1, ..., m, m) with ``ndim - 2`` unit axes: a
    product with points of ``ndim`` axes gains a leading axis G, each slice with T.matrix.T's strides and bits."""
    if isinstance(T, GroupElement):
        return T.matrix.T
    return np.swapaxes(np.stack([t.matrix for t in T]), -1, -2)[(slice(None),) + (None,) * (ndim - 2)]


def phi_T(T: GroupElement, points):
    """Projective action of an invertible matrix on sphere points: Tp / |Tp|.

    A genuine right-to-left homomorphism: phi(T1 T2) = phi(T1) o phi(T2).  A sequence of G elements adds an axis G.
    """
    P = np.asarray(points, dtype=float)
    Q = P @ _transposes(T, P.ndim)
    norms = np.linalg.norm(Q, axis=-1, keepdims=True) if Q.ndim > 1 else np.linalg.norm(Q)
    return Q / norms


def dphi_T(T: GroupElement, p, w) -> np.ndarray:
    """Differential of :func:`phi_T` at p on tangent vectors w (leading axes; for a sequence, p.ndim == w.ndim)."""
    p = check_unit(p)
    w = np.asarray(w, dtype=float)
    if np.any(np.abs(np.sum(p * w, axis=-1)) > 1e-10):
        raise DegenerateInputError("w must be tangent to the sphere at p")
    Tt = _transposes(T, w.ndim)
    Tp, Tw = p @ Tt, w @ Tt
    norm2 = np.sum(Tp * Tp, axis=-1, keepdims=True)
    return (Tw - (np.sum(Tw * Tp, axis=-1, keepdims=True) / norm2) * Tp) / np.sqrt(norm2)


def jacobian_density(T: GroupElement, p) -> float:
    """Conformal-weight density of the action at p: |det T|^(4/(n+1)) / |Tp|^4.

    Equals det(Gram(dphi(e_i)))^(2/(n+1)) for any orthonormal tangent frame
    (e_i) at p, which is how the tests cross-check it.
    """
    p = check_unit(p)
    Tp = T.matrix @ p
    return abs(T.det) ** (4.0 / (T.n + 1)) / float(Tp @ Tp) ** 2


def equator_image(T: GroupElement, v: Equator) -> Equator:
    """Equator onto which phi_T maps the equator with normal v.

    The image normal is proportional to T^(-T) v, since <Tp, T^(-T) v> = <p, v>.
    """
    w = np.linalg.solve(T.matrix.T, v.normal)
    return Equator(w / np.linalg.norm(w))


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integration over an equator or a whole sphere."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, f) -> float:
        """Integrate a callable on ambient points, or an array of node values."""
        values = np.asarray(f(self.nodes) if callable(f) else f, dtype=float)
        if values.shape != self.weights.shape:
            raise DimensionError("values do not match the quadrature nodes")
        return float(values @ self.weights)


def sphere_volume(k: int) -> float:
    """Volume of the unit sphere S^k."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


@lru_cache(maxsize=16)
def _reference_grid(order: int) -> tuple:
    """Read-only angles (theta, phi), node coefficients (m, 3) on the basis rows of an equator and weights,
    both ``sphere_quadrature(2, order)``'s, and coefficients (m, 2, 3) of (e_theta, e_phi): the part of the
    S^3 Jacobi mesh that v does not change."""
    rule = sphere_quadrature(2, order)
    ct, nphi = rule.nodes[:, 2], 2 * order  # by rows: latitude cos(theta), then longitude 2 pi j / nphi
    pp = np.tile(2.0 * math.pi * np.arange(nphi) / nphi, order)
    st, cp, sp = np.sqrt(1.0 - ct**2), np.cos(pp), np.sin(pp)
    frames = np.stack([np.stack([ct * cp, ct * sp, -st], -1), np.stack([-sp, cp, np.zeros_like(sp)], -1)], 1)
    arrays = (np.arccos(np.clip(ct, -1.0, 1.0)), pp, rule.nodes, rule.weights, frames)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _on_rows(coeffs, u) -> np.ndarray:
    """The vectors sum_k coeffs[..., k] u[k], summed left to right over the rows of u."""
    return reduce(np.add, (coeffs[..., k, None] * row for k, row in enumerate(u)))


def _equator_nodes(n: int, order: int) -> tuple:
    """Node coefficients (m, n) on an equator's basis rows, and weights: ``sphere_quadrature(n - 1, k)``
    with k the largest integer with k^(n-1) <= order^2, so m = 2 k^(n-1) <= 2 order^2 (k = order on S^3)."""
    if n < 2:
        raise DimensionError("equator quadrature requires n >= 2")
    if order < 1:
        raise DegenerateInputError("quadrature order must be positive")
    k = round(order ** (2 / (n - 1)))
    k -= k ** (n - 1) > order**2  # the float root is off by less than 1/2: one exact integer correction
    rule = sphere_quadrature(n - 1, k)
    return rule.nodes, rule.weights


def equator_quadrature(v: Equator, order: int) -> QuadratureRule:
    """Quadrature on the round equator with normal v: the nodes of :func:`_equator_nodes` mapped by
    the basis rows of v, summed over the rows like the Jacobi mesh, so on S^3 they are bitwise the mesh's."""
    if not isinstance(v, Equator):
        v = Equator(np.asarray(v, dtype=float))
    c, weights = _equator_nodes(v.n, order)
    return QuadratureRule(_on_rows(c, v.basis()), weights)


def _gauss_jacobi(order: int, alpha: float) -> tuple:
    """Gauss rule for the weight (1 - t^2)^alpha on [-1, 1] by Golub-Welsch (Math. Comp. 23, 1969):
    Jacobi-matrix eigenvalues, and the weight's integral times each eigenvector's first entry squared."""
    k = np.arange(1, order)
    t, vectors = np.linalg.eigh(np.diag(np.sqrt(k * (k + 2 * alpha) / ((2 * k + 2 * alpha) ** 2 - 1)), -1))
    return t, 2 ** (2 * alpha + 1) * math.gamma(alpha + 1) ** 2 / math.gamma(2 * alpha + 2) * vectors[0] ** 2


def sphere_quadrature(n: int, order: int) -> QuadratureRule:
    """Deterministic product quadrature on all of S^n.

    Built recursively from Golub-Welsch Gauss-Jacobi rules in the latitude
    variable (:func:`_gauss_jacobi`), so a rule of a given order integrates
    ambient polynomials of degree up to 2 * order - 1 exactly.
    """
    if n < 1:
        raise DimensionError("sphere quadrature requires n >= 1")
    if order < 1:
        raise DegenerateInputError("quadrature order must be positive")
    if n == 1:
        m = 2 * order
        ang = 2.0 * math.pi * np.arange(m) / m
        nodes = np.column_stack([np.cos(ang), np.sin(ang)])
        weights = np.full(m, 2.0 * math.pi / m)
        return QuadratureRule(nodes, weights)
    inner = sphere_quadrature(n - 1, order)
    alpha = (n - 2) / 2.0
    t, wt = _gauss_jacobi(order, alpha)
    st = np.sqrt(1.0 - t**2)
    nodes = np.concatenate(
        [
            (st[:, None, None] * inner.nodes[None, :, :]).reshape(-1, n),
            np.repeat(t, inner.nodes.shape[0])[:, None],
        ],
        axis=1,
    )
    weights = (wt[:, None] * inner.weights[None, :]).reshape(-1)
    return QuadratureRule(nodes, weights)

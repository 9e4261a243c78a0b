"""Geometry and spectra of minimal equators: areas, second fundamental forms,
the Jacobi (stability) operator, left-invariant metrics on S^3, and the
great-sphere integral transform.

The headline facts this module makes checkable numerically, for metrics in
the minimal-equator family on S^3: all equators have the same area; each is a
minimal surface of Morse index one and nullity three; the nullity directions
are generated by the ambient rotations moving one equator to nearby ones; and
averaging the great-sphere transform of a function over all equators recovers
a fixed multiple of its integral.

The Jacobi operator is discretized by a Galerkin method in the real spherical
harmonics of the underlying round equator.  On the round sphere that basis
diagonalizes the problem exactly; away from it the probe is variational, and
stability of the index/nullity counts under raising the cutoff degree L is
part of the acceptance evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .correspondence import CurvatureMetric, MetricField, curv_from_killing
from .harmonics import _harmonic_factors, basis_degrees, real_harmonic_basis
from .parallel import tmap
from .sphere_geom import Equator, _equator_nodes, _on_rows, _reference_grid, _tangent_bases, check_unit
from .tensor_core import (
    DegenerateInputError,
    DimensionError,
    KillingField,
    SkewMatrix,
    sym_product,
    wedge,
)
from .verification import (
    _centre_arrays,
    _curvature_arrays,
    _height_hessian,
    _mean_curvature,
)

__all__ = [
    "equator_area",
    "funk_radon",
    "second_fundamental_form",
    "EquatorMesh",
    "equator_mesh",
    "JacobiGalerkin",
    "build_jacobi_galerkin",
    "SpectrumProbe",
    "jacobi_spectrum_probe",
    "left_invariant_killing",
    "left_invariant_metric",
]


# ---------------------------------------------------------------------------
# areas and the great-sphere transform


_BLOCK_NODES = 8192  # nodes per density call: the Killing matrices of one block take about 1 MB at n = 3


def _as_equators(g: MetricField, v, stack: bool = False) -> list[Equator]:
    """The equator of the normal v, or with ``stack`` one per row of an (E, n+1) stack, for g's sphere."""
    V = v.normal if isinstance(v, Equator) else np.asarray(v, dtype=float)
    if V.ndim not in ((1, 2) if stack else (1,)) or V.shape[-1] != g.n + 1:
        raise DimensionError(f"equator normals on S^{g.n} have {g.n + 1} entries, got shape {V.shape}")
    return [v] if isinstance(v, Equator) else [Equator(row) for row in np.atleast_2d(V)]


def _area_elements(g: MetricField, normals: np.ndarray, order: int):
    """Orthonormal bases U (E, n+1, n+1) (rows: the basis u of a normal's hyperplane, then the normal),
    node coefficients c on u, round weights and g-area densities (E, m), in blocks of equators."""
    c, weights = _equator_nodes(g.n, order)
    cc = (c.T[:, None] * c.T[None, :]).reshape(g.n**2, -1)  # points last, as the Cholesky gate takes them
    U = np.concatenate([_tangent_bases(normals)[:, 1:], normals[:, None]], axis=1)
    step = max(_BLOCK_NODES // len(weights), 1)
    return U, c, weights, np.concatenate([g._equator_density(U[i:i + step], c, cc) for i in range(0, len(U), step)])


def _equator_integrals(g: MetricField, f, v, order: int):
    """weights @ (f(nodes) * rho) on the equator of v or of each row of a stack; f = None integrates 1."""
    normals = np.array([eq.normal for eq in _as_equators(g, v, stack=True)])
    U, c, weights, rho = _area_elements(g, normals, order)
    sums = []
    for Ue, rho_e in zip(U, rho):
        values = np.ones_like(weights) if f is None else np.asarray(f(c @ Ue[:-1]), dtype=float)
        if values.shape != weights.shape:
            raise DimensionError(f"f must map the nodes {(len(c), g.n + 1)} to {weights.shape}, got {values.shape}")
        sums.append(weights @ (values * rho_e))
    return float(sums[0]) if isinstance(v, Equator) or np.ndim(v) == 1 else np.array(sums)


def equator_area(g: MetricField, v, order: int = 32):
    """Area under g of the equator with normal v, or an array (E,) of areas for a stack v (E, n+1).

    For members of the minimal-equator family the value is independent of v.
    Every n uses the Gauss product rule of :func:`_equator_nodes`, with at
    most 2 order^2 nodes.  The value equals ``funk_radon`` of 1 exactly.
    """
    return _equator_integrals(g, None, v, order)


def funk_radon(g: MetricField, f, v, order: int = 32):
    """Integral of f against the g-area element of the equator with normal v, or (E,) of them for v (E, n+1).

    ``f`` maps the (m, n+1) array of one equator's quadrature nodes to their m values.
    """
    return _equator_integrals(g, f, v, order)


# ---------------------------------------------------------------------------
# second fundamental form


@dataclass(frozen=True)
class SecondFundamentalForm:
    """Second fundamental form of an equator at a point, in an explicit frame."""

    matrix: np.ndarray  # (n-1, n-1) in the rows of `frame`
    frame: np.ndarray  # (n-1, n+1) tangent vectors of the equator at p
    mean_curvature: float
    norm2: float  # |A|^2 with indices raised by the induced metric
    induced: np.ndarray  # induced metric matrix in `frame`


def _shape_operator(gmat, hess, norm):
    """A = hess / |grad h|, the induced metric G, its inverse and determinant, and |A|^2 (leading axes
    allowed); a 2 x 2 G, on S^3, is inverted by its adjugate.

    The chart's last frame vector is the equator normal, so its first n - 1
    axes span the tangent space of the equator at the chart centre.
    """
    k = gmat.shape[-1] - 1
    A = hess[..., :k, :k] / norm[..., None, None]
    G = gmat[..., :k, :k]
    det = G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0] if k == 2 else np.linalg.det(G)
    Ginv = (np.swapaxes(G[..., ::-1, ::-1], -1, -2) * [[1.0, -1.0], [-1.0, 1.0]] / det[..., None, None]
            if k == 2 else np.linalg.inv(G))
    return A, G, Ginv, det, np.einsum("...ac,...bd,...ab,...cd->...", Ginv, Ginv, A, A)


def second_fundamental_form(g: MetricField, v, p) -> SecondFundamentalForm:
    """Second fundamental form at p of the equator with normal v, under g."""
    eq = _as_equators(g, v)[0]
    v = eq.normal
    p = check_unit(p)
    if abs(p @ v) > 1e-10:
        raise DegenerateInputError("p does not lie on the equator of v")
    u = eq.basis()
    sigma_frame = _tangent_bases(u @ p)[1:] @ u  # orthonormal basis of (v, p)-perp
    bases = np.vstack([p, sigma_frame, v])
    gmat, ginv, gamma, _ = _centre_arrays(g, bases, first_order=True)
    _, _, hess, norm, _ = _height_hessian(bases, ginv, gamma, v)
    A, G, Ginv, _, norm2 = _shape_operator(gmat, hess, norm)
    H = float(np.einsum("ab,ab", Ginv, A))
    return SecondFundamentalForm(A, sigma_frame, H, float(norm2), G)


# ---------------------------------------------------------------------------
# equator meshes carrying the Jacobi-operator data (S^3 only)


@dataclass(frozen=True)
class EquatorMesh:
    """Quadrature mesh on an equator of S^3 with the fields the Jacobi operator needs."""

    equator: Equator
    order: int
    basis: np.ndarray  # (3, 4) round orthonormal basis of the equator hyperplane
    theta: np.ndarray
    phi: np.ndarray
    nodes: np.ndarray  # (m, 4)
    weights: np.ndarray  # round quadrature weights, sum 4 pi
    frames: np.ndarray  # (m, 2, 4) round orthonormal (e_theta, e_phi) at the nodes
    induced: np.ndarray  # (m, 2, 2) induced metric in `frames`
    induced_inv: np.ndarray
    rho: np.ndarray  # area density against the round element
    normal_ambient: np.ndarray  # (m, 4) unit g-normal of the equator
    mean_curv: np.ndarray  # (m,) mean curvature diagnostics
    potential: np.ndarray  # (m,) Ric(N, N) + |A|^2

    @property
    def area(self) -> float:
        return float(self.weights @ self.rho)


_NODE_BLOCK = 256  # the fastest block size measured on one thread; a whole mesh is slower


def _node_blocks(fn, m: int) -> list[np.ndarray]:
    """Outputs of ``fn(slice)`` over contiguous blocks of at most _NODE_BLOCK of m nodes, joined."""
    edges = np.linspace(0, m, -(-m // _NODE_BLOCK) + 1).astype(int)
    parts = tmap(fn, [slice(a, b) for a, b in zip(edges[:-1], edges[1:])])
    return [np.concatenate(field) for field in zip(*parts)]


def _mesh_bases(mesh_nodes, frames, v) -> np.ndarray:
    """Chart bases (m, 4, 4) with rows (node, e_theta, e_phi, v)."""
    return np.concatenate([mesh_nodes[:, None], frames, np.broadcast_to(v, frames[:, :1].shape)], axis=1)


def equator_mesh(g: MetricField, v, order: int = 32) -> EquatorMesh:
    """Build the Jacobi mesh for the equator with normal v (metrics on S^3)."""
    if g.n != 3:
        raise DimensionError("Jacobi meshes are implemented for S^3")
    eq = _as_equators(g, v)[0]
    vn, basis = eq.normal, eq.basis()
    theta, phi, c, weights, f = _reference_grid(order)
    nodes, frames = _on_rows(c, basis), _on_rows(f, basis)
    bases = _mesh_bases(nodes, frames, vn)

    def node_block(sl):
        gmat, ginv, gamma, dgamma = _centre_arrays(g, bases[sl])
        _, ricci, _ = _curvature_arrays(gmat, ginv, gamma, dgamma)
        _, _, hess, norm, normal = _height_hessian(bases[sl], ginv, gamma, vn)
        _, G, Ginv, det, a2 = _shape_operator(gmat, hess, norm)
        ric_nn = np.einsum("...i,...ij,...j->...", normal, ricci, normal)
        normal_ambient = np.einsum("...i,...ij->...j", normal, bases[sl, 1:])
        return normal_ambient, _mean_curvature(ginv, hess, norm, normal), ric_nn + a2, G, Ginv, det

    normal_ambient, mean_curv, potential, induced, induced_inv, det = _node_blocks(node_block, nodes.shape[0])
    return EquatorMesh(eq, order, basis, theta, phi, nodes, weights, frames, induced, induced_inv,
                       np.sqrt(det), normal_ambient, mean_curv, potential)


# ---------------------------------------------------------------------------
# Galerkin discretization of the Jacobi operator


@dataclass(frozen=True)
class JacobiGalerkin:
    """Stiffness/mass discretization of the Jacobi operator on one equator.

    ``stiffness[k, l] = integral( <grad Y_k, grad Y_l>_g - (Ric(N,N) + |A|^2)
    Y_k Y_l ) dA_g``, so generalized eigenvalues of (stiffness, mass) are the
    eigenvalues of minus the Jacobi operator.
    """

    mesh: EquatorMesh
    L: int
    degrees: np.ndarray
    stiffness: np.ndarray
    mass: np.ndarray

    def basis(self):
        """Values (m, nb) of the harmonic basis at the mesh nodes, and its
        gradients (m, nb, 2) in the mesh frames; built on the first call."""
        return self._basis_tables

    @cached_property  # the eigensolve never needs the tables, so they are not built with the matrices
    def _basis_tables(self):
        return real_harmonic_basis(self.L, self.mesh.theta, self.mesh.phi)

    def project(self, node_values) -> np.ndarray:
        """Coefficients of the mass-orthogonal projection of node values."""
        w = self.mesh.weights * self.mesh.rho
        return self._mass_solve(self.basis()[0].T @ (w * np.asarray(node_values, dtype=float)))

    def apply(self, coeffs) -> np.ndarray:
        """Node values of the Jacobi operator applied to a coefficient vector."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape != self.degrees.shape:
            raise DimensionError(f"expected {self.degrees.size} coefficients")
        return self.basis()[0] @ self._mass_solve(-self.stiffness @ c)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of minus the Jacobi operator, ascending: with mass = C C^T, those of
        C^-1 stiffness C^-T, formed as W = C^-1 stiffness and the lower triangle of W C^-T."""
        Ci, S, h = _lower_inverse(np.linalg.cholesky(self.mass)), self.stiffness, len(self.mass) // 2
        W, A = np.empty_like(S), np.zeros_like(S)  # the products skip the zero block of Ci
        W[:h], W[h:] = Ci[:h, :h] @ S[:h], Ci[h:] @ S
        A[:, :h], A[h:, h:] = W[:, :h] @ Ci[:h, :h].T, W[h:] @ Ci[h:].T
        return np.linalg.eigvalsh(A)  # reads the lower triangle only

    def _mass_solve(self, rhs) -> np.ndarray:
        return np.linalg.solve(self.mass, rhs)


def _lower_inverse(C) -> np.ndarray:
    """Inverse of a lower-triangular matrix by halving: [[A, 0], [B, D]]^-1 has the blocks
    A^-1, D^-1 and -D^-1 B A^-1, so most of the work is in matrix products."""
    h = C.shape[0] // 2
    if h < 24:
        return np.linalg.inv(C)
    out = np.zeros_like(C)
    out[:h, :h], out[h:, h:] = _lower_inverse(C[:h, :h]), _lower_inverse(C[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (C[h:, :h] @ out[:h, :h])
    return out


def _factor_gram(terms, index) -> np.ndarray:
    """Symmetrised sum over terms (U, X, field, V, Y) of the grid pairings
    S[(l, a), (k, b)] = sum_ij field[i, j] U[i, l, a] X[j, a] V[i, k, b] Y[j, b],
    summed over phi j first, then theta i, for the basis columns (k, b) of ``index``, then its rows."""
    S = 0.0
    for U, X, field, V, Y in terms:  # phi sum, times V at the basis columns, whose trig index is index % 2L+1
        # np.take gives a C-ordered array to scale in place, where a fancy index and a product copy twice
        VF = np.take((X.T[:, None, :] * field) @ Y, index % Y.shape[1], axis=2)
        VF *= V.reshape(V.shape[0], -1)[:, index]
        S = S + U.transpose(2, 1, 0) @ VF  # (a, l, basis)
    S = S.transpose(1, 0, 2).reshape(-1, S.shape[-1])[index]
    return 0.5 * (S + S.T)


def _galerkin_order(L: int) -> int:
    """The default mesh order of a Galerkin basis of degree at most L."""
    return max(2 * L + 8, 24)


def build_jacobi_galerkin(g: MetricField, v, L: int, *, order: int | None = None,
                          mesh: EquatorMesh | None = None) -> JacobiGalerkin:
    """Assemble the harmonic-basis Galerkin matrices on the equator of v."""
    if order is None:
        order = _galerkin_order(L)
    if mesh is None:
        mesh = equator_mesh(g, v, order)
    cols = 2 * mesh.order  # the mesh is the product grid theta_i x phi_j, by rows
    Pv, Pt, Pp, T, dT, index = _harmonic_factors(L, mesh.theta[::cols], mesh.phi[:cols])
    w = (mesh.weights * mesh.rho).reshape(-1, cols)
    Ginv = mesh.induced_inv.reshape(-1, cols, 2, 2)
    mass = _factor_gram([(Pv, T, w, Pv, T)], index)
    stiff = _factor_gram([
        (Pt, T, w * Ginv[..., 0, 0], Pt, T),
        (Pt, T, w * (Ginv[..., 0, 1] + Ginv[..., 1, 0]), Pp, dT),  # with its transpose, once symmetrised
        (Pp, dT, w * Ginv[..., 1, 1], Pp, dT),
        (Pv, T, -w * mesh.potential.reshape(-1, cols), Pv, T),
    ], index)
    return JacobiGalerkin(mesh, L, basis_degrees(L), stiff, mass)


@dataclass(frozen=True)
class SpectrumProbe:
    """Low eigenvalues of minus the Jacobi operator with index/nullity counts."""

    eigenvalues: np.ndarray
    n_negative: int
    n_null: int
    L: int
    order: int
    null_tol: float


def jacobi_spectrum_probe(
    g: MetricField,
    v,
    L: int = 12,
    *,
    order: int | None = None,
    null_tol: float = 1e-3,
    galerkin: JacobiGalerkin | None = None,
) -> SpectrumProbe:
    """Morse index and nullity probe for one equator.

    Counts the eigenvalues of minus the Jacobi operator below ``-null_tol``
    (the index) and within ``null_tol`` of zero (the nullity).  For every
    metric of the family on S^3 the expected counts are 1 and 3.
    """
    gal = galerkin if galerkin is not None else build_jacobi_galerkin(g, v, L, order=order)
    vals = gal.eigenvalues()
    n_neg = int(np.sum(vals < -null_tol))
    n_null = int(np.sum(np.abs(vals) <= null_tol))
    return SpectrumProbe(vals, n_neg, n_null, gal.L, gal.mesh.order, null_tol)


def jacobi_apply_field(
    g: MetricField,
    v,
    values,
    grads,
    L: int = 12,
    *,
    order: int | None = None,
    galerkin: JacobiGalerkin | None = None,
) -> np.ndarray:
    """Apply the Jacobi operator to a function given by exact node data.

    ``values`` are the function's values at the mesh nodes and ``grads`` its
    surface gradient components along the mesh frames (e_theta, e_phi).  The
    weak pairings with the degree-L harmonics use this exact data, so the
    result is limited by quadrature only, not by how well the function itself
    truncates at degree L (compare :meth:`JacobiGalerkin.apply`).
    """
    gal = galerkin if galerkin is not None else build_jacobi_galerkin(g, v, L, order=order)
    mesh = gal.mesh
    values = np.asarray(values, dtype=float)
    grads = np.asarray(grads, dtype=float)
    basis_values, basis_grads = gal.basis()
    w = mesh.weights * mesh.rho
    t = w[:, None] * np.einsum("nab,nb->na", mesh.induced_inv, grads)
    # r[k] = sum_n <basis_grads[n, k], t[n]>: the (a, a) diagonal of one matrix product
    r = np.einsum("kaa->k", (basis_grads.reshape(t.shape[0], -1).T @ t).reshape(-1, 2, 2))
    r -= basis_values.T @ (w * mesh.potential * values)
    return basis_values @ gal._mass_solve(-r)


def so4_jacobi_data(g: MetricField, mesh: EquatorMesh):
    """Jacobi-null candidates g(Kp, N) from ambient rotations tilting the equator,
    with exact surface gradients.

    The generators K pairing the normal v with the basis of the equator
    hyperplane move it through nearby equators and span the expected nullity.
    In the chart with frame (e_theta, e_phi, v) at a node, the function of the
    generator K reduces to eta = X(h) / |grad h|_g, where h is the height
    along v and X the chart velocity field of the rotation; the metric factors
    of g(Kp, N) cancel in the numerator.  Both eta and its first chart
    derivatives then come from the exact metric jets.  Returns
    ``(etas (3, m), grads (3, m, 2), Ks)`` with gradient components along the
    unit e_theta and e_phi directions.
    """
    v = mesh.equator.normal
    Ks = [wedge(v, u) for u in mesh.basis]
    bases = _mesh_bases(mesh.nodes, mesh.frames, v)
    Kv = np.stack([K.matrix.T @ v for K in Ks], axis=1)

    def node_block(sl):
        jet = g._chart_jets(bases[sl], np.zeros(3), first_order=True)
        row = jet.inverse[:, 2]
        B2 = row[:, 2]  # B = sqrt(ginv[2, 2]) and its chart derivatives along e_theta, e_phi
        B = np.sqrt(B2)[:, None]
        dB = -np.einsum("nk,nakl,nl->na", row, jet.grad[:, :2], row) / (2.0 * B)
        # A[node, r, j] = <K_j b_r, v> for the chart rows b = (p, e_theta, e_phi)
        A = bases[sl, :3] @ Kv
        return A[:, 0] / B, (A[:, 1:] * B[..., None] - A[:, :1] * dB[..., None]) / B2[:, None, None]

    etas, grads = _node_blocks(node_block, mesh.nodes.shape[0])
    return etas.T, grads.transpose(2, 0, 1), Ks


# ---------------------------------------------------------------------------
# left-invariant metrics on S^3 via quaternions


def quaternion_generators() -> tuple[SkewMatrix, SkewMatrix, SkewMatrix]:
    """Left multiplication by the imaginary quaternions i, j, k on R^4."""
    Mi = SkewMatrix(np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]))
    Mj = SkewMatrix(np.array([
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]))
    Mk = SkewMatrix(np.array([
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]))
    return Mi, Mj, Mk


def left_invariant_killing(a: float, b: float, c: float) -> KillingField:
    """Killing tensor whose generated metric is diag(a, b, c) in the quaternion frame."""
    if not all(np.isfinite(t) and t > 0.0 for t in (a, b, c)):
        raise DegenerateInputError("left-invariant coefficients must be finite and positive")
    Mi, Mj, Mk = quaternion_generators()
    scale = 1.0 / np.sqrt(a * b * c)
    k = (0.5 * a * scale) * sym_product(Mi, Mi)
    k = k + (0.5 * b * scale) * sym_product(Mj, Mj)
    k = k + (0.5 * c * scale) * sym_product(Mk, Mk)
    return k


def left_invariant_metric(a: float, b: float, c: float):
    """Left-invariant metric on S^3 with g(ip, ip) = a, g(jp, jp) = b, g(kp, kp) = c.

    Returns the metric together with its generating curvature tensor.
    (1, 1, 1) reproduces the round metric; (1, 1, 4) is the standard Berger
    example.
    """
    k = left_invariant_killing(a, b, c)
    R = curv_from_killing(k, check_constancy=False)
    return CurvatureMetric(R), R

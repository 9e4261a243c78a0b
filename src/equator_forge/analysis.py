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

import numpy as np

from .correspondence import CurvatureMetric, MetricField, curv_from_killing
from .harmonics import _harmonic_factors, basis_degrees, real_harmonic_basis
from .parallel import thread_count, tmap
from .sphere_geom import Equator, _equator_rule, _reference_grid, _tangent_bases, check_unit
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
    "SecondFundamentalForm",
    "second_fundamental_form",
    "EquatorMesh",
    "equator_mesh",
    "JacobiGalerkin",
    "build_jacobi_galerkin",
    "SpectrumProbe",
    "jacobi_spectrum_probe",
    "jacobi_apply_field",
    "so4_jacobi_data",
    "quaternion_generators",
    "left_invariant_killing",
    "left_invariant_metric",
]


# ---------------------------------------------------------------------------
# areas and the great-sphere transform


def _as_equator(v) -> Equator:
    return v if isinstance(v, Equator) else Equator(np.asarray(v, dtype=float))


def _area_elements(g: MetricField, v: Equator, order: int, seed: int):
    """Nodes, round weights and g-area densities on the equator with normal v.

    At a node with ambient metric matrix G and round orthonormal tangent frame
    F of the equator (rows), the density is sqrt det(F G F^T).
    """
    nodes, weights, frames = _equator_rule(v, order, seed)
    rho = np.sqrt(np.linalg.det(frames @ g.ambient_matrices(nodes) @ frames.transpose(0, 2, 1)))
    return nodes, weights, rho


def equator_area(g: MetricField, v, order: int = 32, *, seed: int = 0) -> float:
    """Area of the equator with normal v under the metric g.

    For members of the minimal-equator family on S^3 the value is independent
    of v.  Uses the deterministic product quadrature on S^3 (seeded Monte
    Carlo elsewhere).
    """
    _, weights, rho = _area_elements(g, _as_equator(v), order, seed)
    return float(weights @ rho)


def funk_radon(g: MetricField, f, v, order: int = 32, *, seed: int = 0) -> float:
    """Integral of f over the equator with normal v, against the g-area element.

    ``f`` maps the (m, n+1) array of quadrature nodes to their m values.
    """
    nodes, weights, rho = _area_elements(g, _as_equator(v), order, seed)
    values = np.asarray(f(nodes), dtype=float)
    if values.shape != weights.shape:
        raise DimensionError(f"f must map the nodes {nodes.shape} to {weights.shape}, got {values.shape}")
    return float(weights @ (values * rho))


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
    """A = hess / |grad h|, the induced metric G, its inverse and |A|^2 (leading axes allowed).

    The chart's last frame vector is the equator normal, so its first n - 1
    axes span the tangent space of the equator at the chart centre.
    """
    k = gmat.shape[-1] - 1
    A = hess[..., :k, :k] / norm[..., None, None]
    G = gmat[..., :k, :k]
    Ginv = np.linalg.inv(G)
    return A, G, Ginv, np.einsum("...ac,...bd,...ab,...cd->...", Ginv, Ginv, A, A)


def second_fundamental_form(g: MetricField, v, p) -> SecondFundamentalForm:
    """Second fundamental form at p of the equator with normal v, under g."""
    eq = _as_equator(v)
    v = eq.normal
    p = check_unit(p)
    if abs(p @ v) > 1e-10:
        raise DegenerateInputError("p does not lie on the equator of v")
    u = eq.basis()
    sigma_frame = _tangent_bases(u @ p)[1:] @ u  # orthonormal basis of (v, p)-perp
    bases = np.vstack([p, sigma_frame, v])
    gmat, ginv, gamma, _ = _centre_arrays(g, bases)
    _, _, hess, norm, _ = _height_hessian(bases, ginv, gamma, v)
    A, G, Ginv, norm2 = _shape_operator(gmat, hess, norm)
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


def _node_blocks(fn, m: int) -> list[np.ndarray]:
    """Outputs of ``fn(slice)`` over thread_count() contiguous blocks of m nodes, joined.

    Blocks hold at most 256 nodes: a worker thread's heap keeps the temporaries
    of the largest block it ran, and larger blocks save little time.
    """
    count = min(max(thread_count(), -(-m // 256)), m)
    edges = np.linspace(0, m, count + 1).astype(int)
    parts = tmap(fn, [slice(a, b) for a, b in zip(edges[:-1], edges[1:])])
    return [np.concatenate(field) for field in zip(*parts)]


def _mesh_bases(mesh_nodes, frames, v) -> np.ndarray:
    """Chart bases (m, 4, 4) with rows (node, e_theta, e_phi, v)."""
    return np.concatenate([mesh_nodes[:, None], frames, np.broadcast_to(v, frames[:, :1].shape)], axis=1)


def equator_mesh(g: MetricField, v, order: int = 32) -> EquatorMesh:
    """Build the Jacobi mesh for the equator with normal v (metrics on S^3)."""
    if g.n != 3:
        raise DimensionError("Jacobi meshes are implemented for S^3")
    eq = _as_equator(v)
    vn = eq.normal
    nodes, weights, frames = _equator_rule(eq, order, 0)  # seed unused: S^3 has the product grid
    bases = _mesh_bases(nodes, frames, vn)

    def node_block(sl):
        gmat, ginv, gamma, dgamma = _centre_arrays(g, bases[sl])
        _, ricci, _ = _curvature_arrays(gmat, ginv, gamma, dgamma)
        _, _, hess, norm, normal = _height_hessian(bases[sl], ginv, gamma, vn)
        _, G, _, a2 = _shape_operator(gmat, hess, norm)
        ric_nn = np.einsum("...i,...ij,...j->...", normal, ricci, normal)
        normal_ambient = np.einsum("...i,...ij->...j", normal, bases[sl, 1:])
        return normal_ambient, _mean_curvature(ginv, hess, norm, normal), ric_nn + a2, G

    normal_ambient, mean_curv, potential, induced = _node_blocks(node_block, nodes.shape[0])
    theta, phi = _reference_grid(order)[:2]
    return EquatorMesh(eq, order, eq.basis(), theta, phi, nodes, weights, frames, induced,
                       np.linalg.inv(induced), np.sqrt(np.linalg.det(induced)), normal_ambient,
                       mean_curv, potential)


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
        gradients (m, nb, 2) in the mesh frames."""
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
        """Eigenvalues of minus the Jacobi operator, ascending."""
        import scipy.linalg  # on use: importing the package loads no scipy
        return scipy.linalg.eigh(self.stiffness, self.mass, eigvals_only=True)

    def _mass_solve(self, rhs) -> np.ndarray:
        import scipy.linalg  # on use: importing the package loads no scipy
        return scipy.linalg.solve(self.mass, rhs, assume_a="pos")


def _factor_gram(terms, index) -> np.ndarray:
    """Symmetrised sum over terms (U, X, field, V, Y) of the grid pairings
    S[(l, a), (k, b)] = sum_ij field[i, j] U[i, l, a] X[j, a] V[i, k, b] Y[j, b],
    summed over phi j first, then theta i; gathered to basis order by ``index``."""
    S = 0.0
    for U, X, field, V, Y in terms:
        VF = V * ((X.T[:, None, :] * field) @ Y)[:, :, None, :]  # phi sum, times V: (a, theta, k, b)
        S = S + U.transpose(2, 1, 0) @ VF.reshape(*VF.shape[:2], -1)  # (a, l, (k, b))
    S = S.transpose(1, 0, 2).reshape(S.shape[0] * S.shape[1], -1)[np.ix_(index, index)]
    return 0.5 * (S + S.T)


def build_jacobi_galerkin(g: MetricField, v, L: int, *, order: int | None = None,
                          mesh: EquatorMesh | None = None) -> JacobiGalerkin:
    """Assemble the harmonic-basis Galerkin matrices on the equator of v."""
    if order is None:
        order = max(2 * L + 8, 24)
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
        jet = g._chart_jets(bases[sl], np.zeros(3))
        row = np.linalg.inv(jet.value)[:, 2]
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


def left_invariant_metric(a: float, b: float, c: float, *, seed: int = 0):
    """Left-invariant metric on S^3 with g(ip, ip) = a, g(jp, jp) = b, g(kp, kp) = c.

    Returns the metric together with its generating curvature tensor.
    (1, 1, 1) reproduces the round metric; (1, 1, 4) is the standard Berger
    example.
    """
    k = left_invariant_killing(a, b, c)
    R = curv_from_killing(k, seed=seed, check_constancy=False)
    return CurvatureMetric(R), R

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
from .sphere_geom import (Equator, _canonical, _equator_nodes, _on_rows, _reference_grid, _tangent_bases,
                          check_unit)
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


def _normal_array(g: MetricField, v, ndims=(1,)) -> np.ndarray:
    """The normal v, or its stack, as a float array, if its last axis has g's n + 1 entries."""
    V = v.normal if isinstance(v, Equator) else np.asarray(v, dtype=float)
    if V.ndim not in ndims or V.shape[-1] != g.n + 1:
        raise DimensionError(f"equator normals on S^{g.n} have {g.n + 1} entries, got shape {V.shape}")
    return V


def _as_equator(g: MetricField, v) -> Equator:
    """The equator of the normal v, for g's sphere."""
    V = _normal_array(g, v)
    return v if isinstance(v, Equator) else Equator(V)


def _stack_normals(g: MetricField, v) -> np.ndarray:
    """Canonical unit normals (E, n+1) of v or of each row of a stack v (E, n+1), for g's sphere: bitwise
    ``Equator(row).normal``, whose norm is the vecdot's, and the first bad row's ``Equator`` error."""
    if isinstance(v, Equator):
        return v.normal[None]
    V = np.atleast_2d(_normal_array(g, v, (1, 2)))
    norms = np.sqrt(np.vecdot(V, V))
    bad = ~np.all(np.isfinite(V), axis=-1) | (norms < 1e-12)
    if np.any(bad):
        Equator(V[np.argmax(bad)])  # raises that row's error
    return _canonical(V / norms[:, None])


def _area_elements(g: MetricField, normals: np.ndarray, order: int):
    """Orthonormal bases U (E, n+1, n+1) (rows: the basis u of a normal's hyperplane, then the normal),
    node coefficients c on u, round weights and g-area densities (E, m), in blocks of equators.

    The rule's nodes run by rows of 2k circle points, and node (r, j + k) is the antipode of node
    (rows - 1 - r, j), up to the rounding of the Gauss nodes.  When g(-p) = g(p) (``g.even``) only the
    columns j < k are evaluated and the rest of each equator's densities are those rows reversed.
    """
    c, weights = _equator_nodes(g.n, order)
    k = round((len(weights) // 2) ** (1 / (g.n - 1)))  # m = 2 k^(n-1): rows of 2k circle points
    half = c.reshape(-1, 2 * k, g.n)[:, :k].reshape(-1, g.n) if g.even else c
    cc = (half.T[:, None] * half.T[None, :]).reshape(g.n**2, -1)  # points last, as the Cholesky gate takes them
    U = np.concatenate([_tangent_bases(normals)[:, 1:], normals[:, None]], axis=1)
    step = max(_BLOCK_NODES // len(half), 1)
    rho = np.concatenate([g._equator_density(U[i:i + step], half, cc) for i in range(0, len(U), step)])
    if g.even:  # row r of the second half is row rows - 1 - r of the first
        rho = rho.reshape(len(U), -1, k)
        rho = np.concatenate([rho, rho[:, ::-1]], axis=-1).reshape(len(U), -1)
    return U, c, weights, rho


def _equator_integrals(g: MetricField, f, v, order: int):
    """weights @ (f(nodes) * rho) on the equator of v or of each row of a stack; f = None integrates 1."""
    U, c, weights, rho = _area_elements(g, _stack_normals(g, v), order)
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
    eq = _as_equator(g, v)
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
    even: bool  # g(-p) = g(p): half the nodes were evaluated, the rest taken from their antipodes

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
    """Build the Jacobi mesh for the equator with normal v (metrics on S^3).

    The nodes run by rows theta_i, each with 2 order columns phi_j.  When g(-p) = g(p) (``g.even``, every
    curvature metric), only the columns j < order are evaluated: node (i, j + order) is the antipode of
    node (order - 1 - i, j), up to the rounding of the Gauss nodes, and its mesh frame is (e_theta, -e_phi)
    of that node's, so the potential, density and g-normal are copied and the off-diagonal
    entries of the induced metric and its inverse, and the mean curvature, change sign.  Any other
    metric, such as a bump, is evaluated at every node.
    """
    if g.n != 3:
        raise DimensionError("Jacobi meshes are implemented for S^3")
    eq = _as_equator(g, v)
    vn, basis = eq.normal, eq.basis()
    theta, phi, c, weights, f = _reference_grid(order)
    nodes, frames = _on_rows(c, basis), _on_rows(f, basis)
    cols = order if g.even else 2 * order
    bases = _mesh_bases(nodes, frames, vn).reshape(order, 2 * order, 4, 4)[:, :cols].reshape(-1, 4, 4)

    def node_block(sl):
        gmat, ginv, gamma, dgamma = _centre_arrays(g, bases[sl])
        _, ricci, _ = _curvature_arrays(gmat, ginv, gamma, dgamma)
        _, _, hess, norm, normal = _height_hessian(bases[sl], ginv, gamma, vn)
        _, G, Ginv, det, a2 = _shape_operator(gmat, hess, norm)
        ric_nn = np.einsum("...i,...ij,...j->...", normal, ricci, normal)
        normal_ambient = np.einsum("...i,...ij->...j", normal, bases[sl, 1:])
        return normal_ambient, _mean_curvature(ginv, hess, norm, normal), ric_nn + a2, G, Ginv, det

    fields = _node_blocks(node_block, bases.shape[0])
    if g.even:  # the other half, row order - 1 - i of the evaluated columns, by the signs of the flipped frame
        odd = np.array([[1.0, -1.0], [-1.0, 1.0]])
        half = [F.reshape(order, order, *F.shape[1:]) for F in fields]
        fields = [np.concatenate([F, sign * F[::-1]], axis=1).reshape(-1, *F.shape[2:])
                  for F, sign in zip(half, (1.0, -1.0, 1.0, odd, odd, 1.0))]
    normal_ambient, mean_curv, potential, induced, induced_inv, det = fields
    return EquatorMesh(eq, order, basis, theta, phi, nodes, weights, frames, induced, induced_inv,
                       np.sqrt(det), normal_ambient, mean_curv, potential, g.even)


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

    @cached_property  # the eigensolve never needs the tables, so they are not built with the matrices
    def basis(self):
        """Values (m, nb) of the harmonic basis at the mesh nodes, and its
        gradients (m, nb, 2) in the mesh frames; built on first use."""
        return real_harmonic_basis(self.L, self.mesh.theta, self.mesh.phi)

    def project(self, node_values) -> np.ndarray:
        """Coefficients of the mass-orthogonal projection of node values."""
        w = self.mesh.weights * self.mesh.rho
        return self._mass_solve(self.basis[0].T @ (w * np.asarray(node_values, dtype=float)))

    def apply(self, coeffs) -> np.ndarray:
        """Node values of the Jacobi operator applied to a coefficient vector."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape != self.degrees.shape:
            raise DimensionError(f"expected {self.degrees.size} coefficients")
        return self.basis[0] @ self._mass_solve(-self.stiffness @ c)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of minus the Jacobi operator, ascending: one solve on each of the :func:`_degree_groups`."""
        blocks = [np.ix_(c, c) for c in _degree_groups(self.degrees, self.mesh.even)]
        return np.sort(np.concatenate([_pencil_eigenvalues(self.stiffness[b], self.mass[b]) for b in blocks]))

    def _mass_solve(self, rhs) -> np.ndarray:
        return np.linalg.solve(self.mass, rhs)


def _pencil_eigenvalues(S, M) -> np.ndarray:
    """Eigenvalues of the pencil (S, M), ascending: with M = C C^T, those of C^-1 S C^-T."""
    Ci = _lower_inverse(np.linalg.cholesky(M))
    return np.linalg.eigvalsh(Ci @ S @ Ci.T)


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


def _degree_groups(degrees, even: bool) -> list[np.ndarray]:
    """Basis columns that pair: even then odd degrees on an even mesh, where Y_l(-x) = (-1)^l Y_l(x), else all."""
    return [np.flatnonzero(degrees % 2 == p) for p in (0, 1)] if even else [np.arange(degrees.size)]


def _factor_gram(terms, index, groups) -> list[np.ndarray]:
    """Symmetrised sums over terms (U, X, field, V, Y) of the grid pairings S[(l, a), (k, b)] = sum_ij field[i, j]
    U[i, l, a] X[j, a] V[i, k, b] Y[j, b], summed over phi j first, then theta i: one block for each group p
    of s of the basis columns (k, b) of ``index``, on the same rows.  Its degrees are p mod s: U[:, p::s] only."""
    nT, s, blocks = terms[0][1].shape[1], len(groups), []
    sums = [(X.T[:, None, :] * field) @ Y for _, X, field, _, Y in terms]  # one phi sum per term, for every group
    for p, c in enumerate(groups):
        S = 0.0
        for (U, _, _, V, _), A in zip(terms, sums):  # times V at the columns, whose trig index is index % nT
            # np.take gives a C-ordered array to scale in place, where a fancy index and a product copy twice
            VF = np.take(A, index[c] % nT, axis=2)
            VF *= V.reshape(V.shape[0], -1)[:, index[c]]
            S = S + U[:, p::s].transpose(2, 1, 0) @ VF  # (a, l // s, basis)
        S = S[index[c] % nT, index[c] // nT // s]
        blocks.append(0.5 * (S + S.T))
    return blocks


def _galerkin_order(L: int, order: int | None = None) -> int:
    """The mesh order of a degree-L Galerkin basis: ``order`` (by default max(2L + 8, 24)), if at least L + 1."""
    order = max(2 * L + 8, 24) if order is None else order
    if order < L + 1:  # a coarser rule misses products of two degree-L harmonics: the mass matrix is singular
        raise DegenerateInputError(f"a degree-{L} basis needs a mesh order of at least {L + 1}, got {order}")
    return order


def build_jacobi_galerkin(g: MetricField, v, L: int, *, order: int | None = None,
                          mesh: EquatorMesh | None = None) -> JacobiGalerkin:
    """Assemble the harmonic-basis Galerkin matrices on the equator of v, meshed at an order of at least L + 1.

    On an even mesh node (i, j + order) is the antipode of node (order - 1 - i, j), where the integrand of a
    pair of degrees of equal parity takes the same value, so its theta rows i and order - 1 - i have equal
    sums: the pairings run over the rows i < order / 2 at twice the weight, and a middle row (odd order) at
    once.  Pairs of unequal parity integrate to zero: they are not formed, and the matrices hold exact zeros.
    """
    order = _galerkin_order(L, order if mesh is None else mesh.order)
    if mesh is None:
        mesh = equator_mesh(g, v, order)
    cols, rows = 2 * mesh.order, (mesh.order + 1) // 2 if mesh.even else mesh.order  # a product grid, by rows
    Pv, Pt, Pp, T, dT, index = _harmonic_factors(L, mesh.theta[::cols][:rows], mesh.phi[:cols])
    w = (mesh.weights * mesh.rho).reshape(-1, cols)[:rows]
    if mesh.even:
        w = np.where(np.arange(rows) < mesh.order // 2, 2.0, 1.0)[:, None] * w
    Ginv = mesh.induced_inv.reshape(-1, cols, 2, 2)[:rows]
    degrees = basis_degrees(L)
    groups = _degree_groups(degrees, mesh.even)
    mass = _factor_gram([(Pv, T, w, Pv, T)], index, groups)
    stiff = _factor_gram([
        (Pt, T, w * Ginv[..., 0, 0], Pt, T),
        (Pt, T, w * (Ginv[..., 0, 1] + Ginv[..., 1, 0]), Pp, dT),  # with its transpose, once symmetrised
        (Pp, dT, w * Ginv[..., 1, 1], Pp, dT),
        (Pv, T, -w * mesh.potential.reshape(-1, cols)[:rows], Pv, T),
    ], index, groups)
    full = np.zeros((2, degrees.size, degrees.size))
    for c, pair in zip(groups, zip(mass, stiff)):
        full[:, c[:, None], c] = pair
    return JacobiGalerkin(mesh, L, degrees, full[1], full[0])


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
    basis_values, basis_grads = gal.basis
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
    Ki, Kj, Kk = (sym_product(M, M).ambient_matrices for M in quaternion_generators())
    scale = 1.0 / np.sqrt(a * b * c)
    ci, cj, ck = 0.5 * a * scale, 0.5 * b * scale, 0.5 * c * scale
    return KillingField(3, lambda P: ci * Ki(P) + cj * Kj(P) + ck * Kk(P))


def left_invariant_metric(a: float, b: float, c: float):
    """Left-invariant metric on S^3 with g(ip, ip) = a, g(jp, jp) = b, g(kp, kp) = c.

    Returns the metric together with its generating curvature tensor.
    (1, 1, 1) reproduces the round metric; (1, 1, 4) is the standard Berger
    example.
    """
    k = left_invariant_killing(a, b, c)
    R = curv_from_killing(k, check_constancy=False)
    return CurvatureMetric(R), R

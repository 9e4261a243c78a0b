"""Algebraic curvature tensors on R^(n+1) and the group action on them.

A curvature tensor here is a 4-linear form with the symmetries of a Riemann
tensor: antisymmetry in the first and last pairs, symmetry under swapping the
pairs, and the first Bianchi identity.  The module provides construction and
validation, an orthonormal basis of the space of such tensors, sectional
curvature with a certified lower bound on its minimum, the model tensors (constant curvature and the complex-projective one), the
twisted GL(n+1) action, and a dense JSON interchange format.

Conventions: ``R.coeffs[a, b, c, d]`` is ``R(e_a, e_b, e_c, e_d)``, and the
sectional curvature of the plane spanned by orthonormal ``x, y`` is
``R(x, y, x, y)``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .tableio import _atomic_write

__all__ = [
    "DimensionError",
    "TensorSymmetryError",
    "DegenerateInputError",
    "PositivityError",
    "CurvatureTensor",
    "GroupElement",
    "SkewMatrix",
    "KillingField",
    "wedge",
    "symmetry_residuals",
    "curvature_projection",
    "curv_dim",
    "curv_basis",
    "basis_coefficients",
    "tensor_from_basis",
    "sectional",
    "PositivityCertificate",
    "is_positive",
    "constant_curvature",
    "fubini_study",
    "act",
    "sym_product",
    "killing_matrices",
    "random_positive",
    "save_tensor",
    "load_tensor",
    "save_matrix",
    "load_matrix",
]

TENSOR_FORMAT = "curv-dense-v1"
MATRIX_FORMAT = "matrix-v1"

SYMMETRY_TOL = 1e-12


class DimensionError(ValueError):
    """Array shape does not match the declared dimension."""


class TensorSymmetryError(ValueError):
    """A symmetry residual exceeds its tolerance."""


class DegenerateInputError(ValueError):
    """Degenerate geometric input: zero plane, singular matrix, non-unit vector."""


class PositivityError(ValueError):
    """A tensor or field that must be positive is not certified positive."""


@dataclass(frozen=True)
class SymmetryReport:
    """Max-norm residuals of the four curvature-tensor symmetries."""

    first_pair: float
    second_pair: float
    pair_swap: float
    bianchi: float

    @property
    def max(self) -> float:
        return max(self.first_pair, self.second_pair, self.pair_swap, self.bianchi)

    def as_dict(self) -> dict:
        return asdict(self)


def _as_curv_array(coeffs) -> np.ndarray:
    T = np.asarray(coeffs, dtype=float)
    if T.ndim != 4 or len(set(T.shape)) != 1:
        raise DimensionError(f"expected a hypercubic 4-index array, got shape {T.shape}")
    if T.shape[0] < 3:
        raise DimensionError("need ambient dimension >= 3 (sphere dimension n >= 2)")
    return T


def symmetry_residuals(coeffs) -> SymmetryReport:
    """Residuals of the four defining symmetries, in max norm."""
    T = _as_curv_array(coeffs)
    r1 = np.max(np.abs(T + np.einsum("bacd->abcd", T)))
    r2 = np.max(np.abs(T + np.einsum("abdc->abcd", T)))
    r3 = np.max(np.abs(T - np.einsum("cdab->abcd", T)))
    bianchi = T + np.einsum("acdb->abcd", T) + np.einsum("adbc->abcd", T)
    r4 = np.max(np.abs(bianchi))
    return SymmetryReport(float(r1), float(r2), float(r3), float(r4))


def curvature_projection(coeffs) -> np.ndarray:
    """Orthogonal projection of a 4-index array onto the curvature-tensor space.

    Antisymmetrizes both pairs, symmetrizes the pair swap, then removes the
    totally antisymmetric part (the obstruction to the first Bianchi identity).
    Idempotent, and the identity on arrays that already satisfy all four
    symmetries.  Leading axes are a batch of arrays, projected one by one.
    """
    T = np.asarray(coeffs, dtype=float)
    _as_curv_array(T[(0,) * max(T.ndim - 4, 0)])  # the shape check, on one array
    T = 0.25 * (
        T
        - np.einsum("...bacd->...abcd", T)
        - np.einsum("...abdc->...abcd", T)
        + np.einsum("...badc->...abcd", T)
    )
    T = 0.5 * (T + np.einsum("...cdab->...abcd", T))
    cyc = T + np.einsum("...acdb->...abcd", T) + np.einsum("...adbc->...abcd", T)
    return T - cyc / 3.0


class CurvatureTensor:
    """Immutable validated curvature tensor on R^(n+1)."""

    __slots__ = ("coeffs", "n")

    def __init__(self, coeffs, *, tol: float = SYMMETRY_TOL):
        T = _as_curv_array(coeffs).copy()
        if not np.all(np.isfinite(T)):
            raise DegenerateInputError("curvature tensor has non-finite coefficients")
        report = symmetry_residuals(T)
        if report.max > tol:
            raise TensorSymmetryError(
                f"symmetry residuals {report.as_dict()} exceed tolerance {tol:g}"
            )
        T.flags.writeable = False
        object.__setattr__(self, "coeffs", T)
        object.__setattr__(self, "n", T.shape[0] - 1)

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureTensor is immutable")

    def value(self, x, y, z, w) -> float:
        return float(np.einsum("abcd,a,b,c,d", self.coeffs, x, y, z, w))

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self) -> str:
        return f"CurvatureTensor(n={self.n}, max|R|={self.max_norm():.3g})"


@dataclass(frozen=True)
class GroupElement:
    """Invertible (n+1) x (n+1) matrix acting on tensors and on the sphere."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise DegenerateInputError("matrix has non-finite entries")
        if abs(np.linalg.det(M)) <= 1e-12:
            raise DegenerateInputError("matrix is numerically singular")
        object.__setattr__(self, "matrix", M)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))


@dataclass(frozen=True)
class SkewMatrix:
    """Skew-symmetric matrix: a rotation generator on R^(n+1)."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {M.shape}")
        if np.max(np.abs(M + M.T)) > 1e-14:
            raise TensorSymmetryError("matrix is not skew-symmetric")
        object.__setattr__(self, "matrix", M)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1


def wedge(a, b) -> SkewMatrix:
    """Generator of the rotation in the plane of ``a`` and ``b``: x -> <a,x>b - <b,x>a."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return SkewMatrix(np.outer(b, a) - np.outer(a, b))


# ---------------------------------------------------------------------------
# basis of the space of curvature tensors


def curv_dim(n: int) -> int:
    """Dimension of the space of curvature tensors on R^(n+1)."""
    m = n + 1
    return m * m * (m * m - 1) // 12


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # no sysconf on this platform
        return None


def _require_array(what: str, doubles: int) -> None:
    """Refuse ``what`` if its largest array, of ``doubles`` float64 numbers, exceeds physical memory."""
    need, have = 8 * doubles, _physical_memory()
    if have is not None and need > have:
        raise DimensionError(f"{what} needs an array of {need / 2**30:.3g} GiB, "
                             f"more than the {have / 2**30:.3g} GiB of physical memory")


def _require_memory(n: int, rows: int = 1) -> None:
    """Refuse dimension ``n`` if ``rows`` x (n+1)^4 doubles exceed physical memory.

    One row is a tensor's coefficients; :func:`basis_matrix` has ``curv_dim(n)``.
    """
    _require_array(f"n={n}", rows * (n + 1) ** 4)


@lru_cache(maxsize=None)
def basis_matrix(n: int) -> np.ndarray:
    """Orthonormal basis of curvature-tensor space as rows of shape ((n+1)^4,)."""
    if n < 2:
        raise DimensionError("curvature-tensor basis requires n >= 2")
    _require_memory(n, curv_dim(n))
    m = n + 1
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    idx = [p + q for a, p in enumerate(pairs) for q in pairs[a:]]
    T = np.zeros((len(idx), m, m, m, m))
    T[(np.arange(len(idx)), *np.array(idx).T)] = 1.0
    # Gram-Schmidt of the projected unit tensors, in order.  Candidates with
    # different index multisets have disjoint supports, so each needs only the
    # rows kept from its own multiset (the other steps subtract exact zeros).
    rows, kept = [], {}
    for key, vec in zip(idx, curvature_projection(T).reshape(len(idx), -1)):
        group = kept.setdefault(tuple(sorted(key)), [])
        for r in group:
            vec = vec - (r @ vec) * r
        norm = np.linalg.norm(vec)
        if norm > 1e-10:
            group.append(vec / norm)
            rows.append(group[-1])
    B = np.array(rows)
    if B.shape[0] != curv_dim(n):
        raise RuntimeError(
            f"basis construction produced {B.shape[0]} elements, expected {curv_dim(n)}"
        )
    B.flags.writeable = False
    return B


def curv_basis(n: int) -> list:
    """Deterministic orthonormal basis of the curvature-tensor space for S^n."""
    return [CurvatureTensor(row.reshape([n + 1] * 4)) for row in basis_matrix(n)]


def basis_coefficients(R: CurvatureTensor) -> np.ndarray:
    """Coefficients of ``R`` in the orthonormal basis of :func:`curv_basis`."""
    return basis_matrix(R.n) @ R.coeffs.reshape(-1)


def tensor_from_basis(n: int, coeffs) -> CurvatureTensor:
    """Assemble a tensor from its :func:`curv_basis` coefficient vector."""
    c = np.asarray(coeffs, dtype=float)
    B = basis_matrix(n)
    if c.shape != (B.shape[0],):
        raise DimensionError(f"expected {B.shape[0]} coefficients, got shape {c.shape}")
    m = n + 1
    return CurvatureTensor((c @ B).reshape(m, m, m, m))


# ---------------------------------------------------------------------------
# sectional curvature


def sectional(R: CurvatureTensor, x, y) -> float:
    """Sectional curvature of the plane spanned by ``x`` and ``y``."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    area2 = (x @ x) * (y @ y) - (x @ y) ** 2
    if area2 <= 1e-12:
        raise DegenerateInputError("plane is numerically degenerate")
    return R.value(x, y, x, y) / area2


@dataclass(frozen=True)
class SecMinResult:
    """Outcome of the minimum-sectional-curvature probe :func:`sec_min_estimate` (not exported)."""

    value: float
    x: np.ndarray
    y: np.ndarray


def _retract(X: np.ndarray) -> np.ndarray:
    """Orthonormalize a stack of (m, 2) frames: the Q of QR with positive diagonal."""
    x = X[..., 0] / np.linalg.norm(X[..., 0], axis=-1, keepdims=True)
    y = X[..., 1] - np.sum(x * X[..., 1], axis=-1, keepdims=True) * x
    y = y / np.linalg.norm(y, axis=-1, keepdims=True)
    return np.stack([x, y], axis=-1)


def _plane_terms(T2: np.ndarray, X: np.ndarray):
    """Sectional curvatures of a stack of orthonormal frames, and R(., ., x, y).

    ``T2`` is the tensor reshaped to ((n+1)^2, (n+1)^2).  Returns ``f`` of
    shape (k,) with f = R(x, y, x, y), and ``S`` of shape (k, n+1, n+1) with
    S[a, b] = R(e_a, e_b, x, y).
    """
    k, m, _ = X.shape
    W = (X[:, :, 0, None] * X[:, None, :, 1]).reshape(k, m * m)
    S = W @ T2
    return np.sum(W * S, axis=1), S.reshape(k, m, m)


def sec_min_estimate(
    R: CurvatureTensor,
    *,
    restarts: int = 8,
    iters: int = 300,
    step: float = 0.05,
    seed: int = 0,
) -> SecMinResult:
    """Estimate the minimum sectional curvature by projected gradient descent.

    Runs ``restarts`` seeded descents over orthonormal pairs (x, y) at once,
    as one (restarts, n+1, 2) array.  Each restart keeps its own step rule: a
    fixed initial step ``step``, Armijo backtracking by halving, and a QR
    retraction after every step; a restart stops when its projected gradient
    vanishes or no step down is found, and the batch stops after ``iters``
    iterations or when every restart has stopped.  Deterministic for a given
    seed.

    The value is attained on the returned plane, so it is an upper bound on
    the true minimum; a descent that misses the deepest basin overestimates
    it.  It is a probe estimate, not a certificate of positivity.

    Not exported by the package, and called by no command: it is kept only
    because the benchmark tracer patches it by name and the tests use it as
    an upper-bound oracle for :func:`is_positive`, until it moves into the
    tests next to their brute-force plane sampler (ROADMAP item 9).

    Returns
    -------
    SecMinResult
        Best value found and the minimizing orthonormal pair.
    """
    m = R.n + 1
    T2 = R.coeffs.reshape(m * m, m * m)
    X = _retract(np.random.default_rng(seed).standard_normal((restarts, m, 2)))
    f, S = _plane_terms(T2, X)
    active = np.arange(restarts)
    for _ in range(iters):
        if active.size == 0:
            break
        Xa, Sa = X[active], S[active]
        # Euclidean gradient of R(x, y, x, y), projected onto the Stiefel tangent space
        gx = 2.0 * np.einsum("kab,kb->ka", Sa, Xa[:, :, 1])
        gy = 2.0 * np.einsum("kab,ka->kb", Sa, Xa[:, :, 0])
        G = np.stack([gx, gy], axis=-1)
        XtG = np.swapaxes(Xa, 1, 2) @ G
        P = G - Xa @ (0.5 * (XtG + np.swapaxes(XtG, 1, 2)))
        gnorm2 = np.sum(P * P, axis=(1, 2))
        alpha = np.full(active.size, float(step))
        moved = np.zeros(active.size, dtype=bool)
        pending = np.flatnonzero((gnorm2 >= 1e-24) & (alpha > 1e-14))
        while pending.size:
            Xn = _retract(Xa[pending] - alpha[pending, None, None] * P[pending])
            fn, Sn = _plane_terms(T2, Xn)
            ok = fn < f[active[pending]] - 1e-4 * alpha[pending] * gnorm2[pending]
            done = pending[ok]
            X[active[done]], f[active[done]], S[active[done]] = Xn[ok], fn[ok], Sn[ok]
            moved[done] = True
            alpha[pending[~ok]] *= 0.5
            pending = pending[~ok]
            pending = pending[alpha[pending] > 1e-14]
        active = active[moved]
    best = int(np.argmin(f))
    return SecMinResult(float(f[best]), X[best, :, 0].copy(), X[best, :, 1].copy())


def _two_vector_operator(R: CurvatureTensor) -> np.ndarray:
    """R on 2-vectors e_a ^ e_b (a < b): entry ((a, b), (c, d)) is R(e_a, e_b, e_c, e_d)."""
    a, b = np.triu_indices(R.n + 1, 1)
    return R.coeffs[a, b][:, a, b]


@lru_cache(maxsize=None)
def _four_forms(m: int) -> np.ndarray:
    """Operators on 2-vectors of the basis 4-forms e_a ^ e_b ^ e_c ^ e_d (a < b < c < d) of R^m."""
    index = {pair: i for i, pair in enumerate(zip(*np.triu_indices(m, 1)))}
    W = np.zeros((comb(m, 4), len(index), len(index)))
    for k, (a, b, c, d) in enumerate(combinations(range(m), 4)):
        for p, q, sign in (((a, b), (c, d), 1.0), ((a, c), (b, d), -1.0), ((a, d), (b, c), 1.0)):
            W[k, index[p], index[q]] = W[k, index[q], index[p]] = sign
    W.flags.writeable = False
    return W


def _barrier_path(R: CurvatureTensor):
    """The 4-forms omega of the ascent that maximizes lambda_min(R^ + omega^), as pairs (t, w).

    ``w`` holds omega's coefficients on :func:`_four_forms`, and t <= lambda_min(R^ + omega^) up to
    rounding.  The path starts at omega = 0 with t = lambda_min(R^); then damped Newton steps
    follow the log-barrier path of max t + mu log det(R^ + omega^ - t I), with mu falling by 10^3
    a stage from ||R^|| to 10^-12 ||R^||, and no step goes past 0.9 of the way to the boundary.
    Each iterate that passed its Cholesky test comes with its t; the last omega, the best one,
    is not tested and comes with t = -inf.
    """
    A, forms = _two_vector_operator(R), _four_forms(R.n + 1)
    K, ev = len(forms), np.linalg.eigvalsh(A)
    yield float(ev[0]), np.zeros(K)
    scale = float(np.max(np.abs(ev)))
    G = np.concatenate([forms, -np.eye(len(A))[None]])  # derivatives in z = (w, t)
    z = np.append(np.zeros(K), ev[0] - scale)
    for mu in scale * 1e-3 ** np.arange(5 if K and scale else 0):  # none for n = 2 or R = 0
        for _ in range(50):
            try:
                Li = np.linalg.inv(np.linalg.cholesky(A + np.tensordot(z, G, 1)))
            except np.linalg.LinAlgError:  # rounding left the feasible set
                yield -np.inf, z[:K]
                return
            yield float(z[K]), z[:K].copy()
            F = Li @ G @ Li.T  # the derivatives where the barrier matrix is I
            grad = np.trace(F, axis1=1, axis2=2) + np.eye(K + 1)[K] / mu  # of log det + t / mu
            step = np.linalg.solve(np.einsum("kij,lij->kl", F, F), grad)
            z += 0.9 / max(0.9, -np.linalg.eigvalsh(np.tensordot(step, F, 1))[0]) * step
            if grad @ step < 0.0625:  # Newton decrement below 1/4
                break
    yield -np.inf, z[:K]


def _best_four_form(R: CurvatureTensor) -> np.ndarray:
    """Operator of the 4-form omega that maximizes lambda_min(R^ + omega^): the end of
    :func:`_barrier_path`.  Every omega gives a valid bound, so the search only tightens it."""
    *_, (_, w) = _barrier_path(R)
    return np.tensordot(w, _four_forms(R.n + 1), 1)


@dataclass(frozen=True)
class PositivityCertificate:
    """Bounds on the minimum sectional curvature, with a witness plane.

    ``lower`` is proven; ``upper`` is attained on the orthonormal plane
    (x, y).  ``positive`` is ``lower > margin``.
    """

    positive: bool
    lower: float
    upper: float
    margin: float
    x: np.ndarray
    y: np.ndarray


def _certificate(R: CurvatureTensor, shift: np.ndarray, margin: float) -> PositivityCertificate:
    """Bounds from lambda_min(R^ + shift), for the operator ``shift`` of a 4-form."""
    M = _two_vector_operator(R) + shift
    lam, vecs = np.linalg.eigh(M)
    # eigh is backward stable: allow 8 N eps ||M||_F for it and for forming M
    lower = float(lam[0] - 8 * len(M) * np.finfo(float).eps * np.linalg.norm(M))
    X = np.zeros((R.n + 1, R.n + 1))
    X[np.triu_indices(R.n + 1, 1)] = vecs[:, 0]
    # the witness plane: the top singular pair of the bottom eigenvector as a skew matrix
    x, y = np.linalg.svd(X - X.T)[0].T[:2]
    return PositivityCertificate(lower > margin, lower, sectional(R, x, y), margin, x, y)


def is_positive(R: CurvatureTensor, *, margin: float = 0.0) -> PositivityCertificate:
    """Certify that all sectional curvatures of R exceed ``margin``, without sampling.

    A 4-form omega vanishes on every plane, so lambda_min(R^ + omega^) bounds
    the sectional curvature from below for every omega (Thorpe's trick).  The
    bound is exact for n <= 3; for n >= 4 it certifies strongly positive
    curvature, which is sufficient for positivity but not necessary.  The
    certificate is that of the best omega, the tightest bound the search finds.
    """
    return _certificate(R, _best_four_form(R), margin)


def _decide_positive(R: CurvatureTensor, margin: float) -> PositivityCertificate:
    """``is_positive(R, margin=margin)``'s verdict, from the first 4-form on the ascent that decides it.

    A certificate that clears ``margin`` ends the search, often at omega = 0 before any Newton
    step; its bound can be lower than is_positive's.  A tensor no iterate shows positive gets
    is_positive's certificate, from the same last omega.
    """
    forms = _four_forms(R.n + 1)
    for t, w in _barrier_path(R):
        # t bounds lambda_min only up to rounding, so the certificate decides
        if t > margin and (cert := _certificate(R, np.tensordot(w, forms, 1), margin)).positive:
            return cert
    return _certificate(R, np.tensordot(w, forms, 1), margin)


# ---------------------------------------------------------------------------
# model tensors


def constant_curvature(n: int, c: float = 1.0) -> CurvatureTensor:
    """Tensor of constant sectional curvature ``c`` on R^(n+1)."""
    eye = np.eye(n + 1)
    T = c * (np.einsum("ac,bd->abcd", eye, eye) - np.einsum("ad,bc->abcd", eye, eye))
    return CurvatureTensor(T)


def complex_structure(m: int) -> np.ndarray:
    """Standard complex structure on R^(2m+2), pairing coordinates (0,1), (2,3), ..."""
    dim = 2 * m + 2
    J = np.zeros((dim, dim))
    for a in range(m + 1):
        J[2 * a + 1, 2 * a] = 1.0
        J[2 * a, 2 * a + 1] = -1.0
    return J


def fubini_study(m: int) -> CurvatureTensor:
    """Curvature tensor of the complex projective model on S^(2m+1).

    Sectional curvatures fill the interval [1, 4]: 4 on complex lines, 1 on
    totally real planes.
    """
    if m < 2:
        raise DimensionError("complex projective model requires m >= 2")
    eye = np.eye(2 * m + 2)
    J = complex_structure(m)
    T = (
        np.einsum("ac,bd->abcd", eye, eye)
        - np.einsum("ad,bc->abcd", eye, eye)
        + np.einsum("ca,db->abcd", J, J)
        - np.einsum("da,cb->abcd", J, J)
        + 2.0 * np.einsum("ba,dc->abcd", J, J)
    )
    return CurvatureTensor(T)


# ---------------------------------------------------------------------------
# group action


def act(R: CurvatureTensor, T: GroupElement) -> CurvatureTensor:
    """Right action of GL(n+1): pull back by ``T`` and rescale by |det T|^(-4/(n+1)).

    The determinant weight makes constant multiples of the identity act
    trivially, so the action descends to projective transformations.  The
    absolute value keeps orientation-reversing elements inside the action
    (they preserve positivity of the sectional curvatures).
    """
    if T.n != R.n:
        raise DimensionError(f"matrix is for n={T.n}, tensor for n={R.n}")
    M = T.matrix
    weight = abs(T.det) ** (-4.0 / (R.n + 1))
    S = weight * R.coeffs
    for _ in range(4):  # contract the leading slot with M; the new index goes last
        S = np.tensordot(S, M, axes=([0], [0]))
    return CurvatureTensor(S, tol=1e-9 * max(1.0, float(np.max(np.abs(S)))))


# ---------------------------------------------------------------------------
# Killing tensors of rank one pairs, and evaluation of R(p, ., p, .)


class AmbientField:
    """Symmetric 2-tensor field on S^n, evaluated through ambient matrices.

    Subclasses provide ``ambient_matrices(P)``: for each row p of P, the
    symmetric matrix M(p) with M(p) p = 0 that restricts to the tensor at p.
    """

    n: int

    def ambient_matrices(self, points) -> np.ndarray:
        raise NotImplementedError

    def ambient_matrix(self, p) -> np.ndarray:
        return self.ambient_matrices(np.asarray(p, float)[None, :])[0]

    def value(self, p, v, w) -> float:
        return float(np.asarray(v, float) @ self.ambient_matrix(p) @ np.asarray(w, float))


class KillingField(AmbientField):
    """Field of a batched function of points, such as k_p(v, w) = R(p, v, p, w)."""

    def __init__(self, n: int, batch_fn):
        self.n = n
        self._batch_fn = batch_fn

    def ambient_matrices(self, points) -> np.ndarray:
        P = np.atleast_2d(np.asarray(points, dtype=float))
        if P.shape[1] != self.n + 1:
            raise DimensionError(f"points must have {self.n + 1} components")
        return self._batch_fn(P)


def killing_matrices(R, points) -> np.ndarray:
    """Ambient matrices of k_p = R(p, ., p, .) at rows p of ``points``, for a tensor or a stack (G, m, m, m, m)."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    C, m = (R.coeffs if isinstance(R, CurvatureTensor) else R), P.shape[-1]
    # T[n, c, (b, d)] = R(p_n, b, c, d), then contract c with p_n: one (N, m) and one (1, m) product per slice
    T = P @ np.swapaxes(C, -3, -2).reshape(*C.shape[:-4], m, -1)
    return (P[..., None, :] @ T.reshape(*T.shape[:-1], m, m * m)).reshape(*T.shape[:-1], m, m)


def sym_product(K: SkewMatrix, L: SkewMatrix) -> KillingField:
    """Symmetric product of rotation generators as a field on the sphere.

    At p the tensor is (v, w) -> <Kp, v><Lp, w> + <Lp, v><Kp, w>.  Fields of
    this kind are constant along great circles, and they span the same space
    as the fields generated by curvature tensors.
    """
    if K.n != L.n:
        raise DimensionError("dimension mismatch between generators")
    KM, LM = K.matrix, L.matrix

    def batch(P):
        KP = P @ KM.T
        LP = P @ LM.T
        M = np.einsum("ni,nj->nij", KP, LP)
        return M + np.swapaxes(M, 1, 2)

    return KillingField(K.n, batch)


# ---------------------------------------------------------------------------
# random tensors with positive curvature

# longest walk from the round tensor taken by random_positive
STEP_CAP = 64.0


def random_positive(
    n: int,
    seed: int = 0,
    *,
    target_margin: float = 0.1,
):
    """Random tensor with a certified bound ``target_margin`` on its sectional curvature.

    Walks from the round tensor R0, the identity on 2-vectors, along a seeded
    unit-norm direction U.  With the 4-form omega of U's certificate
    (:func:`is_positive`), R0 + eps U has the bound 1 + eps lower(U), so the
    step is eps = (1 - target_margin) / -lower(U), capped at ``STEP_CAP``.
    Returns the tensor, its bound (from the shift eps omega) and eps.
    """
    if not 0.0 < target_margin < 1.0:
        raise ValueError(f"target_margin must lie in (0, 1), got {target_margin!r}")
    u = np.random.default_rng(seed).standard_normal(curv_dim(n))
    U = tensor_from_basis(n, u / np.linalg.norm(u))
    shift = _best_four_form(U)
    lower = _certificate(U, shift, 0.0).lower
    eps = min(STEP_CAP, (1.0 - target_margin) / -lower) if lower < 0.0 else STEP_CAP
    R = CurvatureTensor(constant_curvature(n, 1.0).coeffs + eps * U.coeffs)
    return R, _certificate(R, eps * shift, target_margin).lower, float(eps)


# ---------------------------------------------------------------------------
# JSON interchange


def save_tensor(R: CurvatureTensor, path: str) -> None:
    """Write a tensor as dense row-major JSON (format ``curv-dense-v1``)."""
    payload = {
        "format": TENSOR_FORMAT,
        "n": R.n,
        "coeffs": [float(v) for v in R.coeffs.reshape(-1)],
    }
    _atomic_write(path, json.dumps(payload, allow_nan=False) + "\n")


def _file_dimension(path: str, payload: dict) -> int:
    """The file's ``n``, which must be a JSON integer (not a bool, float or string)."""
    n = payload["n"]
    if type(n) is not int:
        raise DimensionError(f"{path}: n must be an integer, got {n!r}")
    _require_memory(n)
    return n


def _file_array(path: str, payload: dict, key: str, shape: tuple) -> np.ndarray:
    """The file's field ``key``: finite JSON numbers, never null, a bool, a string or an object, in an array of
    ``shape``."""
    a = np.asarray(payload[key], dtype=object)  # a ragged list keeps lists as entries
    if not set(map(type, a.flat)) <= {int, float}:
        raise ValueError(f"{path}: {key} must hold only numbers")
    if a.shape != shape:
        raise DimensionError(f"{path}: {key} must have shape {shape}, got {a.shape}")
    try:
        a = a.astype(float)
        finite = np.all(np.isfinite(a))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise DegenerateInputError(f"{path}: {key} has non-finite entries")
    return a


def load_tensor(path: str, *, tol: float = 1e-9) -> CurvatureTensor:
    """Read a ``curv-dense-v1`` tensor file.

    Rejects files whose symmetry residual exceeds ``tol``; accepted arrays are
    projected back onto the exact symmetry subspace so the usual construction
    tolerance holds afterwards.
    """
    with open(path) as fh:
        payload = json.load(fh)
    return _tensor_from_payload(path, payload, tol)


def _tensor_from_payload(path: str, payload, tol: float = 1e-9) -> CurvatureTensor:
    """The tensor of a parsed ``curv-dense-v1`` file, checked as :func:`load_tensor` describes."""
    if not isinstance(payload, dict) or payload.get("format") != TENSOR_FORMAT:
        raise ValueError(f"{path}: not a {TENSOR_FORMAT} tensor file")
    m = _file_dimension(path, payload) + 1
    T = _file_array(path, payload, "coeffs", (m**4,)).reshape(m, m, m, m)
    report = symmetry_residuals(T)
    if report.max > tol:
        raise TensorSymmetryError(
            f"{path}: symmetry residual {report.max:.3g} exceeds reader tolerance {tol:g}"
        )
    return CurvatureTensor(curvature_projection(T))


def save_matrix(T: GroupElement, path: str) -> None:
    """Write a group element as JSON (format ``matrix-v1``)."""
    payload = {
        "format": MATRIX_FORMAT,
        "n": T.n,
        "matrix": [[float(v) for v in row] for row in T.matrix],
    }
    _atomic_write(path, json.dumps(payload, allow_nan=False) + "\n")


def load_matrix(path: str) -> GroupElement:
    """Read a ``matrix-v1`` group-element file."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != MATRIX_FORMAT:
        raise ValueError(f"{path}: not a {MATRIX_FORMAT} matrix file")
    m = _file_dimension(path, payload) + 1
    return GroupElement(_file_array(path, payload, "matrix", (m, m)))

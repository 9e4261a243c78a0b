"""Real spherical harmonics on S^2 with tangential derivatives.

Basis ordering: degrees l = 0..L; within a degree first m = 0, then for each
m = 1..l the cosine function followed by the sine function.  All functions are
orthonormal for the round area element.  Gradients are returned as components
in the orthonormal polar frame (e_theta, e_phi), i.e. (d_theta Y,
d_phi Y / sin(theta)); quadrature grids built elsewhere never place nodes at
the poles, so the sine division is safe.
"""

from __future__ import annotations

from math import lgamma, pi, sqrt

import numpy as np

__all__ = ["basis_size", "basis_degrees", "real_harmonic_basis"]


def basis_size(L: int) -> int:
    return (L + 1) ** 2


def basis_degrees(L: int) -> np.ndarray:
    """Degree l of each basis function, in basis order."""
    out = []
    for l in range(L + 1):
        out.append(l)
        for _ in range(1, l + 1):
            out.extend([l, l])
    return np.array(out, dtype=int)


def _norms(L: int) -> np.ndarray:
    """Orthonormalization constants N[l, m] = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)."""
    N = np.zeros((L + 1, L + 1))
    for l in range(L + 1):
        for m in range(l + 1):
            N[l, m] = sqrt((2 * l + 1) / (4.0 * pi)) * np.exp(
                0.5 * (lgamma(l - m + 1) - lgamma(l + m + 1))
            )
    return N


def real_harmonic_basis(L: int, theta: np.ndarray, phi: np.ndarray):
    """Values and tangential gradients of the real harmonic basis at given angles.

    Parameters
    ----------
    L : int
        Maximum degree; the basis has (L + 1)^2 functions.
    theta, phi : ndarray, shape (m,)
        Polar angles of the evaluation points, with 0 < theta < pi.

    Returns
    -------
    values : ndarray, shape (m, (L+1)^2)
    grads : ndarray, shape (m, (L+1)^2, 2)
        Components (d_theta Y, d_phi Y / sin theta).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    npts = theta.shape[0]
    nb = basis_size(L)
    z = np.cos(theta)
    st = np.sin(theta)
    if np.any(st <= 1e-12):
        raise ValueError("evaluation points must avoid the poles")
    N = _norms(L)
    values = np.empty((npts, nb))
    grads = np.empty((npts, nb, 2))
    cos_m = np.cos(np.outer(phi, np.arange(L + 1)))
    sin_m = np.sin(np.outer(phi, np.arange(L + 1)))
    from scipy.special import assoc_legendre_p_all  # on use: importing the package loads no scipy
    P, dP = assoc_legendre_p_all(L, L, z, diff_n=1)  # P[l, m, point], dP/dz
    dth = -st[None, None, :] * dP
    col = 0
    for l in range(L + 1):
        values[:, col] = N[l, 0] * P[l, 0]
        grads[:, col, 0] = N[l, 0] * dth[l, 0]
        grads[:, col, 1] = 0.0
        col += 1
        for m in range(1, l + 1):
            base = sqrt(2.0) * N[l, m]
            pv, pd = P[l, m], dth[l, m]
            ratio = m * pv / st
            values[:, col] = base * pv * cos_m[:, m]
            grads[:, col, 0] = base * pd * cos_m[:, m]
            grads[:, col, 1] = -base * ratio * sin_m[:, m]
            col += 1
            values[:, col] = base * pv * sin_m[:, m]
            grads[:, col, 0] = base * pd * sin_m[:, m]
            grads[:, col, 1] = base * ratio * cos_m[:, m]
            col += 1
    return values, grads

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
    return np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)


def _norms(L: int) -> np.ndarray:
    """N[l, m] = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!), times sqrt 2 for m > 0 (real pairs)."""
    N = np.zeros((L + 1, L + 1))
    for l in range(L + 1):
        for m in range(l + 1):
            N[l, m] = sqrt((2 * l + 1) / (4.0 * pi)) * np.exp(
                0.5 * (lgamma(l - m + 1) - lgamma(l + m + 1)))
    N[:, 1:] *= sqrt(2.0)
    return N


def _harmonic_factors(L: int, theta, phi):
    """One-dimensional factors of the real harmonic basis.

    Trig column a is the constant for a = 0, else cos(m phi) for odd a and
    sin(m phi) for even a, with m = (a + 1) // 2.  Basis function (l, a) is
    Pv[l, a] T[a] with gradient (Pt[l, a] T[a], Pp[l, a] dT[a]), where Pv, Pt,
    Pp = N P, -N sin(theta) P', N m P / sin(theta), zero for m > l, have shape
    (len(theta), L+1, 2L+1) and T, dT = trig, (d/dphi trig) / m have shape
    (len(phi), 2L+1).  Also returns the flat (l, a) index of each basis function.
    """
    st = np.sin(theta)
    if np.any(st <= 1e-12):
        raise ValueError("evaluation points must avoid the poles")
    from scipy.special import assoc_legendre_p_all  # on use: importing the package loads no scipy
    P, dP = assoc_legendre_p_all(L, L, np.cos(theta), diff_n=1)  # P[l, m, point], dP/dz
    P, dth = P[:, : L + 1], -st * dP[:, : L + 1]
    m = np.arange(L + 1)
    N = _norms(L)
    a_m = (np.arange(2 * L + 1) + 1) // 2
    Pv, Pt, Pp = (np.ascontiguousarray(np.moveaxis(N[..., None] * F, -1, 0)[..., a_m])
                  for F in (P, dth, m[:, None] * P / st))
    cos_m, sin_m = np.cos(np.outer(phi, m)), np.sin(np.outer(phi, m))
    T, dT = (np.stack(pair, axis=-1).reshape(-1, 2 * L + 2)[:, 1:]
             for pair in ((cos_m, sin_m), (-sin_m, cos_m)))
    T[:, 0], dT[:, 0] = 1.0, 0.0
    l = basis_degrees(L)
    return Pv, Pt, Pp, T, dT, l * (2 * L + 1) + np.arange(l.size) - l**2


def real_harmonic_basis(L: int, theta: np.ndarray, phi: np.ndarray):
    """Values (m, (L+1)^2) and tangential gradients (m, (L+1)^2, 2) of the real
    harmonics of degree <= L at m points with polar angles theta, phi, where
    0 < theta < pi; gradient components are (d_theta Y, d_phi Y / sin theta)."""
    # the factors at each distinct angle only: a product grid repeats every theta and phi
    (theta, at), (phi, ap) = (np.unique(x, return_inverse=True) for x in (theta, phi))
    Pv, Pt, Pp, T, dT, index = _harmonic_factors(L, theta, phi)
    a = index % T.shape[-1]
    Pv, Pt, Pp = (F.reshape(F.shape[0], -1)[:, index][at] for F in (Pv, Pt, Pp))
    T, dT = T[:, a][ap], dT[:, a][ap]
    values = Pv * T
    grads = np.empty(values.shape + (2,))  # numpy is slow to broadcast over a last axis of 2
    np.multiply(Pt, T, out=grads[..., 0])
    np.multiply(Pp, dT, out=grads[..., 1])
    return values, grads

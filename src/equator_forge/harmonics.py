"""Real spherical harmonics on S^2 with tangential derivatives.

Basis ordering: degrees l = 0..L; within a degree first m = 0, then for each
m = 1..l the cosine function followed by the sine function.  All functions are
orthonormal for the round area element.  Gradients are returned as components
in the orthonormal polar frame (e_theta, e_phi), i.e. (d_theta Y,
d_phi Y / sin(theta)); quadrature grids built elsewhere never place nodes at
the poles, so the sine division is safe.  The Legendre factors come from the
fully normalised recurrence of :func:`_legendre`, in numpy alone.
"""

from __future__ import annotations

from math import pi, sqrt

import numpy as np


def basis_size(L: int) -> int:
    return (L + 1) ** 2


def basis_degrees(L: int) -> np.ndarray:
    """Degree l of each basis function, in basis order."""
    return np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)


def _legendre(L: int, theta):
    """Q[i, l, m] = N P_l^m(cos theta_i), N = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!), with the
    Condon-Shortley phase and zeros for m > l, and d/dtheta Q, each (len(theta), L+1, L+1):
    a product of sines on the diagonal, then the three-term recurrence in l for all m at once.
    d/dtheta Q_l^m = (sqrt((l-m)(l+m+1)) Q_l^{m+1} - sqrt((l+m)(l-m+1)) Q_l^{m-1}) / 2, with
    Q_l^{-1} = -Q_l^1, divides by no sin theta."""
    x, s = np.cos(theta), np.sin(theta)
    l, m = np.arange(L + 1)[:, None], np.arange(L + 1)
    Q = np.zeros((x.size, L + 1, L + 2))  # a zero column m = L + 1 for the derivative
    Q[:, m, m] = np.cumprod(np.r_[1 / sqrt(4 * pi), -np.sqrt(1 + 0.5 / m[1:])]) * s[:, None] ** m
    for j in range(1, L + 1):
        k2 = m[:j] ** 2
        a, b = np.sqrt((4 * j**2 - 1) / (j**2 - k2)), np.sqrt(((j - 1) ** 2 - k2) / (4 * (j - 1) ** 2 - 1))
        Q[:, j, :j] = a * (x[:, None] * Q[:, j - 1, :j] - b * Q[:, j - 2, :j])
    below = np.concatenate([-Q[:, :, 1:2], Q[:, :, :L]], axis=2)  # Q_l^{m-1}
    dQ = 0.5 * (np.sqrt(np.maximum((l - m) * (l + m + 1), 0)) * Q[:, :, 1:]
                - np.sqrt(np.maximum((l + m) * (l - m + 1), 0)) * below)
    return Q[:, :, : L + 1], dQ


def _harmonic_factors(L: int, theta, phi):
    """One-dimensional factors of the real harmonic basis.

    Trig column a is the constant for a = 0, else cos(m phi) for odd a and
    sin(m phi) for even a, with m = (a + 1) // 2.  Basis function (l, a) is
    Pv[l, a] T[a] with gradient (Pt[l, a] T[a], Pp[l, a] dT[a]), where Pv, Pt,
    Pp = c Q, c dQ/dtheta, c m Q / sin(theta) for the tables Q of :func:`_legendre`
    and c = sqrt 2 for m > 0 (real pairs), else 1, have shape (len(theta), L+1,
    2L+1), and T, dT = trig, (d/dphi trig) / m have shape (len(phi), 2L+1).
    Also returns the flat (l, a) index of each basis function.
    """
    st = np.sin(theta)
    if np.any(st <= 1e-12):
        raise ValueError("evaluation points must avoid the poles")
    m = np.arange(L + 1)
    P, dth = (np.where(m > 0, sqrt(2.0), 1.0) * F for F in _legendre(L, theta))
    a_m = (np.arange(2 * L + 1) + 1) // 2
    Pv, Pt, Pp = (np.ascontiguousarray(F[..., a_m]) for F in (P, dth, m * P / st[:, None, None]))
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

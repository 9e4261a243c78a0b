"""Benchmark inputs built with the benchmark's own numpy code.

Member tensors are ``R0 + eps * U``: ``R0`` is the round tensor, ``U`` a
seeded Gaussian 4-tensor projected onto the curvature symmetries and scaled
to unit Frobenius norm, and ``eps`` is drawn from [0.2, 0.9].  For
orthonormal x, y Cauchy-Schwarz gives |U(x, y, x, y)| <= ||U||_F = 1, so
every sectional curvature is at least 1 - eps >= 0.1.  The inputs do not
depend on the program's own generator.
"""

from __future__ import annotations

import json

import numpy as np

TENSOR_FORMAT = "curv-dense-v1"
BUMP_FORMAT = "bump-metric-v1"
EPS_RANGE = (0.2, 0.9)


def round_tensor(m: int) -> np.ndarray:
    """R0(x, y, z, w) = <x, z><y, w> - <x, w><y, z> on R^m."""
    eye = np.eye(m)
    return np.einsum("ac,bd->abcd", eye, eye) - np.einsum("ad,bc->abcd", eye, eye)


def project_curvature(T: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a 4-index array onto algebraic curvature tensors."""
    T = 0.25 * (T - T.transpose(1, 0, 2, 3) - T.transpose(0, 1, 3, 2) + T.transpose(1, 0, 3, 2))
    T = 0.5 * (T + T.transpose(2, 3, 0, 1))
    # remove the totally antisymmetric part, the obstruction to Bianchi
    cyclic = T + T.transpose(0, 2, 3, 1) + T.transpose(0, 3, 1, 2)
    return T - cyclic / 3.0


def member_tensor(n: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """A tensor R0 + eps U on R^(n+1) with sectional curvature >= 1 - eps."""
    m = n + 1
    U = project_curvature(rng.standard_normal((m, m, m, m)))
    U /= np.linalg.norm(U)
    eps = float(rng.uniform(*EPS_RANGE))
    return round_tensor(m) + eps * U, eps


def write_tensor(path, R: np.ndarray) -> None:
    payload = {
        "format": TENSOR_FORMAT,
        "n": R.shape[0] - 1,
        "coeffs": [float(v) for v in R.reshape(-1)],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def bump_fixture(n: int, rng: np.random.Generator) -> dict:
    """Negative-control fixture: a bump of amplitude 0.1 and width 0.04 at a seeded point."""
    q, _ = np.linalg.qr(rng.standard_normal((n + 1, 2)))
    return {
        "format": BUMP_FORMAT,
        "n": n,
        "amplitude": 0.1,
        "width": 0.04,
        "center": [float(v) for v in q[:, 0]],
        "direction": [float(v) for v in q[:, 1]],
    }


def write_bump(path, fixture: dict) -> None:
    with open(path, "w") as fh:
        json.dump(fixture, fh)

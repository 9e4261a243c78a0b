"""The benchmark's own output checks, independent of the program's code.

``plane_search`` bounds the sectional curvature of a dense curvature tensor
from seeded projected gradient flows over orthonormal pairs.  A plane it finds
with R(x, y, x, y) <= 0 is re-evaluated in exact rational arithmetic, so a
reported witness is a proof that the tensor is not positive.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ROUNDTRIP_TOL = 1e-8
BUMP_MEAN_CURVATURE_MIN = 1e-2
AREA_SPREAD_TOL = 1e-5
RADON_AREA_TOL = 1e-12
EXPECTED_COUNTS = (1, 3)
PLANE_STARTS = 64
PLANE_ITERS = 200
PLANE_STEP = 0.05
PLANE_SEED = 0


@dataclass(frozen=True)
class PlaneSearch:
    """Smallest and largest sectional curvature found, with the minimizing plane."""

    min_sec: float
    max_sec: float
    x: np.ndarray
    y: np.ndarray


def _orthonormalize(X: np.ndarray, Y: np.ndarray):
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    Y = Y - np.sum(X * Y, axis=1, keepdims=True) * X
    return X, Y / np.linalg.norm(Y, axis=1, keepdims=True)


def _descend(R: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """Projected gradient descent of R(x, y, x, y) over a batch of orthonormal pairs."""
    m = R.shape[0]
    flat = R.reshape(m, m**3)
    scale = PLANE_STEP / max(float(np.abs(R).max()), 1e-300)
    for _ in range(PLANE_ITERS):
        # gx_a = 2 R(a, y, x, y) and gy_b = 2 R(x, b, x, y), by the pair symmetry
        YXY = np.einsum("nb,nc,nd->nbcd", Y, X, Y).reshape(len(X), -1)
        XXY = np.einsum("na,nc,nd->nacd", X, X, Y).reshape(len(X), m, -1)
        gx = 2.0 * YXY @ flat.T
        gy = 2.0 * np.einsum("nak,abk->nb", XXY, R.reshape(m, m, m * m))
        X, Y = _orthonormalize(X - scale * gx, Y - scale * gy)
    return X, Y


def _values(R: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return np.einsum("abcd,na,nb,nc,nd->n", R, X, Y, X, Y, optimize=True)


def plane_search(R) -> PlaneSearch:
    """Seeded multi-start search for the extreme sectional curvatures of R."""
    R = np.asarray(R, dtype=float)
    m = R.shape[0]
    rng = np.random.default_rng(PLANE_SEED)
    X0, Y0 = _orthonormalize(rng.standard_normal((PLANE_STARTS, m)),
                             rng.standard_normal((PLANE_STARTS, m)))
    X, Y = _descend(R, X0, Y0)
    low = _values(R, X, Y)
    Xh, Yh = _descend(-R, X0, Y0)
    high = _values(R, Xh, Yh)
    i = int(np.argmin(low))
    return PlaneSearch(float(low[i]), float(high.max()), X[i].copy(), Y[i].copy())


def exact_sectional_numerator(R, x, y) -> Fraction:
    """R(x, y, x, y) in exact rational arithmetic on the stored float values."""
    R = np.asarray(R, dtype=float)
    xs = [Fraction(float(v)) for v in x]
    ys = [Fraction(float(v)) for v in y]
    m = R.shape[0]
    total = Fraction(0)
    for a in range(m):
        for b in range(m):
            xy = xs[a] * ys[b]
            if xy == 0:
                continue
            for c in range(m):
                for d in range(m):
                    r = R[a, b, c, d]
                    if r != 0.0:
                        total += Fraction(float(r)) * xy * xs[c] * ys[d]
    return total


def nonpositive_witness(R):
    """A plane with exact R(x, y, x, y) <= 0, or None if the search finds none."""
    found = plane_search(R)
    if found.min_sec > 1e-9:
        return None
    if exact_sectional_numerator(R, found.x, found.y) <= 0:
        return found
    return None


# ---------------------------------------------------------------------------
# per-workload checks; each returns (problems, residuals) and never raises


def check_forge(R, R2) -> tuple[list, list]:
    problems = []
    err = float(np.max(np.abs(np.asarray(R2) - np.asarray(R))))
    if not err <= ROUNDTRIP_TOL:
        problems.append(f"roundtrip error {err:.3g} > {ROUNDTRIP_TOL:g}")
    witness = nonpositive_witness(R)
    if witness is not None:
        problems.append(f"witness plane with sectional curvature {witness.min_sec:.4g} <= 0")
    return problems, [err]


def check_verify_member(code: int, report: dict | None) -> tuple[list, list]:
    if report is None:
        return [f"no report (exit {code})"], []
    checks = report["report"]["checks"]
    residuals = [c["residual"] for c in checks.values()]
    problems = [f"check {name} failed" for name, c in checks.items() if not c["pass"]]
    if code != 0:
        problems.append(f"exit {code}, expected 0")
    return problems, residuals


def check_verify_bump(code: int, report: dict | None) -> tuple[list, list]:
    if report is None:
        return [f"no report (exit {code})"], []
    problems = []
    if code != 1:
        problems.append(f"exit {code}, expected 1")
    h = report["report"]["checks"]["mean_curvature"]["residual"]
    if not h > BUMP_MEAN_CURVATURE_MIN:
        problems.append(f"bump mean curvature {h:.3g} <= {BUMP_MEAN_CURVATURE_MIN:g}")
    return problems, []


def read_csv_column(path, column: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def check_spectrum(codes: dict, spectrum: dict | None, area: dict | None,
                   areas: list, radons: list) -> tuple[list, list]:
    problems = [f"{cmd} exit {code}" for cmd, code in codes.items() if code != 0]
    if spectrum is None or area is None:
        return problems + ["missing command output"], []
    for level in spectrum["levels"]:
        counts = (level["n_negative"], level["n_null"])
        if counts != EXPECTED_COUNTS:
            problems.append(f"L={level['L']}: index/nullity {counts} != {EXPECTED_COUNTS}")
    spread = float(area["relative_spread"])
    if not spread <= AREA_SPREAD_TOL:
        problems.append(f"area relative spread {spread:.3g} > {AREA_SPREAD_TOL:g}")
    if len(areas) != len(radons) or not areas:
        return problems + ["area and radon scans differ in length"], [spread]
    a, r = np.asarray(areas), np.asarray(radons)
    mismatch = float(np.max(np.abs(r - a) / np.abs(a)))
    if not mismatch <= RADON_AREA_TOL:
        problems.append(f"radon/area relative mismatch {mismatch:.3g} > {RADON_AREA_TOL:g}")
    return problems, [spread, mismatch]

"""Real spherical harmonics and their tangential gradients."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from equator_forge.harmonics import _legendre, basis_degrees, basis_size, real_harmonic_basis
from equator_forge.sphere_geom import _reference_grid


@pytest.fixture(scope="module")
def grid():
    theta, phi, _, weights, _ = _reference_grid(24)
    return {"theta": theta, "phi": phi, "weights": weights}


def test_basis_size_and_degrees():
    assert basis_size(0) == 1
    assert basis_size(8) == 81
    deg = basis_degrees(3)
    assert deg.shape == (16,)
    assert list(deg[:5]) == [0, 1, 1, 1, 2]
    assert (np.bincount(deg) == np.array([1, 3, 5, 7])).all()


def test_orthonormality(grid):
    L = 6
    vals, _ = real_harmonic_basis(L, grid["theta"], grid["phi"])
    gram = vals.T @ (grid["weights"][:, None] * vals)
    assert_allclose(gram, np.eye(basis_size(L)), atol=1e-12)


def test_gradient_energy_is_eigenvalue(grid):
    # integral |grad Y_lm|^2 over the round sphere = l(l+1) by Green's identity
    L = 5
    vals, grads = real_harmonic_basis(L, grid["theta"], grid["phi"])
    energy = np.einsum("n,nka,nla->kl", grid["weights"], grads, grads)
    lam = basis_degrees(L) * (basis_degrees(L) + 1)
    assert_allclose(energy, np.diag(lam.astype(float)), atol=1e-10)


def test_low_degree_closed_forms(grid):
    vals, _ = real_harmonic_basis(1, grid["theta"], grid["phi"])
    z = np.cos(grid["theta"])
    x = np.sin(grid["theta"]) * np.cos(grid["phi"])
    y = np.sin(grid["theta"]) * np.sin(grid["phi"])
    c0 = 1.0 / math.sqrt(4.0 * math.pi)
    c1 = math.sqrt(3.0 / (4.0 * math.pi))
    assert_allclose(vals[:, 0], np.full(len(z), c0), atol=1e-14)
    assert_allclose(vals[:, 1], c1 * z, atol=1e-13)
    # order m = 1 pair spans {x, y}
    span = np.linalg.lstsq(vals[:, 2:4], np.column_stack([x, y]), rcond=None)[1]
    assert_allclose(span, np.zeros(2), atol=1e-20)


def test_gradient_matches_finite_differences():
    L = 4
    theta = np.array([0.7, 1.2, 2.1])
    phi = np.array([0.3, 2.5, 4.0])
    vals, grads = real_harmonic_basis(L, theta, phi)
    h = 1e-6
    vt, _ = real_harmonic_basis(L, theta + h, phi)
    vt2, _ = real_harmonic_basis(L, theta - h, phi)
    assert_allclose(grads[:, :, 0], (vt - vt2) / (2 * h), atol=1e-8)
    vp, _ = real_harmonic_basis(L, theta, phi + h)
    vp2, _ = real_harmonic_basis(L, theta, phi - h)
    fd_phi = (vp - vp2) / (2 * h) / np.sin(theta)[:, None]
    assert_allclose(grads[:, :, 1], fd_phi, atol=1e-8)


def test_poles_are_rejected():
    with pytest.raises(ValueError):
        real_harmonic_basis(3, np.array([0.0]), np.array([0.0]))


def _columnwise_basis(L, theta, phi):
    """The basis one column at a time from the 1-D Legendre tables: the reference for
    the factored evaluation, that is for its trig factors, gathering and sqrt 2."""
    st = np.sin(theta)
    values = np.empty((theta.size, basis_size(L)))
    grads = np.empty((theta.size, basis_size(L), 2))
    cos_m = np.cos(np.outer(phi, np.arange(L + 1)))
    sin_m = np.sin(np.outer(phi, np.arange(L + 1)))
    Q, dQ = (np.moveaxis(F, 0, -1) for F in _legendre(L, theta))  # [l, m, point]
    col = 0
    for l in range(L + 1):
        values[:, col] = Q[l, 0]
        grads[:, col] = np.column_stack([dQ[l, 0], np.zeros_like(st)])
        col += 1
        for m in range(1, l + 1):
            ratio = m * Q[l, m] / st
            for trig, dtrig in ((cos_m[:, m], -sin_m[:, m]), (sin_m[:, m], cos_m[:, m])):
                values[:, col] = math.sqrt(2.0) * Q[l, m] * trig
                grads[:, col, 0] = math.sqrt(2.0) * dQ[l, m] * trig
                grads[:, col, 1] = math.sqrt(2.0) * ratio * dtrig
                col += 1
    return values, grads


@pytest.mark.parametrize("L", [0, 1, 5, 16])
def test_factored_basis_matches_columnwise_evaluation(L):
    rng = np.random.default_rng(L)
    theta = rng.uniform(0.01, math.pi - 0.01, 200)
    phi = rng.uniform(-1.0, 7.0, 200)
    values, grads = real_harmonic_basis(L, theta, phi)
    ref_values, ref_grads = _columnwise_basis(L, theta, phi)
    assert_allclose(values, ref_values, rtol=0, atol=1e-14)
    assert_allclose(grads, ref_grads, rtol=0, atol=1e-14)


def _exact_legendre(L, theta):
    """N P_l^m(cos theta) and its theta-derivative in 30-digit arithmetic, from the exact
    integer coefficients of d^m/dx^m of 2^l P_l(x): a reference that shares no recurrence."""
    mp = pytest.importorskip("mpmath")
    values = np.zeros((theta.size, L + 1, L + 1))
    derivs = np.zeros_like(values)
    for l in range(L + 1):
        coeffs = [0] * (l + 1)  # by power of x
        for k in range(l // 2 + 1):
            coeffs[l - 2 * k] = (-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l)
        diffs = [coeffs]
        for _ in range(l + 1):
            diffs.append([j * c for j, c in enumerate(diffs[-1])][1:] or [0])
        for m, (i, t) in itertools.product(range(l + 1), enumerate(theta)):
            with mp.workdps(30):
                norm = mp.sqrt((2 * l + 1) / (4 * mp.pi) * mp.factorial(l - m) / mp.factorial(l + m)) / 2**l
                x, s = mp.cos(mp.mpf(t)), mp.sin(mp.mpf(t))
                p, dp = (mp.polyval(d[::-1], x) for d in (diffs[m], diffs[m + 1]))
                values[i, l, m] = (-1) ** m * norm * s**m * p
                derivs[i, l, m] = (-1) ** m * norm * ((m * s ** (m - 1) * x * p if m else 0) - s ** (m + 1) * dp)
    return values, derivs


@pytest.mark.parametrize("L", [5, 16])
def test_legendre_tables_match_an_exact_reference(L):
    # the angles of the factored-basis test at this L nearest both poles and across the range;
    # measured worst error 2.6e-15 of each (l, m) row's maximum, for values and derivatives
    theta = np.sort(np.random.default_rng(L).uniform(0.01, math.pi - 0.01, 200))[[0, 1, 50, 100, 150, 198, 199]]
    for table, exact in zip(_legendre(L, theta), _exact_legendre(L, theta)):
        scale = np.abs(exact).max(axis=0)
        assert np.all(np.abs(table - exact) <= 1e-14 * scale)

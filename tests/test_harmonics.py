"""Real spherical harmonics and their tangential gradients."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from equator_forge.harmonics import basis_degrees, basis_size, real_harmonic_basis
from equator_forge.sphere_geom import Equator, _equator_rule, _reference_grid


@pytest.fixture(scope="module")
def grid():
    theta, phi = _reference_grid(24)[:2]
    _, weights, _ = _equator_rule(Equator(np.array([0.0, 0.0, 0.0, 1.0])), 24, 0)
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
    """The basis one column at a time: the reference for the factored evaluation."""
    from scipy.special import assoc_legendre_p_all

    st = np.sin(theta)
    N = np.zeros((L + 1, L + 1))
    for l in range(L + 1):
        for m in range(l + 1):
            N[l, m] = math.sqrt((2 * l + 1) / (4.0 * math.pi)) * math.exp(
                0.5 * (math.lgamma(l - m + 1) - math.lgamma(l + m + 1)))
    values = np.empty((theta.size, basis_size(L)))
    grads = np.empty((theta.size, basis_size(L), 2))
    cos_m = np.cos(np.outer(phi, np.arange(L + 1)))
    sin_m = np.sin(np.outer(phi, np.arange(L + 1)))
    P, dP = assoc_legendre_p_all(L, L, np.cos(theta), diff_n=1)
    dth = -st[None, None, :] * dP
    col = 0
    for l in range(L + 1):
        values[:, col] = N[l, 0] * P[l, 0]
        grads[:, col] = np.column_stack([N[l, 0] * dth[l, 0], np.zeros_like(st)])
        col += 1
        for m in range(1, l + 1):
            base = math.sqrt(2.0) * N[l, m]
            ratio = m * P[l, m] / st
            for trig, dtrig in ((cos_m[:, m], -sin_m[:, m]), (sin_m[:, m], cos_m[:, m])):
                values[:, col] = base * P[l, m] * trig
                grads[:, col, 0] = base * dth[l, m] * trig
                grads[:, col, 1] = base * ratio * dtrig
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

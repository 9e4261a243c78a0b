"""Tests of the benchmark's own input builder and output checks."""

import numpy as np
import pytest

from bench import checks, inputs
from equator_forge.tensor_core import CurvatureTensor, fubini_study


def test_plane_search_on_round_tensor():
    found = checks.plane_search(inputs.round_tensor(4))
    assert found.min_sec == pytest.approx(1.0, abs=1e-12)
    assert found.max_sec == pytest.approx(1.0, abs=1e-12)


def test_plane_search_on_fubini_study():
    found = checks.plane_search(fubini_study(2).coeffs)
    assert found.min_sec == pytest.approx(1.0, abs=1e-9)
    assert found.max_sec == pytest.approx(4.0, abs=1e-9)


def test_witness_on_negative_plane():
    m = 4
    omega = np.zeros((m, m))
    omega[0, 1], omega[1, 0] = 1.0, -1.0
    R = inputs.round_tensor(m) - 1.5 * np.einsum("ab,cd->abcd", omega, omega)
    CurvatureTensor(R)
    witness = checks.nonpositive_witness(R)
    assert witness is not None
    assert witness.min_sec == pytest.approx(-0.5, abs=1e-9)
    assert checks.exact_sectional_numerator(R, witness.x, witness.y) < 0


def test_no_witness_on_round_tensor():
    assert checks.nonpositive_witness(inputs.round_tensor(5)) is None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_eps_construction_is_a_positive_curvature_tensor(n):
    R, eps = inputs.member_tensor(n, np.random.default_rng(n))
    assert inputs.EPS_RANGE[0] <= eps <= inputs.EPS_RANGE[1]
    CurvatureTensor(R)  # raises if a symmetry is violated
    assert checks.plane_search(R).min_sec >= 1.0 - eps - 1e-12


def test_projection_is_idempotent():
    T = np.random.default_rng(0).standard_normal((4, 4, 4, 4))
    P = inputs.project_curvature(T)
    CurvatureTensor(P)
    assert np.allclose(inputs.project_curvature(P), P, atol=1e-15)


def test_forge_check_flags_a_slightly_negative_tensor():
    """A step just past the positivity threshold, as in the known probe defect, is caught."""
    rng = np.random.default_rng(1)
    R0 = inputs.round_tensor(6)
    U = inputs.project_curvature(rng.standard_normal(R0.shape))
    eps = 1.03 / -checks.plane_search(U).min_sec  # min sectional curvature about -0.03
    R = R0 + eps * U
    problems, residuals = checks.check_forge(R, R)
    assert residuals == [0.0]
    assert len(problems) == 1 and "witness plane" in problems[0]

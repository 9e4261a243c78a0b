"""Algebraic curvature tensors: symmetries, bases, curvature bounds, group action."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from equator_forge.tensor_core import (
    CurvatureTensor,
    DegenerateInputError,
    DimensionError,
    GroupElement,
    PositivityError,
    SkewMatrix,
    TensorSymmetryError,
    _decide_positive,
    act,
    basis_coefficients,
    basis_matrix,
    complex_structure,
    constant_curvature,
    curv_basis,
    curv_dim,
    curvature_projection,
    fubini_study,
    is_positive,
    killing_matrices,
    load_matrix,
    load_tensor,
    random_positive,
    save_matrix,
    save_tensor,
    sec_brute_force,
    sec_min_estimate,
    sectional,
    sym_product,
    symmetry_residuals,
    tensor_from_basis,
    wedge,
)
from equator_forge.verification import GROUP_COND_MAX


def test_curv_dim_counts():
    assert [curv_dim(n) for n in (2, 3, 4, 5)] == [6, 20, 50, 105]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_count_and_orthonormality(n):
    basis = curv_basis(n)
    assert len(basis) == curv_dim(n)
    flat = np.array([B.coeffs.reshape(-1) for B in basis])
    assert_allclose(flat @ flat.T, np.eye(len(basis)), atol=1e-10)
    for B in basis[:3]:
        assert symmetry_residuals(B.coeffs).max < 1e-10


def test_basis_roundtrip():
    rng = np.random.default_rng(0)
    R, _, _ = random_positive(3, seed=1)
    c = basis_coefficients(R)
    R2 = tensor_from_basis(3, c)
    assert_allclose(R2.coeffs, R.coeffs, atol=1e-12)


def test_symmetry_validation_rejects_asymmetric_arrays():
    T = np.zeros((4, 4, 4, 4))
    T[0, 1, 0, 1] = 1.0  # missing the antisymmetric partners
    with pytest.raises(TensorSymmetryError):
        CurvatureTensor(T)


def _basis_by_full_gram_schmidt(n):
    """The basis as first built: each projected unit tensor against every row kept so far."""
    m = n + 1
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rows = []
    for a, (i, j) in enumerate(pairs):
        for i2, j2 in pairs[a:]:
            T = np.zeros((m, m, m, m))
            T[i, j, i2, j2] = 1.0
            vec = curvature_projection(T).reshape(-1)
            for r in rows:
                vec = vec - (r @ vec) * r
            norm = np.linalg.norm(vec)
            if norm > 1e-10:
                rows.append(vec / norm)
    return np.array(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_matrix_is_bitwise_the_full_gram_schmidt_basis(n):
    # seeded tensors are u @ B, so the grouped construction must not move a bit
    B = basis_matrix(n)
    ref = _basis_by_full_gram_schmidt(n)
    assert np.array_equal(B, ref)
    assert B.tobytes() == ref.tobytes()


def test_curvature_projection_of_a_stack_projects_each_array():
    rng = np.random.default_rng(3)
    T = rng.standard_normal((2, 3, 4, 4, 4, 4))
    P = curvature_projection(T)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(P[idx], curvature_projection(T[idx]))
    with pytest.raises(DimensionError):
        curvature_projection(np.zeros((2, 4, 4, 4)))


def test_non_finite_coefficients_are_rejected(tmp_path):
    T = constant_curvature(3).coeffs.copy()
    for bad in (np.nan, np.inf):
        T[0, 1, 0, 1] = bad
        with pytest.raises(DegenerateInputError):
            CurvatureTensor(T)
    path = tmp_path / "nan.json"
    save_tensor(constant_curvature(3), path)
    payload = json.loads(path.read_text())
    payload["coeffs"][0] = float("nan")
    path.write_text(json.dumps(payload))  # the stdlib writes NaN tokens by default
    with pytest.raises(DegenerateInputError):
        load_tensor(path)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_curvature_projection_is_identity_on_tensors(n, seed):
    R = constant_curvature(n)
    assert_allclose(curvature_projection(R.coeffs), R.coeffs, atol=1e-14)
    # and projects arbitrary input to something admissible, which it then keeps: P is idempotent
    P = curvature_projection(np.random.default_rng(seed).standard_normal((n + 1,) * 4))
    assert symmetry_residuals(P).max < 1e-12
    assert_allclose(curvature_projection(P), P, atol=1e-15)


def test_round_tensor_sectional_is_constant():
    rng = np.random.default_rng(2)
    R = constant_curvature(3, 1.0)
    for _ in range(20):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        assert_allclose(sectional(R, x, y), 1.0, atol=1e-12)
    R5 = constant_curvature(2, -0.5)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    assert_allclose(sectional(R5, x, y), -0.5, atol=1e-12)


def test_sectional_rejects_degenerate_planes():
    R = constant_curvature(3)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        sectional(R, x, 2.0 * x)


def test_fubini_study_sectional_range():
    m = 2
    R = fubini_study(m)
    J = complex_structure(m)
    rng = np.random.default_rng(3)
    p = rng.standard_normal(2 * m + 2)
    p /= np.linalg.norm(p)
    # holomorphic planes have curvature 4
    assert_allclose(sectional(R, p, J @ p), 4.0, atol=1e-12)
    # totally real planes have curvature 1: pick y orthogonal to p and Jp
    y = rng.standard_normal(2 * m + 2)
    y -= (y @ p) * p
    y -= (y @ (J @ p)) * (J @ p)
    assert_allclose(sectional(R, p, y), 1.0, atol=1e-12)
    # everything else lies in between
    mn, _ = sec_brute_force(R, samples=2000, seed=0)
    assert 1.0 - 1e-9 <= mn <= 4.0 + 1e-9


def test_sec_min_estimate_agrees_with_brute_force():
    for seed in (0, 1):
        R, _, _ = random_positive(3, seed=seed + 30)
        probe = sec_min_estimate(R, restarts=8, iters=250, seed=0)
        brute, _ = sec_brute_force(R, samples=30000, seed=1)
        # gradient descent should do at least as well as sampling
        assert probe.value <= brute + 1e-6
        # and the witness plane must attain the reported value
        assert_allclose(sectional(R, probe.x, probe.y), probe.value, atol=1e-10)


def test_fubini_study_minimum_is_one():
    probe = sec_min_estimate(fubini_study(2), restarts=6, iters=200, seed=0)
    assert_allclose(probe.value, 1.0, atol=1e-6)


def test_is_positive_and_certificates():
    R, _, _ = random_positive(3, seed=4)
    cert = is_positive(R, margin=0.0)
    assert cert.positive
    assert 0 < cert.lower <= cert.upper
    # an indefinite tensor: flip the sign
    neg = CurvatureTensor(-R.coeffs)
    cert2 = is_positive(neg)
    assert not cert2.positive
    assert sectional(neg, cert2.x, cert2.y) < 0


def _projected_gaussian(n, seed):
    m = n + 1
    return CurvatureTensor(curvature_projection(np.random.default_rng(seed).standard_normal((m,) * 4)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_certificate_brackets_the_minimum(n, seed):
    R = _projected_gaussian(n, seed)
    cert = is_positive(R)
    assert_allclose(np.stack([cert.x, cert.y]) @ np.stack([cert.x, cert.y]).T, np.eye(2), atol=1e-12)
    assert cert.upper == sectional(R, cert.x, cert.y)
    assert cert.lower <= cert.upper
    assert cert.lower <= sec_brute_force(R, samples=2000, seed=seed)[0]


def test_certificate_is_exact_for_n2():
    # every 2-vector in three dimensions is a plane, so lambda_min of R^ is the minimum
    for seed in range(20):
        cert = is_positive(_projected_gaussian(2, seed))
        assert 0.0 <= cert.upper - cert.lower <= 1e-12


def test_fubini_study_is_certified_by_the_four_form():
    R = fubini_study(2)
    a, b = np.triu_indices(6, 1)
    # R^ alone has a zero eigenvalue; only the 4-form shift lifts the bound to the minimum, 1
    assert abs(np.linalg.eigvalsh(R.coeffs[a, b][:, a, b])[0]) < 1e-12
    cert = is_positive(R, margin=0.5)
    assert cert.positive
    assert 1.0 - 1e-9 <= cert.lower <= cert.upper


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_random_positive_bound_is_the_target_margin(n):
    R, lower, _ = random_positive(n, seed=n, target_margin=0.1)
    assert abs(lower - 0.1) <= 1e-9
    # a fresh search on R certifies it as well
    assert is_positive(R).lower >= 0.1 - 1e-9


def _near_boundary(n, seed, f):
    """R0 + f U / -lower(U) for a seeded unit U: its certified bound is 1 - f, up to rounding."""
    u = np.random.default_rng(seed).standard_normal(curv_dim(n))
    U = tensor_from_basis(n, u / np.linalg.norm(u))
    return CurvatureTensor(constant_curvature(n).coeffs + f / -is_positive(U).lower * U.coeffs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), margin=st.sampled_from([0.0, 1e-6, 0.1]),
       f=st.sampled_from([None, 0.5, 0.9, 0.95, 0.999999, 1.0, 1.05]))
def test_the_decision_is_is_positives_verdict(n, seed, margin, f):
    # f = None: a projected Gaussian; otherwise a walk from R0 to near the boundary of positivity
    R = _projected_gaussian(n, seed) if f is None else _near_boundary(n, seed, f)
    decision = _decide_positive(R, margin)
    assert decision.positive == is_positive(R, margin=margin).positive
    if decision.positive:
        assert margin < decision.lower <= decision.upper == sectional(R, decision.x, decision.y)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_member_is_decided_without_a_newton_step(n, monkeypatch):
    # R0 + eps U with ||U||_F = 1 and eps <= 0.9: lambda_min(R^) >= 1 - eps / 2 >= 0.55, so
    # omega = 0 decides, before the ascent factors any barrier matrix
    def no_newton_step(M):
        raise AssertionError("the ascent took a Newton step")

    rng = np.random.default_rng(n)
    members = []
    for eps in (0.2, 0.9):
        U = _projected_gaussian(n, int(rng.integers(2**32)))
        members.append(CurvatureTensor(constant_curvature(n).coeffs + eps / np.linalg.norm(U.coeffs) * U.coeffs))
    monkeypatch.setattr(np.linalg, "cholesky", no_newton_step)
    for R in members:
        assert _decide_positive(R, 1e-6).positive


def test_random_positive_meets_target_margin():
    R, probed, eps = random_positive(3, seed=9, target_margin=0.1)
    assert probed >= 0.1 - 1e-9
    assert eps > 0
    # determinism
    R2, probed2, _ = random_positive(3, seed=9, target_margin=0.1)
    assert_allclose(R2.coeffs, R.coeffs, atol=0)
    assert probed2 == probed


def test_random_positive_n5_seed1_is_positive():
    # A generator whose shallow probe missed the deepest plane returned a
    # tensor here with a plane of sectional curvature -0.033.
    R, _, _ = random_positive(5, seed=1)
    check = sec_min_estimate(R, restarts=64, iters=300, seed=2024)
    assert check.value > 0
    assert_allclose(sectional(R, check.x, check.y), check.value, atol=1e-10)


def test_random_positive_step_is_closed_form():
    # sec(R0 + eps U) = 1 + eps U(x, y, x, y): the witness plane of U gives the margin
    R, probed, eps = random_positive(4, seed=3, target_margin=0.25)
    assert_allclose(probed, 0.25, atol=1e-12)
    U = CurvatureTensor((R.coeffs - constant_curvature(4).coeffs) / eps)
    assert_allclose(np.linalg.norm(U.coeffs), 1.0, atol=1e-12)
    probe = sec_min_estimate(U, restarts=64, iters=300, step=0.5, seed=7)
    assert 1.0 + eps * probe.value >= 0.25 - 1e-6


@pytest.mark.parametrize("margin", [0.0, 1.0, -0.1, float("nan")])
def test_random_positive_rejects_unreachable_margin(margin):
    with pytest.raises(ValueError):
        random_positive(3, seed=0, target_margin=margin)


# ---------------------------------------------------------------------------
# group action


def test_act_identity_and_scaling_are_trivial():
    R, _, _ = random_positive(3, seed=6)
    assert_allclose(act(R, GroupElement(np.eye(4))).coeffs, R.coeffs, atol=1e-14)
    # scalar multiples of the identity act trivially thanks to the det weight
    assert_allclose(act(R, GroupElement(2.5 * np.eye(4))).coeffs, R.coeffs, atol=1e-12)
    assert_allclose(act(R, GroupElement(-np.eye(4))).coeffs, R.coeffs, atol=1e-14)


def _group_element(rng, m: int) -> GroupElement:
    """I + 0.35 N, redrawn until its condition number is at most GROUP_COND_MAX, as verify draws it."""
    while True:
        M = np.eye(m) + 0.35 * rng.standard_normal((m, m))
        if np.linalg.cond(M) <= GROUP_COND_MAX:
            return GroupElement(M)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_act_is_a_right_action(n, seed):
    rng = np.random.default_rng(seed)
    R, _, _ = random_positive(n, seed=seed)
    T, S = _group_element(rng, n + 1), _group_element(rng, n + 1)
    TS = GroupElement(T.matrix @ S.matrix)
    lhs = act(act(R, T), S)
    rhs = act(R, TS)
    assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)


def test_act_preserves_positivity():
    rng = np.random.default_rng(8)
    R, _, _ = random_positive(3, seed=8)
    T = GroupElement(np.eye(4) + 0.4 * rng.standard_normal((4, 4)))
    probe = sec_min_estimate(act(R, T), restarts=6, iters=200, seed=0)
    assert probe.value > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_act_matches_five_operand_einsum(n):
    rng = np.random.default_rng(n)
    R = tensor_from_basis(n, rng.standard_normal(curv_dim(n)))
    T = GroupElement(np.eye(n + 1) + 0.4 * rng.standard_normal((n + 1, n + 1)))
    M = T.matrix
    ref = abs(T.det) ** (-4.0 / (n + 1)) * np.einsum("abcd,ai,bj,ck,dl->ijkl", R.coeffs, M, M, M, M)
    assert np.max(np.abs(act(R, T).coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_group_element_rejects_singular_matrices():
    M = np.eye(4)
    M[0, 0] = 0.0
    M[0, 1] = 0.0
    M[1, 0] = 0.0
    M[1, 1] = 0.0
    with pytest.raises(DegenerateInputError):
        GroupElement(M)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_group_element_rejects_non_finite_matrices(bad):
    with pytest.raises(DegenerateInputError):
        GroupElement(np.full((4, 4), bad))
    M = np.eye(4)
    M[2, 1] = bad
    with pytest.raises(DegenerateInputError):
        GroupElement(M)


# ---------------------------------------------------------------------------
# Killing fields and symmetric products


def test_killing_matrices_match_definition():
    R, _, _ = random_positive(3, seed=10)
    rng = np.random.default_rng(10)
    P = rng.standard_normal((6, 4))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    K = killing_matrices(R, P)
    for i, p in enumerate(P):
        direct = np.einsum("abcd,a,c->bd", R.coeffs, p, p)
        assert_allclose(K[i], direct, atol=1e-13)
        assert_allclose(K[i], K[i].T, atol=1e-13)
        assert_allclose(K[i] @ p, np.zeros(4), atol=1e-13)  # p is in the kernel


def test_sym_product_values():
    # K = L = left-multiplication generator at p = e0: k(v, w) = 2 <Kp,v><Kp,w>
    A = np.zeros((4, 4))
    A[0, 1] = -1.0
    A[1, 0] = 1.0
    K = SkewMatrix(A)
    k = sym_product(K, K)
    p = np.eye(4)[0]
    Kp = A @ p
    assert_allclose(k.value(p, Kp, Kp), 2.0, atol=1e-14)
    v = np.eye(4)[2]
    assert_allclose(k.value(p, v, v), 0.0, atol=1e-14)


def test_wedge_generators_are_skew():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    W = wedge(a, b)
    assert_allclose(W.matrix, -W.matrix.T, atol=1e-14)
    assert_allclose(W.matrix @ a, (a @ a) * b - (a @ b) * a, atol=1e-12)


def test_skew_matrix_rejects_symmetric_part():
    with pytest.raises(TensorSymmetryError):
        SkewMatrix(np.eye(4))


# ---------------------------------------------------------------------------
# persistence


def test_tensor_save_load_roundtrip(tmp_path):
    R, _, _ = random_positive(3, seed=12)
    path = tmp_path / "tensor.json"
    save_tensor(R, path)
    R2 = load_tensor(path)
    assert_allclose(R2.coeffs, R.coeffs, atol=1e-12)


def test_matrix_save_load_roundtrip(tmp_path):
    T = GroupElement(np.eye(4) + 0.2 * np.arange(16).reshape(4, 4))
    path = tmp_path / "mat.json"
    save_matrix(T, path)
    T2 = load_matrix(path)
    assert_allclose(T2.matrix, T.matrix, atol=0)


def test_load_tensor_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "n": 3, "coeffs": []}')
    with pytest.raises(ValueError):
        load_tensor(path)


def test_constant_curvature_requires_valid_dimension():
    with pytest.raises(DimensionError):
        constant_curvature(1)
    with pytest.raises(DimensionError):
        fubini_study(1)

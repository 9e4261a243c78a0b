"""Finite-difference cross-checks for the exact 2-jet arithmetic."""

import numpy as np
from numpy.testing import assert_allclose

from equator_forge.jets import (
    constant_jet,
    quadratic_matrix_jet,
    quadratic_scalar_jet,
    MatrixJet,
    ScalarJet,
)

H = 1e-5


def _fd_jet(f, x):
    """Value, gradient and Hessian of a scalar callable by central differences."""
    x = np.asarray(x, dtype=float)
    q = x.size
    grad = np.empty(q)
    hess = np.empty((q, q))
    for a in range(q):
        da = np.zeros(q)
        da[a] = H
        grad[a] = (f(x + da) - f(x - da)) / (2 * H)
        for b in range(q):
            db = np.zeros(q)
            db[b] = H
            hess[a, b] = (
                f(x + da + db) - f(x + da - db) - f(x - da + db) + f(x - da - db)
            ) / (4 * H * H)
    return f(x), grad, hess


def _scalar_field(rng, q):
    c0 = rng.standard_normal()
    c1 = rng.standard_normal(q)
    c2 = rng.standard_normal((q, q))
    c2 = 0.5 * (c2 + c2.T)

    def f(x):
        return c0 + c1 @ x + 0.5 * x @ c2 @ x

    return f, (c0, c1, c2)


def test_quadratic_scalar_jet_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(5):
        f, (c0, c1, c2) = _scalar_field(rng, 3)
        x = rng.standard_normal(3)
        jet = quadratic_scalar_jet(c0, c1, c2, x)
        v, g, h = _fd_jet(f, x)
        assert_allclose(jet.value, v, rtol=1e-12)
        assert_allclose(jet.grad, g, atol=1e-8)
        assert_allclose(jet.hess, h, atol=1e-5)


def test_scalar_jet_algebra():
    rng = np.random.default_rng(1)
    f, (c0, c1, c2) = _scalar_field(rng, 4)
    g, (d0, d1, d2) = _scalar_field(rng, 4)
    x = 0.3 * rng.standard_normal(4)
    # keep both fields positive near x so log/sqrt are defined
    shift = 5.0 + abs(f(x)) + abs(g(x))
    fx = quadratic_scalar_jet(c0 + shift, c1, c2, x)
    gx = quadratic_scalar_jet(d0 + shift, d1, d2, x)

    combos = {
        "sum": (lambda y: (f(y) + shift) + (g(y) + shift), fx + gx),
        "product": (lambda y: (f(y) + shift) * (g(y) + shift), fx * gx),
        "quotient": (lambda y: (f(y) + shift) / (g(y) + shift), fx / gx),
        "log": (lambda y: np.log(f(y) + shift), fx.log()),
        "sqrt": (lambda y: np.sqrt(f(y) + shift), fx.sqrt()),
        "power": (lambda y: (f(y) + shift) ** (-1.5), fx.power(-1.5)),
        "exp": (lambda y: np.exp(0.1 * (f(y) + shift)), (fx * 0.1).exp()),
        "affine": (lambda y: 2.0 * (f(y) + shift) - 1.0, fx * 2.0 - 1.0),
    }
    for name, (func, jet) in combos.items():
        v, gr, he = _fd_jet(func, x)
        assert_allclose(jet.value, v, rtol=1e-10, err_msg=name)
        assert_allclose(jet.grad, gr, rtol=1e-5, atol=1e-7, err_msg=name)
        assert_allclose(jet.hess, he, rtol=1e-3, atol=1e-5, err_msg=name)


def test_constant_jet_has_zero_derivatives():
    jet = constant_jet(2.5, 3)
    assert jet.value == 2.5
    assert not jet.grad.any()
    assert not jet.hess.any()


def _matrix_field(rng, q, m):
    A0 = rng.standard_normal((m, m))
    A0 = A0 @ A0.T + m * np.eye(m)  # positive definite at x = 0
    A1 = rng.standard_normal((q, m, m))
    A2 = rng.standard_normal((q, q, m, m))
    A2 = A2 + A2.transpose(1, 0, 2, 3)

    def M(x):
        return A0 + np.einsum("a,aij->ij", x, A1) + 0.5 * np.einsum(
            "a,b,abij->ij", x, x, A2
        )

    return M, (A0, A1, A2)


def test_quadratic_matrix_jet_and_determinant():
    rng = np.random.default_rng(2)
    M, (A0, A1, A2) = _matrix_field(rng, 3, 4)
    x = 0.1 * rng.standard_normal(3)
    jet = quadratic_matrix_jet(A0, A1, A2, x)
    assert_allclose(jet.value, M(x), atol=1e-12)

    det = jet.det()
    v, g, h = _fd_jet(lambda y: np.linalg.det(M(y)), x)
    assert_allclose(det.value, v, rtol=1e-10)
    assert_allclose(det.grad, g, rtol=1e-5)
    assert_allclose(det.hess, h, rtol=1e-3, atol=1e-4)

    logdet = jet.logdet()
    v, g, h = _fd_jet(lambda y: np.log(np.linalg.det(M(y))), x)
    assert_allclose(logdet.value, v, rtol=1e-10)
    assert_allclose(logdet.grad, g, rtol=1e-5)
    assert_allclose(logdet.hess, h, rtol=1e-3, atol=1e-4)


def test_matrix_jet_scaling_by_scalar_jet():
    rng = np.random.default_rng(3)
    M, (A0, A1, A2) = _matrix_field(rng, 2, 3)
    f, (c0, c1, c2) = _scalar_field(rng, 2)
    x = 0.2 * rng.standard_normal(2)
    jet = quadratic_matrix_jet(A0, A1, A2, x).scaled(
        quadratic_scalar_jet(c0 + 4.0, c1, c2, x)
    )

    def entry(y, i, j):
        Ay = A0 + np.einsum("a,aij->ij", y, A1) + 0.5 * np.einsum("a,b,abij->ij", y, y, A2)
        return (c0 + 4.0 + c1 @ y + 0.5 * y @ c2 @ y) * Ay[i, j]

    for i in (0, 2):
        for j in (1, 2):
            v, g, h = _fd_jet(lambda y: entry(y, i, j), x)
            assert_allclose(jet.value[i, j], v, rtol=1e-12)
            assert_allclose(jet.grad[:, i, j], g, rtol=1e-5, atol=1e-8)
            assert_allclose(jet.hess[:, :, i, j], h, rtol=1e-3, atol=1e-5)


def test_matrix_jet_sum():
    rng = np.random.default_rng(4)
    M1, parts1 = _matrix_field(rng, 2, 3)
    M2, parts2 = _matrix_field(rng, 2, 3)
    x = 0.1 * rng.standard_normal(2)
    j1 = quadratic_matrix_jet(*parts1, x)
    j2 = quadratic_matrix_jet(*parts2, x)
    total = j1 + j2
    assert_allclose(total.value, M1(x) + M2(x), atol=1e-12)
    assert_allclose(total.grad, j1.grad + j2.grad, atol=1e-12)
    assert_allclose(total.hess, j1.hess + j2.hess, atol=1e-12)


def test_one_jets_give_the_two_jets_value_and_gradient():
    # hess=None passes through every op, and the value and gradient do not depend on it
    rng = np.random.default_rng(5)
    f, (c0, c1, c2) = _scalar_field(rng, 3)
    x = 0.1 * rng.standard_normal(3)
    s2 = quadratic_scalar_jet(c0 + 5.0 + abs(f(x)), c1, c2, x)
    s1 = ScalarJet(s2.value, s2.grad, None)
    M, parts = _matrix_field(rng, 3, 4)
    m2 = quadratic_matrix_jet(*parts, x)
    m1 = MatrixJet(m2.value, m2.grad, None)
    scalar_ops = [lambda s: 2.0 - s * s / (s + 1.0), lambda s: (-s).exp() + s.log().sqrt(),
                  lambda s: 1.0 / s - s.power(1.5)]
    matrix_ops = [lambda m, s: m.scaled(m.det().power(-0.5) * s) + m, lambda m, s: m.logdet() * s]
    pairs = [(op(s1), op(s2)) for op in scalar_ops] + [(op(m1, s1), op(m2, s2)) for op in matrix_ops]
    for one, two in pairs:
        assert one.hess is None and two.hess is not None
        assert np.array_equal(one.value, two.value)
        assert np.array_equal(one.grad, two.grad)


def _batched_parts(rng, batch, q, m):
    parts = [_matrix_field(rng, q, m)[1] for _ in range(batch)]
    return [np.stack(arrays) for arrays in zip(*parts)]


def test_a_scaled_hessian_is_the_four_term_sum_bitwise():
    # the Hessian is accumulated in place: the reference is the sum written out, term by term.  The
    # second case scales a stack of points of one quadratic, whose Hessian has no leading axis, by a constant
    rng = np.random.default_rng(6)
    x = 0.2 * rng.standard_normal((7, 3))
    batched = ScalarJet(rng.standard_normal(7), rng.standard_normal((7, 3)), rng.standard_normal((7, 3, 3)))
    for M, s in ((quadratic_matrix_jet(*_batched_parts(rng, 7, 3, 4), x), batched),
                 (quadratic_matrix_jet(*_matrix_field(rng, 3, 4)[1], x), constant_jet(2.5, 3))):
        sv, sg = np.asarray(s.value)[..., None, None, None, None], s.grad[..., None, None]
        four_terms = (sv * M.hess + s.hess[..., None, None] * M.value[..., None, None, :, :]
                      + sg[..., :, None, :, :] * M.grad[..., None, :, :, :]
                      + sg[..., None, :, :, :] * M.grad[..., :, None, :, :])
        assert np.array_equal(M.scaled(s).hess, four_terms)


def test_a_quadratic_jet_at_the_chart_centre_is_the_general_one_bitwise():
    # one point x = 0 returns copies of the coefficients; a stack of zero points takes the general path
    rng = np.random.default_rng(7)
    parts, stacked = _matrix_field(rng, 3, 4)[1], _batched_parts(rng, 5, 3, 4)
    one, stack = quadratic_matrix_jet(*parts, np.zeros((1, 3))), quadratic_matrix_jet(*stacked, np.zeros((5, 3)))
    for coeffs, general in ((parts, MatrixJet(one.value[0], one.grad[0], one.hess)), (stacked, stack)):
        centre = quadratic_matrix_jet(*coeffs, np.zeros(3))
        for got, want, A in zip((centre.value, centre.grad, centre.hess),
                                (general.value, general.grad, general.hess), coeffs):
            assert np.array_equal(got, want) and not np.shares_memory(got, A)

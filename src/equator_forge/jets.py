"""Taylor data (1-jets and 2-jets) for scalar and matrix fields.

Everything downstream that needs derivatives of a metric in a chart --
Christoffel symbols, curvature, mean curvature of equators -- is built from
closed-form jets.  A :class:`ScalarJet` carries ``(value, grad, hess)`` of a
scalar function at a point; a :class:`MatrixJet` carries the same for a
matrix-valued function.  Arithmetic combines jets by the product, quotient and
chain rules, so no finite differencing enters the main code paths (finite
differences are kept for cross-checks in the tests).

A jet with ``hess=None`` is a 1-jet, and every operation passes the missing
Hessian through.  The sweeps, second fundamental forms, height derivatives and
SO(4) Jacobi data read only (g, dg) and use 1-jets; curvature, the equator
meshes and the public ``chart_jet`` use 2-jets.

Jets broadcast over leading axes, so one jet can hold a whole stack of points:
a scalar jet has value ``(...)``, grad ``(..., q)`` and hess ``(..., q, q)``;
a matrix jet has value ``(..., m, m)``, grad ``(..., q, m, m)`` and hess
``(..., q, q, m, m)``.  A single point, with no leading axes, rounds exactly as
in a stack: the contractions are stacked matmuls and traces, not reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ScalarJet", "MatrixJet", "constant_jet", "quadratic_scalar_jet", "quadratic_matrix_jet"]


def _lift(a, axes: int):
    """``a`` with ``axes`` trailing unit axes, to broadcast against derivative arrays."""
    return np.asarray(a)[(...,) + (None,) * axes]


def _opt(f, *hess):
    """``f(*hess)``, or None if a jet is a 1-jet."""
    return None if any(h is None for h in hess) else f(*hess)


@dataclass(frozen=True)
class ScalarJet:
    """Value (...), gradient (..., q) and Hessian (..., q, q) of a scalar field."""

    value: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray | None  # None for a 1-jet

    # numpy arrays on the left of an operator defer to the jet's own methods
    __array_ufunc__ = None

    def _chain(self, f0, f1, f2) -> "ScalarJet":
        """Jet of ``f(self)`` given ``f, f', f''`` evaluated at ``self.value``."""
        grad = _lift(f1, 1) * self.grad
        if self.hess is None:
            return ScalarJet(f0, grad, None)
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        hess = _lift(f1, 2) * self.hess + _lift(f2, 2) * outer
        return ScalarJet(f0, grad, hess)

    def __add__(self, other):
        if isinstance(other, ScalarJet):
            hess = _opt(np.add, self.hess, other.hess)
            return ScalarJet(self.value + other.value, self.grad + other.grad, hess)
        return ScalarJet(self.value + other, self.grad.copy(), _opt(lambda h: h.copy(), self.hess))

    __radd__ = __add__

    def __neg__(self):
        return ScalarJet(-self.value, -self.grad, _opt(np.negative, self.hess))

    def __sub__(self, other):
        return self + (-other if isinstance(other, ScalarJet) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, ScalarJet):
            value = self.value * other.value
            grad = self.grad * _lift(other.value, 1) + _lift(self.value, 1) * other.grad
            if self.hess is None or other.hess is None:
                return ScalarJet(value, grad, None)
            cross = self.grad[..., :, None] * other.grad[..., None, :]
            hess = (self.hess * _lift(other.value, 2) + _lift(self.value, 2) * other.hess
                    + cross + np.swapaxes(cross, -1, -2))
            return ScalarJet(value, grad, hess)
        return ScalarJet(self.value * other, self.grad * _lift(other, 1),
                         _opt(lambda h: h * _lift(other, 2), self.hess))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScalarJet):
            return self * other.power(-1.0)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.power(-1.0) * other

    def power(self, a: float) -> "ScalarJet":
        v = self.value  # np.power rounds a 0-d value as it does a batch, unlike ``**`` on a scalar
        return self._chain(np.power(v, a), a * np.power(v, a - 1.0), a * (a - 1.0) * np.power(v, a - 2.0))

    def log(self) -> "ScalarJet":
        v = self.value
        return self._chain(np.log(v), 1.0 / v, -1.0 / v**2)

    def exp(self) -> "ScalarJet":
        e = np.exp(self.value)
        return self._chain(e, e, e)

    def sqrt(self) -> "ScalarJet":
        return self.power(0.5)


def constant_jet(value: float, nvars: int) -> ScalarJet:
    return ScalarJet(float(value), np.zeros(nvars), np.zeros((nvars, nvars)))


def quadratic_scalar_jet(c0: float, c1: np.ndarray, c2: np.ndarray, x: np.ndarray) -> ScalarJet:
    """Exact jet of the quadratic ``c0 + c1.x + x.c2.x / 2`` (``c2`` symmetric)."""
    value = c0 + c1 @ x + 0.5 * x @ c2 @ x
    return ScalarJet(value, c1 + c2 @ x, c2.copy())


@dataclass(frozen=True)
class MatrixJet:
    """Value (..., m, m), gradient (..., q, m, m) and Hessian (..., q, q, m, m).

    ``grad[..., a, :, :]`` is the derivative along coordinate ``a``; ``hess``
    is symmetric in its two coordinate axes, or None for a 1-jet.  The matrix
    dimension m is independent of the number of chart variables q.
    """

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray | None
    inv: np.ndarray | None = None  # the value's inverse, where the field's construction gives it

    @property
    def inverse(self) -> np.ndarray:  # the carried inverse, or one np.linalg.inv
        return np.linalg.inv(self.value) if self.inv is None else self.inv

    def __add__(self, other: "MatrixJet") -> "MatrixJet":
        hess = _opt(np.add, self.hess, other.hess)
        return MatrixJet(self.value + other.value, self.grad + other.grad, hess)

    def scaled(self, s: ScalarJet) -> "MatrixJet":
        """Jet of ``s(x) * M(x)`` for a scalar jet ``s``; a carried inverse is divided by s."""
        sg = s.grad[..., None, None]
        value = _lift(s.value, 2) * self.value
        grad = _lift(s.value, 3) * self.grad + sg * self.value[..., None, :, :]
        inv = _opt(lambda B: B / _lift(s.value, 2), self.inv)
        if self.hess is None or s.hess is None:
            return MatrixJet(value, grad, None, inv)
        # accumulated in place, at the gradient's leading axes, which s.value * self.hess alone may lack
        hess = np.multiply(_lift(s.value, 4), self.hess, out=np.empty(grad.shape[:-2] + grad.shape[-3:]))
        hess += s.hess[..., None, None] * self.value[..., None, None, :, :]
        cross = sg[..., :, None, :, :] * self.grad[..., None, :, :, :]  # ds_a dM_b; its transpose is ds_b dM_a
        hess += cross
        hess += np.swapaxes(cross, -4, -3)
        return MatrixJet(value, grad, hess, inv)

    def _logdet_parts(self):
        """``(det M, grad log det M, hess log det M or None)``; requires ``M`` invertible."""
        d, B = np.linalg.det(self.value), self.inverse
        # d log det = tr(B dM);  dd log det = tr(B ddM) - tr(B dM B dM), the last two as vec(X^T) . vec(Y)
        BdM = B[..., None, :, :] @ self.grad
        glog = np.einsum("...aii->...a", BdM)  # a matmul and a trace: the same sums at any batch size
        if self.hess is None:
            return d, glog, None
        m, BdMt = B.shape[-1], np.swapaxes(BdM, -1, -2).reshape(*BdM.shape[:-2], -1)
        Bt = np.swapaxes(B, -1, -2).reshape(*B.shape[:-2], 1, m * m, 1)
        hlog = (self.hess.reshape(*self.hess.shape[:-2], m * m) @ Bt)[..., 0]
        return d, glog, hlog - BdM.reshape(BdMt.shape) @ np.swapaxes(BdMt, -1, -2)

    def det(self) -> ScalarJet:
        """Jet of ``det M`` via Jacobi's formula; requires ``M`` invertible."""
        d, glog, hlog = self._logdet_parts()
        if hlog is None:
            return ScalarJet(d, _lift(d, 1) * glog, None)
        outer = glog[..., :, None] * glog[..., None, :]
        return ScalarJet(d, _lift(d, 1) * glog, _lift(d, 2) * (hlog + outer))

    def logdet(self) -> ScalarJet:
        d, glog, hlog = self._logdet_parts()
        return ScalarJet(np.log(d), glog, hlog)


def quadratic_matrix_jet(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, x: np.ndarray) -> MatrixJet:
    """Exact jet at ``x`` of ``A(x) = A0 + sum_a x_a A1[a] + sum_ab x_a x_b A2[a,b] / 2``.

    ``A2`` must be symmetric in its two coordinate axes (it is the constant
    second derivative of ``A``).  All arguments may carry the same leading axes.
    """
    if np.ndim(x) == 1 and not np.any(x):  # one point at the chart centre: the jet is the coefficients
        return MatrixJet(A0.copy(), A1.copy(), A2.copy())
    xr, shape = np.asarray(x)[..., None, :], A1.shape[-2:]
    A2x = xr[..., None, :, :] @ A2.reshape(*A2.shape[:-2], -1)  # A2x[a, 0] = sum_b x_b A2[a, b]
    grad = A1 + A2x.reshape(*A2x.shape[:-2], *shape)
    value = A0 + (xr @ (A1 + 0.5 * A2x.reshape(grad.shape)).reshape(*grad.shape[:-2], -1)).reshape(
        *grad.shape[:-3], *shape)
    return MatrixJet(value, grad, A2.copy())

"""General tensor ops for the tests' gradient oracles.

``plsp.tensorcore`` builds every training graph from hand-written nodes. The
oracles in the tests compose the general ops those nodes replaced: matmul,
add/sub/mul with rank<=2 broadcasting, exp, log, elementwise max against a
constant, axis sums, transpose, reshape and a fused logsumexp whose
backward is the softmax. They are methods of ``Ref``, a ``Tensor`` whose
results are again ``Ref`` nodes, and the package's own reverse pass runs
them. ``lift`` starts a chain from a package tensor: a model parameter or
the output of ``extract_features``. ``gradients`` runs that reverse pass and
returns each parameter's gradient.
"""

from __future__ import annotations

import numpy as np

from plsp.tensorcore import Tensor


class NoGradientError(RuntimeError):
    """Raised when a gradient is requested for a detached tensor."""


def gradients(loss: Tensor, params: list[Tensor]) -> list[np.ndarray]:
    """Run backward and return each parameter's gradient (zeros if unused)."""
    for p in params:
        if not p.requires_grad:
            raise NoGradientError("parameter is detached (requires_grad=False)")
        p.grad = None
    loss.backward()
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` back down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _op(value, parents: tuple[Tensor, ...], vjp) -> "Ref":
    """``tensorcore.node`` with a ``Ref`` result, so that ops chain."""
    out = Ref(value)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def lift(t: Tensor) -> "Ref":
    """An identity node over ``t``: the start of an op chain."""
    return _op(t.data, (t,), lambda g: (g,))


class Ref(Tensor):
    __slots__ = ()

    @staticmethod
    def _lift(other) -> Tensor:
        return other if isinstance(other, Tensor) else Ref(other)

    def __add__(self, other) -> "Ref":
        other = self._lift(other)

        def vjp(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.shape) if other.requires_grad else None)

        return _op(self.data + other.data, (self, other), vjp)

    __radd__ = __add__

    def __neg__(self) -> "Ref":
        return _op(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other) -> "Ref":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Ref":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Ref":
        other = self._lift(other)

        def vjp(g):
            return (_unbroadcast(g * other.data, self.shape)
                    if self.requires_grad else None,
                    _unbroadcast(g * self.data, other.shape)
                    if other.requires_grad else None)

        return _op(self.data * other.data, (self, other), vjp)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Ref":
        if isinstance(other, Tensor) or isinstance(other, np.ndarray):
            raise TypeError("division is supported by scalars only")
        return self * (1.0 / float(other))

    def __matmul__(self, other) -> "Ref":
        other = self._lift(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul requires rank-2 operands")

        def vjp(g):
            return (g @ other.data.T if self.requires_grad else None,
                    self.data.T @ g if other.requires_grad else None)

        return _op(self.data @ other.data, (self, other), vjp)

    @property
    def T(self) -> "Ref":
        return _op(self.data.T, (self,), lambda g: (g.T,))

    def reshape(self, *shape) -> "Ref":
        old = self.shape
        return _op(self.data.reshape(*shape), (self,), lambda g: (g.reshape(old),))

    def exp(self) -> "Ref":
        # the vjp keeps the value array, not the node: a reference back to
        # the node would make every graph a cycle that only the cyclic GC frees
        value = np.exp(self.data)
        return _op(value, (self,), lambda g: (g * value,))

    def log(self) -> "Ref":
        return _op(np.log(self.data), (self,), lambda g: (g / self.data,))

    def maximum(self, floor: float) -> "Ref":
        """Elementwise max against a constant; gradient flows where data > floor."""
        mask = self.data > floor
        return _op(np.maximum(self.data, floor), (self,), lambda g: (g * mask,))

    def relu(self) -> "Ref":
        return self.maximum(0.0)

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Ref":
        def vjp(g):
            if axis is None:
                return (np.full_like(self.data, float(g)),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, self.shape).copy(),)

        return _op(self.data.sum(axis=axis, keepdims=keepdims), (self,), vjp)

    def logsumexp(self, axis: int, keepdims: bool = False) -> "Ref":
        """Max-shifted log-sum-exp along `axis`; backward is the softmax."""
        m = np.max(self.data, axis=axis, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        shifted = np.exp(self.data - m)
        total = shifted.sum(axis=axis, keepdims=True)
        value = m + np.log(total)
        soft = shifted / total

        def vjp(g):
            gg = g if keepdims else np.expand_dims(g, axis)
            return (gg * soft,)

        return _op(value if keepdims else value.squeeze(axis), (self,), vjp)

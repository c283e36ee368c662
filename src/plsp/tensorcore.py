"""Dense float64 tensors with reverse-mode differentiation, plus SGD.

The ops: matmul, add/sub/mul with rank<=2 broadcasting, exp, log,
elementwise max against a constant, axis sums, transpose, reshape and a
fused logsumexp whose backward is the softmax. Training adds nodes of its
own with hand-written backwards, built on ``Tensor._child``: one dense ReLU
layer per node (``plsp.model``), and the disambiguation-free loss, the
shifted log-softmax and the whole semantic objective, each one node
(``plsp.objective``). The training loops build no graph from the general
ops; ``objective.assemble_batch`` and the op-chain references in the tests
do.
Matrix products go to numpy's BLAS, which may spread them over threads (see
the README on OPENBLAS_NUM_THREADS); everything else runs in one thread.
Backward closures hold their parents and constant arrays, never their own
node, so a graph is acyclic and reference counting frees it as soon as its
root is dropped.
"""

from __future__ import annotations

import numpy as np


class NoGradientError(RuntimeError):
    """Raised when a gradient is requested for a detached tensor."""


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim > 2:
        raise ValueError(f"rank {arr.ndim} > 2 is unsupported")
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` back down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    # -- graph plumbing ----------------------------------------------------

    @staticmethod
    def _lift(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _child(self, data: np.ndarray, parents: tuple["Tensor", ...]) -> "Tensor":
        out = Tensor(data)
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # a copy, never the array itself: __add__ hands one array to both
            # parents, and a later += on one grad must not change the other
            self.grad = np.array(grad)
        else:
            self.grad += grad

    # -- ops ---------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out = self._child(self.data + other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._child(-self.data, (self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        out._backward = backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out = self._child(self.data * other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, Tensor) or isinstance(other, np.ndarray):
            raise TypeError("division is supported by scalars only")
        return self * (1.0 / float(other))

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul requires rank-2 operands")
        out = self._child(self.data @ other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        out._backward = backward
        return out

    @property
    def T(self) -> "Tensor":
        out = self._child(self.data.T, (self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.T)

        out._backward = backward
        return out

    def reshape(self, *shape) -> "Tensor":
        old = self.shape
        out = self._child(self.data.reshape(*shape), (self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(old))

        out._backward = backward
        return out

    def exp(self) -> "Tensor":
        # the closure keeps the value array, not `out`: a reference back to
        # the node would make every graph a cycle that only the cyclic GC frees
        value = np.exp(self.data)
        out = self._child(value, (self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * value)

        out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = self._child(np.log(self.data), (self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        out._backward = backward
        return out

    def maximum(self, floor: float) -> "Tensor":
        """Elementwise max against a constant; gradient flows where data > floor."""
        out = self._child(np.maximum(self.data, floor), (self,))
        mask = self.data > floor

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * mask)

        out._backward = backward
        return out

    def relu(self) -> "Tensor":
        return self.maximum(0.0)

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out = self._child(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.full_like(self.data, float(g)))
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(gg, self.shape).copy())

        out._backward = backward
        return out

    def logsumexp(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max-shifted log-sum-exp along `axis`; backward is the softmax."""
        m = np.max(self.data, axis=axis, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        shifted = np.exp(self.data - m)
        total = shifted.sum(axis=axis, keepdims=True)
        value = m + np.log(total)
        soft = shifted / total
        out = self._child(value if keepdims else value.squeeze(axis), (self,))

        def backward(g):
            if self.requires_grad:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(gg * soft)

        out._backward = backward
        return out

    # -- reverse pass ------------------------------------------------------

    def backward(self) -> None:
        """Populate .grad on every reachable requires_grad tensor.

        The root must be a scalar (size-1) tensor.
        """
        if self.data.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def gradients(loss: Tensor, params: list[Tensor]) -> list[np.ndarray]:
    """Run backward and return each parameter's gradient (zeros if unused)."""
    for p in params:
        if not p.requires_grad:
            raise NoGradientError("parameter is detached (requires_grad=False)")
        p.grad = None
    loss.backward()
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=axis, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=axis, keepdims=True)


class SgdOptimizer:
    """Classic momentum SGD: v <- mu*v + g + wd*p; p <- p - lr*v, with lr, mu
    and wd the ``learning_rate``, ``momentum`` and ``weight_decay`` of the
    run's ``TrainConfig``, which checks their ranges."""

    def __init__(self, params: list[Tensor], config):
        self.params = params
        self.config = config
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        """One update from each parameter's ``.grad``; a parameter with no
        gradient moves by momentum and weight decay alone."""
        cfg = self.config
        for p, v in zip(self.params, self.velocity):
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape}")
            v *= cfg.momentum
            v += g + cfg.weight_decay * p.data
            p.data -= cfg.learning_rate * v

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

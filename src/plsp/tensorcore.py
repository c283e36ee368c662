"""Dense float64 tensors with reverse-mode differentiation, plus SGD.

A graph is built from hand-written nodes, each made by ``node``: one dense
ReLU layer per node (``plsp.model``), and the disambiguation-free loss, the
shifted log-softmax and the whole semantic objective, each one node
(``plsp.objective``). A node's ``vjp`` maps the gradient that reaches it to
the gradients of its parents in one closed-form step; there are no general
ops to compose.
Matrix products go to numpy's BLAS, which may spread them over threads (see
the README on OPENBLAS_NUM_THREADS); everything else runs in one thread.
A ``vjp`` holds its parents and constant arrays, never its own node, so a
graph is acyclic and reference counting frees it as soon as its root is
dropped.
"""

from __future__ import annotations

import numpy as np


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim > 2:
        raise ValueError(f"rank {arr.ndim} > 2 is unsupported")
    return arr


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    def _accumulate(self, grad: np.ndarray) -> None:
        # the first gradient is kept as is, not copied: a vjp may hand one
        # array to two parents, so a later gradient is added into a new
        # array, never written into the one held
        self.grad = grad if self.grad is None else self.grad + grad

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
            if node._vjp is not None:
                for parent, grad in zip(node._parents, node._vjp(node.grad)):
                    if grad is not None:
                        parent._accumulate(grad)


def node(value, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """A graph node holding ``value`` computed from ``parents``.

    ``vjp(g)`` maps the gradient ``g`` that reaches the node to one gradient
    per parent, in order, and returns None, computing nothing, for a parent
    whose ``requires_grad`` is false. A node none of whose parents needs a
    gradient is a constant.
    """
    out = Tensor(value)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


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
            g = p.grad
            if g is not None and g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape}")
            # one temporary per parameter: wd*p + g, then lr*v in its place
            step = cfg.weight_decay * p.data
            step += 0.0 if g is None else g
            v *= cfg.momentum
            v += step
            p.data -= np.multiply(v, cfg.learning_rate, out=step)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

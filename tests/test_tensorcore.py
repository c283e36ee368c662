"""The reverse pass, ``softmax`` and SGD of ``plsp.tensorcore``, and the
general ops and ``gradients`` of the tests' oracle graph (``refgraph``) that
run on that reverse pass."""

import gc
import weakref

import numpy as np
import pytest
from refgraph import NoGradientError, Ref, gradients

from plsp.tensorcore import SgdOptimizer, Tensor, node, softmax
from plsp.trainer import TrainConfig


def sgd_config(learning_rate, momentum=0.0, weight_decay=0.0) -> TrainConfig:
    """A run config that sets the optimizer's three settings."""
    return TrainConfig(learning_rate=learning_rate, momentum=momentum,
                       weight_decay=weight_decay)


def finite_diff(f, arrays, h=1e-5):
    """Central-difference gradients of a scalar function of numpy arrays."""
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[k][idx] += h
            minus[k][idx] -= h
            g[idx] = (f(plus) - f(minus)) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def test_square_sum_gradient():
    w = Ref(np.array([[1.0, 2.0]]), requires_grad=True)
    loss = (w * w).sum()
    loss.backward()
    assert np.allclose(w.grad, [[2.0, 4.0]])


def test_gradient_zero_for_unused_parameter():
    w = Ref(np.array([1.0, 2.0]), requires_grad=True)
    unused = Tensor(np.array([3.0]), requires_grad=True)
    loss = (w * w).sum()
    grads = gradients(loss, [w, unused])
    assert np.allclose(grads[1], 0.0)


def test_detached_parameter_raises():
    w = Tensor(np.array([1.0]), requires_grad=False)
    loss = Ref(np.array([1.0]), requires_grad=True).sum()
    with pytest.raises(NoGradientError):
        gradients(loss, [w])


def test_backward_requires_scalar_root():
    w = Ref(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ValueError):
        (w * w).backward()


def _composite_loss(tensors):
    """Exercises matmul, add (broadcast bias), mul, exp, log, max, sum,
    transpose and the fused logsumexp."""
    a, b, w, bias = tensors
    h = (a @ w + bias).relu()
    z = h @ b.T
    shifted = z - z.logsumexp(axis=1, keepdims=True)
    quad = (b * (b @ Ref(np.eye(b.data.shape[1])))).sum(axis=1, keepdims=True)
    mixed = shifted + (quad + quad.T * 0.5).logsumexp(axis=0)
    return (mixed.exp().maximum(1e-3).log() * 0.25).sum()


def test_gradcheck_composites_100_draws():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        shapes = [(3, 4), (5, 2), (4, 2), (2,)]
        arrays = [rng.standard_normal(s) for s in shapes]

        def value(arrs):
            ts = [Ref(x) for x in arrs]
            return float(_composite_loss(ts).data)

        tensors = [Ref(x.copy(), requires_grad=True) for x in arrays]
        loss = _composite_loss(tensors)
        analytic = gradients(loss, tensors)
        numeric = finite_diff(value, arrays)
        for g_a, g_n in zip(analytic, numeric):
            worst = max(worst, rel_err(g_a, g_n))
    assert worst < 1e-4, f"gradcheck worst relative error {worst}"


def test_spent_graph_is_freed_by_reference_counting():
    # a vjp that refers back to its own node makes the graph a cycle, which
    # only the cyclic collector (disabled here) would free
    rng = np.random.default_rng(3)
    tensors = [Ref(rng.standard_normal(s), requires_grad=True)
               for s in [(3, 4), (5, 2), (4, 2), (2,)]]
    gc.disable()
    try:
        loss = _composite_loss(tensors)
        interior, stack = [], [loss]
        while stack:
            node = stack.pop()
            if node._parents:
                interior.append(weakref.ref(node))
                stack.extend(node._parents)
        loss.backward()
        del loss, node, stack
        assert len(interior) > 10
        assert all(probe() is None for probe in interior)
        assert all(t.grad is not None for t in tensors)
    finally:
        gc.enable()


def test_node_asks_no_gradient_of_a_constant_parent():
    a = Tensor(np.array([1.0, 2.0]))
    w = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    calls = []

    def vjp(g):
        calls.append(float(g))
        return None, g * a.data

    out = node(a.data @ w.data, (a, w), vjp)
    out.backward()
    assert calls == [1.0]
    assert a.grad is None
    assert np.array_equal(w.grad, [1.0, 2.0])
    # over constants only, the node is a constant with no parent to visit
    const = node(a.data.sum(), (a,), vjp)
    assert not const.requires_grad and const._parents == ()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    z = rng.uniform(-50, 50, size=(40, 7))
    p = softmax(z, axis=1)
    assert np.all(p >= 0)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12


def test_sgd_basic_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SgdOptimizer([p], sgd_config(0.1))
    p.grad = np.array([2.0])
    opt.step()
    assert np.isclose(p.data[0], 0.8)


def test_sgd_zero_grad_no_decay_is_identity():
    p = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    opt = SgdOptimizer([p], sgd_config(0.5))
    p.grad = np.zeros(2)
    opt.step()
    assert np.allclose(p.data, [3.0, -1.0])


def test_sgd_zero_lr_is_identity():
    p = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    opt = SgdOptimizer([p], sgd_config(0.0, momentum=0.9,
                                       weight_decay=0.1))
    p.grad = np.array([5.0, 5.0])
    opt.step()
    assert np.allclose(p.data, [3.0, -1.0])


def test_sgd_momentum_matches_hand_unrolled():
    lr, mu, wd = 0.1, 0.9, 0.01
    p0, g1, g2 = 2.0, 0.5, -0.3
    # hand-unrolled recurrence: v = mu*v + g + wd*p; p -= lr*v
    v = mu * 0.0 + g1 + wd * p0
    p1 = p0 - lr * v
    v = mu * v + g2 + wd * p1
    p2 = p1 - lr * v

    p = Tensor(np.array([p0]), requires_grad=True)
    opt = SgdOptimizer([p], sgd_config(lr, mu, wd))
    p.grad = np.array([g1])
    opt.step()
    assert np.isclose(p.data[0], p1)
    p.grad = np.array([g2])
    opt.step()
    assert np.isclose(p.data[0], p2)


def test_sgd_step_function_shape_mismatch():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad = np.zeros(3)
    with pytest.raises(ValueError):
        SgdOptimizer([p], sgd_config(0.1)).step()


def test_sgd_config_validation():
    """The run's TrainConfig holds the optimizer's range checks."""
    with pytest.raises(ValueError, match="learning_rate must be >= 0"):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError, match=r"momentum must lie in \[0, 1\)"):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError, match="weight_decay must be >= 0"):
        TrainConfig(weight_decay=-1e-3)


def test_matmul_requires_rank_two():
    with pytest.raises(ValueError):
        Ref(np.ones(3)) @ Ref(np.ones(3))


def test_rank_cap():
    with pytest.raises(ValueError):
        Tensor(np.ones((2, 2, 2)))


def test_accumulating_into_one_leaf_leaves_shared_gradients_unchanged():
    """__add__'s backward hands one array to both parents, and each keeps it
    uncopied as its first gradient; a later accumulation into one leaf makes
    a new array, so the other leaf's gradient and the array the vjp returned
    stay as they were."""
    a = Ref(np.ones((2, 3)), requires_grad=True)
    b = Ref(np.ones((2, 3)), requires_grad=True)
    (a + b).sum().backward()
    (a * 2.0).sum().backward()  # accumulates into a.grad only
    assert np.array_equal(a.grad, np.full((2, 3), 3.0))
    assert np.array_equal(b.grad, np.ones((2, 3)))

    shared = np.ones((2, 3))
    c = Tensor(np.ones((2, 3)), requires_grad=True)
    d = Tensor(np.ones((2, 3)), requires_grad=True)
    node(np.array(0.0), (c, d), lambda g: (shared, shared)).backward()
    assert c.grad is shared and d.grad is shared
    node(np.array(0.0), (c,), lambda g: (np.full((2, 3), 2.0),)).backward()
    assert np.array_equal(c.grad, np.full((2, 3), 3.0))
    assert d.grad is shared
    assert np.array_equal(shared, np.ones((2, 3)))

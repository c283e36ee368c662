import tracemalloc

import numpy as np
import pytest
from refgraph import Ref, gradients, lift

from plsp.model import (ClassifierParams, _dense_relu, _relu_stack, extract_features,
                        init_classifier, load_checkpoint, save_checkpoint,
                        snapshot_frozen)
from plsp.tensorcore import Tensor, softmax


def _zero_model(input_dim=3, width=4, n_classes=3):
    layers = [(Tensor(np.zeros((input_dim, width)), requires_grad=True),
               Tensor(np.zeros(width), requires_grad=True))]
    head = Tensor(np.zeros((n_classes, width)), requires_grad=True)
    return ClassifierParams(layers=layers, head=head)


def test_zero_weights_give_zero_features():
    params = _zero_model()
    feats = extract_features(params, np.array([[1.0, -2.0, 3.0]]))
    assert np.allclose(feats.data, 0.0)


def test_identity_layer_passes_nonnegative_input():
    layers = [(Tensor(np.eye(3), requires_grad=True),
               Tensor(np.zeros(3), requires_grad=True))]
    params = ClassifierParams(layers=layers,
                              head=Tensor(np.zeros((3, 3)), requires_grad=True))
    x = np.array([[0.5, 0.0, 2.0]])
    feats = extract_features(params, x)
    assert np.allclose(feats.data, x)


def test_feature_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = init_classifier(4, (6, 5), 3, rng)
    x = rng.standard_normal((2, 4))

    def value(arrays):
        saved = [p.data.copy() for p in params.parameters()]
        for p, a in zip(params.parameters(), arrays):
            p.data = a.copy()
        out = float(lift(extract_features(params, x)).sum().data)
        for p, s in zip(params.parameters(), saved):
            p.data = s
        return out

    loss = lift(extract_features(params, x)).sum()
    analytic = gradients(loss, params.parameters())
    arrays = [p.data.copy() for p in params.parameters()]
    h = 1e-5
    for k in range(len(arrays) - 1):  # skip the unused head
        num = np.zeros_like(arrays[k])
        it = np.nditer(arrays[k], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[k][idx] += h
            minus[k][idx] -= h
            num[idx] = (value(plus) - value(minus)) / (2 * h)
        scale = max(np.abs(num).max(), 1e-8)
        assert np.abs(analytic[k] - num).max() / scale < 1e-4


@pytest.mark.parametrize("input_grad", [False, True])
def test_dense_relu_matches_three_node_chain(input_grad):
    """The one-node layer against the chain it replaced, (a @ w + b).relu():
    the same forward and the same gradients, bit for bit."""
    rng = np.random.default_rng(12)
    a0 = rng.standard_normal((7, 5))
    a0[0, :] = 0.0  # a row that leaves some units exactly at zero
    w0, b0 = rng.standard_normal((5, 4)), rng.standard_normal(4)
    up = rng.standard_normal((7, 4))
    outs = []
    for layer in (lambda a, w, b: (a @ w + b).relu(), _dense_relu):
        a, w, b = (Ref(v.copy(), requires_grad=g)
                   for v, g in ((a0, input_grad), (w0, True), (b0, True)))
        out = layer(a, w, b)
        (lift(out) * up).sum().backward()
        outs.append([out.data, w.grad, b.grad, a.grad])
    chain, fused = outs
    for x, y in zip(chain[:3], fused[:3]):
        assert np.array_equal(x, y)
    if input_grad:
        assert np.array_equal(chain[3], fused[3])
    else:
        assert chain[3] is None and fused[3] is None


def test_zero_head_gives_uniform_probs():
    params = _zero_model(n_classes=4)
    z = params.eval_logits(np.array([[1.0, 2.0, 3.0]]))
    p = softmax(z, axis=1)
    assert np.allclose(p, 0.25)


def test_logits_example():
    p = softmax(np.array([[np.log(1.0), np.log(3.0)]]), axis=1)
    assert np.allclose(p, [[0.25, 0.75]])


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((5, 4))
    assert np.abs(softmax(z) - softmax(z + 7.3)).max() < 1e-12


def test_input_shape_check():
    params = _zero_model(input_dim=3)
    with pytest.raises(ValueError):
        extract_features(params, np.ones((1, 5)))


def test_snapshot_is_immutable_under_mutation():
    rng = np.random.default_rng(1)
    params = init_classifier(3, (4,), 3, rng)
    x = rng.standard_normal((2, 3))
    frozen = snapshot_frozen(params)
    before = frozen.logits_of(x).copy()
    assert np.allclose(before, params.eval_logits(x))
    for p in params.parameters():
        p.data += 1.0
    assert np.array_equal(frozen.logits_of(x), before)


def test_snapshot_is_gradient_opaque():
    rng = np.random.default_rng(2)
    params = init_classifier(3, (4,), 3, rng)
    frozen = snapshot_frozen(params)
    x = rng.standard_normal((2, 3))
    # loss mixes live outputs with frozen-derived constants
    target = frozen.probs(x)
    feats = lift(extract_features(params, x))
    z = feats @ lift(params.head).T
    logp = z - z.logsumexp(axis=1, keepdims=True)
    loss = -(logp * target).sum()
    grads_a = [g.copy() for g in gradients(loss, params.parameters())]
    # perturbing the frozen copy's storage must not change anything
    frozen.head += 100.0
    for w, b in frozen.layers:
        w += 100.0
    feats = lift(extract_features(params, x))
    z = feats @ lift(params.head).T
    logp = z - z.logsumexp(axis=1, keepdims=True)
    loss = -(logp * target).sum()
    grads_b = gradients(loss, params.parameters())
    for a, b in zip(grads_a, grads_b):
        assert np.array_equal(a, b)


def test_forward_deterministic():
    rng = np.random.default_rng(4)
    params = init_classifier(5, (8, 6), 4, rng)
    x = rng.standard_normal((7, 5))
    assert np.array_equal(params.eval_logits(x), params.eval_logits(x))


def test_full_set_forward_holds_no_full_set_activations():
    """A full-set pass over 20,000 float32 rows of width 64, hidden widths
    (128, 64), peaks below the 19.5 MiB of one (20,000, 128) float64 array,
    the first layer's full-set activations. Its predictions are those of a
    one-shot forward of the float64 rows, and so are its logits up to
    rounding, also on 2,100 rows, where 1024-row blocks would leave a 52-row
    tail.

    The rounding bound: a BLAS kernel may sum an m-term dot product (and the
    bias) in any order, and any such sum lies within gamma_{m+1} * sum|terms|
    of the exact one, gamma_m = m u / (1 - m u) with u = 2^-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, section 3.1). ReLU is
    1-Lipschitz, so by induction over the layers each forward lies within
    sum_k gamma_{m_k+1} times the forward of |x| through |W_k|, |b_k| and
    |head| of the exact logits, and two forwards within twice that; the
    factor 1.01 covers the second-order terms. For inputs of width 64 and
    widths (128, 64) that is about 5.8e-14 of the absolute forward."""
    rng = np.random.default_rng(6)
    params = init_classifier(64, (128, 64), 4, rng)
    x = rng.standard_normal((20_000, 64)).astype(np.float32)
    bound = 20_000 * 128 * 8
    for call in (params.eval_logits, params.predict):
        tracemalloc.start()
        try:
            out = call(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (call.__name__, peak)
    layers = [(w.data, b.data) for w, b in params.layers]
    one_shot = _relu_stack(x.astype(np.float64), layers) @ params.head.data.T
    assert np.array_equal(out, one_shot.argmax(axis=1))
    u = 2.0 ** -53
    gamma = sum(m * u / (1 - m * u) for m in (64 + 1, 128 + 1, 64))
    scale = _relu_stack(np.abs(x.astype(np.float64)),
                        [(np.abs(w), np.abs(b)) for w, b in layers])
    scale = scale @ np.abs(params.head.data.T)
    for n in (20_000, 2_100):
        gap = np.abs(params.eval_logits(x[:n]) - one_shot[:n])
        assert np.all(gap <= 2.02 * gamma * scale[:n]), n


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    params = init_classifier(5, (8, 6), 4, rng)
    path = tmp_path / "model.plsw"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    x = rng.standard_normal((3, 5))
    assert np.array_equal(back.eval_logits(x), params.eval_logits(x))
    assert back.feature_dim == params.feature_dim
    assert back.n_classes == params.n_classes


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.plsw"
    save_checkpoint(path, init_classifier(3, (4,), 3, np.random.default_rng(0)))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_clone_is_independent():
    params = init_classifier(3, (4,), 3, np.random.default_rng(6))
    twin = params.clone()
    params.head.data += 5.0
    assert not np.allclose(twin.head.data, params.head.data)

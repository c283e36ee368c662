"""MLP feature extractor with a bias-free linear head.

The head matrix has one row per class, so class scores are plain inner
products with the extracted feature vector; that layout is what the
closed-form semantic losses differentiate through. A frozen snapshot of the
parameters is a pure-numpy copy, so nothing computed from it can leak
gradients back into training.

Every forward, numpy or differentiable, takes rows of any float dtype and
shape and flattens them to float64 rows. A full-set pass (``eval_logits``,
so ``predict``) runs in row blocks of at most ``_EVAL_BLOCK`` rows, holding
one block's float64 rows and activations at a time, never the whole set's.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .pldata import BadMagicError, BadVersionError, DatasetFormatError, _take
from .tensorcore import Tensor, node, softmax

CHECKPOINT_MAGIC = b"PLSW"
CHECKPOINT_VERSION = 1
_EVAL_BLOCK = 1024  # most rows per block of a full-set forward


@dataclass
class ClassifierParams:
    layers: list[tuple[Tensor, Tensor]]   # (weight (in,out), bias (out,)) per hidden layer
    head: Tensor                          # (l, d_f), rows are class vectors

    @property
    def n_classes(self) -> int:
        return self.head.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.head.shape[1]

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0] if self.layers else self.head.shape[1]

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for w, b in self.layers:
            out.extend((w, b))
        out.append(self.head)
        return out

    def clone(self) -> "ClassifierParams":
        return ClassifierParams(
            layers=[(Tensor(w.data.copy(), requires_grad=True),
                     Tensor(b.data.copy(), requires_grad=True))
                    for w, b in self.layers],
            head=Tensor(self.head.data.copy(), requires_grad=True),
        )

    # numpy fast paths for evaluation (no graph construction)

    def eval_features(self, x: np.ndarray) -> np.ndarray:
        return _relu_stack(x, ((w.data, b.data) for w, b in self.layers))

    def eval_logits(self, x: np.ndarray) -> np.ndarray:
        """(n, l) logits of the rows ``x``, forwarded in near-equal blocks of
        at most ``_EVAL_BLOCK`` rows: more than half that each once n
        exceeds it, so that no short tail block takes BLAS's small-matrix
        kernel, whose sums can round apart from the one-shot product's."""
        n_blocks = max(-(-len(x) // _EVAL_BLOCK), 1)
        edges = [len(x) * i // n_blocks for i in range(n_blocks + 1)]
        head_t = self.head.data.T
        out = np.empty((len(x), self.n_classes))
        for lo, hi in zip(edges[:-1], edges[1:]):
            out[lo:hi] = self.eval_features(x[lo:hi]) @ head_t
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.eval_logits(x).argmax(axis=1)


def init_classifier(input_dim: int, hidden_dims: tuple[int, ...], n_classes: int,
                    rng: np.random.Generator) -> ClassifierParams:
    """He-style gaussian weights, zero biases, bias-free head."""
    layers = []
    fan_in = input_dim
    for width in hidden_dims:
        w = rng.standard_normal((fan_in, width)) * np.sqrt(2.0 / fan_in)
        layers.append((Tensor(w, requires_grad=True),
                       Tensor(np.zeros(width), requires_grad=True)))
        fan_in = width
    head = rng.standard_normal((n_classes, fan_in)) * np.sqrt(2.0 / fan_in)
    return ClassifierParams(layers=layers, head=Tensor(head, requires_grad=True))


def _input_rows(x: np.ndarray) -> np.ndarray:
    """Rows of any float dtype and shape as a float64 (n, width) matrix."""
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(len(x), math.prod(x.shape[1:]))  # explicit width: 0 rows reshape too


def _relu_stack(x: np.ndarray, layers) -> np.ndarray:
    """Numpy forward pass through (weight, bias) array pairs."""
    a = _input_rows(x)
    for w, b in layers:
        a = _affine_relu(a, w, b)
    return a


def _affine_relu(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relu(a @ w + b) in one new array."""
    z = a @ w
    z += b
    return np.maximum(z, 0.0, out=z)


def extract_features(params: ClassifierParams, x: np.ndarray) -> Tensor:
    """Differentiable forward pass through the ReLU stack."""
    x = _input_rows(x)
    if x.shape[1] != params.input_dim:
        raise ValueError(f"input dim {x.shape[1]} != expected {params.input_dim}")
    a = Tensor(x)
    for w, b in params.layers:
        a = _dense_relu(a, w, b)
    return a


def _dense_relu(a: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(a @ w + b) as one graph node; its backward masks the incoming
    gradient once and gives the same arrays as the three-node chain. The
    input rows take no gradient, so the first layer skips their product."""
    z = _affine_relu(a.data, w.data, b.data)

    def vjp(g):
        g = g * (z > 0.0)
        return (g @ w.data.T if a.requires_grad else None,
                a.data.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return node(z, (a, w, b), vjp)


class FrozenClassifier:
    """Immutable numpy copy of the parameters; gradient-opaque by construction."""

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]], head: np.ndarray):
        self.layers = [(w.copy(), b.copy()) for w, b in layers]
        self.head = head.copy()

    @property
    def n_classes(self) -> int:
        return self.head.shape[0]

    def features(self, x: np.ndarray) -> np.ndarray:
        return _relu_stack(x, self.layers)

    def logits_of(self, x: np.ndarray) -> np.ndarray:
        return self.features(x) @ self.head.T

    def probs(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.logits_of(x), axis=1)


def snapshot_frozen(params: ClassifierParams) -> FrozenClassifier:
    return FrozenClassifier(
        layers=[(w.data, b.data) for w, b in params.layers],
        head=params.head.data,
    )


def save_checkpoint(path, params: ClassifierParams) -> None:
    arrays = [t.data for t in params.parameters()]
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HHI", CHECKPOINT_VERSION, 0, len(arrays)))
        for arr in arrays:
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> ClassifierParams:
    """Read a ``save_checkpoint`` file. A bad magic or version, truncation,
    trailing bytes or layer shapes that do not chain raise DatasetFormatError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    chunk, off = _take(buf, 0, 4)
    if chunk != CHECKPOINT_MAGIC:
        raise BadMagicError(f"bad checkpoint magic {bytes(chunk)!r}")
    chunk, off = _take(buf, off, 8)
    version, _flags, count = struct.unpack("<HHI", chunk)
    if version != CHECKPOINT_VERSION:
        raise BadVersionError(f"unsupported checkpoint version {version}")
    arrays = []
    for _ in range(count):
        chunk, off = _take(buf, off, 4)
        (rank,) = struct.unpack("<I", chunk)
        chunk, off = _take(buf, off, 4 * rank)
        dims = struct.unpack(f"<{rank}I", chunk)
        chunk, off = _take(buf, off, 8 * math.prod(dims))
        arrays.append(np.frombuffer(chunk, dtype="<f8").reshape(dims).copy())
    if off != len(buf):
        raise DatasetFormatError(f"{len(buf) - off} trailing bytes after the arrays")
    shapes = [a.shape for a in arrays]
    if len(shapes) % 2 != 1:
        raise DatasetFormatError("checkpoint must hold layer pairs plus a head")
    width = None  # the input width is free
    for w, b in zip(shapes[:-1:2], shapes[1::2]):
        if len(w) != 2 or width not in (None, w[0]) or b != w[1:]:
            raise DatasetFormatError(f"layer shapes {w}, {b} do not follow width {width}")
        width = w[1]
    if len(shapes[-1]) != 2 or width not in (None, shapes[-1][1]):
        raise DatasetFormatError(f"head shape {shapes[-1]} does not follow width {width}")
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    return ClassifierParams(layers=list(zip(tensors[:-1:2], tensors[1::2])),
                            head=tensors[-1])

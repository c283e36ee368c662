"""Correctness checks made apart from the program.

Each check raises ``CheckFailed`` with a reason, or returns None. The checks
parse the checkpoint format, run the forward pass and count the confusion
matrix with their own numpy code; they share no code with ``plsp``.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

F1_TOL = 1e-12
LOSS_FIELDS = ("loss_df", "loss_sup", "reg_u", "loss_cl", "loss_total")
CLOCK_FIELDS = ("wall_clock_s",)


class CheckFailed(AssertionError):
    """A program output disagrees with what the benchmark computed."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def read_checkpoint_arrays(path) -> list[np.ndarray]:
    """The float64 arrays of a ``PLSW`` checkpoint, in file order."""
    with open(path, "rb") as fh:
        buf = fh.read()
    require(buf[:4] == b"PLSW", f"checkpoint magic {buf[:4]!r}")
    _version, _flags, count = struct.unpack_from("<HHI", buf, 4)
    off = 12
    arrays = []
    for _ in range(count):
        (rank,) = struct.unpack_from("<I", buf, off)
        dims = struct.unpack_from(f"<{rank}I", buf, off + 4)
        off += 4 + 4 * rank
        size = math.prod(dims)
        arrays.append(np.frombuffer(buf, "<f8", size, off).reshape(dims))
        off += 8 * size
    require(off == len(buf), "checkpoint has trailing bytes")
    return arrays


def relu_predict(arrays: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Argmax class of a ReLU MLP stored as (w, b) pairs plus a bias-free head
    whose rows are class vectors."""
    a = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    for w, b in zip(arrays[:-1:2], arrays[1:-1:2]):
        a = np.maximum(a @ w + b, 0.0)
    return (a @ arrays[-1].T).argmax(axis=1)


def micro_f1(pred: np.ndarray, truth: np.ndarray, n_classes: int) -> float:
    """Pooled one-vs-rest F1 from a confusion matrix."""
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(conf, (truth, pred), 1)
    tp = np.trace(conf)
    fp = conf.sum(axis=0).sum() - tp
    fn = conf.sum(axis=1).sum() - tp
    return 2.0 * tp / (2.0 * tp + fp + fn)


def parse_stream(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_f1_matches(own_f1: float, stream_f1: float, eval_f1: float) -> None:
    """The benchmark's F1 equals the stream's final epoch and ``plsp eval``."""
    require(abs(own_f1 - stream_f1) <= F1_TOL,
            f"recomputed micro-F1 {own_f1!r} != final-epoch {stream_f1!r}")
    require(abs(own_f1 - eval_f1) <= F1_TOL,
            f"recomputed micro-F1 {own_f1!r} != eval output {eval_f1!r}")


def check_summary_repeats_best(records: list[dict]) -> None:
    require(len(records) >= 2, "stream needs epochs and a summary line")
    *epochs, summary = records
    require(summary.get("is_summary") is True, "last line is not the summary")
    require(not any(r.get("is_summary") for r in epochs), "summary before the end")
    best = max(epochs, key=lambda r: r["micro_f1"])
    require({**summary, "is_summary": False} == best,
            f"summary repeats epoch {summary.get('epoch')}, best is {best['epoch']}")


def check_losses_finite(records: list[dict]) -> None:
    for rec in records:
        for key in LOSS_FIELDS:
            require(math.isfinite(rec[key]), f"epoch {rec['epoch']} {key}={rec[key]!r}")


def nearest_mean_accuracy(train_x, train_y, test_x, test_y, n_classes: int) -> float:
    """Test accuracy of the nearest class mean fit on the hidden true labels:
    a reference for how separable a dataset is, made without the program."""
    train_x = np.asarray(train_x, dtype=np.float64).reshape(len(train_x), -1)
    test_x = np.asarray(test_x, dtype=np.float64).reshape(len(test_x), -1)
    means = np.stack([train_x[train_y == j].mean(axis=0) for j in range(n_classes)])
    dist = ((test_x[:, None, :] - means[None]) ** 2).sum(axis=2)
    return float((dist.argmin(axis=1) == test_y).mean())


def f1_floor(stated: float, reference: float, margin: float) -> float:
    """The stated floor, lowered on datasets whose reference accuracy leaves
    less than ``margin`` of room above it."""
    return min(stated, reference - margin)


def check_f1_floor(records: list[dict], floor: float) -> None:
    best = max(r["micro_f1"] for r in records if not r.get("is_summary"))
    require(best >= floor, f"best test micro-F1 {best:.4f} below floor {floor}")


def check_verify_output(exit_code: int, text: str) -> None:
    passes = [line for line in text.splitlines() if line.startswith("PASS ")]
    require(exit_code == 0, f"verify exited {exit_code}")
    require(len(passes) == 3, f"{len(passes)} PASS lines, expected 3")
    require(not any(line.startswith("FAIL ") for line in text.splitlines()),
            "verify printed a FAIL line")


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def check_equals_softmax(probs: np.ndarray, z: np.ndarray) -> None:
    """At zero strength the shifted softmax is the plain softmax."""
    err = float(np.abs(probs - softmax(z)).max())
    require(err <= 1e-12, f"lambda=0 shifted softmax off by {err:.3e}")


def check_below_softmax(probs: np.ndarray, z: np.ndarray) -> None:
    """At positive strength no coordinate exceeds the plain softmax."""
    plain = softmax(z)
    excess = float((probs - plain * (1.0 + 1e-12)).max())
    require(excess <= 0.0, f"shifted softmax exceeds plain softmax by {excess:.3e}")


def check_simplex_rows(probs: np.ndarray) -> None:
    require(bool(np.all(probs >= 0.0)), "negative probability")
    err = float(np.abs(probs.sum(axis=-1) - 1.0).max())
    require(err <= 1e-12, f"rows sum to 1 +- {err:.3e}")


def clock_free(text: str) -> str:
    """A metrics stream with the clock fields removed, one record a line."""
    lines = []
    for rec in parse_stream(text):
        for key in CLOCK_FIELDS:
            rec.pop(key, None)
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines)

"""Partially labeled datasets: synthesis, candidate-set generation, disk format.

A dataset holds n float32 feature records, one candidate-label bitmask per
instance, and (optionally) hidden ground-truth labels that training code
never reads. Candidate sets always contain the truth and are never the full
label set; the two generators (uniform subsets, per-label flipping) enforce
this by rejection.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"PLSP"
FORMAT_VERSION = 1
_FLAG_TRUTH = 1


class DatasetFormatError(ValueError):
    """Base class for dataset file parse failures."""


class BadMagicError(DatasetFormatError):
    pass


class BadVersionError(DatasetFormatError):
    pass


class TruncatedPayloadError(DatasetFormatError):
    pass


class MaskInvariantError(DatasetFormatError):
    """A candidate mask is empty, full, has stray bits, or excludes the truth."""


@dataclass
class PLDataset:
    features: np.ndarray          # (n, *dims) float32
    candidates: np.ndarray        # (n, l) bool
    truth: np.ndarray | None = None  # (n,) uint32, hidden from training

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def l(self) -> int:
        return self.candidates.shape[1]

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self.features.shape[1:]

    def flat_features(self) -> np.ndarray:
        return self.features.reshape(self.n, math.prod(self.feature_shape))

    def validate(self) -> None:
        if self.features.shape[0] != self.candidates.shape[0]:
            raise ValueError("features/candidates row counts differ")
        if self.l < 3:
            raise ValueError("class count must be >= 3")
        sizes = self.candidates.sum(axis=1)
        if np.any(sizes < 1) or np.any(sizes > self.l - 1):
            raise MaskInvariantError("candidate sets must satisfy 1 <= |C| <= l-1")
        if self.truth is not None:
            if np.any(self.truth >= self.l):
                raise DatasetFormatError("truth label out of range")
            if not np.all(self.candidates[np.arange(self.n), self.truth]):
                raise MaskInvariantError("truth label missing from a candidate set")


def generate_uss(truth_labels: np.ndarray, l: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform candidate sets: each subset containing the truth, excluding the
    full label set, is equally likely (Bernoulli(1/2) inclusion + rejection)."""
    truth_labels = np.asarray(truth_labels)
    if l < 3:
        raise ValueError("uss needs l >= 3 (with l=2 every candidate set is a singleton)")
    if np.any(truth_labels >= l) or np.any(truth_labels < 0):
        raise ValueError("label out of range")
    n = len(truth_labels)
    masks = np.zeros((n, l), dtype=bool)
    pending = np.arange(n)
    while pending.size:
        draws = rng.random((pending.size, l)) < 0.5
        draws[np.arange(pending.size), truth_labels[pending]] = True
        masks[pending] = draws
        pending = pending[draws.all(axis=1)]  # resample rows equal to the full set
    return masks


def generate_fps(truth_labels: np.ndarray, l: int, q: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Flip each irrelevant label in with probability q; force one flip when
    none fired; resample the whole flip vector if the full set results."""
    truth_labels = np.asarray(truth_labels)
    if l < 3:
        raise ValueError("fps needs l >= 3")
    if not 0.0 <= q < 1.0:
        raise ValueError("flip probability q must lie in [0, 1)")
    if np.any(truth_labels >= l) or np.any(truth_labels < 0):
        raise ValueError("label out of range")
    n = len(truth_labels)
    masks = np.zeros((n, l), dtype=bool)
    pending = np.arange(n)
    while pending.size:
        rows = np.arange(pending.size)
        flips = rng.random((pending.size, l)) < q
        flips[rows, truth_labels[pending]] = False
        counts = flips.sum(axis=1)
        none = rows[counts == 0]
        if none.size:
            # forced flip: one uniform irrelevant label
            pick = rng.integers(0, l - 1, size=none.size)
            t = truth_labels[pending[none]]
            pick = pick + (pick >= t)
            flips[none, pick] = True
            counts[none] = 1
        flips[rows, truth_labels[pending]] = True
        masks[pending] = flips
        pending = pending[counts == l - 1]  # full set: resample the flip vector
    return masks


def _place_centers(l: int, d: int, separation: float, rng: np.random.Generator) -> np.ndarray:
    side = separation * (np.ceil(l ** (1.0 / d)) + 1.0)
    while True:
        centers: list[np.ndarray] = []
        for _ in range(1000 * l):
            cand = rng.uniform(0.0, side, size=d)
            if all(np.linalg.norm(cand - c) >= separation for c in centers):
                centers.append(cand)
                if len(centers) == l:
                    return np.stack(centers)
        side *= 1.5  # box too tight, widen and retry


def make_blobs(n: int, l: int, d: int, separation: float,
               rng: np.random.Generator) -> PLDataset:
    """Balanced isotropic unit-variance Gaussian clusters, z-scored per
    dimension. Truth labels are filled; candidate masks are left empty."""
    if n < l:
        raise ValueError("need at least one instance per class")
    if d < 2:
        raise ValueError("need d >= 2")
    if separation <= 0:
        raise ValueError("separation must be > 0")
    centers = _place_centers(l, d, separation, rng)
    base = n // l
    counts = np.full(l, base)
    counts[: n - base * l] += 1  # remainder round-robin
    feats = []
    truth = []
    for j in range(l):
        feats.append(centers[j] + rng.standard_normal((counts[j], d)))
        truth.append(np.full(counts[j], j, dtype=np.uint32))
    x = np.concatenate(feats)
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), 1e-12)
    x = (x - mean) / std
    return PLDataset(
        features=x.astype(np.float32),
        candidates=np.zeros((n, l), dtype=bool),
        truth=np.concatenate(truth),
    )


def stratified_split(ds: PLDataset, n_test: int,
                     rng: np.random.Generator) -> tuple[PLDataset, PLDataset]:
    """Split off ~n_test instances, proportionally per true class."""
    if ds.truth is None:
        raise ValueError("stratified split needs truth labels")
    test_idx = []
    for j in range(ds.l):
        members = np.flatnonzero(ds.truth == j)
        take = int(round(n_test * members.size / ds.n))
        test_idx.append(rng.permutation(members)[:take])
    test_idx = np.sort(np.concatenate(test_idx))
    is_test = np.zeros(ds.n, dtype=bool)
    is_test[test_idx] = True

    def subset(keep: np.ndarray) -> PLDataset:
        return PLDataset(
            features=ds.features[keep].copy(),
            candidates=ds.candidates[keep].copy(),
            truth=None if ds.truth is None else ds.truth[keep].copy(),
        )

    return subset(~is_test), subset(is_test)


# -- disk format -----------------------------------------------------------
# little-endian: magic "PLSP" | version u16 | flags u16 (bit0 truth) | n u64 |
# l u32 | rank u32 | dims u32[rank] | features f32[n*prod(dims)] |
# masks u64[n*ceil(l/64)] | truth u32[n] if flagged

def _pack_masks(candidates: np.ndarray) -> np.ndarray:
    n, l = candidates.shape
    words = np.zeros((n, (l + 63) // 64), dtype=np.uint64)
    for j in range(l):
        words[:, j // 64] |= candidates[:, j].astype(np.uint64) << np.uint64(j % 64)
    return words


def _unpack_masks(words: np.ndarray, l: int) -> np.ndarray:
    n = words.shape[0]
    masks = np.zeros((n, l), dtype=bool)
    for j in range(l):
        masks[:, j] = (words[:, j // 64] >> np.uint64(j % 64)) & np.uint64(1)
    return masks


def write_dataset(path, ds: PLDataset) -> None:
    ds.validate()
    dims = ds.feature_shape
    flags = _FLAG_TRUTH if ds.truth is not None else 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HHQI", FORMAT_VERSION, flags, ds.n, ds.l))
        fh.write(struct.pack("<I", len(dims)))
        for dim in dims:
            fh.write(struct.pack("<I", dim))
        fh.write(np.ascontiguousarray(ds.features, dtype="<f4").tobytes())
        fh.write(_pack_masks(ds.candidates).astype("<u8").tobytes())
        if ds.truth is not None:
            fh.write(np.ascontiguousarray(ds.truth, dtype="<u4").tobytes())


def _take(buf: bytes, offset: int, count: int) -> tuple[bytes, int]:
    if offset + count > len(buf):
        raise TruncatedPayloadError(f"expected {count} bytes at offset {offset}")
    return buf[offset:offset + count], offset + count


def read_dataset(path) -> PLDataset:
    with open(path, "rb") as fh:
        buf = fh.read()
    chunk, off = _take(buf, 0, 4)
    if chunk != MAGIC:
        raise BadMagicError(f"bad magic {chunk!r}")
    chunk, off = _take(buf, off, struct.calcsize("<HHQI"))
    version, flags, n, l = struct.unpack("<HHQI", chunk)
    if version != FORMAT_VERSION:
        raise BadVersionError(f"unsupported format version {version}")
    if l < 3:  # write_dataset refuses such a dataset, so the file is corrupt
        raise DatasetFormatError(f"class count {l} in the header, need >= 3")
    chunk, off = _take(buf, off, 4)
    (rank,) = struct.unpack("<I", chunk)
    chunk, off = _take(buf, off, 4 * rank)
    dims = struct.unpack(f"<{rank}I", chunk) if rank else ()
    chunk, off = _take(buf, off, 4 * n * math.prod(dims))
    features = np.frombuffer(chunk, dtype="<f4").reshape((n, *dims)).copy()
    words_per_row = (l + 63) // 64
    chunk, off = _take(buf, off, 8 * n * words_per_row)
    words = np.frombuffer(chunk, dtype="<u8").reshape(n, words_per_row)
    if l % 64 and np.any(words[:, -1] >> np.uint64(l % 64)):
        raise MaskInvariantError("stray candidate bit at a position >= l")
    candidates = _unpack_masks(words, l)
    truth = None
    if flags & _FLAG_TRUTH:
        chunk, off = _take(buf, off, 4 * n)
        truth = np.frombuffer(chunk, dtype="<u4").copy()
    if off != len(buf):
        raise DatasetFormatError(f"{len(buf) - off} trailing bytes after the payload")
    ds = PLDataset(features=features, candidates=candidates, truth=truth)
    ds.validate()
    return ds

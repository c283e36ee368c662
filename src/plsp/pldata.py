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
        if 0 in self.feature_shape:
            raise ValueError(f"feature shape {self.feature_shape} has a zero dimension")
        sizes = self.candidates.sum(axis=1)
        if np.any(sizes < 1) or np.any(sizes > self.l - 1):
            raise MaskInvariantError("candidate sets must satisfy 1 <= |C| <= l-1")
        if self.truth is not None:
            if self.truth.shape != (self.n,):
                raise ValueError(f"truth has shape {self.truth.shape}, need ({self.n},)")
            if not np.issubdtype(self.truth.dtype, np.integer):
                raise ValueError(f"truth has dtype {self.truth.dtype}, need an integer dtype")
            if np.any(self.truth < 0) or np.any(self.truth >= self.l):
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


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, n) Euclidean distances between the rows of a (m, d) and b (n, d)."""
    return np.sqrt(sum((a[:, k, None] - b[:, k]) ** 2 for k in range(a.shape[1])))


def _place_centers(l: int, d: int, separation: float, rng: np.random.Generator) -> np.ndarray:
    """l points in [0, side)^d at least ``separation`` apart: each candidate,
    one uniform draw, is kept if far enough from every point kept before it,
    and after 1000 rejected candidates in a row the box widens by 1.5 and the
    search restarts."""
    side = separation * (np.ceil(l ** (1.0 / d)) + 1.0)
    kept, count, misses = np.empty((l, d)), 0, 0
    while count < l:
        cand = rng.uniform(0.0, side, size=d)
        if np.all(_distances(cand[None], kept[:count]) >= separation):
            kept[count] = cand
            count, misses = count + 1, 0
        else:
            misses += 1
            if misses == 1000:  # box too tight, widen and retry
                side, count, misses = side * 1.5, 0, 0
    return kept


def make_blobs(n: int, l: int, d: int, separation: float,
               rng: np.random.Generator) -> PLDataset:
    """Balanced isotropic unit-variance Gaussian clusters, z-scored per
    dimension. Truth labels are filled; candidate masks are left empty.
    Raises ValueError when the separation is so large that the z-scoring
    overflows."""
    if n < l:
        raise ValueError("need at least one instance per class")
    if d < 2:
        raise ValueError("need d >= 2")
    if not (math.isfinite(separation) and separation > 0):
        raise ValueError(f"separation must be finite and > 0, got {separation}")
    base = n // l
    counts = np.full(l, base)
    counts[: n - base * l] += 1  # remainder round-robin
    feats = []
    truth = []
    # an overflow here is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        centers = _place_centers(l, d, separation, rng)
        for j in range(l):
            feats.append(centers[j] + rng.standard_normal((counts[j], d)))
            truth.append(np.full(counts[j], j, dtype=np.uint32))
        x = np.concatenate(feats)
        mean = x.mean(axis=0)
        std = np.maximum(x.std(axis=0), 1e-12)
        x = (x - mean) / std
    if not (np.isfinite(std).all() and np.isfinite(x).all()):
        raise ValueError(f"separation {separation:g} is too large: the z-scored "
                         "features are not finite")
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
    if not 0 <= n_test <= ds.n:
        raise ValueError(f"n_test must lie in [0, {ds.n}], got {n_test}")
    test_idx = []
    for j in range(ds.l):
        members = np.flatnonzero(ds.truth == j)
        take = int(round(n_test * members.size / ds.n))
        test_idx.append(rng.permutation(members)[:take])
    test_idx = np.sort(np.concatenate(test_idx))
    is_test = np.zeros(ds.n, dtype=bool)
    is_test[test_idx] = True
    return tuple(PLDataset(ds.features[keep], ds.candidates[keep], ds.truth[keep])
                 for keep in (~is_test, is_test))


# -- disk format -----------------------------------------------------------
# little-endian: magic "PLSP" | version u16 | flags u16 (bit0 truth) | n u64 |
# l u32 | rank u32 | dims u32[rank] | features f32[n*prod(dims)] |
# masks u64[n*ceil(l/64)] | truth u32[n] if flagged

def _pack_masks(candidates: np.ndarray) -> np.ndarray:
    """Each row's mask as little-endian u64 words, label j at bit j % 64 of
    word j // 64."""
    n, l = candidates.shape
    padded = np.zeros((n, (l + 63) // 64 * 64), dtype=bool)
    padded[:, :l] = candidates
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _unpack_masks(words: np.ndarray, l: int) -> np.ndarray:
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :l].astype(bool)


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
        fh.write(_pack_masks(ds.candidates).tobytes())
        if ds.truth is not None:
            fh.write(np.ascontiguousarray(ds.truth, dtype="<u4").tobytes())


def _take(buf: bytes, offset: int, count: int) -> tuple[memoryview, int]:
    """``count`` bytes of ``buf`` from ``offset`` as a view, not a copy, and
    the offset after them."""
    if offset + count > len(buf):
        raise TruncatedPayloadError(f"expected {count} bytes at offset {offset}")
    return memoryview(buf)[offset:offset + count], offset + count


def read_dataset(path) -> PLDataset:
    with open(path, "rb") as fh:
        buf = fh.read()
    chunk, off = _take(buf, 0, 4)
    if chunk != MAGIC:
        raise BadMagicError(f"bad magic {bytes(chunk)!r}")
    chunk, off = _take(buf, off, struct.calcsize("<HHQI"))
    version, flags, n, l = struct.unpack("<HHQI", chunk)
    if version != FORMAT_VERSION:
        raise BadVersionError(f"unsupported format version {version}")
    if l < 3:  # write_dataset refuses such a dataset, so the file is corrupt
        raise DatasetFormatError(f"class count {l} in the header, need >= 3")
    chunk, off = _take(buf, off, 4)
    (rank,) = struct.unpack("<I", chunk)
    chunk, off = _take(buf, off, 4 * rank)
    dims = struct.unpack(f"<{rank}I", chunk)
    if 0 in dims:  # write_dataset refuses such a dataset too
        raise DatasetFormatError(f"feature shape {dims} in the header has a 0")
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

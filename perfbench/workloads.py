"""The benchmark's workloads: how each generates its inputs from the seed and
which ``plsp`` commands a round runs on them.

Every round runs the same user flow, `train`, `df-baseline` and `verify`, so
every metric is measured on every workload; the workloads differ in which of
the three carries the weight. The program's own seeds are fixed: the
workload seed reaches it only through the generated files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from plsp import augment, pldata

TRAIN_SEED = "1"


# The point clouds are fixed, so that every seed trains on the same geometry
# and does the same work; the seed draws the split, the noise and the
# candidate sets.
CRITERION_7_BLOBS = (1, 11)   # the generator `plsp generate --seed 1` uses


def blobs(n: int, n_test: int, n_classes: int, separation: float, q: float):
    """Flat 2-D gaussian blobs with the centers of acceptance criterion 7,
    split into train and test the way `plsp generate` does it, with
    flip-strategy candidate sets."""
    def make(seed: int) -> tuple[pldata.PLDataset, pldata.PLDataset]:
        cloud = pldata.make_blobs(n + n_test, n_classes, 2, separation,
                                  augment.derive_rng(*CRITERION_7_BLOBS))
        rng = np.random.default_rng([seed, 1])
        train, test = pldata.stratified_split(cloud, n_test, rng)
        for part in (test, train):
            part.candidates = pldata.generate_fps(part.truth, n_classes, q, rng)
        return train, test
    return make


def grid(n: int, n_test: int, n_classes: int, noise: float, q: float):
    """8x8x1 images: one smooth random prototype per class, shifted by up to
    one column, plus pixel noise; flip-strategy candidate sets."""
    def make(seed: int) -> tuple[pldata.PLDataset, pldata.PLDataset]:
        raw = np.random.default_rng(2).standard_normal((n_classes, 10, 10))
        proto = sum(raw[:, i:i + 8, j:j + 8] for i in range(3) for j in range(3))
        proto /= proto.std(axis=(1, 2), keepdims=True)
        rng = np.random.default_rng([seed, 2])
        parts = []
        for size in (n, n_test):
            truth = rng.permutation(np.arange(size) % n_classes)
            x = proto[truth] + noise * rng.standard_normal((size, 8, 8))
            shift = rng.integers(-1, 2, size=size)
            x = np.stack([np.roll(img, s, axis=1) for img, s in zip(x, shift)])
            parts.append((x, truth))
        mean, std = parts[0][0].mean(), parts[0][0].std()
        out = []
        for x, truth in parts:
            out.append(pldata.PLDataset(
                features=((x - mean) / std)[..., None].astype(np.float32),
                candidates=pldata.generate_fps(truth, n_classes, q, rng),
                truth=truth.astype(np.uint32)))
        return out[0], out[1]
    return make


@dataclass(frozen=True)
class Workload:
    make_data: Callable[[int], tuple[pldata.PLDataset, pldata.PLDataset]]
    pretrain_epochs: int
    ss_epochs: int
    inner_iters: int
    df_epochs: int
    df_inner_iters: int
    verify_instances: int
    verify_mc_samples: int
    f1_floor: float     # best test micro-F1 of `train`,
    df_f1_floor: float  # and of `df-baseline`; each lowered to f1_margin
    f1_margin: float    # below the nearest-mean reference where that is lower

    @property
    def train_args(self) -> list[str]:
        return ["--pretrain-epochs", str(self.pretrain_epochs),
                "--ss-epochs", str(self.ss_epochs),
                "--inner-iters", str(self.inner_iters), "--seed", TRAIN_SEED]

    @property
    def df_args(self) -> list[str]:
        return ["--epochs", str(self.df_epochs),
                "--inner-iters", str(self.df_inner_iters), "--seed", TRAIN_SEED]

    @property
    def verify_args(self) -> list[str]:
        return ["--instances", str(self.verify_instances),
                "--mc-samples", str(self.verify_mc_samples)]


WORKLOADS = {
    "desk-blobs": Workload(
        make_data=blobs(2000, 500, 4, 2.75, 0.6),
        pretrain_epochs=10, ss_epochs=4, inner_iters=50,
        df_epochs=20, df_inner_iters=50,
        verify_instances=10, verify_mc_samples=200_000,
        f1_floor=0.90, df_f1_floor=0.90, f1_margin=0.03),
    "grid-10class": Workload(
        make_data=grid(2000, 500, 10, 1.5, 0.3),
        pretrain_epochs=5, ss_epochs=3, inner_iters=35,
        df_epochs=16, df_inner_iters=50,
        verify_instances=10, verify_mc_samples=200_000,
        f1_floor=0.80, df_f1_floor=0.60, f1_margin=0.10),
    "verify-mc": Workload(
        # desk-blobs' inputs: with k * classes well below n the pseudo-split
        # keeps a full unlabeled pool, so the work of a step does not depend
        # on the seed
        make_data=blobs(2000, 500, 4, 2.75, 0.6),
        pretrain_epochs=3, ss_epochs=4, inner_iters=50,
        df_epochs=8, df_inner_iters=100,
        verify_instances=50, verify_mc_samples=1_000_000,
        f1_floor=0.80, df_f1_floor=0.80, f1_margin=0.10),
}

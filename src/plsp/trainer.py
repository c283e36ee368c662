"""Two-stage training loop: disambiguation-free pre-training, then
semi-supervised optimization with per-epoch pseudo-split refresh.

Schedules: the semi-supervised weight gamma and the transformation strength
lam ramp linearly from 0 to their maxima over the epoch budget; per-class
confidence thresholds follow curriculum pseudo-labeling (classes producing
fewer confident predictions get lower thresholds), clamped to
[tau_floor, tau0].

Both loops report each epoch as one ``MetricsRecord``, the schema of the
metrics files: ``train_df_baseline`` and ``train_ss`` pass it to
``on_epoch``, and ``train_ss`` also returns the list of them. Train and test
F1 in a record come from ``macro_micro_f1``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import augment
from .augment import AugmentSpec, derive_rng
from .model import ClassifierParams, init_classifier, snapshot_frozen
from .objective import build_pseudo_split, loss_df, semantic_batch_loss
# Bound here though the step no longer calls them: the benchmark's span tracer
# (perfbench/spans.py) patches these names in this module.
from .objective import (assemble_batch, loss_complementary_semantic,  # noqa: F401
                        loss_sup_semantic, reg_consistency_semantic,
                        weak_cav_pseudo_labels)
from .pldata import PLDataset
from .semstats import ClassCovStats, DEFAULT_BETA, update_cov_stats
from .tensorcore import SgdOptimizer

# rng substream purposes
_TAG_INIT = 1
_TAG_PRETRAIN = 2
_TAG_BATCH = 3
_TAG_AUG_WEAK = 4
_TAG_AUG_STRONG = 5


@dataclass
class TrainConfig:
    gamma0: float = 1.0
    lambda0: float = 0.01
    tau0: float = 0.75
    k: int = 200
    pretrain_epochs: int = 10     # T0
    ss_epochs: int = 250          # T
    inner_iters: int = 200        # I
    batch_labeled: int = 64       # B_l
    batch_unlabeled: int = 256    # B_u
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    beta: float = DEFAULT_BETA
    tau_floor: float = 0.5
    seed: int = 0
    deterministic: bool = False
    hidden_dims: tuple[int, ...] = (128, 64)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        if not 0.5 < self.tau0 <= 1.0:
            raise ValueError("tau0 must lie in (0.5, 1]")
        if self.gamma0 < 0 or self.lambda0 < 0:
            raise ValueError("gamma0 and lambda0 must be >= 0")
        for name in ("k", "pretrain_epochs", "ss_epochs", "inner_iters",
                     "batch_labeled", "batch_unlabeled", "learning_rate",
                     "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.tau_floor <= self.tau0:
            raise ValueError("tau_floor must lie in [0, tau0]")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if any(width < 1 for width in self.hidden_dims):
            raise ValueError("hidden_dims widths must be >= 1")


@dataclass
class MetricsRecord:
    epoch: int
    loss_df: float = 0.0
    loss_sup: float = 0.0
    reg_u: float = 0.0
    loss_cl: float = 0.0
    loss_total: float = 0.0
    macro_f1: float = 0.0
    micro_f1: float = 0.0
    train_macro_f1: float = 0.0
    train_micro_f1: float = 0.0
    h_pass_rate: float = 0.0
    clamped: int = 0            # log-clamp events, summed over the epoch
    skipped: int = 0            # degenerate-mass instances, summed over the epoch
    tau: list[float] = field(default_factory=list)
    n_labeled: int = 0
    n_unlabeled: int = 0
    wall_clock_s: float = 0.0
    is_summary: bool = False

    def to_json_line(self) -> str:
        """Raises ValueError on a NaN or infinite field: JSON has no token
        for either."""
        return json.dumps(dataclasses.asdict(self), allow_nan=False)

    @classmethod
    def from_json_line(cls, line: str) -> "MetricsRecord":
        data = json.loads(line)
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def macro_micro_f1(predictions, truths, l: int) -> tuple[float, float]:
    """One-vs-rest F1 per class with 0/0 := 0; macro averages over all l
    classes (absent classes count as 0), micro pools the counts."""
    predictions = np.asarray(predictions, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if predictions.shape != truths.shape:
        raise ValueError("predictions/truths length mismatch")
    if predictions.size == 0:
        return 0.0, 0.0
    if min(predictions.min(), truths.min()) < 0 \
            or max(predictions.max(), truths.max()) >= l:
        raise ValueError("label out of range")
    tp = np.bincount(truths[predictions == truths], minlength=l)
    # 2·tp + fp + fn per class: every prediction of j and every truth of j
    denom = np.bincount(predictions, minlength=l) + np.bincount(truths, minlength=l)
    f1s = np.divide(2 * tp, denom, out=np.zeros(l), where=denom > 0)
    # pooled, fp and fn each total n - tp, so 2·tp / (2·tp + fp + fn) = tp / n
    return float(f1s.mean()), int(tp.sum()) / predictions.size


def schedule_gamma(t: int, total: int, gamma0: float) -> float:
    if total < 1:
        raise ValueError("epoch budget must be >= 1")
    return min(t / total * gamma0, gamma0)


def schedule_lambda(t: int, total: int, lambda0: float) -> float:
    return schedule_gamma(t, total, lambda0)


def update_tau(sigma: np.ndarray, tau0: float, tau_floor: float) -> np.ndarray:
    """Curriculum thresholds: tau_j = clamp(sigma_j / max(sigma) * tau0,
    tau_floor, tau0); all-zero counts keep every threshold at tau0."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0):
        raise ValueError("confident counts must be >= 0")
    top = sigma.max() if sigma.size else 0.0
    if top == 0:
        return np.full(sigma.shape, tau0)
    return np.clip(sigma / top * tau0, tau_floor, tau0)


class _Cycler:
    """Reshuffled cycling over a fixed index set."""

    def __init__(self, indices: np.ndarray, rng: np.random.Generator):
        self.indices = np.asarray(indices)
        self.rng = rng
        self.order = rng.permutation(self.indices)
        self.pos = 0

    def take(self, batch: int) -> np.ndarray:
        out: list[np.ndarray] = []
        need = batch
        while need > 0:
            if self.pos >= len(self.order):
                self.order = self.rng.permutation(self.indices)
                self.pos = 0
            grab = min(need, len(self.order) - self.pos)
            out.append(self.order[self.pos:self.pos + grab])
            self.pos += grab
            need -= grab
        return np.concatenate(out)


def _draw_batch(indices: np.ndarray, batch: int, cycler: _Cycler | None,
                rng: np.random.Generator) -> np.ndarray:
    if indices.size == 0 or batch == 0:
        return np.zeros(0, dtype=np.int64)
    if indices.size < batch:
        return rng.choice(indices, size=batch, replace=True)
    assert cycler is not None
    return cycler.take(batch)


def _log_softmax(params: ClassifierParams, x: np.ndarray):
    # looked up at call time: the span tracer patches model.extract_features
    from .model import extract_features
    feats = extract_features(params, x)
    z = feats @ params.head.T
    return z - z.logsumexp(axis=1, keepdims=True)


def pretrain(ds: PLDataset, params: ClassifierParams, config: TrainConfig,
             epochs: int | None = None, on_epoch=None) -> ClassifierParams:
    """Disambiguation-free stage: ``train_df_baseline`` with no test set."""
    epochs = config.pretrain_epochs if epochs is None else epochs
    return train_df_baseline(ds, params, config, epochs, None, on_epoch)


def train_df_baseline(ds: PLDataset, params: ClassifierParams, config: TrainConfig,
                      epochs: int, test_ds: PLDataset | None = None,
                      on_epoch=None) -> ClassifierParams:
    """Minimize the candidate-averaged negative log over uniformly reshuffled
    mini-batches, no augmentation, passing each epoch's MetricsRecord to
    ``on_epoch``. Pre-training and the ablation reference for the full
    objective."""
    x = ds.flat_features().astype(np.float64)
    rng = derive_rng(config.seed, _TAG_PRETRAIN)
    opt = SgdOptimizer(params.parameters(), config)
    for t in range(epochs):
        start = time.perf_counter()
        cycler = _Cycler(np.arange(ds.n), rng)
        total = 0.0
        clamped = 0
        for _ in range(config.inner_iters):
            idx = cycler.take(config.batch_unlabeled)
            loss, batch_clamped = loss_df(_log_softmax(params, x[idx]), ds.candidates[idx])
            opt.zero_grad()
            loss.backward()
            opt.step()
            total += float(loss.data)
            clamped += batch_clamped
        if on_epoch is not None:
            mean_loss = total / max(config.inner_iters, 1)
            on_epoch(_epoch_record(t, params, ds, test_ds, start, config,
                                   loss_df=mean_loss, loss_total=mean_loss,
                                   clamped=clamped))
    return params


def _epoch_record(epoch: int, params: ClassifierParams, ds: PLDataset,
                  test_ds: PLDataset | None, start: float, config: TrainConfig,
                  **losses) -> MetricsRecord:
    """The epoch's record: the loop's ``losses`` and counts, the seconds from
    ``start`` to this call (the F1 evaluation is not timed), and train and
    test F1 (0 where a set or its truth is absent)."""
    seconds = 0.0 if config.deterministic else time.perf_counter() - start
    (train_macro, train_micro), (test_macro, test_micro) = [
        macro_micro_f1(params.predict(d.flat_features().astype(np.float64)), d.truth, d.l)
        if d is not None and d.truth is not None else (0.0, 0.0)
        for d in (ds, test_ds)]
    return MetricsRecord(epoch=epoch, macro_f1=test_macro, micro_f1=test_micro,
                         train_macro_f1=train_macro, train_micro_f1=train_micro,
                         wall_clock_s=seconds, **losses)


# BatchLossReport fields summed over an epoch's steps; the losses and the pass
# rate are recorded as means, the counts as totals
_SUMMED = ("loss_sup", "reg_u", "loss_cl", "total", "h_pass_rate", "clamped", "skipped")


def train_ss(ds: PLDataset, params: ClassifierParams, config: TrainConfig,
             test_ds: PLDataset | None = None, spec: AugmentSpec | None = None,
             on_epoch=None) -> tuple[ClassifierParams, list[MetricsRecord]]:
    """Semi-supervised stage over the pseudo-split, refreshed every epoch.

    Per inner iteration: draw a labeled and an unlabeled mini-batch, snapshot
    the parameters, generate weak/strong variants, fold the labeled batch's
    un-augmented features into the per-class covariance stats, evaluate the
    combined objective at the current (gamma, lam, tau), and take an SGD step.
    Confident counts accumulate over the epoch and set the next epoch's
    thresholds. Each epoch's MetricsRecord goes to ``on_epoch`` and into the
    returned list.
    """
    spec = spec or AugmentSpec()
    n_epochs = config.ss_epochs
    records: list[MetricsRecord] = []
    if n_epochs == 0:
        return params, records
    l = ds.l
    x_flat = ds.flat_features().astype(np.float64)
    x_raw = ds.features.astype(np.float64)
    stats = ClassCovStats(l, params.feature_dim)
    sigma = np.zeros(l, dtype=np.int64)   # confident counts of the last epoch
    opt = SgdOptimizer(params.parameters(), config)  # fresh momentum
    batch_rng = derive_rng(config.seed, _TAG_BATCH)

    for t in range(n_epochs):
        start = time.perf_counter()
        gamma = schedule_gamma(t, n_epochs, config.gamma0)
        lam = schedule_lambda(t, n_epochs, config.lambda0)
        tau = update_tau(sigma, config.tau0, config.tau_floor)
        sigma = np.zeros(l, dtype=np.int64)

        split = build_pseudo_split(ds, snapshot_frozen(params), config.k)
        split.check(ds, config.k)
        lab_cycler = (_Cycler(split.labeled_idx, batch_rng)
                      if split.n_labeled >= config.batch_labeled else None)
        unl_cycler = (_Cycler(split.unlabeled_idx, batch_rng)
                      if split.n_unlabeled >= config.batch_unlabeled else None)
        lab_y = np.zeros(ds.n, dtype=np.int64)
        lab_y[split.labeled_idx] = split.labeled_y

        sums = dict.fromkeys(_SUMMED, 0)
        for c in range(config.inner_iters):
            lab = _draw_batch(split.labeled_idx, config.batch_labeled,
                              lab_cycler, batch_rng)
            unl = _draw_batch(split.unlabeled_idx, config.batch_unlabeled,
                              unl_cycler, batch_rng)
            frozen = snapshot_frozen(params)
            x_w = x_s = x_flat[unl]
            if unl.size:
                wk_rng = derive_rng(config.seed, _TAG_AUG_WEAK, t, c)
                st_rng = derive_rng(config.seed, _TAG_AUG_STRONG, t, c)
                x_w = augment.weak_batch(x_raw[unl], spec, wk_rng).reshape(unl.size, -1)
                x_s = augment.strong_batch(x_raw[unl], spec, st_rng).reshape(unl.size, -1)
            if lab.size:
                update_cov_stats(stats, params.eval_features(x_flat[lab]), lab_y[lab])

            total, batch_report = semantic_batch_loss(
                params, frozen, stats, x_flat[lab], lab_y[lab], x_flat[unl],
                x_w, x_s, ds.candidates[unl], lam, tau, gamma, config.beta)
            opt.zero_grad()
            total.backward()
            opt.step()
            sigma += batch_report.sigma_inc
            for name in _SUMMED:
                sums[name] += getattr(batch_report, name)

        iters = max(config.inner_iters, 1)
        record = _epoch_record(
            t, params, ds, test_ds, start, config,
            loss_sup=sums["loss_sup"] / iters, reg_u=sums["reg_u"] / iters,
            loss_cl=sums["loss_cl"] / iters, loss_total=sums["total"] / iters,
            h_pass_rate=sums["h_pass_rate"] / iters,
            clamped=sums["clamped"], skipped=sums["skipped"], tau=tau.tolist(),
            n_labeled=split.n_labeled, n_unlabeled=split.n_unlabeled)
        records.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return params, records


def new_classifier(ds: PLDataset, config: TrainConfig) -> ClassifierParams:
    rng = derive_rng(config.seed, _TAG_INIT)
    input_dim = int(np.prod(ds.feature_shape))
    return init_classifier(input_dim, tuple(config.hidden_dims), ds.l, rng)

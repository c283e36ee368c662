"""Two-stage training loop: disambiguation-free pre-training, then
semi-supervised optimization with per-epoch pseudo-split refresh.

Schedules: the semi-supervised weight gamma and the transformation strength
lam ramp linearly from 0 to their maxima over the epoch budget; per-class
confidence thresholds follow curriculum pseudo-labeling (classes producing
fewer confident predictions get lower thresholds), clamped to
[tau_floor, tau0].

Each loop trains its ``params`` in place. ``train_df_baseline`` and
``train_ss`` return one ``MetricsRecord`` per epoch, the schema of the
metrics files; ``pretrain`` records nothing. Train and test F1 in a record
come from ``macro_micro_f1``. ``train_ss`` forwards the training set once per
epoch boundary: before epoch 0 for its pseudo-split, and after epoch t for
both epoch t's train F1 and epoch t + 1's split (not after the last epoch if
the set has no truth).

Both loops draw every mini-batch with a ``_Cycler``, without replacement: a
batch larger than its pool runs on into a fresh permutation of it, so each
aligned block of pool-size draws holds every instance once.

Both loops hand the dataset's stored float32 rows, or their augmented copies,
to the model as they are: the model flattens the rows it forwards to float64
rows, exactly, and forwards full sets in row blocks.
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
from .model import ClassifierParams, init_classifier
from .objective import build_pseudo_split, loss_df, semantic_batch_loss
# Bound here though the step no longer calls them: the benchmark's span tracer
# (perfbench/spans.py) patches these names in this module.
from .model import snapshot_frozen  # noqa: F401
from .objective import (assemble_batch, loss_complementary_semantic,  # noqa: F401
                        loss_sup_semantic, reg_consistency_semantic,
                        weak_cav_pseudo_labels)
from .pldata import PLDataset
from .semstats import ClassCovStats, update_cov_stats
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
    tau: list[float] = field(default_factory=list)
    n_labeled: int = 0
    n_unlabeled: int = 0
    wall_clock_s: float = 0.0
    is_summary: bool = False

    def to_json_line(self) -> str:
        """Raises ValueError naming the epoch and each NaN or infinite
        field: JSON has no token for either."""
        data = dataclasses.asdict(self)
        try:
            return json.dumps(data, allow_nan=False)
        except ValueError:
            bad = [name for name, value in data.items() if not np.isfinite(value).all()]
            raise ValueError(f"epoch {self.epoch}: non-finite "
                             f"{', '.join(bad)} in the metrics record") from None

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
    """Reshuffled cycling over a fixed index set: the one batch sampler."""

    def __init__(self, indices: np.ndarray, rng: np.random.Generator):
        self.indices = np.asarray(indices)
        self.rng = rng
        self.order = rng.permutation(self.indices)
        self.pos = 0

    def take(self, batch: int) -> np.ndarray:
        """The next ``batch`` indices; empty for an empty pool or a batch of 0."""
        out = [np.zeros(0, dtype=np.int64)]
        need = batch if len(self.indices) else 0
        while need > 0:
            if self.pos >= len(self.order):
                self.order = self.rng.permutation(self.indices)
                self.pos = 0
            grab = min(need, len(self.order) - self.pos)
            out.append(self.order[self.pos:self.pos + grab])
            self.pos += grab
            need -= grab
        return np.concatenate(out)


def pretrain(ds: PLDataset, params: ClassifierParams, config: TrainConfig) -> None:
    """Disambiguation-free stage: the ``train_df_baseline`` epochs for the
    config's ``pretrain_epochs``, recording nothing."""
    for _ in _df_epochs(ds, params, config, config.pretrain_epochs):
        pass


def train_df_baseline(ds: PLDataset, params: ClassifierParams, config: TrainConfig,
                      epochs: int, test_ds: PLDataset | None = None
                      ) -> list[MetricsRecord]:
    """Minimize the candidate-averaged negative log over uniformly reshuffled
    mini-batches, no augmentation, recording each epoch. Pre-training and the
    ablation reference for the full objective. A negative epoch count, and
    steps over no instance or batches of 0, raise ValueError."""
    return [_epoch_record(t, seconds, config, params, ds, None if ds.truth is None
                          else params.predict(ds.features), test_ds,
                          loss_df=mean_loss, loss_total=mean_loss, clamped=clamped)
            for t, (seconds, mean_loss, clamped)
            in enumerate(_df_epochs(ds, params, config, epochs))]


def _df_epochs(ds: PLDataset, params: ClassifierParams, config: TrainConfig,
               epochs: int):
    """Train ``params`` in place for ``epochs`` disambiguation-free epochs,
    yielding each epoch's seconds, mean loss and clamp count."""
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if epochs > 0 and config.inner_iters and min(ds.n, config.batch_unlabeled) < 1:
        raise ValueError(f"nothing to train on: n = {ds.n} instances, "
                         f"batch_unlabeled = {config.batch_unlabeled}")
    rng = derive_rng(config.seed, _TAG_PRETRAIN)
    opt = SgdOptimizer(params.parameters(), config)
    for _ in range(epochs):
        start = time.perf_counter()
        cycler = _Cycler(np.arange(ds.n), rng)
        total = 0.0
        clamped = 0
        for _ in range(config.inner_iters):
            idx = cycler.take(config.batch_unlabeled)
            loss, batch_clamped = loss_df(params, ds.features[idx], ds.candidates[idx])
            opt.zero_grad()
            loss.backward()
            opt.step()
            total += float(loss.data)
            clamped += batch_clamped
        yield time.perf_counter() - start, total / max(config.inner_iters, 1), clamped


def _epoch_record(epoch: int, seconds: float, config: TrainConfig,
                  params: ClassifierParams, ds: PLDataset,
                  train_pred: np.ndarray | None, test_ds: PLDataset | None,
                  **losses) -> MetricsRecord:
    """The epoch's record: the loop's ``losses`` and counts, its ``seconds``
    (0 if ``config.deterministic``), the train F1 of ``train_pred`` on ``ds``
    and the test F1 of ``params`` on ``test_ds`` (0 where a set or its truth is absent)."""
    train_macro, train_micro = (macro_micro_f1(train_pred, ds.truth, ds.l)
                                if ds.truth is not None else (0.0, 0.0))
    test_macro, test_micro = (
        macro_micro_f1(params.predict(test_ds.features), test_ds.truth, test_ds.l)
        if test_ds is not None and test_ds.truth is not None else (0.0, 0.0))
    return MetricsRecord(epoch=epoch, macro_f1=test_macro, micro_f1=test_micro,
                         train_macro_f1=train_macro, train_micro_f1=train_micro,
                         wall_clock_s=0.0 if config.deterministic else seconds,
                         **losses)


# BatchLossReport fields summed over an epoch's steps; the losses and the pass
# rate are recorded as means, the clamp count as a total
_SUMMED = ("loss_sup", "reg_u", "loss_cl", "total", "h_pass_rate", "clamped")


def train_ss(ds: PLDataset, params: ClassifierParams, config: TrainConfig,
             test_ds: PLDataset | None = None,
             spec: AugmentSpec | None = None) -> list[MetricsRecord]:
    """Semi-supervised stage over the pseudo-split, refreshed every epoch.

    Per inner iteration: draw a labeled and an unlabeled mini-batch (a pool
    thinner than its batch is drawn whole, then from a fresh shuffle; an
    empty pool gives an empty batch, whose terms are 0), fold the labeled
    batch's un-augmented features into the per-class covariance stats,
    generate weak/strong variants, evaluate the combined objective (its weak
    branch a numpy forward of the live weights) at the current (gamma, lam,
    tau), and take an SGD step.
    Confident counts accumulate over the epoch and set the next epoch's
    thresholds. Returns one MetricsRecord per epoch. Steps over a dataset of
    no instance raise ValueError.
    """
    spec = spec or AugmentSpec()
    n_epochs = config.ss_epochs
    if n_epochs > 0 and config.inner_iters and ds.n < 1:
        raise ValueError(f"nothing to train on: n = {ds.n} instances")
    records: list[MetricsRecord] = []
    stats = ClassCovStats(ds.l, params.feature_dim)
    sigma = np.zeros(ds.l, dtype=np.int64)   # confident counts of the last epoch
    opt = SgdOptimizer(params.parameters(), config)  # fresh momentum
    batch_rng = derive_rng(config.seed, _TAG_BATCH)
    logits = params.eval_logits(ds.features) if n_epochs else None

    for t in range(n_epochs):
        start = time.perf_counter()
        gamma = schedule_gamma(t, n_epochs, config.gamma0)
        lam = schedule_lambda(t, n_epochs, config.lambda0)
        tau = update_tau(sigma, config.tau0, config.tau_floor)
        sigma = np.zeros(ds.l, dtype=np.int64)

        split = build_pseudo_split(logits, ds.candidates, config.k)
        split.check(ds.candidates, config.k)
        del logits  # one (n, l) logits array at a time
        lab_cycler = _Cycler(split.labeled_idx, batch_rng)
        unl_cycler = _Cycler(split.unlabeled_idx, batch_rng)
        lab_y = np.zeros(ds.n, dtype=np.int64)
        lab_y[split.labeled_idx] = split.labeled_y

        sums = dict.fromkeys(_SUMMED, 0)
        for c in range(config.inner_iters):
            lab = lab_cycler.take(config.batch_labeled)
            unl = unl_cycler.take(config.batch_unlabeled)
            wk_rng = derive_rng(config.seed, _TAG_AUG_WEAK, t, c)
            st_rng = derive_rng(config.seed, _TAG_AUG_STRONG, t, c)
            x_lab, y_lab, x_unl = ds.features[lab], lab_y[lab], ds.features[unl]
            update_cov_stats(stats, params.eval_features(x_lab), y_lab)

            total, batch_report = semantic_batch_loss(
                params, stats, x_lab, y_lab, x_unl, augment.weak_batch(x_unl, spec, wk_rng),
                augment.strong_batch(x_unl, spec, st_rng), ds.candidates[unl],
                lam, tau, gamma)
            opt.zero_grad()
            total.backward()
            opt.step()
            sigma += batch_report.sigma_inc
            for name in _SUMMED:
                sums[name] += getattr(batch_report, name)

        # the boundary forward, timed with the epoch it ends
        if t + 1 < n_epochs or ds.truth is not None:
            logits = params.eval_logits(ds.features)
        iters = max(config.inner_iters, 1)
        records.append(_epoch_record(
            t, time.perf_counter() - start, config, params, ds,
            logits.argmax(axis=1) if ds.truth is not None else None, test_ds,
            loss_sup=sums["loss_sup"] / iters, reg_u=sums["reg_u"] / iters,
            loss_cl=sums["loss_cl"] / iters, loss_total=sums["total"] / iters,
            h_pass_rate=sums["h_pass_rate"] / iters,
            clamped=sums["clamped"], tau=tau.tolist(),
            n_labeled=split.n_labeled, n_unlabeled=split.n_unlabeled))
    return records


def new_classifier(ds: PLDataset, config: TrainConfig) -> ClassifierParams:
    rng = derive_rng(config.seed, _TAG_INIT)
    input_dim = int(np.prod(ds.feature_shape))
    return init_classifier(input_dim, tuple(config.hidden_dims), ds.l, rng)

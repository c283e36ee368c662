import math

import numpy as np
import pytest

from plsp import augment
from plsp.model import snapshot_frozen
from plsp.objective import (build_pseudo_split, loss_complementary_semantic,
                            loss_df, weak_cav_pseudo_labels)
from plsp.pldata import PLDataset, generate_fps, generate_uss, make_blobs
from plsp.tensorcore import SgdOptimizer, gradients
from plsp.trainer import (MetricsRecord, TrainConfig, _Cycler, _draw_batch,
                          _log_softmax, new_classifier, pretrain, schedule_gamma,
                          schedule_lambda, train_df_baseline, train_ss,
                          update_tau)


def _blob_pl_dataset(n=120, l=3, q=0.4, seed=0, separation=5.0):
    rng = np.random.default_rng(seed)
    ds = make_blobs(n, l, 2, separation, rng)
    ds.candidates = generate_fps(ds.truth, l, q, rng)
    return ds


def _tiny_config(**overrides):
    base = dict(pretrain_epochs=2, ss_epochs=3, inner_iters=4,
                batch_labeled=8, batch_unlabeled=16, k=10,
                hidden_dims=(12, 6), learning_rate=0.05, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


# -- schedules ---------------------------------------------------------------

def test_schedule_endpoints():
    assert schedule_gamma(0, 100, 1.0) == 0.0
    assert schedule_gamma(100, 100, 1.0) == 1.0
    assert schedule_gamma(50, 100, 1.0) == 0.5
    assert schedule_lambda(0, 10, 0.01) == 0.0
    assert schedule_lambda(10, 10, 0.01) == 0.01
    assert schedule_lambda(5, 10, 0.01) == 0.005


def test_schedule_monotone_and_capped():
    vals = [schedule_gamma(t, 20, 0.7) for t in range(0, 40)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert max(vals) == 0.7


def test_schedule_rejects_zero_budget():
    with pytest.raises(ValueError):
        schedule_gamma(0, 0, 1.0)


def test_update_tau_hand_case():
    tau = update_tau(np.array([100, 50, 0]), 0.75, 0.5)
    assert np.allclose(tau, [0.75, 0.5, 0.5])


def test_update_tau_all_equal_gives_tau0():
    tau = update_tau(np.array([7, 7, 7]), 0.8, 0.5)
    assert np.allclose(tau, 0.8)


def test_update_tau_all_zero_gives_tau0():
    tau = update_tau(np.zeros(4), 0.75, 0.5)
    assert np.allclose(tau, 0.75)


def test_update_tau_always_in_range():
    rng = np.random.default_rng(0)
    for _ in range(100):
        sigma = rng.integers(0, 50, size=5)
        tau = update_tau(sigma, 0.75, 0.5)
        assert np.all(tau >= 0.5 - 1e-12)
        assert np.all(tau <= 0.75 + 1e-12)


# -- config ---------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(tau0=0.5)
    with pytest.raises(ValueError):
        TrainConfig(tau0=1.2)
    with pytest.raises(ValueError):
        TrainConfig(gamma0=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(k=-1)
    with pytest.raises(ValueError):
        TrainConfig(tau_floor=0.9, tau0=0.8)
    for field, value in [("beta", 0.0), ("beta", -1.0), ("beta", math.nan),
                         ("beta", math.inf), ("gamma0", math.inf),
                         ("lambda0", math.nan), ("learning_rate", math.inf),
                         ("weight_decay", math.nan), ("hidden_dims", (8, 0)),
                         ("hidden_dims", (0,))]:
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
    assert TrainConfig(hidden_dims=()).hidden_dims == ()  # no hidden layer is legal


# -- pre-training ------------------------------------------------------------------

def test_pretrain_zero_epochs_is_identity():
    ds = _blob_pl_dataset()
    config = _tiny_config(pretrain_epochs=0)
    params = new_classifier(ds, config)
    before = [p.data.copy() for p in params.parameters()]
    pretrain(ds, params, config)
    for p, b in zip(params.parameters(), before):
        assert np.array_equal(p.data, b)


def test_pretrain_supervised_reduction_reaches_high_accuracy():
    # singleton candidate sets make the stage plain supervised training
    rng = np.random.default_rng(1)
    ds = make_blobs(300, 3, 2, 6.0, rng)
    ds.candidates = np.zeros((300, 3), dtype=bool)
    ds.candidates[np.arange(300), ds.truth] = True
    config = _tiny_config(pretrain_epochs=10, inner_iters=20,
                          batch_unlabeled=64, learning_rate=0.1, seed=5)
    params = new_classifier(ds, config)
    pretrain(ds, params, config)
    acc = (params.predict(ds.flat_features()) == ds.truth).mean()
    assert acc >= 0.99


def test_full_batch_descent_is_nonincreasing():
    ds = _blob_pl_dataset(n=24, seed=2)
    config = _tiny_config(learning_rate=0.01, momentum=0.0, weight_decay=0.0)
    params = new_classifier(ds, config)
    x = ds.flat_features().astype(np.float64)
    opt = SgdOptimizer(params.parameters(), config)
    losses = []
    for _ in range(30):
        loss, _ = loss_df(_log_softmax(params, x), ds.candidates)
        losses.append(float(loss.data))
        opt.zero_grad()
        loss.backward()
        opt.step()
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# -- semi-supervised stage -------------------------------------------------------------

def test_train_ss_zero_epochs_is_identity():
    ds = _blob_pl_dataset()
    config = _tiny_config(ss_epochs=0)
    params = new_classifier(ds, config)
    before = [p.data.copy() for p in params.parameters()]
    out, records = train_ss(ds, params, config)
    assert records == []
    for p, b in zip(out.parameters(), before):
        assert np.array_equal(p.data, b)


def test_train_ss_gamma_lambda_zero_equals_complementary_only():
    ds = _blob_pl_dataset(n=60, seed=4)
    config = _tiny_config(gamma0=0.0, lambda0=0.0, ss_epochs=1, inner_iters=3)
    params_a = new_classifier(ds, config)
    params_b = params_a.clone()

    train_ss(ds, params_a, config)

    # direct mirror: only the complementary term drives the updates
    from plsp.trainer import _TAG_AUG_STRONG, _TAG_AUG_WEAK, _TAG_BATCH
    x_flat = ds.flat_features().astype(np.float64)
    opt = SgdOptimizer(params_b.parameters(), config)
    batch_rng = augment.derive_rng(config.seed, _TAG_BATCH)
    split = build_pseudo_split(ds, snapshot_frozen(params_b), config.k)
    lab_cycler = (_Cycler(split.labeled_idx, batch_rng)
                  if split.n_labeled >= config.batch_labeled else None)
    unl_cycler = (_Cycler(split.unlabeled_idx, batch_rng)
                  if split.n_unlabeled >= config.batch_unlabeled else None)
    for c in range(config.inner_iters):
        _draw_batch(split.labeled_idx, config.batch_labeled, lab_cycler, batch_rng)
        unl = _draw_batch(split.unlabeled_idx, config.batch_unlabeled,
                          unl_cycler, batch_rng)
        frozen = snapshot_frozen(params_b)
        wk_rng = augment.derive_rng(config.seed, _TAG_AUG_WEAK, 0, c)
        x_w = augment.weak_batch(ds.features[unl].astype(np.float64),
                                 augment.AugmentSpec(), wk_rng).reshape(unl.size, -1)
        augment.derive_rng(config.seed, _TAG_AUG_STRONG, 0, c)
        sem = weak_cav_pseudo_labels(frozen, x_w, ds.candidates[unl])
        from plsp.semstats import ClassCovStats
        zero_stats = ClassCovStats(ds.l, params_b.feature_dim)
        loss_cl, _ = loss_complementary_semantic(
            params_b, zero_stats, x_flat[unl], ds.candidates[unl], sem, 0.0)
        opt.zero_grad()
        loss_cl.backward()
        opt.step()
    for a, b in zip(params_a.parameters(), params_b.parameters()):
        assert np.allclose(a.data, b.data, atol=1e-12), "mirror diverged"


def test_train_ss_deterministic_records():
    ds = _blob_pl_dataset(n=80, seed=6)
    outs = []
    for _ in range(2):
        config = _tiny_config(seed=11, deterministic=True)
        params = new_classifier(ds, config)
        pretrain(ds, params, config)
        _, records = train_ss(ds, params, config, test_ds=ds)
        outs.append([rec.to_json_line() for rec in records])
    assert outs[0] == outs[1]


def test_train_ss_k_zero_runs_without_supervised_term():
    ds = _blob_pl_dataset(n=60, seed=7)
    config = _tiny_config(k=0, ss_epochs=2)
    params = new_classifier(ds, config)
    _, records = train_ss(ds, params, config)
    assert all(r.loss_sup == 0.0 for r in records)
    assert all(r.n_labeled == 0 for r in records)
    assert all(np.isfinite(r.loss_total) for r in records)


def test_train_ss_k_ge_n_runs_with_empty_unlabeled():
    ds = _blob_pl_dataset(n=40, seed=8)
    config = _tiny_config(k=40, ss_epochs=2, batch_labeled=8)
    params = new_classifier(ds, config)
    _, records = train_ss(ds, params, config)
    assert all(r.n_unlabeled == 0 for r in records)
    assert all(r.reg_u == 0.0 and r.loss_cl == 0.0 for r in records)


def test_train_ss_tau_respects_bounds_every_epoch():
    ds = _blob_pl_dataset(n=90, seed=9)
    config = _tiny_config(ss_epochs=5)
    params = new_classifier(ds, config)
    pretrain(ds, params, config)
    _, records = train_ss(ds, params, config)
    for rec in records:
        tau = np.array(rec.tau)
        assert np.all(tau >= config.tau_floor - 1e-12)
        assert np.all(tau <= config.tau0 + 1e-12)


def test_metrics_records_have_expected_keys():
    ds = _blob_pl_dataset(n=40, seed=10)
    config = _tiny_config(ss_epochs=1)
    params = new_classifier(ds, config)
    _, records = train_ss(ds, params, config, test_ds=ds)
    rec = records[0]
    line = rec.to_json_line()
    assert MetricsRecord.from_json_line(line) == rec


def test_records_carry_clamp_and_skip_counts():
    ds = _blob_pl_dataset(n=40, seed=10)
    config = _tiny_config(ss_epochs=2)
    params = new_classifier(ds, config)
    df_records = []
    train_df_baseline(ds, params, config, 2, ds, df_records.append)
    _, ss_records = train_ss(ds, params, config, test_ds=ds)
    for rec in df_records + ss_records:
        assert type(rec.clamped) is int and rec.clamped >= 0
        assert type(rec.skipped) is int and rec.skipped >= 0
    assert all(rec.skipped == 0 for rec in df_records)


def test_saturated_model_reports_clamps():
    """A head scaled far out drives candidate log-probabilities below the
    clamp; with a zero learning rate every epoch stays saturated."""
    ds = _blob_pl_dataset(n=40, seed=12)
    config = _tiny_config(ss_epochs=2, learning_rate=0.0, gamma0=1.0)
    params = new_classifier(ds, config)
    params.head.data *= 60.0
    df_records = []
    train_df_baseline(ds, params, config, 1, None, df_records.append)
    _, ss_records = train_ss(ds, params, config)
    assert df_records[0].clamped > 0
    assert all(rec.clamped > 0 for rec in ss_records)


def test_df_baseline_trains_and_reports():
    ds = _blob_pl_dataset(n=80, seed=11)
    config = _tiny_config()
    params = new_classifier(ds, config)
    records = []
    train_df_baseline(ds, params, config, 3, ds, records.append)
    assert len(records) == 3
    assert records[-1].loss_df > 0
    assert 0.0 <= records[-1].micro_f1 <= 1.0

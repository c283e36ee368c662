import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from plsp import augment, model, trainer
from plsp.model import snapshot_frozen
from plsp.objective import (build_pseudo_split, loss_complementary_semantic,
                            loss_df, weak_cav_pseudo_labels)
from plsp.pldata import PLDataset, generate_fps, generate_uss, make_blobs
from plsp.tensorcore import SgdOptimizer
from plsp.trainer import (MetricsRecord, TrainConfig, _Cycler, new_classifier,
                          pretrain, schedule_gamma, schedule_lambda,
                          train_df_baseline, train_ss, update_tau)


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
    for field, value in [("gamma0", math.inf), ("lambda0", math.nan),
                         ("learning_rate", math.inf), ("weight_decay", math.nan),
                         ("hidden_dims", (8, 0)), ("hidden_dims", (0,))]:
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
    assert TrainConfig(hidden_dims=()).hidden_dims == ()  # no hidden layer is legal


# -- pre-training ------------------------------------------------------------------

def test_pretrain_zero_epochs_is_identity():
    ds = _blob_pl_dataset()
    config = _tiny_config(pretrain_epochs=0)
    params = new_classifier(ds, config)
    before = [p.data.copy() for p in params.parameters()]
    assert pretrain(ds, params, config) is None
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
    baseline = params.clone()
    assert pretrain(ds, params, config) is None
    acc = (params.predict(ds.flat_features()) == ds.truth).mean()
    assert acc >= 0.99
    # the same epochs as the baseline loop, which records them as well
    records = train_df_baseline(ds, baseline, config, config.pretrain_epochs)
    assert [r.epoch for r in records] == list(range(10))
    for p, b in zip(params.parameters(), baseline.parameters()):
        assert np.array_equal(p.data, b.data)


def test_full_batch_descent_is_nonincreasing():
    ds = _blob_pl_dataset(n=24, seed=2)
    config = _tiny_config(learning_rate=0.01, momentum=0.0, weight_decay=0.0)
    params = new_classifier(ds, config)
    x = ds.flat_features().astype(np.float64)
    opt = SgdOptimizer(params.parameters(), config)
    losses = []
    for _ in range(30):
        loss, _ = loss_df(params, x, ds.candidates)
        losses.append(float(loss.data))
        opt.zero_grad()
        loss.backward()
        opt.step()
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# -- semi-supervised stage -------------------------------------------------------------

def test_training_takes_no_float64_copy_of_the_features():
    """``pretrain`` then ``train_ss`` on 20,000 float32 rows of width 64
    peak below the 9.8 MiB of one float64 copy of the features: only the
    rows a batch draws, and one row block of a full-set pass, become float64."""
    rng = np.random.default_rng(8)
    ds = make_blobs(20_000, 4, 64, 3.0, rng)
    ds.candidates = generate_fps(ds.truth, 4, 0.3, rng)
    config = _tiny_config(pretrain_epochs=1, ss_epochs=1, inner_iters=2,
                          hidden_dims=(8,))
    params = new_classifier(ds, config)
    tracemalloc.start()
    try:
        pretrain(ds, params, config)
        train_ss(ds, params, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ds.features.size * 8, peak


def test_train_ss_zero_epochs_is_identity():
    ds = _blob_pl_dataset()
    config = _tiny_config(ss_epochs=0)
    params = new_classifier(ds, config)
    before = [p.data.copy() for p in params.parameters()]
    assert train_ss(ds, params, config) == []
    for p, b in zip(params.parameters(), before):
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
    split = build_pseudo_split(params_b.eval_logits(ds.flat_features()),
                               ds.candidates, config.k)
    lab_cycler = _Cycler(split.labeled_idx, batch_rng)
    unl_cycler = _Cycler(split.unlabeled_idx, batch_rng)
    for c in range(config.inner_iters):
        lab_cycler.take(config.batch_labeled)
        unl = unl_cycler.take(config.batch_unlabeled)
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


def test_train_ss_takes_no_snapshot_of_the_model(monkeypatch):
    """The pseudo split and the weak branch read the live weights, so the
    loop has no use for a copy of them."""
    def no_snapshot(params):
        raise AssertionError("train_ss copied the model")

    monkeypatch.setattr(trainer, "snapshot_frozen", no_snapshot)
    monkeypatch.setattr(model, "snapshot_frozen", no_snapshot)
    ds = _blob_pl_dataset(n=60, seed=9)
    config = _tiny_config(ss_epochs=2)
    params = new_classifier(ds, config)
    before = [p.data.copy() for p in params.parameters()]
    records = train_ss(ds, params, config)
    assert len(records) == 2
    assert all(r.n_labeled > 0 and r.n_unlabeled > 0 for r in records)
    assert not all(np.array_equal(p.data, b)
                   for p, b in zip(params.parameters(), before))


@pytest.mark.parametrize("truth, ss_forwards, df_forwards", [(True, 4, 3), (False, 3, 0)])
def test_one_train_set_forward_per_epoch_boundary(monkeypatch, truth, ss_forwards,
                                                  df_forwards):
    """Over 3 epochs, ``train_ss`` forwards the training set before epoch 0
    and after each epoch, whose forward feeds both that epoch's train F1 and
    the next split; without truth the forward after the last epoch would feed
    nothing, so it is not made. The disambiguation-free loop forwards the set
    once per epoch for its train F1, and not at all without truth."""
    ds = _blob_pl_dataset(n=60, seed=9)
    if not truth:
        ds.truth = None
    test_ds = _blob_pl_dataset(n=30, seed=10)
    calls = []
    eval_logits = model.ClassifierParams.eval_logits

    def counting(self, x):
        calls.append(len(x))
        return eval_logits(self, x)

    monkeypatch.setattr(model.ClassifierParams, "eval_logits", counting)
    config = _tiny_config(ss_epochs=3)
    params = new_classifier(ds, config)
    records = train_ss(ds, params, config, test_ds=test_ds)
    assert (calls.count(ds.n), calls.count(test_ds.n)) == (ss_forwards, 3)
    if truth:  # the last record's train F1 is of the weights the epoch left
        assert records[-1].train_micro_f1 == trainer.macro_micro_f1(
            params.predict(ds.flat_features()), ds.truth, ds.l)[1]
    calls.clear()
    train_df_baseline(ds, params, config, 3, test_ds)
    assert (calls.count(ds.n), calls.count(test_ds.n)) == (df_forwards, 3)


def test_train_ss_deterministic_records():
    ds = _blob_pl_dataset(n=80, seed=6)
    outs = []
    for _ in range(2):
        config = _tiny_config(seed=11, deterministic=True)
        params = new_classifier(ds, config)
        pretrain(ds, params, config)
        records = train_ss(ds, params, config, test_ds=ds)
        outs.append([rec.to_json_line() for rec in records])
    assert outs[0] == outs[1]


def test_train_ss_k_zero_runs_without_supervised_term():
    ds = _blob_pl_dataset(n=60, seed=7)
    config = _tiny_config(k=0, ss_epochs=2)
    params = new_classifier(ds, config)
    records = train_ss(ds, params, config)
    assert all(r.loss_sup == 0.0 for r in records)
    assert all(r.n_labeled == 0 for r in records)
    assert all(np.isfinite(r.loss_total) for r in records)


def test_train_ss_k_ge_n_runs_with_empty_unlabeled():
    ds = _blob_pl_dataset(n=40, seed=8)
    config = _tiny_config(k=40, ss_epochs=2, batch_labeled=8)
    params = new_classifier(ds, config)
    records = train_ss(ds, params, config)
    assert all(r.n_unlabeled == 0 for r in records)
    assert all(r.reg_u == 0.0 and r.loss_cl == 0.0 for r in records)


def _assert_blocks_are_permutations(draws, pool) -> None:
    """Every aligned block of len(pool) draws holds each pool index once."""
    pool = np.sort(np.asarray(pool))
    for start in range(0, len(draws) - len(pool) + 1, len(pool)):
        assert np.array_equal(np.sort(draws[start:start + len(pool)]), pool)


@pytest.mark.parametrize("pool_size", [5, 8, 20])   # thinner, equal, larger
def test_cycler_draws_thin_equal_and_larger_pools(pool_size):
    pool = np.arange(100, 100 + pool_size)
    cycler = _Cycler(pool, np.random.default_rng(0))
    batches = [cycler.take(8) for _ in range(7)]
    assert all(b.shape == (8,) and b.dtype == np.int64 for b in batches)
    if pool_size >= 8:   # a batch within one pass repeats no index
        assert all(len(set(b.tolist())) == 8 for b in batches)
    _assert_blocks_are_permutations(np.concatenate(batches), pool)


def test_cycler_empty_pool_and_zero_batch_draw_nothing():
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    empty = _Cycler(np.zeros(0, dtype=np.int64), rng)
    for batch in (0, 1, 64):
        out = empty.take(batch)
        assert out.shape == (0,) and out.dtype == np.int64
    assert rng.bit_generator.state == before
    cycler = _Cycler(np.arange(6), rng)
    before = rng.bit_generator.state
    out = cycler.take(0)
    assert out.shape == (0,) and out.dtype == np.int64
    assert rng.bit_generator.state == before


def test_cycler_mixed_takes_cover_the_pool_block_by_block():
    pool = np.arange(7) * 3
    cycler = _Cycler(pool, np.random.default_rng(2))
    sizes = [3, 0, 7, 1, 12, 5, 2, 0, 9, 4, 6, 13]
    draws = np.concatenate([cycler.take(size) for size in sizes])
    assert len(draws) == sum(sizes)
    _assert_blocks_are_permutations(draws, pool)


def test_train_ss_draws_a_thin_pool_without_replacement(monkeypatch):
    ds = _blob_pl_dataset(n=60, seed=4)
    config = _tiny_config(k=18, ss_epochs=1, inner_iters=6, batch_unlabeled=32)
    x_flat = ds.flat_features().astype(np.float64)
    drawn = []
    original = trainer.semantic_batch_loss

    def recording(params, stats, x_lab, y_lab, x_unl, *rest):
        # each row of the blobs is distinct, so a row names its instance
        drawn.append(np.argmax((x_unl[:, None, :] == x_flat[None]).all(axis=2), axis=1))
        return original(params, stats, x_lab, y_lab, x_unl, *rest)

    monkeypatch.setattr(trainer, "semantic_batch_loss", recording)
    params = new_classifier(ds, config)
    (record,) = train_ss(ds, params, config)
    assert 1 < record.n_unlabeled < config.batch_unlabeled
    draws = np.concatenate(drawn)
    assert len(draws) == config.inner_iters * config.batch_unlabeled
    pool = np.unique(draws)
    assert len(pool) == record.n_unlabeled
    _assert_blocks_are_permutations(draws, pool)


@pytest.mark.parametrize("k", [0, 40])   # no labeled pool; no unlabeled pool
def test_train_ss_grid_data_with_an_empty_pool_runs_cleanly(k):
    rng = np.random.default_rng(13)
    truth = np.arange(40) % 4
    ds = PLDataset(rng.standard_normal((40, 8, 8, 1)).astype(np.float32),
                   generate_uss(truth, 4, rng), truth)
    config = _tiny_config(k=k, ss_epochs=2)
    params = new_classifier(ds, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        records = train_ss(ds, params, config, test_ds=ds)
    expected = (0, 40) if k == 0 else (40, 0)
    assert [(r.n_labeled, r.n_unlabeled) for r in records] == [expected] * 2
    assert all(np.isfinite(r.loss_total) for r in records)


def test_train_ss_steps_with_both_batches_empty_move_by_momentum_and_decay_alone():
    ds = _blob_pl_dataset(n=30, l=3, seed=14)
    config = _tiny_config(ss_epochs=2, inner_iters=5, batch_labeled=0,
                          batch_unlabeled=0, hidden_dims=(8,))
    params = new_classifier(ds, config)
    expected = params.clone()
    records = train_ss(ds, params, config)
    assert [(r.loss_total, r.h_pass_rate) for r in records] == [(0.0, 0.0)] * 2
    opt = SgdOptimizer(expected.parameters(), config)
    for _ in range(config.ss_epochs * config.inner_iters):
        opt.step()  # no gradient: momentum and weight decay only
    for got, want in zip(params.parameters(), expected.parameters()):
        assert np.array_equal(got.data, want.data)


def test_train_ss_tau_respects_bounds_every_epoch():
    ds = _blob_pl_dataset(n=90, seed=9)
    config = _tiny_config(ss_epochs=5)
    params = new_classifier(ds, config)
    pretrain(ds, params, config)
    records = train_ss(ds, params, config)
    for rec in records:
        tau = np.array(rec.tau)
        assert np.all(tau >= config.tau_floor - 1e-12)
        assert np.all(tau <= config.tau0 + 1e-12)


def test_metrics_records_have_expected_keys():
    ds = _blob_pl_dataset(n=40, seed=10)
    config = _tiny_config(ss_epochs=1)
    params = new_classifier(ds, config)
    records = train_ss(ds, params, config, test_ds=ds)
    rec = records[0]
    line = rec.to_json_line()
    assert MetricsRecord.from_json_line(line) == rec


def test_older_metrics_line_with_a_skip_count_still_loads():
    """Files written before the skip count went carry ``"skipped": 0``;
    the reader ignores that key, as it ignores any unknown key."""
    line = ('{"epoch": 3, "loss_df": 0.0, "loss_sup": 0.5, "reg_u": 0.25, '
            '"loss_cl": 0.125, "loss_total": 0.875, "macro_f1": 0.5, '
            '"micro_f1": 0.75, "train_macro_f1": 0.5, "train_micro_f1": 0.625, '
            '"h_pass_rate": 0.5, "clamped": 2, "skipped": 0, "tau": [0.75, 0.5, 0.625], '
            '"n_labeled": 10, "n_unlabeled": 30, "wall_clock_s": 0.5, '
            '"is_summary": false}')
    rec = MetricsRecord.from_json_line(line)
    assert rec == MetricsRecord(epoch=3, loss_sup=0.5, reg_u=0.25, loss_cl=0.125,
                                loss_total=0.875, macro_f1=0.5, micro_f1=0.75,
                                train_macro_f1=0.5, train_micro_f1=0.625,
                                h_pass_rate=0.5, clamped=2, tau=[0.75, 0.5, 0.625],
                                n_labeled=10, n_unlabeled=30, wall_clock_s=0.5)
    assert rec.to_json_line() == line.replace('"skipped": 0, ', "")


def test_records_carry_clamp_and_skip_counts():
    ds = _blob_pl_dataset(n=40, seed=10)
    config = _tiny_config(ss_epochs=2)
    params = new_classifier(ds, config)
    df_records = train_df_baseline(ds, params, config, 2, ds)
    ss_records = train_ss(ds, params, config, test_ds=ds)
    for rec in df_records + ss_records:
        assert type(rec.clamped) is int and rec.clamped >= 0
        assert not hasattr(rec, "skipped")
        assert "skipped" not in json.loads(rec.to_json_line())


def test_saturated_model_reports_clamps():
    """A head scaled far out drives candidate log-probabilities below the
    clamp; with a zero learning rate every epoch stays saturated."""
    ds = _blob_pl_dataset(n=40, seed=12)
    config = _tiny_config(ss_epochs=2, learning_rate=0.0, gamma0=1.0)
    params = new_classifier(ds, config)
    params.head.data *= 60.0
    df_records = train_df_baseline(ds, params, config, 1)
    ss_records = train_ss(ds, params, config)
    assert df_records[0].clamped > 0
    assert all(rec.clamped > 0 for rec in ss_records)


def test_df_baseline_trains_and_reports():
    ds = _blob_pl_dataset(n=80, seed=11)
    config = _tiny_config()
    params = new_classifier(ds, config)
    records = train_df_baseline(ds, params, config, 3, ds)
    assert len(records) == 3
    assert records[-1].loss_df > 0
    assert 0.0 <= records[-1].micro_f1 <= 1.0

import argparse
import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from plsp import evalcli
from plsp.augment import AugmentSpec
from plsp.evalcli import (MetricsRecord, _mc_softmax_mean, beta_sup_errors,
                          build_augment_spec, build_train_config, check_lambda_zero,
                          cli_main, macro_micro_f1, parse_config_file)
from plsp.model import ClassifierParams, init_classifier, save_checkpoint
from plsp.pldata import PLDataset, read_dataset, write_dataset
from plsp.tensorcore import Tensor, softmax
from plsp.trainer import TrainConfig


def brute_force_f1(preds, truths, l):
    """Confusion-matrix reference, computed pair by pair."""
    conf = np.zeros((l, l), dtype=int)
    for p, t in zip(preds, truths):
        conf[t, p] += 1
    f1s = []
    for j in range(l):
        tp = conf[j, j]
        fp = conf[:, j].sum() - tp
        fn = conf[j, :].sum() - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    tp_all = np.trace(conf)
    fp_all = conf.sum() - tp_all
    micro = 2 * tp_all / (2 * tp_all + fp_all + fp_all) if conf.sum() else 0.0
    return float(np.mean(f1s)), float(micro)


def test_perfect_predictions():
    assert macro_micro_f1([0, 1, 2, 1], [0, 1, 2, 1], 3) == (1.0, 1.0)


def test_micro_equals_accuracy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        l = int(rng.integers(3, 6))
        n = int(rng.integers(5, 40))
        preds = rng.integers(0, l, size=n)
        truths = rng.integers(0, l, size=n)
        _, micro = macro_micro_f1(preds, truths, l)
        assert abs(micro - (preds == truths).mean()) < 1e-12


def test_hand_counted_confusion_matrix():
    # truths [0,0,1,2], preds [0,1,1,1]:
    # class 0: tp=1 fp=0 fn=1 -> f1 = 2/3
    # class 1: tp=1 fp=2 fn=0 -> f1 = 1/2
    # class 2: tp=0 fp=0 fn=1 -> f1 = 0
    macro, micro = macro_micro_f1([0, 1, 1, 1], [0, 0, 1, 2], 3)
    assert abs(macro - (2 / 3 + 1 / 2 + 0) / 3) < 1e-12
    assert abs(micro - 0.5) < 1e-12


def test_absent_class_counts_as_zero():
    macro, micro = macro_micro_f1([0, 0], [0, 0], 3)
    assert abs(macro - 1 / 3) < 1e-12
    assert micro == 1.0


def test_matches_brute_force_reference():
    rng = np.random.default_rng(1)
    for _ in range(50):
        l = int(rng.integers(3, 7))
        n = int(rng.integers(1, 60))
        preds = rng.integers(0, l, size=n)
        truths = rng.integers(0, l, size=n)
        got = macro_micro_f1(preds, truths, l)
        ref = brute_force_f1(preds, truths, l)
        # the reference computes 2PR/(P+R); identical counts, so the values
        # agree to float association error
        assert abs(got[0] - ref[0]) < 1e-12
        assert abs(got[1] - ref[1]) < 1e-12


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        macro_micro_f1([0, 1], [0], 3)


@pytest.mark.parametrize("preds,truths", [([-1, 0], [0, 0]), ([0, 0], [0, -1])])
def test_negative_label_raises(preds, truths):
    with pytest.raises(ValueError, match="label out of range"):
        macro_micro_f1(preds, truths, 3)


def test_metrics_record_roundtrip():
    rec = MetricsRecord(epoch=3, loss_sup=0.5, reg_u=0.01, loss_cl=0.2,
                        loss_total=0.71, macro_f1=0.9, micro_f1=0.91,
                        train_macro_f1=0.95, train_micro_f1=0.96,
                        h_pass_rate=0.4, tau=[0.75, 0.5], n_labeled=20,
                        n_unlabeled=80, wall_clock_s=1.25)
    line = rec.to_json_line()
    assert MetricsRecord.from_json_line(line) == rec
    assert json.loads(line)["epoch"] == 3


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "gamma0 = 0.5\n"
        "k = 25\n"
        "hidden_dims = 32,16\n"
        "deterministic = true\n"
        "learning_rate = 0.02  # trailing comment\n",
        encoding="utf-8")
    values = parse_config_file(cfg)
    assert values == {"gamma0": 0.5, "k": 25, "hidden_dims": (32, 16),
                      "deterministic": True, "learning_rate": 0.02}


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config_file(cfg)


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma0 = 0.5\nk = 25\n", encoding="utf-8")

    class Args:
        config = str(cfg)
        gamma0 = 0.9
    for f in ("lambda0", "tau0", "k", "pretrain_epochs", "ss_epochs",
              "inner_iters", "batch_labeled", "batch_unlabeled",
              "learning_rate", "momentum", "weight_decay", "beta",
              "tau_floor", "seed", "deterministic", "hidden_dims"):
        setattr(Args, f, None)
    config = build_train_config(Args)
    assert config.gamma0 == 0.9  # flag wins
    assert config.k == 25        # file value kept


# one text value per field type, and what it parses to
_SAMPLES = {bool: ("true", True), int: ("7", 7), float: ("0.625", 0.625),
            tuple: ("32,16", (32, 16))}


def _train_args(*flags):
    return evalcli._build_parser().parse_args(
        ["train", "--data", "d", "--out", "o", "--metrics", "m", *flags])


@pytest.mark.parametrize("field", dataclasses.fields(TrainConfig),
                         ids=lambda f: f.name)
def test_flag_and_config_file_parse_alike(tmp_path, field):
    raw, expected = _SAMPLES[type(field.default)]
    flags = ["--" + field.name.replace("_", "-")]
    if not isinstance(field.default, bool):
        flags.append(raw)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{field.name} = {raw}\n", encoding="utf-8")
    from_flag = getattr(_train_args(*flags), field.name)
    from_file = parse_config_file(cfg)[field.name]
    assert from_flag == from_file == expected
    assert type(from_flag) is type(from_file) is type(field.default)
    assert (build_train_config(_train_args(*flags))
            == build_train_config(_train_args("--config", str(cfg))))


def test_lr_alias_sets_learning_rate():
    assert _train_args("--lr", "0.125").learning_rate == 0.125


@pytest.mark.parametrize("name,bad", [("k", "abc"), ("learning_rate", "fast"),
                                      ("hidden_dims", "8,x")])
def test_bad_config_value_exits_2_as_flag_and_4_in_file(tmp_path, capsys, name, bad):
    data = tmp_path / "d.plsp"
    assert _run(["generate", "--out", str(data), "--n", "30", "--classes", "3",
                 "--seed", "1"]) == 0
    flag = "--" + name.replace("_", "-")
    capsys.readouterr()
    assert _run(["pretrain", "--data", str(data), "--out", str(tmp_path / "o.plsw"),
                 flag, bad]) == 2
    assert flag in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{name} = {bad}\n", encoding="utf-8")
    assert _run(["pretrain", "--data", str(data), "--out", str(tmp_path / "o.plsw"),
                 "--config", str(cfg)]) == 4
    assert name in json.loads(capsys.readouterr().err)["error"]


# the arguments each command requires besides its settings flags
_REQUIRED = {"train": ["--data", "d", "--out", "o", "--metrics", "m"],
             "sweep-k": ["--data", "d"],
             "df-baseline": ["--data", "d", "--metrics", "m"],
             "pretrain": ["--data", "d", "--out", "o"]}


def _flag(field) -> str:
    return "--" + field.name.replace("_", "-")


@pytest.mark.parametrize("command", ["train", "sweep-k"])
def test_settings_flags_come_from_the_dataclasses(command):
    parser = evalcli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [s for action in sub.choices[command]._actions for s in action.option_strings]
    for cls in (TrainConfig, AugmentSpec):
        for field in dataclasses.fields(cls):
            assert flags.count(_flag(field)) == 1, field.name
    args = parser.parse_args([command, *_REQUIRED[command]])
    assert build_train_config(args) == TrainConfig()
    assert build_augment_spec(args) == AugmentSpec()


@pytest.mark.parametrize("command", ["df-baseline", "pretrain"])
def test_augmentation_flags_exit_2_where_nothing_is_augmented(capsys, command):
    for field in dataclasses.fields(AugmentSpec):
        assert _run([command, *_REQUIRED[command], _flag(field), "2"]) == 2
        assert _flag(field) in capsys.readouterr().err


def test_generate_checks_strategy_and_q(tmp_path, capsys):
    out, test_out = tmp_path / "d.plsp", tmp_path / "t.plsp"
    small = ["--out", str(out), "--test-out", str(test_out), "--n", "30",
             "--n-test", "9", "--classes", "3"]
    assert _run(["generate", *small, "--strategy", "bogus"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert _run(["generate", *small, "--strategy", "fps", "--q", "1.0"]) == 4
    assert "flip probability q" in json.loads(capsys.readouterr().err)["error"]
    assert list(tmp_path.iterdir()) == []
    assert _run(["generate", *small, "--strategy", "uss", "--q", "0.7"]) == 0  # q unused
    assert (read_dataset(out).n, read_dataset(test_out).n) == (30, 9)


def _no_training(*args, **kwargs):
    pytest.fail("a model was built for settings that should be rejected")


def _train_rejects_settings(tmp_path, monkeypatch, capsys, *settings) -> None:
    """``train`` with ``settings`` exits 4 before it builds a model, and
    writes neither a checkpoint nor a metrics file."""
    data = tmp_path / "d.plsp"
    assert _run(["generate", "--out", str(data), "--n", "30", "--classes", "3"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(evalcli, "new_classifier", _no_training)
    assert _run(["train", "--data", str(data), "--out", str(tmp_path / "m.plsw"),
                 "--metrics", str(tmp_path / "m.jsonl"), *settings]) == 4
    assert json.loads(capsys.readouterr().err)["code"] == 4
    assert not (tmp_path / "m.plsw").exists() and not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize("flag,value", [
    ("--beta", "0"), ("--beta", "-1"), ("--beta", "nan"), ("--beta", "inf"),
    ("--gamma0", "nan"), ("--gamma0", "inf"), ("--lambda0", "nan"),
    ("--lambda0", "inf"), ("--lr", "nan"), ("--lr", "inf"),
    ("--weight-decay", "nan"), ("--weight-decay", "inf"),
    ("--weak-jitter", "inf"), ("--weak-jitter", "-0.1"), ("--strong-jitter", "nan"),
])
def test_bad_setting_exits_4_before_training(tmp_path, monkeypatch, capsys, flag, value):
    _train_rejects_settings(tmp_path, monkeypatch, capsys, flag, value)


@pytest.mark.parametrize("widths", ["8,0", "0"])
def test_zero_hidden_width_exits_4_from_flag_and_config_file(tmp_path, monkeypatch,
                                                              capsys, widths):
    _train_rejects_settings(tmp_path, monkeypatch, capsys, "--hidden-dims", widths)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"hidden_dims = {widths}\n", encoding="utf-8")
    _train_rejects_settings(tmp_path, monkeypatch, capsys, "--config", str(cfg))


def test_removed_eig_floor_flag_exits_2():
    assert _run(["pretrain", "--data", "d", "--out", "o", "--eig-floor", "0.1"]) == 2


def test_beta_report_contains_candidates():
    rows = beta_sup_errors(grid=4001)
    names = [r[0] for r in rows]
    assert "default" in names and "pi^2/8" in names
    default_err = [e for n, _, e in rows if n == "default"][0]
    assert default_err < 0.0095 + 1e-3


def test_lambda_zero_check_passes():
    res = check_lambda_zero(seed=1)
    assert res.passed, res.detail


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_chunked_mc_mean_matches_one_shot_draw(monkeypatch, chunk):
    monkeypatch.setattr(evalcli, "MC_CHUNK_ROWS", chunk)
    n = 333  # a multiple of no chunk size but 1
    for l, d in [(3, 8), (10, 64)]:
        rng = np.random.default_rng(21)
        head = rng.standard_normal((l, d))
        a = rng.standard_normal(d)
        chol = np.linalg.cholesky(0.05 * np.cov(rng.standard_normal((4 * d, d)).T))
        one_shot_rng = np.random.default_rng(5)
        draws = a + one_shot_rng.standard_normal((n, d)) @ chol.T
        one_shot = softmax(draws @ head.T, axis=1).mean(axis=0)
        chunked_rng = np.random.default_rng(5)
        chunked = _mc_softmax_mean(a, chol, head, n, chunked_rng)
        assert np.abs(chunked - one_shot).max() <= 1e-12 * np.abs(one_shot).max()
        assert chunked_rng.bit_generator.state == one_shot_rng.bit_generator.state


def _nan_on_call(monkeypatch, name: str, call: int) -> None:
    """Make the ``call``-th call (1-based) of evalcli's ``name`` return NaNs
    in place of its result; every other call returns the real one."""
    real = getattr(evalcli, name)
    calls = []

    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(name)
        return np.full_like(out, np.nan) if len(calls) == call else out
    monkeypatch.setattr(evalcli, name, fake)


@pytest.mark.parametrize("check,name,kwargs", [
    (evalcli.check_bound_direction, "shifted_softmax_probs",
     {"seed": 0, "n_instances": 4, "n_samples": 500}),
    (evalcli.check_lambda_zero, "softmax", {"n_batches": 3}),
    (evalcli.check_weak_branch, "_mc_softmax_mean",
     {"seed": 0, "n_samples": 200_000, "n_cases": 3}),
], ids=["bound-direction", "lambda-zero", "weak-branch"])
def test_nan_in_one_case_fails_the_check(monkeypatch, check, name, kwargs):
    assert check(**kwargs).passed
    _nan_on_call(monkeypatch, name, call=2)
    res = check(**kwargs)
    assert not res.passed
    assert "nan" in res.detail


def test_worker_cap_env(monkeypatch):
    from plsp.evalcli import worker_cap
    assert worker_cap() == 1
    monkeypatch.setenv("PLSP_THREADS", "4")
    assert worker_cap() == 1  # sequential implementation, cap satisfied
    monkeypatch.setenv("PLSP_THREADS", "0")
    with pytest.raises(ValueError):
        worker_cap()


# -- CLI integration -----------------------------------------------------------

def _run(args):
    return cli_main(args)


def test_cli_generate_train_eval_chain(tmp_path, capsys):
    data = tmp_path / "train.plsp"
    test = tmp_path / "test.plsp"
    ckpt = tmp_path / "model.plsw"
    metrics = tmp_path / "metrics.jsonl"
    assert _run(["generate", "--out", str(data), "--test-out", str(test),
                 "--n", "120", "--n-test", "30", "--classes", "3",
                 "--separation", "6.0", "--strategy", "fps", "--q", "0.4",
                 "--seed", "1"]) == 0
    assert _run(["train", "--data", str(data), "--test", str(test),
                 "--out", str(ckpt), "--metrics", str(metrics),
                 "--pretrain-epochs", "2", "--ss-epochs", "2",
                 "--inner-iters", "4", "--batch-labeled", "8",
                 "--batch-unlabeled", "16", "--k", "10",
                 "--hidden-dims", "12,6", "--seed", "1"]) == 0
    lines = metrics.read_text().strip().splitlines()
    assert len(lines) == 3  # 2 epochs + summary
    records = [MetricsRecord.from_json_line(ln) for ln in lines]
    assert records[-1].is_summary
    assert not records[0].is_summary
    capsys.readouterr()
    assert _run(["eval", "--checkpoint", str(ckpt), "--data", str(test)]) == 0
    out = capsys.readouterr().out.strip()
    rec = MetricsRecord.from_json_line(out)
    assert 0.0 <= rec.micro_f1 <= 1.0
    # a valid file with no rows evaluates to F1 0 and serves as a test set
    full = read_dataset(test)
    empty = tmp_path / "empty.plsp"
    write_dataset(empty, PLDataset(full.features[:0], full.candidates[:0],
                                   full.truth[:0]))
    assert _run(["eval", "--checkpoint", str(ckpt), "--data", str(empty)]) == 0
    rec = MetricsRecord.from_json_line(capsys.readouterr().out.strip())
    assert (rec.macro_f1, rec.micro_f1) == (0.0, 0.0)
    assert _run(["train", "--data", str(data), "--test", str(empty),
                 "--out", str(ckpt), "--metrics", str(metrics),
                 "--pretrain-epochs", "1", "--ss-epochs", "1",
                 "--inner-iters", "1", "--batch-labeled", "8",
                 "--batch-unlabeled", "16", "--k", "10",
                 "--hidden-dims", "12,6", "--seed", "1"]) == 0


def test_cli_deterministic_metrics_bytes(tmp_path):
    data = tmp_path / "train.plsp"
    assert _run(["generate", "--out", str(data), "--n", "80", "--classes", "3",
                 "--strategy", "uss", "--seed", "7"]) == 0
    payloads = []
    for run in range(2):
        metrics = tmp_path / f"m{run}.jsonl"
        ckpt = tmp_path / f"c{run}.plsw"
        assert _run(["train", "--data", str(data), "--out", str(ckpt),
                     "--metrics", str(metrics), "--seed", "7", "--deterministic",
                     "--pretrain-epochs", "1", "--ss-epochs", "2",
                     "--inner-iters", "3", "--batch-labeled", "8",
                     "--batch-unlabeled", "16", "--k", "5",
                     "--hidden-dims", "10,5"]) == 0
        payloads.append(metrics.read_bytes())
    assert payloads[0] == payloads[1]
    for rec in map(json.loads, payloads[0].decode().splitlines()):
        assert {"clamped", "skipped"} <= rec.keys()


def test_cli_exit_code_2_on_unknown_flag():
    assert _run(["generate", "--does-not-exist", "x"]) == 2
    assert _run(["no-such-command"]) == 2


def test_cli_exit_code_3_on_unreadable_file(tmp_path):
    assert _run(["eval", "--checkpoint", str(tmp_path / "nope.plsw"),
                 "--data", str(tmp_path / "nope.plsp")]) == 3
    bad = tmp_path / "bad.plsp"
    bad.write_bytes(b"XXXXgarbage")
    assert _run(["pretrain", "--data", str(bad),
                 "--out", str(tmp_path / "o.plsw")]) == 3


def test_cli_exit_code_4_on_bad_parameter(tmp_path):
    assert _run(["generate", "--out", str(tmp_path / "d.plsp"),
                 "--strategy", "fps", "--q", "1.0"]) == 4


def test_cli_df_baseline_runs(tmp_path):
    data = tmp_path / "train.plsp"
    metrics = tmp_path / "df.jsonl"
    assert _run(["generate", "--out", str(data), "--n", "60", "--classes", "3",
                 "--strategy", "fps", "--q", "0.3", "--seed", "2"]) == 0
    assert _run(["df-baseline", "--data", str(data), "--metrics", str(metrics),
                 "--epochs", "2", "--inner-iters", "3",
                 "--batch-unlabeled", "16", "--hidden-dims", "10,5",
                 "--seed", "2"]) == 0
    lines = metrics.read_text().strip().splitlines()
    assert len(lines) == 3
    assert all(MetricsRecord.from_json_line(ln) is not None for ln in lines)


def test_cli_sweep_k_reports_each_k(tmp_path, capsys):
    data = tmp_path / "train.plsp"
    out = tmp_path / "sweep.jsonl"
    assert _run(["generate", "--out", str(data), "--n", "60", "--classes", "3",
                 "--strategy", "uss", "--seed", "3"]) == 0
    assert _run(["sweep-k", "--data", str(data), "--test", str(data),
                 "--ks", "0,5,60", "--out", str(out),
                 "--pretrain-epochs", "1", "--ss-epochs", "1",
                 "--inner-iters", "2", "--batch-labeled", "4",
                 "--batch-unlabeled", "8", "--hidden-dims", "8,4",
                 "--seed", "3"]) == 0
    lines = [json.loads(ln) for ln in out.read_text().strip().splitlines()]
    assert [ln["k"] for ln in lines] == [0, 5, 60]
    capsys.readouterr()


# the stdout of `verify --seed 0 --instances 6 --mc-samples 200000
# --bound-samples 500` as a direct row-wise softmax of the same draws prints
# it: the Monte-Carlo kernel may reorder its arithmetic, not its report
VERIFY_SMALL_STDOUT = """\
PASS bound-direction: 6/6 instances, min slack 2.668e-03 (K=500)
PASS lambda-zero-reduction: max deviation 6.883e-15 (tol 1e-09)
PASS weak-branch-mc: max per-coordinate rel err 0.0127 (tol 0.02, beta=0.6087, K=200000)
INFO beta-sup-error default: beta=0.587632 sup|sigmoid-Phi(beta x)|=0.009457
INFO beta-sup-error relative: beta=0.608700 sup|sigmoid-Phi(beta x)|=0.013530
INFO beta-sup-error slope-matched sqrt(pi/8): beta=0.626657 sup|sigmoid-Phi(beta x)|=0.017671
INFO beta-sup-error pi^2/8: beta=1.233701 sup|sigmoid-Phi(beta x)|=0.162521
"""


def test_cli_verify_small_run(capsys):
    code = _run(["verify", "--seed", "0", "--instances", "6",
                 "--mc-samples", "200000", "--bound-samples", "500"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out == VERIFY_SMALL_STDOUT


@pytest.mark.parametrize("flag,value", [("--instances", "0"), ("--instances", "-3"),
                                        ("--mc-samples", "0"), ("--mc-samples", "-1")])
def test_cli_verify_exit_4_on_count_below_one(capsys, flag, value):
    assert _run(["verify", flag, value]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["code"] == 4


def test_cli_non_finite_metric_exits_4_and_leaves_no_stream(tmp_path, monkeypatch, capsys):
    data = tmp_path / "d.plsp"
    assert _run(["generate", "--out", str(data), "--n", "30", "--classes", "3",
                 "--seed", "1"]) == 0
    metrics = tmp_path / "m.jsonl"
    metrics.write_text("earlier run\n", encoding="utf-8")

    def nan_loss_run(ds, params, config, epochs, test_ds, on_epoch):
        on_epoch(MetricsRecord(epoch=0, loss_df=0.5, micro_f1=0.4))
        on_epoch(MetricsRecord(epoch=1, loss_df=float("nan"), micro_f1=0.5))
    monkeypatch.setattr(evalcli, "train_df_baseline", nan_loss_run)
    capsys.readouterr()
    assert _run(["df-baseline", "--data", str(data), "--metrics", str(metrics),
                 "--epochs", "2"]) == 4
    assert json.loads(capsys.readouterr().err)["code"] == 4
    assert metrics.read_text(encoding="utf-8") == "earlier run\n"


# -- corrupt checkpoints ---------------------------------------------------------

def _checkpoint_boundaries(buf: bytes) -> list[int]:
    """Offsets that end the header and each array's rank, dims and data."""
    (count,) = struct.unpack("<I", buf[8:12])
    cuts, off = [4, 12], 12
    for _ in range(count):
        (rank,) = struct.unpack("<I", buf[off:off + 4])
        dims = struct.unpack(f"<{rank}I", buf[off + 4:off + 4 + 4 * rank])
        off += 4 + 4 * rank
        cuts += [off - 4 * rank, off, off + 8 * math.prod(dims)]
        off += 8 * math.prod(dims)
    assert off == len(buf)
    return cuts


@pytest.fixture
def eval_files(tmp_path):
    data = tmp_path / "d.plsp"
    assert _run(["generate", "--out", str(data), "--n", "30", "--classes", "3",
                 "--seed", "1"]) == 0
    ckpt = tmp_path / "m.plsw"
    save_checkpoint(ckpt, init_classifier(2, (4, 3), 3, np.random.default_rng(0)))
    return ckpt, data


def _eval(ckpt, data) -> int:
    return _run(["eval", "--checkpoint", str(ckpt), "--data", str(data)])


def test_cli_eval_exit_3_on_truncated_checkpoint(eval_files, capsys):
    ckpt, data = eval_files
    buf = ckpt.read_bytes()
    assert _eval(ckpt, data) == 0
    for cut in [0, *_checkpoint_boundaries(buf)[:-1]]:
        ckpt.write_bytes(buf[:cut])
        assert _eval(ckpt, data) == 3, cut
    capsys.readouterr()


def test_cli_eval_exit_3_on_trailing_byte_or_bad_magic(eval_files, capsys):
    ckpt, data = eval_files
    buf = ckpt.read_bytes()
    ckpt.write_bytes(buf + b"\0")
    assert _eval(ckpt, data) == 3
    ckpt.write_bytes(b"NOPE" + buf[4:])
    assert _eval(ckpt, data) == 3
    capsys.readouterr()


@pytest.mark.parametrize("shapes", [
    [(2, 4), (4,), (5, 3), (3,), (3, 3)],   # second layer's input is not 4
    [(2, 4), (3,), (3, 4)],                 # bias does not match its weight
    [(2, 4), (4,), (3, 5)],                 # head width is not the last output
    [(2, 4), (4,), (12,)],                  # head is not a matrix
], ids=["layer-input", "bias", "head-width", "head-rank"])
def test_cli_eval_exit_3_on_broken_shape_chain(eval_files, capsys, shapes):
    ckpt, data = eval_files
    arrays = [Tensor(np.zeros(shape)) for shape in shapes]
    save_checkpoint(ckpt, ClassifierParams(
        layers=list(zip(arrays[:-1:2], arrays[1::2])), head=arrays[-1]))
    assert _eval(ckpt, data) == 3
    capsys.readouterr()


def _wrapping_dims_dataset() -> bytes:
    """A .plsp header whose dims (2^31, 2^31, 4) multiply to 2^64, which is
    0 in wrapping 64-bit arithmetic, followed by a few bytes."""
    dims = (2**31, 2**31, 4)
    return (b"PLSP" + struct.pack("<HHQI", 1, 0, 2, 3) + struct.pack("<I", len(dims))
            + struct.pack("<3I", *dims) + b"\0" * 32)


@pytest.mark.parametrize("corrupt", ["trailing-byte", "wrapping-dims"])
def test_cli_exit_3_on_dataset_breaking_its_framing(eval_files, tmp_path, capsys, corrupt):
    ckpt, data = eval_files
    buf = data.read_bytes()
    data.write_bytes(buf + b"\0" if corrupt == "trailing-byte" else _wrapping_dims_dataset())
    assert _eval(ckpt, data) == 3
    assert _run(["pretrain", "--data", str(data), "--out", str(tmp_path / "o.plsw"),
                 "--pretrain-epochs", "1", "--inner-iters", "1"]) == 3
    capsys.readouterr()


def _two_class_dataset() -> bytes:
    """A well-framed .plsp whose header says l = 2: four 2-d rows, each with
    the candidate set {0}."""
    n, l = 4, 2
    return (b"PLSP" + struct.pack("<HHQI", 1, 0, n, l) + struct.pack("<II", 1, 2)
            + np.zeros(2 * n, dtype="<f4").tobytes() + np.ones(n, dtype="<u8").tobytes())


def test_cli_exit_3_on_class_count_below_three(eval_files, tmp_path, capsys):
    ckpt, data = eval_files
    data.write_bytes(_two_class_dataset())
    assert _run(["pretrain", "--data", str(data), "--out", str(tmp_path / "o.plsw"),
                 "--pretrain-epochs", "1", "--inner-iters", "1"]) == 3
    assert _eval(ckpt, data) == 3
    # no such file is written: asking for two classes is a bad parameter
    assert _run(["generate", "--out", str(tmp_path / "two.plsp"), "--n", "30",
                 "--classes", "2"]) == 4
    codes = [json.loads(line)["code"] for line in capsys.readouterr().err.splitlines()]
    assert codes == [3, 3, 4]

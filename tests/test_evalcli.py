import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import signal
import struct

import mcref
import numpy as np
import pytest
from mcref import _logit_factor, mc_softmax_mean, weak_branch_cases
from scipy.special import ndtr

from plsp import evalcli, semstats
from plsp.augment import AugmentSpec
from plsp.evalcli import (MetricsRecord, _quadrature_softmax_mean, beta_sup_errors,
                          build_augment_spec, build_train_config, check_lambda_zero,
                          cli_main, macro_micro_f1, parse_config_file)
from plsp.model import ClassifierParams, init_classifier, save_checkpoint
from plsp.objective import LOG_EPS, mc_oracle_reg
from plsp.pldata import PLDataset, generate_uss, read_dataset, write_dataset
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
              "learning_rate", "momentum", "weight_decay", "tau_floor", "seed",
              "deterministic", "hidden_dims"):
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


def test_removed_beta_flag_exits_2(capsys):
    for command, required in _REQUIRED.items():
        assert _run([command, *required, "--beta", "0.6"]) == 2, command
        assert "--beta" in capsys.readouterr().err


def test_beta_in_a_config_file_exits_4_naming_the_key(tmp_path, capsys):
    data = tmp_path / "d.plsp"
    assert _run(["generate", "--out", str(data), "--n", "30", "--classes", "3"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 0.6\n", encoding="utf-8")
    capsys.readouterr()
    assert _run(["pretrain", "--data", str(data), "--out", str(tmp_path / "o.plsw"),
                 "--config", str(cfg)]) == 4
    assert "unknown config key 'beta'" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "o.plsw").exists()


def test_beta_report_contains_candidates():
    rows = beta_sup_errors(grid=4001)
    names = [r[0] for r in rows]
    assert "default" in names and "pi^2/8" in names
    default_err = [e for n, _, e in rows if n == "default"][0]
    assert default_err < 0.0095 + 1e-3


def test_beta_report_matches_two_sided_sup():
    """The report reads the [-8, 0] half of the grid; the sup over the whole
    [-8, 8] grid, with scipy's two-sided ndtr, is the same to rounding."""
    x = np.linspace(-8.0, 8.0, 40001)
    sig = 1.0 / (1.0 + np.exp(-x))
    for _, beta, err in beta_sup_errors():
        assert abs(err - np.abs(sig - ndtr(beta * x)).max()) < 1e-15


def test_beta_report_stays_in_the_tail_domain():
    # normal_tail takes 0 <= u < 8 sqrt(2); the report evaluates it at beta * 8
    for _, beta, _ in beta_sup_errors(grid=41):
        assert 0.0 < beta * 8.0 < 8.0 * math.sqrt(2.0)


def test_lambda_zero_check_passes():
    res = check_lambda_zero(seed=1)
    assert res.passed, res.detail


def _mc_case(l: int, d: int, seed: int = 21):
    """A head, a feature vector and a Cholesky factor of a class covariance."""
    rng = np.random.default_rng(seed)
    head = rng.standard_normal((l, d))
    a = rng.standard_normal(d)
    chol = np.linalg.cholesky(0.05 * np.cov(rng.standard_normal((4 * d, d)).T))
    return head, a, chol


def _feature_space_mc_mean(a, chol, head, n_samples, rng):
    """Oracle: mean of softmax(head @ (a + chol @ e)) drawing all d normals
    of each feature-space sample e."""
    draws = a + rng.standard_normal((n_samples, a.size)) @ chol.T
    return softmax(draws @ head.T, axis=1).mean(axis=0)


@pytest.mark.parametrize("l,d", [(3, 8), (10, 64)])
def test_mc_mean_agrees_with_the_feature_space_oracle(l, d):
    head, a, chol = _mc_case(l, d)
    n = 100_000
    estimate = mc_softmax_mean(a, chol, head, n, np.random.default_rng(1))
    oracle = _feature_space_mc_mean(a, chol, head, n, np.random.default_rng(2))
    # per-coordinate standard deviation of one sample's softmax, from a
    # third, independent feature-space draw
    draws = a + np.random.default_rng(3).standard_normal((20_000, d)) @ chol.T
    sd = softmax(draws @ head.T, axis=1).std(axis=0)
    combined_se = sd * math.sqrt(2.0 / n)
    assert np.all(np.abs(estimate - oracle) <= 5.0 * combined_se)


@pytest.mark.parametrize("l,d", [(3, 8), (10, 64), (12, 5)])
def test_logit_factor_carries_the_logit_covariance(l, d):
    head, _, chol = _mc_case(l, d)
    w = head @ chol
    f = _logit_factor(head, chol)
    assert f.shape == (l, min(l, d))
    assert np.abs(f @ f.T - w @ w.T).max() <= 1e-12 * np.abs(w @ w.T).max()


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_chunked_mc_mean_matches_one_shot_draw(monkeypatch, chunk):
    monkeypatch.setattr(mcref, "MC_CHUNK_ROWS", chunk)
    n = 333  # a multiple of no chunk size but 1
    for l, d in [(3, 8), (10, 64)]:
        head, a, chol = _mc_case(l, d)
        f = _logit_factor(head, chol)
        one_shot_rng = np.random.default_rng(5)
        logits = head @ a + one_shot_rng.standard_normal((n, f.shape[1])) @ f.T
        one_shot = softmax(logits, axis=1).mean(axis=0)
        chunked_rng = np.random.default_rng(5)
        chunked = mc_softmax_mean(a, chol, head, n, chunked_rng)
        assert np.abs(chunked - one_shot).max() <= 1e-12 * np.abs(one_shot).max()
        assert chunked_rng.bit_generator.state == one_shot_rng.bit_generator.state


def test_quadrature_agrees_with_the_mc_oracle():
    """On the weak-branch check's seed-0 cases the Gauss–Hermite mean sits
    within 5 standard errors of a 1M-draw Monte-Carlo mean, per coordinate."""
    n = 1_000_000
    draw_rng = np.random.default_rng([0, 1])
    sd_rng = np.random.default_rng(3)
    for head, a, cov, lam, chol in weak_branch_cases(seed=0):
        exact = _quadrature_softmax_mean(head, a, cov, lam)
        estimate = mc_softmax_mean(a, chol, head, n, draw_rng)
        # per-coordinate standard deviation of one sample's softmax, from
        # an independent draw
        logits = head @ a + sd_rng.standard_normal((20_000, a.size)) @ (head @ chol).T
        se = softmax(logits, axis=1).std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(exact - estimate) <= 5.0 * se)


def test_bound_reference_agrees_with_the_mc_oracle():
    """On the first nine seed-0 bound-direction instances (three per
    strength) the exact expected cross entropy sits within 5 standard errors
    of ``mc_oracle_reg``'s 200k-draw strong-branch estimate, which samples
    the 8-D features under the same label and target."""
    rng = np.random.default_rng([0, 1])
    for case in itertools.islice(evalcli._bound_cases(0, 51), 9):
        _, exact = evalcli._bound_ces(*case)
        est = mc_oracle_reg(*case, np.full(3, 0.75), 200_000, rng)
        assert abs(exact - est.strong_ce) <= 5.0 * est.strong_ce_se


def _weak_branch_references():
    return [_quadrature_softmax_mean(head, a, cov, lam)
            for head, a, cov, lam, _ in weak_branch_cases(seed=0)]


def _bound_references():
    return [evalcli._bound_ces(*case)[1] for case in evalcli._bound_cases(0, 51)]


@pytest.mark.parametrize("references,atol,rtol", [
    (_weak_branch_references, 1e-14, 0.0),
    (_bound_references, 0.0, 1e-14),
], ids=["weak-branch", "bound-direction"])
def test_reference_has_converged(monkeypatch, references, atol, rtol):
    """Each exact reference on its seed-0 cases moves by no more than the
    tolerance when the grid's node count doubles."""
    coarse = references()
    monkeypatch.setattr(evalcli, "GH_NODES", 2 * evalcli.GH_NODES)
    fine = references()
    for c, f in zip(coarse, fine, strict=True):
        assert np.all(np.abs(c - f) <= atol + rtol * np.abs(f))


@pytest.mark.parametrize("n", [3, evalcli.GH_NODES])
def test_gauss_hermite_grid_reproduces_normal_moments(n):
    """The weights sum to 1 and reproduce N(0, I)'s moments up to degree
    2n - 1 in each coordinate."""
    (g1, g2), w = evalcli._gauss_hermite_grid(n, 2)
    expected = {"1": (np.ones_like(w), 1.0), "g1^2": (g1 ** 2, 1.0),
                "g2^4": (g2 ** 4, 3.0), "g1^2 g2^2": (g1 ** 2 * g2 ** 2, 1.0),
                "g1": (g1, 0.0), "g1 g2": (g1 * g2, 0.0), "g2^3": (g2 ** 3, 0.0),
                "g1^5": (g1 ** 5, 0.0), "g1^3 g2^2": (g1 ** 3 * g2 ** 2, 0.0)}
    errors = {name: abs(float(f @ w) - want) for name, (f, want) in expected.items()}
    assert max(errors.values()) <= 1e-13, errors
    assert abs(evalcli._gauss_hermite_grid(n, 3)[1].sum() - 1.0) <= 1e-13


def test_gauss_hermite_cache_is_bounded():
    """The grid cache keeps verify's grid and its node-count doubling, and
    drops the oldest grid past that."""
    grid = evalcli._gauss_hermite_grid
    grid.cache_clear()
    for _ in range(3):
        grid(evalcli.GH_NODES, 2)
        grid(2 * evalcli.GH_NODES, 2)
    assert grid.cache_info().misses == 2
    for n in range(2, 12):
        grid(n, 3)
    assert grid.cache_info().currsize == grid.cache_info().maxsize == 2


def test_probit_pair_cache_is_bounded_and_read_only():
    """The probit builds its class pairs and pick matrices once per class
    count, keeps a few class counts, and hands out arrays no caller can
    write through."""
    pairs = semstats._pairs
    pairs.cache_clear()
    for _ in range(3):
        upper, lower, pick_upper, pick_lower = pairs(4)
    assert pairs.cache_info().misses == 1
    assert np.array_equal(np.stack([upper, lower]), np.triu_indices(4, 1))
    assert np.array_equal(pick_upper, np.eye(4)[upper])
    assert np.array_equal(pick_lower, np.eye(4)[lower])
    assert not any(arr.flags.writeable for arr in (upper, lower, pick_upper, pick_lower))
    with pytest.raises(ValueError):
        pick_upper[0, 0] = 2.0
    for l in range(3, 20):
        pairs(l)
    assert pairs.cache_info().currsize == pairs.cache_info().maxsize == 4


@pytest.mark.parametrize("l,d", [(2, 5), (3, 8)])
@pytest.mark.parametrize("zero", ["cov", "lam"])
def test_references_reduce_to_the_plain_terms_without_spread(l, d, zero):
    """With no semantic spread (cov = 0 or lam = 0) the expected softmax is
    the plain softmax and the expected clamped cross entropy the plain one,
    up to the rounding of a sum over the grid's 32 ** (l - 1) points (a few
    ulps of max(1, value))."""
    rng = np.random.default_rng(l)
    head = rng.standard_normal((l, d))
    a = rng.standard_normal(d) * 2.0
    cov = np.cov(rng.standard_normal((40, d)).T, bias=True)
    cov, lam = (np.zeros((d, d)), 0.05) if zero == "cov" else (cov, 0.0)
    target = rng.dirichlet(np.ones(l))
    probs = softmax(head @ a, axis=0)
    plain_ce = float(-target @ np.maximum(np.log(probs), LOG_EPS))
    assert np.abs(_quadrature_softmax_mean(head, a, cov, lam) - probs).max() <= 1e-14
    exact_ce = evalcli._quadrature_clamped_ce(head, a, cov, lam, target)
    assert abs(exact_ce - plain_ce) <= 1e-14 * max(1.0, plain_ce)


def test_weak_branch_cases_do_not_depend_on_the_sample_count(capsys):
    lines = []
    for n_samples in ("1000", "1000000"):
        assert cli_main(["verify", "--instances", "1",
                         "--mc-samples", n_samples]) == 0
        lines.append([ln for ln in capsys.readouterr().out.splitlines()
                      if ln.startswith("PASS weak-branch:")])
    assert len(lines[0]) == 1
    assert lines[0] == lines[1]


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
     {"seed": 0, "n_instances": 4}),
    (evalcli.check_lambda_zero, "softmax", {"n_batches": 3}),
    (evalcli.check_weak_branch, "_quadrature_softmax_mean",
     {"seed": 0, "n_samples": 1, "n_cases": 3}),
], ids=["bound-direction", "lambda-zero", "weak-branch"])
def test_nan_in_one_case_fails_the_check(monkeypatch, check, name, kwargs):
    assert check(**kwargs).passed
    _nan_on_call(monkeypatch, name, call=2)
    res = check(**kwargs)
    assert not res.passed
    assert "nan" in res.detail


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
        assert "clamped" in rec and "skipped" not in rec


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


# the stdout of `verify --seed 0 --instances 6 --mc-samples 200000`: both
# checks take exact Gauss–Hermite references over the centred logits and
# draw nothing; K= is the node count per axis, one for both grids
VERIFY_SMALL_STDOUT = """\
PASS bound-direction: 6/6 instances, min slack 4.447e-04 (K=32)
PASS lambda-zero-reduction: max deviation 6.883e-15 (tol 1e-09)
PASS weak-branch: max per-coordinate rel err 0.0155 (tol 0.02, beta=0.6087, K=32)
INFO beta-sup-error default: beta=0.587632 sup|sigmoid-Phi(beta x)|=0.009457
INFO beta-sup-error relative: beta=0.608700 sup|sigmoid-Phi(beta x)|=0.013530
INFO beta-sup-error slope-matched sqrt(pi/8): beta=0.626657 sup|sigmoid-Phi(beta x)|=0.017671
INFO beta-sup-error pi^2/8: beta=1.233701 sup|sigmoid-Phi(beta x)|=0.162521
"""


def test_cli_verify_small_run(capsys):
    code = _run(["verify", "--seed", "0", "--instances", "6",
                 "--mc-samples", "200000"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out == VERIFY_SMALL_STDOUT


@pytest.mark.parametrize("flag,value", [("--instances", "0"), ("--instances", "-3"),
                                        ("--mc-samples", "0"), ("--mc-samples", "-1")])
def test_cli_verify_exit_4_on_count_below_one(capsys, flag, value):
    assert _run(["verify", flag, value]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["code"] == 4
    assert flag[2:].replace("-", "_") in error["error"]


def test_removed_bound_samples_flag_exits_2(capsys):
    assert _run(["verify", "--bound-samples", "500"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bound-samples" in captured.err


def test_cli_non_finite_metric_exits_4_and_leaves_no_stream(tmp_path, monkeypatch, capsys):
    data = tmp_path / "d.plsp"
    assert _run(["generate", "--out", str(data), "--n", "30", "--classes", "3",
                 "--seed", "1"]) == 0
    metrics = tmp_path / "m.jsonl"
    metrics.write_text("earlier run\n", encoding="utf-8")

    def nan_loss_run(ds, params, config, epochs, test_ds):
        return [MetricsRecord(epoch=0, loss_df=0.5, micro_f1=0.4),
                MetricsRecord(epoch=1, loss_df=float("nan"), micro_f1=0.5)]
    monkeypatch.setattr(evalcli, "train_df_baseline", nan_loss_run)
    capsys.readouterr()
    assert _run(["df-baseline", "--data", str(data), "--metrics", str(metrics),
                 "--epochs", "2"]) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["code"] == 4
    assert "epoch 1" in error["error"] and "loss_df" in error["error"], error
    assert metrics.read_text(encoding="utf-8") == "earlier run\n"


# -- inputs rejected before training ---------------------------------------------

@contextlib.contextmanager
def _within(seconds: int):
    """Fails the test when the block runs past ``seconds``, so a hang fails."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _exits_4_writing_nothing(tmp_path, capsys, argv) -> str:
    """Runs ``argv`` (its outputs named out.* under ``tmp_path``), checks it
    exits 4 with no stdout and no output file, and returns the error text."""
    capsys.readouterr()
    with _within(10):
        assert _run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.glob("out.*")) == []
    error = json.loads(captured.err)
    assert error["code"] == 4
    return error["error"]


def _outputs(tmp_path, command: str) -> list[str]:
    out, metrics = str(tmp_path / "out.bin"), str(tmp_path / "out.jsonl")
    return {"pretrain": ["--out", out],
            "train": ["--out", out, "--metrics", metrics],
            "df-baseline": ["--out", out, "--metrics", metrics],
            "sweep-k": ["--out", metrics, "--ks", "0,5"]}[command]


@pytest.mark.parametrize("command", ["pretrain", "train", "df-baseline", "sweep-k",
                                     # no pre-training step: the semi-supervised
                                     # stage must refuse the empty dataset itself
                                     "train --pretrain-epochs 0",
                                     "sweep-k --pretrain-epochs 0"])
def test_training_on_an_empty_dataset_exits_4_promptly(tmp_path, capsys, command):
    empty = tmp_path / "empty.plsp"
    write_dataset(empty, PLDataset(np.zeros((0, 2), dtype=np.float32),
                                   np.zeros((0, 3), dtype=bool), np.zeros(0, np.uint32)))
    name, *settings = command.split()
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        name, "--data", str(empty), *_outputs(tmp_path, name),
        "--inner-iters", "1", "--hidden-dims", "4", *settings])
    assert "n = 0" in error


def test_df_baseline_batch_of_zero_exits_4_but_unused_batch_is_fine(tmp_path, capsys):
    data = tmp_path / "d.plsp"
    assert _run(["generate", "--out", str(data), "--n", "30", "--classes", "3"]) == 0
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        "df-baseline", "--data", str(data), *_outputs(tmp_path, "df-baseline"),
        "--epochs", "1", "--inner-iters", "1", "--batch-unlabeled", "0"])
    assert "batch_unlabeled" in error
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        "df-baseline", "--data", str(data), *_outputs(tmp_path, "df-baseline"),
        "--epochs", "-1", "--inner-iters", "1"])
    assert "epochs must be >= 0" in error
    # no disambiguation-free step, so a batch of 0 only empties the
    # semi-supervised unlabeled batches
    assert _run(["train", "--data", str(data), *_outputs(tmp_path, "train"),
                 "--pretrain-epochs", "0", "--batch-unlabeled", "0", "--ss-epochs", "1",
                 "--inner-iters", "2", "--hidden-dims", "4"]) == 0


def test_sweep_k_checks_every_k_before_training(tmp_path, monkeypatch, capsys):
    data = tmp_path / "d.plsp"
    assert _run(["generate", "--out", str(data), "--n", "30", "--classes", "3"]) == 0
    monkeypatch.setattr(evalcli, "new_classifier", _no_training)
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        "sweep-k", "--data", str(data), "--out", str(tmp_path / "out.jsonl"),
        "--ks", "0,-5"])
    assert "k must be >= 0" in error
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        "sweep-k", "--data", str(data), "--out", str(tmp_path / "out.jsonl"),
        "--ks", ","])
    assert "names no k" in error


@pytest.mark.parametrize("sizes,message", [
    (["--n-test", "-5"], "n_test must lie in [0, 1995], got -5"),
    (["--n", "-5"], "n_test must lie in [0, 495], got 500"),
])
def test_generate_with_a_negative_size_exits_4_writing_nothing(tmp_path, capsys, sizes,
                                                               message):
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        "generate", "--out", str(tmp_path / "out.plsp"),
        "--test-out", str(tmp_path / "out.test.plsp"), *sizes])
    assert message in error


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_generate_with_a_non_finite_separation_exits_4_writing_nothing(tmp_path, capsys,
                                                                       value):
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        "generate", "--out", str(tmp_path / "out.plsp"), "--separation", value])
    assert "separation must be finite" in error


def test_generate_with_an_overflowing_separation_exits_4_writing_nothing(tmp_path, capsys):
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        "generate", "--out", str(tmp_path / "out.plsp"),
        "--test-out", str(tmp_path / "out.test.plsp"), "--separation", "1e160"])
    assert "z-scored features are not finite" in error


@pytest.mark.filterwarnings("error")
def test_train_with_an_overflowing_weak_jitter_exits_4_writing_nothing(tmp_path, capsys):
    """A finite jitter so large that the weak view's activation-value scores
    overflow stops the run, with no overflow warning and no output file."""
    data = tmp_path / "d.plsp"
    assert _run(["generate", "--out", str(data), "--n", "120", "--classes", "3"]) == 0
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        "train", "--data", str(data), *_outputs(tmp_path, "train"), "--hidden-dims", "8",
        "--pretrain-epochs", "1", "--ss-epochs", "2", "--inner-iters", "3",
        "--batch-labeled", "8", "--batch-unlabeled", "16", "--k", "5",
        "--weak-jitter", "1e300"])
    assert error == "non-finite weak-view scores"


@pytest.mark.parametrize("classes,dim", [(6, 2), (4, 3)])
def test_eval_on_a_dataset_unlike_the_checkpoint_exits_4_writing_nothing(
        tmp_path, capsys, classes, dim):
    data, ckpt = tmp_path / "d.plsp", tmp_path / "m.plsw"
    assert _run(["generate", "--out", str(data), "--n", "30", "--classes", str(classes),
                 "--dim", str(dim)]) == 0
    save_checkpoint(ckpt, init_classifier(2, (4,), 4, np.random.default_rng(0)))
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        "eval", "--checkpoint", str(ckpt), "--data", str(data),
        "--out", str(tmp_path / "out.jsonl")])
    assert "checkpoint takes 2 input features and 4 classes" in error
    assert f"dataset has {dim} features and {classes} classes" in error


@pytest.mark.parametrize("command", ["train", "df-baseline", "sweep-k"])
@pytest.mark.parametrize("classes,dim", [(6, 2), (4, 3)])
def test_a_test_set_unlike_the_training_set_exits_4_before_training(
        tmp_path, monkeypatch, capsys, command, classes, dim):
    data, test = tmp_path / "d.plsp", tmp_path / "t.plsp"
    assert _run(["generate", "--out", str(data), "--n", "30", "--classes", "4"]) == 0
    assert _run(["generate", "--out", str(test), "--n", "30", "--classes", str(classes),
                 "--dim", str(dim)]) == 0
    monkeypatch.setattr(evalcli, "new_classifier", _no_training)
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        command, "--data", str(data), "--test", str(test), *_outputs(tmp_path, command)])
    assert f"test set has {classes} classes of shape ({dim},)" in error
    assert "training set has 4 classes of shape (2,)" in error


def _grid_dataset(path, n: int) -> None:
    rng = np.random.default_rng(5)
    truth = (np.arange(n) % 4).astype(np.uint32)
    write_dataset(path, PLDataset(rng.standard_normal((n, 8, 8, 1)).astype(np.float32),
                                  generate_uss(truth, 4, rng), truth))


@pytest.mark.parametrize("command", ["train", "sweep-k"])
@pytest.mark.parametrize("k", ["5", "200"])   # 200 leaves no unlabeled pool
def test_cutout_larger_than_the_grid_exits_4_before_training(tmp_path, monkeypatch,
                                                              capsys, command, k):
    data = tmp_path / "grid.plsp"
    _grid_dataset(data, 200)
    monkeypatch.setattr(evalcli, "new_classifier", _no_training)
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        command, "--data", str(data), *_outputs(tmp_path, command), "--k", k,
        "--cutout-size", "99"])
    assert "cutout_size exceeds grid" in error


@pytest.mark.parametrize("command", ["train", "sweep-k"])
def test_pad_larger_than_the_grid_exits_4_before_training(tmp_path, monkeypatch,
                                                          capsys, command):
    data = tmp_path / "grid.plsp"
    _grid_dataset(data, 200)
    monkeypatch.setattr(evalcli, "new_classifier", _no_training)
    error = _exits_4_writing_nothing(tmp_path, capsys, [
        command, "--data", str(data), *_outputs(tmp_path, command), "--pad", "9"])
    assert "pad exceeds grid" in error


def test_flat_data_ignore_the_cutout(tmp_path):
    data = tmp_path / "d.plsp"
    assert _run(["generate", "--out", str(data), "--n", "30", "--classes", "3"]) == 0
    assert _run(["train", "--data", str(data), *_outputs(tmp_path, "train"),
                 "--cutout-size", "99", "--pad", "99", "--pretrain-epochs", "1",
                 "--ss-epochs", "1", "--inner-iters", "1", "--k", "3",
                 "--hidden-dims", "4"]) == 0


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


def _zero_width_dataset(dims: tuple[int, ...]) -> bytes:
    """A well-framed .plsp of 30 rows, 3 classes and feature shape ``dims``
    with a zero in it, so the features take no bytes; every candidate set is
    {0} and no truth is stored."""
    n, l = 30, 3
    return (b"PLSP" + struct.pack("<HHQI", 1, 0, n, l)
            + struct.pack(f"<I{len(dims)}I", len(dims), *dims)
            + np.ones(n, dtype="<u8").tobytes())


@pytest.mark.parametrize("dims", [(0,), (0, 4, 1), (4, 0, 1)])
def test_cli_exit_3_on_zero_feature_dimension(tmp_path, capsys, dims):
    data = tmp_path / "d.plsp"
    data.write_bytes(_zero_width_dataset(dims))
    assert _run(["train", "--data", str(data), "--out", str(tmp_path / "o.plsw"),
                 "--metrics", str(tmp_path / "m.jsonl"), "--pretrain-epochs", "1",
                 "--ss-epochs", "1", "--inner-iters", "1"]) == 3
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["code"] == 3
    assert not (tmp_path / "o.plsw").exists() and not (tmp_path / "m.jsonl").exists()


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

"""Acceptance suite: one test per gate criterion, each printing a PASS/FAIL
line with the measured quantity next to its frozen threshold.

Run as `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import io
import json
import time

import numpy as np
import pytest
from mcref import mc_weak_branch_error
from refgraph import gradients
from scipy.stats import chi2

from plsp.evalcli import (MetricsRecord, check_bound_direction,
                          check_lambda_zero, check_weak_branch, cli_main,
                          run_verify)
from plsp.model import init_classifier, snapshot_frozen
from plsp.objective import (assemble_batch, loss_complementary_semantic,
                            loss_sup_semantic, reg_consistency_semantic,
                            weak_cav_pseudo_labels)
from plsp.pldata import generate_fps, generate_uss
from plsp.semstats import ClassCovStats, update_cov_stats
from plsp.trainer import schedule_gamma, schedule_lambda, update_tau

from test_pldata import fps_exact


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_bound_direction():
    start = time.perf_counter()
    res = check_bound_direction(seed=0, n_instances=51)
    elapsed = time.perf_counter() - start
    _report("criterion-1 bound-direction",
            res.passed and elapsed < 60.0,
            f"{res.detail}; runtime {elapsed:.1f}s (< 60s)")


def test_criterion_2_weak_branch_quality():
    """The closed form against 1M draws per case, the check's Monte-Carlo
    reference before it took a Gauss–Hermite one: the same seed-0 cases, the
    same draws in the same order, the same 2% budget."""
    start = time.perf_counter()
    mc_err = mc_weak_branch_error(seed=0, n_samples=1_000_000)
    res = check_weak_branch(seed=0, n_samples=1)
    buf = io.StringIO()
    run_verify(seed=0, n_instances=4, mc_samples=50_000, out=buf)
    report = buf.getvalue()
    elapsed = time.perf_counter() - start
    has_report = report.count("beta-sup-error") >= 3
    _report("criterion-2 weak-branch-mc",
            mc_err <= 0.02 and res.passed and has_report and elapsed < 120.0,
            f"max per-coordinate rel err {mc_err:.4f} (tol 0.02, K=1000000); "
            f"exact reference: {res.detail}; beta report lines present={has_report}; "
            f"runtime {elapsed:.1f}s (< 120s)")


def test_criterion_3_lambda_zero_reduction():
    res = check_lambda_zero(seed=0, n_batches=20, tol=1e-9)
    _report("criterion-3 lambda-zero", res.passed, res.detail)


def test_criterion_4_covariance_merge():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 40))
        pool = rng.standard_normal((n, d)) * rng.uniform(0.2, 4.0)
        mu_ref = pool.mean(axis=0)
        centered = pool - mu_ref
        cov_ref = centered.T @ centered / n
        stats = ClassCovStats(1, d)
        start = 0
        while start < n:
            size = int(rng.integers(1, n - start + 1))
            update_cov_stats(stats, pool[start:start + size],
                             np.zeros(size, dtype=int))
            start += size
        worst = max(worst,
                    float(np.abs(stats.means[0] - mu_ref).max()),
                    float(np.abs(stats.covs[0] - cov_ref).max()))
    _report("criterion-4 covariance-merge", worst < 1e-10,
            f"max deviation from pooled moments {worst:.3e} over 1000 "
            f"random partitions (tol 1e-10)")


def _objective_case(rng):
    l, d_f = 3, 8
    params = init_classifier(4, (10, d_f), l, rng)
    stats = ClassCovStats(l, d_f)
    feats = params.eval_features(rng.standard_normal((30, 4)))
    update_cov_stats(stats, feats, rng.integers(0, l, size=30))
    frozen = snapshot_frozen(params)
    for p in params.parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    x_lab = rng.standard_normal((3, 4))
    y_lab = rng.integers(0, l, size=3)
    x_unl = rng.standard_normal((4, 4))
    xw = x_unl + 0.05 * rng.standard_normal((4, 4))
    xs = x_unl + 0.15 * rng.standard_normal((4, 4))
    truth = rng.integers(0, l, size=4)
    masks = generate_uss(truth, l, rng)
    tau = np.full(l, 0.5)
    sem = weak_cav_pseudo_labels(frozen, xw, masks)
    return params, frozen, stats, x_lab, y_lab, x_unl, xw, xs, masks, tau, sem


def _objective_value(params, frozen, stats, x_lab, y_lab, x_unl, xw, xs,
                     masks, tau, sem, gamma=0.7, lam=0.05) -> float:
    ls, _ = loss_sup_semantic(params, stats, x_lab, y_lab, lam)
    ru, _ = reg_consistency_semantic(params, frozen, stats, xw, xs, masks, lam, tau)
    lcl, _ = loss_complementary_semantic(params, stats, x_unl, masks, sem, lam)
    total, _ = assemble_batch(ls, ru, lcl, gamma, frozen.n_classes)
    return total


def test_criterion_5_gradient_integrity():
    rng = np.random.default_rng(5)
    case = _objective_case(rng)
    params = case[0]
    total = _objective_value(*case)
    analytic = gradients(total, params.parameters())

    arrays = [p.data.copy() for p in params.parameters()]

    def value_at(arrs) -> float:
        for p, a in zip(params.parameters(), arrs):
            p.data = a.copy()
        out = float(_objective_value(*case).data)
        for p, a in zip(params.parameters(), arrays):
            p.data = a.copy()
        return out

    h = 1e-5
    worst = 0.0
    for k in range(len(arrays)):
        numeric = np.zeros_like(arrays[k])
        it = np.nditer(arrays[k], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[k][idx] += h
            minus[k][idx] -= h
            numeric[idx] = (value_at(plus) - value_at(minus)) / (2 * h)
        scale = max(np.abs(numeric).max(), np.abs(analytic[k]).max(), 1e-8)
        worst = max(worst, float(np.abs(analytic[k] - numeric).max() / scale))
    _report("criterion-5 gradient-integrity", worst < 1e-4,
            f"max relative error vs central differences {worst:.3e} "
            f"(tol 1e-4, 3-class d_f=8 model, full objective)")


def test_criterion_6_generation_statistics():
    # uniform-subset uniformity at significance 0.01, l in {3, 4, 5}
    draws = 100_000
    worst_stat, worst_crit = 0.0, np.inf
    for l in (3, 4, 5):
        rng = np.random.default_rng(60 + l)
        masks = generate_uss(np.zeros(draws, dtype=int), l, rng)
        weights = 1 << np.arange(l - 1)
        keys = masks[:, 1:].astype(int) @ weights
        n_admissible = 2 ** (l - 1) - 1
        counts = np.bincount(keys, minlength=2 ** (l - 1))
        counts = counts[: 2 ** (l - 1) - 1]  # last key is the rejected full set
        expected = draws / n_admissible
        stat = float(np.sum((counts - expected) ** 2 / expected))
        crit = float(chi2.ppf(0.99, df=n_admissible - 1))
        assert counts.sum() == draws
        if stat / crit > worst_stat / max(worst_crit, 1e-9):
            worst_stat, worst_crit = stat, crit
        assert stat < crit, f"l={l}: chi2 {stat:.1f} >= {crit:.1f}"
    # flip-strategy inclusion frequencies within 3 SE of enumeration
    rng = np.random.default_rng(66)
    worst_z = 0.0
    for l, q in ((3, 0.3), (4, 0.5), (5, 0.7)):
        truth_label = 1
        masks = generate_fps(np.full(draws, truth_label), l, q, rng)
        inclusion, _ = fps_exact(l, q)
        irrelevant = [j for j in range(l) if j != truth_label]
        for pos, j in enumerate(irrelevant):
            p = inclusion[pos]
            se = np.sqrt(p * (1 - p) / draws)
            z = abs(masks[:, j].mean() - p) / se
            worst_z = max(worst_z, float(z))
    _report("criterion-6 generation-statistics", worst_z <= 3.0,
            f"uniform-subset chi2 worst {worst_stat:.1f} < crit {worst_crit:.1f} "
            f"(sig 0.01, l=3,4,5, 1e5 draws); flip inclusion worst |z| "
            f"{worst_z:.2f} <= 3 SE")


def test_criterion_8_schedules():
    t_max = 250
    ok = (schedule_gamma(0, t_max, 1.0) == 0.0
          and schedule_lambda(0, t_max, 0.01) == 0.0
          and schedule_gamma(t_max, t_max, 1.0) == 1.0
          and schedule_lambda(t_max, t_max, 0.01) == 0.01)
    tau0, floor = 0.75, 0.5
    rng = np.random.default_rng(8)
    in_range = True
    for _ in range(500):
        sigma = rng.integers(0, 100, size=4)
        tau = update_tau(sigma, tau0, floor)
        in_range &= bool(np.all(tau >= floor) and np.all(tau <= tau0))
    zero_case = bool(np.all(update_tau(np.zeros(4), tau0, floor) == tau0))
    _report("criterion-8 schedules", ok and in_range and zero_case,
            f"endpoints exact={ok}; tau within [{floor}, {tau0}] over 500 "
            f"random counts={in_range}; all-zero counts give tau0={zero_case}")


@pytest.fixture(scope="module")
def blob_benchmark(tmp_path_factory):
    """Frozen desk-scale benchmark: 2000 train / 500 test blobs, 4 classes,
    d=2, separation 2.75, flip strategy q=0.6, seed 1."""
    tmp = tmp_path_factory.mktemp("bench")
    data, test = str(tmp / "train.plsp"), str(tmp / "test.plsp")
    assert cli_main(["generate", "--out", data, "--test-out", test,
                     "--n", "2000", "--n-test", "500", "--classes", "4",
                     "--dim", "2", "--separation", "2.75",
                     "--strategy", "fps", "--q", "0.6", "--seed", "1"]) == 0
    return tmp, data, test


def _best_micro(metrics_path) -> float:
    records = [MetricsRecord.from_json_line(line)
               for line in open(metrics_path, encoding="utf-8")]
    return max(r.micro_f1 for r in records if not r.is_summary)


def test_criterion_7_desk_scale_vs_df_baseline(blob_benchmark):
    # Thresholds frozen from oracle runs over seeds x separations x lr: on
    # this geometry both methods train to within ~1 point of the bayes
    # ceiling, so the directional gap is real but small (+0.006..+0.010 at
    # the frozen settings). Asserted: strictly positive gap, >= 0.90 absolute.
    tmp, data, test = blob_benchmark
    start = time.perf_counter()
    plsp_metrics = str(tmp / "plsp.jsonl")
    assert cli_main(["train", "--data", data, "--test", test,
                     "--out", str(tmp / "plsp.plsw"),
                     "--metrics", plsp_metrics,
                     "--ss-epochs", "60", "--inner-iters", "50",
                     "--seed", "1"]) == 0
    df_metrics = str(tmp / "df.jsonl")
    assert cli_main(["df-baseline", "--data", data, "--test", test,
                     "--metrics", df_metrics,
                     "--ss-epochs", "60", "--inner-iters", "50",
                     "--seed", "1"]) == 0
    elapsed = time.perf_counter() - start
    plsp = _best_micro(plsp_metrics)
    df = _best_micro(df_metrics)
    _report("criterion-7 desk-scale",
            plsp >= 0.90 and plsp > df and elapsed < 300.0,
            f"plsp micro-F1 {plsp:.4f} (>= 0.90), df-baseline {df:.4f}, "
            f"gap {plsp - df:+.4f} (> 0 required); runtime {elapsed:.0f}s "
            f"(< 300s)")


def test_criterion_10_k_sensitivity(blob_benchmark):
    tmp, data, test = blob_benchmark
    out = str(tmp / "sweep.jsonl")
    n = 2000
    assert cli_main(["sweep-k", "--data", data, "--test", test,
                     "--ks", f"0,200,{n}", "--out", out,
                     "--ss-epochs", "60", "--inner-iters", "50",
                     "--seed", "1"]) == 0
    rows = {row["k"]: row for row in
            (json.loads(line) for line in open(out, encoding="utf-8"))}
    lo, mid, hi = rows[0], rows[200], rows[n]
    ok = (mid["best_micro_f1"] >= lo["best_micro_f1"]
          and mid["best_micro_f1"] >= hi["best_micro_f1"])
    _report("criterion-10 k-sensitivity", ok,
            f"interior k=200 micro-F1 {mid['best_micro_f1']:.4f} >= "
            f"k=0 endpoint {lo['best_micro_f1']:.4f} and k>=n endpoint "
            f"{hi['best_micro_f1']:.4f}; all runs completed")


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "train.plsp"
    assert cli_main(["generate", "--out", str(data), "--n", "300",
                     "--classes", "3", "--separation", "5.0",
                     "--strategy", "fps", "--q", "0.5", "--seed", "7"]) == 0
    payloads = []
    for run in range(2):
        metrics = tmp_path / f"metrics{run}.jsonl"
        ckpt = tmp_path / f"model{run}.plsw"
        assert cli_main(["train", "--data", str(data), "--out", str(ckpt),
                         "--metrics", str(metrics), "--seed", "7",
                         "--deterministic", "--pretrain-epochs", "2",
                         "--ss-epochs", "4", "--inner-iters", "10",
                         "--batch-labeled", "16", "--batch-unlabeled", "32",
                         "--k", "20", "--hidden-dims", "24,12"]) == 0
        payloads.append(metrics.read_bytes())
    same = payloads[0] == payloads[1]
    _report("criterion-9 determinism", same,
            f"two seeded deterministic runs produced byte-identical metrics "
            f"({len(payloads[0])} bytes)={same}")

import math

import numpy as np
import pytest
from refgraph import Ref, gradients, lift

from plsp.model import (ClassifierParams, extract_features, init_classifier,
                        snapshot_frozen)
from plsp.objective import (LOG_EPS, BatchLossReport, PseudoSplit, assemble_batch,
                            build_pseudo_split, cav_scores, loss_df,
                            loss_complementary_semantic, loss_sup_semantic,
                            masked_argmax, mc_oracle_reg,
                            reg_consistency_semantic, semantic_batch_loss,
                            shifted_log_probs, weak_cav_pseudo_labels)
from plsp.pldata import PLDataset, generate_uss
from plsp.semstats import ClassCovStats, probit_weak_probs, update_cov_stats
from plsp.tensorcore import Tensor, softmax


def _identity_model(head: np.ndarray) -> ClassifierParams:
    """No hidden layers: features are the raw inputs, logits = head @ x."""
    return ClassifierParams(layers=[], head=Tensor(head, requires_grad=True))


def _stats_with_cov(n_classes: int, cov: np.ndarray) -> ClassCovStats:
    stats = ClassCovStats(n_classes, cov.shape[0])
    for j in range(n_classes):
        stats.covs[j] = cov
        stats.counts[j] = 10
    return stats


def _random_setup(rng, l=3, d_f=6, input_dim=4, n_stats=40):
    params = init_classifier(input_dim, (8, d_f), l, rng)
    stats = ClassCovStats(l, d_f)
    feats = params.eval_features(rng.standard_normal((n_stats, input_dim)))
    update_cov_stats(stats, feats, rng.integers(0, l, size=n_stats))
    return params, stats


# -- disambiguation-free loss --------------------------------------------------

def _df_loss(logp: np.ndarray, mask: np.ndarray):
    """``loss_df`` on rows whose logits are ``logp``: an identity head with
    no hidden layer, so a normalized row's log-softmax is itself."""
    return loss_df(_identity_model(np.eye(logp.shape[1])), logp, mask)


def test_loss_df_hand_case():
    logp = np.log([[0.5, 0.25, 0.25]])
    mask = np.array([[True, True, False]])
    loss, clamped = _df_loss(logp, mask)
    assert abs(float(loss.data) - 1.039721) < 1e-6
    assert clamped == 0


def test_loss_df_uniform_gives_log_l():
    for l in (3, 5, 8):
        logp = np.log(np.full((4, l), 1.0 / l))
        mask = np.zeros((4, l), dtype=bool)
        mask[:, : l - 1] = True
        loss, _ = _df_loss(logp, mask)
        assert abs(float(loss.data) - math.log(l)) < 1e-12


def test_loss_df_singleton_is_cross_entropy():
    p = np.array([[0.2, 0.7, 0.1]])
    mask = np.array([[False, True, False]])
    loss, _ = _df_loss(np.log(p), mask)
    assert abs(float(loss.data) + math.log(0.7)) < 1e-12


def test_loss_df_clamps_and_reports():
    logp = np.array([[-50.0, -0.5]])
    mask = np.array([[True, True]])
    loss, clamped = _df_loss(logp, mask)
    assert clamped == 1
    assert np.isfinite(float(loss.data))
    assert float(loss.data) <= (-LOG_EPS - 0.5 * 0.0) / 2 + 1


def _loss_df_op_chain(params, x, candidates):
    """``loss_df`` as a chain of ops, as it was first written; the
    oracle for the one-node version."""
    candidates = np.asarray(candidates, dtype=bool)
    z = lift(extract_features(params, x)) @ lift(params.head).T
    log_probs = z - z.logsumexp(axis=1, keepdims=True)
    weights = candidates / candidates.sum(axis=1, keepdims=True)
    clamped = int(np.sum((log_probs.data < LOG_EPS) & candidates))
    safe = log_probs.maximum(LOG_EPS)
    return -(safe * weights).sum() / candidates.shape[0], clamped


@pytest.mark.parametrize("l", [3, 4, 10])
@pytest.mark.parametrize("hidden", [(), (7,), (9, 5)])
def test_loss_df_node_matches_op_chain_bitwise(l, hidden):
    rng = np.random.default_rng(10 * l + len(hidden))
    params = init_classifier(6, hidden, l, rng)
    n = 48
    x = rng.standard_normal((n, 6))
    x[:8] *= 300.0                      # saturated rows: some log p < LOG_EPS
    candidates = rng.random((n, l)) < 0.5
    candidates[np.arange(n), rng.integers(0, l, n)] = True
    candidates[-6:] = np.eye(l, dtype=bool)[rng.integers(0, l, 6)]  # singletons
    got, got_clamped = loss_df(params, x, candidates)
    ref, ref_clamped = _loss_df_op_chain(params, x, candidates)
    assert ref_clamped > 0
    assert got_clamped == ref_clamped
    assert np.array_equal(got.data, ref.data)
    got_grads = gradients(got, params.parameters())
    ref_grads = gradients(ref, params.parameters())
    for g, r in zip(got_grads, ref_grads):
        assert np.array_equal(g, r)


# -- activation-value scoring ----------------------------------------------------

def test_cav_hand_case():
    # v = z * |z - 1| applied verbatim: negative logits keep their sign
    v = cav_scores(np.array([0.2, 0.9, -0.5]))
    assert np.allclose(v, [0.16, 0.09, -0.75])


def test_cav_roots():
    assert np.allclose(cav_scores(np.array([0.0, 1.0])), [0.0, 0.0])


def test_cav_argmax_over_candidates():
    v = cav_scores(np.array([[0.2, 0.9, -0.5]]))
    assert masked_argmax(v, np.array([[True, True, False]]))[0] == 0


# -- pseudo split ------------------------------------------------------------------

def _split_dataset(rng, n=12, l=3):
    feats = rng.standard_normal((n, 2)).astype(np.float32)
    truth = rng.integers(0, l, size=n)
    cands = generate_uss(truth, l, rng)
    return PLDataset(features=feats, candidates=cands,
                     truth=truth.astype(np.uint32))


def _reference_split(z, candidates, k):
    n, l = candidates.shape
    v = z * np.abs(z - 1.0)
    pseudo = []
    for i in range(n):
        best, best_v = None, -np.inf
        for j in range(l):
            if candidates[i, j] and v[i, j] > best_v:
                best, best_v = j, v[i, j]
        pseudo.append(best)
    labeled = set()
    for j in range(l):
        members = sorted((i for i in range(n) if pseudo[i] == j),
                         key=lambda i: (-v[i, j], i))
        labeled.update(members[:k])
    lab = sorted(labeled)
    return lab, [pseudo[i] for i in lab], [i for i in range(n) if i not in labeled]


def _logits_of(ds, rng):
    return init_classifier(2, (4,), ds.l, rng).eval_logits(ds.flat_features())


def test_split_k0_is_all_unlabeled():
    rng = np.random.default_rng(0)
    ds = _split_dataset(rng)
    split = build_pseudo_split(_logits_of(ds, rng), ds.candidates, 0)
    assert split.n_labeled == 0
    assert split.n_unlabeled == ds.n
    split.check(ds.candidates, 0)


def test_split_k_ge_n_takes_everything():
    rng = np.random.default_rng(1)
    ds = _split_dataset(rng)
    split = build_pseudo_split(_logits_of(ds, rng), ds.candidates, ds.n + 5)
    assert split.n_labeled == ds.n
    assert split.n_unlabeled == 0
    split.check(ds.candidates, ds.n + 5)


def _random_split_cases(rng):
    """(logits, candidates, k): a small model's logits on random sets; then
    integer logits, whose activation scores tie often, also across the k
    boundary; then sets of no row."""
    for _ in range(25):
        l = int(rng.integers(3, 5))
        n = int(rng.integers(4, 21))
        feats = rng.standard_normal((n, 3)).astype(np.float32)
        cands = generate_uss(rng.integers(0, l, size=n), l, rng)
        logits = init_classifier(3, (5,), l, rng).eval_logits(feats)
        yield logits, cands, int(rng.integers(0, 6))
    for _ in range(40):
        l = int(rng.integers(3, 5))
        n = int(rng.integers(1, 21))
        cands = generate_uss(rng.integers(0, l, size=n), l, rng)
        logits = rng.integers(-2, 3, size=(n, l)).astype(np.float64)
        yield logits, cands, int(rng.integers(0, 6))
    for k in (0, 3):
        yield np.zeros((0, 3)), np.zeros((0, 3), dtype=bool), k


def test_split_matches_reference_on_random_datasets():
    boundary_ties = 0
    for z, cands, k in _random_split_cases(np.random.default_rng(2)):
        split = build_pseudo_split(z, cands, k)
        lab, lab_y, unl = _reference_split(z, cands, k)
        assert split.labeled_idx.tolist() == lab
        assert split.labeled_y.tolist() == lab_y
        assert split.unlabeled_idx.tolist() == unl
        split.check(cands, k)
        # a committed row whose score equals an uncommitted row's of its class
        v = cav_scores(z)
        scores = {(int(y), v[i, y]) for i, y in zip(split.labeled_idx, split.labeled_y)}
        pseudo = masked_argmax(v, cands)
        boundary_ties += any((int(pseudo[i]), v[i, pseudo[i]]) in scores
                             for i in split.unlabeled_idx)
    assert boundary_ties >= 5


def test_split_hand_case():
    # logits chosen so activation scores rank instance 2 above 0 for class 0
    cands = np.array([[True, True, False],
                      [True, True, False],
                      [True, False, True]])
    logits = np.array([[2.0, 0.5, 0.0],    # v0 = 2.0  -> class 0
                       [0.5, 3.0, 0.0],    # v1 = 6.0  -> class 1
                       [2.5, 0.0, 0.2],    # v0 = 3.75 -> class 0
                       [1.5, 0.9, 0.0],    # v0 = 0.75 -> class 0
                       [0.5, 2.0, 0.0],    # v1 = 2.0  -> class 1
                       [0.5, 0.0, 1.8]])   # v2 = 1.44 -> class 2
    split = build_pseudo_split(logits, np.vstack([cands, cands]), 1)
    assert split.labeled_idx.tolist() == [1, 2, 5]
    assert split.labeled_y.tolist() == [1, 0, 2]
    assert split.unlabeled_idx.tolist() == [0, 3, 4]


def test_split_check_rejects_a_broken_split():
    cands = np.array([[True, False, True], [False, True, True], [True, True, False]])
    PseudoSplit(np.array([0, 1]), np.array([0, 1]), np.array([2])).check(cands, 1)
    for lab, lab_y, unl, k, match in [
            ([0], [0], [2], 1, "partition"),           # row 1 in neither part
            ([0, 1], [0, 1], [1, 2], 1, "partition"),  # row 1 in both
            ([0, 1], [1, 1], [2], 2, "candidate"),     # 1 is no candidate of row 0
            ([0, 1], [2, 2], [2], 1, "exceeds k")]:
        split = PseudoSplit(np.array(lab), np.array(lab_y), np.array(unl))
        with pytest.raises(ValueError, match=match):
            split.check(cands, k)


# -- consistency gate ---------------------------------------------------------------

def test_reg_gate_hand_cases():
    # lam = 0 and zero covariances: the weak probabilities are the plain
    # probit map, so the test can read each row's confidence off it
    head = 3.0 * np.eye(3)
    params = _identity_model(head)
    frozen = snapshot_frozen(params)
    stats = ClassCovStats(3, 3)
    xw = np.array([[1.0, 0.0, 0.0],   # argmax 0 in {0, 2}, above tau: passes
                   [1.0, 0.0, 0.0],   # argmax 0 outside {1, 2}: fails
                   [0.0, 1.0, 0.0],   # argmax 1, confidence just below tau: fails
                   [0.0, 0.0, 1.0]])  # argmax 2, confidence exactly tau: passes
    mask = np.array([[True, False, True], [False, True, True],
                     [True, True, False], [False, True, True]])
    p = probit_weak_probs(head, xw, np.zeros((3, 3)), 0.0)
    assert p.argmax(axis=1).tolist() == [0, 0, 1, 2]
    tau = np.array([p[0, 0] - 0.1, np.nextafter(p[2, 1], 1.0), p[3, 2]])
    _, report = reg_consistency_semantic(params, frozen, stats, xw, xw, mask,
                                         0.0, tau)
    assert report.h_pass_rate == 0.5
    assert report.sigma_inc.tolist() == [1, 0, 1]


# -- semantic supervised loss ---------------------------------------------------------

def test_loss_sup_lambda_zero_is_cross_entropy():
    rng = np.random.default_rng(3)
    params, stats = _random_setup(rng)
    x = rng.standard_normal((6, 4))
    y = rng.integers(0, 3, size=6)
    loss, _ = loss_sup_semantic(params, stats, x, y, 0.0)
    logp = np.log(softmax(params.eval_logits(x), axis=1))
    ref = float(np.mean(-logp[np.arange(6), y]))
    assert abs(float(loss.data) - ref) < 1e-12


def test_loss_sup_confident_limit():
    head = np.array([[30.0, 0.0], [0.0, 30.0], [-30.0, -30.0]])
    params = _identity_model(head)
    stats = _stats_with_cov(3, np.zeros((2, 2)))
    loss, _ = loss_sup_semantic(params, stats, np.array([[1.0, 0.0]]),
                                np.array([0]), 0.0)
    assert float(loss.data) < 1e-9


def test_loss_sup_hand_case():
    params = _identity_model(np.array([[1.0, 0.0], [0.0, 0.0]]))
    stats = _stats_with_cov(2, np.eye(2))
    loss, _ = loss_sup_semantic(params, stats, np.array([[1.0, 0.0]]),
                                np.array([0]), 2.0)
    assert abs(float(loss.data) - 0.693147) < 1e-6


def test_loss_sup_empty_batch_is_zero():
    rng = np.random.default_rng(4)
    params, stats = _random_setup(rng)
    loss, _ = loss_sup_semantic(params, stats, np.zeros((0, 4)),
                                np.zeros(0, dtype=int), 0.05)
    assert float(loss.data) == 0.0


# -- complementary loss ------------------------------------------------------------------

def test_loss_complementary_hand_case():
    params = _identity_model(np.eye(3))
    stats = _stats_with_cov(3, np.zeros((3, 3)))
    x = np.log(np.array([[0.5, 0.3, 0.2]]))
    mask = np.array([[True, True, False]])
    loss, _ = loss_complementary_semantic(params, stats, x, mask,
                                          np.array([0]), 0.0)
    assert abs(float(loss.data) - 0.223144) < 1e-6


def test_loss_complementary_vanishing_noncandidate_mass():
    params = _identity_model(np.eye(3))
    stats = _stats_with_cov(3, np.zeros((3, 3)))
    x = np.array([[20.0, 20.0, -20.0]])
    mask = np.array([[True, True, False]])
    loss, _ = loss_complementary_semantic(params, stats, x, mask,
                                          np.array([0]), 0.0)
    assert float(loss.data) < 1e-9


def test_loss_complementary_lambda_zero_matches_plain():
    rng = np.random.default_rng(5)
    params, stats = _random_setup(rng)
    x = rng.standard_normal((5, 4))
    truth = rng.integers(0, 3, size=5)
    mask = generate_uss(truth, 3, rng)
    sem = rng.integers(0, 3, size=5)
    loss, _ = loss_complementary_semantic(params, stats, x, mask, sem, 0.0)
    probs = softmax(params.eval_logits(x), axis=1)
    ref = float(np.mean(np.sum(np.where(~mask, -np.log(1 - probs), 0.0), axis=1)))
    assert abs(float(loss.data) - ref) < 1e-12


# -- consistency regularizer -----------------------------------------------------------

def test_reg_h_zero_gives_zero_value_and_gradient():
    rng = np.random.default_rng(6)
    params, stats = _random_setup(rng)
    frozen = snapshot_frozen(params)
    xw = rng.standard_normal((4, 4))
    xs = rng.standard_normal((4, 4))
    truth = rng.integers(0, 3, size=4)
    mask = generate_uss(truth, 3, rng)
    tau = np.full(3, 1.0)  # unreachable threshold for a soft prediction
    reg, report = reg_consistency_semantic(params, frozen, stats, xw, xs,
                                           mask, 0.05, tau)
    assert float(reg.data) == 0.0
    assert report.h_pass_rate == 0.0
    assert report.sigma_inc.sum() == 0
    grads = gradients(reg, params.parameters())
    assert all(np.allclose(g, 0.0) for g in grads)


def test_reg_value_matches_direct_reference_lambda_zero():
    rng = np.random.default_rng(7)
    params, stats = _random_setup(rng)
    frozen = snapshot_frozen(params)
    for p in params.parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    b = 8
    xw = rng.standard_normal((b, 4))
    xs = xw + 0.1 * rng.standard_normal((b, 4))
    truth = rng.integers(0, 3, size=b)
    mask = generate_uss(truth, 3, rng)
    tau = np.full(3, 0.5)
    reg, report = reg_consistency_semantic(params, frozen, stats, xw, xs,
                                           mask, 0.0, tau)
    # direct reference: probit weak target at lam=0, plain softmax strong branch
    from plsp.semstats import probit_weak_probs
    sem = weak_cav_pseudo_labels(frozen, xw, mask)
    total = 0.0
    for i in range(b):
        pw = probit_weak_probs(frozen.head, frozen.features(xw[i][None])[0],
                               stats.cov(sem[i]), 0.0)
        jmax = pw.argmax()
        h = pw[jmax] >= tau[jmax] and mask[i, jmax]
        if not h:
            continue
        t = np.where(mask[i], pw, 0.0)
        t /= t.sum()
        ps = softmax(params.eval_logits(xs[i][None]), axis=1)[0]
        logp = np.maximum(np.log(ps), LOG_EPS)
        ent = np.sum(np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0))
        total += ent - t @ logp
    assert abs(float(reg.data) - total / b) < 1e-9
    assert report.h_pass_rate > 0


def test_reg_nonnegative_and_sigma_counts():
    rng = np.random.default_rng(8)
    params, stats = _random_setup(rng)
    frozen = snapshot_frozen(params)
    b = 16
    xw = rng.standard_normal((b, 4))
    xs = rng.standard_normal((b, 4))
    truth = rng.integers(0, 3, size=b)
    mask = generate_uss(truth, 3, rng)
    tau = np.full(3, 0.51)
    reg, report = reg_consistency_semantic(params, frozen, stats, xw, xs,
                                           mask, 0.02, tau)
    assert float(reg.data) >= -1e-12
    assert report.sigma_inc.sum() == round(report.h_pass_rate * b)


def test_reg_matches_mc_oracle():
    # The confidence gate is discontinuous, so the closed-form (gate on the
    # expected weak probabilities) and the oracle (gate per draw) can only be
    # compared on instances where the gate is unambiguous on both sides.
    rng = np.random.default_rng(9)
    params, stats = _random_setup(rng, d_f=6)
    frozen = snapshot_frozen(params)
    lam = 0.05
    tau = np.full(3, 0.45)
    checked = 0
    for trial in range(30):
        xw = rng.standard_normal(4) * 1.5
        xs = xw + 0.1 * rng.standard_normal(4)
        truth = int(rng.integers(0, 3))
        mask = generate_uss(np.array([truth]), 3, rng)[0]
        closed, rep = reg_consistency_semantic(
            params, frozen, stats, xw[None], xs[None], mask[None], lam, tau)
        est = mc_oracle_reg(params, frozen, stats, xw, xs, mask, lam, tau,
                            2000, rng)
        if rep.h_pass_rate == 1.0 and est.h_rate > 0.9:
            tol = 3 * est.se + 0.05 * max(abs(float(closed.data)),
                                          abs(est.value), 0.05)
            assert abs(float(closed.data) - est.value) <= tol
            checked += 1
        elif rep.h_pass_rate == 0.0 and est.h_rate < 0.1:
            assert float(closed.data) == 0.0
            assert est.value <= 3 * est.se + 0.1
    assert checked >= 5


# -- sampling oracle ----------------------------------------------------------------------

def test_mc_oracle_lambda_zero_deterministic():
    rng = np.random.default_rng(10)
    params, stats = _random_setup(rng)
    frozen = snapshot_frozen(params)
    xw = rng.standard_normal(4)
    xs = rng.standard_normal(4)
    truth = int(rng.integers(0, 3))
    mask = generate_uss(np.array([truth]), 3, rng)[0]
    tau = np.full(3, 0.5)
    est = mc_oracle_reg(params, frozen, stats, xw, xs, mask, 0.0, tau,
                        500, rng)
    assert est.se == 0.0
    # matches the no-transform consistency value computed directly
    pw = softmax(frozen.logits_of(xw[None]), axis=1)[0]
    jmax = pw.argmax()
    h = pw[jmax] >= tau[jmax] and mask[jmax]
    t = np.where(mask, pw, 0.0)
    t = t / t.sum() if t.sum() > 0 else None
    ps = softmax(params.eval_logits(xs[None]), axis=1)[0]
    logp = np.maximum(np.log(ps), LOG_EPS)
    ref = 0.0
    if h and t is not None:
        ent = np.sum(np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0))
        ref = ent - t @ logp
    assert abs(est.value - ref) < 1e-12
    est1 = mc_oracle_reg(params, frozen, stats, xw, xs, mask, 0.0, tau, 1, rng)
    assert abs(est1.value - ref) < 1e-12


def test_mc_oracle_strong_ce_bounded_by_closed_form():
    rng = np.random.default_rng(11)
    from plsp.semstats import probit_weak_probs, shifted_softmax_probs
    for trial in range(10):
        params, stats = _random_setup(rng)
        frozen = snapshot_frozen(params)
        xw = rng.standard_normal(4)
        xs = rng.standard_normal(4)
        truth = int(rng.integers(0, 3))
        mask = generate_uss(np.array([truth]), 3, rng)[0]
        lam = [0.01, 0.05, 0.1][trial % 3]
        tau = np.full(3, 0.75)
        est = mc_oracle_reg(params, frozen, stats, xw, xs, mask, lam, tau,
                            4000, rng)
        sem = int(weak_cav_pseudo_labels(frozen, xw[None], mask[None])[0])
        pw = probit_weak_probs(frozen.head, frozen.features(xw[None])[0],
                               stats.cov(sem), lam)
        t = np.where(mask, pw, 0.0)
        t /= t.sum()
        assert est.sem_label == sem
        assert np.array_equal(est.target, t)
        ps = shifted_softmax_probs(params.head.data,
                                   params.eval_features(xs[None])[0],
                                   stats.cov(sem), lam)
        closed_ce = float(-t @ np.maximum(np.log(ps), LOG_EPS))
        assert closed_ce >= est.strong_ce - 3 * est.strong_ce_se


# -- total objective ------------------------------------------------------------------------

def test_total_objective_gamma_zero():
    total, _ = assemble_batch(Tensor(0.5), Tensor(0.25), Tensor(0.1), 0.0, 3)
    assert float(total.data) == 0.1


def test_total_objective_hand_case():
    total, _ = assemble_batch(Tensor(0.5), Tensor(0.25), Tensor(0.1), 1.0, 3)
    assert abs(float(total.data) - 0.85) < 1e-12


def test_total_objective_linearity_in_gamma():
    ls, ru, lcl = Tensor(0.4), Tensor(0.3), Tensor(0.2)
    g = 0.37
    t1 = float(assemble_batch(ls, ru, lcl, g, 3)[0].data)
    t2 = float(assemble_batch(ls, ru, lcl, 2 * g, 3)[0].data)
    assert abs((t2 - t1) - g * (0.4 + 0.3)) < 1e-12


def test_total_objective_rejects_negative_gamma():
    with pytest.raises(ValueError):
        assemble_batch(Tensor(0.0), Tensor(0.0), Tensor(0.0), -1.0, 3)


def test_decomposition_reassembles():
    rng = np.random.default_rng(12)
    params, stats = _random_setup(rng)
    frozen = snapshot_frozen(params)
    b = 6
    x = rng.standard_normal((b, 4))
    xw = x + 0.05 * rng.standard_normal((b, 4))
    xs = x + 0.15 * rng.standard_normal((b, 4))
    truth = rng.integers(0, 3, size=b)
    mask = generate_uss(truth, 3, rng)
    y = truth
    gamma, lam = 0.7, 0.03
    tau = np.full(3, 0.6)
    ls, _ = loss_sup_semantic(params, stats, x, y, lam)
    sem = weak_cav_pseudo_labels(frozen, xw, mask)
    ru, rep = reg_consistency_semantic(params, frozen, stats, xw, xs, mask, lam, tau)
    lcl, _ = loss_complementary_semantic(params, stats, x, mask, sem, lam)
    total, _ = assemble_batch(ls, ru, lcl, gamma, 3)
    expect = gamma * (float(ls.data) + float(ru.data)) + float(lcl.data)
    assert abs(float(total.data) - expect) < 1e-12
    assert all(np.isfinite(v) for v in
               (float(ls.data), float(ru.data), float(lcl.data)))
    assert float(ls.data) >= 0 and float(ru.data) >= -1e-12 and float(lcl.data) >= 0


def test_a_row_with_no_candidate_is_rejected_by_name():
    """The consistency term renormalises over the candidate set, so an empty
    set has no target; both entry points refuse it and name the row."""
    rng = np.random.default_rng(14)
    params, stats = _random_setup(rng)
    x = rng.standard_normal((5, 4))
    mask = generate_uss(rng.integers(0, 3, size=5), 3, rng)
    mask[[2, 4]] = False
    tau = np.full(3, 0.6)
    with pytest.raises(ValueError, match="row 2 has no candidate"):
        reg_consistency_semantic(params, snapshot_frozen(params), stats, x, x,
                                 mask, 0.03, tau)
    with pytest.raises(ValueError, match="row 2 has no candidate"):
        semantic_batch_loss(params, stats, x[:0], np.zeros(0, np.int64), x, x, x,
                            mask, 0.03, tau, 0.7)


def test_assemble_batch_node_matches_op_chain_bitwise():
    values, gamma = (0.4, 0.3, 0.2), 0.37
    ls, ru, lcl = (Tensor(v, requires_grad=True) for v in values)
    total, _ = assemble_batch(ls, ru, lcl, gamma, 3)
    refs = [Ref(v, requires_grad=True) for v in values]
    chain = (refs[0] + refs[1]) * gamma + refs[2]
    assert np.array_equal(total.data, chain.data)
    for got, ref in zip(gradients(total, [ls, ru, lcl]), gradients(chain, refs)):
        assert np.array_equal(got, ref)
    # a constant term takes no gradient
    const = Tensor(0.3)
    total, _ = assemble_batch(ls, const, lcl, gamma, 3)
    total.backward()
    assert const.grad is None


def test_assemble_batch_report_fields():
    rep = BatchLossReport(loss_sup=0.0, reg_u=0.3, loss_cl=0.0, total=0.3,
                          sigma_inc=np.array([2, 0, 1]), h_pass_rate=0.5,
                          clamped=2)
    total, report = assemble_batch(Tensor(0.4), Tensor(0.3), Tensor(0.2),
                                   0.6, 3, rep, clamped=3)
    assert abs(report.total - (0.6 * (0.4 + 0.3) + 0.2)) < 1e-12
    assert abs(float(total.data) - report.total) < 1e-15
    assert report.sigma_inc.tolist() == [2, 0, 1]
    assert report.clamped == 5


def test_objective_gradient_ignores_frozen_mutation():
    rng = np.random.default_rng(13)
    params, stats = _random_setup(rng)
    frozen = snapshot_frozen(params)
    b = 4
    xw = rng.standard_normal((b, 4))
    xs = rng.standard_normal((b, 4))
    truth = rng.integers(0, 3, size=b)
    mask = generate_uss(truth, 3, rng)
    tau = np.full(3, 0.5)
    reg, _ = reg_consistency_semantic(params, frozen, stats, xw, xs, mask, 0.05, tau)
    value_before = float(reg.data)
    grads = [g.copy() for g in gradients(reg, params.parameters())]
    frozen.head += 50.0  # mutate the snapshot storage after the fact
    assert float(reg.data) == value_before
    reg2, _ = reg_consistency_semantic(params, snapshot_frozen(params), stats,
                                       xw, xs, mask, 0.05, tau)
    grads2 = gradients(reg2, params.parameters())
    for a, c in zip(grads, grads2):
        assert np.allclose(a, c)


def test_lambda_limit_converges_per_term():
    # each semantic term approaches its zero-strength counterpart as the
    # transformation strength vanishes
    rng = np.random.default_rng(15)
    params, stats = _random_setup(rng)
    frozen = snapshot_frozen(params)
    b = 5
    x = rng.standard_normal((b, 4))
    xw = x + 0.05 * rng.standard_normal((b, 4))
    xs = x + 0.15 * rng.standard_normal((b, 4))
    truth = rng.integers(0, 3, size=b)
    mask = generate_uss(truth, 3, rng)
    y = truth
    tau = np.full(3, 0.5)
    sem = weak_cav_pseudo_labels(frozen, xw, mask)
    tiny = 1e-12
    for loss_fn in (
        lambda lam: loss_sup_semantic(params, stats, x, y, lam)[0],
        lambda lam: loss_complementary_semantic(params, stats, x, mask, sem, lam)[0],
        lambda lam: reg_consistency_semantic(params, frozen, stats, xw, xs,
                                             mask, lam, tau)[0],
    ):
        at_zero = float(loss_fn(0.0).data)
        at_tiny = float(loss_fn(tiny).data)
        assert abs(at_tiny - at_zero) < 1e-9


def test_shifted_log_probs_tensor_matches_numpy_map():
    rng = np.random.default_rng(14)
    from plsp.semstats import shifted_softmax_probs
    params, stats = _random_setup(rng, d_f=5)
    x = rng.standard_normal((4, 4))
    feats = params.eval_features(x)
    for lam in (0.0, 0.03, 0.4):
        logp = shifted_log_probs(params, x, stats.cov(1), lam)
        for i in range(4):
            ref = shifted_softmax_probs(params.head.data, feats[i],
                                        stats.cov(1), lam)
            assert np.abs(np.exp(logp.data[i]) - ref).max() < 1e-12

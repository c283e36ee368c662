"""Metamorphic relations of the closed forms and the losses.

Relabelling the classes (one permutation applied to the head rows, the
covariance stack, the labels, the candidate columns and the gate
thresholds), reordering the rows within each block, and repeating every row
change only the order or the number of the terms summed. So the outputs
agree up to rounding:

* probabilities (``probit_weak_probs``, ``shifted_softmax_probs``): 1e-12
  relative to the largest entry;
* loss values: 1e-12 relative;
* gradients: 1e-10 relative to each array's largest entry, and for
  ``semantic_batch_loss`` that plus the complementary term's cancellation
  (``_step_grad_rtol``);
* split membership, gate counts and clamp counts: exactly.

``masked_argmax`` breaks ties toward the lowest index, and rounding can
reorder near-equal scores, so every draw is checked to keep each argmax,
gate decision and top-k ranking at least ``GAP`` clear of a tie.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from refgraph import gradients

from plsp.model import init_classifier
from plsp.objective import (build_pseudo_split, cav_scores, loss_df,
                            semantic_batch_loss)
from plsp.pldata import generate_uss
from plsp.semstats import (ClassCovStats, probit_weak_probs,
                           shifted_softmax_probs, update_cov_stats)

PROB_RTOL = 1e-12
VALUE_RTOL = 1e-12
GRAD_RTOL = 1e-10
GAP = 1e-9

CASES = settings(max_examples=20, deadline=None, database=None, derandomize=True)
seeds = st.integers(0, 2 ** 32 - 1)
class_counts = st.integers(3, 6)


def _rel(a, b) -> float:
    """Largest difference relative to the largest entry of either side."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-300)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def _top_gap(values: np.ndarray, mask: np.ndarray) -> float:
    """Smallest distance between a row's largest and second-largest entry
    under ``mask`` (inf for a row with one entry)."""
    top = np.sort(np.where(mask, values, -np.inf), axis=1)[:, -2:]
    return float(np.min(top[:, 1] - top[:, 0], initial=np.inf))


def _perm_and_inverse(rng: np.random.Generator, l: int):
    perm = rng.permutation(l)
    return perm, np.argsort(perm)


def _case(seed: int, l: int, n_lab: int = 7, n_unl: int = 11):
    """A model, populated per-class covariances and one step's inputs, with
    per-class gate thresholds, all from ``seed``."""
    rng = np.random.default_rng(seed)
    d_in, d_f = 4, 8
    params = init_classifier(d_in, (12, d_f), l, rng)
    # positive biases keep rows off all-zero features, whose logits all tie
    for _, b in params.layers:
        b.data += rng.uniform(1.0, 2.0, size=b.data.shape)
    stats = ClassCovStats(l, d_f)
    feats = params.eval_features(rng.standard_normal((20 * l, d_in)))
    update_cov_stats(stats, feats, rng.integers(0, l, size=20 * l))
    x_lab = rng.standard_normal((n_lab, d_in))
    y_lab = rng.integers(0, l, size=n_lab)
    x_unl = rng.standard_normal((n_unl, d_in))
    x_w = x_unl + 0.05 * rng.standard_normal((n_unl, d_in))
    x_s = x_unl + 0.15 * rng.standard_normal((n_unl, d_in))
    cands = generate_uss(rng.integers(0, l, size=n_unl), l, rng)
    tau = rng.uniform(1.0 / l, 2.0 / l, size=l)
    lam = float(rng.choice([0.01, 0.05, 0.5]))
    return params, stats, [x_lab, y_lab, x_unl, x_w, x_s, cands], lam, tau


def _relabel_params(params, perm):
    """The same model with class perm[j] renamed j."""
    params = params.clone()
    params.head.data = params.head.data[perm]
    return params


def _relabel_stats(stats, perm):
    relabelled = ClassCovStats(stats.n_classes, stats.feature_dim)
    relabelled.counts, relabelled.means, relabelled.covs = (
        stats.counts[perm], stats.means[perm], stats.covs[perm])
    return relabelled


def _step(params, stats, batch, lam, tau):
    total, report = semantic_batch_loss(params, stats, *batch, lam, tau, 0.7)
    return float(total.data), gradients(total, params.parameters()), report


def _df(params, x, cands):
    loss, clamped = loss_df(params, x, cands)
    return float(loss.data), gradients(loss, params.parameters()), clamped


def _check_step_is_tie_free(params, stats, batch, lam, tau):
    """The weak branch's semantic labels, its probit argmax and its gate all
    sit at least GAP from a tie, so rounding cannot flip them."""
    *_, x_w, _, cands = batch
    feats = params.eval_features(x_w)
    scores = cav_scores(feats @ params.head.data.T)
    assert _top_gap(scores, cands) > GAP
    sem = np.where(cands, scores, -np.inf).argmax(axis=1)
    p_weak = probit_weak_probs(params.head.data, feats, stats.covs, lam, classes=sem)
    assert _top_gap(p_weak, np.ones_like(cands)) > GAP
    jmax = p_weak.argmax(axis=1)
    assert np.abs(p_weak[np.arange(len(jmax)), jmax] - tau[jmax]).min() > GAP


def _step_grad_rtol(params, batch) -> float:
    """GRAD_RTOL plus the complementary term's cancellation. The kernel forms
    log(1 - p) from 1 - exp(log p), so its gradient carries the rounding of
    log p, about eps * max|z|, times p / (1 - p) at a non-candidate label.
    Plain-softmax probabilities bound the shifted ones from above; 1 - p is
    summed from the other labels, so it has no cancellation itself."""
    x_unl, cands = batch[2], batch[5]
    z = params.eval_logits(x_unl)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    others = e @ (1.0 - np.eye(z.shape[1]))              # (1 - p) * sum(e)
    amplification = np.where(cands, 0.0, e / others).max(initial=0.0)
    return GRAD_RTOL + np.finfo(float).eps * np.abs(z).max() * amplification


def _assert_close(got, want, head_perm=None, grad_rtol=GRAD_RTOL):
    """Values to VALUE_RTOL and gradients to ``grad_rtol``; ``head_perm``
    reorders the reference's head-gradient rows."""
    (value, grads), (ref_value, ref_grads) = got, want
    assert _rel(value, ref_value) <= VALUE_RTOL
    if head_perm is not None:
        ref_grads = [*ref_grads[:-1], ref_grads[-1][head_perm]]
    for g, ref in zip(grads, ref_grads, strict=True):
        assert _rel(g, ref) <= grad_rtol


def _assert_same_step(got, want, sigma_inc, clamped, grad_rtol, head_perm=None):
    """Two steps' values and gradients agree, both reports' term values and
    pass rates too, and ``got``'s counts are the ones given."""
    (report, ref_report) = got[2], want[2]
    _assert_close(got[:2], want[:2], head_perm, grad_rtol)
    for name in ("loss_sup", "reg_u", "loss_cl"):
        assert _rel(getattr(report, name), getattr(ref_report, name)) <= VALUE_RTOL
    assert report.h_pass_rate == ref_report.h_pass_rate
    assert np.array_equal(report.sigma_inc, sigma_inc)
    assert report.clamped == clamped


# -- relabelling the classes ----------------------------------------------------

@CASES
@given(seeds, class_counts)
def test_probit_is_equivariant_under_relabelling(seed, l):
    params, stats, batch, lam, _ = _case(seed, l)
    rng = np.random.default_rng([seed, 1])
    perm, inv = _perm_and_inverse(rng, l)
    head, feats = params.head.data, params.eval_features(batch[2])
    classes = rng.integers(0, l, size=len(feats))
    want = probit_weak_probs(head, feats, stats.covs, lam, classes=classes)[:, perm]
    got = probit_weak_probs(head[perm], feats, stats.covs[perm], lam, classes=inv[classes])
    assert _rel(got, want) <= PROB_RTOL
    want = probit_weak_probs(head, feats, stats.covs[0], lam)[:, perm]
    assert _rel(probit_weak_probs(head[perm], feats, stats.covs[0], lam), want) <= PROB_RTOL


@CASES
@given(seeds, class_counts)
def test_shifted_softmax_is_equivariant_under_relabelling(seed, l):
    params, stats, batch, lam, _ = _case(seed, l)
    perm, _ = _perm_and_inverse(np.random.default_rng([seed, 1]), l)
    head = params.head.data
    for feat in params.eval_features(batch[2]):
        want = shifted_softmax_probs(head, feat, stats.covs[0], lam)[perm]
        assert _rel(shifted_softmax_probs(head[perm], feat, stats.covs[0], lam),
                    want) <= PROB_RTOL


@CASES
@given(seeds, class_counts)
def test_loss_df_is_invariant_under_relabelling(seed, l):
    params, _, batch, _, _ = _case(seed, l)
    x, cands = batch[2], batch[5]
    perm, _ = _perm_and_inverse(np.random.default_rng([seed, 1]), l)
    value, grads, clamped = _df(params, x, cands)
    got_value, got_grads, got_clamped = _df(_relabel_params(params, perm), x, cands[:, perm])
    _assert_close((got_value, got_grads), (value, grads), head_perm=perm)
    assert got_clamped == clamped


@CASES
@given(seeds, class_counts)
def test_pseudo_split_is_invariant_under_relabelling(seed, l):
    params, _, batch, _, _ = _case(seed, l, n_unl=30)
    perm, inv = _perm_and_inverse(np.random.default_rng([seed, 1]), l)
    cands = batch[5]
    x = batch[2].astype(np.float32)
    logits = params.eval_logits(x)
    scores = cav_scores(logits)
    assert _top_gap(scores, cands) > GAP
    pseudo = np.where(cands, scores, -np.inf).argmax(axis=1)
    for j in range(l):  # the top-k ranking within each class has no tie
        assert np.diff(np.sort(scores[pseudo == j, j])).min(initial=np.inf) > GAP
    split = build_pseudo_split(logits, cands, k=3)
    got = build_pseudo_split(_relabel_params(params, perm).eval_logits(x),
                             cands[:, perm], k=3)
    assert np.array_equal(got.labeled_idx, split.labeled_idx)
    assert np.array_equal(got.labeled_y, inv[split.labeled_y])
    assert np.array_equal(got.unlabeled_idx, split.unlabeled_idx)


@CASES
@given(seeds, class_counts)
def test_semantic_batch_loss_is_invariant_under_relabelling(seed, l):
    params, stats, batch, lam, tau = _case(seed, l)
    _check_step_is_tie_free(params, stats, batch, lam, tau)
    perm, inv = _perm_and_inverse(np.random.default_rng([seed, 1]), l)
    want = _step(params, stats, batch, lam, tau)
    x_lab, y_lab, x_unl, x_w, x_s, cands = batch
    got = _step(_relabel_params(params, perm), _relabel_stats(stats, perm),
                [x_lab, inv[y_lab], x_unl, x_w, x_s, cands[:, perm]], lam, tau[perm])
    _assert_same_step(got, want, want[2].sigma_inc[perm], want[2].clamped,
                      _step_grad_rtol(params, batch), head_perm=perm)


# -- reordering and repeating rows ------------------------------------------------

@CASES
@given(seeds, class_counts)
def test_row_order_within_each_block_changes_nothing(seed, l):
    params, stats, batch, lam, tau = _case(seed, l)
    _check_step_is_tie_free(params, stats, batch, lam, tau)
    rng = np.random.default_rng([seed, 2])
    lab, unl = rng.permutation(len(batch[0])), rng.permutation(len(batch[2]))
    x_lab, y_lab, x_unl, x_w, x_s, cands = batch
    shuffled = [x_lab[lab], y_lab[lab], x_unl[unl], x_w[unl], x_s[unl], cands[unl]]
    want = _step(params, stats, batch, lam, tau)
    got = _step(params, stats, shuffled, lam, tau)
    _assert_same_step(got, want, want[2].sigma_inc, want[2].clamped,
                      _step_grad_rtol(params, batch))
    value, grads, clamped = _df(params, x_unl, cands)
    got_value, got_grads, got_clamped = _df(params, x_unl[unl], cands[unl])
    _assert_close((got_value, got_grads), (value, grads))
    assert got_clamped == clamped


@CASES
@given(seeds, class_counts)
def test_repeating_every_row_changes_nothing(seed, l):
    params, stats, batch, lam, tau = _case(seed, l)
    _check_step_is_tie_free(params, stats, batch, lam, tau)
    doubled = [np.repeat(part, 2, axis=0) for part in batch]
    want = _step(params, stats, batch, lam, tau)
    got = _step(params, stats, doubled, lam, tau)
    _assert_same_step(got, want, 2 * want[2].sigma_inc, 2 * want[2].clamped,
                      _step_grad_rtol(params, batch))
    x_unl, cands = batch[2], batch[5]
    value, grads, clamped = _df(params, x_unl, cands)
    got_value, got_grads, got_clamped = _df(params, doubled[2], doubled[5])
    _assert_close((got_value, got_grads), (value, grads))
    assert got_clamped == 2 * clamped

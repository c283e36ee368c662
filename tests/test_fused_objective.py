"""The one-forward semantic objective against a per-class reference.

The reference below regroups each batch by class and runs one forward and
one quadratic form per group, as the objective was first written. It lives
here only as an oracle: the library computes every term from one stacked
forward with per-row covariance selection.
"""

import gc
import weakref

import numpy as np
import pytest
from refgraph import Ref, gradients, lift

from plsp import objective
from plsp.model import extract_features, init_classifier, snapshot_frozen
from plsp.objective import (LOG_EPS, assemble_batch, loss_df, semantic_batch_loss,
                            weak_cav_pseudo_labels)
from plsp.pldata import generate_fps, generate_uss, make_blobs
from plsp.semstats import ClassCovStats, probit_weak_probs, update_cov_stats
from plsp.tensorcore import Tensor, node
from plsp.trainer import TrainConfig, new_classifier, train_df_baseline, train_ss


# -- per-class reference -------------------------------------------------------

def _ref_quadratic_form(head, cov):
    hc = head @ Ref(cov)
    s = hc @ head.T
    d = (head * hc).sum(axis=1, keepdims=True)
    return d + d.T - s - s.T


def _ref_shifted_log_probs(head, feats, cov, lam):
    z = feats @ head.T
    shift = _ref_quadratic_form(head, cov) * (0.5 * lam)
    m = z.data.max(axis=1, keepdims=True)
    kappa = float(shift.data.max())
    den = ((z - m).exp() @ (shift - kappa).exp()).log() + (m + kappa)
    return z - den


def _ref_sum(pieces):
    total = pieces[0]
    for piece in pieces[1:]:
        total = total + piece
    return total


def _ref_loss_sup(params, stats, x, y, lam):
    if len(y) == 0:
        return Ref(0.0), 0
    l = params.n_classes
    pieces, clamped = [], 0
    for cls in np.unique(y):
        grp = np.flatnonzero(y == cls)
        z = lift(extract_features(params, x[grp])) @ lift(params.head).T
        col = np.zeros((l, 1))
        col[cls, 0] = 1.0
        quad = _ref_quadratic_form(lift(params.head), stats.cov(cls))
        shift_col = ((quad @ Ref(col)) * (0.5 * lam)).reshape(l)
        onehot = np.zeros((grp.size, l))
        onehot[:, cls] = 1.0
        log_p = (z * onehot).sum(axis=1) - (z + shift_col).logsumexp(axis=1)
        clamped += int(np.sum(log_p.data < LOG_EPS))
        pieces.append(-(log_p.maximum(LOG_EPS)).sum())
    return _ref_sum(pieces) / len(y), clamped


def _ref_reg(params, frozen, stats, x_weak, x_strong, candidates, lam, tau, sem):
    batch, l = len(x_strong), frozen.n_classes
    feats_weak = frozen.features(x_weak)
    p_weak = np.zeros((batch, l))
    for cls in np.unique(sem):
        grp = np.flatnonzero(sem == cls)
        p_weak[grp] = probit_weak_probs(frozen.head, feats_weak[grp],
                                        stats.cov(cls), lam)
    rows = np.arange(batch)
    jmax = p_weak.argmax(axis=1)
    h = (p_weak[rows, jmax] >= tau[jmax]) & candidates[rows, jmax]
    masked = np.where(candidates, p_weak, 0.0)
    mass = masked.sum(axis=1)
    valid = mass > 0.0
    targets = np.zeros_like(masked)
    targets[valid] = masked[valid] / mass[valid, None]
    weights = targets * (h & valid)[:, None]
    entropy = np.sum(np.where(weights > 0, weights * np.log(
        targets, out=np.zeros_like(targets), where=targets > 0), 0.0))
    pieces, clamped = [], 0
    for cls in np.unique(sem):
        grp = np.flatnonzero(sem == cls)
        if not np.any(weights[grp]):
            continue
        log_ps = _ref_shifted_log_probs(
            lift(params.head), lift(extract_features(params, x_strong[grp])),
            stats.cov(cls), lam)
        w = weights[grp]
        clamped += int(np.sum((log_ps.data < LOG_EPS) & (w > 0)))
        pieces.append((log_ps.maximum(LOG_EPS) * w).sum())
    value = (Ref(entropy) - _ref_sum(pieces)) / batch if pieces else Ref(0.0)
    report = objective.BatchLossReport(
        loss_sup=0.0, reg_u=float(value.data), loss_cl=0.0, total=float(value.data),
        sigma_inc=np.bincount(sem[h], minlength=l).astype(np.int64),
        h_pass_rate=float(h.mean()), clamped=clamped)
    return value, report


def _ref_loss_cl(params, stats, x, candidates, sem, lam):
    non_candidates = (~candidates).astype(np.float64)
    pieces, clamped = [], 0
    for cls in np.unique(sem):
        grp = np.flatnonzero(sem == cls)
        log_ps = _ref_shifted_log_probs(
            lift(params.head), lift(extract_features(params, x[grp])),
            stats.cov(cls), lam)
        one_minus = 1.0 - log_ps.exp()
        mask = non_candidates[grp]
        clamped += int(np.sum((one_minus.data < 1e-12) & (mask > 0)))
        pieces.append(-(one_minus.maximum(1e-12).log() * mask).sum())
    return _ref_sum(pieces) / len(x), clamped


def _ref_step(params, frozen, stats, x_lab, y_lab, x_unl, x_w, x_s, cands,
              lam, tau, gamma):
    loss_sup, sup_clamped = _ref_loss_sup(params, stats, x_lab, y_lab, lam)
    consistency = None
    if len(x_unl):
        sem = weak_cav_pseudo_labels(frozen, x_w, cands)
        reg, consistency = _ref_reg(params, frozen, stats, x_w, x_s, cands,
                                    lam, tau, sem)
        loss_cl, cl_clamped = _ref_loss_cl(params, stats, x_unl, cands, sem, lam)
    else:
        reg, loss_cl, cl_clamped = Ref(0.0), Ref(0.0), 0
    return assemble_batch(loss_sup, reg, loss_cl, gamma, params.n_classes,
                          consistency, clamped=sup_clamped + cl_clamped)


# -- equivalence on fixed batches ------------------------------------------------

def _batch(l, n_lab, n_unl, seed, present=None, tau=None, head_scale=1.0,
           nudge=0.05):
    """A live model nudged off its frozen snapshot by ``nudge`` gaussian
    noise, populated covariances and one step's inputs; ``present``
    restricts the classes the batch uses."""
    rng = np.random.default_rng(seed)
    d_in, d_f = 4, 8
    params = init_classifier(d_in, (12, d_f), l, rng)
    params.head.data *= head_scale
    stats = ClassCovStats(l, d_f)
    feats = params.eval_features(rng.standard_normal((20 * l, d_in)))
    update_cov_stats(stats, feats, rng.integers(0, l, size=20 * l))
    frozen = snapshot_frozen(params)
    for p in params.parameters():
        p.data += nudge * rng.standard_normal(p.data.shape)
    classes = np.arange(l) if present is None else np.asarray(present)
    x_lab = rng.standard_normal((n_lab, d_in))
    y_lab = rng.choice(classes, size=n_lab)
    x_unl = rng.standard_normal((n_unl, d_in))
    x_w = x_unl + 0.05 * rng.standard_normal((n_unl, d_in))
    x_s = x_unl + 0.15 * rng.standard_normal((n_unl, d_in))
    truth = rng.choice(classes, size=n_unl)
    cands = generate_uss(truth, l, rng) if n_unl else np.zeros((0, l), bool)
    if present is not None:
        cands[:, np.setdiff1d(np.arange(l), classes)] = False
        cands[np.arange(n_unl), truth] = True
    tau = np.full(l, 1.5 / l if tau is None else tau)
    return (params, frozen, stats, x_lab, y_lab, x_unl, x_w, x_s, cands,
            0.05, tau, 0.7)


CASES = {
    "full": dict(n_lab=6, n_unl=9),
    "empty-labeled": dict(n_lab=0, n_unl=9),
    "empty-unlabeled": dict(n_lab=6, n_unl=0),
    "class-absent": dict(n_lab=6, n_unl=9, present=[0, 2]),
    "gate-all-zero": dict(n_lab=6, n_unl=9, tau=1.0),
    "saturated": dict(n_lab=6, n_unl=9, head_scale=60.0),
}


def _rel(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-300)
    return float(np.abs(a - b).max(initial=0.0) / scale)


@pytest.mark.parametrize("l", [3, 4, 10])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_step_matches_per_class_reference(l, case):
    # the step's weak branch reads the live weights, so the reference's
    # frozen side is a snapshot of them; the model is not nudged, so the
    # weak side sees the same weights as the per-term test's frozen copy
    params, _, *rest = _batch(l, seed=100 + l, nudge=0.0, **CASES[case])
    ref_total, ref = _ref_step(params, snapshot_frozen(params), *rest)
    ref_grads = [g.copy() for g in gradients(ref_total, params.parameters())]
    total, got = semantic_batch_loss(params, *rest)
    grads = gradients(total, params.parameters())

    assert _rel(float(total.data), float(ref_total.data)) <= 1e-12
    for g, r in zip(grads, ref_grads):
        assert _rel(g, r) <= 1e-12
    for name in ("loss_sup", "reg_u", "loss_cl", "total"):
        assert _rel(getattr(got, name), getattr(ref, name)) <= 1e-12, name
    assert got.clamped == ref.clamped
    assert got.h_pass_rate == ref.h_pass_rate
    assert got.sigma_inc.tolist() == ref.sigma_inc.tolist()
    if case == "saturated":
        assert got.clamped > 0
    if case == "gate-all-zero":
        assert got.h_pass_rate == 0.0 and got.reg_u == 0.0
    elif case in ("full", "empty-labeled", "saturated"):
        assert got.h_pass_rate > 0.0


@pytest.mark.parametrize("l", [3, 4, 10])
def test_per_term_functions_match_reference(l):
    (params, frozen, stats, x_lab, y_lab, x_unl, x_w, x_s, cands, lam, tau,
     _gamma) = _batch(l, 6, 9, seed=200 + l)
    sem = weak_cav_pseudo_labels(frozen, x_w, cands)
    pairs = [
        (objective.loss_sup_semantic(params, stats, x_lab, y_lab, lam),
         _ref_loss_sup(params, stats, x_lab, y_lab, lam)),
        (objective.loss_complementary_semantic(params, stats, x_unl, cands, sem, lam),
         _ref_loss_cl(params, stats, x_unl, cands, sem, lam)),
    ]
    reg, rep = objective.reg_consistency_semantic(params, frozen, stats, x_w, x_s,
                                                  cands, lam, tau)
    ref_reg, ref_rep = _ref_reg(params, frozen, stats, x_w, x_s, cands, lam,
                                tau, sem)
    pairs.append(((reg, rep.clamped), (ref_reg, ref_rep.clamped)))
    assert rep.sigma_inc.tolist() == ref_rep.sigma_inc.tolist()
    assert rep.reg_u == rep.total == float(reg.data)
    assert rep.loss_sup == rep.loss_cl == 0.0
    for (loss, clamped), (ref_loss, ref_clamped) in pairs:
        assert clamped == ref_clamped
        assert _rel(float(loss.data), float(ref_loss.data)) <= 1e-12
        grads = gradients(loss, params.parameters())
        grads = [g.copy() for g in grads]
        for g, r in zip(grads, gradients(ref_loss, params.parameters())):
            assert _rel(g, r) <= 1e-12


@pytest.mark.parametrize("l", [3, 10])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_step_forwards_only_open_gate_strong_rows(monkeypatch, l, case):
    params, _, stats, x_lab, y_lab, x_unl, x_w, x_s, *rest = _batch(
        l, seed=100 + l, **CASES[case])
    seen = []
    forward = objective.extract_features

    def recording_forward(params, x):
        seen.append(np.array(x))
        return forward(params, x)

    monkeypatch.setattr(objective, "extract_features", recording_forward)
    _, report = semantic_batch_loss(params, stats, x_lab, y_lab, x_unl, x_w,
                                    x_s, *rest)
    assert len(seen) == 1
    rows = seen[0]
    n_lab, n_unl = len(x_lab), len(x_unl)
    n_open = int(report.sigma_inc.sum())   # one count per open-gate row
    assert n_open == round(report.h_pass_rate * n_unl)
    assert len(rows) == n_lab + n_unl + n_open
    assert np.array_equal(rows[:n_lab + n_unl], np.concatenate([x_lab, x_unl]))
    strong = rows[n_lab + n_unl:]
    # the kept strong rows are rows of x_s, in their order
    kept = [int(np.flatnonzero((x_s == r).all(axis=1))[0]) for r in strong]
    assert kept == sorted(set(kept))
    if case == "gate-all-zero":
        assert len(strong) == 0


def test_non_finite_strong_row_reaches_the_total_only_through_an_open_gate():
    (params, _, stats, x_lab, y_lab, x_unl, x_w, x_s, cands, lam, tau,
     gamma) = _batch(4, 6, 9, seed=100)
    _, gate, _, _, _ = objective._weak_branch(
        params.eval_features(x_w), params.head.data, stats, cands, lam, tau)
    assert gate.any() and not gate.all()
    for row, finite in ((np.flatnonzero(~gate)[0], True),
                        (np.flatnonzero(gate)[0], False)):
        bad = x_s.copy()
        bad[row, 0] = np.nan
        total, _ = semantic_batch_loss(params, stats, x_lab, y_lab, x_unl, x_w,
                                       bad, cands, lam, tau, gamma)
        assert np.isfinite(float(total.data)) == finite
        grads = gradients(total, params.parameters())
        assert all(np.all(np.isfinite(g)) for g in grads) == finite


def test_reference_matches_the_step_on_a_non_finite_closed_gate_row():
    """``reg_consistency_semantic`` under a snapshot of the live weights
    leaves out the closed-gate strong rows as the step does, so a NaN in one
    of them reaches neither its value nor its gradients."""
    (params, _, stats, x_lab, y_lab, x_unl, x_w, x_s, cands, lam, tau,
     gamma) = _batch(4, 6, 9, seed=100)
    _, gate, _, _, _ = objective._weak_branch(
        params.eval_features(x_w), params.head.data, stats, cands, lam, tau)
    bad = x_s.copy()
    bad[np.flatnonzero(~gate)[0], 0] = np.nan
    _, step = semantic_batch_loss(params, stats, x_lab, y_lab, x_unl, x_w, bad,
                                  cands, lam, tau, gamma)
    reg, report = objective.reg_consistency_semantic(
        params, snapshot_frozen(params), stats, x_w, bad, cands, lam, tau)
    assert np.isfinite(report.reg_u)
    assert all(np.all(np.isfinite(g)) for g in gradients(reg, params.parameters()))
    assert _rel(report.reg_u, step.reg_u) <= 1e-12


def test_fused_step_raises_on_non_finite_weights():
    params, _, *rest = _batch(4, 6, 9, seed=300)
    params.head.data[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite logits"):
        semantic_batch_loss(params, *rest)


# -- the objective node against its op chain --------------------------------------

def _ref_kernel(params, stats, lam, x, classes, sup_w, reg_w, cl_w,
                reg_entropy, gamma):
    """The objective tail as the chain of ops it was first written as, after
    the shifted log-softmax node. Returns the total and the clamp counts
    below LOG_EPS and of 1 - p below 1e-12."""
    feats = extract_features(params, x)
    log_p, vjp = objective._shifted_log_softmax(feats, params.head, stats.covs,
                                                classes, lam)
    log_ps = lift(node(log_p, (feats, params.head), vjp))
    safe = log_ps.maximum(LOG_EPS)
    one_minus = 1.0 - log_ps.exp()
    log_rest = one_minus.maximum(1e-12).log()
    total = (safe * Ref(-gamma * (sup_w + reg_w))
             + log_rest * Ref(-cl_w)).sum() + gamma * reg_entropy
    low = int(np.sum((log_ps.data < LOG_EPS) & ((sup_w > 0) | (reg_w > 0))))
    high = int(np.sum((one_minus.data < 1e-12) & (cl_w > 0)))
    return total, low, high


def _kernel_inputs(l, lam, head_scale, seed):
    """Rows of every class, with every (row, class) weighted by all three
    terms so that each clamp can engage."""
    params, _, stats, *_ = _batch(l, 6, 9, seed=seed, head_scale=head_scale)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((12, 4))
    classes = rng.integers(0, l, size=12)
    sup_w, reg_w, cl_w = (rng.uniform(0.0, 0.2, size=(12, l)) for _ in range(3))
    return params, stats, lam, x, classes, sup_w, reg_w, cl_w, 0.3, 0.7


@pytest.mark.parametrize("l", [3, 10])
@pytest.mark.parametrize("lam", [0.0, 0.05])
@pytest.mark.parametrize("head_scale", [1.0, 25.0])
def test_objective_node_matches_tensor_chain(l, lam, head_scale):
    args = _kernel_inputs(l, lam, head_scale, seed=400 + l)
    params, stats, lam, x, classes, sup_w, reg_w, cl_w, entropy, gamma = args
    ref, low, high = _ref_kernel(*args)
    ref_grads = [g.copy() for g in gradients(ref, params.parameters())]
    total, _, clamped = objective._objective_kernel(
        params, stats, lam, [x], classes, sup_w, reg_w, cl_w, entropy, gamma)
    grads = gradients(total, params.parameters())
    assert _rel(float(total.data), float(ref.data)) <= 1e-12
    for g, r in zip(grads, ref_grads):
        assert _rel(g, r) <= 1e-12
    assert clamped == low + high
    if head_scale > 1.0:
        # at lam = 0 no shift pulls the top class down, so both clamps engage
        assert low > 0 and (lam > 0.0 or high > 0)


def test_objective_node_propagates_nan():
    params, stats, lam, x, *rest = _kernel_inputs(4, 0.05, 1.0, seed=404)
    x[2, 0] = np.nan
    total, values, _ = objective._objective_kernel(params, stats, lam, [x], *rest)
    # every term weights the NaN row, so none may mask it to a clamp value
    assert not np.isfinite(float(total.data))
    assert not np.any(np.isfinite(values))
    grads = gradients(total, params.parameters())
    assert not all(np.all(np.isfinite(g)) for g in grads)


# -- graph-size guard ---------------------------------------------------------------

def _count_nodes(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _graph_sizes(monkeypatch, l, run):
    """Node count of every backward graph in ``run(ds, params, config)`` and
    ``extract_features`` calls per backward."""
    rng = np.random.default_rng(l)
    ds = make_blobs(30 * l, l, 2, 5.0, rng)
    ds.candidates = generate_fps(ds.truth, l, 0.4, rng)
    config = TrainConfig(pretrain_epochs=0, ss_epochs=2, inner_iters=3,
                         batch_labeled=8, batch_unlabeled=16, k=5,
                         hidden_dims=(12, 6), seed=1)
    nodes, forwards = [], []
    backward = Tensor.backward
    forward = objective.extract_features

    def counting_backward(self):
        nodes.append(_count_nodes(self))
        backward(self)

    def counting_forward(*args, **kwargs):
        forwards.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(Tensor, "backward", counting_backward)
    monkeypatch.setattr(objective, "extract_features", counting_forward)
    run(ds, new_classifier(ds, config), config)
    steps = config.ss_epochs * config.inner_iters
    assert len(nodes) == steps
    assert len(forwards) == steps
    return set(nodes)


def _step_graph_sizes(monkeypatch, l):
    return _graph_sizes(monkeypatch, l, train_ss)


def _df_step_graph_sizes(monkeypatch, l):
    return _graph_sizes(monkeypatch, l, lambda ds, params, config:
                        train_df_baseline(ds, params, config, config.ss_epochs))


def test_step_graph_is_small_and_independent_of_class_count(monkeypatch):
    four = _step_graph_sizes(monkeypatch, 4)
    ten = _step_graph_sizes(monkeypatch, 10)
    assert four == ten
    # the objective node, a node per hidden layer, their weights and biases,
    # the head and the input
    assert four == {1 + 2 + 4 + 1 + 1}


def test_df_step_graph_is_one_loss_node(monkeypatch):
    four = _df_step_graph_sizes(monkeypatch, 4)
    ten = _df_step_graph_sizes(monkeypatch, 10)
    # the loss node, a node per hidden layer, their weights and biases, the
    # head and the input, at any class count
    assert four == ten == {1 + 2 + 4 + 1 + 1}


@pytest.mark.parametrize("step", ["semantic", "df"])
def test_spent_step_graph_is_freed_by_reference_counting(step):
    """One training step's graph of hand-written nodes, probed as in
    ``test_tensorcore``: a vjp that held its own node would make the graph a
    cycle, which only the cyclic collector (disabled here) would free."""
    params, _, *rest = _batch(4, 6, 9, seed=500)
    x_unl, cands = rest[3], rest[6]
    gc.disable()
    try:
        if step == "semantic":
            total, _ = semantic_batch_loss(params, *rest)
        else:
            total, _ = loss_df(params, x_unl, cands)
        interior, stack = [], [total]
        while stack:
            t = stack.pop()
            if t._parents:
                interior.append(weakref.ref(t))
                stack.extend(t._parents)
        total.backward()
        del total, t, stack
        # the loss node and one node per hidden layer
        assert len(interior) == 3
        assert all(probe() is None for probe in interior)
        assert all(p.grad is not None for p in params.parameters())
    finally:
        gc.enable()

"""Loss terms for partial-label training with a semi-supervised objective.

The pipeline: a disambiguation-free pre-training loss that spreads mass
uniformly over candidate labels; activation-value scoring to pick per-class
top-k pseudo-labeled instances; and the semi-supervised stage combining a
pseudo-supervised loss, a confidence-gated consistency regularizer between
weak and strong views, and a complementary penalty on non-candidate labels.

The three semantic variants replace sampling from N(a, lam*Sigma_y) by the
closed forms in :mod:`plsp.semstats`; ``mc_oracle_reg`` keeps the sampled
estimator around for the tests, as an oracle independent of ``verify``'s
exact Gauss–Hermite references.

One step's three terms come from one graph (``semantic_batch_loss``): one
forward over the stacked rows [labeled; unlabeled un-augmented; strong rows
whose gate is open] and one shifted log-softmax in which each row selects
its own class covariance (committed pseudo label, or weak-view semantic
label). Everything after the forward, the log-softmax, the clamps and the
three weighted sums, is one scalar graph node with a hand-written backward;
its l shift matrices come from ``semstats.pairwise_quadratic``. With one
node per hidden layer, a step with two hidden layers has 9 nodes (with the
parameters and the input) for any class count. The per-term functions run
the same kernel with the other row blocks empty. The weak branch is one
numpy forward of the live weights. The disambiguation-free loss
(``loss_df``) is likewise one scalar node after the forward, so its step has
the same 9 nodes. Every node here is made by ``tensorcore.node`` with a
closed-form vjp; ``assemble_batch``, which sums the per-term losses, is one
node on the three. The step, the consistency term and ``assemble_batch``
each report in a ``BatchLossReport``.

Gradient flow: the weak branch (probabilities, semantic labels, pseudo
targets) is a numpy forward of the live weights, and the pseudo split reads
the numpy logits the trainer hands it; both enter as plain constants, and
only the strong-branch / un-augmented log-probabilities carry gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ClassifierParams, FrozenClassifier, extract_features
from .semstats import ClassCovStats, pairwise_quadratic, probit_weak_probs, sample_semantic
from .tensorcore import Tensor, node, softmax

LOG_EPS = math.log(1e-12)


@dataclass
class PseudoSplit:
    labeled_idx: np.ndarray    # (m,) indices into the dataset
    labeled_y: np.ndarray      # (m,) committed pseudo labels
    unlabeled_idx: np.ndarray  # (n - m,) remaining indices

    @property
    def n_labeled(self) -> int:
        return len(self.labeled_idx)

    @property
    def n_unlabeled(self) -> int:
        return len(self.unlabeled_idx)

    def check(self, candidates: np.ndarray, k: int) -> None:
        joint = np.concatenate([self.labeled_idx, self.unlabeled_idx])
        if len(np.unique(joint)) != len(candidates) or len(joint) != len(candidates):
            raise ValueError("split must partition the dataset")
        if not np.all(candidates[self.labeled_idx, self.labeled_y]):
            raise ValueError("pseudo label outside its candidate set")
        if self.n_labeled and np.bincount(self.labeled_y).max() > k:
            raise ValueError("per-class labeled count exceeds k")


@dataclass
class BatchLossReport:
    """One step's (or one term's) loss values, the weak branch's gate counts
    and the log-clamp events. The consistency gate has no skip count: a row
    with no candidate is rejected, and every other row has positive
    candidate mass."""
    loss_sup: float
    reg_u: float
    loss_cl: float
    total: float
    sigma_inc: np.ndarray      # per-class confident counts
    h_pass_rate: float
    clamped: int = 0           # log-clamp events


def cav_scores(z: np.ndarray) -> np.ndarray:
    """Activation-value score v = z * |z - 1| on raw logits."""
    z = np.asarray(z, dtype=np.float64)
    return z * np.abs(z - 1.0)


def masked_argmax(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row argmax restricted to mask (ties -> lowest index)."""
    restricted = np.where(mask, values, -np.inf)
    return restricted.argmax(axis=1)


def weak_cav_pseudo_labels(frozen: FrozenClassifier, x_weak: np.ndarray,
                           candidates: np.ndarray) -> np.ndarray:
    """Candidate-restricted activation-value argmax on the weak view."""
    return masked_argmax(cav_scores(frozen.logits_of(x_weak)), candidates)


def build_pseudo_split(logits: np.ndarray, candidates: np.ndarray, k: int) -> PseudoSplit:
    """From a set's (n, l) ``logits`` and candidate masks: per class, commit
    the k highest-scoring instances among those whose candidate-restricted
    activation-value argmax picked that class; the rest stay unlabeled. One
    sort ranks the rows by (class, descending score, index), so ties break
    toward the lower index, and a row is committed when fewer than k precede
    it in its class."""
    if k < 0:
        raise ValueError("k must be >= 0")
    v = cav_scores(logits)
    pseudo = masked_argmax(v, candidates)
    rows = np.arange(len(pseudo))
    order = np.lexsort((rows, -v[rows, pseudo], pseudo))
    ranked = pseudo[order]
    chosen = np.zeros(len(pseudo), dtype=bool)
    chosen[order[rows - np.searchsorted(ranked, ranked) < k]] = True
    labeled_idx = np.flatnonzero(chosen)
    return PseudoSplit(labeled_idx, pseudo[labeled_idx], np.flatnonzero(~chosen))


def loss_df(params: ClassifierParams, x: np.ndarray,
            candidates: np.ndarray) -> tuple[Tensor, int]:
    """Mean over the rows ``x`` of the candidate-averaged negative log of the
    model's softmax: (1/|C_i|) sum_{j in C_i} -log p_ij. Returns (loss, clamp count).

    One scalar node on (features, head) with a closed-form backward: d loss
    / d z = g - softmax * rowsum(g), with g = -w / batch where log p >
    LOG_EPS and 0 where the clamp holds.
    """
    candidates = np.asarray(candidates, dtype=bool)
    feats = extract_features(params, x)
    head = params.head.data
    z = feats.data @ head.T
    m = z.max(axis=1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    shifted = np.exp(z - m)
    total = shifted.sum(axis=1, keepdims=True)
    log_p = z - (m + np.log(total))
    weights = candidates / candidates.sum(axis=1, keepdims=True)
    clamped = int(np.sum((log_p < LOG_EPS) & candidates))
    inv_batch = 1.0 / float(candidates.shape[0])
    value = -np.sum(np.maximum(log_p, LOG_EPS) * weights) * inv_batch

    def vjp(g):
        g = (-(g * inv_batch) * weights) * (log_p > LOG_EPS)
        dz = g - shifted / total * g.sum(axis=1, keepdims=True)
        return (dz @ head if feats.requires_grad else None,
                (feats.data.T @ dz).T if params.head.requires_grad else None)

    return node(value, (feats, params.head), vjp), clamped


# -- the semantic objective kernel --------------------------------------------

def _shifted_log_softmax(feats: Tensor, head: Tensor, covs: np.ndarray,
                         classes: np.ndarray, lam: float):
    """Row i: log of exp(z_j) / sum_j' exp(z_j' + lam/2 * Q_c[j', j]) with
    z = feats @ head.T and c = classes[i] picking the row's covariance from
    the (K, d_f, d_f) stack.

    Returns the (B, l) log-probabilities and ``vjp(g)``, the closed-form
    backward that maps a gradient on them to the gradients on ``feats`` and
    ``head``. The shifts come from ``pairwise_quadratic``; each row's
    exp(z - m) sits in its class's block of a (B, K*l) matrix, so one matmul
    against the stacked gains gives every denominator and one transposed
    matmul gathers every class's shift gradient. Row-max and per-block shift-max constants cancel exactly.
    """
    w, a = head.data, feats.data
    l, n_cov, batch = w.shape[0], covs.shape[0], a.shape[0]
    gain = 0.5 * lam * pairwise_quadratic(w, covs)            # (K, l, l)
    kappa = gain.reshape(n_cov, l * l).max(axis=1)
    gain = np.exp(gain - kappa[:, None, None]).reshape(n_cov * l, l)
    z = a @ w.T
    m = z.max(axis=1, keepdims=True)
    expz = np.exp(z - m)
    rows = np.arange(batch)
    picked = np.zeros((batch, n_cov, l))
    picked[rows, classes] = expz
    picked = picked.reshape(batch, n_cov * l)
    den = picked @ gain
    log_p = z - (np.log(den) + (m + kappa[classes][:, None]))

    def vjp(g):
        r = g / den
        dz = g - expz * (r @ gain.T).reshape(batch, n_cov, l)[rows, classes]
        dw = None
        if head.requires_grad:
            # dQ_c = -lam/2 * gain_c * sum_{i in c} expz_i (x) r_i; with
            # B_c = dQ_c + dQ_c^T, dL/dW += 2 sum_c (diag(B_c 1) - B_c) W cov_c
            dq = (picked.T @ r * gain).reshape(n_cov, l, l) * (-0.5 * lam)
            sym = dq + np.swapaxes(dq, 1, 2)
            lap_w = sym.sum(axis=2)[:, :, None] * w - sym @ w
            dw = dz.T @ a + 2.0 * (lap_w @ covs).sum(axis=0)
        return dz @ w if feats.requires_grad else None, dw

    return log_p, vjp


def shifted_log_probs(params: ClassifierParams, x: np.ndarray, cov: np.ndarray,
                      lam: float) -> Tensor:
    """log of exp(z_j) / sum_j' exp(z_j' + lam/2 * Q[j', j]) for rows ``x``.

    lam == 0 reduces to log-softmax (the shifts multiply out to zeros). One
    graph node on (features, head).
    """
    feats = extract_features(params, x)
    log_p, vjp = _shifted_log_softmax(feats, params.head, np.asarray(cov)[None],
                                      np.zeros(feats.shape[0], dtype=np.int64), lam)
    return node(log_p, (feats, params.head), vjp)


def _objective_kernel(params: ClassifierParams, stats: ClassCovStats, lam: float,
                      blocks: list[np.ndarray], classes: np.ndarray,
                      sup_w: np.ndarray, reg_w: np.ndarray, cl_w: np.ndarray,
                      reg_entropy: float, gamma: float,
                      ) -> tuple[Tensor, tuple[float, float, float], int]:
    """gamma * (loss_sup + reg_u) + loss_cl from one graph forward over the
    stacked input blocks.

    One shifted log-softmax over all rows, each with its class covariance,
    feeds every term through constant (rows, l) weight masks that already
    carry each term's 1/batch: ``sup_w`` and ``reg_w`` weight the clamped
    log-probabilities, ``cl_w`` the clamped log(1 - p). ``reg_entropy`` is
    the consistency term's constant entropy part. The total is one scalar
    node on (feats, head) whose backward is written out: d total / d log p is
    -gamma * (sup_w + reg_w) where log p > LOG_EPS plus cl_w * p / (1 - p)
    where 1 - p > 1e-12, then the shifted log-softmax backward. Returns the
    total, the three term values and the clamp count. Zero rows give a zero
    total whose backward gives zero gradients.
    """
    feats = extract_features(params, np.concatenate(blocks))
    log_ps, vjp = _shifted_log_softmax(feats, params.head, stats.covs, classes, lam)
    # np.maximum, not a mask: a NaN log-probability stays NaN in the total
    safe = np.maximum(log_ps, LOG_EPS)
    p = np.exp(log_ps)
    one_minus = 1.0 - p
    rest = np.maximum(one_minus, 1e-12)
    log_rest = np.log(rest)
    log_w = -gamma * (sup_w + reg_w)
    total = float(np.sum(safe * log_w + log_rest * -cl_w)) + gamma * reg_entropy

    def total_vjp(g):
        return vjp(g * (log_w * (log_ps > LOG_EPS)
                        + cl_w * (one_minus > 1e-12) * p / rest))

    # 0.0 - x keeps a term whose weights are all zero at +0.0, not -0.0
    values = (0.0 - float(np.sum(safe * sup_w)),
              reg_entropy - float(np.sum(safe * reg_w)),
              0.0 - float(np.sum(log_rest * cl_w)))
    clamped = int(np.sum((log_ps < LOG_EPS) & ((sup_w > 0) | (reg_w > 0)))
                  + np.sum((one_minus < 1e-12) & (cl_w > 0)))
    return node(total, (feats, params.head), total_vjp), values, clamped


def _weak_branch(feats: np.ndarray, head: np.ndarray, stats: ClassCovStats,
                 candidates: np.ndarray, lam: float, tau: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, BatchLossReport]:
    """The weak side of the consistency term, pure numpy; the step,
    ``reg_consistency_semantic`` and ``verify``'s bound check all read it.

    From the weak rows' features and the head array: the weak-view semantic
    labels (the candidate-restricted activation-value argmax) and the probit
    expected softmax, each row at its own class's covariance. The pseudo
    target renormalises that softmax over the candidate set; every clipped
    probit probability is positive, so its mass is too. Returns the semantic
    labels, the gate h (callers forward only the strong rows where it is
    open), the ungated pseudo targets, the open-gate targets' summed
    entropy and a report holding the gate counts (``sigma_inc``,
    ``h_pass_rate``), whose losses and clamp count the caller fills in.
    Raises ValueError on a row with no candidate, on non-finite weak-view
    logits, and on a non-finite score of finite logits (so large that
    z * |z - 1| overflows).
    """
    batch = len(feats)
    n_classes = head.shape[0]
    candidates = np.asarray(candidates, dtype=bool)
    empty = np.flatnonzero(~candidates.any(axis=1))
    if empty.size:
        raise ValueError(f"row {empty[0]} has no candidate label")
    z = feats @ head.T
    with np.errstate(over="ignore", invalid="ignore"):
        scores = cav_scores(z)
    if not np.isfinite(scores).all():
        raise ValueError("non-finite logits" if not np.isfinite(z).all()
                         else "non-finite weak-view scores")
    sem = masked_argmax(scores, candidates)
    p_weak = probit_weak_probs(head, feats, stats.covs, lam, classes=sem)

    tau = np.asarray(tau, dtype=np.float64)
    rows = np.arange(batch)
    jmax = p_weak.argmax(axis=1)
    h = (p_weak[rows, jmax] >= tau[jmax]) & candidates[rows, jmax]
    masked = np.where(candidates, p_weak, 0.0)
    targets = masked / masked.sum(axis=1, keepdims=True)

    weights = targets * h[:, None]
    entropy = float(np.sum(np.where(weights > 0, weights * np.log(
        targets, out=np.zeros_like(targets), where=targets > 0), 0.0)))
    report = BatchLossReport(
        loss_sup=0.0, reg_u=0.0, loss_cl=0.0, total=0.0,
        sigma_inc=np.bincount(sem[h], minlength=n_classes).astype(np.int64),
        h_pass_rate=float(h.sum() / max(batch, 1)),
    )
    return sem, h, targets, entropy, report


def semantic_batch_loss(params: ClassifierParams, stats: ClassCovStats,
                        x_lab: np.ndarray, y_lab: np.ndarray,
                        x_unl: np.ndarray, x_weak: np.ndarray, x_strong: np.ndarray,
                        candidates: np.ndarray, lam: float, tau: np.ndarray,
                        gamma: float) -> tuple[Tensor, BatchLossReport]:
    """One semi-supervised step's gamma * (loss_sup + reg_u) + loss_cl.

    The rows [labeled; unlabeled un-augmented; strong] go through a single
    graph forward, the strong block holding only the rows whose gate is
    open: a closed gate gives a strong row zero weight, so leaving it out
    changes no term, and the consistency term still averages over all
    ``n_unl`` unlabeled rows. A non-finite value in a left-out row does not
    reach the total. Covariances: the committed pseudo label for
    labeled rows, the weak-view semantic label for the other two blocks.
    ``candidates`` belong to the unlabeled rows, which ``x_unl``, ``x_weak``
    and ``x_strong`` hold in the same order. The weak branch is a numpy
    forward of the live weights; its gate counts fill the returned report
    beside the three term values, the total and the clamp count. Values
    equal ``assemble_batch`` over the three per-term functions given a
    frozen copy of ``params``. An unlabeled row with no candidate raises
    ValueError.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    candidates = np.asarray(candidates, dtype=bool)
    y_lab = np.asarray(y_lab, dtype=np.int64)
    n_lab, n_unl = len(y_lab), len(x_unl)
    sem, h, targets, entropy, report = _weak_branch(
        params.eval_features(x_weak), params.head.data, stats, candidates, lam, tau)
    l = params.n_classes
    sup_w, reg_w, cl_w = (np.zeros((n_lab + n_unl + int(h.sum()), l))
                          for _ in range(3))
    sup_w[np.arange(n_lab), y_lab] = 1.0 / max(n_lab, 1)
    cl_w[n_lab:n_lab + n_unl] = ~candidates / max(n_unl, 1)
    reg_w[n_lab + n_unl:] = targets[h] / max(n_unl, 1)
    total, (report.loss_sup, report.reg_u, report.loss_cl), report.clamped = \
        _objective_kernel(params, stats, lam, [x_lab, x_unl, x_strong[h]],
                          np.concatenate([y_lab, sem, sem[h]]), sup_w, reg_w,
                          cl_w, entropy / max(n_unl, 1), gamma)
    report.total = float(total.data)
    return total, report


def loss_sup_semantic(params: ClassifierParams, stats: ClassCovStats,
                      x: np.ndarray, y: np.ndarray, lam: float) -> tuple[Tensor, int]:
    """Mean -log of the target's shifted-softmax probability on un-augmented
    features, covariance chosen by the committed pseudo label."""
    y = np.asarray(y, dtype=np.int64)
    weights = np.zeros((len(y), params.n_classes))
    weights[np.arange(len(y)), y] = 1.0 / max(len(y), 1)
    zero = np.zeros_like(weights)
    loss, _, clamped = _objective_kernel(params, stats, lam, [x], y, weights,
                                         zero, zero, 0.0, 1.0)
    return loss, clamped


def reg_consistency_semantic(params: ClassifierParams, frozen: FrozenClassifier,
                             stats: ClassCovStats, x_weak: np.ndarray,
                             x_strong: np.ndarray, candidates: np.ndarray,
                             lam: float, tau: np.ndarray) -> tuple[Tensor, BatchLossReport]:
    """Confidence-gated KL between the frozen weak-branch target and the live
    strong-branch shifted softmax, averaged over the whole mini-batch.

    The weak side (semantic labels, closed-form expected softmax, pseudo
    target, gate h) is pure numpy under the frozen snapshot; gradients reach
    only the strong branch. As in the step, only the strong rows whose gate
    is open are forwarded, so a non-finite value in a closed-gate row does
    not reach the loss. Returns the loss tensor and a report whose ``reg_u``
    and ``total`` are the loss, beside the gate counts and clamps.
    """
    batch = len(x_strong)
    sem, h, targets, entropy, report = _weak_branch(
        frozen.features(x_weak), frozen.head, stats, candidates, lam, tau)
    reg_w = targets[h] / max(batch, 1)
    zero = np.zeros_like(reg_w)
    value, _, report.clamped = _objective_kernel(
        params, stats, lam, [x_strong[h]], sem[h], zero, reg_w, zero,
        entropy / max(batch, 1), 1.0)
    report.reg_u = report.total = float(value.data)
    return value, report


def loss_complementary_semantic(params: ClassifierParams, stats: ClassCovStats,
                                x: np.ndarray, candidates: np.ndarray,
                                sem_labels: np.ndarray, lam: float,
                                ) -> tuple[Tensor, int]:
    """Mean over the batch of sum_{j not in C_i} -log(1 - p_ij), with p the
    shifted softmax on un-augmented features (covariance by weak-view label)."""
    non_candidates = ~np.asarray(candidates, dtype=bool)
    weights = non_candidates / max(len(x), 1)
    zero = np.zeros(weights.shape)
    loss, _, clamped = _objective_kernel(params, stats, lam, [x],
                                         np.asarray(sem_labels), zero, zero,
                                         weights, 0.0, 1.0)
    return loss, clamped


def assemble_batch(loss_sup: Tensor, reg_u: Tensor, loss_cl: Tensor,
                   gamma: float, n_classes: int,
                   consistency: BatchLossReport | None = None,
                   clamped: int = 0) -> tuple[Tensor, BatchLossReport]:
    """gamma * (pseudo-supervised + consistency) + complementary as one node
    on the three terms, with the decomposition recorded. The gate counts and
    the consistency term's clamps come from ``consistency``, the report of
    ``reg_consistency_semantic``; ``clamped`` counts the other two terms'."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")

    def vjp(g):
        scaled = g * gamma
        return (scaled if loss_sup.requires_grad else None,
                scaled if reg_u.requires_grad else None,
                g if loss_cl.requires_grad else None)

    total = node((loss_sup.data + reg_u.data) * gamma + loss_cl.data,
                 (loss_sup, reg_u, loss_cl), vjp)
    if consistency is None:
        consistency = BatchLossReport(0.0, 0.0, 0.0, 0.0,
                                      np.zeros(n_classes, dtype=np.int64), 0.0)
    report = replace(consistency, loss_sup=float(loss_sup.data),
                     reg_u=float(reg_u.data), loss_cl=float(loss_cl.data),
                     total=float(total.data), clamped=clamped + consistency.clamped)
    return total, report


# -- sampling oracle ---------------------------------------------------------

@dataclass
class McRegEstimate:
    value: float               # mean of h * KL over all K^2 draw pairs
    se: float                  # standard error of `value`
    strong_ce: float           # MC strong-branch cross entropy under the
    strong_ce_se: float        # closed-form pseudo target
    h_rate: float
    sem_label: int             # weak-view label; both branches use its covariance
    target: np.ndarray         # the closed-form pseudo target


def mc_oracle_reg(params: ClassifierParams, frozen: FrozenClassifier,
                  stats: ClassCovStats, x_weak: np.ndarray, x_strong: np.ndarray,
                  candidates: np.ndarray, lam: float, tau: np.ndarray,
                  n_samples: int, rng: np.random.Generator) -> McRegEstimate:
    """Sampled estimate of the single-instance consistency term.

    Draws ``n_samples`` semantic transforms per branch (weak under the frozen
    snapshot, strong under the live parameters, both with the weak-view
    label's covariance) and averages h * KL over all pairs. Also reports the
    strong-branch cross entropy under the closed-form pseudo target, which the
    shifted-softmax term must upper-bound, and returns that label and target
    with the estimate. Test use only: ``verify``'s bound-direction check
    takes that cross entropy from an exact Gauss–Hermite sum, and the tests
    hold the sum against this sampled estimate.
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    candidates = np.asarray(candidates, dtype=bool)
    tau = np.asarray(tau, dtype=np.float64)
    sem_label = int(weak_cav_pseudo_labels(frozen, x_weak[None, :], candidates[None, :])[0])
    cov = stats.cov(sem_label)
    a_weak = frozen.features(x_weak[None, :])[0]
    a_strong = params.eval_features(x_strong[None, :])[0]

    draws_w = sample_semantic(a_weak, cov, lam, rng, size=n_samples)
    p_w = softmax(draws_w @ frozen.head.T, axis=1)
    jmax = p_w.argmax(axis=1)
    h = (p_w[np.arange(n_samples), jmax] >= tau[jmax]) & candidates[jmax]
    masked = np.where(candidates, p_w, 0.0)
    # unclipped, a sampled softmax can underflow to 0 on every candidate
    mass = masked.sum(axis=1)
    valid = mass > 0
    targets = np.zeros_like(masked)
    targets[valid] = masked[valid] / mass[valid, None]
    gate = h & valid

    draws_s = sample_semantic(a_strong, cov, lam, rng, size=n_samples)
    z_s = draws_s @ params.head.data.T
    log_ps = z_s - z_s.max(axis=1, keepdims=True)
    log_ps = log_ps - np.log(np.exp(log_ps).sum(axis=1, keepdims=True))
    log_ps = np.maximum(log_ps, LOG_EPS)

    ent = np.sum(np.where(targets > 0,
                          targets * np.log(targets, out=np.zeros_like(targets),
                                           where=targets > 0), 0.0), axis=1)
    gated_ent = np.where(gate, ent, 0.0)
    wbar = (targets * gate[:, None]).mean(axis=0)
    lbar = log_ps.mean(axis=0)
    value = gated_ent.mean() - wbar @ lbar

    # variance via the per-branch conditional means of the pair statistic
    cond_w = gated_ent - np.where(gate, targets @ lbar, 0.0)
    cond_s = gated_ent.mean() - log_ps @ wbar
    se = math.sqrt((cond_w.var(ddof=1) + cond_s.var(ddof=1)) / n_samples) \
        if n_samples > 1 else 0.0

    # strong-branch cross entropy under the closed-form target
    p_closed = probit_weak_probs(frozen.head, a_weak, cov, lam)
    t_closed = np.where(candidates, p_closed, 0.0)
    t_closed /= t_closed.sum()
    ce_draws = -(log_ps @ t_closed)
    strong_ce = float(ce_draws.mean())
    strong_ce_se = float(ce_draws.std(ddof=1) / math.sqrt(n_samples)) \
        if n_samples > 1 else 0.0

    return McRegEstimate(value=float(value), se=float(se), strong_ce=strong_ce,
                         strong_ce_se=strong_ce_se, h_rate=float(h.mean()),
                         sem_label=sem_label, target=t_closed)

"""Monte-Carlo oracle for the weak-branch check.

``plsp.evalcli.check_weak_branch`` takes its reference for E[softmax(z)]
from a Gauss–Hermite sum. The tests check that sum, and keep acceptance
criterion 2's statistic, against the sampled mean the check used before:
``mc_softmax_mean`` draws the logits, and ``mc_weak_branch_error`` is the
check's statistic with that mean as the reference.
"""

from __future__ import annotations

import numpy as np

from plsp.evalcli import _weak_branch_case
from plsp.semstats import BETA_RELATIVE, probit_weak_probs

# Rows per block of draws: bounds the oracle's memory at a few MB (the
# (rows, r) block of normals plus an (l, rows) block of logits) whatever the
# sample count.
MC_CHUNK_ROWS = 65_536


def _logit_factor(head: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """An (l, r) matrix F with F @ F.T == W @ W.T for W = head @ chol, where
    r = min(l, d): F = R.T for the R of W.T's QR factorisation."""
    return np.linalg.qr((head @ chol).T, mode="r").T


def mc_softmax_mean(a: np.ndarray, chol: np.ndarray, head: np.ndarray,
                    n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Mean of softmax(head @ (a + chol @ e)) over ``n_samples`` standard
    normal draws e, taken in blocks of MC_CHUNK_ROWS rows.

    Only the logits' law matters, so each sample draws r = min(l, d)
    normals g and forms the logits class-major as head @ a + F @ g with
    F = _logit_factor(head, chol). The blocks consume the generator in the
    same order as one (n_samples, r) draw.
    """
    f = _logit_factor(head, chol)
    z0 = (head @ a)[:, None]
    total = np.zeros(head.shape[0])
    for start in range(0, n_samples, MC_CHUNK_ROWS):
        rows = min(MC_CHUNK_ROWS, n_samples - start)
        z = f @ rng.standard_normal((rows, f.shape[1])).T
        z += z0
        z -= z.max(axis=0)
        np.exp(z, out=z)
        total += z @ (1.0 / z.sum(axis=0))
    return total / n_samples


def weak_branch_cases(seed: int, n_cases: int = 12):
    """``check_weak_branch``'s cases as (head, a, cov, lam, chol)."""
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        head, a, cov, lam = _weak_branch_case(rng, case)
        yield head, a, cov, lam, np.linalg.cholesky(lam * cov + 1e-15 * np.eye(a.size))


def mc_weak_branch_error(seed: int, n_samples: int, n_cases: int = 12) -> float:
    """``check_weak_branch``'s statistic, the closed form's worst
    per-coordinate relative error, against ``mc_softmax_mean`` over
    ``n_samples`` draws per case from ``default_rng([seed, 1])``, taken case
    by case in order."""
    draw_rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for head, a, cov, lam, chol in weak_branch_cases(seed, n_cases):
        p_mc = mc_softmax_mean(a, chol, head, n_samples, draw_rng)
        p_cf = probit_weak_probs(head, a, cov, lam, BETA_RELATIVE)
        worst = np.maximum(worst, float((np.abs(p_cf - p_mc) / p_mc).max()))
    return float(worst)

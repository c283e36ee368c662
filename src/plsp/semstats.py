"""Per-class feature statistics and closed-form expectations over semantic draws.

A semantic transform replaces a feature vector a by a draw from N(a, lam*Sigma_y)
with class-conditional covariance Sigma_y. Two closed forms avoid sampling:

* ``probit_weak_probs`` approximates E[softmax] of the transformed feature via
  the probit approximation of the sigmoid (each pairwise-margin expectation
  E[sigmoid(u.a)] becomes Phi(beta*u.mean / sqrt(1 + lam*beta^2*u.Sigma.u))).
* ``shifted_softmax_probs`` upper-bounds E[-log softmax_j] by pushing the
  expectation inside the log (Jensen) and evaluating the gaussian moment
  generating function, which just adds lam/2 * quadratic-form shifts to the
  competing logits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

# Slope for the probit approximation of the sigmoid. Frozen from a grid
# search minimizing sup_{x in [-8,8]} |sigmoid(x) - Phi(beta*x)| (~0.0095);
# equals the classical 1/1.702.
DEFAULT_BETA = 0.587632
# Frozen from a grid minimizing sup_{|x|<=1.5} |Phi(beta*x)/sigmoid(x) - 1|
# (~0.0101): the better slope when relative accuracy of small coordinates
# matters, e.g. when checking the map against a sampled expectation.
BETA_RELATIVE = 0.6087
# Matches sigmoid slope at 0; the textbook choice.
BETA_SLOPE_MATCHED = math.sqrt(math.pi / 8.0)
# Alternative constant sometimes quoted for this approximation.
BETA_PI_SQ_OVER_8 = math.pi ** 2 / 8.0

_PHI_CLAMP = 1e-12


class ClassCovStats:
    """Running per-class count / mean / population covariance of features,
    merged incrementally batch by batch."""

    def __init__(self, n_classes: int, feature_dim: int):
        self.counts = np.zeros(n_classes, dtype=np.int64)
        self.means = np.zeros((n_classes, feature_dim), dtype=np.float64)
        self.covs = np.zeros((n_classes, feature_dim, feature_dim), dtype=np.float64)

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    @property
    def feature_dim(self) -> int:
        return self.means.shape[1]

    def cov(self, j: int) -> np.ndarray:
        return self.covs[j]


def update_cov_stats(stats: ClassCovStats, features: np.ndarray,
                     labels: np.ndarray) -> None:
    """Merge a batch of (feature, class) pairs into the running statistics.

    Uses the pairwise pooling rule for population moments: the merged
    covariance is the count-weighted average of the two covariances plus a
    rank-one correction from the mean gap. Classes absent from the batch are
    untouched.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[1] != stats.feature_dim:
        raise ValueError("feature dimension mismatch")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("feature/label counts differ")
    if labels.size and labels.max() >= stats.n_classes:
        raise ValueError("class label out of range")
    for j in np.unique(labels):
        x = features[labels == j]
        m_new = x.shape[0]
        mu_new = x.mean(axis=0)
        centered = x - mu_new
        cov_new = centered.T @ centered / m_new
        m_old = int(stats.counts[j])
        total = m_old + m_new
        if m_old == 0:
            merged = cov_new
        else:
            delta = stats.means[j] - mu_new
            merged = (m_old * stats.covs[j] + m_new * cov_new) / total \
                + (m_old * m_new) * np.outer(delta, delta) / total ** 2
        stats.covs[j] = (merged + merged.T) / 2.0
        stats.means[j] = (m_old * stats.means[j] + m_new * mu_new) / total
        stats.counts[j] = total


def sample_semantic(a: np.ndarray, cov: np.ndarray, lam: float,
                    rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw from N(a, lam*cov) via symmetric eigendecomposition.

    Round-off negatives in the spectrum are zeroed.
    lam == 0 or cov == 0 returns `a` exactly.
    """
    a = np.asarray(a, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    if not np.allclose(cov, cov.T, atol=1e-8):
        raise ValueError("covariance is not symmetric")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if lam == 0.0 or not np.any(cov):
        out = a.copy() if size is None else np.broadcast_to(a, (size, a.size)).copy()
        return out
    vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
    vals = np.maximum(vals, 0.0)
    scale = vecs * np.sqrt(lam * vals)
    if size is None:
        return a + scale @ rng.standard_normal(a.size)
    return a + rng.standard_normal((size, a.size)) @ scale.T


def std_normal_cdf(z):
    """Standard normal CDF (erf-based, abs error well below 1e-12)."""
    return ndtr(z)


def pairwise_quadratic(head: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Q[i, j] = (w_i - w_j)^T cov (w_i - w_j) for all head-row pairs; a
    (K, d_f, d_f) stack of covariances gives a (K, l, l) stack of forms."""
    hc = head @ cov
    s = hc @ head.T
    d = np.sum(head * hc, axis=-1)
    return d[..., :, None] + d[..., None, :] - s - np.swapaxes(s, -1, -2)


def probit_weak_probs(head: np.ndarray, feats: np.ndarray, cov: np.ndarray,
                      lam: float, beta: float = DEFAULT_BETA,
                      classes: np.ndarray | None = None) -> np.ndarray:
    """Closed-form approximation of E[softmax(head @ a~)], a~ ~ N(a, lam*cov).

    Accepts a single feature vector or a (B, d_f) batch. The batch shares one
    (d_f, d_f) covariance, or, with ``classes``, row i takes ``cov[classes[i]]``
    from a (K, d_f, d_f) stack. The raw map can leave the simplex when Phi
    terms are tiny, so the result is clamped to >= 0 and renormalized to sum 1.
    """
    head = np.asarray(head, dtype=np.float64)
    feats = np.asarray(feats, dtype=np.float64)
    single = feats.ndim == 1
    if single:
        feats = feats[None, :]
    if not (np.all(np.isfinite(feats)) and np.all(np.isfinite(head))):
        raise ValueError("non-finite logits")
    z = feats @ head.T
    n_classes = head.shape[0]
    quad = pairwise_quadratic(head, cov)
    denom_scale = np.sqrt(np.maximum(1.0 + lam * beta * beta * quad, _PHI_CLAMP))
    denom_scale = denom_scale[None] if classes is None else denom_scale[classes]
    margins = z[:, :, None] - z[:, None, :]          # (B, j, j')
    phi = np.clip(ndtr(beta * margins / denom_scale), _PHI_CLAMP, 1.0 - _PHI_CLAMP)
    den = -n_classes + (1.0 / phi).sum(axis=2)
    probs = np.clip(1.0 / den, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs[0] if single else probs


def shifted_softmax_probs(head: np.ndarray, feat: np.ndarray, cov: np.ndarray,
                          lam: float) -> np.ndarray:
    """Quadratic-shifted softmax: exp(z_j) / sum_j' exp(z_j' + lam/2 * Q[j',j]).

    The j' = j shift is zero, so each coordinate is <= its plain softmax
    value.
    """
    head = np.asarray(head, dtype=np.float64)
    feat = np.asarray(feat, dtype=np.float64)
    z = head @ feat
    quad = pairwise_quadratic(head, cov)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(quad))):
        raise ValueError("non-finite inputs")
    shifted = z[:, None] + 0.5 * lam * quad       # rows j', columns j
    m = shifted.max(axis=0)
    log_den = m + np.log(np.exp(shifted - m).sum(axis=0))
    return np.exp(z - log_den)

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

The probit reads Phi only as a lower tail Phi(-u), u >= 0, and takes it from
``normal_tail``, a numpy port of the part of cephes' ``ndtr`` (the routine
behind ``scipy.special.ndtr``) that covers 0 <= u < 8 sqrt(2), so the
package needs numpy alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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

# Cephes ndtr.c (S. L. Moshier): erf(x) = x T(x^2) / U(x^2) for |x| < 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8. Coefficients run from the
# highest power down; U and Q have an implicit leading 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_SQRT1_2 = math.sqrt(0.5)


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

    Each class present is merged in place about its old mean mu: with
    d = x - mu over the class's new rows and s = sum(d) / total, the
    covariance becomes (m_old * cov + d^T d) / total - s s^T and the mean
    mu + s, the pooled population moments of old and new rows. Both
    products are exactly symmetric, so the covariance stays so. Classes
    absent from the batch are untouched. A label outside [0, n_classes)
    raises ValueError before anything changes.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[1] != stats.feature_dim:
        raise ValueError("feature dimension mismatch")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("feature/label counts differ")
    if labels.size and (labels.min() < 0 or labels.max() >= stats.n_classes):
        raise ValueError("class label out of range")
    order = np.argsort(labels, kind="stable")
    classes, starts, sizes = np.unique(labels[order], return_index=True,
                                       return_counts=True)
    features = features[order]
    for j, start, m_new in zip(classes, starts, sizes):
        d = features[start:start + m_new] - stats.means[j]
        total = int(stats.counts[j]) + int(m_new)
        s = d.sum(axis=0) / total
        cov = stats.covs[j]
        cov *= stats.counts[j] / total
        cov += d.T @ d / total
        cov -= np.outer(s, s)
        stats.means[j] += s
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


def _ratio(num: tuple, den: tuple, x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(scale * N(x)) / D(x) with D monic, in place in ``scale``: Horner's
    rule in cephes' order (polevl for N, p1evl for D), one in-place ufunc
    per step."""
    n = num[0] * x
    n += num[1]
    for c in num[2:]:
        n *= x
        n += c
    d = x + den[0]
    for c in den[1:]:
        d *= x
        d += c
    scale *= n
    scale /= d
    return scale


def normal_tail(u: np.ndarray) -> np.ndarray:
    """Lower normal tail Phi(-u) = erfc(u / sqrt(2)) / 2, elementwise, for an
    array u with 0 <= u < 8 sqrt(2); NaN gives NaN, and values outside that
    domain are not checked and come out wrong.

    The part of cephes' ``ndtr`` that covers the domain, in its order of
    operations: with x = u / sqrt(2), 0.5 (1 - erf(x)) below 1 and
    0.5 erfc(x) from 1 on. (Below sqrt(1/2) cephes takes 0.5 + 0.5 erf(-x),
    the same double, as halving is exact.) Both rational forms run over the
    whole array at clipped arguments, so each is finite. Within 4 ulp of
    ``scipy.special.ndtr(-u)``.
    """
    x = u * _SQRT1_2
    t = np.minimum(x, 1.0)
    erf = _ratio(_ERF_T, _ERF_U, t * t, t)              # erf(min(x, 1))
    c = np.minimum(np.maximum(x, 1.0), 8.0)
    erfc = _ratio(_ERFC_P, _ERFC_Q, c, np.exp(np.multiply(-c, c)))  # at clip(x, 1, 8)
    return 0.5 * np.where(x < 1.0, 1.0 - erf, erfc)


def pairwise_quadratic(head: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Q[i, j] = (w_i - w_j)^T cov (w_i - w_j) for all head-row pairs; a
    (K, d_f, d_f) stack of covariances gives a (K, l, l) stack of forms."""
    hc = head @ cov
    s = hc @ head.T
    d = np.sum(head * hc, axis=-1)
    return d[..., :, None] + d[..., None, :] - s - np.swapaxes(s, -1, -2)


# a run reads one class count; verify reads a few small ones
@functools.lru_cache(maxsize=4)
def _pairs(l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The unordered class pairs (upper, lower) = ``np.triu_indices(l, 1)``
    and the (P, l) matrices that pick each pair's upper and lower class;
    read-only, as they are cached."""
    upper, lower = np.triu_indices(l, 1)
    pick = np.eye(l)
    out = (upper, lower, pick[upper], pick[lower])
    for arr in out:
        arr.flags.writeable = False
    return out


def probit_weak_probs(head: np.ndarray, feats: np.ndarray, cov: np.ndarray,
                      lam: float, beta: float = DEFAULT_BETA,
                      classes: np.ndarray | None = None) -> np.ndarray:
    """Closed-form approximation of E[softmax(head @ a~)], a~ ~ N(a, lam*cov).

    Accepts a single feature vector or a (B, d_f) batch. The batch shares one
    (d_f, d_f) covariance, or, with ``classes``, row i takes ``cov[classes[i]]``
    from a (K, d_f, d_f) stack. Row i's class j gets
    1 / (2 - l + sum_{j' != j} 1 / Phi(beta (z_j - z_j') / s_jj')), each Phi
    clipped to [1e-12, 1 - 1e-12]; one ``normal_tail`` value Phi(-|x|) per
    unordered pair gives both Phi(x) and Phi(-x). The raw map can leave the
    simplex when Phi terms are tiny, so the result is clamped to >= 0 and
    renormalized to sum 1.
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
    upper, lower, pick_upper, pick_lower = _pairs(n_classes)
    quad = pairwise_quadratic(head, cov)[..., upper, lower]     # (P,) or (K, P)
    scale = np.sqrt(np.maximum(1.0 + lam * beta * beta * quad, _PHI_CLAMP))
    scale = scale if classes is None else scale[classes]
    # (B, P) in C order: the fancy index leaves it column-major, and the
    # layout sets the order in which the matmuls below add each row's terms
    x = np.ascontiguousarray(beta * (z[:, upper] - z[:, lower]) / scale)
    # One lower tail per pair gives both directions: Phi(-|x|) and
    # 1 - Phi(-|x|), the order set by the sign of x (x = +-0 gives 0.5 both
    # ways). Beyond |x| = 8 both directions end at the clip, so the argument
    # stops there. As tail <= 0.5, the clip to [1e-12, 1 - 1e-12] only ever
    # raises the tail and lowers its complement, and a NaN stays NaN.
    tail = normal_tail(np.minimum(np.abs(x), 8.0))
    inv_tail = 1.0 / np.maximum(tail, _PHI_CLAMP)
    inv_flip = 1.0 / np.minimum(1.0 - tail, 1.0 - _PHI_CLAMP)
    negative = np.signbit(x)
    # sum over j' != j of 1/Phi(beta (z_j - z_j') / s_jj'); the j' = j term is 2
    den = ((2.0 - n_classes) + np.where(negative, inv_tail, inv_flip) @ pick_upper
           + np.where(negative, inv_flip, inv_tail) @ pick_lower)
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

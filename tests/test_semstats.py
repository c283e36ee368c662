import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from plsp.semstats import (BETA_RELATIVE, ClassCovStats, DEFAULT_BETA,
                           normal_tail, pairwise_quadratic, probit_weak_probs,
                           sample_semantic, shifted_softmax_probs,
                           update_cov_stats)
from plsp.tensorcore import softmax


def pooled_population_moments(x: np.ndarray):
    mu = x.mean(axis=0)
    centered = x - mu
    return mu, centered.T @ centered / len(x)


# -- covariance statistics ----------------------------------------------------

def test_two_single_instance_batches():
    stats = ClassCovStats(2, 2)
    update_cov_stats(stats, np.array([[1.0, 0.0]]), np.array([0]))
    assert np.allclose(stats.covs[0], 0.0)  # one point: zero covariance
    update_cov_stats(stats, np.array([[3.0, 0.0]]), np.array([0]))
    assert np.allclose(stats.means[0], [2.0, 0.0])
    assert np.allclose(stats.covs[0], [[1.0, 0.0], [0.0, 0.0]])
    assert stats.counts[0] == 2


def test_empty_batch_is_identity():
    stats = ClassCovStats(3, 2)
    update_cov_stats(stats, np.array([[1.0, 2.0]]), np.array([1]))
    before = (stats.counts.copy(), stats.means.copy(), stats.covs.copy())
    update_cov_stats(stats, np.zeros((0, 2)), np.zeros(0, dtype=int))
    assert np.array_equal(stats.counts, before[0])
    assert np.array_equal(stats.means, before[1])
    assert np.array_equal(stats.covs, before[2])


def test_absent_class_untouched():
    stats = ClassCovStats(3, 2)
    update_cov_stats(stats, np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1, 1]))
    cov1 = stats.covs[1].copy()
    update_cov_stats(stats, np.array([[5.0, 5.0]]), np.array([2]))
    assert np.array_equal(stats.covs[1], cov1)
    assert stats.counts[0] == 0


def test_any_partition_matches_pooled_moments():
    rng = np.random.default_rng(8)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(4, 60))
        pool = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
        mu_ref, cov_ref = pooled_population_moments(pool)
        stats = ClassCovStats(1, d)
        start = 0
        while start < n:
            size = int(rng.integers(1, n - start + 1))
            update_cov_stats(stats, pool[start:start + size],
                             np.zeros(size, dtype=int))
            start += size
        assert stats.counts[0] == n
        assert np.abs(stats.means[0] - mu_ref).max() < 1e-10
        assert np.abs(stats.covs[0] - cov_ref).max() < 1e-10
        assert np.abs(stats.covs[0] - stats.covs[0].T).max() < 1e-10


def test_unsorted_labels_match_pooled_moments():
    rng = np.random.default_rng(10)
    n_classes, d = 5, 4
    stats = ClassCovStats(n_classes, d)
    seen_x, seen_y = [], []
    for _ in range(12):
        size = int(rng.integers(1, 40))
        x = rng.standard_normal((size, d)) * rng.uniform(0.5, 3.0) + 2.0
        y = rng.integers(0, n_classes, size=size)  # unsorted, with repeats
        update_cov_stats(stats, x, y)
        seen_x.append(x)
        seen_y.append(y)
    xs, ys = np.concatenate(seen_x), np.concatenate(seen_y)
    for j in range(n_classes):
        mu_ref, cov_ref = pooled_population_moments(xs[ys == j])
        assert stats.counts[j] == np.sum(ys == j)
        assert np.abs(stats.means[j] - mu_ref).max() < 1e-10
        assert np.abs(stats.covs[j] - cov_ref).max() < 1e-10


def test_absent_classes_stay_bitwise_untouched():
    rng = np.random.default_rng(11)
    stats = ClassCovStats(6, 3)
    update_cov_stats(stats, rng.standard_normal((60, 3)), rng.integers(0, 6, size=60))
    before = (stats.counts.copy(), stats.means.copy(), stats.covs.copy())
    labels = rng.choice([4, 1], size=25)
    update_cov_stats(stats, rng.standard_normal((25, 3)), labels)
    absent = [0, 2, 3, 5]
    assert np.array_equal(stats.counts[absent], before[0][absent])
    assert np.array_equal(stats.means[absent], before[1][absent])
    assert np.array_equal(stats.covs[absent], before[2][absent])
    assert np.array_equal(stats.counts[[1, 4]] - before[0][[1, 4]],
                          [np.sum(labels == 1), np.sum(labels == 4)])


def test_covariances_stay_exactly_symmetric():
    rng = np.random.default_rng(12)
    stats = ClassCovStats(4, 16)
    for _ in range(50):
        x = np.abs(rng.standard_normal((64, 16))) * rng.uniform(0.5, 2.0)
        update_cov_stats(stats, x, rng.integers(0, 4, size=64))
    for j in range(4):
        assert np.array_equal(stats.covs[j], stats.covs[j].T)


def test_dimension_mismatch():
    stats = ClassCovStats(2, 3)
    with pytest.raises(ValueError):
        update_cov_stats(stats, np.ones((2, 4)), np.array([0, 1]))


@pytest.mark.parametrize("labels", [[-1, -1], [0, -3], [2, 1]])
def test_label_out_of_range_is_rejected_and_changes_nothing(labels):
    stats = ClassCovStats(2, 3)
    with pytest.raises(ValueError, match="out of range"):
        update_cov_stats(stats, np.ones((2, 3)), np.array(labels))
    assert stats.counts.tolist() == [0, 0]


# -- semantic sampling ---------------------------------------------------------

def test_sample_zero_strength_is_exact_identity():
    a = np.array([1.0, -2.0, 0.5])
    cov = np.eye(3)
    out = sample_semantic(a, cov, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, a)


def test_sample_zero_cov_is_exact_identity():
    a = np.array([1.0, -2.0])
    out = sample_semantic(a, np.zeros((2, 2)), 3.0, np.random.default_rng(0))
    assert np.array_equal(out, a)


def test_sample_moments_match():
    rng = np.random.default_rng(123)
    a = np.array([0.5, -1.0, 2.0, 0.0])
    draws = sample_semantic(a, np.eye(4), 1.0, rng, size=100_000)
    se = 1.0 / math.sqrt(100_000)
    assert np.abs(draws.mean(axis=0) - a).max() < 3 * se
    cov = np.cov(draws.T, bias=True)
    assert np.linalg.norm(cov - np.eye(4)) / np.linalg.norm(np.eye(4)) < 0.05


def test_sample_rejects_asymmetric():
    with pytest.raises(ValueError):
        sample_semantic(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0,
                        np.random.default_rng(0))


# -- normal tail -----------------------------------------------------------------

# normal_tail's domain is 0 <= u < TAIL_END
TAIL_END = 8.0 * math.sqrt(2.0)


def _phi_series(z: float) -> float:
    """Taylor series of erf around 0, enough terms for |z| <= 4."""
    x = z / math.sqrt(2.0)
    total, term = 0.0, x
    for n in range(0, 80):
        if n > 0:
            term *= -x * x / n
        total += term / (2 * n + 1)
    return 0.5 + total / math.sqrt(math.pi)


def test_cdf_examples():
    assert normal_tail(np.array([0.0]))[0] == 0.5
    assert abs(normal_tail(np.array([1.96]))[0] - 0.0249979) < 1e-6
    tail = normal_tail(np.linspace(0.0, TAIL_END, 1001, endpoint=False))
    assert np.all(np.diff(tail) < 0.0)


def test_cdf_against_series_oracle():
    u = np.linspace(0, 4, 17)
    for got, z in zip(normal_tail(u), u):
        assert abs(got - _phi_series(-float(z))) < 1e-12


def test_cdf_against_erf_reference():
    u = np.linspace(0, 8, 33)
    for got, z in zip(normal_tail(u), u):
        assert abs(got - 0.5 * math.erfc(float(z) / math.sqrt(2.0))) < 1e-12


def _tail_accuracy_inputs():
    rng = np.random.default_rng(31)
    yield np.linspace(0.0, TAIL_END, 800_001, endpoint=False)
    # cephes switches branch at x = u / sqrt(2) = sqrt(1/2) and at x = 1
    for edge in (1.0, math.sqrt(2.0)):
        yield edge + np.arange(-50, 51) * math.ulp(edge)
    yield np.array([0.0, 5e-324, 2.2e-308, 1e-300, 1e-8, np.nextafter(TAIL_END, 0.0)])
    for scale in (1.0, 3.0, 6.0):
        for _ in range(5):
            u = np.abs(rng.standard_normal(200_000)) * scale
            yield u[u < TAIL_END]


def test_cdf_matches_scipy_ndtr_to_4_ulp():
    """normal_tail(u) against scipy.special.ndtr(-u) on [0, 8 sqrt(2)): within
    4 ulp where scipy's value is >= 1e-300 (everywhere: the smallest is about
    6e-30), NaN for NaN, and no RuntimeWarning."""
    worst = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in _tail_accuracy_inputs():
            got, ref = normal_tail(u), ndtr(-u)
            assert ref.min() >= 1e-300
            worst = max(worst, int(np.abs(got.view(np.int64) - ref.view(np.int64)).max()))
        got = normal_tail(np.array([np.nan, 1.0, np.nan]))
    assert np.array_equal(np.isnan(got), [True, False, True])
    assert worst <= 4


# -- closed-form probability maps --------------------------------------------

def test_probit_equal_rows_give_uniform():
    head = np.ones((4, 3)) * 0.7
    p = probit_weak_probs(head, np.array([1.0, -2.0, 0.3]), np.eye(3), 0.5)
    assert np.allclose(p, 0.25, atol=1e-12)


def test_probit_large_margin_limit():
    head = np.array([[10.0, 0.0], [0.0, 0.0]])
    p = probit_weak_probs(head, np.array([5.0, 0.0]), np.zeros((2, 2)), 0.0)
    assert p[0] > 0.999999


def test_probit_lambda_zero_two_class_is_probit_of_margin():
    head = np.array([[1.0, 0.0], [0.0, 0.0]])
    a = np.array([0.8, -0.3])
    p = probit_weak_probs(head, a, np.zeros((2, 2)), 0.0)
    margin = head[0] @ a - head[1] @ a
    assert abs(p[0] - ndtr(DEFAULT_BETA * margin)) < 1e-12


def test_probit_close_to_softmax_at_lambda_zero():
    # absolute per-coordinate budget for the shipped default slope, small l
    rng = np.random.default_rng(6)
    for l in (2, 3, 4):
        worst = 0.0
        for _ in range(3000):
            z = rng.uniform(-6, 6, size=l)
            head = np.eye(l)
            p = probit_weak_probs(head, z, np.zeros((l, l)), 0.0)
            worst = max(worst, np.abs(p - softmax(z)).max())
        assert worst <= 0.03, (l, worst)


def test_probit_matches_mc_expected_softmax():
    rng = np.random.default_rng(77)
    for case in range(3):
        l, d_f = 3, 8
        head = rng.standard_normal((l, d_f)) * 0.35
        a = rng.standard_normal(d_f) * 0.45
        cov = np.cov(rng.standard_normal((40, d_f)).T, bias=True)
        lam = 0.05
        chol = np.linalg.cholesky(lam * cov + 1e-15 * np.eye(d_f))
        draws = a + rng.standard_normal((200_000, d_f)) @ chol.T
        p_mc = softmax(draws @ head.T, axis=1).mean(axis=0)
        p_cf = probit_weak_probs(head, a, cov, lam, BETA_RELATIVE)
        assert (np.abs(p_cf - p_mc) / p_mc).max() < 0.02


def test_probit_batch_matches_single():
    rng = np.random.default_rng(9)
    head = rng.standard_normal((3, 4))
    feats = rng.standard_normal((5, 4))
    cov = np.cov(rng.standard_normal((20, 4)).T, bias=True)
    batch = probit_weak_probs(head, feats, cov, 0.03)
    for i in range(5):
        single = probit_weak_probs(head, feats[i], cov, 0.03)
        assert np.allclose(batch[i], single)
    # per-row covariances picked from a stack
    covs = np.stack([cov, 3.0 * cov, np.eye(4)])
    classes = np.array([2, 0, 1, 1, 2])
    rows = probit_weak_probs(head, feats, covs, 0.03, classes=classes)
    for i in range(5):
        single = probit_weak_probs(head, feats[i], covs[classes[i]], 0.03)
        assert np.abs(rows[i] - single).max() <= 1e-15


def _full_probit(head, feats, cov, lam, beta=DEFAULT_BETA, classes=None):
    """The probit map over every ordered class pair, a (B, l, l) array of Phi
    values, as it was first written; returns the probabilities and the
    number of Phi values the 1e-12 clip changed."""
    z = feats @ head.T
    scale = np.sqrt(np.maximum(1.0 + lam * beta * beta * pairwise_quadratic(head, cov),
                               1e-12))
    scale = scale[None] if classes is None else scale[classes]
    raw = ndtr(beta * (z[:, :, None] - z[:, None, :]) / scale)
    phi = np.clip(raw, 1e-12, 1.0 - 1e-12)
    probs = np.clip(1.0 / (-head.shape[0] + (1.0 / phi).sum(axis=2)), 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True), int(np.sum(phi != raw))


@pytest.mark.parametrize("l", [2, 3, 4, 10])
@pytest.mark.parametrize("per_row", [False, True])
def test_probit_pair_form_matches_full_form(l, per_row):
    """One Phi per unordered pair gives the ordered-pair map to rounding
    (largest difference over the largest value), also past the clip."""
    rng = np.random.default_rng(20 + l)
    d = 6
    covs = np.stack([np.cov(rng.standard_normal((30, d)).T, bias=True)
                     for _ in range(l)])
    feats = rng.standard_normal((200, d))
    classes = rng.integers(0, l, size=200) if per_row else None
    cov = covs if per_row else covs[0]
    clipped = 0
    for head_scale in (0.3, 3.0, 30.0):
        head = rng.standard_normal((l, d)) * head_scale
        for lam in (0.0, 0.1):
            ref, n_clip = _full_probit(head, feats, cov, lam, classes=classes)
            got = probit_weak_probs(head, feats, cov, lam, classes=classes)
            clipped += n_clip
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    assert clipped > 0


def test_probit_rejects_non_finite():
    with pytest.raises(ValueError):
        probit_weak_probs(np.eye(2), np.array([np.inf, 0.0]), np.eye(2), 0.1)


def test_shifted_softmax_lambda_zero_is_softmax():
    rng = np.random.default_rng(10)
    for _ in range(20):
        head = rng.standard_normal((4, 5))
        a = rng.standard_normal(5)
        cov = np.cov(rng.standard_normal((30, 5)).T, bias=True)
        probs = shifted_softmax_probs(head, a, cov, 0.0)
        assert np.abs(probs - softmax(head @ a)).max() < 1e-12


def test_shifted_softmax_hand_case():
    head = np.array([[1.0, 0.0], [0.0, 0.0]])
    a = np.array([1.0, 0.0])
    probs = shifted_softmax_probs(head, a, np.eye(2), 2.0)
    assert probs.shape == (2,)
    assert abs(probs[0] - 0.5) < 1e-12


def test_shifted_softmax_jensen_direction():
    rng = np.random.default_rng(11)
    for _ in range(50):
        head = rng.standard_normal((4, 3))
        a = rng.standard_normal(3)
        cov = np.cov(rng.standard_normal((30, 3)).T, bias=True)
        lam = float(rng.uniform(0.0, 0.5))
        probs = shifted_softmax_probs(head, a, cov, lam)
        soft = softmax(head @ a)
        assert np.all(-np.log(probs) >= -np.log(soft) - 1e-12)
    # equality iff all quadratic shifts vanish
    probs = shifted_softmax_probs(head, a, np.zeros((3, 3)), 0.7)
    assert np.abs(probs - softmax(head @ a)).max() < 1e-12


def test_shifted_softmax_log_roundtrip():
    rng = np.random.default_rng(12)
    head = rng.standard_normal((3, 4))
    a = rng.standard_normal(4)
    cov = np.cov(rng.standard_normal((30, 4)).T, bias=True)
    probs = shifted_softmax_probs(head, a, cov, 0.2)
    assert np.allclose(np.exp(-(-np.log(probs))), probs)


def test_pairwise_quadratic_matches_direct():
    rng = np.random.default_rng(13)
    head = rng.standard_normal((5, 3))
    cov = np.cov(rng.standard_normal((30, 3)).T, bias=True)
    q = pairwise_quadratic(head, cov)
    for i in range(5):
        for j in range(5):
            u = head[i] - head[j]
            assert abs(q[i, j] - u @ cov @ u) < 1e-10
    stacked = pairwise_quadratic(head, np.stack([cov, 2.0 * cov]))
    assert stacked.shape == (2, 5, 5)
    assert np.abs(stacked[1] - pairwise_quadratic(head, 2.0 * cov)).max() < 1e-12

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plsp.augment import (AugmentSpec, _augment_images, derive_rng, strong,
                          strong_batch, weak, weak_batch)


# -- per-image reference loop, fed explicit draws --

def _oracle_flip_and_crop(x, pad, flip, top, left):
    h, w = x.shape[:2]
    out = x
    if flip:
        out = out[:, ::-1]
    if pad > 0:
        padded = np.zeros((h + 2 * pad, w + 2 * pad) + x.shape[2:], dtype=x.dtype)
        padded[pad:pad + h, pad:pad + w] = out
        out = padded[top:top + h, left:left + w]
    return np.ascontiguousarray(out)


def _oracle_cutout(x, size, cy, cx):
    if size <= 0:
        return x
    h, w = x.shape[:2]
    top = max(0, cy - size // 2)
    left = max(0, cx - size // 2)
    out = x.copy()
    out[top:min(h, top + size), left:min(w, left + size)] = 0.0
    return out


def _oracle(xs, pad, flips, offsets, size, centres):
    return np.stack([
        _oracle_cutout(_oracle_flip_and_crop(x, pad, f, t, l), size, cy, cx)
        for x, f, (t, l), (cy, cx) in zip(xs, flips, offsets, centres)])


@st.composite
def _image_case(draw):
    n = draw(st.integers(1, 5))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    channels = draw(st.sampled_from([(), (1,), (3,)]))
    pad = draw(st.integers(0, 4))
    size = draw(st.integers(0, min(h, w)))
    flip_prob = draw(st.sampled_from([0.0, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return (n, h, w) + channels, pad, size, flip_prob, seed


@settings(max_examples=300, deadline=None, database=None)
@given(_image_case())
def test_batched_images_equal_per_image_reference(case):
    shape, pad, size, flip_prob, seed = case
    rng = np.random.default_rng(seed)
    n, h, w = shape[:3]
    xs = rng.standard_normal(shape)
    flips = rng.random(n) < flip_prob
    offsets = rng.integers(0, 2 * pad + 1, size=(n, 2))
    centres = rng.integers(0, (h, w), size=(n, 2))
    want = _oracle(xs, pad, flips, offsets, size, centres)
    got = _augment_images(xs, pad, flips, offsets, size, centres)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(_augment_images(xs, pad, flips, offsets),
                          _oracle(xs, pad, flips, offsets, 0, centres))


def test_image_batches_draw_flips_offsets_centres_in_order():
    xs = np.random.default_rng(0).standard_normal((6, 5, 7, 2))
    spec = AugmentSpec(pad=2, cutout_size=3, flip_prob=0.5)
    rng, replay = derive_rng(9, 1), derive_rng(9, 1)
    out = strong_batch(xs, spec, rng)
    flips = replay.random(6) < 0.5
    offsets = replay.integers(0, 5, size=(6, 2))
    centres = replay.integers(0, (5, 7), size=(6, 2))
    assert np.array_equal(out, _oracle(xs, 2, flips, offsets, 3, centres))
    assert rng.bit_generator.state == replay.bit_generator.state
    rng, replay = derive_rng(9, 2), derive_rng(9, 2)
    out = weak_batch(xs, AugmentSpec(pad=2, flip_prob=0.5), rng)
    flips = replay.random(6) < 0.5
    offsets = replay.integers(0, 5, size=(6, 2))
    assert np.array_equal(out, _oracle(xs, 2, flips, offsets, 0, centres))
    assert rng.bit_generator.state == replay.bit_generator.state


def test_single_image_is_a_batch_of_one():
    x = np.random.default_rng(3).standard_normal((6, 5, 2))
    spec = AugmentSpec(pad=1, cutout_size=2)
    assert np.array_equal(strong(x, spec, derive_rng(4, 1)),
                          strong_batch(x[None], spec, derive_rng(4, 1))[0])
    assert np.array_equal(weak(x[..., 0], spec, derive_rng(4, 2)),
                          weak_batch(x[None, ..., 0], spec, derive_rng(4, 2))[0])


# -- distribution of the image draws, read back from the outputs --

def _leading_zero_lines(mask):
    """Per image, the count of all-zero lines before the first non-zero one
    along axis 1 of an (n, lines, ...) mask of non-zero pixels."""
    return np.argmax(mask.any(axis=tuple(range(2, mask.ndim))), axis=1)


def _crop_offsets(out, pad):
    """(top, left) of each crop of an all-ones batch: pad minus the leading
    zero rows (columns) plus the trailing ones."""
    nz = out != 0
    tops = pad - _leading_zero_lines(nz) + _leading_zero_lines(nz[:, ::-1])
    cols = nz.swapaxes(1, 2)
    lefts = pad - _leading_zero_lines(cols) + _leading_zero_lines(cols[:, ::-1])
    return tops, lefts


def test_flip_fraction_within_three_se():
    h, w, n, batches = 3, 4, 50, 40
    row = np.arange(1.0, w + 1)
    xs = np.broadcast_to(row, (n, h, w)).copy()
    for flip_prob in (0.0, 0.3, 0.5, 1.0):
        spec = AugmentSpec(pad=0, flip_prob=flip_prob)
        flipped = np.concatenate([
            weak_batch(xs, spec, derive_rng(5, b))[:, 0, 0] == w for b in range(batches)])
        se = np.sqrt(flip_prob * (1 - flip_prob) / flipped.size)
        assert abs(flipped.mean() - flip_prob) <= 3 * se


def test_crop_offsets_uniform_chi_square():
    from scipy.stats import chisquare
    pad, n, batches = 2, 200, 20
    xs = np.ones((n, 6, 5, 1))
    spec = AugmentSpec(pad=pad, flip_prob=0.0)
    pairs = []
    for b in range(batches):
        tops, lefts = _crop_offsets(weak_batch(xs, spec, derive_rng(6, b)), pad)
        pairs.append(tops * (2 * pad + 1) + lefts)
    counts = np.bincount(np.concatenate(pairs), minlength=(2 * pad + 1) ** 2)
    assert counts.size == (2 * pad + 1) ** 2
    assert chisquare(counts).pvalue > 1e-3


def test_cutout_centres_uniform_chi_square():
    from scipy.stats import chisquare
    h, w, n, batches = 4, 5, 100, 30
    spec = AugmentSpec(pad=0, flip_prob=0.0, cutout_size=1)
    xs = np.ones((n, h, w))
    hits = []
    for b in range(batches):
        out = strong_batch(xs, spec, derive_rng(7, b))
        assert np.all((out == 0).sum(axis=(1, 2)) == 1)
        hits.append(np.argmax(out.reshape(n, -1) == 0, axis=1))
    counts = np.bincount(np.concatenate(hits), minlength=h * w)
    assert chisquare(counts).pvalue > 1e-3


def test_images_in_one_batch_do_not_share_draws():
    pad, batches = 2, 2000
    crop, cut = AugmentSpec(pad=pad, flip_prob=0.0), AugmentSpec(pad=0, cutout_size=1)
    xs = np.ones((2, 6, 6))
    same_offsets = same_centre = 0
    for b in range(batches):
        rng = derive_rng(8, b)
        tops, lefts = _crop_offsets(weak_batch(xs, crop, rng), pad)
        same_offsets += tops[0] == tops[1] and lefts[0] == lefts[1]
        out = strong_batch(xs, cut, rng)
        same_centre += np.array_equal(out[0] == 0, out[1] == 0)
    for same, p in ((same_offsets, 1 / (2 * pad + 1) ** 2), (same_centre, 1 / 36)):
        se = np.sqrt(p * (1 - p) / batches)
        assert abs(same / batches - p) <= 3 * se


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def test_flat_path_output_pinned():
    """Pinned digests of the flat path's output: any change to its draws or
    its arithmetic shows here."""
    xs = np.random.default_rng(5).standard_normal((7, 5))
    weak_out = weak_batch(xs, AugmentSpec(), derive_rng(3, 4))
    strong_out = strong_batch(xs, AugmentSpec(), derive_rng(3, 5))
    assert _digest(weak_out) == "7af18aa3bc1a956a"
    assert _digest(strong_out) == "a103e2028c7d9e45"
    assert _digest(weak(xs[0], AugmentSpec(), derive_rng(3, 6))) == "26fe562eefe87c15"
    assert _digest(strong(xs[0], AugmentSpec(), derive_rng(3, 7))) == "4373c86edae7d131"
    assert weak_out[0, :3].tolist() == [-0.8187637172684501, -1.2563955979950523,
                                        -0.12257798257873628]
    assert strong_out[0, :3].tolist() == [-0.782023893908012, -1.3322241904531487,
                                          -0.21345699284886258]


def test_identity_configuration_image():
    img = np.arange(24, dtype=np.float64).reshape(4, 3, 2)
    spec = AugmentSpec(flip_prob=0.0, pad=0)
    out = weak(img, spec, np.random.default_rng(0))
    assert np.array_equal(out, img)


def test_weak_shape_preserved():
    rng = np.random.default_rng(1)
    for shape in [(8, 8, 1), (5, 7, 3), (16,)]:
        x = rng.standard_normal(shape)
        assert weak(x, AugmentSpec(), derive_rng(0, 1)).shape == shape
        assert strong(x, AugmentSpec(cutout_size=2), derive_rng(0, 2)).shape == shape


def test_constant_image_stays_constant_up_to_padding():
    img = np.full((6, 6, 1), 3.5)
    out = weak(img, AugmentSpec(pad=2), np.random.default_rng(3))
    assert set(np.unique(out)) <= {0.0, 3.5}


def test_cutout_zeroes_exact_square_when_inside():
    img = np.ones((12, 12, 1))
    size = 4
    found_exact = False
    for seed in range(60):
        out = strong(img, AugmentSpec(flip_prob=0.0, pad=0, cutout_size=size),
                     np.random.default_rng(seed))
        zeros = int((out == 0).sum())
        assert zeros <= size * size
        ys, xs, _ = np.nonzero(out == 0)
        if zeros == size * size:
            assert ys.max() - ys.min() == size - 1
            assert xs.max() - xs.min() == size - 1
            found_exact = True
    assert found_exact


def test_strong_with_randomness_off_equals_weak():
    img = np.arange(48, dtype=np.float64).reshape(4, 4, 3)
    spec = AugmentSpec(flip_prob=0.0, pad=0, cutout_size=0)
    rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
    assert np.array_equal(strong(img, spec, rng1), weak(img, spec, rng2))
    vec = np.linspace(-1, 1, 9)
    spec = AugmentSpec(weak_jitter=0.0, strong_jitter=0.0, mask_prob=0.0)
    assert np.array_equal(strong(vec, spec, np.random.default_rng(1)),
                          weak(vec, spec, np.random.default_rng(1)))
    assert np.array_equal(weak(vec, spec, np.random.default_rng(2)), vec)


def test_vector_mask_fraction_binomial():
    rng = np.random.default_rng(9)
    spec = AugmentSpec(strong_jitter=0.0, mask_prob=0.2)
    d, n = 32, 10_000
    base = np.ones((n, d))
    out = strong_batch(base, spec, rng)
    frac = (out == 0.0).mean()
    se = np.sqrt(0.2 * 0.8 / (n * d))
    assert abs(frac - 0.2) <= 3 * se


def test_determinism_same_seed_same_output():
    x = np.random.default_rng(0).standard_normal((6, 6, 2))
    spec = AugmentSpec(cutout_size=2)
    a = strong(x, spec, derive_rng(42, 1, 2, 3))
    b = strong(x, spec, derive_rng(42, 1, 2, 3))
    assert np.array_equal(a, b)
    v = np.random.default_rng(1).standard_normal(10)
    a = weak(v, AugmentSpec(), derive_rng(7, 0))
    b = weak(v, AugmentSpec(), derive_rng(7, 0))
    assert np.array_equal(a, b)


def test_weak_strong_substreams_independent():
    v = np.zeros(50)
    xw = weak(v, AugmentSpec(), derive_rng(11, 1, 0, 0))
    xs = strong(v, AugmentSpec(), derive_rng(11, 2, 0, 0))
    assert not np.allclose(xw, xs)


def test_batch_matches_shapes():
    rng = np.random.default_rng(2)
    flat = rng.standard_normal((8, 5))
    assert weak_batch(flat, AugmentSpec(), derive_rng(0, 1)).shape == (8, 5)
    imgs = rng.standard_normal((4, 6, 6, 1))
    assert strong_batch(imgs, AugmentSpec(cutout_size=2), derive_rng(0, 2)).shape \
        == (4, 6, 6, 1)


def test_spec_validation():
    for bad in ({"flip_prob": 1.5}, {"pad": -1}, {"cutout_size": -1},
                {"mask_prob": np.nan}, {"weak_jitter": np.inf},
                {"strong_jitter": np.nan}, {"weak_jitter": -0.1}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            AugmentSpec(**bad)
    with pytest.raises(ValueError):
        strong(np.ones((4, 4, 1)), AugmentSpec(flip_prob=0.0, pad=0, cutout_size=9),
               np.random.default_rng(0))

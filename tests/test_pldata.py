import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import chi2

from plsp import pldata
from plsp.pldata import (BadMagicError, BadVersionError, DatasetFormatError,
                         MaskInvariantError, PLDataset, TruncatedPayloadError,
                         generate_fps, generate_uss, make_blobs, read_dataset,
                         stratified_split, write_dataset)


def fps_exact(l: int, q: float):
    """Enumerate flip vectors over the l-1 irrelevant labels, applying the
    forced-flip and reject-full rules; returns per-position inclusion
    probabilities (ascending irrelevant order) and the exact E[|C|]."""
    probs: dict[frozenset, float] = {}
    for bits in itertools.product([0, 1], repeat=l - 1):
        p = 1.0
        for b in bits:
            p *= q if b else (1.0 - q)
        flipped = frozenset(i for i, b in enumerate(bits) if b)
        if len(flipped) == 0:
            for i in range(l - 1):
                key = frozenset([i])
                probs[key] = probs.get(key, 0.0) + p / (l - 1)
        elif len(flipped) == l - 1:
            continue  # would be the full label set: resampled
        else:
            probs[flipped] = probs.get(flipped, 0.0) + p
    total = sum(probs.values())
    probs = {s: v / total for s, v in probs.items()}
    inclusion = np.array([sum(v for s, v in probs.items() if i in s)
                          for i in range(l - 1)])
    expected_size = 1.0 + sum(v * len(s) for s, v in probs.items())
    return inclusion, expected_size


# -- uniform subset strategy --------------------------------------------------

def test_uss_l3_uniform_chi2():
    rng = np.random.default_rng(123)
    n = 100_000
    masks = generate_uss(np.zeros(n, dtype=int), 3, rng)
    # admissible subsets containing label 0: {0}, {0,1}, {0,2}
    keys = masks[:, 1].astype(int) * 2 + masks[:, 2].astype(int)
    counts = np.bincount(keys, minlength=3)  # keys 0,1,2 ~ {0},{0,2},{0,1}
    assert counts.sum() == n
    expected = n / 3.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.99, df=2), f"chi2 stat {stat}"


def test_uss_contains_truth_never_full():
    rng = np.random.default_rng(5)
    for _ in range(10):
        l = int(rng.integers(3, 7))
        truth = rng.integers(0, l, size=300)
        masks = generate_uss(truth, l, rng)
        assert np.all(masks[np.arange(300), truth])
        assert np.all(masks.sum(axis=1) <= l - 1)
        assert np.all(masks.sum(axis=1) >= 1)


def test_uss_deterministic():
    truth = np.array([0, 1, 2, 1, 0])
    a = generate_uss(truth, 3, np.random.default_rng(99))
    b = generate_uss(truth, 3, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_uss_rejects_binary_label_space():
    with pytest.raises(ValueError):
        generate_uss(np.array([0, 1]), 2, np.random.default_rng(0))


# -- flipping strategy ---------------------------------------------------------

def test_fps_q0_gives_pairs():
    rng = np.random.default_rng(11)
    truth = np.full(5000, 2)
    masks = generate_fps(truth, 4, 0.0, rng)
    assert np.all(masks.sum(axis=1) == 2)
    assert np.all(masks[:, 2])
    # the forced extra label is uniform over {0, 1, 3}
    extra = masks[:, [0, 1, 3]].sum(axis=0)
    assert extra.min() > 5000 / 3 - 4 * np.sqrt(5000 / 3)


def test_fps_expected_size_matches_enumeration():
    rng = np.random.default_rng(21)
    n = 1_000_000
    masks = generate_fps(np.full(n, 1), 4, 0.5, rng)
    _, expected_size = fps_exact(4, 0.5)
    emp = masks.sum(axis=1).mean()
    se = masks.sum(axis=1).std(ddof=1) / np.sqrt(n)
    assert abs(emp - expected_size) < 4 * se + 1e-9, (emp, expected_size)


def test_fps_per_label_inclusion_matches_enumeration():
    rng = np.random.default_rng(31)
    n = 100_000
    l, q, truth_label = 4, 0.35, 1
    masks = generate_fps(np.full(n, truth_label), l, q, rng)
    inclusion, _ = fps_exact(l, q)
    irrelevant = [j for j in range(l) if j != truth_label]
    for pos, j in enumerate(irrelevant):
        p_exact = inclusion[pos]
        emp = masks[:, j].mean()
        se = np.sqrt(p_exact * (1 - p_exact) / n)
        assert abs(emp - p_exact) <= 3 * se, (j, emp, p_exact)


def test_fps_invariants_random():
    rng = np.random.default_rng(41)
    for _ in range(10):
        l = int(rng.integers(3, 7))
        q = float(rng.uniform(0.0, 0.95))
        truth = rng.integers(0, l, size=400)
        masks = generate_fps(truth, l, q, rng)
        sizes = masks.sum(axis=1)
        assert np.all(masks[np.arange(400), truth])
        assert np.all(sizes >= 2)
        assert np.all(sizes <= l - 1)


def test_fps_rejects_q_one():
    with pytest.raises(ValueError):
        generate_fps(np.array([0]), 3, 1.0, np.random.default_rng(0))


# -- blob synthesis ------------------------------------------------------------

def test_blobs_nearest_centroid_oracle():
    rng = np.random.default_rng(51)
    ds = make_blobs(2000, 4, 2, 6.0, rng)
    assert np.all(np.bincount(ds.truth, minlength=4) == 500)
    x = ds.features.astype(np.float64)
    centroids = np.stack([x[ds.truth == j].mean(axis=0) for j in range(4)])
    preds = np.linalg.norm(x[:, None, :] - centroids[None], axis=2).argmin(axis=1)
    assert (preds == ds.truth).mean() >= 0.99


def test_blobs_one_instance_per_class():
    ds = make_blobs(5, 5, 3, 4.0, np.random.default_rng(1))
    assert sorted(ds.truth.tolist()) == [0, 1, 2, 3, 4]


def test_blobs_deterministic_bytes(tmp_path):
    paths = []
    for run in range(2):
        rng = np.random.default_rng(77)
        ds = make_blobs(30, 3, 2, 5.0, rng)
        ds.candidates = generate_uss(ds.truth, 3, np.random.default_rng(78))
        p = tmp_path / f"run{run}.plsp"
        write_dataset(p, ds)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _centers_one_by_one(l, d, separation, rng):
    """The centre placement as it stood when the box widened after 1000 l
    candidates in all; where the first box holds the centres, no run of
    1000 misses comes first, so the two rules agree."""
    side = separation * (np.ceil(l ** (1.0 / d)) + 1.0)
    while True:
        centers = np.empty((0, d))
        for _ in range(1000 * l):
            cand = rng.uniform(0.0, side, size=d)
            if np.all(np.linalg.norm(centers - cand, axis=1) >= separation):
                centers = np.vstack([centers, cand])
                if len(centers) == l:
                    return centers
        side *= 1.5


@pytest.mark.parametrize("l,d", [(3, 2), (4, 2), (10, 2), (30, 2), (7, 3), (4, 64)])
def test_block_placement_matches_one_by_one(l, d):
    """Same centres, and the rng left in the same state, as the reference
    wherever the first box holds the centres."""
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = pldata._place_centers(l, d, 2.5, rng)
        assert np.array_equal(got, _centers_one_by_one(l, d, 2.5, ref_rng))
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("seed", range(3))
def test_placement_widens_a_box_too_tight_for_the_centres(seed):
    # at d = 1, centres 2.5 apart placed at random jam the first box, [0, 22.5),
    # before the eighth fits, so the box widens
    got = pldata._place_centers(8, 1, 2.5, np.random.default_rng(seed))
    gaps = np.abs(got - got[:, 0])[~np.eye(8, dtype=bool)]
    assert np.all(gaps >= 2.5)
    assert got.max() >= 2.5 * 9
    again = pldata._place_centers(8, 1, 2.5, np.random.default_rng(seed))
    assert np.array_equal(got, again)


def test_blobs_with_100_classes_take_under_two_seconds():
    # 100 classes at the CLI's default separation, on a 2-core x86-64 VM: the
    # placement that widened after 1000 l candidates took 0.12-0.16 s, the one
    # that widens after 1000 misses in a row 0.09-0.12 s
    start = time.perf_counter()
    make_blobs(100, 100, 2, 4.0, np.random.default_rng(0))
    assert time.perf_counter() - start < 2.0


def test_blobs_with_1000_classes_take_under_one_and_a_half_seconds():
    # on a 2-core x86-64 VM: 4.3-5.5 s when the first box, too small for 1000
    # centres, widened only after 1000 l candidates; 0.30-0.45 s now
    start = time.perf_counter()
    make_blobs(1000, 1000, 2, 4.0, np.random.default_rng(0))
    assert time.perf_counter() - start < 1.5


def test_blobs_preconditions():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_blobs(2, 3, 2, 5.0, rng)
    with pytest.raises(ValueError):
        make_blobs(10, 3, 1, 5.0, rng)
    with pytest.raises(ValueError):
        make_blobs(10, 3, 2, 0.0, rng)


@pytest.mark.parametrize("separation", [float("nan"), float("inf"), -float("inf")])
def test_blobs_reject_a_non_finite_separation(separation):
    with pytest.raises(ValueError, match="separation must be finite"):
        make_blobs(10, 3, 2, separation, np.random.default_rng(0))


def test_blobs_reject_a_separation_too_large_to_z_score():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="separation 1e[+]160 is too large"):
            make_blobs(50, 4, 2, 1e160, np.random.default_rng(0))


@pytest.mark.parametrize("n_test", [-5, -1, 101])
def test_stratified_split_rejects_a_size_outside_the_dataset(n_test):
    rng = np.random.default_rng(3)
    ds = make_blobs(100, 4, 2, 5.0, rng)
    with pytest.raises(ValueError, match=r"n_test must lie in \[0, 100\]"):
        stratified_split(ds, n_test, rng)


@pytest.mark.parametrize("n_test", [0, 100])
def test_stratified_split_takes_none_or_all(n_test):
    rng = np.random.default_rng(3)
    ds = make_blobs(100, 4, 2, 5.0, rng)
    train, test = stratified_split(ds, n_test, rng)
    assert (train.n, test.n) == (100 - n_test, n_test)


def test_stratified_split_counts():
    rng = np.random.default_rng(3)
    ds = make_blobs(100, 4, 2, 5.0, rng)
    ds.candidates = generate_uss(ds.truth, 4, rng)
    train, test = stratified_split(ds, 20, rng)
    assert train.n + test.n == 100
    assert test.n == 20
    assert np.all(np.bincount(test.truth, minlength=4) == 5)


def test_stratified_split_copies_each_array_once():
    """Splitting 5,000 of 20,000 rows of width 64 allocates the two subsets'
    arrays plus at most 16 bytes per source row (two int64 indices' worth,
    for the masks and the test indices). A second copy of the train
    features would add 192 bytes per row. No output shares memory with the
    source."""
    rng = np.random.default_rng(4)
    ds = make_blobs(20_000, 4, 64, 3.0, rng)
    ds.candidates = generate_fps(ds.truth, 4, 0.3, rng)
    tracemalloc.start()
    try:
        parts = stratified_split(ds, 5_000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [a for part in parts for a in (part.features, part.candidates, part.truth)]
    assert peak < sum(a.nbytes for a in arrays) + 16 * ds.n, peak
    for a, source in zip(arrays, 2 * [ds.features, ds.candidates, ds.truth]):
        assert not np.shares_memory(a, source)


# -- disk format ---------------------------------------------------------------

def _tiny_dataset():
    feats = np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 3.0]], dtype=np.float32)
    cands = np.array([[True, False, True],
                      [False, True, True],
                      [True, True, False]])
    truth = np.array([0, 1, 0], dtype=np.uint32)
    return PLDataset(features=feats, candidates=cands, truth=truth)


def test_roundtrip_bitwise(tmp_path):
    ds = _tiny_dataset()
    p1 = tmp_path / "a.plsp"
    p2 = tmp_path / "b.plsp"
    write_dataset(p1, ds)
    back = read_dataset(p1)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.candidates, ds.candidates)
    assert np.array_equal(back.truth, ds.truth)
    write_dataset(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_image_grid(tmp_path):
    rng = np.random.default_rng(17)
    feats = rng.standard_normal((4, 5, 6, 2)).astype(np.float32)
    truth = np.array([0, 1, 2, 1], dtype=np.uint32)
    ds = PLDataset(features=feats,
                   candidates=generate_uss(truth, 3, rng), truth=truth)
    p = tmp_path / "img.plsp"
    write_dataset(p, ds)
    back = read_dataset(p)
    assert back.feature_shape == (5, 6, 2)
    assert np.array_equal(back.features, ds.features)


def test_roundtrip_without_truth(tmp_path):
    ds = _tiny_dataset()
    ds.truth = None
    p = tmp_path / "nt.plsp"
    write_dataset(p, ds)
    back = read_dataset(p)
    assert back.truth is None
    assert np.array_equal(back.candidates, ds.candidates)


def test_bad_magic(tmp_path):
    p = tmp_path / "x.plsp"
    write_dataset(p, _tiny_dataset())
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    p.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        read_dataset(p)


def test_bad_version(tmp_path):
    p = tmp_path / "x.plsp"
    write_dataset(p, _tiny_dataset())
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(BadVersionError):
        read_dataset(p)


def test_truncated(tmp_path):
    p = tmp_path / "x.plsp"
    write_dataset(p, _tiny_dataset())
    raw = p.read_bytes()
    p.write_bytes(raw[:-5])
    with pytest.raises(TruncatedPayloadError):
        read_dataset(p)


def _mask_word_offset(n=3, d=2):
    # magic 4 + version/flags/n/l (2+2+8+4) + rank 4 + one dim 4 + features 4*n*d
    return 4 + 16 + 4 + 4 + 4 * n * d


def test_full_mask_rejected(tmp_path):
    p = tmp_path / "x.plsp"
    write_dataset(p, _tiny_dataset())
    raw = bytearray(p.read_bytes())
    raw[_mask_word_offset()] = 0b111
    p.write_bytes(bytes(raw))
    with pytest.raises(MaskInvariantError):
        read_dataset(p)


def test_empty_mask_rejected(tmp_path):
    p = tmp_path / "x.plsp"
    write_dataset(p, _tiny_dataset())
    raw = bytearray(p.read_bytes())
    raw[_mask_word_offset()] = 0
    p.write_bytes(bytes(raw))
    with pytest.raises(MaskInvariantError):
        read_dataset(p)


def test_stray_bit_rejected(tmp_path):
    p = tmp_path / "x.plsp"
    write_dataset(p, _tiny_dataset())
    raw = bytearray(p.read_bytes())
    raw[_mask_word_offset()] |= 0b1000  # bit 3 >= l=3
    p.write_bytes(bytes(raw))
    with pytest.raises(MaskInvariantError):
        read_dataset(p)


def test_stray_bit_in_last_mask_word_rejected(tmp_path):
    rng = np.random.default_rng(3)
    for l in (63, 65, 100, 128):
        truth = rng.integers(0, l, size=4)
        ds = PLDataset(features=rng.standard_normal((4, 2)).astype(np.float32),
                       candidates=np.eye(l, dtype=bool)[truth], truth=truth)
        p = tmp_path / f"x{l}.plsp"
        write_dataset(p, ds)
        assert np.array_equal(read_dataset(p).candidates, ds.candidates)
        if l % 64 == 0:
            continue
        raw = bytearray(p.read_bytes())
        last_word = _mask_word_offset(n=4) + 8 * ((l + 63) // 64 - 1)
        raw[last_word + 7] |= 0x80  # bit 63 of the last word lies at or past l
        p.write_bytes(bytes(raw))
        with pytest.raises(MaskInvariantError):
            read_dataset(p)


@pytest.mark.parametrize("l,rows,words", [
    (3, [[0, 2], [1]], [5, 2]),
    (65, [[63, 64], [0, 1, 64]], [1 << 63, 1, 3, 1]),
])
def test_mask_words_hold_label_j_at_bit_j_mod_64_of_word_j_div_64(tmp_path, l, rows,
                                                                  words):
    cands = np.zeros((len(rows), l), dtype=bool)
    for i, labels in enumerate(rows):
        cands[i, labels] = True
    truth = np.array([labels[0] for labels in rows], dtype=np.uint32)
    p = tmp_path / "w.plsp"
    write_dataset(p, PLDataset(np.zeros((len(rows), 2), np.float32), cands, truth))
    start = _mask_word_offset(n=len(rows))
    raw = p.read_bytes()[start:start + 8 * len(words)]
    assert np.frombuffer(raw, dtype="<u8").tolist() == words
    assert np.array_equal(read_dataset(p).candidates, cands)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "x.plsp"
    write_dataset(p, _tiny_dataset())
    p.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(DatasetFormatError, match="trailing"):
        read_dataset(p)


def test_truth_outside_candidates_rejected(tmp_path):
    p = tmp_path / "x.plsp"
    write_dataset(p, _tiny_dataset())
    raw = bytearray(p.read_bytes())
    raw[_mask_word_offset()] = 0b110  # C = {1,2} but truth = 0
    p.write_bytes(bytes(raw))
    with pytest.raises(MaskInvariantError):
        read_dataset(p)


def test_write_rejects_invalid_dataset(tmp_path):
    ds = _tiny_dataset()
    ds.candidates[0] = True  # full set
    with pytest.raises(MaskInvariantError):
        write_dataset(tmp_path / "bad.plsp", ds)


@pytest.mark.parametrize("truth,error", [
    ([0, -1, 1], "truth label out of range"),   # -1 would index the last column
    ([0, 1], r"truth has shape \(2,\), need \(3,\)"),
    ([0., 1., 2.], "truth has dtype float64, need an integer dtype"),  # not IndexError
])
def test_write_rejects_a_truth_it_could_not_read_back(tmp_path, truth, error):
    ds = _tiny_dataset()
    ds.truth = np.array(truth)
    with pytest.raises(ValueError, match=error):
        write_dataset(tmp_path / "bad.plsp", ds)
    assert not (tmp_path / "bad.plsp").exists()


def test_write_rejects_a_zero_feature_dimension(tmp_path):
    ds = _tiny_dataset()
    ds.features = np.zeros((ds.n, 0), dtype=np.float32)
    with pytest.raises(ValueError, match="zero dimension"):
        write_dataset(tmp_path / "bad.plsp", ds)
    assert not (tmp_path / "bad.plsp").exists()


def test_serialization_bijective_on_random_datasets(tmp_path):
    rng = np.random.default_rng(97)
    for trial in range(15):
        l = int(rng.integers(3, 70))  # spans multiple 64-bit mask words
        n = int(rng.integers(1, 40))
        with_truth = bool(rng.integers(0, 2))
        truth = rng.integers(0, l, size=n)
        ds = PLDataset(
            features=rng.standard_normal((n, int(rng.integers(1, 6)))).astype(np.float32),
            candidates=generate_uss(truth, l, rng),
            truth=truth.astype(np.uint32) if with_truth else None,
        )
        p1 = tmp_path / f"r{trial}a.plsp"
        p2 = tmp_path / f"r{trial}b.plsp"
        write_dataset(p1, ds)
        back = read_dataset(p1)
        write_dataset(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.candidates, ds.candidates)
        if with_truth:
            assert np.array_equal(back.truth, ds.truth)
        else:
            assert back.truth is None

"""Property tests of the two file formats: random `.plsp` datasets and `.plsw`
checkpoints round-trip bit for bit, and a file corrupted by truncation, a
wrong magic or version, or appended bytes makes `plsp eval` exit 3."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from plsp.evalcli import cli_main
from plsp.model import (CHECKPOINT_MAGIC, init_classifier, load_checkpoint,
                        save_checkpoint)
from plsp.pldata import MAGIC, PLDataset, generate_uss, read_dataset, write_dataset

PROPERTY = settings(max_examples=100, deadline=None, database=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # module-scoped: hypothesis reruns the test body without resetting fixtures
    return tmp_path_factory.mktemp("formats")


@st.composite
def datasets(draw) -> PLDataset:
    """Flat (n, d) or image-grid (n, H, W[, C]) float32 features, with any
    float32 values, 3..70 classes (up to two mask words), truth or none."""
    l = draw(st.integers(3, 70))
    n = draw(st.integers(0, 12))
    dims = draw(st.one_of(st.tuples(st.integers(1, 6)),
                          st.tuples(st.integers(1, 5), st.integers(1, 5)),
                          st.tuples(st.integers(1, 4), st.integers(1, 4),
                                    st.integers(1, 3))))
    features = draw(arrays(np.float32, (n, *dims), elements=st.floats(width=32)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = rng.integers(0, l, size=n)
    return PLDataset(features=features, candidates=generate_uss(truth, l, rng),
                     truth=truth.astype(np.uint32) if draw(st.booleans()) else None)


@st.composite
def classifiers(draw):
    """Checkpoints of 0..3 hidden layers, every width 1..8."""
    widths = draw(st.lists(st.integers(1, 8), max_size=3))
    input_dim, n_classes = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return init_classifier(input_dim, tuple(widths), n_classes, rng)


@st.composite
def corruptions(draw, magic: bytes):
    """A function that corrupts a file's bytes: a truncation, another magic
    or version, or appended bytes."""
    how = draw(st.sampled_from(["truncate", "magic", "version", "append"]))
    if how == "truncate":
        cut = draw(st.floats(0.0, 1.0, exclude_max=True))
        return lambda buf: buf[:int(cut * len(buf))]
    if how == "magic":
        bad = draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != magic))
        return lambda buf: bad + buf[4:]
    if how == "version":
        bad = draw(st.integers(0, 2**16 - 1).filter(lambda v: v != 1))
        return lambda buf: buf[:4] + struct.pack("<H", bad) + buf[6:]
    extra = draw(st.binary(min_size=1, max_size=16))
    return lambda buf: buf + extra


@PROPERTY
@given(datasets())
def test_dataset_roundtrip(workdir, ds):
    first, second = workdir / "a.plsp", workdir / "b.plsp"
    write_dataset(first, ds)
    back = read_dataset(first)
    assert back.features.dtype == np.float32
    assert back.features.shape == ds.features.shape
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.candidates, ds.candidates)
    if ds.truth is None:
        assert back.truth is None
    else:
        assert np.array_equal(back.truth, ds.truth)
    write_dataset(second, back)
    assert first.read_bytes() == second.read_bytes()


@PROPERTY
@given(classifiers())
def test_checkpoint_roundtrip(workdir, params):
    first, second = workdir / "a.plsw", workdir / "b.plsw"
    save_checkpoint(first, params)
    back = load_checkpoint(first)
    assert len(back.layers) == len(params.layers)
    for got, want in zip(back.parameters(), params.parameters()):
        assert got.data.shape == want.data.shape
        assert got.data.tobytes() == want.data.tobytes()
    save_checkpoint(second, back)
    assert first.read_bytes() == second.read_bytes()


def _eval(workdir, ckpt_bytes: bytes, data_bytes: bytes) -> int:
    ckpt, data = workdir / "e.plsw", workdir / "e.plsp"
    ckpt.write_bytes(ckpt_bytes)
    data.write_bytes(data_bytes)
    return cli_main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])


@PROPERTY
@given(datasets(), corruptions(MAGIC))
def test_corrupt_dataset_exits_3(workdir, ds, corrupt):
    path = workdir / "d.plsp"
    write_dataset(path, ds)
    read_dataset(path)  # the intact file parses
    save_checkpoint(workdir / "d.plsw", init_classifier(1, (), 3, np.random.default_rng(0)))
    assert _eval(workdir, (workdir / "d.plsw").read_bytes(), corrupt(path.read_bytes())) == 3


@PROPERTY
@given(classifiers(), corruptions(CHECKPOINT_MAGIC))
def test_corrupt_checkpoint_exits_3(workdir, params, corrupt):
    path = workdir / "c.plsw"
    save_checkpoint(path, params)
    truth = np.arange(4) % 3
    ds = PLDataset(features=np.zeros((4, params.input_dim), dtype=np.float32),
                   candidates=generate_uss(truth, max(3, params.n_classes),
                                           np.random.default_rng(0)),
                   truth=truth.astype(np.uint32))
    write_dataset(workdir / "c.plsp", ds)
    data = (workdir / "c.plsp").read_bytes()
    buf = path.read_bytes()
    # no dataset has fewer than 3 classes, so eval refuses a 1- or 2-class
    # checkpoint as a class-count mismatch
    assert _eval(workdir, buf, data) == (0 if params.n_classes >= 3 else 4)
    assert _eval(workdir, corrupt(buf), data) == 3

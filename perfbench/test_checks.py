"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest perfbench/test_checks.py -q

A check that cannot fail proves nothing, so each one is fed a wrong value
here and must raise.
"""

import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spans  # noqa: E402


def _stream(f1s, losses=None):
    records = [{"epoch": i, "micro_f1": f, "loss_df": 0.0, "loss_sup": 0.0,
                "reg_u": 0.0, "loss_cl": 0.0, "loss_total": 1.0,
                "wall_clock_s": 0.1 * (i + 1), "is_summary": False}
               for i, f in enumerate(f1s)]
    if losses is not None:
        for rec, loss in zip(records, losses):
            rec["loss_total"] = loss
    best = max(records, key=lambda r: r["micro_f1"])
    return records + [{**best, "is_summary": True}]


def test_f1_check_rejects_a_wrong_f1():
    checks.check_f1_matches(0.9, 0.9, 0.9)
    with pytest.raises(checks.CheckFailed):
        checks.check_f1_matches(0.9, 0.902, 0.9)
    with pytest.raises(checks.CheckFailed):
        checks.check_f1_matches(0.9, 0.9, 0.898)


def test_f1_from_checkpoint_matches_hand_count(tmp_path):
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.zeros(2)
    head = np.eye(2)
    path = tmp_path / "m.plsw"
    with open(path, "wb") as fh:
        fh.write(b"PLSW" + struct.pack("<HHI", 1, 0, 3))
        for arr in (w, b, head):
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())
    arrays = checks.read_checkpoint_arrays(path)
    x = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 1.0], [1.0, 4.0]])
    pred = checks.relu_predict(arrays, x)
    assert pred.tolist() == [0, 1, 0, 1]
    assert checks.micro_f1(pred, np.array([0, 1, 1, 1]), 2) == 0.75


def test_floor_rejects_a_low_f1():
    checks.check_f1_floor(_stream([0.85, 0.91]), 0.90)
    with pytest.raises(checks.CheckFailed):
        checks.check_f1_floor(_stream([0.85, 0.89]), 0.90)
    assert checks.f1_floor(0.90, 0.88, 0.03) == pytest.approx(0.85)
    assert checks.f1_floor(0.90, 0.97, 0.03) == 0.90


def test_summary_and_loss_checks():
    checks.check_summary_repeats_best(_stream([0.5, 0.7, 0.6]))
    wrong = _stream([0.5, 0.7, 0.6])
    wrong[-1] = {**wrong[2], "is_summary": True}
    with pytest.raises(checks.CheckFailed):
        checks.check_summary_repeats_best(wrong)
    with pytest.raises(checks.CheckFailed):
        checks.check_losses_finite(_stream([0.5, 0.6], losses=[1.0, float("nan")]))


def test_softmax_bound_checks_reject_violations():
    z = np.array([1.0, 2.0, 0.5])
    plain = checks.softmax(z)
    checks.check_equals_softmax(plain, z)
    checks.check_below_softmax(plain * 0.9, z)
    with pytest.raises(checks.CheckFailed):
        checks.check_below_softmax(plain + np.array([0.0, 1e-6, 0.0]), z)
    with pytest.raises(checks.CheckFailed):
        checks.check_equals_softmax(plain * 0.99, z)
    checks.check_simplex_rows(np.array([[0.2, 0.8], [1.0, 0.0]]))
    with pytest.raises(checks.CheckFailed):
        checks.check_simplex_rows(np.array([[1.1, -0.1]]))
    with pytest.raises(checks.CheckFailed):
        checks.check_simplex_rows(np.array([[0.5, 0.6]]))


def test_verify_check_needs_three_pass_lines():
    ok = "PASS a: x\nPASS b: y\nPASS c: z\nINFO beta\n"
    checks.check_verify_output(0, ok)
    with pytest.raises(checks.CheckFailed):
        checks.check_verify_output(1, ok)
    with pytest.raises(checks.CheckFailed):
        checks.check_verify_output(0, ok.replace("PASS c", "FAIL c"))


def test_clock_free_ignores_only_the_clock():
    a = _stream([0.5, 0.6])
    b = [{**r, "wall_clock_s": 9.0} for r in a]
    dump = lambda recs: "\n".join(__import__("json").dumps(r) for r in recs)
    assert checks.clock_free(dump(a)) == checks.clock_free(dump(b))
    b[0]["micro_f1"] = 0.51
    assert checks.clock_free(dump(a)) != checks.clock_free(dump(b))


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.ss_steps = 2
    for name, start, end, parent in [("trainer.train_ss", 0.0, 10.0, -1),
                                     ("model.forward", 1.0, 3.0, 0),
                                     ("tensorcore.backward", 4.0, 8.0, 0),
                                     ("model.forward", 5.0, 6.0, 2)]:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
    out = spans.summarize(tracer)
    assert out["trainer.self_s"] == 4.0
    assert out["trainer.train_ss_s"] == 10.0
    assert out["model.forward_s"] == 3.0
    assert out["model.forward_calls_per_step"] == 1.0
    assert out["tensorcore.layer_self_s"] == 3.0
    assert out["trace.train_ss_covered_pct"] == 60.0
    layer_total = sum(out[f"{layer}.layer_self_s"] for layer in spans.LAYERS)
    assert layer_total == 10.0

"""One round of a workload, in a fresh process.

A round generates the workload's inputs from the seed, runs the ``plsp``
commands a user runs on them through ``plsp.evalcli.cli_main``, checks every
output with ``checks``, and writes one JSON result to ``--out``. It is started
by ``run.py``, which passes ``time.monotonic()`` read just before it starts
the process as ``--t0``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from plsp import (augment, evalcli, model, objective, pldata,  # noqa: E402
                  semstats, tensorcore, trainer)

MODULES = {"pldata": pldata, "augment": augment, "model": model,
           "semstats": semstats, "objective": objective,
           "tensorcore": tensorcore, "trainer": trainer, "evalcli": evalcli}


class Round:
    """Runs operations and counts them; a failed one is recorded, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def command(self, argv: list[str]) -> tuple[int, str, float]:
        """Run one CLI command; returns (exit code, stdout, seconds)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = evalcli.cli_main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            self.failures.append(f"plsp {argv[0]} exited {code}: {err.getvalue().strip()}")
        return code, out.getvalue(), seconds

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # a broken output may break a check any way
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")


def epoch_rates(text: str, inner_iters: int) -> list[float]:
    """Inner iterations per second of each epoch of a metrics stream."""
    return [inner_iters / r["wall_clock_s"] for r in checks.parse_stream(text)
            if not r.get("is_summary")]


def check_training(rnd: Round, label: str, text: str, ckpt: Path, eval_text: str,
                   test: pldata.PLDataset, floor: float) -> None:
    """The independent checks of one `train` or `df-baseline` output."""
    records = checks.parse_stream(text)

    def f1_matches():
        arrays = checks.read_checkpoint_arrays(ckpt)
        own = checks.micro_f1(checks.relu_predict(arrays, test.flat_features()),
                              test.truth.astype(np.int64), test.l)
        final = [r for r in records if not r.get("is_summary")][-1]
        evaluated = checks.parse_stream(eval_text)[-1]
        checks.check_f1_matches(own, final["micro_f1"], evaluated["micro_f1"])

    rnd.check(f"{label} F1 from checkpoint", f1_matches)
    rnd.check(f"{label} summary line", checks.check_summary_repeats_best, records)
    rnd.check(f"{label} finite losses", checks.check_losses_finite, records)
    rnd.check(f"{label} F1 floor", checks.check_f1_floor, records, floor)


def check_properties(rnd: Round, seed: int) -> None:
    """Shifted-softmax and probit properties on inputs drawn from the seed."""
    rng = np.random.default_rng([seed, 99])
    cases = []
    for n_classes, d_f in ((4, 64), (10, 64), (3, 8)):
        head = rng.standard_normal((n_classes, d_f)) * 0.3
        cloud = rng.standard_normal((3 * d_f, d_f))
        cov = cloud.T @ cloud / len(cloud)
        feats = np.abs(rng.standard_normal((16, d_f)))
        cases.append((head, cov, feats))

    def lambda_zero():
        for head, cov, feats in cases:
            for feat in feats:
                checks.check_equals_softmax(
                    semstats.shifted_softmax_probs(head, feat, cov, 0.0), head @ feat)

    def below_plain():
        for head, cov, feats in cases:
            for lam in (0.01, 0.1, 1.0):
                for feat in feats:
                    checks.check_below_softmax(
                        semstats.shifted_softmax_probs(head, feat, cov, lam), head @ feat)

    def probit_simplex():
        for head, cov, feats in cases:
            for lam in (0.0, 0.01, 1.0):
                checks.check_simplex_rows(semstats.probit_weak_probs(head, feats, cov, lam))

    rnd.check("shifted softmax at lambda=0", lambda_zero)
    rnd.check("shifted softmax below plain", below_plain)
    rnd.check("probit rows on the simplex", probit_simplex)


def run_round(spec: workloads.Workload, seed: int, workdir: Path, t0: float,
              tracer: spans.Tracer) -> dict:
    rnd = Round()
    with tracer.recording():
        train_ds, test_ds = spec.make_data(seed)
        paths = {name: str(workdir / f"{name}.plsp") for name in ("train", "test")}
        pldata.write_dataset(paths["train"], train_ds)
        pldata.write_dataset(paths["test"], test_ds)
        read_back = [pldata.read_dataset(paths[name]) for name in ("train", "test")]
    setup_s = time.monotonic() - t0

    def roundtrip():
        for wrote, read in zip((train_ds, test_ds), read_back):
            checks.require(np.array_equal(wrote.features, read.features)
                           and np.array_equal(wrote.candidates, read.candidates)
                           and np.array_equal(wrote.truth, read.truth),
                           "dataset read back differs from what was written")
    rnd.check("dataset round trip", roundtrip)

    files = {name: str(workdir / name) for name in
             ("plsp.plsw", "plsp.jsonl", "df.plsw", "df.jsonl")}
    data = ["--data", paths["train"], "--test", paths["test"]]

    def timed(argv):
        with tracer.recording():
            return rnd.command(argv)

    _, _, train_s = timed(["train", *data, "--out", files["plsp.plsw"],
                           "--metrics", files["plsp.jsonl"], *spec.train_args])
    timed(["df-baseline", *data, "--out", files["df.plsw"],
                        "--metrics", files["df.jsonl"], *spec.df_args])
    verify_code, verify_text, verify_s = timed(["verify", *spec.verify_args])
    _, eval_plsp, _ = rnd.command(["eval", "--checkpoint", files["plsp.plsw"],
                                   "--data", paths["test"]])
    _, eval_df, _ = rnd.command(["eval", "--checkpoint", files["df.plsw"],
                                 "--data", paths["test"]])

    reference = checks.nearest_mean_accuracy(
        train_ds.features, train_ds.truth, test_ds.features, test_ds.truth, test_ds.l)
    streams = {}
    for label, ckpt, eval_text, stated in (
            ("plsp", "plsp.plsw", eval_plsp, spec.f1_floor),
            ("df", "df.plsw", eval_df, spec.df_f1_floor)):
        floor = checks.f1_floor(stated, reference, spec.f1_margin)
        stream = Path(files[f"{label}.jsonl"])
        text = stream.read_text(encoding="utf-8") if stream.exists() else ""
        streams[label] = text
        check_training(rnd, label, text, Path(files[ckpt]), eval_text, test_ds,
                       floor)
    rnd.check("verify PASS lines", checks.check_verify_output, verify_code, verify_text)
    check_properties(rnd, seed)

    digest = hashlib.sha256(verify_text.encode())
    for text in (streams["plsp"], streams["df"], eval_plsp, eval_df):
        try:
            digest.update(checks.clock_free(text).encode())
        except ValueError:  # not JSON lines: a check above has failed already
            digest.update(text.encode())

    def rates(label, iters):
        try:
            return epoch_rates(streams[label], iters)
        except (ValueError, KeyError, ZeroDivisionError):
            return []

    def best_f1(label):
        try:
            return max(r["micro_f1"] for r in checks.parse_stream(streams[label]))
        except (ValueError, KeyError):
            return None

    return {
        "attempted": rnd.attempted,
        "failures": rnd.failures,
        "digest": digest.hexdigest(),
        "best_micro_f1": {label: best_f1(label) for label in streams},
        # samples of each end-to-end metric: one a round, or one an epoch
        "metrics": {
            "setup_s": [setup_s],
            "train_s": [train_s],
            "ss_steps_per_s": rates("plsp", spec.inner_iters),
            "df_steps_per_s": rates("df", spec.df_inner_iters),
            "verify_s": [verify_s],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the process was started")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer()
    if args.trace:
        tracer.install(MODULES)
    try:
        result = run_round(workloads.WORKLOADS[args.workload], args.seed, workdir,
                           args.t0, tracer)
    except Exception:  # report the round as failed instead of dying silently
        result = {"attempted": 1, "failures": [traceback.format_exc()],
                  "digest": "", "metrics": {}}
    if args.trace:
        tracer.uninstall()
        result["layers"] = spans.summarize(tracer)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

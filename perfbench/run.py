"""plsp benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload desk-blobs --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run repeats whole rounds, each a fresh
``worker.py`` process that sets up the inputs from the seed, runs the
commands and checks their outputs, until the next round would pass
``--seconds``. It prints the environment, one line per round, and as its last
line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics (medians over the rounds) with
``--trace 0``, the per-layer metrics of the traced rounds with ``--trace 1``.
A traced run alternates traced and untraced rounds so that it can state the
tracing overhead on ``train_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0   # the whole run, set-up to last line

END_TO_END = {"setup_s": "s", "train_s": "s", "ss_steps_per_s": "1/s",
              "df_steps_per_s": "1/s", "verify_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k == "PLSP_THREADS"},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_round(args, workdir: Path, traced: bool, budget_s: float) -> dict:
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--workdir", str(workdir), "--out", str(out)]
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT,
                              capture_output=True, text=True, timeout=budget_s)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"attempted": 1, "failures": ["round timed out"], "metrics": {}}
    if proc.returncode != 0 or not out.exists():
        return {"attempted": 1, "metrics": {},
                "failures": [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    return json.loads(out.read_text())


def median_of(rounds: list[dict], key: str, field: str = "metrics") -> float:
    """Median of a metric's samples pooled over rounds."""
    values = [r[field][key] for r in rounds]
    if isinstance(values[0], list):
        values = [v for round_values in values for v in round_values]
    return statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="plsp benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "plsp" / "__init__.py").is_file():
        print(f"no plsp sources under {ROOT / 'src'}: run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    print("ENV " + json.dumps(environment(), sort_keys=True), flush=True)
    base = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(base, ignore_errors=True)
    rounds: list[dict] = []
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            elapsed = time.monotonic() - start
            t_round = time.monotonic()
            result = run_round(args, base / f"round{len(rounds)}", traced,
                               DEADLINE_S - elapsed)
            result["seconds"] = time.monotonic() - t_round
            result["traced"] = traced
            rounds.append(result)
            print("ROUND " + json.dumps(
                {k: result.get(k) for k in ("traced", "seconds", "attempted", "failures",
                                             "digest", "best_micro_f1", "metrics")}),
                flush=True)
            elapsed = time.monotonic() - start
            typical = statistics.median(r["seconds"] for r in rounds)
            if result["failures"] and not result["metrics"]:
                break
            if len(rounds) >= (2 if args.trace else 1) and \
                    (elapsed + typical > args.seconds or elapsed + typical > DEADLINE_S):
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if base.parent.exists() and not any(base.parent.iterdir()):
            base.parent.rmdir()

    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds) + 1
    digests = {r.get("digest") for r in rounds}
    if len(digests) != 1:
        failures.append(f"clock-free outputs differ between rounds: {sorted(digests)}")
    for f in failures:
        print("FAILED " + f.replace("\n", " | "), file=sys.stderr)
    complete = [r for r in rounds if all(r["metrics"].get(k) for k in END_TO_END)]
    metrics = {}
    if complete:
        if args.trace:
            traced = [r for r in complete if r["traced"] and "layers" in r]
            plain = [r for r in complete if not r["traced"]]
            for key in traced[0]["layers"] if traced else ():
                metrics[key] = median_of(traced, key, "layers")
            if traced and plain:
                metrics["trace.overhead_s"] = (median_of(traced, "train_s")
                                               - median_of(plain, "train_s"))
        else:
            for key in END_TO_END:
                metrics[key] = median_of(complete, key)
    from spans import UNITS
    units = dict(END_TO_END, **UNITS)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

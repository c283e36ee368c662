"""Digests of a fixed set of deterministic ``plsp`` commands.

    PYTHONPATH=src python scripts/cli_digests.py OUTDIR

Runs each command through ``plsp.evalcli.cli_main``, writing its files into
OUTDIR (new or empty), and prints one ``sha256  name`` line per file written
and per command's stdout, with OUTDIR's path in it replaced by ``OUTDIR``.
Run it on two checkouts and diff the two listings: a change that keeps every
CLI output byte-identical diffs clean. A command that exits non-zero stops
the script with its exit code.

The inputs are small criterion-7-style blobs (4 classes, d = 2, separation
2.75, flip candidates at q = 0.6) from ``plsp generate``, and 8x8x1 grids
built here from 64-dimensional blobs. Uses the standard library and plsp only;
takes well under a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from plsp import augment, pldata
from plsp.evalcli import cli_main

# batches small enough that no pool of the pseudo-split is thinner than its
# batch, except in train-grid-thin
TRAIN = ["--pretrain-epochs", "2", "--ss-epochs", "3", "--inner-iters", "10",
         "--batch-labeled", "16", "--batch-unlabeled", "32", "--hidden-dims", "16,8",
         "--seed", "1", "--deterministic"]


def _write_grids(out: Path) -> None:
    """grid.plsp (240) and grid-test.plsp (60): 4-class blobs in 64
    dimensions, reshaped to 8x8x1 images, with flip candidates at q = 0.3."""
    for name, n, tag in (("grid.plsp", 240, 21), ("grid-test.plsp", 60, 22)):
        ds = pldata.make_blobs(n, 4, 64, 3.0, augment.derive_rng(5, tag))
        ds.features = ds.features.reshape(n, 8, 8, 1)
        ds.candidates = pldata.generate_fps(ds.truth, 4, 0.3,
                                            augment.derive_rng(5, tag, 1))
        pldata.write_dataset(out / name, ds)


def _commands(out: Path):
    """(name, argv) pairs, in run order."""
    def p(name: str) -> str:
        return str(out / name)

    blobs = ["--n", "400", "--n-test", "100", "--classes", "4", "--dim", "2",
             "--separation", "2.75", "--q", "0.6", "--seed", "1"]
    yield "generate-fps", ["generate", "--out", p("blobs.plsp"),
                           "--test-out", p("blobs-test.plsp"), "--strategy", "fps",
                           *blobs]
    yield "generate-uss", ["generate", "--out", p("uss.plsp"), "--test-out",
                           p("uss-test.plsp"), "--strategy", "uss", *blobs]
    for data in ("blobs", "uss", "grid"):
        yield f"train-{data}", [
            "train", "--data", p(f"{data}.plsp"), "--test", p(f"{data}-test.plsp"),
            "--out", p(f"train-{data}.plsw"), "--metrics", p(f"train-{data}.jsonl"),
            "--k", "20", *TRAIN]
        yield f"df-baseline-{data}", [
            "df-baseline", "--data", p(f"{data}.plsp"), "--test",
            p(f"{data}-test.plsp"), "--out", p(f"df-{data}.plsw"),
            "--metrics", p(f"df-{data}.jsonl"), "--epochs", "4", *TRAIN]
    # k * classes = n: the unlabeled pool is thinner than its batch
    yield "train-grid-thin", [
        "train", "--data", p("grid.plsp"), "--test", p("grid-test.plsp"),
        "--out", p("train-grid-thin.plsw"), "--metrics", p("train-grid-thin.jsonl"),
        "--k", "60", *TRAIN]
    yield "pretrain-blobs", ["pretrain", "--data", p("blobs.plsp"),
                             "--out", p("pretrain-blobs.plsw"), *TRAIN]
    yield "eval-blobs", ["eval", "--checkpoint", p("train-blobs.plsw"),
                         "--data", p("blobs-test.plsp"), "--out", p("eval-blobs.jsonl")]
    for data in ("blobs", "grid"):
        yield f"sweep-k-{data}", [
            "sweep-k", "--data", p(f"{data}.plsp"), "--test", p(f"{data}-test.plsp"),
            "--ks", "0,20,400", "--out", p(f"sweep-k-{data}.jsonl"), *TRAIN]
    yield "verify", ["verify", "--seed", "0", "--instances", "6",
                     "--mc-samples", "200000"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_new_files(out: Path, seen: set[str]) -> None:
    for path in sorted(out.iterdir()):
        if path.name not in seen:
            print(f"{_sha256(path.read_bytes())}  {path.name}")
            seen.add(path.name)


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if len(argv) == 1 else None
    if out is None or (out.exists() and any(out.iterdir())):
        print("usage: cli_digests.py OUTDIR (a new or empty directory)", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    seen: set[str] = set()
    _write_grids(out)
    _digest_new_files(out, seen)
    for name, args in _commands(out):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(args)
        if code != 0:
            print(f"{name} exited {code}", file=sys.stderr)
            return code
        text = stdout.getvalue().replace(str(out), "OUTDIR")
        print(f"{_sha256(text.encode())}  {name}.stdout")
        _digest_new_files(out, seen)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

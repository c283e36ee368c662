"""The CLI's output contract across BLAS kernels.

A ``DYNAMIC_ARCH`` OpenBLAS picks its kernels per process, and
``OPENBLAS_CORETYPE`` overrides the pick. Different kernels may sum a
product in a different order, so weights, checkpoints and the loss fields
of metrics files may differ in their last bits between kernels. Datasets,
stdout (F1s included) and ``verify`` output must not: this runs a tiny
``generate``, ``train``, ``eval`` and ``verify`` in child processes under the
host's kernels and under the AVX2 (Haswell) and AVX (Sandybridge) ones, and
compares them. The variable is set on the child processes only.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plsp

CHILD = """
import contextlib, hashlib, io, json
from plsp.evalcli import cli_main
out = {}
for argv in COMMANDS:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    out[argv[0]] = [code, buf.getvalue()]
for name in ("d.plsp", "t.plsp"):
    with open(name, "rb") as f:
        out[name] = hashlib.sha256(f.read()).hexdigest()
print(json.dumps(out))
"""

COMMANDS = [
    ["generate", "--out", "d.plsp", "--test-out", "t.plsp", "--n", "300",
     "--n-test", "100", "--classes", "4", "--seed", "2"],
    ["train", "--data", "d.plsp", "--test", "t.plsp", "--out", "m.plsw",
     "--metrics", "m.jsonl", "--hidden-dims", "16,8", "--pretrain-epochs", "2",
     "--ss-epochs", "2", "--inner-iters", "5", "--batch-labeled", "16",
     "--batch-unlabeled", "32", "--k", "20", "--deterministic"],
    ["eval", "--checkpoint", "m.plsw", "--data", "t.plsp"],
    ["verify", "--instances", "6"],
]


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not _dynamic_openblas(),
                    reason="OPENBLAS_CORETYPE picks kernels only in a DYNAMIC_ARCH "
                           "OpenBLAS on x86-64")
def test_outputs_are_the_same_on_every_blas_kernel(tmp_path):
    runs = {}
    for core in ("host", "Haswell", "Sandybridge"):
        env = dict(os.environ, PYTHONPATH=str(Path(plsp.__file__).parents[1]))
        env.pop("OPENBLAS_CORETYPE", None)
        if core != "host":
            env["OPENBLAS_CORETYPE"] = core
        cwd = tmp_path / core
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", f"COMMANDS = {COMMANDS!r}\n{CHILD}"], cwd=cwd,
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[core] = json.loads(proc.stdout)
    assert [code for code, _ in (runs["host"][c[0]] for c in COMMANDS)] == [0] * 4
    assert runs["Haswell"] == runs["host"]
    assert runs["Sandybridge"] == runs["host"]

"""``scripts/cli_digests.py`` runs every ``plsp`` subcommand on small fixed
inputs and prints one ``sha256  name`` line per file and per command's
stdout; diffing that listing across two checkouts shows which CLI outputs a
change moves. Every check here that needs the CLI's outputs uses it: two
runs print the same 38 lines; a child process with scipy (a test dependency
only) made unimportable prints the same listing; and the outputs the
contract covers are the same on every BLAS kernel.

A ``DYNAMIC_ARCH`` OpenBLAS picks its kernels per process, and
``OPENBLAS_CORETYPE`` overrides the pick, on the child processes only.
Kernels may sum a product in different orders, so weights, checkpoints and
the loss fields of metrics files may differ in their last bits. Datasets,
stdout (F1s included), ``eval``'s and ``sweep-k``'s files and ``verify``
output must not.
"""

import contextlib
import importlib.util
import io
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plsp

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "scripts" / "cli_digests.py"
LINE = re.compile(r"[0-9a-f]{64}  \S+")
# weights and losses: the same only on the same kernel
KERNEL_BOUND = re.compile(r".*\.plsw|(train|df)-.*\.jsonl")
BLOCK_SCIPY = ("import runpy, sys\n"
               "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
               "sys.argv = sys.argv[1:]\n"
               "runpy.run_path(sys.argv[0], run_name='__main__')\n")

_spec = importlib.util.spec_from_file_location("cli_digests", DIGESTS_PATH)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def _in_process(out: Path) -> list[str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert digests.main([str(out)]) == 0
    return stdout.getvalue().splitlines()


def _in_child(out: Path, *, coretype: str | None = None,
              block_scipy: bool = False) -> list[str]:
    """The listing of the script run in a child process. ``coretype`` "host"
    unsets ``OPENBLAS_CORETYPE``, a kernel name sets it, and None leaves the
    environment as it is."""
    env = dict(os.environ, PYTHONPATH=str(Path(plsp.__file__).parents[1]))
    if coretype is not None:
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype != "host":
            env["OPENBLAS_CORETYPE"] = coretype
    prelude = ["-c", BLOCK_SCIPY] if block_scipy else []
    proc = subprocess.run([sys.executable, *prelude, str(DIGESTS_PATH), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def listing(tmp_path_factory):
    return _in_process(tmp_path_factory.mktemp("digests"))


def test_two_digest_runs_print_the_same_38_lines(listing, tmp_path):
    assert len(listing) == 38
    assert all(LINE.fullmatch(line) for line in listing), listing
    assert _in_process(tmp_path) == listing


def test_a_non_empty_outdir_exits_2_and_prints_nothing(tmp_path, capsys):
    (tmp_path / "earlier").write_text("", encoding="utf-8")
    assert digests.main([str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err
    assert [path.name for path in tmp_path.iterdir()] == ["earlier"]


def test_every_command_runs_without_scipy(listing, tmp_path):
    assert _in_child(tmp_path, block_scipy=True) == listing


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not _dynamic_openblas(),
                    reason="OPENBLAS_CORETYPE picks kernels only in a DYNAMIC_ARCH "
                           "OpenBLAS on x86-64")
def test_outputs_are_the_same_on_every_blas_kernel(tmp_path):
    runs = {core: _in_child(tmp_path / core, coretype=core)
            for core in ("host", "Haswell", "Sandybridge")}

    def names(listing):
        return [line.split("  ")[1] for line in listing]

    def contract(listing):
        return [line for line, name in zip(listing, names(listing))
                if not KERNEL_BOUND.fullmatch(name)]

    assert len(runs["host"]) == 38
    assert len(contract(runs["host"])) == 23
    for core, listing in runs.items():
        assert names(listing) == names(runs["host"]), core
        assert contract(listing) == contract(runs["host"]), core

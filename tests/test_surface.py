"""The names the traced benchmark patches, and the package's public names,
must resolve, and a traced run must still see the training loops. A deleted
name would otherwise show up only as an AttributeError in a traced run
(``perfbench/run.py --trace 1``), and a call the tracer cannot see only as a
per-layer metric that reads 0."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import plsp
from plsp.evalcli import cli_main

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_and_is_callable():
    spans = _load_spans()
    modules = {name: importlib.import_module(f"plsp.{name}") for name in spans.LAYERS}
    broken = [f"{span}: {owner}.{attr}"
              for span, targets in spans.SPANS.items()
              for owner, attr in targets
              if not callable(getattr(spans._resolve(modules, owner), attr, None))]
    assert not broken


def test_every_public_name_resolves():
    assert [name for name in plsp.__all__ if not hasattr(plsp, name)] == []


def _ancestors(tracer, idx: int) -> set[str]:
    out = set()
    while tracer.parents[idx] >= 0:
        idx = tracer.parents[idx]
        out.add(tracer.names[idx])
    return out


def test_traced_runs_see_the_training_loops(tmp_path, capsys):
    """A tiny `train` and `df-baseline` under the benchmark's tracer record
    the spans that its per-layer metrics are built from."""
    spans = _load_spans()
    data, test = tmp_path / "d.plsp", tmp_path / "t.plsp"
    assert cli_main(["generate", "--out", str(data), "--test-out", str(test),
                     "--n", "60", "--n-test", "20", "--classes", "3"]) == 0
    small = ["--data", str(data), "--test", str(test), "--hidden-dims", "8",
             "--pretrain-epochs", "1", "--ss-epochs", "1", "--inner-iters", "2",
             "--batch-labeled", "8", "--batch-unlabeled", "16", "--k", "5"]
    modules = {name: importlib.import_module(f"plsp.{name}") for name in spans.LAYERS}
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        with tracer.recording():
            assert cli_main(["train", "--out", str(tmp_path / "m.plsw"),
                             "--metrics", str(tmp_path / "m.jsonl"), *small]) == 0
            assert cli_main(["df-baseline", "--epochs", "1",
                             "--metrics", str(tmp_path / "df.jsonl"), *small]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    within: dict[str, set[str]] = {}  # span name -> names of its enclosing spans
    for i, name in enumerate(tracer.names):
        within.setdefault(name, set()).update(_ancestors(tracer, i))
    for name in ("tensorcore.backward", "semstats.cov_update", "evalcli.metrics_write"):
        assert name in within, name
    assert {"trainer.df_baseline", "trainer.train_ss"} <= within["model.forward"]
    assert "trainer.train_ss" in within["model.predict"]  # trainer.f1_eval_s


def test_traced_verify_sees_the_weak_branch_check(capsys):
    """A tiny `verify` under the benchmark's tracer exits 0 and records the
    weak-branch check, whose hook binds the check's parameters by name."""
    spans = _load_spans()
    modules = {name: importlib.import_module(f"plsp.{name}") for name in spans.LAYERS}
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        with tracer.recording():
            assert cli_main(["verify", "--instances", "1", "--mc-samples", "1000"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert "evalcli.weak_branch_check" in tracer.names


def _imports_in_functions(node, module: str, where: str | None = None):
    """``module.function: name`` for each name imported inside a function
    body, the function being the innermost one around the import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports_in_functions(child, module, child.name)
        elif isinstance(child, (ast.Import, ast.ImportFrom)) and where:
            yield from (f"{module}.{where}: {alias.name}" for alias in child.names)
        else:
            yield from _imports_in_functions(child, module, where)


def test_no_call_time_import_is_left():
    """Imports sit at module level: no function imports at call time."""
    found = [name for path in sorted(Path(plsp.__file__).parent.glob("*.py"))
             for name in _imports_in_functions(
                 ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert found == []


def _unused_imports(tree: ast.Module, module: str) -> list[str]:
    """``module.name`` for each name that ``tree`` imports (``__future__``
    aside) and never reads: not as a name, which covers an attribute's base,
    and not in ``__all__``."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{module}.{name}" for name in bound if name not in read]


def test_only_the_tracer_bindings_are_unused_imports():
    """No linter is installed, so this stands in for an unused-import check.
    The names left are bound only for the span tracer to patch."""
    found = [name for path in sorted(Path(plsp.__file__).parent.glob("*.py"))
             for name in _unused_imports(
                 ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert found == ["evalcli.mc_oracle_reg", "trainer.snapshot_frozen",
                     "trainer.assemble_batch", "trainer.loss_complementary_semantic",
                     "trainer.loss_sup_semantic", "trainer.reg_consistency_semantic",
                     "trainer.weak_cav_pseudo_labels"]


def _run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(plsp.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    proc = _run_python("import sys, plsp.evalcli\n"
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                       tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_m_plsp_runs_the_cli_without_a_warning(tmp_path):
    """``python -m plsp`` loads the CLI module once, so nothing is printed
    to stderr about a module found in ``sys.modules`` before it ran."""
    env = dict(os.environ, PYTHONPATH=str(Path(plsp.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "plsp", "verify", "--instances", "1",
                           "--mc-samples", "1000"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == ""


def test_every_command_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: with it made unimportable, a tiny
    generate, train, df-baseline, eval and verify each exit 0."""
    commands = [
        ["generate", "--out", "d.plsp", "--test-out", "t.plsp", "--n", "60",
         "--n-test", "20", "--classes", "3"],
        ["train", "--data", "d.plsp", "--test", "t.plsp", "--out", "m.plsw",
         "--metrics", "m.jsonl", "--hidden-dims", "8", "--pretrain-epochs", "1",
         "--ss-epochs", "1", "--inner-iters", "2", "--batch-labeled", "8",
         "--batch-unlabeled", "16", "--k", "5"],
        ["df-baseline", "--data", "d.plsp", "--metrics", "df.jsonl", "--epochs", "1",
         "--hidden-dims", "8", "--inner-iters", "2", "--batch-unlabeled", "16"],
        ["eval", "--checkpoint", "m.plsw", "--data", "t.plsp"],
        ["verify", "--instances", "1", "--mc-samples", "1000"],
    ]
    proc = _run_python(
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from plsp.evalcli import cli_main\n"
        f"print('exit codes', [cli_main(argv) for argv in {commands!r}])\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit codes [0, 0, 0, 0, 0]", \
        proc.stdout + proc.stderr

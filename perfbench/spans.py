"""Span tracing from outside the program.

The tracer replaces public functions of the ``plsp`` modules by wrappers that
record a span (name, start, end, parent) around each call. A name is patched
in every module that looks it up, because ``objective``, ``trainer`` and
``evalcli`` bind most of what they call with ``from ... import``. Spans stay
in memory until ``summarize`` turns them into per-layer metrics at the end
of the round.

A span is named ``<layer>.<what>``; the layer is the ``plsp`` module whose
code the span times. Spans named ``trace.*`` time the tracer's own work
(counting autodiff nodes) and belong to no layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

LAYERS = ("pldata", "augment", "model", "semstats", "objective", "tensorcore",
          "trainer", "evalcli")

# span name -> the (module, attribute) pairs it is patched into; a module of
# "Class" form patches a method on that class
SPANS = {
    "pldata.generate": [("pldata", "make_blobs"), ("pldata", "stratified_split"),
                        ("pldata", "generate_fps"), ("pldata", "generate_uss")],
    "pldata.write": [("pldata", "write_dataset")],
    "pldata.read": [("pldata", "read_dataset")],
    "augment.weak": [("augment", "weak_batch")],
    "augment.strong": [("augment", "strong_batch")],
    "model.forward": [("model", "extract_features"),
                      ("objective", "extract_features")],
    "model.eval_forward": [("model.ClassifierParams", "eval_features"),
                           ("model.ClassifierParams", "eval_logits"),
                           ("model.FrozenClassifier", "features"),
                           ("model.FrozenClassifier", "logits_of"),
                           ("model.FrozenClassifier", "probs")],
    "model.predict": [("model.ClassifierParams", "predict")],
    "model.snapshot": [("model", "snapshot_frozen"), ("trainer", "snapshot_frozen"),
                       ("evalcli", "snapshot_frozen")],
    "model.init": [("model", "init_classifier"), ("trainer", "init_classifier"),
                   ("evalcli", "init_classifier")],
    "model.checkpoint_io": [("model", "save_checkpoint"), ("evalcli", "save_checkpoint"),
                            ("model", "load_checkpoint"), ("evalcli", "load_checkpoint")],
    "semstats.cov_update": [("semstats", "update_cov_stats"),
                            ("trainer", "update_cov_stats"),
                            ("evalcli", "update_cov_stats")],
    "semstats.probit": [("semstats", "probit_weak_probs"),
                        ("objective", "probit_weak_probs"),
                        ("evalcli", "probit_weak_probs")],
    "semstats.shifted_softmax": [("semstats", "shifted_softmax_probs"),
                                 ("evalcli", "shifted_softmax_probs")],
    "semstats.sample_semantic": [("semstats", "sample_semantic")],
    "objective.pseudo_split": [("objective", "build_pseudo_split"),
                               ("trainer", "build_pseudo_split")],
    "objective.weak_labels": [("objective", "weak_cav_pseudo_labels"),
                              ("trainer", "weak_cav_pseudo_labels")],
    "objective.loss_df": [("objective", "loss_df"), ("trainer", "loss_df")],
    "objective.loss_sup": [("objective", "loss_sup_semantic"),
                           ("trainer", "loss_sup_semantic"),
                           ("evalcli", "loss_sup_semantic")],
    "objective.reg_consistency": [("objective", "reg_consistency_semantic"),
                                  ("trainer", "reg_consistency_semantic")],
    "objective.loss_cl": [("objective", "loss_complementary_semantic"),
                          ("trainer", "loss_complementary_semantic"),
                          ("evalcli", "loss_complementary_semantic")],
    "objective.shifted_log_probs": [("objective", "shifted_log_probs"),
                                    ("evalcli", "shifted_log_probs")],
    "objective.assemble_batch": [("objective", "assemble_batch"),
                                 ("trainer", "assemble_batch")],
    "objective.mc_oracle": [("objective", "mc_oracle_reg"), ("evalcli", "mc_oracle_reg")],
    "tensorcore.backward": [("tensorcore.Tensor", "backward")],
    "tensorcore.sgd_step": [("tensorcore.SgdOptimizer", "step")],
    "tensorcore.softmax": [("evalcli", "softmax"), ("objective", "softmax")],
    "trainer.train_ss": [("trainer", "train_ss"), ("evalcli", "train_ss")],
    "trainer.pretrain": [("trainer", "pretrain"), ("evalcli", "pretrain")],
    "trainer.df_baseline": [("trainer", "train_df_baseline"),
                            ("evalcli", "train_df_baseline")],
    "evalcli.cli_main": [("evalcli", "cli_main")],
    "evalcli.macro_micro_f1": [("evalcli", "macro_micro_f1")],
    # the one private name: no public function covers writing the stream
    "evalcli.metrics_write": [("evalcli", "_write_metrics")],
    "evalcli.bound_check": [("evalcli", "check_bound_direction")],
    "evalcli.lambda_zero_check": [("evalcli", "check_lambda_zero")],
    "evalcli.weak_branch_check": [("evalcli", "check_weak_branch")],
}


def count_graph_nodes(root) -> int:
    """Autodiff nodes reachable from ``root`` through parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """In-memory span recorder plus the counters measured at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.active = False
        self.node_counts: list[tuple[int, int]] = []  # (backward span, nodes)
        self.ss_steps = 0
        self.mc_draws = 0
        self.mc_bytes = 0
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def recording(self):
        """Record spans of the installed wrappers inside the block only."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def wrap(self, name: str, fn):
        before = self._hooks().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(fn, args, kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if name in ("semstats.sample_semantic", "tensorcore.softmax"):
                self._count_mc_bytes(args, result)
            return result
        return wrapper

    # -- counters taken at span boundaries ---------------------------------

    def _hooks(self):
        return {
            "tensorcore.backward": self._before_backward,
            "trainer.train_ss": self._before_train_ss,
            "evalcli.weak_branch_check": self._before_weak_branch,
            "objective.mc_oracle": self._before_mc_oracle,
        }

    def _before_backward(self, fn, args, kwargs):
        idx = self.open("trace.node_count")
        nodes = count_graph_nodes(args[0])
        self.close(idx)
        self.node_counts.append((len(self.names), nodes))  # next span is backward

    def _before_train_ss(self, fn, args, kwargs):
        config = _bound(fn, args, kwargs)["config"]
        self.ss_steps += config.ss_epochs * config.inner_iters

    def _before_weak_branch(self, fn, args, kwargs):
        call = _bound(fn, args, kwargs)
        self.mc_draws += call["n_samples"] * call["n_cases"]

    def _before_mc_oracle(self, fn, args, kwargs):
        self.mc_draws += 2 * _bound(fn, args, kwargs)["n_samples"]

    def _count_mc_bytes(self, args, result) -> None:
        """Bytes of the Monte-Carlo arrays, computed from the array sizes that
        cross the sampling and softmax calls made inside the MC checks."""
        if not self._inside(("evalcli.weak_branch_check", "objective.mc_oracle")):
            return
        arrays = [a for a in args[:1] if hasattr(a, "nbytes")]
        self.mc_bytes += sum(a.nbytes for a in arrays) + result.nbytes

    def _inside(self, names) -> bool:
        return any(self.names[i] in names for i in self.stack)

    # -- installing ----------------------------------------------------------

    def install(self, modules: dict) -> None:
        for name, targets in SPANS.items():
            for owner_name, attr in targets:
                owner = _resolve(modules, owner_name)
                original = getattr(owner, attr)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _bound(fn, args, kwargs) -> dict:
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    return call.arguments


def _resolve(modules: dict, owner_name: str):
    module, _, cls = owner_name.partition(".")
    owner = modules[module]
    return getattr(owner, cls) if cls else owner


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced round, all times in seconds."""
    n = len(tracer.names)
    names, parents = tracer.names, tracer.parents
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child = [0.0] * n
    up: list[set[str]] = []
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
        up.append(up[p] | {names[p]} if p >= 0 else set())

    def total(*span_names) -> float:
        """Time inside the named spans, counting only the outermost of
        nested ones (eval_logits calls eval_features)."""
        group = set(span_names)
        return sum(dur[i] for i in range(n)
                   if names[i] in group and not up[i] & group)

    def per_ss_step(name) -> float:
        calls = sum(1 for i in range(n)
                    if names[i] == name and "trainer.train_ss" in up[i])
        return calls / max(tracer.ss_steps, 1)

    ss_spans = [i for i in range(n) if names[i] == "trainer.train_ss"]
    ss_total = sum(dur[i] for i in ss_spans)
    ss_nodes = [c for i, c in tracer.node_counts if "trainer.train_ss" in up[i]]
    in_trainer = [any(u.startswith("trainer.") for u in up[i]) for i in range(n)]

    out = {
        "tensorcore.backward_s": total("tensorcore.backward"),
        "tensorcore.nodes_per_step": sum(ss_nodes) / max(len(ss_nodes), 1),
        "tensorcore.sgd_step_s": total("tensorcore.sgd_step"),
        "model.forward_s": total("model.forward"),
        "model.forward_calls_per_step": per_ss_step("model.forward"),
        "model.eval_forward_s": total("model.eval_forward", "model.predict"),
        "objective.loss_sup_s": total("objective.loss_sup"),
        "objective.reg_consistency_s": total("objective.reg_consistency"),
        "objective.loss_cl_s": total("objective.loss_cl"),
        "objective.shifted_log_probs_calls_per_step":
            per_ss_step("objective.shifted_log_probs"),
        "objective.pseudo_split_s": total("objective.pseudo_split"),
        "objective.mc_oracle_s": total("objective.mc_oracle"),
        "semstats.cov_update_s": total("semstats.cov_update"),
        "semstats.probit_s": total("semstats.probit"),
        "semstats.sample_semantic_s": total("semstats.sample_semantic"),
        "augment.weak_s": total("augment.weak"),
        "augment.strong_s": total("augment.strong"),
        "trainer.train_ss_s": ss_total,
        "trainer.self_s": sum(dur[i] - child[i] for i in ss_spans),
        "trainer.f1_eval_s": sum(
            dur[i] for i in range(n) if in_trainer[i]
            and names[i] in ("model.predict", "evalcli.macro_micro_f1")),
        "pldata.generate_s": total("pldata.generate"),
        "pldata.write_s": total("pldata.write"),
        "pldata.read_s": total("pldata.read"),
        "evalcli.weak_branch_check_s": total("evalcli.weak_branch_check"),
        "evalcli.bound_check_s": total("evalcli.bound_check"),
        "evalcli.mc_draws": float(tracer.mc_draws),
        "evalcli.mc_bytes_computed": float(tracer.mc_bytes),
        "evalcli.metrics_write_s": total("evalcli.metrics_write"),
        "trace.train_ss_covered_pct":
            100.0 * sum(child[i] for i in ss_spans) / ss_total if ss_total else 0.0,
    }
    for layer in LAYERS:
        out[f"{layer}.layer_self_s"] = sum(
            dur[i] - child[i] for i in range(n) if names[i].split(".", 1)[0] == layer)
    return out


# per-layer metric names with their units: seconds unless listed here
UNITS = dict.fromkeys([*summarize(Tracer()), "trace.overhead_s"], "s")
UNITS.update({"tensorcore.nodes_per_step": "count",
              "model.forward_calls_per_step": "count",
              "objective.shifted_log_probs_calls_per_step": "count",
              "evalcli.mc_draws": "count",
              "evalcli.mc_bytes_computed": "bytes",
              "trace.train_ss_covered_pct": "%"})

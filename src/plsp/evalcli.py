"""Verification protocols and the experiment CLI.

Subcommands: generate / pretrain / train / eval / verify / sweep-k /
df-baseline. Metrics go out as line-delimited JSON, one record per epoch plus
a final summary line carrying the best-epoch test scores. Exit codes: 2 for
usage errors, 3 for unreadable files, 4 for invalid parameters, and 1 when
a ``verify`` check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import augment, pldata
from .model import init_classifier, load_checkpoint, save_checkpoint, snapshot_frozen
from .objective import (LOG_EPS, _weak_branch, loss_complementary_semantic,
                        loss_sup_semantic, shifted_log_probs)
# Bound here though no check calls it: the benchmark's span tracer
# (perfbench/spans.py) patches this name in this module.
from .objective import mc_oracle_reg  # noqa: F401
from .semstats import (BETA_PI_SQ_OVER_8, BETA_RELATIVE, BETA_SLOPE_MATCHED,
                       ClassCovStats, DEFAULT_BETA, normal_tail, probit_weak_probs,
                       shifted_softmax_probs, update_cov_stats)
from .tensorcore import softmax
from .trainer import (MetricsRecord, TrainConfig, macro_micro_f1, new_classifier,
                      pretrain, train_df_baseline, train_ss)


# -- verification protocols --------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def beta_sup_errors(grid: int = 40001) -> list[tuple[str, float, float]]:
    """Sup |sigmoid(x) - Phi(beta*x)| over [-8, 8] for the slope candidates,
    read on [-8, 0] (both functions map x to 1 - f(-x)) from the first half
    of a ``grid``-point grid; beta * 8 stays inside ``normal_tail``'s domain."""
    x = np.linspace(-8.0, 0.0, grid // 2 + 1)
    sig = 1.0 / (1.0 + np.exp(-x))
    out = []
    for name, beta in [("default", DEFAULT_BETA),
                       ("relative", BETA_RELATIVE),
                       ("slope-matched sqrt(pi/8)", BETA_SLOPE_MATCHED),
                       ("pi^2/8", BETA_PI_SQ_OVER_8)]:
        err = float(np.max(np.abs(sig - normal_tail(-beta * x))))
        out.append((name, beta, err))
    return out


def _random_model(rng: np.random.Generator, n_rows: int):
    """A random 4 -> 12 -> 8 model over 3 classes, and its covariance stats
    filled from the features of ``n_rows`` random rows with random labels."""
    params, stats = init_classifier(4, (12, 8), 3, rng), ClassCovStats(3, 8)
    feats = params.eval_features(rng.standard_normal((n_rows, 4)))
    update_cov_stats(stats, feats, rng.integers(0, 3, size=n_rows))
    return params, stats


def _random_case(rng: np.random.Generator):
    """A live model, frozen copy, populated covariance stats, one instance."""
    params, stats = _random_model(rng, 75)
    l, input_dim = params.n_classes, params.input_dim
    x = rng.standard_normal(input_dim)
    x_weak = x + 0.05 * rng.standard_normal(input_dim)
    x_strong = x + 0.15 * rng.standard_normal(input_dim)
    truth = int(rng.integers(0, l))
    mask = pldata.generate_uss(np.array([truth]), l, rng)[0]
    # nudge the live params so the frozen copy is genuinely distinct
    frozen = snapshot_frozen(params)
    for p in params.parameters():
        p.data += 0.02 * rng.standard_normal(p.data.shape)
    return params, frozen, stats, x_weak, x_strong, mask


def check_lambda_zero(seed: int = 0, n_batches: int = 10,
                      tol: float = 1e-9) -> CheckResult:
    """At zero transformation strength every semantic term must match its
    plain-softmax counterpart. A non-finite deviation fails the check."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_batches):
        params, stats = _random_model(rng, 40)
        l, b = params.n_classes, 6
        x = rng.standard_normal((b, params.input_dim))
        y = rng.integers(0, l, size=b)
        masks = pldata.generate_uss(y, l, rng)

        logp_ref = np.log(softmax(params.eval_logits(x), axis=1))
        sup, _ = loss_sup_semantic(params, stats, x, y, 0.0)
        ref_sup = float(np.mean(-logp_ref[np.arange(b), y]))
        # np.maximum keeps a NaN, which then fails `worst <= tol`
        worst = np.maximum(worst, abs(float(sup.data) - ref_sup))

        comp, _ = loss_complementary_semantic(params, stats, x, masks, y, 0.0)
        probs = np.exp(logp_ref)
        ref_comp = float(np.mean(np.sum(
            np.where(~masks, -np.log(np.maximum(1 - probs, 1e-12)), 0.0), axis=1)))
        worst = np.maximum(worst, abs(float(comp.data) - ref_comp))

        log_ps = shifted_log_probs(params, x, stats.cov(0), 0.0)
        worst = np.maximum(worst, float(np.abs(log_ps.data - logp_ref).max()))
    return CheckResult("lambda-zero-reduction", bool(worst <= tol),
                       f"max deviation {worst:.3e} (tol {tol:g})")


MAX_CHECK_MARGIN = 1.5
# Gauss–Hermite nodes per axis of both references' grids. On the seed-0
# cases 32 and 64 nodes agree to 1.2e-15 on the expected softmax and to
# 2.0e-15 relative on the bound's cross entropy.
GH_NODES = 32
WEAK_BRANCH_REL_TOL = 0.02


# verify reads one grid; a node-count doubling needs a second beside it
@functools.lru_cache(maxsize=2)
def _gauss_hermite_grid(n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n ** dim`` points of a probabilists' Gauss–Hermite grid
    as (dim, points) and their weights, which sum to 1; read-only, as they
    are cached. The nodes are the eigenvalues of the Jacobi matrix and the
    weights the squares of its eigenvectors' first entries (Golub–Welsch)."""
    nodes, vecs = np.linalg.eigh(np.diag(np.sqrt(np.arange(1.0, n)), -1))
    idx = np.indices((n,) * dim).reshape(dim, -1)
    points, weights = nodes[idx], (vecs[0] ** 2)[idx].prod(axis=0)
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


def _centred_logit_grid(head: np.ndarray, a: np.ndarray, cov: np.ndarray,
                        lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The logits head @ (a + e), e ~ N(0, lam * cov), less their mean over
    the l classes, at the points of a Gauss–Hermite grid, class-major as
    (l, points), and the points' weights.

    softmax and log softmax ignore a shift shared by all l logits, so the
    grid spans only the l - 1 directions orthogonal to it: ``basis`` is an
    orthonormal basis of them, and the projected logits basis.T @ z are
    N(proj @ a, lam * proj @ cov @ proj.T) for proj = basis.T @ head. That
    covariance's eigenpairs give its square root, so a singular cov (dead
    features) needs no jitter.
    """
    l = head.shape[0]
    basis = np.linalg.qr(np.eye(l) - 1.0 / l)[0][:, :l - 1]
    proj = basis.T @ head
    vals, vecs = np.linalg.eigh(lam * (proj @ cov @ proj.T))
    root = basis @ (vecs * np.sqrt(np.maximum(vals, 0.0)))
    points, weights = _gauss_hermite_grid(GH_NODES, l - 1)
    return root @ points + (basis @ (proj @ a))[:, None], weights


def _quadrature_softmax_mean(head: np.ndarray, a: np.ndarray, cov: np.ndarray,
                             lam: float) -> np.ndarray:
    """E[softmax(head @ (a + e))], e ~ N(0, lam * cov), by a Gauss–Hermite
    sum over ``_centred_logit_grid``: the weighted softmax columns summed
    with one mat-vec."""
    z, w = _centred_logit_grid(head, a, cov, lam)
    z -= z.max(axis=0)
    np.exp(z, out=z)
    return z @ (w / z.sum(axis=0))


def _quadrature_clamped_ce(head: np.ndarray, a: np.ndarray, cov: np.ndarray,
                           lam: float, target: np.ndarray) -> float:
    """E[-target @ max(log softmax(head @ (a + e)), LOG_EPS)],
    e ~ N(0, lam * cov), by a Gauss–Hermite sum over
    ``_centred_logit_grid``."""
    z, w = _centred_logit_grid(head, a, cov, lam)
    z -= z.max(axis=0)
    z -= np.log(np.exp(z).sum(axis=0))
    return float(-(target @ np.maximum(z, LOG_EPS)) @ w)


def _bound_cases(seed: int, n_instances: int):
    """``check_bound_direction``'s instances, each a ``_random_case`` from
    ``default_rng(seed)`` and its strength."""
    rng = np.random.default_rng(seed)
    lams = [0.01, 0.05, 0.1]
    for i in range(n_instances):
        yield *_random_case(rng), lams[i % len(lams)]


def _bound_ces(params, frozen, stats, x_weak, x_strong, mask,
               lam: float) -> tuple[float, float]:
    """One instance's shifted-softmax cross entropy and the exact expected
    strong-branch cross entropy that it must bound from above, under the
    frozen weak view's label and target, both from the training step's
    ``_weak_branch`` (its gate is not read)."""
    sem, _, targets, _, _ = _weak_branch(frozen.features(x_weak[None]), frozen.head,
                                         stats, mask[None], lam, np.ones(len(mask)))
    cov, target = stats.cov(int(sem[0])), targets[0]
    head = params.head.data
    a_s = params.eval_features(x_strong[None, :])[0]
    p_s = shifted_softmax_probs(head, a_s, cov, lam)
    closed_ce = float(-target @ np.maximum(np.log(np.maximum(p_s, 1e-300)), LOG_EPS))
    return closed_ce, _quadrature_clamped_ce(head, a_s, cov, lam, target)


def check_bound_direction(seed: int, n_instances: int) -> CheckResult:
    """The shifted-softmax cross-entropy term must sit at or above the exact
    expected strong-branch cross entropy (``_bound_ces``), for every one of
    ``n_instances`` random instances from ``default_rng(seed)``. A
    non-finite slack fails its instance."""
    failures = 0
    min_slack = np.inf
    for case in _bound_cases(seed, n_instances):
        closed_ce, exact_ce = _bound_ces(*case)
        slack = closed_ce - exact_ce
        min_slack = np.minimum(min_slack, slack)  # np.minimum keeps a NaN
        if not (np.isfinite(slack) and slack >= 0):
            failures += 1
    return CheckResult(
        "bound-direction",
        failures == 0,
        f"{n_instances - failures}/{n_instances} instances, "
        f"min slack {min_slack:.3e} (K={GH_NODES})",
    )


def _weak_branch_case(rng: np.random.Generator, case: int):
    """One random weak-branch case: head, features, class covariance, strength."""
    l, d_f = 3, 8
    head = rng.standard_normal((l, d_f)) * 0.35
    a = rng.standard_normal(d_f) * 0.45
    z = head @ a
    spread = float(np.abs(z[:, None] - z[None, :]).max())
    if spread > MAX_CHECK_MARGIN:
        head *= MAX_CHECK_MARGIN / spread
    cloud = rng.standard_normal((40, d_f))
    cov = np.cov(cloud.T, bias=True)
    lam = [0.01, 0.05][case % 2]
    return head, a, cov, lam


def check_weak_branch(seed: int, n_samples: int, n_cases: int = 12) -> CheckResult:
    """Closed-form expected softmax vs an exact Gauss–Hermite reference, per
    coordinate.

    Runs at the relative-error-calibrated slope on random 3-class, d_f = 8
    cases at strengths 0.01 and 0.05. Pairwise logit margins are capped at
    MAX_CHECK_MARGIN: that is the ambiguous-instance regime the weak branch
    feeds on, and beyond it the gaussian-vs-logistic tail ratio makes a flat
    relative budget unachievable for any slope. The cases come from
    ``default_rng(seed)``. ``n_samples`` is accepted and not read: the
    reference draws nothing. A non-finite error fails the check.
    """
    case_rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(n_cases):
        head, a, cov, lam = _weak_branch_case(case_rng, case)
        p_ref = _quadrature_softmax_mean(head, a, cov, lam)
        p_cf = probit_weak_probs(head, a, cov, lam, BETA_RELATIVE)
        # np.maximum keeps a NaN, which then fails the tolerance test
        worst = np.maximum(worst, float((np.abs(p_cf - p_ref) / p_ref).max()))
    return CheckResult("weak-branch", bool(worst <= WEAK_BRANCH_REL_TOL),
                       f"max per-coordinate rel err {worst:.4f} "
                       f"(tol {WEAK_BRANCH_REL_TOL:g}, beta={BETA_RELATIVE}, K={GH_NODES})")


def run_verify(seed: int, n_instances: int, mc_samples: int, out=None) -> bool:
    for name, value, least in (("seed", seed, 0), ("n_instances", n_instances, 1),
                               ("mc_samples", mc_samples, 1)):
        if value < least:
            raise ValueError(f"need {name} >= {least}")
    results = [
        check_bound_direction(seed, n_instances),
        check_lambda_zero(seed),
        check_weak_branch(seed, mc_samples),
    ]
    for res in results:
        print(res.line(), file=out)
    for name, beta, err in beta_sup_errors():
        print(f"INFO beta-sup-error {name}: beta={beta:.6f} "
              f"sup|sigmoid-Phi(beta x)|={err:.6f}", file=out)
    return all(r.passed for r in results)


# -- CLI ---------------------------------------------------------------------

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}
_FLAG_ALIASES = {"learning_rate": ("--lr",)}


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"bad boolean {raw!r}")
    return raw.lower() in ("true", "1", "yes")


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(",") if v.strip())


def _value_parser(field: dataclasses.Field):
    """The parser of a settings field's text value, for flags and config
    files alike, chosen by how the field's annotation starts (so
    ``int | None`` parses as int)."""
    parsers = {"bool": _parse_bool, "int": int, "float": float, "tuple": _parse_ints}
    return next(parse for word, parse in parsers.items() if field.type.startswith(word))


def parse_config_file(path) -> dict:
    """`key = value` lines keyed by TrainConfig field names; # starts a comment."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _value_parser(_CONFIG_FIELDS[key])(val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def _from_flags(cls, args, values: dict):
    """``cls`` built from ``values`` overridden by the flags that were set;
    the dataclass supplies every other default."""
    values.update((f.name, getattr(args, f.name)) for f in dataclasses.fields(cls)
                  if getattr(args, f.name, None) is not None)
    return cls(**values)


def build_train_config(args) -> TrainConfig:
    config = getattr(args, "config", None)
    return _from_flags(TrainConfig, args, parse_config_file(config) if config else {})


def build_augment_spec(args) -> augment.AugmentSpec:
    return _from_flags(augment.AugmentSpec, args, {})


def _write_metrics(path, records: list[MetricsRecord]) -> dict:
    """Write the records and a summary line repeating the best-micro-F1 epoch;
    return that epoch's fields for the command's stdout summary. Every line
    is serialised before the file is opened, so a record that cannot be
    written (a non-finite value) raises ValueError and leaves the file as it
    was."""
    best = max(records, key=lambda r: r.micro_f1) if records else None
    summary = [] if best is None else [dataclasses.replace(best, is_summary=True)]
    lines = [rec.to_json_line() + "\n" for rec in records + summary]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    if best is None:
        return {}
    return {"best_epoch": best.epoch, "best_micro_f1": best.micro_f1,
            "best_macro_f1": best.macro_f1}


def _candidates(args, ds: pldata.PLDataset, tag: int) -> np.ndarray:
    """Candidate masks for ``ds`` by ``--strategy``, from rng substream ``tag``."""
    rng = augment.derive_rng(args.seed, tag)
    if args.strategy == "uss":
        return pldata.generate_uss(ds.truth, ds.l, rng)
    return pldata.generate_fps(ds.truth, ds.l, args.q, rng)


def _cmd_generate(args) -> int:
    n_total = args.n + (args.n_test if args.test_out else 0)
    blob_rng = augment.derive_rng(args.seed, 11)
    ds = pldata.make_blobs(n_total, args.classes, args.dim, args.separation,
                           blob_rng)
    if args.test_out:
        train, test = pldata.stratified_split(ds, args.n_test,
                                              augment.derive_rng(args.seed, 12))
        test.candidates = _candidates(args, test, 14)
        pldata.write_dataset(args.test_out, test)
    else:
        train = ds
    train.candidates = _candidates(args, train, 13)
    pldata.write_dataset(args.out, train)
    print(json.dumps({"written": str(args.out), "n": train.n, "l": train.l,
                      "strategy": args.strategy, "q": args.q}))
    return 0


def _train_inputs(args):
    """A training command's datasets, TrainConfig and AugmentSpec, checked
    before any training; defaults stand in for the flags it lacks."""
    ds = pldata.read_dataset(args.data)
    test_ds = pldata.read_dataset(args.test) if getattr(args, "test", None) else None
    if test_ds is not None and (test_ds.l != ds.l
                                or test_ds.feature_shape != ds.feature_shape):
        raise ValueError(f"test set has {test_ds.l} classes of shape "
                         f"{test_ds.feature_shape}; training set has {ds.l} "
                         f"classes of shape {ds.feature_shape}")
    config = build_train_config(args)
    spec = build_augment_spec(args)
    spec.cutout_side(ds.feature_shape)
    spec.grid_pad(ds.feature_shape)
    return ds, test_ds, config, spec


def _cmd_pretrain(args) -> int:
    ds, _, config, _ = _train_inputs(args)
    params = new_classifier(ds, config)
    pretrain(ds, params, config)
    save_checkpoint(args.out, params)
    print(json.dumps({"checkpoint": str(args.out),
                      "epochs": config.pretrain_epochs}))
    return 0


def _cmd_train(args) -> int:
    ds, test_ds, config, spec = _train_inputs(args)
    params = new_classifier(ds, config)
    pretrain(ds, params, config)
    records = train_ss(ds, params, config, test_ds, spec)
    best = _write_metrics(args.metrics, records)
    save_checkpoint(args.out, params)
    print(json.dumps({"checkpoint": str(args.out), "metrics": str(args.metrics),
                      **best}))
    return 0


def _cmd_df_baseline(args) -> int:
    ds, test_ds, config, _ = _train_inputs(args)
    epochs = args.epochs if args.epochs is not None \
        else config.pretrain_epochs + config.ss_epochs
    params = new_classifier(ds, config)
    records = train_df_baseline(ds, params, config, epochs, test_ds)
    best = _write_metrics(args.metrics, records)
    if args.out:
        save_checkpoint(args.out, params)
    print(json.dumps({"metrics": str(args.metrics), "epochs": epochs, **best}))
    return 0


def _cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    ds = pldata.read_dataset(args.data)
    if ds.truth is None:
        raise ValueError("dataset carries no truth labels to evaluate against")
    x = ds.flat_features()
    if (params.input_dim, params.n_classes) != (x.shape[1], ds.l):
        raise ValueError(
            f"checkpoint takes {params.input_dim} input features and {params.n_classes} "
            f"classes; dataset has {x.shape[1]} features and {ds.l} classes")
    preds = params.predict(x)
    macro, micro = macro_micro_f1(preds, ds.truth, ds.l)
    record = MetricsRecord(epoch=0, macro_f1=macro, micro_f1=micro,
                           is_summary=True)
    line = record.to_json_line()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(line)
    return 0


def _cmd_verify(args) -> int:
    ok = run_verify(seed=args.seed, n_instances=args.instances,
                    mc_samples=args.mc_samples)
    return 0 if ok else 1


def _cmd_sweep_k(args) -> int:
    ds, test_ds, config, spec = _train_inputs(args)
    configs = [dataclasses.replace(config, k=k) for k in _parse_ints(args.ks)]
    if not configs:
        raise ValueError("--ks names no k")
    base = new_classifier(ds, config)
    pretrain(ds, base, config)
    lines = []
    for cfg in configs:
        params = base.clone()
        records = train_ss(ds, params, cfg, test_ds, spec)
        best = max(records, key=lambda r: r.micro_f1, default=MetricsRecord(epoch=0))
        final = records[-1] if records else best
        line = {"k": cfg.k, "best_micro_f1": best.micro_f1,
                "best_macro_f1": best.macro_f1, "final_micro_f1": final.micro_f1}
        lines.append(line)
        print(json.dumps(line))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(json.dumps(line) + "\n")
    return 0


def _add_field_flags(p: argparse.ArgumentParser, cls) -> None:
    """--field-name per field of the dataclass ``cls`` (plus --lr); unset
    flags stay None, so config-file values and the dataclass defaults show
    through."""
    for f in dataclasses.fields(cls):
        flags = ["--" + f.name.replace("_", "-"), *_FLAG_ALIASES.get(f.name, ())]
        parse = _value_parser(f)
        if parse is _parse_bool:
            p.add_argument(*flags, dest=f.name, action="store_const", const=True,
                           default=None)
        else:
            p.add_argument(*flags, dest=f.name, type=parse, default=None)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key = value config file")
    _add_field_flags(p, TrainConfig)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plsp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a partially labeled dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--strategy", choices=("uss", "fps"), default="fps")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-out", dest="test_out", default=None)
    p.add_argument("--n-test", dest="n_test", type=int, default=500)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("pretrain", help="disambiguation-free pre-training only")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_pretrain)

    p = sub.add_parser("train", help="full two-stage training")
    p.add_argument("--data", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", required=True)
    _add_config_flags(p)
    _add_field_flags(p, augment.AugmentSpec)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("df-baseline", help="train with the candidate-averaged loss only")
    p.add_argument("--data", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--metrics", required=True)
    p.add_argument("--epochs", type=int, default=None)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_df_baseline)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("verify", help="closed forms vs exact Gauss–Hermite references")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=200_000,
                   help="accepted and not read: no check draws samples")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sweep-k", help="train across a list of per-class k values")
    p.add_argument("--data", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--ks", default="0,50,100,200")
    p.add_argument("--out", default=None)
    _add_config_flags(p)
    _add_field_flags(p, augment.AugmentSpec)
    p.set_defaults(handler=_cmd_sweep_k)
    return parser


def _error_line(exc: Exception, code: int) -> None:
    print(json.dumps({"error": str(exc), "code": code}), file=sys.stderr)


def cli_main(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (pldata.DatasetFormatError, OSError) as exc:
        _error_line(exc, 3)
        return 3
    except ValueError as exc:
        _error_line(exc, 4)
        return 4


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))

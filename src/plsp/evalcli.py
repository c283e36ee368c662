"""Verification protocols and the experiment CLI.

Subcommands: generate / pretrain / train / eval / verify / sweep-k /
df-baseline. Metrics go out as line-delimited JSON, one record per epoch plus
a final summary line carrying the best-epoch test scores. Exit codes: 2 for
usage errors, 3 for unreadable files, 4 for invalid parameters.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import augment, pldata
from .model import init_classifier, load_checkpoint, save_checkpoint, snapshot_frozen
from .objective import (LOG_EPS, loss_complementary_semantic, loss_sup_semantic,
                        mc_oracle_reg, shifted_log_probs)
from .semstats import (BETA_PI_SQ_OVER_8, BETA_RELATIVE, BETA_SLOPE_MATCHED,
                       ClassCovStats, DEFAULT_BETA, probit_weak_probs,
                       shifted_softmax_probs, std_normal_cdf, update_cov_stats)
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
    """Sup |sigmoid(x) - Phi(beta*x)| over [-8, 8] for the slope candidates."""
    x = np.linspace(-8.0, 8.0, grid)
    sig = 1.0 / (1.0 + np.exp(-x))
    out = []
    for name, beta in [("default", DEFAULT_BETA),
                       ("relative", BETA_RELATIVE),
                       ("slope-matched sqrt(pi/8)", BETA_SLOPE_MATCHED),
                       ("pi^2/8", BETA_PI_SQ_OVER_8)]:
        err = float(np.max(np.abs(sig - std_normal_cdf(beta * x))))
        out.append((name, beta, err))
    return out


def _random_case(rng: np.random.Generator, l: int = 3, d_f: int = 8,
                 input_dim: int = 4):
    """A live model, frozen copy, populated covariance stats, one instance."""
    params = init_classifier(input_dim, (12, d_f), l, rng)
    stats = ClassCovStats(l, d_f)
    feats = params.eval_features(rng.standard_normal((25 * l, input_dim)))
    update_cov_stats(stats, feats, rng.integers(0, l, size=feats.shape[0]))
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


def check_bound_direction(seed: int, n_instances: int, n_samples: int) -> CheckResult:
    """The shifted-softmax cross-entropy term must sit above the sampled
    strong-branch estimate minus 3 standard errors, for every instance. A
    non-finite slack fails its instance."""
    rng = np.random.default_rng(seed)
    lams = [0.01, 0.05, 0.1]
    failures = 0
    min_slack = np.inf
    for i in range(n_instances):
        params, frozen, stats, x_weak, x_strong, mask = _random_case(rng)
        lam = lams[i % len(lams)]
        tau = np.full(frozen.n_classes, 0.75)
        est = mc_oracle_reg(params, frozen, stats, x_weak, x_strong, mask,
                            lam, tau, n_samples, rng)
        a_s = params.eval_features(x_strong[None, :])[0]
        p_s = shifted_softmax_probs(params.head.data, a_s, stats.cov(est.sem_label), lam)
        closed_ce = float(-est.target @ np.maximum(np.log(np.maximum(p_s, 1e-300)),
                                                   LOG_EPS))
        slack = closed_ce - (est.strong_ce - 3.0 * est.strong_ce_se)
        min_slack = np.minimum(min_slack, slack)  # np.minimum keeps a NaN
        if not (np.isfinite(slack) and slack >= 0):
            failures += 1
    return CheckResult(
        "bound-direction",
        failures == 0,
        f"{n_instances - failures}/{n_instances} instances, "
        f"min slack {min_slack:.3e} (K={n_samples})",
    )


def check_lambda_zero(seed: int = 0, n_batches: int = 10,
                      tol: float = 1e-9) -> CheckResult:
    """At zero transformation strength every semantic term must match its
    plain-softmax counterpart. A non-finite deviation fails the check."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_batches):
        l, d_f, b = 3, 8, 6
        params = init_classifier(4, (12, d_f), l, rng)
        stats = ClassCovStats(l, d_f)
        feats = params.eval_features(rng.standard_normal((40, 4)))
        update_cov_stats(stats, feats, rng.integers(0, l, size=40))
        x = rng.standard_normal((b, 4))
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
# Rows per block of Monte-Carlo draws: bounds the check's memory at a few MB
# (the (rows, r) block of normals plus an (l, rows) block of logits) whatever
# the sample count.
MC_CHUNK_ROWS = 65_536


def _logit_factor(head: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """An (l, r) matrix F with F @ F.T == W @ W.T for W = head @ chol, where
    r = min(l, d): F = R.T for the R of W.T's QR factorisation."""
    return np.linalg.qr((head @ chol).T, mode="r").T


def _mc_softmax_mean(a: np.ndarray, chol: np.ndarray, head: np.ndarray,
                     n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Mean of softmax(head @ (a + chol @ e)) over ``n_samples`` standard
    normal draws e, taken in blocks of MC_CHUNK_ROWS rows.

    Only the logits' law matters, N(head @ a, W @ W.T) with W = head @ chol,
    so each sample draws r = min(l, d) normals g and forms the logits as
    head @ a + F @ g with F = _logit_factor(head, chol): 3 normals per sample
    in place of d = 8 for the weak-branch check's cases. The blocks consume
    the generator in the same order as one (n_samples, r) draw. The logits
    are laid out class-major as (l, rows), so the softmax's max, exp and sum
    over the l classes are whole-row operations and each block's column sum
    is one mat-vec. Drawing the normals is most of the cost.
    """
    f = _logit_factor(head, chol)
    z0 = (head @ a)[:, None]
    total = np.zeros(head.shape[0])
    for start in range(0, n_samples, MC_CHUNK_ROWS):
        rows = min(MC_CHUNK_ROWS, n_samples - start)
        z = f @ rng.standard_normal((rows, f.shape[1])).T
        z += z0
        z -= z.max(axis=0)
        np.exp(z, out=z)
        total += z @ (1.0 / z.sum(axis=0))
    return total / n_samples


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


def check_weak_branch(seed: int, n_samples: int, n_cases: int = 12,
                      rel_tol: float = 0.02) -> CheckResult:
    """Closed-form expected softmax vs a sampled estimate, per coordinate.

    Runs at the relative-error-calibrated slope on random 3-class, d_f = 8
    cases at strengths 0.01 and 0.05. Pairwise logit margins are capped at
    MAX_CHECK_MARGIN: that is the ambiguous-instance regime the weak branch
    feeds on, and beyond it the gaussian-vs-logistic tail ratio makes a flat
    relative budget unachievable for any slope. All cases come from
    ``default_rng(seed)`` before any sampling, and the draws from
    ``default_rng([seed, 1])``, so the cases do not depend on ``n_samples``.
    A non-finite error fails the check.
    """
    case_rng = np.random.default_rng(seed)
    cases = [_weak_branch_case(case_rng, case) for case in range(n_cases)]
    draw_rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for head, a, cov, lam in cases:
        chol = np.linalg.cholesky(lam * cov + 1e-15 * np.eye(a.size))
        p_mc = _mc_softmax_mean(a, chol, head, n_samples, draw_rng)
        p_cf = probit_weak_probs(head, a, cov, lam, BETA_RELATIVE)
        # np.maximum keeps a NaN, which then fails `worst <= rel_tol`
        worst = np.maximum(worst, float((np.abs(p_cf - p_mc) / p_mc).max()))
    return CheckResult("weak-branch-mc", bool(worst <= rel_tol),
                       f"max per-coordinate rel err {worst:.4f} "
                       f"(tol {rel_tol:g}, beta={BETA_RELATIVE}, K={n_samples})")


def run_verify(seed: int, n_instances: int, mc_samples: int, bound_samples: int,
               out=None) -> bool:
    if n_instances < 1:
        raise ValueError("need n_instances >= 1")
    if mc_samples < 1:
        raise ValueError("need mc_samples >= 1")
    if bound_samples < 1:
        raise ValueError("need bound_samples >= 1")
    out = out if out is not None else sys.stdout
    results = [
        check_bound_direction(seed, n_instances, bound_samples),
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
    x = ds.flat_features().astype(np.float64)
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
                    mc_samples=args.mc_samples,
                    bound_samples=args.bound_samples)
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

    p = sub.add_parser("verify", help="closed-form vs Monte-Carlo checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=200_000)
    p.add_argument("--bound-samples", dest="bound_samples", type=int, default=2000)
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


if __name__ == "__main__":
    main()

"""Partial-label learning with a semi-supervised objective (PLSP).

Pipeline: synthesize partially labeled data, pre-train a small classifier
with the disambiguation-free loss, split instances into pseudo-labeled /
pseudo-unlabeled sets by class activation values, then optimize the combined
objective whose semantic-transformation terms use closed-form expectations
instead of sampling. See ``plsp.evalcli`` for the CLI.
"""

from .pldata import (PLDataset, generate_fps, generate_uss, make_blobs,
                     read_dataset, write_dataset)
from .model import (ClassifierParams, extract_features, init_classifier,
                    load_checkpoint, save_checkpoint, snapshot_frozen)
from .semstats import (ClassCovStats, DEFAULT_BETA, probit_weak_probs,
                       sample_semantic, shifted_softmax_probs, std_normal_cdf,
                       update_cov_stats)
from .objective import (BatchLossReport, PseudoSplit, build_pseudo_split,
                        cav_scores, loss_df, loss_complementary_semantic,
                        loss_sup_semantic, mc_oracle_reg, pseudo_target,
                        reg_consistency_semantic, semantic_batch_loss)
from .trainer import (MetricsRecord, TrainConfig, macro_micro_f1, pretrain,
                      schedule_gamma, schedule_lambda, train_ss, update_tau)
from .evalcli import cli_main

__all__ = [
    "PLDataset", "generate_fps", "generate_uss", "make_blobs", "read_dataset",
    "write_dataset",
    "ClassifierParams", "extract_features", "init_classifier",
    "load_checkpoint", "save_checkpoint", "snapshot_frozen",
    "ClassCovStats", "DEFAULT_BETA", "probit_weak_probs", "sample_semantic",
    "shifted_softmax_probs", "std_normal_cdf", "update_cov_stats",
    "BatchLossReport", "PseudoSplit", "build_pseudo_split", "cav_scores",
    "loss_df", "loss_complementary_semantic", "loss_sup_semantic",
    "mc_oracle_reg", "pseudo_target", "reg_consistency_semantic",
    "semantic_batch_loss",
    "TrainConfig", "pretrain", "schedule_gamma", "schedule_lambda", "train_ss",
    "update_tau",
    "MetricsRecord", "cli_main", "macro_micro_f1",
]

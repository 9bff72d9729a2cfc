"""How the benchmark names and groups what it measures.

`BENCHMARK.json` at the repository root lists the workloads and every
metric's name, unit and bound; `run.py` reports exactly the metrics listed
there, and a test keeps the values it computes and that list in step.

Every workload reports every end-to-end metric, so their names are
workload-neutral.  `NAMED` maps each onto the job-specific name a user of
that workload reads (crops per second for training, trials per second for
eval, and so on).
"""

from __future__ import annotations

# job-specific name of each end-to-end metric, per workload; the p50s are
# recorded under these names only, the trimmed means are the bounded figures
NAMED = {
    "train_desk": {
        "items_per_s": ("train.crops_per_s", "crops/s"),
        "main_ms_tmean": ("train.step_ms_tmean", "ms"),
        "main_ms_p50": ("train.step_ms_p50", "ms"),
        "main_ms_tail": ("train.step_ms_tail", "ms"),
        "aux_us_tmean": ("train.sgd_us_tmean", "us"),
        "aux_us_p50": ("train.sgd_us_p50", "us"),
        "aux_us_tail": ("train.sgd_us_tail", "us"),
    },
    "eval_trials": {
        "items_per_s": ("eval.trials_per_s", "trials/s"),
        "main_ms_tmean": ("eval.embed_ms_tmean", "ms"),
        "main_ms_p50": ("eval.embed_ms_p50", "ms"),
        "main_ms_tail": ("eval.embed_ms_tail", "ms"),
        "aux_us_tmean": ("eval.score_us_tmean", "us"),
        "aux_us_p50": ("eval.score_us_p50", "us"),
        "aux_us_tail": ("eval.score_us_tail", "us"),
    },
}

# tensor-layer span name -> the public ops of dattnet.tensor it covers
TENSOR_GROUPS = {
    "conv2d": ("conv2d",),
    "batch_norm": ("batch_norm",),
    "pool2d": ("pool2d",),
    "matmul": ("matmul",),
    "activation": ("activation",),
    "softmax_over_axis": ("softmax_over_axis",),
    "broadcast_binary": ("broadcast_binary",),
    "reduce": ("sum_over", "mean_over"),
    "view": ("reshape", "transpose", "narrow", "concat"),
    "l2_normalize": ("l2_normalize",),
    "softmax_cross_entropy": ("softmax_cross_entropy",),
    "binary_cross_entropy": ("binary_cross_entropy",),
}

BACKBONE_PARTS = (
    "preprocess", "trunk", "trunk.stage0", "trunk.stage1", "trunk.stage2", "trunk.stage3", "postprocess",
)
BACKBONE_MODES = ("train", "infer")

# spans reported as calls, total ms and self ms
CALL_SPANS = (
    "attention.compute_f_att",
    "attention.self_attention",
    "attention.mutual_attention_grid",
    "scoring.binary_head_scores",
    "scoring.fuse_scores",
    "model.embed_utterance",
    "model.score_records",
    "features.read_fbank",
    "features.segment_utterance",
    "features.pad_or_crop",
    "evaluation.parse_trial_list",
    "evaluation.run_eval",
    "evaluation.compute_eer",
    "evaluation.write_score_csv",
)

TRAINING_SPANS = ("training.build_pair_batch", "training.pair_batch_losses", "training.sgd")

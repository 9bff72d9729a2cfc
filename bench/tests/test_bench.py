"""Tests of the benchmark itself, on TINY_RUN-sized models and inputs.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import TINY, WORKLOAD_CLASSES  # noqa: E402

from dattnet import evaluation  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics that must be non-zero on a workload, and ones that must be zero
USED = {
    "train_desk": ["tensor.backward.ms", "tensor.tape_nodes", "backbone.trunk.stage0.train.fwd_ms",
                   "training.sgd.ms", "train.loss_last", "attention.mutual_attention_grid.calls"],
    "eval_trials": ["model.embed_utterance.ms", "model.embed_segments", "features.read_fbank.calls",
                    "backbone.preprocess.infer.fwd_ms", "evaluation.embed_cache_hit_ratio",
                    "model.score_records.ms", "model.segment_pairs", "scoring.fuse_scores.calls",
                    "evaluation.compute_eer.calls", "evaluation.write_score_csv.ms"],
}
BYPASSED = {
    "train_desk": ["model.embed_utterance.calls", "evaluation.run_eval.calls", "model.load_checkpoint.ms"],
    "eval_trials": ["tensor.backward.ms", "training.sgd.ms", "backbone.preprocess.train.fwd_ms",
                    "training.pair_batch_losses.ms", "train.loss_last"],
}


def tiny_run(name, trace, tmp_path, seed=3):
    workdir = tmp_path / f"{name}-{seed}-{trace}"
    return run.run_workload(name, seed, 0.0, trace, TINY, str(workdir))


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    return {(name, trace): tiny_run(name, trace, tmp) for name in WORKLOADS for trace in (0, 1)}


def test_spec_keeps_to_its_limits():
    doc = SPEC
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert all(unit_re.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert 2 <= len(doc["workloads"]) <= 8 and 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted(records, name):
    untraced, traced = records[(name, 0)], records[(name, 1)]
    assert untraced["correct"] and traced["correct"], untraced["problems"] + traced["problems"]
    assert untraced["attempted"] >= 1 and untraced["failed"] == 0

    # every listed metric is computed, and every computed one is listed
    listed = {m["name"] for m in SPEC["end_to_end"]}
    assert listed <= set(untraced["end_to_end"])
    assert set(untraced["end_to_end"]) - listed <= set(metrics.NAMED[name])
    assert set(traced["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}

    line = json.loads(run.result_line(untraced, 0, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in line["metrics"].values())
    job_names = {job for job, _ in metrics.NAMED[name].values()}
    assert job_names <= set(untraced["named"])

    line = json.loads(run.result_line(traced, 1, SPEC))
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {n: m["value"] for n, m in line["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    assert all(values[n] > 0 for n in USED[name]), {n: values[n] for n in USED[name]}
    assert all(values[n] == 0 for n in BYPASSED[name]), {n: values[n] for n in BYPASSED[name]}
    assert values["trace.units"] == untraced["units"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_nest_and_self_times_are_not_negative(records, name):
    tracer = records[(name, 1)]["tracer"]
    _, parent, start, end = tracer.arrays()
    assert len(parent) > 0
    child = np.nonzero(parent >= 0)[0]
    assert (start[parent[child]] <= start[child]).all()
    assert (end[child] <= end[parent[child]]).all()
    name_id = tracer.arrays()[0]
    assert {tracer.names[i] for i in name_id[parent < 0]} <= {"bench.step", "bench.round"}
    _, own = tracer.self_times()
    assert (own >= -1e-9).all()


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(spans.Tracer, "installed", refuse)
    record = tiny_run("eval_trials", 0, tmp_path)
    assert record["correct"]
    assert spans.installed_wrappers() == []


def test_traced_run_restores_every_target(records):
    # the traced runs of the module fixture have all finished here
    assert spans.installed_wrappers() == []
    tracer = spans.Tracer()
    with tracer.installed():
        assert len(spans.installed_wrappers()) >= len(spans.FUNCTIONS) + len(spans.METHODS)
    assert spans.installed_wrappers() == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_digests(records, tmp_path, name):
    again = tiny_run(name, 0, tmp_path)
    assert again["digests"] == records[(name, 0)]["digests"]
    assert records[(name, 1)]["digests"] == records[(name, 0)]["digests"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_different_seed_changes_inputs(records, tmp_path, name):
    other = tiny_run(name, 0, tmp_path, seed=4)
    assert other["digests"]["inputs"] != records[(name, 0)]["digests"]["inputs"]


def test_failed_check_fails_the_run(tmp_path, monkeypatch):
    write = evaluation.write_score_csv

    def drop_last_row(path, rows):
        write(path, rows[:-1])

    monkeypatch.setattr(evaluation, "write_score_csv", drop_last_row)
    record = tiny_run("eval_trials", 0, tmp_path)
    assert not record["correct"]
    assert any("CSV has" in p for p in record["problems"])
    assert json.loads(run.result_line(record, 0, SPEC))["correct"] is False


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(5) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(120) == 90
    assert run.tail_percentile(199) == 90
    assert run.tail_percentile(900) == 95
    assert run.tail_percentile(24000) == 95


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_train_desk_tunes_the_allocator_as_train_model_does(tmp_path, monkeypatch):
    from dattnet import training

    calls = []
    monkeypatch.setattr(training, "_tune_allocator", lambda: calls.append(1))
    wl = WORKLOAD_CLASSES["train_desk"](3, TINY, str(tmp_path))
    wl.setup()
    assert calls

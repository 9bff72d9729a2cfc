"""dattnet benchmark: desk training and VoxCeleb-shaped eval.

Run from the repository root:

    python3 bench/run.py --workload train_desk --seed 1 --seconds 25 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs every unit
twice, untraced and then with span wrappers installed, and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  A fuller record (provenance, digests, job-specific metric
names, tail percentiles, layer shares) goes to `.bench_out/`.

BLAS thread variables are set to the number of usable cores before numpy
is imported, so the whole run sees one fixed thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import metrics  # standard library only; numpy loads after the thread pins

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Capped at p95: above it, tails of sub-millisecond calls on a shared box
# follow the neighbours' bursts (a p99 read 499-774 us across ten seeds).
TAIL_LADDER = (50, 75, 90, 95)
TRIM = 0.1  # share of samples dropped at each end by trimmed_mean
MAX_PROBLEM_LINES = 20


def load_spec():
    """BENCHMARK.json: the workloads and every metric's name and unit."""
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def pin_blas_threads():
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def tail_percentile(n_guaranteed):
    """Highest ladder percentile with at least 10 of n samples beyond it.

    Chosen from the sample count every run is guaranteed to reach, so the
    same percentile is reported however fast the code under test runs.
    """
    fits = [p for p in TAIL_LADDER if n_guaranteed * (100 - p) / 100 >= 10]
    return max(fits, default=50)


def blas_threads_in_effect():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(name, seed, seconds, trace, n_cores):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "dattnet")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + b"\0" + fh.read())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_effect(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": n_cores,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def trimmed_mean(samples, cut=TRIM):
    """Mean of the samples left after dropping the lowest and highest `cut` share."""
    x = sorted(samples)
    k = int(len(x) * cut)
    return statistics.fmean(x[k : len(x) - k])


def _timer_stats(samples, n_guaranteed, scale):
    """Trimmed mean, median, tail percentile and tail details of per-call seconds, scaled."""
    p = tail_percentile(n_guaranteed)
    percentiles = statistics.quantiles(samples, n=100, method="inclusive")
    return (
        trimmed_mean(samples) * scale,
        statistics.median(samples) * scale,
        percentiles[p - 1] * scale,
        {"percentile": p, "samples": len(samples)},
    )


def end_to_end(wl, setups):
    """Workload-neutral end-to-end metrics plus their tail details.

    The shared machine switches between a fast and a slow speed in episodes
    of 10-20 s, so a run is a mixture of the two.  A median, or any
    quantile, of such a mixture jumps from one level to the other as the
    share of slow seconds changes; a mean moves in proportion to it.  So the
    bounded per-call figures are means, trimmed so that a few stray calls
    (a page-fault storm, a descheduled thread) do not carry them.  The p50s
    are recorded beside them.
    """
    main_tmean, main_p50, main_tail, main_info = _timer_stats(
        wl.main_s, wl.min_units * wl.main_per_unit(), 1e3
    )
    aux_tmean, aux_p50, aux_tail, aux_info = _timer_stats(
        wl.aux_s, wl.min_units * wl.aux_per_unit(), 1e6
    )
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": wl.items() / sum(wl.unit_s),
        "main_ms_tmean": main_tmean,
        "main_ms_p50": main_p50,
        "main_ms_tail": main_tail,
        "aux_us_tmean": aux_tmean,
        "aux_us_p50": aux_p50,
        "aux_us_tail": aux_tail,
    }
    tails = {"main_ms_tail": main_info, "aux_us_tail": aux_info}
    return values, tails


def per_layer_values(tracer, wl, untraced_s):
    """Per-layer metrics of the traced units; untraced_s is the same units untraced."""
    from workloads import TrainDesk

    totals = tracer.totals()

    def get(span):
        return totals.get(span, (0, 0.0, 0.0))

    v = {}
    for g in metrics.TENSOR_GROUPS:
        v[f"tensor.{g}.fwd_ms"] = get(f"tensor.{g}")[1] * 1e3
    bw_calls, bw_s, _ = get("tensor.backward")
    v["tensor.backward.ms"] = bw_s * 1e3
    v["tensor.tape_nodes"] = tracer.counts.get("tensor.tape_nodes", 0) / bw_calls if bw_calls else 0.0
    for mode in metrics.BACKBONE_MODES:
        for part in metrics.BACKBONE_PARTS:
            v[f"backbone.{part}.{mode}.fwd_ms"] = get(f"backbone.{part}.{mode}")[1] * 1e3
    for span in metrics.CALL_SPANS:
        calls, total, own = get(span)
        v[f"{span}.calls"] = calls
        v[f"{span}.ms"] = total * 1e3
        v[f"{span}.self_ms"] = own * 1e3
    v["model.embed_segments"] = tracer.counts.get("model.embed_segments", 0)
    v["model.segment_pairs"] = tracer.counts.get("model.segment_pairs", 0)
    v["model.load_checkpoint.ms"] = get("model.load_checkpoint")[1] * 1e3
    training = isinstance(wl, TrainDesk)
    for span in metrics.TRAINING_SPANS:  # per step; no spans, so 0, on eval
        v[f"{span}.ms"] = get(span)[1] * 1e3 / len(wl.unit_s)
    v["train.loss_last"] = wl.loss_last() if training else 0.0
    # run_eval looks up both utterances of every trial and embeds on a miss
    lookups = 0 if training else 2 * wl.trials
    embeds = get("model.embed_utterance")[0]
    v["evaluation.embed_cache_hit_ratio"] = 1.0 - embeds / lookups if lookups else 0.0
    wall = get(wl.unit)[1]
    v["trace.overhead_pct"] = (sum(wl.unit_s) / untraced_s - 1.0) * 100.0
    v["trace.wall_ms"] = wall * 1e3
    v["trace.units"] = get(wl.unit)[0]
    v["trace.spans"] = len(tracer.name_id)
    return v


def layer_shares(v):
    """Shares of traced wall time that the workload design rests on."""
    wall = v["trace.wall_ms"]
    if wall <= 0:
        return {}
    backbone_train = sum(
        v[f"backbone.{p}.train.fwd_ms"] for p in ("preprocess", "trunk", "postprocess")
    )
    evaluation_self = sum(
        v[f"evaluation.{f}.self_ms"]
        for f in ("parse_trial_list", "run_eval", "compute_eer", "write_score_csv")
    )
    return {
        "backbone_train_plus_backward": (backbone_train + v["tensor.backward.ms"]) / wall,
        "embed_utterance": v["model.embed_utterance.ms"] / wall,
        "score_records_plus_evaluation_self": (v["model.score_records.ms"] + evaluation_self) / wall,
    }


def run_workload(name, seed, seconds, trace, sizes, workdir):
    """Set up, measure and check one workload; returns the full record."""
    import spans
    from workloads import WORKLOAD_CLASSES, lockstep_loop, timed_loop

    cls = WORKLOAD_CLASSES[name]
    os.makedirs(workdir, exist_ok=True)
    setups = []
    for _ in range(1 if trace else sizes.setup_repeats):
        wl = cls(seed, sizes, workdir)
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    if trace:
        traced = cls(seed, sizes, workdir)
        traced.setup()
        tracer = spans.Tracer()
        n_units = lockstep_loop(wl, traced, tracer, seconds)
    else:
        n_units = timed_loop(wl, seconds)
    problems = list(wl.problems)
    e2e, tails = end_to_end(wl, setups)
    record = {
        "digests": {"inputs": wl.inputs.hexdigest(), "outputs": wl.outputs.hexdigest()},
        "end_to_end": e2e,
        "named": {
            job_name: {"value": e2e[key], "unit": unit}
            for key, (job_name, unit) in metrics.NAMED[name].items()
        },
        "tails": tails,
        "units": n_units,
        "setup_samples_s": setups,
    }
    if name == "train_desk":
        record["named"]["train.loss_last"] = {"value": wl.loss_last(), "unit": "nat"}
    else:
        record["named"]["eval.binary_saturated"] = {"value": wl.saturated, "unit": "trials"}
    if trace:
        problems += traced.problems
        if traced.outputs.hexdigest() != wl.outputs.hexdigest():
            problems.append("traced run changed the outputs digest")
        record["per_layer"] = per_layer_values(tracer, traced, sum(wl.unit_s))
        record["shares"] = layer_shares(record["per_layer"])
        record["tracer"] = tracer
    record.update(correct=not problems, problems=problems, attempted=wl.attempted(), failed=wl.failed)
    return record


def result_line(record, trace, spec):
    """The last stdout line: exactly the keys the benchmark contract names."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = record["per_layer"] if trace else record["end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in listed},
    })


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    n_cores = pin_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import dattnet  # noqa: F401
    except ImportError as e:
        print(f"error: cannot import dattnet from {os.path.join(ROOT, 'src')}: {e}", file=sys.stderr)
        return 2
    from workloads import FULL

    out_dir = os.path.join(ROOT, ".bench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["provenance"] = provenance(args.workload, args.seed, args.seconds, args.trace, n_cores)

    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(os.path.join(out_dir, f"spans-{tag}.npz"))
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2, default=float)

    for key, val in record["provenance"].items():
        print(f"# {key}: {val}")
    print(f"# digests: {record['digests']}")
    for name, m in record["named"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, info in record["tails"].items():
        print(f"# {name} is p{info['percentile']} of {info['samples']} samples")
    for name, value in record.get("shares", {}).items():
        print(f"# share of traced wall: {name} {value:.1%}")
    for problem in record["problems"][:MAX_PROBLEM_LINES]:
        print(f"CHECK FAILED: {problem}")
    if len(record["problems"]) > MAX_PROBLEM_LINES:
        print(f"CHECK FAILED: ... {len(record['problems']) - MAX_PROBLEM_LINES} more in the result file")
    print(result_line(record, args.trace, spec))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Finite-difference audit of every backward path.

Two stages, both in float64 with central differences (h=1e-5): isolated
per-op checks, so a defect in one backward cannot hide behind another,
and a whole-model check that perturbs a stratified sample of parameters
under the full pair loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import AttentionParams, compute_f_att, mutual_attention_grid, self_attention
from .backbone import Dense
from .features import generate_synthetic_corpus
from .model import DattModel
from .scoring import BinaryHeadParams, binary_head_scores
from .training import TrainConfig, build_pair_batch, pair_batch_losses

FD_H = 1e-5
# The whole-model loss has millions of relu/max-pool kinks; a probe that
# pushes any pre-activation across zero breaks the central difference, so
# each entry is tried at two widths and keeps the better agreement. Both
# widths stay far above float64 roundoff.
MODEL_FD_H = (1e-6, 3e-7)
TOLERANCE = 1e-4
# A loss evaluated through millions of rounded float64 ops jitters at
# ~1e-13, so the difference quotient carries ~1e-7 of noise. Gradients
# below noise/tol are uncertifiable by this oracle (some truly are zero,
# e.g. a bias feeding a batch norm); the floor turns those into
# agreements instead of 0/0. The unit checks above certify every op's
# math far tighter; this stage certifies the composition.
MODEL_GRAD_FLOOR = 2e-3


def _rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def _check_graph(build, leaves, rng, n_entries=6, h=FD_H):
    """Max relative error of reverse-mode grads vs central differences.

    build() assembles the graph from the current leaf values and returns
    the scalar loss; it is re-run untaped for each probe.
    """
    with T.GraphTape() as tape:
        loss = build()
    T.backward(loss, tape)
    worst = 0.0
    for leaf in leaves:
        size = leaf.data.size
        idxs = rng.choice(size, size=min(n_entries, size), replace=False)
        for idx in idxs:
            orig = leaf.data.flat[idx]
            leaf.data.flat[idx] = orig + h
            lp = float(build().data)
            leaf.data.flat[idx] = orig - h
            lm = float(build().data)
            leaf.data.flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, _rel_err(float(leaf.grad.flat[idx]), fd))
    return worst


def _projected(y, proj):
    return T.sum_over(T.mul(y, T.Tensor(proj)))


def _unit_conv(rng):
    worst = 0.0
    cases = [
        ((2, 10, 7, 3), (3, 3, 3, 4), (1, 1), (1, 1)),
        ((2, 12, 9, 1), (7, 7, 1, 2), (1, 1), (3, 3)),
        ((2, 10, 8, 3), (1, 1, 3, 5), (2, 2), (0, 0)),
        ((2, 11, 9, 2), (3, 3, 2, 4), (2, 2), (1, 1)),
    ]
    for xshape, wshape, stride, pad in cases:
        x = T.parameter(rng.normal(size=xshape))
        w = T.parameter(rng.normal(size=wshape) * 0.4)
        probe = T.conv2d(x, w, stride, pad)
        proj = rng.normal(size=probe.data.shape)

        def build(x=x, w=w, stride=stride, pad=pad, proj=proj):
            return _projected(T.conv2d(x, w, stride, pad), proj)

        worst = max(worst, _check_graph(build, [x, w], rng))
    return worst


def _unit_fc(rng):
    fc = Dense(rng, 6, 4, dtype=np.float64)
    x = T.parameter(rng.normal(size=(7, 6)))
    proj = rng.normal(size=(7, 4))

    def build():
        return _projected(fc(x), proj)

    return _check_graph(build, [x, fc.weight, fc.bias], rng)


def _unit_bn(rng):
    worst = 0.0
    for shape, mode in [((9, 5), "train"), ((2, 4, 3, 5), "train"), ((9, 5), "infer")]:
        st = T.BNState(5, dtype=np.float64)
        st.running_mean[:] = rng.normal(size=5) * 0.1
        st.running_var[:] = 1.0 + rng.random(5)
        x = T.parameter(rng.normal(size=shape))
        proj = rng.normal(size=shape)

        def build(x=x, st=st, mode=mode, proj=proj):
            y = T.batch_norm(x, st, mode, act="relu")
            return _projected(y, proj)

        worst = max(worst, _check_graph(build, [x, st.gamma, st.beta], rng))
    return worst


def _spread_values(rng, shape, step=0.01):
    """Shuffled grid with gaps far above the probe h: argmaxes never flip."""
    n = int(np.prod(shape))
    return (rng.permutation(n).astype(np.float64) * step).reshape(shape)


def _unit_pool(rng):
    x = T.parameter(_spread_values(rng, (2, 11, 8, 3)))
    probe = T.pool2d(x, (3, 3), (2, 2), (1, 1))
    proj = rng.normal(size=probe.data.shape)

    def build():
        return _projected(T.pool2d(x, (3, 3), (2, 2), (1, 1)), proj)

    return _check_graph(build, [x], rng, n_entries=12)


def _unit_softmax(rng):
    worst = 0.0
    for axis in (0, 1, -1):
        x = T.parameter(rng.normal(size=(4, 5, 3)) * 2.0)
        proj = rng.normal(size=(4, 5, 3))

        def build(x=x, axis=axis, proj=proj):
            return _projected(T.softmax_over_axis(x, axis), proj)

        worst = max(worst, _check_graph(build, [x], rng))
    return worst


def _attention_leaves(params, which):
    fc1, bn, fc2 = params.stack(which)
    return [fc1.weight, fc1.bias, bn.state.gamma, bn.state.beta, fc2.weight, fc2.bias]


def _unit_attention_self(rng):
    params = AttentionParams(rng, 6, 5, shared=False, dtype=np.float64)
    f_raw = T.parameter(rng.normal(size=(2, 4, 6)))
    f_id = T.parameter(rng.normal(size=(2, 4, 5)))
    proj_w = rng.normal(size=(2, 4, 5))
    proj_f = rng.normal(size=(2, 5))

    def build():
        att = compute_f_att(f_raw, params, "self", "train")
        w, f_self = self_attention(att, f_id)
        return T.add(_projected(w, proj_w), _projected(f_self, proj_f))

    leaves = [f_raw, f_id] + _attention_leaves(params, "self")
    return _check_graph(build, leaves, rng, n_entries=4)


def _unit_attention_mutual(rng):
    params = AttentionParams(rng, 6, 5, shared=False, dtype=np.float64)
    f_raw = T.parameter(rng.normal(size=(2, 3, 6)))
    f_id = T.parameter(rng.normal(size=(2, 3, 5)))
    f_self_other = T.parameter(rng.normal(size=(4, 5)))
    proj = rng.normal(size=(2, 4, 5))

    def build():
        att = compute_f_att(f_raw, params, "mutual", "train")
        return _projected(mutual_attention_grid(att, f_id, f_self_other), proj)

    leaves = [f_raw, f_id, f_self_other] + _attention_leaves(params, "mutual")
    return _check_graph(build, leaves, rng, n_entries=4)


def _unit_sigmoid_head(rng):
    head = BinaryHeadParams(rng, 5, dropout_rate=0.5, dtype=np.float64)
    x = T.parameter(rng.normal(size=(3, 3, 5)))
    proj = rng.normal(size=(3, 3))

    def build():
        mask_rng = np.random.default_rng(1234)
        return _projected(binary_head_scores(x, head, "train", mask_rng), proj)

    leaves = [x, head.bn.state.gamma, head.bn.state.beta, head.fc.weight, head.fc.bias]
    return _check_graph(build, leaves, rng)


UNIT_CHECKS = [
    ("conv", _unit_conv),
    ("fc", _unit_fc),
    ("bn", _unit_bn),
    ("pool_max", _unit_pool),
    ("softmax", _unit_softmax),
    ("attention_self", _unit_attention_self),
    ("attention_mutual", _unit_attention_mutual),
    ("sigmoid_head", _unit_sigmoid_head),
]

# whole-model sample counts per parameter group (sums to 50)
MODEL_SAMPLE_PLAN = {
    "conv": 12,
    "bn": 12,
    "fc": 6,
    "attention_self": 7,
    "attention_mutual": 7,
    "sigmoid_head": 6,
}


def _group_of(name):
    if ".state." in name:
        return "bn"
    if "conv" in name or ".proj." in name:
        return "conv"
    if name.startswith("attention.self_"):
        return "attention_self"
    if name.startswith("attention.mutual_"):
        return "attention_mutual"
    if name.startswith("head."):
        return "sigmoid_head"
    return "fc"


def check_model_gradients(seed=0, plan=None, hs=MODEL_FD_H):
    """Whole-model check: desk-sized net, pair loss, sampled parameters.

    Returns (per-group max relative error, number of sampled entries).
    """
    plan = dict(MODEL_SAMPLE_PLAN if plan is None else plan)
    # short crops keep the kink count down and each probe cheap
    cfg = TrainConfig.desk(speakers_per_batch=2, crop_frames=60, seed=seed)
    corpus = generate_synthetic_corpus(
        cfg.num_speakers, cfg.utts_per_speaker, cfg.seed, cfg.noise_sigma, cfg.mel_bins
    )
    model = DattModel(
        cfg.backbone_config(), cfg.seed, cfg.shared_attention, cfg.dropout_rate,
        dtype=np.float64,
    )
    batch_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 10)))
    batch = build_pair_batch(corpus, cfg, batch_rng)

    def loss_fn():
        # fixed dropout stream: every evaluation sees the same masks
        drop_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 11)))
        return pair_batch_losses(model, batch, cfg, "train", drop_rng)[2]

    with T.GraphTape() as tape:
        loss = loss_fn()
    T.backward(loss, tape)

    groups = {}
    for name, p in model.named_params():
        groups.setdefault(_group_of(name), []).append(p)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 12)))
    errors = {}
    n_sampled = 0
    for group, count in sorted(plan.items()):
        params = groups[group]
        seen = set()
        worst = 0.0
        for _ in range(count):
            while True:
                pi = int(rng.integers(len(params)))
                idx = int(rng.integers(params[pi].data.size))
                if (pi, idx) not in seen:
                    seen.add((pi, idx))
                    break
            leaf = params[pi]
            orig = leaf.data.flat[idx]
            a = float(leaf.grad.flat[idx])
            best = np.inf
            for h in hs:
                leaf.data.flat[idx] = orig + h
                lp = float(loss_fn().data)
                leaf.data.flat[idx] = orig - h
                lm = float(loss_fn().data)
                fd = (lp - lm) / (2 * h)
                best = min(best, _rel_err(a, fd, MODEL_GRAD_FLOOR))
            leaf.data.flat[idx] = orig
            worst = max(worst, best)
            n_sampled += 1
        errors[group] = worst
    return errors, n_sampled


@dataclass
class GradcheckReport:
    unit_errors: dict
    model_errors: dict = field(default_factory=dict)
    n_sampled: int = 0
    tol: float = TOLERANCE
    runtime_s: float = 0.0

    @property
    def max_unit_error(self):
        return max(self.unit_errors.values())

    @property
    def max_model_error(self):
        return max(self.model_errors.values()) if self.model_errors else 0.0

    @property
    def passed(self):
        return self.max_unit_error < self.tol and self.max_model_error < self.tol

    def failed_types(self):
        bad = [k for k, v in self.unit_errors.items() if v >= self.tol]
        bad += [f"model:{k}" for k, v in self.model_errors.items() if v >= self.tol]
        return bad

    def lines(self):
        out = []
        for name, _ in UNIT_CHECKS:
            err = self.unit_errors[name]
            mark = "ok" if err < self.tol else "FAIL"
            out.append(f"unit  {name:18s} max rel err {err:.3e}  {mark}")
        for group in sorted(self.model_errors):
            err = self.model_errors[group]
            mark = "ok" if err < self.tol else "FAIL"
            out.append(f"model {group:18s} max rel err {err:.3e}  {mark}")
        out.append(
            f"{'PASS' if self.passed else 'FAIL'}: {len(self.unit_errors)} op types, "
            f"{self.n_sampled} sampled model parameters, tol {self.tol:g}, "
            f"{self.runtime_s:.1f}s"
        )
        return out


def run_gradcheck(seed=0, tol=TOLERANCE, units_only=False):
    """Run every per-op check plus the whole-model sample; returns a report."""
    t0 = time.perf_counter()
    unit_errors = {}
    for i, (name, fn) in enumerate(UNIT_CHECKS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 20, i)))
        unit_errors[name] = fn(rng)
    model_errors, n_sampled = ({}, 0) if units_only else check_model_gradients(seed)
    return GradcheckReport(
        unit_errors, model_errors, n_sampled, tol, time.perf_counter() - t0
    )

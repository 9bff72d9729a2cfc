"""Finite-difference audit of every backward path.

Two stages, both in float64 with central differences (h=1e-5): isolated
per-op checks, so a defect in one backward cannot hide behind another,
and a whole-model check that perturbs a stratified sample of parameters
under the full pair loss.  Adding a unit check takes an op and its
leaves: _check_graph(op, leaves, rng) projects the op's outputs onto
random arrays and compares every leaf's gradient with the differences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from . import tensor as T
from .attention import (
    AttentionParams,
    attention_hidden,
    compute_f_att,
    mutual_attention_grid,
    self_attention,
)
from .backbone import Dense
from .features import generate_synthetic_corpus
from .model import DattModel
from .scoring import BinaryHeadParams, binary_head_scores
from .training import TrainConfig, build_pair_batch, pair_batch_losses

FD_H = 1e-5
# The whole-model loss has millions of relu/max-pool kinks; a probe that
# pushes any pre-activation across zero breaks the central difference, so
# each entry is tried at two widths, wide then narrow, and keeps the better
# agreement (see _model_entry_error for a kink inside both). Both widths
# stay far above float64 roundoff.
MODEL_FD_H = (1e-6, 3e-7)
TOLERANCE = 1e-4
# A loss evaluated through millions of rounded float64 ops jitters at
# ~1e-13, so the difference quotient carries ~1e-7 of noise. Gradients
# below noise/tol are uncertifiable by this oracle (some truly are zero,
# e.g. a bias feeding a batch norm); the floor turns those into
# agreements instead of 0/0. The unit checks above certify every op's
# math far tighter; this stage certifies the composition.
MODEL_GRAD_FLOOR = 2e-3
# The unit checks instead find the entries whose gradient is zero by
# structure and require those to be zero up to float64 roundoff.
ZERO_GRAD_ATOL = 1e-12


def _rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def _probes(leaf, idx, widths, loss):
    """[(h, loss(x + h), loss(x - h)) for h in widths], x being entry idx of leaf."""
    orig = leaf.data.flat[idx]
    probes = []
    for h in widths:
        leaf.data.flat[idx] = orig + h
        lp = float(loss().data)
        leaf.data.flat[idx] = orig - h
        probes.append((h, lp, float(loss().data)))
    leaf.data.flat[idx] = orig
    return probes


def _check_graph(op, leaves, rng, n_entries=6, zeros=None):
    """Max relative error of reverse-mode grads vs central differences.

    op() runs the op under test on the current leaf values and returns a
    tensor or a tuple of tensors.  The checked loss projects each output
    onto a random array, drawn from rng in output order before any entry
    is sampled, and sums; it is re-run untaped for each probe.  zeros maps
    a leaf to a boolean mask of the entries whose gradient is zero by
    structure: a difference quotient there is pure roundoff, so those
    entries must be exactly zero (|analytic| <= ZERO_GRAD_ATOL, error 1
    otherwise) and are skipped among the sampled ones.
    """

    def outputs():
        ys = op()
        return ys if isinstance(ys, tuple) else (ys,)

    projs = [rng.normal(size=y.data.shape) for y in outputs()]

    def build():
        return reduce(T.add, [T.sum_over(T.mul(y, T.Tensor(p))) for y, p in zip(outputs(), projs)])

    zeros = zeros or {}
    with T.GraphTape() as tape:
        loss = build()
    T.backward(loss, tape)
    worst = 0.0
    for leaf in leaves:
        zero = zeros.get(leaf, np.zeros(leaf.data.shape, dtype=bool))
        if zero.any():
            worst = max(worst, float(np.abs(leaf.grad[zero]).max() > ZERO_GRAD_ATOL))
        size = leaf.data.size
        idxs = rng.choice(size, size=min(n_entries, size), replace=False)
        for idx in idxs:
            if zero.flat[idx]:
                continue
            ((h, lp, lm),) = _probes(leaf, idx, (FD_H,), build)
            worst = max(worst, _rel_err(float(leaf.grad.flat[idx]), (lp - lm) / (2 * h)))
    return worst


def _unit_conv(rng):
    worst = 0.0
    # those marked True fold an input affine (gamma, beta) into the conv
    cases = [
        ((2, 10, 7, 3), (3, 3, 3, 4), (1, 1), (1, 1), False),
        ((2, 12, 9, 1), (7, 7, 1, 2), (1, 1), (3, 3), False),
        ((2, 10, 8, 3), (1, 1, 3, 5), (2, 2), (0, 0), False),
        ((2, 11, 9, 2), (3, 3, 2, 4), (2, 2), (1, 1), False),
        ((2, 12, 9, 1), (7, 7, 1, 2), (1, 1), (3, 3), True),
        ((2, 11, 9, 2), (3, 3, 2, 4), (2, 2), (1, 1), True),
        ((2, 5, 1, 6), (1, 1, 6, 6), (1, 1), (0, 0), True),
    ]
    for xshape, wshape, stride, pad, folded in cases:
        x = T.parameter(rng.normal(size=xshape))
        w = T.parameter(rng.normal(size=wshape) * 0.4)
        affine = tuple(T.parameter(rng.normal(size=1)) for _ in range(2)) if folded else None
        op = partial(T.conv2d, x, w, stride, pad, affine)
        worst = max(worst, _check_graph(op, [x, w, *(affine or ())], rng))
    return worst


def _unit_fc(rng):
    fc = Dense(rng, 6, 4, dtype=np.float64)
    x = T.parameter(rng.normal(size=(7, 6)))
    return _check_graph(partial(fc, x), [x, fc.weight, fc.bias], rng)


def _unit_bn(rng):
    worst = 0.0
    for shape, mode in [((9, 5), "train"), ((2, 4, 3, 5), "train"), ((9, 5), "infer")]:
        st = T.BNState(5, dtype=np.float64)
        st.running_mean[:] = rng.normal(size=5) * 0.1
        st.running_var[:] = 1.0 + rng.random(5)
        x = T.parameter(rng.normal(size=shape))
        op = partial(T.batch_norm, x, st, mode, act="relu")
        worst = max(worst, _check_graph(op, [x, st.gamma, st.beta], rng))
    return worst


def _spread_values(rng, shape, step=0.01):
    """Shuffled grid with gaps far above the probe h: argmaxes never flip."""
    n = int(np.prod(shape))
    return (rng.permutation(n).astype(np.float64) * step).reshape(shape)


def _unit_pool(rng):
    x = T.parameter(_spread_values(rng, (2, 11, 8, 3)))
    return _check_graph(partial(T.pool2d, x, (3, 3), (2, 2), (1, 1)), [x], rng, n_entries=12)


def _unit_softmax(rng):
    worst = 0.0
    for axis in (0, 1, -1):
        x = T.parameter(rng.normal(size=(4, 5, 3)) * 2.0)
        worst = max(worst, _check_graph(partial(T.softmax_over_axis, x, axis), [x], rng))
    return worst


def _attention_zeros(params, which, f_raw):
    """Masks of the stack's entries whose gradient is zero by structure.

    fc1.bias feeds a train-mode BN, which subtracts it back out.  A shift of
    f_att that is constant over an utterance's frames moves the mutual
    logits by a constant over time, which the time softmax cancels: so
    fc2.bias, and BN beta[j] when channel j's ReLU is on at every frame or
    off at every frame of each utterance.  The self logits scale f_att by
    its own time mean, which such a shift does not cancel; there beta[j] is
    zero only when channel j is off at every frame.
    """
    fc1, bn, fc2 = params.stack(which)
    # the train-mode BN normalizes by batch statistics, so the running
    # averages this extra pass moves do not enter the checked loss
    on = attention_hidden(f_raw, params, which, "train").data > 0  # (utts, T', num_f)
    silent = ~on.any(axis=-2)
    if which == "mutual":
        silent |= on.all(axis=-2)
    return {
        fc1.bias: np.ones(fc1.bias.data.shape, dtype=bool),
        bn.state.beta: silent.all(axis=0),
        fc2.bias: np.full(fc2.bias.data.shape, which == "mutual"),
    }


def _unit_attention(which, rng):
    params = AttentionParams(rng, 6, 5, shared=False, dtype=np.float64)
    t = 4 if which == "self" else 3
    f_raw = T.parameter(rng.normal(size=(2, t, 6)))
    f_id = T.parameter(rng.normal(size=(2, t, 5)))
    partner = [T.parameter(rng.normal(size=(4, 5)))] if which == "mutual" else []

    def op():  # self: (W, f_self); mutual: the (2, 4, 5) pooled grid
        att = compute_f_att(f_raw, params, which, "train")
        return mutual_attention_grid(att, f_id, *partner) if partner else self_attention(att, f_id)

    leaves = [f_raw, f_id, *partner] + [p for m in params.stack(which) for p in m.params()]
    zeros = _attention_zeros(params, which, f_raw)
    return _check_graph(op, leaves, rng, n_entries=4, zeros=zeros)


def _unit_sigmoid_head(rng):
    head = BinaryHeadParams(rng, 5, dropout_rate=0.5, dtype=np.float64)
    x = T.parameter(rng.normal(size=(3, 3, 5)))

    def op():  # a fresh, fixed dropout stream per call
        return binary_head_scores(x, head, "train", np.random.default_rng(1234))

    return _check_graph(op, [x, *head.params()], rng)


UNIT_CHECKS = [
    ("conv", _unit_conv),
    ("fc", _unit_fc),
    ("bn", _unit_bn),
    ("pool_max", _unit_pool),
    ("softmax", _unit_softmax),
    ("attention_self", partial(_unit_attention, "self")),
    ("attention_mutual", partial(_unit_attention, "mutual")),
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


def _kink_inside(l0, probes):
    """Whether a kink lies inside the narrow probe.

    probes holds (h, loss(x + h), loss(x - h)) at the wide and then the
    narrow width; l0 is loss(x).  On a smooth piece the forward and backward
    quotients differ by h * f''(x) + O(h^3), so their gap shrinks in
    proportion to h: the narrow width leaves 3e-7/1e-6 = 0.3 of the wide
    gap.  A kink inside the narrow probe adds a slope jump that does not
    shrink with h.  It is found when, at the narrow width, the two quotients
    disagree by more than TOLERANCE and keep over half the wide gap.
    """
    (hw, lpw, lmw), (hn, lpn, lmn) = probes
    gap_wide = (lpw - 2 * l0 + lmw) / hw
    fwd, bwd = (lpn - l0) / hn, (l0 - lmn) / hn
    return (
        _rel_err(fwd, bwd, MODEL_GRAD_FLOOR) > TOLERANCE
        and abs(fwd - bwd) > 0.5 * abs(gap_wide)
    )


def _model_entry_error(a, l0, probes):
    """Relative error of one sampled entry's reverse-mode gradient a.

    The central difference is the criterion, the better of the two widths.
    Only where it fails at both and _kink_inside finds a kink inside the
    narrow probe is the entry judged by a one-sided quotient at the narrow
    width: there the central difference averages the slopes of the two
    pieces meeting at the kink, while each one-sided quotient sees one piece
    alone, and the reverse-mode gradient is the slope of one of them.  So
    every entry the central difference passes keeps its verdict.
    """
    err = min(_rel_err(a, (lp - lm) / (2 * h), MODEL_GRAD_FLOOR) for h, lp, lm in probes)
    if err < TOLERANCE or not _kink_inside(l0, probes):
        return err
    h, lp, lm = probes[-1]
    return min(_rel_err(a, fd, MODEL_GRAD_FLOOR) for fd in ((lp - l0) / h, (l0 - lm) / h))


def check_model_gradients(seed=0, plan=None):
    """Whole-model check: desk-sized net, pair loss, sampled parameters.

    `plan` maps a parameter group (MODEL_SAMPLE_PLAN's keys) or one named
    parameter, such as "backbone.pre.bn_in.state.gamma", to the number of
    entries to sample from it.  Returns (max relative error per plan key,
    number of sampled entries).
    """
    plan = dict(MODEL_SAMPLE_PLAN if plan is None else plan)
    # short crops keep the kink count down and each probe cheap
    cfg = TrainConfig.desk(speakers_per_batch=2, crop_frames=60, seed=seed)
    corpus = generate_synthetic_corpus(
        cfg.num_speakers, cfg.utts_per_speaker, cfg.seed, cfg.noise_sigma, cfg.mel_bins
    )
    model = DattModel(cfg.backbone_config(), cfg.seed, dtype=np.float64)
    batch_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 10)))
    batch = build_pair_batch(corpus, cfg, batch_rng)

    def loss_fn():
        # fixed dropout stream: every evaluation sees the same masks
        drop_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 11)))
        return pair_batch_losses(model, batch, cfg, "train", drop_rng)[2]

    with T.GraphTape() as tape:
        loss = loss_fn()
    T.backward(loss, tape)
    l0 = float(loss_fn().data)

    groups = {}
    for name, p in model.named_params():
        groups.setdefault(_group_of(name), []).append(p)
        groups[name] = [p]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 12)))
    errors = {}
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
            probes = _probes(params[pi], idx, MODEL_FD_H, loss_fn)
            worst = max(worst, _model_entry_error(float(params[pi].grad.flat[idx]), l0, probes))
        errors[group] = worst
    return errors, sum(plan.values())


@dataclass
class GradcheckReport:
    unit_errors: dict
    model_errors: dict = field(default_factory=dict)
    n_sampled: int = 0
    runtime_s: float = 0.0

    @property
    def max_unit_error(self):
        return max(self.unit_errors.values())

    @property
    def max_model_error(self):
        return max(self.model_errors.values()) if self.model_errors else 0.0

    @property
    def passed(self):
        return self.max_unit_error < TOLERANCE and self.max_model_error < TOLERANCE

    def failed_types(self):
        bad = [k for k, v in self.unit_errors.items() if v >= TOLERANCE]
        bad += [f"model:{k}" for k, v in self.model_errors.items() if v >= TOLERANCE]
        return bad

    def lines(self):
        rows = [("unit ", name, self.unit_errors[name]) for name, _ in UNIT_CHECKS]
        rows += [("model", group, self.model_errors[group]) for group in sorted(self.model_errors)]
        out = [
            f"{stage} {name:18s} max rel err {err:.3e}  {'ok' if err < TOLERANCE else 'FAIL'}"
            for stage, name, err in rows
        ]
        out.append(
            f"{'PASS' if self.passed else 'FAIL'}: {len(self.unit_errors)} op types, "
            f"{self.n_sampled} sampled model parameters, tol {TOLERANCE:g}, "
            f"{self.runtime_s:.1f}s"
        )
        return out


def run_gradcheck(seed=0, units_only=False):
    """Run every per-op check plus the whole-model sample; returns a report."""
    t0 = time.perf_counter()
    unit_errors = {}
    for i, (name, fn) in enumerate(UNIT_CHECKS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 20, i)))
        unit_errors[name] = fn(rng)
    model_errors, n_sampled = ({}, 0) if units_only else check_model_gradients(seed)
    return GradcheckReport(unit_errors, model_errors, n_sampled, time.perf_counter() - t0)

"""Gradient-audit tests: per-op checks, fault injection, reporting."""

import math
import time

import numpy as np
import pytest

from dattnet import gradcheck
from dattnet import tensor as T
from dattnet.attention import AttentionParams, compute_f_att, mutual_attention_grid, self_attention
from dattnet.gradcheck import (
    MODEL_FD_H,
    MODEL_SAMPLE_PLAN,
    TOLERANCE,
    UNIT_CHECKS,
    ZERO_GRAD_ATOL,
    GradcheckReport,
    check_model_gradients,
    run_gradcheck,
)


class TestUnitStage:
    def test_all_op_types_pass(self):
        report = run_gradcheck(units_only=True)
        assert report.passed
        assert report.max_unit_error < TOLERANCE
        assert len(report.unit_errors) >= 8
        assert report.failed_types() == []

    def test_units_pass_at_every_seed(self):
        # seeds 20 and 39 used to fail attention_mutual on gradients that
        # are zero by structure, where a difference quotient is roundoff
        failed = {s: run_gradcheck(seed=s, units_only=True).failed_types() for s in range(40)}
        assert {s: f for s, f in failed.items() if f} == {}

    @pytest.mark.parametrize("which", ["self", "mutual"])
    def test_structural_zeros_are_zero(self, which):
        flagged_beta = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            params = AttentionParams(rng, 6, 5, dtype=np.float64)
            f_raw = T.parameter(rng.normal(size=(2, 3, 6)))
            f_id = T.parameter(rng.normal(size=(2, 3, 5)))
            zeros = gradcheck._attention_zeros(params, which, f_raw)
            with T.GraphTape() as tape:
                att = compute_f_att(f_raw, params, which, "train")
                if which == "mutual":
                    y = mutual_attention_grid(att, f_id, T.Tensor(rng.normal(size=(4, 5))))
                else:
                    y = self_attention(att, f_id)[1]
                loss = T.sum_over(T.mul(y, T.Tensor(rng.normal(size=y.data.shape))))
            T.backward(loss, tape)
            for leaf, zero in zeros.items():
                assert np.abs(leaf.grad[zero]).max(initial=0.0) <= ZERO_GRAD_ATOL
            flagged_beta += int(zeros[params.stack(which)[1].state.beta].any())
        if which == "mutual":
            # the data-dependent rule is exercised, not only the fixed biases
            assert flagged_beta > 0

    def test_wrongly_flagged_zero_fails(self, monkeypatch):
        real = gradcheck._attention_zeros

        def flag_fc2_weight(params, which, f_raw):
            zeros = real(params, which, f_raw)
            fc2 = params.stack(which)[2]
            zeros[fc2.weight] = np.ones(fc2.weight.data.shape, dtype=bool)
            return zeros

        monkeypatch.setattr(gradcheck, "_attention_zeros", flag_fc2_weight)
        report = run_gradcheck(units_only=True)
        assert report.failed_types() == ["attention_self", "attention_mutual"]

    def test_covers_required_op_types(self):
        names = {name for name, _ in UNIT_CHECKS}
        must = {
            "conv",
            "fc",
            "bn",
            "pool_max",
            "softmax",
            "attention_self",
            "attention_mutual",
            "sigmoid_head",
        }
        assert must <= names

    def test_corrupted_conv_backward_fails_conv_only(self, monkeypatch):
        real = T._conv2d_grads

        def skewed(*a, **k):
            gw, gx = real(*a, **k)
            return gw * 1.02, gx

        monkeypatch.setattr(T, "_conv2d_grads", skewed)
        report = run_gradcheck(units_only=True)
        assert not report.passed
        assert report.failed_types() == ["conv"]

    def test_corrupted_softmax_backward_fails_softmax_paths(self, monkeypatch):
        real = T.softmax_over_axis

        def skewed(x, axis):
            out = real(x, axis)
            tape = T.GraphTape.current()
            if tape is not None and tape._nodes and tape._nodes[-1][0] is out._slot:
                node_out, fn = tape._nodes[-1]
                tape._nodes[-1] = (node_out, lambda g: fn(1.05 * g))
            return out

        monkeypatch.setattr(T, "softmax_over_axis", skewed)
        report = run_gradcheck(units_only=True)
        failed = set(report.failed_types())
        assert "softmax" in failed
        # attention weights go through softmax, so those audits catch it too
        assert failed <= {"softmax", "attention_self", "attention_mutual"}

    @pytest.mark.parametrize("skew", [1.0, 1.05])
    def test_every_output_of_a_tuple_is_checked(self, skew):
        # only the second output's backward is skewed, and only y feeds it
        rng = np.random.default_rng(3)
        x, w, y = (T.parameter(rng.normal(size=s)) for s in [(4, 3), (3, 2), (4, 3)])

        def op():
            first, second = T.matmul(x, w), T.softmax_over_axis(y, 0)
            tape = T.GraphTape.current()
            if tape is not None and tape._nodes[-1][0] is second._slot:
                out, fn = tape._nodes[-1]
                tape._nodes[-1] = (out, lambda g: fn(skew * g))
            return first, second

        err = gradcheck._check_graph(op, [x, w, y], rng)
        assert (err > TOLERANCE) == (skew != 1.0), err


class TestModelStage:
    def test_sampled_parameters_match_differences(self):
        errors, n = check_model_gradients(seed=0)
        assert n == sum(MODEL_SAMPLE_PLAN.values())
        assert set(errors) == set(MODEL_SAMPLE_PLAN)
        for group, err in errors.items():
            assert err < TOLERANCE, f"{group}: {err:.3e}"

    def test_kink_beside_the_point_is_judged_from_one_side(self, monkeypatch):
        # at seed 23 the first sampled bn entry (stream1_bn beta[9]) has a
        # relu kink about 5e-8 to its right: both central differences
        # straddle it, the backward quotient does not
        seen = []
        real = gradcheck._model_entry_error

        def spy(a, l0, probes):
            seen.append((a, l0, probes))
            return real(a, l0, probes)

        monkeypatch.setattr(gradcheck, "_model_entry_error", spy)
        plan = {"attention_mutual": 7, "attention_self": 7, "bn": 1}
        errors, _ = check_model_gradients(seed=23, plan=plan)
        assert errors["bn"] < TOLERANCE
        a, l0, probes = seen[-1]  # the bn entry: groups run in sorted order
        for h, lp, lm in probes:
            assert abs((lp - lm) / (2 * h) - a) > TOLERANCE * abs(a)
        assert gradcheck._kink_inside(l0, probes)
        h, lp, lm = probes[-1]
        assert abs((l0 - lm) / h - a) < TOLERANCE * abs(a)
        assert abs((lp - l0) / h - a) > TOLERANCE * abs(a)

    def test_smooth_curvature_is_not_taken_for_a_kink(self):
        # exp(k x) at 0 has f' = k and one-sided quotients k (1 +- k h / 2):
        # at k = 2e3 they miss f' by 3e-4 at the narrow width, the central
        # difference by 7e-7 at the wide one
        k = 2e3
        l0 = 1.0
        probes = [(h, math.exp(k * h), math.exp(-k * h)) for h in MODEL_FD_H]
        assert not gradcheck._kink_inside(l0, probes)
        assert gradcheck._model_entry_error(k, l0, probes) < TOLERANCE
        # a gradient off by exactly the forward quotient's truncation error
        # still fails: no one-sided quotient judges a smooth entry
        h, lp, _ = probes[-1]
        assert gradcheck._model_entry_error((lp - l0) / h, l0, probes) > TOLERANCE

    @pytest.mark.parametrize("d", [5e-8, 5e-7])
    def test_kink_near_the_point(self, d):
        # the slopes either side of the seed-23 kink, a distance d right of
        # the point: inside the narrow probe at 5e-8, outside it at 5e-7
        left, right = -3.449070, -3.451342

        def f(x):
            return left * x if x < d else left * d + right * (x - d)

        probes = [(h, f(h), f(-h)) for h in MODEL_FD_H]
        assert gradcheck._kink_inside(f(0.0), probes) == (d < MODEL_FD_H[-1])
        assert gradcheck._model_entry_error(left, f(0.0), probes) < TOLERANCE
        assert gradcheck._model_entry_error(left * (1 + 1e-3), f(0.0), probes) > TOLERANCE

    def test_corrupted_conv_backward_fails_model_stage(self, monkeypatch):
        real = T._conv2d_grads

        def skewed(*a, **k):
            gw, gx = real(*a, **k)
            return gw * 1.02, gx

        monkeypatch.setattr(T, "_conv2d_grads", skewed)
        errors, _ = check_model_gradients(seed=0, plan={"conv": 3})
        assert errors["conv"] > 100 * TOLERANCE

    @pytest.mark.parametrize("seed", range(4))
    def test_folded_input_norm_parameters(self, seed):
        # bn_in's gamma and beta reach the loss only through the affine the
        # stem conv and the frequency map fold in
        names = ("backbone.pre.bn_in.state.gamma", "backbone.pre.bn_in.state.beta")
        errors, n_sampled = check_model_gradients(seed=seed, plan=dict.fromkeys(names, 1))
        assert n_sampled == 2
        assert errors.keys() == set(names)
        assert max(errors.values()) < TOLERANCE, errors

    def test_full_run_passes_within_budget(self):
        t0 = time.perf_counter()
        report = run_gradcheck(seed=0)
        elapsed = time.perf_counter() - t0
        assert report.passed
        assert report.n_sampled == 50
        assert elapsed < 120.0


class TestReport:
    def test_lines_cover_every_type_and_verdict(self):
        report = run_gradcheck(units_only=True)
        lines = report.lines()
        joined = "\n".join(lines)
        for name, _ in UNIT_CHECKS:
            assert name in joined
        assert lines[-1].startswith("PASS")

    def test_failed_report_marks_offender(self):
        report = GradcheckReport(
            unit_errors={name: 1e-9 for name, _ in UNIT_CHECKS},
            model_errors={"conv": 3e-2, "bn": 1e-8},
            n_sampled=2,
        )
        assert not report.passed
        assert report.failed_types() == ["model:conv"]
        assert any("FAIL" in ln and "conv" in ln for ln in report.lines())

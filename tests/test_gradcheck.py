"""Gradient-audit tests: per-op checks, fault injection, reporting."""

import time

import numpy as np
import pytest

from dattnet import tensor as T
from dattnet.gradcheck import (
    MODEL_SAMPLE_PLAN,
    TOLERANCE,
    UNIT_CHECKS,
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
            if tape is not None and tape._nodes and tape._nodes[-1][0] is out:
                node_out, fn = tape._nodes[-1]
                tape._nodes[-1] = (node_out, lambda g: fn(1.05 * g))
            return out

        monkeypatch.setattr(T, "softmax_over_axis", skewed)
        report = run_gradcheck(units_only=True)
        failed = set(report.failed_types())
        assert "softmax" in failed
        # attention weights go through softmax, so those audits catch it too
        assert failed <= {"softmax", "attention_self", "attention_mutual"}


class TestModelStage:
    def test_sampled_parameters_match_differences(self):
        errors, n = check_model_gradients(seed=0)
        assert n == sum(MODEL_SAMPLE_PLAN.values())
        assert set(errors) == set(MODEL_SAMPLE_PLAN)
        for group, err in errors.items():
            assert err < TOLERANCE, f"{group}: {err:.3e}"

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

"""Acceptance gate: every shipped claim, one printed pass/fail line each.

Criteria 1-5 and 8 drive the property suites at full scale; 6 and 7 share
one desk-scale A/B experiment (nine training runs, several minutes). Lines
are printed with capture suspended so they reach the terminal live even
under the default captured run.
"""

import time

import pytest

from advlm.experiment import (ADV_ALPHA, BASELINE_ALPHA, HIGH_ALPHA,
                              run_experiment)
from advlm.verify import (verify_closed_form, verify_energy_bound,
                          verify_gradients, verify_recognition_separation,
                          verify_reductions, verify_uniform_identity)


@pytest.fixture(scope="module")
def emit(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _emit(text):
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(text, flush=True)
        else:
            print(text, flush=True)

    return _emit


@pytest.fixture(scope="module")
def report(emit):
    def _report(num, name, ok, detail):
        line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        emit(line)
        assert ok, line

    return _report


def timed(fn, **kwargs):
    t0 = time.perf_counter()
    result = fn(**kwargs)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ab_result(emit):
    return run_experiment(progress=lambda run: emit("  " + run.line()))


class TestAcceptance:
    def test_1_gradient_correctness(self, report):
        result, wall = timed(verify_gradients, seed=0, instances=100)
        report(1, "gradient correctness", result.passed and wall < 60.0,
               f"{result.detail}, {wall:.1f}s")

    def test_2_closed_form_equals_brute_force(self, report):
        result, wall = timed(verify_closed_form, seed=0, instances=1000,
                             samples=10 ** 4)
        report(2, "closed form vs brute force", result.passed and wall < 120.0,
               f"{result.detail}, {wall:.1f}s")

    def test_3_reductions_and_monotonicity(self, report):
        result, _ = timed(verify_reductions, seed=0, instances=2000)
        report(3, "reductions and monotonicity", result.passed, result.detail)

    def test_4_recognition_separation(self, report):
        result, _ = timed(verify_recognition_separation, seed=0, instances=10 ** 4)
        report(4, "recognition separation", result.passed, result.detail)

    def test_5_probability_energy_bound(self, report):
        result, _ = timed(verify_energy_bound, seed=0, instances=10 ** 4)
        report(5, "probability energy bound", result.passed, result.detail)

    @pytest.mark.slow
    def test_6_ab_experiment(self, ab_result, report):
        base = ab_result.summary(BASELINE_ALPHA)
        adv = ab_result.summary(ADV_ALPHA)
        checks = ab_result.orderings()
        slowest = max(r.wall_s for r in ab_result.runs)
        ok = all((checks["valid_ppl_not_worse"],
                  checks["nn_distance_greater"],
                  checks["sv_entropy_greater"],
                  checks["overfit_gap_smaller"],
                  slowest < 900.0))
        report(6, "A/B experiment", ok,
               f"valid {adv.valid_ppl:.3f} vs {base.valid_ppl:.3f}, "
               f"nn {adv.nn_distance:.4f} vs {base.nn_distance:.4f}, "
               f"sv_entropy {adv.sv_entropy:.5f} vs {base.sv_entropy:.5f}, "
               f"gap {adv.gap:.3f} vs {base.gap:.3f}, "
               f"slowest run {slowest:.0f}s")

    @pytest.mark.slow
    def test_7_strong_perturbation_underfits(self, ab_result, report):
        adv = ab_result.summary(ADV_ALPHA)
        high = ab_result.summary(HIGH_ALPHA)
        report(7, "strong perturbation underfits",
               high.train_ppl > adv.train_ppl,
               f"train ppl {high.train_ppl:.3f} vs {adv.train_ppl:.3f}")

    def test_8_uniform_model_identity(self, report):
        result, _ = timed(verify_uniform_identity, seed=0)
        report(8, "uniform model identity", result.passed, result.detail)

"""Hypothesis checker: worked verdicts, rational re-evaluation, monotonicity."""

import numpy as np
import pytest

from besov_wave_lab.admissibility import check_gwp, check_lwp, suggest_s

RNG = np.random.default_rng(2024)


class TestWorkedVerdicts:
    def test_reference_passing_tuple(self):
        v = check_lwp(1, 4.0, 5.0, 9)
        assert v.passed
        assert v.condition_i.margin == pytest.approx(5.0 - 0.25)
        # Lower power bound: min(r/2, 1 + r/(2s) - 1/s) = min(2, 1.2) = 1.2.
        assert v.condition_ii.margin == pytest.approx(9.0 - 1.2)
        assert v.iii_disjunct in ("smoothness", "both")
        assert v.two_s_branch == "2s>=n"
        assert v.beta == pytest.approx(0.25 * 0.0 + (1 - 1) * 0.25)

    def test_smoothness_below_scaling_line_fails(self):
        v = check_lwp(1, 4.0, 0.2, 9)
        assert not v.passed
        assert v.condition_i.status == "fail"
        assert v.condition_i.margin == pytest.approx(0.2 - 0.25)

    @pytest.mark.parametrize("exact", [False, True])
    def test_condition_ii_judges_each_part_in_its_own_sense(self, exact):
        # n = 1, r = 4, s = 1/4: lower bound 2 <= p, window p < 3, cap p <= 5.
        # Both powers have least slack 0, so one margin cannot tell them
        # apart: p = 2 meets the non-strict lower bound, p = 3 misses the
        # strict window.
        at_lower = check_lwp(1, 4.0, 0.25, 2, exact=exact).condition_ii
        at_window = check_lwp(1, 4.0, 0.25, 3, exact=exact).condition_ii
        assert (at_lower.status, at_lower.margin) == ("pass", 0.0)
        assert (at_window.status, at_window.margin) == ("fail", 0.0)

    def test_condition_ii_needs_positive_s(self):
        cond = check_lwp(1, 4.0, -0.5, 9).condition_ii
        assert cond.status == "fail"
        assert cond.margin == -0.5  # the slack of s > 0

    def test_non_integer_power_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            check_lwp(1, 4.0, 5.0, 2.5)

    def test_domain_rejections(self):
        with pytest.raises(ValueError, match="\\(2, inf\\)"):
            check_lwp(1, 2.0, 5.0, 2)
        with pytest.raises(ValueError, match="dimension"):
            check_lwp(0, 4.0, 5.0, 2)

    def test_power_one_fails_integer_condition(self):
        v = check_lwp(1, 4.0, 5.0, 1)
        assert v.integer_p.status == "fail"
        assert not v.passed


class TestGwp:
    def test_critical_case_included(self):
        v = check_gwp(1, 4.0, 5.0, 9)
        assert v.passed
        assert v.gwp_threshold.margin == 0.0
        assert v.fujita == pytest.approx(9.0)

    def test_below_threshold_fails(self):
        v = check_gwp(1, 4.0, 5.0, 8)
        assert v.gwp_threshold.status == "fail"
        assert v.gwp_threshold.margin == pytest.approx(-1.0)

    def test_two_dimensional_threshold(self):
        v = check_gwp(2, 3.0, 4.0, 4)
        assert v.gwp_threshold.status == "pass"
        assert v.fujita == pytest.approx(4.0)


class TestExactAgreement:
    def test_rational_reevaluation_matches_floats(self):
        agree = 0
        for _ in range(1000):
            n = int(RNG.integers(1, 4))
            r = float(RNG.uniform(2.01, 12.0))
            s = float(RNG.uniform(-0.5, 2 * n + 3.0))
            p = int(RNG.integers(1, 12))
            a = check_lwp(n, r, s, p)
            b = check_lwp(n, r, s, p, exact=True)
            assert a.statuses() == b.statuses()
            assert a.passed == b.passed
            ga = check_gwp(n, r, s, p)
            gb = check_gwp(n, r, s, p, exact=True)
            assert ga.statuses() == gb.statuses()
            agree += 1
        assert agree == 1000

    def test_margins_match_between_paths(self):
        v_f = check_lwp(1, 4.0, 5.0, 9)
        v_e = check_lwp(1, 4.0, 5.0, 9, exact=True)
        for a, b in zip(v_f.conditions, v_e.conditions):
            assert a.margin == pytest.approx(b.margin, abs=1e-12)


class TestMonotonicity:
    def test_passing_verdicts_stay_passing_for_larger_s(self):
        violations = []
        for _ in range(300):
            n = int(RNG.integers(1, 4))
            r = float(RNG.uniform(2.05, 10.0))
            s = float(RNG.uniform(0.05, 2 * n + 2.0))
            p = int(RNG.integers(2, 11))
            base = check_lwp(n, r, s, p)
            if not base.passed:
                continue
            bigger = check_lwp(n, r, s + RNG.uniform(0.1, 2.0), p)
            if not bigger.passed:
                violations.append((n, r, s, p, bigger.failed_conditions()))
        assert violations == []


class TestSuggestS:
    def test_returns_passing_s_below_reference(self):
        s, binding = suggest_s(1, 4.0, 9)
        assert binding is None
        assert s is not None and s <= 5.0
        assert check_lwp(1, 4.0, s, 9).passed

    def test_domain_error(self):
        with pytest.raises(ValueError, match="\\(2, inf\\)"):
            suggest_s(1, 2.0, 2)

    def test_three_dimensional_necessary_condition(self):
        s, binding = suggest_s(3, 3.0, 3)
        assert binding is None
        # p >= 2 with 2s < n forces n/2 - 1 <= 2s.
        assert 3 / 2 - 1 <= 2 * s
        assert check_lwp(3, 3.0, s, 3).passed

    def test_self_check_across_grid(self):
        for n, r, p in [(1, 3.0, 2), (2, 5.0, 4), (3, 2.5, 3)]:
            s, binding = suggest_s(n, r, p)
            assert binding is None
            assert check_lwp(n, r, s, p).passed

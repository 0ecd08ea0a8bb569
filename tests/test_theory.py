"""Tests for the closed forms and analytic results (repro.core.theory)."""

from __future__ import annotations

import numpy as np
import pytest
from _reference import em_diagonal_loop

from repro.core import theory
from repro.core.losses import l0_score
from repro.core.properties import is_column_monotone, is_weakly_honest
from repro.mechanisms.fair import explicit_fair_mechanism
from repro.mechanisms.geometric import geometric_mechanism
from repro.mechanisms.uniform import uniform_mechanism
from repro.mechanisms.weakly_honest import weakly_honest_mechanism

EM_SIZES = [1, 2, 3, 4, 5, 6, 7, 40, 41, 257, 1000, 1001, 2048, 20_000, 20_001]
EM_ALPHAS = [0.0, 0.05, 0.3, 0.5, 0.62, 0.9, 0.99, 0.999, 1.0]


class TestConversions:
    def test_alpha_epsilon_round_trip(self):
        for epsilon in (0.0, 0.1, 0.5, 1.0, 3.0):
            assert theory.epsilon_from_alpha(theory.alpha_from_epsilon(epsilon)) == pytest.approx(
                epsilon
            )

    def test_epsilon_of_zero_alpha_is_infinite(self):
        assert theory.epsilon_from_alpha(0.0) == float("inf")

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            theory.alpha_from_epsilon(-1.0)
        with pytest.raises(ValueError):
            theory.epsilon_from_alpha(1.5)
        with pytest.raises(ValueError):
            theory.gm_l0_score(-0.1)
        with pytest.raises(ValueError):
            theory.em_diagonal(0, 0.5)


class TestClosedFormScores:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.62, 0.9, 0.99])
    def test_gm_l0_closed_form_matches_matrix(self, alpha):
        for n in (2, 5, 9):
            assert l0_score(geometric_mechanism(n, alpha)) == pytest.approx(
                theory.gm_l0_score(alpha)
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 11, 12])
    @pytest.mark.parametrize("alpha", [0.3, 0.62, 0.9, 0.99])
    def test_em_l0_closed_form_matches_matrix(self, n, alpha):
        assert l0_score(explicit_fair_mechanism(n, alpha)) == pytest.approx(
            theory.em_l0_score(n, alpha)
        )

    def test_em_diagonal_even_n_matches_equation_15(self):
        # Eq. 15: y = (1 - alpha) / (1 + alpha - 2 alpha^{n/2 + 1}) for even n.
        for n in (2, 4, 6, 10):
            for alpha in (0.3, 0.62, 0.9):
                formula = (1 - alpha) / (1 + alpha - 2 * alpha ** (n / 2 + 1))
                assert theory.em_diagonal(n, alpha) == pytest.approx(formula)

    def test_em_diagonal_at_alpha_one_is_uniform(self):
        assert theory.em_diagonal(5, 1.0) == pytest.approx(1.0 / 6.0)

    @pytest.mark.parametrize("alpha", EM_ALPHAS)
    def test_em_diagonal_equals_the_full_scalar_pow_loop(self, alpha):
        # Both parities, alpha in {0, 1}, and columns far past the power
        # that underflows to 0.0 (k = 250 at alpha = 0.05, 7073 at 0.9):
        # stopping there changes no bit.
        for n in EM_SIZES:
            assert theory.em_diagonal(n, alpha) == em_diagonal_loop(n, alpha)

    def test_em_diagonal_equals_the_full_scalar_pow_loop_on_the_release_grid(self):
        # The (n, alpha) grid of tests/test_closed_form_identity.py.
        for n in (1, 2, 5, 40, 257, 1000, 2048, 100_000):
            for alpha in (0.05, 0.3, 0.5, 0.9, 0.999):
                assert theory.em_diagonal(n, alpha) == em_diagonal_loop(n, alpha)

    def test_gm_structure_values(self):
        assert theory.gm_corner_value(0.5) == pytest.approx(2.0 / 3.0)
        assert theory.gm_diagonal_interior(0.5) == pytest.approx(1.0 / 3.0)

    def test_um_scores(self):
        assert theory.um_l0_score(7) == 1.0
        assert theory.um_raw_objective(7) == pytest.approx(7.0 / 8.0)
        assert l0_score(uniform_mechanism(7)) == pytest.approx(theory.um_l0_score(7))

    def test_fairness_bound_is_attained_by_em(self):
        for n, alpha in [(4, 0.9), (7, 0.62)]:
            em = explicit_fair_mechanism(n, alpha)
            assert em.matrix[0, 0] == pytest.approx(theory.fairness_diagonal_bound(n, alpha))

    def test_em_to_gm_cost_ratio_about_one_plus_one_over_n(self):
        for n in (4, 8, 16, 64):
            ratio = theory.em_to_gm_cost_ratio(n, 0.9)
            assert 1.0 < ratio <= (n + 1) / n + 1e-9


class TestLemmaThresholds:
    def test_lemma2_weak_honesty_threshold(self):
        # alpha = 0.76 -> threshold = 2*0.76/0.24 = 6.33...
        assert theory.weak_honesty_threshold(0.76) == pytest.approx(2 * 0.76 / 0.24)
        assert theory.weak_honesty_threshold(1.0) == float("inf")

    @pytest.mark.parametrize("alpha", [0.5, 0.67, 0.76, 0.9])
    def test_lemma2_matches_matrix_check(self, alpha):
        threshold = theory.weak_honesty_threshold(alpha)
        for n in range(2, 24):
            predicted = theory.gm_is_weakly_honest(n, alpha)
            actual = is_weakly_honest(geometric_mechanism(n, alpha))
            assert predicted == actual, (n, alpha, threshold)

    @pytest.mark.parametrize("alpha", [0.2, 0.4, 0.5, 0.51, 0.7, 0.9])
    def test_lemma3_matches_matrix_check(self, alpha):
        predicted = theory.gm_is_column_monotone(alpha)
        actual = is_column_monotone(geometric_mechanism(6, alpha))
        assert predicted == actual

    def test_wm_l0_bounds_are_ordered(self):
        lower, upper = theory.wm_l0_bounds(6, 0.9)
        assert lower <= upper
        wm = weakly_honest_mechanism(6, 0.9)
        assert lower - 1e-9 <= l0_score(wm) <= upper + 1e-9


class TestGupteSundararajanTest:
    def test_gm_is_derivable_from_itself(self):
        for n, alpha in [(3, 0.5), (5, 0.8)]:
            assert theory.gupte_sundararajan_derivable(geometric_mechanism(n, alpha), alpha)

    @pytest.mark.parametrize("n,alpha", [(2, 0.5), (4, 0.9), (7, 0.62)])
    def test_em_not_derivable_from_gm(self, n, alpha):
        assert not theory.gupte_sundararajan_derivable(explicit_fair_mechanism(n, alpha), alpha)
        assert theory.em_violates_derivability(n, alpha)

    def test_wm_not_derivable_from_gm_when_distinct(self):
        # At alpha = 0.9 and small n, WM differs from GM and the condition fails.
        wm = weakly_honest_mechanism(4, 0.9)
        assert not theory.gupte_sundararajan_derivable(wm, 0.9)

    def test_rr_case_n1_is_not_flagged(self):
        assert not theory.em_violates_derivability(1, 0.9)


class TestSymmetrisation:
    def test_symmetrize_produces_centrosymmetric_matrix(self, rng):
        raw = rng.random((6, 6)) + 0.01
        matrix = raw / raw.sum(axis=0, keepdims=True)
        symmetric = theory.symmetrize(matrix)
        assert np.allclose(symmetric, symmetric[::-1, ::-1])

    def test_symmetrize_preserves_trace_and_column_sums(self, rng):
        raw = rng.random((5, 5)) + 0.01
        matrix = raw / raw.sum(axis=0, keepdims=True)
        symmetric = theory.symmetrize(matrix)
        assert np.trace(symmetric) == pytest.approx(np.trace(matrix))
        assert np.allclose(symmetric.sum(axis=0), 1.0)

    def test_symmetrize_preserves_dp(self):
        gm = geometric_mechanism(5, 0.7)
        symmetric = theory.symmetrize(gm)
        from repro.core.properties import satisfies_differential_privacy

        assert satisfies_differential_privacy(symmetric, 0.7)

    def test_symmetrize_idempotent_on_symmetric_input(self):
        em = explicit_fair_mechanism(5, 0.8)
        assert np.allclose(theory.symmetrize(em), em.matrix)


class TestRandomizedResponseFormulas:
    def test_alpha_and_truth_probability_are_inverse(self):
        for alpha in (0.1, 0.5, 0.9):
            p = theory.randomized_response_truth_probability(alpha)
            assert theory.randomized_response_alpha(p) == pytest.approx(alpha)

    def test_truth_probability_bounds(self):
        with pytest.raises(ValueError):
            theory.randomized_response_alpha(0.3)

    def test_nary_truth_probability(self):
        # n = 1 reduces to the binary formula.
        assert theory.nary_randomized_response_truth_probability(1, 0.8) == pytest.approx(
            theory.randomized_response_truth_probability(0.8)
        )
        # Larger domains force smaller truth probability.
        assert theory.nary_randomized_response_truth_probability(
            10, 0.8
        ) < theory.nary_randomized_response_truth_probability(2, 0.8)

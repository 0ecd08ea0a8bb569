"""Tests for the uniform mechanism UM and the weakly honest mechanism WM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.losses import l0_score
from repro.core.properties import (
    StructuralProperty,
    check_all_properties,
    is_column_monotone,
    is_weakly_honest,
)
from repro.core.theory import em_l0_score, gm_l0_score, weak_honesty_threshold, wm_l0_bounds
from repro.mechanisms.geometric import geometric_mechanism
from repro.mechanisms.uniform import uniform_matrix, uniform_mechanism
from repro.mechanisms.weakly_honest import weakly_honest_mechanism


class TestUniformMechanism:
    def test_matrix_is_constant(self):
        assert np.allclose(uniform_matrix(4), 0.2)

    def test_l0_score_is_exactly_one(self):
        for n in (1, 3, 9, 20):
            assert l0_score(uniform_mechanism(n)) == pytest.approx(1.0)

    def test_satisfies_every_property_and_any_alpha(self):
        um = uniform_mechanism(5)
        assert all(check_all_properties(um).values())
        assert um.max_alpha() == pytest.approx(1.0)

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            uniform_mechanism(0)


class TestWeaklyHonestMechanism:
    def test_default_wm_has_wh_rm_cm_s(self):
        wm = weakly_honest_mechanism(5, 0.9)
        report = check_all_properties(wm, tolerance=1e-6)
        assert report[StructuralProperty.WEAK_HONESTY]
        assert report[StructuralProperty.ROW_MONOTONE]
        assert report[StructuralProperty.COLUMN_MONOTONE]
        assert report[StructuralProperty.SYMMETRY]
        assert wm.name == "WM"

    def test_wh_only_variant_need_not_be_column_monotone(self):
        wm = weakly_honest_mechanism(5, 0.9, column_monotone=False, row_monotone=False)
        assert is_weakly_honest(wm, tolerance=1e-6)
        assert wm.name == "WM[WH]"

    @pytest.mark.parametrize("n,alpha", [(4, 0.9), (6, 0.76), (8, 0.91)])
    def test_l0_is_sandwiched_between_gm_and_em(self, n, alpha):
        wm = weakly_honest_mechanism(n, alpha)
        value = l0_score(wm)
        assert gm_l0_score(alpha) - 1e-7 <= value <= em_l0_score(n, alpha) + 1e-7

    def test_wh_only_cost_matches_gm_above_lemma2_threshold(self):
        alpha = 0.76
        threshold = weak_honesty_threshold(alpha)  # ~6.33
        n = 8
        assert n >= threshold
        wm = weakly_honest_mechanism(n, alpha, column_monotone=False)
        assert l0_score(wm) == pytest.approx(gm_l0_score(alpha), abs=1e-6)

    def test_wh_only_cost_above_gm_below_threshold(self):
        alpha = 0.9  # threshold 18
        wm = weakly_honest_mechanism(4, alpha, column_monotone=False)
        assert l0_score(wm) > gm_l0_score(alpha) + 1e-6

    def test_full_wm_cost_tracks_em_at_very_high_alpha(self):
        # Figure 9(c): at alpha = 0.99 the WM cost stays (essentially) equal to
        # EM's.  WM drops the fairness constraint so it can only be cheaper,
        # and the gap is negligible at this privacy level.
        n, alpha = 6, 0.99
        wm = weakly_honest_mechanism(n, alpha)
        em_value = em_l0_score(n, alpha)
        assert l0_score(wm) <= em_value + 1e-9
        assert l0_score(wm) == pytest.approx(em_value, rel=1e-3)

    def test_wm_respects_privacy(self):
        wm = weakly_honest_mechanism(5, 0.8)
        assert wm.max_alpha() >= 0.8 - 1e-6

    def test_wm_differs_from_gm_when_gm_lacks_wh(self):
        n, alpha = 4, 0.9
        wm = weakly_honest_mechanism(n, alpha)
        gm = geometric_mechanism(n, alpha)
        assert not wm.allclose(gm)
        assert not is_weakly_honest(gm)
        assert is_weakly_honest(wm, tolerance=1e-6)

    def test_wh_only_variant_within_closed_form_bounds(self):
        low, high = wm_l0_bounds(4, 0.85)
        value = l0_score(weakly_honest_mechanism(4, 0.85, column_monotone=False))
        assert low - 1e-7 <= value <= high + 1e-7

"""Tests for the group-sequential stopping machinery."""

import pytest

from repro.stats import (
    SequentialConfig,
    cumulative_alpha,
    decide_wave,
    design_effect,
    look_level,
    wilson_interval,
)


def _config(**overrides):
    defaults = dict(
        ci_target=0.01,
        wave_size=4,
        min_replications=8,
        max_replications=64,
    )
    defaults.update(overrides)
    return SequentialConfig(**defaults)


class TestSpendingFunctions:
    def test_monotone_in_information(self):
        alpha = 0.05
        previous = 0.0
        for t in (0.1, 0.25, 0.5, 0.75, 1.0):
            spent = cumulative_alpha(alpha, t)
            assert spent >= previous
            previous = spent

    def test_spends_exactly_alpha_at_full_information(self):
        assert cumulative_alpha(0.05, 1.0) == pytest.approx(0.05, abs=1e-9)

    def test_obf_back_loads_the_spend(self):
        """O'Brien–Fleming keeps early looks strict: at half the
        information, far less than half the alpha is spent, and at a
        tenth almost none."""
        assert cumulative_alpha(0.05, 0.5) < 0.5 * 0.05
        assert cumulative_alpha(0.05, 0.1) < 1e-4

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            cumulative_alpha(0.0, 0.5)


class TestLookLevels:
    def test_increments_sum_to_at_most_alpha(self):
        """The per-look spends across any look schedule stay within the
        total alpha budget — the union bound that keeps simultaneous
        coverage at the nominal level."""
        config = _config()
        alpha = 1.0 - config.level
        spent = 0.0
        previous_n = 0
        for n in range(config.min_replications,
                       config.max_replications + 1,
                       config.wave_size):
            spent += 1.0 - look_level(config, n, previous_n)
            previous_n = n
        # The epsilon floor on each look's spend (alpha·1e-6, so a level
        # is never exactly 1.0) can push the sum a hair past alpha.
        assert spent <= alpha + len(range(8, 65, 4)) * alpha * 1e-6

    def test_levels_are_stricter_than_nominal(self):
        config = _config()
        assert look_level(config, 8, 0) > config.level


class TestDecideWave:
    def test_below_min_never_stops(self):
        config = _config()
        decision = decide_wave(
            config, 1, [0.1, 0.2], (3, 20), previous_n=0
        )
        assert not decision.stop
        assert decision.reason == "below-min-replications"

    def test_stops_at_ci_target(self):
        config = _config(ci_target=0.2)
        fractions = [0.1] * 8
        decision = decide_wave(config, 1, fractions, (8, 80), previous_n=0)
        assert decision.stop
        assert decision.reason == "ci-target"
        assert decision.half_width <= 0.2

    def test_stops_at_max_replications(self):
        config = _config(ci_target=1e-9)
        fractions = [0.1] * 64
        decision = decide_wave(
            config, 15, fractions, (640, 6400), previous_n=60
        )
        assert decision.stop
        assert decision.reason == "max-replications"

    def test_pure_function_of_inputs(self):
        """The decision is replayable: identical inputs, identical
        decision object — this is what lets the journal pin stopping."""
        config = _config()
        args = (config, 3, [0.05] * 16, (40, 800))
        a = decide_wave(*args, previous_n=12)
        b = decide_wave(*args, previous_n=12)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_later_looks_easier_under_obf(self):
        """OBF spends almost nothing early, so the first look runs at a
        much stricter per-look level than the final one."""
        config = _config()
        first = look_level(config, 8, 0)
        final = look_level(config, 64, 60)
        assert first > final > config.level

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(ci_target=0.0)
        with pytest.raises(ValueError):
            _config(max_replications=4)  # < min_replications
        with pytest.raises(ValueError):
            _config(level=1.0)
        with pytest.raises(ValueError):
            _config(wave_size=0)


class TestDesignEffect:
    """Cluster correction of the pooled-count backends.

    Messages within one replication are correlated (losses cluster
    under contention), so the pooled Wilson interval must be
    widened by the measured between-replication variance — otherwise
    arms stop early and report bands ~sqrt(deff) too narrow on exactly
    the high-loss arms the figures compare.
    """

    # Eight units of 100 messages each; pooled p-hat is 0.2 either way,
    # but the clustered arm concentrates its losses in half the units.
    CLUSTERED = [0.0] * 4 + [0.4] * 4
    HOMOGENEOUS = [0.2] * 8
    COUNTS = (160, 800)

    def test_clustered_fractions_inflate_the_effect(self):
        assert design_effect(self.HOMOGENEOUS, self.COUNTS) == 1.0
        assert design_effect(self.CLUSTERED, self.COUNTS) > 10.0

    def test_clamped_to_one_at_boundaries_and_single_unit(self):
        # Degenerate p-hat (zero binomial variance) and k < 2 keep the
        # plain pooled interval — the Wilson boundary guard.
        assert design_effect([0.0] * 8, (0, 800)) == 1.0
        assert design_effect([1.0] * 8, (800, 800)) == 1.0
        assert design_effect([0.3], (30, 100)) == 1.0
        assert design_effect([], (0, 0)) == 1.0

    def test_clustering_widens_the_pooled_interval(self):
        config = _config(ci_target=1e-9)
        clustered = decide_wave(
            config, 1, self.CLUSTERED, self.COUNTS, previous_n=0
        )
        homogeneous = decide_wave(
            config, 1, self.HOMOGENEOUS, self.COUNTS, previous_n=0
        )
        assert homogeneous.design_effect == 1.0
        assert clustered.design_effect > 1.0
        assert clustered.half_width > homogeneous.half_width

    def test_clustered_arm_does_not_stop_on_naive_width(self):
        """The regression the correction exists for: the pooled counts
        alone would certify the target, but the between-replication
        variance says otherwise — the arm must keep running."""
        config = _config(ci_target=0.08)
        decision = decide_wave(
            config, 1, self.CLUSTERED, self.COUNTS, previous_n=0
        )
        naive = wilson_interval(*self.COUNTS, level=decision.look_level)
        assert naive.half_width <= config.ci_target
        assert not decision.stop
        assert decision.reason == "continue"

    def test_homogeneous_arm_still_stops(self):
        config = _config(ci_target=0.08)
        decision = decide_wave(
            config, 1, self.HOMOGENEOUS, self.COUNTS, previous_n=0
        )
        assert decision.stop
        assert decision.reason == "ci-target"

    def test_design_effect_is_journaled(self):
        config = _config()
        decision = decide_wave(
            config, 1, self.CLUSTERED, self.COUNTS, previous_n=0
        )
        payload = decision.to_dict()
        assert payload["design_effect"] == pytest.approx(
            decision.design_effect
        )
        assert payload["design_effect"] == pytest.approx(
            design_effect(self.CLUSTERED, self.COUNTS)
        )

"""The shared split primitives and the large-population startup budget.

Pins the structural claim behind the kernel unification: the reference
loop and the compiled engine both *consume the same split primitives* —
one split implementation, one examination-order rule — and the engine
takes its observation buffers and policy traits from the shared
primitive layer, so a protocol-semantics change lands in exactly one
place.  Checks ``WaitStats``, the wait accumulator of the reference
loops, against a direct mean.
Also holds the large-population startup guarantee:
simulator construction is O(1) in ``n_stations`` (the lazy
struct-of-arrays registry), checked under a time/memory budget and by
the ``REPRO_CHECK_INVARIANTS`` structural guard.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import ControlPolicy
from repro.core import splits as core_splits
from repro.core import window as core_window
from repro.core.timeline import Span
from repro.mac.kernels import engine, primitives
from repro.mac.simulator import WindowMACSimulator
from repro.mac.station import StationRegistry
from repro.resilience import invariants

M = 25
LAM = 0.5 / M


class TestUnifiedPrimitives:
    def test_reference_loop_splits_via_shared_primitives(self):
        # The reference windowing machinery delegates to the canonical
        # split: the compat alias in core.window IS core.splits'.
        assert core_window._split_parts is core_splits.split_parts

    def test_fast_kernels_split_via_shared_primitives(self):
        # The compiled engine imports the canonical split rules — not
        # copies.
        assert engine.split_parts is core_splits.split_parts
        assert engine.split_interval is core_splits.split_interval
        assert engine.examination_order is core_splits.examination_order

    def test_fast_kernel_reuses_primitive_layer(self):
        # The compiled engine's buffers and traits are imports from
        # repro.mac.kernels.primitives — not copies.
        assert engine.ObsBuffers is primitives.ObsBuffers
        assert engine.kernel_traits is primitives.kernel_traits

    def test_examination_order_covers_all_split_rules(self):
        rng = np.random.default_rng(3)
        assert list(core_splits.examination_order("older", 3, rng)) == [0, 1, 2]
        assert list(core_splits.examination_order("newer", 3, rng)) == [2, 1, 0]
        random_order = core_splits.examination_order("random", 3, rng)
        assert sorted(random_order) == [0, 1, 2]
        with pytest.raises(ValueError):
            core_splits.examination_order("random", 2, None)

    def test_split_parts_cuts_at_equal_measures(self):
        parts = core_splits.split_parts(Span(((0.0, 6.0),)), 3)
        assert [part.pieces for part in parts] == [
            ((0.0, 2.0),),
            ((2.0, 4.0),),
            ((4.0, 6.0),),
        ]

    @given(
        lo=st.floats(0.0, 1e6),
        width=st.one_of(
            st.just(0.0),
            st.floats(0.0, 2e-12),  # the 1e-12 edges of split_pieces
            st.floats(1e-9, 1e4),
        ),
        arity=st.integers(2, 4),
    )
    @example(lo=0.0, width=0.0, arity=2)
    @example(lo=0.0, width=1.5e-12, arity=2)  # the older part takes it all
    @example(lo=0.0, width=2.5e-12, arity=4)  # the older parts are empty
    @example(lo=1e4, width=3e-12, arity=3)  # cuts at a coarse ulp
    def test_split_interval_is_split_parts_on_one_interval(self, lo, width, arity):
        # The one-interval cut is a second coding of split_parts' walk:
        # the same parts, bit for bit, with None for an empty part.
        hi = lo + width
        flat = core_splits.split_parts([(lo, hi)], arity)
        parts = core_splits.split_interval(lo, hi, arity)

        def bits(part_list):
            return [[(a.hex(), b.hex()) for a, b in part] for part in part_list]

        assert bits([[] if part is None else [part] for part in parts]) == bits(flat)


class TestWaitStats:
    # The reference loops' wait accumulator.

    def test_empty_nan(self):
        waits = primitives.WaitStats()
        assert waits.count == 0
        assert math.isnan(waits.mean_true)
        assert math.isnan(waits.mean_paper)

    def test_means_match_numpy(self):
        true_values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        paper_values = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0]
        waits = primitives.WaitStats()
        for true_value, paper_value in zip(true_values, paper_values):
            waits.observe(true_value, paper_value)
        assert waits.count == len(true_values)
        assert waits.mean_true == pytest.approx(np.mean(true_values))
        assert waits.mean_paper == pytest.approx(np.mean(paper_values))

    @given(
        st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), max_size=200
        )
    )
    @example(pairs=[])
    def test_welford_matches_numpy_property(self, pairs):
        # Welford means agree with a direct mean; an empty run reports NaN.
        waits = primitives.WaitStats()
        for true_value, paper_value in pairs:
            waits.observe(true_value, paper_value)
        assert waits.count == len(pairs)
        if not pairs:
            assert math.isnan(waits.mean_true)
            assert math.isnan(waits.mean_paper)
            return
        true_values, paper_values = zip(*pairs)
        assert waits.mean_true == pytest.approx(
            np.mean(true_values), rel=1e-9, abs=1e-6
        )
        assert waits.mean_paper == pytest.approx(
            np.mean(paper_values), rel=1e-9, abs=1e-6
        )


class TestLinearStartup:
    def test_registry_construction_is_population_independent(self):
        # O(1): building a 1e5-station registry allocates no per-station
        # state.  Generous budgets (time well under the ~seconds a
        # linear object build took; memory well under one float per
        # station) still catch an O(n) regression by orders of
        # magnitude.
        tracemalloc.start()
        start = time.perf_counter()
        registry = StationRegistry(100_000)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert elapsed < 0.05
        assert peak < 100_000  # bytes: far below 8 B/station
        assert registry.n_stations == 100_000
        assert len(registry.stations) == 100_000
        assert registry.stations[99_999].window_scale == 1.0

    def test_simulator_construction_budget_at_1e5_stations(self):
        start = time.perf_counter()
        simulator = WindowMACSimulator(
            ControlPolicy.optimal(3.0 * M, LAM),
            arrival_rate=LAM,
            transmission_slots=M,
            n_stations=100_000,
            deadline=3.0 * M,
            seed=1,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5
        assert simulator.registry.n_stations == 100_000

    def test_scale_column_allocates_lazily_and_checks_invariants(
        self, monkeypatch
    ):
        monkeypatch.setenv(invariants.INVARIANTS_ENV, "1")
        registry = StationRegistry(1_000)
        registry.check_invariants()
        assert registry._scales is None
        registry.set_window_scale(7, 0.5)
        assert registry.has_scaled_stations
        registry.check_invariants()
        # Corrupt the counter: the structural guard must catch it.
        registry._n_scaled = 5
        with pytest.raises(invariants.InvariantViolation):
            registry.check_invariants()

    def test_constructor_runs_registry_invariants_when_enabled(
        self, monkeypatch
    ):
        monkeypatch.setenv(invariants.INVARIANTS_ENV, "1")
        simulator = WindowMACSimulator(
            ControlPolicy.optimal(3.0 * M, LAM),
            arrival_rate=LAM,
            transmission_slots=M,
            n_stations=500,
            deadline=3.0 * M,
            seed=1,
        )
        assert simulator.registry.n_stations == 500

"""Differential suite: optimized explorer equals the slow reference.

The production explorer in :mod:`repro.analysis.explore` caches
transitions, interns configurations, and reconstructs schedules from
parent pointers; :mod:`tests.analysis.reference_explore` is the
pre-optimization implementation kept verbatim.  For a corpus of
protocol instances — including the DiamondTrap and LastConfigBad
regression gadgets, whose traversal-order and budget edge cases are
exactly what caching tends to perturb — both must produce identical
:class:`ExplorationReport` values field-for-field, as ``repr`` byte
strings, and as summaries, serially and when sharded over prefix
ranges.  The read-modify-write families (swap, test-and-set,
compare-and-swap, the large-register emulation) are pinned the same way.
"""

import pytest

from repro.analysis import (
    ExplorationContext,
    explore_prefix_range,
    explore_protocol,
    schedule_prefixes,
)
from repro.protocols import (
    CASConsensus,
    KSetAgreementTask,
    LargeRegisterEmulation,
    RegularRegisterTask,
    SwapConsensus,
    TASConsensus,
)
from tests.analysis.reference_explore import (
    reference_explore_protocol,
    reference_schedule_prefixes,
)
from tests.gadgets import EXPLORE_CORPUS, SwapThenWrite

CASES = EXPLORE_CORPUS


def assert_reports_identical(optimized, reference):
    assert optimized == reference
    assert repr(optimized) == repr(reference)
    assert optimized.summary() == reference.summary()


class TestSerialDifferential:
    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("stop_first", [True, False])
    def test_report_identical(self, case, stop_first):
        factory, inputs, task, bounds = CASES[case]
        reference = reference_explore_protocol(
            factory(), inputs, task,
            stop_at_first_violation=stop_first, **bounds,
        )
        optimized = explore_protocol(
            factory(), inputs, task,
            stop_at_first_violation=stop_first, **bounds,
        )
        assert_reports_identical(optimized, reference)

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("prefix_depth", [1, 2, 3])
    def test_report_identical_with_prefix_depth(self, case, prefix_depth):
        factory, inputs, task, bounds = CASES[case]
        reference = reference_explore_protocol(
            factory(), inputs, task, prefix_depth=prefix_depth, **bounds,
        )
        optimized = explore_protocol(
            factory(), inputs, task, prefix_depth=prefix_depth, **bounds,
        )
        assert_reports_identical(optimized, reference)


class TestShardedDifferential:
    """Sharded optimized exploration merges to the reference's serial
    report — the ownership rule and merge monoid survive the caching."""

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_halves_merge_to_reference_serial(self, case):
        factory, inputs, task, bounds = CASES[case]
        depth = 2
        reference = reference_explore_protocol(
            factory(), inputs, task, prefix_depth=depth, **bounds,
        )
        protocol = factory()
        prefixes = schedule_prefixes(protocol, inputs, depth)
        half = len(prefixes) // 2
        left = explore_prefix_range(
            protocol, inputs, task, prefixes, 0, half, **bounds
        )
        right = explore_prefix_range(
            protocol, inputs, task, prefixes, half, len(prefixes), **bounds
        )
        assert_reports_identical(left.merge(right), reference)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_shared_context_across_shards_is_pure(self, case):
        """One ExplorationContext reused across every shard (the campaign
        engine's in-process layout) must not leak state between units."""
        factory, inputs, task, bounds = CASES[case]
        protocol = factory()
        reference = reference_explore_protocol(
            protocol, inputs, task, prefix_depth=2, **bounds,
        )
        ctx = ExplorationContext(protocol, inputs, task)
        prefixes = schedule_prefixes(protocol, inputs, 2, context=ctx)
        merged = None
        for unit in range(len(prefixes)):
            shard = explore_prefix_range(
                protocol, inputs, task, prefixes, unit, unit + 1,
                context=ctx, **bounds,
            )
            merged = shard if merged is None else merged.merge(shard)
        assert_reports_identical(merged, reference)


# The RMW base-object families: the reference steps them with the
# certificate verifier's own RMW semantics, independent of the
# ``apply_rmw`` table the explorer uses.
RMW_CASES = [
    (lambda: SwapConsensus(3), [0, 1, 2],
     KSetAgreementTask(1), dict(max_configs=100_000, max_steps=None)),
    (lambda: CASConsensus(3), [0, 1, 2],
     KSetAgreementTask(1), dict(max_configs=100_000, max_steps=None)),
    (lambda: TASConsensus(3), [0, 1, 2],
     KSetAgreementTask(1), dict(max_configs=100_000, max_steps=None)),
    (lambda: SwapThenWrite(2), [3, 4],
     KSetAgreementTask(2), dict(max_configs=100_000, max_steps=None)),
    (lambda: LargeRegisterEmulation(3, (2,), safe=False), [0, 0],
     RegularRegisterTask(3, (2,)), dict(max_configs=100_000,
                                        max_steps=None)),
]


class TestBaseObjectEncodingDifferential:
    """The explorer equals the reference over the RMW protocol families,
    serially and sharded."""

    @pytest.mark.parametrize("case", range(len(RMW_CASES)))
    @pytest.mark.parametrize("stop_first", [True, False])
    @pytest.mark.parametrize("prefix_depth", [0, 2])
    def test_packed_equals_reference(self, case, stop_first, prefix_depth):
        factory, inputs, task, bounds = RMW_CASES[case]
        reference = reference_explore_protocol(
            factory(), inputs, task, stop_at_first_violation=stop_first,
            prefix_depth=prefix_depth, **bounds,
        )
        optimized = explore_protocol(
            factory(), inputs, task, stop_at_first_violation=stop_first,
            prefix_depth=prefix_depth, **bounds,
        )
        assert_reports_identical(optimized, reference)

    @pytest.mark.parametrize("case", range(len(RMW_CASES)))
    def test_halves_merge_to_reference_serial(self, case):
        factory, inputs, task, bounds = RMW_CASES[case]
        depth = 2
        reference = reference_explore_protocol(
            factory(), inputs, task, prefix_depth=depth, **bounds,
        )
        protocol = factory()
        prefixes = schedule_prefixes(protocol, inputs, depth)
        half = len(prefixes) // 2
        left = explore_prefix_range(
            protocol, inputs, task, prefixes, 0, half, **bounds
        )
        right = explore_prefix_range(
            protocol, inputs, task, prefixes, half, len(prefixes), **bounds
        )
        assert_reports_identical(left.merge(right), reference)

    @pytest.mark.parametrize("case", range(len(RMW_CASES)))
    def test_shared_context_across_shards_is_pure(self, case):
        """The RMW successor cache must not leak state between units."""
        factory, inputs, task, bounds = RMW_CASES[case]
        protocol = factory()
        reference = reference_explore_protocol(
            protocol, inputs, task, prefix_depth=2, **bounds,
        )
        ctx = ExplorationContext(protocol, inputs, task)
        prefixes = schedule_prefixes(protocol, inputs, 2, context=ctx)
        merged = None
        for unit in range(len(prefixes)):
            shard = explore_prefix_range(
                protocol, inputs, task, prefixes, unit, unit + 1,
                context=ctx, **bounds,
            )
            merged = shard if merged is None else merged.merge(shard)
        assert_reports_identical(merged, reference)


class TestPrefixDecompositionDifferential:
    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("depth", [0, 1, 2, 4])
    def test_prefixes_identical(self, case, depth):
        factory, inputs, _task, _bounds = CASES[case]
        assert schedule_prefixes(factory(), inputs, depth) == (
            reference_schedule_prefixes(factory(), inputs, depth)
        )

"""Symmetry-reduced and packed exploration: contracts and reduction.

Three layers of guarantees:

* the packed configuration encoding is pure key encoding — the explorer
  produces reports byte-identical to the frozen reference explorer
  across this corpus (``tests.gadgets.EXPLORE_CORPUS`` plus the
  anonymous protocols), serially and sharded;
* symmetry reduction keeps the differential contract: identical reports
  for identity-group protocols (the reduction must be inert), and for
  full-symmetric protocols the same safe/unsafe verdict with a
  counterexample that replays — through the unreduced explorer — to a
  violating configuration;
* the reduction is *superlinear* on anonymous protocols: the visited
  configuration ratio unreduced/reduced grows with n (toward n!), it is
  not a constant factor.
"""

import pytest

from repro.analysis import (
    ExplorationContext,
    explore_prefix_range,
    explore_protocol,
    schedule_prefixes,
)
from repro.errors import ValidationError
from repro.protocols import (
    AnonymousSweepConsensus,
    KSetAgreementTask,
    RacingConsensus,
)
from repro.protocols.base import SYMMETRY_FULL, SYMMETRY_IDENTITY, Protocol
from tests.analysis.reference_explore import reference_explore_protocol
from tests.gadgets import EXPLORE_CORPUS

#: The packed-vs-reference corpus plus the anonymous protocols.
CASES = EXPLORE_CORPUS + [
    (lambda: AnonymousSweepConsensus(2, m=2), [0, 1],
     KSetAgreementTask(1), dict(max_configs=100_000, max_steps=10)),
    (lambda: AnonymousSweepConsensus(2, m=2, decision_round=1), [0, 1],
     KSetAgreementTask(1), dict(max_configs=100_000, max_steps=12)),
]


def assert_reports_identical(a, b):
    assert a == b
    assert repr(a) == repr(b)
    assert a.summary() == b.summary()


class TestSymmetryDeclarations:
    def test_default_group_is_identity(self):
        assert Protocol().symmetry() == SYMMETRY_IDENTITY
        assert RacingConsensus(2).symmetry() == SYMMETRY_IDENTITY

    def test_anonymous_declares_full(self):
        assert AnonymousSweepConsensus(3).symmetry() == SYMMETRY_FULL

    def test_unknown_group_rejected(self):
        class Weird(RacingConsensus):
            def symmetry(self):
                return "dihedral"

        with pytest.raises(ValidationError):
            ExplorationContext(
                Weird(2), [0, 1], KSetAgreementTask(1), symmetry=True
            )

    def test_identity_group_never_activates_reduction(self):
        ctx = ExplorationContext(
            RacingConsensus(2), [0, 1], KSetAgreementTask(1), symmetry=True
        )
        assert ctx.symmetry_requested and not ctx.symmetry

    @pytest.mark.parametrize("mismatch", [
        "symmetry", "inputs", "task", "protocol",
    ])
    def test_context_mode_mismatch_rejected(self, mismatch):
        # A context built for other inputs would silently explore the
        # wrong system (673 configurations instead of 4443 here); one
        # built without a task would crash deep inside the first check.
        protocol, inputs, task = (
            RacingConsensus(3), [0, 1, 2], KSetAgreementTask(1)
        )
        built = dict(protocol=protocol, inputs=inputs, task=task)
        built.update({
            "symmetry": {},
            "inputs": {"inputs": [0, 0, 0]},
            "task": {"task": None},
            "protocol": {"protocol": RacingConsensus(3)},
        }[mismatch])
        ctx = ExplorationContext(**built)
        prefixes = schedule_prefixes(protocol, inputs, 2)
        with pytest.raises(ValidationError, match=mismatch):
            explore_prefix_range(
                protocol, inputs, task, prefixes, 0, len(prefixes),
                max_steps=10, context=ctx,
                symmetry=mismatch == "symmetry",
            )
        if mismatch in ("inputs", "protocol"):
            with pytest.raises(ValidationError, match=mismatch):
                schedule_prefixes(protocol, inputs, 2, context=ctx)


class TestCanonicalKey:
    def test_permuted_configurations_share_a_key(self):
        protocol = AnonymousSweepConsensus(2, m=2)
        ctx = ExplorationContext(
            protocol, [0, 1], KSetAgreementTask(1), symmetry=True
        )
        # Intern the exact process permutation of a reachable
        # configuration: a distinct row (different states tuple) that
        # must share its canonical key.
        a = ctx.child(ctx.child(ctx.root, 0), 1)
        states = ctx.states_of(a)
        b = ctx._intern_scan((states[1], states[0]), ctx.memory_of(a))
        assert states != ctx.states_of(b)
        assert a != b
        assert ctx.canon_key(a) == ctx.canon_key(b)

    def test_distinct_memory_distinct_key(self):
        protocol = AnonymousSweepConsensus(2, m=2)
        ctx = ExplorationContext(
            protocol, [0, 1], KSetAgreementTask(1), symmetry=True
        )
        fresh = ctx.root
        # scan then write for process 0 changes memory; its canonical
        # key must differ from the untouched root's.
        written = ctx.child(ctx.child(fresh, 0), 0)
        assert ctx.canon_key(written) != ctx.canon_key(fresh)


class TestPackedDifferential:
    """The packed explorer equals the frozen reference explorer,
    serially and sharded."""

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("stop_first", [True, False])
    def test_serial(self, case, stop_first):
        factory, inputs, task, bounds = CASES[case]
        packed = explore_protocol(
            factory(), inputs, task,
            stop_at_first_violation=stop_first, **bounds,
        )
        reference = reference_explore_protocol(
            factory(), inputs, task,
            stop_at_first_violation=stop_first, **bounds,
        )
        assert_reports_identical(packed, reference)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_sharded_halves(self, case):
        factory, inputs, task, bounds = CASES[case]
        protocol = factory()
        depth = 2 if bounds["max_steps"] is None else min(
            2, bounds["max_steps"]
        )
        prefixes = schedule_prefixes(protocol, inputs, depth)
        mid = len(prefixes) // 2
        left = explore_prefix_range(
            protocol, inputs, task, prefixes, 0, mid, **bounds,
        )
        right = explore_prefix_range(
            protocol, inputs, task, prefixes, mid, len(prefixes), **bounds,
        )
        reference = reference_explore_protocol(
            factory(), inputs, task, prefix_depth=depth, **bounds,
        )
        assert_reports_identical(left.merge(right), reference)


class TestSymmetryDifferential:
    """Reduced vs unreduced across the corpus (the tentpole contract)."""

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("stop_first", [True, False])
    def test_contract(self, case, stop_first):
        factory, inputs, task, bounds = CASES[case]
        protocol = factory()
        unreduced = explore_protocol(
            protocol, inputs, task,
            stop_at_first_violation=stop_first, **bounds,
        )
        reduced = explore_protocol(
            factory(), inputs, task,
            stop_at_first_violation=stop_first, symmetry=True, **bounds,
        )
        if protocol.symmetry() == SYMMETRY_IDENTITY:
            # Identity group: the reduction must be inert.
            assert_reports_identical(unreduced, reduced)
            return
        assert reduced.safe == unreduced.safe
        assert reduced.configurations <= unreduced.configurations
        if not unreduced.safe:
            assert reduced.violations
            assert reduced.counterexample is not None
            # The reduced counterexample is a genuine schedule: it must
            # replay to a violating configuration through an unreduced
            # context.
            ctx = ExplorationContext(protocol, inputs, task)
            final = ctx.replay(reduced.counterexample)
            assert ctx.check(final)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_serial_equals_sharded(self, case):
        """Serial == sharded must hold in symmetry mode too."""
        factory, inputs, task, bounds = CASES[case]
        protocol = factory()
        depth = 2 if bounds["max_steps"] is None else min(
            2, bounds["max_steps"]
        )
        prefixes = schedule_prefixes(protocol, inputs, depth)
        serial = explore_prefix_range(
            protocol, inputs, task, prefixes, 0, len(prefixes),
            symmetry=True, **bounds,
        )
        mid = len(prefixes) // 2
        left = explore_prefix_range(
            factory(), inputs, task, prefixes, 0, mid,
            symmetry=True, **bounds,
        )
        right = explore_prefix_range(
            factory(), inputs, task, prefixes, mid, len(prefixes),
            symmetry=True, **bounds,
        )
        assert_reports_identical(serial, left.merge(right))


class TestSuperlinearReduction:
    def test_ratio_grows_with_n(self):
        """The visited-configuration reduction grows with n — it is a
        state-space collapse (toward n!), not a constant factor."""
        ratios = []
        for n in (2, 3):
            protocol = AnonymousSweepConsensus(n, m=2)
            inputs = [0] + [1] * (n - 1)
            task = KSetAgreementTask(1)
            bounds = dict(max_configs=10**7, max_steps=9)
            full = explore_protocol(protocol, inputs, task, **bounds)
            reduced = explore_protocol(
                protocol, inputs, task, symmetry=True, **bounds
            )
            # Budget is effectively unbounded; both runs stop at the
            # same depth horizon, so the comparison is apples-to-apples.
            assert full.safe == reduced.safe
            ratios.append(full.configurations / reduced.configurations)
        assert ratios[1] > ratios[0] > 1.0
        # n=3 collapses identical-state process pairs aggressively:
        # well beyond any fixed small constant.
        assert ratios[1] > 2.0

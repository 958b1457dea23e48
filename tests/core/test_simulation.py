"""Tests for the revisionist simulation harness (Section 4 / Appendix C)."""

import pytest

from repro.core import run_simulation
from repro.core.bg import run_bg_simulation
from repro.core.simulation import (
    SIM_BLOCK_TAG,
    SIM_DECISION_TAG,
    _BlockRecord,
    _find_anchor,
    build_setup,
)
from repro.errors import ProtocolError, ValidationError
from repro.protocols import (
    CASConsensus,
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    RotatingWrites,
    SwapConsensus,
    TASConsensus,
    TruncatedProtocol,
)
from repro.runtime import RandomScheduler, RoundRobinScheduler


class TestSetup:
    def test_partition_shapes(self):
        setup = build_setup(RotatingWrites(7, 3), k=2, x=1, inputs=[0, 1, 2])
        assert setup.covering_ranks == (0, 1)
        assert setup.direct_ranks == (2,)
        assert setup.process_map[0] == (0, 1, 2)
        assert setup.process_map[1] == (3, 4, 5)
        assert setup.process_map[2] == (6,)
        assert setup.simulated_count == 7

    def test_x_equals_k_single_covering(self):
        setup = build_setup(RotatingWrites(5, 3), k=2, x=2, inputs=[0, 1, 2])
        assert setup.covering_ranks == (0,)
        assert setup.direct_ranks == (1, 2)
        assert setup.simulated_count == 3 + 2

    def test_covering_ranks_below_direct_ranks(self):
        """The paper's requirement: covering simulators get the lower
        identifiers, so their Block-Updates take precedence."""
        setup = build_setup(RotatingWrites(9, 4), k=2, x=1, inputs=[0, 1, 2])
        assert max(setup.covering_ranks) < min(setup.direct_ranks)

    def test_input_count_checked(self):
        with pytest.raises(ValidationError):
            build_setup(RotatingWrites(7, 3), k=2, x=1, inputs=[0, 1])

    def test_protocol_too_small_rejected(self):
        with pytest.raises(ValidationError):
            build_setup(RotatingWrites(5, 3), k=2, x=1, inputs=[0, 1, 2])

    def test_parameter_ranges(self):
        with pytest.raises(ValidationError):
            build_setup(RotatingWrites(7, 3), k=0, x=1, inputs=[0])
        with pytest.raises(ValidationError):
            build_setup(RotatingWrites(7, 3), k=2, x=3, inputs=[0, 1, 2])


class TestFindAnchor:
    def test_no_log_no_anchor(self):
        assert _find_anchor([], [0]) is None

    def test_finds_matching_atomic(self):
        log = [_BlockRecord((0,), True, view=("v",))]
        assert _find_anchor(log, [0]) is log[0]

    def test_yield_records_do_not_anchor(self):
        log = [_BlockRecord((0,), False)]
        assert _find_anchor(log, [0]) is None

    def test_set_equality_not_order(self):
        log = [_BlockRecord((2, 0), True, view=("a", None, "b"))]
        assert _find_anchor(log, [0, 2]) is log[0]

    def test_wider_block_after_disqualifies(self):
        log = [
            _BlockRecord((0,), True, view=("v", None)),
            _BlockRecord((0, 1), True, view=("v", "w")),
        ]
        assert _find_anchor(log, [0]) is None

    def test_same_width_after_does_not_disqualify(self):
        log = [
            _BlockRecord((0,), True, view=("v", None)),
            _BlockRecord((1,), True, view=(None, "w")),
        ]
        assert _find_anchor(log, [0]) is log[0]

    def test_takes_last_matching(self):
        log = [
            _BlockRecord((0,), True, view=("old",)),
            _BlockRecord((0,), True, view=("new",)),
        ]
        assert _find_anchor(log, [0]).view == ("new",)


class TestPositiveRuns:
    """The simulation fed correct (weak-task) protocols: everything
    terminates wait-free, with validity."""

    @pytest.mark.parametrize("seed", range(8))
    def test_rotating_writes_all_simulators_decide(self, seed):
        protocol = RotatingWrites(7, 3, rounds=4)
        outcome = run_simulation(
            protocol, k=2, x=1, inputs=[5, 2, 8],
            scheduler=RandomScheduler(seed), max_steps=400_000,
        )
        assert outcome.result.completed
        assert outcome.all_decided

    @pytest.mark.parametrize("seed", range(8))
    def test_validity_inherited(self, seed):
        """Decided values are simulator inputs (Lemma 31's validity)."""
        inputs = [5, 2, 8]
        protocol = RotatingWrites(7, 3, rounds=4)
        outcome = run_simulation(
            protocol, k=2, x=1, inputs=inputs,
            scheduler=RandomScheduler(seed), max_steps=400_000,
        )
        for value in outcome.decisions.values():
            assert value in inputs

    def test_min_seen_truncated(self):
        protocol = TruncatedProtocol(MinSeen(5, rounds=2), 2)
        outcome = run_simulation(
            protocol, k=2, x=1, inputs=[3, 1, 2],
            scheduler=RoundRobinScheduler(), max_steps=200_000,
        )
        assert outcome.all_decided
        for value in outcome.decisions.values():
            assert value in (3, 1, 2)

    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_varying_x(self, x):
        k = 3
        m = 2
        n = (k + 1 - x) * m + x
        protocol = RotatingWrites(n, m, rounds=3)
        outcome = run_simulation(
            protocol, k=k, x=x, inputs=list(range(k + 1)),
            scheduler=RandomScheduler(x), max_steps=400_000,
        )
        assert outcome.result.completed
        assert outcome.all_decided

    @pytest.mark.parametrize("seed", range(5))
    def test_revisions_happen(self, seed):
        protocol = RotatingWrites(7, 3, rounds=6)
        outcome = run_simulation(
            protocol, k=2, x=1, inputs=[1, 2, 3],
            scheduler=RandomScheduler(seed), max_steps=400_000,
        )
        assert outcome.revision_count() > 0
        assert outcome.block_update_count() > 0


class TestFalsifier:
    """Theorem 3 run as an experiment: a protocol below the bound must
    expose a violation through the simulation."""

    @pytest.mark.parametrize("seed", range(10))
    def test_consensus_on_one_register_breaks(self, seed):
        broken = TruncatedProtocol(RacingConsensus(3), 1)
        outcome = run_simulation(
            broken, k=1, x=1, inputs=[0, 1],
            scheduler=RandomScheduler(seed), max_steps=200_000,
        )
        violations = outcome.task_violations(KSetAgreementTask(1))
        assert violations or outcome.result.diverged
        # Empirically, the violation is decisive: both values get decided.
        assert violations

    def test_full_cover_terminations_occur(self):
        broken = TruncatedProtocol(RacingConsensus(3), 1)
        outcome = run_simulation(
            broken, k=1, x=1, inputs=[0, 1],
            scheduler=RandomScheduler(0), max_steps=200_000,
        )
        vias = {
            event.payload["via"]
            for event in outcome.system.trace.annotations(SIM_DECISION_TAG)
        }
        assert "full_cover" in vias

    @pytest.mark.parametrize("seed", range(6))
    def test_k2_below_bound(self, seed):
        """n=5, k=2, x=1: bound is 3, so m=1 is far below — the aliasing
        collapses everything to one register and the simulators disagree."""
        broken = TruncatedProtocol(RacingConsensus(5), 1)
        outcome = run_simulation(
            broken, k=2, x=1, inputs=[0, 1, 2],
            scheduler=RandomScheduler(seed), max_steps=300_000,
        )
        violations = outcome.task_violations(KSetAgreementTask(2))
        assert violations or outcome.result.diverged


class TestTraceArtifacts:
    def test_block_update_annotations(self):
        protocol = RotatingWrites(7, 3, rounds=3)
        outcome = run_simulation(
            protocol, k=2, x=1, inputs=[1, 2, 3],
            scheduler=RandomScheduler(3), max_steps=400_000,
        )
        blocks = outcome.system.trace.annotations(SIM_BLOCK_TAG)
        assert blocks
        for event in blocks:
            assert event.payload["rank"] in (0, 1)

    def test_decisions_annotated_once_per_rank(self):
        protocol = RotatingWrites(7, 3, rounds=3)
        outcome = run_simulation(
            protocol, k=2, x=1, inputs=[1, 2, 3],
            scheduler=RandomScheduler(5), max_steps=400_000,
        )
        ranks = [
            event.payload["rank"]
            for event in outcome.system.trace.annotations(SIM_DECISION_TAG)
        ]
        assert sorted(ranks) == sorted(set(ranks))

    def test_space_accounting(self):
        """The augmented object reports H (k+1 components) plus touched
        helping cells."""
        protocol = RotatingWrites(7, 3, rounds=3)
        outcome = run_simulation(
            protocol, k=2, x=1, inputs=[1, 2, 3],
            scheduler=RandomScheduler(7), max_steps=400_000,
        )
        assert outcome.aug.register_count() >= 3


class TestReadWriteMemoryOnly:
    @pytest.mark.parametrize("protocol, operation", [
        (SwapConsensus(4), "swap"),
        (CASConsensus(4), "compare_and_swap"),
        # TASConsensus(n) uses n + 1 components, more than a simulation
        # of its n processes admits, so it runs truncated to two
        # registers; truncation itself rejects the first test-and-set
        # with an error of the same form.
        (TruncatedProtocol(TASConsensus(4), 2), "test_and_set"),
    ], ids=["swap", "cas", "tas"])
    def test_rmw_protocol_is_a_named_protocol_error(
        self, protocol, operation
    ):
        """Both simulations run over read/write memory, so an RMW step
        is the register runner's named error — not a failed unpack (the
        revisionist simulators) or a step misread as a scan (BG)."""
        runs = [
            lambda: run_simulation(
                protocol, 1, 1, [0, 1], RoundRobinScheduler()
            ),
            lambda: run_bg_simulation(
                protocol, [0, 1, 0, 1], 2, RoundRobinScheduler()
            ),
        ]
        for run in runs:
            with pytest.raises(ProtocolError) as excinfo:
                run()
            message = str(excinfo.value)
            assert message.startswith(f"{protocol.name}: ")
            assert repr(operation) in message
            assert "read/write registers cannot implement it" in message

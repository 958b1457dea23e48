"""Tests for the FLP valence machinery."""

import pytest

from repro.analysis import bivalent_initial_configurations, classify_valence
from repro.analysis.bivalence import (
    initial_configuration,
    step_configuration,
)
from repro.errors import ValidationError
from repro.protocols import ImmediateDecide, RacingConsensus


class TestConfigurationStepping:
    def test_initial_configuration_shape(self):
        protocol = RacingConsensus(2)
        states, memory = initial_configuration(protocol, [0, 1])
        assert len(states) == 2
        assert memory == (None, None)

    def test_step_applies_update(self):
        protocol = RacingConsensus(2)
        config = initial_configuration(protocol, [0, 1])
        config = step_configuration(protocol, config, 0)
        _states, memory = config
        assert memory[0] == (1, 0)

    def test_step_on_decided_raises(self):
        protocol = ImmediateDecide(1)
        config = initial_configuration(protocol, [7])
        config = step_configuration(protocol, config, 0)
        config = step_configuration(protocol, config, 0)
        with pytest.raises(ValidationError):
            step_configuration(protocol, config, 0)


class TestValence:
    def test_same_inputs_univalent(self):
        report = classify_valence(RacingConsensus(2), [1, 1])
        assert report.values == {1}
        assert report.univalent
        assert not report.bivalent

    def test_different_inputs_bivalent(self):
        """The FLP Lemma 2 shape: with inputs 0 and 1, both outcomes are
        reachable from the initial configuration."""
        report = classify_valence(RacingConsensus(2), [0, 1])
        assert report.bivalent
        assert report.values == {0, 1}

    def test_witness_schedules_replay(self):
        protocol = RacingConsensus(2)
        report = classify_valence(protocol, [0, 1])
        for value, schedule in report.witnesses.items():
            config = initial_configuration(protocol, [0, 1])
            for index in schedule:
                config = step_configuration(protocol, config, index)
            states, _memory = config
            decided = {protocol.decision(s) for s in states}
            assert value in decided

    def test_univalent_after_decision(self):
        """Once a process decided 0, only 0 remains reachable."""
        protocol = RacingConsensus(2)
        report = classify_valence(protocol, [0, 1])
        schedule = report.witnesses[0]
        config = initial_configuration(protocol, [0, 1])
        for index in schedule:
            config = step_configuration(protocol, config, index)
        later = classify_valence(protocol, [0, 1], config=config)
        assert later.values == {0}

    def test_truncation_reported(self):
        report = classify_valence(
            RacingConsensus(2), [1, 1], max_configs=1
        )
        assert report.truncated


class TestBivalentInitials:
    def test_finds_the_mixed_vectors(self):
        results = bivalent_initial_configurations(
            RacingConsensus(2), [(0, 0), (0, 1), (1, 0), (1, 1)]
        )
        vectors = {vector for vector, _report in results}
        assert vectors == {(0, 1), (1, 0)}

    def test_trivial_protocol_everything_bivalent(self):
        """ImmediateDecide is not consensus: mixed inputs give two outputs,
        which the valence tool reports as bivalence."""
        results = bivalent_initial_configurations(
            ImmediateDecide(2), [(0, 1)]
        )
        assert len(results) == 1

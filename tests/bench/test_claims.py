"""Deterministic witnesses for the hot-path and symmetry speed claims.

Each claim used to be a frozen pre-change ``BENCH_*.json`` that the
current run had to beat by 1.5x in wall time, on 2 ms workloads and on
whatever machine ran it.  Each test here pins instead a work count that
the claimed optimization makes small, on that experiment's exact quick
workload.  A count cannot flake, and undoing the optimization changes
it.  The symmetry-reduction claim needs no test of its own: the bench
gate pins E16's 23,246 explored classes exactly, and its full-mode
table asserts that the reduction grows superlinearly with n.
"""

from collections import Counter

import repro.core.sweep
from repro.bench.experiments import resolve
from repro.core import check_correspondence, run_simulation
from repro.protocols import RacingConsensus, RotatingWrites
from repro.runtime import RandomScheduler


def count_calls(monkeypatch, owner, *names):
    """Count calls to the methods ``names`` of ``owner`` in this test."""
    calls = Counter()
    for name in names:
        method = getattr(owner, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_e14_transition_cache_steps_each_state_once(monkeypatch):
    # Replaces the frozen pre-optimization E14 wall time.  The explorer
    # caches poised() per state and each transition per (state, memory),
    # so the protocol is asked about 96 states for 23,385 configurations.
    calls = count_calls(monkeypatch, RacingConsensus, "advance", "poised")
    [e14] = resolve(["E14"])
    assert e14.run(quick=True).units == 23_385
    assert calls == {"advance": 804, "poised": 96}


def test_e4_sweep_runs_without_operation_markers(monkeypatch):
    # Replaces the frozen pre-optimization E4 wall time.  A falsifier
    # sweep discards its traces, so it records the augmented object's
    # begin/end markers only when the Lemma 28 checker needs them:
    # 22 trace events per seed, where the markers make 30.
    events = []

    def traced(*args, **kwargs):
        outcome = run_simulation(*args, **kwargs)
        events.append(len(outcome.system.trace))
        return outcome

    monkeypatch.setattr(repro.core.sweep, "run_simulation", traced)
    [e4] = resolve(["E4"])
    assert e4.run(quick=True).units == 8
    assert events == [22] * 8
    assert sum(events) == 176


def test_e13_correspondence_replays_each_entry_once(monkeypatch):
    # Replaces the frozen pre-optimization E13 wall time.  The Lemma 28
    # checker replays ever-growing prefixes of sigma; advancing one tip
    # incrementally costs 125 protocol steps on E13's seed 0, where
    # replaying each prefix from scratch costs 996.
    outcome = run_simulation(
        RotatingWrites(7, 3, rounds=6), k=2, x=1, inputs=[5, 2, 8],
        scheduler=RandomScheduler(0),
    )
    calls = count_calls(monkeypatch, RotatingWrites, "advance")
    assert check_correspondence(outcome).ok
    assert calls == {"advance": 125}

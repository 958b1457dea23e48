#!/usr/bin/env python
"""A full experiment campaign in one command — hardware-parallel.

Runs multi-seed sweeps over the main experiment families — positive
simulation runs (with Lemma 28 verification), the Theorem 3 falsifier,
protocol safety, and schedule fuzzing — through the parallel campaign
engine (`repro.campaign`), and prints one consolidated report with
throughput telemetry per family.  The engine shards seeds across a
worker pool and merges partial reports deterministically, so the numbers
printed here are identical for any worker count (docs/CAMPAIGNS.md).
This is the "reproduce the paper's claims on my machine" entry point;
the per-table detail lives in `python -m repro bench run` (full mode).

Usage:  python examples/campaign.py [seeds] [workers]
"""

import sys

from repro.campaign import (
    fuzz_campaign,
    sweep_protocol_campaign,
    sweep_simulation_campaign,
)
from repro.core import kset_space_lower_bound, run_approx_simulation
from repro.protocols import (
    AveragingApprox,
    CommitAdopt,
    CommitAdoptTask,
    KSetAgreementTask,
    RacingConsensus,
    RotatingWrites,
    TruncatedProtocol,
)
from repro.runtime import RoundRobinScheduler


def main():
    seed_count = int(sys.argv[1]) if len(sys.argv) > 1 else 15
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else None
    seeds = range(seed_count)
    print(f"campaign over {seed_count} seeds per experiment "
          f"(workers={'auto' if workers is None else workers})\n")

    print("1. Revisionist simulation, positive runs (Lemma 28 verified):")
    result = sweep_simulation_campaign(
        RotatingWrites(7, 3, rounds=6), k=2, x=1, inputs=[5, 2, 8],
        seeds=seeds, verify_correspondence=True, workers=workers,
    )
    print(f"   {result.report.summary()}")
    print(f"   {result.telemetry.summary()}")
    assert result.report.clean
    assert result.report.all_decided == result.report.runs

    print("\n2. Theorem 3 falsifier (consensus on 1 register, bound is "
          f"{kset_space_lower_bound(2, 1, 1)}):")
    result = sweep_simulation_campaign(
        TruncatedProtocol(RacingConsensus(2), 1), k=1, x=1, inputs=[0, 1],
        seeds=seeds, task=KSetAgreementTask(1), workers=workers,
    )
    print(f"   {result.report.summary()}")
    print(f"   {result.telemetry.summary()}")
    print(f"   first violating seed: {result.report.first_violating_seed}")
    assert result.report.safety_violations == result.report.runs

    print("\n3. Protocol safety sweeps:")
    for protocol, inputs, task in (
        (RacingConsensus(3), [0, 1, 1], KSetAgreementTask(1)),
        (CommitAdopt(3), [0, 1, 2], CommitAdoptTask()),
        (AveragingApprox(3, 2 ** -8), [0, 1, 0], None),
    ):
        result = sweep_protocol_campaign(
            protocol, inputs, seeds, task=task, max_steps=100_000,
            workers=workers,
        )
        print(f"   {protocol.name}: {result.report.summary()}")
        print(f"      {result.telemetry.summary()}")
        assert result.report.safety_violations == 0

    print("\n4. Schedule fuzz (truncated consensus must lose agreement):")
    result = fuzz_campaign(
        TruncatedProtocol(RacingConsensus(3), 1), [0, 1, 2],
        KSetAgreementTask(1), runs=max(100, 10 * seed_count),
        schedule_length=40, seed=1, workers=workers,
    )
    print(f"   {result.report.summary()}")
    print(f"   {result.telemetry.summary()}")
    assert not result.report.clean
    assert result.report.minimized is not None

    print("\n5. Appendix D ε-independence (single illustrative run):")
    for exponent in (8, 24):
        protocol = TruncatedProtocol(AveragingApprox(4, 2.0 ** -exponent), 2)
        outcome = run_approx_simulation(
            protocol, [0, 1], RoundRobinScheduler()
        )
        print(f"   ε=2^-{exponent}: simulator steps = "
              f"{outcome.max_steps_taken}")

    print("\ncampaign complete: all claims held.")


if __name__ == "__main__":
    main()

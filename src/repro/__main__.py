"""Command-line interface: the paper's results from a shell.

Installed as the ``repro`` console script (``python -m repro`` is the
same entry point).  Usage::

    repro bounds [--n-max 32] [--k-max 4]
    repro simulate [--k 2] [--x 1] [--m 3] [--seed 0]
    repro falsify [--k 1] [--x 1] [--m 1] [--runs 10]
    repro approx [--m 2] [--eps-exp 16]
    repro check [--seed 0]
    repro campaign [--seeds 50] [--workers N] [--chunk-size C]
                   [--base-object swap] [--checkpoint PATH]
                   [--resume [PATH]] [--strict]
                   [--verify-certificates] [--certificates-dir DIR]
    repro explore [--scenario truncated | --base-object swap]
                  [--workers N] [--symmetry] [--packed/--no-packed]
                  [--verify-certificates]
                  [--checkpoint PATH] [--resume [PATH]] [--strict]
    repro certify emit [--scenario falsify] --out DIR
    repro certify verify [PATH ...] [--dir DIR] [--deep]
    repro serve --state DIR [--port 8765] [--workers N]
    repro bench run [--quick] [--experiments E13,E14]
    repro bench compare [--baseline baselines/]

``bounds`` prints the Theorem 3 table; ``simulate`` runs the revisionist
simulation on a correct workload and checks the Lemma 28 invariant;
``falsify`` feeds it an under-provisioned consensus protocol and reports
the violations; ``approx`` runs the Appendix D reduction and shows the
ε-independent step count; ``check`` runs the Appendix B lemma checkers on
a random augmented-snapshot execution; ``campaign`` runs the safety
oracles as hardware-parallel seed/fuzz campaigns through
:mod:`repro.campaign`, printing per-experiment reports with throughput
telemetry (results are byte-identical for any worker count — see
docs/CAMPAIGNS.md); ``explore`` runs the bounded-exhaustive model
checker sharded over schedule-prefix subtrees, optionally verifying the
sharded report against a serial run (``--symmetry`` reduces
full-symmetric protocols under process permutation, ``--no-packed``
falls back to the object-tuple configuration encoding — see
docs/PERFORMANCE.md); ``--base-object`` selects the memory primitive
the scenario is built from (register / swap / test-and-set /
compare-and-swap / the large-register emulation — see
EXPERIMENTS.md E17); ``certify`` emits and verifies the
witness certificates of :mod:`repro.certify` (docs/CERTIFICATES.md) —
machine-checkable claims that an independent verifier replays without
trusting the searcher that produced them; ``campaign
--verify-certificates`` applies the same gate inside the engine,
rejecting worker chunks whose certificates fail to replay;
``bench`` measures the EXPERIMENTS.md
experiments (E1–E17), writes schema-versioned ``BENCH_*.json`` artifacts,
and regression-gates them against a committed baseline (see
docs/BENCHMARKS.md); ``serve`` runs the campaign engine as a long-lived
multi-tenant job service — submit sweeps over HTTP, stream progress,
kill and restart the server without losing work (docs/SERVICE.md).

Both campaign commands are fault tolerant: failed or hung chunks are
retried with backoff (``--max-retries``), completed chunks are journaled
crash-safely with ``--checkpoint PATH``, and an interrupted run resumes
with ``--resume [PATH]`` — skipping finished chunks and merging to a
report identical to an uninterrupted run.  Chunks that exhaust their
retries degrade to an explicit partial result naming the missing unit
ranges; ``--strict`` turns a partial result into a non-zero exit.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

#: ``--base-object`` spelling -> the canonical explore scenario built on
#: that memory primitive.  ``register`` names the racing-consensus
#: scenario (the paper's read/write normal form); the rest name the
#: multi-primitive families of :mod:`repro.protocols.rmw` and
#: :mod:`repro.protocols.largereg`.
BASE_OBJECT_SCENARIOS = {
    "register": "racing",
    "swap": "swap",
    "tas": "tas",
    "cas": "cas",
    "large-register": "large-register",
}


def cmd_bounds(args) -> int:
    from repro.core import bound_table

    rows = bound_table(
        ns=range(2, args.n_max + 1),
        ks=range(1, args.k_max + 1),
        xs=range(1, args.k_max + 1),
    )
    print(f"{'n':>4} {'k':>3} {'x':>3} {'lower':>6} {'upper':>6} {'tight':>6}")
    for row in rows:
        print(
            f"{row.n:>4} {row.k:>3} {row.x:>3} {row.lower:>6} "
            f"{row.upper:>6} {'yes' if row.tight else '':>6}"
        )
    return 0


def cmd_simulate(args) -> int:
    from repro.core import check_correspondence, run_simulation
    from repro.protocols import RotatingWrites
    from repro.runtime import RandomScheduler

    n = (args.k + 1 - args.x) * args.m + args.x
    protocol = RotatingWrites(n, args.m, rounds=2 * args.m + 2)
    inputs = list(range(10, 11 + args.k))
    outcome = run_simulation(
        protocol, k=args.k, x=args.x, inputs=inputs,
        scheduler=RandomScheduler(args.seed), max_steps=800_000,
    )
    print(f"protocol: {protocol.name}  simulators: {args.k + 1} "
          f"(covering ranks {list(outcome.setup.covering_ranks)})")
    print(f"decisions: {outcome.decisions}")
    print(f"block-updates: {outcome.block_update_count()}  "
          f"revisions: {outcome.revision_count()}")
    correspondence = check_correspondence(outcome)
    print(f"Lemma 28 correspondence: "
          f"{'OK' if correspondence.ok else 'VIOLATED'} "
          f"(σ length {len(correspondence.entries)}, "
          f"{correspondence.hidden_steps} hidden)")
    return 0 if correspondence.ok and outcome.all_decided else 1


def cmd_falsify(args) -> int:
    from repro.core import (
        kset_space_lower_bound,
        run_simulation,
        simulated_process_count,
    )
    from repro.protocols import (
        KSetAgreementTask,
        RacingConsensus,
        TruncatedProtocol,
    )
    from repro.runtime import RandomScheduler

    n = simulated_process_count(args.m, args.k, args.x)
    bound = kset_space_lower_bound(n, args.k, args.x)
    # With n derived from m, m < bound always holds (the simulation pivot):
    # there is always something to falsify.
    assert args.m < bound
    task = KSetAgreementTask(args.k)
    hits = 0
    for seed in range(args.runs):
        protocol = TruncatedProtocol(RacingConsensus(n), args.m)
        outcome = run_simulation(
            protocol, k=args.k, x=args.x, inputs=list(range(args.k + 1)),
            scheduler=RandomScheduler(seed), max_steps=400_000,
        )
        violations = outcome.task_violations(task)
        if violations:
            hits += 1
            if hits == 1:
                print(f"seed {seed}: {violations[0]}")
    print(f"{hits}/{args.runs} runs exhibited a safety violation "
          f"(n={n}, m={args.m}, Theorem 3 bound={bound})")
    return 0


def cmd_approx(args) -> int:
    from repro.core import run_approx_simulation
    from repro.protocols import AveragingApprox, TruncatedProtocol
    from repro.runtime import RoundRobinScheduler

    eps = 2.0 ** -args.eps_exp
    protocol = TruncatedProtocol(AveragingApprox(2 * args.m, eps), args.m)
    outcome = run_approx_simulation(protocol, [0, 1], RoundRobinScheduler())
    hoest_shavit = math.log(1 / eps, 3)
    print(f"ε = 2^-{args.eps_exp}; Hoest-Shavit bound log3(1/ε) = "
          f"{hoest_shavit:.1f} steps")
    print(f"simulator steps (m={args.m}): {outcome.max_steps_taken} "
          f"— ε-independent")
    print(f"decisions: {outcome.decisions}")
    if outcome.max_steps_taken < hoest_shavit:
        print("the simulation beats the lower bound: a correct protocol "
              "with this m cannot exist (Appendix D)")
    return 0


def cmd_check(args) -> int:
    from repro.augmented import AugmentedSnapshot
    from repro.augmented.linearization import check_all
    from repro.runtime import RandomScheduler, System

    system = System()
    aug = AugmentedSnapshot("M", components=3, pids=[0, 1, 2])

    def body(proc):
        for round_no in range(4):
            yield from aug.block_update(
                proc.pid, [(proc.pid + round_no) % 3], [round_no]
            )
            yield from aug.scan(proc.pid)

    for _ in range(3):
        system.add_process(body)
    system.run(RandomScheduler(args.seed), max_steps=500_000)
    violations = check_all(system.trace, aug)
    print(f"steps: {len(system.trace.steps())}  "
          f"atomic: {sum(aug.atomic_counts.values())}  "
          f"yield: {sum(aug.yield_counts.values())}")
    if violations:
        for violation in violations:
            print("VIOLATION:", violation)
        return 1
    print("all Appendix B lemma checks passed")
    return 0


def _resolve_fault_tolerance(args):
    """Shared ``--checkpoint/--resume/--max-retries`` flag resolution.

    Returns ``(base_checkpoint_path_or_None, resume_bool, RetryPolicy)``
    or an integer exit code on invalid combinations.
    """
    from repro.campaign import RetryPolicy

    if args.max_retries < 0:
        print(f"error: --max-retries must be >= 0, got {args.max_retries}",
              file=sys.stderr)
        return 2
    checkpoint = args.checkpoint
    resume = False
    if args.resume is not None:
        resume = True
        if args.resume:
            checkpoint = args.resume
        elif checkpoint is None:
            print("error: --resume needs a path (or combine with "
                  "--checkpoint PATH)", file=sys.stderr)
            return 2
    return checkpoint, resume, RetryPolicy(max_retries=args.max_retries)


def _notice_fresh_resume(checkpoint, resume) -> None:
    """Announce a ``--resume`` whose journal doesn't exist yet.

    First boots of scripted runs (``repro campaign --checkpoint P
    --resume``) hit this path before any journal has been written; the
    engine starts fresh and creates the journal (and any missing parent
    directories) rather than failing, and this notice says so — silence
    here would look like chunks were being skipped.
    """
    if resume and checkpoint and not os.path.exists(checkpoint):
        print(f"notice: no checkpoint found at {checkpoint}; starting "
              f"fresh (the journal will be created there)",
              file=sys.stderr)


def cmd_campaign(args) -> int:
    from repro.campaign import (
        fuzz_campaign,
        sweep_protocol_campaign,
        sweep_simulation_campaign,
    )
    from repro.core import kset_space_lower_bound
    from repro.protocols import (
        CASConsensus,
        KSetAgreementTask,
        MinSeen,
        RacingConsensus,
        SwapConsensus,
        TASConsensus,
        TruncatedProtocol,
    )

    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.chunk_size is not None and args.chunk_size < 1:
        print(f"error: --chunk-size must be >= 1, got {args.chunk_size}",
              file=sys.stderr)
        return 2
    resolved = _resolve_fault_tolerance(args)
    if isinstance(resolved, int):
        return resolved
    base_checkpoint, resume, retry = resolved

    def fault_options(name):
        """Per-experiment engine options; checkpoints get a name suffix
        so ``--experiment all`` journals each campaign separately."""
        checkpoint = (
            f"{base_checkpoint}.{name}" if base_checkpoint else None
        )
        _notice_fresh_resume(checkpoint, resume)
        return dict(checkpoint=checkpoint, resume=resume, retry=retry)

    seeds = range(args.seeds)
    options = dict(
        workers=args.workers, chunk_size=args.chunk_size,
        verify_certificates=args.verify_certificates,
    )
    failures = 0
    partials = 0
    emitted: list = []

    def show(title, result, ok):
        nonlocal failures, partials
        print(f"{title}:")
        print(f"   {result.report.summary()}")
        print(f"   {result.telemetry.summary()}")
        emitted.extend(getattr(result.report, "certificates", None) or [])
        if not result.complete:
            partials += 1
            print("   PARTIAL RESULT — missing "
                  + "; ".join(result.missing))
        if not ok:
            failures += 1
            print("   EXPECTATION FAILED")

    if args.experiment in ("falsify", "all"):
        bound = kset_space_lower_bound(2, 1, 1)
        result = sweep_simulation_campaign(
            TruncatedProtocol(RacingConsensus(2), 1), k=1, x=1,
            inputs=[0, 1], seeds=seeds, task=KSetAgreementTask(1),
            **options, **fault_options("falsify"),
        )
        show(
            f"Theorem 3 falsifier (consensus on 1 register, bound {bound})",
            result,
            result.report.safety_violations == result.report.runs,
        )
        print(f"   first violating seed: "
              f"{result.report.first_violating_seed}")

    # Per-base-object protocol sweeps: each entry is the safe instance
    # of the family built on that primitive (expected clean under every
    # schedule the sweep draws).
    protocol_sweeps = {
        "register": (
            (RacingConsensus(3), [0, 1, 1], KSetAgreementTask(1)),
            (MinSeen(3, rounds=2), [4, 1, 9], KSetAgreementTask(3)),
        ),
        "swap": (
            (SwapConsensus(2), [0, 1], KSetAgreementTask(1)),
        ),
        "tas": (
            (TASConsensus(2), [0, 1], KSetAgreementTask(1)),
        ),
        "cas": (
            (CASConsensus(3), [0, 1, 2], KSetAgreementTask(1)),
        ),
    }

    if args.experiment in ("protocol", "all"):
        for protocol, inputs, task in protocol_sweeps[args.base_object]:
            result = sweep_protocol_campaign(
                protocol, inputs, seeds, task=task, **options,
                **fault_options(f"protocol-{protocol.name}"),
            )
            show(f"protocol safety: {protocol.name}", result,
                 result.report.clean)

    if args.experiment in ("fuzz", "all"):
        result = fuzz_campaign(
            TruncatedProtocol(RacingConsensus(3), 1), [0, 1, 2],
            KSetAgreementTask(1), runs=args.fuzz_runs,
            schedule_length=40, seed=args.seed, **options,
            **fault_options("fuzz"),
        )
        # The must-violate expectation is vacuous for a zero-run campaign:
        # an empty fuzz report is clean by construction, not evidence the
        # protocol is safe.
        ok = result.report.runs == 0 or not result.report.clean
        show("schedule fuzz (truncated consensus, must violate)", result, ok)
        if result.report.minimized is not None:
            print(f"   minimized counterexample: "
                  f"{result.report.minimized.minimized}")

    if args.certificates_dir is not None and emitted:
        from repro.certify.certificates import write_certificates

        paths = write_certificates(args.certificates_dir, emitted)
        print(f"\n{len(paths)} certificate(s) written to "
              f"{args.certificates_dir}")

    strict_partial = args.strict and partials
    if failures:
        print(f"\ncampaign FAILED: {failures} expectation(s) violated")
    elif strict_partial:
        print(f"\ncampaign INCOMPLETE (--strict): {partials} partial "
              f"result(s)")
    else:
        print("\ncampaign complete: all expectations held")
    return 0 if failures == 0 and not strict_partial else 1


def cmd_explore(args) -> int:
    from repro.analysis import explore_protocol
    from repro.campaign import explore_campaign
    from repro.protocols.scenarios import SCENARIOS

    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.chunk_size is not None and args.chunk_size < 1:
        print(f"error: --chunk-size must be >= 1, got {args.chunk_size}",
              file=sys.stderr)
        return 2
    if args.symmetry and not args.packed:
        # Fail fast: otherwise every chunk would burn its retry budget
        # on the same ValidationError inside the workers.
        print("error: --symmetry requires the packed encoding "
              "(drop --no-packed)", file=sys.stderr)
        return 2
    resolved = _resolve_fault_tolerance(args)
    if isinstance(resolved, int):
        return resolved
    checkpoint, resume, retry = resolved
    _notice_fresh_resume(checkpoint, resume)

    if args.base_object is not None:
        if args.scenario is not None:
            print("error: give --scenario or --base-object, not both",
                  file=sys.stderr)
            return 2
        scenario = BASE_OBJECT_SCENARIOS[args.base_object]
    else:
        scenario = args.scenario or "truncated"
    protocol, inputs, task, expect_safe = SCENARIOS[scenario]()

    result = explore_campaign(
        protocol, inputs, task,
        max_configs=args.max_configs, max_steps=args.max_steps,
        stop_at_first_violation=not args.collect_all,
        prefix_depth=args.prefix_depth,
        workers=args.workers, chunk_size=args.chunk_size,
        checkpoint=checkpoint, resume=resume, retry=retry,
        packed=args.packed, symmetry=args.symmetry,
        verify_certificates=args.verify_certificates,
    )
    mode = "" if args.packed else ", unpacked"
    if args.symmetry:
        mode += ", symmetry-reduced"
    if args.verify_certificates:
        mode += ", certificate-gated"
    print(f"exploring {protocol.name} on inputs {list(inputs)} "
          f"(prefix depth {args.prefix_depth}{mode}):")
    print(f"   {result.report.summary()}")
    print(f"   {result.telemetry.summary()}")
    if not result.complete:
        print("   PARTIAL RESULT — missing " + "; ".join(result.missing))
    if result.report.counterexample is not None:
        print(f"   counterexample schedule: {result.report.counterexample}")

    failures = 0
    if args.strict and not result.complete:
        failures += 1
    if result.report.safe != expect_safe:
        failures += 1
        print(f"   EXPECTATION FAILED: expected "
              f"{'safe' if expect_safe else 'unsafe'}")

    if args.verify_serial:
        serial = explore_protocol(
            protocol, inputs, task,
            max_configs=args.max_configs, max_steps=args.max_steps,
            stop_at_first_violation=not args.collect_all,
            prefix_depth=args.prefix_depth,
            packed=args.packed, symmetry=args.symmetry,
        )
        if result.report == serial and repr(result.report) == repr(serial):
            print("   serial verification: sharded report identical")
        else:
            failures += 1
            print("   serial verification FAILED:")
            print(f"      sharded: {result.report!r}")
            print(f"      serial:  {serial!r}")
    return 0 if failures == 0 else 1


def cmd_serve(args) -> int:
    from repro.serve.service import serve_main

    return serve_main(args)


def _add_fault_tolerance_args(subparser) -> None:
    """Install the shared checkpoint/resume/retry flags on a subparser."""
    subparser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal completed chunks to PATH (crash-safe)",
    )
    subparser.add_argument(
        "--resume", nargs="?", const="", default=None, metavar="PATH",
        help="resume from a checkpoint, skipping finished chunks "
             "(bare --resume reuses the --checkpoint path)",
    )
    subparser.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per failed or hung chunk (default: 2)",
    )
    subparser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any chunk permanently failed",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.protocols.scenarios import SCENARIOS

    # prog matches the installed console-script entry point (setup.cfg:
    # ``repro = repro.__main__:main``) so help text, docs, and the
    # ``python -m repro`` spelling all name the same command.
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Revisionist Simulations (PODC 2018), executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="print the Theorem 3 bound table")
    bounds.add_argument("--n-max", type=int, default=16)
    bounds.add_argument("--k-max", type=int, default=3)
    bounds.set_defaults(func=cmd_bounds)

    simulate = sub.add_parser("simulate", help="run the simulation")
    simulate.add_argument("--k", type=int, default=2)
    simulate.add_argument("--x", type=int, default=1)
    simulate.add_argument("--m", type=int, default=3)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=cmd_simulate)

    falsify = sub.add_parser("falsify", help="falsify below the bound")
    falsify.add_argument("--k", type=int, default=1)
    falsify.add_argument("--x", type=int, default=1)
    falsify.add_argument("--m", type=int, default=1)
    falsify.add_argument("--runs", type=int, default=10)
    falsify.set_defaults(func=cmd_falsify)

    approx = sub.add_parser("approx", help="Appendix D reduction")
    approx.add_argument("--m", type=int, default=2)
    approx.add_argument("--eps-exp", type=int, default=16)
    approx.set_defaults(func=cmd_approx)

    check = sub.add_parser("check", help="Appendix B lemma checks")
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=cmd_check)

    campaign = sub.add_parser(
        "campaign", help="parallel seed-sweep / fuzz campaigns"
    )
    campaign.add_argument("--seeds", type=int, default=50)
    campaign.add_argument("--workers", type=int, default=None)
    campaign.add_argument("--chunk-size", type=int, default=None)
    campaign.add_argument(
        "--experiment",
        choices=["falsify", "protocol", "fuzz", "all"],
        default="all",
    )
    campaign.add_argument(
        "--base-object",
        choices=["register", "swap", "tas", "cas"],
        default="register",
        help="memory primitive for the protocol-safety sweeps "
             "(default: register)",
    )
    campaign.add_argument("--fuzz-runs", type=int, default=200)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument(
        "--verify-certificates", action="store_true",
        help="make workers emit witness certificates and reject any "
             "chunk whose certificates fail independent replay",
    )
    campaign.add_argument(
        "--certificates-dir", default=None, metavar="DIR",
        help="write the final reports' certificates to DIR",
    )
    _add_fault_tolerance_args(campaign)
    campaign.set_defaults(func=cmd_campaign)

    explore = sub.add_parser(
        "explore", help="sharded bounded-exhaustive model checking"
    )
    explore.add_argument(
        "--scenario",
        choices=list(SCENARIOS),
        default=None,
        help="named scenario to explore (default: truncated)",
    )
    explore.add_argument(
        "--base-object",
        choices=sorted(BASE_OBJECT_SCENARIOS),
        default=None,
        help="pick the canonical scenario for a memory primitive "
             "(mutually exclusive with --scenario)",
    )
    explore.add_argument("--max-configs", type=int, default=200_000)
    explore.add_argument("--max-steps", type=int, default=30)
    explore.add_argument("--prefix-depth", type=int, default=2)
    explore.add_argument("--workers", type=int, default=None)
    explore.add_argument("--chunk-size", type=int, default=None)
    explore.add_argument(
        "--collect-all", action="store_true",
        help="keep exploring past the first violation",
    )
    explore.add_argument(
        "--symmetry", action="store_true",
        help="canonicalize configurations under process permutation "
             "(reduces protocols that declare full symmetry)",
    )
    explore.add_argument(
        "--packed", action=argparse.BooleanOptionalAction, default=True,
        help="pack configurations into integer keys (--no-packed falls "
             "back to the object-tuple encoding; reports are identical)",
    )
    explore.add_argument(
        "--verify-serial", action="store_true",
        help="re-run serially and assert the sharded report is identical",
    )
    explore.add_argument(
        "--verify-certificates", action="store_true",
        help="make workers emit witness certificates and reject any "
             "chunk whose certificates fail independent replay",
    )
    _add_fault_tolerance_args(explore)
    explore.set_defaults(func=cmd_explore)

    from repro.bench.cli import add_bench_parser
    from repro.certify.cli import add_certify_parser
    from repro.serve.service import add_serve_arguments

    serve = sub.add_parser(
        "serve", help="run the campaign job service (docs/SERVICE.md)"
    )
    add_serve_arguments(serve)
    serve.set_defaults(func=cmd_serve)

    add_bench_parser(sub)
    add_certify_parser(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

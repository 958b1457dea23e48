"""CLI plumbing for the ``repro bench`` subcommands.

``repro bench list`` prints the experiment registry; ``repro bench run``
measures experiments and writes ``BENCH_*.json`` artifacts; ``repro
bench compare`` diffs a run against a baseline directory and exits
nonzero on an incomparable pair (different work), a regression or a
missing experiment, which is what CI uses as its perf gate.

Exit codes: 0 success / gate passed; 1 gate failed; 2 usage error
(bad arguments, unreadable or schema-incompatible artifacts).
"""

from __future__ import annotations

import sys

from repro.errors import BenchSchemaError, ValidationError


def _split_selectors(raw) -> list:
    """Parse a repeatable/comma-separated ``--experiments`` value."""
    selectors = []
    for entry in raw or []:
        selectors.extend(s for s in entry.split(",") if s.strip())
    return selectors


def cmd_bench_list(args) -> int:
    """``repro bench list``: print the discoverable experiments."""
    from repro.bench.experiments import discover

    for experiment in discover():
        tag = " [campaign]" if experiment.campaign_backed else ""
        print(f"{experiment.eid:>4}  {experiment.name:<16} "
              f"{experiment.title}{tag}")
    return 0


def cmd_bench_run(args) -> int:
    """``repro bench run``: measure experiments, write artifacts."""
    from repro.bench.runner import run_experiments

    try:
        report = run_experiments(
            selectors=_split_selectors(args.experiments),
            quick=args.quick,
            repeats=args.repeats,
            warmup=args.warmup,
            out_dir=args.out,
            progress=print,
        )
    except (ValidationError, BenchSchemaError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"wrote {len(report.paths)} artifact(s) to {args.out}")
    return 0


def cmd_bench_compare(args) -> int:
    """``repro bench compare``: regression-gate a run against a baseline."""
    from repro.bench.compare import compare_runs

    try:
        report = compare_runs(
            baseline_dir=args.baseline,
            current_dir=args.current,
            threshold=args.threshold,
            iqr_factor=args.iqr_factor,
            slowdown=args.slowdown,
        )
    except (ValidationError, BenchSchemaError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.slowdown != 1.0:
        print(f"(injected slowdown x{args.slowdown} applied to the "
              f"current medians)")
    print(report.summary())
    return 0 if report.ok else 1


def add_bench_parser(subparsers) -> None:
    """Attach the ``bench`` subcommand tree to the main repro parser."""
    bench = subparsers.add_parser(
        "bench",
        help="measure experiments, write BENCH_*.json, gate regressions",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    listing = bench_sub.add_parser(
        "list", help="print the discoverable experiments"
    )
    listing.set_defaults(func=cmd_bench_list)

    run = bench_sub.add_parser(
        "run", help="measure experiments and write BENCH_*.json artifacts"
    )
    run.add_argument(
        "--experiments", action="append", default=None, metavar="SEL",
        help="experiments to run (E13, campaign, E13_campaign; "
             "comma-separated or repeated; default: all)",
    )
    run.add_argument(
        "--quick", action="store_true",
        help="CI-sized parameterisation of each workload (default: "
             "full scale, printing the EXPERIMENTS.md tables)",
    )
    run.add_argument("--repeats", type=int, default=3,
                     help="timed repeats per experiment (default 3)")
    run.add_argument("--warmup", type=int, default=1,
                     help="untimed warmup runs per experiment (default 1)")
    run.add_argument("--out", default=".",
                     help="directory for BENCH_*.json (default: cwd)")
    run.set_defaults(func=cmd_bench_run)

    compare = bench_sub.add_parser(
        "compare",
        help="diff current BENCH_*.json against a baseline directory",
    )
    compare.add_argument("--baseline", default="baselines",
                         help="baseline artifact directory "
                              "(default: baselines)")
    compare.add_argument("--current", default=".",
                         help="current artifact directory (default: cwd)")
    compare.add_argument(
        "--threshold", type=float, default=None,
        help="regression threshold ratio (default 1.5)",
    )
    compare.add_argument(
        "--iqr-factor", type=float, default=None,
        help="IQR multiplier in the noise allowance (default 2.0)",
    )
    compare.add_argument(
        "--slowdown", type=float, default=1.0,
        help="multiply current medians by this factor (CI self-test "
             "knob proving the gate trips)",
    )
    compare.set_defaults(func=_cmd_bench_compare_defaults)


def _cmd_bench_compare_defaults(args) -> int:
    """Fill late-bound defaults, then run the comparator command."""
    from repro.bench.compare import DEFAULT_IQR_FACTOR, DEFAULT_THRESHOLD

    if args.threshold is None:
        args.threshold = DEFAULT_THRESHOLD
    if args.iqr_factor is None:
        args.iqr_factor = DEFAULT_IQR_FACTOR
    return cmd_bench_compare(args)

"""Command-line interface for witness certificates.

``repro certify emit`` runs a named scenario through the ordinary
searchers with certificate emission turned on and writes the resulting
certificates to a directory; ``repro certify verify`` loads certificate
files and replays them through the independent verifier
(:mod:`repro.certify.verify`), reporting accept/reject per file.

Exit codes follow the drill contract (docs/CERTIFICATES.md): ``0`` —
every certificate verified; ``1`` — at least one certificate rejected
(or a scenario produced no violation to certify); ``2`` — usage error
or no certificate files found.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable, Dict, List

from repro.analysis.bivalence import classify_valence
from repro.analysis.covering import build_covering
from repro.analysis.explore import explore_protocol
from repro.analysis.fuzz import fuzz_protocol
from repro.certify.certificates import write_certificates
from repro.certify.verify import verify_file
from repro.core.sweep import sweep_protocol
from repro.protocols import scenarios as registry


def _scenario_falsify(runs: int, seed: int) -> Any:
    """Fuzz the Theorem 3 falsifier workload; certify its violations."""
    target = registry.SCENARIOS[registry.FUZZ_SCENARIO]()
    return fuzz_protocol(
        target.protocol, target.inputs, target.task, runs=runs,
        schedule_length=40, seed=seed, certificates=True,
    )


def _scenario_sweep(runs: int, seed: int) -> Any:
    """Seed-sweep the under-provisioned consensus; certify the extreme."""
    protocol, inputs, task, _expect_safe = registry.falsify_target()
    return sweep_protocol(
        protocol, inputs, list(range(seed, seed + runs)), task=task,
        max_steps=400_000, certificates=True,
    )


def _scenario_explore(runs: int, seed: int) -> Any:
    """Exhaustively find the canonical counterexample; certify it."""
    protocol, inputs, task, _expect_safe = registry.falsify_target()
    return explore_protocol(
        protocol, inputs, task, max_configs=max(runs, 1) * 1_000,
        certificates=True,
    )


def _scenario_valence(runs: int, seed: int) -> Any:
    """Certify the bivalence witness of racing consensus."""
    protocol, inputs, _task, _expect_safe = registry.SCENARIOS["racing"]()
    return classify_valence(protocol, inputs, certificates=True)


def _scenario_covering(runs: int, seed: int) -> Any:
    """Certify a covering configuration of racing consensus."""
    protocol, inputs, _task, _expect_safe = registry.SWEEPS["racing"]()
    return build_covering(protocol, inputs, certificates=True)


#: Named emit scenarios: each runs a searcher with certificates on and
#: returns its report.
SCENARIOS: Dict[str, Callable[[int, int], Any]] = {
    "falsify": _scenario_falsify,
    "sweep": _scenario_sweep,
    "explore": _scenario_explore,
    "valence": _scenario_valence,
    "covering": _scenario_covering,
}


def cmd_certify_emit(args) -> int:
    """Run a scenario and write its certificates to ``--out``."""
    report = SCENARIOS[args.scenario](args.runs, args.seed)
    certificates = list(report.certificates)
    if not certificates:
        print(f"scenario {args.scenario!r} produced no certificates "
              f"(no violation found?)", file=sys.stderr)
        return 1
    paths = write_certificates(args.out, certificates)
    for path in paths:
        print(path)
    print(f"{len(paths)} certificate(s) written to {args.out}")
    return 0


def _certificate_files(args) -> List[str]:
    """Resolve the file list for ``certify verify``."""
    if args.dir is not None:
        if not os.path.isdir(args.dir):
            print(f"error: not a directory: {args.dir}", file=sys.stderr)
            return []
        return [
            os.path.join(args.dir, name)
            for name in sorted(os.listdir(args.dir))
            if name.endswith(".json")
        ]
    return list(args.paths)


def cmd_certify_verify(args) -> int:
    """Verify certificate files; exit non-zero on any rejection."""
    files = _certificate_files(args)
    if not files:
        print("error: no certificate files to verify", file=sys.stderr)
        return 2
    rejected = 0
    for path in files:
        try:
            verdict = verify_file(path, deep=args.deep)
        except OSError as exc:
            print(f"REJECT {path}: unreadable ({exc})")
            rejected += 1
            continue
        if verdict.accepted:
            print(f"ok     {path}")
        else:
            detail = f" ({verdict.detail})" if verdict.detail else ""
            print(f"REJECT {path}: {verdict.reason}{detail}")
            rejected += 1
    total = len(files)
    print(f"{total - rejected}/{total} certificate(s) verified"
          + (f", {rejected} REJECTED" if rejected else ""))
    return 1 if rejected else 0


def add_certify_parser(sub) -> None:
    """Install the ``certify`` subcommand on the top-level CLI."""
    certify = sub.add_parser(
        "certify", help="emit and verify witness certificates"
    )
    certify_sub = certify.add_subparsers(
        dest="certify_command", required=True
    )

    emit = certify_sub.add_parser(
        "emit", help="run a scenario and write its certificates"
    )
    emit.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default="falsify",
    )
    emit.add_argument("--runs", type=int, default=100)
    emit.add_argument("--seed", type=int, default=0)
    emit.add_argument(
        "--out", required=True, metavar="DIR",
        help="directory to write certificate files into",
    )
    emit.set_defaults(func=cmd_certify_emit, size_floors={"runs": 0})

    verify = certify_sub.add_parser(
        "verify", help="replay certificate files through the verifier"
    )
    verify.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="certificate files to verify",
    )
    verify.add_argument(
        "--dir", default=None, metavar="DIR",
        help="verify every *.json certificate in DIR",
    )
    verify.add_argument(
        "--deep", action="store_true",
        help="also re-execute judgment certificates (slower)",
    )
    verify.set_defaults(func=cmd_certify_verify)

"""The benchmark's workloads, each in one pinned execution mode.

A workload is built from ``(seed, size)``: the seed picks its inputs
(seed range, input vector, kill chunk, or job order), the size picks how
much work one operation does (``full`` for measurement, ``tiny`` for the
benchmark's own tests).  Each workload offers:

* ``setup()`` — what a user pays before the first operation: imports
  (done by the module importing this one), protocol and context
  construction, pool or server start;
* ``reference()`` — the expected outputs, computed once through another
  path (a serial run, an uninterrupted run, a batch run) and turned into
  an expected digest;
* ``run_op()`` — one operation, checked against the reference;
* ``teardown()``.

Why each workload exists is written next to it and in README.md.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import repro.certify
from repro.analysis import explore_protocol
from repro.analysis.explore import ExplorationContext
from repro.campaign import (
    CampaignKilled,
    ExploreJob,
    FaultPlan,
    explore_campaign,
    run_campaign,
    sweep_simulation_campaign,
)
from repro.core.sweep import sweep_simulation
from repro.protocols import (
    AnonymousSweepConsensus,
    CASConsensus,
    KSetAgreementTask,
    LargeRegisterEmulation,
    RacingConsensus,
    RegularRegisterTask,
    RotatingWrites,
    SwapConsensus,
    TASConsensus,
    TruncatedProtocol,
)
from repro.serve import (
    JobSpec,
    JobStore,
    Scheduler,
    ServeApp,
    ServeClient,
    ServeClientError,
    build_job,
)

POOL_FORK = "pool:fork"
IN_PROCESS = "in-process"


def digest(reports: List[Any]) -> str:
    """SHA-256 over the ``repr`` of each report, in order."""
    hasher = hashlib.sha256()
    for report in reports:
        hasher.update(repr(report).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


@dataclass
class OpResult:
    """What one operation did and whether its outputs were right."""

    #: Work done, in the workload's unit (runs, configurations, jobs).
    units: int
    #: Digest of every report the operation produced.
    digest: str
    #: One entry per failed check, lost chunk, rejected certificate, or
    #: failed or refused job.
    failures: List[str] = field(default_factory=list)
    #: Checks made (the operation's share of ``attempted``).
    checks: int = 1
    #: ``(mode, workers)`` of every campaign the operation ran.
    modes: List[Tuple[str, int]] = field(default_factory=list)
    #: Latency samples of the jobs inside the operation (serve only;
    #: batch operations are one job each).
    job_latencies: List[float] = field(default_factory=list)
    #: Deterministic counts that must repeat exactly for one seed.
    counts: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer values only the workload can see (serve).
    layer: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Common shape of the four workloads."""

    name = ""
    unit = ""
    pinned_mode = IN_PROCESS
    pinned_workers = 1
    sizes: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, size: str, work_dir: str):
        self.seed = seed
        self.params = self.sizes[size]
        self.work_dir = work_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.expected: Optional[str] = None
        #: Workers the operations ask for; only tests change it, to
        #: check that a mode other than the pinned one is caught.
        self.workers = self.pinned_workers

    def setup(self) -> None:
        """Construct what the operations need."""

    def reference(self) -> None:
        """Compute the expected digest by an independent path."""
        raise NotImplementedError

    def prepare_op(self) -> None:
        """Untimed housekeeping before an operation."""

    def run_op(self) -> OpResult:
        """Run and check one operation."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` acquired."""

    def check_digest(self, result: OpResult) -> OpResult:
        """Compare the operation's digest with the expected one."""
        if result.digest != self.expected:
            result.failures.append(
                f"report digest {result.digest[:16]} != expected "
                f"{str(self.expected)[:16]}"
            )
        return result


# ----------------------------------------------------------------------


class Simulate(Workload):
    """Lemma-28-verified revisionist-simulation seed sweep, 2 fork workers.

    The paper's own construction: dominated by the runtime, the
    augmented snapshot, the simulation and its correspondence checker,
    with pool IPC and the merge fold over large chunks.  The seed picks
    the seed range.
    """

    name = "simulate"
    unit = "run"
    pinned_mode = POOL_FORK
    pinned_workers = 2
    sizes = {"full": {"seeds": 160}, "tiny": {"seeds": 4}}

    def setup(self) -> None:
        count = self.params["seeds"]
        self.seeds = list(range(self.seed * count, (self.seed + 1) * count))
        self.protocol = RotatingWrites(7, 3, rounds=6)
        # Pool start: fork both workers and wait until each has answered.
        from concurrent.futures import ProcessPoolExecutor

        from repro.campaign.engine import _pool_context

        with ProcessPoolExecutor(max_workers=self.workers,
                                 mp_context=_pool_context()) as pool:
            for future in [pool.submit(os.getpid)
                           for _ in range(self.workers)]:
                future.result()

    def _kwargs(self) -> Dict[str, Any]:
        return dict(k=2, x=1, inputs=[5, 2, 8], seeds=self.seeds,
                    verify_correspondence=True)

    def reference(self) -> None:
        report = sweep_simulation(self.protocol, **self._kwargs())
        self.expected = digest([report])

    def run_op(self) -> OpResult:
        result = sweep_simulation_campaign(
            self.protocol, workers=self.workers, **self._kwargs(),
        )
        report = result.report
        op = OpResult(
            units=report.runs, digest=digest([report]),
            modes=[(result.telemetry.mode, result.telemetry.workers)],
            counts={"runs": report.runs},
        )
        if not report.clean:
            op.failures.append("sweep report is not clean")
        if report.runs != len(self.seeds):
            op.failures.append(
                f"{report.runs} runs for {len(self.seeds)} seeds"
            )
        op.failures.extend(
            f"lost chunk {failure.index}" for failure in result.failed_chunks
        )
        return self.check_digest(op)


# ----------------------------------------------------------------------


class Explore(Workload):
    """Bounded-exhaustive, prefix-sharded exploration in-process.

    Dominated by the packed explorer's transition cache, interning and
    canonicalization; the runtime, the pool and certificates are absent.
    The seed picks the input vectors.
    """

    name = "explore"
    unit = "configuration"
    sizes = {
        "full": {"racing_steps": 16, "anonymous_steps": 11},
        "tiny": {"racing_steps": 6, "anonymous_steps": 5},
    }

    def setup(self) -> None:
        values = self.rng.sample(range(10), 3)
        self.racing_inputs = values
        # The dissenting value is always the smaller one: the explored
        # space depends on that order, and every seed must do equal work.
        dissent, majority = sorted(self.rng.sample(range(10), 2))
        anonymous = [majority] * 5
        anonymous[self.rng.randrange(5)] = dissent
        self.anonymous_inputs = anonymous
        # Context construction, as each campaign does before exploring.
        for protocol, inputs, symmetry in self._scenarios():
            ExplorationContext(protocol, inputs, KSetAgreementTask(1),
                               symmetry=symmetry)

    def _scenarios(self):
        return (
            (RacingConsensus(3), self.racing_inputs, False),
            (AnonymousSweepConsensus(5, m=2), self.anonymous_inputs, True),
        )

    def _options(self, symmetry: bool) -> Dict[str, Any]:
        if symmetry:
            return dict(max_configs=10_000_000, prefix_depth=2,
                        max_steps=self.params["anonymous_steps"],
                        symmetry=True)
        return dict(max_configs=5_000_000, prefix_depth=3,
                    max_steps=self.params["racing_steps"])

    def reference(self) -> None:
        self.reference_reports = [
            explore_protocol(protocol, inputs, KSetAgreementTask(1),
                             **self._options(symmetry))
            for protocol, inputs, symmetry in self._scenarios()
        ]
        self.expected = digest(self.reference_reports)

    def run_op(self) -> OpResult:
        reports, modes, failures = [], [], []
        for (protocol, inputs, symmetry), serial in zip(
            self._scenarios(), self.reference_reports
        ):
            result = explore_campaign(
                protocol, inputs, KSetAgreementTask(1),
                workers=self.workers, **self._options(symmetry),
            )
            report = result.report
            reports.append(report)
            modes.append((result.telemetry.mode, result.telemetry.workers))
            if not report.safe:
                failures.append(f"{protocol.name}: verdict is not safe")
            if report.configurations != serial.configurations:
                failures.append(
                    f"{protocol.name}: {report.configurations} "
                    f"configurations, serial reference "
                    f"{serial.configurations}"
                )
            failures.extend(
                f"{protocol.name}: lost chunk {failure.index}"
                for failure in result.failed_chunks
            )
        op = OpResult(
            units=sum(report.configurations for report in reports),
            digest=digest(reports), failures=failures, modes=modes,
            checks=len(reports),
            counts={"configurations": [r.configurations for r in reports]},
        )
        return self.check_digest(op)


# ----------------------------------------------------------------------


class Certified(Workload):
    """The untrusted-worker path, journaled, killed and resumed.

    Certificate-gated falsification plus full enumeration of the RMW
    and large-register families, every chunk journaled (small chunks, so
    many full-journal flushes), a kill partway through the falsification
    and a resume, then a deep re-verification of every certificate.  The
    seed picks the kill chunk.
    """

    name = "certified"
    unit = "configuration"
    sizes = {
        "full": {"falsify_depth": 4, "falsify_steps": 18,
                 "prefix_depth": 3, "n": 4, "domain": 4},
        "tiny": {"falsify_depth": 2, "falsify_steps": 10,
                 "prefix_depth": 2, "n": 3, "domain": 3},
    }

    def setup(self) -> None:
        self.journal_dir = tempfile.mkdtemp(prefix="certified-",
                                            dir=self.work_dir)
        falsify = ExploreJob(*self._falsification(),
                             **self._falsify_bounds())
        # Chunk size 1: one chunk per prefix unit.
        self.kill_chunk = 1 + self.rng.randrange(falsify.total_units() - 1)
        for protocol, inputs, task, _safe in self._enumerations():
            ExplorationContext(protocol, inputs, task)

    def teardown(self) -> None:
        shutil.rmtree(self.journal_dir, ignore_errors=True)

    def _falsification(self):
        return (TruncatedProtocol(RacingConsensus(3), 1), (0, 1, 2),
                KSetAgreementTask(1))

    def _enumerations(self):
        n, domain = self.params["n"], self.params["domain"]
        writes = (domain - 1, 0)
        consensus = KSetAgreementTask(1)
        inputs = tuple(range(n))
        return (
            (SwapConsensus(n), inputs, consensus, n <= 2),
            (TASConsensus(n), inputs, consensus, n <= 2),
            (CASConsensus(n), inputs, consensus, True),
            (LargeRegisterEmulation(domain, writes, safe=True), (0, 0),
             RegularRegisterTask(domain, writes), True),
        )

    def _falsify_bounds(self) -> Dict[str, int]:
        return {"max_steps": self.params["falsify_steps"],
                "prefix_depth": self.params["falsify_depth"]}

    def _campaign(self, protocol, inputs, task, name, *, stop, **extra):
        # The falsification journals one prefix unit per chunk (many
        # flushes of a growing journal); the enumerations use the
        # engine's default chunking.
        bounds = (dict(self._falsify_bounds(), chunk_size=1) if stop else
                  {"prefix_depth": self.params["prefix_depth"]})
        return explore_campaign(
            protocol, inputs, task, max_configs=300_000,
            stop_at_first_violation=stop, **bounds,
            workers=self.workers, verify_certificates=True,
            checkpoint=os.path.join(self.journal_dir, name + ".ckpt"),
            **extra,
        )

    def _clear_journals(self) -> None:
        for name in os.listdir(self.journal_dir):
            os.unlink(os.path.join(self.journal_dir, name))

    def reference(self) -> None:
        uninterrupted = self._campaign(*self._falsification(), "reference",
                                       stop=True)
        self.reference_report = uninterrupted.report
        reports = [uninterrupted.report]
        for index, (protocol, inputs, task, _safe) in enumerate(
            self._enumerations()
        ):
            reports.append(self._campaign(protocol, inputs, task,
                                          f"reference-{index}",
                                          stop=False).report)
        self._clear_journals()
        self.expected = digest(reports)

    def run_op(self) -> OpResult:
        failures, modes = [], []
        try:
            self._campaign(*self._falsification(), "falsify", stop=True,
                           faults=FaultPlan.kill_at(self.kill_chunk))
            failures.append(f"no kill at chunk {self.kill_chunk}")
        except CampaignKilled:
            pass
        resumed = self._campaign(*self._falsification(), "falsify",
                                 stop=True, resume=True)
        results = [resumed]
        if resumed.report.safe:
            failures.append("falsification found no violation")
        if resumed.report != self.reference_report or (
            repr(resumed.report) != repr(self.reference_report)
        ):
            failures.append("resumed report differs from uninterrupted")
        for index, (protocol, inputs, task, safe) in enumerate(
            self._enumerations()
        ):
            result = self._campaign(protocol, inputs, task, f"enum-{index}",
                                    stop=False)
            results.append(result)
            if result.report.safe != safe:
                failures.append(f"{protocol.name}: verdict safe="
                                f"{result.report.safe}, expected {safe}")
        certificates = []
        for result in results:
            modes.append((result.telemetry.mode, result.telemetry.workers))
            failures.extend(
                f"lost chunk {failure.index}"
                for failure in result.failed_chunks
            )
            certificates.extend(result.report.certificates or [])
        for certificate in certificates:
            verdict = repro.certify.verify(certificate, deep=True)
            if not verdict.accepted:
                failures.append(f"certificate rejected: {verdict.reason}")
        self._clear_journals()
        reports = [result.report for result in results]
        op = OpResult(
            units=sum(report.configurations for report in reports),
            digest=digest(reports), failures=failures, modes=modes,
            checks=len(results) + len(certificates),
            counts={"certificates": len(certificates)},
        )
        return self.check_digest(op)


# ----------------------------------------------------------------------


class Serve(Workload):
    """A closed loop of small jobs against the in-process service.

    One client, one connection at a time, against a ``ServeApp`` on
    127.0.0.1 whose scheduler runs one thread worker.  The only
    workload that measures the service: HTTP parsing, fsync'd job-store
    writes, and dispatch over the campaign pump.  The seed picks the job
    order.
    """

    name = "serve"
    unit = "job"
    sizes = {"full": {"repeat": 2, "epoch_ops": 10},
             "tiny": {"repeat": 1, "epoch_ops": 2}}

    #: One cycle of jobs: small explore and sweep campaigns.
    SPECS = (
        {"experiment": "explore", "scenario": "racing", "max_steps": 30},
        {"experiment": "explore", "scenario": "anonymous",
         "max_steps": 12, "symmetry": True},
        {"experiment": "explore", "scenario": "anonymous",
         "max_steps": 14, "symmetry": True},
        {"experiment": "explore", "scenario": "truncated",
         "max_steps": 16},
        {"experiment": "protocol", "protocol": "racing", "seeds": 300},
        {"experiment": "protocol", "protocol": "minseen", "seeds": 300},
        {"experiment": "falsify", "seeds": 120},
    )

    def setup(self) -> None:
        specs = [dict(spec) for spec in self.SPECS] * self.params["repeat"]
        self.rng.shuffle(specs)
        self.specs = specs
        self._start_service()

    def prepare_op(self) -> None:
        """Replace the service after a fixed number of operations.

        The scheduler keeps every job it has seen and scans them all on
        each dispatch, so its per-job cost grows with the jobs it holds.
        Serving the same number of jobs per instance makes every run
        measure the same history depth, however fast the machine is.
        """
        if self.served >= self.params["epoch_ops"]:
            self._stop_service()
            self._start_service()

    def _start_service(self) -> None:
        self.served = 0
        self.state_dir = tempfile.mkdtemp(prefix="serve-", dir=self.work_dir)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-serve", daemon=True)
        self.thread.start()
        store = JobStore(self.state_dir)
        scheduler = Scheduler(store, workers=self.workers,
                              executor="thread")
        self.app = ServeApp(store, scheduler)
        port = asyncio.run_coroutine_threadsafe(
            self.app.start(port=0), self.loop
        ).result(timeout=30)
        self.client = ServeClient("127.0.0.1", port)
        self.health = self.client.health()

    def teardown(self) -> None:
        self._stop_service()

    def _stop_service(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.app.stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)

    def reference(self) -> None:
        reports = {}
        for spec in self.SPECS:
            job_spec = JobSpec.from_dict(spec)
            reports[repr(spec)] = run_campaign(
                build_job(job_spec), workers=1,
                chunk_size=job_spec.chunk_size,
            ).report
        self.batch = reports
        self.expected = digest([reports[repr(spec)] for spec in self.specs])

    def mode(self) -> Tuple[str, int]:
        """The service's execution mode, as it reports it."""
        executor = self.health["executor"]
        mode = IN_PROCESS if executor == "thread" else f"pool ({executor})"
        return mode, self.health["workers"]

    def run_op(self) -> OpResult:
        reports, failures, latencies, waits = [], [], [], []
        refused = 0
        self.served += 1
        for spec in self.specs:
            submitted = time.time()
            try:
                job = self.client.submit(spec)
                # Follow the job's event stream to its terminal event
                # (one connection); ``wait`` then returns the final
                # status at once.  Polling would open a connection per
                # check, and each closed one lingers in TIME_WAIT and
                # slows every later connection on the machine.
                for _event in self.client.events(job["id"], follow=True):
                    pass
                status = self.client.wait(job["id"])
            except ServeClientError as error:
                refused += 1
                failures.append(f"job refused: {error}")
                continue
            if status["state"] != "done":
                failures.append(f"job {job['id']} ended {status['state']}")
                continue
            latencies.append(status["finished_at"] - submitted)
            waits.append(status["started_at"] - status["created_at"])
            report = self.client.report(job["id"])
            reports.append(report)
            if report != self.batch[repr(spec)]:
                failures.append(f"job {job['id']}: service report != batch")
        self.health = self.client.health()
        op = OpResult(
            units=len(reports), digest=digest(reports), failures=failures,
            checks=len(self.specs), modes=[self.mode()],
            job_latencies=latencies, counts={"jobs": len(reports)},
            layer={
                "serve.queue_wait_s": sum(waits) / len(waits)
                if waits else 0.0,
                "serve.refused": refused,
            },
        )
        return self.check_digest(op)


WORKLOADS = {cls.name: cls for cls in (Simulate, Explore, Certified, Serve)}

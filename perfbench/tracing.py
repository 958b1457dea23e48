"""Spans and counters recorded around the library's layer entry points.

The benchmark's traced run installs wrappers around the public functions
it reaches in each layer (runtime, augmented, core, memory, protocols,
analysis, campaign, certify, serve).  Nothing under ``src/`` changes:
:meth:`Tracer.install` rebinds every ``repro.*`` module attribute and
class attribute that refers to a wrapped callable, and
:meth:`Tracer.uninstall` puts the originals back.

Three kinds of wrapper exist, chosen by how often the call happens:

* **spans** (name, start, end, parent, job, pid) for calls that happen
  at most a few thousand times per operation;
* **generator spans** for the augmented object's ``block_update`` and
  ``scan``, timed across their resumptions and kept as per-name
  aggregates (calls, busy seconds) because a sweep runs hundreds of
  thousands of them;
* **counters** for per-transition calls (``poised``, ``advance``,
  ``apply_rmw``), counted only at the outermost protocol call so a
  delegating wrapper protocol is not counted twice.

Installation happens before any pool forks, so worker processes inherit
the wrappers.  A fork hook clears the inherited buffers in the child;
each worker writes its own spans and counters at exit (a
``multiprocessing`` finalizer, which pool workers run on shutdown) and
the parent merges the files with :meth:`Tracer.collect`.
"""

from __future__ import annotations

import functools
import glob
import importlib
import os
import pickle
import shutil
import statistics
import sys
import threading
import time
from contextvars import ContextVar
from collections import Counter, defaultdict
from dataclasses import dataclass
from multiprocessing import util
from typing import Any, Callable, Dict, List, Optional, Tuple


#: When the current service request began parsing (one value per task).
_REQUEST_START: ContextVar[float] = ContextVar("perfbench_request_start")


@dataclass
class Span:
    """One timed call: who caused it, which job it served, where it ran."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    job: Optional[str]
    pid: int
    #: Time inside aggregated child operations (generator spans) that
    #: ran while this span was the innermost open one.
    nested_s: float = 0.0

    @property
    def duration(self) -> float:
        """Wall seconds between start and end."""
        return self.end - self.start


class _Frame:
    """An open span on one thread's stack."""

    __slots__ = ("id", "nested_s")

    def __init__(self, span_id: int):
        self.id = span_id
        self.nested_s = 0.0


class Tracer:
    """In-memory span/counter recorder for one benchmark process tree."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.root_pid = os.getpid()
        self.job: Optional[str] = None
        self.installed = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._next = 0
        self._fork_hook_registered = False
        self.reset()

    # ------------------------------------------------------------------
    # Buffers

    def reset(self) -> None:
        """Drop everything recorded so far (start of a traced operation)."""
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: ``(owning span id or None, workers x wall seconds)`` of every
        #: campaign that finished (parent process only).
        self.capacities: List[Tuple[Optional[int], float]] = []

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return os.getpid() * 1_000_000_000 + self._next

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Recording primitives

    def call(self, name: str, fn: Callable, args, kwargs,
             on_exit: Optional[Callable] = None):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1].id if stack else None
        frame = _Frame(self._new_id())
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(frame.id, parent, name, start, end, self.job,
                        os.getpid(), frame.nested_s)
            self.spans.append(span)
        if on_exit is not None:
            on_exit(self, span, args, kwargs, result)
        return result

    async def request_start(self, fn: Callable, args, kwargs):
        """Note when the service began reading a request (per task)."""
        _REQUEST_START.set(time.perf_counter())
        return await fn(*args, **kwargs)

    async def request_end(self, name: str, fn: Callable, args, kwargs):
        """Close the request's span once it has been dispatched."""
        try:
            return await fn(*args, **kwargs)
        finally:
            start = _REQUEST_START.get(None)
            if start is not None:
                self.spans.append(Span(
                    self._new_id(), None, name, start, time.perf_counter(),
                    self.job, os.getpid(),
                ))

    def count(self, name: str, fn: Callable, args, kwargs):
        """Count an outermost protocol-level call, then run it."""
        local = self._local
        depth = getattr(local, "protocol_depth", 0)
        if depth == 0:
            self.counters[name] += 1
        local.protocol_depth = depth + 1
        try:
            return fn(*args, **kwargs)
        finally:
            local.protocol_depth = depth

    def generator(self, name: str, gen, on_result=None):
        """Drive ``gen``, timing it across its resumptions.

        The busy time of every resumption is added to ``name``'s
        aggregate and to the innermost open span's nested time, so that
        span's self time excludes it.
        """
        self.counters[name + ".calls"] += 1
        busy = 0.0
        value = None
        error: Optional[BaseException] = None
        try:
            while True:
                start = time.perf_counter()
                try:
                    request = (gen.send(value) if error is None
                               else gen.throw(error))
                except StopIteration as stop:
                    busy += time.perf_counter() - start
                    result = stop.value
                    break
                busy += time.perf_counter() - start
                error = None
                try:
                    value = yield request
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as thrown:  # forwarded to the op
                    error = thrown
        finally:
            self.busy[name] += busy
            stack = self._stack()
            if stack:
                stack[-1].nested_s += busy
        if on_result is not None:
            on_result(self, result)
        return result

    def sample(self, name: str, value: float) -> None:
        """Record one sample of a distribution (e.g. a unit's time)."""
        self.samples[name].append(value)

    # ------------------------------------------------------------------
    # Installing and removing wrappers

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _rebind_function(self, original: Callable, wrapper: Callable):
        """Replace ``original`` wherever a ``repro`` module binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def wrap_function(self, module: Any, attr: str, make: Callable):
        """Wrap a module-level function at every binding site."""
        original = getattr(module, attr)
        self._rebind_function(original, make(original))

    def wrap_method(self, cls: type, attr: str, make: Callable):
        """Wrap a method on one class."""
        self._patch(cls, attr, make(cls.__dict__[attr]))

    def install(self, targets: List["Target"]) -> None:
        """Install every target's wrapper (idempotent per install)."""
        if self.installed:
            return
        if not self._fork_hook_registered:
            # Runs in every multiprocessing child after the inherited
            # finalizer registry has been cleared (a plain os fork hook
            # runs before that, and its finalizer would be dropped).
            util.register_after_fork(self, Tracer._after_fork_in_child)
            self._fork_hook_registered = True
        for target in targets:
            target.install(self)
        self.installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False

    # ------------------------------------------------------------------
    # Worker processes

    def _dump_path(self, pid: int) -> str:
        return os.path.join(self.work_dir, f"worker-{pid}.pkl")

    def _after_fork_in_child(self) -> None:
        """Clear inherited buffers; arrange a dump at worker exit."""
        if not self.installed:
            return
        self._lock = threading.Lock()
        self.reset()
        util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        """Write this worker's spans and counters for the parent."""
        if os.getpid() == self.root_pid:
            return
        os.makedirs(self.work_dir, exist_ok=True)
        path = self._dump_path(os.getpid())
        with open(path + ".tmp", "wb") as handle:
            pickle.dump((self.spans, dict(self.counters), dict(self.busy),
                         dict(self.samples)), handle)
        os.replace(path + ".tmp", path)

    def collect(self) -> None:
        """Merge the files written by workers that have exited."""
        for path in sorted(glob.glob(os.path.join(self.work_dir,
                                                  "worker-*.pkl"))):
            with open(path, "rb") as handle:
                spans, counters, busy, samples = pickle.load(handle)
            os.unlink(path)
            self.spans.extend(spans)
            self.counters.update(counters)
            for name, seconds in busy.items():
                self.busy[name] += seconds
            for name, values in samples.items():
                self.samples[name].extend(values)

    def close(self) -> None:
        """Uninstall and remove the worker dump directory."""
        self.uninstall()
        shutil.rmtree(self.work_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Wrapper factories


def span_wrapper(tracer: Tracer, name: str, on_exit=None):
    """A factory wrapping a function in a span."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_exit)
        return wrapper
    return make


def request_start_wrapper(tracer: Tracer):
    """A factory marking where a service request's span begins."""
    def make(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            return await tracer.request_start(fn, args, kwargs)
        return wrapper
    return make


def request_end_wrapper(tracer: Tracer, name: str):
    """A factory closing a service request's span after dispatch."""
    def make(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            return await tracer.request_end(name, fn, args, kwargs)
        return wrapper
    return make


def count_wrapper(tracer: Tracer, name: str):
    """A factory counting outermost calls."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.count(name, fn, args, kwargs)
        return wrapper
    return make


def generator_wrapper(tracer: Tracer, name: str, on_result=None):
    """A factory timing a generator method across resumptions."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return (yield from tracer.generator(
                name, fn(*args, **kwargs), on_result
            ))
        return wrapper
    return make


def unit_wrapper(tracer: Tracer, name: str):
    """A factory recording each call's duration as a sample (no span)."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.sample(name, time.perf_counter() - start)
        return wrapper
    return make


@dataclass
class Target:
    """One wrapped entry point: where it lives and how to wrap it."""

    module: str
    attr: str
    factory: Callable[[Tracer], Callable]

    def install(self, tracer: Tracer) -> None:
        """Import the owner and patch the attribute (``Class.method``)."""
        module = importlib.import_module(self.module)
        make = self.factory(tracer)
        if "." in self.attr:
            class_name, method = self.attr.split(".", 1)
            tracer.wrap_method(getattr(module, class_name), method, make)
        else:
            tracer.wrap_function(module, self.attr, make)


class ProtocolTargets:
    """Counters on ``poised``/``advance`` of every Protocol subclass."""

    def install(self, tracer: Tracer) -> None:
        """Wrap each class that defines the methods itself."""
        from repro.protocols.base import Protocol

        pending = list(Protocol.__subclasses__())
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for method in ("poised", "advance"):
                if method in cls.__dict__:
                    tracer.wrap_method(
                        cls, method,
                        count_wrapper(tracer, f"protocols.{method}.calls"),
                    )


# ----------------------------------------------------------------------
# Exit hooks: counts read off return values


def _on_system_run(tracer, span, args, kwargs, result):
    tracer.counters["runtime.steps"] += result.steps


def _on_correspondence(tracer, span, args, kwargs, result):
    tracer.counters["core.check_correspondence.entries"] += len(
        result.entries
    )


def _on_explore_range(tracer, span, args, kwargs, result):
    tracer.counters["analysis.explore.configs"] += result.configurations


def _explore_range_factory(tracer: Tracer):
    """Span plus the advance calls (cache misses) made inside it."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.counters["protocols.advance.calls"]
            try:
                return tracer.call("analysis.explore", fn, args, kwargs,
                                   _on_explore_range)
            finally:
                tracer.counters["analysis.explore.advance_calls"] += (
                    tracer.counters["protocols.advance.calls"] - before
                )
        return wrapper
    return make


def _on_campaign_result(tracer, span, args, kwargs, result):
    telemetry = result.telemetry
    tracer.counters["campaign.retries"] += telemetry.retries
    # A blocking campaign owns the chunks under its span; a pump's
    # chunks run on the service's threads with no parent span.
    owner = span.id if span.name == "campaign.run" else None
    tracer.capacities.append(
        (owner, telemetry.wall_seconds * telemetry.workers)
    )


def _on_prepare(tracer, span, args, kwargs, result):
    if kwargs.get("resume") and result.completed:
        tracer.counters["campaign.resume.replayed_chunks"] += len(
            result.completed
        )
        tracer.sample("campaign.resume_s", span.duration)


def _execute_chunk_factory(tracer: Tracer):
    """Span per chunk; in a pool worker, also the bytes that crossed."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call("campaign.chunk", fn, args, kwargs)
            if os.getpid() != tracer.root_pid:
                tracer.counters["campaign.pickle_bytes"] += (
                    len(pickle.dumps((args, kwargs)))
                    + len(pickle.dumps(result))
                )
            return result
        return wrapper
    return make


def _on_flush(tracer, span, args, kwargs, result):
    writer = args[0]
    tracer.counters["campaign.checkpoint.flushes"] += 1
    tracer.counters["campaign.checkpoint.bytes_written"] += (
        os.path.getsize(writer.path)
    )


def _on_mint(tracer, span, args, kwargs, result):
    from repro.certify.certificates import to_json

    tracer.counters["certify.minted"] += 1
    tracer.counters["certify.canonical_bytes"] += len(to_json(result))


def _on_verify(tracer, span, args, kwargs, result):
    key = "certify.verified" if result.accepted else "certify.rejected"
    tracer.counters[key] += 1


def _on_block_update(tracer, result):
    from repro.augmented.views import YIELD

    if result is YIELD:
        tracer.counters["augmented.block_update.yields"] += 1


def layer_targets() -> List[Any]:
    """Every entry point the traced run wraps, layer by layer."""
    def span(name, on_exit=None):
        return lambda tracer: span_wrapper(tracer, name, on_exit)

    return [
        Target("repro.runtime.system", "System.run",
               span("runtime.system_run", _on_system_run)),
        Target("repro.augmented.object", "AugmentedSnapshot.block_update",
               lambda t: generator_wrapper(t, "augmented.block_update",
                                           _on_block_update)),
        Target("repro.augmented.object", "AugmentedSnapshot.scan",
               lambda t: generator_wrapper(t, "augmented.scan")),
        Target("repro.core.simulation", "run_simulation",
               span("core.run_simulation")),
        Target("repro.core.invariant", "check_correspondence",
               span("core.check_correspondence", _on_correspondence)),
        Target("repro.memory.rmw", "apply_rmw",
               lambda t: count_wrapper(t, "memory.apply_rmw.calls")),
        ProtocolTargets(),
        Target("repro.analysis.explore", "ExplorationContext.__init__",
               span("analysis.context_build")),
        Target("repro.analysis.explore", "explore_prefix_range",
               _explore_range_factory),
        # The per-unit function is private; it is the only place one
        # prefix unit's time can be taken without changing the library.
        Target("repro.analysis.explore", "_explore_unit",
               lambda t: unit_wrapper(t, "analysis.explore.unit_s")),
        Target("repro.campaign.engine", "run_campaign",
               span("campaign.run", _on_campaign_result)),
        Target("repro.campaign.pump", "CampaignPump.finalize",
               span("campaign.pump_finalize", _on_campaign_result)),
        Target("repro.campaign.pump", "prepare_campaign",
               span("campaign.prepare", _on_prepare)),
        Target("repro.campaign.pump", "execute_chunk",
               _execute_chunk_factory),
        Target("repro.campaign.pump", "merge_campaign",
               span("campaign.merge")),
        # The journal flush is private too; it is the call the
        # checkpoint cost grows with (a full rewrite per chunk).
        Target("repro.campaign.checkpoint", "CheckpointWriter._flush",
               span("campaign.checkpoint.flush", _on_flush)),
        Target("repro.certify.certificates", "make_certificate",
               span("certify.mint", _on_mint)),
        Target("repro.certify.verify", "verify",
               span("certify.verify", _on_verify)),
        # A request's span runs from the start of parsing to the end of
        # dispatch; the listener itself was bound before tracing began.
        Target("repro.serve.http", "read_request", request_start_wrapper),
        Target("repro.serve.service", "ServeApp._dispatch",
               lambda t: request_end_wrapper(t, "serve.http.request")),
        Target("repro.serve.store", "JobStore.save",
               span("serve.store.write")),
        Target("repro.serve.store", "JobStore.append_event",
               span("serve.store.write")),
        Target("repro.serve.store", "JobStore.save_result",
               span("serve.store.write")),
    ]


# ----------------------------------------------------------------------
# Turning one operation's record into per-layer numbers


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if end > span.start and start < span.end
        ]
        result[span.id] = max(
            0.0, span.duration - _union_length(covered) - span.nested_s
        )
    return result


def quantile(values: List[float], q: float) -> float:
    """The ``q`` quantile (inclusive method); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q * 100)) - 1])


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``extra`` carries the values only the workload knows (the serve
    queue wait and refusals, which the client reads off job status).
    """
    spans = tracer.spans
    counters = tracer.counters
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_sum(name: str) -> float:
        return sum((selfs[span.id] for span in by_name[name]), 0.0)

    def durations(name: str) -> List[float]:
        return [span.duration for span in by_name[name]]

    def total(values: List[float]) -> float:
        return sum(values, 0.0)

    chunk_times = durations("campaign.chunk")
    block_updates = counters["augmented.block_update.calls"]
    configs = counters["analysis.explore.configs"]
    # Utilization: chunk time over worker capacity, for campaigns that
    # finished (a killed campaign reports no telemetry).
    owners = {owner for owner, _ in tracer.capacities}
    capacity = sum((cap for _, cap in tracer.capacities), 0.0)
    busy = sum((span.duration for span in by_name["campaign.chunk"]
                if span.parent in owners), 0.0)

    # Pool start: from the end of a pooled campaign's setup to the first
    # chunk a worker process began.
    pool_starts = []
    prepares = {span.parent: span for span in by_name["campaign.prepare"]}
    for run in by_name["campaign.run"]:
        worker_chunks = [
            span.start for span in by_name["campaign.chunk"]
            if span.parent == run.id and span.pid != tracer.root_pid
        ]
        prepare = prepares.get(run.id)
        if worker_chunks and prepare is not None:
            pool_starts.append(min(worker_chunks) - prepare.end)

    requests = durations("serve.http.request")
    metrics = {
        "runtime.system_run.calls": len(by_name["runtime.system_run"]),
        "runtime.system_run.self_s": self_sum("runtime.system_run"),
        "runtime.steps": counters["runtime.steps"],
        "augmented.block_update.calls": block_updates,
        "augmented.scan.calls": counters["augmented.scan.calls"],
        "augmented.op_s": tracer.busy["augmented.block_update"]
        + tracer.busy["augmented.scan"],
        "augmented.yield_share": (
            counters["augmented.block_update.yields"] / block_updates
            if block_updates else 0.0
        ),
        "core.run_simulation.self_s": self_sum("core.run_simulation"),
        "core.check_correspondence.self_s":
            self_sum("core.check_correspondence"),
        "core.check_correspondence.entries":
            counters["core.check_correspondence.entries"],
        "memory.apply_rmw.calls": counters["memory.apply_rmw.calls"],
        "protocols.poised.calls": counters["protocols.poised.calls"],
        "protocols.advance.calls": counters["protocols.advance.calls"],
        "analysis.context_build_s": total(durations("analysis.context_build")),
        "analysis.explore.configs": configs,
        "analysis.explore.self_s": self_sum("analysis.explore"),
        "analysis.explore.unit_s_p50":
            quantile(tracer.samples["analysis.explore.unit_s"], 0.5),
        "analysis.explore.unit_s_p90":
            quantile(tracer.samples["analysis.explore.unit_s"], 0.9),
        "analysis.explore.miss_ratio": (
            counters["analysis.explore.advance_calls"] / configs
            if configs else 0.0
        ),
        "campaign.pool_start_s": (
            statistics.median(pool_starts) if pool_starts else 0.0
        ),
        "campaign.chunks": len(chunk_times),
        "campaign.chunk_s_p50": quantile(chunk_times, 0.5),
        "campaign.chunk_s_p90": quantile(chunk_times, 0.9),
        "campaign.utilization": busy / capacity if capacity else 0.0,
        "campaign.pickle_bytes": counters["campaign.pickle_bytes"],
        "campaign.merge_s": total(durations("campaign.merge")),
        "campaign.retries": counters["campaign.retries"],
        "campaign.checkpoint.flushes":
            counters["campaign.checkpoint.flushes"],
        "campaign.checkpoint.flush_s":
            total(durations("campaign.checkpoint.flush")),
        "campaign.checkpoint.bytes_written":
            counters["campaign.checkpoint.bytes_written"],
        "campaign.resume.replayed_chunks":
            counters["campaign.resume.replayed_chunks"],
        "campaign.resume_s": total(tracer.samples["campaign.resume_s"]),
        "certify.minted": counters["certify.minted"],
        "certify.mint_s": total(durations("certify.mint")),
        "certify.canonical_bytes": counters["certify.canonical_bytes"],
        "certify.verified": counters["certify.verified"],
        "certify.verify_s": total(durations("certify.verify")),
        "certify.rejected": counters["certify.rejected"],
        "serve.http.request_s_p50": quantile(requests, 0.5),
        "serve.http.request_s_p90": quantile(requests, 0.9),
        "serve.store.write_s": total(durations("serve.store.write")),
    }
    metrics["serve.queue_wait_s"] = 0.0
    metrics["serve.refused"] = 0
    metrics.update(extra)
    return metrics


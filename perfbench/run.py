"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics, plus ``bench.trace_overhead_share``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
execution mode, the deterministic counts, and every metric by name and
unit.  See perfbench/README.md for what each workload and metric means.

Exit status: 0 when every output was correct, 1 when an output check
failed or a count did not repeat, 2 when the checkout has no library to
benchmark, 3 when the workload's pinned execution mode was not honoured
(the run is incomparable, not a regression).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

from tracing import quantile  # noqa: E402  (perfbench/ is sys.path[0])

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCE = os.path.join(ROOT, "src")

#: Setup repetitions per run; the reported setup_s is their median.
SETUP_PROBES = 5

#: Counts that must repeat exactly between traced operations of one seed.
DETERMINISTIC_LAYER_COUNTS = (
    "runtime.steps",
    "analysis.explore.configs",
    "protocols.advance.calls",
    "certify.minted",
    "campaign.checkpoint.flushes",
)


def metric_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    """End-to-end and per-layer metric units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """The four measurement options plus the test and probe hooks."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="work per operation; tiny is for the benchmark's own tests",
    )
    parser.add_argument(
        "--expect-digest", default=None,
        help="replace the reference digest (tests use a forged one)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="override the pinned worker count (tests use it to force "
             "a mode the workload does not pin)",
    )
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail_without_library() -> None:
    """Exit 2 unless this checkout holds the library's source."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no library source at {SOURCE}/repro; run from "
              f"a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, BENCH_DIR)


def git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 of the library source: identifies the code outside git."""
    hasher = hashlib.sha256()
    package = os.path.join(SOURCE, "repro")
    for directory, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, SOURCE).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def cpu_affinity() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count, where Linux allows it.

    Each operation's peak is then its own, not that of the set-up or of
    the reference outputs computed before the first operation.  Elsewhere
    the count keeps running from process start, which only reads higher.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def setup_probe(args: argparse.Namespace) -> None:
    """Child side of a setup measurement: import, set up, report."""
    from workloads import WORKLOADS

    work_dir = os.environ["PERFBENCH_WORK"]
    workload = WORKLOADS[args.workload](args.seed, args.size, work_dir)
    workload.setup()
    elapsed = time.perf_counter() - PROCESS_START
    workload.teardown()
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(args: argparse.Namespace, work_dir: str) -> List[float]:
    """Set the workload up in fresh processes; one sample each."""
    samples = []
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--size", args.size,
    ]
    env = dict(os.environ, PERFBENCH_WORK=work_dir)
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=120,
            check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"setup probe failed ({completed.returncode}): "
                f"{completed.stderr.strip()[-2000:]}"
            )
        samples.append(
            json.loads(completed.stdout.splitlines()[-1])["setup_s"]
        )
    return samples


class Run:
    """One benchmark run: operations, checks, and accumulated samples."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.modes: List[Tuple[str, int]] = []
        self.nondeterminism: List[str] = []
        self.first_counts: Optional[Dict[str, Any]] = None
        self.first_layer_counts: Optional[Dict[str, Any]] = None
        self.untraced: List[Dict[str, float]] = []
        self.traced: List[Dict[str, float]] = []
        self.layers: List[Dict[str, float]] = []

    def op(self, index: int, traced: bool) -> Dict[str, float]:
        """Run one operation; returns its wall, CPU and unit counts."""
        tracer = self.tracer
        self.workload.prepare_op()
        if traced:
            from tracing import layer_targets

            tracer.reset()
            tracer.job = f"{self.workload.name}:{index}"
            tracer.install(layer_targets())
        reset_peak_rss()
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            result = self.workload.run_op()
        finally:
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu_start
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if traced:
                tracer.uninstall()
                tracer.collect()
        self.attempted += result.checks
        self.failed += min(result.checks, len(result.failures))
        self.failures.extend(result.failures)
        self.modes.extend(result.modes)
        counts = dict(result.counts, digest=result.digest)
        if self.first_counts is None:
            self.first_counts = counts
        elif counts != self.first_counts:
            self.nondeterminism.append(
                f"op {index}: counts {counts} != first {self.first_counts}"
            )
        sample = {"wall": wall, "cpu": cpu, "units": result.units,
                  "rss_kb": rss_kb,
                  "latencies": result.job_latencies or [wall]}
        if traced:
            from tracing import layer_metrics

            layer = layer_metrics(tracer, result.layer)
            repeat = {name: layer[name]
                      for name in DETERMINISTIC_LAYER_COUNTS}
            if self.first_layer_counts is None:
                self.first_layer_counts = repeat
            elif repeat != self.first_layer_counts:
                self.nondeterminism.append(
                    f"op {index}: layer counts {repeat} != first "
                    f"{self.first_layer_counts}"
                )
            self.layers.append(layer)
        return sample


def mode_record(workload, args, observed) -> Dict[str, Any]:
    """The execution mode written into every result."""
    return {
        "workload": workload.name,
        "pinned": {"mode": workload.pinned_mode,
                   "workers": workload.pinned_workers},
        "observed": sorted({f"{mode} x{workers}"
                            for mode, workers in observed}),
        "cpu_affinity": cpu_affinity(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "size": args.size,
    }


def mode_honoured(workload, observed) -> bool:
    """True when every campaign ran in exactly the pinned mode."""
    pinned = (workload.pinned_mode, workload.pinned_workers)
    return bool(observed) and all(
        (mode, workers) == pinned for mode, workers in observed
    )


def end_to_end(samples, setup_samples,
               children_rss_kb: int) -> Dict[str, float]:
    """The end-to-end metrics over a run's untraced operations."""
    latencies = [value for sample in samples
                 for value in sample["latencies"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "units_per_s": statistics.median(
            sample["units"] / sample["wall"] for sample in samples
        ),
        "cpu_ms_per_unit": statistics.median(
            1000.0 * sample["cpu"] / sample["units"] for sample in samples
        ),
        "peak_rss_mb": (max(sample["rss_kb"] for sample in samples)
                        + children_rss_kb) / 1024.0,
        "job_latency_p50_s": quantile(latencies, 0.5),
        "job_latency_p90_s": quantile(latencies, 0.9),
    }


def per_layer(run: Run, units: Dict[str, str]) -> Dict[str, float]:
    """Per-layer metrics: counts from the first traced op, times as
    medians over traced ops, and the tracing overhead."""
    metrics = {}
    for name, unit in units.items():
        if name == "bench.trace_overhead_share":
            continue
        values = [layer[name] for layer in run.layers]
        if unit in ("count", "bytes"):
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    pairs = min(len(run.untraced), len(run.traced))
    untraced = sum(sample["wall"] for sample in run.untraced[:pairs])
    traced = sum(sample["wall"] for sample in run.traced[:pairs])
    metrics["bench.trace_overhead_share"] = (traced - untraced) / untraced
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    """Run the workload named on the command line; see the module doc."""
    args = parse_args(argv)
    fail_without_library()
    if args.setup_probe:
        setup_probe(args)
        return 0

    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench-work")
    work_dir = os.path.join(work_root, str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    tracer = Tracer(os.path.join(work_dir, "trace")) if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.size, work_dir)
    if args.workers is not None:
        workload.workers = args.workers
    try:
        workload.setup()
        try:
            workload.reference()
            if args.expect_digest is not None:
                workload.expected = args.expect_digest
            run = Run(workload, tracer)
            run.op(0, traced=False)  # warm-up: checked, not timed
            deadline = time.perf_counter() + args.seconds
            index = 1
            minimum = 4 if args.trace else 3
            while index <= minimum or time.perf_counter() < deadline:
                traced = bool(args.trace) and index % 2 == 0
                sample = run.op(index, traced)
                (run.traced if traced else run.untraced).append(sample)
                index += 1
        finally:
            workload.teardown()
        # Before the set-up probes, which are children too.
        children_rss_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss
        if tracer is not None:
            tracer.close()
        setup_samples = measure_setup(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    honoured = mode_honoured(workload, run.modes)
    if not honoured:
        verdict = "incomparable"
    elif run.nondeterminism:
        verdict = "nondeterministic"
    elif run.failed:
        verdict = "failed"
    else:
        verdict = "ok"
    failed = run.failed + len(run.nondeterminism)
    if not honoured:
        failed = max(failed, 1)
    end_to_end_units, per_layer_units = metric_units()
    if args.trace:
        units = per_layer_units
        metrics = per_layer(run, units)
    else:
        units = end_to_end_units
        metrics = end_to_end(run.untraced, setup_samples, children_rss_kb)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"computed metrics {sorted(metrics)} do not match "
            f"BENCHMARK.json {sorted(units)}"
        )
    record = {
        "verdict": verdict,
        "mode": mode_record(workload, args, run.modes),
        "unit": workload.unit,
        "operations": len(run.untraced) + len(run.traced),
        "traced_operations": len(run.traced),
        "latency_samples": sum(len(s["latencies"]) for s in run.untraced),
        "failed_share": {"value": failed / max(1, run.attempted),
                         "unit": "ratio"},
        "counts": run.first_counts,
        "layer_counts": run.first_layer_counts,
        "failures": run.failures[:20],
        "nondeterminism": run.nondeterminism[:5],
    }
    print("perfbench " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_share {failed / max(1, run.attempted)!r} ratio")
    print(json.dumps({
        "correct": verdict == "ok",
        "attempted": max(1, run.attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    if verdict == "incomparable":
        return 3
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())

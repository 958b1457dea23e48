"""Runner and registry: discovery, measurement, artifact writing."""

import pytest

from repro.bench.experiments import (
    Experiment,
    PayloadResult,
    Table,
    discover,
    resolve,
)
from repro.bench.runner import measure_experiment, run_experiments
from repro.bench.schema import load_artifact
from repro.errors import ValidationError


def fake_experiment(calls, eid="E99", name="fake"):
    """An experiment whose payload just counts invocations."""

    def payload(quick):
        calls.append(quick)
        return PayloadResult(units=7, metrics={"invocations": len(calls)})

    return Experiment(eid=eid, name=name, title="fake payload",
                      payload=payload)


class TestRegistry:
    def test_discovers_all_seventeen_in_order(self):
        experiments = discover()
        assert [e.eid for e in experiments] == [
            f"E{i}" for i in range(1, 18)
        ]

    def test_campaign_backed_experiments_flagged(self):
        flagged = {e.eid for e in discover() if e.campaign_backed}
        assert flagged == {"E4", "E13", "E14", "E15", "E16", "E17"}

    def test_resolve_by_id_name_and_stem(self):
        assert [e.eid for e in resolve(["E13"])] == ["E13"]
        assert [e.eid for e in resolve(["explore"])] == ["E14"]
        assert [e.eid for e in resolve(["e2_bounds"])] == ["E2"]

    def test_resolve_sorts_and_dedupes(self):
        chosen = resolve(["E14", "E2", "explore"])
        assert [e.eid for e in chosen] == ["E2", "E14"]

    def test_resolve_unknown_selector_rejected(self):
        with pytest.raises(ValidationError, match="unknown experiment"):
            resolve(["E999"])


class TestMeasurement:
    def test_warmup_runs_are_untimed(self):
        calls = []
        artifact = measure_experiment(
            fake_experiment(calls), quick=True, repeats=3, warmup=2,
        )
        assert len(calls) == 5          # 2 warmup + 3 timed
        assert artifact.repeats == 3
        assert artifact.warmup == 2
        assert len(artifact.samples_seconds) == 3
        assert artifact.units == 7
        assert artifact.mode == "quick"

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValidationError, match="repeats"):
            measure_experiment(fake_experiment([]), quick=True,
                               repeats=0, warmup=0)

    def test_run_experiments_writes_valid_artifacts(self, tmp_path):
        calls = []
        report = run_experiments(
            out_dir=tmp_path, repeats=2, warmup=0,
            experiments=[fake_experiment(calls)],
        )
        [path] = report.paths
        assert path.name == "BENCH_E99_fake.json"
        loaded = load_artifact(path)
        assert loaded == report.artifacts[0]
        assert loaded.metrics["invocations"] >= 1
        assert "E99 fake: 7 units" in report.summary()

    def test_progress_callback_sees_each_experiment(self, tmp_path):
        lines = []
        run_experiments(
            out_dir=tmp_path, repeats=1, warmup=0, progress=lines.append,
            experiments=[fake_experiment([], eid="E98", name="one"),
                         fake_experiment([], eid="E97", name="two")],
        )
        assert len(lines) == 2
        assert "E98 one" in lines[0]

    def test_tables_follow_the_telemetry_line(self, tmp_path):
        table = Table("T1: demo", ("a", "bb"), [(1, 2), (333, 4)])
        tabled = Experiment(
            eid="E96", name="tabled", title="tables",
            payload=lambda quick: PayloadResult(units=1,
                                                tables=lambda: [table]),
        )
        lines = []
        run_experiments(out_dir=tmp_path, repeats=1, warmup=0,
                        progress=lines.append, experiments=[tabled])
        assert lines[0].startswith("E96 tabled: 1 units")
        assert lines[1:] == [
            "\n### T1: demo\na   | bb\n----+---\n1   | 2 \n333 | 4 "
        ]

    def test_tables_are_built_once_and_untimed(self, tmp_path, monkeypatch):
        # On a fake clock a payload costs 1 s and its table workload 100 s:
        # the samples must hold only the payload, the tables one build.
        clock = [0.0]
        events = []

        def build_tables():
            events.append("tables")
            clock[0] += 100.0
            return [Table("T2: slow", ("a",), [(1,)])]

        def payload(quick):
            events.append("run")
            clock[0] += 1.0
            return PayloadResult(units=5, tables=build_tables)

        monkeypatch.setattr("repro.bench.runner.time.perf_counter",
                            lambda: clock[0])
        report = run_experiments(
            out_dir=tmp_path, repeats=3, warmup=1, experiments=[
                Experiment(eid="E95", name="slowtables", title="t",
                           payload=payload),
            ],
        )
        assert events == ["run"] * 4 + ["tables"]
        assert list(report.artifacts[0].samples_seconds) == [1.0, 1.0, 1.0]


class TestRealExperiments:
    """One real registry payload end-to-end (E2 is milliseconds-fast)."""

    def test_e2_quick_writes_schema_valid_artifact(self, tmp_path):
        report = run_experiments(
            selectors=["E2"], quick=True, repeats=1, warmup=0,
            out_dir=tmp_path,
        )
        [artifact] = report.artifacts
        loaded = load_artifact(report.paths[0])
        assert loaded == artifact
        assert artifact.experiment == "E2"
        assert artifact.units == 948     # |grid| for n<=32, k,x<=8
        assert artifact.median_seconds > 0
        assert artifact.environment.cpu_count >= 1

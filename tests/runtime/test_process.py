"""Unit tests for the Process wrapper, driven through the System."""

import pytest

from repro.errors import SchedulerError
from repro.memory import Register
from repro.runtime import (
    CRASHED, DONE, READY, Invoke, Process, RoundRobinScheduler, System,
)


def make_register():
    return Register("r", initial=0)


class TestLifecycle:
    def test_initial_status_is_ready(self):
        proc = Process(0, lambda p: iter(()))
        assert proc.status == READY
        assert proc.is_active

    def test_default_name(self):
        proc = Process(7, lambda p: iter(()))
        assert proc.name == "p7"

    def test_explicit_name(self):
        proc = Process(7, lambda p: iter(()), name="scanner")
        assert proc.name == "scanner"

    def test_empty_body_completes_immediately(self):
        def body(p):
            return 42
            yield  # pragma: no cover - makes body a generator

        system = System()
        proc = system.add_process(body)
        assert system.step(0) is False  # finished without a step
        assert proc.status == DONE
        assert proc.output == 42
        assert not proc.is_active

    def test_advance_returns_yielded_request(self):
        """A step applies the body's request and holds the next one."""
        reg = make_register()

        def body(p):
            yield Invoke(reg, "read")
            yield Invoke(reg, "write", (5,))

        system = System()
        system.add_process(body)
        assert system.step(0) is True
        assert [e.op for e in system.trace.steps()] == ["read"]
        request = system.pending_operation(0)
        assert isinstance(request, Invoke)
        assert request.op == "write"

    def test_response_is_delivered(self):
        reg = Register("r", initial=99)
        seen = []

        def body(p):
            value = yield Invoke(reg, "read")
            seen.append(value)

        system = System()
        proc = system.add_process(body)
        system.run(RoundRobinScheduler())
        assert seen == [99]
        assert proc.status == DONE

    def test_advance_after_done_raises(self):
        def body(p):
            return None
            yield  # pragma: no cover

        system = System()
        system.add_process(body)
        system.step(0)
        with pytest.raises(SchedulerError):
            system.step(0)


class TestCrash:
    def test_crash_stops_process(self):
        reg = make_register()

        def body(p):
            yield Invoke(reg, "read")
            yield Invoke(reg, "read")

        system = System()
        proc = system.add_process(body)
        system.step(0)
        system.crash(0)
        assert proc.status == CRASHED
        with pytest.raises(SchedulerError):
            system.step(0)

    def test_crash_after_done_is_noop(self):
        def body(p):
            return "out"
            yield  # pragma: no cover

        system = System()
        proc = system.add_process(body)
        system.run(RoundRobinScheduler())
        proc.crash()
        assert proc.status == DONE
        assert proc.output == "out"

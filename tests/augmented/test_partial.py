"""Tests for the partially augmented snapshot — and the negative demo
showing why the full Figure 1 object needs the yield sign."""

import pytest

from repro.augmented import AugmentedSnapshot, YIELD
from repro.augmented.linearization import (
    check_all,
    check_returned_views,
    linearize,
)
from repro.augmented.partial import PartialAugmentedSnapshot
from repro.errors import ModelError, ValidationError
from repro.runtime import AdversarialScheduler, RandomScheduler, RoundRobinScheduler, System


def run(system, scheduler=None, max_steps=100_000):
    result = system.run(scheduler or RoundRobinScheduler(), max_steps=max_steps)
    assert result.completed
    return result


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValidationError):
            PartialAugmentedSnapshot("P", 0, [0])
        with pytest.raises(ValidationError):
            PartialAugmentedSnapshot("P", 1, [])
        with pytest.raises(ValidationError):
            PartialAugmentedSnapshot("P", 1, [0, 0])

    def test_only_q0_may_block_update(self):
        obj = PartialAugmentedSnapshot("P", 2, [0, 1])
        with pytest.raises(ModelError):
            next(obj.block_update(1, [0], ["v"]))

    def test_malformed_block_update(self):
        obj = PartialAugmentedSnapshot("P", 2, [0])
        with pytest.raises(ValidationError):
            next(obj.block_update(0, [], []))
        with pytest.raises(ValidationError):
            next(obj.block_update(0, [0, 0], ["a", "b"]))
        with pytest.raises(ValidationError):
            next(obj.block_update(0, [5], ["a"]))

    def test_update_component_range(self):
        obj = PartialAugmentedSnapshot("P", 2, [0, 1])
        with pytest.raises(ValidationError):
            next(obj.update(1, 7, "v"))


class TestBehaviour:
    def test_solo_block_update_returns_prior_view(self):
        obj = PartialAugmentedSnapshot("P", 3, [0])
        system = System()

        def body(proc):
            first = yield from obj.block_update(proc.pid, [0, 1], ["a", "b"])
            second = yield from obj.block_update(proc.pid, [2], ["c"])
            return first, second

        system.add_process(body)
        result = run(system)
        first, second = result.outputs[0]
        assert first == (None, None, None)
        assert second == ("a", "b", None)

    def test_updates_by_others_visible(self):
        obj = PartialAugmentedSnapshot("P", 2, [0, 1])
        system = System()

        def updater(proc):
            yield from obj.update(proc.pid, 1, "theirs")

        def scanner(proc):
            return (yield from obj.scan(proc.pid))

        system.add_process(updater, pid=1)
        result = run(system)
        system2 = System()
        system2.add_process(scanner, pid=0)
        # Reuse the same shared object in a fresh system for the read.
        result2 = system2.run(RoundRobinScheduler())
        assert result2.outputs[0] == (None, "theirs")

    @pytest.mark.parametrize("seed", range(10))
    def test_q0_views_consistent_with_scans(self, seed):
        """The partial object's guarantee: q_0's Block-Update views are
        consistent — a Scan that completed before the Block-Update's append
        is reflected in (a prefix relation with) the returned view."""
        obj = PartialAugmentedSnapshot("P", 2, pids=[0, 1, 2])
        system = System()
        log = {}

        def q0(proc):
            views = []
            for round_no in range(3):
                view = yield from obj.block_update(
                    proc.pid, [0], [f"q0.{round_no}"]
                )
                views.append(view)
            log["bu_views"] = views

        def other(proc):
            views = []
            for round_no in range(2):
                yield from obj.update(proc.pid, 1, f"{proc.pid}.{round_no}")
                views.append((yield from obj.scan(proc.pid)))
            log.setdefault("scan_views", []).extend(views)

        system.add_process(q0, pid=0)
        system.add_process(other, pid=1)
        system.add_process(other, pid=2)
        run(system, RandomScheduler(seed))
        # Every view's component 0 is one of q0's values or bottom, and
        # q0's own views never contain its *current* write (they are views
        # from before the Block-Update).
        for index, view in enumerate(log["bu_views"]):
            assert view[0] in (None, *[f"q0.{r}" for r in range(index)])
        # Appendix B reads the partial object's markers: every Update
        # (q0's and the single-component ones) and every Scan linearizes,
        # and no lemma fails.
        lin = linearize(system.trace, obj)
        assert [len(r.components) for r in lin.block_updates] == [1] * 7
        assert sum(p.kind == "update" for p in lin.sigma) == 7
        assert sum(p.kind == "scan" for p in lin.sigma) == len(lin.scans) == 4
        assert check_all(system.trace, obj) == []


class TestWhyFigureOneNeedsYield:
    """The adversarial schedule under which the *unsafe* partial object
    (everyone may Block-Update, no conflict check) returns an inconsistent
    view, while the full Figure 1 object returns ☡."""

    SCRIPT = [1] + [0] * 3 + [1] * 10  # q1 scans H; q0 runs its whole BU;
    # then q1 finishes without ever noticing.

    def test_unsafe_partial_returns_stale_view(self):
        obj = PartialAugmentedSnapshot(
            "P", 2, pids=[0, 1], unsafe_allow_any_rank=True
        )
        system = System()

        def q0(proc):
            return (yield from obj.block_update(proc.pid, [0], ["A"]))

        def q1(proc):
            return (yield from obj.block_update(proc.pid, [1], ["B"]))

        system.add_process(q0, pid=0)
        system.add_process(q1, pid=1)
        run(system, AdversarialScheduler(self.SCRIPT))
        # q0's Block-Update completed entirely before q1's append, yet q1's
        # returned view misses q0's update: the view is *stale* — if q1's
        # Block-Update were treated as atomic, the two windows would
        # overlap (the Lemma 21 violation the yield sign prevents).
        q1_view = system.processes[1].output
        assert q1_view[0] is None  # "A" is missing
        # The Appendix B checker names the broken lemma: no admissible
        # point before q1's Updates holds the view it returned.
        [violation] = check_returned_views(linearize(system.trace, obj))
        assert violation.startswith("Block-Update B")
        assert "returned (None, None)" in violation
        assert check_all(system.trace, obj) == [violation]

    def test_full_object_yields_under_same_schedule(self):
        aug = AugmentedSnapshot("M", components=2, pids=[0, 1])
        system = System()

        def q0(proc):
            return (yield from aug.block_update(proc.pid, [0], ["A"]))

        def q1(proc):
            return (yield from aug.block_update(proc.pid, [1], ["B"]))

        system.add_process(q0, pid=0)
        system.add_process(q1, pid=1)
        # Same shape: q1 scans; q0 runs its full (5-step) Block-Update;
        # q1 proceeds and must notice via its line-29 scan.
        run(system, AdversarialScheduler([1] + [0] * 5 + [1] * 10))
        assert system.processes[1].output is YIELD

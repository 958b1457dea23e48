"""The *partially* augmented snapshot: Block-Updates by q_0 only.

Appendix B alludes to a staged construction: "In the partially augmented
snapshot, only q_0 performed Block-Update operations and we ensured that
the return values of Block-Updates were consistent with the return values
of Scan operations."  This module implements that stage as Figure 1's
object with one restriction, so it reuses
:class:`~repro.augmented.object.AugmentedSnapshot` whole: the snapshot
``H``, the helping registers ``L``, ranks, op ids and the Scan of lines
14–21, which publishes its first collect so a concurrent Block-Update can
return a view consistent with it.

What it adds:

* a single-component ``update`` any process may run — one timestamped
  triple appended to H, trivially atomic;
* q_0's ``block_update``.  Because q_0 has no lower-identifier rival,
  *every* one of its Block-Updates is atomic, so lines 26–31 (the yield
  check and its helping writes) vanish and it never returns ☡;
* a deliberately *unsafe* mode (``unsafe_allow_any_rank=True``) that lets
  every process Block-Update without the yield check.  Tests use it to
  exhibit the inconsistent views that the full object's ☡ mechanism
  exists to prevent — the constructive answer to "why is Figure 1 so
  careful?".

Its markers carry the tag ``partial.op`` rather than ``aug.op``; every
operation, the one-component ``update`` included, is bracketed by
begin/end markers, so the Appendix B checkers of
:mod:`repro.augmented.linearization` read its traces as they read the
full object's.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence, Tuple

from repro.augmented.object import AugmentedSnapshot
from repro.augmented.views import timestamp_for_counts
from repro.errors import ModelError, ValidationError
from repro.runtime.events import Annotate, Invoke

PARTIAL_OP_TAG = "partial.op"


class PartialAugmentedSnapshot(AugmentedSnapshot):
    """m-component snapshot with Scans for all, Block-Updates for q_0.

    Processes other than q_0 may perform single-component ``update``
    operations (one-triple appends, trivially atomic).  q_0's
    ``block_update`` returns a view of the object at a point before its
    updates such that no Scan linearizes in between — the property the
    revisionist machinery needs, obtained here without any possibility of
    ☡ because no rival Block-Updates exist.
    """

    OP_TAG = PARTIAL_OP_TAG

    def __init__(
        self,
        name: str,
        components: int,
        pids: Sequence[int],
        unsafe_allow_any_rank: bool = False,
    ) -> None:
        super().__init__(name, components, pids)
        self.unsafe_allow_any_rank = unsafe_allow_any_rank

    def update(
        self, pid: int, component: int, value: Any
    ) -> Generator[Any, Any, None]:
        """A single-component update by any process (atomic at its append)."""
        rank = self.rank_of(pid)
        if not 0 <= component < self.m:
            raise ValidationError(f"component {component} out of range")
        op_id = self._next_op_id("U")
        yield Annotate(PARTIAL_OP_TAG, {
            "object": self.name, "kind": "update", "phase": "begin",
            "op_id": op_id, "rank": rank, "components": (component,),
            "values": (value,),
        })
        h = yield self._h_scan
        stamp = timestamp_for_counts(self._history_counts(h), rank)
        yield Invoke(
            self.H, "update", (rank, h[rank] + ((component, value, stamp),))
        )
        yield Annotate(PARTIAL_OP_TAG, {
            "object": self.name, "kind": "update", "phase": "end",
            "op_id": op_id, "rank": rank, "timestamp": stamp,
            "result": "update",
        })
        return None

    def block_update(
        self,
        pid: int,
        components: Sequence[int],
        values: Sequence[Any],
    ) -> Generator[Any, Any, Tuple[Any, ...]]:
        """q_0's always-atomic Block-Update; returns a pre-update view.

        Figure 1 minus the conflict machinery: scan H, stamp, append all
        triples, then choose the latest of {own collect} ∪ {views published
        by concurrent Scans} (lines 32–37).  Never returns ☡.
        """
        rank = self.rank_of(pid)
        if rank != 0 and not self.unsafe_allow_any_rank:
            raise ModelError(
                f"{self.name}: only q_0 may Block-Update the partially "
                "augmented snapshot"
            )
        comps, vals = self._block_arguments(components, values)
        op_id = self._next_op_id("B")
        yield Annotate(PARTIAL_OP_TAG, {
            "object": self.name, "kind": "block_update", "phase": "begin",
            "op_id": op_id, "rank": rank, "components": tuple(comps),
            "values": tuple(vals),
        })
        h = yield self._h_scan
        h_counts = self._history_counts(h)
        stamp = timestamp_for_counts(h_counts, rank)
        triples = tuple((c, v, stamp) for c, v in zip(comps, vals))
        yield Invoke(self.H, "update", (rank, h[rank] + triples))
        view = yield from self._helped_view(rank, h, h_counts[rank])
        yield Annotate(PARTIAL_OP_TAG, {
            "object": self.name, "kind": "block_update", "phase": "end",
            "op_id": op_id, "rank": rank, "timestamp": stamp,
            "result": "view", "view": view,
        })
        return view

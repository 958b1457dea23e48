"""The augmented snapshot implementation — Figure 1, line by line.

The object is shared by k+1 processes ``q_0, ..., q_k`` (given as an ordered
pid list; *rank* = position = the paper's identifier, and lower ranks take
precedence).  It uses:

* ``H`` — a (k+1)-component single-writer atomic snapshot; component ``i``
  holds the history of q_i's Updates as a tuple of triples
  ``(component_of_M, value, timestamp)``.
* ``L[i][j]`` for ``i != j`` — unbounded arrays of single-writer
  single-reader registers; q_i writes ``L[i][j][b]`` to help q_j determine
  the return value of its b'th Block-Update.

``scan`` and ``block_update`` are generator methods (drive them with
``yield from`` inside a process body); every primitive step they take is one
scheduling step, so adversaries interleave the implementation freely.
Begin/end markers are emitted as zero-cost annotations; the Appendix B
analysis (:mod:`repro.augmented.linearization`) consumes them to compute
execution intervals and linearization points.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Sequence, Tuple

from repro.augmented.views import (
    YIELD,
    get_view,
    history_count,
    is_proper_prefix,
    timestamp_for_counts,
)
from repro.errors import ModelError, ValidationError
from repro.memory.registers import RegisterArray
from repro.memory.snapshot import SingleWriterSnapshot
from repro.runtime.events import Annotate, Invoke

#: Annotation tag used for operation begin/end markers.
AUG_OP_TAG = "aug.op"


class AugmentedSnapshot:
    """An m-component augmented multi-writer snapshot for k+1 processes.

    Args:
        name: shared-object name prefix (must be system-unique).
        components: m, the number of components of the simulated snapshot M.
        pids: the k+1 sharing processes *in identifier order*; ``pids[0]``
            is q_0, whose Block-Updates always take precedence.

    Progress (Lemma 23): ``block_update`` is wait-free; ``scan`` is
    non-blocking — it can only be delayed by concurrent Block-Updates.

    ``annotate=False`` suppresses the zero-cost begin/end markers; only the
    Appendix B trace analysis (:mod:`repro.augmented.linearization`) reads
    them, so callers that never run it (e.g. aggregate sweeps that discard
    traces) skip the per-operation marker overhead.
    """

    #: Tag of this object's begin/end markers (a subclass may rename it).
    OP_TAG = AUG_OP_TAG

    def __init__(
        self,
        name: str,
        components: int,
        pids: Sequence[int],
        register_level: bool = False,
        annotate: bool = True,
    ) -> None:
        if components < 1:
            raise ValidationError("augmented snapshot needs at least one component")
        if len(pids) < 1:
            raise ValidationError("augmented snapshot needs at least one process")
        self.name = name
        self.m = components
        self.pids = list(pids)
        self._rank = {pid: i for i, pid in enumerate(self.pids)}
        if len(self._rank) != len(self.pids):
            raise ValidationError("duplicate pids")
        self.register_level = register_level
        self.annotate = annotate
        # H[i] = history of q_i, initially the empty tuple (the paper's ⊥).
        if register_level:
            # "From registers all the way down": back H with the [AAD+93]
            # wait-free single-writer construction, so every step of the
            # augmented object is an atomic read or write of a register.
            # (The Appendix B trace analysis needs native H steps and is
            # unavailable in this mode; correctness of the composition
            # follows from the construction's machine-checked
            # linearizability.)
            from repro.memory.afek import AfekSnapshot

            self.H = None
            self._h_afek = AfekSnapshot(
                f"{name}.H", writers=self.pids, initial=()
            )
            self._h_scan = None
        else:
            self.H = SingleWriterSnapshot(
                f"{name}.H", writers=self.pids, initial=()
            )
            self._h_afek = None
            # One prebuilt request, yielded directly for every scan of H.
            self._h_scan = Invoke(self.H, "scan")
        # L[i][j]: written by q_i, read by q_j (ranks), one unbounded array each.
        self.L: Dict[Tuple[int, int], RegisterArray] = {}
        for i, pid_i in enumerate(self.pids):
            for j, pid_j in enumerate(self.pids):
                if i != j:
                    self.L[(i, j)] = RegisterArray(
                        f"{name}.L[{i},{j}]",
                        initial=None,
                        writer=pid_i,
                        reader=pid_j,
                    )
        self._op_counter = 0
        self.yield_counts: Dict[int, int] = {i: 0 for i in range(len(self.pids))}
        self.atomic_counts: Dict[int, int] = {i: 0 for i in range(len(self.pids))}
        # Component histories are immutable tuples and H hands back the same
        # tuple object for an unchanged component (and the same scan result
        # while H is unchanged), so counting Block-Updates per rank only
        # needs recomputing for components that actually grew.
        self._count_cache: list = [(None, 0)] * len(self.pids)
        self._last_counts: Tuple[Any, Tuple[int, ...]] = (None, ())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def k_plus_1(self) -> int:
        return len(self.pids)

    def rank_of(self, pid: int) -> int:
        """The identifier (priority) of ``pid`` within this object."""
        try:
            return self._rank[pid]
        except KeyError:
            raise ModelError(f"pid {pid} does not share {self.name}") from None

    def register_count(self) -> int:
        """Registers used so far: H's components plus touched L cells."""
        h_registers = (
            self._h_afek.register_count()
            if self.register_level
            else self.H.register_count()
        )
        return h_registers + sum(
            arr.register_count() for arr in self.L.values()
        )

    def _next_op_id(self, kind: str) -> str:
        self._op_counter += 1
        return f"{kind}{self._op_counter}"

    def _history_counts(self, h: Tuple) -> Tuple[int, ...]:
        """``(#h_0, ..., #h_k)``, cached by identity per scan and per rank."""
        last_h, counts = self._last_counts
        if h is last_h:
            return counts
        cache = self._count_cache
        for i, hist in enumerate(h):
            if cache[i][0] is not hist:
                cache[i] = (hist, history_count(hist))
        counts = tuple(count for _hist, count in cache)
        self._last_counts = (h, counts)
        return counts

    def _block_arguments(
        self, components: Sequence[int], values: Sequence[Any]
    ) -> Tuple[list, list]:
        """Block-Update's arguments as lists, or :class:`ValidationError`."""
        comps = list(components)
        vals = list(values)
        if not comps:
            raise ValidationError("Block-Update needs at least one component")
        if len(comps) != len(vals):
            raise ValidationError("components and values must have equal length")
        if len(set(comps)) != len(comps):
            raise ValidationError("Block-Update components must be distinct")
        for c in comps:
            if not 0 <= c < self.m:
                raise ValidationError(f"component {c} out of range for m={self.m}")
        return comps, vals

    def _helped_view(
        self, rank: int, h: Tuple, own_count: int
    ) -> Generator[Any, Any, Tuple[Any, ...]]:
        """Figure 1 lines 32–37: the latest of ``h`` and the scans helpers
        published for this rank's ``own_count``'th Block-Update, as a view."""
        last = h                                                      # line 32
        for j in range(self.k_plus_1):                                # line 33
            if j == rank:
                continue
            r_j = yield Invoke(self.L[(j, rank)], "read", (own_count,))  # 34
            if r_j is not None and is_proper_prefix(last, r_j):       # line 35
                last = r_j                                            # line 36
        return get_view(last, self.m)                                 # line 37

    # ------------------------------------------------------------------
    # Scan — Figure 1 lines 14–21
    # ------------------------------------------------------------------
    def scan(self, pid: int) -> Generator[Any, Any, Tuple[Any, ...]]:
        """Scan(): returns a view of M (a tuple of m values).

        Non-blocking: repeats double collects of H until clean; each failed
        double collect implies a concurrent Block-Update completed an update
        to H (Lemma 23).  The first scan of each pair is published to all
        helping registers, which is what lets concurrent Block-Updates
        return views consistent with Scans.
        """
        rank = self.rank_of(pid)
        native, afek = self._h_scan, self._h_afek
        annotate = self.annotate
        if annotate:
            tag = self.OP_TAG
            op_id = self._next_op_id("S")
            yield Annotate(
                tag,
                {"kind": "scan", "phase": "begin", "op_id": op_id,
                 "rank": rank, "object": self.name},
            )
        while True:
            h = (yield native) if native else (yield from afek.scan(pid))  # line 15
            counts = self._history_counts(h)
            for j in range(len(self.pids)):                           # line 16
                if j != rank:
                    yield Invoke(self.L[(rank, j)], "write", (counts[j], h))  # 17
            f = (yield native) if native else (yield from afek.scan(pid))  # line 19
            if h == f:                                                # line 20
                break
        view = get_view(h, self.m)                                    # line 21
        if annotate:
            yield Annotate(
                tag,
                {"kind": "scan", "phase": "end", "op_id": op_id, "rank": rank,
                 "object": self.name, "view": view},
            )
        return view

    # ------------------------------------------------------------------
    # Block-Update — Figure 1 lines 22–37
    # ------------------------------------------------------------------
    def block_update(
        self,
        pid: int,
        components: Sequence[int],
        values: Sequence[Any],
    ) -> Generator[Any, Any, Any]:
        """Block-Update([j_1..j_c], [v_1..v_c]): returns a view of M or ☡.

        Wait-free (a constant number of primitive steps).  Returns
        :data:`~repro.augmented.views.YIELD` only if a Block-Update by a
        lower-rank process updated H during this operation's interval
        (Lemma 16); otherwise the Updates linearized consecutively at the
        update to H, and the returned view satisfies Lemma 22.
        """
        rank = self.rank_of(pid)
        comps, vals = self._block_arguments(components, values)
        native, afek = self._h_scan, self._h_afek
        annotate = self.annotate
        if annotate:
            tag = self.OP_TAG
            op_id = self._next_op_id("B")
            yield Annotate(
                tag,
                {"kind": "block_update", "phase": "begin", "op_id": op_id,
                 "rank": rank, "object": self.name,
                 "components": tuple(comps), "values": tuple(vals)},
            )

        h = (yield native) if native else (yield from afek.scan(pid))  # line 23
        h_counts = self._history_counts(h)
        t = timestamp_for_counts(h_counts, rank)                      # line 24
        triples = tuple((c, v, t) for c, v in zip(comps, vals))
        if native:                                                    # line 25
            yield Invoke(self.H, "update", (rank, h[rank] + triples))
        else:
            yield from afek.update(pid, h[rank] + triples)

        f = (yield native) if native else (yield from afek.scan(pid))  # line 26
        f_counts = self._history_counts(f)
        for j in range(rank):                                         # line 27
            yield Invoke(self.L[(rank, j)], "write", (f_counts[j], f))  # 28

        g = (yield native) if native else (yield from afek.scan(pid))  # line 29
        g_counts = self._history_counts(g)
        if any(g_counts[j] > h_counts[j] for j in range(rank)):       # line 30
            self.yield_counts[rank] += 1
            if annotate:
                yield Annotate(
                    tag,
                    {"kind": "block_update", "phase": "end", "op_id": op_id,
                     "rank": rank, "object": self.name, "timestamp": t,
                     "result": "yield"},
                )
            return YIELD                                              # line 31

        view = yield from self._helped_view(rank, h, h_counts[rank])  # 32–37
        self.atomic_counts[rank] += 1
        if annotate:
            yield Annotate(
                tag,
                {"kind": "block_update", "phase": "end", "op_id": op_id,
                 "rank": rank, "object": self.name, "timestamp": t,
                 "result": "view", "view": view},
            )
        return view

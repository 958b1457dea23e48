"""Local (unshared) functions of the Figure 1 implementation.

A *history* ``h`` is the result of a scan of the single-writer snapshot
``H``: a tuple with one entry per process rank, where entry ``i`` is the
tuple of update triples ``(component, value, timestamp)`` that process
``q_i`` has appended so far.  All functions here are pure: they take scan
results and compute values locally, exactly like lines 1–13 of Figure 1.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.errors import ValidationError
from repro.timestamps import VectorTimestamp

#: One update triple: (component index of M, value, VectorTimestamp).
Triple = Tuple[int, Any, VectorTimestamp]

#: One process's history: the triples it has appended to its component of H.
History = Tuple[Triple, ...]

#: A full scan result of H: one history per process rank.
ScanResult = Tuple[History, ...]


class _YieldSign:
    """The ☡ value returned by possibly-non-atomic Block-Updates.

    A singleton; compare with ``is YIELD``.  It is falsy so call sites can
    write ``if view:`` to mean "the Block-Update was atomic".
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "YIELD(☡)"

    def __bool__(self) -> bool:
        return False


YIELD = _YieldSign()


def history_count(history: History) -> int:
    """``#h_i``: the number of Block-Updates recorded in one history.

    Each Block-Update appends one or more triples sharing a single fresh
    timestamp, so the count is the number of distinct timestamps.
    """
    return len({triple[2] for triple in history})


def history_counts(h: ScanResult) -> Tuple[int, ...]:
    """``(#h_0, ..., #h_k)`` for a full scan result."""
    return tuple(history_count(component) for component in h)


def timestamp_for_counts(
    counts: Tuple[int, ...], rank: int
) -> VectorTimestamp:
    """New-timestamp from already-computed history counts (lines 1–5).

    Split out of :func:`new_timestamp` so callers that need the counts
    anyway (Block-Update needs ``#h`` again at line 30) compute them once.
    """
    counts = list(counts)
    if not 0 <= rank < len(counts):
        raise ValidationError(f"rank {rank} out of range for {len(counts)} histories")
    counts[rank] += 1
    return VectorTimestamp(counts)


def new_timestamp(h: ScanResult, rank: int) -> VectorTimestamp:
    """New-timestamp(h) by the process of rank ``rank`` (lines 1–5).

    Sets ``t_j = #h_j`` for ``j != rank`` and ``t_rank = #h_rank + 1``.
    By Corollary 11 the result is lexicographically larger than every
    timestamp contained in ``h``.
    """
    return timestamp_for_counts(history_counts(h), rank)


def get_view(h: ScanResult, m: int) -> Tuple[Any, ...]:
    """Get-view(h) (lines 6–13): the value vector of ``M`` encoded in ``h``.

    For each component ``j`` of M, the value whose triple carries the
    lexicographically largest timestamp among all triples for ``j`` anywhere
    in ``h``; ``None`` (the paper's ⊥) where no triple exists.
    """
    best: list = [None] * m
    best_ts: list = [None] * m
    # Compare raw component tuples, size-checked as VectorTimestamp would.
    size = len(h)
    for history in h:
        for component, value, ts in history:
            if not 0 <= component < m:
                raise ValidationError(
                    f"triple component {component} out of range for m={m}"
                )
            stamp = ts.components
            if len(stamp) != size:
                raise ValidationError(f"timestamp {ts!r} has {len(stamp)} "
                                      f"components, not {size}")
            if best_ts[component] is None or stamp > best_ts[component]:
                best[component] = value
                best_ts[component] = stamp
    return tuple(best)


def is_prefix(h: ScanResult, other: ScanResult) -> bool:
    """True iff each history of ``h`` is a prefix of the matching history.

    This is the (partial) prefix order on scan results from Appendix B;
    Observation 5 says results of scans of H are totally ordered by it.
    """
    if len(h) != len(other):
        raise ValidationError("scan results cover different process sets")
    return all(
        len(mine) <= len(theirs) and theirs[: len(mine)] == mine
        for mine, theirs in zip(h, other)
    )


def is_proper_prefix(h: ScanResult, other: ScanResult) -> bool:
    """True iff ``h`` is a prefix of ``other`` and they differ somewhere."""
    return is_prefix(h, other) and h != other


def timestamps_in(h: ScanResult):
    """All timestamps contained in a scan result (with multiplicity removed)."""
    return {triple[2] for history in h for triple in history}

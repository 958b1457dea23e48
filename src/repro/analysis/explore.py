"""Bounded-exhaustive model checking of normal-form protocols.

Because protocol states are hashable and transitions pure, a whole system
configuration is the pair ``(process states, M contents)`` and the
asynchronous adversary is just "which undecided process moves next".  This
module enumerates that choice tree with depth-aware memoization, checking
task safety (validity and agreement are monotone in the set of decisions,
so they can be checked as decisions appear) and optionally probing
progress by running solo extensions from reachable configurations.

Protocols like racing consensus have unbounded round numbers, so the full
configuration space is infinite; exploration is therefore *bounded*
exhaustive: complete up to ``max_configs``/``max_steps`` and reported as
truncated beyond.  A safety bug within the bound is a real counterexample
(the discovered schedule is replayable); absence of bugs is evidence in the
small-scope sense.

Soundness under a depth bound requires more than a visited set: a
configuration first reached at depth ``d`` may be reached again later by a
*strictly shorter* path, and the subtree that was cut off at ``d`` (or at
the ``max_steps`` horizon) can hide violations that the shorter arrival
would reach within the bound.  The explorer therefore memoizes the best
(minimum) depth at which each configuration was expanded and re-expands on
any strictly shallower arrival — never on a deeper one, so cycles stay
pruned and the search stays finite.

Exploration shards: :func:`schedule_prefixes` cuts the interleaving tree
into the subtrees below every viable schedule prefix of a fixed length,
and :func:`explore_prefix_range` explores any contiguous range of those
subtrees, each from an empty memo table, merging the per-subtree
:class:`ExplorationReport` objects in prefix order.  Because each unit's
report is a pure function of ``(protocol, inputs, task, prefix, bounds)``
and ``merge()`` is a commutative monoid, the campaign engine
(:mod:`repro.campaign`) can distribute the units across worker processes
and reproduce the serial report byte for byte — see docs/CAMPAIGNS.md.

The hot path is cache-heavy: an :class:`ExplorationContext` owns the
per-protocol transition caches (``poised`` classification and scan/update
successors), hash-conses whole configurations into int *row ids* of flat
per-field tables (packed key, slot ids, decision status, canonical
class, task verdict, successor per process), and tracks decision status
incrementally (only the stepped process can change it).  No object
exists per configuration, so a growing context hands CPython's cyclic
garbage collector nothing to walk.  The caches hold *pure derived data
only*, so sharing them across units — or not — cannot change any report;
docs/PERFORMANCE.md records the purity assumptions they rely on and the
measured effect.

Configurations are keyed by a packed encoding: every distinct process
state and memory value is interned to a small integer in a per-context
table, and each configuration is keyed by one machine-word-packed
integer (``_SLOT_BITS`` bits per process, then per memory component),
so interning and successor lookups hash and compare ints instead of
wide object tuples.  The encoding is pure key representation: reports
equal those of the frozen reference explorer byte for byte (enforced by
the differential suite).  With ``symmetry=True`` the per-unit depth memo
is keyed by the configuration's *canonical class under process
permutation*: a small int the context interns per distinct sorted
state-id multiset plus memory key, so configurations that
differ only by renaming processes share one memo entry and only one
representative subtree is expanded.  That is sound exactly when the
protocol declares :data:`~repro.protocols.base.SYMMETRY_FULL` via
:meth:`~repro.protocols.base.Protocol.symmetry` (anonymous protocols:
transitions depend only on the state, so permuted configurations root
isomorphic subtrees and task verdicts depend only on the decided value
multiset); protocols declaring ``identity`` keep the exact unreduced
semantics even under ``symmetry=True``.  Reduced reports keep the same
safe/unsafe verdict and a genuinely replayable counterexample, but visit
(and therefore count) fewer configurations — see docs/PERFORMANCE.md.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DivergenceError, ValidationError
from repro.memory.rmw import apply_rmw
from repro.protocols.base import (
    DECIDE,
    RMW,
    SCAN,
    SYMMETRY_FULL,
    SYMMETRY_IDENTITY,
    UPDATE,
    Protocol,
    _unknown_kind,
    check_schedule,
    solo_run,
)


@dataclass
class ExplorationReport:
    """Outcome of :func:`explore_protocol`.

    Attributes:
        violations: distinct safety violations found, sorted (empty = safe
            within the explored space).
        configurations: number of distinct configurations visited.
        truncated: True if a bound cut exploration short.
        fully_decided: number of configurations where every process decided.
        counterexample: the lexicographically least schedule (list of
            process indices) known to reach a violating configuration, if
            any — replay it to debug the protocol.

    Reports form a commutative monoid under :meth:`merge` with
    ``ExplorationReport()`` as identity, which is what lets sharded
    exploration (:mod:`repro.campaign`) recombine per-subtree reports in
    any grouping without changing the result.
    """

    violations: List[str] = field(default_factory=list)
    configurations: int = 0
    truncated: bool = False
    fully_decided: int = 0
    counterexample: Optional[List[int]] = None
    #: Witness certificates (:mod:`repro.certify`) for the recorded
    #: counterexample; excluded from equality and repr so carrying them
    #: never changes report comparisons.
    certificates: List[Any] = field(
        default_factory=list, compare=False, repr=False
    )

    @property
    def safe(self) -> bool:
        return not self.violations

    def merge(self, other: "ExplorationReport") -> "ExplorationReport":
        """Combine two partial reports from disjoint subtrees (pure).

        Associative and commutative, with ``ExplorationReport()`` as
        identity: tallies sum, ``truncated`` ORs, violations take the
        sorted union, and ``counterexample`` keeps the lexicographically
        least non-``None`` schedule — order-free extremes, so sharded
        exploration merges to the same report however units are grouped.
        """
        candidates = [
            c for c in (self.counterexample, other.counterexample)
            if c is not None
        ]
        merged = ExplorationReport(
            violations=sorted(set(self.violations) | set(other.violations)),
            configurations=self.configurations + other.configurations,
            truncated=self.truncated or other.truncated,
            fully_decided=self.fully_decided + other.fully_decided,
            counterexample=list(min(candidates)) if candidates else None,
        )
        if self.certificates or other.certificates:
            # Keep exactly the certificates whose schedule is the merged
            # (lexicographically least) counterexample, so serial and
            # sharded exploration carry identical certificate sets.
            from repro.certify.certificates import sorted_certificates

            merged.certificates = sorted_certificates([
                certificate
                for certificate in self.certificates + other.certificates
                if certificate.payload.get("schedule")
                == merged.counterexample
            ])
        return merged

    def summary(self) -> str:
        """One-line human summary."""
        verdict = (
            "safe" if self.safe
            else f"{len(self.violations)} distinct violation(s)"
        )
        return (
            f"{self.configurations} configurations explored: {verdict}, "
            f"{self.fully_decided} fully decided"
            f"{', truncated' if self.truncated else ''}"
        )


#: Cache-miss sentinel (``None`` is a legal cached value for states).
_MISSING = object()

#: Depth-memo value of a class not expanded yet in the current unit
#: (above any depth, so ``depth >= _UNSEEN`` never prunes), and the
#: block the memo grows by.
_UNSEEN = sys.maxsize
_UNSEEN_CHUNK = (_UNSEEN,) * 1024

#: The block successor columns grow by (``None``: not stepped yet).
_UNSTEPPED_CHUNK = (None,) * 1024

#: The poised kinds ``child`` can step (or stop at).
_POISED_KINDS = (SCAN, UPDATE, RMW, DECIDE)

#: Bits per process / memory slot in packed configuration keys.  Interned
#: state/value ids live in ``[0, _SLOT_LIMIT)``; a protocol instance with
#: more distinct states or written values than that is rejected.
_SLOT_BITS = 32
_SLOT_LIMIT = 1 << _SLOT_BITS


def _pack(ids: Sequence[int]) -> int:
    """Pack a sequence of slot ids into one integer key, slot 0 lowest."""
    key = 0
    shift = 0
    for slot_id in ids:
        key |= slot_id << shift
        shift += _SLOT_BITS
    return key


class ExplorationContext:
    """Transition caches for one ``(protocol, inputs, task)`` triple.

    Owns the hot-path caches the explorer, fuzzer, and shrinker share:

    - the intern table mapping every distinct process state and memory
      value to a small slot id, and packed configuration keys to *rows*:
      each interned configuration is an int row id into flat per-field
      tables (below).  A key packs the state ids into the low
      ``_SLOT_BITS * len(inputs)`` bits and the memory ids above them;
      every id is below ``_SLOT_LIMIT``, so no slot spills into the next
      and the key is injective;
    - the canonical classes of :meth:`canon_key`, one per row;
    - ``protocol.poised`` per slot id, computed once per distinct state
      instead of once per visit;
    - scan/update/RMW successors — ``advance`` results keyed by slot ids:
      ``(state, memory key)`` for scans (the observation is the memory
      snapshot), the state alone for updates (their observation is
      always ``None``), and ``(state, old component value)`` for RMWs.

    The row tables, all indexed by row id, hold the packed key, the
    state-id and memory-id tuples and the memory key, the decided map
    and the undecided tuple (maintained incrementally: only the stepped
    process can change decision status, so a parent and a child that
    made no new decision share both; treat them as immutable), the
    canonical class and the cached task verdict.  The successor
    table has one entry per row and process index — the row that
    process's step reaches, ``None`` until first stepped, the row's own
    id for a step by a decided process — stored as one flat column per
    process index, so a cache hit is two list subscripts.  The raw
    ``states``/``memory`` tuples are materialized on demand into dicts.
    Rows are plain ints and the tables hold only ints, tuples and shared
    decision maps, so a live context carries no per-configuration object
    for the cyclic garbage collector to walk and no reference cycle.
    Interning makes row identity coincide with configuration equality,
    so no lookup after the intern step re-hashes wide state/memory
    tuples.

    Everything cached is *pure derived data* under the documented
    :class:`~repro.protocols.base.Protocol` contract (hashable immutable
    states, pure ``poised``/``advance``, pure ``task.check``), so sharing
    a context across exploration units — or not sharing it — cannot
    change any report.  The depth memo is *not* part of the context:
    each prefix range keeps one, which every unit leaves empty on
    return.  A context is not thread-safe
    (interning assigns ids by check-then-insert): one thread uses it at
    a time.
    See docs/PERFORMANCE.md for the full purity contract and the
    measured effect.

    ``symmetry`` asks for symmetry reduction; it takes effect only when
    the protocol declares :data:`~repro.protocols.base.SYMMETRY_FULL`
    (``self.symmetry`` records whether reduction is active;
    identity-group protocols keep exact unreduced semantics).
    """

    def __init__(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        task: Any = None,
        symmetry: bool = False,
    ) -> None:
        self.protocol = protocol
        self.inputs = tuple(inputs)
        self.task = task
        self.symmetry_requested = bool(symmetry)
        self.symmetry = False
        if symmetry:
            group = protocol.symmetry()
            if group not in (SYMMETRY_FULL, SYMMETRY_IDENTITY):
                raise ValidationError(
                    f"{protocol.name}: unknown symmetry group {group!r} "
                    f"(expected {SYMMETRY_FULL!r} or {SYMMETRY_IDENTITY!r})"
                )
            self.symmetry = group == SYMMETRY_FULL
        #: ``sid -> (new sid, component, value mid)``.
        self._update_succ: Dict[int, Tuple[int, int, int]] = {}
        #: RMW successors depend on the component's *current* contents
        #: (an RMW reads what it overwrites), so the key carries it:
        #: ``(sid, old mid) -> (new sid, new value mid)``.
        self._rmw_succ: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._width = len(self.inputs)
        #: Bit offset of the memory ids in a packed configuration key.
        self._mshift = _SLOT_BITS * self._width
        #: packed key -> row id.
        self._rows: Dict[int, int] = {}
        # The row tables, all indexed by row id (see the class
        # docstring).
        self._keys: List[int] = []
        self._sids: List[Tuple[int, ...]] = []
        self._mkeys: List[int] = []
        self._mids: List[Tuple[int, ...]] = []
        self._decided: List[Dict[int, Any]] = []
        self._undecided: List[Tuple[int, ...]] = []
        self._canon: List[int] = []
        self._verdicts: List[Optional[Tuple[str, ...]]] = []
        #: Raw tuples, materialized on demand: states per row, memory
        #: per memory key (shared by every row holding that memory).
        self._states: Dict[int, Tuple] = {}
        self._memory: Dict[int, Tuple] = {}
        #: ``_succ[index][row]``: the row process ``index``'s step
        #: reaches (``None``: not stepped yet).
        self._succ: List[List[Optional[int]]] = [[] for _ in self.inputs]
        #: Rows the successor columns have room for.
        self._capacity = 0
        #: canonical form -> class id under symmetry reduction (see
        #: canon_key).
        self._classes: Dict[Tuple[int, ...], int] = {}
        #: state/value -> slot id.  States and memory values share one
        #: table; ids are assigned in first-seen order, so the mapping is
        #: deterministic per traversal order but never observable in a
        #: report (keys only gate equality).
        self._ids: Dict[Any, int] = {}
        #: id -> state/value, the inverse of ``_ids`` (tuples are
        #: materialized from it on transition-cache misses).
        self._values: List[Any] = []
        #: id -> cached ``protocol.poised`` entry, filled on first use
        #: (slots holding memory values simply never get asked).
        self._poised_ids: List[Optional[Tuple[str, Any]]] = []
        #: id -> ``{memory key -> scanned successor id}`` for the scan
        #: cache, created lazily per scanning state.
        self._scan_by_sid: List[Optional[Dict[int, int]]] = []
        states = tuple(
            protocol.initial_state(i, v) for i, v in enumerate(inputs)
        )
        self.root = self._intern_scan(states, (None,) * protocol.m)

    def _id(self, value: Any) -> int:
        """The slot id interning a state or memory value (assigning one
        on first sight).  Ids compare like the values they stand for:
        the table is keyed by equality, so equal objects share an id and
        distinct-by-equality objects never do — packed key equality is
        exactly tuple equality."""
        ids = self._ids
        found = ids.get(value)
        if found is None:
            found = len(ids)
            if found >= _SLOT_LIMIT:
                raise ValidationError(
                    f"{self.protocol.name}: more than {_SLOT_LIMIT} "
                    "distinct states/values; the packed configuration "
                    "encoding cannot represent this instance"
                )
            ids[value] = found
            self._values.append(value)
            self._poised_ids.append(None)
            self._scan_by_sid.append(None)
        return found

    def _poised_by_id(self, sid: int) -> Tuple[str, Any]:
        """``protocol.poised`` for a slot id, computed once per id.

        The hot path classifies states by list index instead of
        re-hashing the state object.  A kind the step rule does not know
        is the :class:`~repro.errors.ProtocolError`
        :func:`~repro.protocols.base.apply_step` raises, checked here
        once per distinct state rather than once per transition.
        """
        entry = self._poised_ids[sid]
        if entry is None:
            entry = self.protocol.poised(self._values[sid])
            if entry[0] not in _POISED_KINDS:
                raise _unknown_kind(self.protocol, entry[0])
            self._poised_ids[sid] = entry
        return entry

    def _check_row(self, row: int) -> None:
        """Reject a row this context never interned, by name.

        Row ids index plain lists, so without this a negative row would
        silently read the row counted from the end of the tables.  The
        public accessors call it; the explorer's own loops, which only
        hold rows the context returned, read the tables directly.
        """
        if not 0 <= row < len(self._keys):
            raise ValidationError(
                f"{self.protocol.name}: configuration row {row} out of "
                f"range for {len(self._keys)} rows"
            )

    def states_of(self, row: int) -> Tuple:
        """The configuration's raw state tuple (materialized lazily: the
        hot path runs on slot ids).  A row this context never interned
        is a :class:`~repro.errors.ValidationError`, as on every row
        accessor."""
        self._check_row(row)
        states = self._states.get(row)
        if states is None:
            values = self._values
            states = self._states[row] = tuple(
                values[sid] for sid in self._sids[row]
            )
        return states

    def memory_of(self, row: int) -> Tuple:
        """The configuration's raw memory tuple (lazy and checked, like
        :meth:`states_of`)."""
        self._check_row(row)
        return self._memory_of(row)

    def _memory_of(self, row: int) -> Tuple:
        """:meth:`memory_of` without the row check, for the stepper."""
        mkey = self._mkeys[row]
        memory = self._memory.get(mkey)
        if memory is None:
            values = self._values
            memory = self._memory[mkey] = tuple(
                values[mid] for mid in self._mids[row]
            )
        return memory

    def decided_of(self, row: int) -> Dict[int, Any]:
        """The configuration's decisions: decided process index -> DECIDE
        payload, in ascending index order.  Shared with other rows;
        treat it as immutable."""
        self._check_row(row)
        return self._decided[row]

    def canon_key(self, row: int) -> int:
        """The configuration's class under the context's symmetry group.

        The class is a small int the context assigns when it interns the
        row.  On a symmetry-reducing context it is numbered in
        first-seen order per distinct canonical form, the *sorted*
        state-id tuple plus the memory key, so two configurations share
        a class iff one is a process permutation of the other (memory is
        permutation-invariant: component j is component j for every
        process); otherwise every configuration is its own class, the
        row id itself.  Classes are numbered densely from 0, so the
        per-unit depth memo is a list indexed by class.
        """
        self._check_row(row)
        return self._canon[row]

    def _add_row(
        self,
        key: int,
        sids: Tuple[int, ...],
        mkey: int,
        mids: Tuple[int, ...],
        decided: Dict[int, Any],
        undecided: Tuple[int, ...],
    ) -> int:
        """Append one configuration to the row tables; returns its row."""
        row = len(self._keys)
        self._rows[key] = row
        self._keys.append(key)
        self._sids.append(sids)
        self._mkeys.append(mkey)
        self._mids.append(mids)
        self._decided.append(decided)
        self._undecided.append(undecided)
        self._verdicts.append(None)
        if row == self._capacity:
            # Grow the successor columns in blocks, not per row.
            for column in self._succ:
                column.extend(_UNSTEPPED_CHUNK)
            self._capacity += len(_UNSTEPPED_CHUNK)
        if self.symmetry:
            form = (*sorted(sids), mkey)
            classes = self._classes
            canon = classes.get(form)
            if canon is None:
                canon = classes[form] = len(classes)
            self._canon.append(canon)
        else:
            self._canon.append(row)
        return row

    def _intern_scan(self, states: Tuple, memory: Tuple) -> int:
        """Intern a configuration, deriving the decided split by full scan
        (used only for roots; children derive it incrementally)."""
        sids = tuple(self._id(state) for state in states)
        mids = tuple(self._id(value) for value in memory)
        mkey = _pack(mids)
        key = _pack(sids) | (mkey << self._mshift)
        row = self._rows.get(key)
        if row is None:
            decided: Dict[int, Any] = {}
            undecided: List[int] = []
            for index, sid in enumerate(sids):
                kind, payload = self._poised_by_id(sid)
                if kind == DECIDE:
                    decided[index] = payload
                else:
                    undecided.append(index)
            row = self._add_row(
                key, sids, mkey, mids, decided, tuple(undecided)
            )
        return row

    def child(self, parent: int, index: int) -> int:
        """The configuration after process ``index`` takes one step.

        Stepping a decided process is a no-op returning ``parent``
        (replay semantics).  The result is interned and cached in the
        successor table, so each edge of the configuration graph pays
        for its transition exactly once per context.  Slot ids and
        packed keys only: state and memory *objects* are touched
        exclusively on transition-cache misses — every revisit of a
        known ``(state, memory snapshot)`` pair runs on machine words
        (list indexing, int-keyed dict gets, and one shifted-delta
        addition per step) without hashing or allocating any wide tuple.
        An ``index`` outside ``range(len(inputs))`` is a
        :class:`~repro.errors.ValidationError` (a negative one would
        otherwise read another process's successor), and so is a
        ``parent`` row this context never interned.
        """
        width = self._width
        if not 0 <= index < width:
            raise ValidationError(
                f"{self.protocol.name}: process index {index} out of "
                f"range for {width} processes"
            )
        self._check_row(parent)
        cached = self._succ[index][parent]
        if cached is not None:
            return cached
        return self._step(parent, index)

    def _step(self, parent: int, index: int) -> int:
        """:meth:`child` on a successor-cache miss, for the hot callers
        that already read ``_succ[index][parent]`` as ``None`` for a
        valid ``index``."""
        sids = self._sids[parent]
        sid = sids[index]
        kind, payload = self._poised_ids[sid] or self._poised_by_id(sid)
        if kind == DECIDE:
            self._succ[index][parent] = parent
            return parent
        key = self._keys[parent]
        mkey = self._mkeys[parent]
        mids = self._mids[parent]
        if kind == SCAN:
            # Per-sid table keyed by the memory key alone: an int-keyed
            # dict get with no key-tuple allocation.
            by_memory = self._scan_by_sid[sid]
            if by_memory is None:
                by_memory = self._scan_by_sid[sid] = {}
            new_sid = by_memory.get(mkey, _MISSING)
            if new_sid is _MISSING:
                new_sid = self._id(self.protocol.advance(
                    self._values[sid], self._memory_of(parent)
                ))
                by_memory[mkey] = new_sid
        else:
            if kind == RMW:
                component, op, args = payload
                old_mid = mids[component]
                entry = self._rmw_succ.get((sid, old_mid))
                if entry is None:
                    new_value, result = apply_rmw(
                        op, self._values[old_mid], args
                    )
                    entry = (
                        self._id(self.protocol.advance(
                            self._values[sid], result
                        )),
                        self._id(new_value),
                    )
                    self._rmw_succ[(sid, old_mid)] = entry
                new_sid, new_mid = entry
            else:
                entry = self._update_succ.get(sid)
                if entry is None:
                    component, value = payload
                    entry = (
                        self._id(self.protocol.advance(
                            self._values[sid], None
                        )),
                        component, self._id(value),
                    )
                    self._update_succ[sid] = entry
                new_sid, component, new_mid = entry
                old_mid = mids[component]
            if new_mid != old_mid:
                shift = component * _SLOT_BITS
                mkey += (new_mid - old_mid) << shift
                key += (new_mid - old_mid) << (shift + self._mshift)
                mids = mids[:component] + (new_mid,) + mids[component + 1:]
        key += (new_sid - sid) << (index * _SLOT_BITS)
        row = self._rows.get(key)
        if row is None:
            new_kind, new_payload = (
                self._poised_ids[new_sid] or self._poised_by_id(new_sid)
            )
            decided = self._decided[parent]
            undecided = self._undecided[parent]
            if new_kind == DECIDE:
                later = any(k > index for k in decided)
                decided = dict(decided)
                decided[index] = new_payload
                if later:
                    decided = {k: decided[k] for k in sorted(decided)}
                undecided = tuple(k for k in undecided if k != index)
            row = self._add_row(
                key, sids[:index] + (new_sid,) + sids[index + 1:],
                mkey, mids, decided, undecided,
            )
        self._succ[index][parent] = row
        return row

    def replay(self, schedule: Sequence[int]) -> int:
        """The configuration a schedule reaches from the root (steps by
        decided processes are no-ops, matching replay semantics).

        An entry outside ``range(len(inputs))`` is a
        :class:`~repro.errors.ValidationError` naming it
        (:func:`~repro.protocols.base.check_schedule`).
        """
        check_schedule(self.protocol, self._width, schedule)
        row = self.root
        succ = self._succ
        step = self._step
        for index in schedule:
            # Inlined successor-cache hit, as in the explorer's frontier.
            nxt = succ[index][row]
            row = nxt if nxt is not None else step(row, index)
        return row

    def check(self, row: int) -> Tuple[str, ...]:
        """The task checker's verdict for a configuration, as a tuple.

        Cached per row; the empty verdict is the shared ``()``.  Valid
        because ``task.check`` is pure and must not mutate its
        arguments (the decided map is shared between rows).  A row this
        context never interned is a :class:`~repro.errors.ValidationError`.
        """
        self._check_row(row)
        return self._verdict(row)

    def _verdict(self, row: int) -> Tuple[str, ...]:
        """:meth:`check` without the row check, for the explorer."""
        found = self._verdicts[row]
        if found is None:
            found = self._verdicts[row] = tuple(
                self.task.check(list(self.inputs), self._decided[row])
            )
        return found


def _check_context(
    context: ExplorationContext,
    protocol: Protocol,
    inputs: Sequence[Any],
    **expected: Any,
) -> None:
    """Reject a supplied context built for another exploration.

    A context's caches are keyed by slot ids of *its* protocol's states
    from *its* inputs' root, so a mismatched one silently explores the
    wrong system.  ``expected`` names further fields to compare
    (``task``, ``symmetry_requested``).
    """
    expected.update(protocol=protocol, inputs=tuple(inputs))
    for name, wanted in expected.items():
        built = getattr(context, name)
        if built is not wanted and built != wanted:
            raise ValidationError(
                f"supplied ExplorationContext was built for another "
                f"{name}: {getattr(built, 'name', built)!r}, but the call "
                f"asked for {getattr(wanted, 'name', wanted)!r}"
            )


def effective_prefix_depth(prefix_depth: int, max_steps: Optional[int]) -> int:
    """Cap the sharding depth at the exploration depth bound.

    Prefixes longer than ``max_steps`` would root subtrees beyond the
    horizon the caller asked about; capping keeps sharding pure execution
    geometry with no effect on which configurations are in scope.
    """
    if prefix_depth < 0:
        raise ValidationError(
            f"prefix_depth must be >= 0, got {prefix_depth}"
        )
    if max_steps is not None:
        return min(prefix_depth, max_steps)
    return prefix_depth


def schedule_prefixes(
    protocol: Protocol,
    inputs: Sequence[Any],
    depth: int,
    context: Optional[ExplorationContext] = None,
) -> Tuple[Tuple[int, ...], ...]:
    """All viable schedule prefixes of length ``depth``, in lex order.

    A prefix is viable when every step it schedules is by a process that
    is still undecided at that point.  Prefixes along which every process
    decides before ``depth`` are kept at their shorter length (their
    subtree is just the terminal configuration).  The tuple is the
    canonical unit decomposition sharded exploration distributes over.
    An existing :class:`ExplorationContext` for the same protocol and
    inputs may be passed to reuse its transition caches; one built for
    another protocol or inputs is a :class:`~repro.errors.ValidationError`.
    """
    if context is not None:
        _check_context(context, protocol, inputs)
    ctx = context if context is not None else ExplorationContext(
        protocol, inputs
    )
    prefixes: List[Tuple[int, ...]] = []
    # Explicit DFS stack (recursion here risked RecursionError at large
    # depths); children pushed in descending index order so pops — and
    # therefore appended prefixes — come out in lexicographic order.
    undecided_of = ctx._undecided
    stack: List[Tuple[int, Tuple[int, ...]]] = [(ctx.root, ())]
    while stack:
        row, prefix = stack.pop()
        undecided = undecided_of[row]
        if len(prefix) == depth or not undecided:
            prefixes.append(prefix)
            continue
        for index in reversed(undecided):
            stack.append((ctx.child(row, index), prefix + (index,)))
    return tuple(prefixes)


def unit_budget(max_configs: int, units: int) -> int:
    """The per-subtree configuration budget for a ``units``-way sharding.

    Derived once from the *total* budget so that serial and sharded
    exploration of the same decomposition impose identical limits.
    """
    return max(1, -(-max_configs // max(1, units)))


def _materialize(prefix: Tuple[int, ...], tail: Optional[Tuple]) -> List[int]:
    """Reconstruct a concrete schedule from a parent-pointer node.

    ``tail`` is either ``None`` (the schedule is the prefix itself) or a
    ``(parent_tail, index)`` pair; following the parent pointers yields
    the suffix in reverse.
    """
    suffix: List[int] = []
    while tail is not None:
        suffix.append(tail[1])
        tail = tail[0]
    suffix.reverse()
    return list(prefix) + suffix


def _check_node(
    report: ExplorationReport,
    ctx: ExplorationContext,
    row: int,
    prefix: Tuple[int, ...],
    tail: Optional[Tuple],
    stop_at_first_violation: bool,
) -> bool:
    """Safety-check one configuration against the context's task.

    Returns ``stop``: a violation was found and the caller asked to stop
    at the first one.  The schedule rides along as a parent-pointer node
    and is materialized only when a violation is actually recorded, so
    the happy path never pays the O(depth) copy.  The recorded
    counterexample is the lexicographically least violating schedule seen
    so far, keeping the report independent of traversal order.
    """
    if not ctx._decided[row]:
        return False
    found = ctx._verdict(row)
    if not found:
        return False
    for violation in found:
        if violation not in report.violations:
            report.violations.append(violation)
    as_list = _materialize(prefix, tail)
    if report.counterexample is None or as_list < report.counterexample:
        report.counterexample = as_list
    return stop_at_first_violation


def _explore_unit(
    ctx: ExplorationContext,
    prefix: Tuple[int, ...],
    max_configs: int,
    max_steps: Optional[int],
    stop_at_first_violation: bool,
    best_depth: List[int],
    touched: List[int],
) -> ExplorationReport:
    """Explore the interleaving subtree below one schedule prefix.

    The unit owns (counts and checks) the configurations along its prefix
    path only where this prefix is the lexicographically least viable
    continuation — so across the full prefix decomposition every interior
    path position is owned by exactly one unit — plus everything the
    frontier reaches below the prefix.  ``best_depth`` memoizes the
    minimum depth each configuration was expanded at; a strictly
    shallower arrival re-expands (the depth-bound soundness fix), a
    deeper or equal one is pruned.  The memo is a list indexed by the
    small-int class :meth:`ExplorationContext.canon_key` assigns per
    configuration.  The caller hands every unit of a range the same list,
    all ``_UNSEEN``; the unit grows it as interning adds classes and
    appends to ``touched`` every entry it sets, which the caller resets
    before the next unit, so emptying the memo costs what the unit
    visited, not the context's size.  Only the context's pure transition
    caches carry information across units.

    Without symmetry reduction each configuration is its own class.  On
    a symmetry-reducing context the class is the canonical form under
    process permutation, so an arrival at any process permutation of an
    already-expanded configuration is pruned the same way a repeat
    arrival is: the permuted subtree is isomorphic
    (full symmetry: transitions depend only on the state) and its task
    verdicts hold the same decided-value multiset, so a violation exists
    below one iff it exists below the other.  Budgets, counts, and
    ``fully_decided`` then tally canonical classes, not raw
    configurations — that is the reduction.
    """
    report = ExplorationReport()
    canon = ctx._canon

    # Pass 1: walk the prefix, recording the path and whether each step
    # took the least viable index (the ownership rule needs the suffix).
    undecided_of = ctx._undecided
    row = ctx.root
    path: List[int] = []
    least_viable: List[bool] = []
    for index in prefix:
        path.append(row)
        undecided = undecided_of[row]
        least_viable.append(bool(undecided) and index == undecided[0])
        row = ctx.child(row, index)
    owned_from = len(prefix)
    for flag in reversed(least_viable):
        if not flag:
            break
        owned_from -= 1

    # Pass 2: seed the memo with the path configurations and check the
    # owned interior ones (in path order, same count/check/budget
    # sequence as the frontier loop below).  The memo is a list indexed
    # by class, at least one slot per class the context knows (classes
    # are numbered densely from 0, one new class at most per step),
    # grown in blocks as interning adds classes.
    limit = len(ctx._classes) if ctx.symmetry else len(canon)
    if len(best_depth) < limit:
        best_depth.extend([_UNSEEN] * (limit - len(best_depth)))
    limit = len(best_depth)
    for depth, p_row in enumerate(path):
        memo_key = canon[p_row]
        if best_depth[memo_key] != _UNSEEN:
            continue
        best_depth[memo_key] = depth
        touched.append(memo_key)
        if depth < owned_from:
            continue
        report.configurations += 1
        stop = _check_node(
            report, ctx, p_row, prefix[:depth], None,
            stop_at_first_violation,
        )
        if stop:
            report.violations.sort()
            return report
        if report.configurations >= max_configs:
            report.truncated = True
            report.violations.sort()
            return report

    # Pass 3: frontier exploration below the prefix.  LIFO with children
    # pushed in ascending index order, so higher indices expand first —
    # the historical traversal order, kept for comparable truncation
    # behaviour (the *report* no longer depends on it).  Schedules are
    # parent-pointer tails rooted at the prefix, not per-node copies.
    # Frontier entries carry their memo key, so a node's canonical class
    # is read once, at push time; the tallies live in locals and are
    # written back after the loop.
    frontier: List[Tuple[int, int, int, Optional[Tuple]]] = [
        (row, canon[row], len(prefix), None)
    ]
    horizon = _UNSEEN if max_steps is None else max_steps
    step = ctx._step
    decided_of = ctx._decided
    verdicts = ctx._verdicts
    succ = ctx._succ
    configurations = report.configurations
    fully_decided = report.fully_decided
    mark = touched.append
    while frontier:
        row, memo_key, depth, tail = frontier.pop()
        prior = best_depth[memo_key]
        if depth >= prior:
            continue
        best_depth[memo_key] = depth
        if prior == _UNSEEN:
            configurations += 1
            mark(memo_key)

        # A cached verdict of () is the common decided case: no call.
        if decided_of[row] and verdicts[row] != ():
            if _check_node(
                report, ctx, row, prefix, tail, stop_at_first_violation
            ):
                break
        undecided = undecided_of[row]
        if not undecided and prior == _UNSEEN:
            fully_decided += 1
        if configurations >= max_configs:
            report.truncated = True
            break
        if not undecided:
            continue
        if depth >= horizon:
            report.truncated = True
            continue

        next_depth = depth + 1
        for index in undecided:
            # Inlined successor-cache hit: after the first expansion of
            # this configuration every edge is two list subscripts, not
            # a method call.
            nxt = succ[index][row]
            if nxt is None:
                nxt = step(row, index)
                key = canon[nxt]
                if key >= limit:
                    best_depth.extend(_UNSEEN_CHUNK)
                    limit += len(_UNSEEN_CHUNK)
            else:
                key = canon[nxt]
            # Push-time pruning: best_depth only ever decreases, so a
            # child already expanded this shallow (or shallower) would
            # be discarded at pop time anyway — dropping it here skips
            # the frontier churn without changing any report field.
            if next_depth >= best_depth[key]:
                continue
            frontier.append((nxt, key, next_depth, (tail, index)))
    report.configurations = configurations
    report.fully_decided = fully_decided
    report.violations.sort()
    return report


def explore_prefix_range(
    protocol: Protocol,
    inputs: Sequence[Any],
    task,
    prefixes: Sequence[Tuple[int, ...]],
    start: int,
    stop: int,
    max_configs: int = 200_000,
    max_steps: Optional[int] = None,
    stop_at_first_violation: bool = True,
    context: Optional[ExplorationContext] = None,
    certificates: bool = False,
    symmetry: bool = False,
) -> ExplorationReport:
    """Explore units ``start..stop-1`` of a prefix decomposition.

    ``prefixes`` must be the *full* decomposition (normally from
    :func:`schedule_prefixes`): the per-unit budget is derived from
    ``max_configs`` over its total length, so disjoint ranges merged
    together equal one call over the whole range.  This is the serial
    function :class:`repro.campaign.ExploreJob` workers execute.

    All units share one :class:`ExplorationContext` (``context``, or a
    fresh one built with ``symmetry``; a supplied context must have been
    built for the same protocol, inputs, task and mode, else
    :class:`~repro.errors.ValidationError`) for its pure transition
    caches; each unit still starts from an empty depth memo, so the
    merged report is byte-identical whether units run in one call, in
    separate calls, or on separate workers — with or without symmetry
    reduction, since the per-unit function and the merge are
    mode-parametric but worker-independent.

    With ``certificates=True`` the range's report carries a witness
    certificate for its counterexample (:mod:`repro.certify`); merging
    keeps exactly the certificates of the merged counterexample, so
    serial and sharded runs emit identical certificate sets.  Symmetry
    reduction never rewrites schedules (it only prunes), so reduced
    counterexamples are genuine schedules and their certificates replay
    unchanged.
    """
    budget = unit_budget(max_configs, len(prefixes))
    if context is not None:
        _check_context(
            context, protocol, inputs, task=task,
            symmetry_requested=bool(symmetry),
        )
    ctx = context if context is not None else ExplorationContext(
        protocol, inputs, task, symmetry=symmetry
    )
    report = ExplorationReport()
    best_depth: List[int] = []
    touched: List[int] = []
    for prefix in prefixes[start:stop]:
        for key in touched:  # empty the memo the previous unit filled
            best_depth[key] = _UNSEEN
        touched.clear()
        report = report.merge(
            _explore_unit(
                ctx, tuple(prefix), budget, max_steps,
                stop_at_first_violation, best_depth, touched,
            )
        )
    if certificates and report.counterexample is not None:
        from repro.certify.emit import exploration_certificates

        report.certificates = exploration_certificates(
            protocol, inputs, task, report
        )
    return report


def explore_protocol(
    protocol: Protocol,
    inputs: Sequence[Any],
    task,
    max_configs: int = 200_000,
    max_steps: Optional[int] = None,
    stop_at_first_violation: bool = True,
    prefix_depth: int = 0,
    certificates: bool = False,
    symmetry: bool = False,
) -> ExplorationReport:
    """Explore every interleaving of a protocol instance, checking safety.

    Args:
        protocol: the protocol under test.
        inputs: one input per participating process (may be fewer than
            ``protocol.n``).
        task: a task checker with ``check(inputs, outputs) -> [violations]``
            (see :mod:`repro.protocols.tasks`).
        max_configs: visit budget; exceeded -> ``truncated``.
        max_steps: optional per-run depth bound (schedule length).
        stop_at_first_violation: stop early (with counterexample) or keep
            collecting distinct violations.
        prefix_depth: shard the search into the subtrees below every
            viable schedule prefix of this length, each explored with a
            fresh memo and a ``max_configs``-derived budget.  ``0`` (the
            default) is the classic single-rooted search; a sharded
            campaign (:func:`repro.campaign.explore_campaign`) with the
            same ``prefix_depth`` reproduces this function's report
            exactly.
        certificates: emit a witness certificate for the counterexample
            (:mod:`repro.certify`); requires a registered protocol/task
            descriptor.
        symmetry: canonicalize configurations under process permutation
            before memo lookup; reduces only protocols declaring full
            symmetry.  Reduced reports keep the
            safe/unsafe verdict and a replayable counterexample but
            count canonical classes, not raw configurations.
    """
    if len(inputs) > protocol.n:
        raise ValidationError(
            f"{protocol.name} supports n={protocol.n}, got {len(inputs)} inputs"
        )
    depth = effective_prefix_depth(prefix_depth, max_steps)
    ctx = ExplorationContext(protocol, inputs, task, symmetry=symmetry)
    prefixes = schedule_prefixes(protocol, inputs, depth, context=ctx)
    return explore_prefix_range(
        protocol, inputs, task, prefixes, 0, len(prefixes),
        max_configs=max_configs, max_steps=max_steps,
        stop_at_first_violation=stop_at_first_violation, context=ctx,
        certificates=certificates, symmetry=symmetry,
    )


def check_obstruction_freedom(
    protocol: Protocol,
    inputs: Sequence[Any],
    sample_schedules: Sequence[Sequence[int]],
    solo_budget: int = 10_000,
) -> List[str]:
    """Probe obstruction-freedom: from each configuration reached by a given
    schedule, every process run solo must decide within ``solo_budget``.

    Returns violations (empty = obstruction-free on all probes).  The
    schedules are lists of process indices; steps by decided processes are
    skipped.  Schedule entries outside ``range(len(inputs))`` are a
    :class:`~repro.errors.ValidationError`.
    """
    violations = []
    ctx = ExplorationContext(protocol, inputs)
    for schedule in sample_schedules:
        row = ctx.replay(schedule)
        for index in range(len(inputs)):
            if index in ctx.decided_of(row):
                continue
            try:
                _state, _mem, _pending, decision = solo_run(
                    protocol, ctx.states_of(row)[index],
                    ctx.memory_of(row), max_steps=solo_budget,
                )
            except DivergenceError:
                violations.append(
                    f"{protocol.name}: process {index} ran solo for "
                    f"{solo_budget} steps without deciding after schedule "
                    f"{list(schedule)[:20]}..."
                )
                continue
            if decision is None:
                violations.append(
                    f"{protocol.name}: process {index} solo run stopped "
                    "without a decision"
                )
    return violations

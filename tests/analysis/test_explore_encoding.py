"""The explorer's key encoding: packed configuration keys and interned
canonical classes.

* a configuration's intern key packs its state ids, then its memory ids,
  ``_SLOT_BITS`` bits per slot, so it is injective: configurations that
  a narrower memory shift would merge stay distinct rows;
* :meth:`ExplorationContext.canon_key` hands out one small int per
  canonical form: two configurations of one context share it exactly
  when their sorted state multisets and memories are equal (symmetry
  reduction), or exactly when they are the same configuration (no
  reduction).
"""

from collections import Counter

from repro.analysis import (
    ExplorationContext,
    explore,
    explore_prefix_range,
    schedule_prefixes,
)
from repro.protocols import (
    AnonymousSweepConsensus,
    KSetAgreementTask,
    RacingConsensus,
)
from repro.protocols.base import SCAN, Protocol


class IntScanner(Protocol):
    """Scans forever; states and memory values are plain ints, so any
    value can sit in a process slot or in a memory component."""

    def __init__(self) -> None:
        self.n = 2
        self.m = 2
        self.name = "int-scanner"

    def initial_state(self, index, value):
        return value

    def poised(self, state):
        return (SCAN, None)

    def advance(self, state, observation=None):
        return state


def slots(key, width):
    """Split a packed key back into ``width`` slot ids, slot 0 first."""
    mask = explore._SLOT_LIMIT - 1
    return tuple(
        (key >> (explore._SLOT_BITS * slot)) & mask for slot in range(width)
    )


def explored_context(protocol, inputs, depth, max_steps, symmetry):
    """A context after exploring every unit of a prefix decomposition."""
    task = KSetAgreementTask(1)
    ctx = ExplorationContext(protocol, inputs, task, symmetry=symmetry)
    prefixes = schedule_prefixes(protocol, inputs, depth, context=ctx)
    explore_prefix_range(
        protocol, inputs, task, prefixes, 0, len(prefixes),
        max_steps=max_steps, context=ctx, symmetry=symmetry,
    )
    return ctx


class TestPackedKey:
    def test_key_is_injective_where_a_narrower_shift_collides(self):
        """Swapping a value between process 1 and memory component 0
        gives two configurations whose keys collide if memory starts
        one slot too low (the OR merges the overlapping slot); the
        packed key keeps them apart."""
        ctx = ExplorationContext(IntScanner(), [0, 1])
        a = ctx._intern_scan((0, 1), (2, 3))
        b = ctx._intern_scan((0, 2), (1, 3))
        narrow = explore._SLOT_BITS * (len(ctx.inputs) - 1)

        def narrow_key(row):
            return explore._pack(ctx._sids[row]) | (ctx._mkeys[row] << narrow)

        assert narrow_key(a) == narrow_key(b)
        assert a != b
        assert ctx._keys[a] != ctx._keys[b]
        assert ctx.states_of(a) != ctx.states_of(b)
        assert ctx._intern_scan((0, 1), (2, 3)) == a

    def test_key_unpacks_to_state_then_memory_ids(self):
        """Every interned key, root and children alike (children derive
        theirs by shifted deltas), is the slot-wise packing of its state
        ids followed by its memory ids, and no two rows share one."""
        protocol = RacingConsensus(3)
        ctx = explored_context(protocol, [0, 1, 2], 2, 10, False)
        rows = list(ctx._rows.values())
        assert len(rows) > 1_000
        assert sorted(rows) == list(range(len(ctx._keys)))
        for row in rows:
            key, ids = ctx._keys[row], ctx._sids[row] + ctx._mids[row]
            assert slots(key, len(ids)) == ids
            assert key == explore._pack(ids)
            assert ctx._rows[key] == row
        assert len(set(ctx._keys)) == len(rows)


class TestCanonicalClasses:
    def test_ids_equal_exactly_when_canonical_forms_equal(self):
        protocol = AnonymousSweepConsensus(4, m=2)
        ctx = explored_context(protocol, [0, 1, 1, 1], 2, 9, True)
        assert ctx.symmetry
        by_form, by_id = {}, {}
        for row in ctx._rows.values():
            form = (
                frozenset(Counter(ctx.states_of(row)).items()),
                ctx.memory_of(row),
            )
            canon = ctx.canon_key(row)
            assert isinstance(canon, int)
            assert by_form.setdefault(form, canon) == canon
            assert by_id.setdefault(canon, form) == form
        # Reduction happened: fewer classes than configurations.
        assert len(by_id) < len(ctx._rows)
        assert sorted(by_id) == list(range(len(by_id)))

    def test_without_reduction_every_configuration_is_its_own_class(self):
        protocol = AnonymousSweepConsensus(3, m=2)
        ctx = explored_context(protocol, [0, 1, 1], 2, 8, False)
        assert not ctx.symmetry
        classes = [ctx.canon_key(row) for row in ctx._rows.values()]
        assert sorted(classes) == list(range(len(ctx._rows)))

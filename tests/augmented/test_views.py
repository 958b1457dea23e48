"""Unit and property tests for the local functions of Figure 1 (lines 1-13)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.augmented.views import (
    YIELD,
    get_view,
    history_count,
    history_counts,
    is_prefix,
    is_proper_prefix,
    new_timestamp,
    timestamps_in,
)
from repro.errors import ValidationError
from repro.timestamps import VectorTimestamp


def ts(*comps):
    return VectorTimestamp(comps)


class TestYieldSign:
    def test_singleton(self):
        from repro.augmented.views import _YieldSign

        assert _YieldSign() is YIELD

    def test_falsy(self):
        assert not YIELD
        view_or_yield = YIELD
        assert not bool(view_or_yield)

    def test_repr_mentions_yield(self):
        assert "YIELD" in repr(YIELD)


class TestHistoryCount:
    def test_empty_history(self):
        assert history_count(()) == 0

    def test_counts_distinct_timestamps(self):
        history = (
            (0, "a", ts(1, 0)),
            (1, "b", ts(1, 0)),  # same Block-Update
            (0, "c", ts(2, 0)),  # next Block-Update
        )
        assert history_count(history) == 2

    def test_full_counts(self):
        h = (
            ((0, "a", ts(1, 0)),),
            (),
        )
        assert history_counts(h) == (1, 0)


class TestNewTimestamp:
    def test_bumps_own_component(self):
        h = (
            ((0, "a", ts(1, 0)),),
            ((1, "b", ts(1, 1)),),
        )
        assert new_timestamp(h, 0) == ts(2, 1)
        assert new_timestamp(h, 1) == ts(1, 2)

    def test_rank_out_of_range(self):
        with pytest.raises(ValidationError):
            new_timestamp(((),), 5)

    def test_corollary_11_dominates_contained_timestamps(self):
        """New-timestamp(h) is lexicographically larger than any timestamp
        contained in h."""
        # A well-formed history (Lemma 10: #h_j >= t_j for every contained t):
        # rank 0 performed Block-Updates with timestamps (1,0) then (2,1);
        # rank 1 performed one with (1,1).
        h = (
            ((0, "a", ts(1, 0)), (1, "b", ts(2, 1))),
            ((2, "c", ts(1, 1)),),
        )
        for rank in (0, 1):
            fresh = new_timestamp(h, rank)
            for contained in timestamps_in(h):
                assert fresh > contained


class TestGetView:
    def test_empty_gives_bottoms(self):
        assert get_view(((), ()), 3) == (None, None, None)

    def test_largest_timestamp_wins(self):
        h = (
            ((0, "old", ts(1, 0)),),
            ((0, "new", ts(1, 1)),),
        )
        assert get_view(h, 1) == ("new",)

    def test_per_component_independence(self):
        h = (
            ((0, "x", ts(2, 0)), (1, "y", ts(1, 0))),
            ((1, "z", ts(1, 1)),),
        )
        assert get_view(h, 2) == ("x", "z")

    def test_component_out_of_range_rejected(self):
        h = (((7, "v", ts(1,)),),)
        with pytest.raises(ValidationError):
            get_view(h, 2)

    def test_timestamp_size_mismatch_rejected(self):
        # A shorter timestamp is a lexicographic prefix, so comparing raw
        # component tuples would quietly order it; the view fails closed.
        h = (
            ((0, "old", ts(1, 0)),),
            ((0, "new", ts(1, 0, 1)),),
        )
        with pytest.raises(ValidationError):
            get_view(h, 1)


class TestLinearizeTimestampSizes:
    def test_timestamp_size_mismatch_rejected(self):
        from repro.augmented import AugmentedSnapshot
        from repro.augmented.linearization import linearize
        from repro.augmented.object import AUG_OP_TAG
        from repro.runtime.events import Event, Trace

        obj = AugmentedSnapshot("M", components=1, pids=[0, 1])
        trace = Trace()
        for seq, (rank, value, stamp) in enumerate(
            [(0, "a", ts(1, 0)), (1, "b", ts(1, 0, 1))]
        ):
            trace.append(Event(
                2 * seq + 1, rank, "annotate", tag=AUG_OP_TAG,
                payload={"kind": "block_update", "phase": "begin",
                         "op_id": f"B{seq}", "rank": rank, "object": "M",
                         "components": (0,), "values": (value,)},
            ))
            trace.append(Event(
                2 * seq + 2, rank, "step", obj.H.name, "update",
                (rank, ((0, value, stamp),)),
            ))
        with pytest.raises(ValidationError):
            linearize(trace, obj)


class TestPrefix:
    def test_empty_is_prefix_of_anything(self):
        a = ((), ())
        b = (((0, "v", ts(1, 0)),), ())
        assert is_prefix(a, b)
        assert not is_prefix(b, a)

    def test_reflexive(self):
        h = (((0, "v", ts(1, 0)),),)
        assert is_prefix(h, h)
        assert not is_proper_prefix(h, h)

    def test_proper_prefix(self):
        a = (((0, "v", ts(1, 0)),),)
        b = (((0, "v", ts(1, 0)), (1, "w", ts(2, 0))),)
        assert is_proper_prefix(a, b)

    def test_divergent_histories_incomparable(self):
        a = (((0, "v", ts(1, 0)),),)
        b = (((0, "w", ts(1, 0)),),)
        assert not is_prefix(a, b)
        assert not is_prefix(b, a)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            is_prefix(((),), ((), ()))


@st.composite
def histories(draw):
    """Random well-formed scan results over 2 ranks, 2 components."""
    n_ops = draw(st.integers(min_value=0, max_value=5))
    h = [[], []]
    counts = [0, 0]
    for _ in range(n_ops):
        rank = draw(st.integers(0, 1))
        counts[rank] += 1
        stamp = VectorTimestamp(
            [counts[0], counts[1]] if rank == 1 else [counts[0], max(0, counts[1] - 1)]
        )
        comp = draw(st.integers(0, 1))
        h[rank].append((comp, f"v{rank}.{counts[rank]}", stamp))
    return (tuple(h[0]), tuple(h[1]))


class TestPrefixProperties:
    @given(histories())
    def test_view_components_come_from_history(self, h):
        view = get_view(h, 2)
        values = {triple[1] for history in h for triple in history}
        for component in view:
            assert component is None or component in values

    @given(histories(), st.integers(0, 1))
    def test_new_timestamp_strictly_dominates(self, h, rank):
        fresh = new_timestamp(h, rank)
        for contained in timestamps_in(h):
            assert fresh > contained

"""Unit and property tests for the MVE ring buffer."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.mve import ControlEvent, ControlKind, RingBuffer
from repro.mve.ring_buffer import BufferFull
from repro.syscalls.model import write_record


def rec(i):
    return write_record(4, f"payload-{i}".encode())


def test_push_pop_fifo():
    ring = RingBuffer(capacity=8)
    for i in range(5):
        ring.push(rec(i), produced_at=i * 10)
    out = [ring.pop() for _ in range(5)]
    assert [e.payload.data for e in out] == [rec(i).data for i in range(5)]
    assert [e.produced_at for e in out] == [0, 10, 20, 30, 40]


def test_push_when_full_raises():
    ring = RingBuffer(capacity=2)
    ring.push(rec(0), 0)
    ring.push(rec(1), 0)
    assert ring.is_full()
    with pytest.raises(BufferFull):
        ring.push(rec(2), 0)


def test_pop_frees_slot():
    ring = RingBuffer(capacity=1)
    ring.push(rec(0), 0)
    ring.pop()
    ring.push(rec(1), 0)  # must not raise
    assert len(ring) == 1


def test_pop_empty_raises():
    with pytest.raises(SimulationError):
        RingBuffer(capacity=4).pop()


def test_capacity_must_be_positive():
    with pytest.raises(SimulationError):
        RingBuffer(capacity=0)


def test_peek_does_not_consume():
    ring = RingBuffer(capacity=4)
    ring.push(rec(0), 0)
    ring.push(rec(1), 0)
    assert ring.peek(0).payload.data == rec(0).data
    assert ring.peek(1).payload.data == rec(1).data
    assert ring.peek(2) is None
    assert len(ring) == 2


def test_sequence_numbers_are_global():
    ring = RingBuffer(capacity=2)
    ring.push(rec(0), 0)
    ring.pop()
    entry = ring.push(rec(1), 0)
    assert entry.sequence == 1


def test_counters_and_watermark():
    ring = RingBuffer(capacity=4)
    for i in range(3):
        ring.push(rec(i), 0)
    ring.pop()
    assert ring.produced_total == 3
    assert ring.consumed_total == 1
    assert ring.high_watermark == 3


def test_clear_counts_as_consumption():
    ring = RingBuffer(capacity=4)
    for i in range(3):
        ring.push(rec(i), 0)
    ring.clear()
    assert ring.is_empty()
    assert ring.consumed_total == 3


def test_control_events_flow_through():
    ring = RingBuffer(capacity=4)
    ring.push(rec(0), 0)
    ring.push(ControlEvent(ControlKind.PROMOTE), 5)
    ring.pop()
    event = ring.pop().payload
    assert isinstance(event, ControlEvent)
    assert event.kind is ControlKind.PROMOTE
    assert "promote" in event.describe()


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 100)), max_size=200),
       st.integers(1, 16))
def test_fifo_invariant_under_random_ops(ops, capacity):
    """Pops always return pushes in order; occupancy never exceeds capacity."""
    ring = RingBuffer(capacity=capacity)
    pushed = []
    popped = []
    counter = 0
    for is_push, _ in ops:
        if is_push:
            if ring.is_full():
                with pytest.raises(BufferFull):
                    ring.push(rec(counter), counter)
            else:
                ring.push(rec(counter), counter)
                pushed.append(counter)
                counter += 1
        else:
            if not ring.is_empty():
                popped.append(ring.pop().produced_at)
        assert len(ring) <= capacity
    assert popped == pushed[:len(popped)]
    assert ring.produced_total == len(pushed)
    assert ring.consumed_total == len(popped)


# ---------------------------------------------------------------------------
# Batched push/pop (hot-path API used by the MVE runtime)
# ---------------------------------------------------------------------------


def test_push_many_preserves_fifo_and_sequences():
    ring = RingBuffer(capacity=8)
    ring.push(rec(0), 0)
    entries = ring.push_many([rec(1), rec(2), rec(3)], produced_at=7)
    assert [e.sequence for e in entries] == [1, 2, 3]
    assert all(e.produced_at == 7 for e in entries)
    out = [ring.pop() for _ in range(4)]
    assert [e.payload.data for e in out] == [rec(i).data for i in range(4)]
    assert ring.produced_total == 4
    assert ring.high_watermark == 4


def test_push_many_is_atomic_when_batch_does_not_fit():
    ring = RingBuffer(capacity=4)
    ring.push(rec(0), 0)
    ring.push(rec(1), 0)
    with pytest.raises(BufferFull):
        ring.push_many([rec(2), rec(3), rec(4)], produced_at=0)
    # Nothing was pushed: the batch either fits entirely or not at all.
    assert len(ring) == 2
    assert ring.produced_total == 2
    ring.push_many([rec(2), rec(3)], produced_at=0)
    assert len(ring) == 4


def test_push_many_empty_batch_is_a_noop():
    ring = RingBuffer(capacity=1)
    ring.push(rec(0), 0)
    assert ring.push_many([], produced_at=0) == []
    assert ring.produced_total == 1


def test_free_slots_tracks_occupancy():
    ring = RingBuffer(capacity=3)
    assert ring.free_slots() == 3
    ring.push(rec(0), 0)
    ring.push(rec(1), 0)
    assert ring.free_slots() == 1
    ring.pop()
    assert ring.free_slots() == 2


def test_pop_many_returns_oldest_in_order():
    ring = RingBuffer(capacity=8)
    for i in range(5):
        ring.push(rec(i), i)
    out = ring.pop_many(3)
    assert [e.produced_at for e in out] == [0, 1, 2]
    assert ring.consumed_total == 3
    assert len(ring) == 2


def test_pop_many_more_than_held_raises_with_counts():
    ring = RingBuffer(capacity=8)
    ring.push(rec(0), 0)
    with pytest.raises(SimulationError, match=r"pop_many\(3\).*holding 1"):
        ring.pop_many(3)
    assert len(ring) == 1  # nothing consumed on failure


@given(st.lists(st.integers(0, 6), max_size=60), st.integers(1, 16))
def test_batched_ops_match_singleton_ops(batch_sizes, capacity):
    """push_many/pop_many observe the same FIFO state as push/pop loops."""
    batched = RingBuffer(capacity=capacity)
    naive = RingBuffer(capacity=capacity)
    counter = 0
    for size in batch_sizes:
        payloads = [rec(counter + i) for i in range(size)]
        fits = size <= batched.free_slots()
        if fits:
            batched.push_many(payloads, produced_at=counter)
            for payload in payloads:
                naive.push(payload, produced_at=counter)
            counter += size
        else:
            with pytest.raises(BufferFull):
                batched.push_many(payloads, produced_at=counter)
            drain = min(size, len(batched))
            if drain:
                popped = batched.pop_many(drain)
                assert [e.payload.data for e in popped] == \
                    [naive.pop().payload.data for _ in range(drain)]
        assert len(batched) == len(naive)
        assert batched.produced_total == naive.produced_total
        assert batched.consumed_total == naive.consumed_total
        assert batched.high_watermark == naive.high_watermark


# ---------------------------------------------------------------------------
# Several readers, one cursor each (N-version followers)
# ---------------------------------------------------------------------------


def test_slot_freed_only_when_every_reader_read_it():
    ring = RingBuffer(capacity=4)
    fast, slow = ring.open_reader(), ring.open_reader()
    ring.push_many([rec(i) for i in range(3)], produced_at=0)
    assert [e.sequence for e in ring.pop_many(3, fast)] == [0, 1, 2]
    assert ring.unread(fast) == 0 and ring.unread(slow) == 3
    assert len(ring) == 3  # the slow reader still holds every slot
    assert ring.pop(slow).sequence == 0
    assert len(ring) == 2
    assert ring.consumed_total == 1


def test_closing_a_reader_releases_only_its_slots():
    ring = RingBuffer(capacity=4)
    fast, slow = ring.open_reader(), ring.open_reader()
    ring.push_many([rec(i) for i in range(3)], produced_at=0)
    ring.pop(fast)
    ring.close_reader(slow)
    assert len(ring) == 2
    assert [e.sequence for e in ring.pop_many(2, fast)] == [1, 2]
    assert ring.is_empty()


def test_reader_starts_at_the_next_push():
    ring = RingBuffer(capacity=4)
    early = ring.open_reader()
    ring.push(rec(0), 0)
    late = ring.open_reader()
    ring.push(rec(1), 0)
    assert ring.unread(early) == 2 and ring.unread(late) == 1
    assert ring.pop(late).sequence == 1
    with pytest.raises(SimulationError, match="holding 0"):
        ring.pop(late)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                max_size=80))
def test_every_reader_sees_every_push_in_order(ops):
    """Reader r pops in FIFO order; occupancy is the slowest backlog."""
    ring = RingBuffer(capacity=8)
    readers = [ring.open_reader() for _ in range(3)]
    seen = {reader: [] for reader in readers}
    pushed = 0
    for who, count in ops:
        if who == 0:
            if count > ring.free_slots():
                continue
            ring.push_many([rec(pushed + i) for i in range(count)], 0)
            pushed += count
        else:
            reader = readers[who - 1]
            count = min(count, ring.unread(reader))
            seen[reader] += [e.sequence for e in ring.pop_many(count, reader)]
        assert len(ring) == max(ring.unread(r) for r in readers)
    for reader in readers:
        assert seen[reader] == list(range(len(seen[reader])))

"""The shared ring buffer between leader and followers.

The leader appends one entry per intercepted syscall; each follower
reads in FIFO order through its own cursor, and a slot is freed only
once the slowest follower has read it.  The buffer is bounded: when it
fills, the leader *blocks* until the slowest follower frees a slot — the
mechanism behind Figure 7, where a 2^10-entry buffer turns a background
update into a multi-second service pause while a 2^24-entry buffer masks
it entirely.

Entries carry their produce timestamp so replay can respect causality
(a follower cannot consume an entry before it was produced).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Deque, Dict, List, Optional, Sequence, Union

from repro.errors import SimulationError
from repro.mve.events import ControlEvent
from repro.syscalls.model import SyscallRecord

#: What one slot can hold.
Payload = Union[SyscallRecord, ControlEvent]


@dataclass(frozen=True)
class RingEntry:
    """One occupied slot."""

    payload: Payload
    produced_at: int
    sequence: int


class RingBuffer:
    """Bounded FIFO with producer back-pressure.

    ``push`` raises :class:`BufferFull` rather than blocking; the MVE
    runtime catches it, advances the slowest follower far enough to free
    a slot, and retries — that dance is what converts a slow follower
    into leader latency.

    Readers are opened with :meth:`open_reader` and passed to
    :meth:`pop` / :meth:`pop_many`.  Without a reader those consume the
    oldest entries: the single-consumer ring.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"ring buffer capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: Deque[RingEntry] = deque()
        self._produced = 0
        self._consumed = 0
        self.high_watermark = 0
        #: Open reader -> sequence of the next entry it reads.  While any
        #: reader is open, ``_consumed`` is the smallest of these.
        self._cursors: Dict[int, int] = {}
        self._next_reader = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def produced_total(self) -> int:
        """Entries pushed over the buffer's lifetime."""
        return self._produced

    @property
    def consumed_total(self) -> int:
        """Entries freed over the buffer's lifetime."""
        return self._consumed

    def is_full(self) -> bool:
        """True when a push would block the leader."""
        return len(self._entries) >= self.capacity

    def free_slots(self) -> int:
        """Slots a batch push could fill right now."""
        return self.capacity - len(self._entries)

    def is_empty(self) -> bool:
        """True when the follower has fully caught up."""
        return not self._entries

    def push(self, payload: Payload, produced_at: int) -> RingEntry:
        """Append an entry; raises :class:`BufferFull` when at capacity."""
        if self.is_full():
            raise BufferFull(self.capacity)
        entry = RingEntry(payload, produced_at, self._produced)
        self._entries.append(entry)
        self._produced += 1
        self.high_watermark = max(self.high_watermark, len(self._entries))
        return entry

    def push_many(self, payloads: Sequence[Payload],
                  produced_at: int) -> List[RingEntry]:
        """Append a batch atomically, all stamped with ``produced_at``.

        Raises :class:`BufferFull` — pushing *nothing* — when the batch
        does not fit; the caller chunks to :meth:`free_slots` and
        interleaves follower replay, exactly like single-entry
        back-pressure but one call per burst instead of per record.
        """
        if len(payloads) > self.capacity - len(self._entries):
            raise BufferFull(self.capacity)
        sequence = self._produced
        entries = [RingEntry(payload, produced_at, sequence + offset)
                   for offset, payload in enumerate(payloads)]
        self._entries.extend(entries)
        self._produced = sequence + len(entries)
        if len(self._entries) > self.high_watermark:
            self.high_watermark = len(self._entries)
        return entries

    def peek(self, index: int = 0) -> Optional[RingEntry]:
        """Look at the ``index``-th held entry (oldest first)."""
        if index < len(self._entries):
            return self._entries[index]
        return None

    def open_reader(self) -> int:
        """Add a reader whose cursor starts at the next push."""
        reader = self._next_reader
        self._next_reader += 1
        self._cursors[reader] = self._produced
        self._release()
        return reader

    def close_reader(self, reader: int) -> None:
        """Drop a reader, freeing the slots only it still held."""
        del self._cursors[reader]
        self._release()

    def unread(self, reader: int) -> int:
        """Entries ``reader`` has yet to read."""
        return self._produced - self._cursors[reader]

    def pop(self, reader: Optional[int] = None) -> RingEntry:
        """Consume one entry (see :meth:`pop_many`)."""
        return self.pop_many(1, reader)[0]

    def pop_many(self, count: int,
                 reader: Optional[int] = None) -> List[RingEntry]:
        """Consume ``count`` entries in one call.

        These are the oldest entries, or with ``reader`` the oldest that
        reader has not read; a slot is freed once every reader read it.
        """
        entries = self._entries
        start = 0 if reader is None else self._cursors[reader] - self._consumed
        if start + count > len(entries):
            raise SimulationError(
                f"pop_many({count}) from ring buffer holding "
                f"{len(entries) - start} entries")
        if reader is not None:
            self._cursors[reader] += count
            # A sole reader's cursor is the oldest slot (start == 0),
            # so it frees exactly what it reads: the popleft path.
            if len(self._cursors) > 1:
                out = list(islice(entries, start, start + count))
                self._release()
                return out
        self._consumed += count
        popleft = entries.popleft
        return [popleft() for _ in range(count)]

    def _release(self) -> None:
        """Free every slot all open readers have read."""
        if self._cursors:
            oldest = min(self._cursors.values())
            popleft = self._entries.popleft
            for _ in range(oldest - self._consumed):
                popleft()
            self._consumed = oldest

    def clear(self) -> None:
        """Drop all entries (used when the last follower is terminated)."""
        self._consumed += len(self._entries)
        self._entries.clear()
        self._cursors = dict.fromkeys(self._cursors, self._produced)


class BufferFull(SimulationError):
    """Raised by ``push`` when the buffer is at capacity."""

    def __init__(self, capacity: int) -> None:
        super().__init__(f"ring buffer full ({capacity} entries)")
        self.capacity = capacity

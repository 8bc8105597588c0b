"""Per-node forwarding state: PIT, content store, and the flooding strategy.

Face ids map to neighbors; face 0 is always the local application face.
Nodes are mutated only by the single-threaded event loop that owns them.

PIT entries expire lazily.  Only an entry that holds the local face
decides whether a request failed, so only such an entry gets an expiry
timer (through ``pit_expiry_hook``).  Every other entry simply counts as
absent once a lookup finds ``expiry <= now``; it is queued on the
``pit_reclaim`` FIFO, and :func:`reclaim_expired` deletes it later.
Every delivery is scheduled after the entry it meets was created, so an
entry whose expiry equals the delivery time counts as gone, just as a
timer set at its creation would already have removed it.  Most
Interests of a flood reach a dead end, a node whose only face is the
one they came in on; there ``on_interest`` still creates the PIT entry
and queues it for reclaim, but builds no list of out-faces.

Each node also keeps a dead-nonce list: the (name, nonce) pairs it has
answered, from its own content or its content store, and the nonces of
every PIT entry that Data consumed.  A copy of such an Interest that
arrives later is dropped as a duplicate for ``PIT_LIFETIME_NS``, so a
producer answers each flood once and a late copy cannot flood again
after the Data has passed.  Dead entries expire lazily like transit PIT
entries and are reclaimed from the same FIFO.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import ContentName, DataPacket, InterestPacket

LOCAL_FACE = 0

# PIT entries and dead nonces live 4 simulated seconds, then expire; late
# Data is dropped by the no-PIT rule.
PIT_LIFETIME_NS = 4_000_000_000


class UnknownFaceError(ValueError):
    """Raised when a packet arrives on a face the node does not have."""


@dataclass(slots=True)
class PitEntry:
    in_faces: set[int]
    seen_nonces: set[int]
    expiry: int
    token: int


class ContentStore:
    """Fixed-capacity LRU cache of named payload sizes.

    Capacity 0 disables caching entirely (used for cold-cache runs).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[str, tuple[int, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str, now: int) -> int | None:
        """Payload size for ``key`` or None; a hit refreshes recency."""
        hit = self._entries.get(key)
        if hit is None:
            return None
        self._entries[key] = (hit[0], now)
        self._entries.move_to_end(key)
        return hit[0]

    def insert(self, key: str, size: int, now: int) -> str | None:
        """Insert or refresh ``key``; returns the evicted key if any."""
        if self.capacity == 0:
            return None
        if key in self._entries:
            self._entries[key] = (size, now)
            self._entries.move_to_end(key)
            return None
        evicted = None
        if len(self._entries) >= self.capacity:
            evicted, _ = self._entries.popitem(last=False)
        self._entries[key] = (size, now)
        return evicted

    def keys(self) -> list[str]:
        return list(self._entries)


def face_layout(neighbors: Iterable[int]) -> dict[int, int | None]:
    """Face map convention: 0 is local, neighbors get 1..k by ascending id."""
    faces: dict[int, int | None] = {LOCAL_FACE: None}
    for i, nbr in enumerate(sorted(neighbors), start=1):
        faces[i] = nbr
    return faces


class NdnNode:
    """One network node's forwarding engine."""

    def __init__(self, node_id: int, neighbors: Iterable[int], *,
                 cs_capacity: int = 1000) -> None:
        self.id = node_id
        self.faces = face_layout(neighbors)
        self.face_of = {nbr: face for face, nbr in self.faces.items() if nbr is not None}
        out = [face for face in sorted(self.faces) if face != LOCAL_FACE]
        # incoming face -> the faces a flood leaves on
        self._flood_faces = {face: [f for f in out if f != face] for face in self.faces}
        self.pit: dict[str, PitEntry] = {}
        self.cs = ContentStore(cs_capacity)
        self.published: dict[str, int] = {}  # canonical name -> payload bits
        # (canonical name, nonce) -> expiry of the pairs this node has answered
        # or whose PIT entry Data consumed
        self.dead_nonces: dict[tuple[str, int], int] = {}
        self.duplicates_suppressed = 0
        self._next_token = 0
        # hook(name_key, token, expiry) lets the event loop time entries
        # that hold the local face
        self.pit_expiry_hook: Callable[[str, int, int], None] | None = None
        # (expiry, node, name_key, token) of every other entry, and
        # (expiry, node, (name_key, nonce), None) of every dead nonce, in
        # creation order; the event loop shares one FIFO among all its nodes
        self.pit_reclaim: deque[tuple] = deque()

    # -- content origin -------------------------------------------------

    def publish(self, name: ContentName, payload_bits: int) -> None:
        self.published[name.canonical_text] = payload_bits

    # -- strategy --------------------------------------------------------

    def strategy_flood(self, in_face: int) -> list[int]:
        """All non-local faces but the incoming one; UnknownFaceError if no such face."""
        try:
            return self._flood_faces[in_face]
        except KeyError:
            raise UnknownFaceError(f"node {self.id} has no face {in_face}") from None

    # -- packet handling ---------------------------------------------------

    def on_interest(self, interest: InterestPacket, in_face: int,
                    now: int) -> list[tuple[int, InterestPacket | DataPacket]]:
        out_faces = self.strategy_flood(in_face)
        key = interest.name.canonical_text
        if self.dead_nonces and self.dead_nonces.get((key, interest.nonce), now) > now:
            self.duplicates_suppressed += 1
            return []

        size = self.published.get(key)
        if size is None and self.cs.capacity:
            size = self.cs.get(key, now)
        if size is not None:
            self._mark_dead((key, interest.nonce), now)
            data = DataPacket(interest.name, size,
                              trace=(self.id,) if interest.trace else ())
            return [(in_face, data)]

        entry = self.pit.get(key)
        if entry is not None and entry.expiry > now:
            if interest.nonce in entry.seen_nonces:
                self.duplicates_suppressed += 1
                return []
            if in_face == LOCAL_FACE and LOCAL_FACE not in entry.in_faces:
                self._watch(key, entry.token, entry.expiry)
            entry.in_faces.add(in_face)
            entry.seen_nonces.add(interest.nonce)
            return []

        self._next_token += 1
        token = self._next_token
        expiry = now + PIT_LIFETIME_NS
        self.pit[key] = PitEntry({in_face}, {interest.nonce}, expiry, token)
        if in_face == LOCAL_FACE:
            self._watch(key, token, expiry)
        else:
            self.pit_reclaim.append((expiry, self, key, token))
        if not out_faces:
            return []
        return [(face, interest) for face in out_faces]

    def on_data(self, data: DataPacket, in_face: int,
                now: int) -> list[tuple[int, DataPacket]]:
        if in_face not in self.faces:
            raise UnknownFaceError(f"node {self.id} has no face {in_face}")
        key = data.name.canonical_text
        entry = self.pit.get(key)
        if entry is None or entry.expiry <= now:
            return []  # unsolicited or late data is dropped
        del self.pit[key]
        for nonce in entry.seen_nonces:
            self._mark_dead((key, nonce), now)
        self.cs.insert(key, data.payload_size, now)
        return [(face, data) for face in sorted(entry.in_faces) if face != in_face]

    def expire_pit(self, key: str, token: int, now: int) -> PitEntry | None:
        """Drop the PIT entry if it is still the one the timer was set for."""
        entry = self.pit.get(key)
        if entry is not None and entry.token == token and entry.expiry <= now:
            del self.pit[key]
            return entry
        return None

    def _mark_dead(self, pair: tuple[str, int], now: int) -> None:
        expiry = now + PIT_LIFETIME_NS
        self.dead_nonces[pair] = expiry
        self.pit_reclaim.append((expiry, self, pair, None))

    def _watch(self, key: str, token: int, expiry: int) -> None:
        if self.pit_expiry_hook is not None:
            self.pit_expiry_hook(key, token, expiry)


def reclaim_expired(fifo: deque[tuple], now: int) -> None:
    """Delete the queued PIT entries and dead nonces whose lifetime ended by ``now``.

    Entries are queued as they are created and all live the same
    PIT_LIFETIME_NS, so the FIFO is ordered by expiry.  An entry the
    local face joined later belongs to its expiry timer and is skipped,
    and so is a dead nonce marked again after its expiry.
    """
    while fifo and fifo[0][0] <= now:
        _, node, key, token = fifo.popleft()
        if token is None:
            if node.dead_nonces.get(key, now) <= now:
                node.dead_nonces.pop(key, None)
            continue
        entry = node.pit.get(key)
        if (entry is not None and entry.token == token
                and LOCAL_FACE not in entry.in_faces):
            del node.pit[key]

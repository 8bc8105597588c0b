"""Per-node forwarding state: PIT, dead-nonce list, and the flooding strategy.

A node's one face table is ``neighbors``, its neighbour ids in
ascending order: face 0 is the local application face and face f > 0
leads to ``neighbors[f - 1]``.  Nodes are mutated only by the
single-threaded event loop that owns them.  A node decides each
Interest's fate and the event loop carries it out: ``on_interest``
drops it, answers it with Data, or returns ``FLOOD``, and the loop
sends the Interest on every neighbour's face but the one it came in
on, from the flood plans it builds out of ``neighbors`` (see
``balancedn.engine``).

A PIT entry is one object and the only one the cyclic garbage collector
tracks for it: a flood leaves an entry on each non-leaf node it reaches
and the Data does not pass, and if each brought its own sets and records
they would pass the collector's gen-0 threshold every few floods.  An
entry holds its name key, its node's ``pit`` dict, its in-faces as a
bitmask (bit ``f`` for face ``f``), the nonce that created it and its
expiry.  Its ``more_nonces`` set exists only once another nonce has
joined the entry.

PIT entries expire lazily.  An entry simply counts as absent once a
lookup finds ``expiry <= now``; every entry is queued on the
``pit_reclaim`` FIFO as it is created, and :func:`reclaim_expired`
deletes it later if its node's PIT still maps its key to it.  Whether a
request failed is decided by the request's own lifetime timer in the
event loop, not by any entry.  Every delivery is scheduled after the
entry it meets was created, so an entry whose expiry equals the delivery
time counts as gone, just as a timer set at its creation would already
have removed it.  Most Interest copies of a flood go to a dead end, a
node whose only face is the one they came in on, and the event loop
delivers only those a leaf could act on (see ``balancedn.engine``).  No
Data can come back to an entry at a dead end, so ``on_interest``
returns None before it creates one, as NFD rejects an Interest with no
eligible upstream.

An Interest with a new nonce that meets a live entry joins it if the
entry was forwarded less than ``RETX_SUPPRESS_NS`` ago.  Later, it is a
retransmission, as in NFD's retransmission suppression: a fresh entry
takes over the old one's in-faces and nonces and the Interest is
forwarded again, so a repeated request is not absorbed by an entry off
the Data's path, which would see no Data until it expired.  At a dead
end the retransmission returns None and leaves the old entry as it is.

Each node also keeps a dead-nonce list: the (name, nonce) pairs it has
answered from its own content, and the nonces of every PIT entry that
Data consumed.  A copy of such an Interest that arrives later is dropped
as a duplicate for ``PIT_LIFETIME_NS``, so a producer answers each flood
once and a late copy cannot flood again after the Data has passed.
Dead entries expire lazily like PIT entries and are reclaimed
from the same FIFO, which holds an ``(expiry, node, (name, nonce))``
tuple for each.

"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Literal

from .core import ContentName, DataPacket, InterestPacket

LOCAL_FACE = 0

# PIT entries and dead nonces live 4 simulated seconds, then expire; late
# Data is dropped by the no-PIT rule.
PIT_LIFETIME_NS = 4_000_000_000
# An Interest with a new nonce joins a live entry forwarded less than this
# long ago; past it, the Interest is forwarded again (NFD's retransmission
# suppression, at its multicast strategy's initial 10 ms interval).
RETX_SUPPRESS_NS = 10_000_000


class UnknownFaceError(ValueError):
    """Raised when a packet arrives on a face the node does not have."""


class Verdict(Enum):
    """What ``on_interest`` tells the event loop besides drop or answer."""

    # forward the Interest on every neighbour's face but the one it came
    # in on, in ascending face order
    FLOOD = "flood"


FLOOD = Verdict.FLOOD

# the ``published`` set of every node that publishes nothing
NO_NAMES: frozenset[str] = frozenset()


@dataclass(slots=True, eq=False)
class PitEntry:
    """A pending name: an entry is current while ``pit[key] is entry``."""

    key: str
    pit: dict[str, PitEntry] = field(repr=False)
    in_faces: int  # bit f set for each face f the Interest came in on
    nonce: int
    expiry: int
    more_nonces: set[int] | None = None  # the nonces that joined after ``nonce``


class NdnNode:
    """One network node's forwarding engine.

    ``neighbors`` is its face table: face f > 0 leads to
    ``neighbors[f - 1]``, and face 0 (``LOCAL_FACE``) is local.
    """

    def __init__(self, node_id: int, neighbors: Iterable[int]) -> None:
        self.id = node_id
        self.neighbors = tuple(sorted(neighbors))
        self.pit: dict[str, PitEntry] = {}
        # the canonical names this node answers; a node that publishes none
        # shares NO_NAMES, and ``publish`` gives it its own set on first use
        self.published: set[str] | frozenset[str] = NO_NAMES
        # (canonical name, nonce) -> expiry of the pairs this node has answered
        # or whose PIT entry Data consumed
        self.dead_nonces: dict[tuple[str, int], int] = {}
        self.duplicates_suppressed = 0
        # every PIT entry, and (expiry, node, (name_key, nonce)) of every
        # dead nonce, in creation order; the event loop shares one FIFO
        # among all its nodes
        self.pit_reclaim: deque[PitEntry | tuple] = deque()

    # -- content origin -------------------------------------------------

    def publish(self, name: ContentName) -> None:
        """Answer Interests for ``name`` with its Data."""
        if self.published is NO_NAMES:
            self.published = set()
        self.published.add(name.canonical_text)

    # -- packet handling ---------------------------------------------------

    def on_interest(self, interest: InterestPacket, in_face: int,
                    now: int) -> DataPacket | Literal[Verdict.FLOOD] | None:
        """Decide what becomes of ``interest``, which came in on ``in_face``.

        Returns None when it goes no further (a duplicate, joined to a
        live entry forwarded less than ``RETX_SUPPRESS_NS`` ago, or at a
        dead end: a node with no face but ``in_face``), the Data that
        answers it on ``in_face``, or :data:`FLOOD` once it holds a new
        PIT entry, to forward it unchanged on every other neighbour's face.
        """
        degree = len(self.neighbors)
        if not 0 <= in_face <= degree:
            raise UnknownFaceError(f"node {self.id} has no face {in_face}")
        # runs once per delivery: the name's text from its slot rather
        # than through the property
        key = interest.name._text
        if self.dead_nonces and self.dead_nonces.get((key, interest.nonce), now) > now:
            self.duplicates_suppressed += 1
            return None

        if key in self.published:
            self._mark_dead((key, interest.nonce), now)
            return DataPacket(interest.name, (self.id,) if interest.trace else ())

        pit = self.pit
        entry = pit.get(key)
        in_faces = 1 << in_face
        nonces = None
        if entry is not None and entry.expiry > now:
            nonce = interest.nonce
            more = entry.more_nonces
            if nonce == entry.nonce or (more is not None and nonce in more):
                self.duplicates_suppressed += 1
                return None
            # an entry is created when its node forwards, so this is how
            # long ago the name was last forwarded here
            if now - (entry.expiry - PIT_LIFETIME_NS) < RETX_SUPPRESS_NS:
                entry.in_faces |= in_faces
                if more is None:
                    entry.more_nonces = {nonce}
                else:
                    more.add(nonce)
                return None
            # a retransmission: a fresh entry takes over the old one's
            # in-faces and nonces and is forwarded again
            in_faces |= entry.in_faces
            nonces = {entry.nonce}
            if more is not None:
                nonces |= more

        if degree == (in_face != LOCAL_FACE):
            return None  # a dead end: no Data can come back to an entry here
        entry = pit[key] = PitEntry(key, pit, in_faces, interest.nonce,
                                    now + PIT_LIFETIME_NS, nonces)
        self.pit_reclaim.append(entry)
        return FLOOD

    def on_data(self, data: DataPacket, in_face: int, now: int) -> list[int]:
        """Consume the PIT entry ``data`` satisfies; return the faces it goes on.

        The faces are the entry's in-faces other than ``in_face``, in
        ascending order, so the local face comes first when a local
        request is pending; the event loop sends ``data`` itself on each.
        Unsolicited or late Data goes nowhere: the list is empty.
        """
        if not 0 <= in_face <= len(self.neighbors):
            raise UnknownFaceError(f"node {self.id} has no face {in_face}")
        key = data.name._text
        entry = self.pit.get(key)
        if entry is None or entry.expiry <= now:
            return []  # unsolicited or late data is dropped
        del self.pit[key]
        self._mark_dead((key, entry.nonce), now)
        for nonce in entry.more_nonces or ():
            self._mark_dead((key, nonce), now)
        out = []
        faces = entry.in_faces & ~(1 << in_face)
        while faces:  # lowest face first
            low = faces & -faces
            out.append(low.bit_length() - 1)
            faces ^= low
        return out

    def expire_pit(self, key: str, now: int) -> PitEntry | None:
        """Drop and return the PIT entry of name ``key`` if it has expired."""
        entry = self.pit.get(key)
        if entry is not None and entry.expiry <= now:
            del self.pit[key]
            return entry
        return None

    def _mark_dead(self, pair: tuple[str, int], now: int) -> None:
        expiry = now + PIT_LIFETIME_NS
        self.dead_nonces[pair] = expiry
        self.pit_reclaim.append((expiry, self, pair))


def reclaim_expired(fifo: deque[PitEntry | tuple], now: int) -> None:
    """Delete the queued PIT entries and dead nonces whose lifetime ended by ``now``.

    Entries are queued as they are created and all live the same
    PIT_LIFETIME_NS, so the FIFO is ordered by expiry.  An entry that
    Data consumed or a newer entry replaced is no longer in its PIT, and
    a dead nonce marked again after its expiry is still live: both are
    skipped.
    """
    while fifo:
        item = fifo[0]
        if type(item) is PitEntry:
            if item.expiry > now:
                return
            fifo.popleft()
            if item.pit.get(item.key) is item:
                del item.pit[item.key]
        else:
            expiry, node, pair = item
            if expiry > now:
                return
            fifo.popleft()
            if node.dead_nonces.get(pair, now) <= now:
                node.dead_nonces.pop(pair, None)

"""Deterministic discrete-event core: clock, queue, links, packet delivery.

Simulation time is an integer nanosecond count so that link transit
times (delay plus serialization) stay exact and event order never
depends on float rounding.  An event is a plain tuple
``(kind, node, face, packet, hops)``.  The queue is one heap of
``(fire_at, seq, event)`` entries, where ``seq`` counts scheduling
calls, so events are totally ordered by (fire_at, scheduling order).
An event scheduled for the current time while events of that time run
(a link whose transit rounds to 0 ns) fires after them.
``Simulation.run_until`` pops one entry at a time straight off the heap
and dispatches it.

There are three event kinds: ``DELIVER_INTEREST``, ``DELIVER_DATA`` and
``PIT_EXPIRY``.  A request has no kind of its own: ``inject_request``
schedules its consumer's Interest as ``DELIVER_INTEREST`` on
``LOCAL_FACE``, the application's face, which ``NdnNode.on_interest``
already tells apart.  Only the ``--verbose`` log names it, as
``request_injection``; no other logged event arrives on face 0 (flood
copies and Data go to faces 1 and up, and timers are not logged).

``processed`` is the one event count.  ``run_until`` adds the events it
popped in a ``finally``, so an exception raised while an event is
dispatched spends that event, counts it, and loses no other: the rest
never left the heap, and a later ``run_until`` goes on from there.

A node's ``on_interest`` decides what becomes of an Interest: nothing,
an answer, or ``FLOOD`` on every face but the one it came in on.  The
flood plan is the only fan-out.  At wiring time the simulation reads
each node's ``neighbors`` once and builds its face rows (per face: its
neighbour, the face there, the Interest and Data transit times from
the topology's ``transit`` table and, if the neighbour is a leaf, its
node) and one plan per in-face: the rows of every other face in face
order, and those of them that are not leaves.  A flood schedules each
copy it delivers with its own ``EventQueue.schedule`` call, in face
order, so copies that share a fire time fire in face order after the
events already due then, whatever the link delays.

The event contract: a flood counts every Interest copy it sends, in
``interest_traversals`` (and so in ``bits_moved``) and, when traced,
``edge_interest_counts``, but a copy to a leaf (a node with one
neighbour) is an event only if the leaf publishes the name.  This is
exact.  The leaf's one face leads back to the node that sent the copy.
A leaf that does not publish the name can only drop the copy, as a
dead nonce or at a dead end (see ``balancedn.node``), or join its own
pending entry for the name.  That entry's Data can come in only on the
leaf's one face, which ``on_data`` masks out, so a join there sends no
Data anywhere new.  Skipping the copy changes no request and no flow
count, only ``processed``, the event log and leaf-level counters such
as ``duplicates_suppressed``; an OTEGlobe flood sends 428 Interest
copies and runs 83 events.  ``Simulation`` keeps, per node, the set of
names that its leaves publish, filled by ``publish``.  ``run_until``
carries out each flood step itself, in one loop over the plan, so a
step costs one call, ``on_interest``.  For an untraced packet at a node
whose set lacks the name the loop walks the plan's non-leaf rows and
reads no leaf; otherwise it walks every row and schedules a leaf's copy
only if the leaf publishes the name.  In a sweep only the producer's
router reads its leaves.
``publish`` is refused while events are queued, so the sets stay fixed
while a flood is in flight.

A flood sends one Interest object on every hop: the hop count travels
on the event, and it is the only hop count the engine reads, for a
request's ``path_hops`` and for the ``log``.  Only a traced packet
(``track_edges``) is copied per hop, to stamp its trace.

One engine instance is single-threaded; independent instances can run
in parallel with no shared state.  The per-instance random generator
is used only for Interest nonces, drawn once per injected request in
injection order, so identical seeds replay exactly.

Each injected request gets one ``PIT_EXPIRY`` event, its consumer's
lifetime timer, ``PIT_LIFETIME_NS`` after its injection: it fails the
request if it is still pending.  PIT entries themselves expire lazily
(see ``balancedn.node``) and are reclaimed from one FIFO whenever a
request is injected; the timer, as the last event of a drained flood,
is what moves the clock past the entries a flood left.  Per-hop traces
are recorded only when ``track_edges`` is set; the run loop's answered
branch gives a traced Interest's trace to its own consumer's request as
``interest_path``, if that request has none yet.

Every run is bounded.  The events since the queue was last empty are
``processed`` less its value when the heap last emptied, a mark set only
then.  Once they pass a budget derived from the topology's size and the
requests injected meanwhile, ``run_until`` raises
:class:`EventBudgetError` instead of running on, so a run stepped by
deadlines is bounded as one call is.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import IO, Optional, Sequence

from .core import ContentName, DataPacket, InterestPacket
from .node import FLOOD, LOCAL_FACE, PIT_LIFETIME_NS, NdnNode, reclaim_expired
from .topology import DEFAULT_PAYLOAD_BITS, INTEREST_BITS, Topology

# Event kinds.  An event is a plain tuple (kind, node, face, packet, hops):
# the packet delivered to ``node`` on ``face`` and the links it has crossed
# so far, or for PIT_EXPIRY the RequestState its timer was set for.
DELIVER_INTEREST = 0
DELIVER_DATA = 1
PIT_EXPIRY = 2

EVENT_KINDS = ("deliver_interest", "deliver_data", "pit_expiry")


# One face of a node: (neighbour, face at the neighbour, Interest transit ns,
# Data transit ns, the neighbour's NdnNode if it is a leaf (one neighbour)
# else None).  Both transit times are read from the topology's table.
FaceRow = tuple[int, int, int, int, Optional[NdnNode]]
# The plan of a flood that came in on one face: the rows of every other face
# in face order, and those of them that are not leaves.
FloodPlan = tuple[tuple[FaceRow, ...], tuple[FaceRow, ...]]


class SchedulingError(ValueError):
    """Raised when an event is scheduled before the current clock."""


class EventBudgetError(RuntimeError):
    """Raised when a run outgrows the events any drained flood can need."""


class EventQueue:
    """One heap of ``(fire_at, seq, event)`` entries.

    ``seq`` counts scheduling calls, so entries of one time come out in
    scheduling order and an event is never compared.  The clock ``now``
    is the fire time of the entry last popped; ``Simulation.run_until``
    pops the heap itself, and ``len`` counts the events not yet popped.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, tuple]] = []
        self._seq = itertools.count()
        self.now = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, fire_at: int, event: tuple) -> None:
        if fire_at < self.now:
            raise SchedulingError(
                f"cannot schedule at t={fire_at} ns; clock is {self.now} ns")
        heapq.heappush(self._heap, (fire_at, next(self._seq), event))


@dataclass(slots=True)
class FlowStats:
    """Link-crossing totals for one content name's flood.

    Every Interest and every Data packet has its kind's one size, so
    ``bits_moved`` follows from the traversals.
    """

    interest_traversals: int = 0
    data_traversals: int = 0

    @property
    def bits_moved(self) -> int:
        return (self.interest_traversals * INTEREST_BITS
                + self.data_traversals * DEFAULT_PAYLOAD_BITS)


@dataclass(slots=True)
class RequestState:
    """Bookkeeping for one injected request (one consumer, one name)."""

    name: ContentName
    consumer: int
    injected_at: int
    satisfied: bool = False
    failed: bool = False
    completed_at: int = 0
    path_hops: int = 0
    data_path: tuple[int, ...] = ()
    interest_path: tuple[int, ...] = ()  # trace of the Interest that got answered


class Simulation:
    """Event-driven run of NDN forwarding over one topology.

    Used for the flooding baseline: every node runs the flooding
    strategy, content lives on producer nodes, and injected requests
    are traced until the Data returns (or the request's lifetime
    ends).  ``track_edges`` also records each Interest's per-hop
    trace and its transmissions per directed edge.
    """

    def __init__(self, topology: Topology, *, seed: int = 42,
                 log: Optional[IO[str]] = None, track_edges: bool = False) -> None:
        self.topology = topology
        self.queue = EventQueue()
        self.rng = random.Random(seed)
        self.log = log
        self._reclaim: deque = deque()
        self.nodes: dict[int, NdnNode] = {}
        for nid in sorted(topology.nodes):
            node = NdnNode(nid, topology.adjacency[nid])
            node.pit_reclaim = self._reclaim
            self.nodes[nid] = node
        # node -> face -> its FaceRow (the local face has none), and node ->
        # in-face -> its FloodPlan.  Rows are shared, not copied, and a plan
        # with no leaf row shares its tuple too, so the tables add few
        # objects to set-up.
        self._face_table: dict[int, list[FaceRow | None]] = {}
        self._flood_targets: dict[int, list[FloodPlan]] = {}
        interest_ns = topology.transit[INTEREST_BITS]
        data_ns = topology.transit[DEFAULT_PAYLOAD_BITS]
        for nid, node in self.nodes.items():
            row: list[FaceRow | None] = [None]
            for nbr in node.neighbors:
                key = (nid, nbr) if nid < nbr else (nbr, nid)
                target = self.nodes[nbr]
                row.append((nbr, target.neighbors.index(nid) + 1,
                            interest_ns[key], data_ns[key],
                            target if len(target.neighbors) == 1 else None))
            self._face_table[nid] = row
            plans = []
            for in_face in range(len(row)):
                rows = tuple(row[1:in_face] + row[in_face + 1:])
                inner = tuple(r for r in rows if r[4] is None)
                plans.append((rows, rows if len(inner) == len(rows) else inner))
            self._flood_targets[nid] = plans
        # node -> the names its leaf neighbours publish, filled by publish
        self._leaf_names: dict[int, set[str]] = {nid: set() for nid in self.nodes}
        # A flood that drains costs each request at most its injection, its
        # one expiry event, 2|E| Interest deliveries (each node forwards a
        # nonce once; copies to inert leaves are sent but are no events) and
        # 4|E| Data deliveries (each PIT entry answers each in-face once,
        # each producer each neighbour once).  The |V| term covers the
        # expiry event with headroom to spare, and the budget allows twice
        # the sum.
        self._events_per_request = 2 * (1 + len(topology.nodes) + 6 * len(topology.links))
        # requests injected since the queue was last empty, and the value of
        # ``processed`` when it last emptied
        self._requests_since_drain = 0
        self._drained_at = 0
        # (name key, consumer) -> that consumer's latest request for the name
        self.requests: dict[tuple[str, int], RequestState] = {}
        self.flows: dict[str, FlowStats] = {}
        self.satisfied = 0
        self.failed = 0
        self.processed = 0
        self.track_edges = track_edges
        # (from, to, canonical name) -> interest transmissions, when tracking
        self.edge_interest_counts: dict[tuple[int, int, str], int] = {}

    # -- wiring ------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.queue.now

    @property
    def duplicates_suppressed(self) -> int:
        return sum(n.duplicates_suppressed for n in self.nodes.values())

    def publish(self, producer: int, name: ContentName) -> None:
        """Make ``producer`` answer Interests for ``name`` with its Data.

        This is the only way content enters a simulation: a flood sends a
        leaf its copy only if the leaf publishes the name, and it looks
        that up in the per-node index of the names its leaves publish,
        which is filled here, not by ``NdnNode.publish``.  Raises
        ``ValueError`` for an unknown producer and while any event is
        queued, so that the index never changes under a flood in flight.
        A rejected call stores nothing.
        """
        node = self.nodes.get(producer)
        if node is None:
            raise ValueError(f"no node {producer} to publish {name.canonical_text}")
        if len(self.queue):
            raise ValueError(f"cannot publish {name.canonical_text} while "
                             f"{len(self.queue)} event(s) are queued")
        node.publish(name)
        if len(node.neighbors) == 1:
            self._leaf_names[node.neighbors[0]].add(name.canonical_text)

    # -- scheduling --------------------------------------------------------

    def inject_request(self, consumer: int, name: ContentName, at: int) -> RequestState:
        """Schedule a consumer request; returns its live bookkeeping record.

        A consumer may repeat a name only once its earlier request for it
        has been satisfied or has failed; until then ``ValueError``.  An
        unknown consumer is a ``ValueError`` and an ``at`` before the
        clock a :class:`SchedulingError`.  A rejected call records
        nothing and draws no nonce.
        """
        if consumer not in self.nodes:
            raise ValueError(f"no node {consumer} to make a request")
        if at < self.queue.now:
            raise SchedulingError(
                f"cannot inject at t={at} ns; clock is {self.queue.now} ns")
        key = name.canonical_text
        earlier = self.requests.get((key, consumer))
        if earlier is not None and not earlier.satisfied and not earlier.failed:
            raise ValueError(f"consumer {consumer} already has a pending "
                             f"request for {key}")
        reclaim_expired(self._reclaim, self.queue.now)
        nonce = self.rng.getrandbits(64)
        trace = (consumer,) if self.track_edges else ()
        interest = InterestPacket(name, nonce, trace)
        state = RequestState(name, consumer, at)
        self.requests[key, consumer] = state
        self.flows.setdefault(key, FlowStats())
        self._requests_since_drain += 1
        self.queue.schedule(at, (DELIVER_INTEREST, consumer, LOCAL_FACE, interest, 0))
        self.queue.schedule(at + PIT_LIFETIME_NS, (PIT_EXPIRY, consumer, LOCAL_FACE, state, 0))
        return state

    # -- event loop ----------------------------------------------------------

    def run_until(self, deadline: int | None = None) -> int:
        """Process events in time order; returns how many were processed.

        Pops one event at a time off the queue's heap and stops when it is
        empty or the next event would fire past ``deadline`` (which is
        then left in the queue).  A ``FLOOD`` verdict is carried out here,
        in one loop over the plan of the Interest's in-face: each copy
        arrives one hop further, after its row's Interest transit, and
        every row counts as sent, but a copy to a leaf that does not
        publish the name is not scheduled.  The loop reads the leaf rows
        only at a node one of whose leaves publishes the name, or for a
        traced packet, which alone is copied per hop and counted per
        edge.

        Every popped event, one that raises included, is added to
        ``processed`` on the way out.  A call that leaves the heap empty
        sets the drain mark.  Raises EventBudgetError once the events
        processed since the queue was last empty, over any number of
        calls, outnumber what the requests injected meanwhile can cost on
        this topology, after running the events the budget allows; the
        rest stay queued.
        """
        queue = self.queue
        heap = queue._heap
        pop = heapq.heappop
        schedule = queue.schedule
        nodes = self.nodes
        flood_targets = self._flood_targets
        leaf_names = self._leaf_names
        flows = self.flows
        edge_counts = self.edge_interest_counts
        log = self.log
        budget = (max(self._requests_since_drain, 1) * self._events_per_request
                  - (self.processed - self._drained_at))
        processed = 0
        try:
            while heap and processed < budget:
                if deadline is not None and heap[0][0] > deadline:
                    break
                now, _, (kind, node_id, face, packet, hops) = pop(heap)
                queue.now = now
                processed += 1
                if log is not None and kind != PIT_EXPIRY:
                    log.write(f"{now} {EVENT_KINDS[kind] if face else 'request_injection'} "
                              f"{node_id} {packet.name.canonical_text} {hops}\n")
                if kind == DELIVER_INTEREST:
                    verdict = nodes[node_id].on_interest(packet, face, now)
                    if verdict is None:
                        continue
                    if verdict is FLOOD:
                        key = packet.name._text
                        trace = packet.trace
                        rows, inner = flood_targets[node_id][face]
                        hops += 1
                        for to_node, to_face, transit, _, leaf in (
                                rows if trace or key in leaf_names[node_id] else inner):
                            if trace:
                                edge = (node_id, to_node, key)
                                edge_counts[edge] = edge_counts.get(edge, 0) + 1
                            if leaf is None or key in leaf.published:
                                schedule(now + transit,
                                         (DELIVER_INTEREST, to_node, to_face,
                                          packet.delivered_to(to_node) if trace else packet,
                                          hops))
                        flows[key].interest_traversals += len(rows)
                    else:
                        # answered from published content: the Data starts at
                        # 0 hops; a traced answer is kept as its consumer's
                        # interest_path unless that request already has one
                        if packet.trace:
                            state = self.requests[packet.name._text, packet.trace[0]]
                            if not state.interest_path:
                                state.interest_path = packet.trace
                        self._send_data(node_id, verdict, (face,), now, 0)
                elif kind == DELIVER_DATA:
                    faces = nodes[node_id].on_data(packet, face, now)
                    if faces:
                        self._send_data(node_id, packet, faces, now, hops)
                elif kind == PIT_EXPIRY:
                    self._expire(node_id, packet, now)
                else:
                    raise ValueError(f"unknown event kind {kind!r}")
        finally:
            # an event that raised is spent and counted; every other one is
            # still queued
            self.processed += processed
        if not heap:
            self._drained_at = self.processed
            self._requests_since_drain = 0
        elif processed == budget and (deadline is None or heap[0][0] <= deadline):
            raise EventBudgetError(
                f"{self.processed - self._drained_at} events without draining for "
                f"{self._requests_since_drain} request(s), past the budget of "
                f"{self._events_per_request} per request; the flood does not "
                f"converge on this topology")
        return processed

    def _expire(self, node_id: int, state: RequestState, now: int) -> None:
        """Fail ``state`` if it is still pending when its lifetime ends.

        Only then is the consumer's entry for the name dropped, if it has
        lapsed too.
        """
        if state.satisfied or state.failed:
            return
        state.failed = True
        state.completed_at = now
        self.failed += 1
        self.nodes[node_id].expire_pit(state.name.canonical_text, now)

    def _send_data(self, node_id: int, data: DataPacket, faces: Sequence[int],
                   now: int, hops: int) -> None:
        """Send ``data`` from ``node_id`` on each of ``faces``.

        ``hops`` is the Data's hop count at this node; each copy arrives
        one hop further, after its face row's Data transit time.  Only a
        traced packet is copied per hop.
        """
        flow = self.flows[data.name._text]
        row = self._face_table[node_id]
        schedule = self.queue.schedule
        sent = 0
        for face in faces:
            if face == LOCAL_FACE:
                self._satisfy(node_id, data, now, hops)
                continue
            to_node, to_face, _, transit, _ = row[face]
            schedule(now + transit,
                     (DELIVER_DATA, to_node, to_face,
                      data.delivered_to(to_node) if data.trace else data, hops + 1))
            sent += 1
        flow.data_traversals += sent

    def _satisfy(self, node_id: int, data: DataPacket, now: int, hops: int) -> None:
        state = self.requests.get((data.name._text, node_id))
        if state is None or state.satisfied or state.failed:
            return
        state.satisfied = True
        state.completed_at = now
        state.path_hops = hops
        state.data_path = data.trace
        self.satisfied += 1

    # -- reporting -------------------------------------------------------

    def flow_stats(self, name: ContentName) -> FlowStats:
        return self.flows[name.canonical_text]

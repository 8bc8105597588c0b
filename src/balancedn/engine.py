"""Deterministic discrete-event core: clock, queue, links, packet delivery.

Simulation time is an integer nanosecond count so that link transit
times (delay plus serialization) stay exact and event order never
depends on float rounding.  Events are totally ordered by
(fire_at, sequence); the sequence number is assigned at scheduling
time, so simultaneous events dequeue in scheduling order.

One engine instance is single-threaded; independent instances can run
in parallel with no shared state.  The per-instance random generator
is used only for Interest nonces, drawn once per injected request in
injection order, so identical seeds replay exactly.

Only PIT entries that hold a consumer's local face get an expiry event;
the rest expire lazily (see ``balancedn.node``) and are reclaimed from
one FIFO whenever a request is injected.  Per-hop traces are recorded
only when ``track_edges`` is set.  Every run is bounded: once the events
since the queue was last empty pass a budget derived from the topology's
size and the requests injected meanwhile, ``run_until`` raises
:class:`EventBudgetError` instead of running on.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from typing import IO, Optional

from .core import ContentName, DataPacket, InterestPacket
from .node import LOCAL_FACE, NdnNode, reclaim_expired
from .topology import LinkDescriptor, Topology

NS_PER_US = 1_000
NS_PER_MS = 1_000_000

# Interest packets are small and fixed-size; Data carries its payload.
INTEREST_BITS = 320
DEFAULT_PAYLOAD_BITS = 1024

DELIVER_INTEREST = "deliver_interest"
DELIVER_DATA = "deliver_data"
PIT_EXPIRY = "pit_expiry"
REQUEST_INJECTION = "request_injection"

EVENT_KINDS = (DELIVER_INTEREST, DELIVER_DATA, PIT_EXPIRY, REQUEST_INJECTION)


class SchedulingError(ValueError):
    """Raised when an event is scheduled before the current clock."""


class EventBudgetError(RuntimeError):
    """Raised when a run outgrows the events any drained flood can need."""


def link_transit_ns(link: LinkDescriptor, bits: int) -> int:
    """Nanoseconds to push ``bits`` across ``link``: delay + serialization."""
    delay = round(link.delay_ms * NS_PER_MS)
    serialization = round(bits * NS_PER_US / link.bandwidth_mbps)
    return delay + serialization


@dataclass(slots=True)
class Event:
    fire_at: int
    sequence: int
    kind: str
    node: int
    face: int = LOCAL_FACE
    packet: InterestPacket | DataPacket | None = None
    payload: object = None


class EventQueue:
    """Priority queue over (fire_at, sequence); tracks the current clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._next_seq = 0
        self.now = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, event: Event) -> None:
        if event.fire_at < self.now:
            raise SchedulingError(
                f"cannot schedule at t={event.fire_at} ns; clock is {self.now} ns")
        event.sequence = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (event.fire_at, event.sequence, event))

    def peek_time(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Event:
        _, _, event = heapq.heappop(self._heap)
        self.now = event.fire_at
        return event


@dataclass(slots=True)
class FlowStats:
    """Link-crossing totals for one content name's flood."""

    interest_traversals: int = 0
    data_traversals: int = 0
    bits_moved: int = 0


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
    are traced until the Data returns (or the consumer's PIT entry
    expires).  ``track_edges`` also records each Interest's per-hop
    trace and its transmissions per directed edge.
    """

    def __init__(self, topology: Topology, *, cs_capacity: int = 0, seed: int = 42,
                 log: Optional[IO[str]] = None, track_edges: bool = False) -> None:
        self.topology = topology
        self.queue = EventQueue()
        self.rng = random.Random(seed)
        self.log = log
        self._reclaim: deque = deque()
        self.nodes: dict[int, NdnNode] = {}
        for nid in sorted(topology.nodes):
            node = NdnNode(nid, topology.adjacency[nid], cs_capacity=cs_capacity)
            node.pit_expiry_hook = self._make_expiry_hook(nid)
            node.pit_reclaim = self._reclaim
            self.nodes[nid] = node
        # node -> face -> (neighbour, face at the neighbour, Interest transit
        # ns, link); the local face has no entry
        self._face_table: dict[int, list[tuple[int, int, int, LinkDescriptor] | None]] = {}
        for nid, node in self.nodes.items():
            row: list[tuple[int, int, int, LinkDescriptor] | None] = [None]
            for face in range(1, len(node.faces)):
                nbr = node.faces[face]
                link = topology.link_between(nid, nbr)
                row.append((nbr, self.nodes[nbr].face_of[nid],
                            link_transit_ns(link, INTEREST_BITS), link))
            self._face_table[nid] = row
        # A flood that drains costs each request at most its injection, one
        # expiry per node, 2|E| Interest deliveries (each node forwards a
        # name once) and 4|E| Data deliveries (each PIT entry answers each
        # in-face once, each producer each neighbour once).  The budget
        # allows twice that.
        self._events_per_request = 2 * (1 + len(topology.nodes) + 6 * len(topology.links))
        self._requests_since_drain = 0
        self._events_since_drain = 0
        self.requests: dict[str, dict[int, RequestState]] = {}
        # ended requests that a later request of the same consumer and name replaced
        self._replaced_requests: list[RequestState] = []
        self.flows: dict[str, FlowStats] = {}
        self.injections = 0
        self.satisfied = 0
        self.failed = 0
        self.processed = 0
        self.track_edges = track_edges
        # (from, to, canonical name) -> interest transmissions, when tracking
        self.edge_interest_counts: dict[tuple[int, int, str], int] = {}

    # -- wiring ------------------------------------------------------------

    def _make_expiry_hook(self, node_id: int):
        def hook(key: str, token: int, expiry: int) -> None:
            self.queue.schedule(Event(expiry, 0, PIT_EXPIRY, node_id,
                                      payload=(key, token)))
        return hook

    @property
    def now(self) -> int:
        return self.queue.now

    @property
    def duplicates_suppressed(self) -> int:
        return sum(n.duplicates_suppressed for n in self.nodes.values())

    def publish(self, producer: int, name: ContentName,
                payload_bits: int = DEFAULT_PAYLOAD_BITS) -> None:
        self.nodes[producer].publish(name, payload_bits)

    # -- scheduling --------------------------------------------------------

    def inject_request(self, consumer: int, name: ContentName, at: int) -> RequestState:
        """Schedule a consumer request; returns its live bookkeeping record.

        A consumer may repeat a name only once its earlier request for it
        has been satisfied or has failed; until then ``ValueError``.
        """
        key = name.canonical_text
        by_consumer = self.requests.setdefault(key, {})
        earlier = by_consumer.get(consumer)
        if earlier is not None:
            if not earlier.satisfied and not earlier.failed:
                raise ValueError(f"consumer {consumer} already has a pending "
                                 f"request for {key}")
            self._replaced_requests.append(earlier)
        reclaim_expired(self._reclaim, self.queue.now)
        nonce = self.rng.getrandbits(64)
        trace = (consumer,) if self.track_edges else ()
        interest = InterestPacket(name, nonce, 0, trace)
        state = RequestState(name, consumer, at)
        by_consumer[consumer] = state
        self.flows.setdefault(key, FlowStats())
        self.injections += 1
        self._requests_since_drain += 1
        self.queue.schedule(Event(at, 0, REQUEST_INJECTION, consumer,
                                  face=LOCAL_FACE, packet=interest))
        return state

    def _send(self, from_node: int, face: int, packet: InterestPacket | DataPacket,
              now: int) -> Event:
        to_node, to_face, interest_ns, link = self._face_table[from_node][face]
        flow = self.flows.get(packet.name.canonical_text)
        if type(packet) is DataPacket:
            bits = packet.payload_size
            event = Event(now + link_transit_ns(link, bits), 0, DELIVER_DATA, to_node,
                          to_face, packet.delivered_to(to_node))
            if flow is not None:
                flow.data_traversals += 1
        else:
            bits = INTEREST_BITS
            event = Event(now + interest_ns, 0, DELIVER_INTEREST, to_node,
                          to_face, packet.delivered_to(to_node))
            if flow is not None:
                flow.interest_traversals += 1
            if self.track_edges:
                edge = (from_node, to_node, packet.name.canonical_text)
                self.edge_interest_counts[edge] = self.edge_interest_counts.get(edge, 0) + 1
        if flow is not None:
            flow.bits_moved += bits
        self.queue.schedule(event)
        return event

    # -- event loop ----------------------------------------------------------

    def run_until(self, deadline: int | None = None) -> int:
        """Process events in total order; returns how many were processed.

        Stops when the queue is empty or the next event would fire past
        ``deadline`` (which is then left in the queue).  Raises
        EventBudgetError once the events processed since the queue was
        last empty outnumber what the requests injected meanwhile can
        cost on this topology.
        """
        queue = self.queue
        budget = (max(self._requests_since_drain, 1) * self._events_per_request
                  - self._events_since_drain)
        processed = 0
        while len(queue):
            if deadline is not None and queue.peek_time() > deadline:
                break
            if processed == budget:
                self.processed += processed
                self._events_since_drain += processed
                raise EventBudgetError(
                    f"{self._events_since_drain} events without draining for "
                    f"{self._requests_since_drain} request(s), past the budget of "
                    f"{self._events_per_request} per request; the flood does not "
                    f"converge on this topology")
            self._dispatch(queue.pop())
            processed += 1
        self.processed += processed
        if len(queue):
            self._events_since_drain += processed
        else:
            self._events_since_drain = 0
            self._requests_since_drain = 0
        return processed

    def _dispatch(self, event: Event) -> None:
        kind = event.kind
        now = event.fire_at
        if kind == DELIVER_INTEREST or kind == REQUEST_INJECTION:
            node = self.nodes[event.node]
            if self.log is not None:
                self._log(event)
            emissions = node.on_interest(event.packet, event.face, now)
            if event.packet.trace and emissions and type(emissions[0][1]) is DataPacket:
                self._record_answered(event.packet)
            self._emit(node, emissions, now)
        elif kind == DELIVER_DATA:
            node = self.nodes[event.node]
            if self.log is not None:
                self._log(event)
            self._emit(node, node.on_data(event.packet, event.face, now), now)
        elif kind == PIT_EXPIRY:
            key, token = event.payload
            entry = self.nodes[event.node].expire_pit(key, token, now)
            if entry is not None and LOCAL_FACE in entry.in_faces:
                state = self.requests.get(key, {}).get(event.node)
                if state is not None and not state.satisfied and not state.failed:
                    state.failed = True
                    state.completed_at = now
                    self.failed += 1
        else:
            raise ValueError(f"unknown event kind {kind!r}")

    def _record_answered(self, interest: InterestPacket) -> None:
        """Keep the trace of the first answered Interest of its own consumer."""
        states = self.requests.get(interest.name.canonical_text, {})
        state = states.get(interest.trace[0])
        if state is not None and not state.interest_path:
            state.interest_path = interest.trace

    def _emit(self, node: NdnNode,
              emissions: list[tuple[int, InterestPacket | DataPacket]], now: int) -> None:
        for face, packet in emissions:
            if face == LOCAL_FACE:
                if type(packet) is DataPacket:
                    self._satisfy(node.id, packet, now)
                continue
            self._send(node.id, face, packet, now)

    def _satisfy(self, node_id: int, data: DataPacket, now: int) -> None:
        state = self.requests.get(data.name.canonical_text, {}).get(node_id)
        if state is None or state.satisfied or state.failed:
            return
        state.satisfied = True
        state.completed_at = now
        state.path_hops = data.hop_count
        state.data_path = data.trace
        self.satisfied += 1

    def _log(self, event: Event) -> None:
        packet = event.packet
        name = packet.name.canonical_text if packet is not None else "-"
        hops = packet.hop_count if packet is not None else 0
        self.log.write(f"{event.fire_at} {event.kind} {event.node} {name} {hops}\n")

    # -- reporting -------------------------------------------------------

    def flow_stats(self, name: ContentName) -> FlowStats:
        return self.flows[name.canonical_text]

    def conservation_holds(self) -> bool:
        """Every injected request ended exactly one of satisfied or failed."""
        states = [state for by_consumer in self.requests.values()
                  for state in by_consumer.values()]
        states += self._replaced_requests
        return (len(states) == self.injections
                and all(state.satisfied != state.failed for state in states))

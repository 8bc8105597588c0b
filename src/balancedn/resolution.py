"""Hash-sharded resolver hierarchy: registration, lookup, and fetch flow.

Every resolver-role node hosts one cluster site holding N shard tables
(shard index = crc16(name) mod N).  A producer registers each name at
its nearest site's shard and in the one nameserver zone, hosted at the
lowest-id nameserver node.  A consumer's request walks the numbered
stages from its nearest site, the ingress, whose shard for the name's
hash answers locally:

    consumer -> ingress site
      shard record hit:  skip straight to the fetch (shortcut)
      shard record miss: ingress -> TLD -> nameserver
    ingress -> producer (fetch), then Data returns producer -> ingress
    -> consumer, and the locator record is cached at the ingress on the
    way back so the next lookup for that name short-circuits.

A locator record is the producer id itself: the nameserver zone and
the shard tables map canonical name text to an int, so a registered
corpus holds no object per name for the garbage collector to track.

Stage traversal counts are shortest-path hop distances; latency sums
per-link transit times from the topology's ``transit`` table, the one
the event engine's face rows read, so the two schemes' accounting is
directly comparable.  An outcome stores only its producer, its stages'
hop counts and its latency.  Every other count follows from the
stages: each reply crosses as many links as the Interest it answers,
because BFS hop distances on an undirected graph are the same both
ways, so the record reply crosses the two TLD stages' hops again and
the Data the fetch's plus the consumer's.  Only the transit times of
the two directions can differ, when the shortest path back takes
links of other delays.

Each leg's cost depends on one key alone: the consumer's trip to its
ingress on the consumer, the TLD trips on the ingress, and the fetch on
the (ingress, producer) pair.  ``Deployment`` memoizes the legs by those
int keys, step tuples ready-made, so a request builds only its own
``steps`` list and its data_return step.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Sequence

from .core import CRC_CHUNK, ContentName, crc16, crc16_many
from .node import PIT_LIFETIME_NS
from .topology import DEFAULT_PAYLOAD_BITS, INTEREST_BITS, LOCATOR_REPLY_BITS, Topology

STAGE_CONSUMER_TO_CLUSTER = "consumer_to_cluster"
STAGE_RESOLVER_TO_TLD = "resolver_to_tld"
STAGE_TLD_TO_NAMESERVER = "tld_to_nameserver"
STAGE_FETCH = "fetch"
STAGE_DATA_RETURN = "data_return"

STAGE_ORDER = (
    STAGE_CONSUMER_TO_CLUSTER,
    STAGE_RESOLVER_TO_TLD,
    STAGE_TLD_TO_NAMESERVER,
    STAGE_FETCH,
    STAGE_DATA_RETURN,
)


class ConfigurationError(ValueError):
    """Deployment or registration prerequisites are not met."""


class RegistrationConflictError(ValueError):
    """A name is already registered to a different producer."""


@dataclass(slots=True)
class ResolverShard:
    """One shard table: authoritative records plus an LRU record cache.

    A record is the producer id a canonical name resolves to.  Producer
    0 is a valid id, so a miss is None, never a false value.
    """

    index: int
    cache_capacity: int = 10_000
    authoritative: dict[str, int] = field(default_factory=dict)
    cache: OrderedDict[str, int] = field(default_factory=OrderedDict)

    def __post_init__(self) -> None:
        if self.cache_capacity < 0:
            raise ValueError("cache capacity must be non-negative")

    def lookup(self, key: str) -> int | None:
        """Exact-name match, authoritative before cached; hits refresh recency."""
        record = self.authoritative.get(key)
        if record is not None:
            return record
        record = self.cache.get(key)
        if record is not None:
            self.cache.move_to_end(key)
        return record

    def store_cached(self, key: str, producer: int) -> None:
        """Cache a record unless it is authoritative here; a cached key turns most recent."""
        if key in self.authoritative:
            return
        self.cache.pop(key, None)
        self.cache_new(key, producer)

    def cache_new(self, key: str, producer: int) -> None:
        """Cache a record for a key in neither table, as the most recent entry.

        The least recent entry is evicted once the cache is over capacity.
        """
        cache = self.cache
        cache[key] = producer
        if len(cache) > self.cache_capacity:
            cache.popitem(last=False)


@dataclass(slots=True)
class ClusterSite:
    """All N shards hosted at one resolver-role node."""

    node: int
    shards: list[ResolverShard]


# route memo entries; a step is (stage, link traversals)
_Step = tuple[str, int]
# (fetch step, its hops, Interest ns out plus Data ns back)
_FetchLeg = tuple[_Step, int, int]
# (ingress site, consumer_to_cluster step, its hops, Interest ns to the
# ingress, Data ns back, the ingress's fetch memo)
_ConsumerLeg = tuple[ClusterSite, _Step, int, int, int, dict[int, _FetchLeg]]

_TLD_STAGES = (STAGE_RESOLVER_TO_TLD, STAGE_TLD_TO_NAMESERVER)
_REPLY_STAGES = (*_TLD_STAGES, STAGE_DATA_RETURN)

# bits a hop of each stage moves: its Interest, plus on a TLD stage the
# record reply that retraces it; the Data return carries the content
_HOP_BITS = {
    STAGE_CONSUMER_TO_CLUSTER: INTEREST_BITS,
    STAGE_RESOLVER_TO_TLD: INTEREST_BITS + LOCATOR_REPLY_BITS,
    STAGE_TLD_TO_NAMESERVER: INTEREST_BITS + LOCATOR_REPLY_BITS,
    STAGE_FETCH: INTEREST_BITS,
    STAGE_DATA_RETURN: DEFAULT_PAYLOAD_BITS,
}
# what one hop of each stage adds to (Interest traversals, Data
# traversals, bits moved), for ResolutionOutcome.traffic
_HOP_TRAFFIC = {
    stage: (int(stage != STAGE_DATA_RETURN), int(stage in _REPLY_STAGES), bits)
    for stage, bits in _HOP_BITS.items()
}


@dataclass(slots=True)
class ResolutionOutcome:
    """Result of one resolve-and-fetch, stage by stage.

    ``steps`` lists (stage, link traversals) in flow order and is the
    one record of the request's hops; every count below follows from
    it.  The list is the outcome's own; its step tuples may be shared
    with other outcomes through the route memo.  The two TLD stages are
    present exactly when the shortcut was not taken.  Interest
    traversals sum every stage but the Data return.  Data traversals
    are the nameserver's record reply, which retraces the two TLD
    stages, plus the content's return path: hop distances are
    symmetric, so a reply crosses as many links as the Interest it
    answers.  Bits moved price each Interest hop at INTEREST_BITS, each
    record-reply hop at LOCATOR_REPLY_BITS and each return hop at
    DEFAULT_PAYLOAD_BITS.  The properties are the definitions;
    ``traffic`` gives the last three in one pass.
    """

    producer: int | None
    steps: list[tuple[str, int]]
    latency_ns: int

    @property
    def satisfied(self) -> bool:
        """Answered within the Interest lifetime, the engine's rule for a flood."""
        return self.producer is not None and self.latency_ns < PIT_LIFETIME_NS

    @property
    def shortcut_taken(self) -> bool:
        return not any(stage in _TLD_STAGES for stage, _ in self.steps)

    @property
    def interest_traversals(self) -> int:
        return sum([hops for stage, hops in self.steps if stage != STAGE_DATA_RETURN])

    @property
    def data_traversals(self) -> int:
        return sum([hops for stage, hops in self.steps if stage in _REPLY_STAGES])

    @property
    def bits_moved(self) -> int:
        return sum([hops * _HOP_BITS[stage] for stage, hops in self.steps])

    def traffic(self) -> tuple[int, int, int]:
        """(interest_traversals, data_traversals, bits_moved) in one pass over ``steps``."""
        interest = data = bits = 0
        for stage, hops in self.steps:
            interest_hop, data_hop, hop_bits = _HOP_TRAFFIC[stage]
            interest += interest_hop * hops
            data += data_hop * hops
            bits += hop_bits * hops
        return interest, data, bits


class Deployment:
    """Resolver sites plus the TLD and nameserver over one topology.

    Every record goes to one nameserver zone, at the lowest-id
    nameserver node; a further nameserver node holds nothing.  Each
    shard's record cache has ``ResolverShard``'s default capacity.

    Lookups read their costs from three route memos, each keyed by the
    one node its legs depend on and filled as requests first need them:

    - ``_consumer_legs[consumer]``: the consumer's ingress site, its
      ready-made consumer_to_cluster step, that step's hops, the
      Interest's transit ns to the ingress, the Data's transit ns back,
      and the ingress's fetch memo;
    - ``_tld_legs[ingress]``: the two ready-made TLD steps and the
      summed ns of the round trips ingress <-> TLD and TLD <->
      nameserver, the second walked once per deployment;
    - ``_fetch_legs[ingress][producer]``: the ready-made fetch step,
      its hops and the summed ns of the Interest out and the Data back.

    A leg's transit times come from the topology's ``transit`` table,
    built once per topology: packet bits -> link key -> transit ns, for
    the three packet sizes a leg carries.  The engine's face rows read
    the same table.
    """

    def __init__(self, topology: Topology, resolver_count: int = 8) -> None:
        if resolver_count < 1:
            raise ConfigurationError("resolver_count must be at least 1")
        resolver_nodes = topology.nodes_with_role("resolver")
        if not resolver_nodes:
            raise ConfigurationError("topology has no resolver nodes")
        tld_nodes = topology.nodes_with_role("tld")
        if not tld_nodes:
            raise ConfigurationError("topology has no tld node")
        ns_nodes = topology.nodes_with_role("nameserver")
        if not ns_nodes:
            raise ConfigurationError("topology has no nameserver node")

        self.topology = topology
        self.resolver_count = resolver_count
        self.paths = topology.paths
        self.sites: dict[int, ClusterSite] = {
            nid: ClusterSite(nid, [
                ResolverShard(i) for i in range(resolver_count)
            ])
            for nid in resolver_nodes
        }
        self.tld_node = tld_nodes[0]
        self.nameserver_node = ns_nodes[0]
        self.zone: dict[str, int] = {}  # canonical name -> producer
        self._consumer_legs: dict[int, _ConsumerLeg] = {}
        self._tld_legs: dict[int, tuple[_Step, _Step, int]] = {}
        self._fetch_legs: dict[int, dict[int, _FetchLeg]] = {}
        # (hops, round-trip ns) of TLD <-> nameserver, once walked
        self._nameserver_trip: tuple[int, int] | None = None

    # -- placement ---------------------------------------------------------

    def nearest_site(self, node_id: int) -> ClusterSite:
        """The resolver site nearest ``node_id``, the lower id on a tie."""
        if node_id not in self.topology.nodes:
            raise ConfigurationError(f"unknown node {node_id}")
        return self.sites[self.paths.nearest(node_id, self.sites)]

    # -- registration ------------------------------------------------------

    def register_bulk(self, pairs: Iterable[tuple[str, int]]) -> int:
        """Register (canonical name, producer) pairs; returns link traversals.

        A new name gets one locator record, in the nameserver zone and
        in shard crc16(name) mod N of the producer's nearest site, and
        costs the producer's hops to that site plus its hops to the
        nameserver.  A pair already registered to the same
        producer is skipped and costs nothing; a different producer for
        a known name raises RegistrationConflictError.  Pairs are taken
        CRC_CHUNK at a time and each chunk's names are hashed with
        one crc16_many call; the rules still apply pair by pair, in
        input order, so the pairs before a failing one stay registered.
        """
        n = self.resolver_count
        ns_node = self.nameserver_node
        zone = self.zone
        # producer -> (nearest site's shards, hops)
        placement: dict[int, tuple[list[ResolverShard], int]] = {}
        total = 0
        pairs = iter(pairs)
        while chunk := list(islice(pairs, CRC_CHUNK)):
            crcs = crc16_many([key.encode() for key, _ in chunk])
            for (key, producer), crc in zip(chunk, crcs):
                existing = zone.get(key)
                if existing is not None:
                    if existing != producer:
                        raise RegistrationConflictError(
                            f"{key} is already registered to producer {existing}")
                    continue
                place = placement.get(producer)
                if place is None:
                    node = self.topology.nodes.get(producer)
                    if node is None or node.role != "producer":
                        raise ConfigurationError(f"node {producer} is not a producer")
                    site = self.nearest_site(producer)
                    place = placement[producer] = (
                        site.shards, self.paths.distance(producer, site.node)
                        + self.paths.distance(producer, ns_node))
                shards, hops = place
                zone[key] = producer
                shards[crc % n].authoritative[key] = producer
                total += hops
        return total

    # -- resolution ----------------------------------------------------------

    def resolve_and_fetch(self, consumer: int, name: ContentName) -> ResolutionOutcome:
        """Run the full numbered flow for one request; see module docstring.

        The request reads at most three route memo entries: its
        consumer's, its ingress's TLD legs on a shard miss, and its
        ingress's fetch of the producer.  Only the ``steps`` list and
        its data_return step are built anew.  A failed lookup stops at
        the ingress, so it counts only the outbound half of the
        consumer's trip.  A name from ``parse_names`` carries its CRC; one
        from ``parse_name`` is hashed here, on its first request.
        """
        site, step, consumer_hops, latency, return_ns, fetches = (
            self._consumer_legs.get(consumer) or self._consumer_leg(consumer))
        key = name._text
        crc = name._crc
        shard = site.shards[(crc if crc >= 0 else name.crc) % self.resolver_count]

        producer = shard.lookup(key)
        if producer is not None:
            fetch_step, hops, fetch_ns = (
                fetches.get(producer) or self._fetch_leg(site.node, producer))
            return ResolutionOutcome(
                producer, [step, fetch_step, (STAGE_DATA_RETURN, consumer_hops + hops)],
                latency + fetch_ns + return_ns)
        tld_step, nameserver_step, tld_ns = (
            self._tld_legs.get(site.node) or self._tld_leg(site.node))
        producer = self.zone.get(key)
        if producer is None:
            return ResolutionOutcome(None, [step, tld_step, nameserver_step], latency + tld_ns)
        # the key missed both of the shard's tables; the record reply
        # caches the locator at the consumer-side site
        shard.cache_new(key, producer)
        fetch_step, hops, fetch_ns = (
            fetches.get(producer) or self._fetch_leg(site.node, producer))
        return ResolutionOutcome(
            producer, [step, tld_step, nameserver_step, fetch_step,
                       (STAGE_DATA_RETURN, consumer_hops + hops)],
            latency + tld_ns + fetch_ns + return_ns)

    def _consumer_leg(self, consumer: int) -> _ConsumerLeg:
        """Fill and return the consumer's memo entry.

        The back half of its trip, ingress -> consumer, is the Data's
        last leg and counts only once the fetch is made.
        """
        site = self.nearest_site(consumer)
        hops, out_ns, back_ns = self._trip(consumer, site.node, DEFAULT_PAYLOAD_BITS)
        leg = self._consumer_legs[consumer] = (
            site, (STAGE_CONSUMER_TO_CLUSTER, hops), hops, out_ns, back_ns,
            self._fetch_legs.setdefault(site.node, {}))
        return leg

    def _tld_leg(self, ingress: int) -> tuple[_Step, _Step, int]:
        """Fill and return the ingress's TLD memo entry.

        The record reply retraces nameserver -> TLD -> ingress, the back
        halves of the two round trips.
        """
        if self._nameserver_trip is None:
            hops, out_ns, back_ns = self._trip(
                self.tld_node, self.nameserver_node, LOCATOR_REPLY_BITS)
            self._nameserver_trip = hops, out_ns + back_ns
        nameserver_hops, nameserver_ns = self._nameserver_trip
        hops, out_ns, back_ns = self._trip(ingress, self.tld_node, LOCATOR_REPLY_BITS)
        leg = self._tld_legs[ingress] = (
            (STAGE_RESOLVER_TO_TLD, hops), (STAGE_TLD_TO_NAMESERVER, nameserver_hops),
            out_ns + back_ns + nameserver_ns)
        return leg

    def _fetch_leg(self, ingress: int, producer: int) -> _FetchLeg:
        """Fill and return the ingress's memo entry for fetching from ``producer``."""
        hops, out_ns, back_ns = self._trip(ingress, producer, DEFAULT_PAYLOAD_BITS)
        leg = self._fetch_legs[ingress][producer] = (
            (STAGE_FETCH, hops), hops, out_ns + back_ns)
        return leg

    def _trip(self, a: int, b: int, reply_bits: int) -> tuple[int, int, int]:
        """Hops, out transit ns and back transit ns of the round trip a -> b -> a.

        The trip is an Interest a -> b and a reply of ``reply_bits``
        b -> a.  Each direction is walked on its own: the shortest path
        b -> a need not retrace a -> b, and with unequal link delays its
        transit time then differs.  Its hop count cannot differ, because
        BFS distances on an undirected graph are symmetric, so one count
        serves both halves.
        """
        hops, out_ns = self._leg(a, b, INTEREST_BITS)
        return hops, out_ns, self._leg(b, a, reply_bits)[1]

    def _leg(self, src: int, dst: int, bits: int) -> tuple[int, int]:
        """Hop count and summed transit time of the shortest path src -> dst.

        Walks the path and sums each link's transit time from the
        topology's ``transit`` table, the engine's own.
        """
        if src == dst:
            return 0, 0
        path = self.paths.path(src, dst)
        transit = self.topology.transit[bits]
        ns = 0
        for a, b in zip(path, path[1:]):
            ns += transit[(a, b) if a < b else (b, a)]
        return len(path) - 1, ns


def interleaved_timing_probe(probe_sets: Sequence[tuple[ResolverShard, Sequence[ContentName]]],
                             repetitions: int) -> dict[int, float]:
    """Per-shard typical lookup milliseconds, probed round-robin.

    Each repetition pass times every shard once before the next pass
    starts, so ambient load hits all shards alike and their ratio stays
    meaningful.  Each repetition times the shard's probe names on the
    thread's CPU clock and yields a per-lookup mean; per-shard results
    are medians of the repetition means.  The CPU clock still counts the
    cache misses that make a larger table slower, but not the time the
    thread waits for the processor.  One untimed warmup pass runs first
    and the garbage collector is paused while timing, so the result
    tracks table size rather than allocator pauses or scheduler stalls
    landing inside a single timing window.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    prepared = []
    for shard, names in probe_sets:
        if not names:
            raise ValueError("probe_names must not be empty")
        keys = [n.canonical_text for n in names]
        for key in keys:
            shard.lookup(key)
        prepared.append((shard, keys))
    reps: dict[int, list[float]] = {shard.index: [] for shard, _ in prepared}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repetitions):
            for shard, keys in prepared:
                lookup = shard.lookup
                start = time.thread_time()
                for key in keys:
                    lookup(key)
                elapsed = time.thread_time() - start
                reps[shard.index].append(elapsed * 1000.0 / len(keys))
    finally:
        if gc_was_enabled:
            gc.enable()
    return {index: statistics.median(values) for index, values in reps.items()}


_SUFFIX_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def build_skewed_shards(loads: dict[int, int], resolver_count: int) -> list[ResolverShard]:
    """Shard tables sized per the load map, for lookup-timing experiments.

    Every name is a base ``/cat{i % 16}/obj{i:05d}`` plus a two-character
    suffix, and lands in shard crc16(name) mod N like any registered
    name.  Bases are taken for i = 0, 1, 2, ... and each base tries the
    36 x 36 suffixes in a fixed order, keeping a name while its shard
    still needs names.  CRC-16/ARC with init 0 and xorout 0 is linear,
    so ``crc16(base + s) == crc16(base + b"\\0\\0") ^ crc16(s)``: one
    crc16 per base and the 1,296 suffix CRCs place every name.  The
    bases' ``crc16(base + b"\\0\\0")`` reach every 16-bit value within
    the first 474,608 bases, and XOR with a suffix CRC is a bijection,
    so any shard index below 65,536 fills; one above it cannot.

    Light shards fill from the first bases and a heavy one goes on to
    later ones; the fixed-width index keeps their names the same
    length, so the tables differ in size alone.
    """
    unreachable = [i for i, count in loads.items()
                   if count > 0 and 1 << 16 <= i < resolver_count]
    if unreachable:
        raise ValueError(f"no CRC-16 value lands in shard {unreachable[0]}; "
                         "shard indices above 65535 cannot hold names")
    n = resolver_count
    need = [max(loads.get(i, 0), 0) for i in range(n)]
    remaining = sum(need)
    finishers = [(a + b, crc16((a + b).encode()))
                 for a in _SUFFIX_ALPHABET for b in _SUFFIX_ALPHABET]
    shards = [ResolverShard(i, cache_capacity=0) for i in range(n)]
    tables = [shard.authoritative for shard in shards]
    i = 0
    while remaining:
        base = f"/cat{i % 16}/obj{i:05d}"
        z = crc16(base.encode() + b"\0\0")
        for suffix, crc in finishers:
            index = (z ^ crc) % n
            if need[index]:
                tables[index][base + suffix] = 0
                need[index] -= 1
                remaining -= 1
        i += 1
    return shards

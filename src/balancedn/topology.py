"""Topology loading, validation, and shortest-path queries.

File format (UTF-8, one record per line, ``#`` starts a comment):

    node <id> <label> <role>
    link <idA> <idB> <delay_ms> <bandwidth_mbps>

Roles: consumer, router, producer, resolver, tld, nameserver.
Fields are single-space separated; every record ends with a newline.
Graphs must be connected, node ids unique, and at most one link may
join any unordered node pair, and every link's transit time for each
packet size must round to a finite integer number of nanoseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping, Sequence

ROLES = frozenset({"consumer", "router", "producer", "resolver", "tld", "nameserver"})

PRESETS = ("nsfnet", "oteglobe")

NS_PER_US = 1_000
NS_PER_MS = 1_000_000

# Every packet of a kind has one size: Interests are small,
# DEFAULT_PAYLOAD_BITS is the one Data size, that of every content item,
# and the nameserver's record reply is a small control Data packet.
INTEREST_BITS = 320
DEFAULT_PAYLOAD_BITS = 1024
LOCATOR_REPLY_BITS = 512
PACKET_BITS = (INTEREST_BITS, LOCATOR_REPLY_BITS, DEFAULT_PAYLOAD_BITS)


class TopologyError(ValueError):
    """Raised for malformed or invalid topology input."""


@dataclass(frozen=True, slots=True)
class NodeDescriptor:
    id: int
    label: str
    role: str


@dataclass(frozen=True, slots=True)
class LinkDescriptor:
    endpoint_a: int
    endpoint_b: int
    delay_ms: float
    bandwidth_mbps: float

    @property
    def key(self) -> tuple[int, int]:
        a, b = self.endpoint_a, self.endpoint_b
        return (a, b) if a < b else (b, a)


def link_transit_ns(link: LinkDescriptor, bits: int) -> int:
    """Nanoseconds to push ``bits`` across ``link``: delay + serialization."""
    delay = round(link.delay_ms * NS_PER_MS)
    serialization = round(bits * NS_PER_US / link.bandwidth_mbps)
    return delay + serialization


class Topology:
    """Validated, immutable-after-build network graph.

    ``paths`` is the graph's one shortest-path table, filled lazily, so
    every caller that routes over this graph shares its BFS results.
    ``ids`` lists the node ids in ascending order, ``position`` maps an
    id to its index there, and ``neighbours`` is the adjacency by
    position, each entry ascending; BFS rows are indexed the same way.
    ``leaf_neighbours`` and ``inner_neighbours`` split each position's
    neighbours, in the same order, into leaves (nodes with one
    neighbour) and the rest, for ``shortest_paths``.

    ``transit`` is the graph's one link-timing table: packet bits ->
    link key -> the integer transit ns ``link_transit_ns`` gives, for
    each size in ``PACKET_BITS``.  The engine's face rows and the
    resolver's legs read it, so both schemes charge a link the same
    nanoseconds.  A link whose transit does not round to a finite
    integer raises ``TopologyError`` naming it.
    """

    def __init__(self, nodes: Mapping[int, NodeDescriptor],
                 links: Mapping[tuple[int, int], LinkDescriptor]) -> None:
        self.nodes = dict(nodes)
        self.links = dict(links)
        adjacency: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for link in self.links.values():
            adjacency[link.endpoint_a].append(link.endpoint_b)
            adjacency[link.endpoint_b].append(link.endpoint_a)
        self.adjacency: dict[int, tuple[int, ...]] = {
            nid: tuple(sorted(nbrs)) for nid, nbrs in adjacency.items()
        }
        self.ids: tuple[int, ...] = tuple(sorted(self.nodes))
        self.position: dict[int, int] = {nid: i for i, nid in enumerate(self.ids)}
        position = self.position
        self.neighbours: tuple[tuple[int, ...], ...] = tuple(
            tuple(position[v] for v in self.adjacency[nid]) for nid in self.ids)
        leaf = [len(nbrs) == 1 for nbrs in self.neighbours]
        self.leaf_neighbours: tuple[tuple[int, ...], ...] = tuple(
            tuple([v for v in nbrs if leaf[v]]) for nbrs in self.neighbours)
        self.inner_neighbours: tuple[tuple[int, ...], ...] = tuple(
            tuple([v for v in nbrs if not leaf[v]]) for nbrs in self.neighbours)
        self.transit: dict[int, dict[tuple[int, int], int]] = {
            bits: {} for bits in PACKET_BITS}
        rows = tuple(self.transit.values())
        # (delay, bandwidth) -> the link kind's transit ns per size: links of
        # one kind are converted once (every preset link is of one kind)
        kinds: dict[tuple[float, float], tuple[int, ...]] = {}
        for key, link in self.links.items():
            kind = (link.delay_ms, link.bandwidth_mbps)
            times = kinds.get(kind)
            if times is None:
                try:
                    times = kinds[kind] = tuple(link_transit_ns(link, bits)
                                                for bits in PACKET_BITS)
                except (OverflowError, ValueError):  # an infinite or nan float
                    raise TopologyError(
                        f"transit time on link {key} is not a finite integer "
                        f"(delay {link.delay_ms} ms, bandwidth {link.bandwidth_mbps} Mb/s)"
                    ) from None
            for row, ns in zip(rows, times):
                row[key] = ns
        self.paths = PathTable(self)

    @classmethod
    def build(cls, nodes: Iterable[NodeDescriptor],
              links: Iterable[LinkDescriptor]) -> "Topology":
        """Assemble and validate a topology from descriptor lists."""
        node_map: dict[int, NodeDescriptor] = {}
        for node in nodes:
            if node.id < 0:
                raise TopologyError(f"negative node id {node.id}")
            if node.role not in ROLES:
                raise TopologyError(f"unknown role {node.role!r} for node {node.id}")
            if node.id in node_map:
                raise TopologyError(f"duplicate node id {node.id}")
            node_map[node.id] = node
        link_map: dict[tuple[int, int], LinkDescriptor] = {}
        for link in links:
            for end in (link.endpoint_a, link.endpoint_b):
                if end not in node_map:
                    raise TopologyError(f"link endpoint {end} is not a known node")
            if link.endpoint_a == link.endpoint_b:
                raise TopologyError(f"self-loop on node {link.endpoint_a}")
            # nan compares false both ways, so finiteness is checked first
            if not math.isfinite(link.delay_ms):
                raise TopologyError(f"non-finite delay on link {link.key}")
            if link.delay_ms < 0:
                raise TopologyError(f"negative delay on link {link.key}")
            if not math.isfinite(link.bandwidth_mbps):
                raise TopologyError(f"non-finite bandwidth on link {link.key}")
            if link.bandwidth_mbps <= 0:
                raise TopologyError(f"non-positive bandwidth on link {link.key}")
            if link.key in link_map:
                raise TopologyError(f"duplicate link between {link.key[0]} and {link.key[1]}")
            link_map[link.key] = link
        topo = cls(node_map, link_map)
        topo._check_connected()
        return topo

    def _check_connected(self) -> None:
        if not self.nodes:
            raise TopologyError("topology has no nodes")
        # the first node's BFS row, kept in the path table for later queries
        missing = self.paths.from_source(next(iter(self.nodes))).count(-1)
        if missing:
            raise TopologyError(f"graph is disconnected ({missing} unreachable nodes)")

    def link_between(self, a: int, b: int) -> LinkDescriptor:
        key = (a, b) if a < b else (b, a)
        try:
            return self.links[key]
        except KeyError:
            raise TopologyError(f"no link between {a} and {b}") from None

    def nodes_with_role(self, role: str) -> list[int]:
        return sorted(nid for nid, nd in self.nodes.items() if nd.role == role)

    def with_extra_node(self, node: NodeDescriptor,
                        links: Sequence[LinkDescriptor]) -> "Topology":
        """New topology with one node and its links added (re-validated)."""
        return Topology.build(list(self.nodes.values()) + [node],
                              list(self.links.values()) + list(links))


def load_topology(text: str) -> Topology:
    """Parse topology file content and return a validated Topology."""
    nodes: list[NodeDescriptor] = []
    links: list[LinkDescriptor] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "node":
                if len(fields) != 4:
                    raise TopologyError("expected: node <id> <label> <role>")
                nid = int(fields[1])
                role = fields[3]
                if role not in ROLES:
                    raise TopologyError(f"unknown role {role!r}")
                nodes.append(NodeDescriptor(nid, fields[2], role))
            elif kind == "link":
                if len(fields) != 5:
                    raise TopologyError("expected: link <idA> <idB> <delay_ms> <bandwidth_mbps>")
                links.append(LinkDescriptor(int(fields[1]), int(fields[2]),
                                            float(fields[3]), float(fields[4])))
            else:
                raise TopologyError(f"unknown record type {kind!r}")
        except ValueError as exc:  # TopologyError included
            raise TopologyError(f"line {lineno}: {exc}") from None
    return Topology.build(nodes, links)


def load_preset(name: str) -> Topology:
    """Load one of the bundled topology presets ('nsfnet' or 'oteglobe')."""
    if name not in PRESETS:
        raise TopologyError(f"unknown preset {name!r}; choose from {PRESETS}")
    text = resources.files("balancedn").joinpath(f"presets/{name}.topo").read_text("utf-8")
    return load_topology(text)


def shortest_paths(topology: Topology, source: int) -> list[int]:
    """Unweighted BFS hop counts from ``source``.

    Entry ``i`` of the returned row is the distance from ``source`` to
    ``topology.ids[i]``, the ``i``-th node in ascending id order; the
    source's own entry is 0 and a node the BFS did not reach reads -1.

    A leaf is labelled but never expanded: its one neighbour is the
    node that reached it, already labelled, so expanding it could label
    nothing.  Most preset nodes are leaves (366 of OTEGlobe's 427), so
    most of the frontier is skipped.  A leaf is reached only through its
    one neighbour, which is expanded once, so it is labelled without a
    test; only the source can be labelled twice that way, and its 0 is
    restored at the end.  The source starts on the frontier even when it
    is a leaf.
    """
    try:
        start = topology.position[source]
    except KeyError:
        raise TopologyError(f"unknown source node {source}") from None
    leaves, inner = topology.leaf_neighbours, topology.inner_neighbours
    row = [-1] * len(inner)
    row[start] = 0
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        upcoming: list[int] = []
        for u in frontier:
            for v in leaves[u]:
                row[v] = depth
            for v in inner[u]:
                if row[v] < 0:
                    row[v] = depth
                    upcoming.append(v)
        frontier = upcoming
    row[start] = 0
    return row


class PathTable:
    """All-pairs shortest paths as lazily built BFS distance rows.

    A row is the list ``shortest_paths`` returns, one per source node;
    its BFS labels leaves without expanding them, since a leaf's one
    neighbour is always labelled before it.
    Distances are symmetric, so ``path(a, b)`` reads ``b``'s row alone:
    from ``a`` it steps each time to the lowest-id neighbour one hop
    closer to ``b``.  That neighbour is the first hop of the lowest-id
    shortest path, the one a next-hop table kept per node would give.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._rows: dict[int, list[int]] = {}

    def from_source(self, source: int) -> list[int]:
        row = self._rows.get(source)
        if row is None:
            row = self._rows[source] = shortest_paths(self.topology, source)
        return row

    def distance(self, a: int, b: int) -> int:
        return self.from_source(a)[self.topology.position[b]]

    def path(self, a: int, b: int) -> list[int]:
        """Node sequence a..b, walked down ``b``'s distance row."""
        topology = self.topology
        row = self.from_source(b)
        ids, neighbours = topology.ids, topology.neighbours
        cur = topology.position[a]
        left = row[cur]
        nodes = [a]
        while left > 0:
            left -= 1
            for cur in neighbours[cur]:
                if row[cur] == left:
                    break
            nodes.append(ids[cur])
        return nodes

    def nearest(self, origin: int, candidates: Iterable[int]) -> int:
        """Closest candidate to origin, ties broken by lowest id."""
        row = self.from_source(origin)
        position = self.topology.position
        return min((row[position[c]], c) for c in candidates)[1]

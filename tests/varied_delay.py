"""Random graphs whose links have different delays, for flood-storm tests.

Each graph is a random spanning tree over 8-39 nodes plus n extra
random links, every link's delay drawn from {0.1, 1, 5, 20} ms, and a
drawn consumer and producer.  With unequal delays, a late copy of an
Interest can reach a node after the Data has consumed its PIT entry and
flood again; on some graphs the producer's answers keep that going
forever.  The fifth graph drawn from ``random.Random(5)`` (21 nodes,
39 links, consumer and producer 2 hops apart) is one of those: without
the engine's event budget its single request never drains.
"""

from __future__ import annotations

import random

from balancedn.topology import LinkDescriptor, NodeDescriptor, Topology

DELAYS_MS = (0.1, 1.0, 5.0, 20.0)
STORM_SEED = 5
STORM_INDEX = 4


def varied_delay_graph(rng: random.Random) -> tuple[Topology, int, int]:
    """(topology, consumer, producer), all routers."""
    n = rng.randrange(8, 40)
    nodes = [NodeDescriptor(i, f"n{i}", "router") for i in range(n)]
    links = []
    present = set()
    for i in range(1, n):
        parent = rng.randrange(i)
        present.add((parent, i))
        links.append(LinkDescriptor(parent, i, rng.choice(DELAYS_MS), 1000.0))
    for _ in range(n):
        a, b = rng.randrange(n), rng.randrange(n)
        key = (min(a, b), max(a, b))
        if a != b and key not in present:
            present.add(key)
            links.append(LinkDescriptor(a, b, rng.choice(DELAYS_MS), 1000.0))
    consumer, producer = rng.sample(range(n), 2)
    return Topology.build(nodes, links), consumer, producer


def storm_graph() -> tuple[Topology, int, int]:
    rng = random.Random(STORM_SEED)
    for _ in range(STORM_INDEX):
        varied_delay_graph(rng)
    return varied_delay_graph(rng)


def topology_text(topology: Topology, roles: dict[int, str]) -> str:
    """The topology in file format; nodes not in ``roles`` stay routers."""
    lines = [f"node {nid} n{nid} {roles.get(nid, 'router')}"
             for nid in sorted(topology.nodes)]
    lines += [f"link {link.endpoint_a} {link.endpoint_b} {link.delay_ms} "
              f"{link.bandwidth_mbps}" for link in topology.links.values()]
    return "\n".join(lines) + "\n"

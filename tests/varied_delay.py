"""Graphs whose links have different delays, for flood tests.

:func:`varied_delay_graph` draws a random spanning tree over 8-39 nodes
plus n extra random links, every link's delay drawn from
{0.1, 1, 5, 20} ms, and a drawn consumer and producer.  With unequal
delays a late copy of an Interest can reach a node after the Data has
consumed its PIT entry.  Each node's dead-nonce list drops such a copy,
so a flood on these graphs drains; the graphs drawn from
``random.Random(VARIED_SEED)`` are the property test's input.

A flood still storms when a copy of its Interest outlives the dead-nonce
list.  :func:`storm_graph` builds that case: a triangle of routers 1, 2
and 3 whose links take 5,000 ms, longer than the 4 s PIT and dead-nonce
lifetime, with consumer 0 and producer 4 off router 1 and resolver 5
behind producer 4 over 1 ms links.  The copies that go round the
triangle come back to router 1 after it has forgotten the nonce, flood
again and never stop, so only the engine's event budget ends its single
request.
"""

from __future__ import annotations

import random

from balancedn.topology import LinkDescriptor, NodeDescriptor, Topology

DELAYS_MS = (0.1, 1.0, 5.0, 20.0)
VARIED_SEED = 5
STORM_DELAY_MS = 5_000.0


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
    """(topology, consumer, producer) of a flood that never drains."""
    roles = {0: "consumer", 1: "router", 2: "router", 3: "router",
             4: "producer", 5: "resolver"}
    nodes = [NodeDescriptor(nid, f"n{nid}", role) for nid, role in roles.items()]
    links = [LinkDescriptor(a, b, STORM_DELAY_MS, 1000.0)
             for a, b in ((1, 2), (1, 3), (2, 3))]
    links += [LinkDescriptor(a, b, 1.0, 1000.0) for a, b in ((0, 1), (1, 4), (4, 5))]
    return Topology.build(nodes, links), 0, 4


def topology_text(topology: Topology) -> str:
    """The topology in file format."""
    lines = [f"node {nid} n{nid} {node.role}"
             for nid, node in sorted(topology.nodes.items())]
    lines += [f"link {link.endpoint_a} {link.endpoint_b} {link.delay_ms} "
              f"{link.bandwidth_mbps}" for link in topology.links.values()]
    return "\n".join(lines) + "\n"

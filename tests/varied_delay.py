"""Graphs whose links have different delays, for flood tests.

:func:`varied_delay_graph` draws a random spanning tree over 8-39 nodes
plus n extra random links, every link's delay drawn from
{0.1, 1, 5, 20} ms, and a drawn consumer and producer.  With unequal
delays a late copy of an Interest can reach a node after the Data has
consumed its PIT entry.  Each node's dead-nonce list drops such a copy,
so a flood on these graphs drains; the graphs drawn from
``random.Random(VARIED_SEED)`` are the property test's input.

:func:`role_complete_graph` draws a topology the scenarios can run: a
random router tree plus extra router links, and every role hung off a
random router.  In a slow draw some links take 1,500 or 2,500 ms, so a
round trip can outlast the 4 s Interest lifetime and a copy can outlive
the dead-nonce list.

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
SLOW_DELAYS_MS = (1_500.0, 2_500.0)
VARIED_SEED = 5
ROLE_SEED = 11
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


def role_complete_graph(rng: random.Random, slow: bool = False) -> Topology:
    """A random topology with every role and at least one cross-subnet pair.

    3-15 routers form a random tree plus up to as many extra links; 2-5
    consumers, 2-4 producers, 1-3 resolvers, a TLD and a nameserver each
    hang off a random router, the first producer off another router than
    the first consumer's.  Every delay is drawn from DELAYS_MS; in a slow
    draw a quarter of the links, on average, take one of SLOW_DELAYS_MS.
    """
    n_routers = rng.randrange(3, 16)
    nodes = [NodeDescriptor(i, f"r{i}", "router") for i in range(n_routers)]
    ends = [(rng.randrange(i), i) for i in range(1, n_routers)]
    for _ in range(rng.randrange(n_routers)):
        pair = tuple(sorted(rng.sample(range(n_routers), 2)))
        if pair not in ends:
            ends.append(pair)
    roles = (["consumer"] * rng.randint(2, 5) + ["producer"] * rng.randint(2, 4)
             + ["resolver"] * rng.randint(1, 3) + ["tld", "nameserver"])
    routers = [rng.randrange(n_routers) for _ in roles]
    first_producer = roles.index("producer")
    while routers[first_producer] == routers[0]:
        routers[first_producer] = rng.randrange(n_routers)
    for nid, (role, router) in enumerate(zip(roles, routers), start=n_routers):
        nodes.append(NodeDescriptor(nid, f"{role}{nid}", role))
        ends.append((router, nid))
    links = []
    for a, b in ends:
        delay = rng.choice(DELAYS_MS)
        if slow and rng.random() < 0.25:
            delay = rng.choice(SLOW_DELAYS_MS)
        links.append(LinkDescriptor(a, b, delay, 1000.0))
    return Topology.build(nodes, links)


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

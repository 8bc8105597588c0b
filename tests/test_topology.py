import random

import pytest

from balancedn import topology as topology_module
from balancedn.topology import (LinkDescriptor, NodeDescriptor, PathTable,
                                Topology, TopologyError, load_preset,
                                load_topology, shortest_paths)
from varied_delay import VARIED_SEED, varied_delay_graph


def make_line(n, role="router"):
    nodes = [NodeDescriptor(i, f"n{i}", role) for i in range(n)]
    links = [LinkDescriptor(i, i + 1, 1.0, 1000.0) for i in range(n - 1)]
    return Topology.build(nodes, links)


def random_connected(rng, n, extra_edges=2, ids=None):
    """Random tree plus a few extra edges; connected by construction.

    Node ids are ``range(n)`` unless ``ids`` lists them."""
    ids = range(n) if ids is None else ids
    nodes = [NodeDescriptor(i, f"n{i}", "router") for i in ids]
    links = []
    present = set()
    for i in range(1, n):
        parent, child = ids[rng.randrange(i)], ids[i]
        links.append(LinkDescriptor(parent, child, 1.0, 1000.0))
        present.add((min(parent, child), max(parent, child)))
    attempts = 0
    while extra_edges and attempts < 50:
        attempts += 1
        a, b = ids[rng.randrange(n)], ids[rng.randrange(n)]
        key = (min(a, b), max(a, b))
        if a != b and key not in present:
            present.add(key)
            links.append(LinkDescriptor(a, b, 1.0, 1000.0))
            extra_edges -= 1
    return Topology.build(nodes, links)


def bfs_distances(topology, source):
    """Hop distance from ``source`` to every node, by a plain BFS."""
    dist = {source: 0}
    queue = [source]
    for node in queue:
        for nbr in topology.adjacency[node]:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                queue.append(nbr)
    return dist


def brute_force_distance(topology, source, dest):
    """Minimum length over all simple paths, by exhaustive enumeration."""
    best = [None]

    def walk(node, length, seen):
        if best[0] is not None and length >= best[0]:
            return
        if node == dest:
            best[0] = length
            return
        for nbr in topology.adjacency[node]:
            if nbr not in seen:
                walk(nbr, length + 1, seen | {nbr})

    walk(source, 0, {source})
    return best[0]


class TestLoadTopology:
    def test_smallest_valid_graph(self):
        topo = load_topology("node 0 a router\nnode 1 b router\nlink 0 1 1 1000\n")
        assert len(topo.nodes) == 2 and len(topo.links) == 1
        assert topo.adjacency[0] == (1,) and topo.adjacency[1] == (0,)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nnode 0 a router  # trailing\nnode 1 b router\nlink 0 1 1 1000\n"
        assert len(load_topology(text).nodes) == 2

    def test_line_order_irrelevant(self):
        fwd = "node 0 a router\nnode 1 b router\nlink 0 1 1 1000\n"
        rev = "link 0 1 1 1000\nnode 1 b router\nnode 0 a router\n"
        t1, t2 = load_topology(fwd), load_topology(rev)
        assert t1.nodes == t2.nodes and t1.links == t2.links

    def test_syntax_error_reports_line(self):
        with pytest.raises(TopologyError, match="line 2"):
            load_topology("node 0 a router\nnode nope\n")

    def test_unknown_role_rejected(self):
        with pytest.raises(TopologyError, match="role"):
            load_topology("node 0 a gateway\n")

    def test_duplicate_node_id(self):
        with pytest.raises(TopologyError, match="duplicate node"):
            load_topology("node 0 a router\nnode 0 b router\n")

    def test_dangling_link_endpoint(self):
        with pytest.raises(TopologyError, match="endpoint"):
            load_topology("node 0 a router\nnode 1 b router\nlink 0 5 1 1000\n")

    def test_disconnected_graph(self):
        text = ("node 0 a router\nnode 1 b router\nnode 2 c router\n"
                "node 3 d router\nlink 0 1 1 1000\nlink 2 3 1 1000\n")
        with pytest.raises(TopologyError, match="disconnected"):
            load_topology(text)

    def test_duplicate_link_rejected(self):
        text = ("node 0 a router\nnode 1 b router\n"
                "link 0 1 1 1000\nlink 1 0 1 1000\n")
        with pytest.raises(TopologyError, match="duplicate link"):
            load_topology(text)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            load_topology("node 0 a router\nlink 0 0 1 1000\n")

    def test_bad_link_parameters(self):
        with pytest.raises(TopologyError):
            load_topology("node 0 a router\nnode 1 b router\nlink 0 1 -1 1000\n")
        with pytest.raises(TopologyError):
            load_topology("node 0 a router\nnode 1 b router\nlink 0 1 1 0\n")
        # nan passes both the negative and the non-positive test
        for delay, bandwidth in (("nan", "1000"), ("inf", "1000"), ("-inf", "1000"),
                                 ("1", "nan"), ("1", "inf")):
            with pytest.raises(TopologyError, match=r"non-finite .* link \(0, 1\)"):
                load_topology(f"node 0 a router\nnode 1 b router\n"
                              f"link 1 0 {delay} {bandwidth}\n")


class TestTransitTable:
    @pytest.mark.parametrize("delay, bandwidth", [(1e308, 1000.0), (1.0, 1e-310)])
    def test_overflowing_transit_is_rejected_by_link(self, delay, bandwidth):
        # each field is finite, but a packet's transit rounds to infinity
        nodes = [NodeDescriptor(i, f"n{i}", "router") for i in range(3)]
        links = [LinkDescriptor(0, 1, 1.0, 1000.0), LinkDescriptor(2, 1, delay, bandwidth)]
        with pytest.raises(TopologyError, match=r"^transit time on link \(1, 2\) "):
            Topology.build(nodes, links)

    def test_each_link_kind_is_converted_once(self, monkeypatch):
        # every OTEGlobe link has the same delay and bandwidth
        calls = []
        real = topology_module.link_transit_ns

        def counted(link, bits):
            calls.append(bits)
            return real(link, bits)

        monkeypatch.setattr(topology_module, "link_transit_ns", counted)
        topo = load_preset("oteglobe")
        assert len(topo.links) == 427
        assert sorted(calls) == sorted(topology_module.PACKET_BITS)
        rng = random.Random(VARIED_SEED)
        for _ in range(20):
            topo = varied_delay_graph(rng)[0]
            kinds = {(link.delay_ms, link.bandwidth_mbps) for link in topo.links.values()}
            calls.clear()
            Topology(topo.nodes, topo.links)
            assert len(calls) == len(kinds) * len(topology_module.PACKET_BITS)


class TestPresets:
    def test_nsfnet_role_counts(self):
        topo = load_preset("nsfnet")
        assert len(topo.nodes) == 54
        assert len(topo.nodes_with_role("router")) == 11
        assert len(topo.nodes_with_role("consumer")) == 22
        assert len(topo.nodes_with_role("resolver")) == 11
        assert len(topo.nodes_with_role("producer")) == 8
        assert len(topo.nodes_with_role("tld")) == 1
        assert len(topo.nodes_with_role("nameserver")) == 1

    def test_oteglobe_role_counts(self):
        topo = load_preset("oteglobe")
        assert len(topo.nodes) == 427
        assert len(topo.nodes_with_role("router")) == 61
        assert len(topo.nodes_with_role("resolver")) == 61
        hosts = (len(topo.nodes_with_role("consumer"))
                 + len(topo.nodes_with_role("producer"))
                 + len(topo.nodes_with_role("tld"))
                 + len(topo.nodes_with_role("nameserver")))
        assert hosts == 305

    def test_nsfnet_has_graded_producer_distances(self):
        topo = load_preset("nsfnet")
        paths = PathTable(topo)
        consumer = topo.nodes_with_role("consumer")[0]
        dists = sorted(paths.distance(consumer, p)
                       for p in topo.nodes_with_role("producer"))
        assert dists[0] == 1 and 2 in dists and dists[-1] >= 4

    def test_unknown_preset(self):
        with pytest.raises(TopologyError):
            load_preset("arpanet")


class TestShortestPaths:
    def test_line_graph_distances(self):
        topo = make_line(3)
        assert shortest_paths(topo, 0) == [0, 1, 2]

    def test_source_entry_is_identity(self):
        topo = make_line(3)
        assert shortest_paths(topo, 1)[topo.position[1]] == 0

    def test_unknown_source(self):
        with pytest.raises(TopologyError):
            shortest_paths(make_line(2), 9)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(20)
        for _ in range(5):
            topo = random_connected(rng, 20, extra_edges=3)
            source = rng.randrange(20)
            row = shortest_paths(topo, source)
            for dest in range(20):
                assert row[topo.position[dest]] == brute_force_distance(topo, source, dest)

    def test_distance_symmetry(self):
        rng = random.Random(4)
        topo = random_connected(rng, 15, extra_edges=3)
        position = topo.position
        for u in range(15):
            fwd = shortest_paths(topo, u)
            for v in range(15):
                assert fwd[position[v]] == shortest_paths(topo, v)[position[u]]

    def test_next_hop_walk_terminates_in_distance_steps(self):
        rng = random.Random(11)
        topo = random_connected(rng, 18, extra_edges=4)
        paths = PathTable(topo)
        for u in range(18):
            for v in range(18):
                walk = paths.path(u, v)
                assert len(walk) - 1 == paths.distance(u, v)
                assert walk[0] == u and walk[-1] == v

    def test_next_hop_tie_break_lowest_neighbor(self):
        # square: two equal paths 0-1-3 and 0-2-3; next hop toward 3 must be 1
        nodes = [NodeDescriptor(i, f"n{i}", "router") for i in range(4)]
        links = [LinkDescriptor(0, 1, 1, 1000), LinkDescriptor(0, 2, 1, 1000),
                 LinkDescriptor(1, 3, 1, 1000), LinkDescriptor(2, 3, 1, 1000)]
        topo = Topology.build(nodes, links)
        assert topo.paths.path(0, 3) == [0, 1, 3]

    def test_next_hop_is_lowest_neighbor_one_step_closer(self):
        # dense extra edges leave many equal-length paths to break ties over
        rng = random.Random(9)
        for n, extra in ((12, 10), (20, 15), (30, 25)):
            topo = random_connected(rng, n, extra_edges=extra)
            dist = {u: bfs_distances(topo, u) for u in topo.nodes}
            paths = PathTable(topo)
            for u in topo.nodes:
                for v in topo.nodes:
                    if u == v:
                        continue
                    expected = min(nbr for nbr in topo.adjacency[u]
                                   if dist[nbr][v] == dist[u][v] - 1)
                    assert paths.path(u, v)[1] == expected, (u, v)
                    assert paths.distance(u, v) == dist[u][v], (u, v)


def sparse_random_connected(rng, n, extra_edges):
    """``random_connected`` over ids drawn from ``range(10_000)``, listed
    in random order, so ids are neither contiguous nor from 0."""
    return random_connected(rng, n, extra_edges, ids=rng.sample(range(10_000), n))


def reference_path(topology, dist, a, b):
    """The lowest-id shortest path a..b, stepping to the lowest-id
    neighbour one hop closer to ``b`` by the reference distances."""
    nodes = [a]
    while nodes[-1] != b:
        cur = nodes[-1]
        nodes.append(min(nbr for nbr in topology.adjacency[cur]
                         if dist[nbr][b] == dist[cur][b] - 1))
    return nodes


class TestSparseNodeIds:
    def test_queries_match_a_plain_bfs(self):
        rng = random.Random(31)
        for n, extra in ((2, 0), (9, 4), (25, 20), (40, 60)):
            topo = sparse_random_connected(rng, n, extra)
            assert topo.ids == tuple(sorted(topo.nodes)) != tuple(range(n))
            dist = {u: bfs_distances(topo, u) for u in topo.nodes}
            paths = PathTable(topo)
            for a in topo.nodes:
                candidates = rng.sample(sorted(topo.nodes), min(n, 5))
                assert paths.nearest(a, candidates) == min(
                    (dist[a][c], c) for c in candidates)[1]
                for b in topo.nodes:
                    assert paths.distance(a, b) == dist[a][b], (a, b)
                    assert paths.path(a, b) == reference_path(topo, dist, a, b), (a, b)

    @pytest.mark.parametrize("isolated", [1, 3])
    def test_disconnected_graph_counts_unreachable_nodes(self, isolated):
        rng = random.Random(isolated)
        topo = sparse_random_connected(rng, 12, extra_edges=5)
        taken = set(topo.nodes)
        extra = [i for i in rng.sample(range(10_000), 20) if i not in taken][:isolated]
        nodes = list(topo.nodes.values()) + [
            NodeDescriptor(i, f"n{i}", "router") for i in extra]
        links = list(topo.links.values()) + [
            LinkDescriptor(a, b, 1.0, 1000.0) for a, b in zip(extra, extra[1:])]
        with pytest.raises(TopologyError) as err:
            Topology.build(nodes, links)
        # the first node listed sits in the large part
        assert str(err.value) == f"graph is disconnected ({isolated} unreachable nodes)"


class TestPathWalk:
    def test_path_builds_only_the_destination_row(self, monkeypatch):
        topo = load_preset("oteglobe")
        calls = []
        real = topology_module.shortest_paths

        def counted(topology, source):
            calls.append(source)
            return real(topology, source)

        monkeypatch.setattr(topology_module, "shortest_paths", counted)
        a = topo.ids[0]
        b = topo.ids[real(topo, a).index(30)]
        walk = PathTable(topo).path(a, b)
        assert calls == [b]
        assert len(walk) == 31 and walk[0] == a and walk[-1] == b


def plain_bfs_row(topology, source):
    """``bfs_distances`` as a row by position, -1 where it did not reach."""
    dist = bfs_distances(topology, source)
    return [dist.get(nid, -1) for nid in topology.ids]


def shape(edges, n):
    nodes = [NodeDescriptor(i, f"n{i}", "router") for i in range(n)]
    return Topology.build(nodes, [LinkDescriptor(a, b, 1.0, 1000.0) for a, b in edges])


class TestLeafSkippingBfs:
    """``shortest_paths`` never expands a leaf; a BFS that expands every
    node it reaches must give the same rows."""

    def assert_rows_match(self, topology):
        for source in topology.ids:
            assert shortest_paths(topology, source) == plain_bfs_row(topology, source), source

    @pytest.mark.parametrize("preset", ["nsfnet", "oteglobe"])
    def test_every_preset_source(self, preset):
        self.assert_rows_match(load_preset(preset))

    def test_varied_delay_graphs(self):
        rng = random.Random(VARIED_SEED)
        for _ in range(200):
            self.assert_rows_match(varied_delay_graph(rng)[0])

    @pytest.mark.parametrize("edges, n", [
        ([], 1),                                   # one node, no neighbour
        ([(0, 1)], 2),                             # two leaves, each the other's neighbour
        ([(0, i) for i in range(1, 6)], 6),        # star: a leaf source reaches four leaves
        ([(i, i + 1) for i in range(5)], 6),       # line: leaves at both ends
    ])
    def test_small_shapes(self, edges, n):
        self.assert_rows_match(shape(edges, n))

    def test_disconnected_topology_built_directly(self):
        # built without ``build``'s connectivity check: a path 0-1-2, a
        # pair of leaves 3-4 and an isolated node 5
        nodes = {i: NodeDescriptor(i, f"n{i}", "router") for i in range(6)}
        links = {(a, b): LinkDescriptor(a, b, 1.0, 1000.0) for a, b in ((0, 1), (1, 2), (3, 4))}
        topo = Topology(nodes, links)
        self.assert_rows_match(topo)
        assert shortest_paths(topo, 0) == [0, 1, 2, -1, -1, -1]
        assert shortest_paths(topo, 4) == [-1, -1, -1, 1, 0, -1]
        assert shortest_paths(topo, 5) == [-1, -1, -1, -1, -1, 0]

    @pytest.mark.parametrize("preset, leaves", [("nsfnet", 41), ("oteglobe", 366)])
    def test_neighbours_split_into_leaves_and_the_rest(self, preset, leaves):
        topo = load_preset(preset)
        degree = [len(nbrs) for nbrs in topo.neighbours]
        assert degree.count(1) == leaves
        for nbrs, leaf, inner in zip(topo.neighbours, topo.leaf_neighbours,
                                     topo.inner_neighbours):
            assert leaf == tuple(v for v in nbrs if degree[v] == 1)
            assert inner == tuple(v for v in nbrs if degree[v] != 1)

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancedn.core import (CRC_CHUNK, assign_resolver, crc16, parse_name,
                            parse_names)
from balancedn.engine import Simulation
from balancedn.node import PIT_LIFETIME_NS
from balancedn.resolution import (ConfigurationError, Deployment,
                                  RegistrationConflictError, ResolverShard,
                                  STAGE_CONSUMER_TO_CLUSTER, STAGE_DATA_RETURN,
                                  STAGE_FETCH, STAGE_ORDER, STAGE_RESOLVER_TO_TLD,
                                  STAGE_TLD_TO_NAMESERVER, build_skewed_shards,
                                  interleaved_timing_probe)
from balancedn.scenarios import ScenarioConfig, run_scenario
from balancedn.topology import (DEFAULT_PAYLOAD_BITS, INTEREST_BITS, LOCATOR_REPLY_BITS,
                                LinkDescriptor, NodeDescriptor, PathTable, Topology,
                                link_transit_ns, load_preset)
from crc_reference import crc16_arc_bitwise
from varied_delay import role_complete_graph, varied_delay_graph

NAME = parse_name("/video/a.mp4")


def register(deployment, producer, name):
    """Register one name; returns the link traversals it cost."""
    return deployment.register_bulk([(name.canonical_text, producer)])


def line_topology(extra_producer=False, extra_nameserver=False):
    """Six-node line with a resolver site at each end of the hierarchy:

        consumer(0) - resolver(1) - tld(2) - nameserver(3) - resolver(4) - producer(5)

    The producer registers at site 4, so a request from the consumer
    (site 1) misses locally and walks the full TLD path; every stage
    hop count below is a hand-counted line distance.  The extras hang
    off the TLD node: producer 6 and nameserver 7.
    """
    roles = ["consumer", "resolver", "tld", "nameserver", "resolver", "producer"]
    nodes = [NodeDescriptor(i, f"n{i}", role) for i, role in enumerate(roles)]
    links = [LinkDescriptor(i, i + 1, 1.0, 1000.0) for i in range(5)]
    if extra_producer:
        nodes.append(NodeDescriptor(6, "p2", "producer"))
        links.append(LinkDescriptor(6, 2, 1.0, 1000.0))
    if extra_nameserver:
        nodes.append(NodeDescriptor(7, "ns2", "nameserver"))
        links.append(LinkDescriptor(7, 2, 1.0, 1000.0))
    return Topology.build(nodes, links)


class TestRegistration:
    def test_record_lands_in_hashed_shard_and_zone(self):
        deployment = Deployment(line_topology(), resolver_count=4)
        register(deployment, 5, NAME)
        idx = assign_resolver(NAME, 4)
        # producer 5's nearest site is resolver node 4
        assert deployment.sites[4].shards[idx].lookup(NAME.canonical_text) == 5
        assert deployment.nameserver_node == 3
        assert deployment.zone == {NAME.canonical_text: 5}

    def test_registration_traversal_count(self):
        deployment = Deployment(line_topology(), resolver_count=1)
        # producer 5 to its site (node 4) is 1 hop, to the nameserver 2 hops
        assert register(deployment, 5, NAME) == 3

    def test_idempotent_reregistration(self):
        deployment = Deployment(line_topology(), resolver_count=2)
        assert register(deployment, 5, NAME) == 3
        assert register(deployment, 5, NAME) == 0  # a repeat is skipped
        idx = assign_resolver(NAME, 2)
        assert len(deployment.sites[4].shards[idx].authoritative) == 1

    def test_conflicting_producer_rejected(self):
        deployment = Deployment(line_topology(extra_producer=True), resolver_count=2)
        register(deployment, 5, NAME)
        with pytest.raises(RegistrationConflictError):
            register(deployment, 6, NAME)

    def test_non_producer_cannot_register(self):
        deployment = Deployment(line_topology(), resolver_count=2)
        with pytest.raises(ConfigurationError):
            register(deployment, 1, NAME)

    def test_producer_zero_is_a_record_like_any_other(self):
        # the line reversed: producer(0) - resolver(1) - tld(2) -
        # nameserver(3) - resolver(4) - consumer(5), producer 6 off the TLD
        roles = ["producer", "resolver", "tld", "nameserver", "resolver", "consumer"]
        nodes = [NodeDescriptor(i, f"n{i}", role) for i, role in enumerate(roles)]
        nodes.append(NodeDescriptor(6, "p2", "producer"))
        links = [LinkDescriptor(i, i + 1, 1.0, 1000.0) for i in range(5)]
        links.append(LinkDescriptor(6, 2, 1.0, 1000.0))
        deployment = Deployment(Topology.build(nodes, links), resolver_count=2)
        key = NAME.canonical_text
        # producer 0 to its site (node 1) is 1 hop, to the nameserver 3 hops
        assert register(deployment, 0, NAME) == 4
        assert register(deployment, 0, NAME) == 0  # a repeat is skipped
        with pytest.raises(RegistrationConflictError, match="producer 0"):
            register(deployment, 6, NAME)
        assert deployment.zone == {key: 0}
        idx = assign_resolver(NAME, 2)
        assert deployment.sites[1].shards[idx].lookup(key) == 0
        cold = deployment.resolve_and_fetch(5, NAME)
        assert cold.satisfied and cold.producer == 0 and not cold.shortcut_taken
        assert cold.steps == [("consumer_to_cluster", 1), ("resolver_to_tld", 2),
                              ("tld_to_nameserver", 1), ("fetch", 4),
                              ("data_return", 5)]
        assert deployment.sites[4].shards[idx].cache == {key: 0}
        warm = deployment.resolve_and_fetch(5, NAME)
        assert warm.satisfied and warm.producer == 0 and warm.shortcut_taken
        assert warm.steps == [("consumer_to_cluster", 1), ("fetch", 4),
                              ("data_return", 5)]

    def test_bulk_matches_single_registration(self):
        names = [f"/cat{i}/obj{i}" for i in range(20)]
        single = Deployment(line_topology(), resolver_count=4)
        for key in names:
            register(single, 5, parse_name(key))
        bulk = Deployment(line_topology(), resolver_count=4)
        bulk.register_bulk((key, 5) for key in names)
        for idx in range(4):
            assert (single.sites[4].shards[idx].authoritative.keys()
                    == bulk.sites[4].shards[idx].authoritative.keys())

    def test_bulk_registration_balance_at_scale(self):
        # one million names spread by hash: every shard index holds
        # 125,000 +/- 2% authoritative records after registration
        from balancedn.scenarios import synthetic_corpus

        topo = load_preset("nsfnet")
        deployment = Deployment(topo, resolver_count=8)
        producers = topo.nodes_with_role("producer")
        corpus = synthetic_corpus(1_000_000, seed=42)
        deployment.register_bulk(
            (key, producers[i % len(producers)]) for i, key in enumerate(corpus))
        loads = {i: 0 for i in range(8)}
        for site in deployment.sites.values():
            for shard in site.shards:
                loads[shard.index] += len(shard.authoritative)
        assert sum(loads.values()) == 1_000_000
        for index, count in loads.items():
            assert abs(count - 125_000) <= 125_000 * 0.02, (index, count)

    def test_placement_soundness_after_random_registrations(self):
        topo = load_preset("nsfnet")
        deployment = Deployment(topo, resolver_count=8)
        producers = topo.nodes_with_role("producer")
        rng = random.Random(5)
        for i in range(300):
            name = parse_name(f"/cat{rng.randrange(16)}/obj{i}")
            register(deployment, producers[i % len(producers)], name)
        for site in deployment.sites.values():
            for shard in site.shards:
                for key in shard.authoritative:
                    assert assign_resolver(parse_name(key), 8) == shard.index


class TestSeveralNameservers:
    """Nameserver 7 hangs off the TLD beside nameserver 3, and holds nothing.

    The lowest-id nameserver node hosts the one zone, so a second
    nameserver node changes no registration cost and no lookup.
    """

    PAIRS = [(f"/cat{i % 4}/obj{i}", 5 if i % 3 else 6) for i in range(40)]

    def run(self, topology):
        deployment = Deployment(topology, resolver_count=4)
        total = deployment.register_bulk(self.PAIRS)
        # each name twice: a cold lookup, then a warm one
        outcomes = [deployment.resolve_and_fetch(0, parse_name(key))
                    for key, _ in self.PAIRS * 2]
        return deployment, total, outcomes

    def test_every_record_lands_in_node_3_zone(self):
        deployment, _, _ = self.run(line_topology(extra_producer=True,
                                                  extra_nameserver=True))
        assert deployment.nameserver_node == 3
        assert deployment.zone == dict(self.PAIRS)

    def test_cold_lookup_asks_node_3(self, monkeypatch):
        topo = line_topology(extra_nameserver=True)
        deployment = Deployment(topo, resolver_count=4)
        # producer 5 to its site (node 4) is 1 hop, to node 3 2 hops; node 7 is 4
        assert register(deployment, 5, NAME) == 3
        ns_trip = (walked(topo, topo.paths, 2, 3, INTEREST_BITS)[1]
                   + walked(topo, topo.paths, 3, 2, LOCATOR_REPLY_BITS)[1])
        tld_trip = (walked(topo, topo.paths, 1, 2, INTEREST_BITS)[1]
                    + walked(topo, topo.paths, 2, 1, LOCATOR_REPLY_BITS)[1])
        walks = []
        real_path = PathTable.path

        def path(table, a, b):
            walks.append(real_path(table, a, b))
            return walks[-1]

        monkeypatch.setattr(PathTable, "path", path)
        cold = deployment.resolve_and_fetch(0, NAME)
        assert not cold.shortcut_taken
        assert dict(cold.steps)[STAGE_TLD_TO_NAMESERVER] == 1  # TLD 2 -> node 3
        # ingress 1 memoizes the TLD 2 <-> node 3 leg beside its own
        assert deployment._tld_legs == {1: ((STAGE_RESOLVER_TO_TLD, 1),
                                            (STAGE_TLD_TO_NAMESERVER, 1),
                                            tld_trip + ns_trip)}
        assert [2, 3] in walks and [3, 2] in walks
        # and nothing that touches node 7
        assert not any(7 in walk for walk in walks)
        memo_keys = {*deployment._consumer_legs, *deployment._tld_legs,
                     *deployment._fetch_legs,
                     *(p for legs in deployment._fetch_legs.values() for p in legs)}
        assert memo_keys == {0, 1, 5}

    def test_same_result_as_without_node_7(self):
        with_7, with_7_total, with_7_outcomes = self.run(
            line_topology(extra_producer=True, extra_nameserver=True))
        without, without_total, without_outcomes = self.run(
            line_topology(extra_producer=True))
        assert with_7_total == without_total
        assert with_7_outcomes == without_outcomes
        assert with_7.zone == without.zone
        for node, site in with_7.sites.items():
            assert ([shard.authoritative for shard in site.shards]
                    == [shard.authoritative for shard in without.sites[node].shards])


class TestBulkAcrossChunks:
    """One register_bulk call over more than two CRC_CHUNK-sized chunks."""

    COUNT = 3 * CRC_CHUNK + 5

    def pairs(self):
        # two producers, sixteen two-segment prefixes plus one-segment names
        return [(f"/solo{i}" if i % 7 == 0 else f"/cat{i % 16}/obj{i}",
                 5 if i % 3 else 6) for i in range(self.COUNT)]

    def deployment(self):
        return Deployment(line_topology(extra_producer=True, extra_nameserver=True),
                          resolver_count=4)

    def state(self, deployment):
        return ({node: [list(shard.authoritative.items()) for shard in site.shards]
                 for node, site in deployment.sites.items()},
                list(deployment.zone.items()))

    def test_one_call_equals_one_call_per_pair(self):
        pairs = self.pairs()
        single = self.deployment()
        single_total = sum(single.register_bulk([pair]) for pair in pairs)
        bulk = self.deployment()
        assert bulk.register_bulk(pair for pair in pairs) == single_total
        assert self.state(bulk) == self.state(single)
        assert list(bulk.zone.items()) == pairs

    def test_every_stored_record_is_a_plain_int(self):
        deployment = self.deployment()
        deployment.register_bulk(pair for pair in self.pairs())
        for key, _ in self.pairs()[:50]:
            deployment.resolve_and_fetch(0, parse_name(key))  # fills the caches
        tables = [deployment.zone]
        for site in deployment.sites.values():
            tables += [table for shard in site.shards
                       for table in (shard.authoritative, shard.cache)]
        tables += [shard.authoritative for shard in build_skewed_shards({0: 40, 1: 9}, 2)]
        values = [value for table in tables for value in table.values()]
        assert len(values) > 2 * len(set(self.pairs()))
        assert all(type(value) is int for value in values)

    def test_repeat_in_later_chunk_is_skipped_at_no_cost(self):
        pairs = self.pairs()
        cut = 3 * CRC_CHUNK  # the repeats of chunks 0 and 1 land in chunk 3
        repeated = pairs[:cut] + [pairs[10], pairs[CRC_CHUNK + 1]] + pairs[cut:]
        plain = self.deployment()
        plain_total = plain.register_bulk(pair for pair in pairs)
        with_repeats = self.deployment()
        assert with_repeats.register_bulk(pair for pair in repeated) == plain_total
        assert self.state(with_repeats) == self.state(plain)

    @pytest.mark.parametrize("bad_pair, error", [
        (("/cat4/obj4", 6), RegistrationConflictError),  # chunk 0 gave it producer 5
        (("/fresh/name", 1), ConfigurationError),  # node 1 is a resolver
    ])
    def test_failure_in_later_chunk_keeps_earlier_pairs(self, bad_pair, error):
        pairs = self.pairs()
        at = 2 * CRC_CHUNK + 10
        assert pairs[4] == ("/cat4/obj4", 5)
        failing = self.deployment()
        with pytest.raises(error):
            failing.register_bulk(pair for pair in pairs[:at] + [bad_pair] + pairs[at:])
        before = self.deployment()
        before.register_bulk(pair for pair in pairs[:at])
        assert self.state(failing) == self.state(before)


class TestDeploymentValidation:
    def test_needs_resolver_tld_nameserver(self):
        nodes = [NodeDescriptor(0, "a", "consumer"), NodeDescriptor(1, "b", "producer")]
        topo = Topology.build(nodes, [LinkDescriptor(0, 1, 1, 1000)])
        with pytest.raises(ConfigurationError):
            Deployment(topo, resolver_count=1)

    def test_resolver_count_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Deployment(line_topology(), resolver_count=0)

    def test_unknown_consumer_rejected(self):
        deployment = Deployment(line_topology(), resolver_count=1)
        register(deployment, 5, NAME)
        with pytest.raises(ConfigurationError):
            deployment.resolve_and_fetch(99, NAME)

    def test_unknown_node_has_no_nearest_site(self):
        with pytest.raises(ConfigurationError):
            Deployment(line_topology(), resolver_count=1).nearest_site(99)


class TestResolveAndFetch:
    def test_cold_flow_hand_counted_on_line(self):
        deployment = Deployment(line_topology(), resolver_count=1)
        register(deployment, 5, NAME)
        outcome = deployment.resolve_and_fetch(0, NAME)
        assert outcome.satisfied and outcome.producer == 5
        assert not outcome.shortcut_taken
        assert outcome.steps == [
            ("consumer_to_cluster", 1),
            ("resolver_to_tld", 1),
            ("tld_to_nameserver", 1),
            ("fetch", 4),
            ("data_return", 5),
        ]
        assert outcome.interest_traversals == 1 + 1 + 1 + 4
        # record reply retraces nameserver -> tld -> ingress (2 hops)
        assert outcome.data_traversals == 2 + 5
        # 7 interest hops at 320 bits, 2 reply hops at 512, 5 data hops at 1024
        assert outcome.latency_ns == (7 * 1_000_320 + 2 * 1_000_512 + 5 * 1_001_024)

    def test_second_request_takes_shortcut_and_saves_hops(self):
        deployment = Deployment(line_topology(), resolver_count=1)
        register(deployment, 5, NAME)
        first = deployment.resolve_and_fetch(0, NAME)
        second = deployment.resolve_and_fetch(0, NAME)
        assert not first.shortcut_taken and second.shortcut_taken
        assert [stage for stage, _ in second.steps] == [
            "consumer_to_cluster", "fetch", "data_return"]
        assert second.interest_traversals == 1 + 4
        assert second.interest_traversals < first.interest_traversals

    def test_shortcut_monotonicity_over_repeats(self):
        deployment = Deployment(line_topology(), resolver_count=1)
        register(deployment, 5, NAME)
        costs = [deployment.resolve_and_fetch(0, NAME).interest_traversals
                 for _ in range(4)]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert costs[1] < costs[0]

    def test_same_site_pair_shortcuts_immediately(self):
        # producer's nearest site serves the consumer too: authoritative hit
        topo = load_preset("nsfnet")
        deployment = Deployment(topo, resolver_count=8)
        register(deployment, 45, NAME)  # producer on router 0
        outcome = deployment.resolve_and_fetch(11, NAME)  # consumer on router 0
        assert outcome.shortcut_taken and outcome.satisfied

    @pytest.mark.parametrize("resolver_count", [8, 3])
    def test_utf8_names_shortcut_at_the_same_site(self, resolver_count):
        # registration hashes a batch with crc16_many, the lookup reads
        # the name's own crc16; both must pick the shard of the UTF-8 bytes
        deployment = Deployment(load_preset("nsfnet"), resolver_count=resolver_count)
        names = [parse_name("/vidéo/ü.mp4"), parse_name("/名前/データ")]
        deployment.register_bulk((name.canonical_text, 45) for name in names)
        site = deployment.nearest_site(45)
        for name in names:
            key = name.canonical_text
            index = crc16(key.encode("utf-8")) % resolver_count
            assert [key in shard.authoritative for shard in site.shards] == [
                i == index for i in range(resolver_count)]
            outcome = deployment.resolve_and_fetch(11, name)  # consumer on router 0
            assert outcome.shortcut_taken and outcome.satisfied
            assert outcome.producer == 45
            assert [stage for stage, _ in outcome.steps] == [
                "consumer_to_cluster", "fetch", "data_return"]

    @pytest.mark.parametrize("resolver_count", [8, 3])
    def test_batch_and_single_parsed_names_resolve_alike(self, resolver_count):
        # parse_names fills each name's CRC from crc16_many, parse_name
        # leaves it to crc16 on first read; every outcome must be equal
        topo = load_preset("nsfnet")
        sites = Deployment(topo, resolver_count)
        home = sites.nearest_site(45)
        consumers = topo.nodes_with_role("consumer")
        near = next(c for c in consumers if sites.nearest_site(c) is home)
        far = next(c for c in consumers if sites.nearest_site(c) is not home)
        registered = ["/vidéo/ü.mp4", "/名前/データ", "/a"] + [
            f"/cat{i % 16}/obj{i}" for i in range(40)]
        # near: authoritative hit at the producer's site; far: a cold
        # miss, then the warm shortcut; then unregistered names
        requests = [(c, text) for text in registered for c in (near, far, far)]
        requests += [(far, "/nope/x"), (near, "/名前/ない")]
        runs = []
        for make_names in (parse_names, lambda texts: [parse_name(t) for t in texts]):
            deployment = Deployment(topo, resolver_count)
            deployment.register_bulk((text, 45) for text in registered)
            names = make_names(text for _, text in requests)
            runs.append([deployment.resolve_and_fetch(c, name)
                         for (c, _), name in zip(requests, names)])
        batch, single = runs
        assert batch == single
        assert [(o.shortcut_taken, o.satisfied) for o in batch] == (
            [(True, True), (False, True), (True, True)] * len(registered)
            + [(False, False)] * 2)

    def test_stage_sequences_follow_flow_order(self):
        deployment = Deployment(line_topology(), resolver_count=1)
        register(deployment, 5, NAME)
        outcomes = [
            deployment.resolve_and_fetch(0, NAME),       # cold, full flow
            deployment.resolve_and_fetch(0, NAME),       # warm, shortcut
            deployment.resolve_and_fetch(0, parse_name("/not/registered")),
        ]
        for outcome in outcomes:
            stages = [stage for stage, _ in outcome.steps]
            positions = [STAGE_ORDER.index(s) for s in stages]
            assert positions == sorted(positions)
            assert len(set(stages)) == len(stages)

    def test_unregistered_name_fails_after_nameserver(self):
        deployment = Deployment(line_topology(), resolver_count=1)
        outcome = deployment.resolve_and_fetch(0, parse_name("/nope/x"))
        assert not outcome.satisfied and outcome.producer is None
        assert [stage for stage, _ in outcome.steps] == [
            "consumer_to_cluster", "resolver_to_tld", "tld_to_nameserver"]
        assert outcome.interest_traversals == 3
        assert outcome.data_traversals == 2  # negative reply retraces

    def test_resolution_returns_registering_producer_on_presets(self):
        for preset in ("nsfnet", "oteglobe"):
            topo = load_preset(preset)
            deployment = Deployment(topo, resolver_count=8)
            producers = topo.nodes_with_role("producer")
            consumers = topo.nodes_with_role("consumer")
            names = {}
            for i, producer in enumerate(producers[:6]):
                name = parse_name(f"/cat{i}/obj{i}")
                register(deployment, producer, name)
                names[name] = producer
            for name, producer in names.items():
                outcome = deployment.resolve_and_fetch(consumers[3], name)
                assert outcome.satisfied and outcome.producer == producer
                forward = [hops for stage, hops in outcome.steps
                           if stage != "data_return"]
                assert sum(forward) == outcome.interest_traversals


def slow_link_topology():
    """Eight nodes, one 2,500-ms link between the consumer's and the producer's routers."""
    roles = ["consumer", "router", "router", "producer", "resolver", "tld",
             "nameserver", "producer"]
    nodes = [NodeDescriptor(i, f"n{i}", role) for i, role in enumerate(roles)]
    links = [LinkDescriptor(a, b, delay, 1000.0) for a, b, delay in (
        (0, 1, 1.0), (1, 2, 2500.0), (2, 3, 1.0), (1, 4, 1.0), (4, 5, 1.0),
        (5, 6, 1.0), (1, 7, 1.0))]
    return Topology.build(nodes, links)


class TestInterestLifetime:
    def test_answer_past_the_lifetime_is_unsatisfied(self):
        # the fetch crosses the slow link twice: the Data is back after 5 s,
        # past the 4-s lifetime a flood's timer applies
        deployment = Deployment(slow_link_topology(), resolver_count=1)
        register(deployment, 3, NAME)
        outcome = deployment.resolve_and_fetch(0, NAME)
        assert outcome.producer == 3 and outcome.latency_ns == 5_008_006_720
        assert not outcome.satisfied
        register(deployment, 7, parse_name("/near"))
        near = deployment.resolve_and_fetch(0, parse_name("/near"))
        assert near.producer == 7 and near.satisfied


class TestSchemeComparison:
    @pytest.mark.parametrize("preset", ["nsfnet", "oteglobe"])
    def test_balancedn_beats_flooding_on_sampled_cold_pairs(self, preset):
        topo = load_preset(preset)
        paths = PathTable(topo)
        consumers = topo.nodes_with_role("consumer")
        producers = topo.nodes_with_role("producer")
        rng = random.Random(17)
        pairs = []
        while len(pairs) < 6:
            c = rng.choice(consumers)
            p = rng.choice(producers)
            if paths.distance(c, p) >= 2:
                pairs.append((c, p))
        deployment = Deployment(topo, resolver_count=8)
        sim = Simulation(topo)
        for i, (c, p) in enumerate(pairs):
            name = parse_name(f"/cmp{i}/obj{i}")
            register(deployment, p, name)
            sim.publish(p, name)
            outcome = deployment.resolve_and_fetch(c, name)
            state = sim.inject_request(c, name, at=sim.now)
            sim.run_until(None)
            assert state.satisfied and outcome.satisfied
            assert (outcome.interest_traversals
                    < sim.flow_stats(name).interest_traversals)


class TestShardLookup:
    def test_hit_and_miss(self):
        deployment = Deployment(line_topology(), resolver_count=1)
        register(deployment, 5, NAME)
        shard = deployment.sites[4].shards[0]
        assert shard.lookup(NAME.canonical_text) is not None
        assert shard.lookup("/other/x") is None

    def test_cached_record_evicted_after_capacity_overflow(self):
        shard = ResolverShard(0, cache_capacity=2)
        for i in range(3):
            shard.store_cached(f"/c/{i}", 9)
        assert shard.lookup("/c/0") is None  # least recent, evicted
        assert shard.lookup("/c/1") == 9
        assert shard.lookup("/c/2") == 9

    def test_cache_hit_refreshes_recency(self):
        shard = ResolverShard(0, cache_capacity=2)
        shard.store_cached("/c/0", 9)
        shard.store_cached("/c/1", 9)
        shard.lookup("/c/0")
        shard.store_cached("/c/2", 9)
        assert shard.lookup("/c/1") is None
        assert shard.lookup("/c/0") == 9

    def test_producer_zero_hit_refreshes_recency(self):
        shard = ResolverShard(0, cache_capacity=2)
        shard.store_cached("/c/0", 0)
        shard.store_cached("/c/1", 0)
        assert shard.lookup("/c/0") == 0
        shard.store_cached("/c/2", 0)
        assert shard.lookup("/c/1") is None
        assert shard.lookup("/c/0") == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResolverShard(0, cache_capacity=-1)

    @given(st.lists(st.tuples(st.sampled_from(["lookup", "store"]),
                              st.integers(min_value=0, max_value=7)),
                    max_size=60),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=150)
    def test_matches_reference_lru(self, ops, capacity):
        shard = ResolverShard(0, cache_capacity=capacity)
        reference: list[str] = []  # most recent last
        for op, k in ops:
            key = f"/k{k}"
            if op == "store":
                shard.store_cached(key, 8)
                if key in reference:
                    reference.remove(key)
                reference.append(key)
                if len(reference) > capacity:
                    reference.pop(0)
            else:
                hit = shard.lookup(key)
                if key in reference:
                    assert hit == 8
                    reference.remove(key)
                    reference.append(key)
                else:
                    assert hit is None
            assert len(shard.cache) == len(reference) <= capacity
        assert list(shard.cache) == reference  # same recency order


class TestCacheNew:
    def test_new_key_becomes_most_recent_and_evicts_the_least_recent(self):
        shard = ResolverShard(0, cache_capacity=2)
        shard.cache_new("/c/0", 9)
        shard.cache_new("/c/1", 0)
        assert list(shard.cache.items()) == [("/c/0", 9), ("/c/1", 0)]
        assert shard.lookup("/c/0") == 9  # a hit turns /c/0 most recent
        shard.cache_new("/c/2", 7)
        assert list(shard.cache.items()) == [("/c/0", 9), ("/c/2", 7)]
        shard.cache_new("/c/3", 7)
        assert list(shard.cache) == ["/c/2", "/c/3"]

    def test_zero_capacity_keeps_nothing(self):
        shard = ResolverShard(0, cache_capacity=0)
        shard.cache_new("/c/0", 9)
        assert not shard.cache and shard.lookup("/c/0") is None


class TestRecordCacheThroughRequests:
    def deployment(self, capacity, keys):
        """Line topology with every shard's cache shrunk after construction."""
        deployment = Deployment(line_topology(), resolver_count=1)
        for site in deployment.sites.values():
            for shard in site.shards:
                shard.cache_capacity = capacity
        deployment.register_bulk((key, 5) for key in keys)
        return deployment

    def shortcuts(self, deployment, keys):
        """Whether each request of consumer 0 for ``keys`` skipped the TLD."""
        return [deployment.resolve_and_fetch(0, parse_name(key)).shortcut_taken
                for key in keys]

    def test_capacity_one_evicts_the_previous_name(self):
        deployment = self.deployment(1, ["/a", "/b"])
        cache = deployment.sites[1].shards[0].cache
        assert self.shortcuts(deployment, ["/a", "/a"]) == [False, True]
        assert list(cache) == ["/a"]
        assert self.shortcuts(deployment, ["/b"]) == [False]
        assert list(cache) == ["/b"]
        # /a was evicted, so its next request takes the TLD stages again
        a = deployment.resolve_and_fetch(0, parse_name("/a"))
        assert [stage for stage, _ in a.steps] == [
            STAGE_CONSUMER_TO_CLUSTER, STAGE_RESOLVER_TO_TLD, STAGE_TLD_TO_NAMESERVER,
            STAGE_FETCH, STAGE_DATA_RETURN]
        assert list(cache) == ["/a"]
        # a cached hit, then a new name: the hit key is the one evicted
        assert self.shortcuts(deployment, ["/a", "/b", "/a"]) == [True, False, False]
        assert list(cache) == ["/a"]
        assert deployment.sites[4].shards[0].cache == {}  # the home site's records are authoritative

    def test_cached_hit_survives_the_next_new_name_in_lru_order(self):
        deployment = self.deployment(2, ["/a", "/b", "/c"])
        cache = deployment.sites[1].shards[0].cache
        # the hit on /a makes /b the least recent entry, so /c evicts /b
        assert self.shortcuts(deployment, ["/a", "/b", "/a", "/c"]) == [
            False, False, True, False]
        assert list(cache) == ["/a", "/c"]
        assert self.shortcuts(deployment, ["/a", "/b", "/c"]) == [True, False, False]
        assert list(cache) == ["/b", "/c"]


def with_hierarchy_roles(topology):
    """The graph with nodes 0 to 4 as resolver, tld, nameserver, a second
    resolver and a producer; the rest keep their roles."""
    roles = {0: "resolver", 1: "tld", 2: "nameserver", 3: "resolver", 4: "producer"}
    nodes = [NodeDescriptor(nid, nd.label, roles.get(nid, nd.role))
             for nid, nd in topology.nodes.items()]
    return Topology.build(nodes, topology.links.values())


def walked(topology, table, src, dst, bits):
    """Hop count and per-link transit sum along ``table``'s path."""
    path = table.path(src, dst)
    transit = sum(link_transit_ns(topology.link_between(a, b), bits)
                  for a, b in zip(path, path[1:]))
    return len(path) - 1, transit


TLD, NAMESERVER, SITES, PRODUCER = 1, 2, (0, 3), 4


class TestLegMemo:
    def test_memoized_legs_equal_hop_by_hop_sums_on_unequal_delays(self):
        # every consumer, ingress and fetch entry holds its Interest's
        # walk out and its reply's walk back, each on its own path; an
        # entry keeps one hop count, which needs the two walks' to agree
        rng = random.Random(11)
        for _ in range(4):
            topo = with_hierarchy_roles(varied_delay_graph(rng)[0])
            deployment = Deployment(topo, resolver_count=1)
            fresh = PathTable(topo)

            def trip(a, b, reply_bits):
                out_hops, out_ns = walked(topo, fresh, a, b, INTEREST_BITS)
                back_hops, back_ns = walked(topo, fresh, b, a, reply_bits)
                assert back_hops == out_hops
                return out_hops, out_ns, back_ns

            for consumer in topo.nodes:
                ingress = min((fresh.distance(consumer, site), site) for site in SITES)[1]
                hops, out_ns, back_ns = trip(consumer, ingress, DEFAULT_PAYLOAD_BITS)
                leg = deployment._consumer_leg(consumer)
                assert leg == (deployment.sites[ingress], (STAGE_CONSUMER_TO_CLUSTER, hops),
                               hops, out_ns, back_ns, {})
                assert leg[5] is deployment._fetch_legs[ingress]
                assert deployment._consumer_legs[consumer] is leg
            ns_hops, ns_out, ns_back = trip(TLD, NAMESERVER, LOCATOR_REPLY_BITS)
            for ingress in SITES:
                hops, out_ns, back_ns = trip(ingress, TLD, LOCATOR_REPLY_BITS)
                expected = ((STAGE_RESOLVER_TO_TLD, hops), (STAGE_TLD_TO_NAMESERVER, ns_hops),
                            out_ns + back_ns + ns_out + ns_back)
                assert deployment._tld_leg(ingress) == expected
                assert deployment._tld_legs[ingress] == expected
                for producer in topo.nodes:
                    hops, out_ns, back_ns = trip(ingress, producer, DEFAULT_PAYLOAD_BITS)
                    expected = ((STAGE_FETCH, hops), hops, out_ns + back_ns)
                    assert deployment._fetch_leg(ingress, producer) == expected
                    assert deployment._fetch_legs[ingress][producer] == expected
            assert len(deployment._consumer_legs) == len(topo.nodes)
            assert set(deployment._tld_legs) == set(deployment._fetch_legs) == set(SITES)
            assert all(len(fetches) == len(topo.nodes)
                       for fetches in deployment._fetch_legs.values())

    def test_deployment_shares_the_topology_path_table(self):
        topo = line_topology()
        assert Deployment(topo).paths is topo.paths


class TestTransitTable:
    def test_entries_equal_link_transit_ns_on_unequal_delays(self):
        rng = random.Random(31)
        graphs = [with_hierarchy_roles(varied_delay_graph(rng)[0]) for _ in range(4)]
        graphs += [role_complete_graph(rng, slow=True) for _ in range(4)]
        sizes = (INTEREST_BITS, LOCATOR_REPLY_BITS, DEFAULT_PAYLOAD_BITS)
        for topo in graphs:
            deployment = Deployment(topo, resolver_count=1)
            assert sorted(topo.transit) == sorted(sizes)
            for bits in sizes:
                assert set(topo.transit[bits]) == set(topo.links)
                for link in topo.links.values():
                    a, b = link.endpoint_a, link.endpoint_b
                    ns = link_transit_ns(topo.link_between(a, b), bits)
                    assert topo.transit[bits][link.key] == ns
                    # a one-hop leg reads the entry in either direction
                    assert deployment._leg(a, b, bits) == deployment._leg(b, a, bits) == (1, ns)


class TestRouteMemo:
    def test_mutating_an_outcomes_steps_leaves_the_next_unchanged(self):
        # the memo hands out ready-made step tuples, never a shared list
        names = [parse_name(f"/video/m{i}") for i in range(3)]
        requests = names + names + [parse_name("/nope/x")] * 2

        def outcomes(mutate):
            deployment = Deployment(line_topology(), resolver_count=1)
            deployment.register_bulk((name.canonical_text, 5) for name in names)
            seen = []
            for name in requests:
                outcome = deployment.resolve_and_fetch(0, name)
                seen.append((outcome.producer, list(outcome.steps), outcome.latency_ns))
                if mutate:
                    outcome.steps[0] = ("mutated", -1)
                    outcome.steps.append(("mutated", -2))
                    del outcome.steps[1]
            return seen

        seen = outcomes(mutate=True)
        assert [steps[1][0] for _, steps, _ in seen] == (
            [STAGE_RESOLVER_TO_TLD] * 3 + [STAGE_FETCH] * 3 + [STAGE_RESOLVER_TO_TLD] * 2)
        assert seen == outcomes(mutate=False)

    def test_oteglobe_s3_sweep_memo_sizes_and_path_walks(self, monkeypatch):
        deployments = []
        register_bulk = Deployment.register_bulk

        def register(deployment, pairs):
            deployments.append(deployment)
            return register_bulk(deployment, pairs)

        walks = []
        real_path = PathTable.path

        def path(table, a, b):
            walks.append((a, b))
            return real_path(table, a, b)

        monkeypatch.setattr(Deployment, "register_bulk", register)
        monkeypatch.setattr(PathTable, "path", path)
        report = run_scenario(ScenarioConfig(scenario="s3", content_count=20_000,
                                             schemes=("balancedn",)))
        assert len(report.records) == 14_520
        [deployment] = deployments
        assert len(deployment._consumer_legs) == 242
        assert len(deployment._tld_legs) == 61
        # the round-trip memo this one replaced held 3,964 entries and
        # walked 7,928 paths
        fetches = sum(len(legs) for legs in deployment._fetch_legs.values())
        assert fetches <= 3_660
        assert 242 + 61 + 1 + fetches <= 3_964
        assert len(walks) <= 7_928


class TestTraffic:
    def test_one_pass_counts_equal_the_properties(self):
        rng = random.Random(29)
        cases = {"cold": 0, "shortcut": 0, "unregistered": 0}
        for _ in range(4):
            topo = with_hierarchy_roles(varied_delay_graph(rng)[0])
            deployment = Deployment(topo, resolver_count=2)
            deployment.register_bulk((f"/video/c{consumer}", PRODUCER)
                                     for consumer in topo.nodes)
            for consumer in topo.nodes:
                for name in (f"/video/c{consumer}", f"/video/c{consumer}", "/nope/x"):
                    outcome = deployment.resolve_and_fetch(consumer, parse_name(name))
                    assert outcome.traffic() == (outcome.interest_traversals,
                                                 outcome.data_traversals,
                                                 outcome.bits_moved)
                    cases["unregistered" if outcome.producer is None else
                          "shortcut" if outcome.shortcut_taken else "cold"] += 1
        assert min(cases.values()) >= 10, cases


def reference_outcome(topology, table, consumer, producer, shortcut, payload_bits=1024):
    """What resolve_and_fetch must report, walked stage by stage.

    ``producer`` None is an unregistered name: the flow stops once the
    nameserver's negative reply is back at the ingress.  The ingress is
    the consumer's nearest site, the lower id on a tie.
    """
    ingress = min((table.distance(consumer, site), site) for site in SITES)[1]
    forward = [(STAGE_CONSUMER_TO_CLUSTER, consumer, ingress)]
    replies = []
    if not shortcut:
        forward += [(STAGE_RESOLVER_TO_TLD, ingress, TLD),
                    (STAGE_TLD_TO_NAMESERVER, TLD, NAMESERVER)]
        replies += [(NAMESERVER, TLD, LOCATOR_REPLY_BITS), (TLD, ingress, LOCATOR_REPLY_BITS)]
    returns = []
    if producer is not None:
        forward.append((STAGE_FETCH, ingress, producer))
        returns = [(producer, ingress, payload_bits), (ingress, consumer, payload_bits)]
    steps = []
    interest = data = latency = bits_moved = 0
    for stage, src, dst in forward:
        hops, transit = walked(topology, table, src, dst, INTEREST_BITS)
        steps.append((stage, hops))
        interest += hops
        latency += transit
        bits_moved += hops * INTEREST_BITS
    for src, dst, bits in replies + returns:
        hops, transit = walked(topology, table, src, dst, bits)
        data += hops
        latency += transit
        bits_moved += hops * bits
    if producer is not None:
        steps.append((STAGE_DATA_RETURN, sum(walked(topology, table, src, dst, bits)[0]
                                             for src, dst, bits in returns)))
    return (producer, steps, shortcut, producer is not None and latency < PIT_LIFETIME_NS,
            interest, data, latency, bits_moved)


def observed(outcome):
    return (outcome.producer, outcome.steps, outcome.shortcut_taken, outcome.satisfied,
            outcome.interest_traversals, outcome.data_traversals,
            outcome.latency_ns, outcome.bits_moved)


def one_at_a_time(texts):
    """Names as ``parse_name`` makes them, each hashed on its first CRC read."""
    return [parse_name(text) for text in texts]


class TestResolveAgainstReference:
    def resolve_against_reference(self, make_names):
        """Every outcome of the request stream, each checked against its walk.

        Each consumer asks twice for a name of its own and once for an
        unregistered one; a name is in the shard of the producer's site
        and, after its first lookup, cached in the ingress's shard.
        ``make_names`` turns the stream's texts into its names.
        """
        rng = random.Random(23)
        cases = {"cold": 0, "shortcut": 0, "unregistered": 0,
                 "own_ingress_cold": 0, "unregistered_off_site": 0}
        seen = []
        for _ in range(12):
            topo = with_hierarchy_roles(varied_delay_graph(rng)[0])
            table = PathTable(topo)
            deployment = Deployment(topo, resolver_count=2)
            deployment.register_bulk((f"/video/c{consumer}", PRODUCER)
                                     for consumer in topo.nodes)
            home = min((table.distance(PRODUCER, site), site) for site in SITES)[1]
            requests = []  # (consumer, name text, the reference outcome)
            for consumer in topo.nodes:
                ingress = min((table.distance(consumer, site), site) for site in SITES)[1]
                for repeat in (False, True):
                    shortcut = repeat or ingress == home
                    requests.append((consumer, f"/video/c{consumer}", reference_outcome(
                        topo, table, consumer, PRODUCER, shortcut)))
                    cases["shortcut" if shortcut else "cold"] += 1
                    if consumer == ingress and not shortcut:
                        cases["own_ingress_cold"] += 1
                requests.append((consumer, "/nope/x", reference_outcome(
                    topo, table, consumer, None, False)))
                cases["unregistered"] += 1
                if consumer != ingress:
                    cases["unregistered_off_site"] += 1
            names = make_names(text for _, text, _ in requests)
            for (consumer, _, expected), name in zip(requests, names):
                outcome = observed(deployment.resolve_and_fetch(consumer, name))
                assert outcome == expected
                seen.append(outcome)
        assert min(cases.values()) >= 10, cases
        return seen

    def test_outcomes_equal_stage_by_stage_walks_on_unequal_delays(self):
        self.resolve_against_reference(one_at_a_time)

    def test_batch_hashed_names_resolve_as_lazily_hashed_ones(self):
        # parse_names fills each CRC from crc16_many before the request;
        # parse_name leaves it unset, and the request hashes the name
        lazy, batch = [], []

        def lazily(texts):
            names = one_at_a_time(texts)
            assert all(name._crc == -1 for name in names)
            lazy.extend(names)
            return names

        def batched(texts):
            names = list(parse_names(texts))
            assert all(name._crc >= 0 for name in names)
            batch.extend(names)
            return names

        assert (self.resolve_against_reference(batched)
                == self.resolve_against_reference(lazily))
        assert [name._crc for name in lazy] == [name._crc for name in batch]
        assert [name._crc for name in lazy] == [
            crc16(name.canonical_text.encode()) for name in lazy]


class TestTimingProbe:
    def test_empty_probe_list_rejected(self):
        with pytest.raises(ValueError):
            interleaved_timing_probe([(ResolverShard(0), [])], repetitions=1)

    def test_repetitions_must_be_positive(self):
        with pytest.raises(ValueError):
            interleaved_timing_probe([(ResolverShard(0), [NAME])], repetitions=0)

    def test_interleaved_probe_covers_all_shards(self):
        shards = build_skewed_shards({0: 50, 1: 80}, 2)
        probe_sets = [(s, [parse_name(k) for k in list(s.authoritative)[:20]])
                      for s in shards]
        timings = interleaved_timing_probe(probe_sets, repetitions=3)
        assert set(timings) == {0, 1}
        assert all(t > 0 for t in timings.values())


SKEW_MAPS = {
    2: {0: 40, 1: 2000},
    3: {0: 1000, 2: 30},
    8: {0: 650, **{i: 50 for i in range(1, 8)}},
    16: {0: 300, 5: 40, 15: 90},  # each base reaches only 14 of the 16 shards
    61: {**{i: 5 for i in range(60)}, 60: 200},
}


class TestSynthesizedNames:
    def test_build_skewed_shards_sizes(self):
        for n, loads in SKEW_MAPS.items():
            shards = build_skewed_shards(loads, n)
            assert [s.index for s in shards] == list(range(n))
            assert [len(s.authoritative) for s in shards] == [
                loads.get(i, 0) for i in range(n)]
            assert all(s.cache_capacity == 0 for s in shards)

    def test_names_hash_to_requested_shard(self):
        for n, loads in SKEW_MAPS.items():
            shards = build_skewed_shards(loads, n)
            keys = [key for shard in shards for key in shard.authoritative]
            assert len(set(keys)) == len(keys)
            for shard in shards:
                for key in shard.authoritative:
                    assert crc16_arc_bitwise(key.encode()) % n == shard.index

    @pytest.mark.parametrize("n", sorted(SKEW_MAPS))
    def test_skew_maps_equal_brute_force_reference(self, n):
        shards = build_skewed_shards(SKEW_MAPS[n], n)
        assert ([list(shard.authoritative) for shard in shards]
                == reference_skewed_tables(SKEW_MAPS[n], n))

    @pytest.mark.parametrize("n", [8, 3])
    @pytest.mark.parametrize("start", [0, 1, CRC_CHUNK - 3, 50_000])
    def test_names_equal_per_name_crc16_reference(self, n, start):
        count = CRC_CHUNK + 40  # a window of a shard's table from `start` on
        shards = build_skewed_shards({0: start + count, n - 1: start + count}, n)
        for idx in (0, n - 1):
            window = list(shards[idx].authoritative)[start:]
            assert window == reference_shard_names(idx, count, n, start)

    def test_shard_beyond_every_crc16_value_rejected(self):
        with pytest.raises(ValueError, match="65536"):
            build_skewed_shards({1 << 16: 1}, (1 << 16) + 1)


SUFFIX_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def reference_shard_names(index, count, resolver_count, start):
    """Names start .. start + count - 1 of shard ``index``'s table by brute
    force: bases and suffixes in build_skewed_shards' order, each whole
    name hashed with crc16.  A shard's table is this sequence cut at its
    load, whatever the other shards' loads are."""
    names = []
    i = 0
    while len(names) < start + count:
        base = f"/cat{i % 16}/obj{i:05d}"
        names += [base + a + b for a in SUFFIX_ALPHABET for b in SUFFIX_ALPHABET
                  if crc16((base + a + b).encode()) % resolver_count == index]
        i += 1
    return names[start:start + count]


def reference_skewed_tables(loads, resolver_count):
    """build_skewed_shards' names by brute force: the same (base, suffix)
    order, each whole name hashed with crc16, no CRC linearity."""
    need = [loads.get(i, 0) for i in range(resolver_count)]
    tables = [[] for _ in range(resolver_count)]
    i = 0
    while any(need):
        base = f"/cat{i % 16}/obj{i:05d}"
        for a in SUFFIX_ALPHABET:
            for b in SUFFIX_ALPHABET:
                index = crc16((base + a + b).encode()) % resolver_count
                if need[index]:
                    tables[index].append(base + a + b)
                    need[index] -= 1
        i += 1
    return tables

import gc
import hashlib
import heapq
import io
import random

import pytest

from balancedn.core import InterestPacket, parse_name
from balancedn.engine import (DELIVER_INTEREST, EventBudgetError, EventQueue,
                              SchedulingError, Simulation)
from balancedn.node import LOCAL_FACE, PIT_LIFETIME_NS
from balancedn.scenarios import _cross_subnet_pairs
from balancedn.topology import (INTEREST_BITS, LinkDescriptor, NodeDescriptor,
                                Topology, link_transit_ns, load_preset)
from varied_delay import VARIED_SEED, storm_graph, varied_delay_graph

NAME = parse_name("/video/a.mp4")


def two_node_topology():
    nodes = [NodeDescriptor(0, "c", "consumer"), NodeDescriptor(1, "p", "producer")]
    links = [LinkDescriptor(0, 1, 1.0, 1000.0)]
    return Topology.build(nodes, links)


def line_topology(n):
    nodes = [NodeDescriptor(i, f"n{i}", "router") for i in range(n)]
    links = [LinkDescriptor(i, i + 1, 1.0, 1000.0) for i in range(n - 1)]
    return Topology.build(nodes, links)


def star_topology(leaves):
    # hub 0 with leaves 1..leaves
    nodes = [NodeDescriptor(i, f"n{i}", "router") for i in range(leaves + 1)]
    links = [LinkDescriptor(0, i, 1.0, 1000.0) for i in range(1, leaves + 1)]
    return Topology.build(nodes, links)


def event(node):
    return (DELIVER_INTEREST, node, 0, None, 0)


def record_scheduled(queue, before_each=None):
    """Wrap ``queue.schedule`` to record the events it schedules.

    Every event passes through it, each flood copy too.  Returns the
    list the events are appended to, in scheduling order.
    ``before_each``, if given, is called before each event is scheduled.
    """
    scheduled = []
    schedule = queue.schedule

    def recording_schedule(fire_at, event):
        if before_each is not None:
            before_each()
        scheduled.append(event)
        schedule(fire_at, event)

    queue.schedule = recording_schedule
    return scheduled


def pop(queue):
    """Pop ``queue``'s next event as ``run_until`` does: (time, node)."""
    queue.now, _, popped = heapq.heappop(queue._heap)
    return queue.now, popped[1]


def drain(queue):
    return [pop(queue) for _ in range(len(queue))]


def conserved(states):
    """Every request of ``states`` ended exactly one of satisfied or failed."""
    return all(state.satisfied != state.failed for state in states)


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.schedule(5, event(0))
        q.schedule(3, event(1))
        q.schedule(9, event(2))
        q.schedule(5, event(3))
        assert len(q) == 4
        assert drain(q) == [(3, 1), (5, 0), (5, 3), (9, 2)]
        assert len(q) == 0

    def test_run_until_leaves_later_events_queued(self):
        # the request's expiry fires at its lifetime, past the deadline
        sim = Simulation(two_node_topology())
        sim.publish(1, NAME)
        state = sim.inject_request(0, NAME, at=0)
        assert sim.run_until(PIT_LIFETIME_NS - 1) == 3 and state.satisfied
        assert sim.now == state.completed_at
        assert len(sim.queue) == 1 and sim.queue._heap[0][0] == PIT_LIFETIME_NS
        assert sim.run_until(None) == 1 and len(sim.queue) == 0

    def test_simultaneous_events_fifo(self):
        q = EventQueue()
        first, second, third = event(1), event(2), event(3)
        q.schedule(7, first)
        q.schedule(7, second)
        q.schedule(7, third)
        popped = [heapq.heappop(q._heap)[2] for _ in range(len(q))]
        assert len(popped) == 3
        assert all(out is put for out, put in zip(popped, (first, second, third)))

    def test_same_time_event_scheduled_during_drain_fires_after_bucket(self):
        q = EventQueue()
        q.schedule(7, event(1))
        q.schedule(7, event(2))
        assert pop(q) == (7, 1)
        q.schedule(7, event(3))
        assert drain(q) == [(7, 2), (7, 3)]

    def test_scheduling_into_the_past_rejected(self):
        q = EventQueue()
        q.schedule(10, event(0))
        pop(q)
        with pytest.raises(SchedulingError):
            q.schedule(3, event(0))
        assert len(q) == 0 and q.now == 10

    def test_copies_join_their_fire_time_in_order(self):
        # a fan-out over links of two delays: each copy joins its time
        # after the events already there, in scheduling order
        q = EventQueue()
        q.schedule(7, event(1))
        q.schedule(7, event(2))
        q.schedule(5, event(3))
        q.schedule(7, event(4))
        q.schedule(5, event(5))
        assert drain(q) == [(5, 3), (5, 5), (7, 1), (7, 2), (7, 4)]


class TestZeroTransit:
    def test_same_time_delivery_fires_after_its_bucket(self):
        # consumer 0 floods to 1 and 2, both 1 ms away, so both deliveries
        # share one fire time; node 1 forwards to 3 over a link with no delay
        # whose serialization rounds to 0 ns, so that delivery has the same
        # time and must wait for node 2's, which was scheduled first
        nodes = [NodeDescriptor(i, f"n{i}", "router") for i in range(4)]
        links = [LinkDescriptor(0, 1, 1.0, 1000.0), LinkDescriptor(0, 2, 1.0, 1000.0),
                 LinkDescriptor(1, 3, 0.0, 1e9), LinkDescriptor(2, 3, 1.0, 1000.0)]
        topology = Topology.build(nodes, links)
        assert link_transit_ns(topology.link_between(1, 3), INTEREST_BITS) == 0
        out = io.StringIO()
        sim = Simulation(topology, log=out)
        sim.inject_request(0, NAME, at=0)
        sim.run_until(None)
        first = [line.split() for line in out.getvalue().splitlines()[:4]]
        t = str(1_000_320)
        assert first == [["0", "request_injection", "0", "/video/a.mp4", "0"],
                         [t, "deliver_interest", "1", "/video/a.mp4", "1"],
                         [t, "deliver_interest", "2", "/video/a.mp4", "1"],
                         [t, "deliver_interest", "3", "/video/a.mp4", "2"]]
        assert sim.nodes[3].duplicates_suppressed == 1  # node 2's copy, 1 ms later


class TestLinkTransit:
    def test_default_link_and_payload(self):
        # 1 ms delay + 1024 bits at 1000 Mb/s = 1.001024 ms exactly
        link = LinkDescriptor(0, 1, 1.0, 1000.0)
        assert link_transit_ns(link, 1024) == 1_001_024

    def test_zero_delay_leaves_serialization_only(self):
        link = LinkDescriptor(0, 1, 0.0, 1000.0)
        assert link_transit_ns(link, 1024) == 1_024

    def test_interest_serialization(self):
        link = LinkDescriptor(0, 1, 1.0, 1000.0)
        assert link_transit_ns(link, INTEREST_BITS) == 1_000_320


class TestTransmit:
    def test_delivery_stamps_hop_and_trace(self):
        interest = InterestPacket(NAME, nonce=1, trace=(0,))
        delivered = interest.delivered_to(1)
        assert len(delivered.trace) - 1 == 1
        assert delivered.trace == (0, 1)
        assert delivered.nonce == interest.nonce


class TestRunUntil:
    def test_empty_queue_processes_nothing(self):
        sim = Simulation(two_node_topology())
        assert sim.run_until(None) == 0

    def test_two_node_request_event_count(self):
        # hand enumeration: injection, interest delivery at the producer,
        # data delivery at the consumer, and the consumer's PIT expiry
        sim = Simulation(two_node_topology())
        sim.publish(1, NAME)
        state = sim.inject_request(0, NAME, at=0)
        assert sim.run_until(None) == 4
        flow = sim.flow_stats(NAME)
        assert state.satisfied and state.path_hops == 1
        assert flow.interest_traversals == 1 and flow.data_traversals == 1
        assert state.completed_at == 1_000_320 + 1_001_024

    def test_self_served_request_gets_its_timer_event(self):
        # the consumer publishes the name it asks for: the injection answers
        # it at once, and its lifetime timer still fires and does nothing
        sim = Simulation(two_node_topology())
        sim.publish(0, NAME)
        state = sim.inject_request(0, NAME, at=0)
        assert sim.run_until(None) == 2  # the injection and its timer
        assert state.satisfied and not state.failed
        assert state.path_hops == 0 and state.completed_at == 0
        assert sim.failed == 0 and conserved([state])

    def test_deadline_leaves_future_events_queued(self):
        sim = Simulation(two_node_topology())
        sim.publish(1, NAME)
        sim.inject_request(0, NAME, at=0)
        assert sim.run_until(500_000) == 1  # only the injection fires
        assert len(sim.queue) > 0

    def test_unsatisfied_request_fails_at_pit_expiry(self):
        sim = Simulation(two_node_topology())  # nothing published
        state = sim.inject_request(0, NAME, at=0)
        sim.run_until(None)
        assert state.failed and not state.satisfied
        assert sim.failed == 1 and sim.satisfied == 0

    def test_identical_seeds_replay_identical_event_logs(self):
        logs = []
        for _ in range(2):
            out = io.StringIO()
            sim = Simulation(two_node_topology(), seed=42, log=out)
            sim.publish(1, NAME)
            sim.inject_request(0, NAME, at=0)
            sim.run_until(None)
            logs.append(out.getvalue())
        assert logs[0] == logs[1] and logs[0]

    def test_different_seeds_differ_only_in_nonces(self):
        # event structure is identical; this guards nonce stream ownership
        counts = []
        for seed in (1, 2):
            sim = Simulation(two_node_topology(), seed=seed)
            sim.publish(1, NAME)
            sim.inject_request(0, NAME, at=0)
            counts.append(sim.run_until(None))
        assert counts[0] == counts[1]


class TestConservation:
    def test_flood_requests_all_accounted(self):
        rng = random.Random(3)
        nodes = [NodeDescriptor(i, f"n{i}", "router") for i in range(12)]
        links = []
        seen = set()
        for i in range(1, 12):
            parent = rng.randrange(i)
            links.append(LinkDescriptor(parent, i, 1.0, 1000.0))
            seen.add((parent, i))
        for a, b in ((0, 11), (3, 9)):
            if (a, b) not in seen:
                links.append(LinkDescriptor(a, b, 1.0, 1000.0))
        topo = Topology.build(nodes, links)
        sim = Simulation(topo)
        served = parse_name("/served/x")
        sim.publish(11, served)
        states = [sim.inject_request(0, served, at=0),
                  sim.inject_request(2, parse_name("/missing/x"), at=0)]
        sim.run_until(None)
        assert [(s.satisfied, s.failed) for s in states] == [(True, False), (False, True)]
        assert sim.satisfied == 1 and sim.failed == 1
        assert conserved(states)

    def test_pending_request_breaks_conservation(self):
        sim = Simulation(two_node_topology())  # nothing published
        state = sim.inject_request(0, NAME, at=0)
        sim.run_until(500_000)
        assert not conserved([state])
        sim.run_until(None)
        assert sim.failed == 1 and conserved([state])

    def test_repeat_while_pending_is_rejected(self):
        sim = Simulation(two_node_topology())
        sim.publish(1, NAME)
        first = sim.inject_request(0, NAME, at=0)
        with pytest.raises(ValueError, match=r"consumer 0 .*/video/a\.mp4"):
            sim.inject_request(0, NAME, at=0)
        sim.run_until(None)
        assert first.satisfied and sim.requests == {(NAME.canonical_text, 0): first}
        assert conserved([first])

    def test_repeat_after_satisfied_keeps_conservation(self):
        sim = Simulation(two_node_topology())
        sim.publish(1, NAME)
        first = sim.inject_request(0, NAME, at=0)
        sim.run_until(None)
        second = sim.inject_request(0, NAME, at=sim.now)
        assert not conserved([first, second])
        sim.run_until(None)
        assert first.satisfied and second.satisfied
        assert second is not first and sim.satisfied == 2
        assert conserved([first, second])


class TestRejectedInjection:
    # a rejected call must leave the run as if it had never been made
    OTHER = parse_name("/video/b.mp4")

    def served_nsfnet(self):
        sim = Simulation(load_preset("nsfnet"))
        sim.publish(44, NAME)
        sim.publish(45, self.OTHER)
        sim.inject_request(11, NAME, at=0)
        sim.run_until(None)
        return sim

    def assert_retry_matches_clean_run(self, sim, bad_call, exc):
        clean = self.served_nsfnet()
        first = sim.requests[NAME.canonical_text, 11]
        with pytest.raises(exc):
            bad_call()
        assert sim.requests == {(NAME.canonical_text, 11): first} and conserved([first])
        assert sim.rng.getstate() == clean.rng.getstate()
        retried = sim.inject_request(12, self.OTHER, at=sim.now)
        clean.inject_request(12, self.OTHER, at=clean.now)
        assert sim.rng.getstate() == clean.rng.getstate()
        assert sim.run_until(None) == clean.run_until(None)
        assert retried.satisfied and conserved([first, retried])
        assert list(sim.requests.values()) == [first, retried]

    def test_unknown_consumer_is_rejected_before_recording(self):
        sim = self.served_nsfnet()
        self.assert_retry_matches_clean_run(
            sim, lambda: sim.inject_request(9999, self.OTHER, at=sim.now), ValueError)
        assert (self.OTHER.canonical_text, 9999) not in sim.requests

    def test_injection_into_the_past_is_rejected_before_recording(self):
        sim = self.served_nsfnet()
        assert sim.now > 0
        self.assert_retry_matches_clean_run(
            sim, lambda: sim.inject_request(12, self.OTHER, at=0), SchedulingError)


class TestAggregatedRequests:
    def test_interest_path_belongs_to_its_own_consumer(self):
        # line 0-1-2-3, producer 3: consumer 1's flood reaches the producer,
        # consumer 0's is absorbed by node 1's entry and served from it
        sim = Simulation(line_topology(4), track_edges=True)
        sim.publish(3, NAME)
        far = sim.inject_request(0, NAME, at=0)
        near = sim.inject_request(1, NAME, at=0)
        sim.run_until(None)
        assert near.satisfied and far.satisfied
        assert near.interest_path == (1, 2, 3)
        assert near.data_path == (3, 2, 1)
        assert far.interest_path == ()
        assert far.data_path == (3, 2, 1, 0)

    def test_simultaneous_second_request_fails_at_its_lifetime(self):
        # NSFNET consumers 11 and 12 share router 0, and 11 also links
        # producer 44.  12's Interest joins 11's entry at router 0, but the
        # producer answers 11's direct copy and drops the copy from router 0
        # as a dead nonce, so no Data comes back to router 0.  With no
        # consumer retransmission, 12 fails at its own lifetime.
        sim = Simulation(load_preset("nsfnet"))
        sim.publish(44, NAME)
        first = sim.inject_request(11, NAME, at=0)
        second = sim.inject_request(12, NAME, at=0)
        sim.run_until(None)
        assert first.satisfied and first.completed_at == 2_001_344
        assert second.failed and second.completed_at == PIT_LIFETIME_NS
        assert sim.failed == 1 and conserved([first, second])

    def test_interest_path_is_the_first_answered_trace(self):
        # both ends of a line publish the name: the near end answers first,
        # and the far end's later answer leaves the request's trace as it is
        sim = Simulation(line_topology(5), track_edges=True)
        sim.publish(0, NAME)
        sim.publish(4, NAME)
        state = sim.inject_request(1, NAME, at=0)
        sim.run_until(None)
        assert state.satisfied and state.path_hops == 1
        assert state.interest_path == (1, 0) and state.data_path == (0, 1)
        assert sim.flow_stats(NAME).data_traversals == 4  # the far answer came back too

    def test_traces_are_opt_in(self):
        sim = Simulation(line_topology(4))
        sim.publish(3, NAME)
        state = sim.inject_request(0, NAME, at=0)
        sim.run_until(None)
        assert state.satisfied and state.path_hops == 3
        assert state.interest_path == () and state.data_path == ()


def assert_repeats_are_served(topology, first, second, producer):
    # a drained flood, then a second consumer asks for the name, then the
    # first asks again; each request drains within its event budget
    per_request = 2 * (1 + len(topology.nodes) + 6 * len(topology.links))
    sim = Simulation(topology)
    sim.publish(producer, NAME)
    states = []
    for consumer in (first, second, first):
        states.append(sim.inject_request(consumer, NAME, at=sim.now))
        assert sim.run_until(None) <= per_request and len(sim.queue) == 0
    assert [state.satisfied for state in states] == [True, True, True]
    assert sim.satisfied == 3 and conserved(states)


class TestRepeatedRequests:
    def test_nsfnet_repeat_after_another_consumer_is_served(self):
        # consumer 11's flood leaves live entries off the Data's path; 4 s
        # later they are past the suppression interval, so neither 12's
        # request nor 11's repeat is absorbed by them
        assert_repeats_are_served(load_preset("nsfnet"), 11, 12, 44)

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="a retransmission's fresh PIT entry keeps the old "
                              "entry's in-faces, so its Data also takes stale faces")
    def test_repeat_moves_one_data_copy_per_path_hop(self):
        sim = Simulation(load_preset("nsfnet"))
        sim.publish(44, NAME)
        for consumer in (11, 12):
            sim.inject_request(consumer, NAME, at=sim.now)
            sim.run_until(None)
        before = sim.flow_stats(NAME).data_traversals
        state = sim.inject_request(11, NAME, at=sim.now)
        sim.run_until(None)
        assert state.satisfied and state.path_hops == 1
        assert sim.flow_stats(NAME).data_traversals - before == state.path_hops

    @pytest.mark.parametrize("preset", ["nsfnet", "oteglobe"])
    def test_repeats_are_served_on_the_presets(self, preset):
        topology = load_preset(preset)
        consumers = topology.nodes_with_role("consumer")
        producers = topology.nodes_with_role("producer")
        rng = random.Random(VARIED_SEED)
        for _ in range(20):
            first, second = rng.sample(consumers, 2)
            assert_repeats_are_served(topology, first, second, rng.choice(producers))

    def test_repeats_are_served_on_varied_delay_graphs(self):
        rng = random.Random(VARIED_SEED)
        pick = random.Random(VARIED_SEED + 1)
        for _ in range(200):
            topology, first, producer = varied_delay_graph(rng)
            second = pick.choice([n for n in topology.nodes if n not in (first, producer)])
            assert_repeats_are_served(topology, first, second, producer)


class TestLazyPitExpiry:
    def test_local_request_joining_transit_entry_still_fails(self):
        sim = Simulation(line_topology(3))  # nothing published
        first = sim.inject_request(2, NAME, at=0)
        sim.run_until(2_000_000)  # node 1 now holds a transit entry
        transit = sim.nodes[1].pit[NAME.canonical_text]
        assert transit.expiry == 1_000_320 + PIT_LIFETIME_NS
        joined = sim.inject_request(1, NAME, at=2_000_000)
        sim.run_until(None)
        assert first.failed and joined.failed
        # the joined request fails at its own lifetime, not at the entry's
        assert joined.completed_at == 2_000_000 + PIT_LIFETIME_NS
        assert sim.failed == 2 and conserved([first, joined])

    def test_lone_consumer_request_fails_at_its_expiry(self):
        # a one-node topology: the local face has no flood faces, so no
        # entry is left, and the request's own timer fails it
        topology = Topology.build([NodeDescriptor(0, "c0", "consumer")], [])
        sim = Simulation(topology)
        state = sim.inject_request(0, NAME, at=0)
        assert sim.run_until(None) == 2  # the injection and the expiry
        assert state.failed and not state.satisfied
        assert state.completed_at == PIT_LIFETIME_NS
        assert sim.failed == 1 and sim.satisfied == 0
        assert conserved([state])

    def test_each_request_gets_one_expiry_event(self):
        sim = Simulation(line_topology(5))
        sim.publish(4, NAME)
        sim.inject_request(0, NAME, at=0)
        # injection, 4 Interest and 4 Data deliveries, the consumer's expiry
        assert sim.run_until(None) == 10

    def test_sequential_floods_keep_pit_bounded(self):
        topology = load_preset("oteglobe")
        consumers = topology.nodes_with_role("consumer")
        producers = topology.nodes_with_role("producer")
        sim = Simulation(topology)
        rng = random.Random(7)
        peak = 0
        for i in range(50):
            name = parse_name(f"/seq/flood{i}")
            sim.publish(rng.choice(producers), name)
            state = sim.inject_request(rng.choice(consumers), name, at=sim.now)
            sim.run_until(None)
            assert state.satisfied
            peak = max(peak, sum(len(node.pit) for node in sim.nodes.values()))
        assert 0 < peak <= 2 * len(topology.nodes)  # a flood leaves <= |V| entries


class TestFloodAccounting:
    def test_oteglobe_flood_events_are_pinned(self):
        # one flood over all 427 links from consumer 122 to producer 379:
        # 428 Interest copies sent, 365 of them to leaves.  The 364 to
        # leaves other than the producer are not events, so the events are
        # the injection, 64 Interest deliveries, 17 Data deliveries and the
        # consumer's expiry event
        sim = Simulation(load_preset("oteglobe"))
        sim.publish(379, NAME)
        state = sim.inject_request(122, NAME, at=0)
        assert sim.run_until(None) == 83
        flow = sim.flow_stats(NAME)
        assert (sim.processed, flow.interest_traversals, flow.data_traversals) == (83, 428, 17)
        assert state.satisfied and state.path_hops == 17

    def test_oteglobe_flood_event_log_is_pinned(self):
        # every event but the consumer's expiry is logged, in dispatch order
        out = io.StringIO()
        sim = Simulation(load_preset("oteglobe"), log=out)
        sim.publish(379, NAME)
        sim.inject_request(122, NAME, at=0)
        assert sim.run_until(None) == 83
        log = out.getvalue()
        assert len(log.splitlines()) == 82
        assert (hashlib.sha256(log.encode()).hexdigest()
                == "ebad33c2ba635f80cb6072f6f5c300c7c8cb636642770158582398d43dfc209d")

    def test_queue_depth_mid_bucket_counts_undispatched_events(self):
        # each event is a node call here but the final expiry, which
        # schedules nothing; at every scheduling call, each flood copy's
        # too, the queue holds what was scheduled and not yet popped for
        # dispatch
        sim = Simulation(load_preset("oteglobe"))
        queue = sim.queue
        taken, depths = [0], []
        scheduled = record_scheduled(
            queue, lambda: depths.append((len(queue), len(scheduled) - taken[0])))

        def counted(handler):
            def call(*args):
                taken[0] += 1
                return handler(*args)
            return call

        for node in sim.nodes.values():
            node.on_interest, node.on_data = counted(node.on_interest), counted(node.on_data)
        sim.publish(379, NAME)
        sim.inject_request(122, NAME, at=0)
        assert sim.run_until(None) == 83 == len(scheduled) == taken[0] + 1
        assert all(depth == expected for depth, expected in depths)
        assert max(depth for depth, _ in depths) > 1

    def test_stepped_drain_matches_one_drain(self):
        # one fire time per step; the queue counts what was scheduled and
        # not yet run after every step
        whole = Simulation(load_preset("oteglobe"))
        whole.publish(379, NAME)
        whole_state = whole.inject_request(122, NAME, at=0)
        whole.run_until(None)

        sim = Simulation(load_preset("oteglobe"))
        queue = sim.queue
        scheduled = record_scheduled(queue)
        sim.publish(379, NAME)
        state = sim.inject_request(122, NAME, at=0)
        steps = 0
        while len(queue):
            assert sim.run_until(queue._heap[0][0]) > 0
            steps += 1
            assert len(queue) == len(scheduled) - sim.processed
        assert steps > 1 and len(scheduled) == sim.processed == whole.processed == 83
        assert sim.flow_stats(NAME) == whole.flow_stats(NAME)
        assert (state.satisfied, state.path_hops, state.completed_at) == (
            whole_state.satisfied, whole_state.path_hops, whole_state.completed_at)

    def test_oteglobe_flood_pit_entries_are_one_tracked_object(self):
        # the collector tracks a PIT entry, but nothing of its own that it
        # refers to; the reclaim FIFO holds each live entry and each live
        # dead nonce once, and the entries the Data consumed.  Leaves
        # keep no entry, so one is left on each non-leaf node the flood
        # reached but the Data did not pass
        topology = load_preset("oteglobe")
        sim = Simulation(topology)
        sim.publish(379, NAME)
        state = sim.inject_request(122, NAME, at=0)
        assert sim.run_until(None) == 83
        live, dead = [], []
        for node in sim.nodes.values():
            for entry in node.pit.values():
                referents = gc.get_referents(entry)
                assert not [r for r in referents if isinstance(r, (set, tuple, list))]
                assert all(r is node.pit or r is type(entry) or not gc.is_tracked(r)
                           for r in referents)
                assert not entry.in_faces & 1 << LOCAL_FACE
                live.append(entry)
            dead += [(node, pair, expiry) for pair, expiry in node.dead_nonces.items()]
        non_leaves = [nid for nid, nbrs in topology.adjacency.items() if len(nbrs) > 1]
        assert len(live) == len(non_leaves) - (state.path_hops - 1) == 45
        assert len(dead) == 18
        fifo = sim.nodes[122].pit_reclaim
        records = [item for item in fifo if type(item) is tuple]
        entries = [item for item in fifo if type(item) is not tuple]
        current = [entry for entry in entries if entry.pit.get(entry.key) is entry]
        assert sorted(map(id, current)) == sorted(map(id, live))
        assert ({(node.id, pair, expiry) for expiry, node, pair in records}
                == {(node.id, pair, expiry) for node, pair, expiry in dead})
        assert len(records) == len(dead)
        # one entry consumed on each node between producer and consumer,
        # the consumer's own included
        assert len(entries) - len(current) == state.path_hops


class TestLeafDeliveries:
    # a flood's copy to a leaf is an event only if the leaf publishes the
    # name
    OTHER = parse_name("/video/b.mp4")

    @staticmethod
    def delivered(log):
        return [(line.split()[2], line.split()[3]) for line in log.getvalue().splitlines()
                if line.split()[1] == "deliver_interest"]

    @pytest.mark.parametrize("track_edges", [True, False])
    def test_inert_leaf_gets_no_event_but_its_copy_counts(self, track_edges):
        # consumer 1 asks; leaf 2 publishes the name, leaf 3 only another
        # name and leaf 4 nothing
        out = io.StringIO()
        sim = Simulation(star_topology(4), log=out, track_edges=track_edges)
        sim.publish(2, NAME)
        sim.publish(3, self.OTHER)
        state = sim.inject_request(1, NAME, at=0)
        # the injection, the hub, producer 2, two Data deliveries, the expiry
        assert sim.run_until(None) == 6
        assert self.delivered(out) == [("0", "/video/a.mp4"), ("2", "/video/a.mp4")]
        assert sim.flow_stats(NAME).interest_traversals == 4
        assert sim.flow_stats(NAME).bits_moved == 4 * INTEREST_BITS + 2 * 1024
        assert state.satisfied and state.path_hops == 2
        if track_edges:
            key = NAME.canonical_text
            assert sim.edge_interest_counts == {(1, 0, key): 1, (0, 2, key): 1,
                                                (0, 3, key): 1, (0, 4, key): 1}
            assert state.interest_path == (1, 0, 2)

    def test_leaf_with_a_pending_entry_gets_no_copy(self):
        # leaves 1 and 3 each ask for a name nobody publishes; at the hub
        # each flood reaches the other's leaf, which holds its own entry
        # but could only join it, and leaf 2, which holds none
        out = io.StringIO()
        sim = Simulation(star_topology(3), log=out)
        first = sim.inject_request(1, NAME, at=0)
        second = sim.inject_request(3, self.OTHER, at=0)
        # two injections, two hub deliveries, two expiries
        assert sim.run_until(None) == 6
        assert sorted(self.delivered(out)) == [("0", "/video/a.mp4"), ("0", "/video/b.mp4")]
        assert sim.flow_stats(NAME).interest_traversals == 3
        assert first.failed and second.failed and conserved([first, second])

    def test_leaf_asking_for_the_same_name_gets_no_copy(self):
        # leaf 2 publishes the name and leaves 1 and 3 ask for it at once:
        # 3's Interest joins 1's entry at the hub, so the Data serves both,
        # and 1's copy to leaf 3 could only join 3's own entry
        out = io.StringIO()
        sim = Simulation(star_topology(3), log=out)
        sim.publish(2, NAME)
        first = sim.inject_request(1, NAME, at=0)
        second = sim.inject_request(3, NAME, at=0)
        # two injections, two hub deliveries, the producer, three Data
        # deliveries, two expiries
        assert sim.run_until(None) == 10
        assert self.delivered(out) == [("0", "/video/a.mp4"), ("0", "/video/a.mp4"),
                                       ("2", "/video/a.mp4")]
        flow = sim.flow_stats(NAME)
        assert (flow.interest_traversals, flow.data_traversals) == (4, 3)
        assert first.satisfied and second.satisfied
        assert first.completed_at == second.completed_at == 4_002_688
        assert conserved([first, second])

    def test_leaf_off_another_router_is_found_by_name(self):
        # consumer 0 and leaf 4 hang off router 1; producer 3 and leaf 5,
        # which publishes another name, off router 2.  Only router 2's
        # leaves publish the name, so only there is a leaf delivered to
        nodes = [NodeDescriptor(i, f"n{i}", "router") for i in range(6)]
        links = [LinkDescriptor(a, b, 1.0, 1000.0)
                 for a, b in ((0, 1), (1, 2), (2, 3), (1, 4), (2, 5))]
        out = io.StringIO()
        sim = Simulation(Topology.build(nodes, links), log=out)
        sim.publish(3, NAME)
        sim.publish(5, self.OTHER)
        state = sim.inject_request(0, NAME, at=0)
        # the injection, routers 1 and 2, the producer, three Data
        # deliveries, the expiry
        assert sim.run_until(None) == 8
        assert self.delivered(out) == [("1", "/video/a.mp4"), ("2", "/video/a.mp4"),
                                       ("3", "/video/a.mp4")]
        flow = sim.flow_stats(NAME)
        assert (flow.interest_traversals, flow.data_traversals) == (5, 3)
        assert state.satisfied and state.path_hops == 3

    def test_publish_while_events_are_queued_is_rejected(self):
        sim = Simulation(star_topology(2))
        sim.inject_request(1, NAME, at=0)
        with pytest.raises(ValueError, match="queued"):
            sim.publish(2, NAME)
        assert not sim.nodes[2].published
        sim.run_until(None)
        sim.publish(2, NAME)
        state = sim.inject_request(1, NAME, at=sim.now)
        sim.run_until(None)
        assert state.satisfied


class TestPublish:
    # a rejected publish stores nothing, and the run goes on as if it had
    # never been called
    @staticmethod
    def assert_unserved(sim):
        state = sim.inject_request(1, NAME, at=0)
        # the injection, the hub and the expiry: leaf 2 gets no copy
        assert sim.run_until(None) == 3
        assert state.failed and len(sim.queue) == 0
        assert sim.run_until(None) == 0 and conserved([state])

    def test_unknown_producer_is_rejected(self):
        sim = Simulation(star_topology(2))
        with pytest.raises(ValueError, match="no node 9"):
            sim.publish(9, NAME)
        assert not any(node.published for node in sim.nodes.values())
        self.assert_unserved(sim)


class TestRunBudget:
    def test_storm_raises_instead_of_hanging(self):
        topology, consumer, producer = storm_graph()
        sim = Simulation(topology)
        sim.publish(producer, NAME)
        sim.inject_request(consumer, NAME, at=0)
        with pytest.raises(EventBudgetError):
            sim.run_until(None)
        per_request = 2 * (1 + len(topology.nodes) + 6 * len(topology.links))
        assert sim.processed == per_request
        assert len(sim.queue) > 0  # the storm was still going

    def test_storm_stepped_by_deadlines_raises_at_the_same_budget(self):
        # the queue never empties between the steps, so the budget spans
        # them: the run raises after the events one drain allows, here
        # after 401 half-second steps, as one unbounded call does
        topology, consumer, producer = storm_graph()
        sim = Simulation(topology)
        sim.publish(producer, NAME)
        sim.inject_request(consumer, NAME, at=0)
        with pytest.raises(EventBudgetError):
            for step in range(1, 1_001):
                sim.run_until(step * 500_000_000)
        per_request = 2 * (1 + len(topology.nodes) + 6 * len(topology.links))
        assert sim.processed == per_request
        assert len(sim.queue) > 0

    def test_raise_mid_bucket_leaves_unrun_events_queued(self):
        # three storming floods, one answered: the budget runs out between
        # two events of one fire time, and every event not run stays queued
        topology, consumer, producer = storm_graph()
        sim = Simulation(topology)
        queue = sim.queue
        scheduled = record_scheduled(queue)
        sim.publish(producer, parse_name("/a"))
        for name in ("/a", "/b", "/c"):
            sim.inject_request(consumer, parse_name(name), at=0)
        with pytest.raises(EventBudgetError):
            sim.run_until(None)
        assert len(queue) == len(scheduled) - sim.processed
        assert queue._heap[0][0] == queue.now


class TestDispatchErrors:
    # an exception raised while an event is dispatched spends that event
    # and leaves every other one queued; a later run goes on from there
    class FailingLog:
        """An event log whose ``k``-th write raises ``OSError``."""

        def __init__(self, k):
            self.k, self.writes = k, 0

        def write(self, text):
            self.writes += 1
            if self.writes == self.k:
                raise OSError(f"write {self.k} failed")

    @pytest.mark.parametrize("k", range(1, 11))
    def test_raise_while_dispatching_loses_no_event(self, k):
        # leaves 1 and 3 ask for two names leaf 2 publishes: ten events
        # are logged, and the k-th write raises while its event runs
        sim = Simulation(star_topology(3), log=self.FailingLog(k))
        scheduled = record_scheduled(sim.queue)
        sim.publish(2, parse_name("/a"))
        sim.publish(2, parse_name("/b"))
        states = [sim.inject_request(1, parse_name("/a"), at=0),
                  sim.inject_request(3, parse_name("/b"), at=0)]
        with pytest.raises(OSError):
            sim.run_until(None)
        assert len(sim.queue) == len(scheduled) - sim.processed
        assert sim._drained_at == 0 < sim.processed  # no drain since the start
        sim.log = None
        sim.run_until(None)
        assert len(sim.queue) == 0 and sim.processed == len(scheduled)
        assert conserved(states)


def flood_model(topology, consumer, producer):
    """What one flood from ``consumer`` to ``producer`` costs, exactly.

    Every node but the producer forwards the first copy of a nonce on all
    its other faces and drops later copies; the producer answers the
    first copy and forwards nothing.  So the first copy reaches each node
    along its fastest route over ``link_transit_ns(link, INTEREST_BITS)``
    (Dijkstra), and the Data goes back along the chain of first-arrival
    predecessors.  Returns the Interest traversals and the set of
    ``(path_hops, latency_ns, bytes_moved)`` over the chains that tie for
    first arrival.  Every link's transit must be positive.
    """
    data_bits = 1024  # every Data packet; written out, not the program's constant
    arrival = {consumer: 0}
    chains = {consumer: {(0, 0)}}  # node -> {(hops, Data ns back to the consumer)}
    heap = [(0, consumer)]
    reached = set()
    traversals = 0
    while heap:
        at, node = heapq.heappop(heap)
        if node in reached:
            continue
        reached.add(node)
        if node == producer:
            continue
        nbrs = topology.adjacency[node]
        traversals += len(nbrs) if node == consumer else len(nbrs) - 1
        for nbr in nbrs:
            link = topology.link_between(node, nbr)
            then = at + link_transit_ns(link, INTEREST_BITS)
            back = link_transit_ns(link, data_bits)
            via = {(hops + 1, ns + back) for hops, ns in chains[node]}
            if nbr not in arrival or then < arrival[nbr]:
                arrival[nbr] = then
                chains[nbr] = via
                heapq.heappush(heap, (then, nbr))
            elif then == arrival[nbr]:
                chains[nbr] |= via
    interest_bits = traversals * INTEREST_BITS
    outcomes = {(hops, arrival[producer] + ns, (interest_bits + hops * data_bits) // 8)
                for hops, ns in chains.get(producer, ())}
    return traversals, outcomes


def assert_flood_matches_model(sim, topology, consumer, producer, name):
    sim.publish(producer, name)
    state = sim.inject_request(consumer, name, at=sim.now)
    sim.run_until(None)
    flow = sim.flow_stats(name)
    traversals, outcomes = flood_model(topology, consumer, producer)
    assert state.satisfied and flow.data_traversals == state.path_hops
    assert flow.interest_traversals == traversals
    assert (state.path_hops, state.completed_at - state.injected_at,
            flow.bits_moved // 8) in outcomes


class TestVariedDelayFloods:
    def test_floods_drain_and_hold_invariants(self):
        rng = random.Random(VARIED_SEED)
        for _ in range(200):
            topology, consumer, producer = varied_delay_graph(rng)
            sim = Simulation(topology, track_edges=True)
            sim.publish(producer, NAME)
            state = sim.inject_request(consumer, NAME, at=0)
            sim.run_until(None)
            flow = sim.flow_stats(NAME)
            assert len(sim.queue) == 0 and state.satisfied
            assert flow.data_traversals == state.path_hops
            assert flow.interest_traversals <= 2 * len(topology.links)
            # every copy sent is counted on its edge, those to inert leaves too
            assert sum(sim.edge_interest_counts.values()) == flow.interest_traversals
            assert all(count == 1 for count in sim.edge_interest_counts.values())

    def test_floods_match_the_exact_model(self):
        # 9 of these floods reach the producer along tied chains, of equal length
        rng = random.Random(VARIED_SEED)
        for _ in range(200):
            topology, consumer, producer = varied_delay_graph(rng)
            assert_flood_matches_model(Simulation(topology), topology, consumer,
                                       producer, NAME)

    def test_oteglobe_s3_floods_match_the_exact_model(self):
        # one simulation, as the s3 sweep runs them, each pair its own name
        topology = load_preset("oteglobe")
        pairs = random.Random(VARIED_SEED).sample(_cross_subnet_pairs(topology), 60)
        sim = Simulation(topology)
        for consumer, producer, slot in pairs:
            assert_flood_matches_model(sim, topology, consumer, producer,
                                       parse_name(f"/s3/obj{slot}"))

    def test_flood_event_logs_are_pinned(self):
        # unequal delays split one node's fan-out over several fire times;
        # the copies of each time must still fire in face order, after the
        # events already due then
        rng = random.Random(VARIED_SEED)
        name = parse_name("/vd/x")
        digest = hashlib.sha256()
        for _ in range(200):
            topology, consumer, producer = varied_delay_graph(rng)
            out = io.StringIO()
            sim = Simulation(topology, log=out)
            sim.publish(producer, name)
            sim.inject_request(consumer, name, at=0)
            sim.run_until(None)
            digest.update(out.getvalue().encode())
        assert (digest.hexdigest()
                == "e5c99080a78eb4ac0226dae374182931b9b5be60acaf5074325f93ce865b2fc2")

    def test_traced_and_untraced_floods_agree(self):
        # tracing copies packets per hop and makes every flood step read
        # its leaf rows; it must not change what happens, nor the logged
        # events
        rng = random.Random(VARIED_SEED)
        for _ in range(200):
            topology, consumer, producer = varied_delay_graph(rng)
            traced, untraced = (flood_run(topology, [(consumer, producer, NAME)], track)
                                for track in (True, False))
            assert traced == untraced

    def test_traced_and_untraced_oteglobe_s3_floods_agree(self):
        # untraced, only the producer's router reads its leaf rows; traced,
        # every node does
        topology = load_preset("oteglobe")
        pairs = [(consumer, producer, parse_name(f"/s3/obj{slot}")) for consumer, producer, slot
                 in random.Random(VARIED_SEED).sample(_cross_subnet_pairs(topology), 4)]
        traced, untraced = (flood_run(topology, pairs, track) for track in (True, False))
        assert traced == untraced


def flood_run(topology, pairs, track_edges):
    """Flood each (consumer, producer, name) of ``pairs`` in turn on one simulation.

    Returns what the run did, its event log included.
    """
    out = io.StringIO()
    sim = Simulation(topology, log=out, track_edges=track_edges)
    outcomes = []
    for consumer, producer, name in pairs:
        sim.publish(producer, name)
        state = sim.inject_request(consumer, name, at=sim.now)
        outcomes.append((sim.run_until(None), sim.flow_stats(name), state.satisfied,
                         state.failed, state.completed_at, state.path_hops))
    return outcomes, sim.processed, sim.duplicates_suppressed, out.getvalue()


def expected_plans(topology, sim, nid):
    """The flood plan of each in-face of ``nid``, from the topology alone.

    Face f > 0 leads to the f-th neighbour by ascending id.  A plan holds
    the rows of every face but the in-face, ascending, and those of them
    that are not leaves.
    """
    rows = []
    for nbr in sorted(topology.adjacency[nid]):
        link = topology.link_between(nid, nbr)
        back = sorted(topology.adjacency[nbr])
        rows.append((nbr, back.index(nid) + 1, link_transit_ns(link, INTEREST_BITS),
                     link_transit_ns(link, 1024), sim.nodes[nbr] if len(back) == 1 else None))
    plans = []
    for in_face in range(len(rows) + 1):
        others = tuple(row for face, row in enumerate(rows, start=1) if face != in_face)
        plans.append((others, tuple(row for row in others if row[4] is None)))
    return rows, plans


class TestFloodPlans:
    """The engine's flood plans are the only fan-out: check every one."""

    def assert_plans(self, topology):
        sim = Simulation(topology)
        for nid in topology.nodes:
            rows, plans = expected_plans(topology, sim, nid)
            assert sim._face_table[nid] == [None] + rows
            assert sim._flood_targets[nid] == plans
            degree = len(topology.adjacency[nid])
            for in_face, plan in enumerate(plans):
                if degree == (in_face != LOCAL_FACE):  # a dead end
                    assert plan == ((), ())

    @pytest.mark.parametrize("preset", ["nsfnet", "oteglobe"])
    def test_preset_plans(self, preset):
        self.assert_plans(load_preset(preset))

    def test_varied_delay_plans(self):
        rng = random.Random(VARIED_SEED)
        for _ in range(200):
            topology, _, _ = varied_delay_graph(rng)
            self.assert_plans(topology)


def every_copy_an_event(sim):
    """Rewrite ``sim``'s flood table so that no row names a leaf.

    Every Interest copy is then an event, as if no leaf were skipped.
    """
    for plans in sim._flood_targets.values():
        plans[:] = [(bare, bare) for bare in (tuple(row[:4] + (None,) for row in rows)
                                              for rows, _ in plans)]


class TestConcurrentRequests:
    # overlapping floods for a few names: they join each other's entries,
    # retransmit past the suppression interval and meet each other's dead
    # nonces.  Skipping the copies to leaves must change no outcome
    NAMES = [parse_name(f"/cc/{i}") for i in range(3)]

    def run(self, topology, producer, requests, reference):
        sim = Simulation(topology)
        if reference:
            every_copy_an_event(sim)
        sim.publish(producer, self.NAMES[0])
        states = [sim.inject_request(consumer, self.NAMES[name], at=at)
                  for at, consumer, name in requests]
        sim.run_until(None)
        assert len(sim.queue) == 0 and conserved(states)
        outcome = ([(s.satisfied, s.failed, s.completed_at, s.path_hops) for s in states],
                   sim.flows, (len(states), sim.satisfied, sim.failed))
        return outcome, sim.processed

    def test_overlapping_floods_match_every_copy_delivered(self):
        rng = random.Random(VARIED_SEED)
        pick = random.Random(VARIED_SEED + 2)
        events, reference_events, satisfied, failed = 0, 0, 0, 0
        for _ in range(200):
            topology, _, producer = varied_delay_graph(rng)
            asks = pick.sample([(node, name) for node in sorted(topology.nodes)
                                for name in range(len(self.NAMES))], 6)
            requests = [(pick.randrange(30_000_000), node, name) for node, name in asks]
            outcome, processed = self.run(topology, producer, requests, False)
            expected, reference_processed = self.run(topology, producer, requests, True)
            assert outcome == expected
            events += processed
            reference_events += reference_processed
            satisfied += outcome[2][1]
            failed += outcome[2][2]
        assert satisfied and failed and events < reference_events

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion runtimes as they complete.
"""

import contextlib
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import balancedn
from balancedn.core import crc16, parse_name
from balancedn.engine import Simulation
from balancedn.resolution import Deployment, ResolverShard
from balancedn.scenarios import ScenarioConfig, run_scenario, synthetic_corpus
from balancedn.topology import (DEFAULT_PAYLOAD_BITS, INTEREST_BITS, LinkDescriptor,
                                NodeDescriptor, PathTable, Topology, link_transit_ns,
                                load_preset)
from crc_reference import crc16_arc_bitwise

CHI_SQUARE_999_7DF = 24.32

# ``python -m`` puts its working directory first on sys.path, so a CLI
# subprocess started there imports the package under test.
SRC = Path(balancedn.__file__).resolve().parents[1]


@contextlib.contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s")
    print(f"\nACCEPTANCE {number} {label}: PASS ({elapsed:.1f}s)")


def random_connected_topology(rng, n):
    nodes = [NodeDescriptor(i, f"n{i}", "router") for i in range(n)]
    links = []
    present = set()
    for i in range(1, n):
        parent = rng.randrange(i)
        links.append(LinkDescriptor(parent, i, 1.0, 1000.0))
        present.add((parent, i))
    for _ in range(rng.randrange(0, n // 2)):
        a, b = rng.randrange(n), rng.randrange(n)
        key = (min(a, b), max(a, b))
        if a != b and key not in present:
            present.add(key)
            links.append(LinkDescriptor(a, b, 1.0, 1000.0))
    return Topology.build(nodes, links)


def test_criterion_1_hash_balance():
    corpus = synthetic_corpus(1_000_000, seed=42)
    encoded = [key.encode() for key in corpus]
    with criterion(1, "hash balance over 8 shards", budget_s=5.0):
        counts = [0] * 8
        for payload in encoded:
            counts[crc16(payload) % 8] += 1
        expected = 125_000
        for index, count in enumerate(counts):
            assert abs(count - expected) <= expected * 0.02, (
                f"shard {index} holds {count}, outside 125000 +/- 2%")
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < CHI_SQUARE_999_7DF, f"chi-square {chi2:.2f}"


def test_criterion_2_crc_conformance():
    rng = random.Random(1)
    longer = [rng.randbytes(rng.randrange(3, 33)) for _ in range(10_000)]
    inputs = ([bytes([a]) for a in range(256)]
              + [bytes((a, b)) for a in range(256) for b in range(256)] + longer)
    # the oracle is slow: its values are computed before the timed block,
    # so that the budget times crc16 alone
    expected = [crc16_arc_bitwise(data) for data in inputs]
    with criterion(2, "CRC-16 conformance vs bitwise oracle", budget_s=1.0):
        assert crc16(b"123456789") == 0xBB3D
        for data, crc in zip(inputs, expected):
            assert crc16(data) == crc, data


def test_criterion_3_scheme_dominance_on_nsfnet():
    with criterion(3, "resolver scheme beats flooding on NSFnet", budget_s=30.0):
        topology = load_preset("nsfnet")
        paths = PathTable(topology)
        consumers = topology.nodes_with_role("consumer")
        producers = topology.nodes_with_role("producer")
        deployment = Deployment(topology, resolver_count=8)
        sim = Simulation(topology, seed=42)
        ratios_by_distance: dict[int, list[float]] = {}
        checked = 0
        for i, consumer in enumerate(consumers):
            for j, producer in enumerate(producers):
                distance = paths.distance(consumer, producer)
                if distance < 2:
                    continue
                name = parse_name(f"/pair{i}/obj{j}")
                deployment.register_bulk([(name.canonical_text, producer)])
                sim.publish(producer, name)
                outcome = deployment.resolve_and_fetch(consumer, name)
                state = sim.inject_request(consumer, name, at=sim.now)
                sim.run_until(None)
                flood = sim.flow_stats(name)
                assert state.satisfied and outcome.satisfied
                assert outcome.interest_traversals < flood.interest_traversals, (
                    f"pair ({consumer},{producer}) at distance {distance}: "
                    f"{outcome.interest_traversals} !< {flood.interest_traversals}")
                ratios_by_distance.setdefault(distance, []).append(
                    flood.interest_traversals / outcome.interest_traversals)
                checked += 1
        assert checked > 150
        max_distance = max(ratios_by_distance)
        worst = ratios_by_distance[max_distance]
        assert statistics.mean(worst) >= 1.5, (
            f"ratio at distance {max_distance} is {statistics.mean(worst):.2f}")


def test_criterion_4_scalability_shape_on_oteglobe():
    with criterion(4, "linear hop growth across OTEGlobe bins", budget_s=60.0):
        report = run_scenario(ScenarioConfig(scenario="s3", content_count=20_000,
                                             schemes=("balancedn",)))
        bins = report.bins()
        distances = sorted(bins)
        assert len(distances) >= 16, f"only {len(distances)} distance bins"
        sixteen = distances[:16]
        means = [bins[d]["balancedn"].interest_mean for d in sixteen]
        assert all(b > a for a, b in zip(means, means[1:])), (
            f"bin means not strictly increasing: {means}")
        r_squared = statistics.correlation(sixteen, means) ** 2
        assert r_squared >= 0.95, f"linear fit R^2 = {r_squared:.4f}"


def test_criterion_5_skew_tolerance():
    with criterion(5, "lookup timing tolerates skewed shard loads", budget_s=30.0):
        heavy_skew = {0: 650_000, **{i: 50_000 for i in range(1, 8)}}
        report = run_scenario(ScenarioConfig(scenario="s4", skew=heavy_skew))
        times = {p.shard_index: p.mean_lookup_ms for p in report.probes}
        light_mean = statistics.mean(times[i] for i in range(1, 8))
        assert times[0] <= 2.0 * light_mean, (
            f"heavy shard {times[0]:.6f} ms vs light mean {light_mean:.6f} ms")

        report3 = run_scenario(ScenarioConfig(
            scenario="s4", resolver_count=3,
            skew={0: 200_000, 1: 100_000, 2: 100_000}))
        times3 = {p.shard_index: p.mean_lookup_ms for p in report3.probes}
        light3 = statistics.mean((times3[1], times3[2]))
        assert times3[0] <= 1.25 * light3, (
            f"200k shard {times3[0]:.6f} ms vs 100k mean {light3:.6f} ms")


def test_criterion_6_caching_payoff():
    with criterion(6, "second identical request is strictly cheaper", budget_s=5.0):
        for preset in ("nsfnet", "oteglobe"):
            topology = load_preset(preset)
            paths = PathTable(topology)
            consumers = topology.nodes_with_role("consumer")
            producers = topology.nodes_with_role("producer")
            resolvers = topology.nodes_with_role("resolver")
            deployment = Deployment(topology, resolver_count=8)
            hit = 0
            for consumer in consumers:
                for producer in producers:
                    # require different sites so the first request is cold
                    if (paths.nearest(consumer, resolvers)
                            == paths.nearest(producer, resolvers)):
                        continue
                    name = parse_name(f"/payoff/{preset}/{consumer}/{producer}")
                    deployment.register_bulk([(name.canonical_text, producer)])
                    first = deployment.resolve_and_fetch(consumer, name)
                    second = deployment.resolve_and_fetch(consumer, name)
                    assert not first.shortcut_taken
                    assert second.shortcut_taken
                    assert (second.interest_traversals
                            < first.interest_traversals)
                    hit += 1
                    if hit >= 40:
                        break
                if hit >= 40:
                    break
            assert hit >= 40


def test_criterion_7_forwarding_invariants():
    with criterion(7, "forwarding invariants on 100 random graphs", budget_s=30.0):
        rng = random.Random(99)
        for round_no in range(100):
            n = rng.randrange(8, 31)
            topology = random_connected_topology(rng, n)
            paths = PathTable(topology)
            producer = rng.randrange(n)
            consumer = rng.randrange(n)
            while consumer == producer:
                consumer = rng.randrange(n)
            name = parse_name(f"/g{round_no}/x")
            distance = paths.distance(consumer, producer)

            # single request: reverse path, nonce bound, completeness
            sim = Simulation(topology, seed=round_no, track_edges=True)
            sim.publish(producer, name)
            state = sim.inject_request(consumer, name, at=0)
            sim.run_until(None)
            flow = sim.flow_stats(name)
            assert state.satisfied, "flooding must find content on a connected graph"
            assert state.data_path == tuple(reversed(state.interest_path))
            assert flow.interest_traversals <= 2 * len(topology.links)
            assert state.path_hops == distance
            per_hop = (link_transit_ns(LinkDescriptor(0, 1, 1.0, 1000.0), INTEREST_BITS)
                       + link_transit_ns(LinkDescriptor(0, 1, 1.0, 1000.0),
                                         DEFAULT_PAYLOAD_BITS))
            assert state.completed_at - state.injected_at <= distance * per_hop

            # aggregation: several consumers, same name, same instant; no
            # directed edge may carry the interest twice, and every request
            # must end accounted (without retransmission, a flood absorbed
            # into another flood's pending entries may legitimately starve)
            others = [v for v in range(n) if v != producer]
            group = rng.sample(others, min(3, len(others)))
            sim2 = Simulation(topology, seed=round_no, track_edges=True)
            sim2.publish(producer, name)
            group_states = [sim2.inject_request(c, name, at=0) for c in group]
            sim2.run_until(None)
            assert any(s.satisfied for s in group_states)
            assert all(s.satisfied or s.failed for s in group_states)
            assert all(count == 1 for count in sim2.edge_interest_counts.values())
            assert all(s.satisfied != s.failed for s in group_states)

        # LRU equivalence of the shard record cache against a reference
        # replay, randomized programs
        for round_no in range(100):
            capacity = rng.randrange(1, 6)
            shard = ResolverShard(0, cache_capacity=capacity)
            reference = []
            for _ in range(rng.randrange(5, 60)):
                key = f"/k{rng.randrange(8)}"
                if rng.random() < 0.5:
                    shard.store_cached(key, 8)
                    if key in reference:
                        reference.remove(key)
                    elif len(reference) == capacity:
                        reference.pop(0)
                    reference.append(key)
                else:
                    hit = shard.lookup(key)
                    assert (hit is not None) == (key in reference)
                    if key in reference:
                        reference.remove(key)
                        reference.append(key)
            assert list(shard.cache) == reference


def test_criterion_8_determinism_of_cli_runs(tmp_path):
    with criterion(8, "seeded scenario runs are byte-identical", budget_s=60.0):
        payloads = []
        for name in ("det_a.csv", "det_b.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "balancedn.cli", "run", "--scenario", "s2",
                 "--seed", "42", "--out", str(out)],
                capture_output=True, text=True, timeout=120, cwd=SRC)
            assert proc.returncode == 0, proc.stderr
            with open(out, "rb") as fh:
                payloads.append(fh.read())
        assert payloads[0] == payloads[1]
        assert payloads[0].startswith(b"scenario,case,distance,scheme")

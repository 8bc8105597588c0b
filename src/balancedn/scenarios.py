"""Scenario presets: single requests, all-pairs sweeps, and skew probes.

Scenario ids:

    s1_near / s1_mid / s1_long
        One consumer fetches one 1024-bit content item at hop distance
        1 / 2 / the farthest available (>= 4), both schemes, cold caches.
    s2  All cross-subnet consumer/producer pairs on the NSFnet preset
        (plus one extra consumer), unique names, after distributing the
        whole content corpus over the shards by hash.
    s3  The same sweep on the OTEGlobe preset, which offers a much
        wider spread of hop distances.
    s4  Builds shard tables per an explicit per-shard load map and
        times real dictionary lookups (10 repetitions, averaged).

``run_scenario`` loads the topology and checks the resolver count
against it once, for every scenario.  s1 and s2/s3 then only select
their requests: ``_run_single_request`` picks one (consumer, producer,
name) and registers that one name; ``_run_pair_sweep`` picks every
cross-subnet pair and registers the whole corpus, which it builds in
full only when BalanceDN runs (flooding alone reads the requested
prefix).  Both hand their selection to ``_run_requests``, which holds
the one measurement loop of each scheme: a flooding simulation, then a
BalanceDN deployment.

The synthetic corpus names look like ``/cat<k>/obj<i>-<tag>`` with k
cycling over 16 prefixes, i sequential, and a short seeded-random tag.
The tag is what spreads the checksum uniformly: purely sequential
names leave too much structure in the low bits to divide 1e6 items
within the balance tolerances.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import cycle
from typing import IO, Iterable

from .core import parse_name, parse_names
from .engine import Simulation
from .metrics import ProbeStat, RequestRecord, ScenarioReport, emit_csv
from .node import PIT_LIFETIME_NS
from .resolution import Deployment, build_skewed_shards, interleaved_timing_probe
from .topology import (LinkDescriptor, NodeDescriptor, Topology, load_preset,
                       load_topology)

SCENARIOS = ("s1_near", "s1_mid", "s1_long", "s2", "s3", "s4")
SCHEMES = ("flooding", "balancedn")

DEFAULT_CONTENT_COUNT = 1_000_000
PROBES_PER_SHARD = 2000
PROBE_REPETITIONS = 10
# s1 hop distance per case; s1_long takes the farthest producer instead
S1_DISTANCES = {"s1_near": 1, "s1_mid": 2}


class ScenarioError(ValueError):
    """Invalid scenario configuration, or a request its run left unanswered."""


@dataclass(slots=True)
class ScenarioConfig:
    scenario: str
    topology: str = ""  # preset name or file path; empty picks the default
    resolver_count: int = 8
    content_count: int | None = None
    skew: dict[int, int] | None = None
    seed: int = 42
    schemes: tuple[str, ...] = SCHEMES
    out: str | None = None
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ScenarioError(f"unknown scenario {self.scenario!r}")
        if not self.schemes or any(s not in SCHEMES for s in self.schemes):
            raise ScenarioError(f"schemes must be a non-empty subset of {SCHEMES}")
        if self.resolver_count < 1:
            raise ScenarioError("resolver_count must be at least 1")
        if not self.topology:
            self.topology = default_topology(self.scenario)
        if self.scenario == "s4":
            if not self.skew:
                raise ScenarioError("scenario s4 needs a --skew load map")
            bad = [i for i in self.skew if not 0 <= i < self.resolver_count]
            if bad:
                raise ScenarioError(f"skew indices out of range: {bad}")
            if any(c < 0 for c in self.skew.values()):
                raise ScenarioError("skew counts must be non-negative")
            total = sum(self.skew.values())
            if self.content_count is not None and self.content_count != total:
                raise ScenarioError(
                    f"skew counts sum to {total}, not content_count {self.content_count}")
            self.content_count = total
        else:
            if self.skew:
                raise ScenarioError("--skew only applies to scenario s4")
            if self.content_count is None:
                self.content_count = DEFAULT_CONTENT_COUNT
            if self.content_count < 1:
                raise ScenarioError("content_count must be positive")


def default_topology(scenario: str) -> str:
    return "oteglobe" if scenario == "s3" else "nsfnet"


def resolve_topology(config: ScenarioConfig) -> Topology:
    """Load the configured topology, enforcing scenario/preset pairing."""
    name = config.topology
    if name in ("nsfnet", "oteglobe"):
        expected = default_topology(config.scenario)
        if config.scenario != "s4" and name != expected:
            raise ScenarioError(
                f"scenario {config.scenario} pairs with the {expected!r} preset, "
                f"not {name!r}")
        return load_preset(name)
    with open(name, "r", encoding="utf-8") as fh:
        return load_topology(fh.read())


def synthetic_corpus(count: int, seed: int) -> list[str]:
    """Deterministic canonical names, hash-diverse via a seeded tag.

    Name i's tag is the i-th ``getrandbits(16)`` of ``Random(seed)``, in
    four hex digits, but all tags come from one ``getrandbits(32 * count)``
    draw.  CPython's Mersenne Twister fills a k-bit result from
    consecutive 32-bit outputs, least significant word first, and
    ``getrandbits(16)`` is the top half of one output.  So in the draw's
    little-endian bytes, bytes 3 and 2 of word i are tag i: interleaved
    into one buffer, they give every tag's hex digits in one ``hex`` call.

    Name i therefore depends on i and the seed alone, not on ``count``:
    ``synthetic_corpus(m, seed) == synthetic_corpus(n, seed)[:m]`` for
    every m <= n, so a caller may build only the prefix it reads.
    """
    rng = random.Random(seed)
    words = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    tags = bytearray(2 * count)
    tags[0::2] = words[3::4]
    tags[1::2] = words[2::4]
    hexed = tags.hex()
    stems = [f"/cat{k}/obj" for k in range(16)]
    return [f"{stems[i & 15]}{i}-{hexed[4 * i:4 * i + 4]}" for i in range(count)]


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Execute one scenario and return its report (and write CSV if asked)."""
    topology = resolve_topology(config)
    resolver_nodes = topology.nodes_with_role("resolver")
    if config.resolver_count > len(resolver_nodes):
        raise ScenarioError(
            f"resolver_count {config.resolver_count} exceeds the "
            f"{len(resolver_nodes)} resolver nodes in the topology")
    if config.scenario == "s4":
        report = _run_skew_probe(config)
    elif config.scenario.startswith("s1"):
        report = _run_single_request(topology, config)
    else:
        # subnets are the routers' and s2's extra consumer hangs off one
        if not topology.nodes_with_role("router"):
            raise ScenarioError(
                f"scenario {config.scenario} needs a node with the router role; "
                "the topology has none")
        if config.scenario == "s2":
            topology = _with_extra_consumer(topology)
        report = _run_pair_sweep(topology, config)
    if config.out:
        text = emit_csv(report)
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        # one line per row: no field of the schema can hold a line break
        report.rows_written = text.count("\n") - 1
    return report


def _with_extra_consumer(topology: Topology) -> Topology:
    """The populated variant: one extra consumer on the highest-id router."""
    new_id = max(topology.nodes) + 1
    router = topology.nodes_with_role("router")[-1]
    node = NodeDescriptor(new_id, "c-extra", "consumer")
    link = LinkDescriptor(new_id, router, 1.0, 1000.0)
    return topology.with_extra_node(node, [link])


def _log_stream(config: ScenarioConfig) -> IO[str] | None:
    return sys.stderr if config.verbose else None


def _flooding_record(sim: Simulation, producer: int, distance: int,
                     state) -> RequestRecord:
    flow = sim.flow_stats(state.name)
    return RequestRecord(
        consumer=state.consumer, producer=producer,
        distance=distance, scheme="flooding",
        interest_traversals=flow.interest_traversals,
        data_traversals=flow.data_traversals,
        path_hops=state.path_hops,
        latency_ns=state.completed_at - state.injected_at,
        satisfied=state.satisfied,
        bytes_moved=flow.bits_moved // 8,
    )


def _balancedn_record(outcome, consumer: int, distance: int) -> RequestRecord:
    """The record of a satisfied outcome: its last step is the Data return."""
    interest, data, bits = outcome.traffic()
    return RequestRecord(
        consumer=consumer, producer=outcome.producer,
        distance=distance, scheme="balancedn",
        interest_traversals=interest,
        data_traversals=data,
        path_hops=outcome.steps[-1][1],
        latency_ns=outcome.latency_ns,
        satisfied=outcome.satisfied,
        bytes_moved=bits // 8,
    )


def _run_single_request(topology: Topology, config: ScenarioConfig) -> ScenarioReport:
    """Scenario 1: the first consumer fetches one name from one producer."""
    consumers = topology.nodes_with_role("consumer")
    producers = topology.nodes_with_role("producer")
    if not consumers or not producers:
        raise ScenarioError("topology needs consumer and producer nodes")
    consumer = consumers[0]
    by_distance = sorted((topology.paths.distance(consumer, p), p) for p in producers)
    hops = S1_DISTANCES.get(config.scenario)
    if hops is None:  # s1_long: the farthest producer, at least 4 hops away
        picks = [p for d, p in by_distance[-1:] if d >= 4]
    else:
        picks = [p for d, p in by_distance if d == hops]
    if not picks:
        raise ScenarioError(
            f"no producer at distance {hops or '>= 4'} from the first consumer")
    producer = picks[0]
    key = synthetic_corpus(1, config.seed)[0]
    return _run_requests(topology, config, [(consumer, producer, key)],
                         [(key, producer)])


def _cross_subnet_pairs(topology: Topology) -> list[tuple[int, int, int]]:
    """(consumer, producer, corpus slot) for every cross-subnet pair.

    Slot k + j * len(producers) is the j-th name owned by producer k,
    because corpus ownership cycles round-robin over the producers.
    """
    consumers = topology.nodes_with_role("consumer")
    producers = topology.nodes_with_role("producer")
    routers = topology.nodes_with_role("router")
    nearest = topology.paths.nearest
    router_of = {nid: nearest(nid, routers) for nid in consumers + producers}
    pairs = []
    for j, consumer in enumerate(consumers):
        for k, producer in enumerate(producers):
            if router_of[consumer] == router_of[producer]:
                continue
            pairs.append((consumer, producer, k + j * len(producers)))
    return pairs


def _run_pair_sweep(topology: Topology, config: ScenarioConfig) -> ScenarioReport:
    """Scenario 2/3 protocol: every consumer fetches foreign unique content.

    The corpus is built once, as large as the run reads: all
    ``content_count`` names when BalanceDN registers them, otherwise
    only up to the last requested slot, since flooding publishes the
    requested names alone.  By ``synthetic_corpus``'s prefix property
    the requested names are the same either way.
    """
    producers = topology.nodes_with_role("producer")
    pairs = _cross_subnet_pairs(topology)
    if not pairs:
        raise ScenarioError("no cross-subnet consumer/producer pairs")
    last_slot = max(slot for _, _, slot in pairs)
    if last_slot >= config.content_count:
        raise ScenarioError(
            f"content_count {config.content_count} is too small for "
            f"{len(pairs)} unique cross-subnet requests")
    count = config.content_count if "balancedn" in config.schemes else last_slot + 1
    corpus = synthetic_corpus(count, config.seed)
    requests = [(c, p, corpus[slot]) for c, p, slot in pairs]
    # the whole corpus, owned round-robin by the producers
    return _run_requests(topology, config, requests, zip(corpus, cycle(producers)))


def _run_requests(topology: Topology, config: ScenarioConfig,
                  requests: list[tuple[int, int, str]],
                  registrations: Iterable[tuple[str, int]]) -> ScenarioReport:
    """Measure each (consumer, producer, name) request once per scheme.

    Flooding publishes every requested name at its producer, then
    injects the requests one at a time, each drained before the next.
    BalanceDN registers ``registrations`` (name, producer) in bulk, then
    resolves and fetches each request.  Rows come flooding first.  Both
    schemes keep one rule: a request not answered within the Interest
    lifetime, ``PIT_LIFETIME_NS``, fails, and the first failed request
    raises :class:`ScenarioError`.
    """
    paths = topology.paths
    report = ScenarioReport(config.scenario)
    if "flooding" in config.schemes:
        sim = Simulation(topology, seed=config.seed, log=_log_stream(config))
        # one name object per request: published, then injected
        names = [parse_name(key) for _, _, key in requests]
        for (_, producer, _), name in zip(requests, names):
            sim.publish(producer, name)
        for (consumer, producer, _), name in zip(requests, names):
            state = sim.inject_request(consumer, name, at=sim.now)
            sim.run_until(None)
            if not state.satisfied:
                raise _unanswered("flooding", consumer, producer, name)
            report.add(_flooding_record(sim, producer,
                                        paths.distance(consumer, producer), state))
    if "balancedn" in config.schemes:
        deployment = Deployment(topology, config.resolver_count)
        deployment.register_bulk(registrations)
        names = parse_names(key for _, _, key in requests)
        for (consumer, producer, _), name in zip(requests, names):
            outcome = deployment.resolve_and_fetch(consumer, name)
            if not outcome.satisfied:
                raise _unanswered("balancedn", consumer, producer, name)
            report.add(_balancedn_record(outcome, consumer,
                                         paths.distance(consumer, producer)))
        report.shard_loads = _shard_loads(deployment)
    return report


def _unanswered(scheme: str, consumer: int, producer: int, name) -> ScenarioError:
    return ScenarioError(
        f"{scheme} request of consumer {consumer} to producer {producer} for "
        f"{name.canonical_text} was not answered within the "
        f"{PIT_LIFETIME_NS // 1_000_000_000}-s Interest lifetime")


def _shard_loads(deployment: Deployment) -> dict[int, int]:
    loads = {i: 0 for i in range(deployment.resolver_count)}
    for site in deployment.sites.values():
        for shard in site.shards:
            loads[shard.index] += len(shard.authoritative)
    return loads


def _run_skew_probe(config: ScenarioConfig) -> ScenarioReport:
    """Scenario 4: measured lookup timing against skewed shard tables.

    Shards are probed round-robin inside each repetition pass so that
    host noise lands on every shard alike; see interleaved_timing_probe.
    """
    shards = build_skewed_shards(config.skew or {}, config.resolver_count)
    rng = random.Random(config.seed)
    probe_sets = []
    for shard in shards:
        keys = list(shard.authoritative)
        if not keys:
            continue
        sample = rng.sample(keys, min(PROBES_PER_SHARD, len(keys)))
        probe_sets.append((shard, [parse_name(k) for k in sample]))
    timings = interleaved_timing_probe(probe_sets, PROBE_REPETITIONS)
    report = ScenarioReport(config.scenario)
    for shard, names in probe_sets:
        report.probes.append(ProbeStat(shard.index, PROBE_REPETITIONS * len(names),
                                       timings[shard.index]))
    # every shard, empty ones included, as _shard_loads gives for s2/s3
    report.shard_loads = {shard.index: len(shard.authoritative) for shard in shards}
    return report

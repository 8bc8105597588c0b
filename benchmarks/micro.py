"""Per-layer micro-loops: the ROADMAP Baseline numbers from one source.

Each loop times one layer's public call on fixed-size inputs made from
the seed, apart from any workload, and reports the median of a few
repetitions.  They run in their own process after a run's timed
iterations, so they never overlap the end-to-end measurements.

The s4 skew path (build_skewed_shards on the README's skew map, then
interleaved_timing_probe) is timed here once rather than as a workload:
its 1,000,000-name shard build is set-up that no workload's requests
depend on.  Its shard tables are checked against the skew map and a
bitwise CRC-16/ARC oracle.
"""

from __future__ import annotations

import random
import statistics
import time

from workloads import CRC_SAMPLES_PER_SHARD, crc16_arc_bitwise

CRC_NAMES = 20_000
CORPUS_NAMES = 100_000
REGISTER_NAMES = 100_000
RESOLVE_REQUESTS = 2_000
FLOODS = 40
REPEATS = 3
SKEW = {0: 650_000, 1: 50_000, 2: 50_000, 3: 50_000,
        4: 50_000, 5: 50_000, 6: 50_000, 7: 50_000}
SKEW_PROBE_NAMES = 2_000
SKEW_PROBE_REPETITIONS = 10


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def micro_loops(seed: int) -> dict:
    """{"metrics": per-layer numbers, "errors": failed skew-path checks}."""
    from balancedn.core import crc16, parse_name
    from balancedn.engine import Simulation
    from balancedn.resolution import (Deployment, build_skewed_shards,
                                      interleaved_timing_probe)
    from balancedn.scenarios import synthetic_corpus
    from balancedn.topology import load_preset

    out: dict[str, float] = {}
    encoded = [name.encode() for name in synthetic_corpus(CRC_NAMES, seed)]

    def crc_all():
        for data in encoded:
            crc16(data)

    out["core.crc16_ns_per_name"] = _median_time(crc_all) * 1e9 / CRC_NAMES
    out["scenarios.corpus_names_per_s"] = CORPUS_NAMES / _median_time(
        lambda: synthetic_corpus(CORPUS_NAMES, seed))

    nsfnet = load_preset("nsfnet")
    producers = nsfnet.nodes_with_role("producer")
    corpus = synthetic_corpus(REGISTER_NAMES, seed)
    pairs = [(key, producers[i % len(producers)]) for i, key in enumerate(corpus)]
    out["resolution.register_names_per_s"] = REGISTER_NAMES / _median_time(
        lambda: Deployment(nsfnet).register_bulk(pairs))

    # All-pairs BFS on a fresh deployment's path table; the resolve loop
    # below then runs with every path known, so it times lookup alone.
    ote = load_preset("oteglobe")
    deployment = Deployment(ote)
    start = time.perf_counter()
    for nid in ote.nodes:
        deployment.paths.from_source(nid)
    out["topology.allpairs_s"] = time.perf_counter() - start

    producers = ote.nodes_with_role("producer")
    consumers = ote.nodes_with_role("consumer")
    names = synthetic_corpus(RESOLVE_REQUESTS, seed)
    deployment.register_bulk((key, producers[i % len(producers)])
                             for i, key in enumerate(names))
    rng = random.Random(seed)
    requests = [(rng.choice(consumers), parse_name(key)) for key in names]
    start = time.perf_counter()
    for consumer, name in requests:
        deployment.resolve_and_fetch(consumer, name)
    out["resolution.resolve_us_per_request"] = (
        (time.perf_counter() - start) * 1e6 / RESOLVE_REQUESTS)

    sim = Simulation(ote, seed=seed)
    elapsed = 0.0
    for i in range(FLOODS):
        name = parse_name(f"/micro/flood{i}")
        sim.publish(rng.choice(producers), name)
        sim.inject_request(rng.choice(consumers), name, at=sim.now)
        start = time.perf_counter()
        sim.run_until(None)
        elapsed += time.perf_counter() - start
    out["engine.us_per_event"] = elapsed * 1e6 / sim.processed
    out["engine.events_per_flood"] = sim.processed / FLOODS

    start = time.perf_counter()
    shards = build_skewed_shards(SKEW, len(SKEW))
    out["resolution.skew_build_s"] = time.perf_counter() - start
    errors = []
    probe_sets = []
    for shard in shards:
        keys = list(shard.authoritative)
        if len(keys) != SKEW[shard.index]:
            errors.append(f"shard {shard.index} holds {len(keys)} records, "
                          f"skew map says {SKEW[shard.index]}")
        sample = rng.sample(keys, min(SKEW_PROBE_NAMES, len(keys)))
        wrong = [key for key in sample[:CRC_SAMPLES_PER_SHARD]
                 if crc16_arc_bitwise(key.encode()) % len(SKEW) != shard.index]
        if wrong:
            errors.append(f"skew shard {shard.index}: {len(wrong)} sampled names "
                          f"hash elsewhere, e.g. {wrong[0]}")
        probe_sets.append((shard, [parse_name(key) for key in sample]))
    start = time.perf_counter()
    interleaved_timing_probe(probe_sets, SKEW_PROBE_REPETITIONS)
    out["resolution.probe_s"] = time.perf_counter() - start
    return {"metrics": out, "errors": errors}
